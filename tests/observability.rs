//! Integration tests for the observability layer: the latency histograms
//! and the event trace must tell the paper's story end to end.
//!
//! * The Figure 1 motivation scenario — a long operation inside a
//!   transaction — must show up in the `quiesce_wait_ns` histogram: an
//!   unrelated writer's p99 quiescence wait is the long-op duration.
//! * The event timeline must respect the deferral lifecycle per committed
//!   transaction: `begin` → `defer_enqueue` → `commit` →
//!   `defer_exec_start` → `defer_exec_end`, with enqueue/exec indices
//!   matching.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ad_defer::{atomic_defer, Defer};
use ad_stm::{EventKind, Runtime, TVar, TmConfig};

/// The asserted long-op duration. The stalled transaction starts *after*
/// the long transaction has begun, so its quiescence wait is the long op
/// minus scheduling latency; the long transaction sleeps `LONG_OP` plus a
/// 10ms allowance so the histogram's p99 still clears `LONG_OP` itself.
const LONG_OP: Duration = Duration::from_millis(25);
const SCHED_ALLOWANCE: Duration = Duration::from_millis(10);

#[test]
fn quiesce_histogram_p99_covers_long_op_stall() {
    let rt = Runtime::new(TmConfig::stm());
    rt.set_tracing(true);

    let a = TVar::new(0u64);
    let d = TVar::new(0u64);
    let t1_running = AtomicBool::new(false);

    std::thread::scope(|s| {
        // T1: a transaction whose body performs a long operation (the
        // paper's Figure 1 `Operate(C)` inlined in the transaction).
        s.spawn(|| {
            rt.atomically(|tx| {
                tx.modify(&a, |x| x + 1)?;
                t1_running.store(true, Ordering::Release);
                std::thread::sleep(LONG_OP + SCHED_ALLOWANCE);
                Ok(())
            });
        });

        // T3: entirely disjoint (touches only D), but as a committing
        // writer it must quiesce behind T1's still-running transaction.
        s.spawn(|| {
            while !t1_running.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            rt.atomically(|tx| tx.modify(&d, |x| x + 1));
        });
    });

    let report = rt.snapshot_stats();
    let q = &report.quiesce_wait_ns;
    assert!(q.count() >= 1, "no quiescence waits recorded: {report}");
    assert!(
        q.quantile(0.99) >= LONG_OP.as_nanos() as u64,
        "quiesce p99 {}ns < long op {}ns — the stall the paper motivates \
         with is not visible in the histogram",
        q.quantile(0.99),
        LONG_OP.as_nanos()
    );

    // The same stall must appear on the event timeline as a
    // quiesce_enter/quiesce_exit pair.
    let trace = rt.take_trace();
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::QuiesceExit && e.arg >= LONG_OP.as_nanos() as u64),
        "no quiesce_exit event with waited >= long op:\n{}",
        trace.render()
    );
}

#[test]
fn defer_events_are_ordered_per_committed_transaction() {
    const OPS: usize = 48;
    const THREADS: usize = 2;

    let rt = Runtime::new(TmConfig::stm());
    rt.set_tracing(true);

    struct Sink {
        applied: AtomicU64,
    }
    let counters: Vec<TVar<u64>> = (0..2).map(|_| TVar::new(0)).collect();
    let sink = Defer::new(Sink {
        applied: AtomicU64::new(0),
    });

    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= OPS {
                    break;
                }
                let slot = i % counters.len();
                let ran = Arc::new(AtomicBool::new(false));
                rt.atomically(|tx| {
                    let v = tx.read(&counters[slot])?;
                    tx.write(&counters[slot], v + 1)?;
                    let (sink2, ran2) = (sink.clone(), Arc::clone(&ran));
                    atomic_defer(tx, &[&sink], move || {
                        sink2.locked().applied.fetch_add(1, Ordering::Relaxed);
                        ran2.store(true, Ordering::Relaxed);
                    })
                });
                assert!(
                    ran.load(Ordering::Relaxed),
                    "`atomically` returned before its deferred op ran"
                );
            });
        }
    });
    assert_eq!(
        sink.peek_unsynchronized().applied.load(Ordering::Relaxed),
        OPS as u64
    );

    let report = rt.snapshot_stats();
    assert_eq!(report.counters.deferred_ops, OPS as u64);
    assert_eq!(report.defer_queue_to_done_ns.count(), OPS as u64);

    let trace = rt.take_trace();
    assert_eq!(trace.dropped, 0, "ring overflow would break the check");

    // Each op's `defer_exec_*` events come from the thread that emitted its
    // `defer_enqueue`: the committing thread runs its own deferred ops.
    let threads_of = |kind: EventKind| -> BTreeSet<u32> {
        trace
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.thread)
            .collect()
    };
    assert_eq!(
        threads_of(EventKind::DeferExecStart),
        threads_of(EventKind::DeferEnqueue),
        "a deferred op ran off its committing thread:\n{}",
        trace.render()
    );

    let mut execs_seen = 0u64;
    let threads: BTreeSet<u32> = trace.events.iter().map(|e| e.thread).collect();
    for t in threads {
        // Deferred actions run post-commit on the thread that committed, so
        // the lifecycle is checkable per-thread: walk the stream keeping the
        // indices enqueued by the currently open transaction; a commit —
        // emitted once write-back and quiescence are done — transfers them
        // to the expected-exec queue; exec events must drain that queue in
        // order. (An aborted attempt re-begins before its retry, clearing
        // its enqueues — their deferred ops never run.)
        let mut open_tx: Vec<u64> = Vec::new();
        let mut expected: std::collections::VecDeque<u64> = Default::default();
        let mut started: Option<u64> = None;
        for e in trace.thread_events(t) {
            match e.kind {
                // A begin inside a deferred action is a transaction the
                // op runs itself; top-level begins discard aborted enqueues.
                EventKind::Begin if started.is_none() => open_tx.clear(),
                EventKind::DeferEnqueue => open_tx.push(e.arg),
                EventKind::Commit if started.is_none() => {
                    expected.extend(open_tx.drain(..));
                }
                EventKind::DeferExecStart => {
                    assert_eq!(
                        expected.front(),
                        Some(&e.arg),
                        "exec_start out of order on thread {t}:\n{}",
                        trace.render()
                    );
                    assert!(started.is_none(), "nested deferred execution");
                    started = Some(e.arg);
                }
                EventKind::DeferExecEnd => {
                    assert_eq!(started.take(), Some(e.arg), "unpaired exec_end");
                    assert_eq!(expected.pop_front(), Some(e.arg));
                    execs_seen += 1;
                }
                _ => {}
            }
        }
        assert!(
            expected.is_empty() && started.is_none(),
            "thread {t} committed deferred ops that never executed"
        );
    }
    assert_eq!(execs_seen, OPS as u64, "every committed op must execute");
}
