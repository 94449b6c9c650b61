//! `defer_exec` — commit-latency comparison of the two deferred-op
//! executors (DESIGN.md §10), and the tracked evidence that the pooled
//! executor earns its complexity.
//!
//! The workload is the shape atomic deferral exists for: every transaction
//! makes a small transactional update and atomically defers a *long
//! blocking* operation (~`--op-us`, modeling the paper's buffered file
//! I/O) on its own deferrable object, then does some non-transactional
//! application work (~`--think-us`) before the next transaction. Under the
//! `Inline` executor the committing thread runs the deferred op before
//! `atomically` returns, so the op's full duration lands on the caller's
//! commit latency. Under `Pool` the commit returns right after
//! write-back and quiescence and a worker absorbs the op — the
//! caller-observed latency drops by the op duration, and the think time
//! gives workers room to drain the queue so it stays bounded. Both the
//! op and the think time sleep rather than spin: the op models blocking
//! I/O and the think time models off-CPU application work, which keeps
//! the comparison meaningful even on single-core machines (a spinning
//! op would just re-serialize everything on the CPU).
//!
//! Each cell times every `atomically()` call on the calling thread (the
//! runtime's own `commit_latency_ns` histogram is recorded *before*
//! post-commit work runs, deliberately — it measures the protocol, not the
//! executor; see OBSERVABILITY.md). Emits `BENCH_defer_exec.json` with
//! per-executor p50/p99/max and the headline `p99_speedup`; the tracked
//! floor is ≥5× (EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p ad-bench --bin defer_exec                 # full run
//! cargo run --release -p ad-bench --bin defer_exec -- --smoke     # CI: quick + asserts
//! cargo run --release -p ad-bench --bin defer_exec -- \
//!     --threads 4 --ops 200 --op-us 100 --think-us 300 --out PATH
//! ```

use std::time::{Duration, Instant};

use ad_defer::{atomic_defer, Defer};
use ad_stm::{Runtime, StatsReport, TVar, TmConfig};
use ad_support::args::{arg_flag, arg_num, arg_value};
use ad_support::hist::Histogram;
use ad_support::sync::atomic::{AtomicU64, Ordering};

struct Cell {
    executor: &'static str,
    ops_per_sec: f64,
    commit_p50_ns: u64,
    commit_p99_ns: u64,
    commit_max_ns: u64,
    stats: StatsReport,
}

/// One arm: `threads` workers, each running `ops` transactions against its
/// own deferrable object (disjoint locks — the arms compare executor
/// placement, not lock contention).
fn run_arm(
    cfg: TmConfig,
    executor: &'static str,
    threads: usize,
    ops: usize,
    op_cost: Duration,
    think: Duration,
) -> Cell {
    let rt = Runtime::new(cfg);
    rt.set_tracing(true); // fills defer_queue_wait_ns; identical cost in both arms

    struct Obj {
        applied: AtomicU64,
    }
    let objs: Vec<Defer<Obj>> = (0..threads)
        .map(|_| {
            Defer::new(Obj {
                applied: AtomicU64::new(0),
            })
        })
        .collect();
    let vars: Vec<TVar<u64>> = (0..threads).map(|_| TVar::new(0)).collect();
    let commit_ns = Histogram::default();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rt, obj, var) = (rt.clone(), objs[t].clone(), vars[t].clone());
            let commit_ns = &commit_ns;
            s.spawn(move || {
                for _ in 0..ops {
                    let c0 = Instant::now();
                    rt.atomically(|tx| {
                        obj.with(tx, |_, tx| tx.modify(&var, |x| x + 1))?;
                        let o = obj.clone();
                        atomic_defer(tx, &[&obj], move || {
                            std::thread::sleep(op_cost);
                            o.locked().applied.fetch_add(1, Ordering::Relaxed);
                        })
                    });
                    commit_ns.record(c0.elapsed().as_nanos() as u64);
                    std::thread::sleep(think);
                }
            });
        }
    });
    rt.drain_deferred();
    let elapsed = t0.elapsed();

    let total = (threads * ops) as u64;
    let applied: u64 = objs
        .iter()
        .map(|o| o.peek_unsynchronized().applied.load(Ordering::Relaxed))
        .sum();
    assert_eq!(applied, total, "{executor}: deferred ops lost");

    let snap = commit_ns.snapshot();
    Cell {
        executor,
        ops_per_sec: total as f64 / elapsed.as_secs_f64(),
        commit_p50_ns: snap.quantile(0.50),
        commit_p99_ns: snap.quantile(0.99),
        commit_max_ns: snap.max(),
        stats: rt.snapshot_stats(),
    }
}

fn main() {
    let smoke = arg_flag("--smoke");
    let threads: usize = arg_num("--threads", 2);
    let ops: usize = arg_num("--ops", if smoke { 100 } else { 500 });
    let op_us: u64 = arg_num("--op-us", 200);
    let think_us: u64 = arg_num("--think-us", 600);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_defer_exec.json".to_string());
    let op_cost = Duration::from_micros(op_us);
    let think = Duration::from_micros(think_us);

    println!("defer_exec: {threads} threads x {ops} ops, op {op_us}us, think {think_us}us");

    let cells = [
        run_arm(TmConfig::stm(), "inline", threads, ops, op_cost, think),
        run_arm(
            TmConfig::stm().with_defer_pool(threads, threads * 64),
            "pool",
            threads,
            ops,
            op_cost,
            think,
        ),
    ];
    for c in &cells {
        println!(
            "  {:<7} {:>10.0} ops/s  commit p50 {:>9}ns  p99 {:>9}ns  max {:>9}ns  \
             (offloads {}, queue wait p99 {}ns)",
            c.executor,
            c.ops_per_sec,
            c.commit_p50_ns,
            c.commit_p99_ns,
            c.commit_max_ns,
            c.stats.counters.defer_offloads,
            c.stats.defer_queue_wait_ns.quantile(0.99),
        );
    }

    let inline_p99 = cells[0].commit_p99_ns;
    let pool_p99 = cells[1].commit_p99_ns.max(1);
    let speedup = inline_p99 as f64 / pool_p99 as f64;
    println!("pool commit-latency p99 speedup over inline: {speedup:.1}x");

    // Sanity that the arms actually exercised the executors as configured.
    assert_eq!(
        cells[0].stats.counters.defer_offloads, 0,
        "inline arm offloaded"
    );
    // Every batch is accounted once: offloaded, or diverted inline when
    // the bounded queue was momentarily full (the backpressure fallback).
    assert_eq!(
        cells[1].stats.counters.defer_offloads + cells[1].stats.counters.defer_inline_fallbacks,
        (threads * ops) as u64,
        "pool arm lost batches"
    );
    assert!(
        cells[1].stats.counters.defer_offloads > 0,
        "pool arm never offloaded"
    );
    if smoke {
        // The structural fact, on medians: inline, the op runs before
        // `atomically` returns, so half the commits cannot be shorter than
        // the op; pooled, a commit does not contain it. The p99 ratio above
        // is a ratio of two single samples at smoke size — report-only.
        let op_ns = op_us * 1000;
        let (inline_p50, pool_p50) = (cells[0].commit_p50_ns, cells[1].commit_p50_ns);
        assert!(
            inline_p50 >= op_ns,
            "inline commit p50 {inline_p50}ns is shorter than the {op_ns}ns op it runs"
        );
        assert!(
            pool_p50 < op_ns / 2,
            "pool executor left the {op_ns}ns op on the commit path: commit p50 {pool_p50}ns"
        );
        println!("smoke ok");
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"defer_exec\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"ops_per_thread\": {ops},\n"));
    json.push_str(&format!("  \"op_us\": {op_us},\n"));
    json.push_str(&format!("  \"think_us\": {think_us},\n"));
    json.push_str(&format!("  \"p99_speedup\": {speedup:.2},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"executor\": \"{}\", \"ops_per_sec\": {:.0}, \
             \"commit_p50_ns\": {}, \"commit_p99_ns\": {}, \"commit_max_ns\": {}, \
             \"stats\": {}}}{}\n",
            c.executor,
            c.ops_per_sec,
            c.commit_p50_ns,
            c.commit_p99_ns,
            c.commit_max_ns,
            c.stats.to_json(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
