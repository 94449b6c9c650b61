#![cfg(not(loom))]

//! Semantic tests for the STM engine: atomicity, isolation, opacity,
//! retry, irrevocability, contention management, and post-commit hooks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ad_stm::{atomically, Runtime, StmError, TVar, TmConfig};

#[test]
fn transaction_returns_closure_result() {
    let v = TVar::new(5u32);
    let doubled = atomically(|tx| {
        let x = tx.read(&v)?;
        Ok(x * 2)
    });
    assert_eq!(doubled, 10);
}

#[test]
fn writes_are_invisible_until_commit() {
    let v = TVar::new(0u32);
    let observed_mid_tx = Arc::new(AtomicU64::new(u64::MAX));
    let gate_in = Arc::new(AtomicBool::new(false));
    let gate_out = Arc::new(AtomicBool::new(false));

    let v2 = v.clone();
    let (obs, gi, go) = (
        Arc::clone(&observed_mid_tx),
        Arc::clone(&gate_in),
        Arc::clone(&gate_out),
    );
    let observer = thread::spawn(move || {
        while !gi.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        obs.store(v2.load() as u64, Ordering::Release);
        go.store(true, Ordering::Release);
    });

    atomically(|tx| {
        tx.write(&v, 99)?;
        // Signal the observer after buffering the write, and wait for it to
        // look. It must still see 0.
        gate_in.store(true, Ordering::Release);
        while !gate_out.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        Ok(())
    });

    observer.join().unwrap();
    assert_eq!(observed_mid_tx.load(Ordering::Acquire), 0);
    assert_eq!(v.load(), 99);
}

#[test]
fn read_your_own_writes() {
    let v = TVar::new(1u32);
    let seen = atomically(|tx| {
        tx.write(&v, 2)?;
        tx.read(&v)
    });
    assert_eq!(seen, 2);
}

#[test]
fn repeated_reads_see_stable_snapshot() {
    let v = TVar::new(7u32);
    atomically(|tx| {
        let a = tx.read(&v)?;
        let b = tx.read(&v)?;
        assert_eq!(a, b);
        Ok(())
    });
}

#[test]
fn bank_transfers_conserve_money() {
    const ACCOUNTS: usize = 16;
    const THREADS: usize = 8;
    const TRANSFERS: usize = 2_000;
    const INITIAL: i64 = 1_000;

    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let accounts = Arc::clone(&accounts);
        handles.push(thread::spawn(move || {
            let mut rng = (t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for _ in 0..TRANSFERS {
                let from = (next() as usize) % ACCOUNTS;
                let to = (next() as usize) % ACCOUNTS;
                let amount = (next() % 50) as i64;
                atomically(|tx| {
                    let a = tx.read(&accounts[from])?;
                    let b = tx.read(&accounts[to])?;
                    if from != to {
                        tx.write(&accounts[from], a - amount)?;
                        tx.write(&accounts[to], b + amount)?;
                    }
                    Ok(())
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let total = atomically(|tx| {
        let mut sum = 0i64;
        for acc in accounts.iter() {
            sum += tx.read(acc)?;
        }
        Ok(sum)
    });
    assert_eq!(total, ACCOUNTS as i64 * INITIAL);
}

#[test]
fn concurrent_increments_are_not_lost() {
    const THREADS: usize = 8;
    const INCS: u64 = 2_000;
    let counter = TVar::new(0u64);
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let counter = counter.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..INCS {
                atomically(|tx| tx.modify(&counter, |c| c + 1));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(), THREADS as u64 * INCS);
}

#[test]
fn snapshot_is_consistent_across_two_vars() {
    // Writers keep (a, b) equal; readers must never observe a != b.
    let a = TVar::new(0u64);
    let b = TVar::new(0u64);
    let stop = Arc::new(AtomicBool::new(false));

    let (a2, b2, stop2) = (a.clone(), b.clone(), Arc::clone(&stop));
    let writer = thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            i += 1;
            atomically(|tx| {
                tx.write(&a2, i)?;
                tx.write(&b2, i)
            });
        }
    });

    for _ in 0..20_000 {
        let (x, y) = atomically(|tx| {
            let x = tx.read(&a)?;
            let y = tx.read(&b)?;
            Ok((x, y))
        });
        assert_eq!(x, y, "observed torn transactional snapshot");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn read_arc_returns_snapshot_without_clone() {
    let big = TVar::new(vec![1u8; 100_000]);
    let snapshot = atomically(|tx| tx.read_arc(&big));
    assert_eq!(snapshot.len(), 100_000);
    // Mutating the variable afterwards does not disturb the snapshot.
    big.store(vec![2u8; 3]);
    assert_eq!(snapshot[0], 1);
    assert_eq!(big.load(), vec![2u8; 3]);
}

#[test]
fn read_arc_sees_own_buffered_write() {
    let v = TVar::new(String::from("old"));
    let got = atomically(|tx| {
        tx.write(&v, String::from("new"))?;
        tx.read_arc(&v)
    });
    assert_eq!(&*got, "new");
}

#[test]
fn read_write_read_same_var_is_consistent() {
    let v = TVar::new(1u32);
    atomically(|tx| {
        let a = tx.read(&v)?;
        tx.write(&v, a + 10)?;
        let b = tx.read(&v)?;
        assert_eq!(b, a + 10);
        tx.write(&v, b + 10)?;
        let c = tx.read(&v)?;
        assert_eq!(c, a + 20);
        Ok(())
    });
    assert_eq!(v.load(), 21);
}

#[test]
fn write_set_and_read_set_sizes_are_reported() {
    let vars: Vec<TVar<u8>> = (0..5).map(TVar::new).collect();
    atomically(|tx| {
        for v in &vars[..3] {
            tx.read(v)?;
        }
        for v in &vars[3..] {
            tx.write(v, 0)?;
        }
        assert_eq!(tx.read_set_len(), 3);
        assert_eq!(tx.write_set_len(), 2);
        Ok(())
    });
}

#[test]
fn zombie_transactions_cannot_act_on_inconsistent_state() {
    // Opacity: writers keep x == y; a reader computing 100 / (1 + x - y)
    // must never divide by zero, even transiently inside a doomed attempt
    // (validate-on-read aborts it first).
    let x = TVar::new(0i64);
    let y = TVar::new(0i64);
    let stop = Arc::new(AtomicBool::new(false));

    let (x2, y2, stop2) = (x.clone(), y.clone(), Arc::clone(&stop));
    let writer = thread::spawn(move || {
        let mut i = 0i64;
        while !stop2.load(Ordering::Relaxed) {
            i += 1;
            atomically(|tx| {
                tx.write(&x2, i)?;
                tx.write(&y2, i)
            });
        }
    });

    for _ in 0..20_000 {
        let q = atomically(|tx| {
            let a = tx.read(&x)?;
            let b = tx.read(&y)?;
            // With a broken snapshot (a = i+1, b = i), the divisor is 2 —
            // so also assert equality; with a - b < 0 skew it could be 0.
            Ok(100 / (1 + a - b))
        });
        assert_eq!(q, 100);
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn retry_blocks_until_condition_holds() {
    let flag = TVar::new(false);
    let value = TVar::new(0u32);

    let (f2, v2) = (flag.clone(), value.clone());
    let consumer = thread::spawn(move || {
        atomically(|tx| {
            if !tx.read(&f2)? {
                return tx.retry();
            }
            tx.read(&v2)
        })
    });

    thread::sleep(Duration::from_millis(30));
    atomically(|tx| {
        tx.write(&value, 42)?;
        tx.write(&flag, true)
    });
    assert_eq!(consumer.join().unwrap(), 42);
}

#[test]
fn retry_with_park_policy_blocks_until_condition_holds() {
    let rt = Runtime::new(TmConfig::stm().with_retry_policy(ad_stm::RetryPolicy::Park));
    let flag = TVar::new(false);

    let rt2 = rt.clone();
    let f2 = flag.clone();
    let consumer = thread::spawn(move || {
        rt2.atomically(|tx| {
            if !tx.read(&f2)? {
                return tx.retry();
            }
            Ok(())
        });
    });

    thread::sleep(Duration::from_millis(50));
    rt.atomically(|tx| tx.write(&flag, true));
    consumer.join().unwrap();
    let stats = rt.stats();
    assert!(stats.retries >= 1);
}

#[test]
fn synchronized_runs_irrevocably() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u32);
    let was_irrevocable = rt.synchronized(|tx| {
        tx.write(&v, 5)?;
        Ok(tx.is_irrevocable())
    });
    assert!(was_irrevocable);
    assert_eq!(v.load(), 5);
    assert_eq!(rt.stats().serial_commits, 1);
}

#[test]
fn require_irrevocable_escalates_speculative_transaction() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u32);
    let executions = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&executions);
    let v2 = v.clone();
    rt.atomically(move |tx| {
        e2.fetch_add(1, Ordering::Relaxed);
        tx.require_irrevocable()?;
        assert!(tx.is_irrevocable());
        tx.write(&v2, 9)
    });
    assert_eq!(v.load(), 9);
    // One speculative attempt that aborted with Unsupported + one serial.
    assert_eq!(executions.load(Ordering::Relaxed), 2);
    let stats = rt.stats();
    assert_eq!(stats.aborts_unsupported, 1);
    assert_eq!(stats.serializations, 1);
    assert_eq!(stats.serial_commits, 1);
}

#[test]
fn irrevocable_excludes_concurrent_transactions() {
    // While an irrevocable transaction runs, no speculative transaction may
    // commit.
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u64);
    let in_serial = Arc::new(AtomicBool::new(false));
    let serial_done = Arc::new(AtomicBool::new(false));

    let rt2 = rt.clone();
    let v2 = v.clone();
    let (is2, sd2) = (Arc::clone(&in_serial), Arc::clone(&serial_done));
    let serial_thread = thread::spawn(move || {
        rt2.synchronized(|tx| {
            tx.write(&v2, 1)?;
            is2.store(true, Ordering::Release);
            thread::sleep(Duration::from_millis(50));
            sd2.store(true, Ordering::Release);
            Ok(())
        });
    });

    while !in_serial.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    // This transaction must block until the irrevocable one finishes.
    rt.atomically(|tx| {
        assert!(
            serial_done.load(Ordering::Acquire),
            "speculative transaction ran concurrently with an irrevocable one"
        );
        tx.modify(&v, |x| x + 1)
    });
    serial_thread.join().unwrap();
    assert_eq!(v.load(), 2);
}

#[test]
fn contention_manager_serializes_after_threshold() {
    // A transaction that always fails with Conflict (injected) must
    // eventually run serially and succeed.
    let rt = Runtime::new(TmConfig::stm().with_serialize_after(3));
    let attempts = Arc::new(AtomicU64::new(0));
    let a2 = Arc::clone(&attempts);
    let result = rt.atomically(move |tx| {
        let n = a2.fetch_add(1, Ordering::Relaxed);
        if !tx.is_irrevocable() {
            assert!(n < 3, "should have serialized by attempt 3");
            return Err(StmError::Conflict);
        }
        Ok(n)
    });
    assert_eq!(result, 3);
    let stats = rt.stats();
    assert_eq!(stats.serializations, 1);
    assert_eq!(stats.aborts_conflict, 3);
}

#[test]
fn post_commit_actions_run_in_order_after_commit() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u32);
    let log = Arc::new(ad_support::sync::Mutex::new(Vec::new()));

    let (l1, l2) = (Arc::clone(&log), Arc::clone(&log));
    let v_obs = v.clone();
    rt.atomically(move |tx| {
        tx.write(&v, 7)?;
        let l1 = Arc::clone(&l1);
        let v_obs = v_obs.clone();
        tx.defer_post_commit(Box::new(move |_rt| {
            // The transaction's writes must be visible to the deferred op.
            assert_eq!(v_obs.load(), 7);
            l1.lock().push("first");
        }));
        let l2 = Arc::clone(&l2);
        tx.defer_post_commit(Box::new(move |_rt| {
            l2.lock().push("second");
        }));
        Ok(())
    });

    assert_eq!(*log.lock(), vec!["first", "second"]);
    assert_eq!(rt.stats().deferred_ops, 2);
}

#[test]
fn post_commit_actions_discarded_on_abort() {
    let rt = Runtime::new(TmConfig::stm());
    let ran = Arc::new(AtomicBool::new(false));
    let first_attempt = Arc::new(AtomicBool::new(true));

    let (r2, fa2) = (Arc::clone(&ran), Arc::clone(&first_attempt));
    rt.atomically(move |tx| {
        if fa2.swap(false, Ordering::Relaxed) {
            let r3 = Arc::clone(&r2);
            tx.defer_post_commit(Box::new(move |_rt| {
                r3.store(true, Ordering::Relaxed);
            }));
            // Abort this attempt: its deferred action must be dropped.
            return Err(StmError::Conflict);
        }
        Ok(())
    });
    assert!(!ran.load(Ordering::Relaxed));
}

#[test]
fn deferred_drops_happen_after_post_commit_actions() {
    struct DropProbe(Arc<ad_support::sync::Mutex<Vec<&'static str>>>);
    impl Drop for DropProbe {
        fn drop(&mut self) {
            self.0.lock().push("drop");
        }
    }

    let rt = Runtime::new(TmConfig::stm());
    let log = Arc::new(ad_support::sync::Mutex::new(Vec::new()));
    let (l1, l2) = (Arc::clone(&log), Arc::clone(&log));
    rt.atomically(move |tx| {
        tx.defer_drop(Box::new(DropProbe(Arc::clone(&l1))));
        let l = Arc::clone(&l2);
        tx.defer_post_commit(Box::new(move |_rt| l.lock().push("action")));
        Ok(())
    });
    assert_eq!(*log.lock(), vec!["action", "drop"]);
}

#[test]
fn readonly_transactions_commit_without_clock_tick() {
    let v = TVar::new(1u32);
    atomically(|tx| tx.read(&v)); // warm up
    let before = ad_stm::internals::clock_now();
    for _ in 0..100 {
        atomically(|tx| tx.read(&v));
    }
    let after = ad_stm::internals::clock_now();
    // Other tests may run concurrently and tick the clock, but 100 of our
    // own read-only transactions must not add 100 ticks themselves. Use a
    // dedicated runtime-independent bound: in an isolated run this is 0.
    assert!(
        after - before < 200,
        "read-only commits appear to tick the clock"
    );
}

#[test]
fn stats_track_commits_and_conflicts() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u64);
    for _ in 0..10 {
        rt.atomically(|tx| tx.modify(&v, |x| x + 1));
    }
    let s = rt.stats();
    assert_eq!(s.commits, 10);
    assert_eq!(s.starts, 10);
    rt.reset_stats();
    assert_eq!(rt.stats().commits, 0);
}

#[test]
fn quiescence_can_be_disabled() {
    let rt = Runtime::new(TmConfig::stm().with_quiesce(false));
    let v = TVar::new(0u32);
    rt.atomically(|tx| tx.write(&v, 1));
    assert_eq!(rt.stats().quiesce_waits, 0);
}

#[test]
fn writer_quiesces_behind_long_running_reader() {
    // Thread R starts a long transaction; thread W commits a write to an
    // unrelated variable and must wait (quiesce) until R finishes.
    let rt = Runtime::new(TmConfig::stm());
    let shared = TVar::new(0u64);
    let unrelated = TVar::new(0u64);
    let reader_in = Arc::new(AtomicBool::new(false));
    let reader_done = Arc::new(AtomicBool::new(false));

    let rt2 = rt.clone();
    let s2 = shared.clone();
    let (ri, rd) = (Arc::clone(&reader_in), Arc::clone(&reader_done));
    let reader = thread::spawn(move || {
        rt2.atomically(|tx| {
            let x = tx.read(&s2)?;
            ri.store(true, Ordering::Release);
            thread::sleep(Duration::from_millis(60));
            rd.store(true, Ordering::Release);
            Ok(x)
        });
    });

    while !reader_in.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
    let t0 = std::time::Instant::now();
    rt.atomically(|tx| tx.write(&unrelated, 1));
    let waited = t0.elapsed();
    assert!(
        reader_done.load(Ordering::Acquire),
        "writer commit returned before the older transaction finished"
    );
    assert!(waited >= Duration::from_millis(20));
    reader.join().unwrap();
    assert!(rt.stats().quiesce_waits >= 1);
}

#[test]
fn nontransactional_store_aborts_conflicting_transaction() {
    // A transaction reads v, then a non-transactional store bumps it before
    // commit: the transaction must re-execute and see the new value.
    let v = TVar::new(0u32);
    let stored = Arc::new(AtomicBool::new(false));
    let v2 = v.clone();
    let s2 = Arc::clone(&stored);
    let final_seen = atomically(move |tx| {
        let x = tx.read(&v2)?;
        if !s2.swap(true, Ordering::Relaxed) {
            // First attempt: invalidate ourselves from outside the
            // transaction system.
            v2.store(100);
        }
        // Force a write so commit validates the read set.
        tx.write(&v2, x + 1)?;
        Ok(x)
    });
    assert_eq!(final_seen, 100);
    assert_eq!(v.load(), 101);
}

#[test]
#[should_panic(expected = "inside a transaction")]
fn nested_independent_atomically_is_refused() {
    // Starting an independent transaction inside one is a deadlock hazard
    // (the serial read lock is held); the runner must refuse loudly.
    let v = TVar::new(0u32);
    atomically(|_tx| {
        atomically(|tx2| tx2.read(&v)); // BOOM
        Ok(())
    });
}

#[test]
fn in_transaction_reports_the_attempt_in_flight() {
    assert!(!ad_stm::in_transaction());
    assert!(atomically(|_tx| Ok(ad_stm::in_transaction())));
    assert!(ad_stm::synchronized(|_tx| Ok(ad_stm::in_transaction())));
    assert!(!ad_stm::in_transaction(), "the marker outlived the attempt");
}

#[test]
fn a_committed_transaction_keeps_nothing_it_read_alive() {
    struct Flag(Arc<AtomicBool>);
    impl Drop for Flag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let dropped = Arc::new(AtomicBool::new(false));
    let v = TVar::new(Arc::new(Flag(Arc::clone(&dropped))));
    atomically(|tx| tx.read(&v).map(drop));
    // No transaction follows on this thread: nothing but `v` may still
    // hold the cell or its value.
    drop(v);
    assert!(
        dropped.load(Ordering::SeqCst),
        "the pooled transaction descriptor kept a read value alive"
    );
}

#[test]
fn transactions_fine_after_guard_panic_unwinds() {
    // The in-transaction marker must be cleared even when the closure
    // panics, or the thread could never transact again.
    let v = TVar::new(0u32);
    let v2 = v.clone();
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        atomically(|_tx| {
            atomically(|tx2| tx2.read(&v2));
            Ok(())
        })
    }));
    atomically(|tx| tx.write(&v, 3));
    assert_eq!(v.load(), 3);
}

#[test]
fn panicking_transaction_does_not_wedge_the_runtime() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u32);
    let rt2 = rt.clone();
    let v2 = v.clone();
    let result = thread::spawn(move || {
        rt2.atomically(|tx| {
            tx.write(&v2, 1)?;
            panic!("boom");
            #[allow(unreachable_code)]
            Ok(())
        })
    })
    .join();
    assert!(result.is_err());
    // The runtime must still work: writers must not hang in quiescence
    // behind the panicked transaction's activity slot.
    rt.atomically(|tx| tx.write(&v, 2));
    assert_eq!(v.load(), 2);
}

#[test]
fn configured_tiny_trace_ring_reports_drops() {
    // `TmConfig::with_trace_ring` must actually size the per-thread rings:
    // a 4-event ring cannot hold the ~3 events per committed transaction
    // of this loop, so the drained trace must report drops, while a
    // default-sized runtime tracing the same workload reports none.
    let tiny = Runtime::new(TmConfig::stm().with_trace_ring(4));
    tiny.set_tracing(true);
    let v = TVar::new(0u64);
    for _ in 0..50 {
        let v2 = v.clone();
        tiny.atomically(move |tx| {
            let x = tx.read(&v2)?;
            tx.write(&v2, x + 1)
        });
    }
    let t = tiny.take_trace();
    assert!(
        t.dropped > 0,
        "a 4-event ring kept all events of 50 transactions"
    );
    assert!(!t.events.is_empty());

    let roomy = Runtime::new(TmConfig::stm());
    roomy.set_tracing(true);
    let w = TVar::new(0u64);
    for _ in 0..50 {
        let w2 = w.clone();
        roomy.atomically(move |tx| {
            let x = tx.read(&w2)?;
            tx.write(&w2, x + 1)
        });
    }
    let t = roomy.take_trace();
    assert_eq!(t.dropped, 0);
    assert_eq!(v.load(), 50);
    assert_eq!(w.load(), 50);
}

#[test]
fn counts_from_an_exited_thread_survive() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u64);
    let (rt2, v2) = (rt.clone(), v.clone());
    std::thread::spawn(move || {
        for _ in 0..5 {
            rt2.atomically(|tx| tx.modify(&v2, |x| x + 1));
        }
    })
    .join()
    .unwrap();
    let s = rt.stats();
    assert_eq!(s.commits, 5, "{s}");
    assert_eq!(s.starts, 5, "{s}");
}

#[test]
fn reset_stats_zeroes_every_threads_counters() {
    let rt = Runtime::new(TmConfig::stm());
    let v = TVar::new(0u64);
    let go = Arc::new(std::sync::Barrier::new(2));
    let done = Arc::new(std::sync::Barrier::new(2));
    let worker = {
        let (rt, v, go, done) = (rt.clone(), v.clone(), Arc::clone(&go), Arc::clone(&done));
        std::thread::spawn(move || {
            rt.atomically(|tx| tx.modify(&v, |x| x + 1));
            go.wait();
            done.wait();
            rt.atomically(|tx| tx.modify(&v, |x| x + 1));
        })
    };
    rt.atomically(|tx| tx.modify(&v, |x| x + 1));
    go.wait();
    // Both threads are live and have counted one commit each.
    assert_eq!(rt.stats().commits, 2);
    rt.reset_stats();
    assert_eq!(rt.stats(), ad_stm::StatsSnapshot::default());
    done.wait();
    worker.join().unwrap();
    // Counting resumes from zero on the thread that was reset while live.
    assert_eq!(rt.stats().commits, 1);
}

#[test]
fn two_runtimes_on_one_thread_keep_their_counts_apart() {
    let (a, b) = (Runtime::new(TmConfig::stm()), Runtime::new(TmConfig::stm()));
    let v = TVar::new(0u64);
    for _ in 0..3 {
        a.atomically(|tx| tx.modify(&v, |x| x + 1));
    }
    b.atomically(|tx| tx.read(&v).map(drop));
    assert_eq!((a.stats().commits, b.stats().commits), (3, 1));
    a.reset_stats();
    assert_eq!((a.stats().commits, b.stats().commits), (0, 1));
}
