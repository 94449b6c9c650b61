//! The `defer_io` workload's shape (paper Listing 6), outside the
//! benchmark harness: two threads, four deferrable logs, half subscribing
//! reads and half bumps that `atomic_defer` an append. The paper's claim,
//! checked on the logs: a transaction and its deferred append are one
//! atomic step, so each log holds exactly one record per bump, in counter
//! order, and no reader ever sees a counter go back.
//!
//! A lock with two owners would show here as the `TxLock::release` panic
//! or as a lost bump. Looped for ten minutes this test never hit one
//! (EXPERIMENTS.md); the model `ad-stm` `verify::extension_model`
//! reproduces that bug by seed.

use std::sync::Mutex;

use ad_defer::{atomic_defer, Defer, Deferrable};
use ad_stm::{Runtime, TVar, TmConfig};
use ad_support::prng::Rng;

const THREADS: usize = 2;
const LOGS: usize = 4;
const OPS_PER_THREAD: usize = 20_000;

/// One appended record: the counter value it was written for, the writer
/// and the writer's own bump sequence number.
type Record = (u64, usize, u64);

/// A deferrable log: the counter is transactional state, the records are
/// touched only by deferred operations, which hold the log's TxLock.
struct Log {
    counter: TVar<u64>,
    records: Mutex<Vec<Record>>,
}

fn worker(rt: &Runtime, logs: &[Defer<Log>], thread: usize) -> u64 {
    let mut rng = Rng::seed_from_u64(0x5eed + thread as u64);
    let mut seen = [0u64; LOGS];
    let mut bumps = 0u64;
    for _ in 0..OPS_PER_THREAD {
        let i = rng.random_range(0..LOGS);
        let log = &logs[i];
        if rng.random_bool(0.5) {
            let c = rt.atomically(|tx| log.with(tx, |l, tx| tx.read(&l.counter)));
            assert!(
                c >= seen[i],
                "log {i}: counter went back from {} to {c}",
                seen[i]
            );
            seen[i] = c;
        } else {
            bumps += 1;
            let seq = bumps;
            let c = rt.atomically(|tx| {
                // Subscribe and read, register the deferral, then write:
                // the defer-before-first-write order `defer_io` uses.
                let c = log.with(tx, |l, tx| tx.read(&l.counter))? + 1;
                let log2 = log.clone();
                atomic_defer(tx, &[log], move || {
                    log2.locked()
                        .records
                        .lock()
                        .expect("no deferred op panicked")
                        .push((c, thread, seq));
                })?;
                log.with(tx, |l, tx| tx.write(&l.counter, c))?;
                Ok(c)
            });
            assert!(
                c > seen[i],
                "log {i}: bumped to {c} after seeing {}",
                seen[i]
            );
            seen[i] = c;
        }
    }
    bumps
}

#[test]
fn every_bump_appends_one_record_in_counter_order() {
    let rt = Runtime::new(TmConfig::stm());
    let logs: Vec<Defer<Log>> = (0..LOGS)
        .map(|_| {
            Defer::new(Log {
                counter: TVar::new(0),
                records: Mutex::new(Vec::new()),
            })
        })
        .collect();

    let bumps: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, logs) = (&rt, &logs);
                s.spawn(move || worker(rt, logs, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker panicked"))
            .sum()
    });

    let mut records = 0u64;
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log.txlock().holder(), None, "log {i}: lock left held");
        let l = log.peek_unsynchronized();
        let counter = l.counter.load();
        let recs = l.records.lock().expect("no deferred op panicked");
        assert_eq!(recs.len() as u64, counter, "log {i}: one record per bump");
        let mut last_seq = [0u64; THREADS];
        for (n, &(c, thread, seq)) in recs.iter().enumerate() {
            assert_eq!(c, n as u64 + 1, "log {i}: record {n} out of counter order");
            assert!(
                seq > last_seq[thread],
                "log {i}: thread {thread}'s records out of issue order"
            );
            last_seq[thread] = seq;
        }
        records += counter;
    }
    assert_eq!(records, bumps, "every bump left exactly one record");
}
