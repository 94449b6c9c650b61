#![cfg(not(loom))]

//! Stress tests for the lock-free snapshot read path.
//!
//! `VarCore` publishes values through an epoch-reclaimed atomic pointer
//! (`ad_stm::snapshot`) instead of a lock, so these tests hammer exactly
//! the interleavings that design must survive:
//!
//! * non-transactional `TVar::load` racing transactional commit write-backs
//!   — a loaded compound value must never tear (it is one snapshot or the
//!   next, never a mix);
//! * non-transactional `TVar::store` (the `direct_write` path) racing
//!   readers — reclamation must not free a snapshot a reader still holds,
//!   which would be a use-after-free that miri-less CI can still catch as
//!   corrupted data;
//! * a transfer workload whose global invariant (conserved sum) a torn or
//!   stale-beyond-seqlock read would violate;
//! * a randomized single-threaded interleaving of transactions, direct
//!   stores, and loads checked against a plain sequential model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use ad_stm::{Runtime, TVar, TmConfig};
use ad_support::prng::Rng;

/// Readers continuously `load` a pair that writers only ever set to
/// `(n, !n)`: observing any pair that doesn't satisfy the relation means a
/// read tore across two snapshots.
#[test]
fn nontx_load_never_tears_against_commits() {
    let rt = Runtime::new(TmConfig::stm());
    let v: Arc<TVar<(u64, u64)>> = Arc::new(TVar::new((0, !0)));
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..3 {
        let v = Arc::clone(&v);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (a, b) = v.load();
                assert_eq!(b, !a, "torn snapshot read: ({a:#x}, {b:#x})");
                seen += 1;
            }
            seen
        }));
    }

    // Writer: transactional commits (write-back path) interleaved with
    // direct stores (serial/non-transactional path).
    for i in 1..=20_000u64 {
        if i % 4 == 0 {
            v.store((i, !i));
        } else {
            rt.atomically(|tx| tx.write(&v, (i, !i)));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }
}

/// Transactional readers must see consistent snapshots too: each
/// transaction reads the pair twice while committers replace it. The
/// second read comes from the read cache, which keeps the pointer the
/// first read borrowed under the attempt's pin, not an `Arc` clone: that
/// value must outlive every overwrite and collection until the attempt
/// unpins, and the re-read must return it.
#[test]
fn transactional_reads_are_opaque_under_write_storm() {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let v: Arc<TVar<(u64, u64)>> = Arc::new(TVar::new((0, !0)));
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let rt = Arc::clone(&rt);
        let v = Arc::clone(&v);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let ((a1, b1), (a2, b2)) = rt.atomically(|tx| {
                    let first = tx.read(&v)?;
                    let second = tx.read(&v)?;
                    Ok((first, second))
                });
                assert_eq!(b1, !a1, "torn transactional read");
                assert_eq!((a1, b1), (a2, b2), "re-read diverged from snapshot");
            }
        }));
    }

    for i in 1..=10_000u64 {
        rt.atomically(|tx| tx.write(&v, (i, !i)));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
}

/// Concurrent transfers between accounts conserve the total; concurrent
/// non-transactional audits (plain `load`s) must never observe memory
/// corruption even while snapshots are retired and reclaimed under them.
#[test]
fn transfer_stress_conserves_sum() {
    const ACCOUNTS: usize = 8;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 5_000;
    const TOTAL: i64 = 1_000 * ACCOUNTS as i64;

    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(1_000i64)).collect());
    let stop = Arc::new(AtomicBool::new(false));

    let auditor = {
        let accounts = Arc::clone(&accounts);
        let stop = Arc::clone(&stop);
        let rt = Arc::clone(&rt);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Transactional audit: must always see exactly TOTAL.
                let sum = rt.atomically(|tx| {
                    let mut s = 0i64;
                    for a in accounts.iter() {
                        s += tx.read(a)?;
                    }
                    Ok(s)
                });
                assert_eq!(sum, TOTAL, "transactional audit saw a partial transfer");
                // Non-transactional audit: individually consistent loads
                // (sum may be mid-transfer, but every load must return an
                // intact, sane value — not freed or zeroed memory).
                for a in accounts.iter() {
                    let x = a.load();
                    assert!((0..=TOTAL).contains(&x), "corrupt balance {x}");
                }
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let rt = Arc::clone(&rt);
            let accounts = Arc::clone(&accounts);
            thread::spawn(move || {
                let mut rng = Rng::seed_from_u64(0xA11CE + t as u64);
                for _ in 0..TRANSFERS {
                    let from = rng.random_range(0..ACCOUNTS);
                    // Self-transfers would double-write one account (the
                    // credit overwrites the debit) and mint money.
                    let to = (from + 1 + rng.random_range(0..ACCOUNTS - 1)) % ACCOUNTS;
                    let amt = rng.random_range_i64(1..50);
                    rt.atomically(|tx| {
                        let f = tx.read(&accounts[from])?;
                        if f < amt {
                            return Ok(());
                        }
                        let g = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], f - amt)?;
                        tx.write(&accounts[to], g + amt)
                    });
                }
            })
        })
        .collect();

    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    auditor.join().unwrap();

    let sum = rt.atomically(|tx| {
        let mut s = 0i64;
        for a in accounts.iter() {
            s += tx.read(a)?;
        }
        Ok(s)
    });
    assert_eq!(sum, TOTAL);
}

/// Randomized single-threaded interleaving of the three access paths
/// (transactions, direct stores, direct loads) against a sequential model:
/// every read — transactional or not — must match the model exactly.
#[test]
fn randomized_accesses_match_sequential_model() {
    const VARS: usize = 5;
    const STEPS: usize = 4_000;

    for seed in 0..8u64 {
        let rt = Runtime::new(TmConfig::stm());
        let vars: Vec<TVar<i64>> = (0..VARS).map(|_| TVar::new(0)).collect();
        let mut model = [0i64; VARS];
        let mut rng = Rng::seed_from_u64(0xBEEF ^ seed);

        for step in 0..STEPS {
            match rng.random_range(0..4) {
                // Direct store.
                0 => {
                    let i = rng.random_range(0..VARS);
                    let k = rng.random_range_i64(-1_000..1_000);
                    vars[i].store(k);
                    model[i] = k;
                }
                // Direct load.
                1 => {
                    let i = rng.random_range(0..VARS);
                    assert_eq!(vars[i].load(), model[i], "seed {seed} step {step}");
                }
                // Read-modify-write transaction over two variables.
                2 => {
                    let a = rng.random_range(0..VARS);
                    let b = rng.random_range(0..VARS);
                    rt.atomically(|tx| {
                        let x = tx.read(&vars[a])?;
                        tx.write(&vars[b], x + 1)
                    });
                    model[b] = model[a] + 1;
                }
                // Read-only transaction over all variables.
                _ => {
                    let snap = rt.atomically(|tx| {
                        let mut out = [0i64; VARS];
                        for (i, v) in vars.iter().enumerate() {
                            out[i] = tx.read(v)?;
                        }
                        Ok(out)
                    });
                    assert_eq!(snap, model, "seed {seed} step {step}");
                }
            }
        }
    }
}
