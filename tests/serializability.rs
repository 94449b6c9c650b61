//! Stress tests of the paper's central claim: a transaction and its
//! deferred operations appear atomic to every other transaction
//! (serializability via two-phase locking, §4.1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ad_defer::{atomic_defer, Defer};
use ad_stm::{Runtime, TVar, TmConfig};

/// A bank whose ledger (TVar) is updated transactionally and whose "audit
/// trail" is appended by a deferred operation. Invariant observable by any
/// transaction: trail length == number of committed transfers.
struct Bank {
    balance: TVar<i64>,
    transfers: TVar<u64>,
    trail_len: TVar<u64>,
}

fn stress(rt: &Runtime, threads: usize, transfers_per_thread: usize) {
    let bank = Arc::new(Defer::new(Bank {
        balance: TVar::new(0),
        transfers: TVar::new(0),
        trail_len: TVar::new(0),
    }));
    let violations = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Observer: under subscription, transfers == trail_len always.
        let (b, v, st, rt2) = (
            Arc::clone(&bank),
            Arc::clone(&violations),
            Arc::clone(&stop),
            rt.clone(),
        );
        let observer = s.spawn(move || {
            while !st.load(Ordering::Relaxed) {
                let (t, l) = rt2.atomically(|tx| {
                    b.with(tx, |f, tx| {
                        let t = tx.read(&f.transfers)?;
                        let l = tx.read(&f.trail_len)?;
                        Ok((t, l))
                    })
                });
                if t != l {
                    v.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        for _ in 0..threads {
            let bank = Arc::clone(&bank);
            let rt2 = rt.clone();
            s.spawn(move || {
                for i in 0..transfers_per_thread {
                    let bank2 = Arc::clone(&bank);
                    rt2.atomically(move |tx| {
                        bank2.with(tx, |f, tx| {
                            tx.modify(&f.balance, |b| b + (i as i64 % 7) - 3)?;
                            tx.modify(&f.transfers, |t| t + 1)
                        })?;
                        let bank3 = Arc::clone(&bank2);
                        atomic_defer(tx, &[&*bank2], move || {
                            // The "audit write": slow, non-transactional,
                            // protected by the object's lock.
                            std::hint::spin_loop();
                            bank3.locked().trail_len.update_locked(|l| l + 1);
                        })
                    });
                }
            });
        }

        // Let workers finish, then stop the observer.
        // (scope joins workers automatically; signal after spawning by
        // joining workers via a separate scope is simpler:)
        drop(observer); // handle not needed; observer exits via `stop`
        s.spawn(move || {
            // Watchdog thread flips `stop` once all transfers are visible.
            loop {
                let done = bank.peek_unsynchronized().transfers.load()
                    == (threads * transfers_per_thread) as u64;
                if done {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });

    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "observer saw transfers != trail_len: deferral atomicity violated"
    );
}

#[test]
fn deferral_is_serializable_under_stress_stm() {
    stress(&Runtime::new(TmConfig::stm()), 4, 300);
}

#[test]
fn deferral_is_serializable_under_stress_htm() {
    stress(&Runtime::new(TmConfig::htm()), 4, 300);
}

#[test]
fn two_phase_locking_across_two_objects() {
    // A deferred op updates two deferrable objects; observers must see them
    // change together.
    let rt = Runtime::new(TmConfig::stm());
    struct Cell {
        v: TVar<u64>,
    }
    let x = Defer::new(Cell { v: TVar::new(0) });
    let y = Defer::new(Cell { v: TVar::new(0) });
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        let (x2, y2, st, vio, rt2) = (
            x.clone(),
            y.clone(),
            Arc::clone(&stop),
            Arc::clone(&violations),
            rt.clone(),
        );
        s.spawn(move || {
            while !st.load(Ordering::Relaxed) {
                let (a, b) = rt2.atomically(|tx| {
                    let a = x2.with(tx, |c, tx| tx.read(&c.v))?;
                    let b = y2.with(tx, |c, tx| tx.read(&c.v))?;
                    Ok((a, b))
                });
                if a != b {
                    vio.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        let (x3, y3, rt3) = (x.clone(), y.clone(), rt.clone());
        s.spawn(move || {
            for _ in 0..200 {
                let (x4, y4) = (x3.clone(), y3.clone());
                rt3.atomically(move |tx| {
                    let (x5, y5) = (x4.clone(), y4.clone());
                    atomic_defer(tx, &[&x4.clone(), &y4.clone()], move || {
                        x5.locked().v.update_locked(|v| v + 1);
                        // A window where x != y — must be invisible.
                        std::hint::spin_loop();
                        y5.locked().v.update_locked(|v| v + 1);
                    })
                });
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(violations.load(Ordering::Relaxed), 0);
    assert_eq!(x.peek_unsynchronized().v.load(), 200);
    assert_eq!(y.peek_unsynchronized().v.load(), 200);
}
