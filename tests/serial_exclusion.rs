//! An irrevocable transaction runs alone.
//!
//! `Runtime::synchronized` reads and writes memory directly, with no
//! validation and nothing to roll back, so no speculative transaction may
//! run beside it — not even one that commits between two of its reads.
//! Four threads mix speculative transfers with irrevocable steps over one
//! bank for about a second. Every irrevocable step checks the total
//! before, between and after its own transfer, and every speculative
//! closure checks that no irrevocable step is in flight.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_stm::{Runtime, StmResult, TVar, TmConfig, Tx};

const ACCOUNTS: usize = 8;
const THREADS: usize = 4;
const TOTAL: i64 = 1_000 * ACCOUNTS as i64;

fn total(tx: &mut Tx, accounts: &[TVar<i64>]) -> StmResult<i64> {
    accounts.iter().try_fold(0, |sum, a| Ok(sum + tx.read(a)?))
}

#[test]
fn synchronized_steps_see_the_bank_whole_and_alone() {
    let rt = Runtime::new(TmConfig::stm());
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new((0..ACCOUNTS).map(|_| TVar::new(1_000)).collect());
    let inside = Arc::new(AtomicBool::new(false));
    let serial_steps = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(1);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, accounts, inside, serial_steps) = (&rt, &accounts, &inside, &serial_steps);
            s.spawn(move || {
                let mut i = t;
                while Instant::now() < deadline {
                    i += 1;
                    let (from, to) = (i % ACCOUNTS, (i * 7 + 3) % ACCOUNTS);
                    if i % 8 == 0 {
                        rt.synchronized(|tx| {
                            assert!(
                                !inside.swap(true, Ordering::SeqCst),
                                "two irrevocable steps"
                            );
                            assert_eq!(total(tx, accounts)?, TOTAL, "before the step");
                            let a = tx.read(&accounts[from])?;
                            tx.write(&accounts[from], a - 5)?;
                            // Mid-transfer: the bank is short by 5 here,
                            // and only here.
                            assert_eq!(total(tx, accounts)?, TOTAL - 5, "mid-step");
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[to], b + 5)?;
                            assert_eq!(total(tx, accounts)?, TOTAL, "after the step");
                            inside.store(false, Ordering::SeqCst);
                            Ok(())
                        });
                        serial_steps.fetch_add(1, Ordering::Relaxed);
                    } else {
                        rt.atomically(|tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 1)?;
                            if from == to {
                                tx.write(&accounts[to], a)?;
                            } else {
                                tx.write(&accounts[to], b + 1)?;
                            }
                            assert!(
                                !inside.load(Ordering::SeqCst),
                                "a speculative transaction ran inside an irrevocable one"
                            );
                            Ok(())
                        });
                    }
                }
            });
        }
    });

    let final_total = rt.atomically(|tx| total(tx, &accounts));
    assert_eq!(final_total, TOTAL);
    let steps = serial_steps.load(Ordering::Relaxed);
    assert!(steps > 0, "no irrevocable step ran");
    assert_eq!(rt.stats().serial_commits, steps);
}
