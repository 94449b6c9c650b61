//! `atomic_defer` itself (paper §4, Listing 1).
//!
//! `atomic_defer(tx, objs, op)` schedules `op` to run immediately after the
//! enclosing transaction commits (and, for writers, quiesces), in call
//! order, with the implicit locks of every object in `objs` held from the
//! commit point until `op` completes. Because the lock acquisitions are
//! transactional writes, the whole protocol is two-phase locking:
//!
//! 1. *Growing phase*: during the transaction, locks are only acquired
//!    (buffered); they all become visible atomically at commit, together
//!    with the transaction's own updates.
//! 2. *Shrinking phase*: after each deferred operation finishes, its locks
//!    are released.
//!
//! Any other transaction that touches a deferrable object meanwhile — via
//! its subscribing accessors — blocks or aborts, so no transaction can
//! observe the state between "transaction committed" and "deferred
//! operation done". That is the paper's serializability guarantee.
//!
//! If the transaction aborts, the buffered lock acquisitions and the queued
//! operation simply evaporate — deferred operations of aborted transactions
//! never run.
//!
//! With the runtime's observability layer on (`Runtime::set_tracing`), the
//! whole protocol is visible on the merged event timeline: `lock_acquire`
//! events for the growing phase, `defer_enqueue` when the operation is
//! queued, the enclosing `commit`, then paired `defer_exec_start` /
//! `defer_exec_end` events with the same queue index — and the
//! queue-to-completion latency lands in the `defer_queue_to_done_ns`
//! histogram of `Runtime::snapshot_stats()`. See `OBSERVABILITY.md`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use ad_stm::{StmResult, Tx};

use crate::deferrable::Deferrable;
use crate::txlock::TxLock;

/// Atomically defer `op` until after the enclosing transaction commits,
/// holding the implicit locks of all `objs` until `op` completes.
///
/// `objs` must list **every** shared (deferrable) object `op` accesses; an
/// access to an unlisted object is a data race (paper §4.1). Thread-private
/// data may be captured freely. Passing the same object (or two handles to
/// it) more than once is fine — the locks are reentrant.
///
/// Multiple `atomic_defer` calls in one transaction run in call order, each
/// seeing the effects of the previous ones.
///
/// **Ordering discipline:** in a transaction that may execute irrevocably
/// (via `synchronized`, `require_irrevocable`, or contention-manager
/// escalation), call `atomic_defer` — and any other potentially blocking
/// operation — *before* the transaction's first write. Irrevocable writes
/// are applied eagerly and cannot be rolled back, so blocking on a held
/// lock after them is a fatal error. (Speculative transactions have no such
/// restriction.)
///
/// ```
/// use ad_stm::{atomically, TVar};
/// use ad_defer::{atomic_defer, Defer};
///
/// struct LogFile { lines: TVar<Vec<String>> }
/// let log = Defer::new(LogFile { lines: TVar::new(Vec::new()) });
///
/// let log2 = log.clone();
/// atomically(|tx| {
///     let msg = format!("x = {}", 42); // prepared inside the transaction
///     let log2 = log2.clone();
///     atomic_defer(tx, &[&log2.clone()], move || {
///         // Runs after commit; the lock is held, so transactional readers
///         // of `log` wait rather than observing a partial update.
///         log2.locked().lines.update_locked(|mut l| { l.push(msg.clone()); l });
///     })
/// });
/// assert_eq!(log.peek_unsynchronized().lines.load().len(), 1);
/// ```
pub fn atomic_defer<F>(tx: &mut Tx, objs: &[&dyn Deferrable], op: F) -> StmResult<()>
where
    F: FnOnce() + Send + 'static,
{
    // Growing phase: acquire every lock inside the transaction, owned by
    // the committing thread, which also runs `op`. A lock held by another
    // owner makes the whole transaction retry — "use transaction to
    // acquire locks without deadlock" (Listing 1).
    let mut locks: Vec<TxLock> = Vec::with_capacity(objs.len());
    for obj in objs {
        obj.txlock().acquire(tx)?;
        locks.push(obj.txlock().clone());
    }
    tx.defer_post_commit(Box::new(move |rt| {
        // A panicking operation must not leak its locks forever — that
        // would wedge every later subscriber. Release first, then let the
        // panic propagate out of `atomically`.
        let outcome = catch_unwind(AssertUnwindSafe(op));
        // Shrinking phase: release this operation's locks. Reentrancy means
        // an object shared with a later deferred operation stays held until
        // that operation's own release.
        for lock in locks {
            lock.release_now(rt);
        }
        if let Err(panic) = outcome {
            resume_unwind(panic);
        }
    }));
    Ok(())
}

/// The "pass nil as the second argument" variant from §5.1: defer `op` with
/// **no** associated objects. The operation runs after commit but is not
/// atomic with the transaction — appropriate when `op` synchronizes
/// internally (e.g. appending to a timestamped log where order is
/// reconstructed post-mortem).
pub fn atomic_defer_unordered<F>(tx: &mut Tx, op: F) -> StmResult<()>
where
    F: FnOnce() + Send + 'static,
{
    tx.defer_post_commit(Box::new(move |_rt| op()));
    Ok(())
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::deferrable::Defer;
    use ad_stm::{atomically, Runtime, StmError, TVar, TmConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    struct Obj {
        a: TVar<u64>,
        b: TVar<u64>,
    }

    fn obj() -> Defer<Obj> {
        Defer::new(Obj {
            a: TVar::new(0),
            b: TVar::new(0),
        })
    }

    #[test]
    fn deferred_op_runs_after_commit() {
        let o = obj();
        let ran = Arc::new(AtomicBool::new(false));
        let (o2, r2) = (o.clone(), Arc::clone(&ran));
        atomically(|tx| {
            let (o3, r3) = (o2.clone(), Arc::clone(&r2));
            atomic_defer(tx, &[&o2.clone()], move || {
                o3.locked().a.store(1);
                r3.store(true, Ordering::Release);
            })
        });
        assert!(ran.load(Ordering::Acquire));
        assert_eq!(o.peek_unsynchronized().a.load(), 1);
        assert_eq!(
            o.txlock().holder(),
            None,
            "lock must be released after the op"
        );
    }

    #[test]
    fn deferred_ops_run_in_call_order_and_see_prior_effects() {
        let o = obj();
        let order = Arc::new(ad_support::sync::Mutex::new(Vec::new()));
        let o1 = o.clone();
        let ordr = Arc::clone(&order);
        atomically(move |tx| {
            let (oa, la) = (o1.clone(), Arc::clone(&ordr));
            atomic_defer(tx, &[&o1.clone()], move || {
                oa.locked().a.store(10);
                la.lock().push(1);
            })?;
            let (ob, lb) = (o1.clone(), Arc::clone(&ordr));
            atomic_defer(tx, &[&o1.clone()], move || {
                // Effects of the earlier deferred op must be visible.
                assert_eq!(ob.locked().a.load(), 10);
                ob.locked().b.store(20);
                lb.lock().push(2);
            })
        });
        assert_eq!(*order.lock(), vec![1, 2]);
        assert_eq!(o.txlock().holder(), None);
        assert_eq!(o.txlock().depth(), 0);
    }

    #[test]
    fn aborted_transaction_never_runs_deferred_op() {
        let o = obj();
        let ran = Arc::new(AtomicBool::new(false));
        let first = Arc::new(AtomicBool::new(true));
        let (o2, r2, f2) = (o.clone(), Arc::clone(&ran), Arc::clone(&first));
        atomically(move |tx| {
            if f2.swap(false, Ordering::Relaxed) {
                let r3 = Arc::clone(&r2);
                atomic_defer(tx, &[&o2.clone()], move || {
                    r3.store(true, Ordering::Relaxed);
                })?;
                return Err(StmError::Conflict);
            }
            Ok(())
        });
        assert!(!ran.load(Ordering::Relaxed));
        assert_eq!(o.txlock().holder(), None, "aborted defer leaked a lock");
    }

    #[test]
    fn no_intermediate_state_is_observable() {
        // The serializability property (Figure 1 / §4): a transaction that
        // writes `a` transactionally and `b` in its deferred op must appear
        // atomic — observers reading both through subscribing accessors must
        // see either (0, 0) or (1, 1), never (1, 0).
        let o = obj();
        let stop = Arc::new(AtomicBool::new(false));

        let (o2, stop2) = (o.clone(), Arc::clone(&stop));
        let observer = std::thread::spawn(move || {
            let mut observations = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                let pair = atomically(|tx| {
                    o2.with(tx, |f, tx| {
                        let a = tx.read(&f.a)?;
                        let b = tx.read(&f.b)?;
                        Ok((a, b))
                    })
                });
                observations.push(pair);
            }
            observations
        });

        std::thread::sleep(Duration::from_millis(10));
        let o3 = o.clone();
        atomically(move |tx| {
            o3.with(tx, |f, tx| tx.write(&f.a, 1))?;
            let o4 = o3.clone();
            atomic_defer(tx, &[&o3.clone()], move || {
                // Simulate a long-running deferred operation.
                std::thread::sleep(Duration::from_millis(50));
                o4.locked().b.store(1);
            })
        });
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let observations = observer.join().unwrap();
        for (a, b) in observations {
            assert_eq!(a, b, "observed intermediate state ({a}, {b})");
        }
    }

    #[test]
    fn subscriber_aborts_when_lock_acquired_after_subscription() {
        // A transaction subscribes while the lock is free, then the lock is
        // acquired before it commits: its commit must fail and re-execute.
        let o = obj();
        let first = Arc::new(AtomicBool::new(true));
        let attempts = Arc::new(AtomicU64::new(0));
        let saboteur: Arc<ad_support::sync::Mutex<Option<std::thread::JoinHandle<()>>>> =
            Arc::new(ad_support::sync::Mutex::new(None));

        let (o2, f2, at2, sab2) = (
            o.clone(),
            Arc::clone(&first),
            Arc::clone(&attempts),
            Arc::clone(&saboteur),
        );
        atomically(move |tx| {
            at2.fetch_add(1, Ordering::Relaxed);
            o2.with(tx, |fields, tx| {
                let a = tx.read(&fields.a)?;
                tx.write(&fields.a, a + 1)
            })?;
            if f2.swap(false, Ordering::Relaxed) {
                // Sabotage: another thread runs a transaction+deferral cycle
                // on the object before we commit. We must NOT join it here —
                // its commit quiesces waiting for *this* transaction to end —
                // so we only wait until its lock acquisition is visible (the
                // write-back happens before its quiescence).
                let o3 = o2.clone();
                *sab2.lock() = Some(std::thread::spawn(move || {
                    atomically(|tx| {
                        let o4 = o3.clone();
                        atomic_defer(tx, &[&o3.clone()], move || {
                            o4.locked().b.store(99);
                        })
                    });
                }));
                while o2.peek_unsynchronized().b.load() != 99 && o2.txlock().holder().is_none() {
                    std::hint::spin_loop();
                }
            }
            Ok(())
        });
        saboteur.lock().take().unwrap().join().unwrap();
        assert!(
            attempts.load(Ordering::Relaxed) >= 2,
            "subscribing transaction should have aborted and re-executed"
        );
        assert_eq!(o.peek_unsynchronized().a.load(), 1);
        assert_eq!(o.peek_unsynchronized().b.load(), 99);
    }

    #[test]
    fn multiple_objects_locked_and_released_together() {
        let x = obj();
        let y = obj();
        let (x2, y2) = (x.clone(), y.clone());
        atomically(move |tx| {
            let (x3, y3) = (x2.clone(), y2.clone());
            atomic_defer(tx, &[&x2.clone(), &y2.clone()], move || {
                assert!(x3.txlock().held_by_me());
                assert!(y3.txlock().held_by_me());
                x3.locked().a.store(1);
                y3.locked().a.store(2);
            })
        });
        assert_eq!(x.txlock().holder(), None);
        assert_eq!(y.txlock().holder(), None);
        assert_eq!(x.peek_unsynchronized().a.load(), 1);
        assert_eq!(y.peek_unsynchronized().a.load(), 2);
    }

    #[test]
    fn same_object_in_two_deferred_ops_stays_locked_between_them() {
        let o = obj();
        let o1 = o.clone();
        atomically(move |tx| {
            let oa = o1.clone();
            atomic_defer(tx, &[&o1.clone()], move || {
                // Depth 2 while both deferred ops hold the object; after our
                // release it must still be held for op 2.
                assert_eq!(oa.txlock().depth(), 2);
            })?;
            let ob = o1.clone();
            atomic_defer(tx, &[&o1.clone()], move || {
                assert!(ob.txlock().held_by_me());
                assert_eq!(ob.txlock().depth(), 1);
            })
        });
        assert_eq!(o.txlock().holder(), None);
    }

    #[test]
    fn subscribe_after_defer_in_same_txn_does_not_self_block() {
        // The ad-kv write pattern: atomic_defer first (per the
        // irrevocability ordering discipline), then transactional writes
        // through the subscribing accessor. The deferral buffered this
        // thread as the lock's owner; subscribe must take that as its own
        // acquisition, not block on its own uncommitted write.
        let o = obj();
        let o2 = o.clone();
        atomically(move |tx| {
            let o3 = o2.clone();
            atomic_defer(tx, &[&o2.clone()], move || {
                assert_eq!(o3.locked().a.load(), 5, "op sees the txn's writes");
                o3.locked().b.store(1);
            })?;
            o2.with(tx, |f, tx| tx.write(&f.a, 5))
        });
        assert_eq!(o.peek_unsynchronized().a.load(), 5);
        assert_eq!(o.peek_unsynchronized().b.load(), 1);
        assert_eq!(o.txlock().holder(), None);
    }

    #[test]
    fn panicking_op_releases_its_locks_and_propagates() {
        let rt = Runtime::new(TmConfig::stm());
        let o = obj();
        let o2 = o.clone();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.atomically(|tx| {
                atomic_defer(tx, &[&o2.clone()], move || {
                    panic!("deferred op failed");
                })
            })
        }));
        assert!(outcome.is_err(), "the op's panic reaches the committer");
        assert_eq!(
            o.txlock().holder(),
            None,
            "a panicking deferred op must not leak its locks"
        );
        // The object and the runtime stay usable afterwards.
        let o3 = o.clone();
        rt.atomically(move |tx| o3.with(tx, |f, tx| tx.write(&f.a, 3)));
        assert_eq!(o.peek_unsynchronized().a.load(), 3);
    }

    #[test]
    fn a_panicking_op_leaves_the_rest_of_its_batch_to_run() {
        // The second op belongs to the same committed transaction and
        // holds a lock of its own: it still runs, and releases it, before
        // the first op's panic reaches the committer.
        let rt = Runtime::new(TmConfig::stm());
        let (x, y) = (obj(), obj());
        let (x2, y2) = (x.clone(), y.clone());
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.atomically(|tx| {
                atomic_defer(tx, &[&x2.clone()], || panic!("first op failed"))?;
                let y3 = y2.clone();
                atomic_defer(tx, &[&y2.clone()], move || y3.locked().a.store(2))
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(y.peek_unsynchronized().a.load(), 2, "the second op ran");
        assert_eq!(x.txlock().holder(), None);
        assert_eq!(y.txlock().holder(), None);
    }

    #[test]
    fn lock_sharing_ops_serialize_across_threads() {
        // 4 committer threads × 50 txns, each deferring a read-modify-write
        // on one of 4 shared objects: ops that share a lock run one at a
        // time (`locked()` would panic otherwise), so no update is lost
        // and every lock ends free.
        let rt = Runtime::new(TmConfig::stm());
        let objs: Vec<Defer<Obj>> = (0..4).map(|_| obj()).collect();
        let mut threads = Vec::new();
        for t in 0..4usize {
            let (rt, objs) = (rt.clone(), objs.clone());
            threads.push(std::thread::spawn(move || {
                for i in 0..50usize {
                    let ob = objs[(t + i) % objs.len()].clone();
                    rt.atomically(move |tx| {
                        let ob2 = ob.clone();
                        atomic_defer(tx, &[&ob.clone()], move || {
                            ob2.locked().a.update_locked(|v| v + 1);
                        })
                    });
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let sum: u64 = objs.iter().map(|o| o.peek_unsynchronized().a.load()).sum();
        assert_eq!(sum, 200);
        for o in &objs {
            assert_eq!(o.txlock().holder(), None);
        }
    }

    #[test]
    fn traced_defer_renders_both_phases_of_the_lock() {
        let rt = Runtime::new(TmConfig::stm());
        rt.set_tracing(true);
        let o = obj();
        let o2 = o.clone();
        rt.atomically(move |tx| {
            let o3 = o2.clone();
            atomic_defer(tx, &[&o2.clone()], move || o3.locked().a.store(1))
        });
        let text = rt.take_trace().render();
        // Growing phase, commit, the op, and the shrinking phase: the
        // release is the last thing the deferred action does, so it sits
        // inside the op's exec span.
        let id = o.txlock().id();
        let mut at = 0;
        for step in [
            format!("lock_acquire     arg={id}"),
            "commit ".to_string(),
            "defer_exec_start ".to_string(),
            format!("lock_release     lock={id}"),
            "defer_exec_end ".to_string(),
        ] {
            at += text[at..]
                .find(&step)
                .unwrap_or_else(|| panic!("{step:?} missing after byte {at}:\n{text}"));
        }
    }

    #[test]
    fn unordered_defer_runs_without_locks() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        atomically(move |tx| {
            let r3 = Arc::clone(&r2);
            atomic_defer_unordered(tx, move || r3.store(true, Ordering::Relaxed))
        });
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn deferred_op_may_run_transactions_internally() {
        let o = obj();
        let side = TVar::new(0u64);
        let (o2, s2) = (o.clone(), side.clone());
        atomically(move |tx| {
            let s3 = s2.clone();
            atomic_defer(tx, &[&o2.clone()], move || {
                // Deferred operations are outside the transaction and may
                // use transactions themselves (paper §4.1).
                atomically(|tx| tx.write(&s3, 77));
            })
        });
        assert_eq!(side.load(), 77);
    }

    #[test]
    fn works_under_htm_runtime_too() {
        let rt = Runtime::new(TmConfig::htm());
        let o = obj();
        let (o2,) = (o.clone(),);
        rt.atomically(move |tx| {
            let o3 = o2.clone();
            atomic_defer(tx, &[&o2.clone()], move || {
                o3.locked().a.store(5);
            })
        });
        assert_eq!(o.peek_unsynchronized().a.load(), 5);
        assert_eq!(o.txlock().holder(), None);
    }

    #[test]
    fn deferred_frees_outlive_deferred_ops() {
        // Model the tm_free_list interaction: the transaction "frees" a
        // buffer the deferred op still reads.
        let o = obj();
        let buffer: Arc<Vec<u8>> = Arc::new(vec![1, 2, 3]);
        let o2 = o.clone();
        let buf2 = Arc::clone(&buffer);
        atomically(move |tx| {
            let weak = Arc::downgrade(&buf2);
            let o3 = o2.clone();
            atomic_defer(tx, &[&o2.clone()], move || {
                let strong = weak.upgrade().expect("buffer freed before deferred op ran");
                o3.locked().a.store(strong.iter().map(|&b| b as u64).sum());
            })?;
            // Queue the "free": dropping the last strong ref is deferred
            // until after the deferred ops have completed.
            tx.defer_drop(Box::new(Arc::clone(&buf2)));
            Ok(())
        });
        drop(buffer);
        assert_eq!(o.peek_unsynchronized().a.load(), 6);
    }
}
