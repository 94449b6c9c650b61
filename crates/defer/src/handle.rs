//! Result-carrying deferral.
//!
//! The paper notes (§7) that atomic deferral assumes "the continuation of a
//! transaction does not depend on the result of the deferred operation" —
//! the *deferring* transaction cannot see the result, but *later*
//! transactions often want it (Listing 4's durability flag is exactly a
//! hand-rolled one-bit result). [`atomic_defer_with_result`] generalizes
//! that pattern: the deferred operation's return value is published, under
//! the deferral locks, into a [`DeferHandle`] that any transaction can
//! subscribe to and block on.

use std::any::Any;

use ad_stm::{Runtime, StmResult, TVar, Tx};

use crate::defer::atomic_defer;
use crate::deferrable::{Defer, Deferrable};

/// A handle to the eventual result of a deferred operation.
///
/// Cloning shares the handle. The handle is itself a deferrable object: its
/// cell is locked together with the operation's other objects, so observing
/// `Some(result)` means the deferred operation has fully completed — and a
/// transaction that reads `None` will be aborted by the publication, just
/// like any other subscriber.
pub struct DeferHandle<T> {
    cell: Defer<HandleCell<T>>,
}

struct HandleCell<T> {
    value: TVar<Option<T>>,
}

impl<T: Any + Send + Sync + Clone> DeferHandle<T> {
    fn new() -> Self {
        DeferHandle {
            cell: Defer::new(HandleCell {
                value: TVar::new(None),
            }),
        }
    }

    /// Transactionally read the result if the deferred operation has
    /// completed (subscribes to the handle's lock).
    pub fn try_get(&self, tx: &mut Tx) -> StmResult<Option<T>> {
        self.cell.with(tx, |c, tx| tx.read(&c.value))
    }

    /// Block (via `retry`) until the result is available.
    pub fn get(&self, tx: &mut Tx) -> StmResult<T> {
        match self.try_get(tx)? {
            Some(v) => Ok(v),
            None => tx.retry(),
        }
    }

    /// Non-transactional peek (diagnostics; immediately stale).
    pub fn peek(&self) -> Option<T> {
        self.cell.peek_unsynchronized().value.load()
    }

    /// Has the deferred operation completed (committed view)?
    pub fn is_ready(&self) -> bool {
        self.peek().is_some()
    }

    /// Block the calling thread, outside any transaction, until the
    /// deferred operation has completed, and return its result. With the
    /// pooled executor this is the synchronization point a caller uses
    /// after its commit returned early; inline the result is already
    /// published and `wait` returns immediately.
    ///
    /// Calling this *from inside a deferred operation* running on a
    /// single-worker pool is a self-deadlock (the waited-on op is queued
    /// behind the caller; DESIGN.md §10): the hazard is detected before
    /// blocking — counted, traced, and `debug_assert!`ed — via
    /// [`Runtime::check_defer_self_wait`]. Calling it from a worker of a
    /// *different* runtime's pool (a shard coordinator's deferred op
    /// waiting on a remote shard's handle) is the distinct cross-runtime
    /// hazard of DESIGN.md §14, detected via
    /// [`Runtime::check_defer_remote_wait`] — counted and traced on the
    /// waited-on runtime, but not asserted: bounded remote waits are how
    /// ad-shard's 2-phase commit blocks for acks.
    pub fn wait(&self, rt: &Runtime) -> T {
        if !self.is_ready() {
            rt.check_defer_self_wait();
            rt.check_defer_remote_wait();
        }
        rt.atomically(|tx| self.get(tx))
    }

    /// Non-blocking completion check: `Some(result)` once the deferred
    /// operation has finished, `None` while it is still queued or running.
    pub fn poll(&self) -> Option<T> {
        self.peek()
    }

    /// Block the calling thread until *every* handle has a result, and
    /// return the results in `handles` order.
    ///
    /// One transaction reads all the handles, so a fan-out of N deferred
    /// operations (say, a burst of `ad-kv` `write_batch_async` writes under its
    /// `Async` sync policy) resolves through a single blocking call
    /// instead of N sequential [`wait`](DeferHandle::wait)s: while any
    /// handle is still empty the transaction parks on its `retry` watch
    /// list — which covers every handle's cell — wakes as publications
    /// land, and commits once the last one is in. Handles that are
    /// already complete cost one transactional read each.
    ///
    /// The single-worker self-deadlock check of
    /// [`wait`](DeferHandle::wait) applies here too: it fires if any
    /// handle is still unresolved when called from the pool's own sole
    /// worker.
    pub fn wait_all(rt: &Runtime, handles: &[DeferHandle<T>]) -> Vec<T> {
        if handles.iter().any(|h| !h.is_ready()) {
            rt.check_defer_self_wait();
            rt.check_defer_remote_wait();
        }
        rt.atomically(|tx| handles.iter().map(|h| h.get(tx)).collect())
    }

    /// Has the deferred operation completed? Alias of [`is_ready`]
    /// (`is_ready` reads as "result available", `is_done` as "work
    /// finished" — both are the same instant under the deferral locks).
    ///
    /// [`is_ready`]: DeferHandle::is_ready
    pub fn is_done(&self) -> bool {
        self.is_ready()
    }
}

impl<T> Clone for DeferHandle<T> {
    fn clone(&self) -> Self {
        DeferHandle {
            cell: self.cell.clone(),
        }
    }
}

impl<T: Any + Send + Sync + Clone> Default for DeferHandle<T> {
    fn default() -> Self {
        DeferHandle::new()
    }
}

/// Like [`atomic_defer`](crate::atomic_defer), but `op` returns a value
/// that is published into the returned [`DeferHandle`] while the locks are
/// still held.
///
/// ```
/// use ad_stm::{atomically, TVar};
/// use ad_defer::{atomic_defer_with_result, Defer};
///
/// struct Disk { writes: TVar<u64> }
/// let disk = Defer::new(Disk { writes: TVar::new(0) });
///
/// let d = disk.clone();
/// let handle = atomically(|tx| {
///     let d2 = d.clone();
///     atomic_defer_with_result(tx, &[&d.clone()], move || {
///         d2.locked().writes.update_locked(|w| w + 1);
///         "fsync-ok" // the deferred operation's result
///     })
/// });
///
/// // Any transaction can now wait for the result.
/// let status = atomically(|tx| handle.get(tx));
/// assert_eq!(status, "fsync-ok");
/// ```
pub fn atomic_defer_with_result<T, F>(
    tx: &mut Tx,
    objs: &[&dyn Deferrable],
    op: F,
) -> StmResult<DeferHandle<T>>
where
    T: Any + Send + Sync + Clone,
    F: FnOnce() -> T + Send + 'static,
{
    let handle = DeferHandle::<T>::new();
    let publish = handle.clone();
    // The handle participates in the lock set: acquire its lock along with
    // the caller's objects, so readers of the handle are ordered exactly
    // like readers of the other deferrable objects.
    let mut all: Vec<&dyn Deferrable> = Vec::with_capacity(objs.len() + 1);
    all.extend_from_slice(objs);
    all.push(&handle.cell);
    atomic_defer(tx, &all, move || {
        let result = op();
        publish.cell.locked().value.store(Some(result));
    })?;
    Ok(handle)
}

/// Like [`atomic_defer`](crate::atomic_defer), but returns a
/// [`DeferHandle<()>`] tracking the operation's *completion* (rather than a
/// result). This is the natural commit API under the pooled executor:
/// commit returns as soon as the transaction is durable in memory, and the
/// caller holds a handle it can [`wait`](DeferHandle::wait) on — or
/// [`poll`](DeferHandle::poll) / [`is_done`](DeferHandle::is_done) — when
/// it actually needs the deferred effect (an fsync, say) to have happened.
pub fn atomic_defer_tracked<F>(
    tx: &mut Tx,
    objs: &[&dyn Deferrable],
    op: F,
) -> StmResult<DeferHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    atomic_defer_with_result(tx, objs, op)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ad_stm::atomically;
    use std::time::Duration;

    struct Obj {
        v: TVar<u64>,
    }

    #[test]
    fn result_is_published_after_commit() {
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let o = obj.clone();
        let handle = atomically(move |tx| {
            let o2 = o.clone();
            atomic_defer_with_result(tx, &[&o.clone()], move || {
                o2.locked().v.store(5);
                21u64 * 2
            })
        });
        assert_eq!(handle.peek(), Some(42));
        assert!(handle.is_ready());
        let got = atomically(|tx| handle.get(tx));
        assert_eq!(got, 42);
    }

    #[test]
    fn get_blocks_until_deferred_op_finishes() {
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let o = obj.clone();
        let handle = std::sync::Arc::new(ad_support::sync::Mutex::new(None::<DeferHandle<u32>>));
        let h2 = std::sync::Arc::clone(&handle);

        let deferring = std::thread::spawn(move || {
            atomically(move |tx| {
                let h = atomic_defer_with_result(tx, &[&o.clone()], move || {
                    std::thread::sleep(Duration::from_millis(40));
                    7u32
                })?;
                *h2.lock() = Some(h);
                Ok(())
            });
        });

        // Wait until the handle exists, then block on it from this thread.
        let h = loop {
            if let Some(h) = handle.lock().clone() {
                break h;
            }
            std::hint::spin_loop();
        };
        let t0 = std::time::Instant::now();
        let v = atomically(|tx| h.get(tx));
        assert_eq!(v, 7);
        // We either observed the wait or arrived after it — but if we
        // started before the op finished we must have blocked.
        let _ = t0;
        deferring.join().unwrap();
    }

    #[test]
    fn try_get_sees_none_only_before_publication() {
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let o = obj.clone();
        let handle = atomically(move |tx| atomic_defer_with_result(tx, &[&o.clone()], move || 1u8));
        // After `atomically` returns, deferred ops have completed.
        let got = atomically(|tx| handle.try_get(tx));
        assert_eq!(got, Some(1));
    }

    #[test]
    fn wait_all_collects_a_fanout_in_order() {
        use ad_stm::{Runtime, TmConfig};
        // Pooled executor so some ops are genuinely still in flight when
        // wait_all is called; each op bumps the shared counter under its
        // lock, so the final count proves all of them ran.
        let rt = Runtime::new(TmConfig::stm().with_defer_pool(2, 16));
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let o = obj.clone();
            let h = rt.atomically(move |tx| {
                let o2 = o.clone();
                atomic_defer_with_result(tx, &[&o.clone()], move || {
                    std::thread::sleep(Duration::from_millis(1));
                    o2.locked().v.update_locked(|v| v + 1);
                    i * 10
                })
            });
            handles.push(h);
        }
        let results = DeferHandle::wait_all(&rt, &handles);
        assert_eq!(results, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert!(handles.iter().all(DeferHandle::is_done));
        assert_eq!(obj.peek_unsynchronized().v.load(), 8);
    }

    #[test]
    fn wait_all_on_no_handles_returns_immediately() {
        use ad_stm::{Runtime, TmConfig};
        let rt = Runtime::new(TmConfig::stm());
        let none: Vec<DeferHandle<u32>> = Vec::new();
        assert_eq!(DeferHandle::wait_all(&rt, &none), Vec::<u32>::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn self_wait_on_sole_worker_is_detected_not_deadlocked() {
        use ad_stm::{Runtime, TmConfig};
        // A deferred op on a single-worker pool blocks on a handle nobody
        // has published: without the guard this hangs forever (the op that
        // could publish would be queued behind the blocked worker). The
        // guard fires first — counter bump, trace event, debug_assert —
        // and the pool's catch_unwind turns the assert into a counted
        // panic instead of a wedged test.
        let rt = Runtime::new(TmConfig::stm().with_defer_pool(1, 16));
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let orphan = DeferHandle::<u32>::default();
        let rt2 = rt.clone();
        let o = obj.clone();
        rt.atomically(move |tx| {
            let orphan = orphan.clone();
            let rt2 = rt2.clone();
            atomic_defer(tx, &[&o.clone()], move || {
                // Deliberately the §10 (i) mistake this test exists to catch:
                // ad-lint: allow(defer-waits-on-defer)
                let _ = orphan.wait(&rt2);
            })
        });
        rt.drain_deferred();
        assert_eq!(rt.stats().defer_self_wait_hazards, 1);
    }

    #[test]
    fn wait_from_submitter_thread_is_not_a_hazard() {
        use ad_stm::{Runtime, TmConfig};
        // The legitimate shape: commit returns early, the *submitting*
        // thread waits. No hazard is counted even on a 1-worker pool.
        let rt = Runtime::new(TmConfig::stm().with_defer_pool(1, 16));
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let o = obj.clone();
        let handle = rt.atomically(move |tx| {
            let o2 = o.clone();
            atomic_defer_with_result(tx, &[&o.clone()], move || {
                o2.locked().v.store(9);
                9u64
            })
        });
        assert_eq!(handle.wait(&rt), 9);
        assert_eq!(rt.stats().defer_self_wait_hazards, 0);
    }

    #[test]
    fn remote_wait_from_other_pools_worker_is_counted_not_asserted() {
        use ad_stm::{Runtime, TmConfig};
        // The cross-shard shape (DESIGN.md §14): a worker of runtime A's
        // pool blocks on a handle whose progress belongs to runtime B.
        // That is legal — B's own pool resolves the handle — but it is the
        // remote-wait hazard: counted and traced on B, never asserted.
        let rt_a = Runtime::new(TmConfig::stm().with_defer_pool(1, 16));
        let rt_b = Runtime::new(TmConfig::stm().with_defer_pool(1, 16));
        let obj_a = Defer::new(Obj { v: TVar::new(0) });
        let obj_b = Defer::new(Obj { v: TVar::new(0) });

        // Publish a slow op on B so its handle is not yet ready when A's
        // worker starts waiting on it.
        let ob = obj_b.clone();
        let b_handle = rt_b.atomically(move |tx| {
            atomic_defer_with_result(tx, &[&ob.clone()], move || {
                std::thread::sleep(Duration::from_millis(30));
                11u32
            })
        });

        let oa = obj_a.clone();
        let rt_b2 = rt_b.clone();
        let bh = b_handle.clone();
        let got = rt_a.atomically(move |tx| {
            let rt_b2 = rt_b2.clone();
            let bh = bh.clone();
            atomic_defer_with_result(tx, &[&oa.clone()], move || {
                // Cross-runtime wait from a foreign pool worker: the
                // self-wait guard must NOT fire (it is not B's worker),
                // the remote-wait guard must.
                // ad-lint: allow(defer-waits-on-defer)
                bh.wait(&rt_b2)
            })
        });
        assert_eq!(got.wait(&rt_a), 11);
        assert_eq!(rt_b.stats().defer_remote_wait_hazards, 1);
        assert_eq!(rt_b.stats().defer_self_wait_hazards, 0);
        assert_eq!(rt_a.stats().defer_self_wait_hazards, 0);
        // Submitter-thread waits (the two `.wait` calls above made from
        // this test thread) never count as remote hazards.
        assert_eq!(rt_a.stats().defer_remote_wait_hazards, 0);
    }

    #[test]
    fn handle_clone_shares_result() {
        let obj = Defer::new(Obj { v: TVar::new(0) });
        let o = obj.clone();
        let handle = atomically(move |tx| {
            atomic_defer_with_result(tx, &[&o.clone()], move || String::from("shared"))
        });
        let h2 = handle.clone();
        assert_eq!(h2.peek().as_deref(), Some("shared"));
    }
}
