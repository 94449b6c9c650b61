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
    /// deferred operation has completed, and return its result. The
    /// committing thread runs its own deferred operations before
    /// `atomically` returns, so for it the result is already published and
    /// `wait` returns immediately; another thread may block here until the
    /// committer's op finishes.
    pub fn wait(&self, rt: &Runtime) -> T {
        rt.atomically(|tx| self.get(tx))
    }

    /// Block the calling thread until *every* handle has a result, and
    /// return the results in `handles` order.
    ///
    /// One transaction reads all the handles, so a fan-out of N deferred
    /// operations committed by other threads resolves through a single
    /// blocking call instead of N sequential [`wait`](DeferHandle::wait)s:
    /// while any handle is still empty the transaction waits on its
    /// `retry` watch list — which covers every handle's cell — wakes as
    /// publications land, and commits once the last one is in. Handles
    /// that are already complete cost one transactional read each.
    pub fn wait_all(rt: &Runtime, handles: &[DeferHandle<T>]) -> Vec<T> {
        rt.atomically(|tx| handles.iter().map(|h| h.get(tx)).collect())
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

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ad_stm::{atomically, TmConfig};
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

    /// Commit, on another thread, a deferred op that publishes `value`
    /// once `release` says so; return its handle as soon as the commit's
    /// transaction has built it (the op is then still pending).
    fn pending_handle<R>(
        rt: &Runtime,
        value: u64,
        release: R,
    ) -> (DeferHandle<u64>, std::thread::JoinHandle<()>)
    where
        R: FnOnce() + Send + 'static,
    {
        let slot = std::sync::Arc::new(ad_support::sync::Mutex::new(None));
        let (rt2, slot2) = (rt.clone(), std::sync::Arc::clone(&slot));
        let committer = std::thread::spawn(move || {
            let obj = Defer::new(Obj { v: TVar::new(0) });
            let release = std::sync::Arc::new(ad_support::sync::Mutex::new(Some(release)));
            rt2.atomically(|tx| {
                let (o, release) = (obj.clone(), std::sync::Arc::clone(&release));
                let h = atomic_defer_with_result(tx, &[&obj.clone()], move || {
                    if let Some(release) = release.lock().take() {
                        release();
                    }
                    o.locked().v.store(value);
                    value
                })?;
                *slot2.lock() = Some(h);
                Ok(())
            });
        });
        let handle = loop {
            if let Some(h) = slot.lock().clone() {
                break h;
            }
            std::thread::yield_now();
        };
        (handle, committer)
    }

    #[test]
    fn wait_and_peek_track_an_op_still_running_on_its_committer() {
        let rt = Runtime::new(TmConfig::stm());
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (handle, committer) = pending_handle(&rt, 9, move || {
            go_rx.recv().unwrap();
        });
        assert_eq!(handle.peek(), None, "the op has not run yet");
        assert!(!handle.is_ready());
        go_tx.send(()).unwrap();
        assert_eq!(handle.wait(&rt), 9);
        assert!(handle.is_ready());
        assert_eq!(handle.peek(), Some(9));
        committer.join().unwrap();
    }

    #[test]
    fn wait_all_collects_a_fanout_in_order() {
        // Each op waits for its own go signal, so every handle is still
        // unresolved when wait_all is entered and resolves out of order.
        let rt = Runtime::new(TmConfig::stm());
        let mut gates = Vec::new();
        let mut handles = Vec::new();
        let mut committers = Vec::new();
        for i in 0..4u64 {
            let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
            let (h, c) = pending_handle(&rt, i * 10, move || go_rx.recv().unwrap());
            gates.push(go_tx);
            handles.push(h);
            committers.push(c);
        }
        let releaser = std::thread::spawn(move || {
            for go in gates.into_iter().rev() {
                std::thread::sleep(Duration::from_millis(1));
                go.send(()).unwrap();
            }
        });
        let results = DeferHandle::wait_all(&rt, &handles);
        assert_eq!(results, vec![0, 10, 20, 30]);
        assert!(handles.iter().all(DeferHandle::is_ready));
        releaser.join().unwrap();
        for c in committers {
            c.join().unwrap();
        }
    }

    #[test]
    fn wait_all_on_no_handles_returns_immediately() {
        let rt = Runtime::new(TmConfig::stm());
        let none: Vec<DeferHandle<u32>> = Vec::new();
        assert_eq!(DeferHandle::wait_all(&rt, &none), Vec::<u32>::new());
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
