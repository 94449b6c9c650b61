//! Transaction-friendly mutual exclusion locks (paper §4.2, Listing 2).
//!
//! A [`TxLock`] is a reentrant mutex whose state (`owner`, `depth`) lives in
//! transactional variables. That single design decision yields all of its
//! special properties:
//!
//! * **Acquire/release inside transactions**: the state change is buffered
//!   like any transactional write and only becomes visible when the
//!   enclosing transaction commits — so a transaction acquires all of a
//!   deferred operation's locks *atomically with its commit*, the essence of
//!   the paper's two-phase-locking argument.
//! * **Deadlock-free multi-lock acquisition**: acquiring several locks
//!   inside one transaction either commits them all or conflicts/retries as
//!   a unit; no global lock order is needed.
//! * **Subscription (lock elision)**: [`TxLock::subscribe`] merely *reads*
//!   `owner`. Concurrent subscribers do not conflict with each other, but
//!   any later acquisition makes every subscribed transaction's validation
//!   fail, aborting it — exactly the conflict the paper relies on to keep
//!   deferred operations invisible.
//!
//! `owner` and `depth` are two separate `TVar`s, as the paper notes they can
//! be: "since the implementation uses transactions, the owner and depth
//! fields need not be packed into a single machine word."

use ad_stm::{EventKind, Runtime, StmResult, TVar, Tx};

use crate::owner::OwnerId;

/// A transaction-friendly, reentrant mutex (paper Listing 2). Cloning
/// produces another handle to the same lock.
#[derive(Clone)]
pub struct TxLock {
    owner: TVar<Option<OwnerId>>,
    depth: TVar<u32>,
}

impl TxLock {
    /// Create an unheld lock.
    pub fn new() -> Self {
        TxLock {
            owner: TVar::new(None),
            depth: TVar::new(0),
        }
    }

    /// Acquire the lock within a transaction (`TxLock.Acquire`).
    ///
    /// * Unheld: becomes held by the calling thread when the enclosing
    ///   transaction commits.
    /// * Held by the calling thread (possibly by an earlier `acquire` in the
    ///   same transaction): the depth count increases — the lock is
    ///   reentrant.
    /// * Held by another thread: the transaction blocks via `retry` (the
    ///   paper's `spin(); retry`), re-executing once the owner releases.
    pub fn acquire(&self, tx: &mut Tx) -> StmResult<()> {
        self.acquire_as(tx, OwnerId::me())
    }

    /// Acquire the lock within a transaction on behalf of `me` — usually
    /// the calling thread, but for pooled deferrals the batch owner
    /// (`OwnerId::batch`), so that a pool worker impersonating that owner
    /// can run the operation and release. Reentrancy is judged against
    /// `me`, preserving the same-transaction reentrant-acquire behavior.
    pub(crate) fn acquire_as(&self, tx: &mut Tx, me: OwnerId) -> StmResult<()> {
        match tx.read(&self.owner)? {
            None => {
                // On the shared timeline (txtrace) this event marks the
                // *buffered* acquisition; it becomes real at the enclosing
                // Commit event. The lock's identity is its owner-TVar id.
                tx.trace(EventKind::LockAcquire, self.id());
                tx.write(&self.owner, Some(me))?;
                tx.write(&self.depth, 1)
            }
            Some(o) if o == me => {
                let d = tx.read(&self.depth)?;
                tx.write(&self.depth, d + 1)
            }
            Some(_) => tx.retry(),
        }
    }

    /// Release the lock within a transaction (`TxLock.Release`).
    ///
    /// # Panics
    ///
    /// Panics if the calling thread does not hold the lock — the paper's
    /// "\[optional\] forbid handoff of held lock" fatal error. Lock handoff
    /// between threads is a bug in the deferral protocol, so we always
    /// enforce this.
    pub fn release(&self, tx: &mut Tx) -> StmResult<()> {
        let me = OwnerId::me();
        match tx.read(&self.owner)? {
            Some(o) if o == me => {
                let d = tx.read(&self.depth)?;
                if d > 1 {
                    tx.write(&self.depth, d - 1)
                } else {
                    tx.write(&self.depth, 0)?;
                    tx.write(&self.owner, None)
                }
            }
            other => {
                // Report what this attempt saw, to diagnose a lock that
                // seems to have two owners. The depth is kept as a result:
                // a conflict on it is printed, not retried.
                let depth = tx.read(&self.depth);
                panic!(
                    "TxLock::release by {me} but lock is held by {other:?}: \
                     releasing a lock you do not hold (lock {}, read version {}, \
                     depth read {depth:?})",
                    self.id(),
                    tx.read_version(),
                )
            }
        }
    }

    /// Subscribe to the lock (`TxLock.Subscribe`): block (via `retry`) until
    /// the lock is unheld or held by the calling context. Reading `owner`
    /// puts it in the transaction's read set, so a subsequent acquisition by
    /// any other thread aborts this transaction — even after `subscribe`
    /// returns, up to commit.
    ///
    /// "Held by the calling context" covers the calling thread (or the
    /// impersonated batch owner, inside a pooled deferred op) *and* the
    /// transaction's own batch owner: under the pooled executor an earlier
    /// `atomic_defer` in this very transaction buffers the acquisition
    /// under the batch owner, and a subscribe after it must not block the
    /// transaction on its own uncommitted write.
    pub fn subscribe(&self, tx: &mut Tx) -> StmResult<()> {
        let me = OwnerId::me();
        let my_batch = tx.defer_batch_token_peek().map(OwnerId::batch);
        match tx.read(&self.owner)? {
            None => {
                tx.trace(EventKind::LockSubscribe, self.id());
                Ok(())
            }
            Some(o) if o == me || Some(o) == my_batch => {
                tx.trace(EventKind::LockSubscribe, self.id());
                Ok(())
            }
            Some(_) => tx.retry(),
        }
    }

    /// A stable identity for this lock on the observability timeline: the
    /// id of its `owner` `TVar` (the variable subscribers read, so it is
    /// also the id that shows up in `validate_fail` events when an
    /// acquisition aborts subscribed transactions).
    pub fn id(&self) -> u64 {
        self.owner.id() as u64
    }

    /// Acquire from outside any transaction: runs a small transaction that
    /// blocks until the lock is available.
    pub fn acquire_now(&self, rt: &Runtime) {
        rt.atomically(|tx| self.acquire(tx));
    }

    /// Release from outside any transaction (used by the deferral machinery
    /// after a deferred operation completes, and usable directly for
    /// lock-based critical sections that "mix and match" with transactions).
    pub fn release_now(&self, rt: &Runtime) {
        rt.atomically(|tx| self.release(tx));
    }

    /// Non-transactional snapshot of the owner (diagnostics; immediately
    /// stale).
    pub fn holder(&self) -> Option<OwnerId> {
        self.owner.load()
    }

    /// Does the calling thread hold this lock (committed state)?
    pub fn held_by_me(&self) -> bool {
        self.holder() == Some(OwnerId::me())
    }

    /// Current reentrancy depth (committed state; diagnostics).
    pub fn depth(&self) -> u32 {
        self.depth.load()
    }

    /// Run `f` as a lock-based critical section: acquire, run, release.
    /// This is the bridge for adapting lock-based code gradually — the
    /// critical section body runs *outside* any transaction, but the lock
    /// is visible to (and respected by) transactional subscribers.
    pub fn with_lock<R>(&self, rt: &Runtime, f: impl FnOnce() -> R) -> R {
        self.acquire_now(rt);
        // Release even if `f` panics so tests and long-running programs do
        // not wedge; the paper's C++ RAII idiom would do the same.
        struct ReleaseGuard<'a>(&'a TxLock, &'a Runtime);
        impl Drop for ReleaseGuard<'_> {
            fn drop(&mut self) {
                self.0.release_now(self.1);
            }
        }
        let _g = ReleaseGuard(self, rt);
        f()
    }
}

impl Default for TxLock {
    fn default() -> Self {
        TxLock::new()
    }
}

impl std::fmt::Debug for TxLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxLock")
            .field("holder", &self.holder())
            .field("depth", &self.depth())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ad_stm::atomically;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn rt() -> &'static Runtime {
        Runtime::global()
    }

    #[test]
    fn acquire_release_roundtrip() {
        let l = TxLock::new();
        assert_eq!(l.holder(), None);
        l.acquire_now(rt());
        assert!(l.held_by_me());
        assert_eq!(l.depth(), 1);
        l.release_now(rt());
        assert_eq!(l.holder(), None);
        assert_eq!(l.depth(), 0);
    }

    #[test]
    fn reentrant_acquire_tracks_depth() {
        let l = TxLock::new();
        l.acquire_now(rt());
        l.acquire_now(rt());
        l.acquire_now(rt());
        assert_eq!(l.depth(), 3);
        l.release_now(rt());
        assert!(l.held_by_me());
        assert_eq!(l.depth(), 2);
        l.release_now(rt());
        l.release_now(rt());
        assert_eq!(l.holder(), None);
    }

    #[test]
    fn acquire_inside_transaction_is_atomic_with_commit() {
        let l = TxLock::new();
        let observed_held_mid_tx = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let (l2, o2, g2, d2) = (
            l.clone(),
            Arc::clone(&observed_held_mid_tx),
            Arc::clone(&gate),
            Arc::clone(&done),
        );
        let observer = std::thread::spawn(move || {
            while !g2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            o2.store(l2.holder().is_some(), Ordering::Release);
            d2.store(true, Ordering::Release);
        });

        atomically(|tx| {
            l.acquire(tx)?;
            gate.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            Ok(())
        });
        observer.join().unwrap();
        assert!(
            !observed_held_mid_tx.load(Ordering::Acquire),
            "lock acquisition leaked out of an uncommitted transaction"
        );
        assert!(l.held_by_me());
        l.release_now(rt());
    }

    #[test]
    fn acquire_blocks_other_thread_until_release() {
        let l = TxLock::new();
        l.acquire_now(rt());

        let l2 = l.clone();
        let acquired = Arc::new(AtomicBool::new(false));
        let a2 = Arc::clone(&acquired);
        let h = std::thread::spawn(move || {
            l2.acquire_now(rt());
            a2.store(true, Ordering::Release);
            l2.release_now(rt());
        });

        std::thread::sleep(Duration::from_millis(30));
        assert!(!acquired.load(Ordering::Acquire));
        l.release_now(rt());
        h.join().unwrap();
        assert!(acquired.load(Ordering::Acquire));
    }

    #[test]
    fn subscribe_passes_when_unheld_or_self_held() {
        let l = TxLock::new();
        atomically(|tx| l.subscribe(tx));
        l.acquire_now(rt());
        atomically(|tx| l.subscribe(tx)); // held by me: fine
        l.release_now(rt());
    }

    #[test]
    fn subscribe_blocks_while_other_thread_holds() {
        let l = TxLock::new();
        l.acquire_now(rt());

        let l2 = l.clone();
        let passed = Arc::new(AtomicBool::new(false));
        let p2 = Arc::clone(&passed);
        let h = std::thread::spawn(move || {
            atomically(|tx| l2.subscribe(tx));
            p2.store(true, Ordering::Release);
        });

        std::thread::sleep(Duration::from_millis(30));
        assert!(!passed.load(Ordering::Acquire));
        l.release_now(rt());
        h.join().unwrap();
        assert!(passed.load(Ordering::Acquire));
    }

    #[test]
    fn multi_lock_acquisition_is_all_or_nothing() {
        // Two threads acquire (a, b) in opposite orders inside transactions;
        // with ordinary locks this deadlocks, with TxLocks it cannot.
        let a = TxLock::new();
        let b = TxLock::new();
        let mut handles = Vec::new();
        for flip in [false, true] {
            let (a, b) = (a.clone(), b.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    atomically(|tx| {
                        if flip {
                            b.acquire(tx)?;
                            a.acquire(tx)
                        } else {
                            a.acquire(tx)?;
                            b.acquire(tx)
                        }
                    });
                    atomically(|tx| {
                        a.release(tx)?;
                        b.release(tx)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.holder(), None);
        assert_eq!(b.holder(), None);
    }

    #[test]
    fn releasing_unheld_lock_is_fatal() {
        let l = TxLock::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| l.release_now(rt())))
            .expect_err("releasing an unheld lock panics");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        for part in [
            "releasing a lock you do not hold".to_string(),
            "held by None".to_string(),
            format!("lock {}", l.id()),
            "read version ".to_string(),
            "depth read Ok(0)".to_string(),
        ] {
            assert!(msg.contains(&part), "{part:?} missing from {msg:?}");
        }
    }

    #[test]
    fn with_lock_releases_on_panic() {
        let l = TxLock::new();
        let l2 = l.clone();
        let r = std::thread::spawn(move || {
            l2.with_lock(rt(), || panic!("inside critical section"));
        })
        .join();
        assert!(r.is_err());
        assert_eq!(l.holder(), None, "lock leaked after panic");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = TxLock::new();
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let in_cs = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            let counter = Arc::clone(&counter);
            let in_cs = Arc::clone(&in_cs);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    l.with_lock(rt(), || {
                        assert!(!in_cs.swap(true, Ordering::SeqCst), "two threads in CS");
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.store(false, Ordering::SeqCst);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }
}
