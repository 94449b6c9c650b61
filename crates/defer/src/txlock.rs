//! Transaction-friendly mutual exclusion locks (paper §4.2, Listing 2).
//!
//! A [`TxLock`] is a reentrant mutex whose state — owner and depth, packed
//! into one `Option<(OwnerId, u32)>` — lives in a single transactional
//! variable. That design decision yields all of its special properties:
//!
//! * **Acquire inside transactions**: the state change is buffered like any
//!   transactional write and only becomes visible when the enclosing
//!   transaction commits — so a transaction acquires all of a deferred
//!   operation's locks *atomically with its commit*, the essence of the
//!   paper's two-phase-locking argument.
//! * **Deadlock-free multi-lock acquisition**: acquiring several locks
//!   inside one transaction either commits them all or conflicts/retries as
//!   a unit; no global lock order is needed.
//! * **Subscription (lock elision)**: [`TxLock::subscribe`] merely *reads*
//!   the state word. Concurrent subscribers do not conflict with each
//!   other, but any later acquisition makes every subscribed transaction's
//!   validation fail, aborting it — exactly the conflict the paper relies
//!   on to keep deferred operations invisible.
//! * **Release by one store**: only the holder ever writes a held lock
//!   (`acquire` retries on another owner, `subscribe` only reads), so the
//!   holder's [`TxLock::release_now`] needs no transaction. It is one
//!   `TVar::store` — version-locked, clock-stamped, waking `retry`
//!   waiters — after the deferred operation's own writes, which is all the
//!   shrinking phase of 2PL asks of it (DESIGN.md §5).
//!
//! The paper allows either layout — "the owner and depth fields need not
//! be packed into a single machine word" — and packing makes an
//! acquisition one read and one write of the word subscribers read. The
//! word also carries the holder's [`LockClass`], so a transaction that
//! blocks on a held lock records its wait in the holder's class
//! (`txlock_blocked_ns`, [`crate::class`]).

use ad_stm::{AppEvent, EventKind, Runtime, StmResult, TVar, Tx};

use crate::class::{LockClass, DEFERRABLE_LOCKS};
use crate::owner::OwnerId;

/// Trace event of the shrinking phase: the holder stored its release;
/// `arg` = the lock id. Inside a transaction a release is a buffered write
/// and shows only as that transaction's `commit`.
pub static LOCK_RELEASE: AppEvent = AppEvent::new("lock_release", "lock");

/// `None` = unheld; `Some((owner, depth, class))` with `depth >= 1` =
/// held, in the class its first acquisition named.
type State = Option<(OwnerId, u32, &'static LockClass)>;

/// A transaction-friendly, reentrant mutex (paper Listing 2). Cloning
/// produces another handle to the same lock.
#[derive(Clone)]
pub struct TxLock {
    state: TVar<State>,
}

impl TxLock {
    /// Create an unheld lock.
    pub fn new() -> Self {
        TxLock {
            state: TVar::new(None),
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
        self.acquire_as(tx, &DEFERRABLE_LOCKS)
    }

    /// [`acquire`](Self::acquire), holding the lock in `class` — the class
    /// a transaction blocked on it records its wait in. A reentrant
    /// acquisition keeps the class of the first.
    pub fn acquire_as(&self, tx: &mut Tx, class: &'static LockClass) -> StmResult<()> {
        let me = OwnerId::me();
        match tx.read(&self.state)? {
            None => {
                // On the shared timeline (txtrace) this event marks the
                // *buffered* acquisition; it becomes real at the enclosing
                // Commit event.
                tx.trace(EventKind::LockAcquire, self.id());
                tx.write(&self.state, Some((me, 1, class)))
            }
            Some((o, d, c)) if o == me => tx.write(&self.state, Some((me, d + 1, c))),
            Some((_, _, holder)) => tx.retry_timed(holder.blocked_hist()),
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
        match tx.read(&self.state)? {
            Some((o, d, c)) if o == me => tx.write(&self.state, released(me, d, c)),
            other => {
                // Report what this attempt saw, to diagnose a lock that
                // seems to have two owners. The depth comes from a second
                // read of the word, kept as a result: a conflict on it is
                // printed, not retried.
                let depth = tx.read(&self.state).map(|s| s.map_or(0, |(_, d, _)| d));
                panic!(
                    "TxLock::release by {me} but lock is held by {:?}: \
                     releasing a lock you do not hold (lock {}, read version {}, \
                     depth read {depth:?})",
                    other.map(|(o, ..)| o),
                    self.id(),
                    tx.read_version(),
                )
            }
        }
    }

    /// Subscribe to the lock (`TxLock.Subscribe`): block (via `retry`) until
    /// the lock is unheld or held by the calling thread. Reading the state
    /// word puts it in the transaction's read set, so a subsequent
    /// acquisition by any other thread aborts this transaction — even after
    /// `subscribe` returns, up to commit. "Held by the calling thread"
    /// includes an acquisition an earlier `atomic_defer` in this very
    /// transaction buffered, so a subscribe after it does not block the
    /// transaction on its own uncommitted write.
    pub fn subscribe(&self, tx: &mut Tx) -> StmResult<()> {
        let me = OwnerId::me();
        match tx.read(&self.state)? {
            Some((o, _, holder)) if o != me => tx.retry_timed(holder.blocked_hist()),
            _ => {
                tx.trace(EventKind::LockSubscribe, self.id());
                Ok(())
            }
        }
    }

    /// A stable identity for this lock on the observability timeline: the
    /// id of its state `TVar` (the variable subscribers read, so it is
    /// also the id that shows up in `validate_fail` events when an
    /// acquisition aborts subscribed transactions).
    pub fn id(&self) -> u64 {
        self.state.id() as u64
    }

    /// Acquire from outside any transaction: runs a small transaction that
    /// blocks until the lock is available.
    pub fn acquire_now(&self, rt: &Runtime) {
        rt.atomically(|tx| self.acquire(tx));
    }

    /// Release from outside any transaction (used by the deferral machinery
    /// after a deferred operation completes, and usable directly for
    /// lock-based critical sections that "mix and match" with transactions).
    ///
    /// The holder releases with one store of the state word: no other
    /// context writes a held lock, so there is nothing for a transaction
    /// to protect. Anyone else — and any caller inside a transaction —
    /// takes the transactional [`release`](Self::release), whose refusals
    /// (the nested-transaction panic, the non-holder panic) stand.
    ///
    /// # Panics
    ///
    /// If the calling context does not hold the lock, or if called from
    /// inside a transaction.
    pub fn release_now(&self, rt: &Runtime) {
        if !ad_stm::in_transaction() {
            if let Some((o, d, c)) = self.state.load() {
                if o == OwnerId::me() {
                    return self.store_release(rt, o, d, c);
                }
            }
        }
        rt.atomically(|tx| self.release(tx));
    }

    /// The holder's release: one version-locked, clock-stamped store that
    /// wakes `retry` waiters. A subscriber either read the old word (and
    /// waits, or fails validation) or reads the new one with the deferred
    /// operation's effects already published.
    fn store_release(&self, rt: &Runtime, holder: OwnerId, depth: u32, class: &'static LockClass) {
        self.state.store(released(holder, depth, class));
        rt.trace_app(&LOCK_RELEASE, self.id());
    }

    /// Non-transactional snapshot of the owner (diagnostics; immediately
    /// stale).
    pub fn holder(&self) -> Option<OwnerId> {
        self.state.load().map(|(o, ..)| o)
    }

    /// Does the calling thread hold this lock (committed state)?
    pub fn held_by_me(&self) -> bool {
        self.holder() == Some(OwnerId::me())
    }

    /// Current reentrancy depth (committed state; diagnostics).
    pub fn depth(&self) -> u32 {
        self.state.load().map_or(0, |(_, d, _)| d)
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

/// The state after `holder` releases one level of a depth-`depth` hold in
/// `class`.
fn released(holder: OwnerId, depth: u32, class: &'static LockClass) -> State {
    (depth > 1).then_some((holder, depth - 1, class))
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

#[cfg(all(test, loom))]
impl TxLock {
    /// A seeded mutant for the model checker: `release_now`'s store path
    /// with the holder check skipped, so whoever calls it releases the
    /// lock (verify.rs must catch the torn state this exposes).
    pub(crate) fn release_now_skipping_holder_check(&self, rt: &Runtime) {
        if let Some((o, d, c)) = self.state.load() {
            self.store_release(rt, o, d, c);
        }
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
    fn release_now_inside_a_transaction_is_refused() {
        let l = TxLock::new();
        l.acquire_now(rt());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            atomically(|_tx| {
                l.release_now(rt());
                Ok(())
            })
        }))
        .expect_err("a store release inside a transaction would escape its rollback");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("inside a transaction"), "{msg}");
        assert!(l.held_by_me(), "the refused release must not have released");
        l.release_now(rt());
        assert_eq!(l.holder(), None);
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
