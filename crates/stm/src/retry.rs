//! Condition synchronization: what happens after a closure returns
//! [`StmError::Retry`](crate::StmError::Retry).
//!
//! The paper (§4.2) implements `retry` by aborting and immediately
//! re-executing, spinning in a loop — "until the C++ TMTS includes efficient
//! retry, this cost is unavoidable" — and Figure 2 attributes measurable
//! overhead to exactly this. We implement that policy
//! ([`RetryPolicy::Spin`](crate::config::RetryPolicy)) *and* the efficient
//! parking-based retry the paper wishes for, where the waiting thread
//! registers on every variable in its read set and is unparked by the next
//! committer that writes one of them. The difference between the two is an
//! ablation benchmark (`ablation_retry`).

use ad_support::hist::Histogram;
use ad_support::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use crate::clock;
use crate::var::VarCore;

/// A parked thread waiting for one of several variables to change.
///
/// One `Waiter` is shared (via `Arc`) between every variable in the
/// transaction's read set. Committers drain the lists of the variables they
/// wrote, set `woken`, and unpark. Stale registrations on unrelated
/// variables are harmless: their eventual drain unparks a thread that simply
/// rechecks its condition.
pub(crate) struct Waiter {
    thread: Thread,
    woken: AtomicBool,
}

impl Waiter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Waiter {
            thread: std::thread::current(),
            woken: AtomicBool::new(false),
        })
    }

    /// Mark woken and unpark the owning thread. Called by committers.
    pub(crate) fn wake(&self) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }

    pub(crate) fn is_woken(&self) -> bool {
        self.woken.load(Ordering::Acquire)
    }
}

/// Snapshot of a read set taken when a transaction retries: the variables it
/// observed and the versions it observed them at.
pub(crate) struct WatchList {
    entries: Vec<(Arc<VarCore>, u64)>,
    /// Where the wait is recorded, if the transaction asked for it
    /// (`Tx::retry_timed`).
    pub(crate) parked: Option<&'static Histogram>,
}

impl WatchList {
    pub(crate) fn new(entries: Vec<(Arc<VarCore>, u64)>) -> Self {
        WatchList {
            entries,
            parked: None,
        }
    }

    /// Give the entry vector back (the runner recycles its capacity into
    /// the pooled transaction descriptor after the wait finishes).
    pub(crate) fn into_entries(self) -> Vec<(Arc<VarCore>, u64)> {
        self.entries
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Has any watched variable changed (or is currently being changed)
    /// since it was read?
    fn any_changed(&self) -> bool {
        self.entries.iter().any(|(core, seen)| {
            let v = core.version();
            clock::is_locked(v) || v != *seen
        })
    }

    /// Spin-based retry, as implemented in the paper: poll the watched
    /// versions, yielding the CPU with increasing reluctance. Returns as
    /// soon as a change is visible (or immediately if the read set is empty,
    /// in which case waiting would be futile — the closure is re-executed
    /// and will typically retry again; an empty-read-set retry is a
    /// programming error that we surface by spinning politely).
    pub(crate) fn wait_spin(&self) {
        if self.is_empty() {
            std::thread::yield_now();
            return;
        }
        let mut spins = 0u32;
        while !self.any_changed() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Parking-based retry: register a waiter on every watched variable,
    /// recheck (to close the race with a committer that published between
    /// our read and our registration), then park until a committer wakes us.
    ///
    /// A bounded `park_timeout` recheck makes the mechanism robust against
    /// missed wakeups from non-transactional stores.
    pub(crate) fn wait_park(&self) {
        if self.is_empty() {
            std::thread::yield_now();
            return;
        }
        let waiter = Waiter::new();
        for (core, _) in &self.entries {
            core.register_waiter(Arc::clone(&waiter));
        }
        // Recheck after registration: a commit that happened in between has
        // already drained (or will drain) our registration, but its version
        // bump is visible now, so we must not park.
        if self.any_changed() {
            return;
        }
        while !waiter.is_woken() {
            std::thread::park_timeout(Duration::from_millis(1));
            if self.any_changed() {
                return;
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::var::new_value;

    fn core_with(v: u64) -> Arc<VarCore> {
        let c = VarCore::new(new_value(0u32));
        c.force_version_for_test(v);
        c
    }

    #[test]
    fn empty_watchlist_returns_immediately() {
        let wl = WatchList::new(Vec::new());
        wl.wait_spin();
        wl.wait_park();
    }

    #[test]
    fn spin_wait_observes_change() {
        let core = core_with(10);
        let wl = WatchList::new(vec![(Arc::clone(&core), 10)]);
        let c2 = Arc::clone(&core);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.force_version_for_test(12);
        });
        wl.wait_spin();
        h.join().unwrap();
        assert_eq!(core.version(), 12);
    }

    #[test]
    fn park_wait_woken_by_waker() {
        let core = core_with(10);
        let wl = WatchList::new(vec![(Arc::clone(&core), 10)]);
        let c2 = Arc::clone(&core);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.force_version_for_test(12);
            c2.wake_waiters();
        });
        wl.wait_park();
        h.join().unwrap();
    }

    #[test]
    fn park_wait_does_not_park_when_already_changed() {
        let core = core_with(10);
        // Watch a stale version: should return without parking at all.
        let wl = WatchList::new(vec![(Arc::clone(&core), 8)]);
        let start = std::time::Instant::now();
        wl.wait_park();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn waiter_wake_is_idempotent() {
        let w = Waiter::new();
        assert!(!w.is_woken());
        w.wake();
        w.wake();
        assert!(w.is_woken());
    }
}
