//! Condition synchronization: what happens after a closure returns
//! [`StmError::Retry`](crate::StmError::Retry).
//!
//! The paper (§4.2) implements `retry` by aborting and immediately
//! re-executing, spinning in a loop — "until the C++ TMTS includes efficient
//! retry, this cost is unavoidable" — and Figure 2 attributes measurable
//! overhead to exactly this. That is the one wait here: poll the read set's
//! versions, spinning and then yielding, until one moves. A committer pays
//! nothing for it — no variable keeps a list of who watches it.

use ad_support::hist::Histogram;
use std::sync::Arc;

use crate::clock;
use crate::var::VarCore;

/// Snapshot of a read set taken when a transaction retries: the variables it
/// observed and the versions it observed them at.
pub(crate) struct WatchList {
    entries: Vec<(Arc<VarCore>, u64)>,
    /// Where the wait is recorded, if the transaction asked for it
    /// (`Tx::retry_timed`).
    pub(crate) blocked: Option<&'static Histogram>,
}

impl WatchList {
    pub(crate) fn new(entries: Vec<(Arc<VarCore>, u64)>) -> Self {
        WatchList {
            entries,
            blocked: None,
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
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::var::new_value;
    use std::time::Duration;

    fn core_with(v: u64) -> Arc<VarCore> {
        let c = VarCore::new(new_value(0u32));
        c.force_version_for_test(v);
        c
    }

    #[test]
    fn empty_watchlist_returns_immediately() {
        let wl = WatchList::new(Vec::new());
        wl.wait_spin();
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
}
