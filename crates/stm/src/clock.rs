//! The global version clock (TL2).
//!
//! Every committed value carries an *even* version timestamp; an odd value
//! in a variable's version word means "write-locked by a committing
//! transaction". Every timestamp comes from one process-wide word, advanced
//! with a `fetch_add(2, SeqCst)` in `tick` — by committing writers after
//! they lock their write set, and by non-transactional stores
//! (`VarCore::direct_write`) after they lock their one cell.
//!
//! ## Invariant: stamps are unique
//!
//! One RMW on one word hands out every version, transactional or not, so
//! no two stamps are ever equal. Two properties rest on this:
//!
//! * **Per-variable monotonicity.** A cell's pre-lock version was itself
//!   taken from the word before the lock, so the stamp `tick` returns after
//!   the lock exceeds it — version words never repeat (no ABA).
//! * **The validation fast path.** A committer whose `wv == rv + 2` knows
//!   no other stamp was handed out between its snapshot and its commit, so
//!   nothing it read can have changed: TL2's own argument, unchanged.
//!
//! ## Why the clock preserves opacity
//!
//! TL2's safety needs exactly one clock property: if a transaction's read
//! version satisfies `rv >= wv` for some writer, then that writer had
//! already locked its entire write set before the reader began — so the
//! reader observes each written variable either locked (and retries) or
//! fully stamped, never a torn mix. The writer locks, then ticks; a reader
//! whose load returns `rv >= wv` read from that RMW or a later one in the
//! word's total order, and so observes the locks.
//!
//! A read version that is stale-low is always safe: a too-small `rv` merely
//! triggers extra snapshot extensions.

use ad_support::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

/// Current clock value (always even): the read version of a starting
/// transaction.
///
/// `Acquire` (not `SeqCst`) suffices, per TL2's own argument: correctness
/// only needs the result to be a *lower bound* on the clock at the moment
/// the transaction starts. `Acquire` synchronizes with the `SeqCst` RMW in
/// the commit `tick`, so a transaction that reads `rv = t` sees every
/// write-back of the commit that produced `t`. A stale (smaller) value is
/// always safe: the transaction merely extends its snapshot (or aborts)
/// more often.
#[inline]
pub fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Take a fresh, unique write version. Must be called *after* the caller
/// has locked every cell it will stamp.
#[inline]
pub(crate) fn tick() -> u64 {
    GLOBAL_CLOCK.fetch_add(2, Ordering::SeqCst) + 2
}

/// True if a version word is write-locked (odd).
#[inline]
pub fn is_locked(version: u64) -> bool {
    version & 1 == 1
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_even() {
        let a = now();
        assert_eq!(a % 2, 0);
        let b = tick();
        assert_eq!(b % 2, 0);
        assert!(b > a);
        assert!(now() >= b);
    }

    #[test]
    fn locked_bit_detection() {
        assert!(!is_locked(0));
        assert!(!is_locked(42));
        assert!(is_locked(1));
        assert!(is_locked(43));
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(|| {
                (0..1000).map(|_| tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "two ticks returned the same version");
    }
}
