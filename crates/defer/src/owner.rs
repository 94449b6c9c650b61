//! Stable owner identities for transaction-friendly locks.
//!
//! The paper's `TxLock` stores `owner : transaction_id` (Listing 2). We use
//! a process-unique id per OS thread: a lock acquired inside a transaction
//! is logically held by the committing *thread* from commit time until its
//! deferred operations — which run on that same thread, before
//! `atomically` returns — release it.

use ad_support::sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;
use std::fmt;

static NEXT_OWNER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static MY_ID: Cell<u64> = const { Cell::new(0) };
}

/// Identity of a (potential) lock owner. `OwnerId` values are never reused
/// within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(u64);

impl OwnerId {
    /// The calling thread's identity (allocated on first use).
    pub fn me() -> OwnerId {
        MY_ID.with(|c| {
            let v = c.get();
            if v != 0 {
                return OwnerId(v);
            }
            let fresh = NEXT_OWNER.fetch_add(1, Ordering::Relaxed);
            c.set(fresh);
            OwnerId(fresh)
        })
    }

    /// Raw numeric value (diagnostics).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owner#{}", self.0)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn same_thread_same_id() {
        assert_eq!(OwnerId::me(), OwnerId::me());
    }

    #[test]
    fn distinct_threads_distinct_ids() {
        let mine = OwnerId::me();
        let theirs = std::thread::spawn(OwnerId::me).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn ids_are_nonzero_and_display() {
        let id = OwnerId::me();
        assert!(id.as_u64() > 0);
        assert!(id.to_string().starts_with("owner#"));
    }
}
