//! # ad-defer — atomic deferral for transactional memory
//!
//! The core contribution of *"Extending Transactional Memory with Atomic
//! Deferral"* (Zhou, Luchangco, Spear — OPODIS 2017; SPAA 2017 brief
//! announcement): move long-running or irrevocable operations (I/O, system
//! calls, big pure computations) *out* of a transaction while keeping the
//! combined transaction + deferred operation **serializable** — no other
//! transaction can observe the state between the commit and the completion
//! of its deferred operations.
//!
//! ## The pieces
//!
//! * [`TxLock`] — a transaction-friendly, reentrant mutex whose state is
//!   one transactional variable: acquirable inside transactions
//!   (deadlock-free, atomic with commit), released by its holder with one
//!   store, and *subscribable* — a transaction that subscribes conflicts
//!   with any later acquisition (Listing 2).
//! * [`Deferrable`] / [`Defer<T>`] — objects carrying an implicit `TxLock`;
//!   every transactional accessor subscribes first (the paper's
//!   `deferrable class` annotation).
//! * [`atomic_defer`] — inside a transaction: transactionally acquire the
//!   locks of all objects the deferred operation will touch and queue the
//!   operation; at commit the locks become visible atomically with the
//!   transaction's writes, the operation runs, then its locks are released
//!   (Listing 1). The correctness argument is two-phase locking (§4.1).
//! * [`LockClass`] — what deferral costs, per kind of holder: each lock's
//!   hold from commit to release and the time transactions spend blocked
//!   on it ([`class`]).
//! * [`io`] — the paper's use cases as library types: deferred logging,
//!   ordered durable output, and a bounded file-descriptor pool.
//!
//! ## Quickstart
//!
//! ```
//! use ad_stm::{atomically, TVar};
//! use ad_defer::{atomic_defer, Defer};
//!
//! // A deferrable object: shared fields are TVars, accessed via `with`
//! // (which subscribes to the implicit lock).
//! struct Stats { flushed: TVar<u64> }
//! let stats = Defer::new(Stats { flushed: TVar::new(0) });
//!
//! let s = stats.clone();
//! atomically(|tx| {
//!     // ... arbitrary transactional work ...
//!     let s2 = s.clone();
//!     atomic_defer(tx, &[&s.clone()], move || {
//!         // Runs after commit, atomically with the transaction as far as
//!         // any other transaction can tell. Pretend this was an fsync:
//!         s2.locked().flushed.update_locked(|n| n + 1);
//!     })
//! });
//! assert_eq!(stats.peek_unsynchronized().flushed.load(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod class;
mod condvar;
mod defer;
mod deferrable;
pub mod io;
mod owner;
mod txlock;

/// Loom-style model of the TxLock subscribe/acquire visibility protocol.
/// Compiled only under `RUSTFLAGS="--cfg loom"` test builds — see
/// VERIFICATION.md for what the model proves and how to run it.
#[cfg(all(test, loom))]
mod verify;

pub use class::{txlock_stats_json, LockClass, DEFERRABLE_LOCKS, HOLD_SAMPLE_EVERY};
pub use condvar::TxCondvar;
pub use defer::{atomic_defer, atomic_defer_as, atomic_defer_unordered};
pub use deferrable::{Defer, Deferrable, LockedRef};
pub use owner::OwnerId;
pub use txlock::{TxLock, LOCK_RELEASE};
