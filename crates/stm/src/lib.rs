//! # ad-stm — a TL2-style software transactional memory
//!
//! The TM substrate for the *atomic deferral* reproduction (Zhou, Luchangco,
//! Spear — OPODIS 2017 / SPAA 2017 brief announcement). It provides the
//! features of a GCC-libitm-class runtime that the paper's mechanism and
//! evaluation depend on:
//!
//! * **Optimistic transactions** over typed transactional variables
//!   ([`TVar`]): invisible reads with commit-time validation and snapshot
//!   extension, lazy versioning, per-variable version locks, and a global
//!   version clock (TL2).
//! * **`retry` condition synchronization** (Harris et al.), waiting as the
//!   paper does: spin, then yield, until a version in the read set moves,
//!   then re-execute.
//! * **Irrevocability** ([`Runtime::synchronized`], [`Tx::require_irrevocable`]):
//!   serial execution — the transaction runs alone in its runtime — used
//!   for operations that cannot be rolled back (I/O) and by the contention
//!   manager as a last resort.
//! * **Quiescence**: writer commits wait for all earlier concurrent
//!   transactions (privatization safety, paper §2) — the very cost that
//!   motivates atomic deferral (Figure 1).
//! * **Contention management**: randomized backoff, then serialization
//!   after a configurable number of failures (GCC defaults: 100 STM / 2 HTM).
//! * **Simulated best-effort HTM** ([`TmConfig::htm`]): capacity-bounded
//!   footprint with [`StmError::Capacity`] aborts, no quiescence,
//!   abort-on-irrevocable-op, and a low retry budget before the serial
//!   fallback lock — a behavioural stand-in for Intel TSX (DESIGN.md §5).
//! * **Post-commit hooks** ([`Tx::defer_post_commit`], [`Tx::defer_drop`]):
//!   the runtime half of the paper's modified `TxEnd` (Listing 1), on which
//!   the `ad-defer` crate builds `atomic_defer`.
//!
//! ## Example
//!
//! ```
//! use ad_stm::{atomically, TVar};
//!
//! let from = TVar::new(100i64);
//! let to = TVar::new(0i64);
//!
//! atomically(|tx| {
//!     let a = tx.read(&from)?;
//!     let b = tx.read(&to)?;
//!     tx.write(&from, a - 10)?;
//!     tx.write(&to, b + 10)
//! });
//!
//! assert_eq!(from.load(), 90);
//! assert_eq!(to.load(), 10);
//! ```
//!
//! ## Blocking on a condition
//!
//! ```
//! use ad_stm::{atomically, TVar};
//! use std::thread;
//!
//! let ready = TVar::new(false);
//! let r2 = ready.clone();
//! let waiter = thread::spawn(move || {
//!     atomically(|tx| {
//!         if !tx.read(&r2)? {
//!             return tx.retry();
//!         }
//!         Ok(())
//!     });
//! });
//! atomically(|tx| tx.write(&ready, true));
//! waiter.join().unwrap();
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the one module allowed to use `unsafe` is
// `snapshot` (the epoch-reclaimed lock-free value cell), which opts in
// with a scoped `#![allow(unsafe_code)]` and documents its invariants.
// Everything else in the crate remains safe Rust.
#![deny(unsafe_code)]

mod clock;
mod cm;
mod config;
mod error;
mod fxhash;
mod registry;
mod retry;
mod runtime;
mod smallmap;
mod snapshot;
mod stats;
mod trace;
mod tx;
mod var;

/// Loom-style concurrency models of the crate's riskiest protocols
/// (epoch retirement vs. pinned readers, quiescence vs. in-flight
/// commits). Compiled only under `RUSTFLAGS="--cfg loom"` test builds —
/// see VERIFICATION.md for what each model proves and how to run them.
#[cfg(all(test, loom))]
mod verify;

pub use config::{HtmConfig, Mode, TmConfig};
pub use error::{StmError, StmResult};
pub use runtime::{atomically, in_transaction, synchronized, Runtime};
pub use stats::{StatsReport, StatsSnapshot};
pub use trace::{AppEvent, ContentionEntry, ContentionReport, EventKind, Trace, TraceEvent};
pub use tx::{PostCommitFn, Tx};
pub use var::TVar;

/// Re-exported histogram snapshot type ([`StatsReport`]'s field type), so
/// downstream crates can consume quantiles without naming `ad-support`.
pub use ad_support::hist::HistogramSnapshot;

/// Process-wide epoch-reclamation gauges: `(retired, freed)` value counts
/// since process start. `retired - freed` approximates the deferred-free
/// backlog (OBSERVABILITY.md); global across runtimes because reclamation
/// itself is.
pub fn reclaim_counters() -> (u64, u64) {
    snapshot::reclaim_counters()
}

/// Re-exported internals used by sibling crates' benchmarks and tests.
pub mod internals {
    /// Current global clock value (even).
    pub use crate::clock::now as clock_now;
    /// Fx-hashed map/set aliases shared with sibling crates.
    pub use crate::fxhash::{FxHashMap, FxHashSet};
}
