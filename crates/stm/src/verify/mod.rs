//! Loom-style concurrency models of `ad-stm`'s riskiest protocols.
//!
//! Each submodule is one scenario run through `ad_support::model`'s
//! controlled scheduler under `RUSTFLAGS="--cfg loom"`:
//!
//! * [`snapshot_model`] — epoch retirement vs. pinned readers, the protocol
//!   behind `SnapshotCell`. Includes the regression model that reintroduces
//!   the PR-1 stale-retirement-tag bug (commit 0b01d8c's subject) and
//!   asserts the model *catches* it.
//! * [`quiesce_model`] — a committing writer's quiescence vs. an in-flight
//!   older transaction's write-back, at the `Registry` protocol level.
//! * [`extension_model`] — snapshot extension vs. a commit to the variable
//!   whose read triggered it, over the whole runtime; with the regression
//!   model that logs that read after the extension (the lost update behind
//!   the two-owner `TxLock` panic) and asserts the model catches it.
//! * [`serial_model`] — the serial handshake: an irrevocable transaction
//!   vs. a speculative attempt over a two-variable invariant; with the
//!   regression model that loads the serial flag before publishing the
//!   slot, and asserts the model catches the overlap.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ad-stm --release verify
//! ```
//!
//! See VERIFICATION.md for what each model does and does not prove.

use std::cell::Cell;
use std::sync::Mutex;

mod extension_model;
mod quiesce_model;
mod serial_model;
mod snapshot_model;

thread_local! {
    /// Set on a model thread to make its speculative attempts load the
    /// serial flag *before* publishing their slot — the mutant
    /// `serial_model` must catch (`Runtime::begin_unless_serial`).
    pub(crate) static FLAG_BEFORE_SLOT: Cell<bool> = const { Cell::new(false) };
}

/// The models exercise process-global state (the epoch counter, the
/// participant registry), so two models exploring interleavings at once
/// would perturb each other's schedules and pin sets. The test harness
/// runs tests on multiple threads; this lock serializes the verify suite
/// without requiring `--test-threads=1`.
static VERIFY_LOCK: Mutex<()> = Mutex::new(());

/// Serialize a model test against the other verify tests.
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    VERIFY_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
