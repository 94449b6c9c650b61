//! Model: quiescence vs. an in-flight older transaction's write-back.
//!
//! Privatization safety (paper §2, DESIGN.md §7) hangs on one protocol
//! property: when `Registry::quiesce(wv)` returns, every transaction that
//! began with `rv < wv` has completely finished — including its commit
//! write-back — so the quiescing thread may touch privatized data
//! non-transactionally. The commit path upholds this by publishing
//! `ActivitySlot::end()` only *after* write-back completes.
//!
//! Three threads:
//!
//! * an **older transaction** (`rv = 2`): performs its "write-back" (a
//!   store the quiescer will read) and then ends its slot — or, in the
//!   weakened variant, ends the slot first (the bug);
//! * a **quiescer** (`wv = 4`): waits for the older transaction to have
//!   begun (standing in for the clock ordering `rv < wv`, which implies
//!   the older transaction's `begin` preceded the quiescer's `tick`),
//!   quiesces, then asserts it observes the completed write-back;
//! * a **newer transaction** (`rv = 6 >= wv`) that begins and *never
//!   ends*: `quiesce` must not wait for it — if it did, the scheduler's
//!   step budget turns the hang into a failure.

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use super::serialize;
use crate::registry::Registry;

fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 3000,
        max_steps: 100_000,
    }
}

fn quiesce_vs_writeback(e: &mut Exec, weaken_end_order: bool) {
    let reg = Arc::new(Registry::default());
    let writeback = Arc::new(AtomicU64::new(0));
    let older_begun = Arc::new(AtomicBool::new(false));

    // Older transaction: rv = 2 < wv = 4, so the quiescer must wait for it.
    let (reg_o, wb_o, begun_o) = (
        Arc::clone(&reg),
        Arc::clone(&writeback),
        Arc::clone(&older_begun),
    );
    e.spawn(move || {
        let me = reg_o.local(9101);
        let slot = &me.slot;
        slot.begin(2);
        begun_o.store(true, Ordering::SeqCst);
        if weaken_end_order {
            // BUG (deliberate): publish "finished" before the write-back.
            // A quiescer can now return between the two and read stale
            // state — the exact protocol violation `end`'s placement in
            // `Tx::commit` exists to prevent.
            slot.end();
            wb_o.store(1, Ordering::SeqCst);
        } else {
            wb_o.store(1, Ordering::SeqCst);
            slot.end();
        }
    });

    // Quiescer: its own transaction is already committed and its slot
    // inactive (the commit path clears it before quiescing).
    let (reg_q, wb_q, begun_q) = (Arc::clone(&reg), Arc::clone(&writeback), older_begun);
    e.spawn(move || {
        let me = reg_q.local(9102);
        // Clock ordering: rv = 2 < wv = 4 means the older transaction's
        // `begin` happened before this writer's `tick` — model that
        // happens-before by waiting for it.
        while !begun_q.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        reg_q.quiesce(4, &me);
        assert_eq!(
            wb_q.load(Ordering::SeqCst),
            1,
            "quiesce returned before an older (rv < wv) transaction finished its write-back"
        );
    });

    // Newer transaction: rv = 6 >= wv = 4, begins and never ends. The
    // quiescer must skip it (a slot at `>= wv` is no hazard); waiting for
    // it would blow the step budget and fail the execution.
    let reg_n = reg;
    e.spawn(move || {
        reg_n.local(9103).slot.begin(6);
    });
}

#[test]
fn quiesce_waits_for_older_writeback_and_skips_newer() {
    let _g = serialize();
    check("quiesce-vs-writeback", opts(), |e| {
        quiesce_vs_writeback(e, false)
    });
}

/// Regression model: with the end-before-write-back ordering (the weakened
/// variant), the model must observe a quiescer reading pre-write-back
/// state. Guards the model's sensitivity — if this stops failing, the
/// green model above proves nothing.
#[test]
fn model_catches_end_before_writeback() {
    let _g = serialize();
    let violation = check_expect_violation(opts(), |e| quiesce_vs_writeback(e, true));
    let (seed, msg) =
        violation.expect("the quiesce model no longer catches end-before-write-back; re-tune it");
    assert!(
        msg.contains("quiesce returned before"),
        "expected the stale-write-back assertion, got (seed {seed}): {msg}"
    );
}
