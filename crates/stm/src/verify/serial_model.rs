//! Model: an irrevocable transaction vs. a speculative attempt — the
//! serial handshake.
//!
//! An irrevocable transaction reads and writes memory directly, with no
//! validation and nothing to roll back, so it must run alone. There is no
//! reader-writer lock for that any more (registry.rs): a speculative
//! attempt publishes its activity slot (`SeqCst`) and *then* loads the
//! runtime's serial flag (`SeqCst`), stepping aside while it is set; an
//! irrevocable transaction sets the flag and *then* waits until every
//! other slot is inactive. Whatever the interleaving, one of the two sees
//! the other's store.
//!
//! Two threads over the invariant `x == y`:
//!
//! * a `synchronized` writer marks itself inside, increments `x`, then
//!   `y`, and marks itself outside;
//! * a speculative reader reads `x` and `y` and asserts that no
//!   irrevocable transaction is inside (no overlap) and that `x == y` (no
//!   torn read).
//!
//! The regression variant makes the reader's attempts load the flag
//! *before* publishing the slot (`verify::FLAG_BEFORE_SLOT`): the reader
//! can load "no irrevocable transaction", the writer can then find the
//! reader's slot still inactive and start, and the reader runs inside it.
//! The model must find that overlap. (A `Relaxed` flag load is the other
//! way to break the handshake; the model scheduler is sequentially
//! consistent, so it cannot tell orderings apart and the order mutant
//! stands for both.)

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicBool, Ordering};

use super::{serialize, FLAG_BEFORE_SLOT};
use crate::{Runtime, TVar, TmConfig};

fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 3000,
        max_steps: 200_000,
    }
}

fn serial_vs_speculative(e: &mut Exec, flag_before_slot: bool) {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let (x, y) = (TVar::new(0u64), TVar::new(0u64));
    let inside = Arc::new(AtomicBool::new(false));

    let (rt_w, xw, yw, in_w) = (Arc::clone(&rt), x.clone(), y.clone(), Arc::clone(&inside));
    e.spawn(move || {
        rt_w.synchronized(|tx| {
            in_w.store(true, Ordering::SeqCst);
            let v = tx.read(&xw)?;
            tx.write(&xw, v + 1)?;
            tx.write(&yw, v + 1)?;
            in_w.store(false, Ordering::SeqCst);
            Ok(())
        });
    });

    e.spawn(move || {
        FLAG_BEFORE_SLOT.with(|f| f.set(flag_before_slot));
        rt.atomically(|tx| {
            let a = tx.read(&x)?;
            let b = tx.read(&y)?;
            assert!(
                !inside.load(Ordering::SeqCst),
                "overlap: a speculative attempt ran inside an irrevocable transaction"
            );
            assert_eq!(a, b, "torn read: x = {a}, y = {b}");
            Ok(())
        });
    });
}

/// Green model: no interleaving lets the speculative attempt run inside
/// the irrevocable one.
#[test]
fn an_irrevocable_transaction_runs_alone() {
    let _g = serialize();
    check("stm-serial-handshake", opts(), |e| {
        serial_vs_speculative(e, false)
    });
}

/// Regression model: with the flag loaded before the slot is published,
/// the model must find an overlap.
#[test]
fn model_catches_flag_loaded_before_slot() {
    let _g = serialize();
    let violation = check_expect_violation(opts(), |e| serial_vs_speculative(e, true));
    let (seed, msg) =
        violation.expect("the flag-before-slot variant never overlapped; re-tune the model");
    assert!(
        msg.contains("overlap") || msg.contains("torn read"),
        "expected an overlap, got (seed {seed}): {msg}"
    );
}
