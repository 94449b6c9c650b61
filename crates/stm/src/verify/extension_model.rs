//! Model: snapshot extension vs. a write to the variable whose read
//! triggered it.
//!
//! A read that finds a version newer than the transaction's `rv` extends
//! the snapshot: take a new `rv`, revalidate the read set. The read that
//! triggered it must be part of that revalidation. Otherwise a commit to
//! the same variable that lands between the read and the new `rv` is
//! covered by the new `rv` without being checked, and when no other stamp
//! is taken before this transaction commits (`wv == rv + 2`), the commit
//! skips validation altogether and overwrites that commit's value.
//!
//! On a `TxLock` this is two owners: a transaction reads the lock word as
//! unheld, a concurrent acquisition commits, and the reader's own
//! acquisition commits over it. Whichever owner releases second finds the
//! lock held by the other, or by no one, and panics — the `defer_io`
//! failure that ROADMAP direction 6 tracked.
//!
//! Three threads each increment one `TVar` once, in read-modify-write
//! transactions; every increment must survive. The bug needs the reader
//! paused twice: after it takes `rv` (one writer commits, making the
//! variable newer than `rv`) and between its read and the new `rv` (the
//! other writer commits). Each writer's quiescence waits for the reader
//! only after its write-back, so both fit. The regression variant reads
//! through [`Tx::read_logged_after_extend`], which logs the read after the
//! extension, and the model must find the lost update.
//!
//! [`Tx::read_logged_after_extend`]: crate::Tx::read_logged_after_extend

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicU64, Ordering};

use super::serialize;
use crate::{Runtime, TVar, TmConfig};

fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 3000,
        max_steps: 200_000,
    }
}

fn increments(e: &mut Exec, log_after_extend: bool) {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let x = TVar::new(0u64);
    let finished = Arc::new(AtomicU64::new(0));
    for _ in 0..3 {
        let (rt, x, finished) = (Arc::clone(&rt), x.clone(), Arc::clone(&finished));
        e.spawn(move || {
            rt.atomically(|tx| {
                let v = if log_after_extend {
                    tx.read_logged_after_extend(&x)?
                } else {
                    tx.read(&x)?
                };
                tx.write(&x, v + 1)
            });
            // The last thread to finish sees every increment committed.
            if finished.fetch_add(1, Ordering::SeqCst) == 2 {
                let total = x.load();
                assert_eq!(
                    total, 3,
                    "lost update: 3 increments committed, {total} survived"
                );
            }
        });
    }
}

/// Green model: no increment is lost, whatever the interleaving of reads,
/// extensions and commits.
#[test]
fn extension_revalidates_the_read_that_triggered_it() {
    let _g = serialize();
    check("stm-extension-vs-writer", opts(), |e| increments(e, false));
}

/// Regression model: log the triggering read after the extension and the
/// model must find an interleaving that loses an increment.
#[test]
fn model_catches_read_logged_after_extension() {
    let _g = serialize();
    let violation = check_expect_violation(opts(), |e| increments(e, true));
    let (seed, msg) =
        violation.expect("the read-logged-after-extension variant lost no update; re-tune");
    assert!(
        msg.contains("lost update"),
        "expected a lost update, got (seed {seed}): {msg}"
    );
}
