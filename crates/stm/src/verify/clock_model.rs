//! Models: commit-clock publish/merge ordering for the non-RMW policy.
//!
//! The sharded clock drops TL2's one-RMW-per-commit, so its safety rests
//! on an ordering claim instead of a total CAS order (`clock.rs` module
//! docs, "Why sharded timestamps preserve opacity"): a committing writer
//! publishes `wv` to its shard cell *before* stamping any variable, so the
//! full max-merge covers every version a reader can witness — and an `rv`
//! that covers a writer's `wv` must also observe that writer's pre-tick
//! write-set locks.
//!
//! The scenario models a variable as a (lock word, stamped version word)
//! pair: the writer takes the lock, ticks, then stamps — the same order
//! `Tx::commit` uses. The reader witnesses the stamp and asserts the
//! clock covers it.
//!
//! The regression variant seeds the clock-skew bug via
//! [`clock::model_hooks::merged_skipping`]: a reader whose merge skips the
//! writer's shard misses the published `wv`, keeps a too-small `rv`, and
//! would accept a version above its snapshot without revalidation. The
//! model must catch it, or the green sharded model proves nothing.

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::serialize;
use crate::clock::{self, ClockPolicy};

fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 3000,
        max_steps: 100_000,
    }
}

/// One modeled transactional variable: a write-set lock word the writer
/// takes before ticking, and the version word it stamps after.
struct Var {
    lock: AtomicU64,
    stamp: AtomicU64,
}

impl Var {
    fn new() -> Arc<Var> {
        Arc::new(Var {
            lock: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        })
    }
}

/// Reader-side validation of one witnessed stamp: extending through
/// `refresh` must produce `rv >= witness`, and an `rv` that covers the
/// stamp must also observe the writer's pre-tick lock (the property that
/// lets TL2 readers accept `version <= rv` without revalidating).
fn validate_witness(var: &Var) {
    let witness = var.stamp.load(Ordering::SeqCst);
    if witness == 0 {
        // The writer has not stamped yet in this interleaving; a real
        // reader would accept the pre-commit version. Nothing to check.
        return;
    }
    let rv = clock::refresh(ClockPolicy::Sharded, witness);
    assert!(
        rv >= witness,
        "refresh returned rv {rv} below witnessed stamp {witness}"
    );
    assert_eq!(
        var.lock.load(Ordering::SeqCst),
        1,
        "rv covers a writer's wv but its pre-tick write-set lock is not visible"
    );
}

/// Sharded clock: the writer publishes `wv` to its shard cell inside
/// `tick`, before stamping. A reader that witnesses the stamp and
/// max-merges must therefore cover it — unless (`skip_writer_shard`, the
/// seeded clock-skew bug) the merge skips the writer's cell.
fn sharded_merge_covers_stamp(e: &mut Exec, skip_writer_shard: bool) {
    let var = Var::new();
    let shard = Arc::new(AtomicUsize::new(usize::MAX));

    let (var_w, shard_w) = (Arc::clone(&var), Arc::clone(&shard));
    e.spawn(move || {
        // Publish which cell this writer's tick stamps through, so the
        // skewed reader can skip exactly that one.
        shard_w.store(clock::model_hooks::my_shard_index(), Ordering::SeqCst);
        let rv = clock::now();
        var_w.lock.store(1, Ordering::SeqCst);
        let wv = clock::tick(ClockPolicy::Sharded, rv, 0);
        var_w.stamp.store(wv, Ordering::SeqCst);
    });

    e.spawn(move || {
        if skip_writer_shard {
            let witness = var.stamp.load(Ordering::SeqCst);
            if witness == 0 {
                return;
            }
            // BUG (deliberate): extend through a merge that misses the
            // writer's shard cell. The writer's wv exceeds every other
            // cell (tick max-merges them all first), so this rv is stuck
            // below the witnessed stamp — the reader would accept a
            // version above its snapshot without revalidation.
            let rv = clock::model_hooks::merged_skipping(shard.load(Ordering::SeqCst));
            assert!(
                rv >= witness,
                "skewed merge left rv {rv} below witnessed stamp {witness}: \
                 the merge does not cover a published wv"
            );
        } else {
            validate_witness(&var);
        }
    });
}

#[test]
fn sharded_witnessed_stamps_are_covered_by_merge() {
    let _g = serialize();
    check("sharded-merge-covers-stamp", opts(), |e| {
        sharded_merge_covers_stamp(e, false)
    });
}

/// Regression model: with the shard-skipping merge (the seeded clock-skew
/// bug), the model must observe a reader whose extension misses a
/// published `wv`. Guards the model's sensitivity — if this stops
/// failing, the green sharded model above proves nothing.
#[test]
fn model_catches_shard_skipping_merge() {
    let _g = serialize();
    let violation = check_expect_violation(opts(), |e| sharded_merge_covers_stamp(e, true));
    let (seed, msg) =
        violation.expect("the clock model no longer catches a shard-skipping merge; re-tune it");
    assert!(
        msg.contains("does not cover a published wv"),
        "expected the merge-coverage assertion, got (seed {seed}): {msg}"
    );
}
