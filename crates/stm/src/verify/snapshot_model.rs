//! Model: snapshot store/load vs. epoch retirement (the PR-1 bug shape).
//!
//! Two scenarios share the cast of threads:
//!
//! * [`retire_vs_pin`] — the **green model**: an unconstrained seed sweep
//!   (uniform random walk + PCT schedules, see `ad_support::model`) over a
//!   writer that replaces the value once (retiring the old allocation), a
//!   reader that snapshots the cell concurrently, and a churner that
//!   advances the global epoch at arbitrary points. Under `--cfg loom`,
//!   "freeing" a retired value poisons its address instead of releasing
//!   memory, and `SnapshotCell::load` has a scheduling point *between* its
//!   pointer load and the dereference where it asserts the pointer is not
//!   poisoned — a use-after-free becomes a deterministic model failure.
//!   With the production `store` (retirement tag read *after* a `SeqCst`
//!   fence that follows the unlink swap), no interleaving can free the old
//!   value while the reader still holds it (see the proof comment in
//!   `SnapshotCell::store`).
//!
//! * [`reread_after_overwrites`] — a transaction's re-read comes from its
//!   read cache, which keeps the pointer its first read borrowed, not an
//!   `Arc` clone. A writer overwrites the variable twice and collects after
//!   each, while the reader is pinned between its two reads. The first
//!   value must still be allocated: the cache lookup asserts its pointer
//!   is not poisoned, and the re-read must return the first read's value.
//!
//! * [`staged_stale_tag`] — the **regression model**: the same machinery
//!   over `store_weak_tag`, the PR-1 bug (tag read *before* the swap,
//!   fixed in commit 0b01d8c) reintroduced behind `cfg(test)`. The
//!   use-after-free needs a four-phase interleaving — writer paused inside
//!   the tag→swap window, epoch advanced past the stale tag, reader pinned
//!   in the new epoch holding the old pointer, writer resumed through
//!   retire + collect — which a random sweep essentially never assembles
//!   (two exact-step preemptions plus a thread order; measured well below
//!   one hit in 10⁴ seeds). So the scenario *stages* the phases with the
//!   `model_hooks` turnstiles and lets the real pins, retirement tags,
//!   `try_advance`, two-epoch rule, and poison registry produce the
//!   violation on every schedule. `model_catches_stale_retirement_tag`
//!   asserts they actually do, so the green model cannot rot silently:
//!   if someone "fixes" the detection machinery into blindness, the staged
//!   bug stops being caught and the regression test fails.

use std::sync::Arc;

use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicBool, Ordering};

use super::serialize;
use crate::snapshot::{model_hooks, pin_scope, SnapshotCell};
use crate::var::new_value;
use crate::{Runtime, TVar, TmConfig};

/// Exploration bounds for the green model: 3 threads with a few dozen
/// scheduling points each, so a few thousand seeds visit the boundary
/// interleavings many times over. Runs in a few seconds in release mode.
fn opts() -> CheckOpts {
    CheckOpts {
        seeds: 6000,
        max_steps: 200_000,
    }
}

/// The green scenario: unconstrained concurrent store/load/advance.
fn retire_vs_pin(e: &mut Exec) {
    let cell = Arc::new(SnapshotCell::new(new_value(0u64)));

    // Writer: one store (retiring the original allocation), then drive
    // collection hard enough to advance the epoch past the two-epoch
    // horizon and free (= poison) the retired value.
    let w = Arc::clone(&cell);
    e.spawn(move || {
        w.store(new_value(1u64));
        for _ in 0..3 {
            model_hooks::force_collect();
        }
    });

    // Reader: concurrent snapshots. The value assertion is almost
    // incidental — the real check is the poison assertion inside `load`.
    let r = Arc::clone(&cell);
    e.spawn(move || {
        for _ in 0..2 {
            let pin = pin_scope();
            let v = r.load(&pin);
            let x = *v.downcast_ref::<u64>().expect("cell holds a u64");
            assert!(x == 0 || x == 1, "torn or recycled value: {x}");
        }
    });

    // Churner: epoch advancement from elsewhere in the system.
    e.spawn(move || {
        for _ in 0..3 {
            model_hooks::advance();
        }
    });
}

/// A pinned reader's re-read vs. two overwrites, each followed by a
/// collection, over the real runtime.
fn reread_after_overwrites(e: &mut Exec) {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let x = TVar::new(0u64);
    let first_read = Arc::new(AtomicBool::new(false));
    let overwritten = Arc::new(AtomicBool::new(false));

    let (xr, first, over) = (x.clone(), Arc::clone(&first_read), Arc::clone(&overwritten));
    e.spawn(move || {
        rt.atomically(|tx| {
            let a = tx.read(&xr)?;
            first.store(true, Ordering::SeqCst);
            while !over.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            let b = tx.read(&xr)?;
            assert_eq!(a, b, "a re-read returned another value than the first read");
            Ok(())
        });
    });

    e.spawn(move || {
        while !first_read.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        for v in 1..=2 {
            x.store(v);
            model_hooks::force_collect();
        }
        overwritten.store(true, Ordering::SeqCst);
    });

    // Churner: epoch advancement from elsewhere in the system.
    e.spawn(move || {
        for _ in 0..3 {
            model_hooks::advance();
        }
    });
}

#[test]
fn a_cached_read_outlives_overwrites_until_unpin() {
    let _g = serialize();
    check(
        "snapshot-reread-after-overwrites",
        opts(),
        reread_after_overwrites,
    );
}

/// The staged regression scenario (see the module docs): drive the PR-1
/// stale-tag interleaving deterministically through the turnstiles. The
/// caller must have armed the gates; every schedule converges to the same
/// phase order, so a handful of seeds suffices.
fn staged_stale_tag(e: &mut Exec) {
    model_hooks::arm_gates();
    let cell = Arc::new(SnapshotCell::new(new_value(0u64)));

    // Writer: the buggy store parks inside its tag→swap window (via
    // `stale_tag_window`) until the epoch has advanced and the reader
    // holds the doomed pointer; it then retires with the stale tag,
    // collects — which frees (= poisons) the old value under the reader —
    // and releases the reader.
    let w = Arc::clone(&cell);
    e.spawn(move || {
        w.store_weak_tag(new_value(1u64));
        model_hooks::force_collect();
        model_hooks::set_freed();
    });

    // Reader: waits for the advanced epoch (so its pin lands *above* the
    // writer's stale tag), then loads. `load` parks between the pointer
    // load and the poison check (via `reader_window`) until the writer has
    // freed; the check then fires on the poisoned address.
    let r = Arc::clone(&cell);
    e.spawn(move || {
        while !model_hooks::epoch_advanced() {
            std::hint::spin_loop();
        }
        let pin = pin_scope();
        let _v = r.load(&pin);
    });

    // Churner: once the writer sits in its window (pinned, stale tag in
    // hand), advance the epoch past the tag and signal.
    e.spawn(move || {
        while !model_hooks::writer_in_window() {
            std::hint::spin_loop();
        }
        let start = model_hooks::current_epoch();
        while model_hooks::advance() == start {
            std::hint::spin_loop();
        }
        model_hooks::set_epoch_advanced();
    });
}

#[test]
fn snapshot_retire_vs_pin_is_safe() {
    let _g = serialize();
    check("snapshot-retire-vs-pin", opts(), retire_vs_pin);
}

/// Disarm the staging gates even when the test's `expect` panics: the
/// verify tests are serialized, and armed gates would park the next
/// model's readers forever.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        model_hooks::disarm_gates();
    }
}

/// Regression model (PR-1, fixed in commit 0b01d8c): the staged scenario
/// over the deliberately-buggy `store_weak_tag` must produce a
/// use-after-free violation — on essentially every seed, since the
/// turnstiles force the phase order. If this test fails, the detection
/// machinery (pins, retirement tags, the two-epoch rule, the poison
/// registry) has lost the power to catch the bug class it exists for —
/// fix the machinery, not the assertion.
#[test]
fn model_catches_stale_retirement_tag() {
    let _g = serialize();
    let _disarm = DisarmOnDrop;
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 64,
            max_steps: 200_000,
        },
        |e| staged_stale_tag(e),
    );
    let (seed, msg) = violation.expect(
        "the staged retire-vs-pin scenario no longer produces a use-after-free for \
         the PR-1 stale-retirement-tag bug: the epoch/poison detection machinery has \
         gone blind, and the green model above proves nothing",
    );
    assert!(
        msg.contains("use-after-free"),
        "expected a use-after-free violation, got (seed {seed}): {msg}"
    );
}
