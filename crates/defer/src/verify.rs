//! Loom-style model of the TxLock subscribe/acquire protocol (paper §4).
//!
//! The serializability argument of atomic deferral rests on one visibility
//! property: a transaction that *subscribes* to a deferrable object's lock
//! (every transactional accessor does, via [`Defer::with`]) can never
//! commit having observed the half-applied state of a deferred operation.
//! The mechanism: `subscribe` reads the lock's `owner` `TVar`, so the
//! owning transaction's commit-time acquisition — and the post-operation
//! release — both invalidate the subscriber, which aborts and re-executes.
//!
//! Two scenarios, two threads each, run under `ad_support::model`'s
//! controlled scheduler (`RUSTFLAGS="--cfg loom"`):
//!
//! * [`subscribe_vs_deferred_write`] — the green model. A writer commits a
//!   transaction whose deferred operation increments the object's two
//!   (non-transactional) counters one at a time — a torn state `a != b`
//!   exists while the lock is held. A reader repeatedly runs a subscribing
//!   transaction that loads both counters, and asserts `a == b` *after*
//!   each commit (mid-attempt observations may legitimately be torn — the
//!   commit-time validation is exactly what discards those attempts).
//! * The regression variant drops the subscription: the reader peeks at
//!   the fields through [`Defer::peek_unsynchronized`] with no transaction
//!   — the unlisted-object data race of §4.1 — and
//!   [`model_catches_unsubscribed_read`] asserts the model observes a torn
//!   pair. This guards the green model's sensitivity: if torn states ever
//!   stop being produced (or observed), the subscription model proves
//!   nothing.
//!
//! Four further models cover the shrinking phase on the committing
//! thread, the holder's store release and multi-object deferral. The
//! shrinking-phase models rebuild `atomic_defer`'s post-commit step from
//! its pieces so a mutant can reorder them: the committer acquires the
//! lock in a transaction, and once `atomically` has returned — write-back
//! and quiescence done, where `TxEnd` runs deferred ops — performs the
//! two-step update and releases with `release_now`, all under its own
//! `OwnerId`:
//!
//! * [`deferred_locks_span_commit_to_release`] — green. The lock is held
//!   from the commit through the op's last store; the release is one
//!   store, no transaction. Subscribing readers must never commit a torn
//!   observation.
//! * [`model_catches_release_before_op_done`] — regression. The committer
//!   releases *before* running the op (the shrinking phase misordered),
//!   and the model must observe a torn pair through a subscribing reader.
//! * [`model_catches_release_by_non_holder`] — regression. The store
//!   release is sound only because nobody but the holder writes a held
//!   lock. A mutant `release_now` that skips the holder check, called by a
//!   third thread while the committer is mid-op, frees the lock under the
//!   op; the model must observe a torn pair.
//! * [`multi_object_defer_is_deadlock_free`] — two transactions defer over
//!   the same two objects listed in opposite orders. With ordinary mutexes
//!   this interleaving deadlocks; transactional acquisition aborts and
//!   re-executes instead, so both executions must complete within the step
//!   budget (a deadlock or livelock blows it and fails the model).
//!
//! The whole STM stack runs under the model scheduler here — TL2 reads,
//! commit-time validation, quiescence, the post-commit deferral queue, and
//! the holder's store release — so an execution is hundreds of scheduling
//! points; seed counts are sized accordingly.

use std::sync::Arc;

use ad_stm::{Runtime, TmConfig};
use ad_support::model::{check, check_expect_violation, yield_point, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicU64, Ordering};

use crate::defer::atomic_defer;
use crate::deferrable::{Defer, Deferrable};

/// The shared object: two plain (facade) atomics a deferred operation
/// updates non-atomically, one after the other. No `TVar`s on purpose —
/// nothing protects a reader from tearing except the TxLock protocol
/// under test.
struct Pair {
    a: AtomicU64,
    b: AtomicU64,
}

/// The deferred operation: bump `a`, run `between`, bump `b`. The pair
/// is torn from the first store to the last.
fn two_step(p: &Pair, between: impl FnOnce()) {
    let a = p.a.load(Ordering::SeqCst);
    p.a.store(a + 1, Ordering::SeqCst);
    between();
    let b = p.b.load(Ordering::SeqCst);
    p.b.store(b + 1, Ordering::SeqCst);
}

fn scenario(e: &mut Exec, subscribe: bool) {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let obj = Arc::new(Defer::new(Pair {
        a: AtomicU64::new(0),
        b: AtomicU64::new(0),
    }));

    // Writer: one transaction deferring a two-step update of the pair.
    // Between the deferred op's two stores the state is torn, but the
    // object's lock is held from the commit point until after the second
    // store — subscribers must never commit an observation of it.
    let (w_rt, w_obj) = (Arc::clone(&rt), Arc::clone(&obj));
    e.spawn(move || {
        let inner = Arc::clone(&w_obj);
        w_rt.atomically(move |tx| {
            let op_obj = Arc::clone(&inner);
            atomic_defer(tx, &[&*inner], move || two_step(&op_obj.locked(), || {}))
        });
    });

    // Reader: a few observations of the pair.
    let (r_rt, r_obj) = (rt, obj);
    e.spawn(move || {
        for _ in 0..2 {
            let (a, b) = if subscribe {
                // Through the protocol: subscribe, then load. Only the
                // *committed* observation is asserted on — aborted attempts
                // are allowed to see anything.
                let o = Arc::clone(&r_obj);
                r_rt.atomically(move |tx| {
                    o.with(tx, |p, _| {
                        Ok((p.a.load(Ordering::SeqCst), p.b.load(Ordering::SeqCst)))
                    })
                })
            } else {
                // BUG (deliberate): raw access, no subscription, no
                // transaction — the §4.1 data race.
                let p = r_obj.peek_unsynchronized();
                (p.a.load(Ordering::SeqCst), p.b.load(Ordering::SeqCst))
            };
            assert_eq!(
                a, b,
                "observed a deferred operation's intermediate state: ({a}, {b})"
            );
        }
    });
}

/// Green model: subscribing readers never observe torn deferred updates.
#[test]
fn subscribe_vs_deferred_write() {
    check(
        "txlock-subscribe-vs-deferred-write",
        CheckOpts {
            seeds: 600,
            max_steps: 500_000,
        },
        |e| scenario(e, true),
    );
}

/// Regression model: without the subscription the torn state is
/// observable, and the model must find it. If this fails, the green model
/// above has rotted into always-green.
#[test]
fn model_catches_unsubscribed_read() {
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 600,
            max_steps: 500_000,
        },
        |e| scenario(e, false),
    );
    let (seed, msg) =
        violation.expect("the unsubscribed-reader variant no longer observes a torn pair; re-tune");
    assert!(
        msg.contains("intermediate state"),
        "expected a torn-pair observation, got (seed {seed}): {msg}"
    );
}

/// How the committer's shrinking phase runs.
#[derive(Clone, Copy, PartialEq)]
enum Shrink {
    /// Op, then the holder's `release_now`: the protocol.
    OpThenRelease,
    /// BUG (deliberate): the release completes before the op.
    ReleaseBeforeOp,
    /// BUG (deliberate): mid-op, a third thread — not the holder — calls a
    /// `release_now` whose store path skips the holder check.
    ForeignReleaseMidOp,
}

/// `atomic_defer`'s commit and post-commit step, rebuilt from its pieces
/// on one thread: acquire the object's lock atomically with a commit,
/// then — after `atomically` returned, so write-back and quiescence are
/// done, as in `run_post_commit` — run the two-step update and release.
/// Running the op any earlier would be wrong (and the model catches it):
/// between write-back and quiescence-end, a read-only transaction whose
/// snapshot predates the acquisition can still be live. The green variant
/// must never show a torn pair to a subscribing reader; both buggy
/// variants must.
fn shrink_scenario(e: &mut Exec, shrink: Shrink) {
    let rt = Arc::new(Runtime::new(TmConfig::stm()));
    let obj = Arc::new(Defer::new(Pair {
        a: AtomicU64::new(0),
        b: AtomicU64::new(0),
    }));
    // Committer → foreign thread: "half of the op is done" (1), and back:
    // "the foreign release is done" (2). Used only by
    // `ForeignReleaseMidOp`.
    let mid_op = Arc::new(AtomicU64::new(0));

    // Committer: the growing phase, then the op and its release, all under
    // this thread's `OwnerId`.
    let (c_rt, c_obj, c_mid) = (Arc::clone(&rt), Arc::clone(&obj), Arc::clone(&mid_op));
    e.spawn(move || {
        c_rt.atomically(|tx| c_obj.txlock().acquire(tx));
        assert!(c_obj.txlock().held_by_me());
        match shrink {
            Shrink::OpThenRelease => {
                two_step(&c_obj.locked(), || {});
                c_obj.txlock().release_now(&c_rt);
            }
            Shrink::ReleaseBeforeOp => {
                c_obj.txlock().release_now(&c_rt);
                two_step(c_obj.peek_unsynchronized(), || {});
            }
            Shrink::ForeignReleaseMidOp => {
                // The lock is taken from under the op: nothing is left for
                // the committer to release.
                two_step(c_obj.peek_unsynchronized(), || {
                    c_mid.store(1, Ordering::SeqCst);
                    while c_mid.load(Ordering::SeqCst) != 2 {
                        yield_point();
                    }
                });
            }
        }
    });

    if shrink == Shrink::ForeignReleaseMidOp {
        let (f_rt, f_obj) = (Arc::clone(&rt), Arc::clone(&obj));
        e.spawn(move || {
            while mid_op.load(Ordering::SeqCst) == 0 {
                yield_point();
            }
            f_obj.txlock().release_now_skipping_holder_check(&f_rt);
            mid_op.store(2, Ordering::SeqCst);
        });
    }

    // Reader: committed subscribing observations must never be torn.
    let (r_rt, r_obj) = (rt, obj);
    e.spawn(move || {
        for _ in 0..2 {
            let o = Arc::clone(&r_obj);
            let (a, b) = r_rt.atomically(move |tx| {
                o.with(tx, |p, _| {
                    Ok((p.a.load(Ordering::SeqCst), p.b.load(Ordering::SeqCst)))
                })
            });
            assert_eq!(
                a, b,
                "observed a deferred operation's intermediate state: ({a}, {b})"
            );
        }
    });
}

/// Green model: the lock stays held from the commit through the op's
/// completion, so the committer's post-commit update is invisible to
/// subscribers.
#[test]
fn deferred_locks_span_commit_to_release() {
    check(
        "defer-locks-span-commit-to-release",
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| shrink_scenario(e, Shrink::OpThenRelease),
    );
}

/// Run a buggy shrinking phase and require the model to catch a torn pair.
fn expect_torn_pair(shrink: Shrink, what: &str) {
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| shrink_scenario(e, shrink),
    );
    let (seed, msg) = violation
        .unwrap_or_else(|| panic!("the {what} variant no longer exposes a torn pair; re-tune"));
    assert!(
        msg.contains("intermediate state"),
        "expected a torn-pair observation, got (seed {seed}): {msg}"
    );
}

/// Regression model: a committer that releases before finishing the op
/// exposes the torn state, and the model must catch it.
#[test]
fn model_catches_release_before_op_done() {
    expect_torn_pair(Shrink::ReleaseBeforeOp, "release-before-op");
}

/// Regression model: a store release that skips the holder check lets a
/// non-holder free the lock mid-op, and the model must catch the torn
/// state that exposes. This is what `release_now`'s holder check (and its
/// fall-back to the transactional, panicking `release`) prevents.
#[test]
fn model_catches_release_by_non_holder() {
    expect_torn_pair(Shrink::ForeignReleaseMidOp, "non-holder release");
}

/// Multi-object deferral is deadlock-free by construction: `atomic_defer`
/// acquires its locks *transactionally*, so two transactions listing the
/// same objects in opposite orders — the classic lock-order deadlock —
/// abort and re-execute instead of waiting on each other. A deadlock (or
/// livelock) here would exhaust the step budget and fail the model.
#[test]
fn multi_object_defer_is_deadlock_free() {
    check(
        "defer-multi-object-opposite-order",
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| {
            let rt = Arc::new(Runtime::new(TmConfig::stm()));
            let x = Arc::new(Defer::new(AtomicU64::new(0)));
            let y = Arc::new(Defer::new(AtomicU64::new(0)));
            for flip in [false, true] {
                let (rt, x, y) = (Arc::clone(&rt), Arc::clone(&x), Arc::clone(&y));
                e.spawn(move || {
                    let (ox, oy) = (Arc::clone(&x), Arc::clone(&y));
                    rt.atomically(move |tx| {
                        let (ix, iy) = (Arc::clone(&ox), Arc::clone(&oy));
                        let op = move || {
                            ix.locked().fetch_add(1, Ordering::SeqCst);
                            iy.locked().fetch_add(1, Ordering::SeqCst);
                        };
                        if flip {
                            atomic_defer(tx, &[&*oy, &*ox], op)
                        } else {
                            atomic_defer(tx, &[&*ox, &*oy], op)
                        }
                    });
                    // The op ran on this thread before `atomically`
                    // returned, with both locks held.
                    assert!(x.peek_unsynchronized().load(Ordering::SeqCst) >= 1);
                    assert!(y.peek_unsynchronized().load(Ordering::SeqCst) >= 1);
                });
            }
        },
    );
}
