//! Loom-style model of the cross-shard commit's hold-until-all-ack
//! invariant (`RUSTFLAGS="--cfg loom"`).
//!
//! The protocol's atomicity argument (DESIGN.md §14) is a lock-ordering
//! claim: the coordinator's shard locks — taken atomically with its
//! commit by `atomic_defer` — are released only after every participant
//! has staged its slice and acked, and the decision itself is logged.
//! If that ever breaks, a reader on the coordinator shard can observe
//! the coordinator's slice of a batch whose remote slices do not yet
//! exist anywhere durable — the partial cross-shard state the whole
//! design exists to rule out.
//!
//! [`commit_holds_until_all_acks`] runs the *real* primitives —
//! [`KvStore::commit`] with the router's own [`plan::coordinator`] and
//! [`plan::participant`] plans on two volatile stores, full STM
//! underneath — under the model scheduler, with the hop made of the
//! router's own [`Gate`]s (model-aware through `ad_support::sync`): the
//! ack and the release are the gate opens production performs; only the
//! job queue between them is left out. An observer asserts, on every
//! schedule the scheduler can find:
//!
//! 1. coordinator slice visible ⇒ the participant has staged and acked;
//! 2. participant slice visible ⇒ the decision ran (release was sent).
//!
//! The participant's plan ends at the release: its `Decided` re-log is
//! unforced, so nothing holds its locks past `wait_release` — invariant 2
//! is exactly the licence for that (a reader may see the slice once the
//! global decision exists, not once the local echo of it is on disk).
//!
//! [`model_catches_release_before_last_ack`] is the seeded regression:
//! a coordinator that commits its slice in a plain transaction and only
//! *then* runs the prepare round — the classic commit-before-coordinate
//! bug an executor or router refactor could introduce. Its locks release
//! at commit, before any ack, and the checker must find the schedule
//! where the observer catches invariant 1 broken. If it stops finding
//! it, the green model has rotted into always-green.
//! [`model_catches_release_before_the_decision`] is its twin on the other
//! side: a participant whose plan ends at the ack — one step too early,
//! the mistake "shorten the participant's lock hold" invites — must be
//! caught breaking invariant 2.

use std::sync::Arc;

use ad_kv::{CommitStep, KvConfig, KvStore, RedoKind, WriteBatch};
use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicBool, Ordering};

use crate::plan;
use crate::transport::Gate;

fn store() -> Arc<KvStore> {
    let mut cfg = KvConfig::volatile().with_shards(1);
    cfg.buckets_per_shard = 1;
    Arc::new(KvStore::open(cfg).expect("volatile open"))
}

const GID: u64 = 1;

/// The seeded protocol bugs.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    None,
    /// The coordinator commits its slice *before* running the prepare
    /// round instead of deferring the round over its locks.
    CommitBeforeCoordinate,
    /// The participant's plan ends at the ack: its locks are released
    /// before it has heard of any decision.
    ReleaseBeforeDecision,
}

/// Wire up one coordinator, one participant, and one observer.
fn scenario(e: &mut Exec, bug: Bug) {
    let coord = store();
    let part = store();
    let acked = Arc::new(AtomicBool::new(false));
    let decided = Arc::new(AtomicBool::new(false));
    let ack_gate = Gate::new();
    let rel_gate = Gate::new();

    {
        let part = Arc::clone(&part);
        let acked = Arc::clone(&acked);
        let ack_gate = Arc::clone(&ack_gate);
        let rel_gate = Arc::clone(&rel_gate);
        e.spawn(move || {
            let batch = WriteBatch::new().put("kb", b"vb");
            let ack = move || {
                acked.store(true, Ordering::SeqCst);
                ack_gate.open();
            };
            let rel = move || rel_gate.wait();
            if bug == Bug::ReleaseBeforeDecision {
                // BUG (deliberate): the plan stops after the ack — the
                // shard locks release there — and only then waits.
                let staged = CommitStep::Log(RedoKind::Prepare { gid: GID });
                part.commit(&batch, &[staged, CommitStep::call(ack)]);
                rel();
            } else {
                part.commit(
                    &batch,
                    &plan::participant(GID, Arc::new(ack), Arc::new(rel)),
                );
            }
        });
    }

    {
        let coord_store = Arc::clone(&coord);
        let decided = Arc::clone(&decided);
        let ack_gate = Arc::clone(&ack_gate);
        let rel_gate = Arc::clone(&rel_gate);
        e.spawn(move || {
            let batch = WriteBatch::new().put("ka", b"va");
            if bug == Bug::CommitBeforeCoordinate {
                // BUG (deliberate): plain commit first — the shard locks
                // release here — then the prepare/ack round and release.
                coord_store.write_batch(&batch);
                ack_gate.wait();
                decided.store(true, Ordering::SeqCst);
                rel_gate.open();
            } else {
                let rel = {
                    let decided = Arc::clone(&decided);
                    let rel_gate = Arc::clone(&rel_gate);
                    move || {
                        decided.store(true, Ordering::SeqCst);
                        rel_gate.open();
                    }
                };
                let prepare: plan::Callback = Arc::new(move || ack_gate.wait());
                coord_store.commit(&batch, &plan::coordinator(GID, [prepare], Arc::new(rel)));
            }
        });
    }

    e.spawn(move || {
        for _ in 0..2 {
            if coord.get("ka").is_some() {
                // Invariant 1: the coordinator's slice became visible,
                // so its locks released — legal only past the last ack.
                assert!(
                    acked.load(Ordering::SeqCst),
                    "coordinator slice visible before every participant acked"
                );
            }
            if part.get("kb").is_some() {
                // Invariant 2: a participant exposes its slice only
                // after the decision ran and released it.
                assert!(
                    decided.load(Ordering::SeqCst),
                    "participant slice visible before the decision"
                );
            }
        }
    });
}

/// Green sweep: both invariants hold across every explored interleaving
/// of the real coordinator/participant primitives.
#[test]
fn commit_holds_until_all_acks() {
    check(
        "shard-2pc-hold-until-all-acks",
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| scenario(e, Bug::None),
    );
}

/// Seeded regression: with the commit-before-coordinate coordinator the
/// checker must find a schedule where invariant 1 breaks. Guards the
/// green model's sensitivity.
#[test]
fn model_catches_release_before_last_ack() {
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| scenario(e, Bug::CommitBeforeCoordinate),
    );
    let (seed, msg) =
        violation.expect("the commit-before-coordinate variant no longer races; re-tune the model");
    assert!(
        msg.contains("before every participant acked"),
        "expected a hold-until-ack violation, got (seed {seed}): {msg}"
    );
}

/// Seeded regression: a participant that lets go of its locks before
/// `wait_release` returned must be caught exposing its slice with no
/// decision anywhere (invariant 2).
#[test]
fn model_catches_release_before_the_decision() {
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 400,
            max_steps: 500_000,
        },
        |e| scenario(e, Bug::ReleaseBeforeDecision),
    );
    let (seed, msg) =
        violation.expect("the release-before-decision variant no longer races; re-tune the model");
    assert!(
        msg.contains("before the decision"),
        "expected a hold-until-release violation, got (seed {seed}): {msg}"
    );
}
