//! Loom-style model of the cross-shard commit's hold-until-all-ack
//! invariant (`RUSTFLAGS="--cfg loom"`).
//!
//! The protocol's atomicity argument (DESIGN.md §14) is a lock-ordering
//! claim: the coordinator's shard locks — taken atomically with its
//! commit by `atomic_defer` — are released only after every participant
//! has committed its slice and acked and the coordinator's record, the
//! batch's commit point, is durable; a participant's locks are released
//! only after that record is durable too. If that ever breaks, a reader
//! can observe one slice of a batch that is not yet committed anywhere —
//! the partial cross-shard state the whole design exists to rule out.
//!
//! [`commit_holds_until_all_acks`] runs the *real* primitives —
//! [`KvStore::commit`] with the router's own [`plan::coordinator`] and
//! [`plan::participant`] plans, full STM underneath, the coordinator's
//! store logging to a [`MemDisk`] — under the model scheduler, with the
//! hop made of the router's own [`Gate`]s (model-aware through
//! `ad_support::sync`): the push, the ack and the release are the gate
//! opens production performs; only the job queue between them is left
//! out. The coordinator's fsync is held until the participant has acked —
//! a disk slower than the hop, the overlap the plan is built for. An
//! observer asserts, on every schedule the scheduler can find:
//!
//! 1. coordinator slice visible ⇒ the participant has acked and the
//!    coordinator's record is durable;
//! 2. participant slice visible ⇒ the coordinator's record is durable.
//!
//! The participant's plan ends at the release: its `Decided` echo is
//! unforced, so nothing holds its locks past `wait_release` — invariant 2
//! is exactly the licence for that (a reader may see the slice once the
//! batch's commit point exists, not once the local echo of it is on
//! disk). And the coordinator logs before its last ack: invariant 1 asks
//! for both by the time its locks go, in either order.
//!
//! Three seeded mutants must each be caught, or the green model has
//! rotted into always-green:
//! [`model_catches_release_before_last_ack`] — a coordinator that commits
//! its slice in a plain transaction and only *then* coordinates, the
//! classic commit-before-coordinate bug (invariant 1);
//! [`model_catches_a_participant_that_ends_at_its_ack`] — a participant
//! whose plan ends one step early, the mistake "shorten the participant's
//! lock hold" invites (invariant 2);
//! [`model_catches_a_release_before_the_record`] — a coordinator whose
//! `release_all` runs before its record is logged (invariant 2).

use std::sync::Arc;

use ad_kv::disk::WAL_BASE;
use ad_kv::recover::scan;
use ad_kv::{CommitStep, KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};
use ad_support::sync::atomic::{AtomicBool, Ordering};

use crate::plan;
use crate::transport::Gate;

fn config() -> KvConfig {
    let mut cfg = KvConfig::volatile().with_shards(1);
    cfg.buckets_per_shard = 1;
    cfg
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
    ParticipantEndsAtAck,
    /// The coordinator releases its participant before its record.
    ReleaseBeforeRecord,
}

/// Wire up one coordinator, one participant, and one observer.
fn scenario(e: &mut Exec, bug: Bug) {
    let disk = MemDisk::new();
    let coord = Arc::new(KvStore::open_on_disk(&config(), SyncPolicy::GroupCommit, disk.clone()).0);
    let part = Arc::new(KvStore::open(config()).expect("volatile open"));
    let acked = Arc::new(AtomicBool::new(false));
    let (push_gate, ack_gate, rel_gate) = (Gate::new(), Gate::new(), Gate::new());

    // The coordinator's fsync outlasts the hop: it completes only once the
    // participant has acked — the overlap the plan is built for, and the
    // window a release that does not wait for the record would leave open.
    disk.hold_syncs();
    {
        let (disk, ack_gate) = (disk.clone(), Arc::clone(&ack_gate));
        e.spawn(move || {
            ack_gate.wait();
            disk.release_syncs();
        });
    }
    {
        let part = Arc::clone(&part);
        let acked = Arc::clone(&acked);
        let (push_gate, ack_gate, rel_gate) = (
            Arc::clone(&push_gate),
            Arc::clone(&ack_gate),
            Arc::clone(&rel_gate),
        );
        e.spawn(move || {
            push_gate.wait();
            let batch = WriteBatch::new().put("kb", b"vb");
            let ack = move || {
                acked.store(true, Ordering::SeqCst);
                ack_gate.open();
            };
            let rel = move || rel_gate.wait();
            if bug == Bug::ParticipantEndsAtAck {
                // BUG (deliberate): the plan stops after the ack — the
                // shard locks release there — and never hears a decision.
                part.commit(&batch, &[CommitStep::call(ack)]);
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
        e.spawn(move || {
            let batch = WriteBatch::new().put("ka", b"va");
            let push: plan::Callback = Arc::new(move || push_gate.open());
            let rider: ad_kv::Rider = Arc::new(Vec::new);
            let wait_ack: plan::Callback = Arc::new(move || ack_gate.wait());
            let release: plan::Callback = Arc::new(move || rel_gate.open());
            if bug == Bug::CommitBeforeCoordinate {
                // BUG (deliberate): a commit with nothing deferred — the
                // shard locks release at once — then the round, holding
                // nothing.
                coord_store.commit(&batch, &[]);
                push();
                wait_ack();
                release();
                return;
            }
            let mut steps = plan::coordinator(GID, [push], rider, wait_ack, release);
            if bug == Bug::ReleaseBeforeRecord {
                // BUG (deliberate): push, release, record, last ack.
                steps[1..].rotate_right(1);
            }
            coord_store.commit(&batch, &steps);
        });
    }

    e.spawn(move || {
        // The coordinator's record is durable: its log's synced prefix
        // holds a record, the model's only one.
        let logged = || !scan(&disk.synced(WAL_BASE), 1).0.is_empty();
        for _ in 0..2 {
            if part.get("kb").is_some() {
                // Invariant 2: a participant exposes its slice only
                // after the batch's commit point.
                assert!(
                    logged(),
                    "participant slice visible before the coordinator's record"
                );
            }
            if coord.get("ka").is_some() {
                // Invariant 1: the coordinator's slice became visible,
                // so its locks released — legal only past the last ack
                // and the record.
                assert!(
                    acked.load(Ordering::SeqCst),
                    "coordinator slice visible before every participant acked"
                );
                assert!(logged(), "coordinator slice visible before its record");
            }
        }
    });
}

const OPTS: CheckOpts = CheckOpts {
    seeds: 400,
    max_steps: 500_000,
};

/// Green sweep: both invariants hold across every explored interleaving
/// of the real coordinator/participant primitives.
#[test]
fn commit_holds_until_all_acks() {
    check("shard-2pc-hold-until-all-acks", OPTS, |e| {
        scenario(e, Bug::None)
    });
}

/// Run `bug` and return the violation the checker must find.
fn caught(bug: Bug, what: &str) -> String {
    let violation = check_expect_violation(OPTS, |e| scenario(e, bug));
    let (_, msg) = violation
        .unwrap_or_else(|| panic!("the {what} variant no longer races; re-tune the model"));
    msg
}

/// Seeded regression: with the commit-before-coordinate coordinator the
/// checker must find a schedule where invariant 1 breaks.
#[test]
fn model_catches_release_before_last_ack() {
    let msg = caught(Bug::CommitBeforeCoordinate, "commit-before-coordinate");
    assert!(
        msg.contains("before every participant acked"),
        "expected a hold-until-ack violation, got: {msg}"
    );
}

/// Seeded regression: a participant that lets go of its locks before
/// `wait_release` returned must be caught exposing its slice before the
/// batch's commit point (invariant 2).
#[test]
fn model_catches_a_participant_that_ends_at_its_ack() {
    let msg = caught(Bug::ParticipantEndsAtAck, "participant-ends-at-ack");
    assert!(
        msg.contains("before the coordinator's record"),
        "expected a hold-until-release violation, got: {msg}"
    );
}

/// Seeded regression: a coordinator that releases its participant before
/// it logs its record must be caught the same way (invariant 2).
#[test]
fn model_catches_a_release_before_the_record() {
    let msg = caught(Bug::ReleaseBeforeRecord, "release-before-record");
    assert!(
        msg.contains("before the coordinator's record"),
        "expected a release-before-record violation, got: {msg}"
    );
}
