//! The two-phase commit, written as data: the three [`CommitStep`] plans
//! the router hands to [`ad_kv::KvStore::commit`].
//!
//! The store's commit pipeline holds the touched shard locks from the
//! commit point until the last step returned (DESIGN.md §9). Everything
//! the cross-shard protocol needs from a store follows from *which* steps
//! run inside that window, so each side of the protocol is one short list:
//!
//! | plan          | steps                                                        |
//! |---------------|--------------------------------------------------------------|
//! | coordinator   | `Call(prepare_1) … Call(prepare_p)`, `Log(Decided)`, `Call(release_all)` |
//! | participant   | `Log(Prepare)`, `Call(ack)`, `Call(wait_release)`, `LogUnforced(Decided)` |
//! | resolve       | `Log(Decided)`                                               |
//!
//! A cross-shard batch costs two fsyncs on its critical path — the
//! participants' `Prepare`s (in parallel) and the coordinator's `Decided`
//! — and every lock hold ends at the second: the participant's own
//! `Decided` is appended, not forced.
//!
//! The `Call` steps are the hop between shards. The router's callbacks
//! ([`crate::router`]) push `Job`s on a shard's queue and wait on the
//! `Gate`s the other side opens (`crate::transport`); the tests substitute
//! callbacks that park until the test lets them go.

use std::sync::Arc;

use ad_kv::{CommitStep, RedoKind};

/// A plan callback, shareable across the re-executions of a transaction
/// body.
pub type Callback = Arc<dyn Fn() + Send + Sync>;

/// The coordinator's plan for batch `gid`. Each of `prepares` sends one
/// participant its slice and blocks until that participant acked — its
/// slice is staged durably. They run in the order given; ascending shard
/// order is what makes the protocol deadlock-free. Then the coordinator's
/// own gid-tagged decided record becomes durable — **the commit point of
/// the entire cross-shard batch** — and `release_all` tells every
/// participant (it must not block on their applies). The coordinator's
/// shard locks span all of it, so no reader on this shard observes the
/// slice before every participant staged durably and the decision itself
/// is durable.
pub fn coordinator(
    gid: u64,
    prepares: impl IntoIterator<Item = Callback>,
    release_all: Callback,
) -> Vec<CommitStep> {
    let mut steps: Vec<CommitStep> = prepares.into_iter().map(CommitStep::Call).collect();
    steps.push(CommitStep::Log(RedoKind::Decided { gid }));
    steps.push(CommitStep::Call(release_all));
    steps
}

/// A participant's plan for its slice of batch `gid`: stage the slice
/// durably ([`RedoKind::Prepare`] — logged, never exposed), `ack` — the
/// coordinator may count this shard — block in `wait_release` until the
/// coordinator says the decision is durable, then re-log the slice as
/// decided, which exposes it to the durable tier. The shard locks are held
/// throughout: neither a transactional read nor a durable-tier read can
/// observe the slice before the whole batch is decided.
///
/// The re-log is *unforced*. Once `wait_release` returns the batch is
/// durable everywhere — this log holds the slice (`Prepare`, fsynced
/// before the ack), the coordinator's holds the decision — so the local
/// `Decided` only saves the next recovery a look at another shard's log,
/// and nothing waits for it: it is written with the next batch on this
/// WAL, and the locks are released one fsync earlier. A crash before then
/// leaves a pending prepare that [`ShardRouter::from_stores`] resolves
/// against the coordinator's record; [`ShardRouter::checkpoint_all`]
/// writes it out on every shard before any shard truncates one.
///
/// [`ShardRouter::from_stores`]: crate::ShardRouter::from_stores
/// [`ShardRouter::checkpoint_all`]: crate::ShardRouter::checkpoint_all
pub fn participant(gid: u64, ack: Callback, wait_release: Callback) -> Vec<CommitStep> {
    vec![
        CommitStep::Log(RedoKind::Prepare { gid }),
        CommitStep::Call(ack),
        CommitStep::Call(wait_release),
        CommitStep::LogUnforced(RedoKind::Decided { gid }),
    ]
}

/// Recovery's plan for a staged slice some shard's log proves committed:
/// apply it and log this shard's own decided record — forced, so a
/// router, once assembled, rests on no evidence it has not made local.
pub fn resolve(gid: u64) -> Vec<CommitStep> {
    vec![CommitStep::Log(RedoKind::Decided { gid })]
}
