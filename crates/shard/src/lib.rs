//! # ad-shard — cross-shard transactions as a 2-phase commit across runtimes
//!
//! One [`ad_kv::KvStore`] is an *island*: its runtime, its clock, its
//! quiescence, its WAL. This crate partitions a key space over N such
//! islands and makes a multi-shard write batch atomic **and durable**
//! across all of them, by running atomic deferral's hold-until-done
//! discipline as the lock-holding half of a two-phase commit
//! (DESIGN.md §14).
//!
//! ## The protocol in one paragraph
//!
//! The lowest touched shard coordinates. It commits its local slice
//! through the store's one commit pipeline ([`ad_kv::KvStore::commit`])
//! with a [`plan`]: a list of steps that a single deferred operation runs
//! in order, the slice's shard locks held from the commit until the last
//! step returns. The coordinator's plan is one *prepare* step per remote
//! participant (ascending shard order), the *decision* record, and a
//! *release* step. Each prepare pushes the participant's slice onto that
//! shard's job queue — the in-process hop: one FIFO and one worker per
//! shard, and a one-shot gate for each answer, opened directly by the
//! side that gives it — and blocks until the participant acks — and a
//! participant, whose own plan starts by staging the slice in its own WAL
//! ([`ad_kv::RedoKind::Prepare`]), acks only after that record is
//! fsynced, with its own shard locks held. The decision step appends the
//! coordinator's gid-tagged [`ad_kv::RedoKind::Decided`] record — the
//! commit point of the whole batch — and the release step opens every
//! participant's release gate; each participant then appends its slice
//! as decided — *unforced*: the record rides that shard's next fsync —
//! and its plan ends. Two fsyncs are on a batch's path, the prepares' and the
//! decision's, and every lock hold ends at the second. Locks are held
//! everywhere from commit to release: **a reader on any shard can never
//! observe a partial cross-shard batch**, and when the coordinator's call
//! returns, the batch is durable on every shard — as a staged slice in
//! each participant's log plus the decision in the coordinator's.
//!
//! Crashes recover by presumed abort: a staged slice whose gid no
//! surviving log proves decided is never applied; one whose gid any log
//! proves decided is applied — which is how a participant that crashed
//! before its own decided record reached the disk, the normal state
//! shortly after an ack, gets its slice back
//! ([`ShardRouter::from_stores`] reconciles; see DESIGN.md §14 for the
//! killed-coordinator / killed-participant matrix).
//! [`ShardRouter::checkpoint_all`] forces every shard's log before any
//! shard truncates one, so the decision never exists only in memory.
//!
//! ## Why it cannot deadlock
//!
//! A coordinator only waits on *higher* shard ids (it is the minimum
//! touched shard and prepares ascend); a blocked participant's lock
//! holder is always a protocol step whose release depends only on
//! still-higher shards. Wait-for edges strictly increase in shard id,
//! so no cycle closes.
//!
//! ## Observability
//!
//! Every store keeps its own runtime; [`ShardRouter::take_trace`]
//! merges the per-runtime rings with [`ad_stm::Trace::merge`] so one
//! cross-shard commit renders as a single timeline tagged `r<id>.t<n>`,
//! with `shard_prepare` / `shard_ack` / `shard_release` instants on
//! both sides. [`ShardRouter::stats`] merges the runtimes' counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod router;
mod transport;

/// Loom-style model of the hold-until-all-ack invariant: a coordinator
/// and participants exchanging prepare/ack/release while an observer
/// tries to catch a partially visible batch. Compiled only under
/// `RUSTFLAGS="--cfg loom"` test builds — see VERIFICATION.md.
#[cfg(all(test, loom))]
mod verify;

pub use router::{ShardRouter, SHARD_ACK, SHARD_PREPARE, SHARD_RELEASE};
