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
//! participant (ascending shard order), its *record*, a wait for the last
//! ack, and a *release* step. Each prepare pushes the participant's slice
//! onto that shard's job queue — the in-process hop: one FIFO and one
//! worker per shard, and a one-shot gate for each answer, opened directly
//! by the side that gives it — taking a position in that FIFO, and blocks
//! until the participant acks, except the last, whose ack is awaited
//! after the record. A participant commits the slice with its own shard
//! locks held, acks, and waits for the release. The coordinator's record
//! is a gid-tagged [`ad_kv::RedoKind::Decided`] that holds the whole
//! batch: its own slice, and in a *rider* every participant's slice with
//! its shard and FIFO position. Its fsync — the batch's one — is the
//! commit point; the last hop runs while it is in flight. The release
//! step opens every participant's release gate; each participant then
//! appends its slice as its own `Decided` echo — *unforced*: the record
//! rides that shard's next fsync — and its plan ends. Locks are held
//! everywhere from commit to release: **a reader on any shard can never
//! observe a partial cross-shard batch**, and when the coordinator's call
//! returns, the batch is durable — all of it, in the coordinator's log.
//!
//! A batch is committed if and only if its coordinator's record is
//! durable. [`ShardRouter::from_stores`] reconciles after a crash: a slice
//! a surviving coordinator's record carries and its shard's log has lost
//! is re-applied there, in the shard's FIFO order (DESIGN.md §14.3).
//! [`ShardRouter::checkpoint_all`] forces every shard's log before any
//! shard truncates one, so no coordinator's record is truncated while a
//! slice it carries exists only in memory. A routed shard opened on its
//! own after a crash replays only its own log and can miss un-echoed
//! slices without any report.
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
//! both sides. [`ShardRouter::stats`] merges the runtimes' counters, and
//! [`ShardRouter::reapplied_slices`] counts the slices recovery re-applied.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod router;
mod transport;

/// Loom-style model of the hold-until-all-ack invariant: a coordinator
/// and a participant exchanging prepare/ack/record/release while an
/// observer tries to catch a partially visible batch. Compiled only under
/// `RUSTFLAGS="--cfg loom"` test builds — see VERIFICATION.md.
#[cfg(all(test, loom))]
mod verify;

pub use router::{ShardRouter, ROUTER_LOCKS, SHARD_ACK, SHARD_PREPARE, SHARD_RELEASE};
