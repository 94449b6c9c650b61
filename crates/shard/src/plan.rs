//! The two-phase commit, written as data: the three [`CommitStep`] plans
//! the router hands to [`ad_kv::KvStore::commit`], and the rider the
//! coordinator's record carries.
//!
//! The store's commit pipeline holds the touched shard locks from the
//! commit point until the last step returned (DESIGN.md §9). Everything
//! the cross-shard protocol needs from a store follows from *which* steps
//! run inside that window, so each side of the protocol is one short list:
//!
//! | plan          | steps                                                        |
//! |---------------|--------------------------------------------------------------|
//! | coordinator   | `Call(prepare_1) … Call(prepare_p)`, `LogRider(Decided + rider)`, `Call(wait_last_ack)`, `Call(release_all)` |
//! | participant   | `Call(ack)`, `Call(wait_release)`, `LogUnforced(Decided)`    |
//! | resolve       | `Log(Decided)`                                               |
//!
//! A cross-shard batch costs one fsync: the coordinator's record, which
//! holds the whole batch — its own slice, and in its rider every
//! participant's slice with its shard and its position in that shard's job
//! FIFO. That record is the commit point. Each `prepare_i` pushes a slice
//! and waits for its ack, except the last, whose ack is awaited only after
//! the record: the last hop runs while the fsync is in flight. A
//! participant's `Decided` echo is appended, not forced, and nothing waits
//! for it.
//!
//! The `Call` steps are the hop between shards. The router's callbacks
//! ([`crate::router`]) push `Job`s on a shard's queue and wait on the
//! `Gate`s the other side opens (`crate::transport`); the tests substitute
//! callbacks that park until the test lets them go.

use std::sync::Arc;

use ad_kv::recover::{decode_ops, encode_ops, take_u32, take_u64};
use ad_kv::{CommitStep, RedoKind, RedoOps, Rider};

/// A plan callback, shareable across the re-executions of a transaction
/// body.
pub type Callback = Arc<dyn Fn() + Send + Sync>;

/// The coordinator's plan for batch `gid`. `prepares` run in the order
/// given — ascending shard order is what makes the protocol deadlock-free
/// — each sending one participant its slice; every one but the last also
/// blocks until that participant acked. Then the coordinator's record
/// becomes durable: its own slice plus `rider()`, the participants'
/// slices — **the commit point of the entire cross-shard batch**. Then
/// `wait_last_ack` blocks for the last participant's ack, and
/// `release_all` tells every participant (it must not block on their
/// applies). The coordinator's shard locks span all of it, so no reader
/// on this shard observes the slice before every participant acked and
/// the record is durable.
pub fn coordinator(
    gid: u64,
    prepares: impl IntoIterator<Item = Callback>,
    rider: Rider,
    wait_last_ack: Callback,
    release_all: Callback,
) -> Vec<CommitStep> {
    let mut steps: Vec<CommitStep> = prepares.into_iter().map(CommitStep::Call).collect();
    steps.push(CommitStep::LogRider { gid, rider });
    steps.push(CommitStep::Call(wait_last_ack));
    steps.push(CommitStep::Call(release_all));
    steps
}

/// A participant's plan for its slice of batch `gid`: `ack` — the slice
/// is committed here and its locks held — block in `wait_release` until
/// the coordinator says its record is durable, then append the slice as
/// this shard's own `Decided` echo. The shard locks are held throughout:
/// no read on this shard observes the slice before the batch is decided.
///
/// Nothing on this side is forced. The coordinator's record carries the
/// slice, so the echo only saves the next recovery a look at another
/// shard's log: it is written with the next batch on this WAL, and
/// [`ShardRouter::from_stores`] re-applies it from the coordinator's
/// record if a crash lost it. [`ShardRouter::checkpoint_all`] writes it
/// out on every shard before any shard truncates a coordinator's record.
///
/// [`ShardRouter::from_stores`]: crate::ShardRouter::from_stores
/// [`ShardRouter::checkpoint_all`]: crate::ShardRouter::checkpoint_all
pub fn participant(gid: u64, ack: Callback, wait_release: Callback) -> Vec<CommitStep> {
    vec![
        CommitStep::Call(ack),
        CommitStep::Call(wait_release),
        CommitStep::LogUnforced(RedoKind::Decided { gid }),
    ]
}

/// Recovery's plan for a slice a coordinator's record carries and this
/// shard's log has lost: apply it and log this shard's own echo — forced,
/// so a router, once assembled, rests on no evidence it has not made
/// local.
pub fn resolve(gid: u64) -> Vec<CommitStep> {
    vec![CommitStep::Log(RedoKind::Decided { gid })]
}

/// One participant's slice as the coordinator's record carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// The participant's shard.
    pub shard: usize,
    /// The slice's position in that shard's job FIFO: the order in which
    /// the shard applies the slices it is sent.
    pub pos: u64,
    /// The slice's writes, in application order.
    pub ops: RedoOps,
}

/// Encode one rider entry: `shard: u32 | pos: u64 | ops` (ops as
/// [`ad_kv::recover::encode_ops`] writes them). A rider is its entries,
/// back to back.
pub fn encode_slice(out: &mut Vec<u8>, shard: usize, pos: u64, ops: &[u8]) {
    out.extend_from_slice(&(shard as u32).to_le_bytes());
    out.extend_from_slice(&pos.to_le_bytes());
    out.extend_from_slice(ops);
}

/// A slice's ops, encoded once for [`encode_slice`].
pub fn encode_slice_ops(ops: &[(String, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_ops(&mut out, ops);
    out
}

/// Decode a rider; `None` if it is not entries back to back.
pub fn decode_rider(mut rider: &[u8]) -> Option<Vec<Slice>> {
    let mut slices = Vec::new();
    while !rider.is_empty() {
        let shard = take_u32(&mut rider)? as usize;
        let pos = take_u64(&mut rider)?;
        let ops = decode_ops(&mut rider)?;
        slices.push(Slice { shard, pos, ops });
    }
    Some(slices)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn a_rider_roundtrips_and_rejects_a_torn_entry() {
        let a: RedoOps = vec![("k".into(), Some(b"v".to_vec())), ("d".into(), None)];
        let b: RedoOps = vec![("x".into(), Some(Vec::new()))];
        let mut rider = Vec::new();
        encode_slice(&mut rider, 1, 9, &encode_slice_ops(&a));
        encode_slice(&mut rider, 3, 0, &encode_slice_ops(&b));
        let want = vec![
            Slice {
                shard: 1,
                pos: 9,
                ops: a,
            },
            Slice {
                shard: 3,
                pos: 0,
                ops: b,
            },
        ];
        assert_eq!(decode_rider(&rider), Some(want));
        assert_eq!(decode_rider(&[]), Some(Vec::new()));
        for cut in 1..rider.len() {
            // A cut on the entry boundary is one whole entry.
            let whole = decode_rider(&rider[..cut]).map(|s| s.len());
            assert!(whole.is_none() || whole == Some(1), "cut {cut}");
        }
    }
}
