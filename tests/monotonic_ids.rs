//! WAL sequence numbers and cross-shard gids only ever go up, across
//! reopens, checkpoints and a router's re-assembly (SEMANTICS.md).
//!
//! A reopened store resumes its log above the last record it recovered,
//! so no two records on one disk ever share a `seq`. A router assembled
//! over reopened stores numbers its batches above every gid the logs
//! still hold, so `(shard, gid)` names one batch when reconciliation
//! matches a coordinator's record against its participants' echoes.

use std::collections::BTreeMap;
use std::sync::Arc;

use ad_kv::disk::segment_first_seq;
use ad_kv::recover::scan;
use ad_kv::{
    Disk, KvConfig, KvStore, MemDisk, RedoKind, RedoRecord, ScanEnd, SyncPolicy, WriteBatch,
};
use ad_shard::ShardRouter;

const SHARDS: usize = 2;

fn open(disk: &MemDisk) -> Arc<KvStore> {
    Arc::new(KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone()).0)
}

fn router(disks: &[MemDisk]) -> ShardRouter {
    ShardRouter::from_stores(disks.iter().map(open).collect())
}

/// Every record the disk's log holds, in segment order. Each segment must
/// scan clean from the seq its name carries, and segments must follow
/// each other without a gap or an overlap.
fn records(disk: &MemDisk) -> Vec<RedoRecord> {
    let mut segments: Vec<(u64, String)> = disk
        .list()
        .unwrap()
        .into_iter()
        .filter_map(|name| segment_first_seq(&name).map(|first| (first, name)))
        .collect();
    segments.sort();
    let mut out: Vec<RedoRecord> = Vec::new();
    for (first, name) in segments {
        if let Some(last) = out.last() {
            assert_eq!(
                first,
                last.seq + 1,
                "segment {name} does not follow seq {}",
                last.seq
            );
        }
        let bytes = disk.read(&name).unwrap().unwrap_or_default();
        let (recs, report) = scan(&bytes, first);
        assert_eq!(report.end, ScanEnd::Clean, "segment {name}: {report:?}");
        out.extend(recs);
    }
    out
}

/// Batches through `router`: single-shard writes on both shards and
/// cross-shard batches coordinated by shard 0.
fn drive(router: &ShardRouter, round: usize, keys: &[String; SHARDS]) {
    for i in 0..6 {
        let v = format!("{round}.{i}");
        router.write_batch(&WriteBatch::new().put(keys[0].as_str(), v.as_str()));
        router.write_batch(&WriteBatch::new().put(keys[1].as_str(), v.as_str()));
        router.write_batch(
            &WriteBatch::new()
                .put(keys[0].as_str(), v.as_str())
                .put(keys[1].as_str(), v.as_str()),
        );
    }
    router.quiesce();
}

#[test]
fn wal_seqs_and_gids_only_go_up_across_reopens_and_reassembly() {
    let disks: Vec<MemDisk> = (0..SHARDS).map(|_| MemDisk::new()).collect();
    let first = router(&disks);
    let keys: [String; SHARDS] = std::array::from_fn(|s| {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| first.shard_of(k) == s)
            .expect("some key lands on every shard")
    });
    drop(first);

    let mut seen = Seen::default();
    for round in 0..4 {
        // Reassemble over reopened stores: round 0 starts on empty disks,
        // the others on what the previous router left.
        let router = router(&disks);
        drive(&router, round, &keys);
        if round == 2 {
            seen.observe(&disks, round);
            router.checkpoint_all().expect("checkpoint_all");
            drive(&router, round + 10, &keys);
        }
        drop(router);
        seen.observe(&disks, round);
    }
    // Four rounds of six cross-shard batches, and six after the checkpoint.
    assert_eq!(seen.gids.len(), 5 * 6, "gids {:x?}", seen.gids);
}

/// Every record ever seen on each disk, and every gid ever seen on the
/// coordinator's, in the order first seen.
#[derive(Default)]
struct Seen {
    records: [BTreeMap<u64, RedoRecord>; SHARDS],
    gids: Vec<u64>,
}

impl Seen {
    /// A seq seen before must name the same record; a new record's seq
    /// must be above every seq seen before on its disk, and a new gid
    /// above every gid seen before.
    fn observe(&mut self, disks: &[MemDisk], round: usize) {
        for (s, disk) in disks.iter().enumerate() {
            let seen = &mut self.records[s];
            let before = seen.keys().next_back().copied().unwrap_or(0);
            for rec in records(disk) {
                if let Some(old) = seen.get(&rec.seq) {
                    assert_eq!(
                        (&old.kind, &old.ops),
                        (&rec.kind, &rec.ops),
                        "round {round}: shard {s} reused seq {}",
                        rec.seq
                    );
                    continue;
                }
                assert!(
                    rec.seq > before,
                    "round {round}: shard {s} wrote seq {} at or below {before}",
                    rec.seq
                );
                if let (0, RedoKind::Decided { gid }) = (s, rec.kind) {
                    assert!(
                        self.gids.iter().all(|&g| g < gid),
                        "round {round}: gid {gid:#x} is not above every earlier gid {:x?}",
                        self.gids
                    );
                    self.gids.push(gid);
                }
                seen.insert(rec.seq, rec);
            }
        }
    }
}
