//! Tier-1 coverage of the write path: `cargo test` at the root runs only
//! the root package, so the commit pipeline and the storage protocols get
//! one end-to-end check here, through public API only. The exhaustive
//! matrices live beside the crates (`ad-kv` `tests/recovery.rs`,
//! `tests/ckpt_recovery.rs`, `ad-shard` `tests/crash.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use ad_shard::ShardRouter;

type Model = BTreeMap<String, Vec<u8>>;

fn open(disk: &MemDisk) -> KvStore {
    open_with(&KvConfig::default(), disk)
}

fn open_with(config: &KvConfig, disk: &MemDisk) -> KvStore {
    KvStore::open_on_disk(config, SyncPolicy::GroupCommit, disk.clone()).0
}

/// `dump()` of a store, after checking that its key index — what
/// `scan_from` walks — lists exactly the rows its buckets hold.
fn dump_checked(store: &KvStore, what: &str) -> Model {
    let dump = store.dump();
    let scanned = store.scan_from("", usize::MAX);
    assert!(
        scanned
            .iter()
            .map(|(k, v)| (&**k, &**v))
            .eq(dump.iter().map(|(k, v)| (k.as_str(), v.as_slice()))),
        "{what}: scan rows differ from dump {dump:?}"
    );
    assert_eq!(store.len(), dump.len(), "{what}: len");
    dump
}

/// Batches around a checkpoint, then every crash image of the disk — each
/// journal prefix, optimistic and pessimistic, and every byte cut inside
/// every append — must recover to a whole number of batches.
///
/// The store has two buckets, one per shard, and the batches take a
/// bucket through every arm of its update: an overwrite that writes only
/// the key's value; a key put then deleted, or deleted then put, in one
/// batch; a delete of an absent key; and — the second of two one-key
/// inserts while `d` is present — an insert into an occupied bucket.
#[test]
fn every_crash_image_of_a_checkpointed_history_is_a_committed_prefix() {
    let config = KvConfig {
        shards: 2,
        buckets_per_shard: 1,
        ..KvConfig::default()
    };
    let open = |disk: &MemDisk| open_with(&config, disk);
    let batches = [
        WriteBatch::new().put("a", "1"),
        WriteBatch::new().put("b", "2").put("c", "3"),
        WriteBatch::new().delete("a").put("b", "22"),
        WriteBatch::new().put("d", "4").delete("c"),
        WriteBatch::new().put("b", "222").put("d", "44"),
        WriteBatch::new().put("e", "5").delete("e").delete("zz"),
        WriteBatch::new()
            .put("b", "x")
            .delete("b")
            .delete("d")
            .put("d", "444"),
        WriteBatch::new().put("f", "6"),
        WriteBatch::new().put("g", "7"),
    ];
    let disk = MemDisk::new();
    let store = open(&disk);
    let mut model = Model::new();
    let mut prefixes = vec![model.clone()];
    for (i, batch) in batches.iter().enumerate() {
        store.write_batch(batch);
        for (key, value) in batch.ops() {
            match value {
                Some(v) => model.insert(key.to_string(), v.to_vec()),
                None => model.remove(key),
            };
        }
        assert_eq!(dump_checked(&store, &format!("batch {i}")), model);
        prefixes.push(model.clone());
        if i == 1 {
            assert!(store.checkpoint().expect("checkpoint").performed);
        }
    }
    drop(store);

    let mut images = 0;
    for ev in 0..=disk.journal_len() {
        let mut check = |image: MemDisk, what: &str| {
            let dump = dump_checked(&open(&image), &format!("event {ev} {what}"));
            assert!(
                prefixes.contains(&dump),
                "event {ev} {what}: {dump:?} is no committed prefix"
            );
            images += 1;
        };
        check(disk.crash_image(ev, 0, true), "synced only");
        for cut in 0..disk.event_append_len(ev).unwrap_or(1) {
            check(disk.crash_image(ev, cut, false), "byte cut");
        }
    }
    assert!(images > 100, "sweep too small: {images}");
    // The last image is the whole history.
    let last = disk.crash_image(disk.journal_len(), 0, true);
    assert_eq!(dump_checked(&open(&last), "whole history"), model);
}

/// Cross-shard batches through the router, crashes of both shards, and a
/// reconcile by `from_stores`: a batch is committed exactly when its
/// coordinator's record is durable, an acked batch is whole on every
/// shard, and a participant's own `Decided` echo — which it never forces —
/// is needed by nobody, before, during or after a checkpoint.
#[test]
fn cross_shard_batches_survive_a_crash_and_reconcile_whole() {
    let disks = [MemDisk::new(), MemDisk::new()];
    let router = ShardRouter::from_stores(disks.iter().map(|d| Arc::new(open(d))).collect());
    let key_on = |shard: usize, prefix: &str| {
        (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|k| router.shard_of(k) == shard)
            .expect("some key lands on every shard")
    };
    let lens = || -> Vec<usize> { disks.iter().map(MemDisk::journal_len).collect() };
    let (a, b) = (key_on(0, "a"), key_on(1, "b"));
    let opened = lens();
    router.write_batch(&WriteBatch::new().put(a.as_str(), "1").put(b.as_str(), "1"));
    router.quiesce();
    // Journal lengths with the first batch acked: the aligned crash point.
    let acked = lens();
    router.write_batch(&WriteBatch::new().put(a.as_str(), "2").put(b.as_str(), "2"));
    router.quiesce();
    let whole: Model = router.dump();
    // Both batches acked, the participant's plans over: both its echoes
    // are in memory, and its log has not been written at all.
    let ends = lens();
    assert_eq!(ends[1], opened[1], "the participant writes nothing");
    router.checkpoint_all().expect("checkpoint_all");
    let ckpt = lens();
    drop(router);

    // Pessimistic images, one cut per disk: the dump once the router
    // reconciled, and how many lost echoes it re-applied.
    let reopen = |cuts: &[usize]| {
        let stores: Vec<Arc<KvStore>> = disks
            .iter()
            .zip(cuts)
            .map(|(d, &cut)| Arc::new(open(&d.crash_image(cut, 0, true))))
            .collect();
        let router = ShardRouter::from_stores(stores.clone());
        // Reconciliation went through the stores' commit pipeline.
        for store in &stores {
            dump_checked(store, &format!("cuts {cuts:?}"));
        }
        (router.dump(), router.reapplied_slices())
    };
    let first: Model = [(a.clone(), b"1".to_vec()), (b.clone(), b"1".to_vec())].into();
    assert_eq!(
        reopen(&acked),
        (first.clone(), 1),
        "crash after the first ack"
    );
    assert_eq!(
        reopen(&ends),
        (whole.clone(), 2),
        "crash after the second ack"
    );
    assert_eq!(
        reopen(&ckpt),
        (whole.clone(), 0),
        "crash after the checkpoint"
    );

    // Between the acks, the coordinator's second record decides: the
    // participant's log is empty throughout, and both keys always move
    // together.
    let decided = (acked[0]..=ends[0])
        .find(|&coord| reopen(&[coord, ends[1]]).0 == whole)
        .expect("the second record becomes durable");
    for coord in acked[0]..=ends[0] {
        let want = if coord < decided { &first } else { &whole };
        assert_eq!(
            &reopen(&[coord, ends[1]]).0,
            want,
            "cuts ({coord}, {})",
            ends[1]
        );
    }
    // Flush all, then truncate any: through the whole checkpoint, the
    // participant's slices are in its own log or in the coordinator's.
    for part in ends[1]..=ckpt[1] {
        assert_eq!(
            reopen(&[ends[0], part]).0,
            whole,
            "cuts ({}, {part})",
            ends[0]
        );
    }
    for coord in ends[0]..=ckpt[0] {
        assert_eq!(
            reopen(&[coord, ckpt[1]]).0,
            whole,
            "cuts ({coord}, {})",
            ckpt[1]
        );
    }
}

/// The recovery rules with more than one coordinator. Shard 2 takes two
/// slices of one key: the first from a batch shard 1 coordinates, the
/// second from one shard 0 coordinates — so gid order (shard 0's gids are
/// the smaller) is the opposite of the order shard 2 applied them in. A
/// crash that loses both of shard 2's echoes must bring back the second
/// value: recovery re-applies lost slices in their shard's FIFO order.
/// And at every byte cut of the second coordinator's record before it is
/// durable, no shard shows any of that batch.
#[test]
fn lost_echoes_come_back_in_fifo_order_and_a_torn_record_commits_nothing() {
    const SHARDS: usize = 3;
    let disks: Vec<MemDisk> = (0..SHARDS).map(|_| MemDisk::new()).collect();
    let router = ShardRouter::from_stores(disks.iter().map(|d| Arc::new(open(d))).collect());
    let key = |shard: usize| {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| router.shard_of(k) == shard)
            .expect("some key lands on every shard")
    };
    let k: Vec<String> = (0..SHARDS).map(key).collect();
    let opened = disks[2].journal_len();
    router.write_batch(
        &WriteBatch::new()
            .put(k[1].as_str(), "first")
            .put(k[2].as_str(), "first"),
    );
    router.write_batch(
        &WriteBatch::new()
            .put(k[0].as_str(), "second")
            .put(k[2].as_str(), "second"),
    );
    router.quiesce();
    let whole = router.dump();
    assert_eq!(whole[&k[2]], b"second");
    let images = |lens: &[usize]| -> Vec<MemDisk> {
        disks
            .iter()
            .zip(lens)
            .map(|(d, &len)| d.crash_image(len, 0, true))
            .collect()
    };
    let acked: Vec<usize> = disks.iter().map(MemDisk::journal_len).collect();
    // Shard 0's only write: the zero fill and its record, then the sync.
    let record = (0..acked[0])
        .rev()
        .find(|&ev| disks[0].event_append_len(ev).is_some())
        .expect("shard 0 wrote its record");
    assert_eq!(
        acked[2], opened,
        "both of shard 2's echoes are only in memory"
    );
    drop(router);

    let reopen = |imgs: &[MemDisk]| {
        let router = ShardRouter::from_stores(imgs.iter().map(|d| Arc::new(open(d))).collect());
        (router.dump(), router.reapplied_slices())
    };
    assert_eq!(
        open(&images(&acked)[2]).get(&k[2]),
        None,
        "shard 2's log lost both"
    );
    assert_eq!(
        reopen(&images(&acked)),
        (whole.clone(), 2),
        "re-applied in FIFO order"
    );

    // Shard 0's record is the second batch's commit point. Cut inside its
    // append: the batch is nowhere, the first batch whole.
    let first: Model = [
        (k[1].clone(), b"first".to_vec()),
        (k[2].clone(), b"first".to_vec()),
    ]
    .into();
    let len = disks[0].event_append_len(record).expect("an append");
    // (Reconciliation writes to the disks it opens: fresh images each time.)
    let torn = |events: usize, cut: usize| {
        let mut imgs = images(&acked);
        imgs[0] = disks[0].crash_image(events, cut, false);
        reopen(&imgs)
    };
    for cut in 0..len {
        assert_eq!(torn(record, cut), (first.clone(), 1), "byte {cut} of {len}");
    }
    assert_eq!(torn(record + 1, 0), (whole, 2), "the whole record");
}
