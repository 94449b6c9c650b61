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
/// reconcile by `from_stores`: acked batches are whole on every shard, a
/// slice staged without any durable decision is dropped everywhere, and a
/// participant's own `Decided` — which it never forces — is needed by
/// nobody, before, during or after a checkpoint.
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
    router.write_batch(&WriteBatch::new().put(a.as_str(), "1").put(b.as_str(), "1"));
    // Journal lengths with the first batch acked: the aligned crash point.
    let acked = lens();
    router.write_batch(&WriteBatch::new().put(a.as_str(), "2").put(b.as_str(), "2"));
    router.quiesce();
    let whole: Model = router.dump();
    // Both batches acked, the participant's plan over: its second `Decided`
    // is in memory, and the first went to disk inside the second
    // `Prepare`'s write.
    let ends = lens();
    router.checkpoint_all().expect("checkpoint_all");
    let ckpt = lens();
    drop(router);

    // Pessimistic images, one cut per disk: the slices the participant's
    // log stages without a decision of its own, and the dump once the
    // router reconciled.
    let reopen = |cuts: &[usize]| {
        let stores: Vec<Arc<KvStore>> = disks
            .iter()
            .zip(cuts)
            .map(|(d, &cut)| Arc::new(open(&d.crash_image(cut, 0, true))))
            .collect();
        let pending = stores[1].pending_prepared_gids();
        let reported = stores[1]
            .recovery_report()
            .expect("durable")
            .pending_prepares;
        assert_eq!(pending.len() as u64, reported, "cuts {cuts:?}");
        let router = ShardRouter::from_stores(stores.clone());
        // Reconciliation went through the stores' commit pipeline.
        for store in &stores {
            dump_checked(store, &format!("cuts {cuts:?}"));
        }
        (router.dump(), pending)
    };
    let first: Model = [(a.clone(), b"1".to_vec()), (b.clone(), b"1".to_vec())].into();
    let (dump, gid1) = reopen(&acked);
    assert_eq!(
        (dump, gid1.len()),
        (first.clone(), 1),
        "crash after the first ack"
    );
    let (dump, gid2) = reopen(&ends);
    assert_eq!(
        (dump, gid2.len()),
        (whole.clone(), 1),
        "crash after the second ack"
    );
    assert_ne!(
        gid1, gid2,
        "the first batch's decided record rode the second prepare"
    );
    assert_eq!(
        reopen(&ckpt),
        (whole.clone(), vec![]),
        "crash after the checkpoint"
    );

    // The coordinator logs its decision only after the participant staged
    // durably. So the crash states that can occur are: coordinator without
    // the decision and participant anywhere up to staged — presumed abort —
    // or coordinator with it and participant at least staged — the batch
    // on both shards. The participant's own decided record is in neither
    // description: no cut needs it. Both keys always move together.
    let staged = (acked[1]..=ends[1])
        .find(|&part| reopen(&[acked[0], part]).1 == gid2)
        .expect("the second prepare becomes durable");
    for part in acked[1]..=ends[1] {
        assert_eq!(
            reopen(&[acked[0], part]).0,
            first,
            "undecided, cuts ({}, {part})",
            acked[0]
        );
    }
    // ... on through the participant's flush and its whole checkpoint,
    // while the coordinator still holds the decision in its log.
    for part in staged..=ckpt[1] {
        assert_eq!(
            reopen(&[ends[0], part]).0,
            whole,
            "decided, cuts ({}, {part})",
            ends[0]
        );
    }
}
