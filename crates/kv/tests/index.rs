//! The ordered key index behind `scan_from` and `len`, through the public
//! API only: a seeded model test against a `BTreeMap` — across leaf splits,
//! emptied leaves, repeated keys inside one batch and both recovery paths
//! (replay from an empty store; bulk-load of a checkpoint plus replay of
//! the suffix) — and a stress test of scans beside structural writes.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use ad_support::prng::Rng;

type Model = BTreeMap<String, Vec<u8>>;

/// Keys the model test draws from: several leaves' worth.
const KEYS: usize = 600;

fn key(i: usize) -> String {
    format!("k{i:04}")
}

fn open(disk: &MemDisk) -> KvStore {
    KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone()).0
}

fn apply(model: &mut Model, batch: &WriteBatch) {
    for (key, value) in batch.ops() {
        match value {
            Some(v) => model.insert(key.to_string(), v.to_vec()),
            None => model.remove(key),
        };
    }
}

/// `scan_from` and `len` agree with the model: from the front, from a key
/// that exists, from between keys, from past the end; no row, one row, a
/// few, all.
fn check(store: &KvStore, model: &Model, rng: &mut Rng, what: &str) {
    assert_eq!(store.len(), model.len(), "{what}: len");
    let some_key = key(rng.random_range(0..KEYS));
    let starts = ["", "k", "k0300", "k0300x", &some_key, "k9999", "zzz"];
    for start in starts {
        for limit in [0, 1, 7, usize::MAX] {
            let got: Vec<(String, Vec<u8>)> = store
                .scan_from(start, limit)
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect();
            let want: Vec<(String, Vec<u8>)> = model
                .range::<str, _>((Bound::Included(start), Bound::Unbounded))
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, want, "{what}: scan_from({start:?}, {limit})");
        }
    }
}

/// A seeded history of batches; after each one the store must equal the
/// model. Returns the disk and the final model.
fn history(seed: u64, ckpt_after: Option<usize>) -> (MemDisk, Model) {
    let mut rng = Rng::seed_from_u64(seed);
    let disk = MemDisk::new();
    let store = open(&disk);
    let mut model = Model::new();
    let mut stamp = 0u32;
    let mut value = || {
        stamp += 1;
        stamp.to_le_bytes().to_vec()
    };
    check(&store, &model, &mut rng, "empty store");
    for round in 0..160 {
        let mut batch = WriteBatch::new();
        match round {
            // Enough fresh keys in one batch to split one leaf into many.
            10 => {
                for i in 0..200 {
                    batch = batch.put(key(3 * i), value());
                }
            }
            // Deletes that empty whole leaves in the middle of the range.
            60 => {
                for i in 100..350 {
                    batch = batch.delete(key(i));
                }
            }
            _ => {
                for _ in 0..rng.random_range(1..12) {
                    let k = key(rng.random_range(0..KEYS));
                    batch = match rng.random_range(0..10) {
                        0..=5 => batch.put(k, value()),
                        6..=7 => batch.delete(k),
                        // The same key twice in one batch, both orders,
                        // whether or not the key existed before.
                        8 => batch.put(k.clone(), value()).delete(k),
                        _ => batch.delete(k.clone()).put(k, value()),
                    };
                }
            }
        }
        store.write_batch(&batch);
        apply(&mut model, &batch);
        check(
            &store,
            &model,
            &mut rng,
            &format!("seed {seed} round {round}"),
        );
        if ckpt_after == Some(round) {
            assert!(store.checkpoint().expect("checkpoint").performed);
        }
    }
    assert_eq!(store.dump(), model);
    (disk, model)
}

#[test]
fn scans_and_len_follow_a_btreemap_model_and_survive_both_recoveries() {
    for (seed, ckpt_after) in [(1, None), (2, Some(80)), (3, Some(20))] {
        let (disk, model) = history(seed, ckpt_after);
        let mut rng = Rng::seed_from_u64(seed);
        let image = disk.crash_image(disk.journal_len(), 0, true);
        let reopened = open(&image);
        let report = reopened.recovery_report().expect("durable open");
        assert_eq!(report.snapshot_cut > 0, ckpt_after.is_some());
        assert!(report.replayed > 0, "a WAL suffix replays over the base");
        check(
            &reopened,
            &model,
            &mut rng,
            &format!("seed {seed} reopened"),
        );
        assert_eq!(reopened.dump(), model);
        // And the rebuilt index keeps following writes.
        let batch = WriteBatch::new().put("k0000a", "new").delete(key(599));
        reopened.write_batch(&batch);
        let mut model = model;
        apply(&mut model, &batch);
        check(&reopened, &model, &mut rng, &format!("seed {seed} written"));
    }
}

/// Two writers insert and delete adjacent key pairs, each pair in a single
/// batch, while two scanners run: every scan is strictly sorted (so free
/// of duplicates) and shows each pair whole, with one stamp, or not at
/// all; at the end the index lists exactly the keys the buckets hold.
#[test]
fn scans_beside_structural_writes_see_whole_pairs_in_order() {
    const PAIRS: usize = 1000;
    let rounds = if cfg!(debug_assertions) { 400 } else { 6000 };
    let pair = |p: usize| (format!("p{p:04}a"), format!("p{p:04}b"));
    let mem = MemDisk::new();
    let stores = [
        KvStore::open(KvConfig::volatile()).expect("volatile store"),
        // Durable: a writer's shard locks stay held past its commit,
        // through its deferred append.
        KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, mem).0,
    ];
    for store in &stores {
        let done = AtomicBool::new(false);
        let (present, scans) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(w as u64);
                        let mut present = vec![false; PAIRS];
                        for round in 0..rounds {
                            // Writer `w` owns the pairs `p % 2 == w`.
                            let p = 2 * rng.random_range(0..PAIRS / 2) + w;
                            let (a, b) = pair(p);
                            // Mostly inserts at first, so leaves split
                            // while the scanners run.
                            let insert = !present[p] && rng.random_range(0..4) != 0;
                            let stamp = (round as u32).to_le_bytes();
                            store.write_batch(&if insert {
                                WriteBatch::new().put(a, stamp).put(b, stamp)
                            } else {
                                WriteBatch::new().delete(b).delete(a)
                            });
                            present[p] = insert;
                        }
                        present
                    })
                })
                .collect();
            let scanners: Vec<_> = (0..2)
                .map(|t| {
                    let done = &done;
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(100 + t);
                        let mut scans = 0usize;
                        while !done.load(Ordering::SeqCst) || scans == 0 {
                            let start = pair(rng.random_range(0..PAIRS)).0;
                            let limit = [9, 10, usize::MAX][rng.random_range(0..3)];
                            let rows = store.scan_from(&start, limit);
                            assert!(rows.len() <= limit);
                            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
                            assert!(rows.iter().all(|(k, _)| **k >= *start));
                            for (i, (k, v)) in rows.iter().enumerate() {
                                // An `a` row is followed by its `b` row
                                // (unless the limit cut the scan there), a
                                // `b` row follows its `a` row, same stamp.
                                let other = match k.strip_suffix('a') {
                                    Some(_) if i + 1 == limit => continue,
                                    Some(p) => (rows.get(i + 1), format!("{p}b")),
                                    None => (
                                        i.checked_sub(1).and_then(|j| rows.get(j)),
                                        format!("{}a", k.strip_suffix('b').expect("a or b")),
                                    ),
                                };
                                match other {
                                    (Some((ok, ov)), want) if **ok == *want => assert_eq!(ov, v),
                                    _ => panic!("scan from {start} shows {k} without its twin"),
                                }
                            }
                            scans += 1;
                        }
                        scans
                    })
                })
                .collect();
            let present: Vec<Vec<bool>> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            done.store(true, Ordering::SeqCst);
            let scans: Vec<usize> = scanners.into_iter().map(|s| s.join().unwrap()).collect();
            (present, scans)
        });
        assert!(scans.iter().all(|&n| n > 0));
        store.sync();

        let indexed: Vec<String> = store
            .scan_from("", usize::MAX)
            .iter()
            .map(|(k, _)| k.to_string())
            .collect();
        let held: Vec<String> = store.dump().into_keys().collect();
        assert_eq!(indexed, held, "index == buckets");
        let want: Vec<String> = (0..PAIRS)
            .filter(|&p| present[p % 2][p])
            .flat_map(|p| [pair(p).0, pair(p).1])
            .collect();
        assert_eq!(held, want, "buckets == what the writers left");
        assert_eq!(store.len(), want.len());
    }
}
