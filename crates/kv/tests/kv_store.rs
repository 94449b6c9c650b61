//! Concurrent store semantics: batch atomicity across shards, the
//! ack-implies-durable contract under load, and group-commit coalescing
//! through the full `atomic_defer` path (not just the WAL in isolation).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use ad_support::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The image a crash leaves when every unsynced byte is lost.
fn synced_image(disk: &MemDisk) -> MemDisk {
    disk.crash_image(disk.journal_len(), 0, true)
}

/// Observers must never see half of a cross-shard batch. The writer keeps
/// two keys equal (they hash to different shards with overwhelming
/// probability across 64 names); `get_many` reads both in one transaction.
/// The writer awaits its own progress: it stops once it has written 200
/// batches *and* every observer has checked 100 pairs beside them.
#[test]
fn cross_shard_batches_are_atomic_to_readers() {
    const BATCHES: u32 = 200;
    const PAIRS: u64 = 100;
    let store = Arc::new(KvStore::open(KvConfig::volatile()).unwrap());
    store.write_batch(&WriteBatch::new().put("left", "0").put("right", "0"));
    let stop = Arc::new(AtomicBool::new(false));

    let observers: Vec<_> = (0..3)
        .map(|_| {
            let checked = Arc::new(AtomicU64::new(0));
            let (store, stop, seen) = (Arc::clone(&store), Arc::clone(&stop), checked.clone());
            let thread = std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let pair = store.get_many(&["left", "right"]);
                    assert_eq!(pair[0], pair[1], "torn batch observed");
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            });
            (thread, checked)
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut written = 0u32;
    // An observer that died is not waited for: the join below reports it.
    let lagging = || {
        observers.iter().any(|(thread, checked)| {
            !thread.is_finished() && checked.load(Ordering::Relaxed) < PAIRS
        })
    };
    while written < BATCHES || lagging() {
        assert!(
            Instant::now() < deadline,
            "after {written} batches some observer has not checked {PAIRS} pairs"
        );
        written += 1;
        let v = written.to_string();
        store.write_batch(&WriteBatch::new().put("left", v.clone()).put("right", v));
    }
    stop.store(true, Ordering::Relaxed);
    for (thread, _) in observers {
        thread.join().expect("an observer saw a torn batch");
    }
    assert_eq!(
        store.get("left").as_deref(),
        Some(written.to_string().as_bytes())
    );
}

/// Hammer a durable store from 8 threads; every acked write must be in
/// the synced image, and recovery from that image reproduces the final
/// state exactly. Traced, so the contention report can say whether the
/// default shard count spread the writers' conflicts.
#[test]
fn concurrent_durable_writes_all_survive_recovery() {
    let cfg = KvConfig::default();
    let mem = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, mem.clone());
    store.runtime().set_tracing(true);
    let store = Arc::new(store);

    let threads = 8;
    let per = 25u32;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..per {
                    store.put(&format!("t{t}-k{i:03}"), format!("v{t}-{i}").as_bytes());
                }
            });
        }
    });

    let live = store.dump();
    assert_eq!(live.len(), (threads * per) as usize);
    // A handful of validation failures carries no signal (one failure is
    // always 100% of itself): judge the share once there are enough.
    let contention = store.runtime().take_trace().contention_report(8);
    assert!(
        contention.total_fails < 20 || contention.top_share() < 0.9,
        "one TVar absorbs most validation failures — shard count too low?\n{contention}"
    );

    let (recovered, report) =
        KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, synced_image(&mem));
    assert!(!report.torn(), "synced image must be a clean log");
    assert_eq!(report.records, u64::from(threads * per));
    assert_eq!(recovered.dump(), live);
}

/// Group commit coalesces through the whole stack: concurrent committers'
/// deferred appends share fsyncs (batches < records), and the observability
/// counters agree with the disk.
#[test]
fn group_commit_coalesces_through_the_store() {
    let mem = MemDisk::new();
    mem.set_sync_delay(std::time::Duration::from_millis(1));
    let cfg = KvConfig::default();
    let (store, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, mem.clone());
    let store = Arc::new(store);
    std::thread::scope(|s| {
        for t in 0..8 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..10 {
                    store.put(&format!("t{t}-{i}"), b"x");
                }
            });
        }
    });
    let stats = store.wal_stats().unwrap();
    assert_eq!(stats.records, 80);
    assert!(
        stats.batches < stats.records,
        "no coalescing through the store: {} batches / {} records",
        stats.batches,
        stats.records
    );
    assert_eq!(mem.sync_count(), stats.batches);
    assert!(stats.coalescing() > 1.0);
}

/// One writer under group commit: every write is durable when it returns
/// (one fsync each), and the synced image recovers the live state.
#[test]
fn a_lone_writer_pays_one_fsync_per_write_and_recovers_live_state() {
    let cfg = KvConfig::default();
    let mem = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, mem.clone());
    for i in 0..30u32 {
        match i % 3 {
            0 => store.put(&format!("k{}", i % 10), &i.to_le_bytes()),
            1 => store.write_batch(
                &WriteBatch::new()
                    .put(format!("k{}", i % 10), "batched")
                    .put(format!("extra{i}"), "e"),
            ),
            _ => store.delete(&format!("extra{}", i - 1)),
        }
    }
    let live = store.dump();
    let (rec, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, synced_image(&mem));
    assert_eq!(rec.dump(), live);
    // Single-threaded, group commit has nothing to coalesce: each write
    // is its own batch and pays its own fsync before it returns.
    assert_eq!(mem.sync_count(), 30);
}

/// Volatile stores never touch a WAL but keep full transactional
/// semantics.
#[test]
fn volatile_store_has_no_wal() {
    let store = KvStore::open(KvConfig::volatile()).unwrap();
    store.put("k", b"v");
    assert!(store.wal_stats().is_none());
    assert!(store.recovery_report().is_none());
}

/// Shard-count override plumbs through and still distributes keys.
#[test]
fn shard_override_distributes_keys() {
    let store = KvStore::open(KvConfig {
        shards: 4,
        buckets_per_shard: 8,
        ..KvConfig::volatile()
    })
    .unwrap();
    assert_eq!(store.shard_count(), 4);
    for i in 0..100 {
        store.put(&format!("key-{i}"), b"v");
    }
    assert_eq!(store.len(), 100);
    assert_eq!(store.scan_from("key-9", 100).len(), 11); // key-9, key-90..99
}
