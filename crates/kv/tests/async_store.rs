//! `SyncPolicy::Async`: commit/durability decoupling on the pooled
//! deferred executor.
//!
//! Under `Async` the store's runtime runs deferred WAL appends on a worker
//! pool: `put`/`write_batch` return at commit, and the group-commit leader
//! that pays the fsync is a pool worker. The shard locks are held by the
//! transaction's batch owner from commit until the append completes, so
//! the reader-visible contract is unchanged — a subscribing read never
//! observes an acked-but-volatile write. What changes is who waits:
//! callers that need durability block on a [`DeferHandle`] (or the
//! store-wide [`KvStore::sync`] barrier) instead of inside every write.

#![cfg(not(loom))]

use ad_kv::disk::WAL_BASE;
use ad_kv::{DeferHandle, KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use std::sync::Arc;

fn async_store() -> (KvStore, MemDisk) {
    let mem = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::Async, mem.clone());
    (store, mem)
}

fn put_async(store: &KvStore, key: &str, value: &[u8]) -> Option<DeferHandle<()>> {
    store.write_batch_async(&WriteBatch::new().put(key, value))
}

/// True when every byte appended to the WAL is inside its synced prefix.
fn all_synced(mem: &MemDisk) -> bool {
    mem.synced(WAL_BASE) == mem.written(WAL_BASE)
}

#[test]
fn handle_wait_means_durable() {
    let (store, mem) = async_store();
    let handle = put_async(&store, "k", b"v").expect("durable store");
    handle.wait(store.runtime());
    assert!(handle.is_done());
    // Durability, not just buffering: the record is inside the synced
    // prefix by the time the handle completes.
    assert!(!mem.synced(WAL_BASE).is_empty());
    assert!(all_synced(&mem));
    assert_eq!(store.wal_stats().unwrap().records, 1);
}

#[test]
fn reads_never_observe_acked_but_volatile_state() {
    // `get` subscribes to the key's shard, whose lock the deferred append
    // holds until the fsync lands — so a successful read implies the
    // write it saw is durable.
    let (store, mem) = async_store();
    store.put("k", b"v");
    assert_eq!(store.get("k").as_deref(), Some(&b"v"[..]));
    let stats = store.wal_stats().unwrap();
    assert_eq!(stats.records, 1, "read completed before durability");
    assert!(!mem.synced(WAL_BASE).is_empty());
}

#[test]
fn sync_is_a_durability_barrier() {
    let (store, mem) = async_store();
    for i in 0..20 {
        store.put(&format!("k{i}"), b"v");
    }
    store.sync();
    let stats = store.wal_stats().unwrap();
    assert_eq!(stats.records, 20);
    assert!(all_synced(&mem));
}

#[test]
fn batch_handle_tracks_the_whole_batch() {
    let (store, mem) = async_store();
    let handle = store
        .write_batch_async(&WriteBatch::new().put("a", b"1").put("b", b"2").delete("a"))
        .expect("durable store");
    handle.wait(store.runtime());
    assert_eq!(store.wal_stats().unwrap().records, 1, "one redo record");
    assert!(!mem.synced(WAL_BASE).is_empty());
    assert_eq!(store.get("b").as_deref(), Some(&b"2"[..]));
    assert_eq!(store.get("a"), None);
}

#[test]
fn fanout_of_async_puts_resolves_via_one_wait_all() {
    // A burst of independent async puts yields N handles; one `wait_all`
    // call is the durability barrier for the whole fan-out.
    let (store, mem) = async_store();
    let handles: Vec<_> = (0..10)
        .map(|i| put_async(&store, &format!("k{i}"), b"v").expect("durable store"))
        .collect();
    let results = ad_defer::DeferHandle::wait_all(store.runtime(), &handles);
    assert_eq!(results.len(), 10);
    assert!(handles.iter().all(|h| h.is_done()));
    assert_eq!(store.wal_stats().unwrap().records, 10);
    // Durability, not just buffering: every appended byte is synced.
    assert!(all_synced(&mem));
}

#[test]
fn empty_or_volatile_writes_have_no_handle() {
    let (store, _) = async_store();
    assert!(store.write_batch_async(&WriteBatch::new()).is_none());
    let volatile = KvStore::open(KvConfig::volatile()).unwrap();
    assert!(put_async(&volatile, "k", b"v").is_none());
    assert_eq!(volatile.get("k").as_deref(), Some(&b"v"[..]));
    volatile.sync(); // no-op, must not block
}

#[test]
fn concurrent_async_writers_coalesce_fsyncs() {
    // Worker-led group commit still coalesces: a slow sync makes appends
    // pile up behind the in-flight leader.
    let (store, mem) = async_store();
    mem.set_sync_delay(std::time::Duration::from_millis(2));
    let store = Arc::new(store);
    std::thread::scope(|s| {
        for t in 0..8 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..10 {
                    store.put(&format!("t{t}k{i}"), b"v");
                }
            });
        }
    });
    store.sync();
    let stats = store.wal_stats().unwrap();
    assert_eq!(stats.records, 80);
    assert!(
        stats.batches < stats.records,
        "no coalescing: {} batches for {} records",
        stats.batches,
        stats.records
    );
    assert!(all_synced(&mem));
}

#[test]
fn reopen_after_sync_recovers_everything() {
    let (store, mem) = async_store();
    store.put("a", b"1");
    store.write_batch(&WriteBatch::new().put("b", b"2").put("c", b"3"));
    store.delete("a");
    store.sync();
    let before = store.dump();
    drop(store);

    let (reopened, report) = KvStore::open_on_disk(
        &KvConfig::default(),
        SyncPolicy::Async,
        mem.crash_image(mem.journal_len(), 0, true),
    );
    assert_eq!(report.records, 3);
    assert!(!report.torn());
    assert_eq!(reopened.dump(), before);
}

#[test]
fn commit_latency_does_not_include_fsync() {
    // The headline behavior: with a slow disk, the async ack is fast and
    // the handle wait absorbs the fsync time.
    let (store, mem) = async_store();
    mem.set_sync_delay(std::time::Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    let handle = put_async(&store, "k", b"v").unwrap();
    let ack = t0.elapsed();
    handle.wait(store.runtime());
    let durable = t0.elapsed();
    assert!(
        ack < std::time::Duration::from_millis(25),
        "async ack should not pay the 50ms fsync (took {ack:?})"
    );
    assert!(durable >= std::time::Duration::from_millis(50));
}
