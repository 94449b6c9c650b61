//! The two numbers atomic deferral costs, on a store: a durable write
//! whose fsync is held for a known time holds its shard lock at least
//! that long (`txlock_hold_ns`), and N readers of its key spend about N
//! times that blocked on it (`txlock_blocked_ns`), both in the store-shard
//! class. A binary of its own: the classes are process-wide, and no other
//! test may add samples while this one measures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, SHARD_LOCKS};

const HOLD: Duration = Duration::from_millis(200);
const READERS: u64 = 3;

#[test]
fn a_held_fsync_is_a_shard_lock_hold_and_its_readers_block_for_it() {
    let disk = MemDisk::new();
    let store = Arc::new(
        KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone()).0,
    );
    store.put("k", b"0");
    let (hold0, blocked0) = (SHARD_LOCKS.hold(), SHARD_LOCKS.blocked());

    disk.hold_syncs();
    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || store.put("k", b"1"))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while disk.syncs_waiting() == 0 {
        assert!(
            Instant::now() < deadline,
            "the write never reached its fsync"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.get("k"))
        })
        .collect();
    std::thread::sleep(HOLD);
    disk.release_syncs();
    writer.join().unwrap();
    for r in readers {
        assert_eq!(r.join().unwrap().as_deref(), Some(&b"1"[..]));
    }

    let hold = SHARD_LOCKS.hold().delta_since(&hold0);
    let blocked = SHARD_LOCKS.blocked().delta_since(&blocked0);
    let ms = |ns: u64| ns as f64 / 1e6;
    assert_eq!(hold.count(), 1, "one write, one shard lock");
    assert!(
        ms(hold.sum()) >= ms(HOLD.as_nanos() as u64),
        "hold {} ms",
        ms(hold.sum())
    );
    assert!(blocked.count() >= READERS, "{} waits", blocked.count());
    // Each reader blocks from its first read to the release: about the
    // held time, and within the hold.
    let per_reader = ms(blocked.sum()) / READERS as f64;
    assert!(
        per_reader >= 0.8 * ms(HOLD.as_nanos() as u64) && per_reader <= ms(hold.sum()) + 50.0,
        "blocked {per_reader} ms a reader behind a {} ms hold",
        ms(hold.sum())
    );
    let json = store.stats_json();
    assert!(json.contains("\"txlocks\":{"), "{json}");
    assert!(
        json.contains("\"store_shard\":{\"txlock_hold_ns\":"),
        "{json}"
    );
}
