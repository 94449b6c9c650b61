//! Tier-1 coverage of the WAL's zero fill on a real directory: the log
//! writes each batch into zeros it reserved ahead of its last record, a
//! chunk at a time, and a reopen takes the zeros after the last record as
//! the log's clean end. Many small batches cross several chunks, one batch
//! is larger than a chunk; then a clean reopen, a crash image copied while
//! the store was live, and a second opening of the store appending into
//! the zeros the first one left.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ad_kv::recover::{scan, ScanEnd};
use ad_kv::wal::PREALLOC_CHUNK;
use ad_kv::{CkptPolicy, KvConfig, KvStore, SyncPolicy, WriteBatch};

type Model = BTreeMap<String, Vec<u8>>;

const VALUE_LEN: usize = 1000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ad-wal-prealloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(path: &Path) -> KvConfig {
    KvConfig::durable(path, SyncPolicy::GroupCommit).with_ckpt(CkptPolicy::Manual)
}

fn value(i: usize) -> Vec<u8> {
    let mut v = vec![b'v'; VALUE_LEN];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// `n` one-key puts of keys `from..from + n`, each its own durable batch.
fn put_each(store: &KvStore, model: &mut Model, from: usize, n: usize) {
    for i in from..from + n {
        let key = format!("k{i:05}");
        store.put(&key, &value(i));
        model.insert(key, value(i));
    }
}

/// The `"extends"` count of the store's WAL, from `stats_json()`.
fn extends(store: &KvStore) -> u64 {
    let (json, key) = (store.stats_json(), "\"extends\":");
    let at = json.find(key).expect("stats_json has wal.extends") + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn the_wal_writes_into_its_zero_fill_and_reopens_at_its_last_record() {
    let dir = temp_dir("reopen");
    let path = dir.join("store.wal");
    let mut model = Model::new();

    // First opening: small batches across at least three chunks, and one
    // batch larger than a chunk in the middle.
    let store = KvStore::open(config(&path)).unwrap();
    let per_chunk = PREALLOC_CHUNK / VALUE_LEN;
    put_each(&store, &mut model, 0, 2 * per_chunk);
    let big = (0..per_chunk + 8).fold(WriteBatch::new(), |b, i| {
        let key = format!("big{i:05}");
        model.insert(key.clone(), value(i));
        b.put(key, value(i))
    });
    store.write_batch(&big);
    put_each(&store, &mut model, 2 * per_chunk, per_chunk + 8);
    let records = (3 * per_chunk + 8 + 1) as u64;

    let wal = store.wal_stats().unwrap();
    assert_eq!(wal.records, records);
    assert!(
        wal.bytes > 3 * PREALLOC_CHUNK as u64,
        "{} record bytes cross fewer than three chunks",
        wal.bytes
    );
    // About one extending batch per chunk: the small batches zero-fill a
    // chunk when they reach the end, the big one grows the file itself.
    let chunks = wal.bytes / PREALLOC_CHUNK as u64;
    let grew = extends(&store);
    assert!(
        (chunks..=chunks + 2).contains(&grew),
        "{grew} extending batches for {} bytes of records",
        wal.bytes
    );

    // A byte copy of the live segment is a crash image: the records, then
    // the zero fill ahead of them.
    let image = std::fs::read(&path).unwrap();
    assert!(image.len() as u64 > wal.bytes, "no zero tail");
    assert!(image[wal.bytes as usize..].iter().all(|&b| b == 0));
    let crash = dir.join("crash.wal");
    std::fs::write(&crash, &image).unwrap();
    drop(store);

    // Clean reopen: every acked record, a clean end, nothing torn.
    let store = KvStore::open(config(&path)).unwrap();
    let report = store.recovery_report().unwrap().clone();
    assert_eq!(report.end, ScanEnd::Clean);
    assert!(!report.torn());
    assert_eq!((report.records, report.valid_bytes), (records, wal.bytes));
    assert_eq!(store.dump(), model);

    // The crash image recovers the same records.
    let crashed = KvStore::open(config(&crash)).unwrap();
    let crash_report = crashed.recovery_report().unwrap().clone();
    assert_eq!(crash_report, report);
    assert_eq!(crashed.dump(), model);
    drop(crashed);

    // The second opening appends right after the last record, into the
    // zeros.
    put_each(&store, &mut model, 10_000, per_chunk);
    let appended = store.wal_stats().unwrap().bytes;
    drop(store);

    let store = KvStore::open(config(&path)).unwrap();
    let report = store.recovery_report().unwrap().clone();
    let total = records + per_chunk as u64;
    assert_eq!((report.end, report.torn()), (ScanEnd::Clean, false));
    assert_eq!(report.records, total);
    assert_eq!(report.valid_bytes, wal.bytes + appended);
    assert_eq!(store.dump(), model);
    drop(store);

    // One contiguous seq chain with no zeros between records: the raw
    // file scans to every record, then only zeros.
    let bytes = std::fs::read(&path).unwrap();
    let (recs, rep) = scan(&bytes, 1);
    assert!(recs.iter().map(|r| r.seq).eq(1..=total));
    assert_eq!(rep.end, ScanEnd::Clean);
    assert_eq!(rep.valid_bytes, wal.bytes + appended);
    assert!(bytes[rep.valid_bytes as usize..].iter().all(|&b| b == 0));
    let _ = std::fs::remove_dir_all(&dir);
}
