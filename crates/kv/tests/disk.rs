//! `Disk` conformance: the one set of crash-critical protocols — append,
//! rotation (and re-rotation at the same cut), snapshot publish, dropping
//! rotated segments, reopen — driven by one script against the real
//! directory ([`FileDisk`]) and the in-memory one ([`MemDisk`]) must leave
//! the same logical files with the same bytes. Plus a pin of the on-disk
//! layout: the real directory holds exactly the documented file names.

use std::collections::BTreeMap;
use std::sync::Arc;

use ad_kv::checkpoint::{encode_snapshot, publish_snapshot};
use ad_kv::{CkptPolicy, Disk, FileDisk, KvConfig, KvStore, MemDisk, SyncPolicy, Wal, WriteBatch};
use ad_stm::{Runtime, TmConfig};

type Listing = BTreeMap<String, Vec<u8>>;

fn listing(disk: &dyn Disk) -> Listing {
    let names = disk.list().unwrap();
    names
        .into_iter()
        .map(|n| {
            let bytes = disk.read(&n).unwrap().expect("listed file reads");
            (n, bytes)
        })
        .collect()
}

/// The scripted sequence at the WAL/snapshot level, with a listing taken
/// after every stage.
fn wal_script(disk: Arc<dyn Disk>) -> Vec<(&'static str, Listing)> {
    let rt = Runtime::new(TmConfig::stm());
    let mut stages = Vec::new();
    let mut stage = |name, disk: &dyn Disk| stages.push((name, listing(disk)));
    let publish = |cut: u64| {
        // A checkpoint's publish step, minus the fold of the closed prefix.
        let key: Arc<str> = Arc::from("k");
        let value: Arc<[u8]> = Arc::from(&cut.to_le_bytes()[..]);
        publish_snapshot(&*disk, &encode_snapshot(cut, [(&key, &value)])).unwrap();
    };

    let wal = Wal::new(Arc::clone(&disk), 1).unwrap();
    wal.append_durable(b"one", &rt);
    wal.append_durable(b"two", &rt);
    stage("append+sync", &*disk);

    assert_eq!(wal.rotate(&rt).unwrap(), 2);
    stage("rotate", &*disk);
    assert_eq!(wal.rotate(&rt).unwrap(), 2);
    stage("re-rotate at the same cut", &*disk);

    publish(2);
    stage("first publish", &*disk);
    assert!(wal.drop_rotated().unwrap() > 0);
    stage("drop_rotated", &*disk);

    wal.append_durable(b"three", &rt);
    assert_eq!(wal.rotate(&rt).unwrap(), 3);
    publish(3);
    stage("second publish (cur -> prev)", &*disk);
    wal.drop_rotated().unwrap();
    wal.append_durable(b"four", &rt);
    stage("end", &*disk);
    stages
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ad-kv-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_and_mem_disks_agree_on_every_stage_of_the_script() {
    let dir = temp_dir("script");
    let on_file = wal_script(Arc::new(FileDisk::new(dir.join("store.wal"))));
    let on_mem = wal_script(Arc::new(MemDisk::new()));
    assert_eq!(on_file.len(), on_mem.len());
    for ((stage, file), (_, mem)) in on_file.iter().zip(&on_mem) {
        assert_eq!(file, mem, "listings diverge after `{stage}`");
    }
    let last = &on_mem.last().unwrap().1;
    let names: Vec<&str> = last.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        [
            "snapshot.cur",
            "snapshot.prev",
            "wal.seg00000000000000000004"
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same history through the whole store, then a reopen, on both disks:
/// identical logical listings, identical recovered state — and the real
/// directory holds exactly the documented names.
#[test]
fn store_layout_is_pinned_and_identical_on_both_disks() {
    let history = |store: &KvStore| {
        store.put("a", b"1");
        store.write_batch(&WriteBatch::new().put("b", b"2").delete("a"));
        assert!(store.checkpoint().unwrap().performed);
        store.put("c", b"3");
        assert!(store.checkpoint().unwrap().performed);
        store.put("d", b"4");
    };
    let dir = temp_dir("layout");
    let path = dir.join("store.wal");
    let cfg = KvConfig::durable(&path, SyncPolicy::GroupCommit).with_ckpt(CkptPolicy::Manual);

    let store = KvStore::open(cfg.clone()).unwrap();
    history(&store);
    let file_dump = store.dump();
    drop(store);
    let mem = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, mem.clone());
    history(&store);
    assert_eq!(store.dump(), file_dump);
    drop(store);

    let file = FileDisk::new(&path);
    assert_eq!(listing(&file), listing(&mem));
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk,
        [
            "store.wal.ckpt.cur",
            "store.wal.ckpt.prev",
            "store.wal.seg00000000000000000004",
        ]
    );

    // Reopen both: same recovery, same state, same files afterwards.
    let reopened = KvStore::open(cfg.clone()).unwrap();
    let (re_mem, mem_report) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, mem.clone());
    assert_eq!(reopened.recovery_report(), Some(&mem_report));
    assert_eq!(mem_report.snapshot_cut, 3);
    assert_eq!(mem_report.replayed, 1);
    assert_eq!(reopened.dump(), file_dump);
    assert_eq!(re_mem.dump(), file_dump);
    drop((reopened, re_mem));
    assert_eq!(listing(&file), listing(&mem));

    // A fresh store starts on the base name itself, with a stale tmp
    // swept and nothing else created.
    let fresh = dir.join("fresh.wal");
    std::fs::write(dir.join("fresh.wal.ckpt.tmp"), b"half a snapshot").unwrap();
    let store = KvStore::open(KvConfig::durable(&fresh, SyncPolicy::GroupCommit)).unwrap();
    store.put("k", b"v");
    drop(store);
    assert_eq!(FileDisk::new(&fresh).list().unwrap(), ["wal"]);
    assert!(fresh.exists() && !dir.join("fresh.wal.ckpt.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
