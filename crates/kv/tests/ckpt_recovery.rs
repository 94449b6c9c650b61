//! Byte-level crash matrix across checkpoint boundaries.
//!
//! A scripted history of batches and checkpoints runs on a [`MemDisk`],
//! which journals every durability-relevant disk operation (appends,
//! syncs, creates, renames, deletes). The matrix then rebuilds the disk
//! as of **every** journal prefix — including byte-level cuts inside
//! each append, and pessimistic images where unsynced bytes are lost —
//! reopens each image with full two-tier recovery, and asserts the
//! recovered state is exactly some committed prefix of the history:
//! no lost acked write is tolerated silently (membership in the model
//! set), no torn multi-key batch, no resurrected delete.
//!
//! The interesting windows this enumerates:
//!
//! - crash after `Wal::rotate` but before the snapshot publish — the
//!   new segment exists, the snapshot doesn't; recovery chains the
//!   segments and replays everything;
//! - crash mid-snapshot-write — a partial `snapshot.tmp` exists;
//!   recovery ignores and deletes it;
//! - **crash between the snapshot rename and the WAL truncate** — the
//!   published snapshot *and* the covered segments coexist; recovery
//!   must skip covered records (`seq <= cut`) idempotently rather than
//!   replay them on top of the snapshot;
//! - crash after the truncate — the snapshot plus the suffix segment.
//!
//! Every recovered image is additionally exercised forward: an immediate
//! checkpoint (which, on the crash-after-rotate images, re-rotates at
//! the same cut and must reuse the already-active empty segment rather
//! than rotate into it and delete it), a write, and a second reopen that
//! must preserve both the recovered prefix and the new write.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ad_kv::checkpoint::decode_snapshot;
use ad_kv::disk::{segment_name, SNAP_CUR, SNAP_PREV};
use ad_kv::{
    CkptPolicy, CommitStep, Disk, KvConfig, KvStore, MemDisk, RedoKind, SnapshotSource, SyncPolicy,
    WriteBatch,
};
use ad_support::prng::Rng;

fn cfg() -> KvConfig {
    let mut c = KvConfig::volatile().with_shards(2);
    c.buckets_per_shard = 4;
    c.ckpt = CkptPolicy::Manual;
    c
}

/// One step of the scripted history.
enum Step {
    /// An atomic batch: `(key, Some(value))` puts, `(key, None)` deletes.
    /// One redo record however many ops.
    Batch(Vec<(&'static str, Option<&'static str>)>),
    /// A manual checkpoint.
    Ckpt,
}

struct History {
    /// The live disk whose journal the matrix replays.
    disk: MemDisk,
    /// Committed state after each record (index 0 = empty store).
    models: Vec<BTreeMap<String, Vec<u8>>>,
    /// Total committed records.
    records: u64,
    /// Cut of the last published snapshot (0 if none).
    last_cut: u64,
}

fn run_history(steps: &[Step]) -> History {
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut models = vec![model.clone()];
    let mut records = 0;
    let mut last_cut = 0;
    for step in steps {
        match step {
            Step::Batch(ops) => {
                let mut b = WriteBatch::new();
                for (k, v) in ops {
                    b = match v {
                        Some(v) => b.put(*k, v.as_bytes()),
                        None => b.delete(*k),
                    };
                }
                store.write_batch(&b);
                for (k, v) in ops {
                    match v {
                        Some(v) => {
                            model.insert((*k).to_string(), v.as_bytes().to_vec());
                        }
                        None => {
                            model.remove(*k);
                        }
                    }
                }
                records += 1;
                models.push(model.clone());
            }
            Step::Ckpt => {
                let report = store.checkpoint().expect("checkpoint");
                assert!(report.performed, "scripted checkpoints have new data");
                assert_eq!(report.cut, records, "a lone writer: cut == acked records");
                last_cut = report.cut;
                // The published image is the *exact* state at its cut.
                let published = disk.read(SNAP_CUR).unwrap().expect("published snapshot");
                let (cut, image) = decode_snapshot(&published).expect("valid snapshot");
                assert_eq!(cut, report.cut);
                let image: BTreeMap<String, Vec<u8>> = image
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_vec()))
                    .collect();
                assert_eq!(image, models[report.cut as usize], "snapshot at cut {cut}");
            }
        }
    }
    assert_eq!(store.dump(), model);
    History {
        disk,
        models,
        records,
        last_cut,
    }
}

fn scripted() -> Vec<Step> {
    vec![
        Step::Batch(vec![("a1", Some("v1"))]),
        Step::Batch(vec![("a2", Some("v2")), ("a3", Some("v3"))]),
        Step::Batch(vec![("a1", Some("v1b"))]), // overwrite
        Step::Batch(vec![("a3", None)]),        // delete
        Step::Ckpt,
        Step::Batch(vec![("b1", Some("w1"))]),
        Step::Batch(vec![("a1", None), ("b2", Some("w2"))]), // cross-ckpt delete
        Step::Ckpt,
        Step::Batch(vec![("c1", Some("x1"))]),
        Step::Batch(vec![("c2", Some("x2"))]),
    ]
}

#[test]
fn crash_matrix_across_checkpoint_boundaries() {
    let h = run_history(&scripted());
    let mut images = 0u64;
    let mut rename_truncate_window = 0u64;
    let mut check = |img: MemDisk| {
        let (re, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, img.clone());
        let dump = re.dump();
        assert!(
            h.models.contains(&dump),
            "recovered state is not a committed prefix: {dump:?}\nreport: {report:?}"
        );
        // The suffix bound: replay never exceeds the records past the cut.
        assert!(
            report.replayed <= h.records - report.snapshot_cut,
            "replayed {} > records-after-cut {}",
            report.replayed,
            h.records - report.snapshot_cut
        );
        // The rename-before-truncate window: a published snapshot while
        // covered records still sit in the segments. The scan sees them
        // (records > replayed) but replay must skip them idempotently.
        if report.snapshot_cut > 0 && report.records > report.replayed {
            rename_truncate_window += 1;
        }
        // The recovered store must stay usable: checkpoint it right away
        // (the crash-between-rotate-and-publish images resume on an empty
        // segment already named for the cut — rotation must reuse it, not
        // rotate into it and delete the live segment), write, and reopen.
        re.checkpoint().expect("checkpoint on recovered image");
        re.put("zz-crash-probe", b"pc");
        drop(re);
        let (re2, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, img);
        let mut dump2 = re2.dump();
        assert_eq!(
            dump2.remove("zz-crash-probe").as_deref(),
            Some(&b"pc"[..]),
            "post-recovery write lost across the second reopen"
        );
        assert_eq!(
            dump2, dump,
            "second reopen changed the recovered state\nreport: {report:?}"
        );
        images += 1;
    };

    let n = h.disk.journal_len();
    for ev in 0..=n {
        // Whole-event boundary: optimistic (unsynced bytes survived) and
        // pessimistic (every file cut to its synced prefix).
        check(h.disk.crash_image(ev, 0, false));
        check(h.disk.crash_image(ev, 0, true));
        // Byte-level cuts inside an append (torn writes).
        if let Some(len) = h.disk.event_append_len(ev) {
            for cut in 1..len {
                check(h.disk.crash_image(ev, cut, false));
            }
        }
    }
    assert!(images > 100, "matrix too small: {images}");
    assert!(
        rename_truncate_window > 0,
        "matrix never hit the rename-before-truncate window"
    );
}

#[test]
fn post_checkpoint_reopen_replays_only_the_suffix() {
    let h = run_history(&scripted());
    // Clean reopen (no crash): the snapshot supplies everything up to
    // the last cut; replay covers exactly the suffix.
    let (re, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, h.disk.clone());
    assert_eq!(report.snapshot_source, SnapshotSource::Current);
    assert_eq!(report.snapshot_cut, h.last_cut);
    assert_eq!(report.replayed, h.records - h.last_cut);
    assert!(report.replayed <= h.records - report.snapshot_cut);
    assert_eq!(&re.dump(), h.models.last().unwrap());

    // And the reopened store keeps working: writes, another checkpoint,
    // another reopen.
    re.put("post", b"reopen");
    let ck = re.checkpoint().expect("checkpoint after reopen");
    assert!(ck.performed);
    assert!(ck.cut > h.last_cut);
    drop(re);
    let (re2, r2) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, h.disk.clone());
    assert_eq!(r2.replayed, 0, "everything is under the new snapshot");
    assert_eq!(
        re2.get("post").as_deref(),
        Some(&b"reopen"[..]),
        "post-reopen write survived the second cycle"
    );
}

#[test]
fn checkpoint_bounds_the_live_log() {
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
    for i in 0..50 {
        store.put(&format!("k{i:03}"), &[i as u8; 64]);
    }
    let grown = disk.wal_bytes();
    let report = store.checkpoint().unwrap();
    assert!(report.performed);
    assert_eq!(report.wal_bytes_dropped, grown);
    assert_eq!(disk.wal_bytes(), 0, "all 50 records were covered");
    store.put("after", b"x");
    assert!(
        disk.wal_bytes() > 0,
        "suffix accumulates in the new segment"
    );
    assert!(disk.wal_bytes() < grown);

    let stats = store.ckpt_stats().expect("disk-backed store has ckpt tier");
    assert_eq!(stats.count, 1);
    assert_eq!(stats.wal_truncated_bytes, grown);
    assert_eq!(stats.last_cut, 50);
    assert_eq!(stats.duration_ns.count(), 1);
}

#[test]
fn checkpoint_with_nothing_new_is_skipped() {
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk);
    store.put("k", b"v");
    assert!(store.checkpoint().unwrap().performed);
    let again = store.checkpoint().unwrap();
    assert!(!again.performed, "no new durable records since the cut");
    assert_eq!(again.cut, 1);
    assert_eq!(store.ckpt_stats().unwrap().count, 1);
}

/// A cross-shard participant's plan ends with an *unforced* `Decided`
/// echo: the record is in memory, the slice applied. A checkpoint taken
/// then must write it before it cuts — a cut below it would snapshot
/// without the slice and leave the echo in memory above the cut, the
/// slice kept by nothing but its coordinator's record, which the router
/// may truncate next. So across the checkpoint's crash images the slice
/// is missing only before the flush's write, and present in every image
/// after it — the snapshot holds it at the end.
#[test]
fn a_checkpoint_with_an_unforced_decided_pending_never_loses_the_slice() {
    const GID: u64 = 9;
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
    store.put("seed", b"s");
    store.commit(
        &WriteBatch::new().put("slice", b"v"),
        &[CommitStep::LogUnforced(RedoKind::Decided { gid: GID })],
    );
    assert_eq!(store.get("slice").as_deref(), Some(&b"v"[..]));
    let before = disk.journal_len();
    assert!(store.checkpoint().expect("checkpoint").performed);
    let after = disk.journal_len();
    drop(store);

    let has_slice = |img: MemDisk, what: &str| {
        let (re, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, img);
        assert_eq!(re.get("seed").as_deref(), Some(&b"s"[..]), "{what}");
        match re.get("slice").as_deref() {
            Some(b"v") => true,
            None => false,
            other => panic!("{what}: slice is {other:?}\n{report:?}"),
        }
    };
    let mut seen = Vec::new();
    for ev in before..=after {
        let what = format!("event {ev}");
        let synced = has_slice(disk.crash_image(ev, 0, true), &what);
        assert!(
            synced || !seen.contains(&true),
            "{what}: the slice was written and then lost"
        );
        seen.push(synced);
        for cut in 1..disk.event_append_len(ev).unwrap_or(0) {
            let torn = has_slice(
                disk.crash_image(ev, cut, false),
                &format!("{what} byte {cut}"),
            );
            assert!(torn || !synced, "{what} byte {cut}: lost the slice");
        }
    }
    assert_eq!(
        seen.first(),
        Some(&false),
        "the echo was in memory at the start"
    );
    // The end state needs no log at all: the slice is in the snapshot.
    let (re, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
    assert_eq!(report.replayed, 0);
    assert_eq!(re.get("slice").as_deref(), Some(&b"v"[..]));
}

/// `CkptPolicy::Auto` under load. Nobody calls `checkpoint()` while the
/// writers run, so a nonzero count means a deferred append saw the WAL
/// cross the threshold and woke the trigger thread. Then the contract the
/// tier exists for: the live log is smaller than what was appended, and a
/// reopen loads the newest snapshot and replays only the records past it.
#[test]
fn auto_checkpoints_fire_under_load_and_bound_the_log_and_the_replay() {
    const KEYS: usize = 1_000;
    const OPS_PER_THREAD: u64 = 300;
    let config = KvConfig::default().with_ckpt(CkptPolicy::Auto {
        wal_bytes: 64 << 10,
    });
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&config, SyncPolicy::GroupCommit, disk.clone());
    let key = |i: usize| format!("key{i:05}");
    // The preload alone appends more than the threshold.
    for base in (0..KEYS).step_by(100) {
        let batch = (base..base + 100).fold(WriteBatch::new(), |b, i| b.put(key(i), [0u8; 64]));
        store.write_batch(&batch);
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (store, key) = (&store, &key);
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(0xC4B7 + t);
                for op in 0..OPS_PER_THREAD {
                    let k = key(rng.random_range(0..KEYS));
                    if rng.random_bool(0.5) {
                        let mut value = [t as u8; 64];
                        value[..8].copy_from_slice(&op.to_le_bytes());
                        store.put(&k, &value);
                    } else {
                        store.get(&k);
                    }
                }
            });
        }
    });

    // The trigger thread runs beside the writers: await it, don't guess.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.ckpt_stats().expect("ckpt tier").count == 0 {
        assert!(
            Instant::now() < deadline,
            "the WAL passed the Auto threshold and no checkpoint ever ran"
        );
        std::thread::yield_now();
    }

    // One manual checkpoint on top makes the accounting deterministic.
    store.sync();
    let report = store.checkpoint().expect("manual checkpoint");
    let wal = store.wal_stats().expect("durable store");
    assert!(
        disk.wal_bytes() < wal.bytes,
        "checkpointing never truncated: live {} >= appended {}",
        disk.wal_bytes(),
        wal.bytes
    );
    assert!(
        disk.read(SNAP_CUR).unwrap().is_some(),
        "no published snapshot"
    );

    let live = store.dump();
    drop(store);
    let image = disk.crash_image(disk.journal_len(), 0, true);
    let (reopened, rr) = KvStore::open_on_disk(&config, SyncPolicy::GroupCommit, image);
    assert!(!rr.torn(), "clean shutdown left a torn WAL");
    assert_eq!(
        rr.snapshot_cut, report.cut,
        "reopen did not use the newest snapshot"
    );
    assert!(
        rr.replayed <= wal.records - rr.snapshot_cut,
        "replayed {} > records-after-cut {}",
        rr.replayed,
        wal.records - rr.snapshot_cut
    );
    assert_eq!(reopened.dump(), live);
}

/// A checkpoint folds what the disk holds below its cut, so a closed prefix
/// that no longer reads back whole — its last record cut in half, its last
/// record gone, bytes after its last record — is refused: nothing is
/// published, nothing is deleted, and the store keeps serving from memory.
#[test]
fn a_checkpoint_refuses_a_damaged_closed_prefix_and_touches_nothing() {
    type Damage = fn(&MemDisk, &str, usize);
    let damages: [(&str, Damage); 3] = [
        ("last record cut in half", |disk, seg, len| {
            disk.truncate(seg, len as u64 - 5).unwrap()
        }),
        ("last record gone", |disk, seg, len| {
            disk.truncate(seg, len as u64 / 2).unwrap()
        }),
        ("bytes after the last record", |disk, seg, _| {
            disk.open_append(seg).unwrap().append(b"junk").unwrap()
        }),
    ];
    let files = |disk: &MemDisk| -> BTreeMap<String, Vec<u8>> {
        let names = disk.list().unwrap();
        names
            .into_iter()
            .map(|name| {
                let bytes = disk.read(&name).unwrap().unwrap();
                (name, bytes)
            })
            .collect()
    };
    for (what, damage) in damages {
        let disk = MemDisk::new();
        let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
        store.put("a", b"1");
        store.checkpoint().expect("first checkpoint");
        store.put("b", b"2");
        store.checkpoint().expect("second checkpoint");
        // Two records of one length on the live segment.
        store.put("c", b"3");
        store.put("d", b"4");
        let live = segment_name(3);
        damage(&disk, &live, disk.written(&live).len());

        let before = files(&disk);
        assert!(before.contains_key(SNAP_CUR) && before.contains_key(SNAP_PREV));
        let err = match store.checkpoint() {
            Err(err) => err,
            Ok(report) => panic!("{what}: published over a damaged prefix: {report:?}"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");

        // The listing differs only by the rotation's new, empty segment.
        let mut after = files(&disk);
        assert_eq!(after.remove(&segment_name(5)), Some(Vec::new()), "{what}");
        assert_eq!(
            after, before,
            "{what}: a refused checkpoint changed the disk"
        );
        let stats = store.ckpt_stats().expect("ckpt tier");
        assert_eq!((stats.count, stats.last_cut), (2, 2), "{what}");
        // Transactional reads still answer from memory, writes still land.
        assert_eq!(store.get("d").as_deref(), Some(&b"4"[..]), "{what}");
        store.put("e", b"5");
        assert_eq!(store.len(), 5, "{what}");
    }
}

#[test]
fn corrupt_current_snapshot_falls_back_to_previous() {
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk.clone());
    store.put("old", b"1");
    store.checkpoint().unwrap(); // -> snapshot #1 (becomes .prev later)
    store.put("new", b"2");
    store.checkpoint().unwrap(); // -> snapshot #2 (current)
    drop(store);

    // Flip a byte in the current snapshot; all-or-nothing validation
    // rejects it and recovery falls back to the previous snapshot plus
    // a longer suffix — here the suffix segments covering "new" are
    // gone (truncated by checkpoint #2), so the chain rules discard the
    // stale-looking segments and the store recovers to snapshot #1.
    let img = disk.crash_image(disk.journal_len(), 0, false);
    let bytes = img.read("snapshot.cur").unwrap().unwrap();
    img.truncate("snapshot.cur", bytes.len() as u64 - 1)
        .unwrap();
    let (re, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, img);
    assert_eq!(report.snapshot_source, SnapshotSource::Previous);
    assert_eq!(report.snapshot_cut, 1);
    assert_eq!(re.get("old").as_deref(), Some(&b"1"[..]));
}

#[test]
fn volatile_stores_report_unsupported() {
    let store = KvStore::open(KvConfig::volatile()).unwrap();
    let err = store.checkpoint().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    assert!(store.ckpt_stats().is_none());
}
