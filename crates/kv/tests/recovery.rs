//! Crash-recovery matrix: the durability contract under byte-exact crash
//! injection.
//!
//! The contract (DESIGN.md §9): after a crash, the store recovers
//! **exactly a committed prefix** of its write history — every acked write
//! whose bytes reached the durable prefix, never a partially-applied
//! transaction, never a record that follows a hole. `MemDisk` makes this
//! checkable exhaustively: tests run a real store on it, then re-open
//! from *every* crash image its operation journal can rebuild.

use std::collections::BTreeMap;

use ad_kv::disk::{SNAP_CUR, WAL_BASE};
use ad_kv::recover::{encode_redo, scan, ScanEnd};
use ad_kv::wal::frame_record;
use ad_kv::{Disk, KvConfig, KvStore, MemDisk, RecoveryReport, SyncPolicy, Wal, WriteBatch};
use ad_stm::{Runtime, TmConfig};

fn open(disk: &MemDisk) -> (KvStore, RecoveryReport) {
    KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone())
}

/// Everything written to the WAL so far (synced or not), the zero fill
/// ahead of it left out.
fn written(disk: &MemDisk) -> Vec<u8> {
    disk.written(WAL_BASE)
}

/// Every byte-level truncation of the WAL stream `disk` saw, as
/// `(cut, image)` pairs: each journal prefix, plus every partial length of
/// each append (torn writes). Unsynced bytes survive — the optimistic
/// images, which contain the pessimistic ones as shorter cuts.
fn byte_cuts(disk: &MemDisk) -> Vec<(usize, MemDisk)> {
    let mut out = Vec::new();
    for ev in 0..=disk.journal_len() {
        for partial in 0..disk.event_append_len(ev).unwrap_or(1) {
            let img = disk.crash_image(ev, partial, false);
            out.push((written(&img).len(), img));
        }
    }
    out
}

/// One batch = one redo record = one transaction.
type Ops = Vec<(String, Option<Vec<u8>>)>;

fn batch_of(ops: &Ops) -> WriteBatch {
    let mut b = WriteBatch::new();
    for (k, v) in ops {
        b = match v {
            Some(v) => b.put(k.clone(), v.clone()),
            None => b.delete(k.clone()),
        };
    }
    b
}

/// The expected store contents after the first `n` batches.
fn model(batches: &[Ops], n: usize) -> BTreeMap<String, Vec<u8>> {
    let mut m = BTreeMap::new();
    for ops in &batches[..n] {
        for (k, v) in ops {
            match v {
                Some(v) => {
                    m.insert(k.clone(), v.clone());
                }
                None => {
                    m.remove(k);
                }
            }
        }
    }
    m
}

fn history() -> Vec<Ops> {
    vec![
        vec![("alpha".into(), Some(b"1".to_vec()))],
        vec![
            ("beta".into(), Some(b"2".to_vec())),
            ("gamma".into(), Some(b"3".to_vec())),
            ("delta".into(), Some(b"4".to_vec())),
        ],
        vec![
            ("alpha".into(), None),
            ("beta".into(), Some(b"22".to_vec())),
        ],
        vec![
            ("epsilon".into(), Some(vec![0u8; 200])),
            ("gamma".into(), None),
        ],
        vec![("zeta".into(), Some(b"6".to_vec()))],
    ]
}

/// The core property, checked exhaustively: for EVERY byte-truncation of
/// the WAL, recovery yields the store state after some whole number of
/// batches — never a torn record, never half a multi-key batch.
#[test]
fn every_crash_point_recovers_exactly_a_committed_prefix() {
    let batches = history();
    let mem = MemDisk::new();
    let (store, _) = open(&mem);
    for ops in &batches {
        store.write_batch(&batch_of(ops));
    }
    let full = written(&mem);
    assert_eq!(
        mem.synced(WAL_BASE),
        full,
        "all acked writes must be synced"
    );

    let images = byte_cuts(&mem);
    let cuts: std::collections::BTreeSet<usize> = images.iter().map(|(cut, _)| *cut).collect();
    assert!(
        cuts.into_iter().eq(0..=full.len()),
        "the images cover every byte cut of the stream"
    );
    for (cut, image) in images {
        let file = image.read(WAL_BASE).unwrap().unwrap_or_default();
        let (recovered, report) = open(&image);
        let n = report.records as usize;
        assert!(n <= batches.len(), "cut={cut}: recovered too many records");
        assert_eq!(
            recovered.dump(),
            model(&batches, n),
            "cut={cut}: state is not the {n}-batch prefix"
        );
        // A torn tail is cut off with the zero fill after it. A clean
        // end's zero tail is counted in neither — and a record whose
        // unwritten last bytes are zeros reads back whole from the fill.
        let valid = report.valid_bytes as usize;
        if report.torn() {
            assert_eq!(
                valid + report.truncated_bytes as usize,
                file.len(),
                "cut={cut}: report bytes don't add up"
            );
        } else {
            assert!(
                valid >= cut && file[cut..valid].iter().all(|&b| b == 0),
                "cut={cut}: report bytes don't add up (valid {valid})"
            );
        }
    }
}

/// The zero tail: every byte cut of a record stream, followed by zeros,
/// recovers exactly what the bare cut does — once the cut is extended by
/// the zero bytes the stream itself has right after it, which the zero
/// tail reproduces. (A record whose unwritten last bytes are zeros is
/// whole.) The history has both kinds of record end: a delete ends in
/// its zero tag byte, and one value is 200 zero bytes.
#[test]
fn every_byte_cut_followed_by_zeros_recovers_what_the_bare_cut_does() {
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for (i, ops) in history().iter().enumerate() {
        let seq = i as u64 + 1;
        frame_record(&mut stream, seq, &encode_redo(seq, ops));
        ends.push(stream.len());
    }
    let recover = |image: &[u8]| {
        let (store, report) = open(&MemDisk::with_file(WAL_BASE, image));
        (store.dump(), report)
    };
    let mut completed_by_zeros = 0;
    for cut in 0..=stream.len() {
        let ext = cut + stream[cut..].iter().take_while(|&&b| b == 0).count();
        let mut zeroed = stream[..cut].to_vec();
        zeroed.resize(stream.len() + 64, 0);
        let (dump, report) = recover(&zeroed);
        let (want_dump, want) = recover(&stream[..ext]);
        assert_eq!(dump, want_dump, "cut={cut}");
        assert_eq!(
            (report.records, report.last_seq, report.valid_bytes),
            (want.records, want.last_seq, want.valid_bytes),
            "cut={cut}"
        );
        assert_eq!(report.torn(), want.torn(), "cut={cut}");
        assert_eq!(report.end == ScanEnd::Clean, !want.torn(), "cut={cut}");
        assert_eq!(
            dump,
            model(&history(), report.records as usize),
            "cut={cut}"
        );
        if ends[..].contains(&ext) && !ends.contains(&cut) {
            completed_by_zeros += 1;
        }
    }
    assert!(
        completed_by_zeros > 0,
        "no cut had its record completed by the zero tail"
    );
}

/// A multi-key batch is one record: a crash can drop it entirely but can
/// never surface a subset of its keys.
#[test]
fn crash_never_yields_a_partial_batch() {
    let batch: Ops = vec![
        ("k1".into(), Some(b"v1".to_vec())),
        ("k2".into(), Some(b"v2".to_vec())),
        ("k3".into(), Some(b"v3".to_vec())),
    ];
    let mem = MemDisk::new();
    let (store, _) = open(&mem);
    store.write_batch(&batch_of(&batch));

    for (cut, image) in byte_cuts(&mem) {
        let (recovered, _) = open(&image);
        let dump = recovered.dump();
        assert!(
            dump.is_empty() || dump.len() == 3,
            "cut={cut}: partial batch surfaced: {:?}",
            dump.keys().collect::<Vec<_>>()
        );
    }
}

/// Torn tail mid-record: the fixture has two whole records plus the first
/// half of a third. Recovery keeps exactly two and truncates the rest.
#[test]
fn fixture_torn_tail_mid_record() {
    let mut log = Vec::new();
    frame_record(
        &mut log,
        1,
        &encode_redo(1, &[("a".into(), Some(b"1".to_vec()))]),
    );
    frame_record(
        &mut log,
        2,
        &encode_redo(2, &[("b".into(), Some(b"2".to_vec()))]),
    );
    let intact = log.len();
    let mut third = Vec::new();
    frame_record(
        &mut third,
        3,
        &encode_redo(3, &[("c".into(), Some(b"3".to_vec()))]),
    );
    log.extend_from_slice(&third[..third.len() / 2]);

    let (records, report) = scan(&log, 1);
    assert_eq!(records.len(), 2);
    assert_eq!(report.end, ScanEnd::TruncatedRecord);
    assert_eq!(report.valid_bytes as usize, intact);
    assert!(report.torn());

    let (store, rep) = open(&MemDisk::with_file(WAL_BASE, &log));
    assert_eq!(rep.records, 2);
    assert_eq!(store.len(), 2);
    assert_eq!(store.get("c"), None);
}

/// Bit-rot inside an early record: everything from the corruption on is
/// discarded (prefix-only recovery — replaying past a hole would reorder
/// same-key updates).
#[test]
fn fixture_corrupt_record_drops_suffix() {
    let mut log = Vec::new();
    let r1_end = frame_record(
        &mut log,
        1,
        &encode_redo(1, &[("a".into(), Some(b"1".to_vec()))]),
    );
    frame_record(
        &mut log,
        2,
        &encode_redo(2, &[("b".into(), Some(b"2".to_vec()))]),
    );
    frame_record(
        &mut log,
        3,
        &encode_redo(3, &[("c".into(), Some(b"3".to_vec()))]),
    );
    log[r1_end + 24] ^= 0x01; // a payload byte of record 2

    let (records, report) = scan(&log, 1);
    assert_eq!(records.len(), 1);
    assert_eq!(report.end, ScanEnd::BadChecksum);

    let (store, _) = open(&MemDisk::with_file(WAL_BASE, &log));
    assert_eq!(store.dump().keys().collect::<Vec<_>>(), vec!["a"]);
}

/// A crash *between* group-commit batches loses nothing and needs no
/// truncation: the synced prefix is a clean log.
#[test]
fn crash_between_group_commit_batches_is_clean() {
    let mem = MemDisk::new();
    let wal = Wal::new(std::sync::Arc::new(mem.clone()), 1);
    let wal = std::sync::Arc::new(wal.unwrap());
    let rt = std::sync::Arc::new(Runtime::new(TmConfig::stm()));
    std::thread::scope(|s| {
        for t in 0..4 {
            let wal = std::sync::Arc::clone(&wal);
            let rt = std::sync::Arc::clone(&rt);
            s.spawn(move || {
                for i in 0..5u32 {
                    let key = format!("t{t}k{i}");
                    let payload = encode_redo(u64::from(i) + 1, &[(key, Some(b"v".to_vec()))]);
                    wal.append_durable(&payload, &rt);
                }
            });
        }
    });
    // Crash image = exactly the durable prefix.
    let image = mem.synced(WAL_BASE);
    let (records, report) = scan(&image, 1);
    assert_eq!(records.len(), 20);
    assert_eq!(report.end, ScanEnd::Clean);
    assert!(!report.torn());
    assert_eq!(report.last_seq, 20);
}

/// A crash *mid-batch* (some of a group-committed batch's bytes written
/// but the fsync never returned): the surviving records are still a valid
/// prefix — exactly the transactions whose full record made it.
#[test]
fn crash_mid_batch_keeps_whole_record_prefix() {
    // Build one group-commit batch of 3 records by framing them back to
    // back, as the leader's single write would.
    let mut batch = Vec::new();
    let ends: Vec<usize> = (1..=3u64)
        .map(|seq| {
            frame_record(
                &mut batch,
                seq,
                &encode_redo(seq, &[(format!("k{seq}"), Some(b"v".to_vec()))]),
            );
            batch.len()
        })
        .collect();

    for cut in 0..=batch.len() {
        let (records, report) = scan(&batch[..cut], 1);
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(records.len(), expect, "cut={cut}");
        // Torn exactly when the cut is strictly inside a record.
        assert_eq!(report.torn(), !ends.contains(&cut) && cut != 0, "cut={cut}");
    }
}

/// Acked writes survive: whatever was acked before the crash is present
/// after recovery, even when unsynced trailing bytes are arbitrarily
/// truncated.
#[test]
fn acked_writes_survive_any_loss_of_unsynced_tail() {
    let mem = MemDisk::new();
    let (store, _) = open(&mem);
    let mut acked = Vec::new();
    for i in 0..10u32 {
        let key = format!("key{i:02}");
        store.put(&key, b"payload");
        acked.push(key); // put returned => acked => must survive
    }
    // The kernel may persist any amount of post-sync garbage after the
    // durable prefix; emulate by recovering from synced() + junk.
    let mut image = mem.synced(WAL_BASE);
    image.extend_from_slice(b"\xde\xad\xbe\xef torn garbage");
    let (recovered, report) = open(&MemDisk::with_file(WAL_BASE, &image));
    assert!(report.torn());
    let dump = recovered.dump();
    for key in &acked {
        assert!(dump.contains_key(key), "acked write {key} lost");
    }
}

/// Everything an observer can ask a store about its contents, plus what
/// recovery said it did to get there.
type Observed = (
    BTreeMap<String, Vec<u8>>,
    Vec<(String, Vec<u8>)>,
    usize,
    RecoveryReport,
);

fn observe(store: &KvStore, report: RecoveryReport) -> Observed {
    let scan = store
        .scan_from("", usize::MAX)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_vec()))
        .collect();
    (store.dump(), scan, store.len(), report)
}

/// Deterministic replay: the same bytes recover to the same store, every
/// time. One history — puts, deletes, a key written twice in one batch, a
/// 200-key batch, and a checkpoint in the middle so recovery is snapshot +
/// suffix — one synced crash image taken twice; two independent opens
/// agree on every observation and on the whole [`RecoveryReport`]
/// (`records`, `replayed`, `snapshot_cut`, `last_seq`, `pending_prepares`
/// among its fields), and a close + reopen of the first changes nothing.
#[test]
fn replaying_the_same_log_twice_gives_the_same_store() {
    let wide: Ops = (0..200u8)
        .map(|i| (format!("wide{i:03}"), Some(vec![i; 8])))
        .collect();
    let batches: Vec<Ops> = vec![
        vec![
            ("a".into(), Some(b"1".to_vec())),
            ("b".into(), Some(b"2".to_vec())),
        ],
        wide,
        vec![("a".into(), None)],
        // -- checkpoint here --
        vec![
            ("twice".into(), Some(b"first".to_vec())),
            ("twice".into(), Some(b"second".to_vec())),
        ],
        vec![("wide007".into(), None), ("b".into(), Some(b"22".to_vec()))],
        vec![("c".into(), Some(b"3".to_vec()))],
    ];
    const BEFORE_CKPT: usize = 3;

    let mem = MemDisk::new();
    let (store, _) = open(&mem);
    for (i, ops) in batches.iter().enumerate() {
        if i == BEFORE_CKPT {
            assert!(store.checkpoint().expect("checkpoint").performed);
        }
        store.write_batch(&batch_of(ops));
    }
    let live = store.dump();
    assert_eq!(live, model(&batches, batches.len()));
    drop(store);

    let image = || mem.crash_image(mem.journal_len(), 0, true);
    let (first_disk, second_disk) = (image(), image());
    let (first, report) = open(&first_disk);
    assert_eq!(report.snapshot_cut, BEFORE_CKPT as u64);
    assert_eq!(report.replayed, (batches.len() - BEFORE_CKPT) as u64);
    assert_eq!(report.last_seq, batches.len() as u64);
    assert_eq!(report.pending_prepares, 0);
    let first_seen = observe(&first, report);
    assert_eq!(first_seen.0, live);
    assert_eq!(first_seen.2, live.len());

    let (second, report) = open(&second_disk);
    assert_eq!(observe(&second, report), first_seen, "two opens disagree");

    drop(first);
    let (again, report) = open(&first_disk);
    assert_eq!(
        observe(&again, report),
        first_seen,
        "close + reopen changed the recovered store"
    );

    // One more input: the same image checkpointed twice. A checkpoint is
    // that replay, re-encoded, so the two snapshots agree byte for byte.
    for store in [&again, &second] {
        assert!(store.checkpoint().expect("checkpoint").performed);
    }
    let snapshot = |disk: &MemDisk| disk.read(SNAP_CUR).unwrap().expect("published");
    assert_eq!(
        snapshot(&first_disk),
        snapshot(&second_disk),
        "two checkpoints of one image wrote different snapshots"
    );
}
