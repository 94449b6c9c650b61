//! Byte-level crash/recovery for cross-shard transactions.
//!
//! Three layers:
//!
//! 1. **Aligned crash matrix** — a scripted history of single- and
//!    cross-shard batches runs through a [`ShardRouter`] over one
//!    [`MemDisk`] per shard. After every operation returns (= acked),
//!    the per-disk journal lengths are recorded as one *aligned cut*.
//!    Every cut is rebuilt pessimistically (each disk truncated to its
//!    synced prefix — unsynced bytes lost) and optimistically, reopened
//!    with [`ShardRouter::open_on_disks`], and must recover to exactly
//!    the model at that cut: an acked batch is durable on *every*
//!    shard, with no partial cross-shard state.
//!
//! 2. **Killed-coordinator / killed-participant windows** — the store
//!    level primitives stage a real prepare on one disk while the
//!    coordinator's decision is either withheld, torn mid-append, or
//!    completed, producing the exact mid-protocol disk images a crash
//!    leaves behind (including byte-level cuts inside the decision record
//!    and inside the later write that carries the participant's unforced
//!    `Decided`). Recovery must apply the batch everywhere when any
//!    surviving log proves it decided, and nowhere otherwise. A
//!    participant whose `Decided` never reached its disk is the *normal*
//!    image right after an ack, not a race.
//!
//! 3. **Checkpoints** — a crash at every disk event of
//!    `checkpoint_all`, all disks cut at the same instant: every shard's
//!    WAL is forced before any shard truncates.
//!
//! 4. **Concurrent readers** — while cross-shard batches commit, a
//!    reader hammering both shards must never observe one key of a
//!    batch's per-shard slice without its sibling; and the same under
//!    four concurrent coordinators on three shards, where a shard is
//!    participant and coordinator at once and prepares queue behind a
//!    parked one.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

use ad_kv::disk::WAL_BASE;
use ad_kv::recover::scan;
use ad_kv::{CkptPolicy, KvConfig, KvStore, MemDisk, RedoKind, SyncPolicy, WriteBatch};
use ad_shard::{plan, ShardRouter};

fn cfg() -> KvConfig {
    let mut c = KvConfig::volatile().with_shards(2);
    c.buckets_per_shard = 4;
    c.ckpt = CkptPolicy::Manual;
    c
}

/// First key of the form `{prefix}{i}` owned by shard `want`.
fn key_on(router: &ShardRouter, prefix: &str, want: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|k| router.shard_of(k) == want)
        .expect("some key lands on every shard")
}

// ---------------------------------------------------------------------------
// Layer 1: aligned crash matrix through the router.
// ---------------------------------------------------------------------------

#[test]
fn acked_cross_shard_batches_survive_every_aligned_crash() {
    const SHARDS: usize = 3;
    let disks: Vec<MemDisk> = (0..SHARDS).map(|_| MemDisk::new()).collect();
    let (router, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &disks);

    // Pre-resolve one key per shard so the script below is stable under
    // the hash partition.
    let keys: Vec<String> = (0..SHARDS).map(|s| key_on(&router, "k", s)).collect();
    let extra: Vec<String> = (0..SHARDS).map(|s| key_on(&router, "x", s)).collect();

    // Script: (shard indices touched, value suffix). One key per shard
    // per batch; `None` in ops means delete.
    let script: Vec<Vec<(usize, Option<&str>)>> = vec![
        vec![(0, Some("a"))],                                 // single-shard
        vec![(0, Some("b")), (1, Some("b"))],                 // 2-shard, coord 0
        vec![(2, Some("c"))],                                 // single-shard
        vec![(1, Some("d")), (2, Some("d"))],                 // 2-shard, coord 1
        vec![(0, Some("e")), (1, Some("e")), (2, Some("e"))], // 3-shard
        vec![(0, None), (2, Some("f"))],                      // cross-shard delete
        vec![(1, Some("g"))],
        vec![(0, Some("h")), (1, None), (2, Some("h"))], // mixed put/delete
    ];

    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    type Cut = (Vec<usize>, BTreeMap<String, Vec<u8>>);
    let mut cuts: Vec<Cut> = Vec::new();
    cuts.push((
        disks.iter().map(|d| d.journal_len()).collect(),
        model.clone(),
    ));
    for (round, ops) in script.iter().enumerate() {
        let mut b = WriteBatch::new();
        for (s, v) in ops {
            let k = if round % 2 == 0 {
                &keys[*s]
            } else {
                &extra[*s]
            };
            b = match v {
                Some(v) => {
                    model.insert(k.clone(), v.as_bytes().to_vec());
                    b.put(k, v.as_bytes())
                }
                None => {
                    model.remove(k);
                    b.delete(k)
                }
            };
        }
        router.write_batch(&b);
        cuts.push((
            disks.iter().map(|d| d.journal_len()).collect(),
            model.clone(),
        ));
    }
    assert_eq!(router.dump(), model);
    drop(router);

    let mut cross_shard_cuts = 0;
    for (lens, want) in &cuts {
        for synced_only in [false, true] {
            let imgs: Vec<MemDisk> = disks
                .iter()
                .zip(lens)
                .map(|(d, &len)| d.crash_image(len, 0, synced_only))
                .collect();
            let (re, reports) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
            assert_eq!(
                &re.dump(),
                want,
                "aligned cut {lens:?} synced_only={synced_only} diverged\nreports: {reports:?}"
            );
        }
        if want.values().any(|v| v == b"e") {
            cross_shard_cuts += 1;
        }
    }
    assert!(
        cross_shard_cuts > 0,
        "matrix never covered the 3-shard batch"
    );
}

// ---------------------------------------------------------------------------
// Layer 2: mid-protocol windows with byte-level cuts.
// ---------------------------------------------------------------------------

/// A reusable open/wait gate (ack and release signals between the test
/// and a parked participant thread).
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut g = self.open.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// Index of the last append event in a disk's journal (later events are
/// syncs and other non-append operations).
fn last_append(d: &MemDisk) -> usize {
    (0..d.journal_len())
        .rev()
        .find(|&i| d.event_append_len(i).is_some())
        .expect("disk has at least one append")
}

/// Mid-protocol disk images for gid 1: the participant has staged and
/// acked its slice; the coordinator's images are taken before, during
/// (torn), and after its decision record.
struct Window {
    /// Participant disk, synced prefix, taken after ack but before
    /// release: exactly what a killed participant leaves behind.
    part_staged: MemDisk,
    /// Live participant disk.
    part_live: MemDisk,
    /// Its journal length when the participant's plan had ended — locks
    /// released, `Decided` appended but never written.
    part_released: usize,
    /// Journal index of the participant's next write, which carries that
    /// `Decided` followed by the record of a later local put.
    part_relog_ev: usize,
    /// Coordinator disk before the decision was ever attempted.
    coord_before: MemDisk,
    /// Coordinator disk with the decision record durable.
    coord_after: MemDisk,
    /// Live coordinator disk (for byte cuts into the decision append).
    coord_live: MemDisk,
    /// Journal index on the coordinator where the decision append sits.
    coord_decision_ev: usize,
}

const GID: u64 = 1; // coordinator shard 0 in the high bits, seq 1

fn build_window() -> Window {
    let disk_a = MemDisk::new();
    let disk_b = MemDisk::new();
    let (sa, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk_a.clone());
    let (sb, _) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disk_b.clone());
    let sb = Arc::new(sb);

    // Independent local writes so recovery always has unrelated state
    // to preserve.
    sa.put("seed-a", b"sa");
    sb.put("seed-b", b"sb");

    let coord_before = disk_a.crash_image(disk_a.journal_len(), 0, true);

    // Participant side on its own thread: stage the slice durably, ack,
    // park until release.
    let acked = Gate::new();
    let release = Gate::new();
    let part = {
        let sb = Arc::clone(&sb);
        let acked = Arc::clone(&acked);
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            let batch = WriteBatch::new().put("cross-b", b"vb");
            sb.commit(
                &batch,
                &plan::participant(
                    GID,
                    Arc::new(move || acked.open()),
                    Arc::new(move || release.wait()),
                ),
            );
        })
    };
    acked.wait();
    let part_staged = disk_b.crash_image(disk_b.journal_len(), 0, true);

    // Coordinator side: the participant already staged and acked, so
    // its prepare callback is a no-op; release opens the gate.
    let rel = Arc::clone(&release);
    let prepare: plan::Callback = Arc::new(|| {});
    sa.commit(
        &WriteBatch::new().put("cross-a", b"va"),
        &plan::coordinator(GID, [prepare], Arc::new(move || rel.open())),
    );
    let coord_decision_ev = last_append(&disk_a);
    let coord_after = disk_a.crash_image(disk_a.journal_len(), 0, true);
    part.join().expect("participant thread");
    let part_released = disk_b.journal_len();
    sb.put("later-b", b"lb");
    let part_relog_ev = last_append(&disk_b);

    drop(sa);
    Window {
        part_staged,
        part_live: disk_b,
        part_released,
        part_relog_ev,
        coord_before,
        coord_after,
        coord_live: disk_a,
        coord_decision_ev,
    }
}

/// Reopen a (coordinator, participant) image pair through the router
/// and return the merged dump.
fn recover(coord: &MemDisk, part: &MemDisk) -> BTreeMap<String, Vec<u8>> {
    let imgs = [coord.clone(), part.clone()];
    let (re, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
    re.dump()
}

/// All-or-none on the cross-shard pair, seeds always intact.
fn assert_atomic(dump: &BTreeMap<String, Vec<u8>>, expect_present: bool) {
    let a = dump.get("cross-a").map(|v| v.as_slice());
    let b = dump.get("cross-b").map(|v| v.as_slice());
    if expect_present {
        assert_eq!(a, Some(&b"va"[..]), "coordinator slice missing: {dump:?}");
        assert_eq!(b, Some(&b"vb"[..]), "participant slice missing: {dump:?}");
    } else {
        assert_eq!(a, None, "undecided coordinator slice surfaced: {dump:?}");
        assert_eq!(b, None, "undecided participant slice surfaced: {dump:?}");
    }
    assert_eq!(dump.get("seed-a").map(|v| v.as_slice()), Some(&b"sa"[..]));
    assert_eq!(dump.get("seed-b").map(|v| v.as_slice()), Some(&b"sb"[..]));
}

#[test]
fn killed_participant_after_ack_recovers_the_whole_batch() {
    let w = build_window();
    // The participant died holding only its staged prepare; the
    // coordinator's decision record is durable. Reconciliation must
    // prove the gid decided and apply the slice on the participant.
    assert_atomic(&recover(&w.coord_after, &w.part_staged), true);
}

#[test]
fn an_acked_batch_whose_participant_decided_was_never_written_recovers_whole() {
    let w = build_window();
    // The participant's plan has ended and its locks are released; its
    // `Decided` is in memory only. This is what every crash shortly after
    // an ack looks like, whether or not unsynced bytes survive.
    assert_eq!(
        w.part_released, w.part_relog_ev,
        "the participant wrote nothing between its prepare and its next commit"
    );
    for synced_only in [true, false] {
        let part = w.part_live.crash_image(w.part_released, 0, synced_only);
        let (solo, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, part.clone());
        assert_eq!(report.pending_prepares, 1, "synced_only={synced_only}");
        assert_eq!(solo.get("cross-b"), None, "standalone: presumed abort");
        drop(solo);
        assert_atomic(&recover(&w.coord_after, &part), true);
    }
}

#[test]
fn a_torn_write_carrying_the_unforced_decided_and_a_later_record_recovers_whole() {
    let w = build_window();
    // One append holds the participant's `Decided` and then the record of
    // `later-b`. Cut it at every byte: the scan keeps whole records only,
    // so the cut leaves neither, the `Decided` alone, or both — and the
    // batch is whole in each, from this log or from the coordinator's.
    let len = w
        .part_live
        .event_append_len(w.part_relog_ev)
        .expect("an append");
    let mut pending = [0, 0];
    for cut in 0..=len {
        let part = w.part_live.crash_image(w.part_relog_ev, cut, false);
        let (solo, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, part.clone());
        pending[report.pending_prepares as usize] += 1;
        // `later-b` was acked after the batch: never without it.
        if solo.get("later-b").is_some() {
            assert_eq!(
                report.pending_prepares, 0,
                "cut {cut}: later record, no decided"
            );
            assert_eq!(cut, len, "cut {cut}: a torn record was replayed");
        }
        drop(solo);
        let dump = recover(&w.coord_after, &part);
        assert_atomic(&dump, true);
        assert_eq!(dump.contains_key("later-b"), cut == len, "cut {cut}");
    }
    assert!(
        pending[0] > 1 && pending[1] > 1,
        "cuts on both sides of the decided record: {pending:?}"
    );
}

#[test]
fn killed_coordinator_before_decision_presumes_abort() {
    let w = build_window();
    // The coordinator died before its decision record: no surviving log
    // proves the gid committed, so the staged slice must never apply.
    assert_atomic(&recover(&w.coord_before, &w.part_staged), false);

    // Torn decision: byte-level cuts inside the coordinator's decision
    // append. A torn decided record is no decision.
    let len = w
        .coord_live
        .event_append_len(w.coord_decision_ev)
        .expect("decision event is an append");
    for cut in [1, len / 2, len - 1] {
        let coord = w.coord_live.crash_image(w.coord_decision_ev, cut, false);
        assert_atomic(&recover(&coord, &w.part_staged), false);
    }
    // The full decision append flips the outcome: same participant
    // image, now the batch applies everywhere.
    let coord = w.coord_live.crash_image(w.coord_decision_ev + 1, 0, false);
    assert_atomic(&recover(&coord, &w.part_staged), true);
}

#[test]
fn reconciliation_relogs_so_the_next_recovery_is_self_contained() {
    let w = build_window();
    let imgs = [w.coord_after.clone(), w.part_staged.clone()];
    let (re, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
    // The window placed its keys at the store level, so read them store
    // level too (the router's hash partition is irrelevant here).
    assert_eq!(
        re.store(1).get("cross-b").as_deref(),
        Some(&b"vb"[..]),
        "first recovery resolved the staged slice"
    );
    // The participant re-logged its slice as decided during the first
    // recovery — forced, unlike a live participant's: the record is in
    // the synced prefix while the router is still open.
    let synced = scan(&imgs[1].synced(WAL_BASE), 1).0;
    assert!(
        synced
            .iter()
            .any(|r| r.kind == RedoKind::Decided { gid: GID }),
        "resolution did not force its decided record"
    );
    drop(re);
    // So the participant's disk alone — no coordinator evidence — now
    // recovers the slice. (A store outside a router replays the same
    // records.)
    let (solo, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, imgs[1].clone());
    assert_eq!(report.pending_prepares, 0);
    assert_eq!(
        solo.get("cross-b").as_deref(),
        Some(&b"vb"[..]),
        "second, stand-alone recovery lost the resolved slice"
    );
}

#[test]
fn aborted_prepare_does_not_block_later_writes_or_recoveries() {
    let w = build_window();
    let imgs = [w.coord_before.clone(), w.part_staged.clone()];
    let (re, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
    assert_eq!(re.store(1).get("cross-b"), None);
    // The stale prepare record lingers in the participant's WAL but the
    // store keeps working: new writes land, and another recovery still
    // presumes abort rather than resurrecting the slice.
    re.put("after-abort", b"ok");
    re.sync();
    drop(re);
    let (re2, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
    assert_eq!(re2.get("after-abort").as_deref(), Some(&b"ok"[..]));
    assert_eq!(
        re2.store(1).get("cross-b"),
        None,
        "aborted slice resurrected"
    );
}

// ---------------------------------------------------------------------------
// Layer 3: closing and checkpointing with unforced records pending.
// ---------------------------------------------------------------------------

#[test]
fn a_clean_close_is_self_contained_and_a_crash_reports_its_pending_prepare() {
    let disks = [MemDisk::new(), MemDisk::new()];
    let (router, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &disks);
    let (a, b) = (key_on(&router, "a", 0), key_on(&router, "b", 1));
    router.write_batch(&WriteBatch::new().put(&a, b"1").put(&b, b"1"));
    let whole = BTreeMap::from([(a, b"1".to_vec()), (b.clone(), b"1".to_vec())]);

    // Crash right after the ack, unsynced bytes lost: the participant has
    // its prepare and no decision of its own, and says so.
    let imgs: Vec<MemDisk> = disks
        .iter()
        .map(|d| d.crash_image(d.journal_len(), 0, true))
        .collect();
    let (solo, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, imgs[1].clone());
    assert_eq!(report.pending_prepares, 1);
    assert_eq!(solo.get(&b), None, "standalone: presumed abort, reported");
    drop(solo);
    let (re, reports) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
    assert_eq!(
        reports.iter().map(|r| r.pending_prepares).sum::<u64>(),
        1,
        "one staged slice to resolve"
    );
    assert_eq!(re.dump(), whole, "resolved against the coordinator's log");
    drop(re);

    // A clean close writes the pending record out: the participant's disk
    // reopens on its own, nothing parked, nothing lost.
    drop(router);
    let (solo, report) = KvStore::open_on_disk(&cfg(), SyncPolicy::GroupCommit, disks[1].clone());
    assert_eq!(report.pending_prepares, 0);
    assert_eq!(solo.get(&b).as_deref(), Some(&b"1"[..]));
}

#[test]
fn checkpoint_all_forces_every_wal_before_any_shard_truncates() {
    const SHARDS: usize = 3;
    let disks: Vec<MemDisk> = (0..SHARDS).map(|_| MemDisk::new()).collect();
    let (router, _) = ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &disks);
    let keys: Vec<String> = (0..SHARDS).map(|s| key_on(&router, "k", s)).collect();
    // Every shard coordinates once and participates once; the last
    // batch leaves an unwritten `Decided` on shards 1 and 2 whose only
    // durable twin is in the log shard 0 checkpoints first.
    for (round, touched) in [vec![1, 2], vec![0, 2], vec![0, 1, 2]].iter().enumerate() {
        let mut batch = WriteBatch::new();
        for &s in touched {
            batch = batch.put(&keys[s], [round as u8]);
        }
        router.write_batch(&batch);
    }
    router.quiesce();
    let model = router.dump();
    let before: Vec<usize> = disks.iter().map(MemDisk::journal_len).collect();
    router.checkpoint_all().expect("checkpoint_all");
    drop(router);

    // The disk events of the checkpoint, all disks, in the order they
    // happened: crash before each of them, and inside each append.
    let stamps: Vec<Vec<u64>> = disks.iter().map(MemDisk::event_stamps).collect();
    let mut instants: Vec<u64> = (0..SHARDS)
        .flat_map(|d| stamps[d][before[d]..].iter().copied())
        .collect();
    instants.sort_unstable();
    assert!(
        instants.len() > 6 * SHARDS,
        "flush + rotate + publish + drop on every shard"
    );
    let mut images = 0;
    // (`u64::MAX`: after the last of them.)
    for &t in instants.iter().chain([&u64::MAX]) {
        let lens: Vec<usize> = stamps
            .iter()
            .map(|s| s.partition_point(|&s| s < t))
            .collect();
        let next = (0..SHARDS)
            .find(|&d| stamps[d].get(lens[d]) == Some(&t))
            .unwrap_or(0);
        let len = disks[next].event_append_len(lens[next]).unwrap_or(0);
        for cut in [0, 1, len / 2, len.saturating_sub(1)] {
            for synced_only in [false, true] {
                let imgs: Vec<MemDisk> = (0..SHARDS)
                    .map(|d| {
                        let bytes = if d == next { cut.min(len) } else { 0 };
                        disks[d].crash_image(lens[d], bytes, synced_only)
                    })
                    .collect();
                let (re, reports) =
                    ShardRouter::open_on_disks(&cfg(), SyncPolicy::GroupCommit, &imgs);
                assert_eq!(
                    re.dump(),
                    model,
                    "crash at {lens:?} (+{cut} bytes on disk {next}), \
                     synced_only={synced_only}\nreports: {reports:?}"
                );
                images += 1;
            }
        }
    }
    assert!(images > 100, "matrix too small: {images}");
}

// ---------------------------------------------------------------------------
// Layer 4: concurrent readers during live cross-shard commits.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_reader_never_observes_a_partial_batch() {
    let router = Arc::new(ShardRouter::open_volatile(2));
    // Two keys per shard; every batch writes all four to the same round
    // value, so a reader seeing one key of a shard's slice without its
    // sibling (or the siblings disagreeing) caught a partial batch.
    let k = [
        key_on(&router, "p", 0),
        key_on(&router, "q", 0),
        key_on(&router, "r", 1),
        key_on(&router, "s", 1),
    ];
    for key in &k {
        router.put(key, &0u64.to_le_bytes());
    }

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let router = Arc::clone(&router);
            let k = k.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed_rounds = std::collections::BTreeSet::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = router.get_many(&[&k[0], &k[1], &k[2], &k[3]]);
                    let round = |v: &Option<Arc<[u8]>>| {
                        u64::from_le_bytes(v.as_deref().unwrap().try_into().unwrap())
                    };
                    let (p, q, r, s) = (
                        round(&got[0]),
                        round(&got[1]),
                        round(&got[2]),
                        round(&got[3]),
                    );
                    assert_eq!(p, q, "partial batch on shard 0");
                    assert_eq!(r, s, "partial batch on shard 1");
                    observed_rounds.insert(p);
                }
                observed_rounds.len()
            })
        })
        .collect();

    for round in 1u64..400 {
        let v = round.to_le_bytes();
        router.write_batch(
            &WriteBatch::new()
                .put(&k[0], v)
                .put(&k[1], v)
                .put(&k[2], v)
                .put(&k[3], v),
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let distinct: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(distinct >= 2, "readers never caught the store mid-flight");
}

#[test]
fn concurrent_coordinators_on_three_shards_finish_and_never_show_a_partial_batch() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const WRITERS: u64 = 4;
    const ROUNDS: u64 = 100;
    // Shard 1 coordinates {1,2} while it participates in {0,1} and
    // {0,1,2}, so its worker parks on one release with other prepares
    // queued behind it, and shard 2 is every coordinator's last stop.
    const SETS: [&[usize]; 4] = [&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
    // Writers start on different sets, so all four shapes are in flight
    // together.
    let touched = |w: u64, round: u64| SETS[((w + round) % 4) as usize];
    let stamp = |w: u64, round: u64| (((w + 1) << 32) | round).to_le_bytes();
    // One marker per batch and touched shard, never overwritten: what the
    // whole-batch check at the end counts.
    let marker = |router: &ShardRouter, w: u64, round: u64, s: usize| {
        key_on(router, &format!("m{w}.{round}."), s)
    };

    let router = Arc::new(ShardRouter::open_volatile(3));
    // Two keys per shard, always written together with one batch's stamp.
    let pairs: Vec<[String; 2]> = (0..3)
        .map(|s| [key_on(&router, "p", s), key_on(&router, "q", s)])
        .collect();
    for key in pairs.iter().flatten() {
        router.put(key, &0u64.to_le_bytes());
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (router, pairs, stop) = (Arc::clone(&router), pairs.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let keys: Vec<&str> = pairs.iter().flatten().map(String::as_str).collect();
                while !stop.load(Ordering::Relaxed) {
                    for (s, pair) in router.get_many(&keys).chunks(2).enumerate() {
                        assert_eq!(pair[0], pair[1], "partial batch on shard {s}");
                    }
                }
            })
        })
        .collect();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (router, pairs, done) = (Arc::clone(&router), pairs.clone(), done_tx.clone());
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let v = stamp(w, round);
                    let mut batch = WriteBatch::new();
                    for &s in touched(w, round) {
                        batch = batch
                            .put(&pairs[s][0], v)
                            .put(&pairs[s][1], v)
                            .put(marker(&router, w, round, s), v);
                    }
                    router.write_batch(&batch);
                }
                done.send(()).expect("the test is still waiting");
            })
        })
        .collect();

    // A lost wake-up or a release stuck behind a parked prepare shows as a
    // hang; fail instead (the stuck threads die with the test process).
    let deadline = Instant::now() + Duration::from_secs(120);
    for finished in 0..WRITERS {
        let left = deadline.saturating_duration_since(Instant::now());
        done_rx.recv_timeout(left).unwrap_or_else(|_| {
            panic!("cross-shard commits stopped making progress: {finished}/{WRITERS} writers done")
        });
    }
    stop.store(true, Ordering::Relaxed);
    for t in writers.into_iter().chain(readers) {
        t.join().expect("no writer or reader panicked");
    }

    router.quiesce();
    let dump = router.dump();
    for (s, [p, q]) in pairs.iter().enumerate() {
        assert_eq!(dump[p], dump[q], "shard {s} ended on a partial batch");
    }
    // Every acked batch is whole: one marker on each shard it touched,
    // carrying that batch's stamp.
    let mut markers = 0;
    for w in 0..WRITERS {
        for round in 0..ROUNDS {
            for &s in touched(w, round) {
                let got = dump.get(&marker(&router, w, round, s));
                assert_eq!(got.map(Vec::as_slice), Some(&stamp(w, round)[..]));
                markers += 1;
            }
        }
    }
    assert_eq!(dump.len(), 6 + markers, "a key no batch wrote");
}
