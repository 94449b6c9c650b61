//! The write-ahead log: record framing, the group-commit coalescer, and
//! the segment protocols (open-time recovery, rotation) over a
//! [`Disk`].
//!
//! ## Framing
//!
//! Every redo record is framed as
//!
//! ```text
//! magic: u32 ("ADKV") | len: u32 | seq: u64 | crc: u32 | payload[len]
//! ```
//!
//! (little-endian, 20-byte header). `seq` numbers records contiguously
//! from 1; `crc` is CRC-32 (IEEE) over the payload. A segment is its
//! records followed by a *zero tail*: space the WAL zero-filled ahead of
//! its last record (see "Group commit"). No record starts with a zero
//! byte (the magic does not), so recovery accepts the longest prefix of
//! well-formed, checksummed, contiguously-numbered records, takes
//! all-zero bytes after it as the log's clean end, and truncates anything
//! else as the torn tail of a crashed append — see [`crate::recover`].
//!
//! ## Group commit
//!
//! [`Wal::append_durable`] is called from *deferred operations*
//! (`atomic_defer`), after the calling transaction has committed, while
//! the shards it touched are still locked. It is [`Wal::append`] — take a
//! sequence number, frame the record into the pending buffer — followed by
//! `Wal::sync_locked`; an *unforced* append stops after the first half
//! and its record rides whichever batch is written next. Concurrent
//! callers frame their records into one shared pending buffer; the first to need durability becomes the
//! *leader*, takes the whole buffer, writes it as a single `write` +
//! `fsync`, and wakes the others — so N concurrently-committing
//! transactions cost one fsync, not N. Records enter the buffer in
//! `seq` order under the state lock, which also means WAL order agrees
//! with commit order for any two transactions that touched a common shard
//! (their deferred appends are serialized by the shard's `TxLock`). A lone
//! appender's batch is its own record: one write + fsync per record.
//!
//! A batch is written *by position*, right after the last
//! record, into zeros the log wrote there earlier: when a batch shorter
//! than [`PREALLOC_CHUNK`] would run past the segment's end, the leader
//! first zero-fills one more chunk. So only about one batch per chunk
//! grows the file ([`Wal::extends`]); every other batch's fsync is
//! data-only, with no size change for the filesystem to journal. A batch
//! of a chunk or more is written past the end as it is — filling ahead
//! of it would double its writes. The fill is synced with its batch, and
//! a crash anywhere leaves records, perhaps a torn one, then zeros: what
//! recovery's prefix rule expects. Appends resume right after the last
//! record, in the zeros a reopen finds there.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use ad_stm::{AppEvent, Runtime};
use ad_support::crc32::crc32;
use ad_support::hist::{Histogram, HistogramSnapshot};
use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::{Condvar, Mutex, MutexGuard};

use crate::disk::{segment_first_seq, segment_name, Disk, DiskFile, SNAP_CUR, SNAP_PREV, SNAP_TMP};
use crate::recover::{recover_two_tier, TwoTier};

/// Trace event: a WAL record was framed into the group-commit buffer
/// (recorded from the deferred operation); `arg` = the framed record's
/// size in bytes.
pub static WAL_APPEND: AppEvent = AppEvent::new("wal_append", "bytes");

/// Trace event: a WAL fsync batch completed; `arg` = the number of records
/// the batch made durable (>1 means group commit coalesced concurrent
/// transactions into one sync).
pub static WAL_FSYNC: AppEvent = AppEvent::new("wal_fsync", "records");

/// Frame magic: `b"ADKV"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ADKV");
/// Frame header size in bytes (magic + len + seq + crc).
pub const HEADER_LEN: usize = 4 + 4 + 8 + 4;
/// Upper bound on a record payload (sanity check during recovery scan:
/// a torn length field must not make the scanner index gigabytes away).
pub const MAX_PAYLOAD: usize = 1 << 28;
/// Bytes the log zero-fills ahead of its last record at a time (see the
/// module docs, "Group commit"). On ext4 a 160 B `fdatasync` took 88 µs
/// on a growing file and 59 µs inside zero-filled space; with 64 KiB
/// chunks `net_update` rose 48 % and `wal.fsync_mean_us` fell 37 %
/// (EXPERIMENTS.md, "A group-commit fsync is data-only"; other sizes
/// were not measured).
pub const PREALLOC_CHUNK: usize = 64 << 10;

/// When the WAL calls `fsync`. Group commit is the one policy; the type
/// stays so that configurations name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Coalesce concurrently-committing transactions into one write +
    /// fsync (module docs, "Group commit").
    GroupCommit,
}

/// Frame one record (header + payload) into `out`; returns the framed
/// length in bytes.
pub fn frame_record(out: &mut Vec<u8>, seq: u64, payload: &[u8]) -> usize {
    assert!(payload.len() <= MAX_PAYLOAD, "WAL payload too large");
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    HEADER_LEN + payload.len()
}

/// Group-commit state shared by all appenders (guarded by one mutex; the
/// condvar wakes waiters when `durable_seq` advances).
struct WalState {
    /// Framed records awaiting the next batch write.
    pending: Vec<u8>,
    /// Records currently framed into `pending`.
    pending_records: u64,
    /// Next sequence number to assign (first record is seq 1).
    next_seq: u64,
    /// Highest sequence number known durable.
    durable_seq: u64,
    /// A leader is currently writing + syncing a batch.
    leader_active: bool,
}

/// Cumulative WAL counters and latency histograms (all relaxed:
/// diagnostics, not synchronization).
#[derive(Default)]
struct WalCounters {
    records: AtomicU64,
    batches: AtomicU64,
    bytes: AtomicU64,
    /// Forced appends (`append_durable`) only: framing + queueing + fsync
    /// wait, ns. An unforced append waits for nothing and records nothing.
    append_ns: Histogram,
    /// Leader-side `write` + `fsync` latency per batch, ns.
    fsync_ns: Histogram,
    /// Batches whose sync also grew the file.
    extends: AtomicU64,
}

/// A snapshot of the WAL's counters ([`Wal::stats`]), serializable with
/// the same hand-rolled JSON the rest of the workspace uses.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    /// Records made durable — counted when the batch carrying them is
    /// written, forced and unforced appends alike.
    pub records: u64,
    /// fsync batches issued (== fsync calls).
    pub batches: u64,
    /// Record bytes written to the medium (the zero fill is not counted).
    pub bytes: u64,
    /// Forced appends' call latency (enqueue → durable ack), ns. Unforced
    /// appends are not in it, so `append_ns − fsync_ns` stays a wait.
    pub append_ns: HistogramSnapshot,
    /// Batch write+fsync latency, ns.
    pub fsync_ns: HistogramSnapshot,
}

impl WalStats {
    /// Average records per fsync — the group-commit coalescing factor
    /// (1.0 means no coalescing happened).
    pub fn coalescing(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.records as f64 / self.batches as f64
        }
    }

    /// Stable-schema JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"records\":{},\"batches\":{},\"bytes\":{},\"coalescing\":{:.2},\
             \"append_ns\":{},\"fsync_ns\":{}}}",
            self.records,
            self.batches,
            self.bytes,
            self.coalescing(),
            self.append_ns.to_json(),
            self.fsync_ns.to_json(),
        )
    }
}

/// The files the log spans: the open handle of the active segment (so a
/// batch is one `write_at` + one `sync`, no lookup by name), where in it
/// the next batch goes, and the rotated-out segments awaiting
/// [`Wal::drop_rotated`].
struct Segments {
    active: Box<dyn DiskFile>,
    active_name: String,
    /// The end of the active segment's last record: where the next batch
    /// is written.
    write_off: u64,
    /// The active segment's length: its records, then zeros from
    /// `write_off` on.
    len: u64,
    /// Rotated-out segments, each with its record bytes.
    old: Vec<(String, u64)>,
}

impl Segments {
    fn fresh(active: Box<dyn DiskFile>, active_name: String) -> Self {
        Segments {
            active,
            active_name,
            write_off: 0,
            len: 0,
            old: Vec::new(),
        }
    }
}

/// Read the snapshots and the segments `segs` — `(first_seq, name)` in
/// sequence order — off `disk` and run two-tier recovery over them.
/// Returns each segment's length on disk beside the result.
fn recover_from(disk: &dyn Disk, segs: &[(u64, String)]) -> io::Result<(Vec<u64>, TwoTier)> {
    let mut seg_bytes: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segs.len());
    for (first, name) in segs {
        seg_bytes.push((*first, disk.read(name)?.unwrap_or_default()));
    }
    let (cur, prev) = (disk.read(SNAP_CUR)?, disk.read(SNAP_PREV)?);
    let t = recover_two_tier(cur.as_deref(), prev.as_deref(), &seg_bytes);
    let lens = seg_bytes.iter().map(|(_, b)| b.len() as u64).collect();
    Ok((lens, t))
}

/// The write-ahead log. Shared by every shard's deferred operations;
/// see the module docs for the coalescing protocol.
pub struct Wal {
    disk: Arc<dyn Disk>,
    segments: Mutex<Segments>,
    state: Mutex<WalState>,
    durable_cv: Condvar,
    counters: WalCounters,
}

impl Wal {
    /// Start a log on `disk` in a fresh segment named for `next_seq` —
    /// 1 for a new log, `last_recovered_seq + 1` when nothing on the disk
    /// can be appended to. `Wal::open` is the entry point that first
    /// recovers what the disk already holds.
    pub fn new(disk: Arc<dyn Disk>, next_seq: u64) -> io::Result<Wal> {
        let name = segment_name(next_seq);
        let active = disk.create(&name)?;
        disk.sync_dir()?;
        let segments = Segments::fresh(active, name);
        Ok(Self::resume(disk, next_seq, segments))
    }

    fn resume(disk: Arc<dyn Disk>, next_seq: u64, segments: Segments) -> Wal {
        assert!(next_seq >= 1);
        Wal {
            disk,
            segments: Mutex::new(segments),
            state: Mutex::new(WalState {
                pending: Vec::new(),
                pending_records: 0,
                next_seq,
                durable_seq: next_seq - 1,
                leader_active: false,
            }),
            durable_cv: Condvar::new(),
            counters: WalCounters::default(),
        }
    }

    /// Open the log `disk` holds — **the** open-time protocol, shared by
    /// every disk: discover the segments, run two-tier recovery (newest
    /// valid snapshot, then the longest valid record chain past its cut),
    /// and sanitize before accepting writes — drop a stale snapshot tmp,
    /// cut torn tails, delete segments recovery cannot use — durably.
    /// Appends resume on the chain's last segment, right after its last
    /// record and into the zero tail it may have, or on a fresh segment
    /// named for the next sequence number when none survives.
    pub(crate) fn open(disk: Arc<dyn Disk>) -> io::Result<(Wal, TwoTier)> {
        let mut segs: Vec<(u64, String)> = disk
            .list()?
            .into_iter()
            .filter_map(|name| segment_first_seq(&name).map(|first| (first, name)))
            .collect();
        segs.sort();
        let (seg_lens, t) = recover_from(&*disk, &segs)?;

        disk.delete(SNAP_TMP)?;
        let mut old = Vec::new();
        let mut active = None;
        for (i, (_, name)) in segs.iter().enumerate() {
            match t.keep[i] {
                Some(valid) => {
                    // A zero tail stays; a torn one goes, zeros and all.
                    let mut len = seg_lens[i];
                    if t.torn == Some(i) {
                        disk.truncate(name, valid)?;
                        len = valid;
                    }
                    if t.active == Some(i) {
                        active = Some((name.clone(), valid, len));
                    } else {
                        old.push((name.clone(), valid));
                    }
                }
                None => {
                    disk.delete(name)?;
                }
            }
        }
        let wal = match active {
            Some((name, write_off, len)) => {
                let file = disk.open_append(&name)?;
                disk.sync_dir()?;
                let segments = Segments {
                    write_off,
                    len,
                    old,
                    ..Segments::fresh(file, name)
                };
                Self::resume(disk, t.next_seq, segments)
            }
            // Fresh store, or recovery discarded every segment: start a
            // new contiguous one.
            None => Self::new(disk, t.next_seq)?,
        };
        Ok((wal, t))
    }

    /// Append `payload` as the next record and block until it is durable:
    /// [`append`](Self::append) + `sync_locked`
    /// under one hold of the state lock. Returns the record's sequence
    /// number. `rt` is the runtime whose observability timeline receives
    /// the `wal_append`/`wal_fsync` events.
    ///
    /// Called from deferred operations while the deferring transaction's
    /// shard locks are held — which is exactly what makes "ack after
    /// deferred fsync" atomic: no subscriber can observe the shard between
    /// the commit and the moment its redo record is on disk.
    pub fn append_durable(&self, payload: &[u8], rt: &Runtime) -> u64 {
        let t0 = Instant::now();
        let mut st = self.state.lock();
        let seq = self.frame(&mut st, payload, rt);
        drop(self.sync_locked(st, seq, rt));
        self.counters
            .append_ns
            .record(t0.elapsed().as_nanos() as u64);
        seq
    }

    /// Unforced append: assign the next sequence number, frame `payload`
    /// into the pending buffer and return — nothing is written. The record
    /// reaches the disk with the next batch anyone writes on this log (a
    /// leader takes the whole buffer), so every later durable record
    /// implies it; [`rotate`](Self::rotate) and [`flush`](Self::flush)
    /// write it out themselves. For records whose loss a crash can repair
    /// from elsewhere — a participant's `Decided` echo of a decision that
    /// is durable on its coordinator.
    pub fn append(&self, payload: &[u8], rt: &Runtime) -> u64 {
        self.frame(&mut self.state.lock(), payload, rt)
    }

    /// Make every record appended so far durable; returns the highest
    /// durable sequence number.
    pub fn flush(&self, rt: &Runtime) -> u64 {
        let st = self.state.lock();
        let last = st.next_seq - 1;
        self.sync_locked(st, last, rt).durable_seq
    }

    fn frame(&self, st: &mut WalState, payload: &[u8], rt: &Runtime) -> u64 {
        let seq = st.next_seq;
        st.next_seq += 1;
        let framed = frame_record(&mut st.pending, seq, payload);
        st.pending_records += 1;
        rt.trace_app(&WAL_APPEND, framed as u64);
        seq
    }

    /// Block until every record through `seq` is durable: wait for the
    /// leader whose batch carries it, or become that leader.
    fn sync_locked<'a>(
        &'a self,
        mut st: MutexGuard<'a, WalState>,
        seq: u64,
        rt: &Runtime,
    ) -> MutexGuard<'a, WalState> {
        while st.durable_seq < seq {
            if st.leader_active {
                // A leader's batch is in flight; it may or may not
                // include `seq`. Wait for durable_seq to move.
                self.durable_cv.wait(&mut st);
            } else {
                // Become leader: take everything framed so far (the
                // caller's record plus any concurrent or unforced
                // appenders'), write and sync it as one batch.
                st.leader_active = true;
                let batch = std::mem::take(&mut st.pending);
                let records = std::mem::take(&mut st.pending_records);
                let batch_hi = st.next_seq - 1;
                drop(st);
                self.write_batch(&batch, records, rt);
                st = self.state.lock();
                st.durable_seq = batch_hi;
                st.leader_active = false;
                self.durable_cv.notify_all();
            }
        }
        st
    }

    /// Write the pending buffer with the state lock held (rotation's
    /// flush, which keeps anyone from framing behind it).
    fn write_pending(&self, st: &mut WalState, rt: &Runtime) {
        let batch = std::mem::take(&mut st.pending);
        let records = std::mem::take(&mut st.pending_records);
        self.write_batch(&batch, records, rt);
        st.durable_seq = st.next_seq - 1;
    }

    /// One framed batch to the active segment: a write right after its
    /// last record — after zero-filling a chunk first if a short batch
    /// would run past the end (module docs, "Group commit") — and the
    /// covering fsync, then the accounting: records and bytes are counted
    /// here, when they are written, however they were appended. An I/O
    /// error is fatal — the caller holds shard locks for records it can no
    /// longer make durable.
    fn write_batch(&self, batch: &[u8], records: u64, rt: &Runtime) {
        let started = Instant::now();
        let extends = {
            let mut seg = self.segments.lock();
            let end = seg.write_off + batch.len() as u64;
            let extends = end > seg.len;
            if extends && batch.len() < PREALLOC_CHUNK {
                seg.active
                    .zero_extend(PREALLOC_CHUNK as u64)
                    .expect("WAL zero fill failed");
                seg.len += PREALLOC_CHUNK as u64;
            }
            let off = seg.write_off;
            seg.active.write_at(off, batch).expect("WAL write failed");
            seg.active.sync().expect("WAL fsync failed");
            seg.write_off = end;
            seg.len = seg.len.max(end);
            extends
        };
        self.counters
            .fsync_ns
            .record(started.elapsed().as_nanos() as u64);
        if extends {
            self.counters.extends.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.records.fetch_add(records, Ordering::Relaxed);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        rt.trace_app(&WAL_FSYNC, records);
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().durable_seq
    }

    /// Rotate the log at a quiescent cut: waits out any in-flight group
    /// leader, writes out whatever is still pending, then starts a fresh
    /// segment whose first record will be `cut + 1`. Returns the cut — the
    /// highest durable sequence, which is also the highest *assigned* one:
    /// every record framed before the cut is in pre-rotation segments,
    /// durable, and every later record lands in the new segment. (Without
    /// the flush an unforced record could sit in memory above the cut
    /// while the checkpoint truncates the records it supersedes — a
    /// `Decided` above, its `Prepare` below.) The old segments survive
    /// until [`Wal::drop_rotated`].
    ///
    /// Idempotent at the cut: when appends already go to the segment named
    /// for `cut + 1` (it then holds no records — the cut is quiescent, so
    /// every durable record has seq `<= cut`), that segment *is* the
    /// post-cut segment. Re-creating it would wipe it and queue the live
    /// file for deletion. This happens after recovering from a crash
    /// between rotation and the snapshot publish, and when a checkpoint is
    /// retried after a failed publish with no intervening appends.
    pub fn rotate(&self, rt: &Runtime) -> io::Result<u64> {
        let mut st = self.state.lock();
        // Wait out an in-flight leader, then flush with the lock held:
        // nobody frames until the new segment is in place, so the cut is
        // exact and nothing is pending at it.
        while st.leader_active {
            self.durable_cv.wait(&mut st);
        }
        if st.pending_records > 0 {
            self.write_pending(&mut st, rt);
        }
        let cut = st.durable_seq;
        let name = segment_name(cut + 1);
        // state → segments lock order, same as the append paths.
        let mut seg = self.segments.lock();
        if seg.active_name != name {
            let mut next = self.disk.create(&name)?;
            next.sync()?;
            self.disk.sync_dir()?;
            // The old segment's bytes were already synced by their
            // batches; a final sync is belt-and-braces before we stop
            // writing it.
            seg.active.sync()?;
            let prev = std::mem::replace(&mut *seg, Segments::fresh(next, name));
            seg.old = prev.old;
            seg.old.push((prev.active_name, prev.write_off));
        }
        Ok(cut)
    }

    /// Recover the closed prefix of the log — the snapshots and the
    /// rotated-out segments [`drop_rotated`](Self::drop_rotated) will
    /// delete, files no append reaches any more — with the scan
    /// [`open`](Self::open) runs over the whole disk.
    pub(crate) fn recover_rotated(&self) -> io::Result<TwoTier> {
        let old: Vec<(u64, String)> = self
            .segments
            .lock()
            .old
            .iter()
            .filter_map(|(name, _)| segment_first_seq(name).map(|first| (first, name.clone())))
            .collect();
        Ok(recover_from(&*self.disk, &old)?.1)
    }

    /// Delete pre-rotation segments (call only after the snapshot
    /// covering them is durably published). Returns the record bytes
    /// they held (their zero tails are not counted).
    pub fn drop_rotated(&self) -> io::Result<u64> {
        let old = std::mem::take(&mut self.segments.lock().old);
        let mut freed = 0;
        for (name, records) in old {
            self.disk.delete(&name)?;
            freed += records;
        }
        self.disk.sync_dir()?;
        Ok(freed)
    }

    /// Cumulative record bytes appended (relaxed; for checkpoint
    /// triggers).
    pub fn bytes_appended(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// Snapshot the WAL counters and latency histograms.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.counters.records.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            append_ns: self.counters.append_ns.snapshot(),
            fsync_ns: self.counters.fsync_ns.snapshot(),
        }
    }

    /// Batches whose sync also grew the active segment: the ones that
    /// zero-filled a chunk first or were a chunk long — about one per
    /// [`PREALLOC_CHUNK`] of log.
    pub fn extends(&self) -> u64 {
        self.counters.extends.load(Ordering::Relaxed)
    }

    /// [`WalStats::to_json`] with `"extends"` ([`Wal::extends`]) added: a
    /// count kept out of [`WalStats`], whose fields callers construct by
    /// name.
    pub fn stats_json(&self) -> String {
        let mut json = self.stats().to_json();
        json.pop(); // the closing brace
        format!("{json},\"extends\":{}}}", self.extends())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::disk::{MemDisk, WAL_BASE};
    use ad_stm::{Runtime, TmConfig};

    fn wal_on(disk: &MemDisk, next_seq: u64) -> Wal {
        Wal::new(Arc::new(disk.clone()), next_seq).unwrap()
    }

    fn read(disk: &MemDisk, name: &str) -> Option<Vec<u8>> {
        disk.read(name).unwrap()
    }

    #[test]
    fn frame_layout_is_as_documented() {
        let mut buf = Vec::new();
        let n = frame_record(&mut buf, 7, b"payload");
        assert_eq!(n, HEADER_LEN + 7);
        assert_eq!(buf.len(), n);
        assert_eq!(&buf[0..4], b"ADKV");
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(buf[8..16].try_into().unwrap()), 7);
        assert_eq!(
            u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            crc32(b"payload")
        );
        assert_eq!(&buf[20..], b"payload");
    }

    #[test]
    fn append_durable_syncs_before_returning() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        let seq = wal.append_durable(b"rec-1", &rt);
        assert_eq!(seq, 1);
        // Durability, not just buffering: the synced prefix contains the
        // whole record by the time the call returns.
        let synced = disk.synced(WAL_BASE);
        assert_eq!(synced.len(), HEADER_LEN + 5);
        assert_eq!(wal.durable_seq(), 1);
        assert_eq!(wal.stats().records, 1);
        assert_eq!(wal.stats().batches, 1);
    }

    #[test]
    fn a_lone_appender_pays_one_sync_per_record() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        for i in 0..5u64 {
            assert_eq!(wal.append_durable(format!("r{i}").as_bytes(), &rt), i + 1);
        }
        assert_eq!(disk.sync_count(), 5);
        let s = wal.stats();
        assert_eq!(s.records, 5);
        assert_eq!(s.batches, 5);
        assert!((s.coalescing() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn group_commit_coalesces_concurrent_appends() {
        // A disk whose sync dawdles long enough that concurrent
        // appenders pile up behind the in-flight leader — forcing at
        // least one multi-record batch.
        let disk = MemDisk::new();
        disk.set_sync_delay(std::time::Duration::from_millis(2));
        let wal = Arc::new(wal_on(&disk, 1));
        let rt = Arc::new(Runtime::new(TmConfig::stm()));
        let threads = 8;
        let per = 10u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    for i in 0..per {
                        wal.append_durable(format!("t{t}i{i}").as_bytes(), &rt);
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.records, threads * per);
        assert!(
            stats.batches < stats.records,
            "no coalescing: {} batches for {} records",
            stats.batches,
            stats.records
        );
        assert_eq!(disk.sync_count(), stats.batches);
        // All bytes are durable.
        assert_eq!(disk.synced(WAL_BASE), disk.written(WAL_BASE));
        assert_eq!(wal.durable_seq(), threads * per);
    }

    #[test]
    fn an_unforced_append_writes_nothing_and_rides_the_next_batch() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        assert_eq!(wal.append(b"lazy", &rt), 1);
        assert!(read(&disk, WAL_BASE).unwrap().is_empty());
        assert_eq!(wal.durable_seq(), 0);
        let s = wal.stats();
        // Not written, so not counted; never waited, so never timed.
        assert_eq!((s.records, s.batches, s.bytes), (0, 0, 0));
        assert_eq!(s.append_ns.count(), 0);

        // The next forced append's batch carries it, in order.
        assert_eq!(wal.append_durable(b"forced", &rt), 2);
        assert_eq!(disk.sync_count(), 1, "one write for both");
        let mut both = Vec::new();
        frame_record(&mut both, 1, b"lazy");
        frame_record(&mut both, 2, b"forced");
        assert_eq!(disk.synced(WAL_BASE), both);
        assert_eq!(wal.durable_seq(), 2);
        let s = wal.stats();
        assert_eq!((s.records, s.batches), (2, 1), "counted once, when written");
        assert_eq!(s.bytes, both.len() as u64);
        assert_eq!(s.append_ns.count(), 1, "forced appends only");
    }

    #[test]
    fn sync_through_flush_and_rotate_write_pending_records() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        let seq = wal.append(b"one", &rt);
        drop(wal.sync_locked(wal.state.lock(), seq, &rt));
        assert_eq!(wal.durable_seq(), 1);
        drop(wal.sync_locked(wal.state.lock(), seq, &rt));
        assert_eq!(disk.sync_count(), 1, "already durable: nothing to do");

        wal.append(b"two", &rt);
        wal.append(b"three", &rt);
        assert_eq!(wal.flush(&rt), 3);
        assert_eq!(wal.stats().batches, 2);

        // The cut covers a record that was only in memory when the
        // rotation began: it is in the old segment, durable, not above
        // the cut in the new one.
        wal.append(b"four", &rt);
        assert_eq!(wal.rotate(&rt).unwrap(), 4);
        let mut all = Vec::new();
        for (i, payload) in [&b"one"[..], b"two", b"three", b"four"].iter().enumerate() {
            frame_record(&mut all, i as u64 + 1, payload);
        }
        assert_eq!(disk.synced(WAL_BASE), all);
        assert!(read(&disk, "wal.seg00000000000000000005")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn seq_numbers_resume_after_recovery_point() {
        let wal = wal_on(&MemDisk::new(), 42);
        let rt = Runtime::new(TmConfig::stm());
        assert_eq!(wal.durable_seq(), 41);
        assert_eq!(wal.append_durable(b"x", &rt), 42);
    }

    #[test]
    fn rotation_moves_appends_to_a_new_segment_and_drop_frees_old() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        wal.append_durable(b"before-1", &rt);
        wal.append_durable(b"before-2", &rt);

        let cut = wal.rotate(&rt).unwrap();
        assert_eq!(cut, 2);
        wal.append_durable(b"after-3", &rt);

        let seg = "wal.seg00000000000000000003";
        let old = disk.written(WAL_BASE);
        let new = disk.written(seg);
        assert!(!old.is_empty() && !new.is_empty());
        // Record 3 is only in the new segment.
        let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
        assert!(find(&new, b"after-3") && !find(&old, b"after-3"));

        let freed = wal.drop_rotated().unwrap();
        assert_eq!(freed, old.len() as u64);
        assert!(read(&disk, WAL_BASE).is_none(), "old segment deleted");
        assert_eq!(disk.written(seg), new);
    }

    #[test]
    fn re_rotating_at_the_same_cut_reuses_the_active_segment() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        wal.append_durable(b"r1", &rt);
        assert_eq!(wal.rotate(&rt).unwrap(), 1);
        // Checkpoint retry after a failed publish (no intervening
        // appends): the second rotate targets the segment appends
        // already go to and must not queue it for deletion.
        assert_eq!(wal.rotate(&rt).unwrap(), 1);
        let seg = "wal.seg00000000000000000002";
        assert!(read(&disk, seg).is_some());
        let freed = wal.drop_rotated().unwrap();
        assert!(freed > 0, "the pre-cut segment is still reclaimed");
        assert!(
            read(&disk, seg).is_some(),
            "active segment survived drop_rotated"
        );
        // The WAL is still writable on the surviving segment.
        wal.append_durable(b"r2", &rt);
        assert!(!read(&disk, seg).unwrap().is_empty());
    }

    #[test]
    fn memdisk_crash_images_replay_the_journal() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        wal.append_durable(b"abc", &rt);
        let n = disk.journal_len();
        wal.append_durable(b"def", &rt);

        // Optimistic image mid-way through the second append keeps a
        // byte-level prefix of it; pessimistic image drops unsynced bytes.
        let len2 = disk.event_append_len(n).unwrap();
        let img = disk.crash_image(n, len2 / 2, false);
        let full = disk.written(WAL_BASE);
        assert_eq!(
            img.written(WAL_BASE),
            full[..full.len() - (len2 - len2 / 2)].to_vec()
        );
        let pess = disk.crash_image(n, len2 / 2, true);
        let first_rec_len = HEADER_LEN + 3;
        assert_eq!(pess.written(WAL_BASE).len(), first_rec_len);
    }
}
