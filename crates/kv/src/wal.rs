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
//! and its record rides whichever batch is written next — or, once a
//! chunk of them is pending, writes the batch itself. Records enter the
//! buffer in `seq` order under the state lock, which also means WAL order
//! agrees with commit order for any two transactions that touched a common
//! shard (their deferred appends are serialized by the shard's `TxLock`).
//!
//! The first appender to need durability becomes a *leader*: it takes the
//! whole buffer — its own record and every concurrent or unforced one —
//! and carries it through two stages.
//!
//! 1. **Write.** One leader at a time, under the segments lock: the batch
//!    goes to the end of the log (below), and `written_seq` moves to its
//!    last record. Batches are written in `seq` order.
//! 2. **Sync.** With no WAL lock held, on a sync handle of the active
//!    segment that the leader took in the write stage. The next leader may
//!    write its batch, and sync it on another handle, while this sync is
//!    still in flight.
//!
//! A sync covers every byte written before it began, so when a leader's
//! sync returns, its batch and every batch written before it are durable.
//! `durable_seq` passes the batches in the order they were written, each
//! once its own sync has returned; a batch whose sync returns first waits
//! for the one ahead of it, whose sync alone would report that batch's
//! writeback error. N concurrently-committing transactions cost one
//! fsync, not N, and a record that arrives while a sync is in flight is
//! written at once instead of queueing behind that sync. At most
//! [`MAX_SYNCS_IN_FLIGHT`] syncs run at once: a later appender waits, and
//! its record coalesces into the next batch. A lone appender's batch is
//! its own record: one write + fsync per record.
//!
//! **Fail-stop.** Linux reports a failed writeback once per open file: of
//! two overlapping `fsync`s through one file descriptor, only the first
//! to check sees it, and the other may return `Ok` for bytes that were
//! lost. So the segment is opened once more per sync slot, and each sync
//! in flight runs on a handle of its own, last synced before its batch
//! was written: a writeback error in its batch fails it, whichever sync
//! met the error first ([`DiskFile`]). A failed zero fill, write or sync
//! poisons the log, under its state lock, before the leader panics.
//! `durable_seq` never passes the failed batch, nor moves at all once the
//! log has failed, and every waiter and every later appender panics with
//! the first error instead of waiting for a batch that will never be
//! durable.
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

use std::collections::VecDeque;
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
/// Syncs a log lets run at once (module docs, "Group commit"): one in
/// flight and one more whose batch was written while it ran. A depth of 1
/// is the one-leader-at-a-time protocol this replaced. Measured against
/// it on `shard_cross` (2 cores, alternating 10 s pairs): depth 2 read the
/// higher `throughput_refdisk_ops_s` in all 32 pairs run, by a median of
/// +9.7 % over the first 22 — a gap inside the interquartile range of
/// depth 1's runs — and +18.5 % over the last 10; `wal.queue_wait_us`
/// fell from 27 µs to 5 µs. With no bound,
/// every appender that arrives during a sync starts one of its own and
/// nothing is left to coalesce: `group_commit_coalesces_through_the_store`
/// failed in 2 of 6 runs (EXPERIMENTS.md, "A WAL batch's sync overlaps the
/// next batch"). Each slot costs the active segment one more open file.
pub const MAX_SYNCS_IN_FLIGHT: usize = 2;

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
/// condvar wakes waiters when a stage ends).
struct WalState {
    /// Framed records awaiting the next batch write.
    pending: Vec<u8>,
    /// Records currently framed into `pending`.
    pending_records: u64,
    /// Next sequence number to assign (first record is seq 1).
    next_seq: u64,
    /// Highest sequence number written to the log, synced or not.
    written_seq: u64,
    /// Highest sequence number known durable.
    durable_seq: u64,
    /// A leader is in the write stage.
    writing: bool,
    /// The batches whose syncs are in flight, in the order they were
    /// written: each one's last seq, and whether its sync has returned.
    syncing: VecDeque<(u64, bool)>,
    /// The first I/O error: once set, nothing is written or made durable
    /// again, and every appender and waiter panics with it.
    failed: Option<String>,
}

impl WalState {
    /// Panic with the first error if the log has failed.
    fn check(&self) {
        if let Some(e) = &self.failed {
            panic!("{e}");
        }
    }
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
    /// Batches whose sync began while another was in flight.
    overlapped: AtomicU64,
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

/// The files the log spans: the open handles of the active segment (so a
/// batch is one `write_at` + one `sync`, no lookup by name), where in it
/// the next batch goes, and the rotated-out segments awaiting
/// [`Wal::drop_rotated`].
struct Segments {
    /// The handle batches are written through.
    active: Box<dyn DiskFile>,
    /// The idle sync handles of the active segment, opened with it: one
    /// per sync that may be in flight, each its own open file, so a
    /// writeback error fails every sync that overlaps it ([`DiskFile`]).
    /// A leader takes one in the write stage and puts it back when its
    /// sync returns.
    syncers: Vec<Box<dyn DiskFile>>,
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
    fn fresh(disk: &dyn Disk, active: Box<dyn DiskFile>, active_name: String) -> io::Result<Self> {
        let syncers = (0..MAX_SYNCS_IN_FLIGHT)
            .map(|_| disk.open_append(&active_name))
            .collect::<io::Result<_>>()?;
        Ok(Segments {
            active,
            syncers,
            active_name,
            write_off: 0,
            len: 0,
            old: Vec::new(),
        })
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
        let segments = Segments::fresh(&*disk, active, name)?;
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
                written_seq: next_seq - 1,
                durable_seq: next_seq - 1,
                writing: false,
                syncing: VecDeque::with_capacity(MAX_SYNCS_IN_FLIGHT),
                failed: None,
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
                    ..Segments::fresh(&*disk, file, name)?
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
    /// into the pending buffer and return — nothing is written, unless
    /// the buffer now holds [`PREALLOC_CHUNK`] or more: then it is written
    /// out as a group-commit batch before the call returns, so a log that
    /// only ever takes unforced appends holds at most a chunk in memory.
    /// Otherwise the record reaches the disk with the next batch anyone
    /// writes on this log (a leader takes the whole buffer), so every
    /// later durable record implies it; [`rotate`](Self::rotate) and
    /// [`flush`](Self::flush) write it out themselves. For records whose
    /// loss a crash can repair from elsewhere — a participant's `Decided`
    /// echo of a slice its coordinator's durable record carries.
    pub fn append(&self, payload: &[u8], rt: &Runtime) -> u64 {
        let mut st = self.state.lock();
        let seq = self.frame(&mut st, payload, rt);
        if st.pending.len() >= PREALLOC_CHUNK {
            drop(self.sync_locked(st, seq, rt));
        }
        seq
    }

    /// Make every record appended so far durable; returns the highest
    /// durable sequence number.
    pub fn flush(&self, rt: &Runtime) -> u64 {
        let st = self.state.lock();
        let last = st.next_seq - 1;
        self.sync_locked(st, last, rt).durable_seq
    }

    fn frame(&self, st: &mut WalState, payload: &[u8], rt: &Runtime) -> u64 {
        st.check();
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
        loop {
            st.check();
            if st.durable_seq >= seq {
                return st;
            }
            if st.written_seq >= seq || st.writing || st.syncing.len() >= MAX_SYNCS_IN_FLIGHT {
                // `seq` is written and a sync carries it, or the write
                // stage or the sync slots are taken: wait for a stage to
                // end.
                self.durable_cv.wait(&mut st);
            } else {
                st = self.lead(st, rt);
            }
        }
    }

    /// Carry everything framed so far — the caller's record plus any
    /// concurrent or unforced appenders' — through both stages as one
    /// batch (module docs, "Group commit").
    fn lead<'a>(
        &'a self,
        mut st: MutexGuard<'a, WalState>,
        rt: &Runtime,
    ) -> MutexGuard<'a, WalState> {
        st.writing = true;
        let batch = std::mem::take(&mut st.pending);
        let records = std::mem::take(&mut st.pending_records);
        let batch_hi = st.next_seq - 1;
        drop(st);

        let started = Instant::now();
        let written = self.write_batch(&batch);
        st = self.state.lock();
        st.writing = false;
        let (file, extends) = match written {
            Ok(w) => w,
            Err(e) => self.fail(&mut st, "write", e),
        };
        st.written_seq = batch_hi;
        if !st.syncing.is_empty() {
            self.counters.overlapped.fetch_add(1, Ordering::Relaxed);
        }
        st.syncing.push_back((batch_hi, false));
        // The write stage is free: the next leader may write behind us.
        self.durable_cv.notify_all();
        drop(st);

        let synced = self.sync_batch(file);
        st = self.state.lock();
        if let Err(e) = synced {
            self.fail(&mut st, "fsync", e);
        }
        // Another batch's failure stops this one too: nothing is made
        // durable once the log has failed.
        st.check();
        st.syncing
            .iter_mut()
            .find(|(hi, _)| *hi == batch_hi)
            .expect("a batch stays queued until its own sync returns")
            .1 = true;
        self.pass_synced(&mut st);
        #[cfg(all(test, loom))]
        if crate::verify::DURABLE_MARK_PAST_SYNC.with(std::cell::Cell::get) {
            // DELIBERATELY BUGGY for `verify`'s mutant: the mark jumps to
            // whatever is written by now, past the batch this sync covers.
            st.durable_seq = st.durable_seq.max(st.written_seq);
        }
        self.durable_cv.notify_all();

        self.counters
            .fsync_ns
            .record(started.elapsed().as_nanos() as u64);
        if extends {
            self.counters.extends.fetch_add(1, Ordering::Relaxed);
        }
        self.count_batch(batch.len(), records, rt);
        st
    }

    /// Advance `durable_seq` over the batches at the head of the sync
    /// queue whose syncs have returned, in the order they were written.
    /// A failed batch stays at the head, so nothing passes it.
    fn pass_synced(&self, st: &mut WalState) {
        while let Some(&(hi, true)) = st.syncing.front() {
            st.durable_seq = st.durable_seq.max(hi);
            st.syncing.pop_front();
        }
    }

    /// Poison the log with `e` (the first error stays), wake every
    /// waiter so that it panics too, and panic.
    fn fail(&self, st: &mut WalState, stage: &str, e: io::Error) -> ! {
        let first = st
            .failed
            .get_or_insert_with(|| format!("WAL {stage} failed: {e}"));
        self.durable_cv.notify_all();
        panic!("{first}");
    }

    /// Write the pending buffer and sync it with the state lock held
    /// (rotation's flush, which keeps anyone from framing behind it; no
    /// other stage is running).
    fn write_pending(&self, st: &mut WalState, rt: &Runtime) {
        let batch = std::mem::take(&mut st.pending);
        let records = std::mem::take(&mut st.pending_records);
        if let Err(e) = self
            .write_batch(&batch)
            .and_then(|(file, _)| self.sync_batch(file))
        {
            self.fail(st, "flush", e);
        }
        st.written_seq = st.next_seq - 1;
        st.durable_seq = st.written_seq;
        self.count_batch(batch.len(), records, rt);
    }

    /// The write stage: one framed batch to the active segment, right
    /// after its last record — after zero-filling a chunk first if a short
    /// batch would run past the end (module docs). Returns the sync handle
    /// the batch is to be synced on and whether the batch grew the file.
    fn write_batch(&self, batch: &[u8]) -> io::Result<(Box<dyn DiskFile>, bool)> {
        let mut seg = self.segments.lock();
        let end = seg.write_off + batch.len() as u64;
        let extends = end > seg.len;
        if extends && batch.len() < PREALLOC_CHUNK {
            seg.active.zero_extend(PREALLOC_CHUNK as u64)?;
            seg.len += PREALLOC_CHUNK as u64;
        }
        let write_off = seg.write_off;
        seg.active.write_at(write_off, batch)?;
        seg.write_off = end;
        seg.len = seg.len.max(end);
        // A leader writes only while fewer than `MAX_SYNCS_IN_FLIGHT`
        // batches await their syncs, each holding one handle.
        let file = seg.syncers.pop().expect("a sync handle per sync slot");
        Ok((file, extends))
    }

    /// The sync stage, with no WAL lock held: sync `file` and put it back
    /// among the idle sync handles — before the leader frees its sync
    /// slot, so the next leader finds one.
    fn sync_batch(&self, mut file: Box<dyn DiskFile>) -> io::Result<()> {
        let synced = file.sync();
        self.segments.lock().syncers.push(file);
        synced
    }

    /// Count a durable batch: records and bytes are counted here, when
    /// their batch is synced, however they were appended.
    fn count_batch(&self, bytes: usize, records: u64, rt: &Runtime) {
        self.counters.records.fetch_add(records, Ordering::Relaxed);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        rt.trace_app(&WAL_FSYNC, records);
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.state.lock().durable_seq
    }

    /// Rotate the log at a quiescent cut: waits out the writer and every
    /// sync in flight, writes out whatever is still pending, then starts a fresh
    /// segment whose first record will be `cut + 1`. Returns the cut — the
    /// highest durable sequence, which is also the highest *assigned* one:
    /// every record framed before the cut is in pre-rotation segments,
    /// durable, and every later record lands in the new segment. (Without
    /// the flush an unforced record could sit in memory above the cut: a
    /// participant's echo whose slice the snapshot at the cut then lacks,
    /// and which a crash would leave to its coordinator's record alone.)
    /// The old segments survive until [`Wal::drop_rotated`].
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
        // Wait out the leaders in flight, then flush with the lock held:
        // nobody frames until the new segment is in place, so the cut is
        // exact and nothing is pending at it. A failed log has no cut.
        loop {
            if let Some(e) = &st.failed {
                return Err(io::Error::other(e.clone()));
            }
            if !st.writing && st.syncing.is_empty() {
                break;
            }
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
            let next = Segments::fresh(&*self.disk, next, name)?;
            let prev = std::mem::replace(&mut *seg, next);
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

    /// Batches whose sync began while another batch's sync was in flight
    /// (module docs, "Group commit").
    pub fn overlapped(&self) -> u64 {
        self.counters.overlapped.load(Ordering::Relaxed)
    }

    /// Batches whose sync also grew the active segment: the ones that
    /// zero-filled a chunk first or were a chunk long — about one per
    /// [`PREALLOC_CHUNK`] of log.
    pub fn extends(&self) -> u64 {
        self.counters.extends.load(Ordering::Relaxed)
    }

    /// [`WalStats::to_json`] with `"extends"` ([`Wal::extends`]) and
    /// `"overlapped"` ([`Wal::overlapped`]) added: counts kept out of
    /// [`WalStats`], whose fields callers construct by name.
    pub fn stats_json(&self) -> String {
        let mut json = self.stats().to_json();
        json.pop(); // the closing brace
        format!(
            "{json},\"extends\":{},\"overlapped\":{}}}",
            self.extends(),
            self.overlapped()
        )
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

    /// Wait for `cond`, failing the test after a deadline instead of
    /// hanging it.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// An `append_durable` of `payload` on a thread of its own.
    fn spawn_append(
        wal: &Arc<Wal>,
        rt: &Arc<Runtime>,
        payload: &'static [u8],
    ) -> std::thread::JoinHandle<u64> {
        let (wal, rt) = (Arc::clone(wal), Arc::clone(rt));
        std::thread::spawn(move || wal.append_durable(payload, &rt))
    }

    /// Join `h` by a deadline; its panic message, if it panicked.
    fn join<T>(h: std::thread::JoinHandle<T>) -> Result<T, String> {
        wait_until("an appender to return or panic", || h.is_finished());
        h.join().map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "a non-string panic".into())
        })
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

    /// Eight appenders behind held syncs: two syncs in flight — the first
    /// batch's and the one written while it ran — and never a third; the
    /// other six records wait and go out as one batch.
    #[test]
    fn at_most_two_syncs_run_at_once_and_the_rest_coalesce() {
        let disk = MemDisk::new();
        let wal = Arc::new(wal_on(&disk, 1));
        let rt = Arc::new(Runtime::new(TmConfig::stm()));
        disk.hold_syncs();
        let mut appenders = vec![spawn_append(&wal, &rt, b"first")];
        wait_until("the first sync", || disk.syncs_waiting() == 1);
        appenders.push(spawn_append(&wal, &rt, b"second"));
        wait_until("an overlapping sync", || disk.syncs_waiting() == 2);
        assert_eq!(wal.overlapped(), 1);
        for _ in 0..6 {
            appenders.push(spawn_append(&wal, &rt, b"later"));
        }
        wait_until("every record framed", || wal.state.lock().next_seq == 9);
        // Time for a third leader to start the sync it must not start.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(disk.syncs_waiting(), MAX_SYNCS_IN_FLIGHT as u64);
        assert_eq!(wal.durable_seq(), 0, "nothing is durable behind held syncs");

        disk.release_syncs();
        for h in appenders {
            join(h).unwrap();
        }
        let s = wal.stats();
        assert_eq!((s.records, s.batches), (8, 3));
        assert!((1..=2).contains(&wal.overlapped()));
        assert_eq!(disk.synced(WAL_BASE), disk.written(WAL_BASE));
        assert_eq!(wal.durable_seq(), 8);
    }

    /// A's and B's syncs in flight at once, on a held disk.
    fn two_overlapping_syncs(
        disk: &MemDisk,
    ) -> (
        Arc<Wal>,
        Arc<Runtime>,
        std::thread::JoinHandle<u64>,
        std::thread::JoinHandle<u64>,
    ) {
        let wal = Arc::new(wal_on(disk, 1));
        let rt = Arc::new(Runtime::new(TmConfig::stm()));
        disk.hold_syncs();
        let a = spawn_append(&wal, &rt, b"a");
        wait_until("A's sync", || disk.syncs_waiting() == 1);
        let b = spawn_append(&wal, &rt, b"b");
        wait_until("B's sync", || disk.syncs_waiting() == 2);
        (wal, rt, a, b)
    }

    /// A's sync fails; B's, which began while A's was in flight, has
    /// already succeeded and covers A's bytes on the disk — the error came
    /// after it. B is still not acked, `durable_seq` never passes A's
    /// batch, and a third appender panics with A's error instead of
    /// hanging.
    #[test]
    fn a_failed_sync_is_never_passed_and_stops_every_appender() {
        let disk = MemDisk::new();
        let (wal, rt, a, b) = two_overlapping_syncs(&disk);
        disk.release_latest_sync();
        wait_until("B's sync to return", || disk.sync_count() == 1);
        disk.fail_syncs(1);
        disk.release_syncs();

        let first = "WAL fsync failed: injected sync failure";
        let a_err = join(a).expect_err("A's sync failed");
        assert!(a_err.starts_with(first), "{a_err}");
        let b_err = join(b).expect_err("B is not acked");
        assert!(b_err.starts_with(first), "{b_err}");
        assert_eq!(wal.durable_seq(), 0, "durable_seq passed the failed batch");
        assert_eq!(
            disk.synced(WAL_BASE).len(),
            2 * (HEADER_LEN + 1),
            "B's sync succeeded"
        );

        let c_err = join(spawn_append(&wal, &rt, b"c")).expect_err("the log has failed");
        assert!(c_err.starts_with(first), "{c_err}");
        let e = wal.rotate(&rt).expect_err("a failed log has no cut");
        assert!(e.to_string().starts_with(first), "{e}");
        assert_eq!(wal.durable_seq(), 0);
    }

    /// The writeback of A's bytes fails while B's overlapping sync runs,
    /// and B's sync meets the error first. A's sync, on a handle of its
    /// own, reports it too: nothing is acked and nothing on the disk is
    /// durable. (Were both synced through one open file, the error would
    /// go to B's sync alone, and A's would return `Ok` for bytes that
    /// were lost.)
    #[test]
    fn an_error_the_later_sync_meets_first_fails_the_earlier_sync_too() {
        let disk = MemDisk::new();
        let (wal, _rt, a, b) = two_overlapping_syncs(&disk);
        disk.fail_syncs(1);
        disk.release_latest_sync();
        let first = "WAL fsync failed: injected sync failure";
        let b_err = join(b).expect_err("B's sync failed");
        assert!(b_err.starts_with(first), "{b_err}");
        disk.release_syncs();
        let a_err = join(a).expect_err("A is not acked");
        assert!(a_err.starts_with(first), "{a_err}");
        assert_eq!(wal.durable_seq(), 0);
        assert_eq!(disk.sync_count(), 0, "a sync returned Ok");
        assert!(disk.synced(WAL_BASE).is_empty());
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

    /// A log that only ever takes unforced appends keeps less than a
    /// chunk of them in memory: the append that fills the chunk writes
    /// the whole buffer out as one batch, itself included.
    #[test]
    fn unforced_appends_write_themselves_out_once_a_chunk_is_pending() {
        let disk = MemDisk::new();
        let wal = wal_on(&disk, 1);
        let rt = Runtime::new(TmConfig::stm());
        let payload = vec![7u8; 1000];
        let framed = HEADER_LEN + payload.len();
        let per_chunk = PREALLOC_CHUNK.div_ceil(framed) as u64;
        for seq in 1..per_chunk {
            assert_eq!(wal.append(&payload, &rt), seq);
        }
        assert_eq!((wal.durable_seq(), disk.sync_count()), (0, 0));
        wal.append(&payload, &rt);
        assert_eq!(wal.durable_seq(), per_chunk, "the filling append wrote all");
        assert_eq!(wal.stats().batches, 1);
        assert_eq!(disk.synced(WAL_BASE).len(), per_chunk as usize * framed);
        assert!(wal.state.lock().pending.is_empty());
        // The next one waits again.
        wal.append(&payload, &rt);
        assert_eq!(wal.durable_seq(), per_chunk);
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
