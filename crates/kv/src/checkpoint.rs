//! Checkpointing: turn the durable tier from "append-only log with
//! replay" into `snapshot + WAL suffix`, with bounded log size and
//! recovery proportional to the suffix.
//!
//! ## Snapshot format
//!
//! ```text
//! header:  magic u32 ("ADSN") | version u32 (1)
//! record:  klen u32 | vlen u32 | key[klen] | value[vlen] | crc u32
//! footer:  magic u32 ("ADSF") | cut u64 | count u64 | crc u32
//! ```
//!
//! Little-endian throughout. Each record's `crc` is CRC-32 (IEEE) over
//! `klen | vlen | key | value`; the footer's is over `cut | count`. The
//! footer carries the WAL *cut*: the snapshot is exactly the committed
//! state produced by records `1..=cut`, so recovery replays only
//! `seq > cut`. Unlike the WAL (longest-valid-prefix), snapshot
//! validation is all-or-nothing — a snapshot missing its footer or
//! failing any CRC is rejected entirely and recovery falls back to the
//! previous one.
//!
//! ## Publish protocol (never write in place)
//!
//! 1. write the serialized snapshot to `snapshot.tmp`, fsync it;
//! 2. rename `snapshot.cur` → `snapshot.prev` (keep one fallback);
//! 3. rename `snapshot.tmp` → `snapshot.cur` (atomic publish);
//! 4. fsync the directory;
//! 5. only then delete the WAL segments the snapshot covers.
//!
//! A crash anywhere in that sequence leaves either the old pair (steps
//! 1–2) or the new snapshot plus not-yet-deleted segments (steps 3–5);
//! both recover to a committed prefix — see the crash matrix in
//! `tests/ckpt_recovery.rs` and DESIGN.md §13.
//!
//! ## A checkpoint is recovery, re-encoded
//!
//! The cut is `durable_seq` taken by [`Wal::rotate`] with no group
//! leader in flight and the pending buffer flushed, so segment contents
//! split exactly at the cut and no record — forced or not — exists only
//! in memory at it. What lies below the cut is then a set of closed
//! files — the published snapshots and the rotated-out segments — that no
//! transaction writes again, and the checkpointer reads them with the
//! scan [`KvStore::open`](crate::KvStore::open) runs. The scan must end
//! clean, exactly at the cut; otherwise the checkpoint publishes nothing,
//! deletes nothing and returns [`io::ErrorKind::InvalidData`]. The
//! snapshot is the old snapshot with every record through the cut folded
//! in — the *exact* committed state at the cut — so `snapshot + suffix`
//! is what a reopen of the same disk without the checkpoint would have
//! rebuilt (DESIGN.md §13.1).

use std::io;
use std::sync::Arc;
use std::time::Instant;

use ad_stm::{AppEvent, Runtime};
use ad_support::crc32::crc32;
use ad_support::hist::{Histogram, HistogramSnapshot};
use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::Mutex;

use crate::disk::{Disk, SNAP_CUR, SNAP_PREV, SNAP_TMP};
use crate::recover::{KeyMap, ScanEnd};
use crate::wal::Wal;

/// Trace event: a checkpoint started; `arg` = the durable WAL sequence at
/// the moment the checkpointer woke up — the cut will be at least this.
pub static CKPT_BEGIN: AppEvent = AppEvent::new("ckpt_begin", "arg");

/// Trace event: a checkpoint's snapshot was durably published (tmp
/// written, fsynced, renamed over current, directory fsynced); `arg` = the
/// snapshot's size in bytes.
pub static CKPT_PUBLISH: AppEvent = AppEvent::new("ckpt_publish", "arg");

/// Trace event: WAL segments covered by a published snapshot were
/// deleted; `arg` = bytes freed.
pub static WAL_TRUNCATE: AppEvent = AppEvent::new("wal_truncate", "arg");

/// Snapshot header magic: `b"ADSN"` little-endian.
pub const SNAP_MAGIC: u32 = u32::from_le_bytes(*b"ADSN");
/// Snapshot footer magic: `b"ADSF"` little-endian. Greater than any
/// sane `klen`, so the decoder can tell footer from record.
pub const SNAP_FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"ADSF");
/// Snapshot format version.
pub const SNAP_VERSION: u32 = 1;
/// Sanity bound on snapshot key/value lengths (same spirit as
/// [`crate::wal::MAX_PAYLOAD`]).
const SNAP_MAX_FIELD: u32 = 1 << 28;

/// Serialize the committed state `map` as of WAL cut `cut`.
pub fn encode_snapshot<'a, I>(cut: u64, entries: I) -> Vec<u8>
where
    I: IntoIterator<Item = (&'a Arc<str>, &'a Arc<[u8]>)>,
{
    let mut out = Vec::new();
    out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    let mut count = 0u64;
    for (k, v) in entries {
        let rec_start = out.len();
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(v);
        let crc = crc32(&out[rec_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        count += 1;
    }
    out.extend_from_slice(&SNAP_FOOTER_MAGIC.to_le_bytes());
    let foot_start = out.len();
    out.extend_from_slice(&cut.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    let crc = crc32(&out[foot_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode and validate a snapshot. All-or-nothing: any CRC failure,
/// truncation, count mismatch, or missing footer rejects the whole
/// snapshot (`None`) and the caller falls back to the previous one.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(u64, KeyMap)> {
    fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
        let end = at.checked_add(n)?;
        let s = bytes.get(*at..end)?;
        *at = end;
        Some(s)
    }
    fn u32_at(bytes: &[u8], at: &mut usize) -> Option<u32> {
        Some(u32::from_le_bytes(take(bytes, at, 4)?.try_into().ok()?))
    }
    fn u64_at(bytes: &[u8], at: &mut usize) -> Option<u64> {
        Some(u64::from_le_bytes(take(bytes, at, 8)?.try_into().ok()?))
    }

    let mut at = 0usize;
    if u32_at(bytes, &mut at)? != SNAP_MAGIC || u32_at(bytes, &mut at)? != SNAP_VERSION {
        return None;
    }
    let mut map = std::collections::BTreeMap::new();
    let mut count = 0u64;
    loop {
        let rec_start = at;
        let first = u32_at(bytes, &mut at)?;
        if first == SNAP_FOOTER_MAGIC {
            let foot_start = at;
            let cut = u64_at(bytes, &mut at)?;
            let n = u64_at(bytes, &mut at)?;
            let crc = u32_at(bytes, &mut at)?;
            if crc != crc32(&bytes[foot_start..foot_start + 16]) || n != count || at != bytes.len()
            {
                return None;
            }
            return Some((cut, map));
        }
        let klen = first;
        let vlen = u32_at(bytes, &mut at)?;
        if klen >= SNAP_MAX_FIELD || vlen >= SNAP_MAX_FIELD {
            return None;
        }
        let key = std::str::from_utf8(take(bytes, &mut at, klen as usize)?).ok()?;
        let key: Arc<str> = Arc::from(key);
        let value: Arc<[u8]> = Arc::from(take(bytes, &mut at, vlen as usize)?);
        let crc = u32_at(bytes, &mut at)?;
        if crc != crc32(&bytes[rec_start..at - 4]) {
            return None;
        }
        map.insert(key, value);
        count += 1;
    }
}

/// Durably publish `bytes` as the current snapshot on `disk`, demoting
/// the old current to the previous slot — **the** publish protocol of the
/// module docs, steps 1–4, for every disk. Never writes in place.
pub fn publish_snapshot(disk: &dyn Disk, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = disk.create(SNAP_TMP)?;
    tmp.append(bytes)?;
    tmp.sync()?;
    drop(tmp);
    match disk.rename(SNAP_CUR, SNAP_PREV) {
        // First checkpoint: there is no current snapshot to demote.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        other => other?,
    }
    disk.rename(SNAP_TMP, SNAP_CUR)?;
    disk.sync_dir()
}

/// When checkpoints run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptPolicy {
    /// Only when [`crate::KvStore::checkpoint`] is called.
    Manual,
    /// A background thread checkpoints whenever the WAL has grown past
    /// the threshold since the last cut.
    Auto {
        /// Checkpoint after this many WAL bytes since the last cut.
        wal_bytes: u64,
    },
}

/// Outcome of one checkpoint attempt.
#[derive(Debug, Clone, Copy)]
pub struct CkptReport {
    /// Whether a snapshot was actually published (false when nothing
    /// new was durable since the last cut).
    pub performed: bool,
    /// The WAL cut the current snapshot covers.
    pub cut: u64,
    /// Live keys in the published snapshot.
    pub keys: u64,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// WAL segment bytes deleted after the publish.
    pub wal_bytes_dropped: u64,
    /// Wall-clock duration of the checkpoint, nanoseconds.
    pub duration_ns: u64,
}

/// Cumulative checkpoint counters (relaxed: diagnostics, not
/// synchronization), snapshotted by [`Checkpointer::stats`].
#[derive(Default)]
struct CkptCounters {
    count: AtomicU64,
    bytes: AtomicU64,
    wal_truncated_bytes: AtomicU64,
    last_cut: AtomicU64,
    duration_ns: Histogram,
}

/// A snapshot of the checkpoint counters, with the same hand-rolled
/// stable-schema JSON as the rest of the workspace.
#[derive(Debug, Clone, Default)]
pub struct CkptStats {
    /// Snapshots published.
    pub count: u64,
    /// Cumulative serialized snapshot bytes.
    pub bytes: u64,
    /// Cumulative WAL bytes reclaimed by post-publish truncation.
    pub wal_truncated_bytes: u64,
    /// The WAL cut the current snapshot covers.
    pub last_cut: u64,
    /// Checkpoint wall-clock duration histogram, ns.
    pub duration_ns: HistogramSnapshot,
}

impl CkptStats {
    /// Stable-schema JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"bytes\":{},\"wal_truncated_bytes\":{},\"last_cut\":{},\
             \"duration_ns\":{}}}",
            self.count,
            self.bytes,
            self.wal_truncated_bytes,
            self.last_cut,
            self.duration_ns.to_json(),
        )
    }
}

/// Publishes `{snapshot, WAL cut}` pairs; one checkpoint at a time.
/// All of its I/O happens here — on the caller's thread or the store's
/// background trigger thread — never inside an atomic section.
pub struct Checkpointer {
    wal: Arc<Wal>,
    disk: Arc<dyn Disk>,
    /// Serializes checkpoints; holds the cut of the last published one.
    last_cut: Mutex<u64>,
    counters: CkptCounters,
    policy: CkptPolicy,
    /// [`Wal::bytes_appended`] at the last cut.
    bytes_mark: AtomicU64,
}

impl Checkpointer {
    /// A checkpointer over `wal`, publishing to `disk` (the one the WAL's
    /// segments live on). `last_cut` is the cut of the snapshot recovery
    /// loaded (0 if none); `policy` configures the background trigger
    /// threshold.
    pub fn new(wal: Arc<Wal>, disk: Arc<dyn Disk>, last_cut: u64, policy: CkptPolicy) -> Self {
        Checkpointer {
            wal,
            disk,
            last_cut: Mutex::new(last_cut),
            counters: CkptCounters::default(),
            policy,
            bytes_mark: AtomicU64::new(0),
        }
    }

    /// Run one checkpoint (see the module docs for the protocol).
    /// Serialized: a second caller blocks until the first finishes,
    /// then usually observes nothing new and returns a skipped report.
    pub fn run(&self, rt: &Runtime) -> io::Result<CkptReport> {
        let mut last_cut = self.last_cut.lock();
        let t0 = Instant::now();
        // Flush first: an unforced record still in the pending buffer is
        // new data too, and the cut below must cover it.
        let durable = self.wal.flush(rt);
        if durable <= *last_cut {
            return Ok(CkptReport {
                performed: false,
                cut: *last_cut,
                keys: 0,
                snapshot_bytes: 0,
                wal_bytes_dropped: 0,
                duration_ns: 0,
            });
        }
        rt.trace_app(&CKPT_BEGIN, durable);
        // 1. Quiescent cut + fresh segment: records > cut land in the
        //    new segment, the old ones become immutable.
        let cut = self.wal.rotate(rt)?;
        self.bytes_mark
            .store(self.wal.bytes_appended(), Ordering::Relaxed);
        // 2. Recover the closed prefix. A scan that stops anywhere but
        //    cleanly at the cut found a damaged file: refuse — nothing is
        //    published, no segment is deleted.
        let prefix = self.wal.recover_rotated()?;
        if prefix.report.end != ScanEnd::Clean || prefix.report.last_seq != cut {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint at cut {cut}: the closed log prefix scans to {} ({:?})",
                    prefix.report.last_seq, prefix.report.end
                ),
            ));
        }
        // 3. Fold it the way open replays it, and serialize.
        let image = prefix.into_image();
        let keys = image.len() as u64;
        let bytes = encode_snapshot(cut, image.iter());
        // 4. Durable, atomic publish.
        publish_snapshot(&*self.disk, &bytes)?;
        rt.trace_app(&CKPT_PUBLISH, bytes.len() as u64);
        // 5. Only now is it safe to drop the covered segments.
        let freed = self.wal.drop_rotated()?;
        rt.trace_app(&WAL_TRUNCATE, freed);
        *last_cut = cut;

        self.counters.count.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.counters
            .wal_truncated_bytes
            .fetch_add(freed, Ordering::Relaxed);
        self.counters.last_cut.store(cut, Ordering::Relaxed);
        let duration_ns = t0.elapsed().as_nanos() as u64;
        self.counters.duration_ns.record(duration_ns);
        Ok(CkptReport {
            performed: true,
            cut,
            keys,
            snapshot_bytes: bytes.len() as u64,
            wal_bytes_dropped: freed,
            duration_ns,
        })
    }

    /// Cheap threshold check for the background trigger (two relaxed
    /// loads; called from deferred ops, so it must not block).
    pub fn should_trigger(&self) -> bool {
        match self.policy {
            CkptPolicy::Manual => false,
            CkptPolicy::Auto { wal_bytes } => {
                self.wal.bytes_appended() - self.bytes_mark.load(Ordering::Relaxed) >= wal_bytes
            }
        }
    }

    /// The policy this checkpointer was opened with.
    pub fn policy(&self) -> CkptPolicy {
        self.policy
    }

    /// Snapshot the checkpoint counters.
    pub fn stats(&self) -> CkptStats {
        CkptStats {
            count: self.counters.count.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            wal_truncated_bytes: self.counters.wal_truncated_bytes.load(Ordering::Relaxed),
            last_cut: self.counters.last_cut.load(Ordering::Relaxed),
            duration_ns: self.counters.duration_ns.snapshot(),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> BTreeMap<Arc<str>, Arc<[u8]>> {
        let mut m: BTreeMap<Arc<str>, Arc<[u8]>> = BTreeMap::new();
        m.insert(Arc::from("alpha"), Arc::from(&b"1"[..]));
        m.insert(Arc::from("beta"), Arc::from(&[0u8; 100][..]));
        m.insert(Arc::from("gamma"), Arc::from(&b""[..]));
        m
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let m = sample();
        let bytes = encode_snapshot(42, m.iter());
        let (cut, back) = decode_snapshot(&bytes).expect("valid snapshot");
        assert_eq!(cut, 42);
        assert_eq!(back, m);

        let empty = encode_snapshot(7, std::iter::empty());
        let (cut, back) = decode_snapshot(&empty).expect("empty snapshot is valid");
        assert_eq!(cut, 7);
        assert!(back.is_empty());
    }

    #[test]
    fn snapshot_validation_is_all_or_nothing() {
        let bytes = encode_snapshot(42, sample().iter());
        // Any truncation is rejected — even one that ends exactly on a
        // record boundary (the footer is gone).
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_none(),
                "truncation at {cut} accepted"
            );
        }
        // Any single corrupt byte is rejected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(
                decode_snapshot(&bad).is_none(),
                "corrupt byte at {i} accepted"
            );
        }
    }
}
