//! Crash recovery: scanning the WAL, truncating the torn tail, decoding
//! redo records.
//!
//! The durability contract (DESIGN.md §9): a transaction is acked only
//! after its deferred fsync returned, so after a crash the store must
//! come back as *exactly* the set of transactions whose records survive
//! as a valid WAL prefix — which is a superset of the acked ones (bytes
//! written but not yet synced may happen to survive) and never includes
//! a partial transaction (one redo record is one transaction; a record
//! either passes its checksum or is truncated away with everything after
//! it).
//!
//! The scan accepts records while: the header is complete, the magic
//! matches, the length is sane, the payload is complete, the CRC matches,
//! and the sequence number continues the chain. At a record boundary,
//! nothing but zero bytes up to the end of the segment is its clean end:
//! the zero tail the WAL fills ahead of its last record (no record starts
//! with a zero byte). It is counted as neither valid nor truncated, and
//! it stays on disk for appends to resume into. Anything else marks the
//! torn tail — a torn record followed by zeros is still torn; everything
//! from that offset on is discarded. This is deliberately prefix-only — a
//! record *after* a corrupt one may well be intact, but replaying across
//! a hole would reorder same-key updates.

use std::collections::BTreeMap;
use std::sync::Arc;

use ad_support::crc32::crc32;

use crate::checkpoint::decode_snapshot;
use crate::wal::{HEADER_LEN, MAGIC, MAX_PAYLOAD};

/// A batch's writes in application order: `Some(value)` is a put, `None`
/// a delete.
pub type RedoOps = Vec<(String, Option<Vec<u8>>)>;

/// What a redo record *means* to replay — the cross-shard commit protocol
/// (DESIGN.md §14) adds two staged kinds to the original single-shard one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedoKind {
    /// A single-shard transaction's writes: applied unconditionally.
    Local,
    /// One shard's staged slice of a cross-shard batch, durable before
    /// the participant acked. Replay **never** applies a prepare
    /// directly: its data becomes real only through a later
    /// [`RedoKind::Decided`] record with the same `gid` (written by this
    /// shard once it learned the outcome), or through recovery-time
    /// reconciliation when some shard's log proves the gid committed.
    /// An unresolvable prepare is presumed aborted.
    Prepare {
        /// Global cross-shard transaction id; the coordinator's shard
        /// index lives in the high 16 bits.
        gid: u64,
    },
    /// A decided slice of cross-shard batch `gid`: applied exactly like
    /// [`RedoKind::Local`], and additionally *proof of commit* — a
    /// `Decided` record for `gid` anywhere in the cluster resolves every
    /// shard's matching prepare.
    Decided {
        /// Global cross-shard transaction id (see [`RedoKind::Prepare`]).
        gid: u64,
    },
}

impl RedoKind {
    /// The gid of a cross-shard record, `None` for [`RedoKind::Local`].
    pub fn gid(&self) -> Option<u64> {
        match self {
            RedoKind::Local => None,
            RedoKind::Prepare { gid } | RedoKind::Decided { gid } => Some(*gid),
        }
    }
}

/// One decoded redo record: a committed transaction's writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoRecord {
    /// WAL sequence number (contiguous from 1).
    pub seq: u64,
    /// The writing transaction's id (diagnostic; not required for replay).
    pub txid: u64,
    /// Replay semantics: unconditional, staged, or decided (cross-shard).
    pub kind: RedoKind,
    /// The writes, in application order: `Some(value)` is a put, `None`
    /// a delete.
    pub ops: RedoOps,
}

/// Why the scan stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The log ended on a record boundary, perhaps followed by nothing
    /// but zero bytes (the WAL's zero fill).
    Clean,
    /// Fewer bytes than a header (or than the promised payload) remained —
    /// the classic torn tail of a crashed append.
    TruncatedRecord,
    /// Magic mismatch at a record boundary (garbage or overwritten tail).
    BadMagic,
    /// Payload checksum mismatch (partially-persisted or corrupted write).
    BadChecksum,
    /// Implausible length field (> [`MAX_PAYLOAD`]).
    BadLength,
    /// Sequence number did not continue the chain.
    BadSequence,
    /// The frame was intact but the redo payload didn't parse.
    BadPayload,
}

/// Which snapshot file provided recovery's base image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// No snapshot: the store recovered from the WAL alone.
    None,
    /// `snapshot.cur` validated and was loaded.
    Current,
    /// `snapshot.cur` was missing or corrupt; `snapshot.prev` was loaded.
    Previous,
}

/// The outcome of a recovery scan (and, when produced by
/// [`KvStore::open`](crate::KvStore::open), the replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records accepted by the scan (across all WAL segments).
    pub records: u64,
    /// Individual key operations in the accepted records.
    pub ops: u64,
    /// Bytes of valid WAL prefix kept.
    pub valid_bytes: u64,
    /// Bytes discarded as the torn tail (a clean zero tail is not one).
    pub truncated_bytes: u64,
    /// Sequence number of the last accepted record (0 if none).
    pub last_seq: u64,
    /// Why the scan stopped.
    pub end: ScanEnd,
    /// WAL cut of the loaded snapshot — replay skipped `seq <= cut`
    /// (0 when no snapshot was loaded).
    pub snapshot_cut: u64,
    /// Live keys loaded from the snapshot.
    pub snapshot_keys: u64,
    /// Which snapshot file provided the base image.
    pub snapshot_source: SnapshotSource,
    /// Records actually replayed: accepted records with
    /// `seq > snapshot_cut`. Always `<= records` — a post-checkpoint
    /// reopen replays only the WAL suffix, not full history.
    pub replayed: u64,
    /// Cross-shard slices this log stages ([`RedoKind::Prepare`]) without
    /// a [`RedoKind::Decided`] of its own — parked, not applied. Nonzero
    /// after a crash that lost a participant's unforced `Decided`: the
    /// shard router resolves them against the other shards' logs, and a
    /// store left standalone presumes them aborted. Filled in by
    /// [`KvStore::open`](crate::KvStore::open); a bare scan reports 0.
    pub pending_prepares: u64,
}

impl RecoveryReport {
    /// True when the log needed truncation (i.e. a crash tore the tail).
    pub fn torn(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// Encode a single-shard transaction's payload ([`RedoKind::Local`]).
pub fn encode_redo(txid: u64, ops: &[(String, Option<Vec<u8>>)]) -> Vec<u8> {
    encode_record(RedoKind::Local, txid, ops)
}

/// Encode a redo payload:
/// `kind: u8 | [gid: u64 when kind != 0] | txid: u64 | nops: u32 | ops*`,
/// each op `klen: u32 | key | tag: u8 (0 delete, 1 put) | [vlen: u32 | value]`.
/// Kind bytes: 0 [`RedoKind::Local`], 1 [`RedoKind::Prepare`],
/// 2 [`RedoKind::Decided`].
pub fn encode_record(kind: RedoKind, txid: u64, ops: &[(String, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        21 + ops
            .iter()
            .map(|(k, v)| 9 + k.len() + v.as_ref().map_or(0, |v| 4 + v.len()))
            .sum::<usize>(),
    );
    match kind {
        RedoKind::Local => out.push(0),
        RedoKind::Prepare { gid } => {
            out.push(1);
            out.extend_from_slice(&gid.to_le_bytes());
        }
        RedoKind::Decided { gid } => {
            out.push(2);
            out.extend_from_slice(&gid.to_le_bytes());
        }
    }
    out.extend_from_slice(&txid.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for (key, value) in ops {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    out
}

/// Decode a redo payload produced by [`encode_record`]. `None` on any structural
/// error (recovery treats that record as the torn tail).
pub fn decode_redo(payload: &[u8]) -> Option<(RedoKind, u64, RedoOps)> {
    fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if b.len() < n {
            return None;
        }
        let (head, tail) = b.split_at(n);
        *b = tail;
        Some(head)
    }

    let mut b = payload;
    let kind = match take(&mut b, 1)?[0] {
        0 => RedoKind::Local,
        tag @ (1 | 2) => {
            let gid = u64::from_le_bytes(take(&mut b, 8)?.try_into().ok()?);
            if tag == 1 {
                RedoKind::Prepare { gid }
            } else {
                RedoKind::Decided { gid }
            }
        }
        _ => return None,
    };
    let txid = u64::from_le_bytes(take(&mut b, 8)?.try_into().ok()?);
    let nops = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
    let mut ops = Vec::with_capacity(nops.min(1024));
    for _ in 0..nops {
        let klen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
        let key = String::from_utf8(take(&mut b, klen)?.to_vec()).ok()?;
        let tag = take(&mut b, 1)?[0];
        let value = match tag {
            0 => None,
            1 => {
                let vlen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
                Some(take(&mut b, vlen)?.to_vec())
            }
            _ => return None,
        };
        ops.push((key, value));
    }
    if !b.is_empty() {
        return None; // trailing garbage inside a checksummed frame
    }
    Some((kind, txid, ops))
}

/// Scan `bytes` as a WAL image: return the decoded records of the longest
/// valid prefix, plus a report describing where and why the scan stopped
/// — [`ScanEnd::Clean`] when only zero bytes follow it. `first_seq` is
/// the segment's first sequence number (1 for the log's first segment).
pub fn scan(bytes: &[u8], first_seq: u64) -> (Vec<RedoRecord>, RecoveryReport) {
    let mut records = Vec::new();
    let mut ops = 0u64;
    let mut off = 0usize;
    let mut expect_seq = first_seq;
    let end;
    loop {
        let rest = &bytes[off..];
        if rest.iter().all(|&b| b == 0) {
            end = ScanEnd::Clean;
            break;
        }
        if rest.len() < HEADER_LEN {
            end = ScanEnd::TruncatedRecord;
            break;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if magic != MAGIC {
            end = ScanEnd::BadMagic;
            break;
        }
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            end = ScanEnd::BadLength;
            break;
        }
        let seq = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[16..20].try_into().unwrap());
        if rest.len() < HEADER_LEN + len {
            end = ScanEnd::TruncatedRecord;
            break;
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != crc {
            end = ScanEnd::BadChecksum;
            break;
        }
        if seq != expect_seq {
            end = ScanEnd::BadSequence;
            break;
        }
        let Some((kind, txid, rec_ops)) = decode_redo(payload) else {
            end = ScanEnd::BadPayload;
            break;
        };
        ops += rec_ops.len() as u64;
        records.push(RedoRecord {
            seq,
            txid,
            kind,
            ops: rec_ops,
        });
        expect_seq += 1;
        off += HEADER_LEN + len;
    }
    let report = RecoveryReport {
        records: records.len() as u64,
        ops,
        valid_bytes: off as u64,
        truncated_bytes: match end {
            ScanEnd::Clean => 0,
            _ => (bytes.len() - off) as u64,
        },
        last_seq: expect_seq - 1,
        end,
        snapshot_cut: 0,
        snapshot_keys: 0,
        snapshot_source: SnapshotSource::None,
        replayed: records.len() as u64,
        pending_prepares: 0,
    };
    (records, report)
}

/// A sorted image of the committed key space: a decoded snapshot, or a
/// snapshot with the records past its cut folded in.
pub type KeyMap = BTreeMap<Arc<str>, Arc<[u8]>>;

/// The full two-tier recovery result: the snapshot's base image, the
/// WAL-suffix records to replay on top of it, and instructions for
/// sanitizing the on-disk segments before appending resumes.
pub(crate) struct TwoTier {
    /// Committed state as of `report.snapshot_cut` (empty without a
    /// snapshot).
    pub base: KeyMap,
    /// Accepted records with `seq > snapshot_cut`, in sequence order.
    pub records: Vec<RedoRecord>,
    /// Provenance and scan outcome.
    pub report: RecoveryReport,
    /// Sequence the resumed WAL assigns next.
    pub next_seq: u64,
    /// Per input segment: `Some(valid_len)` → keep its records, the first
    /// `valid_len` bytes; `None` → delete (beyond a chain break, or
    /// unusable).
    pub keep: Vec<Option<u64>>,
    /// The kept segment the scan stopped in at a torn record: cut it to
    /// its `keep` length. Every other kept segment ends cleanly, perhaps
    /// in a zero tail, which stays.
    pub torn: Option<usize>,
    /// Index of the segment appends resume on (`None` → start a fresh
    /// segment at `next_seq`).
    pub active: Option<usize>,
}

impl TwoTier {
    /// The committed state as of `report.last_seq`: `base` with `records`
    /// replayed over it, the way [`KvStore::open`](crate::KvStore::open)
    /// replays them into the buckets — a [`RedoKind::Prepare`] is never
    /// applied, its slice becomes real only through the
    /// [`RedoKind::Decided`] record that carries it again.
    pub fn into_image(self) -> KeyMap {
        let mut image = self.base;
        for rec in self.records {
            if matches!(rec.kind, RedoKind::Prepare { .. }) {
                continue;
            }
            for (key, value) in rec.ops {
                match value {
                    Some(v) => image.insert(Arc::from(key), Arc::from(v)),
                    None => image.remove(key.as_str()),
                };
            }
        }
        image
    }
}

/// Two-tier recovery: load the newest valid snapshot (`cur`, falling
/// back to `prev` on CRC/footer failure), then scan the WAL segments —
/// `(first_seq, bytes)` pairs in sequence order — as one contiguous
/// chain and keep the longest valid prefix. Records at or below the
/// snapshot's cut are dropped (already in the base image; they linger
/// in segments only across the crash window between snapshot publish
/// and WAL truncation, where suffix replay must be — and is —
/// idempotent: the filter simply excludes them). If the surviving chain
/// starts above `cut + 1` the suffix cannot be replayed without a hole,
/// so it is discarded entirely and the store recovers to the snapshot
/// alone — an older committed prefix (only reachable via double
/// corruption: the current snapshot *and* a covered segment).
pub(crate) fn recover_two_tier(
    snap_cur: Option<&[u8]>,
    snap_prev: Option<&[u8]>,
    segments: &[(u64, Vec<u8>)],
) -> TwoTier {
    let (cut, base, source) = match snap_cur.and_then(decode_snapshot) {
        Some((cut, map)) => (cut, map, SnapshotSource::Current),
        None => match snap_prev.and_then(decode_snapshot) {
            Some((cut, map)) => (cut, map, SnapshotSource::Previous),
            None => (0, BTreeMap::new(), SnapshotSource::None),
        },
    };

    let mut records: Vec<RedoRecord> = Vec::new();
    let mut ops = 0u64;
    let mut valid = 0u64;
    let mut truncated = 0u64;
    let mut end = ScanEnd::Clean;
    let mut keep: Vec<Option<u64>> = vec![None; segments.len()];
    let mut active = None;
    let mut torn = None;
    let mut expect = segments.first().map_or(1, |(id, _)| *id);
    let mut chain_last = expect - 1;
    let mut broken = false;
    for (i, (first_seq, bytes)) in segments.iter().enumerate() {
        if broken {
            truncated += bytes.len() as u64;
            continue;
        }
        if *first_seq != expect {
            // A hole between segments: everything from here on is
            // unreachable without reordering — discard it.
            broken = true;
            end = ScanEnd::BadSequence;
            truncated += bytes.len() as u64;
            continue;
        }
        let (recs, rep) = scan(bytes, *first_seq);
        valid += rep.valid_bytes;
        truncated += rep.truncated_bytes;
        ops += rep.ops;
        chain_last = rep.last_seq;
        keep[i] = Some(rep.valid_bytes);
        active = Some(i);
        records.extend(recs);
        if rep.end == ScanEnd::Clean {
            expect = rep.last_seq + 1;
        } else {
            broken = true;
            end = rep.end;
            torn = Some(i);
        }
    }

    // Two ways the chain can be useless against the snapshot:
    // - it *starts* above cut+1 (a hole between snapshot and suffix —
    //   nothing after the hole can be replayed), or
    // - it *ends* below the cut (every surviving record is already in
    //   the snapshot, and resuming appends at cut+1 on a segment whose
    //   last record is older would bake a sequence gap into the file).
    // Either way: drop the segments entirely and recover to the
    // snapshot alone; appends restart on a fresh, contiguous segment.
    let chain_start = segments.first().map_or(cut + 1, |(id, _)| *id);
    if chain_start > cut + 1 || chain_last < cut {
        if chain_start > cut + 1 {
            end = ScanEnd::BadSequence;
        }
        truncated += valid;
        valid = 0;
        ops = 0;
        records.clear();
        keep.iter_mut().for_each(|k| *k = None);
        active = None;
        torn = None;
        chain_last = cut;
    }

    let total = records.len() as u64;
    records.retain(|r| r.seq > cut);
    let replayed = records.len() as u64;
    let next_seq = chain_last.max(cut) + 1;
    let report = RecoveryReport {
        records: total,
        ops,
        valid_bytes: valid,
        truncated_bytes: truncated,
        last_seq: chain_last,
        end,
        snapshot_cut: cut,
        snapshot_keys: base.len() as u64,
        snapshot_source: source,
        replayed,
        pending_prepares: 0,
    };
    TwoTier {
        base,
        records,
        report,
        next_seq,
        keep,
        active,
        torn,
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::wal::frame_record;

    fn record(seq: u64, txid: u64, ops: &[(&str, Option<&[u8]>)]) -> Vec<u8> {
        let ops: Vec<(String, Option<Vec<u8>>)> = ops
            .iter()
            .map(|(k, v)| (k.to_string(), v.map(|v| v.to_vec())))
            .collect();
        let mut out = Vec::new();
        frame_record(&mut out, seq, &encode_redo(txid, &ops));
        out
    }

    #[test]
    fn redo_roundtrip() {
        let ops = vec![
            ("alpha".to_string(), Some(b"1".to_vec())),
            ("beta".to_string(), None),
            (String::new(), Some(Vec::new())),
        ];
        let enc = encode_redo(99, &ops);
        assert_eq!(decode_redo(&enc), Some((RedoKind::Local, 99, ops)));
    }

    #[test]
    fn cross_shard_kinds_roundtrip_with_gid() {
        let ops = vec![("k".to_string(), Some(b"v".to_vec()))];
        let gid = (3u64 << 48) | 7;
        let enc = encode_record(RedoKind::Prepare { gid }, 5, &ops);
        assert_eq!(
            decode_redo(&enc),
            Some((RedoKind::Prepare { gid }, 5, ops.clone()))
        );
        let enc = encode_record(RedoKind::Decided { gid }, 5, &ops);
        assert_eq!(decode_redo(&enc), Some((RedoKind::Decided { gid }, 5, ops)));
        assert_eq!(RedoKind::Prepare { gid }.gid(), Some(gid));
        assert_eq!(RedoKind::Local.gid(), None);
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        for enc in [
            encode_redo(1, &[("k".to_string(), Some(b"v".to_vec()))]),
            encode_record(
                RedoKind::Prepare { gid: 9 },
                1,
                &[("k".to_string(), Some(b"v".to_vec()))],
            ),
            encode_record(
                RedoKind::Decided { gid: 9 },
                1,
                &[("k".to_string(), Some(b"v".to_vec()))],
            ),
        ] {
            for cut in 0..enc.len() {
                assert_eq!(decode_redo(&enc[..cut]), None, "accepted prefix {cut}");
            }
            let mut trailing = enc.clone();
            trailing.push(0);
            assert_eq!(decode_redo(&trailing), None);
        }
        let enc = encode_redo(1, &[("k".to_string(), Some(b"v".to_vec()))]);
        let mut bad_tag = enc.clone();
        let tag_pos = 1 + 8 + 4 + 4 + 1; // kind + txid + nops + klen + "k"
        bad_tag[tag_pos] = 7;
        assert_eq!(decode_redo(&bad_tag), None);
        let mut bad_kind = enc;
        bad_kind[0] = 9;
        assert_eq!(decode_redo(&bad_kind), None);
    }

    #[test]
    fn scan_clean_log() {
        let mut log = record(1, 10, &[("a", Some(b"1"))]);
        log.extend(record(2, 11, &[("b", None)]));
        let (recs, rep) = scan(&log, 1);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].txid, 10);
        assert_eq!(recs[1].ops, vec![("b".to_string(), None)]);
        assert_eq!(rep.end, ScanEnd::Clean);
        assert!(!rep.torn());
        assert_eq!(rep.last_seq, 2);
        assert_eq!(rep.valid_bytes, log.len() as u64);
    }

    #[test]
    fn scan_truncates_torn_tail_at_every_cut_point() {
        let r1 = record(1, 1, &[("a", Some(b"one"))]);
        let r2 = record(2, 2, &[("b", Some(b"two")), ("c", None)]);
        let mut log = r1.clone();
        log.extend(&r2);
        // Cut anywhere strictly inside r2: exactly r1 survives.
        for cut in r1.len() + 1..log.len() {
            let (recs, rep) = scan(&log[..cut], 1);
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_eq!(rep.last_seq, 1);
            assert!(rep.torn());
            assert_eq!(rep.valid_bytes, r1.len() as u64);
        }
        // Cut inside r1: nothing survives.
        for cut in 1..r1.len() {
            let (recs, rep) = scan(&log[..cut], 1);
            assert!(recs.is_empty(), "cut at {cut}");
            assert!(rep.torn());
        }
    }

    #[test]
    fn scan_rejects_corrupt_payload_byte() {
        let r1 = record(1, 1, &[("a", Some(b"one"))]);
        let mut log = r1.clone();
        log.extend(record(2, 2, &[("b", Some(b"two"))]));
        log.extend(record(3, 3, &[("c", Some(b"three"))]));
        // Flip one payload byte of record 2: records 1 survives, 2 and 3
        // are gone (prefix-only recovery).
        let flip = r1.len() + HEADER_LEN + 2;
        log[flip] ^= 0xFF;
        let (recs, rep) = scan(&log, 1);
        assert_eq!(recs.len(), 1);
        assert_eq!(rep.end, ScanEnd::BadChecksum);
        assert_eq!(rep.truncated_bytes as usize, log.len() - r1.len());
    }

    #[test]
    fn scan_rejects_bad_magic_and_sequence_gap() {
        let mut log = record(1, 1, &[("a", Some(b"1"))]);
        let r1_len = log.len();
        log.extend(record(3, 3, &[("c", Some(b"3"))])); // gap: 2 missing
        let (recs, rep) = scan(&log, 1);
        assert_eq!(recs.len(), 1);
        assert_eq!(rep.end, ScanEnd::BadSequence);
        assert_eq!(rep.valid_bytes as usize, r1_len);

        let mut garbage = record(1, 1, &[("a", Some(b"1"))]);
        garbage.extend(b"not a record at all......");
        let (recs, rep) = scan(&garbage, 1);
        assert_eq!(recs.len(), 1);
        assert_eq!(rep.end, ScanEnd::BadMagic);
    }

    #[test]
    fn a_zero_tail_at_a_record_boundary_is_a_clean_end() {
        let mut log = record(1, 1, &[("a", Some(b"1"))]);
        log.extend(record(2, 2, &[("b", None)]));
        let records = log.len() as u64;
        for zeros in [1, HEADER_LEN - 1, HEADER_LEN, 4096] {
            let mut image = log.clone();
            image.resize(log.len() + zeros, 0);
            let (recs, rep) = scan(&image, 1);
            assert_eq!(recs.len(), 2, "{zeros} zeros");
            assert_eq!(rep.end, ScanEnd::Clean, "{zeros} zeros");
            assert_eq!((rep.valid_bytes, rep.truncated_bytes), (records, 0));
            assert!(!rep.torn());
            // A segment of nothing but zeros is an empty one.
            let (recs, rep) = scan(&vec![0; zeros], 1);
            assert!(recs.is_empty() && rep.end == ScanEnd::Clean && !rep.torn());
            assert_eq!((rep.valid_bytes, rep.truncated_bytes), (0, 0));
        }
    }

    #[test]
    fn a_torn_record_followed_by_zeros_is_still_torn() {
        let r1 = record(1, 1, &[("a", Some(b"one"))]);
        let r2 = record(2, 2, &[("b", Some(b"two"))]);
        // Cut r2 anywhere past its first byte (its magic): zeros after
        // the cut do not make it whole, nor the tail clean.
        for cut in 1..r2.len() {
            let mut image = r1.clone();
            image.extend_from_slice(&r2[..cut]);
            image.resize(image.len() + 64, 0);
            let (recs, rep) = scan(&image, 1);
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_ne!(rep.end, ScanEnd::Clean, "cut at {cut}");
            assert!(rep.torn(), "cut at {cut}");
            assert_eq!(rep.valid_bytes, r1.len() as u64);
            assert_eq!(rep.truncated_bytes as usize, image.len() - r1.len());
        }
        // Nonzero bytes anywhere after a run of zeros: torn as well.
        let mut image = r1.clone();
        image.extend_from_slice(&[0; 100]);
        image.push(1);
        let (_, rep) = scan(&image, 1);
        assert_eq!(rep.end, ScanEnd::BadMagic);
        assert!(rep.torn());
    }

    #[test]
    fn two_tier_keeps_zero_tails_on_active_and_rotated_segments_alike() {
        let zero_tailed = |mut seg: Vec<u8>| {
            seg.resize(seg.len() + 1000, 0);
            seg
        };
        let seg0 = record(1, 1, &[("a", Some(b"1"))]);
        let mut seg1 = record(2, 2, &[("b", Some(b"2"))]);
        seg1.extend(record(3, 3, &[("c", Some(b"3"))]));
        let lens = [seg0.len() as u64, seg1.len() as u64];
        let t = recover_two_tier(
            None,
            None,
            &[(1, zero_tailed(seg0)), (2, zero_tailed(seg1.clone()))],
        );
        assert_eq!(t.report.end, ScanEnd::Clean);
        assert!(!t.report.torn());
        assert_eq!(t.report.records, 3);
        assert_eq!(t.report.valid_bytes, lens[0] + lens[1]);
        assert_eq!(t.keep, vec![Some(lens[0]), Some(lens[1])]);
        assert_eq!((t.active, t.torn), (Some(1), None), "nothing to cut");
        assert_eq!(t.next_seq, 4);

        // A torn record before the active segment's zeros: that segment,
        // and only it, is cut back to its last whole record.
        let mut torn = seg1[..lens[1] as usize - 3].to_vec();
        torn.resize(torn.len() + 1000, 0);
        let t = recover_two_tier(
            None,
            None,
            &[
                (1, zero_tailed(record(1, 1, &[("a", Some(b"1"))]))),
                (2, torn),
            ],
        );
        assert_eq!(t.report.records, 2);
        assert!(t.report.torn());
        assert_eq!((t.active, t.torn), (Some(1), Some(1)));
        assert_eq!(
            t.keep[1],
            Some(record(2, 2, &[("b", Some(b"2"))]).len() as u64)
        );
        assert_eq!(t.next_seq, 3);
    }

    #[test]
    fn scan_empty_is_clean() {
        let (recs, rep) = scan(&[], 1);
        assert!(recs.is_empty());
        assert_eq!(rep.end, ScanEnd::Clean);
        assert_eq!(rep.last_seq, 0);
        assert!(!rep.torn());
    }

    fn snap(cut: u64, entries: &[(&str, &[u8])]) -> Vec<u8> {
        let map: BTreeMap<Arc<str>, Arc<[u8]>> = entries
            .iter()
            .map(|(k, v)| (Arc::from(*k), Arc::from(*v)))
            .collect();
        crate::checkpoint::encode_snapshot(cut, map.iter())
    }

    #[test]
    fn two_tier_replays_only_the_suffix() {
        // Snapshot at cut 2; suffix segment carries 3..=5, the last one a
        // staged slice nothing decides.
        let mut seg = record(3, 3, &[("c", Some(b"3"))]);
        seg.extend(record(4, 4, &[("a", None)]));
        let staged = [("staged".to_string(), Some(b"s".to_vec()))];
        frame_record(
            &mut seg,
            5,
            &encode_record(RedoKind::Prepare { gid: 9 }, 5, &staged),
        );
        let cur = snap(2, &[("a", b"1"), ("b", b"2")]);
        let t = recover_two_tier(Some(&cur), None, &[(3, seg)]);
        assert_eq!(t.report.snapshot_cut, 2);
        assert_eq!(t.report.snapshot_source, SnapshotSource::Current);
        assert_eq!(t.report.snapshot_keys, 2);
        assert_eq!(t.report.replayed, 3);
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.base.len(), 2);
        assert_eq!(t.next_seq, 6);
        assert_eq!(t.active, Some(0));
        // The image at seq 5: the put and the delete applied, the prepare not.
        let image = t.into_image();
        let keys: Vec<&str> = image.keys().map(|k| &**k).collect();
        assert_eq!(keys, ["b", "c"]);
    }

    #[test]
    fn two_tier_skips_covered_records_idempotently() {
        // The crash window between snapshot publish and WAL truncation:
        // the old segment (1..=2) still exists next to the snapshot at
        // cut 2. Records <= cut are filtered, not re-applied.
        let mut seg0 = record(1, 1, &[("a", Some(b"old"))]);
        seg0.extend(record(2, 2, &[("b", Some(b"2"))]));
        let seg1 = record(3, 3, &[("c", Some(b"3"))]);
        let cur = snap(2, &[("a", b"old"), ("b", b"2")]);
        let t = recover_two_tier(Some(&cur), None, &[(1, seg0), (3, seg1)]);
        assert_eq!(t.report.records, 3);
        assert_eq!(t.report.replayed, 1, "only the suffix record replays");
        assert_eq!(t.records[0].seq, 3);
    }

    #[test]
    fn two_tier_falls_back_to_previous_snapshot() {
        let seg = record(2, 2, &[("b", Some(b"2"))]);
        let mut cur = snap(3, &[("a", b"new")]);
        let n = cur.len();
        cur[n - 1] ^= 0xff; // corrupt the current snapshot
        let prev = snap(1, &[("a", b"old")]);
        let t = recover_two_tier(Some(&cur), Some(&prev), &[(2, seg)]);
        assert_eq!(t.report.snapshot_source, SnapshotSource::Previous);
        assert_eq!(t.report.snapshot_cut, 1);
        assert_eq!(t.report.replayed, 1);
        assert_eq!(t.base.get("a").map(|v| v.as_ref()), Some(&b"old"[..]));
    }

    #[test]
    fn two_tier_discards_suffix_with_a_hole() {
        // Snapshot at cut 1 but the only segment starts at 5: records
        // 2..=4 are gone, so the suffix is unreplayable and the store
        // recovers to the snapshot alone.
        let seg = record(5, 5, &[("z", Some(b"5"))]);
        let cur = snap(1, &[("a", b"1")]);
        let t = recover_two_tier(Some(&cur), None, &[(5, seg)]);
        assert_eq!(t.report.replayed, 0);
        assert!(t.records.is_empty());
        assert_eq!(t.report.end, ScanEnd::BadSequence);
        assert_eq!(t.active, None, "segments are unusable");
        assert_eq!(t.keep, vec![None]);
        assert_eq!(t.next_seq, 2, "appends restart right after the cut");
    }

    #[test]
    fn two_tier_without_any_snapshot_matches_plain_scan() {
        let mut seg = record(1, 1, &[("a", Some(b"1"))]);
        seg.extend(record(2, 2, &[("b", Some(b"2"))]));
        let t = recover_two_tier(None, None, &[(1, seg.clone())]);
        let (recs, rep) = scan(&seg, 1);
        assert_eq!(t.records, recs);
        assert_eq!(t.report.records, rep.records);
        assert_eq!(t.report.snapshot_source, SnapshotSource::None);
        assert_eq!(t.report.replayed, 2);
    }
}
