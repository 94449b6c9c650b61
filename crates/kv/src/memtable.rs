//! In-memory table of recent *committed, durable* writes — the volatile
//! half of the two-tier durable store (`snapshot + WAL suffix`).
//!
//! The memtable is populated from the same deferred ops that append redo
//! records to the WAL: a deferred op calls [`Wal::append_durable`] first
//! (so the bytes are fsynced) and then [`MemTable::apply`] with the
//! sequence number it was assigned, *while the shard `TxLock`s are still
//! held*. Two consequences fall out of that ordering by construction:
//!
//! - every entry in the memtable survives a crash: its redo record is
//!   inside the synced WAL prefix, *or* it is a cross-shard slice applied
//!   at its unforced `Decided` append ([`Wal::append`]), whose `Prepare`
//!   is inside the synced prefix and whose decision is durable in the
//!   coordinator's log — recovery rebuilds it from those two. Either way
//!   a reader of the memtable can never observe bytes a crash could take
//!   back; and
//! - per key, applies arrive in WAL-sequence order (two records touching
//!   the same key serialize on the shard lock, and WAL sequence order
//!   agrees with commit order), so last-writer-wins by `seq` is exact.
//!
//! The table is split into `base` — the state as of the last snapshot
//! (or recovery) — and `delta` — entries applied since, each tagged with
//! the WAL sequence that produced it. The checkpointer freezes
//! `base ⊎ delta≤cut` at a quiescent cut (see [`crate::checkpoint`]),
//! publishes it, and then folds the frozen delta into `base` with
//! [`MemTable::compact_through`].
//!
//! [`Wal::append_durable`]: crate::wal::Wal::append_durable
//! [`Wal::append`]: crate::wal::Wal::append

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ad_support::sync::{Condvar, Mutex};

/// One memtable mutation: interned key → new value (`None` deletes).
pub type MemOp = (Arc<str>, Option<Arc<[u8]>>);

/// A sorted image of the committed key space — the memtable's base,
/// a frozen checkpoint, or a decoded snapshot.
pub type KeyMap = BTreeMap<Arc<str>, Arc<[u8]>>;

/// A delta entry: the WAL sequence that produced it and the value
/// (`None` is a tombstone — the key was deleted).
#[derive(Debug, Clone)]
struct MemEntry {
    seq: u64,
    value: Option<Arc<[u8]>>,
}

#[derive(Debug)]
struct Inner {
    /// State as of the last snapshot (or recovery). No tombstones.
    base: KeyMap,
    /// Entries applied since `base`, tombstone-aware, tagged with seq.
    delta: BTreeMap<Arc<str>, MemEntry>,
    /// Highest `w` such that every sequence in `1..=w` has been applied
    /// (or predates this process: recovery seeds it with the last
    /// recovered sequence).
    watermark: u64,
    /// Sequences applied out of order, above the watermark.
    pending: BTreeSet<u64>,
}

/// Sorted in-memory layer of recent committed writes; see the module
/// docs for the invariants.
pub struct MemTable {
    inner: Mutex<Inner>,
    applied_cv: Condvar,
}

impl MemTable {
    /// A memtable whose `base` is `base` and whose applied watermark
    /// starts at `applied_through` (the last WAL sequence already folded
    /// into `base` — recovery passes the last replayed sequence).
    pub fn with_base(base: KeyMap, applied_through: u64) -> Self {
        MemTable {
            inner: Mutex::new(Inner {
                base,
                delta: BTreeMap::new(),
                watermark: applied_through,
                pending: BTreeSet::new(),
            }),
            applied_cv: Condvar::new(),
        }
    }

    /// An empty memtable with no history.
    pub fn new() -> Self {
        Self::with_base(BTreeMap::new(), 0)
    }

    /// Record the ops of the redo record `seq`. Called from the deferred
    /// op *after* `append_durable` returned, so every applied entry is
    /// already inside the synced WAL prefix — or after an unforced
    /// `append` of a record whose content is durable elsewhere (module
    /// docs).
    pub fn apply(&self, seq: u64, ops: &[MemOp]) {
        let mut g = self.inner.lock();
        for (key, value) in ops {
            match g.delta.get(key.as_ref()) {
                // Per-key applies arrive in seq order (shard-lock
                // serialized); the guard is belt-and-braces.
                Some(e) if e.seq > seq => {}
                _ => {
                    g.delta.insert(
                        key.clone(),
                        MemEntry {
                            seq,
                            value: value.clone(),
                        },
                    );
                }
            }
        }
        // Advance the contiguous-applied watermark.
        if seq == g.watermark + 1 {
            g.watermark = seq;
            while g.pending.first() == Some(&(g.watermark + 1)) {
                g.pending.pop_first();
                g.watermark += 1;
            }
            self.applied_cv.notify_all();
        } else if seq > g.watermark {
            g.pending.insert(seq);
        }
    }

    /// Durable-tier read: delta first (tombstone-aware), then base.
    /// Returns `None` for absent *or deleted* keys.
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        let g = self.inner.lock();
        if let Some(e) = g.delta.get(key) {
            return e.value.clone();
        }
        g.base.get(key).cloned()
    }

    /// Durable-tier range scan: up to `limit` live `(key, value)` pairs
    /// with `key >= start`, in key order, merging base and delta
    /// (tombstones suppress base entries).
    pub fn scan_from(&self, start: &str, limit: usize) -> Vec<(Arc<str>, Arc<[u8]>)> {
        let g = self.inner.lock();
        let mut out = Vec::new();
        let mut base = g
            .base
            .range::<str, _>((std::ops::Bound::Included(start), std::ops::Bound::Unbounded));
        let mut delta = g
            .delta
            .range::<str, _>((std::ops::Bound::Included(start), std::ops::Bound::Unbounded));
        let (mut b, mut d) = (base.next(), delta.next());
        while out.len() < limit {
            match (b, d) {
                (Some((bk, bv)), Some((dk, de))) => {
                    if bk < dk {
                        out.push((bk.clone(), bv.clone()));
                        b = base.next();
                    } else {
                        if bk == dk {
                            b = base.next();
                        }
                        if let Some(v) = &de.value {
                            out.push((dk.clone(), v.clone()));
                        }
                        d = delta.next();
                    }
                }
                (Some((bk, bv)), None) => {
                    out.push((bk.clone(), bv.clone()));
                    b = base.next();
                }
                (None, Some((dk, de))) => {
                    if let Some(v) = &de.value {
                        out.push((dk.clone(), v.clone()));
                    }
                    d = delta.next();
                }
                (None, None) => break,
            }
        }
        out
    }

    /// Block until every sequence `<= seq` has been applied. The
    /// checkpointer calls this after picking a cut: every record at or
    /// below the cut is durable, so its applier is already past the
    /// fsync (or never waited for one) and will reach `apply` without
    /// waiting on us.
    pub fn wait_applied_through(&self, seq: u64) {
        let mut g = self.inner.lock();
        while g.watermark < seq {
            self.applied_cv.wait(&mut g);
        }
    }

    /// The contiguous-applied watermark (for tests and stats).
    pub fn applied_through(&self) -> u64 {
        self.inner.lock().watermark
    }

    /// A frozen copy of `base ⊎ delta≤cut` — a *fuzzy* image of the
    /// committed state at WAL sequence `cut`: a key rewritten by a record
    /// with `seq > cut` reflects the rewrite's shadow, not its value at
    /// the cut (the delta keeps one entry per key). That is exactly
    /// right for checkpointing — every such key's later record is in the
    /// retained WAL suffix (`seq > cut`) and suffix replay rewrites the
    /// key on recovery, so `snapshot + suffix` is always the exact
    /// state. Cheap: values are `Arc`-shared, only the key map is
    /// cloned, and nothing is held locked while the caller serializes
    /// the result.
    pub fn freeze_through(&self, cut: u64) -> KeyMap {
        let g = self.inner.lock();
        let mut out = g.base.clone();
        for (k, e) in &g.delta {
            if e.seq <= cut {
                match &e.value {
                    Some(v) => {
                        out.insert(k.clone(), v.clone());
                    }
                    None => {
                        out.remove(k.as_ref());
                    }
                }
            }
        }
        out
    }

    /// Fold delta entries with `seq <= cut` into base (after the
    /// snapshot at `cut` has been durably published).
    pub fn compact_through(&self, cut: u64) {
        let mut g = self.inner.lock();
        let drained = std::mem::take(&mut g.delta);
        for (k, e) in drained {
            if e.seq <= cut {
                match e.value {
                    Some(v) => {
                        g.base.insert(k, v);
                    }
                    None => {
                        g.base.remove(k.as_ref());
                    }
                }
            } else {
                g.delta.insert(k, e);
            }
        }
    }

    /// Number of live keys (base plus delta, tombstones excluded).
    pub fn len(&self) -> usize {
        let g = self.inner.lock();
        let mut n = g.base.len();
        for (k, e) in &g.delta {
            match (&e.value, g.base.contains_key(k.as_ref())) {
                (Some(_), false) => n += 1,
                (None, true) => n -= 1,
                _ => {}
            }
        }
        n
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn k(s: &str) -> Arc<str> {
        Arc::from(s)
    }
    fn v(s: &str) -> Option<Arc<[u8]>> {
        Some(Arc::from(s.as_bytes()))
    }

    #[test]
    fn get_merges_delta_over_base() {
        let mut base = BTreeMap::new();
        base.insert(k("a"), Arc::from(&b"old"[..]));
        base.insert(k("b"), Arc::from(&b"keep"[..]));
        let mt = MemTable::with_base(base, 4);
        mt.apply(5, &[(k("a"), v("new")), (k("c"), v("add"))]);
        mt.apply(6, &[(k("b"), None)]);

        assert_eq!(mt.get("a").as_deref(), Some(&b"new"[..]));
        assert_eq!(mt.get("b"), None, "tombstone shadows base");
        assert_eq!(mt.get("c").as_deref(), Some(&b"add"[..]));
        assert_eq!(mt.len(), 2);
    }

    #[test]
    fn watermark_tolerates_out_of_order_applies() {
        let mt = MemTable::new();
        mt.apply(2, &[(k("x"), v("2"))]);
        assert_eq!(mt.applied_through(), 0, "gap at 1 holds the watermark");
        mt.apply(3, &[(k("y"), v("3"))]);
        mt.apply(1, &[(k("z"), v("1"))]);
        assert_eq!(mt.applied_through(), 3, "filling the gap drains pending");
        mt.wait_applied_through(3); // must not block
    }

    #[test]
    fn freeze_respects_cut_and_compact_folds() {
        let mt = MemTable::new();
        mt.apply(1, &[(k("a"), v("1"))]);
        mt.apply(2, &[(k("b"), v("2"))]);
        mt.apply(3, &[(k("a"), None)]);

        // Fuzzy at the cut: "a" was rewritten at seq 3 > 2, so the image
        // omits it — sound, because record 3 is in the retained suffix
        // and replay settles "a" on recovery.
        let at2 = mt.freeze_through(2);
        assert!(!at2.contains_key("a"), "post-cut rewrite shadows the key");
        assert_eq!(at2.get("b").map(|x| x.as_ref()), Some(&b"2"[..]));

        let at3 = mt.freeze_through(3);
        assert!(!at3.contains_key("a"), "cut 3 sees the delete");

        mt.compact_through(2);
        // Post-compaction reads are unchanged: "a" deleted at 3 (still
        // in delta), "b" now in base.
        assert_eq!(mt.get("a"), None);
        assert_eq!(mt.get("b").as_deref(), Some(&b"2"[..]));
        mt.compact_through(3);
        assert_eq!(mt.get("a"), None);
        assert_eq!(mt.len(), 1);
    }

    #[test]
    fn scan_merges_and_suppresses_tombstones() {
        let mut base = BTreeMap::new();
        base.insert(k("a"), Arc::from(&b"1"[..]));
        base.insert(k("c"), Arc::from(&b"3"[..]));
        let mt = MemTable::with_base(base, 1);
        mt.apply(2, &[(k("b"), v("2")), (k("c"), None)]);

        let all = mt.scan_from("", 10);
        let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["a", "b"]);
        let from_b = mt.scan_from("b", 1);
        assert_eq!(from_b.len(), 1);
        assert_eq!(from_b[0].0.as_ref(), "b");
    }
}
