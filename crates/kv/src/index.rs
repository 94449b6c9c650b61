//! The ordered key index: which keys exist, in key order, so that a range
//! read touches only the buckets that hold its rows.
//!
//! A `TVar` *directory* lists the leaves in key order; a *leaf* is an
//! immutable sorted run of at most [`LEAF_CAP`] keys held in a `TVar`,
//! updated by clone-and-replace like a bucket. Leaf `i` holds the indexed
//! keys `k` with `low(i) <= k < low(i + 1)`; the first leaf's `low` is
//! `""`, so every key has a leaf and the directory is never empty. A leaf
//! that overflows is split into evenly filled pieces and the directory
//! replaced; leaves are never merged (a leaf emptied by deletes stays, and
//! a scan walks over it).
//!
//! The index holds keys only, the same `Arc<str>`s the buckets hold;
//! values stay in the keys' cells, which only the buckets name, so an
//! overwrite changes nothing here. It has no lock of its own: it lives under
//! the store's shard `TxLock`s (see the "Data layout" section of
//! [`crate::store`]), and the store subscribes before it calls in here.

use std::sync::Arc;

use ad_stm::{StmResult, TVar, Tx};

/// Most keys a leaf holds; one more splits it.
const LEAF_CAP: usize = 64;

type Leaf = Arc<Vec<Arc<str>>>;

#[derive(Clone)]
struct DirEntry {
    /// Inclusive lower bound of the leaf's key range.
    low: Arc<str>,
    leaf: TVar<Leaf>,
}

pub(crate) struct Index {
    dir: TVar<Arc<Vec<DirEntry>>>,
}

/// One change of the key set: `(key, true)` — the key appeared — or
/// `(key, false)` — it disappeared.
pub(crate) type KeyDelta = (Arc<str>, bool);

/// Cut a sorted run into leaves of at most [`LEAF_CAP`] keys: evenly, about
/// half full (the last takes the remainder), so that each has room before
/// it splits again.
fn pieces(keys: &[Arc<str>]) -> impl Iterator<Item = &[Arc<str>]> {
    let n = (keys.len() / (LEAF_CAP / 2)).max(1);
    keys.chunks(keys.len().div_ceil(n).max(1))
}

fn entry(keys: &[Arc<str>]) -> DirEntry {
    DirEntry {
        low: Arc::clone(&keys[0]),
        leaf: TVar::new(Arc::new(keys.to_vec())),
    }
}

/// `leaf` with `run` applied — both sorted, `run` without repeats.
fn merged(leaf: &[Arc<str>], run: &[KeyDelta]) -> Vec<Arc<str>> {
    let mut out = Vec::with_capacity(leaf.len() + run.len());
    let mut old = leaf.iter().peekable();
    for (key, present) in run {
        while let Some(k) = old.next_if(|k| ***k < **key) {
            out.push(Arc::clone(k));
        }
        let had = old.next_if(|k| ***k == **key).is_some();
        debug_assert_ne!(had, *present, "index and buckets disagree on {key:?}");
        if *present {
            out.push(Arc::clone(key));
        }
    }
    out.extend(old.cloned());
    out
}

impl Index {
    /// Build from all keys of a store not yet shared, in key order.
    pub(crate) fn bulk_load(keys: Vec<Arc<str>>) -> Index {
        let mut dir: Vec<DirEntry> = pieces(&keys).map(entry).collect();
        match dir.first_mut() {
            Some(first) => first.low = Arc::from(""),
            None => dir.push(DirEntry {
                low: Arc::from(""),
                leaf: TVar::new(Leaf::default()),
            }),
        }
        Index {
            dir: TVar::new(Arc::new(dir)),
        }
    }

    /// Position in `dir` of the leaf whose range holds `key`.
    fn leaf_of(dir: &[DirEntry], key: &str) -> usize {
        // `dir[0].low` is `""`, which no key sorts below.
        dir.partition_point(|e| *e.low <= *key) - 1
    }

    /// Apply the key-set changes of one transaction: `delta` sorted by key,
    /// each key once. Every touched leaf is rewritten once, the directory
    /// only if a leaf split; an empty `delta` reads nothing.
    pub(crate) fn apply(&self, tx: &mut Tx, delta: &[KeyDelta]) -> StmResult<()> {
        if delta.is_empty() {
            return Ok(());
        }
        let dir = tx.read(&self.dir)?;
        // The directory after splits: `dir[..copied]` carried over so far,
        // new leaves spliced in behind the leaf they split from.
        let mut split: Vec<DirEntry> = Vec::new();
        let mut copied = 0;
        let mut rest = delta;
        while let Some((first, _)) = rest.first() {
            let at = Self::leaf_of(&dir, first);
            let (run, tail) = rest.split_at(match dir.get(at + 1) {
                Some(next) => rest.partition_point(|(k, _)| **k < *next.low),
                None => rest.len(),
            });
            rest = tail;
            let var = &dir[at].leaf;
            let keys = merged(&tx.read(var)?, run);
            if keys.len() <= LEAF_CAP {
                tx.write(var, Arc::new(keys))?;
                continue;
            }
            let mut parts = pieces(&keys);
            tx.write(var, Arc::new(parts.next().unwrap_or_default().to_vec()))?;
            split.extend_from_slice(&dir[copied..=at]);
            split.extend(parts.map(entry));
            copied = at + 1;
        }
        if copied > 0 {
            split.extend_from_slice(&dir[copied..]);
            tx.write(&self.dir, Arc::new(split))?;
        }
        Ok(())
    }

    /// The first `limit` indexed keys `>= start`, in key order.
    pub(crate) fn keys_from(
        &self,
        tx: &mut Tx,
        start: &str,
        limit: usize,
    ) -> StmResult<Vec<Arc<str>>> {
        let dir = tx.read(&self.dir)?;
        let mut out = Vec::new();
        for e in &dir[Self::leaf_of(&dir, start)..] {
            if out.len() >= limit {
                break;
            }
            let leaf = tx.read(&e.leaf)?;
            // Only the first leaf visited can hold keys below `start`.
            let from = leaf.partition_point(|k| **k < *start);
            out.extend(leaf[from..].iter().take(limit - out.len()).cloned());
        }
        Ok(out)
    }

    /// Number of indexed keys.
    pub(crate) fn len(&self, tx: &mut Tx) -> StmResult<usize> {
        let mut n = 0;
        for e in tx.read(&self.dir)?.iter() {
            n += tx.read(&e.leaf)?.len();
        }
        Ok(n)
    }

    /// The directory's and every leaf's identity and version (`TVar`'s
    /// `Debug`): two equal strings mean nothing in the index was written.
    #[cfg(all(test, not(loom)))]
    pub(crate) fn versions(&self) -> String {
        let leaves: Vec<_> = self.dir.load().iter().map(|e| e.leaf.clone()).collect();
        format!("{:?} {leaves:?}", self.dir)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ad_stm::atomically;

    fn keys(range: std::ops::Range<usize>) -> Vec<Arc<str>> {
        range.map(|i| Arc::from(format!("k{i:05}"))).collect()
    }

    fn leaf_sizes(index: &Index) -> Vec<usize> {
        let dir = index.dir.load();
        dir.iter().map(|e| e.leaf.load().len()).collect()
    }

    fn all(index: &Index) -> Vec<Arc<str>> {
        atomically(|tx| index.keys_from(tx, "", usize::MAX))
    }

    #[test]
    fn bulk_load_fills_leaves_evenly_and_keeps_the_empty_low() {
        for n in [0, 1, LEAF_CAP, LEAF_CAP + 1, 10 * LEAF_CAP + 7] {
            let index = Index::bulk_load(keys(0..n));
            let sizes = leaf_sizes(&index);
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s <= LEAF_CAP), "{n}: {sizes:?}");
            let (_last, full) = sizes.split_last().unwrap();
            assert!(full.iter().all(|&s| s >= LEAF_CAP / 2), "{n}: {sizes:?}");
            assert_eq!(&*index.dir.load()[0].low, "");
            assert_eq!(all(&index), keys(0..n));
            assert_eq!(atomically(|tx| index.len(tx)), n);
        }
    }

    #[test]
    fn one_delta_splits_a_leaf_into_many_and_spans_leaves() {
        let index = Index::bulk_load(Vec::new());
        let add = |range| -> Vec<KeyDelta> { keys(range).into_iter().map(|k| (k, true)).collect() };
        // 1 000 keys into the one empty leaf: one directory write, every
        // leaf within bounds.
        atomically(|tx| index.apply(tx, &add(1000..2000)));
        let sizes = leaf_sizes(&index);
        assert!(sizes.len() >= 1000 / LEAF_CAP);
        assert!(sizes.iter().all(|&s| (1..=LEAF_CAP).contains(&s)));
        assert_eq!(all(&index), keys(1000..2000));
        // A delta below, inside and above the indexed range, with removals
        // that empty whole leaves.
        let mut delta = add(0..100);
        delta.extend(keys(1000..1200).into_iter().map(|k| (k, false)));
        delta.extend(add(2000..2100));
        atomically(|tx| index.apply(tx, &delta));
        let mut want = keys(0..100);
        want.extend(keys(1200..2100));
        assert_eq!(all(&index), want);
        assert!(leaf_sizes(&index).contains(&0), "emptied leaves stay");
        let got = atomically(|tx| index.keys_from(tx, "k01100", 3));
        assert_eq!(got, keys(1200..1203), "a scan walks over empty leaves");
    }
}
