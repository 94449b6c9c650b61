//! The global version clock (TL2), with pluggable commit-clock policies.
//!
//! Every committed value carries an *even* version timestamp; an odd value
//! in a variable's version word means "write-locked by a committing
//! transaction". Where those timestamps come from is the commit-clock
//! policy ([`ClockPolicy`], selected per runtime via
//! `TmConfig::with_clock`):
//!
//! * [`ClockPolicy::Gv2`] — the classic TL2 clock: one process-wide word,
//!   advanced with a `fetch_add(2, SeqCst)` by every committing writer.
//!   Timestamps are unique, which enables the `wv == rv + 2` validation
//!   fast path, but every commit does a cross-core RMW on the same cache
//!   line — the single point all write curves collapse onto as threads are
//!   added. Kept as the paper-faithful default for A/B runs.
//! * [`ClockPolicy::Sharded`] — per-thread, cache-line-padded clock cells.
//!   A committing writer scans all cells (after locking its write set),
//!   takes the max plus 2, and publishes its new timestamp to its own cell
//!   *before* stamping any variable. Readers amortize the scan through a
//!   thread-local cached bound that is only refreshed (by a full max-merge)
//!   on a validation miss, and advanced for free to the thread's own last
//!   write version after each commit.
//!
//! ## Why sharded timestamps preserve opacity
//!
//! TL2's safety needs exactly one clock property: if a transaction's read
//! version satisfies `rv >= wv` for some writer, then that writer had
//! already locked its entire write set before the reader began — so the
//! reader observes each written variable either locked (and retries) or
//! fully stamped, never a torn mix. Under `Gv2` this follows from the RMW
//! total order. Under `Sharded`, the writer publishes `wv` to its cell (a
//! `SeqCst` max) after locking and before stamping, so any merge that
//! returns `rv >= wv` read that cell after the publish — again ordering
//! the locks first. Sharded stamps are *not* unique — two concurrent
//! writers may stamp equal versions — which is safe for disjoint write
//! sets but rules out the Gv2 fast path. Per-variable monotonicity (no ABA
//! on version words) is kept by folding each locked variable's pre-lock
//! version into the stamp: `wv >= pre + 2`.
//!
//! The thread-local cached bound is only ever *stale-low*, which is always
//! safe: a too-small `rv` merely triggers extra snapshot extensions.
//! Advancing the cache to the thread's own `wv` after a sharded commit is
//! sound because any writer whose `wv' <= wv` scanned this thread's cell
//! before the publish of `wv`, hence locked before this thread's next
//! transaction begins.
//!
//! Non-transactional stores ([`nontx_tick`]) use one policy-independent
//! stamp — max-merge over the shared word (and the shard cells once any
//! sharded runtime exists) plus the cell's pre-lock version, published to
//! the shared word with a CAS-max before write-back — so runtimes with
//! different policies sharing `TVar`s stay mutually safe.

use ad_support::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::cell::Cell;

/// Which commit-clock algorithm a runtime's transactions use. See the
/// module docs for the two algorithms and their trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockPolicy {
    /// TL2's GV2: `fetch_add(2, SeqCst)` per writer commit. Unique
    /// timestamps, validation fast path, but a global RMW hotspot.
    #[default]
    Gv2,
    /// Cache-line-padded per-thread clock cells, max-merged on demand and
    /// amortized through a thread-local cached read bound.
    Sharded,
}

impl ClockPolicy {
    /// Stable lowercase name (used by bench CLIs and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            ClockPolicy::Gv2 => "gv2",
            ClockPolicy::Sharded => "sharded",
        }
    }

    /// Parse a policy name as accepted by `baseline --clock=<policy>`.
    pub fn parse(s: &str) -> Option<ClockPolicy> {
        match s {
            "gv2" => Some(ClockPolicy::Gv2),
            "sharded" => Some(ClockPolicy::Sharded),
            _ => None,
        }
    }
}

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

/// Number of sharded clock cells. A small power of two: enough that
/// committing threads rarely share a cell, few enough that the max-merge
/// scan stays a handful of cache lines.
const SHARD_COUNT: usize = 16;

/// One clock cell on its own cache-line pair (128-byte alignment covers
/// adjacent-line prefetching).
#[repr(align(128))]
struct ShardCell(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const SHARD_ZERO: ShardCell = ShardCell(AtomicU64::new(0));
static SHARDS: [ShardCell; SHARD_COUNT] = [SHARD_ZERO; SHARD_COUNT];

/// Round-robin shard assignment for committing threads.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Set once any runtime is created with [`ClockPolicy::Sharded`]; makes
/// non-transactional stamps include the shard cells in their merge. Never
/// cleared — scanning cold cells is a few cache-hot loads.
static SHARDED_IN_USE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's shard index (`usize::MAX` = not yet assigned).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Sharded policy: cached lower bound on the merged clock, used as the
    /// read version without scanning. Only ever stale-low (safe); refreshed
    /// by [`refresh`] and advanced by [`note_commit`].
    static CACHED_RV: Cell<u64> = const { Cell::new(0) };
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
            s.set(idx);
        }
        idx
    })
}

/// Max-merge of the shared word and every shard cell. The `Acquire` loads
/// pair with the `SeqCst` publishes in [`tick`]/[`nontx_tick`]: a merge
/// that observes a writer's `wv` also observes everything the writer did
/// before publishing it (its write-set locks in particular).
fn read_merged() -> u64 {
    let mut m = GLOBAL_CLOCK.load(Ordering::Acquire);
    for cell in SHARDS.iter() {
        let v = cell.0.load(Ordering::Acquire);
        if v > m {
            m = v;
        }
    }
    m
}

/// Record that a runtime using `policy` exists, so policy-independent paths
/// (non-transactional stamps) account for it.
pub(crate) fn note_policy_in_use(policy: ClockPolicy) {
    if policy == ClockPolicy::Sharded {
        SHARDED_IN_USE.store(true, Ordering::Release);
    }
}

/// Current shared-word value (always even). Under `Gv2` this is
/// the transaction read version; under `Sharded` it may lag the shard
/// cells, which is still a valid (stale-low) lower bound.
///
/// `Acquire` (not `SeqCst`) suffices, per TL2's own argument: correctness
/// only needs the result to be a *lower bound* on the clock at the moment
/// the transaction starts. `Acquire` synchronizes with the `SeqCst`
/// publishes in the commit tick, so a transaction that reads `rv = t` sees every
/// write-back of the commit that produced `t`. A stale (smaller) value is
/// always safe: the transaction merely extends its snapshot (or aborts)
/// more often.
#[inline]
pub fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Read version for a starting speculative transaction.
#[inline]
pub(crate) fn begin(policy: ClockPolicy) -> u64 {
    match policy {
        ClockPolicy::Gv2 => now(),
        // The cached bound is stale-low by construction; fall back to the
        // shared word during thread teardown.
        ClockPolicy::Sharded => CACHED_RV.try_with(Cell::get).unwrap_or_else(|_| now()),
    }
}

/// Acquire a write version for a committing transaction. Must be called
/// *after* the write set is locked; `rv` is the transaction's (possibly
/// extended) read version and `max_pre` the maximum pre-lock version among
/// the locked variables (keeps per-variable version words monotone under
/// `Sharded`'s non-unique stamps).
#[inline]
pub(crate) fn tick(policy: ClockPolicy, rv: u64, max_pre: u64) -> u64 {
    match policy {
        ClockPolicy::Gv2 => {
            let wv = GLOBAL_CLOCK.fetch_add(2, Ordering::SeqCst) + 2;
            debug_assert!(wv > max_pre);
            wv
        }
        ClockPolicy::Sharded => {
            let wv = read_merged().max(rv).max(max_pre) + 2;
            // Publish before any variable is stamped: a reader whose merge
            // returns rv >= wv is thereby ordered after our write-set locks.
            SHARDS[my_shard()].0.fetch_max(wv, Ordering::SeqCst);
            wv
        }
    }
}

/// Compute a new read version for snapshot extension, guaranteed to be at
/// least `witness` (the version that exceeded the old `rv`).
#[inline]
pub(crate) fn refresh(policy: ClockPolicy, witness: u64) -> u64 {
    match policy {
        ClockPolicy::Gv2 => {
            // Gv2 stamps come from the shared word's RMW, and nontx stamps
            // publish there before write-back, so the word already covers
            // the witness.
            let rv = now();
            debug_assert!(rv >= witness);
            rv
        }
        ClockPolicy::Sharded => {
            // Writers publish to their cell before stamping, so the merge
            // covers every version a reader can witness.
            let rv = read_merged();
            debug_assert!(rv >= witness);
            let _ = CACHED_RV.try_with(|c| c.set(rv));
            rv
        }
    }
}

/// Hook for a successfully committed writer: under `Sharded`, advance this
/// thread's cached read bound to its own `wv` (sound — see module docs;
/// a no-op under `Gv2`).
#[inline]
pub(crate) fn note_commit(policy: ClockPolicy, wv: u64) {
    if policy == ClockPolicy::Sharded {
        let _ = CACHED_RV.try_with(|c| {
            if c.get() < wv {
                c.set(wv);
            }
        });
    }
}

/// Policy-independent stamp for a non-transactional store
/// (`TVar::store`/serial writes). Called with the cell's write lock held;
/// `pre` is its pre-lock version. Publishes the stamp to the shared word
/// *before* returning (hence before the caller's write-back), so readers
/// under every policy order correctly against it.
#[inline]
pub(crate) fn nontx_tick(pre: u64) -> u64 {
    let mut m = GLOBAL_CLOCK.load(Ordering::Acquire);
    if SHARDED_IN_USE.load(Ordering::Acquire) {
        m = m.max(read_merged());
    }
    let wv = m.max(pre) + 2;
    GLOBAL_CLOCK.fetch_max(wv, Ordering::SeqCst);
    wv
}

/// True if a version word is write-locked (odd).
#[inline]
pub fn is_locked(version: u64) -> bool {
    version & 1 == 1
}

/// Test/model hooks for the `verify::` clock models.
#[cfg(any(test, loom))]
pub(crate) mod model_hooks {
    use super::*;

    /// The shard index the calling thread's sharded ticks publish to.
    pub(crate) fn my_shard_index() -> usize {
        my_shard()
    }

    /// Max-merge over the shared word and all shard cells (what a correct
    /// sharded refresh computes).
    pub(crate) fn merged() -> u64 {
        read_merged()
    }

    /// **Deliberately broken** merge that skips shard `skip` — the seeded
    /// clock-skew bug for the regression model: a reader refreshing through
    /// this can miss a writer's published `wv` and keep a too-small `rv`,
    /// accepting a version above its snapshot without revalidation.
    pub(crate) fn merged_skipping(skip: usize) -> u64 {
        let mut m = GLOBAL_CLOCK.load(Ordering::Acquire);
        for (i, cell) in SHARDS.iter().enumerate() {
            if i == skip {
                continue;
            }
            let v = cell.0.load(Ordering::Acquire);
            if v > m {
                m = v;
            }
        }
        m
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_even() {
        let a = now();
        assert_eq!(a % 2, 0);
        let b = tick(ClockPolicy::Gv2, 0, 0);
        assert_eq!(b % 2, 0);
        assert!(b > a);
        assert!(now() >= b);
    }

    #[test]
    fn locked_bit_detection() {
        assert!(!is_locked(0));
        assert!(!is_locked(42));
        assert!(is_locked(1));
        assert!(is_locked(43));
    }

    #[test]
    fn concurrent_gv2_ticks_are_unique() {
        // Uniqueness is a Gv2-only property (sharded stamps may collide by
        // design); it is what the validation fast path rests on.
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(|| {
                (0..1000)
                    .map(|_| tick(ClockPolicy::Gv2, 0, 0))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "two ticks returned the same version");
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in [ClockPolicy::Gv2, ClockPolicy::Sharded] {
            assert_eq!(ClockPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(ClockPolicy::parse("gv7"), None);
        assert_eq!(ClockPolicy::Gv2, ClockPolicy::default());
    }

    #[test]
    fn sharded_tick_publishes_to_own_cell() {
        let wv = tick(ClockPolicy::Sharded, 0, 0);
        assert_eq!(wv % 2, 0);
        let merged = model_hooks::merged();
        assert!(merged >= wv, "tick must publish before returning");
        // A refresh (full merge) must therefore cover the new stamp.
        let rv = refresh(ClockPolicy::Sharded, wv);
        assert!(rv >= wv);
        // And the commit hook advances this thread's cached begin bound.
        note_commit(ClockPolicy::Sharded, wv);
        assert!(begin(ClockPolicy::Sharded) >= wv);
    }

    #[test]
    fn sharded_ticks_are_monotone_within_a_thread() {
        let a = tick(ClockPolicy::Sharded, 0, 0);
        let b = tick(ClockPolicy::Sharded, 0, 0);
        assert!(b > a, "second scan must see the first publish");
    }

    #[test]
    fn skewed_merge_misses_own_shard() {
        // The seeded clock-skew bug: dropping one shard from the merge can
        // lose that shard's freshest stamp. This is the defect the loom
        // regression model must catch end-to-end.
        // The clock is process-wide and the neighbouring tests tick it: the
        // stamp is taken far enough ahead that none of them can cover it
        // between the tick and the skewed merge.
        let wv = tick(ClockPolicy::Sharded, model_hooks::merged() + 1_000_000, 0);
        let me = model_hooks::my_shard_index();
        assert!(model_hooks::merged() >= wv);
        assert!(
            model_hooks::merged_skipping(me) < wv,
            "skipping the publishing shard must lose its stamp"
        );
    }

    #[test]
    fn nontx_tick_clears_shared_word_and_pre_version() {
        let base = now();
        let wv = nontx_tick(base + 10);
        assert!(wv >= base + 12);
        assert_eq!(wv % 2, 0);
        assert!(now() >= wv, "nontx stamp must publish to the shared word");
        // With sharded cells in play the merge is included too.
        SHARDED_IN_USE.store(true, Ordering::Release);
        let swv = tick(ClockPolicy::Sharded, 0, 0);
        let nwv = nontx_tick(0);
        assert!(nwv > swv, "nontx stamp must clear published shard stamps");
    }

    #[test]
    fn begin_is_stale_low_only() {
        // The cached sharded bound never exceeds what a full merge returns.
        let rv = begin(ClockPolicy::Sharded);
        assert!(rv <= model_hooks::merged());
        // Gv2 begins at the shared word itself. A neighbouring test's tick
        // can land between the two loads, so one attempt may miss.
        assert!((0..1000).any(|_| begin(ClockPolicy::Gv2) == now()));
    }
}
