//! Lock-free snapshot storage for [`VarCore`](crate::var) with epoch-based
//! reclamation.
//!
//! ## Why this module exists
//!
//! The committed value of a transactional variable used to live behind a
//! `RwLock<Arc<dyn Any>>`: readers took the read lock for the duration of an
//! `Arc` clone. That kept everything in safe Rust, but it put an atomic
//! RMW pair (lock/unlock) on the hottest path in the system — every
//! transactional read, every `TVar::load` — and made readers and the
//! committing writer contend on the lock's cache line even though the
//! even/odd `version` seqlock already serializes them logically.
//!
//! [`SnapshotCell`] replaces the lock with a single `AtomicPtr` to a
//! heap-allocated `Value` (an `Arc<dyn Any + Send + Sync>`). Readers load
//! the pointer under an epoch pin ([`EpochGuard`]) and borrow the value
//! behind it ([`Pinned`]) — no `Arc` clone, so a read writes no shared
//! cache line; writers (who already hold the cell's version lock, so there
//! is exactly one at a time) swap in a new pointer. The old allocation
//! cannot be freed immediately — a pinned reader may still borrow it — so
//! retired pointers go through a small epoch-based reclamation scheme
//! (`crossbeam-epoch`-style, hand-rolled because this build is offline). A
//! transaction attempt holds one pin for its whole life, so the values it
//! read stay valid until it ends, and its read log ([`ReadLog`]) caches
//! pointers, not clones.
//!
//! ## The epoch scheme
//!
//! * A global epoch counter advances by 1 when every *pinned* participant
//!   has observed the current epoch.
//! * Each thread registers a participant slot. A reader *pins* (publishes
//!   the global epoch into its slot, with a `SeqCst` fence so the publish
//!   cannot reorder after the subsequent pointer loads), performs its
//!   loads and uses the values, then *unpins* (stores the `INACTIVE`
//!   sentinel).
//! * A writer retires the old pointer into a thread-local bag. The
//!   retirement runs *pinned* (so it works on the non-transactional
//!   `direct_write` path too, which carries no transaction-scope pin) and
//!   the bag tag `E` is the global epoch read **after a `SeqCst` fence
//!   that follows the unlink swap** — crossbeam's `push_bag` discipline.
//!   The fence makes the tag fresh with respect to every concurrent
//!   reader: any reader still able to hold the old pointer is pinned at
//!   an epoch `<= E` (see the proof in [`SnapshotCell::store`]).
//! * The pointer is freed once the global epoch reaches `E + 2`:
//!   advancing to `E + 1` proves no *new* pin can acquire the retired
//!   pointer (it was unlinked before the advance), and advancing again to
//!   `E + 2` proves every pin from epoch `E` — the only ones that could
//!   still hold it — has since unpinned. This is the standard two-epoch
//!   safety argument used by crossbeam.
//! * Collection runs only at [`flush`] safe points (never inside `store`):
//!   when a bag exceeds a threshold, or periodically for below-threshold
//!   bags and the orphan list. A thread that exits donates its bag to the
//!   global orphan list that other threads drain.
//! * The bag is an **epoch-ordered deque**: within a thread, retirement
//!   tags are monotone (each is the global epoch read after a fence, and
//!   the global epoch only grows), so pushes at the back keep the deque
//!   sorted by tag and collection frees from the front only, stopping at
//!   the first entry that has not aged past the two-epoch horizon. When
//!   the epoch is stuck (a long-pinned reader), a collection is O(1) —
//!   it inspects the front and gives up — instead of re-scanning the whole
//!   bag, which used to dominate multi-thread write cost once bags grew.
//!   Adopting orphans is the one path that can break the ordering, so it
//!   re-sorts (rare: thread exit only). Failed epoch-advance attempts are
//!   also memoized: while the global epoch still has the value at which
//!   this thread's last advance attempt failed, threshold-triggered
//!   collections skip the participant scan entirely; the periodic
//!   ([`FLUSH_PERIOD`]) safe points always retry, so a cleared blocker is
//!   noticed promptly. Frees per flush are capped ([`FREE_BATCH_CAP`]) so
//!   a commit safe point never runs an unbounded amount of user `Drop`
//!   code at once.
//!
//! ## Safety invariants (everything `unsafe` here relies on these)
//!
//! 1. Pointers stored in a `SnapshotCell` come only from `alloc_value`
//!    (`Box::into_raw` or a recycled allocation of the same layout) and
//!    are dropped and released exactly once, either by reclamation or by
//!    `SnapshotCell::drop`.
//! 2. A pointer is dereferenced only while the executing thread is pinned
//!    by the [`EpochGuard`] it was loaded under, and its cell is alive: a
//!    [`Pinned`] borrows both the guard and the cell, and a [`ReadLog`]
//!    hands out a cached pointer only under the guard whose id it carries,
//!    while it holds the `Arc<VarCore>` that owns the cell.
//! 3. `SnapshotCell::store` is only called under the owning cell's version
//!    lock (odd version), so there is at most one concurrent writer; the
//!    swap therefore retires each old pointer exactly once. Retirement is
//!    pinned and its epoch tag is read after a post-swap `SeqCst` fence.
//! 4. Values are never dropped while the thread-local registry borrow is
//!    held: user `Drop` impls may re-enter this module (e.g. a dropped
//!    value reads a `TVar`), so frees happen after the borrow is released.
//! 5. Values are only freed at [`flush`] safe points, called with no
//!    version locks held: a user `Drop` must never run while any cell is
//!    write-locked (it could read that cell and spin forever, or panic and
//!    leave the lock word odd permanently).
//!
//! The concurrent stress tests live in `tests/snapshot_stress.rs`.
#![allow(unsafe_code)]

use ad_support::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

use ad_support::sync::Mutex;

use crate::registry::Padded;
use crate::smallmap::SmallMap;
use crate::var::{Value, VarCore};

/// Sentinel epoch meaning "not currently pinned".
const INACTIVE: u64 = u64::MAX;

/// Bag size at which a [`flush`] attempts collection.
const COLLECT_THRESHOLD: usize = 64;

/// Cap on values freed at a single [`flush`] safe point. Freeing runs
/// arbitrary user `Drop` code, so this bounds the pause one commit can
/// absorb when a long-stuck epoch finally clears over a large backlog.
const FREE_BATCH_CAP: usize = 128;

/// Sentinel for [`Handle::advance_failed_at`]: no failed advance memoized.
const NO_FAILED_ADVANCE: u64 = u64::MAX;

/// Every this-many [`flush`] calls, a collection is attempted even with a
/// below-threshold bag (and for stranded orphans), so a churn-then-quiet
/// workload does not keep up to `COLLECT_THRESHOLD` values per thread —
/// plus every exited thread's orphans — alive for the process lifetime.
const FLUSH_PERIOD: u32 = 64;

/// Global epoch counter (advances by 1; see module docs).
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// All registered participants. Locked only on registration, thread exit,
/// and (briefly) during epoch advancement — never on the read path.
static PARTICIPANTS: Mutex<Vec<Arc<Participant>>> = Mutex::new(Vec::new());

/// Garbage donated by exited threads, drained during collection.
static ORPHANS: Mutex<Vec<Retired>> = Mutex::new(Vec::new());

/// Advisory "the orphan list is non-empty" flag, so [`flush`] can poll for
/// stranded orphans without taking the `ORPHANS` lock. Set and cleared
/// while holding the lock; read `Relaxed` (a stale read costs one missed
/// or one extra periodic collection, nothing more).
static HAS_ORPHANS: AtomicBool = AtomicBool::new(false);

/// Process-wide observability counters: values retired into bags and values
/// actually freed. `retired - freed` is the live deferred-reclamation
/// backlog. Relaxed, diagnostics only; the retire side is batched through
/// the thread-local [`Handle`] so the write-back hot path never touches a
/// shared cache line for accounting.
static RETIRED_TOTAL: AtomicU64 = AtomicU64::new(0);
static FREED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// `(retired, freed)` totals since process start. The retired count is
/// published at collection safe points, so it can briefly lag the freed
/// count's precision — treat both as monotone gauges, not exact ledgers.
pub(crate) fn reclaim_counters() -> (u64, u64) {
    (
        RETIRED_TOTAL.load(Ordering::Relaxed),
        FREED_TOTAL.load(Ordering::Relaxed),
    )
}

/// One per thread: the epoch this thread is pinned at, or [`INACTIVE`].
/// Padded, so a pin — a store to this word at the start of every
/// transaction attempt — never shares a line with another thread's pin or
/// with anything else.
struct Participant {
    epoch: Padded<AtomicU64>,
}

impl Participant {
    /// Register a one-shot participant, pinned at the current epoch: the
    /// pin of a thread whose `HANDLE` is already destroyed (thread-local
    /// teardown). Release it with [`unpin_oneshot`](Self::unpin_oneshot).
    #[cold]
    fn pin_oneshot() -> Arc<Participant> {
        let part = Arc::new(Participant {
            epoch: Padded::new(AtomicU64::new(INACTIVE)),
        });
        PARTICIPANTS.lock().push(Arc::clone(&part));
        let e = EPOCH.load(Ordering::Relaxed);
        part.epoch.store(e, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        part
    }

    #[cold]
    fn unpin_oneshot(self: &Arc<Self>) {
        self.epoch.store(INACTIVE, Ordering::Release);
        let mut parts = PARTICIPANTS.lock();
        if let Some(i) = parts.iter().position(|q| Arc::ptr_eq(q, self)) {
            parts.swap_remove(i);
        }
    }
}

/// A retired pointer, tagged with the global epoch at retirement.
struct Retired {
    ptr: *mut Value,
    epoch: u64,
}

// SAFETY: `ptr` is an owned heap allocation of a `Value` (`Send + Sync`);
// `Retired` merely transfers the obligation to free it across threads.
unsafe impl Send for Retired {}

/// Cap on the per-thread free list of recycled `Value` allocations. Beyond
/// this, reclaimed boxes are returned to the system allocator. (Model
/// builds never recycle — freed values are poisoned and leaked instead.)
#[cfg(not(loom))]
const FREE_LIST_CAP: usize = 64;

/// Thread-local reclamation state: the participant slot, the bag of
/// retired-but-not-yet-free pointers, the pin depth (pins are reentrant so
/// a transaction can hold one pin across its whole attempt), and a free
/// list of recycled allocations so steady-state write-backs don't malloc.
struct Handle {
    part: Arc<Participant>,
    /// Retired pointers in epoch-tag order (module docs): pushed at the
    /// back with monotone tags, freed from the front only.
    bag: VecDeque<Retired>,
    depth: u32,
    /// Pin scopes opened on this thread so far: the id of the next
    /// [`EpochGuard`] is this plus one, so ids are unique per thread.
    scopes: u64,
    free: Vec<*mut Value>,
    /// Monotonic count of [`flush`] calls on this thread, used to trigger
    /// the periodic (below-threshold) collections.
    flushes: u32,
    /// Retirements not yet added to [`RETIRED_TOTAL`] — published in
    /// batches at collection points so retiring stays a local increment.
    retired_unpublished: u64,
    /// Global epoch value at which this thread's last `try_advance`
    /// attempt failed (a participant was pinned in an older epoch), or
    /// [`NO_FAILED_ADVANCE`]. While the global epoch still equals this,
    /// threshold-triggered collections skip the participant scan; the
    /// periodic safe points reset it so advancement is retried.
    advance_failed_at: u64,
}

impl Handle {
    fn register() -> Handle {
        let part = Arc::new(Participant {
            epoch: Padded::new(AtomicU64::new(INACTIVE)),
        });
        PARTICIPANTS.lock().push(Arc::clone(&part));
        Handle {
            part,
            bag: VecDeque::new(),
            depth: 0,
            scopes: 0,
            free: Vec::new(),
            flushes: 0,
            retired_unpublished: 0,
            advance_failed_at: NO_FAILED_ADVANCE,
        }
    }

    /// Pin the participant at the current global epoch (outermost pin
    /// only). The `SeqCst` fence orders the epoch publication before any
    /// subsequent pointer load: an advancer that does not observe this pin
    /// is guaranteed (by its own `SeqCst` fence) that our later loads see
    /// memory at least as new as the epoch it advanced from.
    #[inline]
    fn pin(&mut self) {
        if self.depth == 0 {
            let e = EPOCH.load(Ordering::Relaxed);
            self.part.epoch.store(e, Ordering::Relaxed);
            fence(Ordering::SeqCst);
        }
        self.depth += 1;
    }

    #[inline]
    fn unpin(&mut self) {
        self.depth -= 1;
        if self.depth == 0 {
            self.part.epoch.store(INACTIVE, Ordering::Release);
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        // Donate unfinished garbage and deregister, so an exited thread can
        // neither leak its bag nor block epoch advancement forever.
        if !self.bag.is_empty() {
            let mut orphans = ORPHANS.lock();
            orphans.extend(self.bag.drain(..));
            HAS_ORPHANS.store(true, Ordering::Relaxed);
        }
        if self.retired_unpublished > 0 {
            RETIRED_TOTAL.fetch_add(self.retired_unpublished, Ordering::Relaxed);
        }
        for p in self.free.drain(..) {
            // SAFETY: free-list entries are allocations whose contents were
            // already dropped (invariant 1); release the memory only.
            unsafe { dealloc_value(p) };
        }
        let mut parts = PARTICIPANTS.lock();
        if let Some(i) = parts.iter().position(|p| Arc::ptr_eq(p, &self.part)) {
            parts.swap_remove(i);
        }
    }
}

thread_local! {
    static HANDLE: RefCell<Handle> = RefCell::new(Handle::register());
}

/// An RAII pin: while it lives, this thread is pinned, so every value
/// [`SnapshotCell::load`] returns under it stays allocated while its cell
/// lives — however often the cell is overwritten meanwhile. A transaction
/// attempt holds one for its whole life; the runner drops it before it
/// blocks in `retry` or behind an irrevocable transaction, so a waiting
/// thread never stalls reclamation.
pub(crate) struct EpochGuard {
    /// Unique among this thread's guards; tags every [`Pinned`] read under
    /// this one (the read cache checks it).
    id: u64,
    /// The participant that pins this scope when the thread's `HANDLE` is
    /// already destroyed (thread-local teardown); `None` normally.
    oneshot: Option<Arc<Participant>>,
    /// A pin belongs to the thread that took it.
    _not_send: PhantomData<*const ()>,
}

/// Pin this thread for the lifetime of the returned guard. Nested inside
/// another guard this is a depth increment; the outermost pin publishes
/// the epoch with a `SeqCst` fence.
pub(crate) fn pin_scope() -> EpochGuard {
    let pinned = HANDLE.try_with(|h| {
        let mut h = h.borrow_mut();
        h.pin();
        h.scopes += 1;
        h.scopes
    });
    match pinned {
        Ok(id) => EpochGuard {
            id,
            oneshot: None,
            _not_send: PhantomData,
        },
        Err(_) => {
            // Teardown ids live in the upper half, apart from every
            // `Handle`'s count.
            static TEARDOWN_SCOPES: AtomicU64 = AtomicU64::new(1 << 63);
            EpochGuard {
                id: TEARDOWN_SCOPES.fetch_add(1, Ordering::Relaxed),
                oneshot: Some(Participant::pin_oneshot()),
                _not_send: PhantomData,
            }
        }
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        match &self.oneshot {
            None => {
                let _ = HANDLE.try_with(|h| h.borrow_mut().unpin());
            }
            Some(part) => part.unpin_oneshot(),
        }
    }
}

/// A committed value read under an [`EpochGuard`], borrowed for as long as
/// both the guard and the cell live. Dereferences to the type-erased value.
#[derive(Clone, Copy)]
pub(crate) struct Pinned<'a> {
    val: &'a Value,
    /// The id of the guard it was read under.
    scope: u64,
    /// The address of the cell it was read from.
    cell: *const SnapshotCell,
}

impl std::ops::Deref for Pinned<'_> {
    type Target = Value;

    #[inline]
    fn deref(&self) -> &Value {
        self.val
    }
}

/// A speculative attempt's read set — each variable read, with the version
/// read — and its read cache: the pointer each first read borrowed, by
/// variable id, not an `Arc` clone, so a re-read costs no refcount traffic
/// on a shared line.
///
/// A cached pointer stays valid because the log holds the `Arc<VarCore>`
/// that owns its cell for as long as it holds the pointer (the two are
/// added by one [`record`](Self::record) and removed together), and
/// because the attempt stays pinned: the cache belongs to the pin scope it
/// was filled under, and a lookup under any other scope finds nothing. The
/// owner still empties the cache before the pin drops.
#[derive(Default)]
pub(crate) struct ReadLog {
    entries: Vec<(Arc<VarCore>, u64)>,
    scope: u64,
    cache: SmallMap<*const Value>,
}

impl ReadLog {
    /// The value cached for `id`, if it was read under `pin`.
    #[inline]
    pub(crate) fn get<'a>(&'a self, id: usize, pin: &'a EpochGuard) -> Option<Pinned<'a>> {
        if self.scope != pin.id {
            return None;
        }
        let &p = self.cache.get(id)?;
        #[cfg(loom)]
        ad_support::model::assert_not_poisoned(p as usize, "ReadLog::get");
        // SAFETY: `p` was read under the guard whose id is `self.scope`
        // (`record`). Ids are unique per thread, and neither the log nor a
        // guard leaves its thread, so that guard is `pin`: alive, so the
        // thread has stayed pinned since the read. And `entries` still
        // holds the `Arc<VarCore>` whose cell `p` was read from, so the
        // cell has not dropped it either: it is that cell's current value,
        // or retired and not yet collectable (invariant 2).
        Some(Pinned {
            val: unsafe { &*p },
            scope: pin.id,
            cell: std::ptr::null(),
        })
    }

    /// Log a read of `core` that returned `val` at `version`, and cache
    /// `val` for re-reads. `val` must have been read from `core`'s cell.
    #[inline]
    pub(crate) fn record(&mut self, core: &Arc<VarCore>, version: u64, val: Pinned<'_>) {
        assert!(
            std::ptr::eq(val.cell, core.cell()),
            "ad-stm internal error: a read logged against another variable"
        );
        self.entries.push((Arc::clone(core), version));
        if self.scope != val.scope {
            self.cache.clear();
            self.scope = val.scope;
        }
        self.cache.insert(core.id(), val.val as *const Value);
    }

    /// The logged reads, in order.
    #[inline]
    pub(crate) fn entries(&self) -> &[(Arc<VarCore>, u64)] {
        &self.entries
    }

    /// Log a read without caching it (serial mode re-reads memory).
    pub(crate) fn push(&mut self, core: &Arc<VarCore>, version: u64) {
        self.entries.push((Arc::clone(core), version));
    }

    /// Empty the cache; the entries stay (the read set outlives the pin,
    /// for commit-time bookkeeping and `retry`).
    pub(crate) fn clear_cache(&mut self) {
        self.cache.clear();
    }

    pub(crate) fn clear(&mut self) {
        self.cache.clear();
        self.entries.clear();
    }

    /// Move the entries out (for a `retry` watch list), emptying the log.
    pub(crate) fn take_entries(&mut self) -> Vec<(Arc<VarCore>, u64)> {
        self.cache.clear();
        std::mem::take(&mut self.entries)
    }

    /// Take back an entry vector from [`take_entries`](Self::take_entries),
    /// keeping its capacity.
    pub(crate) fn recycle(&mut self, mut entries: Vec<(Arc<VarCore>, u64)>) {
        entries.clear();
        self.cache.clear();
        self.entries = entries;
    }
}

/// Allocate a slot for `value`, reusing a recycled allocation if one is
/// available.
fn alloc_value(value: Value) -> *mut Value {
    let slot = HANDLE
        .try_with(|h| h.borrow_mut().free.pop())
        .ok()
        .flatten();
    match slot {
        Some(p) => {
            // SAFETY: free-list entries point to valid, content-dropped
            // allocations of `Value` owned by this thread (invariant 1).
            unsafe { std::ptr::write(p, value) };
            p
        }
        None => Box::into_raw(Box::new(value)),
    }
}

/// Release the memory of an allocation whose contents were already dropped.
///
/// # Safety
/// `p` must come from `Box::into_raw(Box::new(_: Value))` and its contents
/// must have been dropped (or moved out) already.
unsafe fn dealloc_value(p: *mut Value) {
    drop(unsafe { Box::from_raw(p.cast::<std::mem::MaybeUninit<Value>>()) });
}

/// Advance the global epoch if every pinned participant has observed it.
/// Returns the (possibly advanced) global epoch.
fn try_advance() -> u64 {
    let global = EPOCH.load(Ordering::Relaxed);
    fence(Ordering::SeqCst);
    {
        let parts = PARTICIPANTS.lock();
        for p in parts.iter() {
            let e = p.epoch.load(Ordering::Relaxed);
            if e != INACTIVE && e != global {
                // Someone is still pinned in an older epoch.
                return global;
            }
        }
    }
    fence(Ordering::SeqCst);
    match EPOCH.compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => global + 1,
        Err(actual) => actual,
    }
}

/// Adopt donated orphans into `bag`. Orphan tags need not follow this
/// thread's monotone push order, so adoption re-sorts the deque to restore
/// the epoch-ordered invariant the pop-front rule relies on (cheap: runs
/// only after a thread exit donated garbage).
fn adopt_orphans(bag: &mut VecDeque<Retired>) {
    if !HAS_ORPHANS.load(Ordering::Relaxed) {
        return;
    }
    {
        let mut orphans = ORPHANS.lock();
        bag.extend(orphans.drain(..));
        HAS_ORPHANS.store(false, Ordering::Relaxed);
    }
    bag.make_contiguous().sort_by_key(|r| r.epoch);
}

/// Pop the freeable prefix of the bag (two-epoch rule, front-only — the
/// deque is epoch-ordered) after adopting any orphans and, if needed,
/// attempting one epoch advance. Returns at most [`FREE_BATCH_CAP`]
/// entries.
///
/// When the epoch is stuck this is O(1): the front entry has not aged
/// past the horizon, and — if the epoch still has the value at which the
/// previous advance attempt failed — the participant scan is skipped too.
///
/// The caller must drop the returned garbage *outside* any thread-local
/// borrow (invariant 4): freeing a `Value` runs arbitrary user `Drop` code.
fn collect(h: &mut Handle) -> Vec<Retired> {
    adopt_orphans(&mut h.bag);
    let horizon = |r: &Retired| r.epoch.saturating_add(2);
    let cur = EPOCH.load(Ordering::Relaxed);
    let global = match h.bag.front() {
        None => return Vec::new(),
        // Front already aged out: no advance needed to make progress.
        Some(r) if cur >= horizon(r) => cur,
        // Epoch unchanged since our last failed advance: the blocker was
        // pinned then and nothing has moved; skip the participant scan.
        // Periodic flushes clear the memo so this cannot skip forever.
        Some(_) if cur == h.advance_failed_at => return Vec::new(),
        Some(_) => {
            let g = try_advance();
            h.advance_failed_at = if g == cur { cur } else { NO_FAILED_ADVANCE };
            g
        }
    };
    let mut free = Vec::new();
    while free.len() < FREE_BATCH_CAP {
        match h.bag.front() {
            Some(r) if global >= horizon(r) => free.push(h.bag.pop_front().expect("front exists")),
            _ => break,
        }
    }
    free
}

/// Model-checking face of [`free_garbage`]: under `--cfg loom` a "free"
/// registers the address in the poison registry and leaks the allocation
/// (no drop, no recycling, no `dealloc`). A reader that dereferences a
/// reclaimed pointer then fails a deterministic assertion inside the model
/// instead of touching freed memory, and because nothing is ever returned
/// to the allocator no address is reused, so stale poison entries cannot
/// produce false positives.
#[cfg(loom)]
fn free_garbage(garbage: Vec<Retired>) {
    if garbage.is_empty() {
        return;
    }
    FREED_TOTAL.fetch_add(garbage.len() as u64, Ordering::Relaxed);
    for r in garbage {
        ad_support::model::poison(r.ptr as usize);
    }
}

#[cfg(not(loom))]
fn free_garbage(garbage: Vec<Retired>) {
    if garbage.is_empty() {
        return;
    }
    FREED_TOTAL.fetch_add(garbage.len() as u64, Ordering::Relaxed);
    let mut ptrs: Vec<*mut Value> = Vec::with_capacity(garbage.len());
    for r in garbage {
        // SAFETY: `r.ptr` came from `alloc_value` (invariant 1) and the
        // two-epoch rule proves no reader still holds it; `collect`
        // removed it from the bag, so it is dropped exactly once. The drop
        // runs outside any `HANDLE` borrow (invariant 4).
        unsafe { std::ptr::drop_in_place(r.ptr) };
        ptrs.push(r.ptr);
    }
    // Recycle the now-empty allocations into the free list (bounded), so
    // subsequent write-backs skip the allocator entirely.
    let mut recycled = false;
    let _ = HANDLE.try_with(|h| {
        let mut h = h.borrow_mut();
        for p in ptrs.drain(..) {
            if h.free.len() < FREE_LIST_CAP {
                h.free.push(p);
            } else {
                // SAFETY: contents dropped above; memory-only release.
                unsafe { dealloc_value(p) };
            }
        }
        recycled = true;
    });
    if !recycled {
        for p in ptrs {
            // SAFETY: as above — TLS teardown path, nothing to recycle to.
            unsafe { dealloc_value(p) };
        }
    }
}

/// Reclamation safe point: collect and free retired values if the bag has
/// reached [`COLLECT_THRESHOLD`], or periodically (every [`FLUSH_PERIOD`]
/// calls) while a below-threshold bag or donated orphans remain.
///
/// # Contract (invariant 5)
///
/// Freeing a retired `Value` runs arbitrary user `Drop` code — which may
/// re-enter this module, read `TVar`s, or start transactions — so `flush`
/// must only be called with **no version locks held** and outside any
/// transaction attempt's closure. The two call sites are the runtime's
/// commit path (after every guard — epoch pin, activity slot, serial flag
/// — has been released) and `TVar::store` (after `write_back` has restored
/// an even version word). `SnapshotCell::store` itself never frees: a
/// `Drop` impl running under a still-odd version word could spin forever
/// in `VarCore::read`, and a panicking `Drop` would unwind out
/// of commit write-back leaving version words locked for good.
///
/// Cheap when idle: one thread-local access and a counter bump.
pub(crate) fn flush() {
    let garbage = HANDLE
        .try_with(|h| {
            let mut h = h.borrow_mut();
            h.flushes = h.flushes.wrapping_add(1);
            let periodic = h.flushes % FLUSH_PERIOD == 0;
            let due = h.bag.len() >= COLLECT_THRESHOLD
                || (periodic && (!h.bag.is_empty() || HAS_ORPHANS.load(Ordering::Relaxed)));
            if due {
                if h.retired_unpublished > 0 {
                    RETIRED_TOTAL.fetch_add(h.retired_unpublished, Ordering::Relaxed);
                    h.retired_unpublished = 0;
                }
                if periodic {
                    // Periodic safe points always retry the epoch advance,
                    // so a blocker that unpinned is noticed even while the
                    // threshold path skips re-scans.
                    h.advance_failed_at = NO_FAILED_ADVANCE;
                }
                collect(&mut h)
            } else {
                Vec::new()
            }
        })
        .unwrap_or_default();
    // Freed outside the `HANDLE` borrow: dropping a Value can run user
    // Drop impls that re-enter this module (invariant 4).
    free_garbage(garbage);
}

/// A lock-free, epoch-reclaimed cell holding one type-erased committed
/// value. Replaces the former `RwLock<Value>` in `VarCore`; the caller's
/// even/odd version word remains the seqlock that pairs a value with its
/// commit timestamp.
pub(crate) struct SnapshotCell {
    ptr: AtomicPtr<Value>,
}

impl SnapshotCell {
    pub(crate) fn new(value: Value) -> Self {
        SnapshotCell {
            ptr: AtomicPtr::new(alloc_value(value)),
        }
    }

    /// The current value, borrowed for as long as both `pin` and the cell
    /// live. Lock-free and write-free: one `Acquire` pointer load, no
    /// refcount, no pin store of its own — the guard already published the
    /// pin.
    #[inline]
    pub(crate) fn load<'a>(&'a self, pin: &'a EpochGuard) -> Pinned<'a> {
        let p = self.ptr.load(Ordering::Acquire);
        // Model builds: a scheduling point *between* the pointer load and
        // the dereference (exactly the window the epoch pin must protect),
        // then a use-after-free check against the poison registry. The
        // `reader_window` turnstile is inert unless a staged regression
        // scenario armed it.
        #[cfg(loom)]
        model_hooks::reader_window();
        #[cfg(loom)]
        ad_support::model::assert_not_poisoned(p as usize, "SnapshotCell::load");
        // SAFETY: `p` was published by `new`/`store` (invariant 1). This
        // thread is pinned until `pin` drops, so reclamation cannot free it
        // before then (two-epoch rule), and the borrow of `self` keeps the
        // cell from dropping it (invariant 2).
        Pinned {
            val: unsafe { &*p },
            scope: pin.id,
            cell: self,
        }
    }

    /// Replace the value, retiring the previous allocation.
    ///
    /// Contract (invariant 3): the caller holds the owning `VarCore`'s
    /// version lock (odd version word), so at most one `store` runs at a
    /// time per cell. Concurrent `load`s are fine.
    ///
    /// Never frees anything (invariant 5): the old pointer is only pushed
    /// into the retirement bag, and the caller is typically still holding
    /// version locks. Collection happens later, at a [`flush`] safe point.
    pub(crate) fn store(&self, value: Value) {
        let new = alloc_value(value);
        retire(|| self.ptr.swap(new, Ordering::AcqRel));
    }

    /// DELIBERATELY BUGGY store used only by tests: this is the exact PR-1
    /// soundness bug (fixed in commit 0b01d8c) reintroduced behind
    /// `cfg(test)` — the retirement tag is read *before* the unlink swap,
    /// so a concurrent epoch advance between the tag read and the swap
    /// produces a stale tag `E` smaller than a concurrent reader's pin
    /// epoch, and the two-epoch rule frees the old value under that
    /// reader. It exists so the `verify` loom model has a known-bad
    /// implementation to catch: `verify::snapshot_model::
    /// model_catches_stale_retirement_tag` asserts that the retire-vs-pin
    /// model finds a use-after-free for this variant, guarding the model
    /// itself against rotting into always-green.
    #[cfg(test)]
    pub(crate) fn store_weak_tag(&self, value: Value) {
        let new = alloc_value(value);
        let retired = HANDLE.try_with(|h| {
            let mut h = h.borrow_mut();
            h.pin();
            // BUG (kept intentionally): tag read before the swap, no
            // post-swap fence. Compare with `retire`.
            let epoch = EPOCH.load(Ordering::Relaxed);
            // The race window the early tag read opens. The turnstile is
            // inert unless a staged regression scenario armed it.
            #[cfg(loom)]
            model_hooks::stale_tag_window();
            let old = self.ptr.swap(new, Ordering::AcqRel);
            h.bag.push_back(Retired { ptr: old, epoch });
            h.retired_unpublished += 1;
            h.unpin();
        });
        if retired.is_err() {
            retire_teardown(|| self.ptr.swap(new, Ordering::AcqRel));
        }
    }
}

/// Unlink a value with `unlink` (which returns the pointer no new reader
/// can reach any more) and retire it into this thread's bag.
///
/// Runs pinned, so this also holds on the non-transactional path
/// (`TVar::store` -> `direct_write`, post-commit deferred ops), which
/// carries no attempt-scope pin; under one, the pin is a depth increment.
///
/// The tag is an epoch read AFTER a SeqCst fence that follows the unlink
/// (crossbeam's push_bag discipline). This is what makes the two-epoch
/// rule sound against a concurrent reader R that loaded the old pointer
/// just before the unlink:
///   R publishes its pin epoch e_r, fences SeqCst (F_r), then loads the
///   pointer; we unlink, fence SeqCst (F_w), then read the tag E. If
///   F_w < F_r in the SC order, R's load is ordered after the unlink and
///   cannot see the old pointer. If F_r < F_w, the monotonic EPOCH gives
///   E >= e_r, and every later `try_advance` scan (its fence follows
///   F_w > F_r) observes R pinned at e_r <= E — so the epoch cannot pass
///   E + 1 while R is pinned, and the old value (freed only once the
///   epoch reaches E + 2) outlives R's pin. A stale tag (a `Relaxed` read
///   with no fence, or one taken before the unlink — `store_weak_tag`)
///   breaks exactly this: E could lag e_r and the free could land under R.
///
/// Never frees anything (invariant 5): collection happens later, at a
/// [`flush`] safe point.
fn retire(unlink: impl FnOnce() -> *mut Value) {
    let mut unlink = Some(unlink);
    let retired = HANDLE.try_with(|h| {
        let mut h = h.borrow_mut();
        h.pin();
        let old = (unlink.take().expect("unlinked once"))();
        fence(Ordering::SeqCst);
        let epoch = EPOCH.load(Ordering::Relaxed);
        h.bag.push_back(Retired { ptr: old, epoch });
        h.retired_unpublished += 1;
        h.unpin();
    });
    if retired.is_err() {
        if let Some(unlink) = unlink {
            retire_teardown(unlink);
        }
    }
}

/// [`retire`] during thread-local teardown (no `Handle`): the same fenced
/// tag, pinned by a one-shot participant, donated straight to the orphan
/// list.
#[cold]
fn retire_teardown(unlink: impl FnOnce() -> *mut Value) {
    let part = Participant::pin_oneshot();
    let old = unlink();
    fence(Ordering::SeqCst);
    let epoch = EPOCH.load(Ordering::Relaxed);
    {
        let mut orphans = ORPHANS.lock();
        orphans.push(Retired { ptr: old, epoch });
        HAS_ORPHANS.store(true, Ordering::Relaxed);
    }
    RETIRED_TOTAL.fetch_add(1, Ordering::Relaxed);
    part.unpin_oneshot();
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // `&mut self` proves no concurrent reader exists (a reader must
        // reach the cell through a live `Arc<VarCore>`, and a `Pinned` or
        // a `ReadLog` entry holds one), so the current pointer can be freed
        // directly without going through a bag.
        //
        // Model builds leak instead: returning memory to the allocator
        // would let a later allocation land on a poisoned address and
        // produce a false use-after-free (see the loom `free_garbage`).
        #[cfg(not(loom))]
        {
            let p = *self.ptr.get_mut();
            // SAFETY: invariant 1; exclusive access per above.
            unsafe {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// Model-checking hooks: the `verify` suite needs to drive collection and
/// epoch advancement at chosen scheduling points rather than through the
/// `flush` threshold/period heuristics.
#[cfg(loom)]
// Driven by the `cfg(all(test, loom))` verify suite; a plain `--cfg loom`
// build (no tests) compiles the hooks but calls only the turnstiles.
#[allow(dead_code)]
pub(crate) mod model_hooks {
    use super::*;

    /// Collect this thread's bag unconditionally (adopt orphans, attempt
    /// one epoch advance, free — i.e. poison — everything past the
    /// two-epoch horizon).
    pub(crate) fn force_collect() {
        let garbage = HANDLE
            .try_with(|h| {
                let mut h = h.borrow_mut();
                h.advance_failed_at = NO_FAILED_ADVANCE;
                collect(&mut h)
            })
            .unwrap_or_default();
        free_garbage(garbage);
    }

    /// Attempt one epoch advance; returns the (possibly advanced) epoch.
    pub(crate) fn advance() -> u64 {
        try_advance()
    }

    /// Current global epoch (for detecting a successful advance).
    pub(crate) fn current_epoch() -> u64 {
        EPOCH.load(Ordering::SeqCst)
    }

    // --- staging turnstiles for the stale-tag regression model ----------
    //
    // The use-after-free that `store_weak_tag` reintroduces needs a
    // four-phase interleaving: the writer pauses *between* its early tag
    // read and the unlink swap; the epoch advances past the tag; a reader
    // pins in the new epoch and loads the doomed pointer; the writer then
    // runs retire + collect, and the two-epoch rule frees the value under
    // the reader. A random seed sweep essentially never lines those four
    // phases up (two exact-step preemptions plus a thread order — measured
    // well below one hit per 10^4 seeds), so the regression scenario
    // *stages* the schedule with these spin-flags instead. Staging only
    // forces the ordering; the violation itself is still produced by the
    // real machinery — pins, retirement tags, `try_advance`, the two-epoch
    // rule, and the poison registry. All gates are inert unless armed, so
    // the unconstrained green model and every other test are unaffected.

    /// Master switch; armed by the staged scenario for one execution.
    static GATES_ARMED: AtomicBool = AtomicBool::new(false);
    /// Writer sits in the stale-tag window (tag read, swap not yet done).
    static WRITER_IN_WINDOW: AtomicBool = AtomicBool::new(false);
    /// The epoch advanced past the writer's (now stale) tag.
    static EPOCH_ADVANCED: AtomicBool = AtomicBool::new(false);
    /// Reader loaded the doomed pointer and parked before dereferencing.
    static READER_IN_WINDOW: AtomicBool = AtomicBool::new(false);
    /// Writer finished retire + collect: the free (= poison) happened.
    static FREED: AtomicBool = AtomicBool::new(false);

    /// Arm the turnstiles for one staged execution (resets all phases).
    /// Call from scenario setup (runs unscheduled, before threads spawn).
    pub(crate) fn arm_gates() {
        WRITER_IN_WINDOW.store(false, Ordering::SeqCst);
        EPOCH_ADVANCED.store(false, Ordering::SeqCst);
        READER_IN_WINDOW.store(false, Ordering::SeqCst);
        FREED.store(false, Ordering::SeqCst);
        GATES_ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarm after a staged test so later models see inert gates. Pair
    /// with an RAII guard in the test: a panicking `expect` must not leave
    /// the gates armed for the next (serialized) verify test.
    pub(crate) fn disarm_gates() {
        GATES_ARMED.store(false, Ordering::SeqCst);
    }

    pub(crate) fn writer_in_window() -> bool {
        WRITER_IN_WINDOW.load(Ordering::SeqCst)
    }

    pub(crate) fn epoch_advanced() -> bool {
        EPOCH_ADVANCED.load(Ordering::SeqCst)
    }

    pub(crate) fn set_epoch_advanced() {
        EPOCH_ADVANCED.store(true, Ordering::SeqCst);
    }

    pub(crate) fn set_freed() {
        FREED.store(true, Ordering::SeqCst);
    }

    /// Called by `store_weak_tag` inside its buggy window: announce the
    /// window and hold it open until the epoch has advanced and a reader
    /// holds the doomed pointer. Every load is a scheduling point, so the
    /// model scheduler keeps the other threads running meanwhile.
    pub(crate) fn stale_tag_window() {
        if !GATES_ARMED.load(Ordering::SeqCst) {
            return;
        }
        WRITER_IN_WINDOW.store(true, Ordering::SeqCst);
        while !(EPOCH_ADVANCED.load(Ordering::SeqCst) && READER_IN_WINDOW.load(Ordering::SeqCst)) {
            std::hint::spin_loop();
        }
    }

    /// Called by `SnapshotCell::load` between the pointer load and the
    /// poison check: park the reader (holding its pin and the loaded
    /// pointer) until the writer has retired and collected. On release the
    /// reader proceeds straight into `assert_not_poisoned`.
    pub(crate) fn reader_window() {
        if !GATES_ARMED.load(Ordering::SeqCst) {
            return;
        }
        READER_IN_WINDOW.store(true, Ordering::SeqCst);
        while !FREED.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::var::new_value;

    fn get_u64(v: &Value) -> u64 {
        *v.downcast_ref::<u64>().unwrap()
    }

    /// Collect this thread's bag unconditionally (tests cannot rely on the
    /// threshold/period heuristics of `flush`).
    fn force_collect() {
        let garbage = HANDLE
            .try_with(|h| {
                let mut h = h.borrow_mut();
                h.advance_failed_at = NO_FAILED_ADVANCE;
                collect(&mut h)
            })
            .unwrap_or_default();
        free_garbage(garbage);
    }

    /// Repeat `safe_point` until `done` holds (or a generous deadline
    /// passes). The epoch and the participant list are process-wide, so a
    /// neighbouring test's thread descheduled while pinned stalls every
    /// advance for as long as it sleeps: progress of *this* thread's
    /// retirements has to be awaited, not counted in iterations.
    fn reclaim_until(mut safe_point: impl FnMut(), done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() && std::time::Instant::now() < deadline {
            safe_point();
            std::thread::yield_now();
        }
    }

    fn load_u64(cell: &SnapshotCell) -> u64 {
        get_u64(&cell.load(&pin_scope()))
    }

    #[test]
    fn load_store_roundtrip() {
        let cell = SnapshotCell::new(new_value(7u64));
        assert_eq!(load_u64(&cell), 7);
        cell.store(new_value(8u64));
        assert_eq!(load_u64(&cell), 8);
    }

    #[test]
    fn weak_tag_store_is_functionally_correct() {
        // The deliberately-buggy variant is value-correct single-threaded —
        // its bug is *only* visible to concurrent readers via a stale
        // retirement tag, which is exactly why it needs a model checker
        // (`verify::snapshot_model`) rather than a unit test to catch.
        let cell = SnapshotCell::new(new_value(1u64));
        cell.store_weak_tag(new_value(2u64));
        assert_eq!(load_u64(&cell), 2);
        flush();
    }

    #[test]
    fn a_cached_read_outlives_overwrites_until_unpin() {
        // A logged read's value stays allocated for as long as its pin,
        // however many overwrites and collections happen meanwhile; the
        // cache hands it back only under that pin.
        let pin = pin_scope();
        let core = VarCore::new(new_value(1u64));
        let mut log = ReadLog::default();
        let (v, first) = core.read(&pin);
        log.record(&core, v, first);
        for i in 2..(COLLECT_THRESHOLD as u64 * 4) {
            core.direct_write(new_value(i));
            force_collect();
        }
        assert_eq!(get_u64(&first), 1);
        assert_eq!(get_u64(&log.get(core.id(), &pin).expect("cached")), 1);
        let other = pin_scope();
        assert!(
            log.get(core.id(), &other).is_none(),
            "another pin scope saw the entry"
        );
    }

    #[test]
    #[should_panic(expected = "another variable")]
    fn a_read_logged_against_another_variable_is_refused() {
        let pin = pin_scope();
        let (a, b) = (VarCore::new(new_value(1u64)), VarCore::new(new_value(2u64)));
        let (v, val) = a.read(&pin);
        ReadLog::default().record(&b, v, val);
    }

    #[test]
    fn many_stores_trigger_collection() {
        // Exceed the bag threshold several times over so retire/advance/free
        // all run on this thread, flushing at the safe point as the runtime
        // would after each commit.
        let cell = SnapshotCell::new(new_value(0u64));
        for i in 0..(COLLECT_THRESHOLD as u64 * 8) {
            cell.store(new_value(i));
            assert_eq!(load_u64(&cell), i);
            flush();
        }
    }

    #[test]
    fn periodic_flush_drains_small_bags() {
        // A handful of retirements far below COLLECT_THRESHOLD must still be
        // freed once enough flush safe points pass (churn-then-idle case).
        use std::sync::atomic::AtomicUsize;
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(new_value(Counted(Arc::clone(&drops))));
        for _ in 0..4 {
            cell.store(new_value(Counted(Arc::clone(&drops))));
        }
        // Each collect advances the epoch by at most one; idle flushes
        // fire periodic collections until the tags age past the two-epoch
        // horizon.
        reclaim_until(
            || (0..FLUSH_PERIOD).for_each(|_| flush()),
            || drops.load(Ordering::SeqCst) >= 1,
        );
        assert!(
            drops.load(Ordering::SeqCst) >= 1,
            "periodic flush never freed a below-threshold bag"
        );
    }

    #[test]
    fn values_are_eventually_dropped() {
        // Count drops of the stored payload: every superseded value must be
        // dropped by reclamation (or at latest when leftover bags are
        // collected by later activity), and none twice.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let n = COLLECT_THRESHOLD * 4;
        let cell = SnapshotCell::new(new_value(Counted));
        for _ in 0..n {
            cell.store(new_value(Counted));
            flush();
        }
        reclaim_until(force_collect, || DROPS.load(Ordering::SeqCst) >= n / 4);
        drop(cell);
        // n values were superseded +1 final value freed by Drop; some of
        // the superseded ones may still sit in this thread's bag, but at
        // least everything from completed collections is gone.
        let dropped = DROPS.load(Ordering::SeqCst);
        assert!(dropped <= n + 1, "double free: {dropped} > {}", n + 1);
        assert!(
            dropped >= n / 4,
            "reclamation never freed anything: {dropped}"
        );
    }

    #[test]
    fn single_collect_frees_at_most_one_batch() {
        // A huge aged backlog must drain in FREE_BATCH_CAP-sized slices,
        // never all at one safe point (bounded pause), while still fully
        // draining across repeated collections (progress).
        use std::sync::atomic::AtomicUsize;
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(new_value(Counted(Arc::clone(&drops))));
        let n = FREE_BATCH_CAP * 3;
        for _ in 0..n {
            cell.store(new_value(Counted(Arc::clone(&drops))));
        }
        // Each collect frees a bounded slice. `drops` counts only this
        // test's own values (all of them in this thread's bag), so neither
        // the per-collect bound nor the progress check sees a neighbour's
        // retirements or adopted orphans.
        let mut max_delta = 0usize;
        reclaim_until(
            || {
                let before = drops.load(Ordering::SeqCst);
                force_collect();
                max_delta = max_delta.max(drops.load(Ordering::SeqCst) - before);
            },
            || drops.load(Ordering::SeqCst) >= n,
        );
        assert!(
            max_delta <= FREE_BATCH_CAP,
            "one collect freed {max_delta} > cap {FREE_BATCH_CAP}"
        );
        assert!(
            drops.load(Ordering::SeqCst) >= n / 2,
            "capped collection stopped making progress: {} of {n} freed",
            drops.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_load_store_smoke() {
        let cell = Arc::new(SnapshotCell::new(new_value(0u64)));
        let stop = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    let _ = load_u64(&cell);
                }
            }));
        }
        // Single writer, per the store contract; flush at safe points so
        // reclamation runs concurrently with the readers.
        for i in 0..20_000u64 {
            cell.store(new_value(i));
            flush();
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(load_u64(&cell), 19_999);
    }
}
