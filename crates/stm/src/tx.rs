//! The transaction descriptor: read/write sets, snapshot management,
//! commit, and the post-commit hooks that `ad-defer` builds atomic deferral
//! on.
//!
//! Speculative transactions are TL2-style with lazy versioning: reads are
//! invisible (validated at commit), writes are buffered and written back
//! under per-variable version locks. Serial transactions (irrevocability,
//! paper §2) run alone — the runtime's serial flag keeps every speculative
//! attempt out (registry.rs) — and access memory directly.
//!
//! ## A transaction writes no shared line its data does not need
//!
//! An attempt is pinned (epoch reclamation, snapshot.rs) for its whole
//! life, so a read borrows the committed value instead of cloning its
//! `Arc`: [`Tx::read`] clones only the `T` it returns, and the read cache
//! keeps the borrowed pointer, cleared before the pin drops. The attempt
//! borrows its thread's activity slot, where its counters live too. What a
//! read still writes is the read set's `Arc<VarCore>` clone: a `TVar` may
//! be dropped mid-attempt, validation and `retry` need its version word,
//! and it keeps the cell of a cached pointer alive (`ReadLog`). A read-only transaction on private data thus writes only its own
//! thread's lines; a writer adds the variables it writes and the clock.
//!
//! ## Descriptor reuse
//!
//! A `Tx` does not own its collections: it borrows a [`TxBuffers`] bundle
//! that the runner checks out of a thread-local pool once per
//! `atomically` call and threads through every attempt. Re-executing after
//! a conflict therefore allocates nothing — the read set, read cache,
//! write set and commit scratch vectors are cleared, not dropped, and
//! their capacities persist across attempts *and* across transactions on
//! the same thread. The read cache and write set are [`SmallMap`]s: inline
//! linear scans at the common small sizes, hash maps only when a
//! transaction grows past [`crate::smallmap::INLINE_CAP`] variables.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use crate::clock;
use crate::config::Mode;
use crate::error::{StmError, StmResult};
use crate::fxhash::FxHashSet;
use crate::registry::Local;
use crate::retry::WatchList;
use crate::runtime::Runtime;
use crate::smallmap::SmallMap;
use crate::snapshot::{EpochGuard, ReadLog};
use crate::stats::Hot;
use crate::var::{downcast, new_value, TVar, Value, VarCore};

/// A post-commit action queued by [`Tx::defer_post_commit`]. Receives the
/// runtime so deferred operations can run follow-up transactions (e.g.
/// releasing the `TxLock`s they held).
pub type PostCommitFn = Box<dyn FnOnce(&Runtime) + Send>;

/// How this transaction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// Optimistic, abort-and-retry execution.
    Speculative,
    /// Exclusive, irrevocable execution under the serial flag.
    Serial,
}

/// Everything a successful commit hands back to the runner to execute
/// outside the transaction, in order: deferred operations first, then
/// deferred frees (the paper's `tm_free_list`, Listing 1).
pub(crate) struct CommitOutput {
    pub(crate) actions: Vec<PostCommitFn>,
    pub(crate) drops: Vec<Box<dyn Any + Send>>,
    /// Observability: per-action enqueue timestamps (trace clock, ns),
    /// index-aligned with `actions`. Empty when tracing was off during the
    /// committing attempt; feeds the defer queue-to-completion histogram.
    pub(crate) enqueue_ts: Vec<u64>,
}

impl CommitOutput {
    /// True when there is no post-commit work at all — the common
    /// no-defer transaction, which skips the post-commit step.
    pub(crate) fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.drops.is_empty()
    }
}

/// The reusable allocations of a transaction descriptor. One bundle lives
/// per thread (in a pool slot); [`Tx::new`] clears it at the start of each
/// attempt and [`put_buffers`] when a commit pools it, so retries and
/// subsequent transactions run allocation-free once the capacities are
/// warm.
pub(crate) struct TxBuffers {
    /// Variables read, with the version observed (in serial mode this only
    /// feeds the `retry` watch list), and the first-read values, so
    /// re-reads observe a stable snapshot (opacity): pointers borrowed
    /// under the attempt's pin, not `Arc` clones.
    reads: ReadLog,
    /// Buffered writes (speculative mode only).
    write_set: SmallMap<(Arc<VarCore>, Value)>,
    /// Deferred operations queued by `atomic_defer` (via ad-defer).
    post_commit: Vec<PostCommitFn>,
    /// Enqueue timestamps aligned with `post_commit` (tracing only).
    post_commit_ts: Vec<u64>,
    /// Deferred frees: values whose destruction is delayed until after the
    /// deferred operations have run.
    drops: Vec<Box<dyn Any + Send>>,
    /// Simulated-HTM footprint accounting.
    footprint_vars: FxHashSet<usize>,
    /// Commit scratch: the write set drained into address order.
    entries: Vec<(usize, Arc<VarCore>, Value)>,
    /// Commit scratch: pre-lock versions, index-aligned with `entries`.
    /// Replaces the per-commit `pre_lock` hash map — validation does a
    /// binary search over the sorted `entries` instead.
    locked: Vec<u64>,
}

impl TxBuffers {
    fn new_boxed() -> Box<TxBuffers> {
        Box::new(TxBuffers {
            reads: ReadLog::default(),
            write_set: SmallMap::default(),
            post_commit: Vec::new(),
            post_commit_ts: Vec::new(),
            drops: Vec::new(),
            footprint_vars: FxHashSet::default(),
            entries: Vec::new(),
            locked: Vec::new(),
        })
    }

    /// Clear every collection, keeping capacities.
    fn reset(&mut self) {
        self.reads.clear();
        self.write_set.clear();
        self.post_commit.clear();
        self.post_commit_ts.clear();
        self.drops.clear();
        self.footprint_vars.clear();
        self.entries.clear();
        self.locked.clear();
    }

    /// Take back the read-set vector a [`WatchList`] borrowed from us, so
    /// the retry path keeps its capacity too.
    pub(crate) fn recycle_watch(&mut self, watch: WatchList) {
        self.reads.recycle(watch.into_entries());
    }
}

thread_local! {
    /// One pooled descriptor per thread. A single slot suffices because
    /// transactions never nest on a thread (enforced by the runner); a
    /// post-commit action starting a new transaction simply finds the slot
    /// empty and allocates — its bundle is pooled afterwards.
    static POOL: RefCell<Option<Box<TxBuffers>>> = const { RefCell::new(None) };
}

/// Check a descriptor bundle out of the thread-local pool (or allocate).
pub(crate) fn take_buffers() -> Box<TxBuffers> {
    POOL.try_with(|p| p.borrow_mut().take())
        .ok()
        .flatten()
        .unwrap_or_else(TxBuffers::new_boxed)
}

/// Return a bundle to the pool for the next transaction on this thread,
/// cleared: its read and write sets hold `Arc`s of every variable and
/// value the committed transaction touched, which must not live on until
/// this thread happens to start another transaction. (A thread whose next
/// step is no transaction — a deferred op ending in `TVar::store` — would
/// otherwise keep a dropped structure's cells alive, and its next
/// transaction would pay for freeing them.)
pub(crate) fn put_buffers(mut bufs: Box<TxBuffers>) {
    bufs.reset();
    let _ = POOL.try_with(move |p| *p.borrow_mut() = Some(bufs));
}

/// An in-flight transaction. Handed to the closure run by
/// [`Runtime::atomically`](crate::Runtime::atomically); all transactional
/// reads and writes go through it.
pub struct Tx<'rt> {
    rt: &'rt Runtime,
    mode: ExecMode,
    /// Execution mode cached from the runtime config at attempt start, so
    /// per-access footprint checks don't re-read the shared config.
    cfg_mode: Mode,
    /// Quiescence policy, cached likewise for commit.
    cfg_quiesce: bool,
    /// Read version: the snapshot timestamp (TL2 `rv`).
    rv: u64,
    /// Pooled collections (see [`TxBuffers`]).
    bufs: &'rt mut TxBuffers,
    /// Simulated-HTM footprint accounting.
    footprint: u64,
    /// Serial mode: has the closure performed (unrecoverable) writes?
    serial_wrote: bool,
    /// Observability toggle, cached at attempt start so per-event checks
    /// are a register test, not an atomic load.
    obs: bool,
    /// The thread's slot in this runtime, and quiescence's slot list.
    local: &'rt Local,
    /// The attempt's epoch pin: every read borrows its value under it.
    pin: &'rt EpochGuard,
}

impl<'rt> Tx<'rt> {
    /// `rv`: the snapshot the runner published in the slot. `started`: the
    /// attempt-start timestamp when tracing is on (`None` exactly when
    /// tracing is off) — reused as the `Begin` event's stamp so a traced
    /// attempt doesn't pay a second clock read here.
    pub(crate) fn new(
        rt: &'rt Runtime,
        bufs: &'rt mut TxBuffers,
        local: &'rt Local,
        pin: &'rt EpochGuard,
        rv: u64,
        serial: bool,
        started: Option<u64>,
    ) -> Self {
        bufs.reset();
        let obs = started.is_some();
        let cfg = rt.config();
        if let Some(t0) = started {
            rt.trace_event_at(t0, crate::trace::EventKind::Begin, rv);
        }
        Tx {
            rt,
            mode: if serial {
                ExecMode::Serial
            } else {
                ExecMode::Speculative
            },
            cfg_mode: cfg.mode,
            cfg_quiesce: cfg.quiesce,
            rv,
            bufs,
            footprint: 0,
            serial_wrote: false,
            obs,
            local,
            pin,
        }
    }

    /// The runtime this transaction belongs to.
    pub fn runtime(&self) -> &Runtime {
        self.rt
    }

    /// The snapshot timestamp of this transaction attempt.
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// Read a transactional variable (clones the value out).
    pub fn read<T: Any + Send + Sync + Clone>(&mut self, var: &TVar<T>) -> StmResult<T> {
        self.read_with(var.core(), downcast::<T>)
    }

    /// Read a transactional variable without cloning its contents: returns
    /// a shared handle to the snapshot value. Useful for large values
    /// (buffers, collections) where [`Tx::read`]'s clone would be costly.
    /// The handle stays valid after commit/abort — it is a snapshot, not a
    /// reference into the variable.
    pub fn read_arc<T: Any + Send + Sync>(&mut self, var: &TVar<T>) -> StmResult<Arc<T>> {
        self.read_with(var.core(), |val| {
            Arc::clone(val)
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("ad-stm internal error: TVar value has wrong type"))
        })
    }

    /// The common read path: consistent snapshot + read-set bookkeeping;
    /// `f` sees the type-erased value, borrowed, not cloned.
    fn read_with<R>(&mut self, core: &Arc<VarCore>, f: impl FnOnce(&Value) -> R) -> StmResult<R> {
        let pin = self.pin;
        if self.mode == ExecMode::Serial {
            let (v, val) = core.read(pin);
            self.bufs.reads.push(core, v);
            return Ok(f(&val));
        }
        let id = core.id();
        self.charge_var_access(id)?;
        if let Some((_, val)) = self.bufs.write_set.get(id) {
            return Ok(f(val));
        }
        if let Some(val) = self.bufs.reads.get(id, pin) {
            return Ok(f(&val));
        }
        let (v1, val) = core.read(pin);
        // Logged before any extension, so the extension validates this
        // read too: a version newer than `rv` joins the extended snapshot
        // only if it is still current once the new `rv` is taken. Logged
        // after, a write landing between the read and the new `rv` would
        // go unseen — and a commit stamped `rv + 2` skips the validation
        // that could catch it, losing that write (a `TxLock` with two
        // owners; `verify::extension_model`).
        self.bufs.reads.record(core, v1, val);
        if v1 > self.rv {
            self.extend_snapshot()?;
            debug_assert!(v1 <= self.rv);
        }
        if self.obs {
            // Sampled at power-of-two sizes from 32 up: a large read-only
            // scan leaves a growth curve, while short transactions — whose
            // read sets are visible from their shape anyway — don't pay an
            // event per read (n=1 is a power of two; emitting there added
            // a third ring entry to every single-read transaction, a
            // measurable slice of the tracing-on budget).
            let n = self.bufs.reads.entries().len();
            if n >= 32 && n.is_power_of_two() {
                self.rt
                    .trace_event(crate::trace::EventKind::ReadSetGrow, n as u64);
            }
        }
        Ok(f(&val))
    }

    /// Write a transactional variable. Buffered until commit in speculative
    /// mode; immediate (and unrecoverable) in serial mode.
    pub fn write<T: Any + Send + Sync + Clone>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> StmResult<()> {
        let core = var.core();
        if self.mode == ExecMode::Serial {
            core.direct_write(new_value(value));
            self.serial_wrote = true;
            return Ok(());
        }
        let id = core.id();
        self.charge_var_access(id)?;
        self.bufs
            .write_set
            .insert(id, (Arc::clone(core), new_value(value)));
        Ok(())
    }

    /// Read-modify-write helper.
    pub fn modify<T: Any + Send + Sync + Clone>(
        &mut self,
        var: &TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> StmResult<()> {
        let cur = self.read(var)?;
        self.write(var, f(cur))
    }

    /// Block (abort and wait) until some variable in the read set changes —
    /// Harris et al.'s `retry` (paper §2). Typed as returning any `T` so it
    /// can tail a closure of any result type.
    pub fn retry<T>(&mut self) -> StmResult<T> {
        Err(StmError::Retry)
    }

    /// Harris et al.'s `orElse` combinator (the same paper `retry` comes
    /// from, cited in §2): run `first`; if it blocks with `retry`, discard
    /// its buffered effects and run `second` instead. If `second` also
    /// retries, the transaction waits on the union of both branches' read
    /// sets — whichever branch's condition changes first re-executes the
    /// whole transaction.
    ///
    /// Reads performed by the abandoned first branch stay in the read set:
    /// that is what makes the combined wait correct, at the cost of some
    /// false conflicts.
    ///
    /// In an irrevocable transaction the first branch must not write before
    /// retrying (eager serial writes cannot be discarded); this is the same
    /// blocking-before-writes discipline all serial-mode code follows.
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Tx<'rt>) -> StmResult<T>,
        second: impl FnOnce(&mut Tx<'rt>) -> StmResult<T>,
    ) -> StmResult<T> {
        if self.mode == ExecMode::Serial {
            let wrote_before = self.serial_wrote;
            return match first(self) {
                Err(StmError::Retry) => {
                    assert!(
                        self.serial_wrote == wrote_before,
                        "or_else: first branch wrote before retrying in an \
                         irrevocable transaction"
                    );
                    second(self)
                }
                other => other,
            };
        }
        // Snapshot the transaction's buffered effects; reads are kept.
        let write_snapshot = self.bufs.write_set.clone();
        let post_commit_len = self.bufs.post_commit.len();
        let drops_len = self.bufs.drops.len();
        match first(self) {
            Err(StmError::Retry) => {
                self.bufs.write_set = write_snapshot;
                self.bufs.post_commit.truncate(post_commit_len);
                self.bufs.post_commit_ts.truncate(post_commit_len);
                self.bufs.drops.truncate(drops_len);
                second(self)
            }
            other => other,
        }
    }

    /// Require irrevocable (serial) execution for the rest of the
    /// transaction — the TMTS `synchronized` semantics. In a speculative
    /// context this aborts and re-executes serially; in serial mode it is a
    /// no-op. Call before performing I/O or other unrecoverable effects.
    pub fn require_irrevocable(&mut self) -> StmResult<()> {
        match self.mode {
            ExecMode::Serial => Ok(()),
            ExecMode::Speculative => Err(StmError::Unsupported),
        }
    }

    /// Is this transaction running irrevocably?
    pub fn is_irrevocable(&self) -> bool {
        self.mode == ExecMode::Serial
    }

    /// Queue an action to run after this transaction commits (and, for
    /// writers, after quiescence), in queue order. The building block for
    /// `atomic_defer`: `ad-defer` queues the deferred operation plus the
    /// release of its `TxLock`s here. Discarded if the transaction aborts.
    pub fn defer_post_commit(&mut self, f: PostCommitFn) {
        if self.obs {
            let idx = self.bufs.post_commit.len() as u64;
            self.bufs.post_commit_ts.push(crate::trace::now_ns());
            self.rt
                .trace_event(crate::trace::EventKind::DeferEnqueue, idx);
        }
        self.bufs.post_commit.push(f);
    }

    /// Queue a value to be dropped after all post-commit actions have run —
    /// the paper's delayed `tm_free_list` (Listing 1): deferred operations
    /// may refer to memory the transaction logically freed, so its
    /// reclamation must wait for them.
    pub fn defer_drop(&mut self, v: Box<dyn Any + Send>) {
        self.bufs.drops.push(v);
    }

    /// Charge additional simulated-HTM footprint, in bytes. Workloads call
    /// this to model the *data* footprint of computations inside hardware
    /// transactions (e.g. dedup's `Compress` touching a whole buffer, paper
    /// §6.2). No-op for STM and for the serial fallback path, where real
    /// HTM runs non-speculatively.
    pub fn account_footprint(&mut self, bytes: u64) -> StmResult<()> {
        if self.mode == ExecMode::Serial {
            return Ok(());
        }
        if let Mode::HtmSim(h) = self.cfg_mode {
            self.footprint += bytes;
            if self.footprint > h.capacity_bytes {
                return Err(StmError::Capacity);
            }
        }
        Ok(())
    }

    /// Footprint charged so far (simulated HTM; 0 otherwise).
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Charge the per-variable cost for a newly accessed variable.
    fn charge_var_access(&mut self, id: usize) -> StmResult<()> {
        if let Mode::HtmSim(h) = self.cfg_mode {
            if self.bufs.footprint_vars.insert(id) {
                self.footprint += h.bytes_per_access;
                if self.footprint > h.capacity_bytes {
                    return Err(StmError::Capacity);
                }
            }
        }
        Ok(())
    }

    /// Snapshot extension: move `rv` forward if the entire read set still
    /// validates; otherwise the snapshot is broken and the transaction
    /// conflicts. The new `rv` covers any version the caller just read:
    /// that version's `tick` precedes its write-back in the clock word's
    /// order.
    fn extend_snapshot(&mut self) -> StmResult<()> {
        let new_rv = clock::now();
        for (core, seen) in self.bufs.reads.entries() {
            let cur = core.version();
            if clock::is_locked(cur) || cur != *seen {
                if self.obs {
                    self.rt
                        .trace_event(crate::trace::EventKind::ValidateFail, core.id() as u64);
                }
                return Err(StmError::Conflict);
            }
        }
        self.rv = new_rv;
        self.local.slot.extend(new_rv);
        self.local.slot.counters.bump(Hot::ValidationExtends);
        if self.obs {
            self.rt
                .trace_event(crate::trace::EventKind::ValidationExtend, new_rv);
        }
        Ok(())
    }

    /// The read set as a watch list for `retry` waiting. Moves the read
    /// set out of the descriptor (no clone); the runner hands the vector
    /// back via [`TxBuffers::recycle_watch`] after the wait.
    pub(crate) fn watch_list(&mut self) -> WatchList {
        WatchList::new(self.bufs.reads.take_entries())
    }

    pub(crate) fn serial_wrote(&self) -> bool {
        self.serial_wrote
    }

    /// Number of distinct variables written (diagnostics/tests).
    pub fn write_set_len(&self) -> usize {
        self.bufs.write_set.len()
    }

    /// Number of read-set entries (diagnostics/tests).
    pub fn read_set_len(&self) -> usize {
        self.bufs.reads.entries().len()
    }

    /// Attempt to commit a speculative transaction. On success the caller
    /// receives the post-commit work; on `Conflict` every variable lock has
    /// been restored and the transaction must re-execute.
    ///
    /// Allocation-free: the sorted entry list and pre-lock versions live in
    /// pooled scratch vectors, and read-set validation binary-searches the
    /// address-sorted entries instead of building a hash map.
    ///
    /// Serial transactions use [`Tx::finish_serial`] instead.
    pub(crate) fn commit(&mut self) -> StmResult<CommitOutput> {
        debug_assert_eq!(self.mode, ExecMode::Speculative);

        if self.bufs.write_set.is_empty() {
            // Read-only: the snapshot was kept consistent throughout, so the
            // transaction serializes at its (possibly extended) rv. No
            // clock tick, no quiescence (paper §2: only *writing*
            // transactions quiesce).
            self.local.slot.end();
            return Ok(self.take_output());
        }

        let obs = self.obs;
        let rt = self.rt;
        let TxBuffers {
            reads,
            write_set,
            entries,
            locked,
            ..
        } = &mut *self.bufs;

        // Phase 1: lock the write set in a canonical (address) order so
        // concurrent committers cannot deadlock.
        entries.clear();
        entries.extend(write_set.drain().map(|(id, (core, val))| (id, core, val)));
        entries.sort_unstable_by_key(|(id, _, _)| *id);

        locked.clear();
        for (i, (_, core, _)) in entries.iter().enumerate() {
            match core.try_lock() {
                Some(pre) => locked.push(pre),
                None => {
                    if obs {
                        rt.trace_event(crate::trace::EventKind::ValidateFail, core.id() as u64);
                    }
                    for (j, pre) in locked.iter().enumerate().take(i) {
                        entries[j].1.unlock_restore(*pre);
                    }
                    return Err(StmError::Conflict);
                }
            }
        }

        // Phase 2: acquire a write version (after locking — clock.rs
        // module docs).
        let wv = clock::tick();

        // Phase 3: validate the read set, unless nobody else took a stamp
        // since our snapshot — the TL2 fast path, sound because stamps
        // are unique.
        if wv != self.rv + 2 {
            for (core, seen) in reads.entries() {
                let ok = match entries.binary_search_by_key(&core.id(), |(id, _, _)| *id) {
                    // We hold this lock: compare against its pre-lock version.
                    Ok(i) => locked[i] == *seen,
                    Err(_) => {
                        let cur = core.version();
                        !clock::is_locked(cur) && cur == *seen
                    }
                };
                if !ok {
                    if obs {
                        rt.trace_event(crate::trace::EventKind::ValidateFail, core.id() as u64);
                    }
                    for (i, pre) in locked.iter().enumerate() {
                        entries[i].1.unlock_restore(*pre);
                    }
                    return Err(StmError::Conflict);
                }
            }
        }

        // Phase 4: write back and release, stamping wv. (The Arc clone per
        // entry is a refcount bump, not an allocation; `entries` is cleared
        // after the waiter wakeups below.)
        for (_, core, val) in entries.iter() {
            core.write_back(val.clone(), wv);
        }

        // The transaction is durably committed: it is no longer a hazard to
        // privatizers, so clear the activity slot *before* quiescing (also
        // prevents two quiescing writers from waiting on each other).
        self.local.slot.end();

        // Phase 5: wake retry-waiters watching the written variables.
        for (_, core, _) in entries.iter() {
            core.wake_waiters();
        }
        entries.clear();

        // Phase 6: quiesce (privatization safety, paper §2) — wait for all
        // transactions that started before wv. Simulated HTM skips this:
        // hardware transactions are never observed mid-cleanup.
        if self.cfg_quiesce {
            let ns = self.rt.registry().quiesce(wv, self.local);
            // Zero-wait quiescence (no older transaction in flight) records
            // nothing: the enter/exit pair exists to witness actual stalls,
            // and on the uncontended fast path two events + stamps would be
            // most of a short writer's tracing cost. When a wait did
            // happen, the pair is reconstructed from its measured duration.
            if ns > 0 {
                self.rt.stats_ref().on_quiesce(ns);
                if obs {
                    let end = crate::trace::now_ns();
                    rt.trace_event_at(
                        end.saturating_sub(ns),
                        crate::trace::EventKind::QuiesceEnter,
                        wv,
                    );
                    rt.trace_event_at(end, crate::trace::EventKind::QuiesceExit, ns);
                }
            }
        }

        Ok(self.take_output())
    }

    /// Complete a serial transaction: writes were applied eagerly, so only
    /// collect the post-commit work. Must be called while the serial flag
    /// is still ours.
    pub(crate) fn finish_serial(&mut self) -> CommitOutput {
        debug_assert_eq!(self.mode, ExecMode::Serial);
        self.local.slot.end();
        self.take_output()
    }

    fn take_output(&mut self) -> CommitOutput {
        CommitOutput {
            actions: std::mem::take(&mut self.bufs.post_commit),
            drops: std::mem::take(&mut self.bufs.drops),
            enqueue_ts: std::mem::take(&mut self.bufs.post_commit_ts),
        }
    }

    /// Record a custom event on this runtime's observability timeline (a
    /// no-op when tracing is off). This is how sibling crates put their own
    /// lifecycle points next to the STM's — `ad-defer` uses it for
    /// [`EventKind::LockSubscribe`](crate::EventKind::LockSubscribe) and
    /// [`EventKind::LockAcquire`](crate::EventKind::LockAcquire); any other
    /// crate declares its own [`AppEvent`](crate::AppEvent) descriptor:
    ///
    /// ```
    /// use ad_stm::{AppEvent, EventKind, Runtime, TVar, TmConfig};
    ///
    /// static CACHE_MISS: AppEvent = AppEvent::new("cache_miss", "key");
    ///
    /// let rt = Runtime::new(TmConfig::stm());
    /// rt.set_tracing(true);
    /// let v = TVar::new(0u64);
    /// rt.atomically(|tx| {
    ///     tx.trace(EventKind::App(&CACHE_MISS), 7);
    ///     tx.write(&v, 1)
    /// });
    /// assert!(rt.take_trace().render().contains("cache_miss       key=7"));
    /// ```
    #[inline]
    pub fn trace(&self, kind: crate::trace::EventKind, arg: u64) {
        if self.obs {
            self.rt.trace_event(kind, arg);
        }
    }
}

impl Drop for Tx<'_> {
    /// The read cache borrows values under the attempt's pin: empty it
    /// before the pin drops.
    fn drop(&mut self) {
        self.bufs.reads.clear_cache();
    }
}

impl std::fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("mode", &self.mode)
            .field("rv", &self.rv)
            .field("reads", &self.bufs.reads.entries().len())
            .field("writes", &self.bufs.write_set.len())
            .field("deferred", &self.bufs.post_commit.len())
            .finish()
    }
}

#[cfg(all(test, loom))]
impl Tx<'_> {
    /// DELIBERATELY BUGGY read used only by the `verify` models: the read
    /// joins the read set *after* a snapshot extension it triggered, so
    /// the extension never validates it. `verify::extension_model` must
    /// catch the lost update this allows. Speculative mode only, with no
    /// footprint accounting; otherwise the production read, pointer cache
    /// included.
    pub(crate) fn read_logged_after_extend<T: Any + Send + Sync + Clone>(
        &mut self,
        var: &TVar<T>,
    ) -> StmResult<T> {
        let core = var.core();
        let id = core.id();
        let pin = self.pin;
        if let Some((_, val)) = self.bufs.write_set.get(id) {
            return Ok(downcast::<T>(val));
        }
        if let Some(val) = self.bufs.reads.get(id, pin) {
            return Ok(downcast::<T>(&val));
        }
        let (v1, val) = core.read(pin);
        if v1 > self.rv {
            self.extend_snapshot()?;
        }
        self.bufs.reads.record(core, v1, val);
        Ok(downcast::<T>(&val))
    }
}
