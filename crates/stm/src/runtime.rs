//! The transaction runner: attempt loop, contention management, retry
//! waiting, serial escalation, and post-commit (deferred-operation)
//! execution.

use ad_support::sync::atomic::{AtomicU64, Ordering};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use crate::clock;
use crate::cm::ContentionManager;
use crate::config::{RetryPolicy, TmConfig};
use crate::error::{StmError, StmResult};
use crate::registry::{ActivitySlot, Local, Registry};
use crate::stats::{Hot, Stats, StatsReport, StatsSnapshot};
use crate::trace::{cause, AppEvent, EventKind, Trace, TraceSink};
use crate::tx::{CommitOutput, Tx, TxBuffers};

static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Is this thread currently executing a transaction attempt (any
    /// runtime)? Starting an independent transaction from inside one is a
    /// deadlock hazard (the outer attempt's slot is active, so an
    /// irrevocable transaction waiting for it would never start, and the
    /// inner attempt would wait for that one forever), so the runner
    /// refuses it loudly. Nesting is *flat*: nested atomic
    /// blocks simply use the enclosing `Tx`.
    static IN_TRANSACTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the calling thread inside a transaction attempt (any runtime)?
/// Starting a transaction here would panic (nesting is flat), so code that
/// can take a non-transactional shortcut — `ad-defer`'s store release of a
/// held `TxLock` — checks this first and keeps the refusal.
pub fn in_transaction() -> bool {
    IN_TRANSACTION.with(std::cell::Cell::get)
}

/// Clears the in-transaction marker even on unwind.
struct InTxGuard;

impl InTxGuard {
    fn enter(what: &str) -> InTxGuard {
        IN_TRANSACTION.with(|c| {
            assert!(
                !c.get(),
                "{what} called from inside a transaction on the same thread: \
                 nesting is flat — use the enclosing `Tx` for nested atomic \
                 blocks, or move the call into a post-commit (deferred) action"
            );
            c.set(true);
        });
        InTxGuard
    }
}

impl Drop for InTxGuard {
    fn drop(&mut self) {
        IN_TRANSACTION.with(|c| c.set(false));
    }
}

pub(crate) struct RtInner {
    id: u64,
    cfg: TmConfig,
    /// The activity slots, the counters, and the serial flag — the
    /// GCC-libitm serial lock's replacement: an irrevocable transaction
    /// runs alone, and no speculative attempt writes a shared word to
    /// stay out of its way (registry.rs). In simulated-HTM mode the flag
    /// doubles as the fallback lock that all hardware transactions
    /// implicitly subscribe to.
    registry: Arc<Registry>,
    /// Observability: the per-thread event rings plus the master on/off
    /// toggle that also gates the optional hot-path timing (commit latency,
    /// backoff). One relaxed load per attempt when off.
    sink: TraceSink,
}

/// A TM runtime: a policy configuration plus the machinery (activity
/// registry with its serial flag, statistics) shared by the transactions
/// that run under it.
///
/// `TVar`s are plain shared memory and are not tied to a runtime, but **all
/// transactions that access a given set of `TVar`s must use the same
/// runtime** — irrevocability only excludes speculation within one runtime.
/// Use [`Runtime::global`] (or the free functions [`atomically`] /
/// [`synchronized`]) unless an experiment needs custom policy.
///
/// Cloning a `Runtime` clones a handle to the same runtime.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RtInner>,
}

impl Runtime {
    /// Create a runtime with the given policy configuration.
    pub fn new(cfg: TmConfig) -> Self {
        Runtime {
            inner: Arc::new(RtInner {
                id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
                cfg,
                registry: Arc::new(Registry::default()),
                sink: TraceSink::new(cfg.trace_ring_events),
            }),
        }
    }

    /// The process-wide default runtime (STM defaults).
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::new(TmConfig::stm()))
    }

    /// This runtime's policy configuration.
    ///
    /// Returned by reference: `TmConfig` is `Copy`, so callers that want a
    /// value can dereference, but hot paths (per-access mode checks) read
    /// fields without copying the whole struct.
    pub fn config(&self) -> &TmConfig {
        &self.inner.cfg
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    pub(crate) fn stats_ref(&self) -> &Stats {
        &self.inner.registry.stats
    }

    /// Snapshot of this runtime's statistics counters: every thread's,
    /// including threads that have exited.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Full observability report: the counters plus the four latency
    /// histograms (commit latency, quiescence wait, retry backoff,
    /// deferred-op queue-to-completion). Serializable via
    /// [`StatsReport::to_json`]. Commit-latency, backoff and defer
    /// histograms only fill while [`Runtime::set_tracing`] is on; the
    /// quiescence histogram is always live.
    pub fn snapshot_stats(&self) -> StatsReport {
        self.inner.registry.report()
    }

    /// Zero the statistics counters (every thread's) and histograms.
    pub fn reset_stats(&self) {
        self.inner.registry.reset_stats();
    }

    /// Turn the observability layer on or off. Off (the default) costs one
    /// relaxed atomic load per transaction attempt; on, every transaction
    /// records lifecycle events into its thread's ring buffer and the
    /// toggle-gated histograms start filling.
    pub fn set_tracing(&self, on: bool) {
        self.inner.sink.set_enabled(on);
    }

    /// Is event tracing currently enabled?
    pub fn tracing_enabled(&self) -> bool {
        self.inner.sink.enabled()
    }

    /// Drain every thread's event ring into one timestamp-sorted timeline,
    /// clearing the rings. [`Trace::dropped`] counts events lost to ring
    /// wrap-around.
    pub fn take_trace(&self) -> Trace {
        self.inner.sink.take()
    }

    /// Record one event for the calling thread, if tracing is on. Used by
    /// sibling crates (via [`Tx::trace`]) to put their own lifecycle points
    /// — e.g. `ad-defer`'s lock subscriptions — on the same timeline.
    ///
    /// `#[cold]`/`#[inline(never)]`: every call site is behind an
    /// `if obs` that is false in the common (tracing-off) configuration.
    /// Keeping the body out of line stops the dozen emission sites from
    /// bloating the transaction hot path (measurably: ~8% on short
    /// read-mostly transactions when this was a plain `#[inline]`).
    #[cold]
    #[inline(never)]
    pub(crate) fn trace_event(&self, kind: EventKind, arg: u64) {
        self.inner
            .sink
            .push(self.inner.id, crate::trace::now_ns(), kind, arg);
    }

    /// [`trace_event`](Self::trace_event) with a caller-supplied timestamp,
    /// for the two per-attempt events (`Begin`, `Commit`) whose emission
    /// sites already read the clock for latency accounting — reusing the
    /// stamp halves the clock reads on a traced commit. `#[inline]` unlike
    /// [`trace_event`](Self::trace_event): every call site is already
    /// behind a tracing-on branch, so the tracing-off path never sees it.
    #[inline]
    pub(crate) fn trace_event_at(&self, ts: u64, kind: EventKind, arg: u64) {
        self.inner.sink.push(self.inner.id, ts, kind, arg);
    }

    /// Record an application-level event on this runtime's timeline from
    /// *outside* any transaction — deferred operations, I/O helper threads.
    /// A no-op (one relaxed load) when tracing is off. The event is a
    /// `static` [`AppEvent`] declared by the crate that emits it — this is
    /// how a storage layer puts its append/fsync points next to the STM
    /// lifecycle events without `ad-stm` knowing its name:
    ///
    /// ```
    /// use ad_stm::{AppEvent, Runtime, TmConfig};
    ///
    /// static LOG_FLUSH: AppEvent = AppEvent::new("log_flush", "records");
    ///
    /// let rt = Runtime::new(TmConfig::stm());
    /// rt.set_tracing(true);
    /// rt.trace_app(&LOG_FLUSH, 3);
    /// assert!(rt.take_trace().render().contains("log_flush        records=3"));
    /// ```
    ///
    /// Inside a transaction use [`Tx::trace`] instead, which caches the
    /// toggle.
    #[inline]
    pub fn trace_app(&self, event: &'static AppEvent, arg: u64) {
        if self.inner.sink.enabled() {
            self.trace_event(EventKind::App(event), arg);
        }
    }

    /// Run `f` as an atomic transaction, re-executing on conflicts and
    /// blocking on [`retry`](Tx::retry), until it commits; returns the
    /// closure's result.
    ///
    /// The closure may run many times and must be side-effect-free apart
    /// from its transactional accesses — effects that cannot be repeated
    /// belong in a deferred operation (`ad-defer`) or behind
    /// [`Tx::require_irrevocable`].
    pub fn atomically<T>(&self, f: impl FnMut(&mut Tx) -> StmResult<T>) -> T {
        self.run(f, false)
    }

    /// Run `f` irrevocably from the start (the TMTS `synchronized` block):
    /// the transaction runs alone, excluding all other transactions in this
    /// runtime, and may perform I/O directly.
    pub fn synchronized<T>(&self, f: impl FnMut(&mut Tx) -> StmResult<T>) -> T {
        self.run(f, true)
    }

    fn run<T>(&self, mut f: impl FnMut(&mut Tx) -> StmResult<T>, start_serial: bool) -> T {
        let cfg = self.inner.cfg;
        let mut cm = ContentionManager::new(cfg.serialize_after, cfg.max_backoff_spins);
        let local = self.inner.registry.local(self.inner.id);
        let counters = &local.slot.counters;
        let mut counted_serialization = false;
        // One pooled descriptor bundle for every attempt of this
        // transaction: conflicts and retries re-use its collections
        // instead of reallocating them.
        let mut bufs = crate::tx::take_buffers();

        loop {
            let serial = start_serial || cm.should_serialize();
            counters.bump(Hot::Starts);
            if serial && !counted_serialization {
                self.stats_ref().on_serialization();
                counted_serialization = true;
            }

            // The whole observability layer hangs off this one relaxed
            // load: when off, no event is recorded and no clock is read.
            // Timing uses the coarse TSC source: two clock_gettime calls
            // per attempt were most of tracing's ~2× cost on 200 ns
            // transactions (OBSERVABILITY.md "Tracing overhead").
            let obs = self.inner.sink.enabled();
            let started = if obs {
                Some(crate::trace::now_ns())
            } else {
                None
            };

            let outcome = if serial {
                self.attempt_serial(&mut f, &local, &mut bufs, started)
            } else {
                self.attempt_speculative(&mut f, &local, &mut bufs, started)
            };

            match outcome {
                AttemptOutcome::Committed(value, output) => {
                    if serial {
                        self.stats_ref().on_serial_commit();
                    } else {
                        counters.bump(Hot::Commits);
                    }
                    if let Some(t0) = started {
                        let end = crate::trace::now_ns();
                        self.stats_ref().on_commit_latency(end.saturating_sub(t0));
                        self.trace_event_at(end, EventKind::Commit, serial as u64);
                    }
                    // Pool the buffers before running post-commit actions:
                    // a deferred operation may start its own transaction on
                    // this thread and should find them waiting.
                    crate::tx::put_buffers(bufs);
                    // Reclamation safe point (snapshot.rs invariant 5):
                    // every guard — epoch pin, activity slot, serial flag —
                    // dropped when the attempt returned, and commit released
                    // all version locks, so freed values may run arbitrary
                    // user Drop code (even transactions) without deadlock.
                    crate::snapshot::flush();
                    self.run_post_commit(output, &local.slot);
                    return value;
                }
                AttemptOutcome::Waiting(watch) => {
                    counters.bump(Hot::Retries);
                    // Safe point before a potentially long park, so this
                    // thread's retired values from earlier commits are not
                    // stranded while it sleeps.
                    crate::snapshot::flush();
                    let parked = watch.parked.map(|h| (h, crate::trace::now_ns()));
                    match cfg.retry_policy {
                        RetryPolicy::Spin => watch.wait_spin(),
                        RetryPolicy::Park => watch.wait_park(),
                    }
                    if let Some((h, t0)) = parked {
                        h.record(crate::trace::now_ns().saturating_sub(t0));
                    }
                    bufs.recycle_watch(watch);
                }
                AttemptOutcome::Failed(err) => {
                    counters.bump(match err {
                        StmError::Conflict => Hot::AbortsConflict,
                        StmError::Capacity => Hot::AbortsCapacity,
                        StmError::Unsupported => Hot::AbortsUnsupported,
                        StmError::Retry => unreachable!("retry handled as Waiting"),
                    });
                    if obs {
                        let code = match err {
                            StmError::Conflict => cause::CONFLICT,
                            StmError::Capacity => cause::CAPACITY,
                            StmError::Unsupported => cause::UNSUPPORTED,
                            StmError::Retry => unreachable!(),
                        };
                        self.trace_event(EventKind::Abort, code);
                    }
                    if err == StmError::Unsupported {
                        // No point re-speculating: go straight to serial.
                        cm.on_unsupported();
                    } else if obs {
                        let b0 = crate::trace::now_ns();
                        cm.on_failure();
                        let ns = crate::trace::now_ns().saturating_sub(b0);
                        self.stats_ref().on_backoff(ns);
                        self.trace_event(EventKind::Backoff, ns);
                    } else {
                        cm.on_failure();
                    }
                }
            }
        }
    }

    fn attempt_speculative<T>(
        &self,
        f: &mut impl FnMut(&mut Tx) -> StmResult<T>,
        local: &Local,
        bufs: &mut TxBuffers,
        started: Option<u64>,
    ) -> AttemptOutcome<T> {
        let _in_tx = InTxGuard::enter("atomically");
        let _slot_guard = SlotGuard(&local.slot);
        // Pin the epoch once for the whole attempt: every snapshot read
        // inside borrows its value under this pin instead of cloning it.
        // Then publish the slot and look for an irrevocable transaction —
        // the speculative half of the serial handshake (registry.rs): while
        // one is pending, step aside with slot cleared and pin dropped, so
        // neither it nor reclamation waits for us, and start over with a
        // fresh snapshot.
        let (pin, rv) = loop {
            let pin = crate::snapshot::pin_scope();
            let rv = clock::now();
            if self.begin_unless_serial(&local.slot, rv) {
                break (pin, rv);
            }
            local.slot.end();
            drop(pin);
            self.inner.registry.wait_serial();
        };
        let mut tx = Tx::new(self, bufs, local, &pin, rv, false, started);

        match f(&mut tx) {
            Ok(value) => match tx.commit() {
                Ok(output) => AttemptOutcome::Committed(value, output),
                Err(err) => AttemptOutcome::Failed(err),
            },
            Err(StmError::Retry) => AttemptOutcome::Waiting(tx.watch_list()),
            Err(err) => AttemptOutcome::Failed(err),
        }
    }

    /// Publish `rv` in the slot (`SeqCst`), *then* load the serial flag
    /// (`SeqCst`); true when no irrevocable transaction is pending. The
    /// order is the handshake: an irrevocable transaction that set the flag
    /// after our load sees our slot active and waits for us.
    #[inline]
    fn begin_unless_serial(&self, slot: &ActivitySlot, rv: u64) -> bool {
        #[cfg(all(test, loom))]
        if crate::verify::FLAG_BEFORE_SLOT.with(std::cell::Cell::get) {
            // DELIBERATELY BUGGY order for `verify::serial_model`'s mutant.
            let pending = self.inner.registry.serial_pending();
            slot.begin(rv);
            return !pending;
        }
        slot.begin(rv);
        !self.inner.registry.serial_pending()
    }

    fn attempt_serial<T>(
        &self,
        f: &mut impl FnMut(&mut Tx) -> StmResult<T>,
        local: &Local,
        bufs: &mut TxBuffers,
        started: Option<u64>,
    ) -> AttemptOutcome<T> {
        let _in_tx = InTxGuard::enter("synchronized/serial execution");
        let _serial = self.inner.registry.enter_serial(local);
        let _slot_guard = SlotGuard(&local.slot);
        let pin = crate::snapshot::pin_scope();
        let rv = clock::now();
        let mut tx = Tx::new(self, bufs, local, &pin, rv, true, started);
        local.slot.begin(rv);

        match f(&mut tx) {
            Ok(value) => {
                let output = tx.finish_serial();
                AttemptOutcome::Committed(value, output)
            }
            Err(StmError::Retry) => {
                // Condition synchronization from serial mode is only
                // possible before any irrevocable write has happened —
                // afterwards there is nothing to roll back.
                assert!(
                    !tx.serial_wrote(),
                    "retry after writes in an irrevocable transaction: \
                     irrevocable effects cannot be rolled back"
                );
                AttemptOutcome::Waiting(tx.watch_list())
            }
            Err(err) => {
                assert!(
                    !tx.serial_wrote(),
                    "abort ({err}) after writes in an irrevocable transaction"
                );
                AttemptOutcome::Failed(err)
            }
        }
    }

    /// Run one committed transaction's post-commit work — the tail of the
    /// paper's `TxEnd` (Listing 1): its deferred operations in call order,
    /// then its deferred frees, here on the committing thread, after
    /// write-back and quiescence and before `atomically` returns. Runs with
    /// no locks held (the serial flag, if it was ours, is cleared), so a
    /// deferred operation may start transactions of its own. Ops of
    /// different transactions that share a `TxLock` serialize in
    /// lock-acquisition order: the later committer's acquisition conflicts
    /// until the earlier op releases. Counts into the committing thread's
    /// `slot`.
    ///
    /// A panicking op does not strand the ops queued behind it: they belong
    /// to a committed transaction, and each holds locks only its own run
    /// releases. The batch runs to its end and the first panic then
    /// resumes, out of `atomically`.
    fn run_post_commit(&self, output: CommitOutput, slot: &ActivitySlot) {
        if output.is_empty() {
            // The common no-defer transaction never touches the batch.
            return;
        }
        let CommitOutput {
            actions,
            drops,
            enqueue_ts,
        } = output;
        let obs = self.inner.sink.enabled();
        let mut panicked = None;
        for (i, action) in actions.into_iter().enumerate() {
            slot.counters.bump(Hot::DeferredOps);
            if obs {
                self.trace_event(EventKind::DeferExecStart, i as u64);
            }
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| action(self))) {
                panicked.get_or_insert(panic);
            }
            if obs {
                self.trace_event(EventKind::DeferExecEnd, i as u64);
                // Queue-to-completion: enqueue inside the transaction →
                // execution finished here. The timestamp vector is only
                // populated when the committing attempt ran with obs on.
                if let Some(&t_enq) = enqueue_ts.get(i) {
                    let done = crate::trace::now_ns();
                    self.stats_ref()
                        .on_defer_latency(done.saturating_sub(t_enq));
                }
            }
        }
        drop(drops);
        if let Some(panic) = panicked {
            resume_unwind(panic);
        }
    }

    /// Internal identifier (stable for the lifetime of the runtime).
    pub fn id(&self) -> u64 {
        self.inner.id
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("id", &self.inner.id)
            .field("cfg", &self.inner.cfg)
            .finish()
    }
}

enum AttemptOutcome<T> {
    Committed(T, CommitOutput),
    Waiting(crate::retry::WatchList),
    Failed(StmError),
}

/// Ensures a panicking closure cannot leave its activity slot marked active,
/// which would hang every future quiescing writer.
struct SlotGuard<'a>(&'a ActivitySlot);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.end();
    }
}

/// Run a transaction on the [global runtime](Runtime::global).
pub fn atomically<T>(f: impl FnMut(&mut Tx) -> StmResult<T>) -> T {
    Runtime::global().atomically(f)
}

/// Run an irrevocable transaction on the [global runtime](Runtime::global).
pub fn synchronized<T>(f: impl FnMut(&mut Tx) -> StmResult<T>) -> T {
    Runtime::global().synchronized(f)
}
