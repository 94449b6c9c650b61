//! Per-thread lock-free transaction event tracing.
//!
//! The paper's claims are *mechanistic* — "quiescence stalls unrelated
//! threads behind the long operation", "capacity aborts force
//! serialization" — and counters alone cannot witness ordering. This module
//! records the transaction lifecycle as timestamped events in per-thread
//! ring buffers, merged on demand into one timeline (`ad-bench --bin
//! txtrace` dumps it; `tests/observability.rs` asserts on it).
//!
//! ## Design constraints
//!
//! * **Off must be free**: with tracing disabled the hot path pays exactly
//!   one relaxed load + branch per attempt (the runner caches the flag into
//!   the `Tx`), nothing per event.
//! * **On must not serialize writers**: each thread owns a single-writer
//!   ring buffer ([`TraceBuf`]); recording is three relaxed stores and one
//!   release store, no locks, no shared cache line between threads.
//! * **Readers tolerate racing writers**: every slot carries a sequence
//!   word written last (release); the merger re-reads it after copying the
//!   payload and discards slots that changed underneath it (a per-slot
//!   seqlock). A wrapped ring overwrites oldest events — [`Trace::dropped`]
//!   reports how many were lost rather than pretending completeness.
//!
//! Timestamps are nanoseconds of monotonic time since the first trace use
//! in the process, so events from different threads and runtimes order
//! on one common axis. They come from the coarse TSC source
//! (`ad_support::tsc`): cheap enough for 200 ns transactions, accurate to
//! ~0.1 %, with possible tiny cross-core skew — the merge therefore keys
//! strict ordering on per-thread sequence numbers, not timestamps.

use ad_support::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use ad_support::sync::Mutex;

use crate::fxhash::FxHashMap;

/// Default ring capacity per thread, in events (see
/// `TmConfig::trace_ring_events` for the runtime override). 2^14 events
/// ≈ 393 KiB per traced thread; at a few million events/s this holds the
/// most recent few milliseconds of very hot threads and the entire run of
/// realistic ones.
pub(crate) const DEFAULT_RING_CAP: usize = 1 << 14;

/// An application-level trace event, described by the crate that emits
/// it: declare one `static` per event and pass it to
/// [`Runtime::trace_app`] (or, inside a transaction, to [`Tx::trace`] as
/// [`EventKind::App`]) — both show a declaration. `ad-stm` knows nothing
/// about its clients' events beyond this descriptor — the name and the
/// argument's label are what [`TraceEvent`]'s `Display`, [`Trace::render`]
/// and [`Trace::to_chrome_json`] print.
///
/// Two events are the same event iff they are the same `static`: traces
/// merge across runtimes, so identity is process-wide, and a descriptor
/// needs no registration with any runtime.
///
/// [`Runtime::trace_app`]: crate::Runtime::trace_app
/// [`Tx::trace`]: crate::Tx::trace
pub struct AppEvent {
    name: &'static str,
    arg_label: &'static str,
    /// The ring-slot code, interned process-wide on first emit (0 = not
    /// yet emitted). A byte's worth; the atomics facade has no `AtomicU8`.
    code: AtomicU32,
}

/// First slot code handed to an [`AppEvent`]; codes below it belong to the
/// core [`EventKind`] variants.
const APP_CODE_BASE: u32 = 64;

/// Every [`AppEvent`] emitted so far, indexed by `code - APP_CODE_BASE`.
static APP_EVENTS: Mutex<Vec<&'static AppEvent>> = Mutex::new(Vec::new());

impl AppEvent {
    /// Describe an event: its stable lowercase `name` and the label its
    /// argument renders under (`bytes`, `gid`, … or plain `arg`).
    pub const fn new(name: &'static str, arg_label: &'static str) -> AppEvent {
        AppEvent {
            name,
            arg_label,
            code: AtomicU32::new(0),
        }
    }

    /// Stable lowercase name (JSON / txtrace output).
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn code(&'static self) -> u8 {
        // Acquire pairs with the Release in `intern`: whoever sees a code
        // also sees the table entry it indexes.
        match self.code.load(Ordering::Acquire) {
            0 => self.intern(),
            code => code as u8,
        }
    }

    #[cold]
    fn intern(&'static self) -> u8 {
        let mut table = APP_EVENTS.lock();
        // Another thread's first emit of this descriptor may have won.
        let mut code = self.code.load(Ordering::Relaxed);
        if code == 0 {
            code = APP_CODE_BASE + table.len() as u32;
            assert!(code <= u32::from(u8::MAX), "too many AppEvent statics");
            table.push(self);
            self.code.store(code, Ordering::Release);
        }
        code as u8
    }

    /// The descriptors emitted so far, in code order. A drain copies the
    /// table once per ring and decodes every slot against the copy, so
    /// decoding takes no lock per event.
    fn interned() -> Vec<&'static AppEvent> {
        APP_EVENTS.lock().clone()
    }
}

impl PartialEq for AppEvent {
    fn eq(&self, other: &AppEvent) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for AppEvent {}

impl fmt::Debug for AppEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Declares [`EventKind`] from one table — variant, ring-slot code, name —
/// so the three cannot drift apart.
macro_rules! core_events {
    ($($(#[$doc:meta])* $variant:ident = $code:literal, $name:literal;)*) => {
        /// What happened. The core variants are the lifecycle of `ad-stm`
        /// and `ad-defer` themselves; every other layer's events are
        /// [`EventKind::App`]. Names are stable — they appear in JSON
        /// exports and `txtrace` output.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $($(#[$doc])* $variant,)*
            /// An application event: the emitting crate's descriptor
            /// says what it is called and what `arg` means.
            App(&'static AppEvent),
        }

        impl EventKind {
            /// Stable lowercase name (JSON / txtrace output).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $name,)*
                    EventKind::App(event) => event.name,
                }
            }

            /// The kind's code in the top byte of a ring slot.
            #[inline]
            fn code(self) -> u8 {
                match self {
                    $(EventKind::$variant => $code,)*
                    EventKind::App(event) => event.code(),
                }
            }

            /// Inverse of [`EventKind::code`]; `apps` is
            /// [`AppEvent::interned`].
            fn from_code(code: u8, apps: &[&'static AppEvent]) -> Option<EventKind> {
                match code {
                    $($code => Some(EventKind::$variant),)*
                    _ => {
                        let index = u32::from(code).checked_sub(APP_CODE_BASE)?;
                        apps.get(index as usize).copied().map(EventKind::App)
                    }
                }
            }
        }
    };
}

core_events! {
    /// A transaction attempt started; `arg` = its read version (`rv`).
    Begin = 1, "begin";
    /// The read set grew to a power-of-two size; `arg` = the new length.
    /// (Power-of-two sampling keeps large read-only transactions from
    /// flooding the ring with one event per read.)
    ReadSetGrow = 2, "read_set_grow";
    /// Snapshot extension or commit-time validation failed; `arg` = the
    /// id of the variable that failed (0 when unknown).
    ValidateFail = 3, "validate_fail";
    /// The attempt aborted; `arg` = cause (1 conflict, 2 capacity,
    /// 3 unsupported — [`EventKind::abort_cause_name`]).
    Abort = 4, "abort";
    /// The attempt committed; `arg` = 0 speculative, 1 serial/irrevocable.
    Commit = 5, "commit";
    /// A writer commit entered quiescence and actually waited for older
    /// transactions; `arg` = its write version. Zero-wait quiescence (no
    /// older transaction in flight) emits no enter/exit pair.
    QuiesceEnter = 6, "quiesce_enter";
    /// Quiescence finished; `arg` = nanoseconds spent waiting.
    QuiesceExit = 7, "quiesce_exit";
    /// `defer_post_commit` queued a deferred operation inside the
    /// transaction; `arg` = the operation's queue index within it.
    DeferEnqueue = 8, "defer_enqueue";
    /// A deferred operation started executing post-commit; `arg` = its
    /// queue index (pairs with the committing transaction's
    /// [`EventKind::DeferEnqueue`] of the same index).
    DeferExecStart = 9, "defer_exec_start";
    /// A deferred operation finished; `arg` = its queue index.
    DeferExecEnd = 10, "defer_exec_end";
    /// A transaction subscribed to a `TxLock` (`ad-defer`); `arg` = the
    /// lock's id (its owner `TVar`'s id).
    LockSubscribe = 11, "lock_subscribe";
    /// A transaction buffered a `TxLock` acquisition; `arg` = the lock id.
    LockAcquire = 12, "lock_acquire";
    /// The runner backed off after a failed attempt; `arg` = nanoseconds.
    Backoff = 13, "backoff";
    /// A snapshot extension succeeded: the whole read set revalidated at a
    /// fresher timestamp; `arg` = the new read version.
    ValidationExtend = 18, "validation_extend";
    /// A `DeferHandle::wait`/`wait_all` on this runtime's deferred work was
    /// entered on an `ad_support::pool` worker thread (DESIGN.md §14): a
    /// worker blocking on another runtime's handle ties up a thread that
    /// runtime may itself be waiting on, and with symmetric traffic two
    /// pools can starve each other. `arg` = the waited-on runtime's id.
    /// Emitted (with the `defer_remote_wait_hazards` counter bump) just
    /// before the wait blocks. It does not `debug_assert!`, because
    /// ad-shard's ascending-shard prepare order makes a bounded remote wait
    /// legal — the event is for audit, not prohibition.
    DeferRemoteWaitHazard = 24, "defer_remote_wait_hazard";
}

impl EventKind {
    /// Name of an [`EventKind::Abort`] event's cause argument.
    pub fn abort_cause_name(arg: u64) -> &'static str {
        match arg {
            1 => "conflict",
            2 => "capacity",
            3 => "unsupported",
            _ => "unknown",
        }
    }
}

/// Abort-cause codes for [`EventKind::Abort`] events (shared with
/// `runtime.rs`).
pub(crate) mod cause {
    pub(crate) const CONFLICT: u64 = 1;
    pub(crate) const CAPACITY: u64 = 2;
    pub(crate) const UNSUPPORTED: u64 = 3;
}

/// Nanoseconds of monotonic time since the process's trace epoch.
///
/// Backed by `ad_support::tsc` — a calibrated `rdtsc` read (~6-10 ns)
/// where an invariant TSC is available, `Instant` otherwise — because two
/// of these stamps land on every traced transaction attempt and a
/// `clock_gettime` pair roughly doubles a ~200 ns transaction
/// (OBSERVABILITY.md "Tracing overhead").
#[inline]
pub(crate) fn now_ns() -> u64 {
    ad_support::tsc::now_ns()
}

/// One merged, decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Id of the [`Runtime`] whose sink recorded the event
    /// ([`Runtime::id`]) — what makes events from different runtimes
    /// distinguishable after [`Trace::merge`]. Thread ids are dense *per
    /// runtime*, so `(thread, seq)` alone collides across runtimes.
    ///
    /// [`Runtime`]: crate::Runtime
    /// [`Runtime::id`]: crate::Runtime::id
    pub runtime: u64,
    /// Trace-local thread id (dense, assigned per runtime in registration
    /// order; not an OS tid).
    pub thread: u32,
    /// Per-thread event sequence number (gap-free while the ring keeps up;
    /// gaps mean the ring wrapped). It restarts at 1 after every
    /// `Runtime::take_trace`, so `(runtime, thread, seq)` identifies an
    /// event only within one take.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Event argument (see each [`EventKind`] variant).
    pub arg: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12.3}us r{}.t{:<3} {:<16}",
            self.ts_ns as f64 / 1e3,
            self.runtime,
            self.thread,
            self.kind.name(),
        )?;
        match self.kind {
            EventKind::Abort => write!(f, " cause={}", EventKind::abort_cause_name(self.arg)),
            EventKind::Commit => write!(
                f,
                " mode={}",
                if self.arg == 1 {
                    "serial"
                } else {
                    "speculative"
                }
            ),
            EventKind::QuiesceExit | EventKind::Backoff => {
                write!(f, " waited={:.1}us", self.arg as f64 / 1e3)
            }
            EventKind::DeferRemoteWaitHazard => write!(f, " remote_runtime={}", self.arg),
            EventKind::App(event) => write!(f, " {}={}", event.arg_label, self.arg),
            _ => write!(f, " arg={}", self.arg),
        }
    }
}

/// A drained trace: the merged timeline plus how many events the rings
/// overwrote before they could be read.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events from every traced thread, sorted by timestamp (ties broken
    /// by thread then sequence number).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around (oldest-first overwrite).
    pub dropped: u64,
}

impl Trace {
    /// Events of one thread, in order. In a merged multi-runtime trace the
    /// same thread id can exist in several runtimes — use
    /// [`Trace::runtime_thread_events`] there.
    pub fn thread_events(&self, thread: u32) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.thread == thread)
    }

    /// Events of one `(runtime, thread)` row of a merged timeline, in order.
    pub fn runtime_thread_events(
        &self,
        runtime: u64,
        thread: u32,
    ) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.runtime == runtime && e.thread == thread)
    }

    /// The distinct runtime ids present, ascending.
    pub fn runtime_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.runtime).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Merge several traces (each from a `Runtime::take_trace`) into one
    /// timeline.
    ///
    /// This is how a multi-runtime system — ad-shard's router, or any
    /// embedding running one runtime per partition — renders a cross-shard
    /// commit as *one* story: events keep their `runtime` tag and the
    /// result is re-sorted on the common timestamp axis exactly like a
    /// single-runtime take. Every input event is kept: `seq` restarts at
    /// every take, so two takes of one runtime repeat
    /// `(runtime, thread, seq)` for different events. `dropped` sums over
    /// the inputs.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for t in traces {
            events.extend(t.events);
            dropped += t.dropped;
        }
        events.sort_unstable_by_key(|e| (e.ts_ns, e.runtime, e.thread, e.seq));
        Trace { events, dropped }
    }

    /// Render the timeline as line-oriented text (one event per line).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.events.len() * 48);
        for e in &self.events {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        if self.dropped > 0 {
            s.push_str(&format!("({} events dropped to ring wrap)\n", self.dropped));
        }
        s
    }

    /// Render the timeline as chrome://tracing trace-event JSON
    /// (`{"traceEvents":[..]}`), loadable in Perfetto / `chrome://tracing`.
    ///
    /// Paired lifecycle events become complete (`"ph":"X"`) duration slices
    /// — `begin`→`commit`/`abort` as a `txn` slice, `quiesce_enter`→
    /// `quiesce_exit` as `quiesce`, `defer_exec_start`→`defer_exec_end`
    /// (matched by queue index) as `defer_op` — and everything else is an
    /// instant (`"ph":"i"`). Timestamps are microseconds since the process
    /// trace epoch; `pid` is the runtime id (so a merged multi-runtime
    /// trace renders one process group per runtime) and `tid` is the
    /// trace-local thread id within that runtime.
    pub fn to_chrome_json(&self) -> String {
        // Comma placement between events needs one bit of state; carrying
        // it with the buffer keeps every call site a plain `w.push(..)`.
        struct EventSink {
            out: String,
            first: bool,
        }
        impl EventSink {
            #[allow(clippy::too_many_arguments)]
            fn push(
                &mut self,
                name: &str,
                ph: char,
                runtime: u64,
                thread: u32,
                ts_ns: u64,
                dur_ns: Option<u64>,
                args: &[(&str, String)],
            ) {
                let out = &mut self.out;
                if !self.first {
                    out.push_str(",\n");
                }
                self.first = false;
                out.push_str(&format!(
                    "  {{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":{runtime},\"tid\":{thread},\
                     \"ts\":{:.3}",
                    ts_ns as f64 / 1e3,
                ));
                if let Some(d) = dur_ns {
                    out.push_str(&format!(",\"dur\":{:.3}", d as f64 / 1e3));
                }
                if ph == 'i' {
                    // Thread-scoped instants render as small arrows on the row.
                    out.push_str(",\"s\":\"t\"");
                }
                if !args.is_empty() {
                    out.push_str(",\"args\":{");
                    for (i, (k, v)) in args.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("\"{k}\":{v}"));
                    }
                    out.push('}');
                }
                out.push('}');
            }
        }

        let mut w = EventSink {
            out: String::with_capacity(64 + self.events.len() * 96),
            first: true,
        };
        w.out.push_str("{\"traceEvents\":[\n");
        // Open-slice state per (runtime, thread) row: transaction begin,
        // quiescence entry, and in-flight deferred ops keyed by queue
        // index. Thread ids alone collide across runtimes in a merged
        // trace, so every pairing key carries the runtime too.
        let mut open_txn: FxHashMap<(u64, u32), u64> = FxHashMap::default();
        let mut open_quiesce: FxHashMap<(u64, u32), u64> = FxHashMap::default();
        let mut open_defer: FxHashMap<(u64, u32, u64), u64> = FxHashMap::default();
        for e in &self.events {
            let row = (e.runtime, e.thread);
            match e.kind {
                EventKind::Begin => {
                    // A begin with no matching end (ring wrap, still
                    // running) is replaced by the next begin; emit nothing.
                    open_txn.insert(row, e.ts_ns);
                }
                EventKind::Commit | EventKind::Abort => {
                    let label = if e.kind == EventKind::Commit {
                        (
                            "mode",
                            format!("\"{}\"", if e.arg == 1 { "serial" } else { "speculative" }),
                        )
                    } else {
                        (
                            "cause",
                            format!("\"{}\"", EventKind::abort_cause_name(e.arg)),
                        )
                    };
                    match open_txn.remove(&row) {
                        Some(start) => w.push(
                            if e.kind == EventKind::Commit {
                                "txn"
                            } else {
                                "txn_abort"
                            },
                            'X',
                            e.runtime,
                            e.thread,
                            start,
                            Some(e.ts_ns.saturating_sub(start)),
                            &[label],
                        ),
                        None => w.push(
                            e.kind.name(),
                            'i',
                            e.runtime,
                            e.thread,
                            e.ts_ns,
                            None,
                            &[label],
                        ),
                    }
                }
                EventKind::QuiesceEnter => {
                    open_quiesce.insert(row, e.ts_ns);
                }
                EventKind::QuiesceExit => match open_quiesce.remove(&row) {
                    Some(start) => w.push(
                        "quiesce",
                        'X',
                        e.runtime,
                        e.thread,
                        start,
                        Some(e.ts_ns.saturating_sub(start)),
                        &[("waited_ns", e.arg.to_string())],
                    ),
                    None => w.push(
                        "quiesce_exit",
                        'i',
                        e.runtime,
                        e.thread,
                        e.ts_ns,
                        None,
                        &[("waited_ns", e.arg.to_string())],
                    ),
                },
                EventKind::DeferExecStart => {
                    open_defer.insert((e.runtime, e.thread, e.arg), e.ts_ns);
                }
                EventKind::DeferExecEnd => match open_defer.remove(&(e.runtime, e.thread, e.arg)) {
                    Some(start) => w.push(
                        "defer_op",
                        'X',
                        e.runtime,
                        e.thread,
                        start,
                        Some(e.ts_ns.saturating_sub(start)),
                        &[("index", e.arg.to_string())],
                    ),
                    None => w.push(
                        "defer_exec_end",
                        'i',
                        e.runtime,
                        e.thread,
                        e.ts_ns,
                        None,
                        &[("index", e.arg.to_string())],
                    ),
                },
                _ => {
                    let label = match e.kind {
                        EventKind::App(event) => event.arg_label,
                        _ => "arg",
                    };
                    w.push(
                        e.kind.name(),
                        'i',
                        e.runtime,
                        e.thread,
                        e.ts_ns,
                        None,
                        &[(label, e.arg.to_string())],
                    )
                }
            }
        }
        w.out.push_str("\n]}\n");
        w.out
    }

    /// Aggregate `validate_fail` events into a per-`TVar` contention
    /// report: the top-`n` hottest variables by failed-validation count.
    /// `validate_fail` carries the offending variable's id (0 when the
    /// failure could not be attributed), so this table pinpoints which
    /// shared variables cause aborts — `ad-kv`'s eight-writer test uses it
    /// to validate the store's shard count, `txtrace` prints it after the
    /// timeline.
    pub fn contention_report(&self, n: usize) -> ContentionReport {
        let mut by_var: FxHashMap<u64, u64> = FxHashMap::default();
        let mut total = 0u64;
        for e in &self.events {
            if e.kind == EventKind::ValidateFail {
                total += 1;
                *by_var.entry(e.arg).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<ContentionEntry> = by_var
            .into_iter()
            .map(|(var, fails)| ContentionEntry { var, fails })
            .collect();
        entries.sort_unstable_by_key(|e| (std::cmp::Reverse(e.fails), e.var));
        entries.truncate(n);
        ContentionReport {
            entries,
            total_fails: total,
        }
    }
}

/// One row of a [`ContentionReport`]: a variable id and how many failed
/// validations it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionEntry {
    /// The `TVar` id (`TVar::id`), or 0 for unattributed failures.
    pub var: u64,
    /// Number of `validate_fail` events carrying this id.
    pub fails: u64,
}

/// Top-N "hottest TVars" table aggregated from a [`Trace`]'s
/// `validate_fail` events (see [`Trace::contention_report`]).
#[derive(Debug, Clone, Default)]
pub struct ContentionReport {
    /// Hottest variables, most-contended first (ties broken by id).
    pub entries: Vec<ContentionEntry>,
    /// All `validate_fail` events in the trace, including ones whose
    /// variable fell outside the top N.
    pub total_fails: u64,
}

impl ContentionReport {
    /// The share of all validation failures attributed to the single
    /// hottest variable, in `[0, 1]`; 0 when the trace has none. A value
    /// near 1 on a sharded structure means the sharding is not spreading
    /// conflicts.
    pub fn top_share(&self) -> f64 {
        match self.entries.first() {
            Some(e) if self.total_fails > 0 => e.fails as f64 / self.total_fails as f64,
            _ => 0.0,
        }
    }
}

impl fmt::Display for ContentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total_fails == 0 {
            return writeln!(f, "contention: no validate_fail events in trace");
        }
        writeln!(
            f,
            "hottest TVars by validate_fail ({} failures total):",
            self.total_fails
        )?;
        writeln!(f, "  {:>12}  {:>8}  share", "var", "fails")?;
        for e in &self.entries {
            let var = if e.var == 0 {
                "(unattributed)".to_string()
            } else {
                format!("var#{}", e.var)
            };
            writeln!(
                f,
                "  {:>12}  {:>8}  {:>5.1}%",
                var,
                e.fails,
                e.fails as f64 * 100.0 / self.total_fails as f64
            )?;
        }
        Ok(())
    }
}

/// One event slot: a per-slot seqlock. `seq` is 0 when empty, otherwise
/// the event's 1-based per-thread sequence number, stored *last* with
/// release ordering so a reader that observes `seq` also observes the
/// payload stores it covers.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    /// `kind` in the top byte, `arg` in the low 56 bits.
    packed: AtomicU64,
}

const ARG_BITS: u32 = 56;
const ARG_MASK: u64 = (1 << ARG_BITS) - 1;

/// A [`Slot`]'s three words copied out, not yet decoded.
struct RawEvent {
    seq: u64,
    ts: u64,
    packed: u64,
}

/// A single-writer ring buffer of trace events, owned by one thread and
/// readable (racily but safely) by the merger.
pub(crate) struct TraceBuf {
    /// Id of the runtime whose sink owns this ring — stamped on every
    /// event it emits, so merged traces keep their provenance.
    runtime: u64,
    thread: u32,
    /// Events written by the owner since the last drain (monotone between
    /// drains).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceBuf {
    /// `capacity` is rounded up to a power of two (minimum 2) so the ring
    /// index stays a mask of the monotone head counter.
    fn new(runtime: u64, thread: u32, capacity: usize) -> Arc<TraceBuf> {
        let cap = capacity.max(2).next_power_of_two();
        Arc::new(TraceBuf {
            runtime,
            thread,
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    packed: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    /// Append one event stamped `ts`. Owner thread only. The caller
    /// supplies the timestamp so emission sites that already read the
    /// clock (attempt start, commit latency end) don't pay for a second
    /// read — on a ~200 ns transaction every stamp shows up in the
    /// tracing-on overhead budget.
    #[inline]
    pub(crate) fn push(&self, ts: u64, kind: EventKind, arg: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (self.slots.len() - 1)];
        // Invalidate first so a concurrent reader can't pair the old seq
        // with the new payload, then publish payload before the new seq.
        slot.seq.store(0, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.packed.store(
            (u64::from(kind.code()) << ARG_BITS) | (arg & ARG_MASK),
            Ordering::Relaxed,
        );
        slot.seq.store(head + 1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copy out every readable event. Returns how many events were written
    /// but could not be read (overwritten by wrap-around or mid-read).
    fn drain_into(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let mut raw = Vec::new();
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let packed = slot.packed.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // overwritten mid-read; counts as dropped
            }
            raw.push(RawEvent {
                seq: s1,
                ts,
                packed,
            });
        }
        // Copied after the slots: an emitter interns its descriptor before
        // it fills a slot, so the copy covers every code read above.
        let apps = AppEvent::interned();
        let before = out.len();
        out.extend(raw.into_iter().filter_map(|r| {
            Some(TraceEvent {
                ts_ns: r.ts,
                runtime: self.runtime,
                thread: self.thread,
                seq: r.seq,
                kind: EventKind::from_code((r.packed >> ARG_BITS) as u8, &apps)?,
                arg: r.packed & ARG_MASK,
            })
        }));
        head.saturating_sub((out.len() - before) as u64)
    }

    /// Clear all slots (merger side; racing writers may lose the event
    /// they are writing, which is inherent to draining a live trace).
    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Release);
    }
}

/// Per-runtime trace state: the enable flag, the configured per-thread
/// ring capacity, and every thread's ring.
pub(crate) struct TraceSink {
    enabled: AtomicBool,
    next_thread: AtomicU32,
    /// Per-thread ring capacity in events (already a power of two ≥ 2);
    /// applied to each ring as it registers.
    ring_cap: usize,
    bufs: Mutex<Vec<Arc<TraceBuf>>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(DEFAULT_RING_CAP)
    }
}

impl TraceSink {
    /// Create a sink whose per-thread rings hold `ring_cap` events
    /// (rounded up to a power of two, minimum 2).
    pub(crate) fn new(ring_cap: usize) -> Self {
        TraceSink {
            enabled: AtomicBool::new(false),
            next_thread: AtomicU32::new(0),
            ring_cap: ring_cap.max(2).next_power_of_two(),
            bufs: Mutex::new(Vec::new()),
        }
    }
}

/// This thread's rings, one per runtime, with a one-entry cache in front:
/// nearly every thread traces into a single runtime, so the common path is
/// one id compare instead of a hash-map probe per event.
#[derive(Default)]
struct BufCache {
    last: Option<(u64, Arc<TraceBuf>)>,
    map: FxHashMap<u64, Arc<TraceBuf>>,
}

thread_local! {
    /// runtime-id -> this thread's ring in that runtime's sink.
    static MY_BUFS: RefCell<BufCache> = RefCell::new(BufCache::default());
}

impl TraceSink {
    /// Is tracing on? One relaxed load — the only cost the disabled hot
    /// path ever pays.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one event, stamped `ts`, for the calling thread (registering
    /// its ring on first use). Callers must already have checked
    /// [`TraceSink::enabled`].
    pub(crate) fn push(&self, runtime_id: u64, ts: u64, kind: EventKind, arg: u64) {
        MY_BUFS
            .try_with(|m| {
                let mut cache = m.borrow_mut();
                if let Some((id, buf)) = &cache.last {
                    if *id == runtime_id {
                        buf.push(ts, kind, arg);
                        return;
                    }
                }
                let buf = cache.map.entry(runtime_id).or_insert_with(|| {
                    let buf = TraceBuf::new(
                        runtime_id,
                        self.next_thread.fetch_add(1, Ordering::Relaxed),
                        self.ring_cap,
                    );
                    self.bufs.lock().push(Arc::clone(&buf));
                    buf
                });
                buf.push(ts, kind, arg);
                let buf = Arc::clone(buf);
                cache.last = Some((runtime_id, buf));
            })
            // Thread teardown: losing an event beats panicking in a Drop.
            .ok();
    }

    /// Merge every thread's ring into one timeline and clear the rings.
    pub(crate) fn take(&self) -> Trace {
        let bufs = self.bufs.lock();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for buf in bufs.iter() {
            dropped += buf.drain_into(&mut events);
            buf.clear();
        }
        drop(bufs);
        events.sort_unstable_by_key(|e| (e.ts_ns, e.runtime, e.thread, e.seq));
        Trace { events, dropped }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_roundtrip() {
        let sink = TraceSink::default();
        sink.set_enabled(true);
        sink.push(9001, now_ns(), EventKind::Begin, 42);
        sink.push(9001, now_ns(), EventKind::Commit, 0);
        let t = sink.take();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events[0].kind, EventKind::Begin);
        assert_eq!(t.events[0].arg, 42);
        assert_eq!(t.events[1].kind, EventKind::Commit);
        assert!(t.events[0].ts_ns <= t.events[1].ts_ns);
        // Drained: a second take is empty.
        assert!(sink.take().events.is_empty());
    }

    #[test]
    fn ring_wrap_reports_drops() {
        let sink = TraceSink::default();
        sink.set_enabled(true);
        let n = (DEFAULT_RING_CAP + 100) as u64;
        for i in 0..n {
            sink.push(9002, now_ns(), EventKind::ReadSetGrow, i);
        }
        let t = sink.take();
        assert_eq!(t.events.len(), DEFAULT_RING_CAP);
        assert_eq!(t.dropped, n - DEFAULT_RING_CAP as u64);
        // The survivors are the newest events, in order.
        let min_seq = t.events.iter().map(|e| e.seq).min().unwrap();
        assert_eq!(min_seq, n - DEFAULT_RING_CAP as u64 + 1);
    }

    #[test]
    fn tiny_ring_reports_dropped_exactly() {
        // A configured 4-event ring receiving 10 events keeps the newest 4
        // and reports the other 6 dropped — the runtime-configurable ring
        // size must not break the drop accounting.
        let sink = TraceSink::new(4);
        sink.set_enabled(true);
        for i in 0..10 {
            sink.push(9005, now_ns(), EventKind::ReadSetGrow, i);
        }
        let t = sink.take();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        let args: Vec<u64> = t.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        // Requesting 3 events rounds the ring up to 4: pushing 4 must not
        // drop anything, pushing a 5th drops exactly one.
        let sink = TraceSink::new(3);
        sink.set_enabled(true);
        for i in 0..4 {
            sink.push(9006, now_ns(), EventKind::Begin, i);
        }
        let t = sink.take();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 0);
        for i in 0..5 {
            sink.push(9006, now_ns(), EventKind::Begin, i);
        }
        let t = sink.take();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn threads_get_distinct_ids_and_merge_sorted() {
        let sink = Arc::new(TraceSink::default());
        sink.set_enabled(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    sink.push(9003, now_ns(), EventKind::Begin, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = sink.take();
        assert_eq!(t.events.len(), 400);
        let threads: std::collections::HashSet<u32> = t.events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 4);
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    /// Descriptors standing in for a client crate's events.
    static TEST_APPEND: AppEvent = AppEvent::new("test_append", "bytes");
    static TEST_SYNC: AppEvent = AppEvent::new("test_sync", "records");

    #[test]
    fn event_kind_codes_roundtrip() {
        for k in [
            EventKind::Begin,
            EventKind::ReadSetGrow,
            EventKind::ValidateFail,
            EventKind::Abort,
            EventKind::Commit,
            EventKind::QuiesceEnter,
            EventKind::QuiesceExit,
            EventKind::DeferEnqueue,
            EventKind::DeferExecStart,
            EventKind::DeferExecEnd,
            EventKind::LockSubscribe,
            EventKind::LockAcquire,
            EventKind::Backoff,
            EventKind::ValidationExtend,
            EventKind::DeferRemoteWaitHazard,
            EventKind::App(&TEST_APPEND),
        ] {
            let code = k.code();
            assert_eq!(EventKind::from_code(code, &AppEvent::interned()), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_code(0, &AppEvent::interned()), None);
        assert_eq!(EventKind::from_code(200, &AppEvent::interned()), None);
        // An interned app code is stable, lives above every core code, and
        // two descriptors never share one.
        let code = EventKind::App(&TEST_APPEND).code();
        assert_eq!(EventKind::App(&TEST_APPEND).code(), code);
        assert!(u32::from(code) >= APP_CODE_BASE);
        assert_ne!(EventKind::App(&TEST_SYNC).code(), code);
        assert_ne!(EventKind::App(&TEST_SYNC), EventKind::App(&TEST_APPEND));
    }

    #[test]
    fn display_renders_causes_and_modes() {
        let e = TraceEvent {
            ts_ns: 1500,
            runtime: 7,
            thread: 0,
            seq: 1,
            kind: EventKind::Abort,
            arg: super::cause::CAPACITY,
        };
        assert!(e.to_string().contains("cause=capacity"));
        // The runtime tag prefixes the thread id on every rendered line.
        assert!(e.to_string().contains("r7.t0"), "{e}");
        let c = TraceEvent {
            ts_ns: 1500,
            runtime: 7,
            thread: 0,
            seq: 2,
            kind: EventKind::Commit,
            arg: 1,
        };
        assert!(c.to_string().contains("mode=serial"));
        let g = TraceEvent {
            ts_ns: 1500,
            runtime: 2,
            thread: 1,
            seq: 3,
            kind: EventKind::App(&TEST_APPEND),
            arg: 41,
        };
        assert!(g.to_string().contains("test_append"), "{g}");
        assert!(g.to_string().contains("bytes=41"), "{g}");
    }

    #[test]
    fn chrome_json_pairs_lifecycle_events_into_slices() {
        let sink = TraceSink::default();
        sink.set_enabled(true);
        sink.push(9100, now_ns(), EventKind::Begin, 4);
        sink.push(9100, now_ns(), EventKind::QuiesceEnter, 6);
        sink.push(9100, now_ns(), EventKind::QuiesceExit, 10);
        sink.push(9100, now_ns(), EventKind::DeferEnqueue, 0);
        sink.push(9100, now_ns(), EventKind::Commit, 0);
        sink.push(9100, now_ns(), EventKind::DeferExecStart, 0);
        sink.push(9100, now_ns(), EventKind::App(&TEST_APPEND), 64);
        sink.push(9100, now_ns(), EventKind::App(&TEST_SYNC), 3);
        sink.push(9100, now_ns(), EventKind::DeferExecEnd, 0);
        let j = sink.take().to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "bad envelope: {j}");
        // The three pairs became complete slices...
        assert!(j.contains("\"name\":\"txn\",\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"quiesce\",\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"defer_op\",\"ph\":\"X\""), "{j}");
        // ...the paired raw events are consumed by those slices...
        assert!(!j.contains("\"name\":\"begin\""), "{j}");
        assert!(!j.contains("\"name\":\"commit\""), "{j}");
        // ...and unpaired events stay as instants.
        assert!(j.contains("\"name\":\"defer_enqueue\",\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"name\":\"test_append\",\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"name\":\"test_sync\",\"ph\":\"i\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chrome_json_keeps_unpaired_ends_as_instants() {
        // A commit whose begin was lost to ring wrap degrades to an
        // instant rather than fabricating a slice.
        let sink = TraceSink::default();
        sink.set_enabled(true);
        sink.push(9101, now_ns(), EventKind::Commit, 1);
        sink.push(9101, now_ns(), EventKind::QuiesceExit, 5);
        let j = sink.take().to_chrome_json();
        assert!(j.contains("\"name\":\"commit\",\"ph\":\"i\""), "{j}");
        assert!(j.contains("\"name\":\"quiesce_exit\",\"ph\":\"i\""), "{j}");
        assert!(!j.contains("\"ph\":\"X\""), "{j}");
    }

    #[test]
    fn contention_report_ranks_hottest_vars() {
        let sink = TraceSink::default();
        sink.set_enabled(true);
        for _ in 0..5 {
            sink.push(9102, now_ns(), EventKind::ValidateFail, 77);
        }
        for _ in 0..2 {
            sink.push(9102, now_ns(), EventKind::ValidateFail, 31);
        }
        sink.push(9102, now_ns(), EventKind::ValidateFail, 99);
        sink.push(9102, now_ns(), EventKind::Begin, 0); // noise, not counted
        let t = sink.take();
        let r = t.contention_report(2);
        assert_eq!(r.total_fails, 8);
        assert_eq!(r.entries.len(), 2);
        assert_eq!((r.entries[0].var, r.entries[0].fails), (77, 5));
        assert_eq!((r.entries[1].var, r.entries[1].fails), (31, 2));
        assert!((r.top_share() - 5.0 / 8.0).abs() < 1e-9);
        let txt = r.to_string();
        assert!(txt.contains("var#77"), "{txt}");
        assert!(txt.contains("8 failures total"), "{txt}");
    }

    #[test]
    fn contention_report_empty_trace() {
        let r = Trace::default().contention_report(5);
        assert_eq!(r.total_fails, 0);
        assert!(r.entries.is_empty());
        assert_eq!(r.top_share(), 0.0);
        assert!(r.to_string().contains("no validate_fail"));
    }

    #[test]
    fn merge_combines_runtimes() {
        // Two sinks standing in for two runtimes: events interleave on the
        // shared timestamp axis and keep their runtime tags.
        let a = TraceSink::default();
        let b = TraceSink::default();
        a.set_enabled(true);
        b.set_enabled(true);
        a.push(1, now_ns(), EventKind::Begin, 0);
        b.push(2, now_ns(), EventKind::Begin, 0);
        a.push(1, now_ns(), EventKind::Commit, 0);
        b.push(2, now_ns(), EventKind::Commit, 0);
        let m = Trace::merge([a.take(), b.take()]);
        assert_eq!(m.events.len(), 4, "{:#?}", m.events);
        assert_eq!(m.runtime_ids(), vec![1, 2]);
        assert!(m.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(m.runtime_thread_events(1, 0).count(), 2);
        assert_eq!(m.runtime_thread_events(2, 0).count(), 2);
        // Both runtimes' rows render with distinct tags.
        let text = m.render();
        assert!(text.contains("r1.t0"), "{text}");
        assert!(text.contains("r2.t0"), "{text}");
        // Chrome export keeps the rows apart via pid = runtime id.
        let j = m.to_chrome_json();
        assert!(j.contains("\"pid\":1"), "{j}");
        assert!(j.contains("\"pid\":2"), "{j}");
        // Each runtime's begin/commit pairs into its own txn slice — the
        // cross-runtime merge must not cross-pair rows that share tid 0.
        assert_eq!(j.matches("\"name\":\"txn\",\"ph\":\"X\"").count(), 2, "{j}");
    }

    #[test]
    fn merge_sums_dropped() {
        let a = TraceSink::new(4);
        a.set_enabled(true);
        for i in 0..10 {
            a.push(5, now_ns(), EventKind::ReadSetGrow, i);
        }
        let b = TraceSink::new(4);
        b.set_enabled(true);
        for i in 0..7 {
            b.push(6, now_ns(), EventKind::ReadSetGrow, i);
        }
        let m = Trace::merge([a.take(), b.take()]);
        assert_eq!(m.dropped, 6 + 3, "both runtimes' lost overflow");
        assert_eq!(m.events.len(), 4 + 4, "both rings' survivors");
    }

    #[test]
    fn trace_render_is_line_per_event() {
        let sink = TraceSink::default();
        sink.push(9004, now_ns(), EventKind::Begin, 0);
        sink.push(9004, now_ns(), EventKind::Commit, 0);
        let t = sink.take();
        let text = t.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("begin"));
        assert!(text.contains("commit"));
    }
}
