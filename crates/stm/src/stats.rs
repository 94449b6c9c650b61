//! Per-runtime statistics: counters plus latency histograms.
//!
//! Every figure reproduction reports these alongside wall-clock time: they
//! are how we verify that the *mechanism* behind a speedup matches the
//! paper's story (e.g. "+DeferAll eliminates capacity serializations", or
//! "irrevoc serializes every output transaction"). The histograms extend
//! the counters with distributions — a mean hides exactly the tail that
//! quiescence and deferral exist to fix, so the motivation scenario's
//! "readers stall behind the 50 ms op" is asserted on `quiesce_wait` p99,
//! not on a sum.
//!
//! Field names here are the stable observability schema: the same
//! snake_case names appear in [`StatsSnapshot`]'s `Display`, in
//! [`StatsReport::to_json`], and in `OBSERVABILITY.md`.

use ad_support::sync::atomic::{AtomicU64, Ordering};
use std::fmt;

use ad_support::hist::{Histogram, HistogramSnapshot};

/// The counters every transaction attempt bumps. They live per thread, in
/// the thread's activity slot ([`ThreadCounters`]), so bumping one writes
/// only the thread's own cache line.
#[derive(Clone, Copy)]
pub(crate) enum Hot {
    Starts,
    Commits,
    AbortsConflict,
    AbortsCapacity,
    AbortsUnsupported,
    Retries,
    DeferredOps,
    ValidationExtends,
}

const HOT: usize = 8;

/// One thread's [`Hot`] counters for one runtime. Only the owning thread
/// bumps them, so a bump is a plain load and store, not a read-modify-write.
/// A reset records the current counts as the baseline instead of storing
/// zeros, so it never races a bump.
#[derive(Default)]
pub(crate) struct ThreadCounters {
    count: [AtomicU64; HOT],
    base: [AtomicU64; HOT],
}

impl ThreadCounters {
    /// Count one event. Owning thread only.
    #[inline]
    pub(crate) fn bump(&self, c: Hot) {
        let n = &self.count[c as usize];
        n.store(n.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
    }

    fn get(&self, i: usize) -> u64 {
        self.count[i]
            .load(Ordering::Relaxed)
            .wrapping_sub(self.base[i].load(Ordering::Relaxed))
    }

    /// Zero the counters as the readers see them.
    pub(crate) fn reset(&self) {
        for (n, b) in self.count.iter().zip(&self.base) {
            b.store(n.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// A runtime's own counters and histograms: the rare events, plus the
/// [`Hot`] counts of threads that have left the runtime's registry (folded
/// in at thread exit). The live threads' hot counts are added when a
/// snapshot is taken (`Registry::snapshot`). All updates are relaxed: the
/// numbers are diagnostics, not synchronization.
#[derive(Default)]
pub struct Stats {
    /// Folded [`Hot`] counts, indexed like [`ThreadCounters`].
    hot: [AtomicU64; HOT],
    pub(crate) serializations: AtomicU64,
    pub(crate) serial_commits: AtomicU64,
    pub(crate) defer_remote_wait_hazards: AtomicU64,
    /// The latency histograms, boxed as one block: keeping `Stats`
    /// counter-sized preserves the cache layout of the fields around it
    /// (embedding the histograms inline measurably slowed uninstrumented
    /// transactions).
    hists: Box<LatencyHists>,
}

/// The four latency histograms (see the field docs for when each fills).
#[derive(Default)]
struct LatencyHists {
    /// Commit latency (begin of the committing attempt → commit done), ns.
    /// Recorded only while the runtime's observability toggle is on — it
    /// needs two `Instant::now()` calls per transaction.
    commit: Histogram,
    /// Quiescence wait per writer commit that actually waited, ns.
    /// Always on: the wait is already being timed when it happens.
    quiesce: Histogram,
    /// Contention-manager backoff per failed attempt, ns. Toggle-gated.
    backoff: Histogram,
    /// Deferred operation queue-to-completion (enqueue inside the
    /// transaction → post-commit execution finished), ns. Toggle-gated.
    defer: Histogram,
}

macro_rules! bump {
    ($($name:ident => $field:ident),* $(,)?) => {
        $(
            #[inline]
            pub(crate) fn $name(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl Stats {
    bump! {
        on_serialization => serializations,
        on_serial_commit => serial_commits,
        on_defer_remote_wait_hazard => defer_remote_wait_hazards,
    }

    /// Add a departing thread's counts to the runtime's own.
    pub(crate) fn fold(&self, t: &ThreadCounters) {
        for (i, n) in self.hot.iter().enumerate() {
            n.fetch_add(t.get(i), Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn on_quiesce(&self, ns: u64) {
        self.hists.quiesce.record(ns);
    }

    #[inline]
    pub(crate) fn on_commit_latency(&self, ns: u64) {
        self.hists.commit.record(ns);
    }

    #[inline]
    pub(crate) fn on_backoff(&self, ns: u64) {
        self.hists.backoff.record(ns);
    }

    #[inline]
    pub(crate) fn on_defer_latency(&self, ns: u64) {
        self.hists.defer.record(ns);
    }

    /// Copy the counters out — the runtime's own, without the live
    /// threads' (`Registry::snapshot` adds those). (`quiesce_waits`/
    /// `quiesce_ns` are derived from the quiescence histogram, which
    /// replaced the old running sum.)
    pub fn snapshot(&self) -> StatsSnapshot {
        let q = self.hists.quiesce.snapshot();
        let hot = |c: Hot| self.hot[c as usize].load(Ordering::Relaxed);
        StatsSnapshot {
            starts: hot(Hot::Starts),
            commits: hot(Hot::Commits),
            aborts_conflict: hot(Hot::AbortsConflict),
            aborts_capacity: hot(Hot::AbortsCapacity),
            aborts_unsupported: hot(Hot::AbortsUnsupported),
            retries: hot(Hot::Retries),
            serializations: self.serializations.load(Ordering::Relaxed),
            serial_commits: self.serial_commits.load(Ordering::Relaxed),
            quiesce_waits: q.count(),
            quiesce_ns: q.sum(),
            deferred_ops: hot(Hot::DeferredOps),
            defer_remote_wait_hazards: self.defer_remote_wait_hazards.load(Ordering::Relaxed),
            validation_extends: hot(Hot::ValidationExtends),
        }
    }

    /// Copy counters *and* histograms out as one serializable report.
    pub fn report(&self) -> StatsReport {
        StatsReport {
            counters: self.snapshot(),
            commit_latency_ns: self.hists.commit.snapshot(),
            quiesce_wait_ns: self.hists.quiesce.snapshot(),
            retry_backoff_ns: self.hists.backoff.snapshot(),
            defer_queue_to_done_ns: self.hists.defer.snapshot(),
        }
    }

    /// Zero the runtime's own counters and histograms (between benchmark
    /// phases; `Runtime::reset_stats` also resets every live thread's).
    pub fn reset(&self) {
        for c in self.hot.iter().chain([
            &self.serializations,
            &self.serial_commits,
            &self.defer_remote_wait_hazards,
        ]) {
            c.store(0, Ordering::Relaxed);
        }
        self.hists.commit.reset();
        self.hists.quiesce.reset();
        self.hists.backoff.reset();
        self.hists.defer.reset();
    }
}

/// An immutable copy of a runtime's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transaction attempts started (including re-executions).
    pub starts: u64,
    /// Speculative commits.
    pub commits: u64,
    /// Aborts due to validation/lock conflicts.
    pub aborts_conflict: u64,
    /// Simulated-HTM capacity aborts.
    pub aborts_capacity: u64,
    /// Aborts because the closure needed serial mode (irrevocable op in a
    /// speculative context).
    pub aborts_unsupported: u64,
    /// `retry` waits (condition synchronization, not failures).
    pub retries: u64,
    /// Escalations to serial/irrevocable execution.
    pub serializations: u64,
    /// Commits that completed in serial mode.
    pub serial_commits: u64,
    /// Writer commits that had to wait in quiescence.
    pub quiesce_waits: u64,
    /// Total nanoseconds spent quiescing.
    pub quiesce_ns: u64,
    /// Post-commit deferred operations executed.
    pub deferred_ops: u64,
    /// Times a `DeferHandle::wait`/`wait_all` on this runtime's deferred
    /// work was entered from an `ad_support::pool` worker thread — the
    /// cross-runtime wait hazard of DESIGN.md §14: the wait ties up a
    /// thread the other runtime may itself be waiting on. Not necessarily
    /// a bug (ad-shard's coordinator legally blocks for participant acks
    /// this way, bounded by its ascending-shard prepare order), but a
    /// nonzero value is where to look when two runtimes' pools starve
    /// each other.
    pub defer_remote_wait_hazards: u64,
    /// Successful snapshot extensions (a read witnessed a version above
    /// `rv` and the whole read set revalidated at a fresher timestamp).
    pub validation_extends: u64,
}

impl StatsSnapshot {
    /// Add one live thread's [`Hot`] counts.
    pub(crate) fn add_thread(&mut self, t: &ThreadCounters) {
        let hot = |c: Hot| t.get(c as usize);
        self.starts += hot(Hot::Starts);
        self.commits += hot(Hot::Commits);
        self.aborts_conflict += hot(Hot::AbortsConflict);
        self.aborts_capacity += hot(Hot::AbortsCapacity);
        self.aborts_unsupported += hot(Hot::AbortsUnsupported);
        self.retries += hot(Hot::Retries);
        self.deferred_ops += hot(Hot::DeferredOps);
        self.validation_extends += hot(Hot::ValidationExtends);
    }

    /// Total commits, speculative + serial.
    pub fn total_commits(&self) -> u64 {
        self.commits + self.serial_commits
    }

    /// Total aborts of all kinds (excluding retries).
    pub fn total_aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_unsupported
    }

    /// Difference of two snapshots (for measuring a phase).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            starts: self.starts - earlier.starts,
            commits: self.commits - earlier.commits,
            aborts_conflict: self.aborts_conflict - earlier.aborts_conflict,
            aborts_capacity: self.aborts_capacity - earlier.aborts_capacity,
            aborts_unsupported: self.aborts_unsupported - earlier.aborts_unsupported,
            retries: self.retries - earlier.retries,
            serializations: self.serializations - earlier.serializations,
            serial_commits: self.serial_commits - earlier.serial_commits,
            quiesce_waits: self.quiesce_waits - earlier.quiesce_waits,
            quiesce_ns: self.quiesce_ns - earlier.quiesce_ns,
            deferred_ops: self.deferred_ops - earlier.deferred_ops,
            defer_remote_wait_hazards: self.defer_remote_wait_hazards
                - earlier.defer_remote_wait_hazards,
            validation_extends: self.validation_extends - earlier.validation_extends,
        }
    }

    /// Counters as a JSON object, keys identical to the field names (the
    /// same schema `Display` and `OBSERVABILITY.md` use).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"starts\":{},\"commits\":{},\"serial_commits\":{},\
             \"aborts_conflict\":{},\"aborts_capacity\":{},\
             \"aborts_unsupported\":{},\"retries\":{},\"serializations\":{},\
             \"quiesce_waits\":{},\"quiesce_ns\":{},\"deferred_ops\":{},\
             \"defer_remote_wait_hazards\":{},\
             \"validation_extends\":{}}}",
            self.starts,
            self.commits,
            self.serial_commits,
            self.aborts_conflict,
            self.aborts_capacity,
            self.aborts_unsupported,
            self.retries,
            self.serializations,
            self.quiesce_waits,
            self.quiesce_ns,
            self.deferred_ops,
            self.defer_remote_wait_hazards,
            self.validation_extends,
        )
    }
}

impl fmt::Display for StatsSnapshot {
    /// Two labelled sections — counts first, then durations — so values of
    /// different units never share a section. Every `name=` matches the
    /// JSON key of the same quantity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "counters[commits={} serial_commits={} aborts={} (aborts_conflict={} \
             aborts_capacity={} aborts_unsupported={}) retries={} serializations={} \
             quiesce_waits={} deferred_ops={} defer_remote_wait_hazards={} \
             validation_extends={}] \
             durations[quiesce_ns={} ({:.1}ms)]",
            self.total_commits(),
            self.serial_commits,
            self.total_aborts(),
            self.aborts_conflict,
            self.aborts_capacity,
            self.aborts_unsupported,
            self.retries,
            self.serializations,
            self.quiesce_waits,
            self.deferred_ops,
            self.defer_remote_wait_hazards,
            self.validation_extends,
            self.quiesce_ns,
            self.quiesce_ns as f64 / 1e6,
        )
    }
}

/// A full observability report: the counters plus the four latency
/// histograms. Returned by `Runtime::snapshot_stats()`, serialized by the
/// bench bins' `--stats-json` flag.
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    /// The counter snapshot (same values as `Runtime::stats()`).
    pub counters: StatsSnapshot,
    /// Commit latency in nanoseconds (observability toggle required).
    pub commit_latency_ns: HistogramSnapshot,
    /// Quiescence wait in nanoseconds (always recorded when a wait occurs).
    pub quiesce_wait_ns: HistogramSnapshot,
    /// Contention-manager backoff in nanoseconds (toggle required).
    pub retry_backoff_ns: HistogramSnapshot,
    /// Deferred-op enqueue → execution-complete in nanoseconds (toggle
    /// required).
    pub defer_queue_to_done_ns: HistogramSnapshot,
}

impl StatsReport {
    /// Serialize the whole report as one JSON object:
    /// `{"counters":{..},"histograms":{"commit_latency_ns":{..},..}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"counters\":{},\"histograms\":{{\
             \"commit_latency_ns\":{},\"quiesce_wait_ns\":{},\
             \"retry_backoff_ns\":{},\"defer_queue_to_done_ns\":{}}}}}",
            self.counters.to_json(),
            self.commit_latency_ns.to_json(),
            self.quiesce_wait_ns.to_json(),
            self.retry_backoff_ns.to_json(),
            self.defer_queue_to_done_ns.to_json(),
        )
    }

    /// The interval report between `earlier` and `self` — two reports from
    /// the *same* runtime, `earlier` taken first. Counters subtract via
    /// [`StatsSnapshot::delta_since`]; histograms subtract per bucket (their
    /// `max` stays the whole-run max, an upper bound for the interval).
    /// This is how a harness (`benchmark/`) separates warm-up from steady
    /// state without resetting the runtime mid-run.
    pub fn delta(&self, earlier: &StatsReport) -> StatsReport {
        StatsReport {
            counters: self.counters.delta_since(&earlier.counters),
            commit_latency_ns: self
                .commit_latency_ns
                .delta_since(&earlier.commit_latency_ns),
            quiesce_wait_ns: self.quiesce_wait_ns.delta_since(&earlier.quiesce_wait_ns),
            retry_backoff_ns: self.retry_backoff_ns.delta_since(&earlier.retry_backoff_ns),
            defer_queue_to_done_ns: self
                .defer_queue_to_done_ns
                .delta_since(&earlier.defer_queue_to_done_ns),
        }
    }

    /// Merge another report into this one (summing counters and histogram
    /// buckets) — used to aggregate per-cell reports in the bench bins.
    pub fn merge(&mut self, other: &StatsReport) {
        let c = &mut self.counters;
        let o = &other.counters;
        c.starts += o.starts;
        c.commits += o.commits;
        c.aborts_conflict += o.aborts_conflict;
        c.aborts_capacity += o.aborts_capacity;
        c.aborts_unsupported += o.aborts_unsupported;
        c.retries += o.retries;
        c.serializations += o.serializations;
        c.serial_commits += o.serial_commits;
        c.quiesce_waits += o.quiesce_waits;
        c.quiesce_ns += o.quiesce_ns;
        c.deferred_ops += o.deferred_ops;
        c.defer_remote_wait_hazards += o.defer_remote_wait_hazards;
        c.validation_extends += o.validation_extends;
        self.commit_latency_ns.merge(&other.commit_latency_ns);
        self.quiesce_wait_ns.merge(&other.quiesce_wait_ns);
        self.retry_backoff_ns.merge(&other.retry_backoff_ns);
        self.defer_queue_to_done_ns
            .merge(&other.defer_queue_to_done_ns);
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.counters)?;
        writeln!(f, "  commit_latency_ns:        {}", self.commit_latency_ns)?;
        writeln!(f, "  quiesce_wait_ns:          {}", self.quiesce_wait_ns)?;
        writeln!(f, "  retry_backoff_ns:         {}", self.retry_backoff_ns)?;
        write!(
            f,
            "  defer_queue_to_done_ns:   {}",
            self.defer_queue_to_done_ns
        )
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Count a hot event straight into the runtime-wide fold, as if a
    /// thread that counted it had exited.
    macro_rules! fold_one {
        ($($name:ident => $c:ident),* $(,)?) => {
            impl Stats {
                $(
                    fn $name(&self) {
                        let t = ThreadCounters::default();
                        t.bump(Hot::$c);
                        self.fold(&t);
                    }
                )*
            }
        };
    }

    fold_one! {
        on_start => Starts,
        on_commit => Commits,
        on_conflict => AbortsConflict,
        on_capacity => AbortsCapacity,
        on_unsupported => AbortsUnsupported,
        on_retry => Retries,
        on_deferred_op => DeferredOps,
    }

    #[test]
    fn thread_counters_reset_to_a_baseline() {
        let t = ThreadCounters::default();
        t.bump(Hot::Commits);
        t.bump(Hot::Commits);
        let mut s = StatsSnapshot::default();
        s.add_thread(&t);
        assert_eq!(s.commits, 2);
        t.reset();
        t.bump(Hot::Retries);
        let mut s = StatsSnapshot::default();
        s.add_thread(&t);
        assert_eq!((s.commits, s.retries), (0, 1));
    }

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        s.on_start();
        s.on_start();
        s.on_commit();
        s.on_conflict();
        s.on_retry();
        s.on_serialization();
        s.on_serial_commit();
        s.on_quiesce(1000);
        s.on_deferred_op();
        let snap = s.snapshot();
        assert_eq!(snap.starts, 2);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts_conflict, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.serializations, 1);
        assert_eq!(snap.serial_commits, 1);
        assert_eq!(snap.quiesce_waits, 1);
        assert_eq!(snap.quiesce_ns, 1000);
        assert_eq!(snap.deferred_ops, 1);
        assert_eq!(snap.total_commits(), 2);
        assert_eq!(snap.total_aborts(), 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = Stats::default();
        s.on_start();
        s.on_capacity();
        s.on_unsupported();
        s.on_quiesce(500);
        s.on_commit_latency(700);
        s.on_defer_remote_wait_hazard();
        s.on_defer_latency(900);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert_eq!(s.report().commit_latency_ns.count(), 0);
        assert_eq!(s.report().defer_queue_to_done_ns.count(), 0);
    }

    #[test]
    fn delta_since_subtracts() {
        let s = Stats::default();
        s.on_commit();
        let a = s.snapshot();
        s.on_commit();
        s.on_conflict();
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts_conflict, 1);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = Stats::default();
        s.on_commit();
        let txt = s.snapshot().to_string();
        assert!(txt.contains("commits=1"));
        assert!(txt.contains("serializations=0"));
        // Counters and durations live in separate sections.
        assert!(txt.contains("counters["));
        assert!(txt.contains("durations["));
        let counters_end = txt.find(']').unwrap();
        let durations_start = txt.find("durations[").unwrap();
        assert!(counters_end < durations_start);
        assert!(!txt[..counters_end].contains("_ns="));
        assert!(txt[durations_start..].contains("quiesce_ns="));
    }

    #[test]
    fn report_collects_all_four_histograms() {
        let s = Stats::default();
        s.on_commit_latency(1_000);
        s.on_quiesce(2_000);
        s.on_backoff(3_000);
        s.on_defer_latency(4_000);
        let r = s.report();
        assert_eq!(r.commit_latency_ns.count(), 1);
        assert_eq!(r.quiesce_wait_ns.count(), 1);
        assert_eq!(r.retry_backoff_ns.count(), 1);
        assert_eq!(r.defer_queue_to_done_ns.count(), 1);
        assert_eq!(r.counters.quiesce_waits, 1);
        assert_eq!(r.counters.quiesce_ns, 2_000);
    }

    #[test]
    fn report_json_has_stable_schema() {
        let s = Stats::default();
        s.on_commit();
        s.on_commit_latency(123);
        let j = s.report().to_json();
        for key in [
            "\"counters\"",
            "\"commits\":1",
            "\"serializations\":0",
            "\"histograms\"",
            "\"commit_latency_ns\"",
            "\"quiesce_wait_ns\"",
            "\"retry_backoff_ns\"",
            "\"defer_queue_to_done_ns\"",
            "\"defer_remote_wait_hazards\":0",
            "\"validation_extends\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn report_delta_subtracts_counters_and_histograms() {
        let s = Stats::default();
        s.on_commit();
        s.on_commit_latency(100);
        s.on_quiesce(1_000);
        let warmup = s.report();
        s.on_commit();
        s.on_commit();
        s.on_commit_latency(200);
        s.on_commit_latency(300);
        s.on_defer_latency(50);
        let total = s.report();
        let steady = total.delta(&warmup);
        assert_eq!(steady.counters.commits, 2);
        assert_eq!(steady.commit_latency_ns.count(), 2);
        assert_eq!(steady.commit_latency_ns.sum(), 500);
        // The warm-up-only quiescence wait is excluded from the interval.
        assert_eq!(steady.counters.quiesce_waits, 0);
        assert_eq!(steady.quiesce_wait_ns.count(), 0);
        assert_eq!(steady.defer_queue_to_done_ns.count(), 1);
        // The delta serializes like any report.
        assert!(steady.to_json().contains("\"commits\":2"));
    }

    #[test]
    fn merge_sums_counters_and_buckets() {
        let a = Stats::default();
        a.on_commit();
        a.on_commit_latency(100);
        let b = Stats::default();
        b.on_commit();
        b.on_commit();
        b.on_commit_latency(200);
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.counters.commits, 3);
        assert_eq!(r.commit_latency_ns.count(), 2);
    }
}
