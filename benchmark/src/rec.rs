//! The measuring side of a client thread: exact latency samples around
//! each blocking call into the program, operation and failure counts, and
//! — in a traced run — one span per call, all in buffers allocated and
//! touched before the window opens.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::{percentile, P99_MIN_SAMPLES};

/// Operation classes with a latency metric of their own; `Other` (probes,
/// canaries) counts toward throughput and failures only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    XWrite = 2,
    Scan = 3,
    Other = 4,
}

pub const N_CLASSES: usize = 5;

/// Spans kept per thread in a traced run; later calls are counted as
/// dropped so the trace file stays a few tens of megabytes.
pub const SPAN_CAP: usize = 100_000;

/// One call the harness made across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// When the window opens and closes, shared by every thread of a run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Origin of span timestamps.
    pub epoch: Instant,
    pub warm_end: Instant,
    pub end: Instant,
}

impl Window {
    pub fn starting_now(warmup: Duration, measure: Duration) -> Window {
        let epoch = Instant::now();
        Window {
            epoch,
            warm_end: epoch + warmup,
            end: epoch + warmup + measure,
        }
    }
}

pub struct ThreadRec {
    pub thread: usize,
    window: Window,
    /// Time one call in this many (1 = every call).
    sample_every: u64,
    op_id: u64,
    /// Set by the clock read that first saw `warm_end` pass, cleared by
    /// the one that saw `end` pass; calls count when it was set as they
    /// started, so the counted calls are exactly those that started and
    /// completed between `opened` and `closed`.
    recording: bool,
    last_counted: bool,
    opened: Option<Instant>,
    closed: Option<Instant>,
    /// `class << 56 | nanoseconds`, in call order.
    samples: Vec<u64>,
    samples_dropped: u64,
    ops: [u64; N_CLASSES],
    spans: Vec<Span>,
    spans_dropped: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Key + value bytes of writes acked inside the window.
    pub user_bytes: u64,
    /// Named counts a workload keeps of its in-window calls.
    counts: Vec<(&'static str, u64)>,
}

impl ThreadRec {
    /// Room for `sample_cap` latency samples and, when `traced`,
    /// [`SPAN_CAP`] spans; both buffers are written once here so no page
    /// of them is first touched inside the window. Nothing counts until
    /// [`ThreadRec::start`] hands over the window.
    pub fn new(thread: usize, sample_every: u64, sample_cap: usize, traced: bool) -> ThreadRec {
        let mut samples = Vec::with_capacity(sample_cap);
        samples.resize(sample_cap, 1);
        samples.clear();
        let mut spans = Vec::new();
        if traced {
            spans.reserve_exact(SPAN_CAP);
            spans.resize(
                SPAN_CAP,
                Span {
                    op_id: 1,
                    layer: "",
                    name: "",
                    start_ns: 1,
                    end_ns: 1,
                },
            );
            spans.clear();
        }
        ThreadRec {
            thread,
            window: Window::starting_now(Duration::ZERO, Duration::ZERO),
            sample_every: sample_every.max(1),
            op_id: 0,
            recording: false,
            last_counted: false,
            opened: None,
            closed: None,
            samples,
            samples_dropped: 0,
            ops: [0; N_CLASSES],
            spans,
            spans_dropped: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            user_bytes: 0,
            counts: Vec::new(),
        }
    }

    pub fn start(&mut self, window: Window) {
        self.window = window;
    }

    /// Has this thread's clock passed the end of the window?
    pub fn done(&self) -> bool {
        self.closed.is_some()
    }

    fn observe(&mut self, now: Instant) {
        if self.opened.is_none() && now >= self.window.warm_end {
            self.opened = Some(now);
            self.recording = true;
        }
        if self.closed.is_none() && now >= self.window.end {
            self.closed = Some(now);
            self.recording = false;
        }
    }

    /// Make one call into the program, timing it if it is this thread's
    /// turn to sample. The closure is the call and nothing else: inputs
    /// are built before it and outputs checked after it.
    pub fn call<R>(
        &mut self,
        class: Class,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.op_id += 1;
        self.attempted += 1;
        self.last_counted = self.recording;
        if self.recording {
            self.ops[class as usize] += 1;
        }
        if !self.op_id.is_multiple_of(self.sample_every) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if self.last_counted {
            let ns = (t1 - t0).as_nanos() as u64;
            if self.samples.len() < self.samples.capacity() {
                self.samples
                    .push((class as u64) << 56 | ns.min((1 << 56) - 1));
            } else {
                self.samples_dropped += 1;
            }
            // The span buffer has room only in a traced run.
            if self.spans.capacity() > 0 {
                if self.spans.len() < self.spans.capacity() {
                    self.spans.push(Span {
                        op_id: self.op_id,
                        layer,
                        name,
                        start_ns: (t0 - self.window.epoch).as_nanos() as u64,
                        end_ns: (t1 - self.window.epoch).as_nanos() as u64,
                    });
                } else {
                    self.spans_dropped += 1;
                }
            }
        }
        self.observe(t1);
        r
    }

    /// Was the latest call inside the window? (For counts the workload
    /// keeps next to the call, such as acked bytes.)
    pub fn last_counted(&self) -> bool {
        self.last_counted
    }

    /// Add one to a named count if the latest call was inside the window.
    pub fn bump(&mut self, name: &'static str) {
        if !self.last_counted {
            return;
        }
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((name, 1)),
        }
    }

    /// Record a failed operation or check. The first few reasons are kept
    /// for the report.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures
                .push(format!("thread {}: {}", self.thread, why()));
        }
    }

    /// Count a check made outside a timed call (one attempt; one failure
    /// if it did not hold).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why);
        }
    }
}

/// One class's latencies over all threads of a window.
#[derive(Debug, Clone, Default)]
pub struct ClassResult {
    /// Calls completed in the window (timed or not).
    pub ops: u64,
    /// Exact samples, ascending.
    pub sorted_ns: Vec<u64>,
}

impl ClassResult {
    pub fn p50_us(&self) -> Option<f64> {
        percentile(&self.sorted_ns, 0.50).map(|ns| ns as f64 / 1e3)
    }

    pub fn p99_us(&self) -> Option<f64> {
        if self.sorted_ns.len() < P99_MIN_SAMPLES {
            return None;
        }
        percentile(&self.sorted_ns, 0.99).map(|ns| ns as f64 / 1e3)
    }

    pub fn mean_ns(&self) -> f64 {
        if self.sorted_ns.is_empty() {
            return 0.0;
        }
        self.sorted_ns.iter().sum::<u64>() as f64 / self.sorted_ns.len() as f64
    }

    /// Estimated seconds all threads spent inside this class's calls
    /// (sample mean × calls, exact when every call is sampled).
    pub fn call_seconds(&self) -> f64 {
        self.mean_ns() * self.ops as f64 / 1e9
    }
}

/// What the threads of one window measured, merged.
#[derive(Debug, Default)]
pub struct WindowResult {
    pub classes: [ClassResult; N_CLASSES],
    /// Calls completed ÷ measured seconds, summed over the threads.
    pub throughput_ops_s: f64,
    /// Sum over threads of measured time: the thread-seconds of the budget.
    pub thread_seconds: f64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub user_bytes: u64,
    /// `VmHWM` when the window closed, less the harness's sample buffers.
    pub peak_rss_mb: Option<f64>,
    /// The harness's disk probe over the window (workloads that wait for
    /// the disk only).
    pub disk_sync_us: Option<f64>,
    pub counts: Vec<(&'static str, u64)>,
    pub samples_dropped: u64,
    pub spans: Vec<(usize, Span)>,
    pub spans_dropped: u64,
}

impl WindowResult {
    pub fn class(&self, c: Class) -> &ClassResult {
        &self.classes[c as usize]
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, c)| *c)
    }

    pub fn merge(threads: Vec<ThreadRec>) -> WindowResult {
        let mut out = WindowResult::default();
        for t in threads {
            let ops = t.ops.iter().sum::<u64>();
            if let (Some(a), Some(b)) = (t.opened, t.closed) {
                let measured = (b - a).as_secs_f64();
                out.thread_seconds += measured;
                out.throughput_ops_s += ops as f64 / measured;
            }
            out.ops += ops;
            for (c, n) in t.ops.iter().enumerate() {
                out.classes[c].ops += n;
            }
            for s in &t.samples {
                out.classes[(s >> 56) as usize]
                    .sorted_ns
                    .push(s & ((1 << 56) - 1));
            }
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.failures.extend(t.failures);
            out.user_bytes += t.user_bytes;
            for (name, n) in t.counts {
                match out.counts.iter_mut().find(|(m, _)| *m == name) {
                    Some((_, c)) => *c += n,
                    None => out.counts.push((name, n)),
                }
            }
            out.samples_dropped += t.samples_dropped;
            out.spans_dropped += t.spans_dropped;
            out.spans.extend(t.spans.into_iter().map(|s| (t.thread, s)));
        }
        for c in &mut out.classes {
            c.sorted_ns.sort_unstable();
        }
        out
    }
}

/// A `VmRSS` / `VmHWM` line of `/proc/self/status`, in MB.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Write spans as Chrome trace "complete" events (`ph:"X"`, microsecond
/// timestamps), loadable in `chrome://tracing` or Perfetto.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    spans: &[(usize, Span)],
    dropped: u64,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\"spans_dropped\":{dropped}}},\"traceEvents\":["
    )?;
    for (i, (thread, s)) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"workload\":\"{}\",\"thread\":{},\"op_id\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            thread,
            workload,
            thread,
            s.op_id,
            s.layer,
            s.start_ns,
            s.end_ns,
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_calls_started_inside_the_window() {
        let window = Window::starting_now(Duration::from_millis(20), Duration::from_millis(40));
        let mut rec = ThreadRec::new(0, 1, 1 << 16, true);
        rec.start(window);
        while !rec.done() {
            rec.call(Class::Read, "kv", "get", || std::hint::black_box(1 + 1));
        }
        let attempted = rec.attempted;
        let r = WindowResult::merge(vec![rec]);
        assert!(
            r.ops > 0 && r.ops < attempted,
            "warm-up calls must not count"
        );
        assert_eq!(r.class(Class::Read).ops, r.ops);
        assert_eq!(
            r.class(Class::Read).sorted_ns.len() as u64 + r.samples_dropped,
            r.ops
        );
        assert!(
            (0.035..0.2).contains(&r.thread_seconds),
            "{}",
            r.thread_seconds
        );
        let rate = r.ops as f64 / r.thread_seconds;
        assert!(
            (r.throughput_ops_s - rate).abs() < 1e-6 * rate,
            "{}",
            r.throughput_ops_s
        );
        assert_eq!(r.spans.len() as u64 + r.spans_dropped, r.ops);
    }

    #[test]
    fn a_stall_inside_the_window_lowers_throughput() {
        // 10 ms calls for 0.5 s, one thread stalled for 0.2 s of it: the
        // stall must show, as completed calls over measured seconds.
        let window = Window::starting_now(Duration::ZERO, Duration::from_millis(500));
        let mut rec = ThreadRec::new(0, 1, 1 << 12, false);
        rec.start(window);
        let mut stalled = false;
        while !rec.done() {
            rec.call(Class::Read, "kv", "get", || {
                std::thread::sleep(Duration::from_millis(10))
            });
            if !stalled && window.epoch.elapsed() >= Duration::from_millis(100) {
                std::thread::sleep(Duration::from_millis(200));
                stalled = true;
            }
        }
        let r = WindowResult::merge(vec![rec]);
        assert!(
            (r.throughput_ops_s - r.ops as f64 / r.thread_seconds).abs() < 1e-9,
            "{}",
            r.throughput_ops_s
        );
        assert!(
            (40.0..=65.0).contains(&r.throughput_ops_s),
            "{}",
            r.throughput_ops_s
        );
    }

    #[test]
    fn sampling_times_one_call_in_n_but_counts_all() {
        let window = Window::starting_now(Duration::ZERO, Duration::from_millis(30));
        let mut rec = ThreadRec::new(0, 16, 1 << 16, false);
        rec.start(window);
        while !rec.done() {
            rec.call(Class::Write, "defer", "append", || {
                std::hint::black_box(2 * 2)
            });
        }
        let r = WindowResult::merge(vec![rec]);
        let timed = r.class(Class::Write).sorted_ns.len() as u64 + r.samples_dropped;
        assert!(timed > 0);
        assert!(
            r.ops >= timed * 15 && r.ops <= (timed + 1) * 16,
            "{} vs {timed}",
            r.ops
        );
    }
}
