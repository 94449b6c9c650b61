//! What the five workloads share: the closed-loop window driver, the
//! counter snapshots taken at its edges, the read-back checks and the
//! set-up helpers. Each workload module owns its set-up, its worker and
//! its post-window checks.

pub mod defer_io;
pub mod kv;
pub mod net;
pub mod shard;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use ad_kv::{KvConfig, KvStore, SyncPolicy, WalStats, WriteBatch};
use ad_net::NetStatsSnapshot;
use ad_stm::StatsReport;

use crate::gen::{
    decode_value, encode_value, KeyTable, Op, OpStream, Rng, Stamp, Workload, Zipf, N_KEYS,
    PRELOAD_WRITER, TAIL_WRITER, THREADS, ZIPF_THETA,
};
use crate::rec::{proc_status_mb, write_chrome_trace, Class, ThreadRec, Window, WindowResult};
use crate::stats::median;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUP_REPS: usize = 5;
/// Keys per preload batch: large, so that set-up time is the program's
/// work on 10 000 keys and not a hundred fsync waits on a shared disk.
const PRELOAD_BATCH: usize = 1000;
/// The flush policy of every durable store in the benchmark.
pub const SYNC_POLICY: SyncPolicy = SyncPolicy::GroupCommit;

/// One run's settings, as the command line gave them.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub warmup: f64,
    pub traced: bool,
    /// This run's private scratch directory (created and removed by the
    /// caller).
    pub dir: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
    /// What the resident set grew by when the harness's sample buffers
    /// were allocated and touched, before the set-up: what `peak_rss_mb`
    /// leaves out.
    pub harness_rss_mb: Option<f64>,
}

/// The seeded tables a set-up builds before it opens the program.
pub struct Inputs {
    pub keys: KeyTable,
    pub zipf: Zipf,
}

impl Inputs {
    pub fn new() -> Inputs {
        Inputs {
            keys: KeyTable::new(),
            zipf: Zipf::new(N_KEYS, ZIPF_THETA),
        }
    }
}

/// What a workload hands back: named values, in the order measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// Thread-seconds of the traced budget, by component.
    pub budget: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::metrics::find(name).is_some(),
            "metric {name} is not in the table"
        );
        self.metrics.push((name, value));
    }

    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.put(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Count a post-window check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why());
            }
        }
    }

    pub fn absorb(&mut self, w: &WindowResult) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.failures.extend(w.failures.iter().cloned());
    }
}

/// The program's public counters, read at the window's edges.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub stm: Option<StatsReport>,
    pub wal: Option<WalStats>,
    pub net: Option<NetStatsSnapshot>,
}

impl Counters {
    /// Counters of `stores` (merged) and, if given, a server.
    pub fn of_stores(stores: &[&KvStore], net: Option<NetStatsSnapshot>) -> Counters {
        let mut stm: Option<StatsReport> = None;
        let mut wal: Option<WalStats> = None;
        for s in stores {
            let r = s.runtime().snapshot_stats();
            match &mut stm {
                Some(acc) => acc.merge(&r),
                None => stm = Some(r),
            }
            if let Some(w) = s.wal_stats() {
                match &mut wal {
                    Some(acc) => {
                        acc.records += w.records;
                        acc.batches += w.batches;
                        acc.bytes += w.bytes;
                        acc.append_ns.merge(&w.append_ns);
                        acc.fsync_ns.merge(&w.fsync_ns);
                    }
                    None => wal = Some(w),
                }
            }
        }
        Counters { stm, wal, net }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            stm: self
                .stm
                .as_ref()
                .zip(earlier.stm.as_ref())
                .map(|(a, b)| a.delta(b)),
            wal: self
                .wal
                .as_ref()
                .zip(earlier.wal.as_ref())
                .map(|(a, b)| WalStats {
                    records: a.records - b.records,
                    batches: a.batches - b.batches,
                    bytes: a.bytes - b.bytes,
                    append_ns: a.append_ns.delta_since(&b.append_ns),
                    fsync_ns: a.fsync_ns.delta_since(&b.fsync_ns),
                }),
            net: self
                .net
                .as_ref()
                .zip(earlier.net.as_ref())
                .map(|(a, b)| NetStatsSnapshot {
                    net_accepts: a.net_accepts - b.net_accepts,
                    net_requests: a.net_requests - b.net_requests,
                    net_frame_errors: a.net_frame_errors - b.net_frame_errors,
                    net_status_errors: a.net_status_errors - b.net_status_errors,
                    req_latency_ns: a.req_latency_ns.delta_since(&b.req_latency_ns),
                }),
        }
    }
}

/// One client thread's side of a workload.
pub trait Worker {
    /// Perform one generated operation: build inputs, make the call
    /// through [`ThreadRec::call`], check the output.
    fn step(&mut self, rec: &mut ThreadRec, op: Op);

    /// Write this thread's canary key and read it back: the value must be
    /// the one just acked. Called once, after the window has closed and
    /// its counters are read (so `net_read`'s window stays write-free);
    /// the default is for workloads with no keyed store.
    fn canary(&mut self, _rec: &mut ThreadRec) {}
}

/// Expected operations per second and thread, to size sample buffers
/// (samples beyond the buffer are counted as dropped, never reallocated).
fn rate_hint(w: Workload) -> f64 {
    match w {
        Workload::NetUpdate | Workload::ShardCross => 40_000.0,
        Workload::NetRead => 200_000.0,
        Workload::KvVolatile => 400_000.0,
        Workload::DeferIo => 3_000_000.0,
    }
}

/// Time one call in this many. `defer_io` completes about a million calls
/// a second; timing a fraction bounds memory and the timer's share of the
/// loop.
pub fn sample_every(w: Workload) -> u64 {
    match w {
        Workload::DeferIo => 16,
        _ => 1,
    }
}

/// One recorder per client thread, its buffers allocated and touched.
/// Made before the set-up, so that the memory the program takes afterwards
/// can be told from the harness's.
pub fn thread_recs(cfg: &RunCfg) -> Vec<ThreadRec> {
    let every = sample_every(cfg.workload);
    let cap = (rate_hint(cfg.workload) * (cfg.seconds + 1.0) / every as f64) as usize;
    (0..THREADS)
        .map(|t| ThreadRec::new(t, every, cap, cfg.traced))
        .collect()
}

/// Run the closed loop: one thread per recorder, each issuing its next
/// operation only after the previous one returned, for the warm-up plus
/// the measured window. `counters` is read when the warm-up ends and when
/// the window ends; the difference is returned with the merged samples.
pub fn drive<W: Worker>(
    cfg: &RunCfg,
    recs: Vec<ThreadRec>,
    inputs: &Inputs,
    counters: impl Fn() -> Counters,
    make_worker: impl Fn(usize) -> W + Sync,
) -> (WindowResult, Counters) {
    let ready = Barrier::new(THREADS + 1);
    let go = Barrier::new(THREADS + 1);
    let closed = Barrier::new(THREADS + 1);
    let window: OnceLock<Window> = OnceLock::new();

    std::thread::scope(|s| {
        let handles: Vec<_> = recs
            .into_iter()
            .map(|mut rec| {
                let (ready, go, closed) = (&ready, &go, &closed);
                let (window, make_worker) = (&window, &make_worker);
                s.spawn(move || {
                    let t = rec.thread;
                    let mut worker = make_worker(t);
                    let mut stream = OpStream::new(cfg.workload, cfg.seed, t, &inputs.zipf);
                    ready.wait();
                    go.wait();
                    rec.start(*window.get().expect("set before go"));
                    // A panic out of the program must not leave the other
                    // threads waiting at the barrier for ever: it becomes
                    // a failed run, not a hung one.
                    let survived = catch_unwind(AssertUnwindSafe(|| {
                        while !rec.done() {
                            worker.step(&mut rec, stream.next_op());
                        }
                    }))
                    .is_ok();
                    closed.wait();
                    if survived {
                        worker.canary(&mut rec);
                    } else {
                        rec.check(false, || "client thread panicked inside the program".into());
                    }
                    rec
                })
            })
            .collect();

        ready.wait();
        let w = Window::starting_now(
            Duration::from_secs_f64(cfg.warmup),
            Duration::from_secs_f64(cfg.seconds),
        );
        window.set(w).expect("set once");
        go.wait();
        sleep_until(w.warm_end);
        let before = counters();
        let disk_sync_us = if cfg.workload.waits_for_disk() {
            probe_disk_until(&cfg.dir, w.end)
        } else {
            sleep_until(w.end);
            None
        };
        let after = counters();
        closed.wait();
        // Read before the samples are merged and the post-window checks
        // copy the stores: those are the harness's memory, not the run's.
        let peak = proc_status_mb("VmHWM");
        let recs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let mut result = WindowResult::merge(recs);
        result.disk_sync_us = disk_sync_us;
        result.peak_rss_mb = peak.zip(cfg.harness_rss_mb).map(|(p, h)| p - h);
        (result, after.since(&before))
    })
}

/// Pause between two syncs of the disk probe: fifty a second, about one
/// for every hundred fsyncs the workload makes.
const DISK_PROBE_EVERY: Duration = Duration::from_millis(20);

/// The harness's own measure of the disk while the window is open: until
/// `end`, every [`DISK_PROBE_EVERY`], one append of a WAL-record-sized
/// block and one `sync_data` on a file of the harness's own in the run's
/// directory, timed. No code of the program runs in it and no counter of
/// the program is read. Returns the harmonic mean in microseconds — a
/// workload that waits for the disk completes operations in proportion to
/// 1 ÷ latency, so that is the average its throughput follows.
fn probe_disk_until(dir: &Path, end: Instant) -> Option<f64> {
    use std::io::Write;
    let path = dir.join("disk-probe");
    let mut file = std::fs::File::create(&path).expect("create disk probe file");
    let block = [0x5Au8; 160];
    let (mut syncs, mut per_second) = (0u32, 0.0);
    while Instant::now() + DISK_PROBE_EVERY < end {
        std::thread::sleep(DISK_PROBE_EVERY);
        let t0 = Instant::now();
        file.write_all(&block).expect("disk probe write");
        file.sync_data().expect("disk probe sync");
        per_second += 1.0 / t0.elapsed().as_secs_f64();
        syncs += 1;
    }
    sleep_until(end);
    drop(file);
    let _ = std::fs::remove_file(&path);
    (syncs > 0).then(|| 1e6 * f64::from(syncs) / per_second)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run `setup` [`SETUP_REPS`] times in fresh sub-directories of `dir`,
/// dropping all but the last result; returns that one with the median
/// set-up time. Each set-up builds its inputs too, so the time covers
/// everything between "nothing" and "ready for the first operation".
pub fn timed_setups<E>(dir: &Path, mut setup: impl FnMut(&Path) -> E) -> (E, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for i in 0..SETUP_REPS {
        // Tear the previous one down first: two live servers or stores
        // would make the later set-ups run beside idle threads.
        drop(last.take());
        let sub = dir.join(format!("setup{i}"));
        std::fs::create_dir_all(&sub).expect("create set-up directory");
        let t0 = Instant::now();
        last = Some(setup(&sub));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPS > 0"),
        median(&times).expect("SETUP_REPS > 0"),
    )
}

/// Open a file-backed store with the benchmark's flush policy.
pub fn open_durable(wal: &Path) -> KvStore {
    KvStore::open(KvConfig::durable(wal, SYNC_POLICY)).expect("open durable store")
}

/// Write every key of the table once, stamped as the preload, through
/// `write` in batches.
pub fn preload(keys: &KeyTable, write: impl Fn(&WriteBatch)) {
    let all: Vec<u32> = (0..keys.len() as u32).collect();
    for chunk in all.chunks(PRELOAD_BATCH) {
        let mut batch = WriteBatch::new();
        for &k in chunk {
            batch = batch.put(keys.name(k), preload_value(k));
        }
        write(&batch);
    }
}

fn preload_value(key: u32) -> Vec<u8> {
    encode_value(Stamp {
        writer: PRELOAD_WRITER,
        seq: 0,
        key,
    })
}

/// The highest write sequence each thread has started issuing; a value
/// carrying a higher one was never written by anybody.
pub type Issued = [AtomicU64; THREADS];

/// A thread's write-side bookkeeping: next sequence number and the
/// publication of it before the write is issued.
pub struct Writer<'a> {
    thread: usize,
    seq: u64,
    issued: &'a Issued,
}

impl<'a> Writer<'a> {
    pub fn new(thread: usize, issued: &'a Issued) -> Writer<'a> {
        Writer {
            thread,
            seq: 0,
            issued,
        }
    }

    /// Start a new write: one sequence number for all its keys.
    pub fn begin(&mut self) {
        self.seq += 1;
        self.issued[self.thread].store(self.seq, Ordering::Release);
    }

    pub fn value(&self, key: u32) -> Vec<u8> {
        encode_value(self.stamp(key))
    }

    pub fn stamp(&self, key: u32) -> Stamp {
        Stamp {
            writer: self.thread as u64,
            seq: self.seq,
            key,
        }
    }
}

/// A thread's read-side check: every value read is one some client issued
/// for that key, and one writer's values for a key never go backwards.
pub struct ReadCheck<'a> {
    issued: &'a Issued,
    /// Per key, the highest sequence seen from each writer.
    seen: Vec<[u64; THREADS]>,
}

impl<'a> ReadCheck<'a> {
    pub fn new(keys: &KeyTable, issued: &'a Issued) -> ReadCheck<'a> {
        ReadCheck {
            issued,
            seen: vec![[0; THREADS]; keys.len()],
        }
    }

    /// Check what a read of `key` returned; `Err` says what is wrong.
    pub fn verify(&mut self, key: u32, value: Option<&[u8]>) -> Result<Stamp, String> {
        let bytes = value.ok_or_else(|| format!("key {key}: preloaded key read as absent"))?;
        let stamp =
            decode_value(bytes).ok_or_else(|| format!("key {key}: value does not decode"))?;
        if stamp.key != key {
            return Err(format!(
                "key {key}: got a value written to key {}",
                stamp.key
            ));
        }
        let seen = &mut self.seen[key as usize];
        if stamp.writer == PRELOAD_WRITER {
            if stamp.seq != 0 || seen.iter().any(|&s| s > 0) {
                return Err(format!(
                    "key {key}: preload value came back after an overwrite"
                ));
            }
            return Ok(stamp);
        }
        let w = stamp.writer as usize;
        if w >= THREADS {
            return Err(format!("key {key}: unknown writer {}", stamp.writer));
        }
        if stamp.seq == 0 || stamp.seq > self.issued[w].load(Ordering::Acquire) {
            return Err(format!(
                "key {key}: writer {w} seq {} was never issued",
                stamp.seq
            ));
        }
        if stamp.seq < seen[w] {
            return Err(format!(
                "key {key}: writer {w} went back from seq {} to {}",
                seen[w], stamp.seq
            ));
        }
        seen[w] = stamp.seq;
        Ok(stamp)
    }

    /// [`ReadCheck::verify`] as the tail of a read operation.
    pub fn after_read(&mut self, rec: &mut ThreadRec, key: u32, value: Option<&[u8]>) {
        if let Err(why) = self.verify(key, value) {
            rec.fail(|| why);
        }
    }

    /// The canary read-back: exactly the stamp just acked.
    pub fn after_canary(&mut self, rec: &mut ThreadRec, want: Stamp, value: Option<&[u8]>) {
        let got = self.verify(want.key, value);
        rec.check(got == Ok(want), || {
            format!("canary: acked {want:?}, read back {got:?}")
        });
    }
}

/// End-to-end metrics every workload derives the same way from its
/// window. `read`/`write` name the calls behind the two common classes
/// only in the README; the metric names are shared.
pub fn put_window_metrics(report: &mut Report, w: &WindowResult) {
    report.put("throughput_ops_s", w.throughput_ops_s);
    report.put_opt("peak_rss_mb", w.peak_rss_mb);
    // A class is reported where the workload's mix has it; every share of
    // a mix is at least 1 %, so no threshold on the counts is needed (one
    // would drop `kv_volatile`'s 1 % of scans in every other run).
    for (class, p50, p99) in [
        (Class::Read, "read_p50_us", Some("read_p99_us")),
        (Class::Write, "write_p50_us", Some("write_p99_us")),
        (Class::XWrite, "xwrite_p50_us", Some("xwrite_p99_us")),
        (Class::Scan, "scan_p50_us", None),
    ] {
        report.put_opt(p50, w.class(class).p50_us());
        if let Some(p99) = p99 {
            report.put_opt(p99, w.class(class).p99_us());
        }
    }
    // Reads that took ten times the median read: mostly reads that met a
    // held TxLock and waited for its deferred operation.
    let reads = &w.class(Class::Read).sorted_ns;
    if let Some(p50) = crate::stats::percentile(reads, 0.5) {
        let slow = reads.len() - reads.partition_point(|&ns| ns <= 10 * p50);
        report.put(
            "defer.blocked_reads_pct",
            100.0 * slow as f64 / reads.len() as f64,
        );
    }
    report.put("bench.samples_dropped", w.samples_dropped as f64);
    // Where writes wait for the disk, throughput follows the shared disk's
    // latency one for one, and that drifts by half within a minute. Scale
    // it to a disk whose sync takes `REF_DISK_SYNC_US`, by the harness's own
    // probe of the disk during the window; elsewhere it is the raw number.
    report.put_opt("bench.disk_sync_us", w.disk_sync_us);
    let disk = w.disk_sync_us.map_or(1.0, |us| us / REF_DISK_SYNC_US);
    report.put("throughput_refdisk_ops_s", w.throughput_ops_s * disk);
}

/// The disk `throughput_refdisk_ops_s` is scaled to: about what a sync of
/// the sandbox's disk takes in a quiet minute.
const REF_DISK_SYNC_US: f64 = 150.0;

/// Metrics read from the program's counters over the window.
pub fn put_counter_metrics(report: &mut Report, d: &Counters, w: &WindowResult, traced: bool) {
    let us = |ns: f64| ns / 1e3;
    let mean_ns = |h: &ad_stm::HistogramSnapshot| {
        if h.count() == 0 {
            0.0
        } else {
            h.sum() as f64 / h.count() as f64
        }
    };
    if let Some(n) = &d.net {
        report.put("net.requests", n.net_requests as f64);
        report.put("net.status_errors", n.net_status_errors as f64);
        report.put("net.frame_errors", n.net_frame_errors as f64);
        report.put("net.server_req_mean_us", us(mean_ns(&n.req_latency_ns)));
        report.put(
            "net.server_req_p99_us",
            us(n.req_latency_ns.quantile(0.99) as f64),
        );
        let calls: usize = w.classes.iter().map(|c| c.sorted_ns.len()).sum();
        let call_ns: u64 = w.classes.iter().flat_map(|c| &c.sorted_ns).sum();
        let client_mean = call_ns as f64 / calls.max(1) as f64;
        report.put(
            "net.rtt_overhead_us",
            us(client_mean - mean_ns(&n.req_latency_ns)),
        );
        report.put_opt("net.get_rtt_p50_us", w.class(Class::Read).p50_us());
    }
    // A volatile store has no WAL; its counts are truly zero.
    let wal = d.wal.clone().unwrap_or_default();
    report.put("wal.records", wal.records as f64);
    report.put("wal.batches", wal.batches as f64);
    report.put("wal.bytes", wal.bytes as f64);
    if wal.batches > 0 {
        report.put("wal.fsync_mean_us", us(mean_ns(&wal.fsync_ns)));
        report.put("wal.fsync_p99_us", us(wal.fsync_ns.quantile(0.99) as f64));
        report.put("wal.append_mean_us", us(mean_ns(&wal.append_ns)));
        report.put(
            "wal.queue_wait_us",
            us(mean_ns(&wal.append_ns) - mean_ns(&wal.fsync_ns)),
        );
        report.put("wal.coalescing", wal.records as f64 / wal.batches as f64);
        if w.user_bytes > 0 {
            report.put(
                "wal_bytes_per_user_byte",
                wal.bytes as f64 / w.user_bytes as f64,
            );
        }
    }
    if let Some(stm) = &d.stm {
        let c = &stm.counters;
        let commits = c.total_commits().max(1) as f64;
        report.put("stm.commits", c.total_commits() as f64);
        report.put("stm.attempts_per_commit", c.starts as f64 / commits);
        report.put("stm.aborts_conflict", c.aborts_conflict as f64);
        report.put("stm.serializations", c.serializations as f64);
        report.put(
            "stm.quiesce_us_per_commit",
            us(c.quiesce_ns as f64) / commits,
        );
        report.put("stm.quiesce_ms_total", c.quiesce_ns as f64 / 1e6);
        report.put("defer.deferred_ops", c.deferred_ops as f64);
        report.put(
            "defer.lock_waits_per_kop",
            1e3 * c.retries as f64 / w.ops.max(1) as f64,
        );
        if traced {
            // These three histograms fill only while tracing is on.
            report.put(
                "defer.queue_to_done_mean_us",
                us(mean_ns(&stm.defer_queue_to_done_ns)),
            );
            report.put(
                "stm.commit_latency_mean_us",
                us(mean_ns(&stm.commit_latency_ns)),
            );
            report.put(
                "stm.retry_backoff_ms_total",
                stm.retry_backoff_ns.sum() as f64 / 1e6,
            );
        }
    }
}

/// The traced run's thread-time budget: the window's client
/// thread-seconds split by where the independent sources say they went.
pub fn put_budget(report: &mut Report, d: &Counters, w: &WindowResult) {
    let calls: f64 = w.classes.iter().map(|c| c.call_seconds()).sum();
    let wal = d.wal.clone().unwrap_or_default();
    let append = wal.append_ns.sum() as f64 / 1e9;
    // Every record of a batch waits for that batch's fsync, so the time
    // records spent under fsync is the mean fsync times the records.
    let fsync = if wal.batches == 0 {
        0.0
    } else {
        (wal.fsync_ns.sum() as f64 / wal.batches as f64) * wal.records as f64 / 1e9
    }
    .min(append);
    let below_net = d
        .net
        .as_ref()
        .map_or(calls, |n| n.req_latency_ns.sum() as f64 / 1e9);
    report.budget = vec![
        ("thread_seconds", w.thread_seconds),
        ("net", calls - below_net),
        ("kv+defer+stm", below_net - append),
        ("wal.queue", append - fsync),
        ("wal.fsync", fsync),
    ];
    report.put(
        "bench.budget_residual_pct",
        100.0 * (w.thread_seconds - calls) / w.thread_seconds.max(f64::MIN_POSITIVE),
    );
}

/// Everything a workload reports from its window: totals, end-to-end and
/// counter metrics and, in a traced run, the budget and the span file.
pub fn report_window(cfg: &RunCfg, report: &mut Report, window: &WindowResult, delta: &Counters) {
    report.absorb(window);
    put_window_metrics(report, window);
    put_counter_metrics(report, delta, window, cfg.traced);
    if cfg.traced {
        put_budget(report, delta, window);
        write_trace(cfg, window, report);
    }
}

/// Timed reopen + verify cycles; `reopen_ms` is their median.
pub const REOPEN_CYCLES: usize = 5;

/// Drop → reopen → `dump()` must equal the dump taken before the drop.
/// `reopen` opens the stores afresh and returns their merged dump (and
/// drops them). Returns the time of each cycle in milliseconds.
pub fn reopen_cycles(
    report: &mut Report,
    cycles: usize,
    want: &BTreeMap<String, Vec<u8>>,
    reopen: impl Fn() -> BTreeMap<String, Vec<u8>>,
) -> Vec<f64> {
    (0..cycles)
        .map(|i| {
            let t0 = Instant::now();
            let got = reopen();
            let same = got == *want;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            report.check(same, || {
                format!(
                    "reopen {i}: recovered {} keys, expected {} (contents differ)",
                    got.len(),
                    want.len()
                )
            });
            ms
        })
        .collect()
}

/// Writes in the fixed tail that precedes the timed reopens.
const REOPEN_TAIL_WRITES: u64 = 5000;

/// The fixed tail: the same single-threaded writes in every run (its own
/// seed, not `--seed`), so the reopen that follows replays the same log.
pub fn reopen_tail(inputs: &Inputs, put: impl Fn(&str, &[u8])) {
    let mut rng = Rng::new(0x7A11);
    for seq in 1..=REOPEN_TAIL_WRITES {
        let key = inputs.zipf.sample(&mut rng);
        let value = encode_value(Stamp {
            writer: TAIL_WRITER,
            seq,
            key,
        });
        put(inputs.keys.name(key), &value);
    }
}

/// Write the traced run's spans to `out/trace-<workload>.json`.
pub fn write_trace(cfg: &RunCfg, window: &WindowResult, report: &mut Report) {
    let path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    let res = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| {
        write_chrome_trace(
            &path,
            cfg.workload.name(),
            &window.spans,
            window.spans_dropped,
        )
    });
    report.check(res.is_ok(), || {
        format!("writing {}: {res:?}", path.display())
    });
}
