//! One measured run of one workload in this process: the unit the driver
//! invokes (`--workload W --seed N --seconds S --trace 0|1`) and the unit
//! `run` re-executes per repetition.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::{self, METRICS};
use crate::rec::proc_status_mb;
use crate::workloads::{self, Report, RunCfg};
use crate::{durability, gen::Workload, probes};

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The filesystem type `path` lives on, from `/proc/self/mountinfo`
/// (longest mount point that is a prefix of the path).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Run `cfg.workload` once. `cfg.dir` is the parent under which this run
/// makes (and removes) its own scratch directory.
pub fn run(cfg: &RunCfg, check_durability: bool) -> Report {
    let scratch = Scratch(
        cfg.dir
            .join(format!("{}-{}", cfg.workload.name(), std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).expect("create scratch directory");
    if cfg.workload.durable() {
        // fsync on tmpfs returns at once: the durable workloads would
        // measure nothing.
        let fs = fs_type(&scratch.0).unwrap_or_default();
        assert!(
            fs != "tmpfs" && fs != "ramfs",
            "--dir {} is on {fs}; durable workloads need a real filesystem",
            cfg.dir.display()
        );
    }
    let mut cfg = RunCfg {
        dir: scratch.0.clone(),
        ..cfg.clone()
    };
    // The sample buffers are the harness's memory, not the program's:
    // `peak_rss_mb` leaves out what the resident set grows by here.
    let before = proc_status_mb("VmRSS");
    let recs = workloads::thread_recs(&cfg);
    cfg.harness_rss_mb = proc_status_mb("VmRSS")
        .zip(before)
        .map(|(after, before)| after - before);

    let mut report = match cfg.workload {
        Workload::NetUpdate | Workload::NetRead => workloads::net::run(&cfg, recs),
        Workload::ShardCross => workloads::shard::run(&cfg, recs),
        Workload::KvVolatile => workloads::kv::run(&cfg, recs),
        Workload::DeferIo => workloads::defer_io::run(&cfg, recs),
    };
    if cfg.traced {
        probes::run(&cfg, &mut report);
    }
    // `run` makes this check once, before its children; a run on its own
    // makes it here, after the resident set was read.
    if check_durability {
        durability::check(cfg.seed, &mut report);
    }
    // Operations and checks alike: anything that failed, of anything tried.
    report.put(
        "failed_ops_pct",
        100.0 * report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every `end_to_end` metric of `BENCHMARK.json` for an
/// untraced run, every `per_layer` metric for a traced one. A per-layer
/// metric this workload has no source for (a `shard.*` count on
/// `net_read`, say) is printed as 0; `detail` omits it instead.
pub fn contract_line(report: &Report, traced: bool) -> Json {
    let mut values = Json::obj();
    for m in METRICS {
        let listed = if traced {
            metrics::in_traced_line(m)
        } else {
            metrics::gate(m).is_some()
        };
        if !listed {
            continue;
        }
        let mut v = Json::obj();
        v.set("value", report.get(m.name).unwrap_or(0.0));
        v.set("unit", m.unit);
        values.set(m.name, v);
    }
    let mut line = Json::obj();
    line.set("correct", report.failed == 0);
    line.set("attempted", report.attempted.max(1));
    line.set("failed", report.failed);
    line.set("metrics", values);
    line
}

/// Everything the run measured, for `run` to aggregate.
pub fn detail(cfg: &RunCfg, report: &Report) -> Json {
    let pairs = |list: &[(&'static str, f64)]| {
        let mut o = Json::obj();
        for (name, value) in list {
            o.set(name, *value);
        }
        o
    };
    let mut d = Json::obj();
    d.set("workload", cfg.workload.name());
    d.set("seed", cfg.seed);
    d.set("traced", cfg.traced);
    d.set("attempted", report.attempted);
    d.set("failed", report.failed);
    d.set(
        "failures",
        report
            .failures
            .iter()
            .map(|f| Json::from(f.as_str()))
            .collect::<Vec<_>>(),
    );
    d.set("metrics", pairs(&report.metrics));
    d.set("budget", pairs(&report.budget));
    d
}

/// Every metric by name with its unit, then the budget and any failures.
pub fn print_report(report: &Report) {
    for (name, value) in &report.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{name:<36} {value:>16.4} {unit}");
    }
    print_budget(&report.budget);
    for f in &report.failures {
        println!("FAILED: {f}");
    }
}

/// The thread-time budget: where the window's client thread-seconds went.
pub fn print_budget<S: AsRef<str>>(budget: &[(S, f64)]) {
    let Some((_, total)) = budget.iter().find(|(n, _)| n.as_ref() == "thread_seconds") else {
        return;
    };
    println!("thread-time budget ({total:.2} client thread-seconds):");
    let mut attributed = 0.0;
    for (name, s) in budget
        .iter()
        .filter(|(n, _)| n.as_ref() != "thread_seconds")
    {
        let name = name.as_ref();
        println!("  {name:<14} {s:>8.3} s {:>6.1} %", 100.0 * s / total);
        attributed += s;
    }
    println!(
        "  {:<14} {:>8.3} s {:>6.1} %",
        "unattributed",
        total - attributed,
        100.0 * (total - attributed) / total
    );
}
