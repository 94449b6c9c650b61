//! `run`: the whole benchmark. Every (workload, repetition) is a fresh
//! child process of this binary, repetitions interleaved across workloads
//! (w1r1, w2r1, … w1r2, …) so slow drift of the shared machine hits every
//! workload alike; a metric's value is the median over repetitions.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::gen::{Workload, THREADS};
use crate::json::Json;
use crate::metrics::{self, Metric, Section, METRICS};
use crate::stats::{median, min_max};
use crate::workloads::{Report, SETUP_REPS, SYNC_POLICY};
use crate::{durability, single};

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub secs: f64,
    pub warmup: f64,
    pub reps: usize,
    pub dir: PathBuf,
    pub out_dir: PathBuf,
    pub traced: bool,
}

/// One child's `detail` line, parsed.
struct Child {
    metrics: Vec<(String, f64)>,
    budget: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run_child(opts: &RunOpts, workload: Workload, seed: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.secs.to_string()])
        .args(["--warmup", &opts.warmup.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&opts.dir)
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .arg("--detail")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or("child printed no detail line")?;
    let d = Json::parse(line)?;
    let numbers = |key: &str| -> Vec<(String, f64)> {
        d.get(key)
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect()
    };
    let count = |key: &str| d.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Child {
        metrics: numbers("metrics"),
        budget: numbers("budget"),
        attempted: count("attempted"),
        failed: count("failed"),
        failures: d
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

/// One end-to-end metric over the repetitions, as `result.json` records
/// it (and `compare` reads it back); also printed. `None` without values.
fn summary_json(m: &Metric, bound: Option<f64>, values: &[f64]) -> Option<Json> {
    let (min, max) = min_max(values)?;
    let med = median(values)?;
    println!(
        "{:<36} {med:>14.4} {:<9} (min {min:.4}, max {max:.4}, n {}){}",
        m.name,
        m.unit,
        values.len(),
        if bound.is_none() {
            "  [no bound here: per-layer]"
        } else {
            ""
        }
    );
    let mut o = Json::obj();
    o.set("unit", m.unit);
    o.set("better", m.better.as_str());
    o.set("bound", bound.map_or(Json::Null, Json::Num));
    o.set("median", med);
    o.set("min", min);
    o.set("max", max);
    o.set(
        "values",
        values.iter().copied().map(Json::from).collect::<Vec<_>>(),
    );
    Some(o)
}

pub fn run(opts: &RunOpts) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    std::fs::create_dir_all(&opts.dir).expect("create data directory");
    std::fs::create_dir_all(&opts.out_dir).expect("create output directory");
    let fs = single::fs_type(&opts.dir).unwrap_or_else(|| "unknown".into());
    println!(
        "closed loop, {THREADS} client threads (nproc = {nproc}); {} repetitions x {} s (+{} s warm-up) per workload; \
         {SETUP_REPS} set-ups per run",
        opts.reps, opts.secs, opts.warmup
    );
    println!(
        "flush policy: SyncPolicy::{SYNC_POLICY:?} on real files under {} ({fs}); no checkpoint inside a window",
        opts.dir.display()
    );

    let mut failed_total = 0u64;
    let mut failures: Vec<String> = Vec::new();

    let mut durable = Report::default();
    durability::check(opts.seed, &mut durable);
    println!(
        "check-durability: {} checks, {} failed",
        durable.attempted, durable.failed
    );
    failed_total += durable.failed;
    failures.extend(durable.failures);

    // children[w][rep]; the traced child, if any, last.
    let mut untraced: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Option<Child>> = Workload::ALL.iter().map(|_| None).collect();
    let passes = (0..opts.reps)
        .map(|rep| (rep, false))
        .chain(opts.traced.then_some((opts.reps, true)));
    for (rep, is_traced) in passes {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let label = if is_traced {
                "traced".to_string()
            } else {
                format!("rep {}/{}", rep + 1, opts.reps)
            };
            match run_child(opts, w, opts.seed.wrapping_add(rep as u64), is_traced) {
                Ok(child) => {
                    let tp = child
                        .metrics
                        .iter()
                        .find(|(n, _)| n == "throughput_ops_s")
                        .map_or(0.0, |(_, v)| *v);
                    println!(
                        "  {:<12} {label:<9} {tp:>12.0} ops/s  {} of {} failed",
                        w.name(),
                        child.failed,
                        child.attempted
                    );
                    failed_total += child.failed;
                    failures.extend(child.failures.iter().map(|f| format!("{}: {f}", w.name())));
                    if is_traced {
                        traced[wi] = Some(child);
                    } else {
                        untraced[wi].push(child);
                    }
                }
                Err(e) => {
                    failed_total += 1;
                    failures.push(format!("{} {label}: {e}", w.name()));
                }
            }
        }
    }

    let mut result = Json::obj();
    result.set("schema", 1u64);
    result.set("claim", Json::Null);
    result.set("seed", opts.seed);
    result.set("secs", opts.secs);
    result.set("warmup", opts.warmup);
    result.set("reps", opts.reps as u64);
    result.set("threads", THREADS as u64);
    result.set("nproc", nproc as u64);
    result.set("flush_policy", format!("{SYNC_POLICY:?}"));
    result.set("data_fs", fs);
    let mut by_workload = Json::obj();
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        println!("\n== {} ==", w.name());
        let mut e2e = Json::obj();
        let mut layers = Json::obj();
        for m in METRICS.iter().filter(|m| m.section == Section::EndToEnd) {
            let values: Vec<f64> = untraced[wi]
                .iter()
                .filter_map(|c| c.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let bound = metrics::bound(m.name, w);
            if let Some(o) = summary_json(m, bound, &values) {
                // Too noisy here for a bound: kept, but out of `compare`'s
                // sight (README, "Bounds").
                let section = if bound.is_some() {
                    &mut e2e
                } else {
                    &mut layers
                };
                section.set(m.name, o);
            }
        }
        let mut entry = Json::obj();
        entry.set("end_to_end", e2e);
        entry.set(
            "attempted",
            untraced[wi].iter().map(|c| c.attempted).sum::<u64>(),
        );
        entry.set("failed", untraced[wi].iter().map(|c| c.failed).sum::<u64>());
        if let Some(t) = &traced[wi] {
            for (name, value) in &t.metrics {
                let Some(m) = metrics::find(name).filter(|m| m.section != Section::EndToEnd) else {
                    continue;
                };
                println!("{name:<36} {value:>14.4} {}", m.unit);
                let mut o = Json::obj();
                o.set("unit", m.unit);
                o.set("value", *value);
                layers.set(name, o);
            }
            // Tracing's cost: untraced median throughput against the
            // traced repetition's, both with the disk's drift taken out.
            let of = |c: &Child| {
                let found = c
                    .metrics
                    .iter()
                    .find(|(n, _)| n == "throughput_refdisk_ops_s");
                found.map(|(_, v)| *v)
            };
            let base = median(&untraced[wi].iter().filter_map(of).collect::<Vec<_>>());
            let with = of(t);
            if let (Some(base), Some(with)) = (base, with) {
                let pct = 100.0 * (base - with) / base;
                println!(
                    "{:<36} {pct:>14.4} %  (base {base:.0} refdisk ops/s untraced)",
                    "bench.trace_overhead_pct"
                );
                let mut o = Json::obj();
                o.set("unit", "%");
                o.set("value", pct);
                layers.set("bench.trace_overhead_pct", o);
            }
            single::print_budget(&t.budget);
            let mut budget = Json::obj();
            for (name, s) in &t.budget {
                budget.set(name, *s);
            }
            entry.set("budget_thread_seconds", budget);
        }
        entry.set("per_layer", layers);
        by_workload.set(w.name(), entry);
    }
    result.set("workloads", by_workload);

    let out = opts.out_dir.join("result.json");
    std::fs::write(&out, result.pretty()).expect("write result.json");
    println!("\nwrote {}", out.display());
    for f in &failures {
        println!("FAILED: {f}");
    }
    if failed_total > 0 {
        println!("{failed_total} failed operations or checks");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips() {
        let m = metrics::find("write_p50_us").unwrap();
        let values = [281.977, 291.0640000001, 279.5];
        let mut e2e = Json::obj();
        e2e.set(m.name, summary_json(m, Some(0.17), &values).unwrap());
        let mut entry = Json::obj();
        entry.set("end_to_end", e2e);
        let mut workloads = Json::obj();
        workloads.set("net_update", entry);
        let mut result = Json::obj();
        result.set("claim", Json::Null);
        result.set("workloads", workloads);

        let back = Json::parse(&result.pretty()).unwrap();
        assert_eq!(back, result);
        let metric = back
            .get("workloads")
            .and_then(|w| w.get("net_update"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("write_p50_us"))
            .unwrap();
        assert_eq!(metric.get("median").and_then(Json::as_f64), Some(281.977));
        assert_eq!(
            metric.get("max").and_then(Json::as_f64),
            Some(291.0640000001)
        );
        assert_eq!(metric.get("better").and_then(Json::as_str), Some("lower"));
        assert_eq!(
            metric
                .get("values")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }
}
