//! STM hot-path throughput baseline.
//!
//! Emits `BENCH_stm_ops.json` (at the repo root by default): ops/sec for
//! four canonical access patterns at 1, 4 and 8 threads. The file is
//! committed, so every PR that touches the STM hot path re-runs this and
//! diffs against the tracked numbers — the coarse-grained regression tripwire
//! that complements the fine-grained `stm_ops` criterion bench.
//!
//! ```text
//! cargo run --release -p ad-bench --bin baseline            # write BENCH_stm_ops.json
//! cargo run --release -p ad-bench --bin baseline -- --ms 500 --out /tmp/b.json
//! cargo run --release -p ad-bench --bin baseline -- --stats-json /tmp/stats.json
//! ```
//!
//! The tracked `BENCH_stm_ops.json` is taken with `--ms 500`.
//!
//! `--stats-json PATH` additionally enables the observability layer on every
//! cell's runtime and dumps the per-cell [`ad_stm::StatsReport`] (counters +
//! the four latency histograms) as a JSON array. Note tracing costs a few
//! percent of throughput, so don't compare a `--stats-json` run's ops/sec
//! against a tracked baseline taken without it.
//!
//! Scenarios:
//! * `read_only`  — each thread sums 16 shared variables transactionally
//!   (no conflicts; exercises the lock-free snapshot read path);
//! * `write`      — each thread increments its own private variable
//!   (no conflicts; exercises commit, write-back and quiescence);
//! * `mixed`      — 90% single-var reads / 10% read-modify-writes over 64
//!   shared variables at random (low conflict);
//! * `contended`  — every thread increments the *same* variable (maximum
//!   conflict; throughput is dominated by aborts and retries).

use ad_support::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ad_stm::{Runtime, StatsReport, TVar, TmConfig};
use ad_support::args::{arg_num, arg_value};
use ad_support::prng::Rng;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

struct Row {
    scenario: &'static str,
    threads: usize,
    ops_per_sec: f64,
    stats: Option<StatsReport>,
}

/// Run `op` from `threads` workers for roughly `dur`, returning total
/// ops/sec. `op` receives (thread index, iteration counter, rng).
fn run_scenario(
    threads: usize,
    dur: Duration,
    op: impl Fn(usize, u64, &mut Rng) + Send + Sync + 'static,
) -> f64 {
    let op = Arc::new(op);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));

    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let op = Arc::clone(&op);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = Rng::seed_from_u64(0x0BA5E11E + t as u64);
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // Amortize the stop check over a small batch.
                    for _ in 0..64 {
                        op(t, ops, &mut rng);
                        ops += 1;
                    }
                }
                ops
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(dur);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    total as f64 / start.elapsed().as_secs_f64()
}

fn bench_read_only(rt: &Arc<Runtime>, threads: usize, dur: Duration) -> f64 {
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..16).map(TVar::new).collect());
    let rt = Arc::clone(rt);
    run_scenario(threads, dur, move |_, _, _| {
        let sum = rt.atomically(|tx| {
            let mut s = 0u64;
            for v in vars.iter() {
                s = s.wrapping_add(tx.read(v)?);
            }
            Ok(s)
        });
        std::hint::black_box(sum);
    })
}

fn bench_write(rt: &Arc<Runtime>, threads: usize, dur: Duration) -> f64 {
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..threads as u64).map(TVar::new).collect());
    let rt = Arc::clone(rt);
    run_scenario(threads, dur, move |t, _, _| {
        rt.atomically(|tx| tx.modify(&vars[t], |x| x.wrapping_add(1)));
    })
}

fn bench_mixed(rt: &Arc<Runtime>, threads: usize, dur: Duration) -> f64 {
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..64).map(TVar::new).collect());
    let rt = Arc::clone(rt);
    run_scenario(threads, dur, move |_, _, rng| {
        let i = rng.random_range(0..64);
        if rng.random_bool(0.1) {
            rt.atomically(|tx| tx.modify(&vars[i], |x| x.wrapping_add(1)));
        } else {
            let v = rt.atomically(|tx| tx.read(&vars[i]));
            std::hint::black_box(v);
        }
    })
}

fn bench_contended(rt: &Arc<Runtime>, threads: usize, dur: Duration) -> f64 {
    let v = Arc::new(TVar::new(0u64));
    let rt = Arc::clone(rt);
    run_scenario(threads, dur, move |_, _, _| {
        rt.atomically(|tx| tx.modify(&v, |x| x.wrapping_add(1)));
    })
}

fn main() {
    let ms: u64 = arg_num("--ms", 300);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_stm_ops.json".to_string());
    let stats_out = arg_value("--stats-json");
    let dur = Duration::from_millis(ms);
    println!("baseline: {ms}ms per cell");

    type ScenarioFn = fn(&Arc<Runtime>, usize, Duration) -> f64;
    let scenarios: [(&'static str, ScenarioFn); 4] = [
        ("read_only", bench_read_only),
        ("write", bench_write),
        ("mixed", bench_mixed),
        ("contended", bench_contended),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (name, f) in scenarios {
        for &threads in &THREAD_COUNTS {
            // A fresh runtime per cell keeps stats and slot lists isolated.
            let rt = Arc::new(Runtime::new(TmConfig::stm()));
            rt.set_tracing(stats_out.is_some());
            let ops_per_sec = f(&rt, threads, dur);
            println!("{name:<10} threads={threads}  {ops_per_sec:>14.0} ops/s");
            rows.push(Row {
                scenario: name,
                threads,
                ops_per_sec,
                stats: stats_out.is_some().then(|| rt.snapshot_stats()),
            });
        }
    }

    // Hand-formatted JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"stm_ops_baseline\",\n");
    json.push_str(&format!("  \"duration_ms_per_cell\": {ms},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.0}}}{}\n",
            r.scenario,
            r.threads,
            r.ops_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if let Some(path) = stats_out {
        let mut sj = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                sj.push_str(",\n");
            }
            sj.push_str(&format!(
                "  {{\"scenario\":\"{}\",\"threads\":{},\"ops_per_sec\":{:.0},\"stats\":{}}}",
                r.scenario,
                r.threads,
                r.ops_per_sec,
                r.stats
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |s| s.to_json()),
            ));
        }
        sj.push_str("\n]\n");
        std::fs::write(&path, sj).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
