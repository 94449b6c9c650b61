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
//! cargo run --release -p ad-bench --bin baseline -- --clock gv2    # A/B the clock
//! cargo run --release -p ad-bench --bin baseline -- --smoke --clock sharded  # CI gate
//! cargo run --release -p ad-bench --bin baseline -- --stats-json /tmp/stats.json
//! ```
//!
//! `--clock {gv2,sharded}` selects the commit-clock policy
//! (DESIGN.md §11) for every cell's runtime. The tracked
//! `BENCH_stm_ops.json` is taken with `sharded` — the scalable clock that
//! keeps the write/contended curves from inverting with cores — so that is
//! the default here; pass `gv2` to reproduce the paper-faithful TL2 clock's
//! numbers (the library default, `TmConfig::stm()`, remains `Gv2`).
//!
//! `--smoke` shrinks the run for CI and asserts the scalability gate: under
//! the scalable policy (`sharded`), 8-thread `write` throughput must
//! be ≥ 0.9× the 1-thread value. `gv2` is exempt — collapsing under its
//! clock-line contention is exactly the pathology the policy exists to fix.
//! The 0.9× curve gate only makes sense when 8 threads have 8 cores: with
//! fewer, the dominant 8-thread cost is lock-holder preemption (a committer
//! descheduled mid-commit stalls quiescence), which no clock policy can
//! remove. On such hosts the gate degrades to an A/B floor instead — the
//! scalable policy's 8-thread write throughput must stay within 0.75× of
//! `gv2`'s, proving the looser clock itself costs nothing.
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

use ad_stm::{ClockPolicy, Runtime, StatsReport, TVar, TmConfig};
use ad_support::args::{arg_flag, arg_num, arg_value};
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
    let smoke = arg_flag("--smoke");
    let ms: u64 = arg_num("--ms", if smoke { 150 } else { 300 });
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_stm_ops.json".to_string());
    let stats_out = arg_value("--stats-json");
    let clock_name = arg_value("--clock").unwrap_or_else(|| "sharded".to_string());
    let clock = ClockPolicy::parse(&clock_name)
        .unwrap_or_else(|| panic!("unknown --clock {clock_name} (gv2|sharded)"));
    let dur = Duration::from_millis(ms);
    println!("baseline: clock={}, {ms}ms per cell", clock.name());

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
            let rt = Arc::new(Runtime::new(TmConfig::stm().with_clock(clock)));
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

    // The CI scalability gate: a scalable clock must not let per-core
    // write throughput collapse. Checked in smoke runs only (full runs are
    // for recording numbers, not gating), and only for sharded —
    // gv2's collapse under clock-line contention is the known pathology.
    if smoke {
        // Gate on best-of-3 re-measurements, not the table rows: on a
        // loaded or oversubscribed runner a single 150ms cell can lose an
        // entire scheduling quantum and read 10x low.
        let best = |clk: ClockPolicy, threads: usize| -> f64 {
            (0..3)
                .map(|_| {
                    let rt = Arc::new(Runtime::new(TmConfig::stm().with_clock(clk)));
                    bench_write(&rt, threads, dur)
                })
                .fold(0.0, f64::max)
        };
        if clock != ClockPolicy::Gv2 {
            let (w1, w8) = (best(clock, 1), best(clock, 8));
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            if cores >= 8 {
                assert!(
                    w8 >= 0.9 * w1,
                    "clock={} write curve inverted: 8 threads {w8:.0} ops/s < 0.9x 1 thread {w1:.0} ops/s",
                    clock.name()
                );
                println!(
                    "smoke ok: clock={} write 8t/1t = {:.2}x",
                    clock.name(),
                    w8 / w1.max(1.0)
                );
            } else {
                // Oversubscribed host: the curve gate would measure the
                // scheduler, not the clock. Gate policy-vs-gv2 parity at
                // the same thread count instead.
                let g8 = best(ClockPolicy::Gv2, 8);
                assert!(
                    w8 >= 0.75 * g8,
                    "clock={} regresses 8-thread write vs gv2 on a {cores}-core host: \
                     {w8:.0} ops/s < 0.75x {g8:.0} ops/s",
                    clock.name()
                );
                println!(
                    "smoke ok: clock={} write 8t = {:.2}x of gv2 ({cores}-core host, curve gate skipped)",
                    clock.name(),
                    w8 / g8.max(1.0)
                );
            }
        } else {
            println!("smoke ok: clock=gv2 (no scalability gate)");
        }
        return;
    }

    // Hand-formatted JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"stm_ops_baseline\",\n");
    json.push_str(&format!("  \"duration_ms_per_cell\": {ms},\n"));
    json.push_str(&format!("  \"clock\": \"{}\",\n", clock.name()));
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
