//! Figure 1 (motivation): quantify the quiescence stall that a long
//! operation inside a transaction inflicts on *unrelated* transactions, and
//! how atomic deferral removes it.
//!
//! T1 runs a transaction touching A, B, C followed by a long operation on C
//! (inline vs atomically deferred); T2 (touches B) and T3 (touches only D)
//! measure their own latency.
//!
//! ```text
//! cargo run --release -p ad-bench --bin motivation \
//!     [-- --ms 50 --rounds 10 --stats-json PATH --trace-json PATH]
//! ```
//!
//! With `--stats-json PATH`, tracing is enabled on both arms' runtimes and
//! their full observability reports are dumped as a two-cell JSON array —
//! the inline arm's `quiesce_wait_ns` histogram shows p99 near the long-op
//! duration; the deferred arm's shows the stall gone.
//!
//! With `--trace-json PATH`, the deferred arm's event timeline is exported
//! as chrome://tracing JSON (the `defer_enqueue`/`defer_exec_*` spans show
//! the long operation running after T1's commit while T2/T3 proceed).

use ad_bench::motivation_arms;
use ad_support::args::{arg_num, arg_value};
use ad_workloads::{stats_json, Measurement};
use std::time::Duration;

fn main() {
    let ms: u64 = arg_num("--ms", 50);
    let rounds: usize = arg_num("--rounds", 10);
    let stats_out = arg_value("--stats-json");
    let trace_out = arg_value("--trace-json");
    let long_op = Duration::from_millis(ms);

    println!("Figure 1 scenario: long operation = {ms}ms, {rounds} rounds");
    let (inline_arm, deferred_arm) =
        motivation_arms(long_op, rounds, stats_out.is_some() || trace_out.is_some());
    let (inline_stall, deferred_stall) = (inline_arm.mean_stall, deferred_arm.mean_stall);

    println!("\n| configuration | mean stall of unrelated transactions |");
    println!("|---|---|");
    println!(
        "| long op inside transaction | {:.1}ms |",
        inline_stall.as_secs_f64() * 1e3
    );
    println!(
        "| long op atomically deferred | {:.1}ms |",
        deferred_stall.as_secs_f64() * 1e3
    );
    println!(
        "\nDeferral reduced the stall by {:.0}x (paper Figure 1: T2/T3 stop \
         waiting for T1's long operation on C).",
        inline_stall.as_secs_f64() / deferred_stall.as_secs_f64().max(1e-9)
    );

    if let Some(path) = &trace_out {
        std::fs::write(path, deferred_arm.trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote chrome trace to {path} (deferred arm)");
    }

    if let Some(path) = stats_out {
        let cells =
            [("inline", inline_arm), ("deferred", deferred_arm)].map(|(name, arm)| Measurement {
                series: name.to_string(),
                threads: 3,
                elapsed: arm.mean_stall,
                note: String::new(),
                stats: Some(arm.stats),
            });
        std::fs::write(&path, stats_json(&cells)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
