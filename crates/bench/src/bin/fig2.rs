//! Figure 2 (a–d): the transactional-I/O microbenchmark.
//!
//! ```text
//! cargo run --release -p ad-bench --bin fig2 -- --files 1             # Fig 2a
//! cargo run --release -p ad-bench --bin fig2 -- --files 2             # Fig 2b
//! cargo run --release -p ad-bench --bin fig2 -- --files 4             # Fig 2c
//! cargo run --release -p ad-bench --bin fig2 -- --files 4 --keep-open # Fig 2d
//! ```
//!
//! Options: `--ops N` (default 100000; paper uses 1M), `--max-threads N`
//! (default 8), `--htm` (run TM variants on the simulated-HTM runtime),
//! `--csv` (machine-readable output), `--stats-json PATH` (per-cell
//! observability reports; enables tracing on the TM runtimes),
//! `--trace-json PATH` (capture the Defer cell at max threads with tracing
//! on and export its event timeline as chrome://tracing JSON).

use ad_support::args::{arg_flag, arg_num, arg_value};
use ad_workloads::{
    print_csv, print_time_table, run_iobench_traced, stats_json, IoBenchConfig, Variant,
};

fn main() {
    let files: usize = arg_num("--files", 1);
    let total_ops: usize = arg_num("--ops", 100_000);
    let max_threads: usize = arg_num("--max-threads", 8);
    let keep_open = arg_flag("--keep-open");
    let htm = arg_flag("--htm");
    let stats_out = arg_value("--stats-json");
    let trace_out = arg_value("--trace-json");

    let cfg = IoBenchConfig::new(files, total_ops)
        .with_keep_open(keep_open)
        .with_htm(htm)
        .with_obs(stats_out.is_some());

    // The paper's Figure 2a has no FGL series (1 file makes FGL == CGL).
    let variants: Vec<Variant> = if files == 1 && !keep_open {
        vec![Variant::Cgl, Variant::Irrevoc, Variant::Defer]
    } else {
        Variant::all().to_vec()
    };
    let threads: Vec<usize> = (1..=max_threads).collect();

    let which = match (files, keep_open) {
        (1, false) => "2a",
        (2, false) => "2b",
        (4, false) => "2c",
        (4, true) => "2d",
        _ => "2?",
    };
    println!(
        "Figure {which}: {files} file(s), {total_ops} ops, keep_open={keep_open}, \
         TM runtime={}",
        if htm { "HTM-sim" } else { "STM" }
    );

    let mut results = Vec::new();
    for &variant in &variants {
        for &t in &threads {
            let capture = trace_out.is_some() && variant == Variant::Defer && t == max_threads;
            let (m, trace) = run_iobench_traced(&cfg, variant, t, capture);
            if capture {
                let path = trace_out.as_ref().unwrap();
                let trace = trace.expect("TM variants produce a trace");
                std::fs::write(path, trace.to_chrome_json())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!("  wrote chrome trace to {path}");
            }
            eprintln!(
                "  {:<8} {:>2}t: {:>8.3}s  {}",
                m.series,
                t,
                m.secs(),
                m.note
            );
            results.push(m);
        }
    }

    print_time_table(
        &format!(
            "Figure {which}: I/O microbenchmark ({files} files{})",
            if keep_open { ", kept open" } else { "" }
        ),
        &threads,
        &results,
    );
    if arg_flag("--csv") {
        print_csv(&results);
    }
    if let Some(path) = stats_out {
        std::fs::write(&path, stats_json(&results))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
