//! Figure 3a: PARSEC-dedup-style pipeline, 1–8 threads, all seven series
//! (STM, HTM, ±DeferIO, ±DeferAll, Pthread).
//!
//! ```text
//! cargo run --release -p ad-bench --bin fig3a \
//!     [-- --size BYTES --max-threads N --csv --stats-json PATH --trace-json PATH]
//! ```
//!
//! `--trace-json PATH` captures the busiest deferral cell
//! (`STM+DeferAll` at max threads) with tracing enabled and exports its
//! event timeline as chrome://tracing JSON.

use ad_bench::{make_corpus, run_dedup_cell_traced, DedupRunParams, DedupSeries};
use ad_support::args::{arg_flag, arg_num, arg_value};
use ad_workloads::{print_csv, print_time_table, stats_json};

fn main() {
    let stats_out = arg_value("--stats-json");
    let trace_out = arg_value("--trace-json");
    let params = DedupRunParams {
        corpus_size: arg_num("--size", 4 << 20),
        dup_ratio: 0.5,
        file_output: !arg_flag("--memory"),
        obs: stats_out.is_some(),
    };
    let max_threads: usize = arg_num("--max-threads", 8);
    let threads: Vec<usize> = (1..=max_threads).collect();

    println!(
        "Figure 3a: dedup pipeline, corpus {} MiB, dup_ratio {:.1}",
        params.corpus_size >> 20,
        params.dup_ratio
    );
    let corpus = make_corpus(&params);

    let mut results = Vec::new();
    for series in DedupSeries::fig3a() {
        for &t in &threads {
            let capture = trace_out.is_some()
                && series == DedupSeries::StmDeferAll
                && t == *threads.last().unwrap();
            let cell_params = DedupRunParams {
                obs: params.obs || capture,
                ..params.clone()
            };
            let (m, trace) =
                run_dedup_cell_traced(series, t, &corpus, &cell_params, series.label());
            if capture {
                let path = trace_out.as_ref().unwrap();
                let trace = trace.expect("TM backends produce a trace");
                eprint!("{}", trace.contention_report(8));
                std::fs::write(path, trace.to_chrome_json())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!("  wrote chrome trace to {path}");
            }
            eprintln!(
                "  {:<14} {:>2}t: {:>8.3}s  {}",
                m.series,
                t,
                m.secs(),
                m.note
            );
            results.push(m);
        }
    }

    print_time_table(
        "Figure 3a: dedup with atomic_defer (I/O and pure functions)",
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
