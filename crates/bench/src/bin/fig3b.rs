//! Figure 3b: dedup scalability at higher thread counts — STM baseline vs
//! STM-Best / HTM-Best (the +DeferAll variants) vs Pthread. The paper's HTM
//! baseline is omitted, as in the paper ("the performance of the baseline
//! HTM is not shown").
//!
//! ```text
//! cargo run --release -p ad-bench --bin fig3b \
//!     [-- --size BYTES --max-threads N --csv --stats-json PATH --trace-json PATH]
//! ```
//!
//! `--trace-json PATH` captures the busiest deferral cell (`STM-Best` at
//! the highest thread count) with tracing enabled and exports its event
//! timeline as chrome://tracing JSON.

use ad_bench::{make_corpus, run_dedup_cell_traced, DedupRunParams, DedupSeries};
use ad_support::args::{arg_flag, arg_num, arg_value};
use ad_workloads::{print_csv, print_time_table, stats_json};

fn main() {
    let stats_out = arg_value("--stats-json");
    let trace_out = arg_value("--trace-json");
    let params = DedupRunParams {
        corpus_size: arg_num("--size", 8 << 20),
        dup_ratio: 0.5,
        file_output: !arg_flag("--memory"),
        obs: stats_out.is_some(),
    };
    let max_threads: usize = arg_num("--max-threads", 32);
    let threads: Vec<usize> = [4usize, 8, 12, 16, 20, 24, 28, 32]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();

    println!(
        "Figure 3b: dedup pipeline at scale, corpus {} MiB ({} hardware threads available)",
        params.corpus_size >> 20,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );
    let corpus = make_corpus(&params);

    let mut results = Vec::new();
    for series in DedupSeries::fig3b() {
        for &t in &threads {
            let capture = trace_out.is_some()
                && series == DedupSeries::StmDeferAll
                && Some(&t) == threads.last();
            let cell_params = DedupRunParams {
                obs: params.obs || capture,
                ..params.clone()
            };
            let (m, trace) =
                run_dedup_cell_traced(series, t, &corpus, &cell_params, series.fig3b_label());
            if capture {
                let path = trace_out.as_ref().unwrap();
                let trace = trace.expect("TM backends produce a trace");
                std::fs::write(path, trace.to_chrome_json())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!("  wrote chrome trace to {path}");
            }
            eprintln!(
                "  {:<10} {:>2}t: {:>8.3}s  {}",
                m.series,
                t,
                m.secs(),
                m.note
            );
            results.push(m);
        }
    }

    print_time_table("Figure 3b: dedup overall performance", &threads, &results);
    if arg_flag("--csv") {
        print_csv(&results);
    }
    if let Some(path) = stats_out {
        std::fs::write(&path, stats_json(&results))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
