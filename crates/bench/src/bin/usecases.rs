//! The paper's §5 use cases, quantified: logging from critical sections
//! (§5.1, memcached-style) and the bounded file-descriptor pool (§5.3,
//! MySQL InnoDB-style). The paper reports these qualitatively ("we did not
//! observe a performance impact when applying atomic_defer to memcached";
//! "file operations can proceed fully in parallel"); these sweeps put
//! numbers behind both claims.
//!
//! ```text
//! cargo run --release -p ad-bench --bin usecases [-- --ops 20000 --max-threads 8 --csv]
//! ```

use ad_support::args::{arg_flag, arg_num};
use ad_workloads::{
    print_csv, print_time_table, run_logbench, run_poolbench, LogBenchConfig, LogVariant,
    PoolBenchConfig, PoolVariant,
};

fn main() {
    let total_ops: usize = arg_num("--ops", 20_000);
    let max_threads: usize = arg_num("--max-threads", 8);
    let threads: Vec<usize> = (1..=max_threads).collect();

    // ---- §5.1: logging --------------------------------------------------
    println!("Use case §5.1: diagnostic logging from transactions ({total_ops} ops)");
    let log_cfg = LogBenchConfig::new(total_ops);
    let mut log_results = Vec::new();
    for v in LogVariant::all() {
        for &t in &threads {
            let m = run_logbench(&log_cfg, v, t);
            eprintln!(
                "  {:<16} {:>2}t: {:>8.3}s  {}",
                m.series,
                t,
                m.secs(),
                m.note
            );
            log_results.push(m);
        }
    }
    print_time_table("Use case: logging (Listing 3)", &threads, &log_results);

    // ---- §5.3: descriptor pool ------------------------------------------
    let pool_ops = total_ops / 2;
    println!("\nUse case §5.3: bounded descriptor pool ({pool_ops} appends, 8 files, 2 open)");
    let pool_cfg = PoolBenchConfig::new(pool_ops);
    let mut pool_results = Vec::new();
    for v in PoolVariant::all() {
        for &t in &threads {
            let m = run_poolbench(&pool_cfg, v, t);
            eprintln!(
                "  {:<10} {:>2}t: {:>8.3}s  {}",
                m.series,
                t,
                m.secs(),
                m.note
            );
            pool_results.push(m);
        }
    }
    print_time_table("Use case: fd pool (Listing 5)", &threads, &pool_results);

    if arg_flag("--csv") {
        print_csv(&log_results);
        print_csv(&pool_results);
    }
}
