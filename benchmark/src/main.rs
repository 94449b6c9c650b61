//! The repo's benchmark: one closed-loop harness over
//! net → shard → kv → wal → defer → stm. See `README.md` for the protocol
//! and `../BENCHMARK.json` for the contract the driver reads.
//!
//! ```text
//! ad-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! ad-benchmark run [--seed 1] [--secs 8] [--warmup 2] [--reps 3] [--dir D] [--traced] [--smoke]
//! ad-benchmark compare A.json B.json
//! ad-benchmark check-durability [--seed N]
//! ```

mod compare;
mod durability;
mod gen;
mod json;
mod metrics;
mod probes;
mod rec;
mod run;
mod single;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;
use workloads::{Report, RunCfg};

/// `--name value` pairs and bare `--flags`, after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// A numeric option; a value that does not parse is an error, not a
    /// silent default.
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: cannot read {v:?} as a number")),
        }
    }

    fn path(&self, name: &str, default: &str) -> PathBuf {
        PathBuf::from(self.value(name).unwrap_or(default))
    }
}

const DEFAULT_DIR: &str = "benchmark/out/data";
const DEFAULT_OUT: &str = "benchmark/out";

fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; the workloads are {}",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })?;
    let seconds: f64 = args.number("--seconds", 8.0)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cfg = RunCfg {
        workload,
        seed: args.number("--seed", 1)?,
        seconds,
        warmup: args.number("--warmup", 2.0)?,
        traced: args.number::<u8>("--trace", 0)? != 0,
        dir: args.path("--dir", DEFAULT_DIR),
        out_dir: args.path("--out-dir", DEFAULT_OUT),
        harness_rss_mb: None,
    };
    // `--detail` marks a child of `run`, which has made the durability
    // check itself.
    let detail = args.flag("--detail");
    let report = single::run(&cfg, !detail);
    single::print_report(&report);
    if detail {
        println!("detail: {}", single::detail(&cfg, &report));
    }
    println!("{}", single::contract_line(&report, cfg.traced));
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let opts = run::RunOpts {
        seed: args.number("--seed", 1)?,
        secs: args.number("--secs", if smoke { 1.0 } else { 8.0 })?,
        warmup: args.number("--warmup", if smoke { 0.3 } else { 2.0 })?,
        reps: args.number("--reps", if smoke { 1 } else { 3 })?,
        dir: args.path("--dir", DEFAULT_DIR),
        out_dir: args.path("--out-dir", DEFAULT_OUT),
        traced: args.flag("--traced") || smoke,
    };
    if opts.reps == 0 || opts.secs.is_nan() || opts.secs <= 0.0 {
        return Err("--reps and --secs must be positive".into());
    }
    Ok(run::run(&opts))
}

fn check_durability(args: &Args) -> Result<ExitCode, String> {
    let mut report = Report::default();
    durability::check(args.number("--seed", 1)?, &mut report);
    println!(
        "check-durability: {} checks, {} failed",
        report.attempted, report.failed
    );
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&Args(argv.split_off(1))),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("check-durability") => check_durability(&Args(argv.split_off(1))),
        _ if argv.iter().any(|a| a == "--workload") => single(&Args(argv)),
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 | run [options] | \
                  compare A.json B.json | check-durability"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ad-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
