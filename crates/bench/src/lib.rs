//! # ad-bench — the figure-reproduction harness
//!
//! One binary per figure of the paper (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * `fig2 --files {1,2,4} [--keep-open]` — the transactional-I/O
//!   microbenchmark (Figures 2a–2d);
//! * `fig3a` — dedup on 1–8 threads, all seven series (Figure 3a);
//! * `fig3b` — dedup at higher thread counts, best-variant series
//!   (Figure 3b);
//! * `motivation` — the Figure 1 quiescence-stall scenario, measured.
//!
//! Criterion benches (`cargo bench -p ad-bench`) cover primitive costs and
//! the ablations DESIGN.md calls out (retry policy, quiescence,
//! HTM capacity, serialization threshold).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use ad_dedup::backend::locks::LockBackend;
use ad_dedup::backend::tm::{TmBackend, TmFlavor};
use ad_dedup::backend::{Backend, BackendConfig, SinkTarget};
use ad_dedup::corpus::{generate, CorpusParams};
use ad_dedup::pipeline::{run_pipeline_verified, PipelineConfig};
use ad_stm::{Runtime, TmConfig};
use ad_workloads::Measurement;

/// The dedup series of Figure 3, by paper legend name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupSeries {
    /// PARSEC's pthread fine-grained locking.
    Pthread,
    /// Transactionalized baseline on STM.
    Stm,
    /// Transactionalized baseline on simulated HTM.
    Htm,
    /// STM with output deferred.
    StmDeferIo,
    /// HTM with output deferred.
    HtmDeferIo,
    /// STM with output + compression deferred.
    StmDeferAll,
    /// HTM with output + compression deferred.
    HtmDeferAll,
}

impl DedupSeries {
    /// Legend label (paper Figure 3).
    pub fn label(self) -> &'static str {
        match self {
            DedupSeries::Pthread => "Pthread",
            DedupSeries::Stm => "STM",
            DedupSeries::Htm => "HTM",
            DedupSeries::StmDeferIo => "STM+DeferIO",
            DedupSeries::HtmDeferIo => "HTM+DeferIO",
            DedupSeries::StmDeferAll => "STM+DeferAll",
            DedupSeries::HtmDeferAll => "HTM+DeferAll",
        }
    }

    /// All Figure 3a series.
    pub fn fig3a() -> [DedupSeries; 7] {
        [
            DedupSeries::Stm,
            DedupSeries::Htm,
            DedupSeries::StmDeferIo,
            DedupSeries::HtmDeferIo,
            DedupSeries::StmDeferAll,
            DedupSeries::HtmDeferAll,
            DedupSeries::Pthread,
        ]
    }

    /// Figure 3b series: baselines and "best" variants (the paper labels
    /// the DeferAll configurations `STM-Best` / `HTM-Best`).
    pub fn fig3b() -> [DedupSeries; 4] {
        [
            DedupSeries::HtmDeferAll,
            DedupSeries::StmDeferAll,
            DedupSeries::Pthread,
            DedupSeries::Stm,
        ]
    }

    /// Figure 3b uses the `-Best` naming for the DeferAll variants.
    pub fn fig3b_label(self) -> &'static str {
        match self {
            DedupSeries::StmDeferAll => "STM-Best",
            DedupSeries::HtmDeferAll => "HTM-Best",
            other => other.label(),
        }
    }

    /// Build the backend for this series.
    pub fn make_backend(
        self,
        cfg: BackendConfig,
        target: SinkTarget,
    ) -> std::io::Result<Box<dyn Backend>> {
        Ok(match self {
            DedupSeries::Pthread => Box::new(LockBackend::new(cfg, target)?),
            DedupSeries::Stm => Box::new(TmBackend::new(
                Runtime::new(TmConfig::stm()),
                TmFlavor::Baseline,
                cfg,
                target,
            )?),
            DedupSeries::Htm => Box::new(TmBackend::new(
                Runtime::new(TmConfig::htm()),
                TmFlavor::Baseline,
                cfg,
                target,
            )?),
            DedupSeries::StmDeferIo => Box::new(TmBackend::new(
                Runtime::new(TmConfig::stm()),
                TmFlavor::DeferIo,
                cfg,
                target,
            )?),
            DedupSeries::HtmDeferIo => Box::new(TmBackend::new(
                Runtime::new(TmConfig::htm()),
                TmFlavor::DeferIo,
                cfg,
                target,
            )?),
            DedupSeries::StmDeferAll => Box::new(TmBackend::new(
                Runtime::new(TmConfig::stm()),
                TmFlavor::DeferAll,
                cfg,
                target,
            )?),
            DedupSeries::HtmDeferAll => Box::new(TmBackend::new(
                Runtime::new(TmConfig::htm()),
                TmFlavor::DeferAll,
                cfg,
                target,
            )?),
        })
    }
}

/// Parameters of a dedup figure run.
#[derive(Debug, Clone)]
pub struct DedupRunParams {
    /// Corpus size in bytes.
    pub corpus_size: usize,
    /// Duplication ratio of the corpus.
    pub dup_ratio: f64,
    /// Write the archive to a real temp file (as in the paper) instead of
    /// memory.
    pub file_output: bool,
    /// Enable the observability layer (event tracing + full latency
    /// histograms) on TM backends. Costs a few percent of throughput; see
    /// OBSERVABILITY.md.
    pub obs: bool,
}

impl Default for DedupRunParams {
    fn default() -> Self {
        DedupRunParams {
            corpus_size: 4 << 20,
            dup_ratio: 0.5,
            file_output: true,
            obs: false,
        }
    }
}

/// Generate the corpus for a run (reproducible).
pub fn make_corpus(p: &DedupRunParams) -> Arc<Vec<u8>> {
    Arc::new(generate(
        &CorpusParams::new(p.corpus_size).with_dup_ratio(p.dup_ratio),
    ))
}

/// Run one (series, threads) dedup cell, verified, returning a
/// [`Measurement`] with the TM diagnostics in the note.
pub fn run_dedup_cell(
    series: DedupSeries,
    threads: usize,
    corpus: &Arc<Vec<u8>>,
    params: &DedupRunParams,
    label: &str,
) -> Measurement {
    run_dedup_cell_traced(series, threads, corpus, params, label).0
}

/// Like [`run_dedup_cell`], additionally draining the backend's event
/// timeline (for the figure bins' `--trace-json` export). The trace is
/// `None` for lock-based backends and empty unless `params.obs` enabled
/// tracing on the cell's runtime.
pub fn run_dedup_cell_traced(
    series: DedupSeries,
    threads: usize,
    corpus: &Arc<Vec<u8>>,
    params: &DedupRunParams,
    label: &str,
) -> (Measurement, Option<ad_stm::Trace>) {
    let target = if params.file_output {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ad_bench_dedup_{}_{}_{threads}.archive",
            std::process::id(),
            series.label().replace('+', "_"),
        ));
        SinkTarget::File(path)
    } else {
        SinkTarget::Memory
    };
    let cfg = BackendConfig {
        table_capacity: (corpus.len() / 4096).max(1 << 12),
        obs: params.obs,
        ..BackendConfig::default()
    };
    let backend = series.make_backend(cfg, target).expect("backend");
    let pipe = PipelineConfig {
        threads,
        ..PipelineConfig::new(threads)
    };
    // Scale chunking to corpus size: small corpora need small chunks to
    // produce enough parallelism.
    let pipe = if corpus.len() < 2 << 20 {
        PipelineConfig {
            threads,
            ..PipelineConfig::tiny(threads)
        }
    } else {
        pipe
    };
    let report = run_pipeline_verified(corpus, &pipe, backend.as_ref());
    if let Some(path) = backend_sink_path(backend.as_ref()) {
        let _ = std::fs::remove_file(path);
    }
    let trace = backend.take_trace();
    // Attribute validation-failure hotspots: with `obs` on, summarize the
    // trace's contention report in the note, splitting failures on the
    // fingerprint table from the reorder/output conflicts.
    let contention = match &trace {
        Some(t) if params.obs => {
            let r = t.contention_report(8);
            let table_fails: u64 = r
                .entries
                .iter()
                .filter(|e| backend.is_table_var(e.var))
                .map(|e| e.fails)
                .sum();
            format!(
                " validate_fails={} fp_table_fails={table_fails}",
                r.total_fails
            )
        }
        _ => String::new(),
    };
    let m = Measurement {
        series: label.to_string(),
        threads,
        elapsed: report.elapsed,
        note: format!(
            "chunks={} unique={} ratio={:.2} {}{}",
            report.total_chunks,
            report.unique_chunks,
            report.ratio(),
            report.diagnostics,
            contention
        ),
        stats: backend.stats_report(),
    };
    (m, trace)
}

fn backend_sink_path(_b: &dyn Backend) -> Option<std::path::PathBuf> {
    // Archive files are named deterministically by run_dedup_cell; cleanup
    // happens there via the same naming scheme. (Backends do not expose
    // their sink path through the trait.)
    None
}

/// Outcome of one arm (inline or deferred) of the Figure 1 motivation
/// experiment.
#[derive(Debug, Clone)]
pub struct MotivationArm {
    /// Mean stall per unrelated transaction.
    pub mean_stall: Duration,
    /// Full observability report of the arm's runtime (histograms filled
    /// when `obs` was requested).
    pub stats: ad_stm::StatsReport,
    /// The arm's event timeline (filled when `obs` was requested; feeds
    /// the `motivation` bin's `--trace-json` export).
    pub trace: ad_stm::Trace,
}

/// The Figure 1 motivation experiment: measure how long unrelated
/// transactions stall behind one long-running transaction, with the long
/// operation inline vs atomically deferred. Returns (inline, deferred)
/// mean stall per unrelated transaction.
pub fn motivation_stalls(long_op: Duration, rounds: usize) -> (Duration, Duration) {
    let (i, d) = motivation_arms(long_op, rounds, false);
    (i.mean_stall, d.mean_stall)
}

/// Run both arms of the motivation experiment, returning the full
/// per-arm observability reports. With `obs` set, tracing is enabled on
/// each arm's runtime, so commit-latency/backoff histograms fill too (the
/// quiescence-wait histogram fills regardless).
pub fn motivation_arms(
    long_op: Duration,
    rounds: usize,
    obs: bool,
) -> (MotivationArm, MotivationArm) {
    use ad_defer::{atomic_defer, Defer};
    use ad_stm::TVar;

    fn run_one(long_op: Duration, rounds: usize, deferred: bool, obs: bool) -> MotivationArm {
        let rt = Runtime::new(TmConfig::stm());
        rt.set_tracing(obs);
        struct C {
            val: TVar<u64>,
        }
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let c = Defer::new(C { val: TVar::new(0) });
        let d = TVar::new(0u64);

        let mut total_stall = Duration::ZERO;
        for _ in 0..rounds {
            let barrier = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                // T1: touches A, B, C then performs the long operation on C.
                let (rt1, a1, b1, c1) = (rt.clone(), a.clone(), b.clone(), c.clone());
                let bar1 = &barrier;
                s.spawn(move || {
                    bar1.wait();
                    rt1.atomically(|tx| {
                        tx.modify(&a1, |x| x + 1)?;
                        tx.modify(&b1, |x| x + 1)?;
                        c1.with(tx, |f, tx| tx.modify(&f.val, |x| x + 1))?;
                        if deferred {
                            let c2 = c1.clone();
                            atomic_defer(tx, &[&c1.clone()], move || {
                                std::thread::sleep(long_op);
                                c2.locked().val.update_locked(|x| x + 1);
                            })
                        } else {
                            // Long operation inside the transaction — the
                            // *deliberately bad* baseline this benchmark
                            // exists to measure (paper Figure 1).
                            // ad-lint: allow(blocking-in-atomic)
                            std::thread::sleep(long_op);
                            c1.with(tx, |f, tx| tx.modify(&f.val, |x| x + 1))
                        }
                    });
                });

                // T2: conflicts on B. T3: entirely disjoint (D) but, as a
                // writer, must quiesce behind T1.
                let handles: Vec<_> = [b.clone(), d.clone()]
                    .into_iter()
                    .map(|var| {
                        let rt2 = rt.clone();
                        let bar = &barrier;
                        s.spawn(move || {
                            bar.wait();
                            // Give T1 a head start into its long operation.
                            std::thread::sleep(Duration::from_millis(1));
                            let t0 = std::time::Instant::now();
                            rt2.atomically(|tx| tx.modify(&var, |x| x + 1));
                            t0.elapsed()
                        })
                    })
                    .collect();
                for h in handles {
                    total_stall += h.join().unwrap();
                }
            });
        }
        MotivationArm {
            mean_stall: total_stall / (rounds as u32 * 2),
            stats: rt.snapshot_stats(),
            trace: rt.take_trace(),
        }
    }

    (
        run_one(long_op, rounds, false, obs),
        run_one(long_op, rounds, true, obs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_series_have_distinct_labels() {
        let labels: std::collections::HashSet<&str> =
            DedupSeries::fig3a().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn fig3b_best_labels() {
        assert_eq!(DedupSeries::StmDeferAll.fig3b_label(), "STM-Best");
        assert_eq!(DedupSeries::HtmDeferAll.fig3b_label(), "HTM-Best");
        assert_eq!(DedupSeries::Pthread.fig3b_label(), "Pthread");
    }

    #[test]
    fn dedup_cell_runs_and_verifies() {
        let params = DedupRunParams {
            corpus_size: 128 * 1024,
            dup_ratio: 0.5,
            file_output: false,
            obs: true,
        };
        let corpus = make_corpus(&params);
        for series in [DedupSeries::Pthread, DedupSeries::StmDeferAll] {
            let m = run_dedup_cell(series, 2, &corpus, &params, series.label());
            assert!(m.elapsed > Duration::ZERO);
            assert!(m.note.contains("chunks="));
            if series == DedupSeries::StmDeferAll {
                // Obs runs summarize the trace's contention report,
                // attributing validate-failures to the fingerprint table.
                assert!(
                    m.note.contains("validate_fails=") && m.note.contains("fp_table_fails="),
                    "obs note missing contention summary: {}",
                    m.note
                );
            }
        }
    }

    #[test]
    fn motivation_deferred_stalls_less() {
        let (inline_stall, deferred_stall) = motivation_stalls(Duration::from_millis(40), 3);
        assert!(
            deferred_stall < inline_stall,
            "deferral should reduce unrelated-transaction stalls: inline {inline_stall:?}, \
             deferred {deferred_stall:?}"
        );
    }
}
