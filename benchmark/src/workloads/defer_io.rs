//! `defer_io`: two threads on one `Runtime` and four deferrable files,
//! each with a `TVar` counter (paper Listing 6, kept-open variant). Half
//! the operations read a counter through the file's TxLock subscription;
//! half bump it in a transaction that `atomic_defer`s a buffered 128-byte
//! append. `ad-defer` and `ad-stm` do all the work: the paper's own
//! mechanism, undiluted by fsync.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ad_defer::{atomic_defer, Defer};
use ad_stm::{Runtime, TVar, TmConfig};

use super::{drive, report_window, timed_setups, Counters, Inputs, Report, RunCfg, Worker};
use crate::gen::{encode_record, Op, N_FILES, RECORD_LEN, THREADS};
use crate::rec::{Class, ThreadRec};

/// A deferrable file: the counter is transactional state, the writer is
/// touched only by deferred operations, which hold the file's TxLock.
struct LogFile {
    counter: TVar<u64>,
    out: Mutex<BufWriter<File>>,
}

struct Env {
    inputs: Inputs,
    rt: Runtime,
    files: Vec<Defer<LogFile>>,
    paths: Vec<PathBuf>,
}

fn setup(dir: &Path) -> Env {
    let inputs = Inputs::new();
    let rt = Runtime::new(TmConfig::stm());
    let paths: Vec<PathBuf> = (0..N_FILES)
        .map(|i| dir.join(format!("file{i}.log")))
        .collect();
    let files = paths
        .iter()
        .map(|p| {
            Defer::new(LogFile {
                counter: TVar::new(0),
                out: Mutex::new(BufWriter::with_capacity(
                    64 * 1024,
                    File::create(p).expect("create log file"),
                )),
            })
        })
        .collect();
    Env {
        inputs,
        rt,
        files,
        paths,
    }
}

struct DeferWorker<'a> {
    rt: &'a Runtime,
    files: &'a [Defer<LogFile>],
    seq: u64,
    /// Highest counter value this thread has seen per file.
    seen: [u64; N_FILES],
}

impl Worker for DeferWorker<'_> {
    fn step(&mut self, rec: &mut ThreadRec, op: Op) {
        match op {
            Op::Read { key } => {
                let f = &self.files[key as usize];
                let c = rec.call(Class::Read, "defer", "subscribing_read", || {
                    self.rt
                        .atomically(|tx| f.with(tx, |lf, tx| tx.read(&lf.counter)))
                });
                let seen = &mut self.seen[key as usize];
                if c < *seen {
                    let was = *seen;
                    rec.fail(|| format!("file {key}: counter went back from {was} to {c}"));
                }
                *seen = c.max(*seen);
            }
            Op::Write { key } => {
                let f = &self.files[key as usize];
                self.seq += 1;
                let (thread, seq) = (rec.thread as u64, self.seq);
                let c = rec.call(Class::Write, "defer", "deferred_append", || {
                    self.rt.atomically(|tx| {
                        // Subscribe and read, register the deferral, then
                        // write: the defer-before-first-write order.
                        let c = f.with(tx, |lf, tx| tx.read(&lf.counter))? + 1;
                        let file = f.clone();
                        atomic_defer(tx, &[f], move || {
                            let lf = file.locked();
                            lf.out
                                .lock()
                                .expect("no deferred op panicked")
                                .write_all(&encode_record(c, thread, seq))
                                .expect("append to log file");
                        })?;
                        f.with(tx, |lf, tx| tx.write(&lf.counter, c))?;
                        Ok(c)
                    })
                });
                let seen = &mut self.seen[key as usize];
                if c <= *seen {
                    let was = *seen;
                    rec.fail(|| format!("file {key}: bumped counter to {c} after seeing {was}"));
                }
                *seen = c.max(*seen);
            }
            other => unreachable!("defer_io does not generate {other:?}"),
        }
    }
}

/// The paper's claim, checked on the files: a transaction and its
/// deferred append are one atomic step, so each file holds exactly one
/// record per counter bump, in counter order, and each thread's records
/// appear in the order it issued them.
fn check_files(report: &mut Report, env: &Env) {
    for (i, (f, path)) in env.files.iter().zip(&env.paths).enumerate() {
        let lf = f.peek_unsynchronized();
        lf.out
            .lock()
            .expect("no deferred op panicked")
            .flush()
            .expect("flush log file");
        let counter = lf.counter.load();
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .expect("read log file back");
        report.check(bytes.len() as u64 == RECORD_LEN as u64 * counter, || {
            format!("file {i}: {} bytes for counter {counter}", bytes.len())
        });
        let mut last_seq = [0u64; THREADS];
        let mut bad = None;
        for (n, r) in bytes.chunks_exact(RECORD_LEN).enumerate() {
            let field = |at: usize| u64::from_le_bytes(r[at..at + 8].try_into().expect("8 bytes"));
            let (c, thread, seq) = (field(0), field(8) as usize, field(16));
            if c != n as u64 + 1 || thread >= THREADS || seq <= last_seq[thread] {
                bad = Some(format!(
                    "record {n} carries counter {c}, thread {thread}, seq {seq}"
                ));
                break;
            }
            last_seq[thread] = seq;
        }
        report.check(bad.is_none(), || {
            format!("file {i}: {}", bad.unwrap_or_default())
        });
    }
}

pub fn run(cfg: &RunCfg, recs: Vec<ThreadRec>) -> Report {
    let mut report = Report::default();
    let (env, setup_s) = timed_setups(&cfg.dir, setup);
    report.put("setup_s", setup_s);
    env.rt.set_tracing(cfg.traced);

    let (window, delta) = drive(
        cfg,
        recs,
        &env.inputs,
        || Counters {
            stm: Some(env.rt.snapshot_stats()),
            ..Counters::default()
        },
        |_| DeferWorker {
            rt: &env.rt,
            files: &env.files,
            seq: 0,
            seen: [0; N_FILES],
        },
    );
    env.rt.set_tracing(false);
    report_window(cfg, &mut report, &window, &delta);
    check_files(&mut report, &env);
    report
}
