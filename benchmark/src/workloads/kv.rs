//! `kv_volatile`: two threads on one volatile `KvStore`. No WAL, no
//! sockets, no deferral — STM read/write sets, the clock and quiescence
//! are the cost. The occasional scan is a full-table read transaction, the
//! long reader whose quiescence stall the writers' p99 shows (the paper's
//! Figure 1). The bypass workload for every I/O-side optimisation.

use std::path::Path;

use ad_kv::{KvConfig, KvStore, WriteBatch};

use super::{
    drive, preload, report_window, timed_setups, Counters, Inputs, Issued, ReadCheck, Report,
    RunCfg, Worker, Writer,
};
use crate::gen::{KeyTable, Op, N_KEYS};
use crate::rec::{Class, ThreadRec};

/// Entries a scan asks for.
const SCAN_LIMIT: usize = 10;

struct Env {
    inputs: Inputs,
    store: KvStore,
}

fn setup(_dir: &Path) -> Env {
    let inputs = Inputs::new();
    let store = KvStore::open(KvConfig::volatile()).expect("open volatile store");
    preload(&inputs.keys, |b| store.write_batch(b));
    Env { inputs, store }
}

struct KvWorker<'a> {
    store: &'a KvStore,
    keys: &'a KeyTable,
    writer: Writer<'a>,
    reads: ReadCheck<'a>,
}

impl Worker for KvWorker<'_> {
    fn step(&mut self, rec: &mut ThreadRec, op: Op) {
        match op {
            Op::Read { key } => {
                let name = self.keys.name(key);
                let v = rec.call(Class::Read, "kv", "get", || self.store.get(name));
                self.reads.after_read(rec, key, v.as_deref());
            }
            Op::PairWrite { a, b } => {
                self.writer.begin();
                let batch = WriteBatch::new()
                    .put(self.keys.name(a), self.writer.value(a))
                    .put(self.keys.name(b), self.writer.value(b));
                rec.call(Class::Write, "kv", "write_batch", || {
                    self.store.write_batch(&batch)
                });
            }
            Op::Scan { key } => {
                let name = self.keys.name(key);
                let rows = rec.call(Class::Scan, "kv", "scan_from", || {
                    self.store.scan_from(name, SCAN_LIMIT)
                });
                // The table holds every zipf key, so a scan from one of
                // them returns that key first and the next ones in order.
                let want = SCAN_LIMIT.min(N_KEYS - key as usize);
                let ordered = rows.len() >= want
                    && rows.len() <= SCAN_LIMIT
                    && rows
                        .iter()
                        .take(want)
                        .enumerate()
                        .all(|(i, (k, _))| k.as_ref() == self.keys.name(key + i as u32));
                if !ordered {
                    rec.fail(|| {
                        format!(
                            "scan from {name}: {} rows, not the next keys in order",
                            rows.len()
                        )
                    });
                    return;
                }
                for (i, (_, v)) in rows.iter().take(want).enumerate() {
                    self.reads.after_read(rec, key + i as u32, Some(v));
                }
            }
            other => unreachable!("kv_volatile does not generate {other:?}"),
        }
    }

    fn canary(&mut self, rec: &mut ThreadRec) {
        let key = KeyTable::canary(rec.thread);
        self.writer.begin();
        let (name, value) = (self.keys.name(key), self.writer.value(key));
        let batch = WriteBatch::new().put(name, value);
        rec.call(Class::Other, "kv", "write_batch", || {
            self.store.write_batch(&batch)
        });
        let v = rec.call(Class::Other, "kv", "get", || self.store.get(name));
        self.reads
            .after_canary(rec, self.writer.stamp(key), v.as_deref());
    }
}

pub fn run(cfg: &RunCfg, recs: Vec<ThreadRec>) -> Report {
    let mut report = Report::default();
    let (env, setup_s) = timed_setups(&cfg.dir, setup);
    report.put("setup_s", setup_s);
    env.store.runtime().set_tracing(cfg.traced);

    let issued = Issued::default();
    let (window, delta) = drive(
        cfg,
        recs,
        &env.inputs,
        || Counters::of_stores(&[&env.store], None),
        |t| KvWorker {
            store: &env.store,
            keys: &env.inputs.keys,
            writer: Writer::new(t, &issued),
            reads: ReadCheck::new(&env.inputs.keys, &issued),
        },
    );
    env.store.runtime().set_tracing(false);
    report_window(cfg, &mut report, &window, &delta);
    let keys_after = env.store.dump().len();
    report.check(keys_after == env.inputs.keys.len(), || {
        format!(
            "store holds {keys_after} keys after the run, expected {}",
            env.inputs.keys.len()
        )
    });
    report
}
