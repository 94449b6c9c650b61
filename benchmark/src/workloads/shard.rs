//! `shard_cross`: two threads on a two-shard `ShardRouter` over two
//! durable stores. Two-phase commit built from `atomic_defer` does most of
//! the work and `ad-net` none; reads beside writes on the same shards
//! expose the time others spend blocked on held TxLocks.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ad_kv::{KvStore, WriteBatch};
use ad_shard::ShardRouter;

use super::{
    drive, open_durable, preload, reopen_cycles, reopen_tail, report_window, timed_setups,
    Counters, Inputs, Issued, ReadCheck, Report, RunCfg, Worker, Writer, REOPEN_CYCLES,
};
use crate::gen::{decode_value, KeyTable, Op, Stamp, N_KEYS, PROBE_CANDIDATES, THREADS};
use crate::rec::{Class, ThreadRec};
use crate::stats::median;

const SHARDS: usize = 2;

struct Env {
    inputs: Inputs,
    dir: PathBuf,
    router: ShardRouter,
    stores: Vec<Arc<KvStore>>,
    /// For each zipf key, the nearest later key (cyclically) that lives
    /// on the other shard: the second key of a cross-shard batch.
    partner: Vec<u32>,
    /// Per thread, one probe key on each shard.
    probe_pairs: Vec<[u32; 2]>,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard}.wal"))
}

fn open_router(dir: &Path) -> (ShardRouter, Vec<Arc<KvStore>>) {
    let stores: Vec<Arc<KvStore>> = (0..SHARDS)
        .map(|s| Arc::new(open_durable(&wal_path(dir, s))))
        .collect();
    (ShardRouter::from_stores(stores.clone()), stores)
}

fn setup(dir: &Path) -> Env {
    let inputs = Inputs::new();
    let (router, stores) = open_router(dir);
    preload(&inputs.keys, |b| router.write_batch(b));

    // Where each key lives is read off the stores, not computed: the
    // harness stays ignorant of the router's partition function.
    let on_first: HashSet<String> = stores[0].dump().into_keys().collect();
    let side: Vec<bool> = (0..inputs.keys.len() as u32)
        .map(|k| on_first.contains(inputs.keys.name(k)))
        .collect();
    let partner = (0..N_KEYS)
        .map(|k| {
            (1..N_KEYS)
                .map(|d| (k + d) % N_KEYS)
                .find(|&j| side[j] != side[k])
                .expect("both shards hold zipf keys") as u32
        })
        .collect();
    let probe_pairs = (0..THREADS)
        .map(|t| {
            let pick = |first: bool| {
                (0..PROBE_CANDIDATES)
                    .map(|c| KeyTable::probe_candidate(t, c))
                    .find(|&k| side[k as usize] == first)
                    .expect("probe candidates land on both shards")
            };
            [pick(true), pick(false)]
        })
        .collect();
    Env {
        inputs,
        dir: dir.to_path_buf(),
        router,
        stores,
        partner,
        probe_pairs,
    }
}

struct ShardWorker<'a> {
    router: &'a ShardRouter,
    keys: &'a KeyTable,
    partner: &'a [u32],
    probe_pairs: &'a [[u32; 2]],
    writer: Writer<'a>,
    reads: ReadCheck<'a>,
    probes: u64,
    /// The stamp last acked on this thread's own probe pair.
    own_stamp: Option<Stamp>,
}

impl ShardWorker<'_> {
    fn write(&mut self, rec: &mut ThreadRec, class: Class, name: &'static str, keys: &[u32]) {
        self.writer.begin();
        let mut batch = WriteBatch::new();
        let mut bytes = 0;
        for &k in keys {
            let (key, value) = (self.keys.name(k), self.writer.value(k));
            bytes += (key.len() + value.len()) as u64;
            batch = batch.put(key, value);
        }
        rec.call(class, "shard", name, || self.router.write_batch(&batch));
        if rec.last_counted() {
            rec.user_bytes += bytes;
        }
        rec.bump(if keys.len() == 1 {
            "shard.single_batches"
        } else {
            "shard.cross_batches"
        });
    }

    fn get(&mut self, rec: &mut ThreadRec, class: Class, key: u32) -> Option<Stamp> {
        let name = self.keys.name(key);
        let v = rec.call(class, "shard", "get", || self.router.get(name));
        match self.reads.verify(key, v.as_deref()) {
            Ok(stamp) => Some(stamp),
            Err(why) => {
                rec.fail(|| why);
                None
            }
        }
    }

    /// The 2 % atomicity probe, cycling through three steps. (1) Stamp
    /// this thread's own key pair — one key per shard — in one batch.
    /// (2) `get_many` on that pair: nobody else writes it, so both keys
    /// must carry exactly the stamp just acked. (3) Read the *other*
    /// thread's pair with two `get`s: its writer may be mid-commit, but
    /// once one shard shows a batch the other must show it too (or a
    /// later one) — the key read second is never older than the first.
    fn probe(&mut self, rec: &mut ThreadRec) {
        let own = self.probe_pairs[rec.thread];
        match self.probes % 3 {
            0 => {
                self.write(rec, Class::Other, "write_batch_probe", &own);
                self.own_stamp = Some(self.writer.stamp(own[0]));
            }
            1 => {
                let names = [self.keys.name(own[0]), self.keys.name(own[1])];
                let got = rec.call(Class::Other, "shard", "get_many", || {
                    self.router.get_many(&names)
                });
                let stamps: Vec<Option<(u64, u64)>> = got
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .and_then(decode_value)
                            .map(|s| (s.writer, s.seq))
                    })
                    .collect();
                let want = self.own_stamp.map(|s| (s.writer, s.seq));
                let ok = match want {
                    Some(w) => stamps.iter().all(|s| *s == Some(w)),
                    // Not stamped yet: both keys still carry the preload.
                    None => stamps[0].is_some() && stamps[0] == stamps[1],
                };
                if !ok {
                    rec.fail(|| {
                        format!("probe pair torn: acked {want:?}, get_many saw {stamps:?}")
                    });
                }
            }
            _ => {
                let other = self.probe_pairs[(rec.thread + 1) % THREADS];
                // Alternate which shard is read first.
                let order = if self.probes.is_multiple_of(2) {
                    [0, 1]
                } else {
                    [1, 0]
                };
                let first = self.get(rec, Class::Other, other[order[0]]);
                let second = self.get(rec, Class::Other, other[order[1]]);
                if let (Some(a), Some(b)) = (first, second) {
                    let age = |s: Stamp| {
                        if s.writer == crate::gen::PRELOAD_WRITER {
                            0
                        } else {
                            s.seq
                        }
                    };
                    if age(b) < age(a) {
                        rec.fail(|| {
                            format!(
                                "partial cross-shard batch visible: read seq {} then seq {}",
                                a.seq, b.seq
                            )
                        });
                    }
                }
            }
        }
        self.probes += 1;
    }
}

impl Worker for ShardWorker<'_> {
    fn step(&mut self, rec: &mut ThreadRec, op: Op) {
        match op {
            Op::Read { key } => {
                self.get(rec, Class::Read, key);
            }
            Op::Write { key } => self.write(rec, Class::Write, "write_batch_single", &[key]),
            Op::CrossWrite { key } => {
                let pair = [key, self.partner[key as usize]];
                self.write(rec, Class::XWrite, "write_batch_cross", &pair);
            }
            Op::Probe => self.probe(rec),
            other => unreachable!("shard_cross does not generate {other:?}"),
        }
    }

    fn canary(&mut self, rec: &mut ThreadRec) {
        let key = KeyTable::canary(rec.thread);
        self.write(rec, Class::Other, "write_batch_single", &[key]);
        let want = self.writer.stamp(key);
        let name = self.keys.name(key);
        let v = rec.call(Class::Other, "shard", "get", || self.router.get(name));
        self.reads.after_canary(rec, want, v.as_deref());
    }
}

fn dump_all(stores: &[Arc<KvStore>]) -> BTreeMap<String, Vec<u8>> {
    let mut all = BTreeMap::new();
    for s in stores {
        all.append(&mut s.dump());
    }
    all
}

pub fn run(cfg: &RunCfg, recs: Vec<ThreadRec>) -> Report {
    let mut report = Report::default();
    let (env, setup_s) = timed_setups(&cfg.dir, setup);
    report.put("setup_s", setup_s);
    for s in &env.stores {
        s.runtime().set_tracing(cfg.traced);
    }

    let issued = Issued::default();
    let store_refs: Vec<&KvStore> = env.stores.iter().map(|s| s.as_ref()).collect();
    let (window, delta) = drive(
        cfg,
        recs,
        &env.inputs,
        || Counters::of_stores(&store_refs, None),
        |t| ShardWorker {
            router: &env.router,
            keys: &env.inputs.keys,
            partner: &env.partner,
            probe_pairs: &env.probe_pairs,
            writer: Writer::new(t, &issued),
            reads: ReadCheck::new(&env.inputs.keys, &issued),
            probes: 0,
            own_stamp: None,
        },
    );
    for s in &env.stores {
        s.runtime().set_tracing(false);
    }
    report_window(cfg, &mut report, &window, &delta);
    report.put(
        "shard.single_batches",
        window.count("shard.single_batches") as f64,
    );
    report.put(
        "shard.cross_batches",
        window.count("shard.cross_batches") as f64,
    );
    if let (Some(x), Some(w)) = (report.get("xwrite_p50_us"), report.get("write_p50_us")) {
        report.put("shard.cross_over_single", x / w);
    }
    if let Some(stm) = &delta.stm {
        report.put(
            "shard.remote_wait_hazards",
            stm.counters.defer_remote_wait_hazards as f64,
        );
    }

    // Fixed work, then drop and timed reopens (see `net_update`).
    env.router.checkpoint_all().expect("checkpoint");
    reopen_tail(&env.inputs, |name, value| {
        env.router.write_batch(&WriteBatch::new().put(name, value));
    });
    let want = dump_all(&env.stores);
    let dir = env.dir.clone();
    drop(env);
    let ms = reopen_cycles(&mut report, REOPEN_CYCLES, &want, || {
        let (_router, stores) = open_router(&dir);
        dump_all(&stores)
    });
    report.put("reopen_ms", median(&ms).expect("cycles > 0"));
    report
}
