//! `net_update` and `net_read`: two connections to a loopback `Server`
//! over one durable `KvStore`. The whole service vertical; in `net_update`
//! every PUT waits for an fsync before its ack, in `net_read` the WAL is
//! idle and framing, sockets and the STM read path do all the work.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ad_kv::{KvStore, WriteBatch};
use ad_net::{Client, Server, ServerConfig};

use super::{
    drive, open_durable, preload, reopen_cycles, reopen_tail, report_window, timed_setups,
    Counters, Inputs, Issued, ReadCheck, Report, RunCfg, Worker, Writer, REOPEN_CYCLES,
};
use crate::gen::{KeyTable, Op, Workload, THREADS};
use crate::rec::{Class, ThreadRec};
use crate::stats::median;

struct Env {
    inputs: Inputs,
    // Dropped in this order: connections, then the server (its handlers
    // see EOF at once), then the store.
    clients: Mutex<Vec<Option<Client>>>,
    server: Server,
    store: Arc<KvStore>,
    wal: PathBuf,
}

fn setup(dir: &Path) -> Env {
    let inputs = Inputs::new();
    let wal = dir.join("wal");
    let store = Arc::new(open_durable(&wal));
    preload(&inputs.keys, |b| store.write_batch(b));
    let server = Server::start(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig {
            workers: THREADS,
            ..ServerConfig::default()
        },
    )
    .expect("start loopback server");
    let clients = (0..THREADS)
        .map(|_| Some(Client::connect(server.local_addr()).expect("connect to loopback server")))
        .collect();
    Env {
        inputs,
        clients: Mutex::new(clients),
        server,
        store,
        wal,
    }
}

struct NetWorker<'a> {
    client: Client,
    keys: &'a KeyTable,
    writer: Writer<'a>,
    reads: ReadCheck<'a>,
}

impl NetWorker<'_> {
    fn put(&mut self, rec: &mut ThreadRec, class: Class, key: u32) -> bool {
        self.writer.begin();
        let (name, value) = (self.keys.name(key), self.writer.value(key));
        match rec.call(class, "net", "put", || self.client.put(name, &value)) {
            Ok(()) => {
                if rec.last_counted() {
                    rec.user_bytes += (name.len() + value.len()) as u64;
                }
                true
            }
            Err(e) => {
                rec.fail(|| format!("PUT {name}: {e}"));
                false
            }
        }
    }

    fn get(&mut self, rec: &mut ThreadRec, class: Class, key: u32) -> Option<Option<Vec<u8>>> {
        let name = self.keys.name(key);
        match rec.call(class, "net", "get", || self.client.get(name)) {
            Ok(v) => Some(v),
            Err(e) => {
                rec.fail(|| format!("GET {name}: {e}"));
                None
            }
        }
    }
}

impl Worker for NetWorker<'_> {
    fn step(&mut self, rec: &mut ThreadRec, op: Op) {
        match op {
            Op::Read { key } => {
                if let Some(v) = self.get(rec, Class::Read, key) {
                    self.reads.after_read(rec, key, v.as_deref());
                }
            }
            Op::Write { key } => {
                self.put(rec, Class::Write, key);
            }
            other => unreachable!("net workloads do not generate {other:?}"),
        }
    }

    fn canary(&mut self, rec: &mut ThreadRec) {
        let key = KeyTable::canary(rec.thread);
        if self.put(rec, Class::Other, key) {
            let want = self.writer.stamp(key);
            if let Some(v) = self.get(rec, Class::Other, key) {
                self.reads.after_canary(rec, want, v.as_deref());
            }
        }
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
        || Counters::of_stores(&[&env.store], Some(env.server.stats())),
        |t| NetWorker {
            client: env.clients.lock().expect("no thread panicked")[t]
                .take()
                .expect("one client per thread"),
            keys: &env.inputs.keys,
            writer: Writer::new(t, &issued),
            reads: ReadCheck::new(&env.inputs.keys, &issued),
        },
    );
    env.store.runtime().set_tracing(false);
    report_window(cfg, &mut report, &window, &delta);

    // After the window: the durable state must survive a drop and reopen.
    let Env {
        inputs,
        clients,
        server,
        store,
        wal,
    } = env;
    drop(clients);
    drop(server);
    let store = Arc::try_unwrap(store)
        .ok()
        .expect("server dropped, so this is the only handle");
    let timed = cfg.workload == Workload::NetUpdate;
    if timed {
        // Fixed work before the timed reopens: a snapshot, then a WAL
        // tail of the same writes whatever the window did.
        store.checkpoint().expect("checkpoint");
        reopen_tail(&inputs, |name, value| {
            store.write_batch(&WriteBatch::new().put(name, value));
        });
    }
    let want = store.dump();
    drop(store);
    let cycles = if timed { REOPEN_CYCLES } else { 1 };
    let ms = reopen_cycles(&mut report, cycles, &want, || open_durable(&wal).dump());
    if timed {
        report.put("reopen_ms", median(&ms).expect("cycles > 0"));
    }
    report
}
