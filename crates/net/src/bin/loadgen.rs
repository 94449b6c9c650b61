//! `ad-kv-loadgen` — drive an `ad-kv-server` and measure what "acked ⇒
//! durable" costs end to end.
//!
//! ```text
//! cargo run --release -p ad-net --bin ad-kv-loadgen                  # full grid
//! cargo run --release -p ad-net --bin ad-kv-loadgen -- --smoke      # CI: quick + asserts
//! ```
//!
//! By default each cell spins up an in-process loopback server over a
//! fresh durable store (WAL in the system temp dir) and drives it with N
//! client connections, one thread per connection — matching how the
//! server allocates one pool worker per connection. Keys are drawn
//! zipf(θ=0.99) from a 10 k keyspace (YCSB-style skew); the read/write
//! mix and connection count vary per cell. Request latency is measured
//! client-side around the blocking call, so for mutating requests it
//! includes the server's deferred-fsync wait — the wire-level price of
//! the durability contract (PROTOCOL.md §6).
//!
//! Warm-up (¼ of `--ms`, at least 50 ms) is excluded: client latencies
//! are recorded only after the warm-up deadline, and server-side STM
//! counters for the steady window come from `StatsReport::delta`.
//!
//! Flags:
//!
//! * `--ms N` — steady-state milliseconds per cell (default 200).
//! * `--addr HOST:PORT` — drive an external server instead of loopback
//!   (the keyspace is preloaded over the wire; server-side counters are
//!   omitted from the report).
//! * `--sync group|percommit|async` — loopback WAL policy (default
//!   `group`).
//! * `--out PATH` — result file (default `BENCH_kv_net.json`).
//! * `--dir PATH` — where loopback WAL files go (default: temp dir).
//! * `--smoke` — fixed-op loopback run with tracing on and correctness
//!   asserts: every connection commits at least one multi-op BATCH, all
//!   responses round-trip, and — the wire-level durability claim — every
//!   `ack_after_durable` trace event is preceded on its thread by the
//!   `wal_append` it gates on. `--async` runs the same smoke under
//!   `SyncPolicy::Async` (ordering check skipped: appends run on pool
//!   workers there).
//!
//! Caveat (EXPERIMENTS.md): in a 1-core container the client threads,
//! connection handlers, and WAL fsyncs all time-share one CPU, so
//! absolute throughput is not meaningful — the numbers are for comparing
//! cells within one run on one machine.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_bench::{arg_flag, arg_num, arg_value};
use ad_kv::{KvConfig, KvStore, SyncPolicy, WriteBatch, WAL_APPEND};
use ad_net::{Client, Server, ServerConfig, ACK_AFTER_DURABLE};
use ad_stm::EventKind;
use ad_support::hist::Histogram;
use ad_support::prng::Rng;
use ad_support::sync::atomic::{AtomicBool, Ordering};
use ad_support::tsc;

const KEYSPACE: usize = 10_000;
const VALUE_LEN: usize = 100;
const ZIPF_THETA: f64 = 0.99;
const CONNECTION_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// 5% writes — the serving-tier shape.
    ReadMostly,
    /// 50% writes — every other request pays the durability wait.
    UpdateHeavy,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::ReadMostly => "read_mostly",
            Mix::UpdateHeavy => "update_heavy",
        }
    }

    fn write_fraction(self) -> f64 {
        match self {
            Mix::ReadMostly => 0.05,
            Mix::UpdateHeavy => 0.50,
        }
    }
}

/// YCSB-style zipf sampler: item 0 is the hottest, `eta`/`zetan` are the
/// usual precomputed constants so sampling is O(1).
#[derive(Clone, Copy)]
struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }
}

fn key(i: usize) -> String {
    format!("key{i:06}")
}

/// Preload every key directly on the store (loopback cells own it), in
/// 1000-op batches so group commit amortizes the fsyncs.
fn preload(store: &KvStore) {
    let value = vec![b'0'; VALUE_LEN];
    let mut i = 0;
    while i < KEYSPACE {
        let mut batch = WriteBatch::new();
        for k in i..(i + 1000).min(KEYSPACE) {
            batch = batch.put(key(k), value.clone());
        }
        store.write_batch(&batch);
        i += 1000;
    }
}

/// Preload over the wire (external servers), in 500-op BATCH frames.
fn preload_remote(addr: &str) {
    let mut client = Client::connect(addr).expect("connecting for preload");
    let value = vec![b'0'; VALUE_LEN];
    let mut i = 0;
    while i < KEYSPACE {
        let mut batch = WriteBatch::new();
        for k in i..(i + 500).min(KEYSPACE) {
            batch = batch.put(key(k), value.clone());
        }
        client.batch(&batch).expect("preload batch");
        i += 500;
    }
}

/// One connection's worth of load: returns ops completed after warm-up.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: &str,
    mix: Mix,
    seed: u64,
    zipf: Zipf,
    recording: &AtomicBool,
    stop: &AtomicBool,
    hist: &Histogram,
) -> u64 {
    let mut client = Client::connect(addr).expect("connecting");
    let mut rng = Rng::seed_from_u64(seed);
    let value = vec![(seed & 0x7f) as u8 | 0x20; VALUE_LEN];
    let mut steady_ops = 0u64;
    let mut writes = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let k = key(zipf.sample(&mut rng));
        let t0 = tsc::now_ns();
        if rng.random_bool(mix.write_fraction()) {
            writes += 1;
            if writes.is_multiple_of(7) {
                // Multi-op BATCH frame: one ack covers three keys.
                let batch = WriteBatch::new()
                    .put(k, value.clone())
                    .put(key(zipf.sample(&mut rng)), value.clone())
                    .delete(key(zipf.sample(&mut rng)));
                client.batch(&batch).expect("batch");
            } else if writes.is_multiple_of(13) {
                client.del(&k).expect("del");
            } else {
                client.put(&k, &value).expect("put");
            }
        } else {
            client.get(&k).expect("get");
        }
        let dt = tsc::now_ns().saturating_sub(t0);
        if recording.load(Ordering::Relaxed) {
            hist.record(dt);
            steady_ops += 1;
        }
    }
    steady_ops
}

struct Row {
    mix: Mix,
    connections: usize,
    ops_per_sec: f64,
    req_p50_ns: u64,
    req_p99_ns: u64,
    req_max_ns: u64,
    steady_commits: u64,
}

fn run_cell(
    addr: &str,
    mix: Mix,
    connections: usize,
    warm: Duration,
    steady: Duration,
    store: Option<&Arc<KvStore>>,
) -> Row {
    let zipf = Zipf::new(KEYSPACE, ZIPF_THETA);
    let recording = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let hist = Arc::new(Histogram::new());
    let joins: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.to_string();
            let recording = Arc::clone(&recording);
            let stop = Arc::clone(&stop);
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                drive(
                    &addr,
                    mix,
                    0x5eed_0000 + c as u64,
                    zipf,
                    &recording,
                    &stop,
                    &hist,
                )
            })
        })
        .collect();

    std::thread::sleep(warm);
    let warm_stats = store.map(|s| s.runtime().snapshot_stats());
    let t0 = Instant::now();
    recording.store(true, Ordering::Relaxed);
    std::thread::sleep(steady);
    stop.store(true, Ordering::Relaxed);
    let steady_elapsed = t0.elapsed();
    let total: u64 = joins.into_iter().map(|j| j.join().expect("driver")).sum();
    let steady_commits = match (store, warm_stats) {
        (Some(s), Some(earlier)) => {
            s.runtime()
                .snapshot_stats()
                .delta(&earlier)
                .counters
                .commits
        }
        _ => 0,
    };

    let snap = hist.snapshot();
    Row {
        mix,
        connections,
        ops_per_sec: total as f64 / steady_elapsed.as_secs_f64(),
        req_p50_ns: snap.quantile(0.50),
        req_p99_ns: snap.quantile(0.99),
        req_max_ns: snap.max(),
        steady_commits,
    }
}

/// Fixed-op loopback run with tracing on; asserts the wire-level
/// durability story end to end. See the module docs for what is checked.
fn smoke(dir: &Path, use_async: bool) {
    const CONNS: usize = 2;
    const PUTS: usize = 10;
    let path = dir.join(if use_async {
        "kv-net-smoke-async.wal"
    } else {
        "kv-net-smoke.wal"
    });
    let _ = std::fs::remove_file(&path);
    let sync = if use_async {
        SyncPolicy::Async
    } else {
        SyncPolicy::GroupCommit
    };
    let store =
        Arc::new(KvStore::open(KvConfig::durable(&path, sync)).expect("opening smoke store"));
    store.runtime().set_tracing(true);
    let server = Server::start(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig {
            workers: CONNS,
            ..ServerConfig::default()
        },
    )
    .expect("starting smoke server");
    let addr = server.local_addr();

    let joins: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connecting");
                for i in 0..PUTS {
                    client
                        .put(&format!("smoke-{c}-{i}"), format!("v{c}-{i}").as_bytes())
                        .expect("put");
                }
                // Read-your-writes over the wire.
                for i in (0..PUTS).step_by(4) {
                    let got = client.get(&format!("smoke-{c}-{i}")).expect("get");
                    assert_eq!(
                        got.as_deref(),
                        Some(format!("v{c}-{i}").as_bytes()),
                        "read-your-writes violated for smoke-{c}-{i}"
                    );
                }
                // At least one committed multi-op batch per connection.
                let batch = WriteBatch::new()
                    .put(format!("batch-{c}-a"), &b"1"[..])
                    .put(format!("batch-{c}-b"), &b"2"[..])
                    .delete(format!("smoke-{c}-0"));
                assert_eq!(
                    client.batch(&batch).expect("batch"),
                    3,
                    "batch on connection {c} not fully applied"
                );
                client.del(&format!("smoke-{c}-1")).expect("del");
                client.sync().expect("sync");
                let stats = client.stats().expect("stats");
                assert!(
                    stats.contains("\"net_requests\""),
                    "stats missing net counters"
                );
                assert_eq!(
                    stats.matches('{').count(),
                    stats.matches('}').count(),
                    "unbalanced stats JSON: {stats}"
                );
            })
        })
        .collect();
    for j in joins {
        j.join().expect("smoke connection");
    }

    // Request accounting: PUTS puts + 3 gets + batch + del + sync + stats.
    let per_conn = (PUTS + 3 + 4) as u64;
    let snap = server.stats();
    assert_eq!(snap.net_requests, per_conn * CONNS as u64, "request count");
    assert_eq!(snap.net_frame_errors, 0, "structural errors in smoke");
    assert_eq!(snap.net_status_errors, 0, "status errors in smoke");
    assert!(snap.net_accepts >= CONNS as u64, "accept count");
    drop(server);

    // Durable-ack ordering: every ack_after_durable must be preceded (on
    // its own thread, in seq order) by the wal_append it gates on. Under
    // Async the append runs on a defer-pool worker, so only the global
    // record count is checked there.
    let trace = store.runtime().take_trace();
    let (append, ack) = (
        EventKind::App(&WAL_APPEND),
        EventKind::App(&ACK_AFTER_DURABLE),
    );
    let acks: Vec<_> = trace.events.iter().filter(|e| e.kind == ack).collect();
    let expected_acks = (CONNS * (PUTS + 2)) as u64; // puts + batch + del
    assert_eq!(acks.len() as u64, expected_acks, "ack_after_durable count");
    if !use_async && trace.dropped == 0 {
        let threads: std::collections::BTreeSet<u32> = acks.iter().map(|e| e.thread).collect();
        for t in threads {
            let (mut appends, mut acks_seen) = (0u64, 0u64);
            for e in trace.thread_events(t) {
                if e.kind == append {
                    appends += 1;
                } else if e.kind == ack {
                    acks_seen += 1;
                    assert!(
                        appends >= acks_seen,
                        "ack #{acks_seen} on thread {t} not preceded by its wal_append"
                    );
                }
            }
        }
    }
    let wal = store.wal_stats().expect("durable smoke store has a WAL");
    assert!(
        wal.records >= expected_acks,
        "fewer WAL records ({}) than durable acks ({expected_acks})",
        wal.records
    );

    println!(
        "smoke ok ({}): {} requests over {CONNS} connections, {} durable acks, \
         {} WAL records in {} fsync batches{}",
        if use_async { "async" } else { "group" },
        snap.net_requests,
        expected_acks,
        wal.records,
        wal.batches,
        if trace.dropped > 0 {
            " (trace ring wrapped; ordering check skipped)"
        } else {
            ""
        },
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
}

fn main() {
    let ms: u64 = arg_num("--ms", 200);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_kv_net.json".to_string());
    let dir = arg_value("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).expect("creating WAL dir");
    let sync = match arg_value("--sync").as_deref() {
        None | Some("group") => SyncPolicy::GroupCommit,
        Some("percommit") => SyncPolicy::PerCommit,
        Some("async") => SyncPolicy::Async,
        Some(other) => {
            eprintln!("unknown --sync {other:?} (expected group|percommit|async)");
            std::process::exit(2);
        }
    };

    if arg_flag("--smoke") {
        smoke(&dir, arg_flag("--async"));
        return;
    }

    let steady = Duration::from_millis(ms);
    let warm = Duration::from_millis((ms / 4).max(50));
    let external = arg_value("--addr");
    if let Some(addr) = &external {
        preload_remote(addr);
    }

    let mut rows: Vec<Row> = Vec::new();
    for mix in [Mix::ReadMostly, Mix::UpdateHeavy] {
        for &connections in &CONNECTION_COUNTS {
            let row = match &external {
                Some(addr) => run_cell(addr, mix, connections, warm, steady, None),
                None => {
                    let path = dir.join(format!("kv-net-{}-{connections}.wal", mix.name()));
                    let _ = std::fs::remove_file(&path);
                    let store = Arc::new(
                        KvStore::open(KvConfig::durable(&path, sync)).expect("opening store"),
                    );
                    preload(&store);
                    let server = Server::start(
                        Arc::clone(&store),
                        "127.0.0.1:0",
                        ServerConfig {
                            workers: connections,
                            ..ServerConfig::default()
                        },
                    )
                    .expect("starting server");
                    let addr = server.local_addr().to_string();
                    let row = run_cell(&addr, mix, connections, warm, steady, Some(&store));
                    drop(server);
                    drop(store);
                    let _ = std::fs::remove_file(&path);
                    row
                }
            };
            println!(
                "{:<12} connections={connections}  {:>10.0} req/s  p50={} ns  p99={} ns",
                row.mix.name(),
                row.ops_per_sec,
                row.req_p50_ns,
                row.req_p99_ns,
            );
            rows.push(row);
        }
    }

    let mut json = String::from("{\n  \"bench\": \"kv_net\",\n");
    json.push_str(&format!("  \"duration_ms_per_cell\": {ms},\n"));
    json.push_str(&format!("  \"keyspace\": {KEYSPACE},\n"));
    json.push_str(&format!("  \"value_len\": {VALUE_LEN},\n"));
    json.push_str(&format!("  \"zipf_theta\": {ZIPF_THETA},\n"));
    json.push_str(&format!(
        "  \"sync\": \"{}\",\n",
        match (&external, sync) {
            (Some(_), _) => "external",
            (None, SyncPolicy::GroupCommit) => "group",
            (None, SyncPolicy::PerCommit) => "percommit",
            (None, SyncPolicy::Async) => "async",
        }
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mix\": \"{}\", \"connections\": {}, \"ops_per_sec\": {:.0}, \
             \"req_p50_ns\": {}, \"req_p99_ns\": {}, \"req_max_ns\": {}, \
             \"steady_commits\": {}}}{}\n",
            r.mix.name(),
            r.connections,
            r.ops_per_sec,
            r.req_p50_ns,
            r.req_p99_ns,
            r.req_max_ns,
            r.steady_commits,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
