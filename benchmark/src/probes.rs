//! Probes: the harness times its own direct calls into one layer's public
//! functions — single thread, fixed operation count, keys drawn from the
//! workload's own seeded stream — so a layer's cost can be read without
//! the layers above it. They run in a traced run only, after the window,
//! and each workload runs the probes of the layers it exercises.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use ad_defer::{atomic_defer, Defer};
use ad_kv::{KvConfig, KvStore, WriteBatch};
use ad_net::{Decoder, Frame, Opcode, Request, Response};
use ad_shard::ShardRouter;
use ad_stm::{Runtime, TVar, TmConfig};

use crate::gen::{encode_value, Op, OpStream, Stamp, Workload, N_KEYS};
use crate::stats::{median, percentile};
use crate::workloads::{open_durable, preload, Counters, Inputs, Report, RunCfg};

/// Median over `chunks` of the mean nanoseconds of `per_chunk` calls:
/// one clock pair per chunk, so the timer does not drown a 100 ns call.
fn chunked_ns(chunks: usize, per_chunk: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..chunks)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_chunk {
                f();
            }
            t0.elapsed().as_nanos() as f64 / per_chunk as f64
        })
        .collect();
    median(&means).expect("chunks > 0")
}

/// Median nanoseconds of `n` individually timed calls.
fn each_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5).expect("n > 0") as f64
}

/// Medians of two alternatives timed turn and turn about (the order
/// swapping each round), so drift and cache warmth hit both alike.
fn paired_ns(n: usize, mut a: impl FnMut(usize), mut b: impl FnMut(usize)) -> (f64, f64) {
    let time = |f: &mut dyn FnMut(usize), i: usize| {
        let t0 = Instant::now();
        f(i);
        t0.elapsed().as_nanos() as u64
    };
    let (mut ns_a, mut ns_b) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        if i % 2 == 0 {
            ns_a.push(time(&mut a, i));
            ns_b.push(time(&mut b, i));
        } else {
            ns_b.push(time(&mut b, i));
            ns_a.push(time(&mut a, i));
        }
    }
    ns_a.sort_unstable();
    ns_b.sort_unstable();
    (
        percentile(&ns_a, 0.5).expect("n > 0") as f64,
        percentile(&ns_b, 0.5).expect("n > 0") as f64,
    )
}

/// The zipf keys the workload's first thread would touch, in order.
fn key_stream<'a>(cfg: &RunCfg, inputs: &'a Inputs) -> impl FnMut() -> u32 + 'a {
    let mut stream = OpStream::new(cfg.workload, cfg.seed, 0, &inputs.zipf);
    move || match stream.next_op() {
        Op::Read { key }
        | Op::Write { key }
        | Op::CrossWrite { key }
        | Op::Scan { key }
        | Op::PairWrite { a: key, .. } => key,
        Op::Probe => 0,
    }
}

fn value_for(seq: u64, key: u32) -> Vec<u8> {
    encode_value(Stamp {
        writer: 0,
        seq,
        key,
    })
}

/// A probe metric that is the difference of two timings. Where the two
/// are closer than the clock resolves, the difference can come out below
/// zero; it is reported as 0 (read it against `bench.timer_ns`).
fn over(with: f64, without: f64) -> f64 {
    (with - without).max(0.0)
}

/// Run the probes of the layers `cfg.workload` exercises: a workload that
/// bypasses a layer reports nothing for it.
pub fn run(cfg: &RunCfg, report: &mut Report) {
    let inputs = Inputs::new();
    let dir = cfg.dir.join("probes");
    std::fs::create_dir_all(&dir).expect("create probe directory");
    bench_timer(report);
    match cfg.workload {
        Workload::NetUpdate => {
            net_codec(cfg, &inputs, report);
            kv_durable(cfg, &inputs, &dir, report);
        }
        Workload::NetRead => {
            net_codec(cfg, &inputs, report);
            kv_volatile(cfg, &inputs, report);
        }
        Workload::ShardCross => {
            kv_durable(cfg, &inputs, &dir, report);
            shard(cfg, &inputs, &dir, report);
        }
        Workload::KvVolatile => {
            kv_volatile(cfg, &inputs, report);
            stm(report);
        }
        Workload::DeferIo => {
            stm(report);
            defer(report);
        }
    }
}

fn bench_timer(report: &mut Report) {
    let ns = chunked_ns(100, 10_000, || {
        black_box(black_box(Instant::now()).elapsed());
    });
    report.put("bench.timer_ns", ns);
}

/// One request through both codecs with no socket between them: encode
/// the request frame, feed and pop it from a decoder, decode the request,
/// encode the response, and take it back through a decoder on the other
/// side.
fn net_codec(cfg: &RunCfg, inputs: &Inputs, report: &mut Report) {
    let mut next_key = key_stream(cfg, inputs);
    let mut to_server = Decoder::new();
    let mut to_client = Decoder::new();
    let value = value_for(1, 0);
    let mut req_id = 0u32;
    let reads_only = cfg.workload == Workload::NetRead;
    let ns = chunked_ns(200, 500, || {
        req_id += 1;
        let key = inputs.keys.name(next_key()).to_string();
        let request = if reads_only || req_id.is_multiple_of(2) {
            Request::Get { key }
        } else {
            Request::Put {
                key,
                value: value.clone(),
            }
        };
        let opcode = request.opcode();
        let wire = Frame::new(opcode as u8, req_id, request.encode_payload()).encode();
        to_server.feed(&wire);
        let frame = to_server
            .next_frame()
            .expect("valid frame")
            .expect("whole frame");
        let decoded = Request::decode(frame.opcode, &frame.payload).expect("valid request");
        let response = match decoded {
            Request::Get { .. } => Response::Value(Some(value.clone())),
            _ => Response::Applied(1),
        };
        let wire = Frame::new(frame.opcode, frame.req_id, response.encode_payload()).encode();
        to_client.feed(&wire);
        let reply = to_client
            .next_frame()
            .expect("valid frame")
            .expect("whole frame");
        let opcode = Opcode::from_code(reply.opcode).expect("echoed opcode");
        black_box(Response::decode(opcode, &reply.payload).expect("valid response"));
    });
    report.put("net.codec_ns_per_req", ns);
}

struct Cell {
    a: TVar<u64>,
    b: TVar<u64>,
    c: TVar<u64>,
    d: TVar<u64>,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            a: TVar::new(1),
            b: TVar::new(2),
            c: TVar::new(3),
            d: TVar::new(4),
        }
    }
}

/// Chunks and calls per chunk of the transaction probes.
const TX_CHUNKS: (usize, usize) = (100, 2000);

fn stm(report: &mut Report) {
    let rt = Runtime::new(TmConfig::stm());
    let cell = Cell::new();
    let (chunks, per) = TX_CHUNKS;
    let ro = chunked_ns(chunks, per, || {
        black_box(rt.atomically(|tx| {
            Ok(tx.read(&cell.a)? + tx.read(&cell.b)? + tx.read(&cell.c)? + tx.read(&cell.d)?)
        }));
    });
    report.put("stm.ro_tx_ns", ro);
    let rw = chunked_ns(chunks, per, || {
        rt.atomically(|tx| {
            let (a, b) = (tx.read(&cell.a)?, tx.read(&cell.b)?);
            tx.write(&cell.a, b)?;
            tx.write(&cell.b, a)
        });
    });
    report.put("stm.rw_tx_ns", rw);
}

fn defer(report: &mut Report) {
    let rt = Runtime::new(TmConfig::stm());
    let cell = Cell::new();
    let (chunks, per) = TX_CHUNKS;
    // A read-modify-write through a deferrable object, with and without
    // an empty deferred operation: the difference is TxLock acquire +
    // queueing + the post-commit release.
    let obj = Defer::new(Cell::new());
    let bump = |defer: bool| {
        rt.atomically(|tx| {
            let n = obj.with(tx, |o, tx| tx.read(&o.a))?;
            if defer {
                atomic_defer(tx, &[&obj], || {})?;
            }
            obj.with(tx, |o, tx| tx.write(&o.a, n + 1))
        })
    };
    let plain = chunked_ns(chunks, per, || bump(false));
    let deferred = chunked_ns(chunks, per, || bump(true));
    report.put("defer.noop_defer_ns", over(deferred, plain));

    let direct = chunked_ns(chunks, per, || {
        black_box(rt.atomically(|tx| tx.read(&cell.a)));
    });
    let subscribed = chunked_ns(chunks, per, || {
        black_box(rt.atomically(|tx| obj.with(tx, |o, tx| tx.read(&o.a))));
    });
    report.put("defer.subscribe_read_ns", over(subscribed, direct));
}

fn kv_volatile(cfg: &RunCfg, inputs: &Inputs, report: &mut Report) {
    let store = KvStore::open(KvConfig::volatile()).expect("open volatile store");
    preload(&inputs.keys, |b| store.write_batch(b));
    let mut next_key = key_stream(cfg, inputs);
    let get = chunked_ns(100, 1000, || {
        black_box(store.get(inputs.keys.name(next_key())));
    });
    report.put("kv.get_ns", get);
    let scan = each_ns(200, |_| {
        black_box(store.scan_from(inputs.keys.name(next_key()), 10));
    });
    report.put("kv.scan10_us", scan / 1e3);
    let mut seq = 0;
    let write = chunked_ns(100, 200, || {
        seq += 1;
        let (a, b) = (next_key(), (next_key() + 1) % N_KEYS as u32);
        let batch = WriteBatch::new()
            .put(inputs.keys.name(a), value_for(seq, a))
            .put(inputs.keys.name(b), value_for(seq, b));
        store.write_batch(&batch);
    });
    report.put("kv.write_volatile_us", write / 1e3);
}

fn kv_durable(cfg: &RunCfg, inputs: &Inputs, dir: &Path, report: &mut Report) {
    let store = open_durable(&dir.join("kv.wal"));
    let mut next_key = key_stream(cfg, inputs);
    const WRITES: usize = 500;
    let before = Counters::of_stores(&[&store], None);
    let t0 = Instant::now();
    let write = each_ns(WRITES, |i| {
        let key = next_key();
        store.write_batch(
            &WriteBatch::new().put(inputs.keys.name(key), value_for(i as u64 + 1, key)),
        );
    });
    let write_mean = t0.elapsed().as_nanos() as f64 / WRITES as f64;
    let delta = Counters::of_stores(&[&store], None).since(&before);
    report.put("kv.write_durable_us", write / 1e3);
    // What is left of a durable write once the WAL's own time (enqueue →
    // durable) is taken out: encode + transaction + atomic_defer + the
    // memtable apply. Mean against mean, so the difference is a real
    // share of the same calls.
    let wal = delta.wal.expect("durable store has a WAL");
    let append_mean = wal.append_ns.sum() as f64 / wal.append_ns.count().max(1) as f64;
    report.put("kv.commit_self_us", over(write_mean, append_mean) / 1e3);
}

fn shard(cfg: &RunCfg, inputs: &Inputs, dir: &Path, report: &mut Report) {
    let stores: Vec<std::sync::Arc<KvStore>> = (0..2)
        .map(|s| std::sync::Arc::new(open_durable(&dir.join(format!("shard{s}.wal")))))
        .collect();
    let router = ShardRouter::from_stores(stores.clone());
    preload(&inputs.keys, |b| router.write_batch(b));
    let first: std::collections::HashSet<String> = stores[0].dump().into_keys().collect();
    // A table, so that finding the owner costs the timed calls nothing.
    let owners: Vec<usize> = (0..inputs.keys.len() as u32)
        .map(|k| usize::from(!first.contains(inputs.keys.name(k))))
        .collect();
    let owner = |key: u32| owners[key as usize];
    let mut next_key = key_stream(cfg, inputs);

    let keys: Vec<u32> = (0..20_000).map(|_| next_key()).collect();
    let (routed, direct) = paired_ns(
        keys.len(),
        |i| {
            black_box(router.get(inputs.keys.name(keys[i])));
        },
        |i| {
            black_box(stores[owner(keys[i])].get(inputs.keys.name(keys[i])));
        },
    );
    report.put("shard.route_get_ns", over(routed, direct));

    // Pairs of keys on different shards, from the same stream; each pair
    // is written once as one cross-shard batch and once as its two slices.
    let mut seq = 0;
    let mut batches = |n: usize| -> Vec<([u32; 2], [WriteBatch; 2], WriteBatch)> {
        (0..n)
            .map(|_| {
                seq += 1;
                let a = next_key();
                let b = (1..N_KEYS as u32)
                    .map(|d| (a + d) % N_KEYS as u32)
                    .find(|&b| owner(b) != owner(a))
                    .expect("both shards hold keys");
                let put =
                    |key: u32| WriteBatch::new().put(inputs.keys.name(key), value_for(seq, key));
                (
                    [a, b],
                    [put(a), put(b)],
                    put(a).put(inputs.keys.name(b), value_for(seq, b)),
                )
            })
            .collect()
    };
    let timed = batches(200);
    let (cross, split) = paired_ns(
        timed.len(),
        |i| router.write_batch(&timed[i].2),
        |i| {
            let ([a, b], slices, _) = &timed[i];
            stores[owner(*a)].write_batch(&slices[0]);
            stores[owner(*b)].write_batch(&slices[1]);
        },
    );
    report.put("shard.twopc_self_us", over(cross, split) / 1e3);

    // Nothing but cross-shard batches, so the WAL record count is exact.
    let counted = batches(100);
    // A participant finishes its part after the coordinator returns; a
    // read of each key waits until its shard has let go of it.
    let settle = |keys: [u32; 2]| {
        for key in keys {
            black_box(router.get(inputs.keys.name(key)));
        }
    };
    settle(timed[timed.len() - 1].0);
    let before = Counters::of_stores(&[&stores[0], &stores[1]], None);
    for (_, _, batch) in &counted {
        router.write_batch(batch);
    }
    settle(counted[counted.len() - 1].0);
    let delta = Counters::of_stores(&[&stores[0], &stores[1]], None).since(&before);
    report.put(
        "shard.wal_records_per_cross_batch",
        delta.wal.expect("durable stores").records as f64 / counted.len() as f64,
    );
}
