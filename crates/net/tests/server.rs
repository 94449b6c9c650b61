//! End-to-end loopback tests: every opcode over a real socket, the
//! durability contract against a byte-exact in-memory disk, and
//! the failure modes a server must shrug off — half-sent frames, killed
//! connections, unknown opcodes, wrong protocol versions.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch, WAL_APPEND};
use ad_net::{
    Client, Decoder, Frame, Opcode, Response, Server, ServerConfig, ACK_AFTER_DURABLE, VERSION,
};
use ad_stm::{EventKind, Trace};
use ad_support::crc32::crc32;

fn volatile_server() -> Server {
    let store = Arc::new(KvStore::open(KvConfig::volatile()).unwrap());
    Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

fn durable_server() -> (Server, MemDisk) {
    let disk = MemDisk::new();
    let (store, _report) =
        KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone());
    let server = Server::start(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, disk)
}

/// Read one response frame from a raw socket (for tests that bypass
/// [`Client`] to send hand-crafted bytes).
fn read_raw_frame(stream: &mut TcpStream) -> Frame {
    let mut dec = Decoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed response") {
            return frame;
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        dec.feed(&buf[..n]);
    }
}

#[test]
fn every_opcode_round_trips() {
    let server = volatile_server();
    let mut c = Client::connect(server.local_addr()).unwrap();

    assert_eq!(c.get("missing").unwrap(), None);
    c.put("k1", b"v1").unwrap();
    assert_eq!(c.get("k1").unwrap().as_deref(), Some(&b"v1"[..]));
    c.del("k1").unwrap();
    assert_eq!(c.get("k1").unwrap(), None);

    let n = c
        .batch(
            &WriteBatch::new()
                .put("a", &b"1"[..])
                .put("b", &b"2"[..])
                .delete("a"),
        )
        .unwrap();
    assert_eq!(n, 3);
    assert_eq!(c.get("a").unwrap(), None);
    assert_eq!(c.get("b").unwrap().as_deref(), Some(&b"2"[..]));

    c.sync().unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.starts_with("{\"net\":"), "stats shape: {stats}");
    assert!(stats.contains("\"store\":"), "stats shape: {stats}");
    assert_eq!(stats.matches('{').count(), stats.matches('}').count());
}

/// The wire-level durability contract against a byte-exact disk: when
/// the PUT ack arrives, the redo record is already inside the *synced*
/// prefix of the WAL — not just written.
#[test]
fn put_ack_implies_synced_wal_bytes() {
    let (server, medium) = durable_server();
    let mut c = Client::connect(server.local_addr()).unwrap();

    assert!(medium.synced("wal").is_empty(), "no writes yet");
    c.put("durable-key", b"durable-value").unwrap();
    let synced = medium.synced("wal");
    assert!(
        !synced.is_empty(),
        "PUT was acked but the WAL synced prefix is empty — ack did not imply durable"
    );
    // The record (key and value bytes) must be inside the synced prefix,
    // not merely the written suffix.
    let find = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
    assert!(find(&synced, b"durable-key"));
    assert!(find(&synced, b"durable-value"));
    drop(c);
    drop(server);
}

/// Two traced connections, each: 10 PUTs, 3 GETs that must read their
/// own writes, one 3-op BATCH, a DEL, SYNC and STATS — 17 requests, 12 of
/// them mutations. Checks the request accounting and that every mutation
/// produced exactly one `ack_after_durable` and at least one WAL record;
/// returns the server-side timeline for the ordering check.
fn traced_session() -> Trace {
    const CONNS: u64 = 2;
    const PUTS: usize = 10;
    let (store, _) = KvStore::open_on_disk(
        &KvConfig::default(),
        SyncPolicy::GroupCommit,
        MemDisk::new(),
    );
    let store = Arc::new(store);
    store.runtime().set_tracing(true);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for c in 0..CONNS {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..PUTS {
                    let value = format!("v{c}-{i}");
                    client.put(&format!("k{c}-{i}"), value.as_bytes()).unwrap();
                }
                for i in (0..PUTS).step_by(4) {
                    let got = client.get(&format!("k{c}-{i}")).unwrap();
                    assert_eq!(
                        got.as_deref(),
                        Some(format!("v{c}-{i}").as_bytes()),
                        "read-your-writes violated for k{c}-{i}"
                    );
                }
                let batch = WriteBatch::new()
                    .put(format!("batch{c}-a"), &b"1"[..])
                    .put(format!("batch{c}-b"), &b"2"[..])
                    .delete(format!("k{c}-0"));
                assert_eq!(client.batch(&batch).unwrap(), 3, "batch not fully applied");
                client.del(&format!("k{c}-1")).unwrap();
                client.sync().unwrap();
                let stats = client.stats().unwrap();
                assert!(stats.contains("\"net_requests\""), "stats: {stats}");
            });
        }
    });

    let snap = server.stats();
    assert_eq!(snap.net_requests, CONNS * 17);
    assert_eq!((snap.net_frame_errors, snap.net_status_errors), (0, 0));
    assert!(snap.net_accepts >= CONNS);
    drop(server);

    let trace = store.runtime().take_trace();
    let ack = EventKind::App(&ACK_AFTER_DURABLE);
    let acks = trace.events.iter().filter(|e| e.kind == ack).count() as u64;
    assert_eq!(acks, CONNS * 12, "one ack_after_durable per mutation");
    let wal = store.wal_stats().expect("durable store");
    assert!(
        wal.records >= acks,
        "fewer WAL records ({}) than durable acks ({acks})",
        wal.records
    );
    trace
}

/// Ack-after-durable as a wire property (PROTOCOL.md §6): on every
/// handler thread the *k*-th `ack_after_durable` has at least *k*
/// `wal_append`s before it — a request's append runs on the thread that
/// then acks it, so an ack emitted before its commit
/// shows up as an ack with too few appends behind it.
#[test]
fn every_ack_follows_its_wal_append_on_the_wire() {
    let trace = traced_session();
    if trace.dropped > 0 {
        return; // the ring wrapped: counts were checked, order is unknowable
    }
    let (append, ack) = (
        EventKind::App(&WAL_APPEND),
        EventKind::App(&ACK_AFTER_DURABLE),
    );
    // Per handler thread: (wal_appends, ack_after_durables) seen so far.
    let mut seen: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for e in &trace.events {
        let (appends, acks) = seen.entry(e.thread).or_default();
        if e.kind == append {
            *appends += 1;
        } else if e.kind == ack {
            *acks += 1;
            assert!(
                appends >= acks,
                "ack #{acks} on thread {} has only {appends} wal_append(s) before it",
                e.thread
            );
        }
    }
}

/// The server keeps answering — reads *and* durable writes — while a
/// checkpoint is in flight. The snapshot publish is parked on the
/// [`MemDisk`] publish gate, so the whole request/response exchange
/// below happens strictly inside the checkpoint's publish window; only
/// the checkpointer thread blocks, never the serving path.
#[test]
fn server_keeps_serving_during_a_checkpoint() {
    let disk = MemDisk::new();
    let (store, _report) =
        KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone());
    let store = Arc::new(store);
    let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.put("k", b"before").unwrap();

    disk.hold_publishes();
    let ck_store = Arc::clone(&store);
    let ck = std::thread::spawn(move || ck_store.checkpoint().expect("checkpoint"));
    while !disk.publish_blocked() {
        std::thread::yield_now();
    }

    assert_eq!(c.get("k").unwrap().as_deref(), Some(&b"before"[..]));
    c.put("k2", b"during").unwrap();
    assert_eq!(c.get("k2").unwrap().as_deref(), Some(&b"during"[..]));
    let stats = c.stats().unwrap();
    assert!(
        stats.contains("\"ckpt\""),
        "disk-backed STATS carries the checkpoint section: {stats}"
    );

    disk.release_publishes();
    let report = ck.join().unwrap();
    assert!(report.performed);
    assert!(report.cut >= 1, "the pre-checkpoint put is under the cut");
    // The mid-checkpoint write survives the snapshot + suffix split.
    assert_eq!(c.get("k2").unwrap().as_deref(), Some(&b"during"[..]));
    assert_eq!(store.ckpt_stats().expect("ckpt tier").count, 1);
}

/// A client that dies mid-frame (half a BATCH on the wire, then RST)
/// must not wedge the store: the partial frame never decodes, no locks
/// are taken, and other connections proceed.
#[test]
fn killed_connection_mid_frame_leaves_store_usable() {
    let (server, _medium) = durable_server();
    let addr = server.local_addr();

    let batch = WriteBatch::new()
        .put("x", vec![7u8; 512])
        .put("y", vec![8u8; 512]);
    let wire = Frame::new(
        Opcode::Batch as u8,
        1,
        ad_net::Request::from_write_batch(&batch).encode_payload(),
    )
    .encode();

    let mut half = TcpStream::connect(addr).unwrap();
    half.write_all(&wire[..wire.len() / 2]).unwrap();
    drop(half); // killed mid-frame

    let mut c = Client::connect(addr).unwrap();
    c.put("after-kill", b"ok").unwrap();
    assert_eq!(c.get("after-kill").unwrap().as_deref(), Some(&b"ok"[..]));
}

/// A client that sends a *complete* BATCH but dies before reading the
/// response: the server finishes the write (and its durability wait),
/// releases the shard locks, and the data is visible to others.
#[test]
fn killed_connection_after_full_batch_releases_locks() {
    let (server, medium) = durable_server();
    let addr = server.local_addr();

    let batch = WriteBatch::new()
        .put("orphan-1", &b"a"[..])
        .put("orphan-2", &b"b"[..]);
    let wire = Frame::new(
        Opcode::Batch as u8,
        9,
        ad_net::Request::from_write_batch(&batch).encode_payload(),
    )
    .encode();

    let mut rude = TcpStream::connect(addr).unwrap();
    rude.write_all(&wire).unwrap();
    drop(rude); // never reads the ack

    // Another connection must be able to read and write those keys —
    // i.e. the batch's shard locks were released after the deferred
    // fsync, not leaked with the connection.
    let mut c = Client::connect(addr).unwrap();
    c.put("other", b"w").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        // The orphan batch races with our connect; poll until visible.
        if c.get("orphan-1").unwrap().as_deref() == Some(&b"a"[..]) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned batch never became visible — locks leaked?"
        );
        std::thread::yield_now();
    }
    assert_eq!(c.get("orphan-2").unwrap().as_deref(), Some(&b"b"[..]));
    assert!(!medium.synced("wal").is_empty());
}

/// Unknown opcode: answered with `ERR_UNKNOWN_OPCODE` (status error, not
/// a structural one) and the connection stays usable.
#[test]
fn unknown_opcode_is_answered_and_connection_survives() {
    let server = volatile_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();

    let bogus = Frame::new(0x7f, 42, Vec::new()).encode();
    raw.write_all(&bogus).unwrap();
    let reply = read_raw_frame(&mut raw);
    assert_eq!(reply.req_id, 42);
    assert_eq!(
        reply.payload.first(),
        Some(&ad_net::proto::status::ERR_UNKNOWN_OPCODE)
    );

    // Same socket still serves well-formed requests.
    let get = Frame::new(
        Opcode::Get as u8,
        43,
        ad_net::Request::Get { key: "nope".into() }.encode_payload(),
    )
    .encode();
    raw.write_all(&get).unwrap();
    let reply = read_raw_frame(&mut raw);
    assert_eq!(reply.req_id, 43);
    assert_eq!(
        Response::decode(Opcode::Get, &reply.payload),
        Some(Response::Value(None))
    );

    let snap = server.stats();
    assert_eq!(snap.net_status_errors, 1);
    assert_eq!(snap.net_frame_errors, 0);
}

/// Wrong protocol version: answered with `ERR_BAD_VERSION` so old
/// clients get a diagnosable refusal instead of a dropped connection
/// (PROTOCOL.md §4.2).
#[test]
fn bad_version_is_answered_with_its_own_status() {
    let server = volatile_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();

    let mut wire = Frame::new(
        Opcode::Get as u8,
        5,
        ad_net::Request::Get { key: "k".into() }.encode_payload(),
    )
    .encode();
    wire[4] = VERSION + 1; // future version
    let end = wire.len() - 4;
    let crc = crc32(&wire[4..end]).to_le_bytes();
    wire[end..].copy_from_slice(&crc);

    raw.write_all(&wire).unwrap();
    let reply = read_raw_frame(&mut raw);
    assert_eq!(reply.req_id, 5);
    assert_eq!(
        reply.payload.first(),
        Some(&ad_net::proto::status::ERR_BAD_VERSION)
    );
}

/// A structural error (corrupt CRC) closes the connection — and only
/// that connection.
#[test]
fn corrupt_frame_closes_only_its_connection() {
    let server = volatile_server();
    let addr = server.local_addr();

    let mut bad_conn = TcpStream::connect(addr).unwrap();
    let mut wire = Frame::new(Opcode::Sync as u8, 1, Vec::new()).encode();
    let last = wire.len() - 1;
    wire[last] ^= 0xff;
    bad_conn.write_all(&wire).unwrap();
    // The server closes; our next read sees EOF (possibly after RST).
    let mut buf = [0u8; 16];
    let closed = matches!(bad_conn.read(&mut buf), Ok(0) | Err(_));
    assert!(closed, "server kept a connection after a CRC error");

    // Other connections are unaffected.
    let mut c = Client::connect(addr).unwrap();
    c.put("still-alive", b"yes").unwrap();
    assert_eq!(c.get("still-alive").unwrap().as_deref(), Some(&b"yes"[..]));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().net_frame_errors == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "frame error never counted"
        );
        std::thread::yield_now();
    }
}
