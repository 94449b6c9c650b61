//! Read-your-writes, per store and per connection (SEMANTICS.md).
//!
//! A store applies a batch inside the transaction that commits it, and
//! `write_batch` returns only after that commit and its deferred append:
//! the next read by the same thread sees the batch. Over `ad-net` a
//! connection is served on one thread, in the order its frames arrive,
//! and a mutation is answered only after its store call returned: a GET
//! pipelined behind a PUT on the same connection sees the PUT.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ad_kv::{KvConfig, KvStore, MemDisk, SyncPolicy, WriteBatch};
use ad_net::{Decoder, Frame, Opcode, Request, Response, Server, ServerConfig};

const ROUNDS: usize = 300;

fn durable() -> KvStore {
    KvStore::open_on_disk(
        &KvConfig::default(),
        SyncPolicy::GroupCommit,
        MemDisk::new(),
    )
    .0
}

/// The calling thread writes its own keys and reads each back at once,
/// while another thread overwrites neighbouring keys of the same shards.
fn reads_its_own_writes(store: &KvStore) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                store.put(&format!("other{}", i % 16), &i.to_le_bytes());
                i += 1;
            }
        });
        for i in 0..ROUNDS {
            let key = format!("mine{}", i % 8);
            let v = format!("v{i}");
            store.put(&key, v.as_bytes());
            assert_eq!(store.get(&key).as_deref(), Some(v.as_bytes()), "put {key}");
            let pair = [format!("pa{i}"), format!("pb{i}")];
            store.write_batch(
                &WriteBatch::new()
                    .put(pair[0].as_str(), v.as_str())
                    .put(pair[1].as_str(), v.as_str()),
            );
            let got = store.get_many(&[pair[0].as_str(), pair[1].as_str()]);
            assert!(
                got.iter().all(|g| g.as_deref() == Some(v.as_bytes())),
                "batch {i}: {got:?}"
            );
            store.delete(&key);
            assert_eq!(store.get(&key), None, "delete {key}");
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn a_store_reads_its_own_writes() {
    reads_its_own_writes(&durable());
    reads_its_own_writes(&KvStore::open(KvConfig::volatile()).unwrap());
}

/// Write `requests` as one burst of frames, then read one response each.
fn pipelined(stream: &mut TcpStream, dec: &mut Decoder, requests: &[Request]) -> Vec<Response> {
    let mut wire = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        Frame::new(req.opcode() as u8, i as u32, req.encode_payload()).encode_into(&mut wire);
    }
    stream.write_all(&wire).unwrap();
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    while out.len() < requests.len() {
        match dec.next_frame().unwrap() {
            Some(frame) => {
                let op = Opcode::from_code(frame.opcode).unwrap();
                assert_eq!(frame.req_id as usize, out.len(), "responses out of order");
                out.push(Response::decode(op, &frame.payload).unwrap());
            }
            None => {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "server closed the connection");
                dec.feed(&buf[..n]);
            }
        }
    }
    out
}

#[test]
fn a_connection_reads_its_own_pipelined_writes() {
    let store = Arc::new(durable());
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for c in 0..2 {
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let mut dec = Decoder::new();
                let key = format!("c{c}");
                let get = || Request::Get { key: key.clone() };
                for i in 0..ROUNDS {
                    let v = format!("v{c}-{i}").into_bytes();
                    let put = Request::Put {
                        key: key.clone(),
                        value: v.clone(),
                    };
                    let replies = pipelined(&mut stream, &mut dec, &[put, get()]);
                    assert_eq!(replies[1], Response::Value(Some(v.clone())), "round {i}");

                    let batch = Request::from_write_batch(
                        &WriteBatch::new()
                            .delete(key.as_str())
                            .put(format!("{key}b"), &v[..]),
                    );
                    let side = Request::Get {
                        key: format!("{key}b"),
                    };
                    let replies = pipelined(&mut stream, &mut dec, &[batch, get(), side]);
                    assert_eq!(replies[1], Response::Value(None), "round {i}: batch delete");
                    assert_eq!(replies[2], Response::Value(Some(v)), "round {i}: batch put");
                }
            });
        }
    });
    let snap = server.stats();
    assert_eq!((snap.net_frame_errors, snap.net_status_errors), (0, 0));
}
