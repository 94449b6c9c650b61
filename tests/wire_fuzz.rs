//! Hostile bytes on the wire (ROADMAP 4(b)): seeded random streams, and
//! valid frames of every opcode with 1–4 bytes changed, fed to the frame
//! decoder in random chunkings and then through `Request::decode`.
//!
//! Nothing may panic; after each drain the decoder holds at most its
//! frame limit plus the 4-byte length prefix; and every reject is a
//! `FrameError` (connection-fatal) or an `ERR_*` status (the connection
//! lives on). Over a socket, a hostile connection is counted in
//! `net_frame_errors` and closed while other connections still get
//! answers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_kv::{KvConfig, KvStore, WriteBatch};
use ad_net::frame::MIN_FRAME_LEN;
use ad_net::proto::status;
use ad_net::{Client, Decoder, Frame, FrameError, Request, Server, ServerConfig, VERSION};
use ad_support::crc32::crc32;
use ad_support::prng::Rng;

/// The decoder's frame cap here: small, so random envelopes land on both
/// sides of it.
const LIMIT: u32 = 48;

/// What the streams of one test came to.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    statuses: u64,
    frame_errors: u64,
}

/// One valid request of every opcode, BATCH with both op kinds.
fn requests() -> Vec<Request> {
    let put = Request::Put {
        key: "key".into(),
        value: b"value".to_vec(),
    };
    let batch = Request::from_write_batch(&WriteBatch::new().put("a", &b"1"[..]).delete("b"));
    let (get, del) = (
        Request::Get { key: "k".into() },
        Request::Del { key: "gone".into() },
    );
    vec![get, put, del, batch, Request::Sync, Request::Stats]
}

fn encode(req: &Request, req_id: u32) -> Vec<u8> {
    Frame::new(req.opcode() as u8, req_id, req.encode_payload()).encode()
}

/// Feed `stream` in random chunks and serve every frame as the server
/// would, up to the first `FrameError`.
fn drive(stream: &[u8], rng: &mut Rng, tally: &mut Tally) {
    let mut dec = Decoder::with_limit(LIMIT);
    let mut rest = stream;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.random_range(1..rest.len().min(64) + 1));
        rest = tail;
        dec.feed(chunk);
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    let explained = match e {
                        FrameError::Oversize(len) => len > LIMIT,
                        FrameError::Undersize(len) => len < MIN_FRAME_LEN,
                        FrameError::BadCrc { got, want } => got != want,
                        FrameError::BadFlags(flags) => flags != 0,
                    };
                    assert!(explained, "{e}");
                    tally.frame_errors += 1;
                    return;
                }
            };
            assert!(
                frame.wire_len() <= LIMIT as usize + 4,
                "a frame above the limit"
            );
            let served = if frame.version == VERSION {
                Request::decode(frame.opcode, &frame.payload)
            } else {
                Err(status::ERR_BAD_VERSION)
            };
            match served {
                Ok(req) => {
                    tally.requests += 1;
                    let again = Request::decode(req.opcode() as u8, &req.encode_payload());
                    assert_eq!(again, Ok(req), "a decoded request re-encodes");
                }
                Err(
                    status::ERR_MALFORMED | status::ERR_UNKNOWN_OPCODE | status::ERR_BAD_VERSION,
                ) => {
                    tally.statuses += 1;
                }
                Err(code) => panic!("rejected with status {code}"),
            }
        }
        // Drained: what is left is less than one frame.
        assert!(
            dec.pending() <= LIMIT as usize + 4,
            "buffered {}",
            dec.pending()
        );
    }
}

/// Random bytes, or random envelopes with a valid length and checksum
/// around random opcode, version and payload bytes.
fn random_stream(rng: &mut Rng) -> Vec<u8> {
    if rng.random_bool(0.3) {
        return (0..rng.random_range(0..300))
            .map(|_| rng.next_u32() as u8)
            .collect();
    }
    let mut out = Vec::new();
    for _ in 0..rng.random_range(1..4) {
        let payload = (0..rng.random_range(0..64))
            .map(|_| rng.next_u32() as u8)
            .collect();
        let mut frame = Frame::new(rng.random_range(0..9) as u8, rng.next_u32(), payload);
        if rng.random_bool(0.1) {
            frame.version = rng.next_u32() as u8;
        }
        frame.encode_into(&mut out);
    }
    out
}

/// A few valid frames, one with 1–4 bytes set to random values; its
/// checksum recomputed half the time, so payload damage reaches
/// `Request::decode` instead of stopping at the checksum.
fn mutated_stream(rng: &mut Rng, reqs: &[Request]) -> Vec<u8> {
    let mut frames: Vec<Vec<u8>> = (0..rng.random_range(1..4))
        .map(|i| encode(&reqs[rng.random_range(0..reqs.len())], i as u32))
        .collect();
    let victim = rng.random_range(0..frames.len());
    let wire = &mut frames[victim];
    for _ in 0..rng.random_range(1..5) {
        let at = rng.random_range(0..wire.len());
        wire[at] = rng.next_u32() as u8;
    }
    if rng.random_bool(0.5) {
        let end = wire.len() - 4;
        let crc = crc32(&wire[4..end]);
        wire[end..].copy_from_slice(&crc.to_le_bytes());
    }
    frames.concat()
}

#[test]
fn hostile_streams_are_rejected_without_a_panic() {
    let reqs = requests();
    let mut tally = Tally::default();
    for seed in 0..20_000u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let stream = if seed % 2 == 0 {
            random_stream(&mut rng)
        } else {
            mutated_stream(&mut rng, &reqs)
        };
        drive(&stream, &mut rng, &mut tally);
    }
    // Every path was taken: frames that decode, semantic rejects, and
    // structural rejects.
    assert!(
        tally.requests.min(tally.statuses).min(tally.frame_errors) > 100,
        "{tally:?}"
    );

    // And the valid frames of every opcode decode whole in any chunking.
    let valid: Vec<u8> = reqs
        .iter()
        .enumerate()
        .flat_map(|(i, r)| encode(r, i as u32))
        .collect();
    for seed in 0..200u64 {
        let mut tally = Tally::default();
        drive(&valid, &mut Rng::seed_from_u64(seed), &mut tally);
        let got = (tally.requests, tally.statuses, tally.frame_errors);
        assert_eq!(got, (6, 0, 0), "seed {seed}");
    }
}

#[test]
fn a_hostile_connection_is_counted_and_closed_and_others_still_get_answers() {
    let store = Arc::new(KvStore::open(KvConfig::volatile()).unwrap());
    let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut good = Client::connect(addr).unwrap();
    good.put("before", b"1").unwrap();

    // A frame whose checksum is broken, and random bytes after it: the
    // connection is counted and closed.
    let mut rng = Rng::seed_from_u64(0xbad);
    let mut hostile = encode(&Request::Stats, 8);
    let last = hostile.len() - 1;
    hostile[last] ^= 0xff;
    hostile.extend((0..64).map(|_| rng.next_u32() as u8));
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&hostile).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().net_frame_errors == 0 {
        assert!(
            Instant::now() < deadline,
            "the frame error was never counted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let closed = matches!(bad.read(&mut [0u8; 64]), Ok(0) | Err(_));
    assert!(closed, "the server kept a connection after a frame error");

    // The other connection still gets answers, and so does a new one.
    good.put("after", b"2").unwrap();
    assert_eq!(good.get("before").unwrap().as_deref(), Some(&b"1"[..]));
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.get("after").unwrap().as_deref(), Some(&b"2"[..]));
    assert_eq!(server.stats().net_frame_errors, 1);
}
