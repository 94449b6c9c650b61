//! A minimal blocking client for the `ad-kv` wire protocol.
//!
//! One request in flight at a time (the protocol allows pipelining via
//! `req_id`; this client doesn't use it — `benchmark/`'s net workloads get
//! their concurrency from connection count instead, which also matches how the
//! server allocates one worker per connection). Every method maps a
//! protocol error onto `io::ErrorKind::InvalidData` so callers can treat
//! "broken peer" and "broken pipe" uniformly.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ad_kv::WriteBatch;

use crate::frame::{Decoder, Frame, VERSION};
use crate::proto::{status, Request, Response};

/// A blocking connection to an `ad-kv-server`.
pub struct Client {
    stream: TcpStream,
    decoder: Decoder,
    read_buf: Vec<u8>,
    next_req_id: u32,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            decoder: Decoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            next_req_id: 1,
        })
    }

    /// Point lookup; `None` for an absent key.
    pub fn get(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        match self.call(Request::Get { key: key.into() })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Insert/overwrite one key. Returns once the server acked — which,
    /// for a durable store, means once the write is fsync-covered
    /// (PROTOCOL.md §6).
    pub fn put(&mut self, key: &str, value: &[u8]) -> io::Result<()> {
        match self.call(Request::Put {
            key: key.into(),
            value: value.to_vec(),
        })? {
            Response::Applied(_) => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Delete one key (acked when durable, like [`Client::put`]).
    pub fn del(&mut self, key: &str) -> io::Result<()> {
        match self.call(Request::Del { key: key.into() })? {
            Response::Applied(_) => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Apply a [`WriteBatch`] atomically; returns the op count the server
    /// applied. One ack covers the whole batch.
    pub fn batch(&mut self, batch: &WriteBatch) -> io::Result<u32> {
        match self.call(Request::from_write_batch(batch))? {
            Response::Applied(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Durability barrier: returns once every deferred durability op the
    /// server had issued before this request has completed.
    pub fn sync(&mut self) -> io::Result<()> {
        match self.call(Request::Sync)? {
            Response::Synced => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Server observability snapshot (`{"net":{..},"store":{..}}` JSON).
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected(&other)),
        }
    }

    /// Send one request and block for its response. Exposed so tests (and
    /// protocol tooling) can exercise raw requests; the typed methods
    /// above are this plus a shape check.
    pub fn call(&mut self, request: Request) -> io::Result<Response> {
        let opcode = request.opcode();
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1);
        let frame = Frame::new(opcode as u8, req_id, request.encode_payload());
        self.stream.write_all(&frame.encode())?;
        let reply = self.read_frame()?;
        if reply.req_id != req_id || reply.opcode != opcode as u8 || reply.version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "response envelope mismatch: sent op {} req {}, got op {} req {}",
                    opcode as u8, req_id, reply.opcode, reply.req_id
                ),
            ));
        }
        Response::decode(opcode, &reply.payload)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response payload"))
    }

    /// Block until one complete response frame arrives.
    fn read_frame(&mut self) -> io::Result<Frame> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let fed = n;
            let buf = std::mem::take(&mut self.read_buf);
            self.decoder.feed(&buf[..fed]);
            self.read_buf = buf;
        }
    }
}

fn unexpected(resp: &Response) -> io::Error {
    let kind = match resp {
        Response::Err(code) if *code == status::ERR_MALFORMED => io::ErrorKind::InvalidInput,
        Response::Err(_) => io::ErrorKind::Unsupported,
        _ => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, format!("unexpected response: {resp}"))
}
