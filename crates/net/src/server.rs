//! The `ad-kv` network server: one thread per connection, whose
//! handlers turn wire requests into store transactions — and whose acks
//! for mutating requests are written **only after the request's deferred
//! durability work resolved**.
//!
//! ## Threading model
//!
//! One dedicated accept thread takes connections off a `TcpListener` and
//! runs each on a thread of its own that owns the socket until the
//! client disconnects. Backpressure composes from two layers:
//!
//! * **Connection admission** — at most [`ServerConfig::workers`]
//!   connections are served at once. The accept thread waits for a free
//!   slot *before* it calls `accept`, so excess connections wait in the
//!   kernel backlog instead of accumulating server-side state (DESIGN.md
//!   §12.3). A handler frees its slot when it returns or panics.
//! * **Durability under load** — a mutating request's deferred WAL append
//!   runs on the handler thread that committed it (DESIGN.md §10), so a
//!   slow or saturated log slows down exactly the connection that
//!   generated the load; group commit lets concurrent handlers share one
//!   fsync.
//!
//! ## The ack gate
//!
//! PUT/DEL/BATCH run [`KvStore::write_batch`], which returns only after
//! the batch's deferred append and its covering fsync ran on this
//! thread, with the touched shards' `TxLock`s held from the commit until
//! then. The response bytes therefore cannot reach the socket until the
//! redo record is durable — "acked ⇒ durable" as a *wire* property
//! (PROTOCOL.md §6). On a durable store the handler marks the moment with
//! an [`ACK_AFTER_DURABLE`] trace event, which
//! `tests/server.rs::every_ack_follows_its_wal_append_on_the_wire` checks
//! against the `wal_append` timeline.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ad_kv::{KvStore, WriteBatch};
use ad_stm::AppEvent;
use ad_support::sync::atomic::{AtomicBool, Ordering};
use ad_support::sync::{Condvar, Mutex};
use ad_support::tsc;

use crate::frame::{Decoder, Frame, VERSION};
use crate::proto::{status, Request, Response};
use crate::stats::{NetStats, NetStatsSnapshot};

/// How long a connection handler blocks in `read` before re-checking the
/// shutdown flag. Bounds how stale a shutdown can go unnoticed; invisible
/// to clients (a timeout just loops).
const READ_TICK: Duration = Duration::from_millis(250);

/// Trace event: the server emitted a client acknowledgement *after* the
/// request's deferred durability work ran (between `write_batch`
/// returning and the response bytes being written); `arg` = the request
/// id being acked. On a merged timeline every one of
/// these must causally follow the `wal_fsync` that covered the request's
/// redo record — the wire-level restatement of the store's "ack ⇒ durable"
/// contract, asserted by `tests/server.rs`.
pub static ACK_AFTER_DURABLE: AppEvent = AppEvent::new("ack_after_durable", "req_id");

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections, each served on its own thread
    /// (clamped to at least 1). Further connections wait in the kernel
    /// backlog until one closes.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4 }
    }
}

struct Inner {
    store: Arc<KvStore>,
    /// Does the store have a WAL (so a write's ack follows an fsync)?
    durable: bool,
    stats: Arc<NetStats>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Connections being served; the accept thread waits on `freed`
    /// while it is at the cap.
    busy: Mutex<usize>,
    freed: Condvar,
}

/// A served connection's slot: dropping it — the handler returned or
/// panicked — frees the slot and wakes the accept thread.
struct Slot(Arc<Inner>);

impl Drop for Slot {
    fn drop(&mut self) {
        *self.0.busy.lock() -= 1;
        self.0.freed.notify_one();
    }
}

/// A running `ad-kv` server. Dropping it stops accepting, lets open
/// connections wind down (handlers notice shutdown within one read tick,
/// 250 ms), and joins every thread.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `store`, at most `config.workers` connections at a time.
    pub fn start(
        store: Arc<KvStore>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let inner = Arc::new(Inner {
            durable: store.wal_stats().is_some(),
            store,
            stats: Arc::new(NetStats::default()),
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            busy: Mutex::new(0),
            freed: Condvar::new(),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            let cap = config.workers.max(1);
            std::thread::Builder::new()
                .name("ad-net-accept".into())
                .spawn(move || accept_loop(&listener, &inner, cap))?
        };
        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The served store (for tests and embedders that also hold it).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.inner.store
    }

    /// Network counters so far.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.inner.stats.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // Unblock a listener parked in accept(): one throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The accept thread: take a slot, then a connection, and serve it on a
/// thread of its own; on shutdown, join every handler.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>, cap: usize) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        {
            let mut busy = inner.busy.lock();
            while *busy >= cap {
                inner.freed.wait(&mut busy);
            }
            *busy += 1;
        }
        let slot = Slot(Arc::clone(inner));
        let stream = loop {
            if inner.shutdown.load(Ordering::Relaxed) {
                break None;
            }
            // Transient accept errors (EMFILE, aborted handshake) should
            // not kill the server.
            if let Ok((stream, _)) = listener.accept() {
                break Some(stream);
            }
        };
        // A stream accepted after shutdown is `Drop`'s wake-up connection.
        let Some(stream) = stream.filter(|_| !inner.shutdown.load(Ordering::Relaxed)) else {
            break;
        };
        inner.stats.on_accept();
        // A finished handler's result is dropped unread, as the joins
        // below drop theirs: its slot is already free, and a panic in it
        // was printed by the panic hook and ended only that connection.
        handlers.retain(|h| !h.is_finished());
        // A refused spawn drops the closure, and with it the stream and
        // the slot: that client sees its connection close.
        let spawned = std::thread::Builder::new()
            .name("ad-net-conn".into())
            .spawn(move || handle_connection(stream, &slot.0));
        if let Ok(handle) = spawned {
            handlers.push(handle);
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serve one connection until EOF, a structural frame error, or shutdown.
fn handle_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut stream = stream;
    let mut decoder = Decoder::new();
    let mut read_buf = [0u8; 64 * 1024];
    let mut write_buf = Vec::new();

    loop {
        match stream.read(&mut read_buf) {
            Ok(0) => return, // client closed
            Ok(n) => decoder.feed(&read_buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    let t0 = tsc::now_ns();
                    let response = serve(inner, &frame);
                    if response.status() != status::OK {
                        inner.stats.on_status_error();
                    }
                    write_buf.clear();
                    Frame::new(frame.opcode, frame.req_id, response.encode_payload())
                        .encode_into(&mut write_buf);
                    // Counted before the write: once the client holds the
                    // response, the request is guaranteed visible in the
                    // counters (tests rely on this).
                    inner.stats.on_request(tsc::now_ns().saturating_sub(t0));
                    if stream.write_all(&write_buf).is_err() {
                        return; // client gone mid-response
                    }
                }
                Err(_) => {
                    // Structural error: the stream cannot be re-synced, and
                    // anything we write may land mid-frame from the
                    // client's perspective. Count it and close.
                    inner.stats.on_frame_error();
                    return;
                }
            }
        }
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Execute one well-framed request. Mutations return only after their
/// deferred durability work resolved — see the module docs.
fn serve(inner: &Inner, frame: &Frame) -> Response {
    if frame.version != VERSION {
        return Response::Err(status::ERR_BAD_VERSION);
    }
    let request = match Request::decode(frame.opcode, &frame.payload) {
        Ok(r) => r,
        Err(code) => return Response::Err(code),
    };
    let store = &inner.store;
    match request {
        Request::Get { key } => Response::Value(store.get(&key).map(|v| v.to_vec())),
        Request::Put { key, value } => write(inner, frame.req_id, vec![(key, Some(value))]),
        Request::Del { key } => write(inner, frame.req_id, vec![(key, None)]),
        Request::Batch { ops } => write(inner, frame.req_id, ops),
        Request::Sync => {
            store.sync();
            Response::Synced
        }
        Request::Stats => Response::Stats(format!(
            "{{\"net\":{},\"store\":{}}}",
            inner.stats.snapshot().to_json(),
            store.stats_json(),
        )),
    }
}

/// Every mutating request is one batch through the ack gate: commit and
/// run the deferred append and fsync, then mark the timeline. A volatile
/// store or an empty batch has no durability to mark.
fn write(inner: &Inner, req_id: u32, ops: ad_kv::RedoOps) -> Response {
    let count = ops.len() as u32;
    inner.store.write_batch(&WriteBatch::from_ops(ops));
    if inner.durable && count > 0 {
        inner
            .store
            .runtime()
            .trace_app(&ACK_AFTER_DURABLE, u64::from(req_id));
    }
    Response::Applied(count)
}
