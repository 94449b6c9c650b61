//! # ad-net — the network front door for `ad-kv`
//!
//! The store's "ack ⇒ durable" contract (DESIGN.md §9), extended across a
//! socket: a TCP server whose response to a mutating request is written
//! only after that request's deferred WAL fsync ran, with the touched
//! shards' `TxLock`s held from the commit until then. Between
//! commit and ack no other transaction — local or arriving over another
//! connection — can observe the not-yet-durable state, so the wire
//! protocol inherits the paper's 2PL argument unchanged (DESIGN.md §12).
//!
//! The wire format is specified normatively in `PROTOCOL.md` at the repo
//! root; [`frame`] implements the envelope (length-prefixed, CRC-32
//! guarded), [`proto`] the opcode semantics (GET / PUT / DEL / BATCH /
//! SYNC / STATS). [`server`] and [`client`] are the two endpoints, and
//! [`stats`] the server's observability counters (OBSERVABILITY.md
//! "Network counters").
//!
//! One binary ships with the crate: `ad-kv-server` — serve a store over
//! TCP (`--addr`, `--workers`, `--wal`; README "Serving the KV
//! store"). Load is generated, and the server measured, by `benchmark/`'s
//! `net_update` and `net_read` workloads; the wire contract is gated by
//! `tests/server.rs`.
//!
//! ## Example (loopback)
//!
//! ```
//! use std::sync::Arc;
//! use ad_kv::{KvConfig, KvStore};
//! use ad_net::{Client, Server, ServerConfig};
//!
//! let store = Arc::new(KvStore::open(KvConfig::volatile()).unwrap());
//! let server = Server::start(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put("k", b"v").unwrap();
//! assert_eq!(client.get("k").unwrap().as_deref(), Some(&b"v"[..]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::Client;
pub use frame::{Decoder, Frame, FrameError, MAX_FRAME_LEN, VERSION};
pub use proto::{Opcode, Request, Response};
pub use server::{Server, ServerConfig, ACK_AFTER_DURABLE};
pub use stats::{NetStats, NetStatsSnapshot};
