//! `ad-kv-server` — serve an `ad-kv` store over TCP.
//!
//! ```text
//! cargo run --release -p ad-net --bin ad-kv-server -- \
//!     --wal /tmp/ad.wal --workers 8
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:4790`).
//! * `--workers N` — the maximum number of concurrent connections, each
//!   served on its own thread (default 4).
//! * `--wal PATH` — write-ahead log file; without it the store is
//!   volatile (no durability, mutating requests ack immediately). With
//!   it the store checkpoints itself every 8 MiB of log, so neither the
//!   log nor a restart's replay grows without bound (DESIGN.md §13).
//!   Concurrent writes share fsyncs (group commit, DESIGN.md §9).
//! * `--shards N` — store shard count (default 16, at least 1).
//! * `--trace` — enable the runtime event ring (OBSERVABILITY.md); the
//!   STATS opcode then returns filled histograms.
//!
//! A flag whose value is missing or does not parse is an error (exit
//! status 2), never a silent default: `--wal` with the path forgotten must
//! not serve a volatile store.
//!
//! The wire protocol is specified in `PROTOCOL.md`; with a WAL the server
//! acks a mutating request only after its redo record is fsync-covered
//! (PROTOCOL.md §6).

use std::sync::Arc;

use ad_kv::{CkptPolicy, KvConfig, KvStore, SyncPolicy};
use ad_net::{Server, ServerConfig};
use ad_support::args::{arg_flag, arg_num, arg_value};

/// WAL growth, in MiB, between two checkpoints of a served durable store.
const CKPT_WAL_MIB: u64 = 8;

fn main() {
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:4790".to_string());
    let workers = arg_num("--workers", 4usize).max(1);
    let shards: usize = arg_num("--shards", 16);
    if shards == 0 {
        eprintln!("--shards: expected a count of at least 1");
        std::process::exit(2);
    }
    let (config, mode) = match arg_value("--wal") {
        Some(path) => (
            KvConfig::durable(path, SyncPolicy::GroupCommit).with_ckpt(CkptPolicy::Auto {
                wal_bytes: CKPT_WAL_MIB << 20,
            }),
            format!("durable: ack implies fsynced, checkpoint every {CKPT_WAL_MIB} MiB of log"),
        ),
        None => (KvConfig::volatile(), "volatile".to_string()),
    };
    let config = config.with_shards(shards);
    let store = Arc::new(KvStore::open(config).unwrap_or_else(|e| {
        eprintln!("opening store: {e}");
        std::process::exit(1);
    }));
    if let Some(report) = store.recovery_report() {
        println!(
            "recovered {} records (last seq {})",
            report.records, report.last_seq
        );
    }
    if arg_flag("--trace") {
        store.runtime().set_tracing(true);
    }

    let server =
        Server::start(store, addr.as_str(), ServerConfig { workers }).unwrap_or_else(|e| {
            eprintln!("binding {addr}: {e}");
            std::process::exit(1);
        });
    println!(
        "ad-kv-server listening on {} ({workers} workers, {mode})",
        server.local_addr(),
    );

    // Serve until killed. The accept loop and handlers run on their own
    // threads; parking the main thread keeps the process alive without
    // spinning.
    loop {
        std::thread::park();
    }
}
