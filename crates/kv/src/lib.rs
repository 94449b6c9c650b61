//! # ad-kv — a durable transactional key-value store built on atomic deferral
//!
//! The paper's headline use case (§5.2, "transactional I/O") turned into a
//! working subsystem: a sharded in-memory KV store whose mutating
//! transactions are made **durable** with `atomic_defer` instead of
//! irrevocability.
//!
//! ## How a write becomes durable
//!
//! 1. The client's transaction updates the `TVar`s of the shards it
//!    touches — a key's value cell, and its bucket when a key comes or
//!    goes (each shard is a [`ad_defer::Defer`]-wrapped object, so every
//!    access subscribes to the shard's implicit `TxLock`).
//! 2. The same transaction calls `atomic_defer` over the touched shards
//!    with an operation that appends the pre-encoded redo record to the
//!    write-ahead log and waits for the covering `fsync` — the one-step
//!    plan of [`KvStore::commit`], the single commit pipeline every
//!    mutation (including `ad-shard`'s two-phase commit) goes through.
//! 3. At commit the shard locks become visible atomically with the
//!    updates; the deferred append then runs *outside* the transaction —
//!    no quiescence stall, no serial-mode irrevocability — while the locks
//!    keep every other transaction from observing the not-yet-durable
//!    state. The client call returns only after the deferred operation
//!    (and hence the fsync) completed: **ack implies durable**.
//!
//! Concurrent committers coalesce: the WAL's group-commit protocol batches
//! all records pending at the moment a leader syncs, so N concurrent
//! commits cost one `fsync`, not N ([`wal`]).
//!
//! ## Crash recovery
//!
//! [`KvStore::open`] runs two-tier recovery: load the newest valid
//! checkpoint snapshot (CRC-validated, all-or-nothing, falling back to
//! the previous snapshot), then scan the WAL segments, truncate the torn
//! tail (checksums + contiguous sequence numbers decide validity), and
//! replay only the suffix past the snapshot's cut. One redo record is one
//! transaction, so recovery can never resurrect half of a multi-key
//! write — see [`recover`], [`checkpoint`], and the crash-matrix tests in
//! `tests/recovery.rs` and `tests/ckpt_recovery.rs`.
//!
//! ## Bounding the log
//!
//! Without checkpoints the WAL grows forever and recovery replays
//! everything. [`KvStore::checkpoint`] (or [`CkptPolicy::Auto`]) publishes
//! an atomic snapshot of the committed-durable state — recovery's own
//! scan over the closed files below a quiescent cut of the log,
//! re-encoded — and then drops the WAL segments the snapshot covers:
//! bounded log, bounded recovery ([`checkpoint`]).
//!
//! ## Example
//!
//! ```
//! use ad_kv::{KvConfig, KvStore, WriteBatch};
//!
//! let store = KvStore::open(KvConfig::volatile()).unwrap();
//! store.put("alice", b"100");
//! store.write_batch(&WriteBatch::new().put("bob", b"50").delete("alice"));
//! assert_eq!(store.get("bob").as_deref(), Some(&b"50"[..]));
//! assert_eq!(store.get("alice"), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod disk;
mod index;
pub mod recover;
pub mod store;
pub mod wal;

/// Loom-style model of the durability protocol: concurrent group-commit
/// appenders vs. a crash-point observer recovering arbitrary disk images.
/// Compiled only under `RUSTFLAGS="--cfg loom"` test builds — see
/// VERIFICATION.md.
#[cfg(all(test, loom))]
mod verify;

pub use checkpoint::{
    Checkpointer, CkptPolicy, CkptReport, CkptStats, CKPT_BEGIN, CKPT_PUBLISH, WAL_TRUNCATE,
};
pub use disk::{Disk, DiskFile, FileDisk, MemDisk};
pub use recover::{RecoveryReport, RedoKind, RedoOps, RedoRecord, ScanEnd, SnapshotSource};
pub use store::{CommitStep, Durability, KvConfig, KvStore, WriteBatch};
pub use wal::{SyncPolicy, Wal, WalStats, WAL_APPEND, WAL_FSYNC};

// Re-exported so connection-facing callers (`ad-net`) can name the handle
// `commit` returns without depending on `ad-defer`.
pub use ad_defer::DeferHandle;
