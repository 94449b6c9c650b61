//! The store: sharded `TVar` buckets behind `Defer` handles, with WAL
//! durability via `atomic_defer`.
//!
//! ## Data layout
//!
//! Keys hash (FNV-1a; finalized for the shard index, so that it is
//! independent of a shard router partitioning on the same hash) to one of
//! `shards` shards; within a shard, to one of `buckets_per_shard` buckets. A bucket
//! is an immutable sorted `Arc<Vec<(key, cell)>>` held in a `TVar`, and a
//! *cell* is the key's own `TVar` holding its value. A read takes the
//! bucket (an `Arc` bump), binary-searches it and reads the cell. A put on
//! a present key writes only that cell, so it conflicts with no reader or
//! writer of another key in the bucket; the bucket is cloned and replaced
//! only when one of its keys appears or disappears.
//!
//! The cell rule: a cell is reached only through the bucket that names it,
//! inside the shard's [`Defer::with`] — so a cell is exactly as visible as
//! its bucket, and everything said below about the shard locks holds for
//! values unchanged. A deleted key's cell is not written; it is freed with
//! the last bucket version that names it, and a key put again later gets a
//! new cell.
//!
//! Hashing scatters neighbouring keys, so beside the buckets the store
//! keeps an ordered *key index* (`index.rs`): a `TVar` directory of
//! sorted leaves holding every live key — the buckets' own `Arc<str>`s —
//! and no values. A range read walks the index for its keys and then reads
//! only the buckets and cells that hold them; a point read never touches
//! it, and neither does a write that only overwrites, since the set of
//! keys did not change. The index has no lock of its own. Its leaves are written
//! only by the transaction of [`KvStore::commit`] — the one that acquires
//! the `TxLock` of every shard whose keys appear or disappear — and read
//! only by transactions that first subscribed to *every* shard, so an
//! index entry is exactly as visible as the bucket entry it names: a scan
//! cannot learn that a key came or went before the batch that did it is
//! durable. (Subscribing to just the shards of the keys a scan finds
//! would miss the shard of a key it no longer finds.)
//!
//! Each shard (not each bucket) is a [`Defer`]-wrapped object: transactions
//! reach the bucket `TVar`s through [`Defer::with`], which subscribes to
//! the shard's implicit `TxLock`. That is the granularity at which deferred
//! WAL appends exclude observers — fine enough that writers to different
//! shards coalesce their fsyncs concurrently, coarse enough that the lock
//! table stays small. `trace::contention_report` on a traced run shows
//! whether the default shard count spreads load (see
//! `concurrent_durable_writes_all_survive_recovery` in `tests/kv_store.rs`).
//!
//! ## Write protocol
//!
//! Every mutation is one call of [`KvStore::commit`] with a *plan*: an
//! ordered list of [`CommitStep`]s. The plan is lowered *before* entering
//! the transaction (records encoded once — re-execution on conflict must
//! not re-serialize), then in one transaction: `atomic_defer` over the
//! touched shards (first, per the ordering discipline for
//! potentially-irrevocable transactions), then the bucket updates. The
//! single deferred operation runs the steps in order. This is the paper's
//! two-phase-locking argument, stated once: every shard `TxLock` is
//! acquired by the commit point and afterwards only released — when the
//! last step returns — so commit + every step is one atomic event as far
//! as any other transaction can tell. A plain write is the one-step plan
//! `[Log(Local)]`: append the redo record and block until its covering
//! fsync returns, so [`KvStore::write_batch`] acks only durable writes.
//! The cross-shard protocol (`ad-shard`) is three longer plans over the
//! same step kinds: one logs a record that carries a rider of bytes it
//! computes when the step runs, and one ends in a log step that does not
//! wait.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use ad_defer::{atomic_defer_as, Defer, Deferrable, LockClass};
use ad_stm::{Runtime, StmResult, TVar, TmConfig, Tx};
use ad_support::hash::{fnv1a64, mix64};
use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::{Condvar, Mutex};

use crate::checkpoint::{Checkpointer, CkptPolicy, CkptReport, CkptStats};
use crate::disk::{Disk, FileDisk, MemDisk};
use crate::index::{Index, KeyDelta};
use crate::recover::{encode_record, KeyMap, RecoveryReport, RedoKind};
use crate::wal::{SyncPolicy, Wal, WalStats};

/// Whether (and how) the store persists writes.
#[derive(Debug, Clone)]
pub enum Durability {
    /// No WAL: pure in-memory transactional store. The baseline that
    /// isolates STM cost from I/O cost (`benchmark/`'s `kv_volatile`).
    Volatile,
    /// Write-ahead log at `path`, recovered on open, synced per `sync`.
    Durable {
        /// WAL file path (created if absent, recovered if present).
        path: PathBuf,
        /// The WAL flush policy (group commit).
        sync: SyncPolicy,
    },
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Number of shards — the lock granularity for deferred WAL appends.
    pub shards: usize,
    /// Hash buckets per shard.
    pub buckets_per_shard: usize,
    /// Persistence mode.
    pub durability: Durability,
    /// Checkpoint policy (only meaningful for durable stores).
    pub ckpt: CkptPolicy,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            shards: 16,
            buckets_per_shard: 64,
            durability: Durability::Volatile,
            ckpt: CkptPolicy::Manual,
        }
    }
}

impl KvConfig {
    /// In-memory store with default sharding.
    pub fn volatile() -> Self {
        Self::default()
    }

    /// Durable store with default sharding.
    pub fn durable(path: impl Into<PathBuf>, sync: SyncPolicy) -> Self {
        KvConfig {
            durability: Durability::Durable {
                path: path.into(),
                sync,
            },
            ..Self::default()
        }
    }

    /// Override the shard count; `buckets_per_shard` is left as it is.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the checkpoint policy ([`CkptPolicy::Auto`] starts a
    /// background trigger thread on open).
    pub fn with_ckpt(mut self, ckpt: CkptPolicy) -> Self {
        self.ckpt = ckpt;
        self
    }
}

/// An atomic multi-key write: puts and deletes that commit — and become
/// durable — together or not at all.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    pub(crate) ops: Vec<(String, Option<Vec<u8>>)>,
}

impl WriteBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a put. Later ops on the same key win.
    pub fn put(mut self, key: impl Into<String>, value: impl Into<Vec<u8>>) -> Self {
        self.ops.push((key.into(), Some(value.into())));
        self
    }

    /// Add a delete.
    pub fn delete(mut self, key: impl Into<String>) -> Self {
        self.ops.push((key.into(), None));
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The operations in application order: `(key, Some(value))` for a put,
    /// `(key, None)` for a delete. This is the accessor the `ad-net` wire
    /// codec uses to frame a BATCH request without re-modelling the batch.
    pub fn ops(&self) -> impl Iterator<Item = (&str, Option<&[u8]>)> {
        self.ops.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Build a batch from decoded redo ops — the shape cross-shard
    /// slices travel in (`ad-shard` transport frames, recovered
    /// [`RedoRecord`](crate::RedoRecord)s).
    pub fn from_ops(ops: crate::recover::RedoOps) -> Self {
        WriteBatch { ops }
    }
}

/// Bytes a [`CommitStep::LogRider`] record carries for the layer above,
/// computed when the step runs. Shareable across the re-executions of a
/// transaction body, like a [`CommitStep::Call`].
pub type Rider = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// The class a store's shard `TxLock`s are held in by
/// [`KvStore::commit`]: its `txlock_hold_ns` and `txlock_blocked_ns`
/// ([`ad_defer::class`]) are what durable writes cost the readers of
/// their shards.
pub static SHARD_LOCKS: LockClass = LockClass::new("store_shard");

/// One step of a commit plan — see [`KvStore::commit`]. Steps run in
/// order, once, after the transaction committed, while the `TxLock` of
/// every shard the batch touches is still held.
#[derive(Clone)]
pub enum CommitStep {
    /// Encode the batch as a record of this kind, append it to the WAL and
    /// block for its covering fsync. Recovery replays the record's ops. A
    /// volatile store has no log, so there the step is nothing.
    Log(RedoKind),
    /// [`Log`](Self::Log) of a [`RedoKind::Decided`] record for `gid` that
    /// also carries the bytes `rider` returns, called when the step runs —
    /// after the steps before it, which may be what decides them. Recovery
    /// replays the record's ops, never the rider, and hands the rider back
    /// unread ([`KvStore::take_recovered_decided`]).
    LogRider {
        /// Global cross-shard transaction id.
        gid: u64,
        /// The record's tail, computed when the step runs.
        rider: Rider,
    },
    /// [`Log`](Self::Log) without the wait: the record takes its place in
    /// the WAL's order, but the step returns before any fsync — the record
    /// is written with the next batch on this log, a checkpoint, the
    /// store's drop, or once the log holds [`PREALLOC_CHUNK`] of unwritten
    /// records. Only for a record a crash can afford to lose because its
    /// content is durable elsewhere: a participant's [`RedoKind::Decided`]
    /// echo of a slice its coordinator's record carries (`ad-shard`,
    /// DESIGN.md §14).
    ///
    /// [`PREALLOC_CHUNK`]: crate::wal::PREALLOC_CHUNK
    LogUnforced(RedoKind),
    /// Run a callback. It may block (on a peer, a channel): the shard
    /// locks wait with it. `Arc<dyn Fn>` because the transaction body may
    /// re-run on conflict — the deferred operation holding the callback is
    /// rebuilt per attempt and runs once, post-commit.
    Call(Arc<dyn Fn() + Send + Sync>),
}

impl CommitStep {
    /// A [`CommitStep::Call`] of `f`.
    pub fn call(f: impl Fn() + Send + Sync + 'static) -> Self {
        CommitStep::Call(Arc::new(f))
    }
}

/// A [`CommitStep`] lowered for one batch: the record already encoded, the
/// store's durable tier already resolved.
enum Lowered {
    Append {
        log: Arc<DurableTier>,
        payload: Vec<u8>,
        rider: Option<Rider>,
        forced: bool,
    },
    Call(Arc<dyn Fn() + Send + Sync>),
}

/// The deferred half of [`KvStore::commit`]: every step, in order. Built
/// outside the `atomically` closure so that what blocks here is — also
/// lexically — not part of the retryable transaction body.
fn run_steps(rt: Arc<Runtime>, plan: Arc<[Lowered]>) -> impl FnOnce() + Send + 'static {
    move || {
        for step in plan.iter() {
            match step {
                Lowered::Append {
                    log,
                    payload,
                    rider,
                    forced,
                } => match rider {
                    None => log.append(payload, *forced, &rt),
                    Some(rider) => {
                        let mut record = payload.clone();
                        record.extend_from_slice(&rider());
                        log.append(&record, *forced, &rt);
                    }
                },
                Lowered::Call(f) => f(),
            }
        }
    }
}

/// A key's value, in a `TVar` of its own so that an overwrite writes only
/// it. Reached only through the bucket that names it (module docs, "Data
/// layout").
type Cell = TVar<Arc<[u8]>>;

type Entry = (Arc<str>, Cell);

/// A sorted immutable bucket of keys and their cells; clone-and-replaced
/// only when a key comes or goes.
type Bucket = Arc<Vec<Entry>>;

/// One row a read returns.
type Row = (Arc<str>, Arc<[u8]>);

/// The op that wins on one key of a batch — its last — and where it lands:
/// `(shard, bucket, key, Some(value) for a put or None for a delete)`.
type Placed<'a> = (usize, usize, &'a str, Option<&'a [u8]>);

/// One shard: the deferrable unit. Its implicit `TxLock` (via `Defer`)
/// is what deferred WAL appends hold.
struct Shard {
    buckets: Vec<TVar<Bucket>>,
}

/// `(shard, bucket)` of `key`. The shard index — which `TxLock` — comes
/// from the finalized hash: taken from `fnv1a64(key)` itself it would
/// correlate with `fnv1a64(key) % n`, the shard router's partition
/// function, and a store behind a 2-way router would see keys on only half
/// of its shard locks. The bucket index keeps the raw high bits, which
/// clump: a bucket holds tens of keys. That costs a write nothing — an
/// overwrite writes its key's cell, and only an insert or delete rewrites
/// the bucket — while spreading the buckets would make a bulk load touch
/// most of them and retire as many bucket versions per commit. Key *order*
/// is the index's business (`index.rs`), not the placement's.
fn locate(key: &str, shards: usize, buckets_per_shard: usize) -> (usize, usize) {
    let h = fnv1a64(key.as_bytes());
    (
        (mix64(h) as u32 as usize) % shards,
        ((h >> 32) as usize) % buckets_per_shard,
    )
}

/// `old` with one bucket's ops applied — `ops` in key order, each key once
/// — and the keys that appeared or disappeared appended to `delta`. A key
/// that stays keeps its cell (an overwrite has written it already); a new
/// key gets a new cell.
fn merged(old: &[Entry], ops: &[Placed], delta: &mut Vec<KeyDelta>) -> Vec<Entry> {
    let mut out = Vec::with_capacity(old.len() + ops.len());
    let mut rest = old.iter().peekable();
    for &(.., key, value) in ops {
        while let Some(e) = rest.next_if(|(k, _)| **k < *key) {
            out.push(e.clone());
        }
        match (rest.next_if(|(k, _)| **k == *key), value) {
            (Some(e), Some(_)) => out.push(e.clone()),
            (Some((k, _)), None) => delta.push((Arc::clone(k), false)),
            (None, Some(v)) => {
                let k: Arc<str> = Arc::from(key);
                delta.push((Arc::clone(&k), true));
                out.push((k, TVar::new(Arc::from(v))));
            }
            (None, None) => {}
        }
    }
    out.extend(rest.cloned());
    out
}

/// Wakeup channel between deferred ops (which notice the WAL crossed a
/// threshold) and the background checkpoint thread (which does the I/O: a
/// checkpoint reads and writes whole files, and a deferred op runs with
/// shard locks held — every reader of those shards would wait for it).
#[derive(Default)]
struct CkptSignal {
    state: Mutex<CkptWake>,
    cv: Condvar,
}

#[derive(Default)]
struct CkptWake {
    shutdown: bool,
    kicked: bool,
}

impl CkptSignal {
    fn wake(&self, set: impl FnOnce(&mut CkptWake)) {
        set(&mut self.state.lock());
        self.cv.notify_all();
    }
}

/// Everything a durable store has and a volatile one lacks.
struct DurableTier {
    wal: Arc<Wal>,
    ckpt: Arc<Checkpointer>,
    /// Present under [`CkptPolicy::Auto`]: wakes the trigger thread.
    auto: Option<Arc<CkptSignal>>,
}

impl DurableTier {
    /// Log one record — durably when `forced`, else merely in order: the
    /// only place the store logs.
    fn append(&self, payload: &[u8], forced: bool, rt: &Runtime) {
        if forced {
            self.wal.append_durable(payload, rt);
        } else {
            self.wal.append(payload, rt);
        }
        // Shard locks still held: checkpoint I/O must not run here — just
        // wake the worker.
        if let Some(signal) = &self.auto {
            if self.ckpt.should_trigger() {
                signal.wake(|w| w.kicked = true);
            }
        }
    }
}

/// The durable transactional KV store. Clone-free: share it via `Arc`.
pub struct KvStore {
    rt: Arc<Runtime>,
    shards: Vec<Defer<Shard>>,
    buckets_per_shard: usize,
    /// Every live key, in key order — guarded by the shard locks (module
    /// docs, "Data layout").
    index: Index,
    durable: Option<Arc<DurableTier>>,
    /// The [`CkptPolicy::Auto`] trigger thread and its wakeup channel.
    ckpt_worker: Option<(std::thread::JoinHandle<()>, Arc<CkptSignal>)>,
    next_txid: AtomicU64,
    recovery: Option<RecoveryReport>,
    /// Every [`RedoKind::Decided`] record of the recovered log, as
    /// `(gid, rider)` in log order, until the sharding layer takes them
    /// ([`take_recovered_decided`](KvStore::take_recovered_decided)).
    recovered_decided: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl Drop for KvStore {
    fn drop(&mut self) {
        if let Some((worker, signal)) = self.ckpt_worker.take() {
            signal.wake(|w| w.shutdown = true);
            let _ = worker.join();
        }
        // A clean close leaves nothing only in memory: an unforced record
        // is written here, so the log reopens needing no other shard's.
        // Not while unwinding — a WAL write error panics, and a second
        // panic would abort; what is lost then is what a crash loses.
        if let (Some(d), false) = (&self.durable, std::thread::panicking()) {
            d.wal.flush(&self.rt);
        }
    }
}

impl KvStore {
    /// Open a store: fresh for [`Durability::Volatile`]; for
    /// [`Durability::Durable`], two-tier recovery at `path` — load the
    /// newest valid snapshot (`{path}.ckpt.cur`, falling back to
    /// `.prev`), replay the WAL suffix with `seq > cut` across the
    /// segment files (`path`, `{path}.segN`), truncate any torn tail —
    /// and continue appending after it.
    pub fn open(config: KvConfig) -> io::Result<KvStore> {
        match &config.durability {
            Durability::Volatile => Ok(Self::bare(&config, &BTreeMap::new())),
            Durability::Durable { path, .. } => {
                Self::open_on(&config, Arc::new(FileDisk::new(path)))
            }
        }
    }

    /// Open on a [`MemDisk`] — same recovery, same checkpoint support,
    /// same protocol code as a file-backed open. The testing entry point
    /// for byte-exact crash images ([`MemDisk::crash_image`]).
    pub fn open_on_disk(
        config: &KvConfig,
        _sync: SyncPolicy,
        disk: MemDisk,
    ) -> (KvStore, RecoveryReport) {
        let store = Self::open_on(config, Arc::new(disk)).expect("MemDisk open");
        let report = store.recovery.clone().expect("durable open has a report");
        (store, report)
    }

    fn open_on(config: &KvConfig, disk: Arc<dyn Disk>) -> io::Result<KvStore> {
        let (wal, t) = Wal::open(Arc::clone(&disk))?;
        let mut store = Self::bare(config, &t.base);

        // The WAL suffix replays transactionally, one record per
        // transaction — deterministic replay, monotonic versions. A
        // cross-shard record replays its own ops; its gid and rider are
        // kept for the sharding layer (DESIGN.md §14.3).
        let mut max_txid = 0;
        let mut decided = Vec::new();
        for rec in t.records {
            max_txid = max_txid.max(rec.txid);
            let placed = store.place(&rec.ops);
            store.rt.atomically(|tx| store.apply_batch(tx, &placed));
            if let RedoKind::Decided { gid } = rec.kind {
                decided.push((gid, rec.rider));
            }
        }
        let report = t.report;
        store.recovered_decided = Mutex::new(decided);
        // txids are diagnostic, but keep them monotonic across
        // checkpointed restarts (snapshotted records' txids are gone;
        // the cut bounds them because txids are handed out per batch).
        let snapshot_cut = report.snapshot_cut;
        store.next_txid = AtomicU64::new(max_txid.max(snapshot_cut) + 1);
        store.recovery = Some(report);

        let wal = Arc::new(wal);
        let ckpt = Arc::new(Checkpointer::new(
            Arc::clone(&wal),
            disk,
            snapshot_cut,
            config.ckpt,
        ));
        let auto = matches!(config.ckpt, CkptPolicy::Auto { .. }).then(Arc::<CkptSignal>::default);
        if let Some(signal) = &auto {
            let (wake, ckpt, rt) = (Arc::clone(signal), Arc::clone(&ckpt), Arc::clone(&store.rt));
            let worker = std::thread::spawn(move || loop {
                {
                    let mut g = wake.state.lock();
                    while !g.shutdown && !g.kicked {
                        wake.cv.wait(&mut g);
                    }
                    if g.shutdown {
                        return;
                    }
                    g.kicked = false;
                }
                if let Err(e) = ckpt.run(&rt) {
                    eprintln!("ad-kv: background checkpoint failed: {e}");
                }
            });
            store.ckpt_worker = Some((worker, Arc::clone(signal)));
        }
        store.durable = Some(Arc::new(DurableTier { wal, ckpt, auto }));
        Ok(store)
    }

    /// A store with no durable tier whose buckets hold `base`.
    fn bare(config: &KvConfig, base: &KeyMap) -> KvStore {
        let (shards, buckets_per_shard) = (config.shards, config.buckets_per_shard);
        assert!(shards >= 1 && buckets_per_shard >= 1);
        // Bulk-load straight into the buckets: the store is not yet
        // shared, and BTreeMap order means each bucket's subsequence is
        // already sorted.
        let mut bucket_data: Vec<Vec<Vec<Entry>>> =
            vec![vec![Vec::new(); buckets_per_shard]; shards];
        for (k, v) in base {
            let (si, bi) = locate(k, shards, buckets_per_shard);
            bucket_data[si][bi].push((Arc::clone(k), TVar::new(Arc::clone(v))));
        }
        KvStore {
            rt: Arc::new(Runtime::new(TmConfig::stm())),
            shards: bucket_data
                .into_iter()
                .map(|buckets| {
                    Defer::new(Shard {
                        buckets: buckets
                            .into_iter()
                            .map(|entries| TVar::new(Arc::new(entries)))
                            .collect(),
                    })
                })
                .collect(),
            buckets_per_shard,
            index: Index::bulk_load(base.keys().cloned().collect()),
            durable: None,
            ckpt_worker: None,
            next_txid: AtomicU64::new(1),
            recovery: None,
            recovered_decided: Mutex::new(Vec::new()),
        }
    }

    fn locate(&self, key: &str) -> (usize, usize) {
        locate(key, self.shards.len(), self.buckets_per_shard)
    }

    fn read_in_tx(&self, tx: &mut Tx, key: &str) -> StmResult<Option<Arc<[u8]>>> {
        let (si, bi) = self.locate(key);
        self.shards[si].with(tx, |shard, tx| {
            let bucket = tx.read(&shard.buckets[bi])?;
            match bucket.binary_search_by(|(k, _)| (**k).cmp(key)) {
                Ok(pos) => tx.read(&bucket[pos].1).map(Some),
                Err(_) => Ok(None),
            }
        })
    }

    /// The op that wins on each key of a batch — the last — grouped by
    /// bucket, in key order within one.
    fn place<'a>(&self, ops: &'a [(String, Option<Vec<u8>>)]) -> Vec<Placed<'a>> {
        let mut placed: Vec<(usize, usize, &str, usize)> = ops
            .iter()
            .enumerate()
            .map(|(i, (key, _))| {
                let (si, bi) = self.locate(key);
                (si, bi, key.as_str(), i)
            })
            .collect();
        placed.sort_unstable_by_key(|&(si, bi, key, i)| (si, bi, key, std::cmp::Reverse(i)));
        placed.dedup_by_key(|p| p.2);
        placed
            .into_iter()
            .map(|(si, bi, key, i)| (si, bi, key, ops[i].1.as_deref()))
            .collect()
    }

    /// The one place the store's contents change: apply a batch — placed
    /// by [`place`](Self::place) — to the cells, the buckets and the
    /// index. A put on a present key writes only that key's cell. A bucket
    /// is cloned and replaced, once, only if one of its keys appears or
    /// disappears; those keys are collected on the way and each index leaf
    /// they fall in is rewritten once. A batch that only overwrites writes
    /// no bucket and never reads the index.
    fn apply_batch(&self, tx: &mut Tx, placed: &[Placed]) -> StmResult<()> {
        let mut delta: Vec<KeyDelta> = Vec::new();
        for group in placed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (si, bi, ..) = group[0];
            self.shards[si].with(tx, |shard, tx| {
                let var = &shard.buckets[bi];
                let old = tx.read(var)?;
                let mut keys_change = false;
                for &(.., key, value) in group {
                    match (old.binary_search_by(|(k, _)| (**k).cmp(key)), value) {
                        (Ok(pos), Some(v)) => tx.write(&old[pos].1, Arc::from(v))?,
                        (Ok(_), None) | (Err(_), Some(_)) => keys_change = true,
                        (Err(_), None) => {}
                    }
                }
                if keys_change {
                    tx.write(var, Arc::new(merged(&old, group, &mut delta)))?;
                }
                Ok(())
            })?;
        }
        delta.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.index.apply(tx, &delta)
    }

    /// Subscribe to every shard: what a transaction does before it reads
    /// the index, which any shard's writer may have changed.
    fn subscribe_all(&self, tx: &mut Tx) -> StmResult<()> {
        for shard in &self.shards {
            shard.with(tx, |_, _| Ok(()))?;
        }
        Ok(())
    }

    /// Point lookup (one transaction, subscribes to the key's shard — so a
    /// concurrent writer's not-yet-durable update is never returned).
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.rt.atomically(|tx| self.read_in_tx(tx, key))
    }

    /// Consistent multi-key lookup: all keys read in one transaction, so
    /// the result is a serializable snapshot even across shards.
    pub fn get_many(&self, keys: &[&str]) -> Vec<Option<Arc<[u8]>>> {
        self.rt.atomically(|tx| {
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                out.push(self.read_in_tx(tx, key)?);
            }
            Ok(out)
        })
    }

    /// Insert or overwrite one key. Returns after the write is durable
    /// (for durable stores).
    pub fn put(&self, key: &str, value: &[u8]) {
        self.write_batch(&WriteBatch::new().put(key, value));
    }

    /// Delete one key (no-op if absent — the delete is still logged).
    pub fn delete(&self, key: &str) {
        self.write_batch(&WriteBatch::new().delete(key));
    }

    /// Apply an atomic multi-key batch: the plan `[Log(Local)]` (see
    /// [`commit`](Self::commit)). Returns only after the batch's single
    /// redo record is fsync-covered: the deferred append runs on this
    /// thread before the commit returns. The touched shards stay locked
    /// from commit to durability, so no transaction ever observes an
    /// acked-but-volatile (or partially applied) batch.
    pub fn write_batch(&self, batch: &WriteBatch) {
        self.commit(batch, &[CommitStep::Log(RedoKind::Local)]);
    }

    /// **The** commit pipeline — every mutation of the store is a call of
    /// this function. In one transaction: `atomic_defer` over the shards
    /// `batch` touches, then apply `batch` to the buckets. The single
    /// deferred operation then runs `steps` in order.
    ///
    /// The shard `TxLock`s are acquired by the commit point and released
    /// only when the last step returned (two-phase locking, PAPER.md §1):
    /// to every other transaction, commit and all steps are one atomic
    /// event. In particular a read of a touched key blocks until the last
    /// step has run — it returns only values of transactions whose commit
    /// has completed, log records included.
    ///
    /// The steps run on the calling thread before `commit` returns, so
    /// there is nothing left to wait for. An empty batch touches no shard
    /// and runs no step; on a volatile store a plan of only
    /// [`CommitStep::Log`] steps defers nothing. The shard locks are held
    /// in [`SHARD_LOCKS`].
    pub fn commit(&self, batch: &WriteBatch, steps: &[CommitStep]) {
        self.commit_as(&SHARD_LOCKS, batch, steps);
    }

    /// [`commit`](Self::commit), holding the shard locks in `class` — for
    /// a layer above whose plans hold them for reasons of its own (a
    /// cross-shard batch waits on its peers).
    pub fn commit_as(&self, class: &'static LockClass, batch: &WriteBatch, steps: &[CommitStep]) {
        if batch.ops.is_empty() {
            return;
        }
        let txid = self.next_txid.fetch_add(1, Ordering::Relaxed);
        let placed = self.place(&batch.ops);
        // Lower the plan once, outside the transaction: conflict
        // re-execution must not redo the serialization work
        // (zero-allocation retry discipline) — it clones only `Arc`s.
        let plan: Vec<Lowered> = steps
            .iter()
            .filter_map(|step| match step {
                CommitStep::Call(f) => Some(Lowered::Call(Arc::clone(f))),
                CommitStep::Log(kind) | CommitStep::LogUnforced(kind) => {
                    self.durable.as_ref().map(|d| Lowered::Append {
                        log: Arc::clone(d),
                        payload: encode_record(*kind, txid, &batch.ops),
                        rider: None,
                        forced: matches!(step, CommitStep::Log(_)),
                    })
                }
                CommitStep::LogRider { gid, rider } => {
                    self.durable.as_ref().map(|d| Lowered::Append {
                        log: Arc::clone(d),
                        payload: encode_record(RedoKind::Decided { gid: *gid }, txid, &batch.ops),
                        rider: Some(Arc::clone(rider)),
                        forced: true,
                    })
                }
            })
            .collect();
        let deferred = (!plan.is_empty())
            .then(|| (Arc::<[Lowered]>::from(plan), self.touched_shards(&placed)));

        self.rt.atomically(|tx| {
            // Deferral first (lock acquisitions are transactional writes on
            // the TxLocks, but must precede data writes: if the contention
            // manager escalates this transaction to irrevocable, blocking
            // lock acquisition after an eager write would be fatal).
            if let Some((plan, locks)) = &deferred {
                let refs: Vec<&dyn Deferrable> =
                    locks.iter().map(|s| s as &dyn Deferrable).collect();
                atomic_defer_as(
                    tx,
                    class,
                    &refs,
                    run_steps(Arc::clone(&self.rt), Arc::clone(plan)),
                )?;
            }
            self.apply_batch(tx, &placed)
        })
    }

    /// The `Defer` handles of the shards a batch touches, each once, in
    /// shard order — the lock set for its deferred operation.
    fn touched_shards(&self, placed: &[Placed]) -> Vec<Defer<Shard>> {
        placed
            .chunk_by(|a, b| a.0 == b.0)
            .map(|shard| self.shards[shard[0].0].clone())
            .collect()
    }

    /// Take every [`RedoKind::Decided`] record the recovered log holds, as
    /// `(gid, rider)` in log order — the rider empty for a record logged
    /// without one. The sharding layer reconciles shards from them
    /// (DESIGN.md §14.3); a second call returns nothing.
    pub fn take_recovered_decided(&self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut *self.recovered_decided.lock())
    }

    /// Make everything logged so far durable: writes out any
    /// [`CommitStep::LogUnforced`] record still pending (every other
    /// record was durable before its commit returned). A no-op on a
    /// volatile store.
    pub fn sync(&self) {
        if let Some(d) = &self.durable {
            d.wal.flush(&self.rt);
        }
    }

    /// Range scan: all `(key, value)` pairs with `key >= start`, in key
    /// order, at most `limit` of them — one consistent snapshot across
    /// every shard.
    pub fn scan_from(&self, start: &str, limit: usize) -> Vec<(Arc<str>, Arc<[u8]>)> {
        if limit == 0 {
            return Vec::new();
        }
        self.rt.atomically(|tx| self.scan_in_tx(tx, start, limit))
    }

    /// [`scan_from`](Self::scan_from)'s transaction: every shard's lock,
    /// the index for the keys, then only the buckets that hold them and
    /// the keys' cells.
    fn scan_in_tx(&self, tx: &mut Tx, start: &str, limit: usize) -> StmResult<Vec<Row>> {
        self.subscribe_all(tx)?;
        let keys = self.index.keys_from(tx, start, limit)?;
        let mut rows = Vec::with_capacity(keys.len());
        for key in keys {
            let value = self.read_in_tx(tx, &key)?;
            debug_assert!(value.is_some(), "indexed key {key:?} has no value");
            // Index and buckets change in one transaction; should they
            // ever disagree, the buckets are the truth.
            if let Some(value) = value {
                rows.push((key, value));
            }
        }
        Ok(rows)
    }

    /// Full contents as an ordered map — one consistent snapshot. Test and
    /// recovery-verification helper; O(store size).
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.rt.atomically(|tx| {
            let mut out = BTreeMap::new();
            for shard in &self.shards {
                shard.with(tx, |s, tx| {
                    for var in &s.buckets {
                        let bucket = tx.read(var)?;
                        for (k, cell) in bucket.iter() {
                            out.insert(k.to_string(), tx.read(cell)?.to_vec());
                        }
                    }
                    Ok(())
                })?;
            }
            Ok(std::mem::take(&mut out))
        })
    }

    /// Number of live keys (consistent snapshot) — counted on the index,
    /// so a monitoring poll is not a full-table read.
    pub fn len(&self) -> usize {
        self.rt.atomically(|tx| {
            self.subscribe_all(tx)?;
            self.index.len(tx)
        })
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's STM runtime — for `set_tracing`, `snapshot_stats`,
    /// `take_trace`.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Shard count (the deferred-lock granularity).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// WAL counters, if durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.stats())
    }

    /// Take a checkpoint now: atomically publish a snapshot of the
    /// committed-durable state at a quiescent WAL cut and drop the WAL
    /// segments it covers. Returns `CkptReport { performed: false, .. }`
    /// when nothing new is durable since the last checkpoint,
    /// `ErrorKind::InvalidData` — having published and deleted nothing —
    /// when the closed log prefix no longer reads back whole, and
    /// `ErrorKind::Unsupported` on a volatile store, which has no
    /// durable tier to snapshot.
    ///
    /// Serving continues throughout: writers keep appending to the
    /// post-rotation segment and readers are never blocked (the snapshot
    /// is folded from the closed files below the cut, which no transaction
    /// writes).
    pub fn checkpoint(&self) -> io::Result<CkptReport> {
        match &self.durable {
            Some(d) => d.ckpt.run(&self.rt),
            None => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "a volatile store has no checkpoint tier",
            )),
        }
    }

    /// Checkpoint counters and the checkpoint-duration histogram, if
    /// this store has a checkpoint tier.
    pub fn ckpt_stats(&self) -> Option<CkptStats> {
        self.durable.as_ref().map(|d| d.ckpt.stats())
    }

    /// The checkpoint policy the store was opened with, or `None` for a
    /// volatile store.
    pub fn ckpt_policy(&self) -> Option<CkptPolicy> {
        self.durable.as_ref().map(|d| d.ckpt.policy())
    }

    /// One JSON object with everything a monitoring endpoint wants:
    /// `{"shards":..,"keys":..,"wal":{..}|null,"ckpt":{..}|null,"stm":{..},
    /// "txlocks":{..}}` — the WAL counters ([`Wal::stats_json`]), the
    /// checkpoint counters ([`CkptStats::to_json`], `null` when the store
    /// has no checkpoint tier), the runtime's full stats report
    /// ([`ad_stm::StatsReport::to_json`]), and every lock class's hold and
    /// blocked histograms, process-wide ([`ad_defer::txlock_stats_json`]).
    /// This is the payload of the `ad-net` STATS response (PROTOCOL.md
    /// §5.6), kept here so library embedders and the wire protocol serve
    /// identical schemas.
    pub fn stats_json(&self) -> String {
        format!(
            "{{\"shards\":{},\"keys\":{},\"wal\":{},\"ckpt\":{},\"stm\":{},\"txlocks\":{}}}",
            self.shards.len(),
            self.len(),
            self.durable
                .as_ref()
                .map_or_else(|| "null".to_string(), |d| d.wal.stats_json()),
            self.ckpt_stats()
                .map_or_else(|| "null".to_string(), |c| c.to_json()),
            self.rt.snapshot_stats().to_json(),
            ad_defer::txlock_stats_json(),
        )
    }

    /// What recovery found on open, if this store was opened from a log.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::disk::WAL_BASE;

    fn open_mem(disk: &MemDisk) -> (KvStore, RecoveryReport) {
        KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk.clone())
    }

    fn written(disk: &MemDisk) -> Vec<u8> {
        disk.written(WAL_BASE)
    }

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        assert_eq!(store.get("k"), None);
        store.put("k", b"v1");
        assert_eq!(store.get("k").as_deref(), Some(&b"v1"[..]));
        store.put("k", b"v2");
        assert_eq!(store.get("k").as_deref(), Some(&b"v2"[..]));
        store.delete("k");
        assert_eq!(store.get("k"), None);
        assert!(store.is_empty());
    }

    #[test]
    fn batch_is_atomic_and_scan_is_ordered() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(
            &WriteBatch::new()
                .put("c", b"3")
                .put("a", b"1")
                .put("b", b"2")
                .delete("a"),
        );
        assert_eq!(store.len(), 2);
        let scanned = store.scan_from("", 10);
        let keys: Vec<&str> = scanned.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec!["b", "c"]);
        assert_eq!(store.scan_from("c", 10).len(), 1);
        assert_eq!(store.scan_from("b", 1).len(), 1);
    }

    #[test]
    fn later_ops_in_a_batch_win() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(&WriteBatch::new().put("k", b"first").put("k", b"second"));
        assert_eq!(store.get("k").as_deref(), Some(&b"second"[..]));
    }

    #[test]
    fn an_overwrite_writes_no_bucket_and_conflicts_no_neighbour() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        let a = "n0";
        let b = (1..)
            .map(|i| format!("n{i}"))
            .find(|k| store.locate(k) == store.locate(a))
            .expect("some key shares a's bucket");
        let b = b.as_str();
        store.write_batch(&WriteBatch::new().put(a, b"a").put(b, b"b"));

        // An overwrite-only batch writes two cells: not their bucket, not
        // the index.
        let (si, bi) = store.locate(a);
        let bucket = &store.shards[si].peek_unsynchronized().buckets[bi];
        let versions = || (format!("{bucket:?}"), store.index.versions());
        let unwritten = versions();
        store.write_batch(&WriteBatch::new().put(a, b"a2").put(b, b"b2"));
        assert_eq!(versions(), unwritten);
        assert_eq!(store.get(b).as_deref(), Some(&b"b2"[..]));

        // A reader and writer of `a` beside a writer of `b`: the bucket both
        // keys live in is not a data item either transaction conflicts on.
        let conflicts = || store.runtime().snapshot_stats().counters.aborts_conflict;
        let before = conflicts();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..10_000u32 {
                    assert!(store.get(a).is_some());
                    store.put(a, &i.to_le_bytes());
                }
            });
            s.spawn(|| {
                start.wait();
                for i in 0..10_000u32 {
                    store.put(b, &i.to_le_bytes());
                }
            });
        });
        assert_eq!(conflicts() - before, 0, "conflict aborts");
        assert_eq!(store.get(b).as_deref(), Some(&9_999u32.to_le_bytes()[..]));
        assert_eq!(versions(), unwritten);
    }

    #[test]
    fn durable_put_is_synced_before_ack() {
        let mem = MemDisk::new();
        let (store, report) = open_mem(&mem);
        assert_eq!(report.records, 0);
        store.put("k", b"v");
        // The ack contract: by the time put() returned, the record is in
        // the *synced* prefix, not merely written.
        assert!(!mem.synced(WAL_BASE).is_empty());
        assert_eq!(mem.synced(WAL_BASE), written(&mem));
        let stats = store.wal_stats().unwrap();
        assert_eq!(stats.records, 1);
    }

    #[test]
    fn reopen_recovers_committed_state() {
        let mem = MemDisk::new();
        let (store, _) = open_mem(&mem);
        store.put("a", b"1");
        store.write_batch(&WriteBatch::new().put("b", b"2").put("c", b"3"));
        store.delete("a");
        let before = store.dump();
        drop(store);

        let image = mem.crash_image(mem.journal_len(), 0, true);
        let (reopened, report) = open_mem(&image);
        assert_eq!(report.records, 3);
        assert!(!report.torn());
        assert_eq!(reopened.dump(), before);
        // And the store is writable with continuing sequence numbers.
        reopened.put("d", b"4");
        assert_eq!(reopened.len(), 3);
    }

    #[test]
    fn file_backed_open_recovers_across_process_style_reopen() {
        let dir = std::env::temp_dir().join(format!("ad-kv-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.wal");
        let _ = std::fs::remove_file(&path);

        let cfg = KvConfig::durable(&path, SyncPolicy::GroupCommit);
        let store = KvStore::open(cfg.clone()).unwrap();
        store.put("x", b"1");
        store.put("y", b"2");
        let before = store.dump();
        drop(store);

        let reopened = KvStore::open(cfg).unwrap();
        assert_eq!(reopened.dump(), before);
        assert_eq!(reopened.recovery_report().unwrap().records, 2);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backed_checkpoint_after_crash_between_rotate_and_publish() {
        let dir =
            std::env::temp_dir().join(format!("ad-kv-rotate-reuse-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.wal");

        let cfg = KvConfig::durable(&path, SyncPolicy::GroupCommit);
        let store = KvStore::open(cfg.clone()).unwrap();
        store.put("a", b"1");
        store.put("b", b"2");
        drop(store);
        // Simulate a crash after Wal::rotate but before the snapshot
        // publish: the empty post-cut segment exists, no snapshot does.
        std::fs::File::create(dir.join("store.wal.seg00000000000000000003")).unwrap();

        // Recovery resumes appends on that segment; the next checkpoint
        // rotates at the same cut and must reuse it — not rotate into it
        // and delete the file the store is appending to.
        let store = KvStore::open(cfg.clone()).unwrap();
        let report = store.checkpoint().unwrap();
        assert!(report.performed);
        assert_eq!(report.cut, 2);
        store.put("post", b"3");
        drop(store);

        let reopened = KvStore::open(cfg).unwrap();
        assert_eq!(reopened.get("a").as_deref(), Some(&b"1"[..]));
        assert_eq!(reopened.get("b").as_deref(), Some(&b"2"[..]));
        assert_eq!(
            reopened.get("post").as_deref(),
            Some(&b"3"[..]),
            "fsync-acked write on the reused segment survived the reopen"
        );
        let r = reopened.recovery_report().unwrap();
        assert_eq!(r.snapshot_cut, 2);
        assert_eq!(r.replayed, 1, "only the post-checkpoint suffix replays");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_many_is_a_consistent_snapshot_shape() {
        let store = KvStore::open(KvConfig::volatile()).unwrap();
        store.write_batch(&WriteBatch::new().put("a", b"1").put("z", b"26"));
        let got = store.get_many(&["a", "missing", "z"]);
        assert_eq!(got[0].as_deref(), Some(&b"1"[..]));
        assert_eq!(got[1], None);
        assert_eq!(got[2].as_deref(), Some(&b"26"[..]));
    }

    #[test]
    fn commit_is_durable_at_return_and_stats_json_is_balanced() {
        let mem = MemDisk::new();
        let (store, _) = open_mem(&mem);
        let log = [CommitStep::Log(RedoKind::Local)];
        // The committing thread runs its own deferred fsync, so the
        // record is durable by the time `commit` returns.
        store.commit(&WriteBatch::new().put("k", b"v"), &log);
        let synced = mem.synced(WAL_BASE);
        assert!(!synced.is_empty());
        store.commit(&WriteBatch::new().delete("k"), &log);
        assert!(mem.synced(WAL_BASE).len() > synced.len());
        assert!(store.is_empty());

        let j = store.stats_json();
        for key in [
            "\"shards\":",
            "\"keys\":0",
            "\"wal\":{",
            "\"stm\":{",
            "\"records\":2",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let volatile = KvStore::open(KvConfig::volatile()).unwrap();
        volatile.commit(&WriteBatch::new().put("k", b"v"), &log);
        assert_eq!(volatile.get("k").as_deref(), Some(&b"v"[..]));
        assert!(volatile.stats_json().contains("\"wal\":null"));
        volatile.sync(); // no log to flush: a no-op
    }

    #[test]
    fn scan_waits_for_the_index_changes_of_a_volatile_batch() {
        fn keys(rows: &[Row]) -> Vec<&str> {
            rows.iter().map(|(k, _)| &**k).collect()
        }
        let mem = MemDisk::new();
        let (store, _) = open_mem(&mem);
        let store = Arc::new(store);
        // The batch below touches "r1" and "r9" and leaves a key between
        // them alone, on a shard of its own: once "r1" is out of the
        // index, nothing but the subscription to every shard stands
        // between a one-row scan and that key.
        let shard = |k: &str| store.locate(k).0;
        let mid = (2..9)
            .map(|i| format!("r{i}"))
            .find(|k| shard(k) != shard("r1") && shard(k) != shard("r9"))
            .expect("some key lands on a third shard");
        store.write_batch(&WriteBatch::new().put("r1", b"1").put(mid.as_str(), b"m"));
        store.sync();
        let durable = written(&mem).len();

        // One batch takes "r1" out of the range and puts "r9" into it; its
        // transaction commits, and its committer waits in the held fsync.
        mem.hold_syncs();
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.write_batch(&WriteBatch::new().delete("r1").put("r9", b"9"));
            })
        };
        spin_until("the record is written", || written(&mem).len() > durable);
        assert_eq!(mem.synced(WAL_BASE).len(), durable, "fsync is held");

        // A scan over the range parks on the batch's shard locks (the
        // runtime counts its retry): neither index change is observable.
        let retries = || store.runtime().snapshot_stats().counters.retries;
        let before = retries();
        let (tx, rx) = std::sync::mpsc::channel();
        let scanner = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                tx.send(store.scan_from("r", 1)).unwrap();
                tx.send(store.scan_from("r", 10)).unwrap();
            })
        };
        spin_until("the scan parks", || retries() > before);
        assert!(rx.try_recv().is_err(), "scan returned under a held fsync");

        mem.release_syncs();
        writer.join().unwrap();
        assert_eq!(keys(&rx.recv().unwrap()), [&mid]);
        assert_eq!(keys(&rx.recv().unwrap()), [&mid, "r9"]);
        scanner.join().unwrap();
        assert_eq!(store.get("r1"), None);
    }

    #[test]
    fn scan_reads_the_same_number_of_variables_on_any_store_size() {
        let read_set = |n: usize| {
            let store = KvStore::open(KvConfig::volatile()).unwrap();
            for chunk in (0..n).collect::<Vec<_>>().chunks(1000) {
                let batch = chunk.iter().fold(WriteBatch::new(), |b, i| {
                    b.put(format!("k{i:08}"), b"v".as_slice())
                });
                store.write_batch(&batch);
            }
            store.rt.atomically(|tx| {
                let rows = store.scan_in_tx(tx, "k00000500", 10)?;
                assert_eq!(rows.len(), 10);
                Ok(tx.read_set_len())
            })
        };
        let (small, large) = (read_set(1_000), read_set(50_000));
        assert_eq!(small, large);
        // Every shard lock, the directory, a leaf or two, at most ten
        // buckets and one value cell per row — not the 1 024 buckets.
        assert!(small <= 16 + 1 + 2 + 10 + 10, "{small} variables read");
    }

    #[test]
    fn empty_batch_is_a_noop_and_logs_nothing() {
        let mem = MemDisk::new();
        let (store, _) = open_mem(&mem);
        store.write_batch(&WriteBatch::new());
        assert!(written(&mem).is_empty());
        assert_eq!(store.wal_stats().unwrap().records, 0);
    }

    #[test]
    fn lock_striping_is_independent_of_a_router_partition() {
        // A 2-way or 4-way router partitions on `fnv1a64(key) % n`; the
        // keys it sends to its shard 0 must still spread over all 16 of
        // that store's shard locks, not the 8 (or 4) a placement taken
        // from the same hash bits would reach.
        for n in [2u64, 4] {
            let mut seen = [false; 16];
            let on_shard_0 = (0..)
                .map(|i| format!("key-{i}"))
                .filter(|k| fnv1a64(k.as_bytes()).is_multiple_of(n))
                .take(10_000);
            for key in on_shard_0 {
                seen[locate(&key, 16, 64).0] = true;
            }
            assert_eq!(seen, [true; 16], "{n}-way partition");
        }
    }
}
