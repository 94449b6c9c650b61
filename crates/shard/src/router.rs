//! The shard router: key partitioning, the cross-shard commit itself,
//! recovery reconciliation, and merged observability.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;

use ad_defer::LockClass;
use ad_kv::{
    CkptPolicy, CkptReport, KvConfig, KvStore, MemDisk, RecoveryReport, SyncPolicy, WriteBatch,
};
use ad_stm::{AppEvent, StatsReport, Trace};
use ad_support::hash::fnv1a64;
use ad_support::sync::atomic::{AtomicU64, Ordering};
use ad_support::sync::RwLock;

use crate::plan::{self, Callback};
use crate::transport::{Gate, Job, JobQueue};

/// Trace event: a cross-shard coordinator sent (or a participant began
/// applying) a prepare frame for a global batch; `arg` = the global batch
/// id's low bits.
pub static SHARD_PREPARE: AppEvent = AppEvent::new("shard_prepare", "gid");

/// Trace event: a participant acknowledged a prepare — its slice is
/// committed on its shard and its locks held; `arg` = the global batch
/// id's low bits.
pub static SHARD_ACK: AppEvent = AppEvent::new("shard_ack", "gid");

/// Trace event: the coordinator released a cross-shard batch after every
/// participant acked and its record is durable; `arg` = the global batch
/// id's low bits. Participant-side locks are held until their runtime
/// observes this — the hold-until-all-ack invariant.
pub static SHARD_RELEASE: AppEvent = AppEvent::new("shard_release", "gid");

/// The class a cross-shard batch holds its shards' `TxLock`s in, on the
/// coordinator and on every participant, from each slice's commit until
/// its release: `txlock_hold_ns` and `txlock_blocked_ns`
/// ([`ad_defer::class`]) of 2PC. A single-shard batch is its store's
/// ([`ad_kv::SHARD_LOCKS`]).
pub static ROUTER_LOCKS: LockClass = LockClass::new("router");

/// Low 48 bits of a gid: the per-router sequence. The high 16 bits name
/// the coordinator shard, so recovery can say who held the decision.
const GID_SEQ_MASK: u64 = (1 << 48) - 1;

/// A key space partitioned over N independent [`KvStore`]s (each with
/// its own runtime and WAL), with cross-shard write batches committed
/// by the 2-phase protocol of DESIGN.md §14.
///
/// Reads and single-shard batches go straight to the owning store and
/// cost exactly what they cost unsharded. A batch spanning shards picks
/// the lowest touched shard as coordinator and pays one fsync, its
/// record's, plus a prepare/ack round trip per remote participant — the
/// last one overlapping the fsync.
pub struct ShardRouter {
    stores: Vec<Arc<KvStore>>,
    /// `queues[s]` feeds `workers[s]`, which runs shard `s`'s participant
    /// side.
    queues: Vec<Arc<JobQueue>>,
    /// Readers: in-flight cross-shard commits. Writer:
    /// [`ShardRouter::checkpoint_all`], which must not truncate a
    /// coordinator's record some shard's un-echoed slice still depends on.
    ckpt_gate: RwLock<()>,
    next_seq: AtomicU64,
    workers: Vec<JoinHandle<()>>,
    /// Slices [`from_stores`](Self::from_stores) re-applied from a
    /// coordinator's record because their shard's log had lost them.
    reapplied: u64,
}

impl ShardRouter {
    /// Route over `n` fresh volatile stores (bench baseline: no WAL, so
    /// the protocol's fsyncs are no-ops but the lock discipline is
    /// identical).
    pub fn open_volatile(n: usize) -> ShardRouter {
        Self::from_stores(
            (0..n)
                .map(|_| {
                    Arc::new(
                        KvStore::open(KvConfig::volatile()).expect("volatile open is infallible"),
                    )
                })
                .collect(),
        )
    }

    /// Open shard `i` on `disks[i]` (two-tier recovery per shard), then
    /// reconcile cross-shard outcomes across all of them — the crash
    /// recovery entry point for byte-level [`MemDisk`] images.
    pub fn open_on_disks(cfg: &KvConfig, disks: &[MemDisk]) -> (ShardRouter, Vec<RecoveryReport>) {
        let mut stores = Vec::with_capacity(disks.len());
        let mut reports = Vec::with_capacity(disks.len());
        for disk in disks {
            let (store, report) = KvStore::open_on_disk(cfg, SyncPolicy::GroupCommit, disk.clone());
            stores.push(Arc::new(store));
            reports.push(report);
        }
        (Self::from_stores(stores), reports)
    }

    /// Assemble a router over already-opened stores.
    ///
    /// Reconciliation runs first (DESIGN.md §14.3). A cross-shard batch is
    /// committed if and only if its coordinator's record is durable, and
    /// that record carries every participant's slice. So every slice a
    /// surviving coordinator's record carries whose shard's log holds no
    /// `Decided` of that gid — a participant echo a crash lost — is
    /// re-applied on its shard, in the order of its position in that
    /// shard's job FIFO, with the forced [`plan::resolve`] plan: the
    /// *next* recovery finds it in the shard's own log. Each queue's
    /// positions resume above the highest any record names, and the gid
    /// sequence above every gid seen, so nothing recovered can be mistaken
    /// for something new.
    ///
    /// A store opened on its own replays only its own log: a routed shard
    /// opened standalone after a crash can miss its un-echoed slices, and
    /// nothing reports it.
    ///
    /// # Panics
    ///
    /// On a store opened with [`CkptPolicy::Auto`]: a per-store background
    /// checkpoint can truncate a coordinator's record another shard's
    /// un-echoed slice still needs (DESIGN.md §14.4) — routed stores
    /// checkpoint only through [`ShardRouter::checkpoint_all`]. On a
    /// coordinator's record whose rider does not decode or names a shard
    /// this router lacks: the logs are not this router's.
    pub fn from_stores(stores: Vec<Arc<KvStore>>) -> ShardRouter {
        assert!(!stores.is_empty(), "a router needs at least one shard");
        assert!(stores.len() <= u16::MAX as usize, "shard ids are u16");
        for (s, store) in stores.iter().enumerate() {
            assert!(
                !matches!(store.ckpt_policy(), Some(CkptPolicy::Auto { .. })),
                "shard {s} was opened with CkptPolicy::Auto: a background checkpoint could \
                 truncate a coordinator's record an un-echoed slice still needs (DESIGN.md \
                 §14.4); open routed stores with CkptPolicy::Manual and use checkpoint_all"
            );
        }

        // (shard, gid) of every `Decided` record, and every slice a
        // coordinator's record carries, as (shard, pos, gid, ops).
        let mut logged: HashSet<(usize, u64)> = HashSet::new();
        let mut carried: Vec<(usize, u64, u64, ad_kv::RedoOps)> = Vec::new();
        let mut next_pos = vec![0u64; stores.len()];
        let mut max_seen = 0u64;
        for (s, store) in stores.iter().enumerate() {
            for (gid, rider) in store.take_recovered_decided() {
                max_seen = max_seen.max(gid & GID_SEQ_MASK);
                logged.insert((s, gid));
                let slices = plan::decode_rider(&rider).unwrap_or_else(|| {
                    panic!("shard {s}: the rider of gid {gid:#x} does not decode")
                });
                for slice in slices {
                    assert!(
                        slice.shard < stores.len(),
                        "shard {s}: gid {gid:#x} names shard {} of {}",
                        slice.shard,
                        stores.len()
                    );
                    next_pos[slice.shard] = next_pos[slice.shard].max(slice.pos + 1);
                    carried.push((slice.shard, slice.pos, gid, slice.ops));
                }
            }
        }
        carried.retain(|(shard, _, gid, _)| !logged.contains(&(*shard, *gid)));
        // A shard applied its slices in FIFO order, whoever coordinated
        // them; gid order would put a later batch's write first.
        carried.sort_unstable_by_key(|&(shard, pos, ..)| (shard, pos));
        let reapplied = carried.len() as u64;
        for (shard, _, gid, ops) in carried {
            stores[shard].commit(&WriteBatch::from_ops(ops), &plan::resolve(gid));
        }

        let queues: Vec<Arc<JobQueue>> = next_pos.into_iter().map(JobQueue::new).collect();
        let workers = stores
            .iter()
            .zip(&queues)
            .map(|(store, queue)| {
                let (store, queue) = (Arc::clone(store), Arc::clone(queue));
                std::thread::spawn(move || participate(&store, &queue))
            })
            .collect();

        ShardRouter {
            stores,
            queues,
            ckpt_gate: RwLock::new(()),
            next_seq: AtomicU64::new(max_seen + 1),
            workers,
            reapplied,
        }
    }

    /// Slices [`from_stores`](Self::from_stores) re-applied when it
    /// assembled this router: participant echoes a crash lost, recovered
    /// from their coordinators' records. 0 after a clean close.
    pub fn reapplied_slices(&self) -> u64 {
        self.reapplied
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) as usize) % self.stores.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.stores.len()
    }

    /// Direct access to shard `s`'s store (tests, per-shard stats).
    pub fn store(&self, s: usize) -> &Arc<KvStore> {
        &self.stores[s]
    }

    /// Point lookup on the owning shard (serializable there).
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.stores[self.shard_of(key)].get(key)
    }

    /// Multi-key lookup: keys grouped by shard, one transaction per
    /// shard. Each shard's slice of the result is a serializable
    /// snapshot of that shard; the combination across shards is *not* a
    /// single snapshot (DESIGN.md §14 — the write protocol guarantees
    /// no shard ever shows a partial batch, which is what keeps this
    /// useful, but two shards may be read at different moments).
    pub fn get_many(&self, keys: &[&str]) -> Vec<Option<Arc<[u8]>>> {
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            by_shard.entry(self.shard_of(key)).or_default().push(i);
        }
        let mut out = vec![None; keys.len()];
        for (s, idxs) in by_shard {
            let ks: Vec<&str> = idxs.iter().map(|&i| keys[i]).collect();
            for (i, v) in idxs.iter().zip(self.stores[s].get_many(&ks)) {
                out[*i] = v;
            }
        }
        out
    }

    /// Insert or overwrite one key (single-shard by construction).
    pub fn put(&self, key: &str, value: &[u8]) {
        self.write_batch(&WriteBatch::new().put(key, value));
    }

    /// Delete one key.
    pub fn delete(&self, key: &str) {
        self.write_batch(&WriteBatch::new().delete(key));
    }

    /// Apply an atomic multi-key batch across shards. A batch touching
    /// one shard commits exactly like [`KvStore::write_batch`]. A batch
    /// spanning shards runs the 2-phase protocol: when this returns, the
    /// coordinator's record — the whole batch — is durable, and at no
    /// point could any reader anywhere observe some slices without the
    /// others.
    pub fn write_batch(&self, batch: &WriteBatch) {
        let mut slices: BTreeMap<usize, ad_kv::RedoOps> = BTreeMap::new();
        for (k, v) in batch.ops() {
            slices
                .entry(self.shard_of(k))
                .or_default()
                .push((k.to_string(), v.map(|v| v.to_vec())));
        }
        if slices.is_empty() {
            return;
        }
        if slices.len() == 1 {
            let (s, ops) = slices.into_iter().next().expect("nonempty");
            self.stores[s].write_batch(&WriteBatch::from_ops(ops));
            return;
        }

        // Cross-shard: coordinator = lowest touched shard; prepares go
        // out in ascending shard order (BTreeMap iteration), which is
        // the deadlock-freedom discipline.
        let _inflight = self.ckpt_gate.read();
        let gid = {
            let coord = *slices.keys().next().expect("nonempty") as u64;
            (coord << 48) | (self.next_seq.fetch_add(1, Ordering::Relaxed) & GID_SEQ_MASK)
        };
        let mut it = slices.into_iter();
        let (coord, coord_ops) = it.next().expect("nonempty");
        let parts: Vec<(usize, ad_kv::RedoOps)> = it.collect();
        let store = &self.stores[coord];
        // Each participant's FIFO position, stored by its prepare and read
        // by the rider when the record is logged; its ops encoded now,
        // outside the transaction.
        let positions: Arc<Vec<AtomicU64>> =
            Arc::new(parts.iter().map(|_| AtomicU64::new(0)).collect());
        let encoded: Vec<(usize, Vec<u8>)> = parts
            .iter()
            .map(|(p, ops)| (*p, plan::encode_slice_ops(ops)))
            .collect();
        let rider: ad_kv::Rider = {
            let positions = Arc::clone(&positions);
            Arc::new(move || {
                let mut out = Vec::new();
                for (i, (p, ops)) in encoded.iter().enumerate() {
                    plan::encode_slice(&mut out, *p, positions[i].load(Ordering::Relaxed), ops);
                }
                out
            })
        };
        let rt = Arc::clone(store.runtime());
        let last = parts.len() - 1;
        let mut last_acked = None;
        let mut releases: Vec<Arc<Gate>> = Vec::new();
        let prepares: Vec<Callback> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (p, ops))| {
                let (acked, released) = (Gate::new(), Gate::new());
                if i == last {
                    last_acked = Some(Arc::clone(&acked));
                }
                releases.push(Arc::clone(&released));
                let (queue, positions, rt) = (
                    Arc::clone(&self.queues[p]),
                    Arc::clone(&positions),
                    Arc::clone(&rt),
                );
                Arc::new(move || {
                    rt.trace_app(&SHARD_PREPARE, gid);
                    let pos = queue.push(Job::Prepare {
                        gid,
                        ops: ops.clone(),
                        acked: Arc::clone(&acked),
                        released: Arc::clone(&released),
                    });
                    positions[i].store(pos, Ordering::Relaxed);
                    // The last ack is awaited after the record, so that
                    // hop overlaps the fsync.
                    if i != last {
                        acked.wait();
                        rt.trace_app(&SHARD_ACK, gid);
                    }
                }) as Callback
            })
            .collect();
        let wait_last_ack: Callback = {
            let (acked, rt) = (last_acked.expect("a participant"), Arc::clone(&rt));
            Arc::new(move || {
                acked.wait();
                rt.trace_app(&SHARD_ACK, gid);
            })
        };
        let release_all: Callback = Arc::new(move || {
            rt.trace_app(&SHARD_RELEASE, gid);
            releases.iter().for_each(|released| released.open());
        });
        store.commit_as(
            &ROUTER_LOCKS,
            &WriteBatch::from_ops(coord_ops),
            &plan::coordinator(gid, prepares, rider, wait_last_ack, release_all),
        );
    }

    /// Block until every shard's deferred durability work has drained and
    /// every record any shard appended — a participant's unforced
    /// `Decided` included — is on its disk ([`KvStore::sync`]).
    pub fn sync(&self) {
        for store in &self.stores {
            store.sync();
        }
    }

    /// Block until every shard's job queue has drained: every
    /// participant slice for a batch whose `write_batch` already returned
    /// has finished its release-side work (apply, trace instants, its
    /// `Decided` record *appended* — not necessarily written: that takes
    /// [`sync`](Self::sync)). The participant half of a cross-shard commit runs
    /// asynchronously on the shard's worker, so callers that want to
    /// *observe* a completed commit — drain a merged trace, compare
    /// dumps — quiesce first. New commits are not gated out; callers
    /// needing a frozen world ([`ShardRouter::checkpoint_all`]) hold the
    /// checkpoint gate around this.
    pub fn quiesce(&self) {
        // Every barrier is queued before the first wait: shards drain in
        // parallel.
        let barriers: Vec<Arc<Gate>> = self
            .queues
            .iter()
            .map(|queue| {
                let drained = Gate::new();
                queue.push(Job::Barrier {
                    drained: Arc::clone(&drained),
                });
                drained
            })
            .collect();
        barriers.iter().for_each(|drained| drained.wait());
    }

    /// Checkpoint every shard at a cross-shard-quiescent point: new
    /// cross-shard commits are gated out, a barrier drains every shard's
    /// unreleased slices, **every** shard's WAL is forced, and only then
    /// does **any** shard snapshot and truncate. Without the quiesce or
    /// the flush-all, a coordinator could truncate the only durable copy
    /// of a participant's slice — its own record's rider — while that
    /// participant's echo is still unappended or only in memory (DESIGN.md
    /// §14.4).
    pub fn checkpoint_all(&self) -> io::Result<Vec<CkptReport>> {
        let _gate = self.ckpt_gate.write();
        self.quiesce();
        self.sync();
        self.stores.iter().map(|s| s.checkpoint()).collect()
    }

    /// Merged STM counters across every shard's runtime
    /// ([`StatsReport::merge`]): one report for the whole key space.
    pub fn stats(&self) -> StatsReport {
        let mut iter = self.stores.iter();
        let first = iter.next().expect("at least one shard");
        let mut acc = first.runtime().snapshot_stats();
        for store in iter {
            acc.merge(&store.runtime().snapshot_stats());
        }
        acc
    }

    /// Enable or disable tracing on every shard's runtime.
    pub fn set_tracing(&self, on: bool) {
        for store in &self.stores {
            store.runtime().set_tracing(on);
        }
    }

    /// Drain and merge every runtime's trace ring into one timeline
    /// ([`Trace::merge`]): a cross-shard commit shows its coordinator
    /// and participant halves interleaved by timestamp, rows tagged
    /// `r<runtime>.t<thread>`.
    pub fn take_trace(&self) -> Trace {
        Trace::merge(self.stores.iter().map(|s| s.runtime().take_trace()))
    }

    /// Full contents across all shards — test/verification helper.
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        let mut out = BTreeMap::new();
        for store in &self.stores {
            out.append(&mut store.dump());
        }
        out
    }

    /// Total live keys across shards.
    pub fn len(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }

    /// True when no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A shard's one worker: the participant side of every batch that
/// touches `store` from another coordinator. It blocks inside `commit`
/// for the prepare→release window, which serializes slices per shard in
/// FIFO order; acks and releases never pass through `queue`.
fn participate(store: &KvStore, queue: &JobQueue) {
    loop {
        match queue.pop_blocking() {
            Job::Prepare {
                gid,
                ops,
                acked,
                released,
            } => {
                let rt = store.runtime();
                let (ack_rt, rel_rt) = (Arc::clone(rt), Arc::clone(rt));
                rt.trace_app(&SHARD_PREPARE, gid);
                store.commit_as(
                    &ROUTER_LOCKS,
                    &WriteBatch::from_ops(ops),
                    &plan::participant(
                        gid,
                        Arc::new(move || {
                            ack_rt.trace_app(&SHARD_ACK, gid);
                            acked.open();
                        }),
                        Arc::new(move || {
                            released.wait();
                            rel_rt.trace_app(&SHARD_RELEASE, gid);
                        }),
                    ),
                );
            }
            Job::Barrier { drained } => drained.open(),
            Job::Shutdown => return,
        }
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.push(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// `count` keys all owned by shard `want` of an `n`-shard router.
    fn keys_on(router: &ShardRouter, want: usize, count: usize) -> Vec<String> {
        (0..)
            .map(|i| format!("k{i}"))
            .filter(|k| router.shard_of(k) == want)
            .take(count)
            .collect()
    }

    #[test]
    fn single_shard_batches_and_reads_route_by_key() {
        let router = ShardRouter::open_volatile(4);
        assert_eq!(router.workers.len(), 4, "one thread per shard");
        router.put("alpha", b"1");
        router.put("beta", b"2");
        assert_eq!(router.get("alpha").as_deref(), Some(&b"1"[..]));
        assert_eq!(router.get("beta").as_deref(), Some(&b"2"[..]));
        assert_eq!(router.len(), 2);
        let on_shard: usize = (0..router.shard_count())
            .map(|s| router.store(s).len())
            .sum();
        assert_eq!(on_shard, 2, "keys live on exactly one shard each");
    }

    #[test]
    fn cross_shard_batch_commits_atomically_everywhere() {
        let router = ShardRouter::open_volatile(3);
        let a = keys_on(&router, 0, 1).remove(0);
        let b = keys_on(&router, 1, 1).remove(0);
        let c = keys_on(&router, 2, 1).remove(0);
        let holds = ROUTER_LOCKS.hold().count();
        router.write_batch(
            &WriteBatch::new()
                .put(a.as_str(), b"A")
                .put(b.as_str(), b"B")
                .put(c.as_str(), b"C"),
        );
        assert_eq!(router.get(&a).as_deref(), Some(&b"A"[..]));
        assert_eq!(router.get(&b).as_deref(), Some(&b"B"[..]));
        assert_eq!(router.get(&c).as_deref(), Some(&b"C"[..]));
        // One hold per shard lock, the coordinator's and each
        // participant's, all in the router's class (other tests may add
        // theirs).
        assert!(ROUTER_LOCKS.hold().count() >= holds + 3);
        // And a follow-up cross-shard batch over the same keys (delete
        // half) also lands atomically.
        router.write_batch(&WriteBatch::new().delete(a.as_str()).put(c.as_str(), b"C2"));
        assert_eq!(router.get(&a), None);
        assert_eq!(router.get(&c).as_deref(), Some(&b"C2"[..]));
    }

    #[test]
    #[should_panic(expected = "DESIGN.md §14.4")]
    fn auto_checkpointing_stores_are_refused() {
        let cfg = KvConfig::volatile().with_ckpt(CkptPolicy::Auto { wal_bytes: 1 << 20 });
        let (auto, _) = KvStore::open_on_disk(&cfg, SyncPolicy::GroupCommit, MemDisk::new());
        let (manual, _) = KvStore::open_on_disk(
            &KvConfig::volatile(),
            SyncPolicy::GroupCommit,
            MemDisk::new(),
        );
        ShardRouter::from_stores(vec![Arc::new(manual), Arc::new(auto)]);
    }

    #[test]
    fn get_many_spans_shards() {
        let router = ShardRouter::open_volatile(2);
        let a = keys_on(&router, 0, 1).remove(0);
        let b = keys_on(&router, 1, 1).remove(0);
        router.write_batch(
            &WriteBatch::new()
                .put(a.as_str(), b"1")
                .put(b.as_str(), b"2"),
        );
        let got = router.get_many(&[a.as_str(), "missing", b.as_str()]);
        assert_eq!(got[0].as_deref(), Some(&b"1"[..]));
        assert_eq!(got[1], None);
        assert_eq!(got[2].as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn merged_stats_count_all_runtimes() {
        let router = ShardRouter::open_volatile(2);
        let a = keys_on(&router, 0, 1).remove(0);
        let b = keys_on(&router, 1, 1).remove(0);
        router.write_batch(
            &WriteBatch::new()
                .put(a.as_str(), b"1")
                .put(b.as_str(), b"2"),
        );
        let merged = router.stats();
        let per_shard: u64 = (0..2)
            .map(|s| router.store(s).runtime().snapshot_stats().counters.commits)
            .sum();
        assert_eq!(merged.counters.commits, per_shard);
        assert!(
            merged.counters.commits >= 2,
            "both shards committed their slice"
        );
    }

    #[test]
    fn merged_trace_tags_both_runtimes_for_one_commit() {
        let router = ShardRouter::open_volatile(2);
        router.set_tracing(true);
        let a = keys_on(&router, 0, 1).remove(0);
        let b = keys_on(&router, 1, 1).remove(0);
        router.write_batch(
            &WriteBatch::new()
                .put(a.as_str(), b"1")
                .put(b.as_str(), b"2"),
        );
        // The participant's release-side events land asynchronously (its
        // re-log runs on the shard's worker after the coordinator's
        // call returned): quiesce so the drain below races no writer —
        // draining a *live* ring can lose the event being written.
        router.quiesce();
        router.set_tracing(false);
        let trace = router.take_trace();
        let runtimes = trace.runtime_ids();
        assert_eq!(
            runtimes.len(),
            2,
            "one timeline, two runtimes: {runtimes:?}"
        );
        let rendered = trace.render();
        for kind in ["shard_prepare", "shard_ack", "shard_release"] {
            assert!(rendered.contains(kind), "missing {kind} in:\n{rendered}");
        }
        // Coordinator emits prepare/ack/release; participant emits its
        // own triple: exactly 6 protocol instants for one commit.
        assert_eq!(rendered.matches("shard_").count(), 6, "in:\n{rendered}");
    }
}
