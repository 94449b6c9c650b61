//! The four commit plans, one table.
//!
//! Every mutation of a store is [`KvStore::commit`] with a plan; the
//! plans in use are the plain write and the three the router composes
//! ([`ad_shard::plan`]). Each row of the table is stepped through one
//! step at a time — `Call` steps park on a channel, `Log` steps park in
//! the disk's held fsync — and at every step the same four properties are
//! asserted:
//!
//! 1. the records that have reached the WAL are exactly the `Log` steps
//!    run so far, in order (and, at the end, the row's expected kinds) —
//!    a `LogUnforced` step parks nowhere and writes nothing: its record
//!    is exposed when the plan ends but reaches the disk only with the
//!    store's next write, here a `sync`;
//! 2. a store reopened from the synced bytes — what a crash at this step
//!    leaves — shows the batch only once a `Local` or `Decided` record is
//!    among them, and after `Prepare` alone reports exactly one pending
//!    prepare;
//! 3. a concurrent `get` of the touched key, already parked on the shard
//!    lock, has not returned — it returns only after the *last* step;
//! 4. `Call` steps run in submission order.

use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

use ad_kv::disk::WAL_BASE;
use ad_kv::recover::scan;
use ad_kv::{CommitStep, KvConfig, KvStore, MemDisk, RedoKind, SyncPolicy, WriteBatch};
use ad_shard::plan::{self, Callback};

const GID: u64 = 7;
const KEY: &str = "k";
const VALUE: &[u8] = b"v";

const PREPARE: RedoKind = RedoKind::Prepare { gid: GID };
const DECIDED: RedoKind = RedoKind::Decided { gid: GID };

struct Row {
    name: &'static str,
    /// Build the plan; each call of the argument yields the next parked
    /// callback.
    build: fn(&mut dyn FnMut() -> Callback) -> Vec<CommitStep>,
    /// The store opens on a log that already holds the batch staged under
    /// [`GID`], and the batch committed is the one taken from it.
    staged: bool,
    /// Kinds of the records the plan appends, in order.
    wal: &'static [RedoKind],
    /// Number of `Call` steps.
    calls: usize,
}

const TABLE: &[Row] = &[
    Row {
        name: "plain",
        build: |_| vec![CommitStep::Log(RedoKind::Local)],
        staged: false,
        wal: &[RedoKind::Local],
        calls: 0,
    },
    Row {
        name: "coordinator",
        build: |cb| plan::coordinator(GID, [cb(), cb()], cb()),
        staged: false,
        wal: &[DECIDED],
        calls: 3,
    },
    Row {
        name: "participant",
        build: |cb| plan::participant(GID, cb(), cb()),
        staged: false,
        wal: &[PREPARE, DECIDED],
        calls: 2,
    },
    Row {
        name: "resolve",
        build: |_| plan::resolve(GID),
        staged: true,
        wal: &[DECIDED],
        calls: 0,
    },
];

fn kinds(wal: &[u8]) -> Vec<RedoKind> {
    scan(wal, 1).0.iter().map(|r| r.kind).collect()
}

fn written(disk: &MemDisk) -> Vec<u8> {
    disk.written(WAL_BASE)
}

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "never happened: {what}"
        );
        std::thread::yield_now();
    }
}

/// A `get(KEY)` on its own thread, returned once it is parked on the held
/// shard lock (the runtime counted its retry).
fn parked_reader(store: &Arc<KvStore>) -> Receiver<Option<Arc<[u8]>>> {
    let retries = |s: &KvStore| s.runtime().snapshot_stats().counters.retries;
    let before = retries(store);
    let (tx, rx) = channel();
    let reader = Arc::clone(store);
    std::thread::spawn(move || tx.send(reader.get(KEY)));
    spin_until("reader parks on the shard lock", || retries(store) > before);
    rx
}

fn run(row: &Row) {
    let name = row.name;
    let open =
        |disk: MemDisk| KvStore::open_on_disk(&KvConfig::default(), SyncPolicy::GroupCommit, disk);
    let disk = MemDisk::new();
    if row.staged {
        // A participant that stopped after its prepare.
        let (crashed, _) = open(disk.clone());
        crashed.commit(
            &WriteBatch::new().put(KEY, VALUE),
            &[CommitStep::Log(PREPARE)],
        );
    }
    let store = Arc::new(open(disk.clone()).0);
    let batch = if row.staged {
        store
            .take_prepared(GID)
            .expect("the staged slice is pending")
    } else {
        WriteBatch::new().put(KEY, VALUE)
    };
    let already = kinds(&written(&disk)).len();

    // Every Call step reports its number, then parks until told to go.
    let (entered_tx, entered_rx) = channel::<usize>();
    let (go_tx, go_rx) = channel::<()>();
    let go_rx = Arc::new(Mutex::new(go_rx));
    let mut made = 0;
    let steps = (row.build)(&mut || {
        let (n, entered, go) = (made, entered_tx.clone(), Arc::clone(&go_rx));
        made += 1;
        Arc::new(move || {
            entered.send(n).unwrap();
            go.lock().unwrap().recv().unwrap();
        })
    });
    assert_eq!(made, row.calls, "{name}: Call steps in the plan");

    disk.hold_syncs();
    let committer = {
        let (store, steps) = (Arc::clone(&store), steps.clone());
        std::thread::spawn(move || store.commit(&batch, &steps))
    };

    let mut reader = None;
    let mut logged: Vec<RedoKind> = Vec::new();
    let mut unforced: Vec<RedoKind> = Vec::new();
    let mut calls = 0;
    for (i, step) in steps.iter().enumerate() {
        // Wait until step `i` is in progress: a Call has been entered, a
        // Log has written its record and sits in the held fsync.
        match step {
            CommitStep::Call(_) => {
                let n = entered_rx.recv().unwrap();
                assert_eq!(n, calls, "{name}: Call steps run in submission order");
                calls += 1;
            }
            CommitStep::Log(_) => spin_until("the record is written", || {
                written(&disk).len() > disk.synced(WAL_BASE).len()
            }),
            // Nothing to park in; what the step did and did not do is
            // checked once the plan has ended.
            CommitStep::LogUnforced(kind) => {
                unforced.push(*kind);
                continue;
            }
        }
        disk.hold_syncs();
        // The transaction committed before the first step began; from
        // here to the end of the plan the shard lock is held.
        let reader = reader.get_or_insert_with(|| parked_reader(&store));
        assert!(
            reader.try_recv().is_err(),
            "{name}: get returned during step {i}"
        );
        assert_eq!(
            kinds(&disk.synced(WAL_BASE))[already..],
            logged,
            "{name}: durable records at step {i}"
        );
        let synced = kinds(&disk.synced(WAL_BASE));
        let (crashed, report) = open(disk.crash_image(disk.journal_len(), 0, true));
        assert_eq!(
            crashed.get(KEY).is_some(),
            synced.iter().any(|k| *k != PREPARE),
            "{name}: a crash at step {i} after {synced:?}"
        );
        assert_eq!(
            report.pending_prepares,
            u64::from(synced == [PREPARE]),
            "{name}: pending prepares of a crash at step {i} after {synced:?}"
        );
        match step {
            CommitStep::Call(_) => go_tx.send(()).unwrap(),
            CommitStep::Log(kind) => {
                logged.push(*kind);
                disk.release_syncs();
            }
            CommitStep::LogUnforced(_) => unreachable!("skipped above"),
        }
    }
    committer.join().unwrap();
    disk.release_syncs();

    let got = reader.expect("every plan has a step").recv().unwrap();
    assert_eq!(
        got.as_deref(),
        Some(VALUE),
        "{name}: get after the last step"
    );
    // The plan is over and its locks are released: the forced records are
    // durable, an unforced one is still only in memory.
    assert_eq!(
        kinds(&written(&disk))[already..],
        logged,
        "{name}: records written when the plan ended"
    );
    store.sync();
    logged.append(&mut unforced);
    assert_eq!(
        kinds(&disk.synced(WAL_BASE))[already..],
        *row.wal,
        "{name}: WAL kinds"
    );
    assert_eq!(logged, row.wal, "{name}: log steps");
}

#[test]
fn the_four_plans_hold_their_locks_to_the_last_step() {
    for row in TABLE {
        run(row);
    }
}
