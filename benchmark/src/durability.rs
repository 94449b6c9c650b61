//! `check-durability`: acked ⊆ recovered, and no batch split, when the
//! bytes the store never flushed are really gone.
//!
//! Killing a process leaves the operating system's cache intact, so this
//! check runs the store on the program's in-memory disk (`MemDisk`) and
//! recovers from `crash_image(.., synced_only = true)`: every file cut
//! back to its last-synced prefix. Images are taken while the writers are
//! still running, so some writes are in flight at every crash point.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ad_kv::{KvConfig, KvStore, MemDisk, WriteBatch};

use crate::gen::{decode_value, encode_value, Rng, Stamp, THREADS};
use crate::workloads::{Report, SYNC_POLICY};

/// Operations in the check, split evenly over the threads.
const OPS: u64 = 2000;
/// Keys each thread writes (its own range, so "the last acked write of a
/// key" is well defined without ordering the threads).
const KEYS_PER_THREAD: u32 = 64;

fn key_name(key: u32) -> String {
    format!("d{key:04}")
}

/// One write: its sequence number and the keys it put, all stamped alike.
type Logged = (u64, Vec<u32>);

fn writer(store: &KvStore, thread: usize, seed: u64, acked: &AtomicU64) -> Vec<Logged> {
    let mut rng = Rng::new(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9));
    let base = thread as u32 * KEYS_PER_THREAD;
    (1..=OPS / THREADS as u64)
        .map(|seq| {
            let first = rng.below(u64::from(KEYS_PER_THREAD)) as u32;
            // Half single puts, half batches of two or three distinct keys.
            let n = [1, 1, 2, 3][rng.below(4) as usize];
            let keys: Vec<u32> = (0..n)
                .map(|i| base + (first + i * 7) % KEYS_PER_THREAD)
                .collect();
            let mut batch = WriteBatch::new();
            for &key in &keys {
                let stamp = Stamp {
                    writer: thread as u64,
                    seq,
                    key,
                };
                batch = batch.put(key_name(key), encode_value(stamp));
            }
            store.write_batch(&batch);
            acked.store(seq, Ordering::Release);
            (seq, keys)
        })
        .collect()
}

/// What one crash image recovered to, checked against the write log.
fn check_image(
    report: &mut Report,
    label: &str,
    image: MemDisk,
    acked: [u64; THREADS],
    logs: &[Vec<Logged>],
) {
    let (store, _) = KvStore::open_on_disk(&KvConfig::default(), SYNC_POLICY, image);
    let dump = store.dump();
    drop(store);

    // Recovered ⊆ issued: every value decodes to a write in the log.
    let mut recovered: BTreeMap<u32, u64> = BTreeMap::new();
    let mut stray = None;
    for (name, value) in &dump {
        let logged = decode_value(value).filter(|s| {
            key_name(s.key) == *name
                && logs
                    .get(s.writer as usize)
                    .and_then(|log| log.get((s.seq as usize).checked_sub(1)?))
                    .is_some_and(|(_, keys)| keys.contains(&s.key))
        });
        match logged {
            Some(s) => {
                recovered.insert(s.key, s.seq);
            }
            None => stray = Some(name.clone()),
        }
    }
    report.check(stray.is_none(), || {
        format!("{label}: recovered {stray:?} holds a value nobody wrote")
    });

    let at = |key: u32| recovered.get(&key).copied().unwrap_or(0);
    let (mut lost, mut split) = (None, None);
    for (t, log) in logs.iter().enumerate() {
        for (seq, keys) in log {
            // Acked ⊆ recovered: a key holds the acked write or a later one.
            if *seq <= acked[t] && keys.iter().any(|&k| at(k) < *seq) {
                lost.get_or_insert((t, *seq));
            }
            // No split: where one key shows this batch, no other key of
            // the batch shows an older write.
            if keys.iter().any(|&k| at(k) == *seq) && keys.iter().any(|&k| at(k) < *seq) {
                split.get_or_insert((t, *seq));
            }
        }
    }
    report.check(lost.is_none(), || {
        format!("{label}: acked write {lost:?} (thread, seq) missing after recovery")
    });
    report.check(split.is_none(), || {
        format!("{label}: batch {split:?} (thread, seq) recovered in part")
    });
}

/// Run the check; its attempts and failures are added to `report`.
pub fn check(seed: u64, report: &mut Report) {
    let disk = MemDisk::new();
    let (store, _) = KvStore::open_on_disk(&KvConfig::default(), SYNC_POLICY, disk.clone());
    let acked: [AtomicU64; THREADS] = Default::default();
    let mut images: Vec<(String, MemDisk, [u64; THREADS])> = Vec::new();

    let logs: Vec<Vec<Logged>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (store, acked) = (&store, &acked[t]);
                s.spawn(move || writer(store, t, seed, acked))
            })
            .collect();
        // Crash points while the writers run: read what is acked, *then*
        // freeze the disk, so the image holds at least those writes.
        for quarter in 1..=3 {
            while acked.iter().map(|a| a.load(Ordering::Acquire)).sum::<u64>() < quarter * OPS / 4 {
                std::thread::yield_now();
            }
            let seen = std::array::from_fn(|t| acked[t].load(Ordering::Acquire));
            let image = disk.crash_image(disk.journal_len(), 0, true);
            images.push((format!("crash at {quarter}/4"), image, seen));
            if quarter == 2 {
                // Recovery after this point is snapshot + WAL suffix.
                store.checkpoint().expect("checkpoint on MemDisk");
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("durability writer panicked"))
            .collect()
    });
    let all = std::array::from_fn(|t| acked[t].load(Ordering::Acquire));
    images.push((
        "crash at end".into(),
        disk.crash_image(disk.journal_len(), 0, true),
        all,
    ));
    drop(store);

    for (label, image, seen) in images {
        check_image(report, &label, image, seen, &logs);
    }
}
