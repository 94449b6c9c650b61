//! Loom-style model of the durability protocol: group-commit appends vs.
//! crash-image recovery (`RUSTFLAGS="--cfg loom"`).
//!
//! The contract under test is the conjunction recovery relies on:
//!
//! 1. **Ack implies durable** — when [`Wal::append_durable`] returns, the
//!    record's bytes are inside the segment's *synced* prefix (the part of
//!    the log that survives any crash), no matter how appenders and the
//!    group-commit leader interleave.
//! 2. **Crash images are whole-record prefixes** — the synced prefix
//!    always scans cleanly (no torn record, contiguous sequence numbers),
//!    because leaders write a batch and advance the durable mark in one
//!    segment-lock critical section.
//!
//! [`group_commit_acks_are_durable`] checks both over every interleaving
//! the scheduler can find of two concurrent appenders plus a concurrent
//! observer taking crash images mid-flight. One appender precedes its
//! forced record with an *unforced* one ([`Wal::append`]): nothing waits
//! for it, yet whichever leader's batch makes the forced record durable
//! carries it too — contiguity of the durable prefix is the check.
//!
//! The regression model [`model_catches_ack_before_fsync`] re-creates the
//! classic WAL bug the protocol exists to prevent: an appender that acks
//! after `write` but leaves the `fsync` to a background flusher. Under
//! some schedules the flusher wins and the bug is invisible — the model
//! must still find the schedule where the ack races ahead of durability.
//! If it stops finding it, the green model has rotted into always-green.

use std::sync::Arc;

use ad_stm::{Runtime, TmConfig};
use ad_support::model::{check, check_expect_violation, CheckOpts, Exec};

use crate::disk::{Disk, MemDisk, WAL_BASE};
use crate::recover::{encode_redo, scan, ScanEnd};
use crate::wal::{frame_record, Wal};

fn group_commit_scenario(e: &mut Exec) {
    let mem = MemDisk::new();
    let wal = Wal::new(Arc::new(mem.clone()), 1).expect("MemDisk");
    let wal = Arc::new(wal);
    let rt = Arc::new(Runtime::new(TmConfig::stm()));

    for t in 0..2u64 {
        let (wal, rt, mem) = (Arc::clone(&wal), Arc::clone(&rt), mem.clone());
        e.spawn(move || {
            let payload = encode_redo(t + 1, &[(format!("k{t}"), Some(vec![t as u8]))]);
            if t == 0 {
                wal.append(&payload, &rt);
            }
            let seq = wal.append_durable(&payload, &rt);
            // Ack implies durable: our record is in the synced prefix the
            // moment append_durable returns.
            let (_, report) = scan(&mem.synced(WAL_BASE), 1);
            assert!(
                report.last_seq >= seq,
                "acked seq {seq} missing from durable prefix (last durable: {})",
                report.last_seq
            );
        });
    }

    // Crash observer: any mid-flight durable prefix is a clean log —
    // whole records, contiguous seqs, nothing torn.
    e.spawn(move || {
        for _ in 0..2 {
            let (records, report) = scan(&mem.synced(WAL_BASE), 1);
            assert_eq!(
                report.end,
                ScanEnd::Clean,
                "durable prefix is not a whole-record log: {:?}",
                report.end
            );
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.seq, i as u64 + 1, "non-contiguous durable seqs");
            }
        }
    });
}

/// Green model: ack-implies-durable and clean crash images hold across
/// all explored interleavings of two appenders and an observer.
#[test]
fn group_commit_acks_are_durable() {
    check(
        "kv-wal-group-commit-durability",
        CheckOpts {
            seeds: 800,
            max_steps: 200_000,
        },
        group_commit_scenario,
    );
}

fn buggy_ack_scenario(e: &mut Exec) {
    let mem = MemDisk::new();
    let mut writer = mem.create(WAL_BASE).expect("MemDisk");
    let mut flusher = mem.open_append(WAL_BASE).expect("MemDisk");

    // BUG (deliberate): write the record, then ack — leaving the fsync to
    // a background flusher, as a naive "async durability" WAL would.
    let check_mem = mem;
    e.spawn(move || {
        let mut framed = Vec::new();
        frame_record(
            &mut framed,
            1,
            &encode_redo(1, &[("k".into(), Some(vec![1]))]),
        );
        writer.append(&framed).expect("MemDisk");
        // "Ack": the caller is told the write is durable now.
        let (_, report) = scan(&check_mem.synced(WAL_BASE), 1);
        assert!(
            report.last_seq >= 1,
            "acked seq 1 missing from durable prefix (last durable: {})",
            report.last_seq
        );
    });

    // Background flusher: syncs at its own pace. When it wins the race the
    // bug is masked; the model must find the schedule where it loses.
    e.spawn(move || {
        flusher.sync().expect("MemDisk");
    });
}

/// Regression model: the ack-before-fsync bug must be caught. Guards the
/// green model's sensitivity — same assertion, known-bad protocol.
#[test]
fn model_catches_ack_before_fsync() {
    let violation = check_expect_violation(
        CheckOpts {
            seeds: 200,
            max_steps: 50_000,
        },
        buggy_ack_scenario,
    );
    let (seed, msg) =
        violation.expect("the ack-before-fsync variant no longer races; re-tune the model");
    assert!(
        msg.contains("missing from durable prefix"),
        "expected a durability violation, got (seed {seed}): {msg}"
    );
}
