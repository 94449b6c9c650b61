//! `txtrace` — run a small deferral workload with event tracing enabled and
//! dump the merged per-thread event timeline (see OBSERVABILITY.md for the
//! event schema).
//!
//! The workload is a miniature of the paper's §5.1 logging scenario: every
//! transaction increments one of a few contended counters and atomically
//! defers an operation on a shared deferrable object, so the timeline shows
//! the full event vocabulary — `begin`, `lock_acquire`, `defer_enqueue`,
//! `commit`, `defer_exec_start`/`defer_exec_end`, plus `abort`/`backoff`
//! under contention and `quiesce_enter`/`quiesce_exit` when writers overlap.
//!
//! ```text
//! cargo run --release -p ad-bench --bin txtrace [-- --ops 64 --threads 2 --vars 2]
//! ```
//!
//! Options: `--ops N` total transactions (default 64), `--threads N`
//! (default 2), `--vars N` shared counters (default 2; fewer = more
//! conflicts), `--stats` (append the runtime's full stats report),
//! `--trace-json PATH` (additionally export the timeline as
//! chrome://tracing / Perfetto trace-event JSON — load the file in
//! `about:tracing` or <https://ui.perfetto.dev>).
//!
//! `--shards N` switches to the cross-shard mode: `--ops` write batches
//! spanning all `N` shards of an `ad-shard` router (each shard its own
//! runtime), with the per-runtime trace rings merged into **one**
//! timeline. Rows are tagged `r<runtime>.t<thread>`, so a single
//! cross-shard commit reads as one story: the coordinator's
//! `shard_prepare` → the participant's `shard_prepare`/`shard_ack` on
//! its own runtime → the coordinator's decision `shard_release` → the
//! participant's release. In the chrome export each runtime is its own
//! process row.
//!
//! After the timeline, the per-TVar contention report
//! ([`ad_stm::Trace::contention_report`]) ranks the variables whose
//! commit-time validation failures caused the aborts — the quickest answer
//! to "which variable is my bottleneck?".

use ad_support::sync::atomic::{AtomicU64, Ordering};

use ad_defer::{atomic_defer, Defer};
use ad_stm::{Runtime, TVar, TmConfig};
use ad_support::args::{arg_flag, arg_num, arg_value};
use ad_workloads::run_fixed_work;

/// `--shards N`: run cross-shard batches on a volatile router and
/// render the merged multi-runtime timeline.
fn shard_mode(shards: usize, ops: usize) {
    use ad_shard::ShardRouter;

    let router = ShardRouter::open_volatile(shards.max(2));
    let n = router.shard_count();
    router.set_tracing(true);
    // One key per shard so every batch is a full-width cross-shard
    // commit: 1 coordinator + (n-1) participants.
    let keys: Vec<String> = (0..n)
        .map(|s| {
            (0..)
                .map(|i| format!("k{i}"))
                .find(|k| router.shard_of(k) == s)
                .expect("keys cover shards")
        })
        .collect();
    for round in 0..ops.max(1) {
        let mut b = ad_kv::WriteBatch::new();
        for k in &keys {
            b = b.put(k, round.to_le_bytes().to_vec());
        }
        router.write_batch(&b);
        std::hint::black_box(router.get(&keys[round % n]));
    }
    // Participants finish their release-side work asynchronously on the
    // shards' workers; quiesce so the drain sees every protocol
    // instant — (5*(n-1)+1) per batch — without racing a live writer.
    router.quiesce();
    router.set_tracing(false);
    let trace = router.take_trace();

    println!(
        "txtrace --shards: {} cross-shard batch(es) over {} runtimes — {} events \
         ({} dropped) in one merged timeline",
        ops.max(1),
        trace.runtime_ids().len(),
        trace.events.len(),
        trace.dropped
    );
    println!();
    print!("{}", trace.render());

    if let Some(path) = arg_value("--trace-json") {
        std::fs::write(&path, trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!();
        println!("wrote chrome trace to {path} (one process row per runtime)");
    }

    if arg_flag("--stats") {
        println!();
        println!("{}", router.stats());
    }
}

fn main() {
    let total_ops: usize = arg_num("--ops", 64);
    let threads: usize = arg_num("--threads", 2);
    let nvars: usize = arg_num("--vars", 2);

    if let Some(shards) = arg_value("--shards") {
        let shards: usize = shards.parse().expect("--shards takes a count");
        shard_mode(
            shards,
            if arg_value("--ops").is_some() {
                total_ops
            } else {
                2
            },
        );
        return;
    }

    let rt = Runtime::new(TmConfig::stm());
    rt.set_tracing(true);

    struct Sink {
        applied: AtomicU64,
    }
    let vars: Vec<TVar<u64>> = (0..nvars.max(1)).map(|_| TVar::new(0)).collect();
    let sink = Defer::new(Sink {
        applied: AtomicU64::new(0),
    });

    run_fixed_work(threads, total_ops, |_, i| {
        let slot = i % vars.len();
        rt.atomically(|tx| {
            let v = tx.read(&vars[slot])?;
            // Deferral registered before the first write (DESIGN.md §9).
            let s = sink.clone();
            atomic_defer(tx, &[&sink], move || {
                s.locked().applied.fetch_add(1, Ordering::Relaxed);
            })?;
            tx.write(&vars[slot], v + 1)
        });
    });

    let applied = sink.peek_unsynchronized().applied.load(Ordering::Relaxed);
    assert_eq!(applied, total_ops as u64, "deferred ops lost");

    let trace = rt.take_trace();
    println!(
        "txtrace: {} transactions on {} thread(s) over {} var(s) — {} events ({} dropped)",
        total_ops,
        threads,
        vars.len(),
        trace.events.len(),
        trace.dropped
    );
    println!();
    print!("{}", trace.render());

    let contention = trace.contention_report(8);
    if contention.total_fails > 0 {
        println!();
        print!("{contention}");
    }

    if let Some(path) = arg_value("--trace-json") {
        std::fs::write(&path, trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!();
        println!("wrote chrome trace to {path} (open in about:tracing or ui.perfetto.dev)");
    }

    if arg_flag("--stats") {
        println!();
        println!("{}", rt.snapshot_stats());
    }
}
