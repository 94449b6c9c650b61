//! The metric table: every name the harness reports, its unit, which way
//! is better, where it is listed, and the bound it carries on each
//! workload. `../BENCHMARK.json` repeats this table (all but the `RunOnly`
//! rows); a unit test keeps the two in step.

use crate::gen::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// What a user of the system sees; taken from untraced runs, carries a
    /// bound per workload ([`bound`]) and is judged by `compare`.
    EndToEnd,
    /// A single layer's metric.
    Layer,
    /// Needs an untraced and a traced run, so only `run` computes it.
    RunOnly,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub section: Section,
}

const fn m(name: &'static str, unit: &'static str, better: Better, section: Section) -> Metric {
    Metric {
        name,
        unit,
        better,
        section,
    }
}

use Better::{Higher, Lower};
use Section::{EndToEnd, Layer, RunOnly};

pub const METRICS: &[Metric] = &[
    // The thirteen end-to-end metrics, and throughput with the shared
    // disk's drift taken out.
    m("throughput_ops_s", "1/s", Higher, EndToEnd),
    m("throughput_refdisk_ops_s", "1/s", Higher, EndToEnd),
    m("read_p50_us", "us", Lower, EndToEnd),
    m("read_p99_us", "us", Lower, EndToEnd),
    m("write_p50_us", "us", Lower, EndToEnd),
    m("write_p99_us", "us", Lower, EndToEnd),
    m("xwrite_p50_us", "us", Lower, EndToEnd),
    m("xwrite_p99_us", "us", Lower, EndToEnd),
    m("scan_p50_us", "us", Lower, EndToEnd),
    m("failed_ops_pct", "%", Lower, EndToEnd),
    m("setup_s", "s", Lower, EndToEnd),
    m("reopen_ms", "ms", Lower, EndToEnd),
    m("wal_bytes_per_user_byte", "B/B", Lower, EndToEnd),
    m("peak_rss_mb", "MB", Lower, EndToEnd),
    // net
    m("net.codec_ns_per_req", "ns", Lower, Layer),
    m("net.rtt_overhead_us", "us", Lower, Layer),
    m("net.server_req_mean_us", "us", Lower, Layer),
    m("net.server_req_p99_us", "us", Lower, Layer),
    m("net.get_rtt_p50_us", "us", Lower, Layer),
    m("net.requests", "count", Higher, Layer),
    m("net.status_errors", "count", Lower, Layer),
    m("net.frame_errors", "count", Lower, Layer),
    // shard
    m("shard.route_get_ns", "ns", Lower, Layer),
    m("shard.twopc_self_us", "us", Lower, Layer),
    m("shard.cross_over_single", "x", Lower, Layer),
    m("shard.wal_records_per_cross_batch", "count", Lower, Layer),
    m("shard.single_batches", "count", Higher, Layer),
    m("shard.cross_batches", "count", Higher, Layer),
    m("shard.remote_wait_hazards", "count", Lower, Layer),
    // kv
    m("kv.get_ns", "ns", Lower, Layer),
    m("kv.scan10_us", "us", Lower, Layer),
    m("kv.write_volatile_us", "us", Lower, Layer),
    m("kv.write_durable_us", "us", Lower, Layer),
    m("kv.commit_self_us", "us", Lower, Layer),
    // wal
    m("wal.fsync_mean_us", "us", Lower, Layer),
    m("wal.fsync_p99_us", "us", Lower, Layer),
    m("wal.append_mean_us", "us", Lower, Layer),
    m("wal.queue_wait_us", "us", Lower, Layer),
    m("wal.coalescing", "rec/fsync", Higher, Layer),
    m("wal.records", "count", Higher, Layer),
    m("wal.batches", "count", Lower, Layer),
    m("wal.bytes", "B", Lower, Layer),
    // defer
    m("defer.noop_defer_ns", "ns", Lower, Layer),
    m("defer.subscribe_read_ns", "ns", Lower, Layer),
    m("defer.deferred_ops", "count", Higher, Layer),
    m("defer.lock_waits_per_kop", "1/kop", Lower, Layer),
    m("defer.blocked_reads_pct", "%", Lower, Layer),
    m("defer.queue_to_done_mean_us", "us", Lower, Layer),
    // stm
    m("stm.ro_tx_ns", "ns", Lower, Layer),
    m("stm.rw_tx_ns", "ns", Lower, Layer),
    m("stm.attempts_per_commit", "x", Lower, Layer),
    m("stm.aborts_conflict", "count", Lower, Layer),
    m("stm.commits", "count", Higher, Layer),
    m("stm.serializations", "count", Lower, Layer),
    m("stm.quiesce_us_per_commit", "us", Lower, Layer),
    m("stm.quiesce_ms_total", "ms", Lower, Layer),
    m("stm.commit_latency_mean_us", "us", Lower, Layer),
    m("stm.retry_backoff_ms_total", "ms", Lower, Layer),
    // bench
    m("bench.trace_overhead_pct", "%", Lower, RunOnly),
    m("bench.timer_ns", "ns", Lower, Layer),
    m("bench.budget_residual_pct", "%", Lower, Layer),
    m("bench.samples_dropped", "count", Lower, Layer),
    m("bench.disk_sync_us", "us", Lower, Layer),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The bound `BENCHMARK.json` records for every metric the driver gates
/// on: the most its schema allows. The driver judges single runs, whose
/// quartile spread on this host reaches 12 % where that of `compare`'s
/// medians over repetitions stays near 5 %, and its contract asks for a
/// bound of three times the spread.
pub const DRIVER_BOUND: f64 = 0.25;

/// Does the driver gate on `m`, and with which bound? It does on an
/// end-to-end metric that every workload reports, never as 0, steady
/// enough on each to carry a bound ([`bound`]). Every other end-to-end
/// metric is listed in `BENCHMARK.json` under `per_layer`, where the
/// driver records it without a bound.
pub fn gate(m: &Metric) -> Option<f64> {
    let everywhere = Workload::ALL
        .into_iter()
        .all(|w| bound(m.name, w).is_some_and(|b| b > 0.0 && b <= DRIVER_BOUND));
    (m.section == EndToEnd && everywhere).then_some(DRIVER_BOUND)
}

/// Metrics a `--trace 1` run prints (`per_layer` in `BENCHMARK.json`).
pub fn in_traced_line(m: &Metric) -> bool {
    m.section == Layer || (m.section == EndToEnd && gate(m).is_none())
}

/// The relative amount by which an end-to-end metric may worsen on a
/// workload before `compare` calls it a regression: max(10 %, twice the
/// largest deviation of a run's median from the mean of five full runs of
/// unchanged code), rounded up, the largest over the calibrations made
/// (README, "Bounds"). `None` where the workload has no such operation,
/// and where the bound would exceed 20 %: there the metric is reported in
/// the per-layer section and `compare` passes no verdict on it.
pub fn bound(metric: &str, workload: Workload) -> Option<f64> {
    use Workload::*;
    Some(match (metric, workload) {
        // Operation classes a workload does not have.
        ("write_p50_us" | "write_p99_us", NetRead) => return None,
        ("xwrite_p50_us" | "xwrite_p99_us", w) if w != ShardCross => return None,
        ("scan_p50_us", w) if w != KvVolatile => return None,
        ("reopen_ms" | "wal_bytes_per_user_byte", NetRead | KvVolatile | DeferIo) => return None,
        ("failed_ops_pct", _) => 0.0,
        ("wal_bytes_per_user_byte", _) => 0.01,
        // The driver's contract wants `setup_s` everywhere, with the
        // widest bound; it is exempt from demotion.
        ("setup_s", _) => DRIVER_BOUND,
        // A 0.6 us median where one timer read is 0.03 us: the 0.2 us
        // floor for sub-2 us medians, as a share of the median.
        ("read_p50_us", DeferIo) => 0.30,
        // Where every write waits for a shared disk whose sync time drifts
        // by half within a minute, what follows the disk one for one does
        // not stay under 20 %: raw throughput and the latencies beside the
        // two-phase commits, tails and the reopen behind single fsyncs.
        (
            "throughput_ops_s" | "read_p50_us" | "read_p99_us" | "write_p50_us" | "write_p99_us"
            | "xwrite_p99_us",
            ShardCross,
        ) => return None,
        ("read_p99_us" | "write_p99_us" | "reopen_ms", NetUpdate) => return None,
        // Tails of microsecond calls: a slow minute of the host doubles them.
        ("read_p99_us" | "write_p99_us", DeferIo) => return None,
        ("throughput_ops_s" | "write_p50_us", NetUpdate) => 0.17,
        ("read_p99_us", NetRead) => 0.20,
        ("xwrite_p50_us", ShardCross) => 0.19,
        ("reopen_ms", ShardCross) => 0.12,
        // Single runs land on 18.3 or 20.9 MB; so can a median of three.
        ("peak_rss_mb", ShardCross) => 0.14,
        ("throughput_ops_s" | "throughput_refdisk_ops_s", KvVolatile) => 0.14,
        ("write_p50_us", KvVolatile) => 0.13,
        ("write_p99_us", KvVolatile) => 0.11,
        ("throughput_ops_s" | "throughput_refdisk_ops_s", DeferIo) => 0.16,
        ("write_p50_us", DeferIo) => 0.15,
        ("peak_rss_mb", DeferIo) => 0.17,
        _ => 0.10,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, a) in METRICS.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{}", a.name);
            assert!(
                a.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                a.name
            );
            assert!(
                METRICS[i + 1..].iter().all(|b| b.name != a.name),
                "{} twice",
                a.name
            );
        }
        let e2e = METRICS.iter().filter(|m| m.section == EndToEnd).count();
        assert_eq!(e2e, 14);
    }

    #[test]
    fn benchmark_json_matches_the_table() {
        let manifest = manifest();
        for (key, want) in [
            (
                "end_to_end",
                METRICS
                    .iter()
                    .filter(|m| gate(m).is_some())
                    .collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                METRICS.iter().filter(|m| in_traced_line(m)).collect(),
            ),
        ] {
            let listed = manifest.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), want.len(), "{key}: count differs");
            for (got, want) in listed.iter().zip(want) {
                let field = |f| got.get(f).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), want.name);
                assert_eq!(field("unit"), want.unit, "{}", want.name);
                assert_eq!(field("better"), want.better.as_str(), "{}", want.name);
                if key == "end_to_end" {
                    let b = got.get("bound").and_then(Json::as_f64);
                    assert_eq!(b, gate(want), "{}", want.name);
                }
            }
        }
        let workloads = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
