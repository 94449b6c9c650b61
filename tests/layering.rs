//! The layering seam between `ad-stm` and its clients: trace events of
//! the layers above the STM are data owned by the crates that emit them
//! (`AppEvent` statics), and the bottom crates name none of their clients.
//!
//! * A descriptor declared *here* — standing in for a fourth client crate
//!   — flows through emit → ring → `take_trace` → `Trace::merge` → both
//!   renderers without `ad-stm` knowing it.
//! * The rendering of the nine events `ad-kv`, `ad-net` and `ad-shard`
//!   own is pinned to literals captured from the commit before the move.
//! * A source scan keeps `crates/stm/src` and `crates/support/src` free of
//!   client-layer identifiers and of the retired `Sloppy`/`AutoPool` arms.

use std::path::Path;

use ad_stm::{AppEvent, EventKind, Runtime, TmConfig, Trace, TraceEvent};

static PAGE_FLUSH: AppEvent = AppEvent::new("page_flush", "pages");

#[test]
fn foreign_descriptor_survives_emit_merge_and_render() {
    let a = Runtime::new(TmConfig::stm());
    let b = Runtime::new(TmConfig::stm());

    // Tracing off: nothing is recorded.
    a.trace_app(&PAGE_FLUSH, 1);
    assert!(a.take_trace().events.is_empty());

    a.set_tracing(true);
    b.set_tracing(true);
    a.trace_app(&PAGE_FLUSH, 3);
    b.trace_app(&PAGE_FLUSH, 5);
    let first = a.take_trace();
    // A second take of `a` restarts its sequence numbers: its one event
    // has the same (runtime, thread, seq) as the first take's, and the
    // merge must keep both.
    a.trace_app(&PAGE_FLUSH, 7);
    let second = a.take_trace();
    let merged = Trace::merge([first, b.take_trace(), second]);

    assert_eq!(merged.runtime_ids(), vec![a.id(), b.id()]);
    assert_eq!(merged.events.len(), 3);
    let args: Vec<u64> = merged.events.iter().map(|e| e.arg).collect();
    assert_eq!(args, [3, 5, 7]);
    for e in &merged.events {
        assert_eq!(e.kind, EventKind::App(&PAGE_FLUSH));
        assert_eq!(e.kind.name(), "page_flush");
    }
    let text = merged.render();
    for arg in [3, 5, 7] {
        let line = format!("page_flush       pages={arg}\n");
        assert!(text.contains(&line), "{text}");
    }
    let json = merged.to_chrome_json();
    for (rt, arg) in [(a.id(), 3), (b.id(), 5), (a.id(), 7)] {
        let head = format!("{{\"name\":\"page_flush\",\"ph\":\"i\",\"pid\":{rt},\"tid\":0,");
        let tail = format!("\"args\":{{\"pages\":{arg}}}}}");
        assert!(
            json.lines()
                .any(|l| l.trim_start().starts_with(&head) && l.contains(&tail)),
            "{json}"
        );
    }
}

/// What the commit before the move (f20cb4c) printed for the nine events
/// that used to be `EventKind` variants, captured from a build of it:
/// `Trace::render` and `Trace::to_chrome_json` of the trace built below.
const PARENT_TEXT: &str = "\
\x20      1.500us r7.t0   wal_append       bytes=41
       1.750us r7.t1   wal_fsync        records=42
       2.000us r7.t0   ckpt_begin       arg=43
       2.250us r7.t1   ckpt_publish     arg=44
       2.500us r7.t0   wal_truncate     arg=45
       2.750us r7.t1   ack_after_durable req_id=46
       3.000us r7.t0   shard_prepare    gid=47
       3.250us r7.t1   shard_ack        gid=48
       3.500us r7.t0   shard_release    gid=49
";
const PARENT_JSON: &str = r#"{"traceEvents":[
  {"name":"wal_append","ph":"i","pid":7,"tid":0,"ts":1.500,"s":"t","args":{"arg":41}},
  {"name":"wal_fsync","ph":"i","pid":7,"tid":1,"ts":1.750,"s":"t","args":{"arg":42}},
  {"name":"ckpt_begin","ph":"i","pid":7,"tid":0,"ts":2.000,"s":"t","args":{"arg":43}},
  {"name":"ckpt_publish","ph":"i","pid":7,"tid":1,"ts":2.250,"s":"t","args":{"arg":44}},
  {"name":"wal_truncate","ph":"i","pid":7,"tid":0,"ts":2.500,"s":"t","args":{"arg":45}},
  {"name":"ack_after_durable","ph":"i","pid":7,"tid":1,"ts":2.750,"s":"t","args":{"arg":46}},
  {"name":"shard_prepare","ph":"i","pid":7,"tid":0,"ts":3.000,"s":"t","args":{"gid":47}},
  {"name":"shard_ack","ph":"i","pid":7,"tid":1,"ts":3.250,"s":"t","args":{"gid":48}},
  {"name":"shard_release","ph":"i","pid":7,"tid":0,"ts":3.500,"s":"t","args":{"gid":49}}
]}
"#;

/// The expected differences from [`PARENT_JSON`]. The parent printed the
/// argument label of these three in text only and the generic key `arg`
/// in chrome JSON (while `shard_*` got `gid` in both); a descriptor has
/// one label, printed in both.
const RELABELLED: [(&str, &str); 3] = [
    (r#""args":{"arg":41}"#, r#""args":{"bytes":41}"#),
    (r#""args":{"arg":42}"#, r#""args":{"records":42}"#),
    (r#""args":{"arg":46}"#, r#""args":{"req_id":46}"#),
];

/// Text rendering of the moved events is the parent's byte for byte;
/// chrome JSON is the parent's but for the three keys in [`RELABELLED`].
#[test]
fn moved_events_rendering_is_pinned_to_the_parent() {
    let moved: [&'static AppEvent; 9] = [
        &ad_kv::WAL_APPEND,
        &ad_kv::WAL_FSYNC,
        &ad_kv::CKPT_BEGIN,
        &ad_kv::CKPT_PUBLISH,
        &ad_kv::WAL_TRUNCATE,
        &ad_net::ACK_AFTER_DURABLE,
        &ad_shard::SHARD_PREPARE,
        &ad_shard::SHARD_ACK,
        &ad_shard::SHARD_RELEASE,
    ];
    let events: Vec<TraceEvent> = moved
        .iter()
        .enumerate()
        .map(|(i, event)| TraceEvent {
            ts_ns: 1500 + 250 * i as u64,
            runtime: 7,
            thread: i as u32 % 2,
            seq: i as u64 + 1,
            kind: EventKind::App(event),
            arg: 41 + i as u64,
        })
        .collect();
    let trace = Trace { events, dropped: 0 };

    assert_eq!(trace.render(), PARENT_TEXT);

    let mut json = PARENT_JSON.to_string();
    for (parent, now) in RELABELLED {
        assert_eq!(json.matches(parent).count(), 1, "{parent}");
        json = json.replace(parent, now);
    }
    assert_eq!(trace.to_chrome_json(), json);
}

/// `ad-stm` and `ad-support` sit below every client; neither may regain a
/// client layer's identifier, a retired policy arm or a check on whose
/// thread a caller runs (`RemoteWaitHazard`).
#[test]
fn bottom_crates_name_no_client_layer() {
    const BANNED: [&str; 12] = [
        "Wal",
        "Ckpt",
        "NetAck",
        "ShardPrepare",
        "ShardAck",
        "ShardRelease",
        "Sloppy",
        "AutoPool",
        "DeferExecCfg",
        "DeferOffload",
        "DeferSelfWaitHazard",
        "RemoteWaitHazard",
    ];
    /// Does `line` use `word` as a CamelCase word — `Wal`, `WalAppend`,
    /// but not `Wall` or `Walk`?
    fn names(line: &str, word: &str) -> bool {
        line.match_indices(word).any(|(at, _)| {
            let next = line[at + word.len()..].chars().next();
            !next.is_some_and(|c| c.is_ascii_lowercase())
        })
    }
    fn scan(dir: &Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                scan(&path, hits);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).unwrap();
                for (n, line) in source.lines().enumerate() {
                    if let Some(word) = BANNED.iter().find(|w| names(line, w)) {
                        hits.push(format!("{}:{}: `{word}`", path.display(), n + 1));
                    }
                }
            }
        }
    }
    assert!(names("EventKind::WalAppend => 14,", "Wal"));
    assert!(names("use ad_kv::Wal;", "Wal"));
    assert!(!names("// Wall-clock time of the walk", "Wal"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for dir in ["crates/stm/src", "crates/support/src"] {
        scan(&root.join(dir), &mut hits);
    }
    assert!(
        hits.is_empty(),
        "client-layer names below the seam:\n{}",
        hits.join("\n")
    );
}
