//! Rule inventory: names, the atomics allowlist, and the per-rule match
//! logic (split by the region each rule binds to).
//!
//! | rule | region | what it catches |
//! |---|---|---|
//! | `direct-access-in-atomic` | atomic | `TVar::load/store`, `update_locked`, `peek_unsynchronized` bypassing the transaction |
//! | `blocking-in-atomic` | `atomically` only | fsync/socket/lock/recv/sleep — blocking calls in a *retryable* closure |
//! | `defer-captures-tx` | deferred | the deferred closure references the (dead-after-commit) transaction |
//! | `panic-in-deferred` | deferred | `unwrap`/`expect`/`panic!`/`assert!` — a panicking op unwinds out of its committer's `atomically` (DESIGN.md §10) |
//! | `defer-waits-on-defer` | deferred | waiting on deferred results (or re-entering a transaction) from inside a deferred op — the self-wait (DESIGN.md §10) |
//! | `defer-after-write` | atomic | `atomic_defer*` lexically after the first `tx.write` (DESIGN.md §9 ordering) |
//! | `cross-runtime-access` | atomic | entering another runtime's transaction, or a store entry point (own runtime, own transaction) from inside a live atomic closure (DESIGN.md §14) |
//! | `seqcst-outside-allowlist` | any | `Ordering::SeqCst` outside the audited fence core |
//! | `raw-atomic` | any | `std/core::sync::atomic` bypassing the loom-instrumented facade |

pub mod atomic;
pub mod deferred;
pub mod ordering;

/// Rule: non-transactional accessor lexically inside an
/// `atomically`/`synchronized` closure (outside any deferred-op closure,
/// where direct access under the held lock is the point).
pub const RULE_DIRECT_ACCESS: &str = "direct-access-in-atomic";
/// Rule: the deferred closure of an `atomic_defer*` call captures a
/// binding resolved to the transaction (or mentions the `Tx` type).
pub const RULE_DEFER_CAPTURES_TX: &str = "defer-captures-tx";
/// Rule: `Ordering::SeqCst` outside the fence-disciplined allowlist.
pub const RULE_SEQCST: &str = "seqcst-outside-allowlist";
/// Rule: raw `std::sync::atomic` outside the allowlist (use the
/// `ad_support::sync::atomic` facade so loom models instrument the access).
pub const RULE_RAW_ATOMIC: &str = "raw-atomic";
/// Rule: a blocking call inside an `atomically` closure (outside its
/// deferred closures). Transactions retry: blocking work belongs in a
/// deferred op (run once, post-commit, under the held TxLocks) or in a
/// `synchronized` irrevocable section.
pub const RULE_BLOCKING_IN_ATOMIC: &str = "blocking-in-atomic";
/// Rule: a deferred closure waits on deferred work (`store.sync()`) or
/// re-enters a transaction — the static half of the self-wait caveat
/// (DESIGN.md §10 i).
pub const RULE_DEFER_WAITS: &str = "defer-waits-on-defer";
/// Rule: a deferred closure can panic (`unwrap`/`expect`/`panic!`/
/// `assert!`). A panicking deferred op releases its locks, the rest of
/// its batch still runs, and the panic then unwinds out of the
/// committer's `atomically` — after the transaction committed
/// (DESIGN.md §10 ii).
pub const RULE_PANIC_IN_DEFERRED: &str = "panic-in-deferred";
/// Rule: an `atomic_defer*` call lexically after the first `tx.write` in
/// the same atomic closure. Deferral must precede the first write so a
/// conflict abort cannot leave a half-registered deferral (DESIGN.md §9 —
/// the KV commit protocol relies on this ordering).
pub const RULE_DEFER_AFTER_WRITE: &str = "defer-after-write";
/// Rule: a live atomic closure touches state owned by a *different*
/// runtime — `other.atomically(...)` whose named receiver differs from
/// the region's host runtime, or a store entry point (`write_batch`,
/// `commit`, ...) that opens its own transaction on its own
/// runtime. Every runtime is its own island (clock, quiescence, TxLocks):
/// the inner commit is invisible to the outer validation, the outer
/// closure can retry and repeat the inner (already-committed) effect, and
/// coordinator-holds-locks deadlocks become possible. Cross-runtime work
/// goes through the `ad-shard` router's prepare/ack protocol (DESIGN.md
/// §14); router internals carry the usual allow-marker.
pub const RULE_CROSS_RUNTIME: &str = "cross-runtime-access";

/// Every rule, for `--check-allows` (stale-marker detection) and docs.
pub const ALL_RULES: &[&str] = &[
    RULE_DIRECT_ACCESS,
    RULE_BLOCKING_IN_ATOMIC,
    RULE_DEFER_CAPTURES_TX,
    RULE_PANIC_IN_DEFERRED,
    RULE_DEFER_WAITS,
    RULE_DEFER_AFTER_WRITE,
    RULE_CROSS_RUNTIME,
    RULE_SEQCST,
    RULE_RAW_ATOMIC,
];

/// The rules that bind deferred-op closures. During the dataflow re-walk
/// of a `let`-bound closure at its `atomic_defer*` call site, only these
/// fire (everything else was already reported at the binding site).
pub const DEFER_RULES: &[&str] = &[
    RULE_DEFER_CAPTURES_TX,
    RULE_PANIC_IN_DEFERRED,
    RULE_DEFER_WAITS,
];

/// Files (path-suffix/substring match, `/`-normalized) where `SeqCst` and
/// raw `std::sync::atomic` are part of the audited fence discipline:
/// the epoch-reclamation core, the registry and clock protocols, the
/// `ad-support` facade/model layer itself, and the `verify` model suites
/// (compiled only under `--cfg loom` test builds).
///
/// `tsc.rs` (the calibrated TSC-coarse timestamp source, OBSERVABILITY.md)
/// is listed explicitly even though the blanket `crates/support/` entry
/// covers it: its raw `rdtsc`/counter reads and `SeqCst` calibration
/// stores are audited as a unit, and the entry must survive any future
/// narrowing of the blanket.
pub const ATOMICS_ALLOWLIST: &[&str] = &[
    "crates/support/",
    "crates/support/src/tsc.rs",
    "crates/stm/src/snapshot.rs",
    "crates/stm/src/registry.rs",
    "crates/stm/src/clock.rs",
    "src/verify",
];
