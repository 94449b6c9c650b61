//! Rules that bind *deferred-op* closures: `defer-captures-tx`,
//! `panic-in-deferred`, and `defer-waits-on-defer`.

/// The deferred closure references the transaction (a binding resolved to
/// `Tx`, or the `Tx` type itself).
pub fn captures_tx_msg() -> String {
    "deferred closure captures the transaction: deferred operations run \
     after commit and must not touch `Tx` (or anything read through it)"
        .to_string()
}

/// Panicking method calls in a deferred closure. Exact names only:
/// `unwrap_or`/`unwrap_or_else`/`expect_err` and friends do not panic on
/// the hot path and must not match.
pub fn panic_method(name: &str) -> Option<String> {
    matches!(name, "unwrap" | "expect").then(|| {
        format!(
            "`.{name}(...)` in a deferred closure: a panicking deferred op \
             unwinds out of its committer's `atomically` after the \
             transaction committed (DESIGN.md §10). Handle the error, or \
             annotate if failing the committer is the intended policy"
        )
    })
}

/// Panicking macros in a deferred closure (`debug_assert*` deliberately
/// excluded — it is the documented vehicle for debug-only guards).
pub fn panic_macro(name: &str) -> Option<String> {
    matches!(
        name,
        "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo" | "unimplemented"
    )
    .then(|| {
        format!(
            "`{name}!` in a deferred closure: a panicking deferred op unwinds \
             out of its committer's `atomically` after the transaction \
             committed (DESIGN.md §10). Handle the error, or annotate if \
             failing the committer is the intended policy"
        )
    })
}

/// Waiting on deferred results from inside a deferred op.
pub fn wait_method(name: &str) -> Option<String> {
    matches!(name, "wait" | "wait_all" | "sync").then(|| {
        format!(
            "`{name}` inside a deferred closure waits on deferred work while \
             this op holds its locks: an op queued *behind* this one on the \
             committing thread never runs until it returns — self-deadlock \
             (DESIGN.md §10). Deferred ops must not synchronize with other \
             deferred ops"
        )
    })
}

/// Re-entering the transactional runtime from inside a deferred op.
pub fn reentry_msg(entry: &str) -> String {
    format!(
        "`{entry}` inside a deferred closure re-enters the runtime: the \
         nested transaction can park the committing thread \
         (retry/irrevocability) while ops queued behind it — possibly its \
         own dependencies — never run (DESIGN.md §10). Hand the work to \
         another thread instead"
    )
}
