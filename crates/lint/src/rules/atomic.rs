//! Rules that bind *atomic* regions: `direct-access-in-atomic`,
//! `blocking-in-atomic`, and `cross-runtime-access`.

use crate::tree::{Group, Node};

/// Non-transactional accessor shapes inside an atomic closure.
///
/// `.load()` with no arguments is a `TVar` direct read (an atomics-facade
/// `load(Ordering::..)` has an argument); `.store(v)` without an
/// `Ordering` argument is a `TVar` direct write; `update_locked` and
/// `peek_unsynchronized` are the named escape hatches.
pub fn direct_access(name: &str, args: &Group) -> Option<String> {
    let bad = match name {
        "load" => args.children.is_empty(),
        "store" => !mentions_ident(args, "Ordering"),
        "update_locked" | "peek_unsynchronized" => true,
        _ => false,
    };
    bad.then(|| {
        format!(
            "non-transactional accessor `.{name}(...)` inside an atomic closure; \
             go through the transaction (tx.read/tx.write or a subscribing accessor)"
        )
    })
}

/// Blocking method calls that must not appear in a *retryable*
/// (`atomically`) closure. The caller has already established that the
/// receiver is not the transaction (`tx.write` is a transactional write,
/// not socket I/O).
///
/// Durability: `sync_all`/`sync_data`/`fsync`; stream I/O: `write`,
/// `write_all`, `flush`, `read_exact`; synchronization: `lock`, `join`,
/// channel `recv`/`recv_timeout`; checkpointing (`ad-kv`, each a
/// whole-file read, an fsync-plus-rename or a wait for the group-commit
/// leader under the hood): `checkpoint`, `rotate`, `drop_rotated`,
/// `sync_dir` (the snapshot publish itself is a free function — see
/// [`blocking_fn`]).
pub fn blocking_method(name: &str) -> Option<String> {
    const BLOCKING: &[&str] = &[
        "sync_all",
        "sync_data",
        "fsync",
        "write",
        "write_all",
        "flush",
        "read_exact",
        "lock",
        "join",
        "recv",
        "recv_timeout",
        "checkpoint",
        "rotate",
        "drop_rotated",
        "sync_dir",
    ];
    BLOCKING.contains(&name).then(|| {
        format!(
            "blocking call `.{name}(...)` inside an `atomically` closure: the closure \
             may re-execute on conflict and must stay side-effect free; move the \
             blocking work into an `atomic_defer*` op (post-commit, under the held \
             TxLocks) or a `synchronized` irrevocable section"
        )
    })
}

/// Entering another runtime's transaction from inside a live atomic
/// closure: `other.atomically(...)` where `other` is a *named* receiver
/// different from the named host of the enclosing region. (When either
/// side is unnamed — a bare `atomically(...)` import or a receiver
/// reached through a call chain — ownership cannot be proven lexically
/// and the rule stays silent.)
pub fn cross_runtime_entry_msg(entry: &str, host: &str, other: &str) -> String {
    format!(
        "`{other}.{entry}(...)` inside a transaction hosted by `{host}`: each \
         runtime is its own island (clock, quiescence, TxLocks), so the inner \
         commit is invisible to the outer validation and re-executes on every \
         outer retry. Route cross-runtime writes through the shard router's \
         prepare/ack protocol (DESIGN.md §14)"
    )
}

/// A store entry point called from inside a live atomic closure. Each of
/// these opens its *own* transaction on the store's own runtime — by
/// construction a different runtime than the one hosting the enclosing
/// closure (a store never re-enters itself transactionally). Exact,
/// store-specific names only: generic container methods (`get`, `insert`)
/// must not match.
pub fn cross_runtime_store(name: &str) -> Option<String> {
    const STORE_ENTRY: &[&str] = &["write_batch", "commit", "get_many"];
    STORE_ENTRY.contains(&name).then(|| {
        format!(
            "store entry point `.{name}(...)` inside an atomic closure: it \
             commits its own transaction on the store's runtime, which the \
             enclosing transaction's validation never sees — on an outer retry \
             the store-side effect repeats. Do the store call before/after the \
             transaction, or route it through the shard router (DESIGN.md §14)"
        )
    })
}

/// Blocking *free functions* inside an `atomically` closure:
/// `thread::sleep`, and `ad-kv`'s one snapshot publish
/// (`publish_snapshot`: write tmp, fsync, rename, fsync the directory).
pub fn blocking_fn(name: &str) -> Option<String> {
    match name {
        "sleep" => Some(
            "`sleep` inside an `atomically` closure: the closure may re-execute on \
             conflict and the sleep multiplies the window for conflicting writers; \
             defer the delay or use `synchronized`"
                .to_string(),
        ),
        "publish_snapshot" => Some(
            "`publish_snapshot` inside an `atomically` closure: it writes, fsyncs and \
             renames files, and the closure may re-execute on conflict; checkpoint from \
             outside any transaction"
                .to_string(),
        ),
        _ => None,
    }
}

fn mentions_ident(g: &Group, needle: &str) -> bool {
    g.children.iter().any(|n| match n {
        Node::Group(inner) => mentions_ident(inner, needle),
        _ => n.ident() == Some(needle),
    })
}
