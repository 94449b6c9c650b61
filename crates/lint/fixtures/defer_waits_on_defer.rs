//! Fixture: deferred ops synchronizing with other deferred work — the
//! static half of the self-wait caveat (DESIGN.md §10).
//! Two sites must be flagged as `defer-waits-on-defer`: a `store.sync()`
//! and a re-entrant `atomically`. Waiting *outside* any deferred closure
//! is fine.

fn self_deadlocks(rt: &Runtime, o: Defer<Obj>, store: Store) {
    rt.atomically(|tx| {
        atomic_defer(tx, &[&o.clone()], move || {
            store.sync(); // FLAG: sync drains the deferred queue
            RT.atomically(|tx2| Ok(())); // FLAG: re-enters the runtime
        })
    });
}

fn waiting_outside_is_fine(store: Store) {
    // The committing thread waiting for its own durable writes after
    // commit is the documented pattern — only waits inside deferred
    // closures deadlock.
    store.sync();
}
