//! Fixture: deferred ops synchronizing with other deferred work — the
//! static half of the self-wait caveat (DESIGN.md §10).
//! Four sites must be flagged as `defer-waits-on-defer`: a handle wait, a
//! path-position `wait_all`, a `store.sync()`, and a re-entrant
//! `atomically`. Waiting *outside* any deferred closure is fine.

fn self_deadlocks(rt: &Runtime, o: Defer<Obj>, h: DeferHandle<u64>, store: Store) {
    rt.atomically(|tx| {
        let hs = Vec::new();
        atomic_defer(tx, &[&o.clone()], move || {
            let _v = h.wait(&RT); // FLAG: waits on a deferred result
            DeferHandle::wait_all(&RT, hs); // FLAG: path-position wait
            store.sync(); // FLAG: sync drains the deferred queue
            RT.atomically(|tx2| Ok(())); // FLAG: re-enters the runtime
        })
    });
}

fn waiting_outside_is_fine(rt: &Runtime, h: DeferHandle<u64>) {
    // The *producer* thread waiting on its own handle after commit is the
    // documented pattern — only waits inside deferred closures deadlock.
    let _v = h.wait(rt);
}
