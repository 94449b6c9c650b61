//! Fixture: transactions touching state owned by a different runtime —
//! the island-assumption violations the shard router exists to prevent
//! (DESIGN.md §14). Three sites must be flagged as
//! `cross-runtime-access`: a nested transaction on another named
//! runtime, a store `write_batch` inside a live atomic closure, and an
//! plan `commit` inside one. Same-runtime nesting, router-mediated
//! access under the allow-marker, and store calls outside any region
//! stay clean.

fn nested_entry_on_another_runtime(rt_a: &Runtime, rt_b: &Runtime, v: TVar<u64>) {
    rt_a.atomically(|tx| {
        // FLAG: rt_b's commit is invisible to rt_a's validation and
        // repeats on every outer retry.
        rt_b.atomically(|tx2| tx2.write(&v, 1));
        tx.read(&v)
    });
}

fn store_entry_points_inside_a_transaction(rt: &Runtime, store: &KvStore, part: &KvStore) {
    rt.atomically(|tx| {
        store.write_batch(&WriteBatch::new().put("k", b"v")); // FLAG: own runtime, own commit
        part.commit(&batch, &plan); // FLAG: stages on the participant runtime
        Ok(())
    });
}

fn same_runtime_nesting_is_not_cross_runtime(rt_a: &Runtime, v: TVar<u64>) {
    // Re-entering the *same* named runtime is a different hazard (and a
    // different rule's business when it happens in a deferred op); this
    // rule only claims provably-foreign runtimes.
    rt_a.atomically(|tx| {
        rt_a.atomically(|tx2| tx2.read(&v));
        tx.read(&v)
    });
}

fn router_mediated_access_is_the_blessed_path(rt: &Runtime, router: &ShardRouter) {
    rt.atomically(|tx| {
        // The router's 2-phase protocol is *how* cross-runtime writes are
        // done; the marker records the audit.
        // ad-lint: allow(cross-runtime-access)
        router.write_batch(&WriteBatch::new().put("k", b"v"));
        Ok(())
    });
}

fn store_calls_outside_any_region_are_fine(store: &KvStore, router: &ShardRouter) {
    store.write_batch(&WriteBatch::new().put("k", b"v"));
    let _ = router.get_many(&["a", "b"]);
}
