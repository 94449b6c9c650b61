//! The fixture files under `fixtures/` are deliberately-bad code the
//! workspace walk skips (the directory is in `SKIP_DIRS`); here each one
//! is scanned explicitly and must produce exactly its advertised findings.
//! This is the CI acceptance check that the lint actually rejects the
//! shapes it claims to — if a rule rots into always-clean, this fails.

use std::path::Path;

use ad_lint::{
    scan_tree, RULE_BLOCKING_IN_ATOMIC, RULE_CROSS_RUNTIME, RULE_DEFER_AFTER_WRITE,
    RULE_DEFER_CAPTURES_TX, RULE_DEFER_WAITS, RULE_DIRECT_ACCESS, RULE_PANIC_IN_DEFERRED,
    RULE_RAW_ATOMIC, RULE_SEQCST,
};

fn fixture(name: &str) -> Vec<&'static str> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    scan_tree(&path)
        .expect("fixture readable")
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn direct_access_fixture_is_rejected() {
    assert_eq!(fixture("direct_access.rs"), vec![RULE_DIRECT_ACCESS; 4]);
}

#[test]
fn defer_captures_tx_fixture_is_rejected() {
    assert_eq!(
        fixture("defer_captures_tx.rs"),
        vec![RULE_DEFER_CAPTURES_TX; 2]
    );
}

#[test]
fn seqcst_fixture_is_rejected() {
    assert_eq!(fixture("seqcst.rs"), vec![RULE_SEQCST; 2]);
}

#[test]
fn raw_atomic_fixture_is_rejected() {
    assert_eq!(fixture("raw_atomic.rs"), vec![RULE_RAW_ATOMIC; 3]);
}

#[test]
fn blocking_in_atomic_fixture_is_rejected() {
    // fsync, stream write, channel recv, lock, sleep, plus the
    // checkpoint-tier helpers (store checkpoint, WAL rotate) — and
    // nothing from the deferred-op / `synchronized` homes where blocking
    // is legal.
    assert_eq!(
        fixture("blocking_in_atomic.rs"),
        vec![RULE_BLOCKING_IN_ATOMIC; 7]
    );
}

#[test]
fn defer_waits_on_defer_fixture_is_rejected() {
    // handle wait, path-position wait_all, store.sync(), re-entrant
    // atomically — the post-commit wait outside any deferred op is clean.
    assert_eq!(
        fixture("defer_waits_on_defer.rs"),
        vec![RULE_DEFER_WAITS; 4]
    );
}

#[test]
fn panic_in_deferred_fixture_is_rejected() {
    // unwrap, expect, panic!, assert!, unreachable! — with unwrap_or*,
    // debug_assert!, and the allow-annotated expect suppressed.
    assert_eq!(
        fixture("panic_in_deferred.rs"),
        vec![RULE_PANIC_IN_DEFERRED; 5]
    );
}

#[test]
fn defer_after_write_fixture_is_rejected() {
    // Two write-then-defer closures; the defer-first and read-only
    // closures are clean.
    assert_eq!(
        fixture("defer_after_write.rs"),
        vec![RULE_DEFER_AFTER_WRITE; 2]
    );
}

#[test]
fn cross_runtime_fixture_is_rejected() {
    // Nested entry on a foreign named runtime, a store write_batch, and
    // a plan commit inside live atomic closures — with same-runtime
    // nesting, the allow-annotated router call, and store calls outside
    // any region all clean.
    assert_eq!(fixture("cross_runtime.rs"), vec![RULE_CROSS_RUNTIME; 3]);
}

#[test]
fn every_fixture_fails_the_scan() {
    // The property CI relies on: pointing the binary at the fixture
    // directory must exit non-zero, i.e. the scan finds something in
    // every file.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("entry").path();
        let findings = scan_tree(&path).expect("fixture readable");
        assert!(
            !findings.is_empty(),
            "fixture {} produced no findings",
            path.display()
        );
    }
}
