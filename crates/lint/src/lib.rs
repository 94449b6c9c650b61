//! # ad-lint — a token-tree TM-contract checker for this workspace
//!
//! The atomic-deferral API has contracts the Rust type system cannot see
//! (paper §4; DESIGN.md §7.1, §9, §10; VERIFICATION.md):
//!
//! * Inside an `atomically`/`synchronized` closure, shared state must be
//!   accessed through the transaction (`tx.read`/`tx.write` or subscribing
//!   accessors), never through the non-transactional escape hatches.
//! * An `atomically` closure may re-execute on conflict: blocking calls
//!   (fsync, socket writes, lock acquisition, channel receives, sleeps)
//!   belong in deferred ops or `synchronized` sections, not in the
//!   retryable path.
//! * A deferred operation runs *after* its transaction commits: it must
//!   not capture the `Tx`, must not panic (the panic unwinds out of the
//!   committer's `atomically` after the commit), and must not wait on
//!   other deferred work (self-deadlock on the committing thread).
//! * Deferrals must be registered before the transaction's first write
//!   (defer-before-first-write, the ordering the KV commit protocol
//!   relies on).
//! * A live atomic closure must not touch state owned by a *different*
//!   runtime — another runtime's `atomically`, or a store entry point
//!   that commits its own transaction on its own runtime. Cross-runtime
//!   writes go through the `ad-shard` router (DESIGN.md §14).
//! * `Ordering::SeqCst` and raw `std::sync::atomic` are reserved for the
//!   fence-disciplined core and the `ad-support` facade/model layer.
//!
//! Since v2 the checker is a real (still dependency-free) static-analysis
//! pass instead of a flat lexical scan:
//!
//! 1. [`lexer`] — a hand-rolled Rust lexer: raw identifiers (`r#tx` is
//!    one token named `tx`), raw/byte/C strings with any hash count,
//!    lifetimes vs. char literals, nested block comments, numeric
//!    literals; comments carry the `ad-lint: allow(...)` markers.
//! 2. [`tree`] — brace matching into a token tree, so argument lists,
//!    bodies, and macro invocations are nodes, not paren-depth counters.
//! 3. `scope` (private) — the analysis walk: transactional *regions* (atomic
//!    closure vs. deferred closure vs. plain code), lexical scopes with
//!    *bindings* (the `tx` param of `atomically(|tx| ...)` is the
//!    transaction; `let tx = channel.tx()` is not), descent into macro
//!    invocation bodies, and one level of dataflow (`let op = move ||
//!    ...;` passed by name to `atomic_defer*` is re-walked as a deferred
//!    closure).
//! 4. [`rules`] — the nine rules, each bound to the region it polices.
//!
//! What is still out of scope: type inference (a `Tx` smuggled through a
//! struct field is invisible), macro *expansion* (a macro that itself
//! wraps `atomically` does not open a region), and `match`/`if let`
//! pattern bindings. Every intentional exception in the workspace is
//! visible in the diff as an `// ad-lint: allow(<rule>)` marker on the
//! offending (or preceding) line; `--check-allows` rejects markers that
//! name rules that do not exist.
//!
//! Test code (`#[cfg(test)]`-gated items, `#[test]` functions, `tests/`
//! and `fixtures/` directories) is skipped: tests routinely use the
//! non-transactional accessors to set up and observe state, and that is
//! fine — the contracts above bind production code paths.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::Path;

pub mod lexer;
pub mod protocol;
pub mod rules;
pub mod tree;

mod scope;

pub use rules::{
    ALL_RULES, RULE_BLOCKING_IN_ATOMIC, RULE_CROSS_RUNTIME, RULE_DEFER_AFTER_WRITE,
    RULE_DEFER_CAPTURES_TX, RULE_DEFER_WAITS, RULE_DIRECT_ACCESS, RULE_PANIC_IN_DEFERRED,
    RULE_RAW_ATOMIC, RULE_SEQCST,
};

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `/`-normalized path as given to the scanner.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// One of the `RULE_*` constants.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed — carried into `--json` output
    /// so CI artifacts are reviewable without checking out the tree.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// One JSON object (`{"file":..,"line":..,"rule":..,"message":..,
    /// "snippet":..}`) — hand-rolled, the workspace builds offline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{},\"snippet\":{}}}",
            json_str(&self.file),
            self.line,
            json_str(self.rule),
            json_str(&self.message),
            json_str(&self.snippet),
        )
    }
}

/// Render findings as a JSON array (pretty enough for an artifact: one
/// object per line).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(&f.to_json());
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scan one file's source. `file` is used for reporting and for the
/// atomics allowlist (match on `/`-normalized substrings).
pub fn scan_source(file: &str, src: &str) -> Vec<Finding> {
    scope::scan(file, src)
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories never scanned: build output, VCS, test-only and
/// measurement-only trees (`benchmark/` is a package of its own outside
/// the workspace: no loom lane builds it, and its deferred ops fail stop
/// on purpose), and the lint's own deliberately-bad fixtures.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "tests",
    "benches",
    "benchmark",
    "fixtures",
];

/// Recursively scan every `.rs` file under `root` (skipping `SKIP_DIRS`)
/// and return all findings, sorted by file and line.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for_each_rs(root, SKIP_DIRS, &mut |path| {
        let src = std::fs::read_to_string(path)?;
        let file = path.to_string_lossy().replace('\\', "/");
        findings.extend(scan_source(&file, &src));
        Ok(())
    })?;
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// An `ad-lint: allow(...)` marker naming a rule that does not exist —
/// either a typo (the finding it meant to suppress is live) or a leftover
/// from a removed rule. Both should fail CI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAllow {
    /// `/`-normalized path.
    pub file: String,
    /// 1-based line of the marker comment.
    pub line: usize,
    /// The unknown rule name the marker used.
    pub rule: String,
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: allow marker names unknown rule `{}` (known: {})",
            self.file,
            self.line,
            self.rule,
            rules::ALL_RULES.join(", ")
        )
    }
}

/// Find stale allow markers under `root`. Unlike [`scan_tree`] this walks
/// *everything* except build output and VCS state — a stale marker in a
/// test or fixture is just as misleading as one in production code.
pub fn check_allows_tree(root: &Path) -> std::io::Result<Vec<StaleAllow>> {
    let mut stale = Vec::new();
    for_each_rs(root, &["target", ".git"], &mut |path| {
        let src = std::fs::read_to_string(path)?;
        let file = path.to_string_lossy().replace('\\', "/");
        let lexed = lexer::lex(&src);
        let mut lines: Vec<_> = lexed.allows.iter().collect();
        lines.sort();
        for (line, rs) in lines {
            for r in rs {
                if r != "all" && !rules::ALL_RULES.contains(&r.as_str()) {
                    stale.push(StaleAllow {
                        file: file.clone(),
                        line: *line,
                        rule: r.clone(),
                    });
                }
            }
        }
        Ok(())
    })?;
    stale.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(stale)
}

fn for_each_rs(
    root: &Path,
    skip: &[&str],
    f: &mut dyn FnMut(&Path) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        if dir.is_file() {
            f(&dir)?;
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !skip.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                f(&path)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn direct_load_and_store_in_atomic_are_flagged() {
        let src = r#"
            fn f(v: TVar<u64>) {
                atomically(|tx| {
                    let x = v.load();
                    v.store(x + 1);
                    Ok(())
                });
            }
        "#;
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DIRECT_ACCESS, RULE_DIRECT_ACCESS]);
        assert_eq!(f[0].line, 4);
        assert_eq!(f[1].line, 5);
        assert_eq!(f[0].snippet, "let x = v.load();");
    }

    #[test]
    fn atomic_store_with_ordering_is_not_a_tvar_store() {
        let src = "
            fn f(flag: AtomicBool) {
                atomically(|tx| { flag.store(true, Ordering::Release); Ok(()) });
            }
        ";
        // The Ordering argument marks this as a (facade) atomic, not a
        // TVar accessor — a different contract, not this rule's business.
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), Vec::<&str>::new());
    }

    #[test]
    fn update_locked_and_peek_in_atomic_are_flagged() {
        let src = "
            fn f(o: Defer<Obj>) {
                synchronized(|tx| {
                    o.peek_unsynchronized().a.update_locked(|x| x);
                    Ok(())
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DIRECT_ACCESS, RULE_DIRECT_ACCESS]);
    }

    #[test]
    fn deferred_closure_is_exempt_from_direct_access() {
        let src = "
            fn f(o: Defer<Obj>) {
                atomically(|tx| {
                    let o2 = o.clone();
                    atomic_defer(tx, &[&o.clone()], move || {
                        o2.locked().a.store(1);
                        o2.locked().b.update_locked(|x| x + 1);
                    })
                });
            }
        ";
        // Direct access *is* the point of a deferred op (the lock is held);
        // and the `tx` in argument position 1 is outside the closure.
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), Vec::<&str>::new());
    }

    #[test]
    fn deferred_closure_capturing_tx_is_flagged() {
        let src = "
            fn f(o: Defer<Obj>, v: TVar<u64>) {
                atomically(|tx| {
                    atomic_defer(tx, &[&o.clone()], move || {
                        let _ = tx.read(&v);
                    })
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_CAPTURES_TX]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn unordered_defer_threshold_is_one_comma() {
        let src = "
            fn f() {
                atomically(|tx| {
                    atomic_defer_unordered(tx, move || {
                        tx.commit();
                    })
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_CAPTURES_TX]);
    }

    #[test]
    fn seqcst_flagged_outside_allowlist_only() {
        let src = "fn f(a: AtomicU64) { a.load(Ordering::SeqCst); }";
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            vec![RULE_SEQCST]
        );
        assert_eq!(
            rules_of(&scan_source("crates/stm/src/snapshot.rs", src)),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_of(&scan_source("crates/support/src/model.rs", src)),
            Vec::<&str>::new()
        );
        // The audited TSC timestamp source (raw counter reads + SeqCst
        // calibration) has its own allowlist entry; keep it covered.
        assert_eq!(
            rules_of(&scan_source("crates/support/src/tsc.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn raw_atomic_path_flagged_outside_allowlist_only() {
        let src = "use std::sync::atomic::AtomicU64;";
        assert_eq!(
            rules_of(&scan_source("crates/stm/src/tx.rs", src)),
            vec![RULE_RAW_ATOMIC]
        );
        assert_eq!(
            rules_of(&scan_source("crates/support/src/sync.rs", src)),
            Vec::<&str>::new()
        );
        // Unrelated std paths are fine.
        assert_eq!(
            rules_of(&scan_source("crates/stm/src/tx.rs", "use std::sync::Arc;")),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_previous_line() {
        let src = "
            fn f(a: AtomicU64) {
                a.load(Ordering::SeqCst); // ad-lint: allow(seqcst-outside-allowlist)
                // ad-lint: allow(seqcst-outside-allowlist)
                a.load(Ordering::SeqCst);
                a.load(Ordering::SeqCst);
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_SEQCST]);
        assert_eq!(f[0].line, 6, "only the unannotated use survives");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "
            fn prod(v: TVar<u64>) {
                atomically(|tx| { v.load(); Ok(()) });
            }
            #[cfg(all(test, not(loom)))]
            mod tests {
                fn t(v: TVar<u64>) {
                    atomically(|tx| { v.load(); Ok(()) });
                    let x = Ordering::SeqCst;
                }
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DIRECT_ACCESS]);
        assert_eq!(f[0].line, 3, "only the production occurrence");
    }

    #[test]
    fn cfg_not_test_items_are_scanned() {
        // `not(test)` gates an item *out* of tests — that is production
        // code and must be checked (the v1 text-matcher got this wrong).
        let src = "
            #[cfg(not(test))]
            fn prod(v: TVar<u64>) {
                atomically(|tx| { v.load(); Ok(()) });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DIRECT_ACCESS]);
    }

    #[test]
    fn comments_and_strings_do_not_produce_findings() {
        let src = r##"
            // atomically(|tx| v.load());
            /* Ordering::SeqCst */
            fn f() {
                let s = "atomically(|tx| v.load()) Ordering::SeqCst";
                let r = r#"std::sync::atomic"#;
            }
        "##;
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn nested_transaction_inside_deferred_op_is_checked_again() {
        // A deferred op that opens its own transaction is (a) a
        // self-wait hazard on the committing thread — the
        // defer-waits-on-defer rule — and (b) once inside the nested
        // atomic closure, the atomic rules apply again.
        let src = "
            fn f(o: Defer<Obj>, v: TVar<u64>) {
                atomically(|tx| {
                    atomic_defer(tx, &[&o.clone()], move || {
                        atomically(|tx2| { v.load(); Ok(()) });
                    })
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_WAITS, RULE_DIRECT_ACCESS]);
        assert_eq!(f[0].line, 5);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn cfg_test_attribute_on_fn_is_skipped() {
        let src = "
            #[cfg(test)]
            pub(crate) fn force(v: &V) {
                v.version.store(1, Ordering::SeqCst);
            }
            fn prod() { let o = Ordering::SeqCst; }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_SEQCST]);
        assert_eq!(f[0].line, 6);
    }

    // -- v2: the new rules -------------------------------------------------

    #[test]
    fn blocking_calls_in_atomically_are_flagged() {
        let src = "
            fn f(file: File, rt: &Runtime) {
                rt.atomically(|tx| {
                    file.sync_all();
                    std::thread::sleep(d);
                    publish_snapshot(&disk, &bytes);
                    Ok(())
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_BLOCKING_IN_ATOMIC; 3]);
    }

    #[test]
    fn tx_write_is_not_blocking_io() {
        // `tx.write(...)` is the transactional write API; `w.write(...)`
        // on anything else inside `atomically` is stream I/O.
        let src = "
            fn f(v: TVar<u64>, w: Socket) {
                atomically(|tx| {
                    tx.write(&v, 1)?;
                    Ok(())
                });
                atomically(|tx| {
                    w.write(buf);
                    Ok(())
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_BLOCKING_IN_ATOMIC]);
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn synchronized_sections_may_block() {
        // `synchronized` is irrevocable and serial — blocking I/O there is
        // the documented pattern (iobench's Irrevocable arm).
        let src = "
            fn f(file: File) {
                synchronized(|tx| {
                    file.sync_all();
                    Ok(())
                });
            }
        ";
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn deferred_closures_may_block() {
        let src = "
            fn f(file: Arc<File>, v: TVar<u64>) {
                atomically(|tx| {
                    let f2 = file.clone();
                    atomic_defer_unordered(tx, move || {
                        f2.sync_all().ok();
                    })
                });
            }
        ";
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn defer_waiting_on_defer_is_flagged() {
        let src = "
            fn f(store: Store) {
                atomically(|tx| {
                    atomic_defer_unordered(tx, move || {
                        store.sync();
                        rt.atomically(|tx2| Ok(()));
                    })
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_WAITS, RULE_DEFER_WAITS]);
    }

    #[test]
    fn panics_in_deferred_closures_are_flagged() {
        let src = r#"
            fn f(o: Defer<Obj>) {
                atomically(|tx| {
                    atomic_defer(tx, &[&o.clone()], move || {
                        let x = fallible().unwrap();
                        other().expect("boom");
                        assert!(x > 0);
                        panic!("bad");
                    })
                });
            }
        "#;
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_PANIC_IN_DEFERRED; 4]);
    }

    #[test]
    fn unwrap_or_variants_do_not_panic() {
        let src = r#"
            fn f(o: Defer<Obj>) {
                atomically(|tx| {
                    atomic_defer(tx, &[&o.clone()], move || {
                        let x = fallible().unwrap_or(0);
                        let y = other().unwrap_or_else(|_| 1);
                        let z = third().expect_err;
                        drop((x, y, z));
                    })
                });
            }
        "#;
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn defer_after_first_write_is_flagged() {
        let src = "
            fn f(o: Defer<Obj>, v: TVar<u64>) {
                atomically(|tx| {
                    tx.write(&v, 1)?;
                    atomic_defer(tx, &[&o.clone()], move || { op(); })
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_AFTER_WRITE]);
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("line 4"), "{}", f[0].message);
    }

    #[test]
    fn defer_before_first_write_is_the_blessed_order() {
        let src = "
            fn f(o: Defer<Obj>, v: TVar<u64>) {
                atomically(|tx| {
                    atomic_defer(tx, &[&o.clone()], move || { op(); });
                    tx.write(&v, 1)?;
                    Ok(())
                });
            }
        ";
        assert_eq!(
            rules_of(&scan_source("crates/demo/src/lib.rs", src)),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn let_bound_closure_passed_by_name_is_a_deferred_region() {
        // The KV store's batch path: the deferred closure is `let`-bound
        // and passed by name — the dataflow re-walk must see through it.
        let src = r#"
            fn f(o: Defer<Obj>, v: TVar<u64>) {
                atomically(|tx| {
                    let op = move || {
                        let _ = tx.read(&v);
                    };
                    atomic_defer(tx, &[&o.clone()], op)
                });
            }
        "#;
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_DEFER_CAPTURES_TX]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn cross_runtime_nested_entry_needs_a_named_mismatch() {
        // rt_b inside rt_a's transaction is flagged; same-runtime
        // re-entry and a bare (unattributable) host stay silent.
        let src = "
            fn f(rt_a: &Runtime, rt_b: &Runtime, v: TVar<u64>) {
                rt_a.atomically(|tx| {
                    rt_b.atomically(|tx2| tx2.read(&v));
                    rt_a.atomically(|tx2| tx2.read(&v));
                    tx.read(&v)
                });
                atomically(|tx| {
                    rt_b.atomically(|tx2| tx2.read(&v));
                    Ok(())
                });
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_CROSS_RUNTIME]);
        assert_eq!(f[0].line, 4);
        assert!(
            f[0].message.contains("`rt_b.atomically"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn store_entry_points_inside_atomic_closures_are_cross_runtime() {
        // A store commits on its own runtime: calling it from inside any
        // live transaction (retryable or irrevocable) is cross-runtime
        // access; the same call outside a region is the normal API.
        let src = "
            fn f(rt: &Runtime, store: &KvStore, b: WriteBatch) {
                rt.atomically(|tx| {
                    store.write_batch(&b);
                    Ok(())
                });
                synchronized(|tx| {
                    let _ = store.get_many(&[\"a\"]);
                    Ok(())
                });
                store.write_batch(&b);
            }
        ";
        let f = scan_source("crates/demo/src/lib.rs", src);
        assert_eq!(rules_of(&f), vec![RULE_CROSS_RUNTIME; 2]);
        assert_eq!((f[0].line, f[1].line), (4, 8));
    }

    #[test]
    fn json_output_is_escaped_and_structured() {
        let f = Finding {
            file: "a\\b.rs".into(),
            line: 3,
            rule: RULE_SEQCST,
            message: "say \"no\"".into(),
            snippet: "let x\t= 1;".into(),
        };
        assert_eq!(
            f.to_json(),
            r#"{"file":"a\\b.rs","line":3,"rule":"seqcst-outside-allowlist","message":"say \"no\"","snippet":"let x\t= 1;"}"#,
        );
        assert_eq!(findings_to_json(&[]), "[]");
        let arr = findings_to_json(&[f]);
        assert!(arr.starts_with("[\n  {") && arr.ends_with("}\n]"), "{arr}");
    }

    #[test]
    fn stale_allow_detection_reports_unknown_rules() {
        let dir = std::env::temp_dir().join(format!("ad-lint-allow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.rs");
        std::fs::write(
            &path,
            "// ad-lint: allow(seqcst-outside-allowlist)\nfn a() {}\n\
             // ad-lint: allow(no-such-rule)\nfn b() {}\n\
             // ad-lint: allow(all)\nfn c() {}\n",
        )
        .unwrap();
        let stale = check_allows_tree(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, "no-such-rule");
        assert_eq!(stale[0].line, 3);
    }
}
