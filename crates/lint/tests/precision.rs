//! False-positive regression suite: shapes the v1 lexical scanner got
//! wrong (or would have), pinned clean forever. Each test is a pattern
//! that *looks* like a violation to a substring matcher but is legal once
//! bindings, regions, and token boundaries are tracked.

use ad_lint::scan_source;

fn rules(src: &str) -> Vec<&'static str> {
    scan_source("crates/demo/src/lib.rs", src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn let_tx_channel_binding_is_not_the_transaction() {
    // The v1 headline false positive: any identifier named `tx` tripped
    // `defer-captures-tx`. A `let tx = channel.tx()` is a *plain* binding
    // — a channel sender, not the transaction.
    let src = "
        fn f(o: Defer<Obj>, channel: Channel) {
            atomically(|txn| {
                let tx = channel.tx();
                atomic_defer(txn, &[&o.clone()], move || {
                    tx.send(42).ok();
                })
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn shadowing_closure_param_named_tx_is_plain() {
    // Inside the deferred closure, `|tx| ...` re-binds the name: the
    // iterator parameter shadows the transaction, so using it is fine.
    let src = "
        fn f(o: Defer<Obj>, items: Vec<Sender>) {
            atomically(|tx| {
                atomic_defer(tx, &[&o.clone()], move || {
                    items.iter().for_each(|tx| tx.send(1));
                })
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn raw_identifier_tx_is_the_same_binding_as_tx() {
    // `r#tx` and `tx` are the same identifier in Rust; the lexer must
    // neither split `r#tx` into phantom tokens nor treat it as distinct.
    let src = "
        fn f(o: Defer<Obj>, v: TVar<u64>) {
            atomically(|r#tx| {
                atomic_defer(r#tx, &[&o.clone()], move || {
                    let _ = tx.read(&v);
                })
            });
        }
    ";
    assert_eq!(rules(src), vec![ad_lint::RULE_DEFER_CAPTURES_TX]);
}

#[test]
fn accessor_threading_rebinds_the_transaction() {
    // The accessor idiom `obj.with(tx, |o, tx| ...)` forwards the
    // transaction into the closure: the inner `tx` IS the transaction
    // (its `tx.write` counts for defer-after-write ordering), while an
    // unrelated `for_each(|tx| ...)` param is plain.
    let src = "
        fn f(o: Defer<Obj>, v: TVar<u64>) {
            atomically(|tx| {
                o.with(tx, |obj, tx| tx.write(&v, 1))?;
                atomic_defer(tx, &[&o.clone()], move || { op(); })
            });
        }
    ";
    assert_eq!(rules(src), vec![ad_lint::RULE_DEFER_AFTER_WRITE]);
}

#[test]
fn tx_combinators_relend_the_transaction() {
    // `tx.or_else(move |tx| ...)` threads the transaction through the
    // receiver: the inner `tx.write` is transactional, not blocking I/O.
    let src = "
        fn f(h: TVar<u64>) {
            atomically(|tx| {
                tx.or_else(
                    move |tx| tx.write(&h, 1),
                    move |tx| tx.retry(),
                )
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn macro_bodies_are_scanned() {
    // The v1 scanner was blind inside macro invocations; violations in a
    // `vec![...]` / custom `m!{...}` body must be found.
    let src = "
        fn f(v: TVar<u64>) {
            atomically(|tx| {
                let xs = vec![
                    v.load(),
                    v.load(),
                ];
                Ok(xs)
            });
        }
    ";
    assert_eq!(rules(src), vec![ad_lint::RULE_DIRECT_ACCESS; 2]);
}

#[test]
fn binary_or_is_not_a_closure() {
    // `a || b` and `x | y` must not be parsed as closures (which would
    // swallow the rest of the expression as a phantom body).
    let src = "
        fn f(v: TVar<u64>, a: bool, b: bool) {
            atomically(|tx| {
                let c = a || b;
                let d = 1u64 | 2u64;
                if c || d > 0 {
                    v.load();
                }
                Ok(())
            });
        }
    ";
    assert_eq!(rules(src), vec![ad_lint::RULE_DIRECT_ACCESS]);
}

#[test]
fn fn_typed_params_are_not_the_transaction() {
    // A higher-order fn whose parameter *type* mentions `Tx` inside an
    // `Fn(...)` bound takes a closure, not a transaction; a bare `Tx`
    // param is the real thing.
    let src = "
        fn run(body: impl Fn(&mut Tx) -> TxResult<u64>) {}
        fn g(o: Defer<Obj>, tx: &mut Tx) {
            atomic_defer(tx, &[&o.clone()], move || {
                body();
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn strings_comments_and_lifetimes_do_not_leak_tokens() {
    // Token-boundary stress: raw strings with hashes, char literals that
    // look like quotes, lifetimes, nested comments — none of it may leak
    // identifiers into the analysis.
    let src = r##"
        fn f<'a>(v: &'a TVar<u64>) {
            let s = r#"atomically(|tx| v.load())"#;
            let q = '"';
            let t = "Ordering::SeqCst";
            /* v.load() /* nested v.store(1) */ */
            drop((s, q, t));
        }
    "##;
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn nested_fn_does_not_inherit_the_atomic_region() {
    // An fn *defined* inside an atomic closure executes whenever called,
    // not inside this transaction — region context must not leak in.
    let src = "
        fn f(v: TVar<u64>, file: File) {
            atomically(|tx| {
                fn helper(file: &File) {
                    file.sync_all().ok();
                }
                Ok(())
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}

#[test]
fn defer_argument_list_is_outside_the_deferred_region() {
    // `&[&o.clone()]` and the `tx` argument sit in the *call's* argument
    // list, not in the deferred closure: no captures-tx.
    let src = "
        fn f(o: Defer<Obj>, n: Rc<u64>) {
            atomically(|tx| {
                let k = Rc::strong_count(&n);
                atomic_defer(tx, &[&o.clone()], move || {
                    log(k);
                })
            });
        }
    ";
    assert_eq!(rules(src), Vec::<&str>::new());
}
