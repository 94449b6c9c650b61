//! Phase 3: the scope/closure/binding walker — the analysis pass proper.
//!
//! The walker descends the token tree of one file carrying three pieces of
//! context the v1 lexical scanner never had:
//!
//! * **Regions** — which *transactional* closure the cursor is lexically
//!   inside: the closure argument of an `atomically(...)`/
//!   `synchronized(...)` call, or the deferred-closure argument of an
//!   `atomic_defer*` call. Plain closures (iterator adapters, accessor
//!   callbacks) do not change the region: code inside
//!   `obj.with(tx, |o, tx| ...)` is still inside its enclosing atomic
//!   closure, exactly as it executes.
//! * **Scopes/bindings** — which identifiers are bound where, and whether
//!   a binding is *the transaction*. The `tx` param of `atomically(|tx|
//!   ...)` is a `Tx` binding; `let tx = channel.tx()` is a plain binding
//!   that shadows it; a typed fn param `tx: &mut Tx` is a `Tx` binding.
//!   Rules that care about "the transaction" resolve identifiers against
//!   this stack instead of substring-matching the letters `tx`.
//! * **Dataflow for `let`-bound closures** — `let op = move || {...};`
//!   followed by `atomic_defer(tx, &[...], op)` re-walks the recorded
//!   closure body *as a deferred region* at the call site, so
//!   deferred-closure rules see through the one level of indirection the
//!   workspace actually uses (the KV store's batch path).
//!
//! Macro invocation bodies (`name! { ... }` / `name!(...)`) are walked as
//! ordinary token trees in the current context. `#[cfg(test)]`-gated items
//! and `#[test]` fns are skipped, as in v1: the contracts bind production
//! code.
//!
//! Known, documented imprecision (see VERIFICATION.md): no type inference
//! (a `Tx` smuggled through a non-`Fn`-typed field is invisible), no
//! macro *expansion* (a macro that wraps `atomically` itself does not open
//! a region), `match`/`if let` pattern bindings do not shadow.

use std::collections::HashMap;

use crate::lexer::{lex, Lexed};
use crate::rules::{self, DEFER_RULES};
use crate::tree::{build, Group, Node};
use crate::Finding;

/// Which transactional region the cursor is inside (innermost last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    /// The closure argument of `atomically(...)` — retryable, blocking
    /// operations are contract violations here.
    Atomically,
    /// The closure argument of `synchronized(...)` — irrevocable/serial,
    /// blocking I/O is legal by design.
    Synchronized,
    /// The deferred-closure argument of an `atomic_defer*` call.
    DeferOp,
}

struct Region {
    kind: RegionKind,
    /// Line of the first `tx.write(...)` seen in this (atomic) region —
    /// the defer-before-first-write watermark for `defer-after-write`.
    write_line: Option<usize>,
    /// Named receiver of the `atomically`/`synchronized` call that opened
    /// this region (`rt.atomically(...)` → `rt`); `None` for a bare call
    /// or a receiver reached through a call chain. `cross-runtime-access`
    /// compares nested entry receivers against this.
    host: Option<String>,
}

/// What an in-scope identifier is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// The transaction handle (closure param of an atomic closure, typed
    /// `Tx` fn param, or an alias of one).
    Tx,
    /// Anything else.
    Plain,
}

/// A `let`-bound closure, recorded for deferred re-walk at an
/// `atomic_defer*(.., name)` call site.
#[derive(Clone)]
struct ClosureDef {
    params: Vec<String>,
    body: Vec<Node>,
}

#[derive(Default)]
struct Scope {
    bindings: HashMap<String, Binding>,
    closures: HashMap<String, ClosureDef>,
}

/// Role the enclosing call assigns to a closure argument.
enum CallSpec {
    /// `atomically`/`synchronized`: the first closure argument is the
    /// atomic closure; its first param is the `Tx`. `host` is the named
    /// receiver of the call, if any.
    Atomic {
        kind: RegionKind,
        host: Option<String>,
    },
    /// `atomic_defer*`: the argument after `commas` top-level commas is
    /// the deferred closure.
    Defer { commas: usize },
}

/// Per-sequence walking context: the call spec (for a call's argument
/// list) and the name of a `Tx` forwarded alongside closures in the same
/// argument list — the `obj.with(tx, |o, tx| ...)` accessor idiom, where
/// the inner `tx` param *is* the transaction again.
#[derive(Default)]
struct SeqCtx {
    spec: Option<CallSpec>,
    tx_thread: Option<String>,
}

/// Scan one file's source (workspace-relative `file` for reporting and
/// the atomics allowlist).
pub(crate) fn scan(file: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let nodes = build(&lexed.toks);
    let mut a = Analyzer {
        file,
        lines: src.lines().collect(),
        lexed: &lexed,
        atomics_allowed: rules::ATOMICS_ALLOWLIST.iter().any(|p| file.contains(p)),
        findings: Vec::new(),
        regions: Vec::new(),
        scopes: vec![Scope::default()],
        rewalk: 0,
    };
    a.walk_seq(&nodes, SeqCtx::default());
    let mut findings = a.findings;
    findings.sort_by(|x, y| (x.line, x.rule).cmp(&(y.line, y.rule)));
    // A let-bound closure walked both at its binding and at a defer call
    // site can produce the same finding twice; exact duplicates collapse.
    findings.dedup();
    findings
}

struct Analyzer<'a> {
    file: &'a str,
    lines: Vec<&'a str>,
    lexed: &'a Lexed,
    atomics_allowed: bool,
    findings: Vec<Finding>,
    regions: Vec<Region>,
    scopes: Vec<Scope>,
    /// Depth of deferred re-walks of `let`-bound closures. During a
    /// re-walk only the deferred-closure rules fire — everything else was
    /// already reported when the closure was walked at its binding site.
    rewalk: usize,
}

impl Analyzer<'_> {
    // -- context helpers ---------------------------------------------------

    fn push(&mut self, line: usize, rule: &'static str, message: String) {
        if self.rewalk > 0 && !DEFER_RULES.contains(&rule) {
            return;
        }
        if self.lexed.allowed(line, rule) {
            return;
        }
        self.findings.push(Finding {
            file: self.file.to_string(),
            line,
            rule,
            message,
            snippet: self
                .lines
                .get(line.wrapping_sub(1))
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    }

    fn resolve(&self, name: &str) -> Option<Binding> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.bindings.get(name).copied())
    }

    fn lookup_closure(&self, name: &str) -> Option<ClosureDef> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.closures.get(name).cloned())
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .bindings
            .insert(name.to_string(), b);
    }

    fn innermost(&self) -> Option<RegionKind> {
        self.regions.last().map(|r| r.kind)
    }

    fn in_atomic(&self) -> bool {
        matches!(
            self.innermost(),
            Some(RegionKind::Atomically | RegionKind::Synchronized)
        )
    }

    fn mark_write(&mut self, line: usize) {
        if let Some(r) = self.regions.last_mut() {
            if r.kind != RegionKind::DeferOp && r.write_line.is_none() {
                r.write_line = Some(line);
            }
        }
    }

    // -- the walk ----------------------------------------------------------

    fn walk_group(&mut self, g: &Group) {
        if g.delim == '{' {
            self.scopes.push(Scope::default());
            self.walk_seq(&g.children, SeqCtx::default());
            self.scopes.pop();
        } else {
            self.walk_seq(&g.children, SeqCtx::default());
        }
    }

    fn walk_seq(&mut self, nodes: &[Node], ctx: SeqCtx) {
        let mut i = 0usize;
        let mut commas = 0usize;
        let mut role_given = false;
        let mut prev: Option<&Node> = None;
        while i < nodes.len() {
            let n = &nodes[i];

            // Attributes: `#[...]` / `#![...]`. Test-gating an item skips
            // it (and its body) entirely.
            if n.is_punct('#') {
                let (attr, after) = match (
                    nodes.get(i + 1).and_then(|x| x.group('[')),
                    nodes.get(i + 1).filter(|x| x.is_punct('!')),
                ) {
                    (Some(g), _) => (Some(g), i + 2),
                    (None, Some(_)) => (nodes.get(i + 2).and_then(|x| x.group('[')), i + 3),
                    _ => (None, i + 1),
                };
                if let Some(g) = attr {
                    if attr_is_test(&g.children) {
                        i = skip_item(nodes, after);
                    } else {
                        i = after;
                    }
                    prev = None;
                    continue;
                }
            }

            // `fn` definitions: bind typed params, walk the body outside
            // any region (a nested fn does not execute in the enclosing
            // transaction).
            if n.ident() == Some("fn") {
                i = self.walk_fn(nodes, i + 1);
                prev = None;
                continue;
            }

            // `let` statements (but not `if let` / `while let`, whose
            // pattern bindings we do not track).
            if n.ident() == Some("let")
                && !matches!(prev.and_then(Node::ident), Some("if" | "while"))
            {
                i = self.walk_let(nodes, i + 1);
                prev = None;
                continue;
            }

            // Top-level comma bookkeeping for call-argument sequences.
            if n.is_punct(',') {
                commas += 1;
                prev = Some(n);
                i += 1;
                continue;
            }

            // Closures: `|params| body` / `move |params| body` / `||`.
            let move_closure =
                n.ident() == Some("move") && nodes.get(i + 1).is_some_and(|x| x.is_punct('|'));
            if move_closure || (n.is_punct('|') && closure_can_start(prev)) {
                let pipe = if move_closure { i + 1 } else { i };
                let role = match &ctx.spec {
                    Some(CallSpec::Atomic { kind, host }) if commas == 0 && !role_given => {
                        Some((*kind, host.clone()))
                    }
                    Some(CallSpec::Defer { commas: c }) if commas == *c && !role_given => {
                        Some((RegionKind::DeferOp, None))
                    }
                    _ => None,
                };
                if role.is_some() {
                    role_given = true;
                }
                i = self.walk_closure(nodes, pipe, role, ctx.tx_thread.as_deref());
                prev = None;
                continue;
            }

            // The deferred argument of an `atomic_defer*` call passed *by
            // name*: re-walk the recorded closure body as a deferred
            // region (dataflow through one `let`).
            if let (Some(CallSpec::Defer { commas: c }), Some(name)) = (&ctx.spec, n.ident()) {
                if commas == *c && !role_given {
                    if let Some(def) = self.lookup_closure(name) {
                        role_given = true;
                        self.rewalk += 1;
                        self.regions.push(Region {
                            kind: RegionKind::DeferOp,
                            write_line: None,
                            host: None,
                        });
                        self.scopes.push(Scope::default());
                        for p in &def.params {
                            self.bind(p, Binding::Plain);
                        }
                        self.walk_seq(&def.body, SeqCtx::default());
                        self.scopes.pop();
                        self.regions.pop();
                        self.rewalk -= 1;
                    }
                }
            }

            // Macro invocations: `name!(...)` / `name!{...}` / `name![...]`
            // — check the macro name, then descend into the body in the
            // current context (the v1 scanner's macro blind spot).
            if let Some(name) = n.ident() {
                if nodes.get(i + 1).is_some_and(|x| x.is_punct('!')) {
                    if let Some(g) = nodes.get(i + 2).and_then(Node::any_group) {
                        if self.innermost() == Some(RegionKind::DeferOp) {
                            if let Some(msg) = rules::deferred::panic_macro(name) {
                                self.push(n.line(), rules::RULE_PANIC_IN_DEFERRED, msg);
                            }
                        }
                        self.walk_group(g);
                        prev = Some(&nodes[i + 2]);
                        i += 3;
                        continue;
                    }
                }
            }

            // Calls: `name(...)` and `.name(...)`.
            if let Some(name) = n.ident() {
                if let Some(args) = nodes.get(i + 1).and_then(|x| x.group('(')) {
                    let is_method = prev.is_some_and(|p| p.is_punct('.'));
                    let receiver = if is_method && i >= 2 {
                        nodes.get(i - 2)
                    } else {
                        None
                    };
                    self.walk_call(name, n.line(), args, is_method, receiver, prev);
                    prev = Some(&nodes[i + 1]);
                    i += 2;
                    continue;
                }
            }

            // Bare identifier uses.
            if let Some(name) = n.ident() {
                let is_field = prev.is_some_and(|p| p.is_punct('.'));
                let is_field_decl = nodes.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && !nodes.get(i + 2).is_some_and(|x| x.is_punct(':'));
                if !is_field && !is_field_decl {
                    self.check_ident(name, n.line(), nodes, i);
                }
            }

            // Anything else: descend into stray groups, step over leaves.
            if let Node::Group(g) = n {
                self.walk_group(g);
            }
            prev = Some(n);
            i += 1;
        }
    }

    /// Region-independent and deferred-region identifier rules.
    fn check_ident(&mut self, name: &str, line: usize, nodes: &[Node], i: usize) {
        if self.innermost() == Some(RegionKind::DeferOp)
            && (self.resolve(name) == Some(Binding::Tx) || name == "Tx")
        {
            self.push(
                line,
                rules::RULE_DEFER_CAPTURES_TX,
                rules::deferred::captures_tx_msg(),
            );
        }
        if name == "SeqCst" && !self.atomics_allowed {
            self.push(line, rules::RULE_SEQCST, rules::ordering::seqcst_msg());
        }
        if (name == "std" || name == "core")
            && !self.atomics_allowed
            && path_follows(nodes, i, &["sync", "atomic"])
        {
            self.push(
                line,
                rules::RULE_RAW_ATOMIC,
                rules::ordering::raw_atomic_msg(name),
            );
        }
    }

    /// A call site `name(args)` / `recv.name(args)`: run the method rules,
    /// open regions for the transactional entry points, and walk the
    /// argument list.
    fn walk_call(
        &mut self,
        name: &str,
        line: usize,
        args: &Group,
        is_method: bool,
        receiver: Option<&Node>,
        prev: Option<&Node>,
    ) {
        // A method receiver that resolves to the transaction threads it
        // into closure arguments: `tx.or_else(|tx| ...)` combinators.
        let recv_tx_name = receiver
            .and_then(Node::ident)
            .filter(|r| self.resolve(r) == Some(Binding::Tx))
            .map(str::to_string);
        if is_method {
            let recv_is_tx = recv_tx_name.is_some();
            if self.in_atomic() {
                if let Some(msg) = rules::atomic::direct_access(name, args) {
                    self.push(line, rules::RULE_DIRECT_ACCESS, msg);
                }
                if name == "write" && recv_is_tx {
                    self.mark_write(line);
                }
            }
            if self.innermost() == Some(RegionKind::Atomically) && !recv_is_tx {
                if let Some(msg) = rules::atomic::blocking_method(name) {
                    self.push(line, rules::RULE_BLOCKING_IN_ATOMIC, msg);
                }
            }
            // A store entry point commits its own transaction on its own
            // runtime — cross-runtime by construction inside any live
            // atomic closure (retryable or irrevocable).
            if self.in_atomic() && !recv_is_tx {
                if let Some(msg) = rules::atomic::cross_runtime_store(name) {
                    self.push(line, rules::RULE_CROSS_RUNTIME, msg);
                }
            }
            if self.innermost() == Some(RegionKind::DeferOp) {
                if let Some(msg) = rules::deferred::wait_method(name) {
                    self.push(line, rules::RULE_DEFER_WAITS, msg);
                }
                if let Some(msg) = rules::deferred::panic_method(name) {
                    self.push(line, rules::RULE_PANIC_IN_DEFERRED, msg);
                }
            }
        } else {
            // Path-position waits: `DeferHandle::wait_all(rt, hs)`.
            if self.innermost() == Some(RegionKind::DeferOp)
                && prev.is_some_and(|p| p.is_punct(':'))
            {
                if let Some(msg) = rules::deferred::wait_method(name) {
                    self.push(line, rules::RULE_DEFER_WAITS, msg);
                }
            }
        }

        match name {
            // Works for both `atomically(..)` and `rt.atomically(..)`.
            "atomically" | "synchronized" => {
                if self.innermost() == Some(RegionKind::DeferOp) {
                    self.push(
                        line,
                        rules::RULE_DEFER_WAITS,
                        rules::deferred::reentry_msg(name),
                    );
                }
                let host = receiver
                    .and_then(Node::ident)
                    .filter(|r| self.resolve(r) != Some(Binding::Tx))
                    .map(str::to_string);
                // Nested entry on a *different named* runtime than the
                // enclosing region's named host is cross-runtime access.
                // Either side unnamed (bare call, call-chain receiver) →
                // ownership unprovable lexically, stay silent.
                if self.in_atomic() {
                    let enclosing = self.regions.last().and_then(|r| r.host.clone());
                    if let (Some(enclosing), Some(other)) = (enclosing.as_deref(), host.as_deref())
                    {
                        if other != enclosing {
                            let msg =
                                rules::atomic::cross_runtime_entry_msg(name, enclosing, other);
                            self.push(line, rules::RULE_CROSS_RUNTIME, msg);
                        }
                    }
                }
                let kind = if name == "atomically" {
                    RegionKind::Atomically
                } else {
                    RegionKind::Synchronized
                };
                self.walk_call_args(
                    args,
                    Some(CallSpec::Atomic { kind, host }),
                    recv_tx_name.as_deref(),
                );
            }
            "atomic_defer" | "atomic_defer_with_result" | "atomic_defer_unordered" => {
                if let Some(r) = self.regions.last() {
                    if r.kind != RegionKind::DeferOp {
                        if let Some(w) = r.write_line {
                            self.push(
                                line,
                                rules::RULE_DEFER_AFTER_WRITE,
                                rules::ordering::defer_after_write_msg(name, w),
                            );
                        }
                    }
                }
                let commas = if name == "atomic_defer_unordered" {
                    1
                } else {
                    2
                };
                self.walk_call_args(
                    args,
                    Some(CallSpec::Defer { commas }),
                    recv_tx_name.as_deref(),
                );
            }
            _ => {
                if self.innermost() == Some(RegionKind::Atomically) {
                    if let Some(msg) = rules::atomic::blocking_fn(name) {
                        self.push(line, rules::RULE_BLOCKING_IN_ATOMIC, msg);
                    }
                }
                self.walk_call_args(args, None, recv_tx_name.as_deref());
            }
        }
    }

    /// Walk a call's argument list, assigning the spec'd closure role and
    /// threading a forwarded `Tx` name to closure params (the accessor
    /// idiom `obj.with(tx, |o, tx| ...)`).
    fn walk_call_args(&mut self, g: &Group, spec: Option<CallSpec>, recv_tx: Option<&str>) {
        // Only arguments *before* the first closure count as forwarded:
        // `obj.with(tx, |o, tx| ...)` threads `tx`, but the param of
        // `for_each(|tx| ...)` is the closure's own binding, not a
        // forwarded transaction. A `Tx` method receiver threads too —
        // combinators like `tx.or_else(|tx| ...)` re-lend the transaction
        // to their closure arguments.
        let tx_thread = g
            .children
            .iter()
            .take_while(|n| !n.is_punct('|') && n.ident() != Some("move"))
            .find_map(|n| {
                let name = n.ident()?;
                (self.resolve(name) == Some(Binding::Tx)).then(|| name.to_string())
            })
            .or_else(|| recv_tx.map(str::to_string));
        self.walk_seq(&g.children, SeqCtx { spec, tx_thread });
    }

    /// `fn name(params) ... { body }` starting after the `fn` keyword.
    /// Returns the index after the item.
    fn walk_fn(&mut self, nodes: &[Node], mut j: usize) -> usize {
        // Find the parameter list: the first paren group at angle-bracket
        // depth 0 (generic params may contain `Fn(..)` parens).
        let mut angle = 0usize;
        let mut last: Option<char> = None;
        let params = loop {
            match nodes.get(j) {
                None => return j,
                Some(n) if n.is_punct('<') => angle += 1,
                Some(n) if n.is_punct('>') && !matches!(last, Some('-' | '=')) => {
                    angle = angle.saturating_sub(1)
                }
                Some(n) if n.is_punct(';') || n.group('{').is_some() => break None,
                Some(n) => {
                    if let Some(p) = n.group('(') {
                        if angle == 0 {
                            j += 1;
                            break Some(p);
                        }
                    }
                }
            }
            last = match nodes.get(j) {
                Some(Node::Leaf(crate::lexer::Tok::Punct(c), _)) => Some(*c),
                _ => None,
            };
            j += 1;
        };
        // Neither the signature nor the body executes in the enclosing
        // transaction — a nested fn is its own world, regions cleared.
        let saved = std::mem::take(&mut self.regions);
        self.scopes.push(Scope::default());
        if let Some(p) = params {
            // Walk the parameter tokens first (types can name
            // `std::sync::atomic` paths), then record the bindings.
            self.walk_seq(&p.children, SeqCtx::default());
            self.bind_fn_params(&p.children);
        }
        // Walk the body (first brace group); a trailing `;` means a
        // bodiless trait method.
        while let Some(n) = nodes.get(j) {
            if let Some(body) = n.group('{') {
                self.walk_seq(&body.children, SeqCtx::default());
                j += 1;
                break;
            }
            if n.is_punct(';') {
                j += 1;
                break;
            }
            j += 1;
        }
        self.scopes.pop();
        self.regions = saved;
        j
    }

    /// Bind `name: Type` fn params; a param whose type mentions `Tx`
    /// directly (not inside an `Fn*` trait bound) is a `Tx` binding.
    fn bind_fn_params(&mut self, nodes: &[Node]) {
        for param in split_top_level(nodes, ',') {
            let Some(colon) = param.iter().position(|n| n.is_punct(':')) else {
                continue; // `self` / `&mut self`
            };
            let Some(name) = param[..colon]
                .iter()
                .rev()
                .find_map(Node::ident)
                .filter(|n| !matches!(*n, "mut" | "ref" | "self" | "_"))
            else {
                continue;
            };
            let ty = &param[colon + 1..];
            let is_fn_ty = ty
                .iter()
                .any(|n| matches!(n.ident(), Some("Fn" | "FnMut" | "FnOnce")));
            let b = if !is_fn_ty && ty.iter().any(|n| n.ident() == Some("Tx")) {
                Binding::Tx
            } else {
                Binding::Plain
            };
            self.bind(name, b);
        }
    }

    /// `let [mut] name [: T] = rhs ;` starting after the `let` keyword.
    /// Returns the index after the statement.
    fn walk_let(&mut self, nodes: &[Node], mut j: usize) -> usize {
        if nodes.get(j).and_then(Node::ident) == Some("mut") {
            j += 1;
        }
        let name = nodes.get(j).and_then(Node::ident).map(str::to_string);
        // First top-level `=` (not `==`, `=>`, `<=`-likes) before the `;`.
        let mut eq = None;
        let mut k = j;
        while let Some(n) = nodes.get(k) {
            if n.is_punct(';') {
                break;
            }
            if n.is_punct('=')
                && !nodes
                    .get(k + 1)
                    .is_some_and(|x| x.is_punct('=') || x.is_punct('>'))
                && !nodes
                    .get(k.wrapping_sub(1))
                    .is_some_and(|x| "=!+-*/&|^%".chars().any(|c| x.is_punct(c)))
            {
                eq = Some(k);
                break;
            }
            k += 1;
        }
        let semi = (j..nodes.len())
            .find(|&k| nodes[k].is_punct(';'))
            .unwrap_or(nodes.len());
        let Some(eq) = eq else {
            // `let x;` — an untyped declaration.
            if let Some(name) = &name {
                self.bind(name, Binding::Plain);
            }
            return semi + 1;
        };
        let rhs = &nodes[eq + 1..semi];

        // RHS is a closure literal: record it for deferred re-walk and
        // walk it now as a plain closure.
        let rhs_is_closure = matches!(rhs.first(), Some(n) if n.is_punct('|'))
            || (rhs.first().and_then(Node::ident) == Some("move")
                && rhs.get(1).is_some_and(|x| x.is_punct('|')));
        if rhs_is_closure {
            let pipe = usize::from(rhs[0].ident() == Some("move"));
            let (params, body_start, body_end) = parse_closure_sig(rhs, pipe);
            let body: Vec<Node> = if body_end == body_start + 1 {
                match &rhs[body_start] {
                    Node::Group(g) if g.delim == '{' => g.children.clone(),
                    other => vec![other.clone()],
                }
            } else {
                rhs[body_start..body_end].to_vec()
            };
            if let Some(name) = &name {
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .closures
                    .insert(
                        name.clone(),
                        ClosureDef {
                            params: params.clone(),
                            body: body.clone(),
                        },
                    );
            }
            self.scopes.push(Scope::default());
            for p in &params {
                self.bind(p, Binding::Plain);
            }
            self.walk_seq(&body, SeqCtx::default());
            self.scopes.pop();
            if let Some(name) = &name {
                self.bind(name, Binding::Plain);
            }
            return semi + 1;
        }

        self.walk_seq(rhs, SeqCtx::default());
        if let Some(name) = &name {
            // `let tx2 = tx;` / `let tx2 = &tx;` aliases the transaction;
            // any other RHS (notably `let tx = channel.tx()`) is plain.
            let alias = rhs.iter().filter(|n| !n.is_punct('&')).collect::<Vec<_>>();
            let b = match alias.as_slice() {
                [one] => one
                    .ident()
                    .and_then(|id| self.resolve(id))
                    .unwrap_or(Binding::Plain),
                _ => Binding::Plain,
            };
            self.bind(name, b);
        }
        semi + 1
    }

    /// Walk a closure starting at the opening `|` (index `pipe`), with an
    /// optional region role (and, for atomic roles, the named host
    /// runtime). Returns the index after the closure body.
    fn walk_closure(
        &mut self,
        nodes: &[Node],
        pipe: usize,
        role: Option<(RegionKind, Option<String>)>,
        tx_thread: Option<&str>,
    ) -> usize {
        let (params, body_start, body_end) = parse_closure_sig(nodes, pipe);
        self.scopes.push(Scope::default());
        for (idx, p) in params.iter().enumerate() {
            let b = match &role {
                // The first param of an atomic closure is the transaction.
                Some((RegionKind::Atomically | RegionKind::Synchronized, _)) if idx == 0 => {
                    Binding::Tx
                }
                // Accessor idiom: a param named after the `Tx` forwarded in
                // the same argument list is the transaction threaded back.
                _ if tx_thread == Some(p.as_str()) => Binding::Tx,
                _ => Binding::Plain,
            };
            self.bind(p, b);
        }
        if let Some((kind, host)) = &role {
            self.regions.push(Region {
                kind: *kind,
                write_line: None,
                host: host.clone(),
            });
        }
        if body_end == body_start + 1 {
            if let Some(Node::Group(g)) = nodes.get(body_start) {
                if g.delim == '{' {
                    self.walk_seq(&g.children, SeqCtx::default());
                } else {
                    self.walk_seq(&nodes[body_start..body_end], SeqCtx::default());
                }
            } else {
                self.walk_seq(&nodes[body_start..body_end], SeqCtx::default());
            }
        } else {
            self.walk_seq(&nodes[body_start..body_end], SeqCtx::default());
        }
        if role.is_some() {
            self.regions.pop();
        }
        self.scopes.pop();
        body_end
    }
}

/// Parse a closure's parameter list starting at the opening `|`.
/// Returns `(param_names, body_start, body_end)` as indices into `nodes`;
/// a braced body spans exactly one node, an expression body runs to the
/// first top-level `,`/`;` or the end of the sequence.
fn parse_closure_sig(nodes: &[Node], pipe: usize) -> (Vec<String>, usize, usize) {
    let mut params = Vec::new();
    let mut j = pipe + 1;
    if nodes.get(j).is_some_and(|x| x.is_punct('|')) {
        j += 1; // `||` — no params
    } else {
        let mut in_type = false;
        while let Some(n) = nodes.get(j) {
            if n.is_punct('|') {
                j += 1;
                break;
            }
            if n.is_punct(':') {
                in_type = true;
            } else if n.is_punct(',') {
                in_type = false;
            } else if !in_type {
                match n {
                    Node::Leaf(_, _) => {
                        if let Some(id) = n.ident() {
                            if !matches!(id, "mut" | "ref" | "_" | "move") {
                                params.push(id.to_string());
                            }
                        }
                    }
                    // Tuple/struct patterns: collect their idents too.
                    Node::Group(g) => collect_pattern_idents(&g.children, &mut params),
                }
            }
            j += 1;
        }
    }
    let body_start = j;
    let body_end = if matches!(nodes.get(j), Some(Node::Group(g)) if g.delim == '{') {
        j + 1
    } else {
        let mut k = j;
        while let Some(n) = nodes.get(k) {
            if n.is_punct(',') || n.is_punct(';') {
                break;
            }
            k += 1;
        }
        k
    };
    (params, body_start, body_end.max(body_start))
}

fn collect_pattern_idents(nodes: &[Node], out: &mut Vec<String>) {
    for n in nodes {
        match n {
            Node::Group(g) => collect_pattern_idents(&g.children, out),
            _ => {
                if let Some(id) = n.ident() {
                    if !matches!(id, "mut" | "ref" | "_") {
                        out.push(id.to_string());
                    }
                }
            }
        }
    }
}

/// Can a `|` at this position start a closure? True at the start of a
/// sequence, after a separator/assignment/arrow, or after a keyword that
/// introduces an expression; false after an operand (then it is
/// binary/pattern or).
fn closure_can_start(prev: Option<&Node>) -> bool {
    match prev {
        None => true,
        Some(n) => {
            matches!(n, Node::Leaf(crate::lexer::Tok::Punct(c), _) if matches!(c, ',' | '=' | ';' | ':' | '>' | '&' | '?'))
                || matches!(n.ident(), Some("move" | "return" | "else" | "in" | "match"))
        }
    }
}

/// Does `nodes[i]` start the leaf path `::seg1::seg2...`?
fn path_follows(nodes: &[Node], i: usize, path: &[&str]) -> bool {
    let mut j = i + 1;
    for seg in path {
        if !(nodes.get(j).is_some_and(|n| n.is_punct(':'))
            && nodes.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && nodes.get(j + 2).and_then(Node::ident) == Some(*seg))
        {
            return false;
        }
        j += 3;
    }
    true
}

/// Split a node sequence on a top-level punctuation separator.
fn split_top_level(nodes: &[Node], sep: char) -> Vec<&[Node]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, n) in nodes.iter().enumerate() {
        if n.is_punct(sep) {
            out.push(&nodes[start..i]);
            start = i + 1;
        }
    }
    if start < nodes.len() {
        out.push(&nodes[start..]);
    }
    out
}

/// Is an attribute test-gating? `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` — but not `test` under `not(...)`
/// (`#[cfg(not(test))]` is production-only, which we *do* scan).
fn attr_is_test(nodes: &[Node]) -> bool {
    fn scan(nodes: &[Node], under_not: bool) -> bool {
        let mut i = 0usize;
        while i < nodes.len() {
            let n = &nodes[i];
            if n.ident() == Some("not") {
                if let Some(g) = nodes.get(i + 1).and_then(|x| x.group('(')) {
                    // Anything under `not` is inverted; `test` inside it
                    // does not gate the item *into* tests.
                    let _ = scan(&g.children, true);
                    i += 2;
                    continue;
                }
            }
            if !under_not && n.ident() == Some("test") {
                return true;
            }
            if let Node::Group(g) = n {
                if scan(&g.children, under_not) {
                    return true;
                }
            }
            i += 1;
        }
        false
    }
    scan(nodes, false)
}

/// Skip past one item starting at `j`: leading attributes, then
/// everything up to and including the first brace-group body or a
/// terminating `;`.
fn skip_item(nodes: &[Node], mut j: usize) -> usize {
    loop {
        match nodes.get(j) {
            None => return nodes.len(),
            Some(n) if n.is_punct('#') && nodes.get(j + 1).and_then(|x| x.group('[')).is_some() => {
                j += 2;
            }
            Some(n) if n.group('{').is_some() || n.is_punct(';') => return j + 1,
            Some(_) => j += 1,
        }
    }
}
