//! The workspace symbol table and conservative call graph.
//!
//! Nodes are every function parsed out of the lib sources (crate `src/`
//! trees — tests, examples, and benches never sit *under* the hot path,
//! so they stay out of the graph). Edges come from call-shaped token
//! patterns in function bodies, resolved by **name + receiver shape**:
//!
//! * `self.m(…)` — methods named `m` on the enclosing `impl` type if
//!   any exist, otherwise any method named `m`;
//! * `expr.m(…)` — every method named `m` whose self type *or* trait
//!   is named somewhere in the calling file (the receiver's type is
//!   unknown to a lexical pass, so all witnessed candidates stay in:
//!   an over-approximation — this is what makes `dyn OnlineScheduler`
//!   dispatch land on every policy. The witness requirement keeps std
//!   name collisions like `Vec::drain` vs `Engine::drain` from
//!   stitching unrelated subsystems together);
//! * `Q::m(…)` — methods of type `Q`, else free functions in module
//!   `Q`;
//! * `m(…)` — every free function named `m` in the workspace, unless the
//!   caller binds `m` itself (a parameter, closure parameter or `let`):
//!   then the call runs that binding, a closure or fn pointer.
//!
//! Calls that resolve to no workspace function (std/vendor calls,
//! `Some(…)`-style constructors) are **recorded** per caller as
//! [`Graph::unresolved`], never silently dropped — `--json` reports the
//! count so a resolution regression is visible.

use crate::items::{FileItems, FnItem};
use crate::lexer::{TokKind, Token};
use std::collections::BTreeMap;

/// Index of a function in [`Graph::fns`].
pub type FnId = usize;

/// One function in the workspace, with its location.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate the file belongs to (`dlflow-sim`, `dlflow`, …).
    pub krate: String,
    /// Index of the file in the analyzed-file list.
    pub file_idx: usize,
    /// The parsed item.
    pub item: FnItem,
}

impl FnInfo {
    /// Display name for witness chains: `Engine::step` or `settle`.
    pub fn display(&self) -> String {
        match &self.item.owner {
            Some(owner) => format!("{owner}::{}", self.item.name),
            None => self.item.name.clone(),
        }
    }

    /// Stable symbol for baselines: `dlflow-sim::engine::Engine::step`.
    pub fn symbol(&self) -> String {
        let mut s = format!("{}::{}", self.krate, file_module(&self.file));
        for m in &self.item.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(owner) = &self.item.owner {
            s.push_str("::");
            s.push_str(owner);
        }
        s.push_str("::");
        s.push_str(&self.item.name);
        s
    }
}

/// A resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// The callee.
    pub callee: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: usize,
    /// True when the call site sits inside a `for`/`while`/`loop` body
    /// of the caller.
    pub in_loop: bool,
}

/// A call that resolved to no workspace function.
#[derive(Clone, Debug)]
pub struct UnresolvedCall {
    /// Callee name as written.
    pub name: String,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every function, ordered by (file, source position) — the order
    /// is deterministic because the file list is sorted.
    pub fns: Vec<FnInfo>,
    /// Outgoing resolved edges per function, in body order.
    pub edges: Vec<Vec<Edge>>,
    /// Unresolved calls per function, in body order.
    pub unresolved: Vec<Vec<UnresolvedCall>>,
}

/// Derives the crate name from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    if path.starts_with("src/") {
        return "dlflow".to_string();
    }
    // examples/, tests/, benches of the root — named for their dir.
    path.split('/').next().unwrap_or("").to_string()
}

/// Module name of a file: the stem, or the directory for `mod.rs`.
pub fn file_module(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let stem = parts
        .last()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    if stem == "mod" && parts.len() >= 2 {
        parts[parts.len() - 2].to_string()
    } else {
        stem.to_string()
    }
}

/// True for lib sources that join the call graph (crate `src/` trees
/// and the façade's `src/`, excluding bin entry points — a bin's `main`
/// can never be *called from* the hot path).
pub fn is_lib_source(path: &str) -> bool {
    let under_src = path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
    under_src && !path.contains("/bin/") && !path.ends_with("/main.rs")
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "ref", "else", "as",
    "use", "pub", "where", "impl", "fn", "dyn", "mut", "break", "continue", "unsafe", "box",
    "await", "crate", "super", "Self", "self",
];

/// One file's inputs to the graph build.
pub struct GraphFile<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Index in the analyzed-file list.
    pub file_idx: usize,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// `#[cfg(test)]` mask.
    pub mask: &'a [bool],
    /// Parsed items.
    pub items: &'a FileItems,
}

impl Graph {
    /// Builds the graph over the given lib files. Resolution is
    /// deterministic: candidate lists come from `BTreeMap`s and edges
    /// follow body order.
    pub fn build(files: &[GraphFile<'_>]) -> Graph {
        let mut g = Graph::default();
        for f in files {
            for item in &f.items.fns {
                g.fns.push(FnInfo {
                    file: f.path.to_string(),
                    krate: crate_of(f.path),
                    file_idx: f.file_idx,
                    item: item.clone(),
                });
            }
        }

        // Name indexes. Trait-default bodies are callable targets too
        // (a `self.hook()` can land on an un-overridden default).
        let mut free_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut methods_by_owner: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut free_by_module: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (id, f) in g.fns.iter().enumerate() {
            if f.item.body.is_none() {
                continue; // bodyless trait signature: nothing to run
            }
            match &f.item.owner {
                Some(owner) => {
                    methods_by_name
                        .entry(f.item.name.clone())
                        .or_default()
                        .push(id);
                    methods_by_owner
                        .entry((owner.clone(), f.item.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => {
                    free_by_name
                        .entry(f.item.name.clone())
                        .or_default()
                        .push(id);
                    // Qualified-by-module calls (`module::helper(…)`):
                    // innermost inline mod, else the file's module name.
                    let module = f
                        .item
                        .module
                        .last()
                        .cloned()
                        .unwrap_or_else(|| file_module(&f.file));
                    free_by_module
                        .entry((module, f.item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }

        g.edges = vec![Vec::new(); g.fns.len()];
        g.unresolved = vec![Vec::new(); g.fns.len()];

        // Type witnesses for dyn-dispatch resolution: a `.m(…)` call can
        // only land on an impl whose self type or trait is named
        // somewhere in the calling file's library code (a type only its
        // `#[cfg(test)]` module names witnesses nothing). Without this,
        // std name collisions (`Vec::drain` vs `Engine::drain`) stitch
        // unrelated subsystems together and poison reachability.
        let idents_by_file: BTreeMap<usize, std::collections::BTreeSet<&str>> = files
            .iter()
            .map(|f| {
                (
                    f.file_idx,
                    f.tokens
                        .iter()
                        .zip(f.mask)
                        .filter(|(t, &masked)| !masked && t.kind == TokKind::Ident)
                        .map(|(t, _)| t.text.as_str())
                        .collect(),
                )
            })
            .collect();
        let owner_of: Vec<(Option<String>, Option<String>)> = g
            .fns
            .iter()
            .map(|f| (f.item.owner.clone(), f.item.trait_impl.clone()))
            .collect();

        // Map (file_idx, fn position) back to ids to iterate bodies.
        let fn_ids: Vec<FnId> = (0..g.fns.len()).collect();
        for &id in &fn_ids {
            let info = &g.fns[id];
            let Some((lo, hi)) = info.item.body else {
                continue;
            };
            let file = files
                .iter()
                .find(|f| f.file_idx == info.file_idx)
                .expect("graph file for fn");
            let toks = file.tokens;
            let loops = loop_spans(toks, lo, hi);
            let bound = local_bindings(toks, &info.item.name, lo, hi);
            let owner = info.item.owner.clone();
            let mut edges = Vec::new();
            let mut unresolved = Vec::new();
            let mut attr_end = lo;
            for i in lo..hi.min(toks.len()) {
                // `#[expect(…)]` in a body is no call: skip attributes.
                if i < attr_end {
                    continue;
                }
                if let Some(end) = attribute_end(toks, i, hi) {
                    attr_end = end;
                    continue;
                }
                let t = &toks[i];
                if t.kind != TokKind::Ident
                    || toks.get(i + 1).is_none_or(|n| n.text != "(")
                    || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                {
                    continue;
                }
                let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
                if prev == Some("fn") {
                    continue; // inner fn definition, not a call
                }
                let name = t.text.as_str();
                let in_loop = loops.iter().any(|&(a, b)| a <= i && i < b);
                let candidates: Vec<FnId> = match prev {
                    Some(".") => {
                        let self_recv = i >= 2
                            && toks[i - 2].text == "self"
                            && i.checked_sub(3).map(|k| toks[k].text.as_str()) != Some(".");
                        let owned = owner
                            .as_ref()
                            .and_then(|o| methods_by_owner.get(&(o.clone(), name.to_string())));
                        match (self_recv, owned) {
                            (true, Some(ids)) => ids.clone(),
                            _ => {
                                let witnesses = &idents_by_file[&info.file_idx];
                                methods_by_name
                                    .get(name)
                                    .cloned()
                                    .unwrap_or_default()
                                    .into_iter()
                                    .filter(|&c| {
                                        let (owner, tr) = &owner_of[c];
                                        owner.as_deref().is_some_and(|o| witnesses.contains(o))
                                            || tr.as_deref().is_some_and(|t| witnesses.contains(t))
                                    })
                                    .collect()
                            }
                        }
                    }
                    Some("::") => {
                        let q = i.checked_sub(2).map(|k| toks[k].text.as_str());
                        match q {
                            Some(q) => {
                                let key = (q.to_string(), name.to_string());
                                methods_by_owner
                                    .get(&key)
                                    .or_else(|| free_by_module.get(&key))
                                    .cloned()
                                    .unwrap_or_default()
                            }
                            None => Vec::new(),
                        }
                    }
                    _ if bound.contains(name) => Vec::new(),
                    _ => free_by_name.get(name).cloned().unwrap_or_default(),
                };
                if candidates.is_empty() {
                    unresolved.push(UnresolvedCall {
                        name: name.to_string(),
                        line: t.line,
                    });
                } else {
                    for callee in candidates {
                        if callee != id {
                            edges.push(Edge {
                                callee,
                                line: t.line,
                                in_loop,
                            });
                        }
                    }
                }
            }
            g.edges[id] = edges;
            g.unresolved[id] = unresolved;
        }
        g
    }

    /// Total unresolved call sites (reported in `--json`).
    pub fn n_unresolved(&self) -> usize {
        self.unresolved.iter().map(Vec::len).sum()
    }

    /// Ids of functions matching a predicate, in graph order.
    pub fn find(&self, pred: impl Fn(&FnInfo) -> bool) -> Vec<FnId> {
        (0..self.fns.len())
            .filter(|&i| pred(&self.fns[i]))
            .collect()
    }
}

/// The names the fn `name` with body `[lo, hi)` binds itself: its
/// parameters, its closures' parameters and its `let` patterns, anywhere
/// in the body (scopes are not tracked).
fn local_bindings<'t>(
    toks: &'t [Token],
    name: &str,
    lo: usize,
    hi: usize,
) -> std::collections::BTreeSet<&'t str> {
    let mut bound = std::collections::BTreeSet::new();
    let hi = hi.min(toks.len());
    // The signature: every `ident:` between `fn name` and the body is a
    // parameter (or a generic bound, which binds no call name anyway).
    let sig = (0..lo.saturating_sub(1))
        .rev()
        .find(|&i| toks[i].text == "fn" && toks.get(i + 1).is_some_and(|t| t.text == name))
        .unwrap_or(lo);
    for i in sig..lo.saturating_sub(1) {
        if toks[i].kind == TokKind::Ident && toks[i + 1].text == ":" {
            bound.insert(toks[i].text.as_str());
        }
    }
    let mut i = lo;
    while i < hi {
        let t = toks[i].text.as_str();
        let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
        // A `|` opens a closure's parameter list where no operand ends
        // before it: after `(`, `,`, `=`, `{`, `;`, `>` (of `=>`) or `move`.
        let opens_closure = t == "|"
            && matches!(
                prev,
                Some("(" | "," | "=" | "{" | ";" | ">" | "move" | "return")
            );
        let (start, delim): (usize, &[&str]) = if opens_closure {
            (i + 1, &["|"])
        } else if t == "let" {
            (i + 1, &["=", ";", "else"])
        } else {
            i += 1;
            continue;
        };
        let mut end = start;
        let mut depth = 0usize;
        while end < hi && !(depth == 0 && delim.contains(&toks[end].text.as_str())) {
            match toks[end].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                _ => {}
            }
            end += 1;
        }
        pattern_bindings(toks, start, end, &mut bound);
        i = end + 1;
    }
    bound
}

/// Adds the identifiers a pattern over `[a, b)` binds: not a type after
/// a top-level `:`, a path, a tuple-struct or struct name, or a field
/// name before a nested `:`.
fn pattern_bindings<'t>(
    toks: &'t [Token],
    a: usize,
    b: usize,
    out: &mut std::collections::BTreeSet<&'t str>,
) {
    let mut depth = 0usize;
    let mut in_type = false;
    for i in a..b {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
            "," if depth == 0 => in_type = false,
            ":" if depth == 0 => in_type = true,
            _ => {}
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let names_something = matches!(next, Some("(" | "{" | "::" | "!"))
            || (depth > 0 && next == Some(":"))
            || matches!(t.text.as_str(), "mut" | "ref" | "box");
        if !in_type && t.kind == TokKind::Ident && !names_something {
            out.insert(t.text.as_str());
        }
    }
}

/// Token spans (half-open) of `for`/`while`/`loop` bodies inside
/// `[lo, hi)`, including nested ones.
pub fn loop_spans(toks: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = lo;
    let hi = hi.min(toks.len());
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            // Loop body = next `{` (loop headers cannot contain bare
            // struct literals, so this is unambiguous).
            let Some(open) = (i..hi).find(|&k| toks[k].text == "{") else {
                break;
            };
            let mut depth = 0usize;
            let mut close = hi;
            for (k, tok) in toks.iter().enumerate().take(hi).skip(open) {
                match tok.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            spans.push((open + 1, close));
            // Continue *inside* the loop too, to catch nested loops.
            i = open + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// The token index just past the attribute `#[…]` or `#![…]` that opens
/// at `i` (or `hi` when it does not close before it); `None` when no
/// attribute opens at `i`.
fn attribute_end(toks: &[Token], i: usize, hi: usize) -> Option<usize> {
    if toks[i].kind != TokKind::Punct || toks[i].text != "#" {
        return None;
    }
    let open = if toks.get(i + 1)?.text == "!" {
        i + 2
    } else {
        i + 1
    };
    if toks.get(open)?.text != "[" {
        return None;
    }
    let mut depth = 0usize;
    for (k, tok) in toks.iter().enumerate().take(hi).skip(open) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    struct Owned {
        path: String,
        tokens: Vec<Token>,
        mask: Vec<bool>,
        items: FileItems,
    }

    fn prep(files: &[(&str, &str)]) -> Vec<Owned> {
        files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let mask = test_mask(&lexed.tokens);
                let items = parse_items(&lexed.tokens, &mask);
                Owned {
                    path: path.to_string(),
                    tokens: lexed.tokens,
                    mask,
                    items,
                }
            })
            .collect()
    }

    fn build(owned: &[Owned]) -> Graph {
        let files: Vec<GraphFile<'_>> = owned
            .iter()
            .enumerate()
            .map(|(i, o)| GraphFile {
                path: &o.path,
                file_idx: i,
                tokens: &o.tokens,
                mask: &o.mask,
                items: &o.items,
            })
            .collect();
        Graph::build(&files)
    }

    fn id_of(g: &Graph, name: &str) -> FnId {
        g.find(|f| f.item.name == name)[0]
    }

    #[test]
    fn bare_calls_resolve_across_files() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "pub fn step() { helper(); }",
            ),
            ("crates/dlflow-sim/src/util.rs", "pub fn helper() { }"),
        ]);
        let g = build(&owned);
        let step = id_of(&g, "step");
        let helper = id_of(&g, "helper");
        assert_eq!(g.edges[step].len(), 1);
        assert_eq!(g.edges[step][0].callee, helper);
        assert!(!g.edges[step][0].in_loop);
    }

    #[test]
    fn a_local_binding_shadows_free_fns_of_its_name() {
        // `drain`'s closure parameters `run` and `load` are what its bare
        // calls run, not the free fns of those names; `plain` binds
        // nothing, so its `run()` still reaches the free fn.
        let src = "
fn drain(shards: &mut [E], load: impl Fn(usize) -> usize, go: impl Fn(usize)) {
    shards.iter().for_each(|run| run(load(0)));
    let done = |n: usize| go(n);
    done(1);
}
fn plain() { run(); }
fn run() {}
fn load(x: usize) -> usize { x }
fn done(n: usize) {}
";
        let owned = prep(&[("crates/dlflow-sim/src/x.rs", src)]);
        let g = build(&owned);
        let drain = id_of(&g, "drain");
        assert!(g.edges[drain].is_empty(), "{:?}", g.edges[drain]);
        let names: Vec<&str> = g.unresolved[drain]
            .iter()
            .map(|u| u.name.as_str())
            .collect();
        assert_eq!(names, ["iter", "for_each", "run", "load", "go", "done"]);
        let plain = id_of(&g, "plain");
        assert_eq!(g.edges[plain].len(), 1);
        assert_eq!(g.fns[g.edges[plain][0].callee].item.name, "run");
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let src = "
struct A; struct B;
impl A { fn go(&self) { self.m(); } fn m(&self) {} }
impl B { fn m(&self) {} }
";
        let owned = prep(&[("crates/dlflow-sim/src/x.rs", src)]);
        let g = build(&owned);
        let go = id_of(&g, "go");
        // `self.m()` resolves only to A::m, not B::m.
        assert_eq!(g.edges[go].len(), 1);
        assert_eq!(
            g.fns[g.edges[go][0].callee].item.owner.as_deref(),
            Some("A")
        );
    }

    #[test]
    fn dotted_method_fans_out_to_all_candidates() {
        let src = "
struct A; struct B;
impl A { fn plan(&self) {} }
impl B { fn plan(&self) {} }
fn drive(p: &dyn P) { p.plan(); }
";
        let owned = prep(&[("crates/dlflow-sim/src/x.rs", src)]);
        let g = build(&owned);
        let drive = id_of(&g, "drive");
        assert_eq!(g.edges[drive].len(), 2, "dyn dispatch over-approximates");
    }

    #[test]
    fn a_test_module_witnesses_no_library_call() {
        // `drive`'s `p.plan()` may land on `A::plan` (A is named in library
        // code), never on `B::plan`, which only the test module names.
        let src = "
struct A;
impl A { fn plan(&self) {} }
fn drive(p: &A) { p.plan(); }
#[cfg(test)]
mod tests { fn t() { let _ = B; } }
";
        let other = "pub struct B; impl B { pub fn plan(&self) {} }";
        let owned = prep(&[
            ("crates/dlflow-sim/src/x.rs", src),
            ("crates/dlflow-sim/src/y.rs", other),
        ]);
        let g = build(&owned);
        let drive = id_of(&g, "drive");
        let owners: Vec<_> = g.edges[drive]
            .iter()
            .map(|e| g.fns[e.callee].item.owner.as_deref())
            .collect();
        assert_eq!(owners, [Some("A")]);
    }

    #[test]
    fn unresolved_calls_are_recorded() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/x.rs",
            "fn f() { Vec::with_capacity(4); std_only(); }",
        )]);
        let g = build(&owned);
        let f = id_of(&g, "f");
        assert!(g.edges[f].is_empty());
        let names: Vec<&str> = g.unresolved[f].iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, ["with_capacity", "std_only"]);
        assert_eq!(g.n_unresolved(), 2);
    }

    #[test]
    fn in_body_attributes_are_not_calls() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/x.rs",
            "fn f() { #[expect(clippy::x, reason = \"r\")] let a = 1; #![allow(y(z))] g(); } fn g() {}",
        )]);
        let g = build(&owned);
        let f = id_of(&g, "f");
        assert_eq!(g.n_unresolved(), 0);
        assert_eq!(
            g.edges[f].len(),
            1,
            "the call after the attributes resolves"
        );
    }

    #[test]
    fn loop_spans_mark_call_sites() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/x.rs",
            "fn f() { before(); for x in xs { inside(); } after(); } fn before() {} fn inside() {} fn after() {}",
        )]);
        let g = build(&owned);
        let f = id_of(&g, "f");
        let by_name: Vec<(&str, bool)> = g.edges[f]
            .iter()
            .map(|e| (g.fns[e.callee].item.name.as_str(), e.in_loop))
            .collect();
        assert_eq!(
            by_name,
            [("before", false), ("inside", true), ("after", false)]
        );
    }

    #[test]
    fn qualified_calls_resolve_by_type_then_module() {
        let src = "
struct Engine;
impl Engine { fn make() {} }
fn f() { Engine::make(); util::free_helper(); }
mod util { pub fn free_helper() {} }
";
        let owned = prep(&[("crates/dlflow-sim/src/x.rs", src)]);
        let g = build(&owned);
        let f = id_of(&g, "f");
        assert_eq!(g.edges[f].len(), 2, "{:?}", g.unresolved[f]);
    }

    #[test]
    fn symbols_and_displays_are_stable() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/schedulers/mod.rs",
            "struct Mct; impl Mct { pub fn plan(&self) {} }",
        )]);
        let g = build(&owned);
        let plan = id_of(&g, "plan");
        assert_eq!(g.fns[plan].display(), "Mct::plan");
        assert_eq!(g.fns[plan].symbol(), "dlflow-sim::schedulers::Mct::plan");
    }
}
