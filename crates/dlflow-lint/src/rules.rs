//! The rule engine: one lexical rule scoped by path (`float-eq`), and
//! semantic rules scoped by *reachability* over the workspace call graph.
//!
//! Each rule is grounded in a runtime property the repo already tests —
//! byte-identical campaign reports, engine/dense parity, the exact
//! Theorem-2 yardstick — and turns it into a *source-level* invariant
//! checked on every commit. The hot-path rules are transitive: a helper
//! extracted out of `Engine::step` into a new module stays covered
//! because the rules follow call edges, not file names. Checks clippy can
//! make with types (`HashMap`/`HashSet`, wall-clock and entropy reads,
//! lossy casts) live in clippy's configuration, not here. See
//! `docs/LINTS.md` for the catalog with rationale and examples, or
//! `dlflow-lint --explain <rule>`.

use crate::graph::{loop_spans, FnId, FnInfo, Graph, GraphFile};
use crate::items::{TypeKind, Vis};
use crate::lexer::{LexedFile, TokKind, Token};
use crate::reach::Reach;
use std::collections::{BTreeMap, BTreeSet};

/// One finding: a rule violated at a `file:line`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (kebab-case, as used in pragmas).
    pub rule: &'static str,
    /// Human explanation with a fix hint.
    pub message: String,
    /// Stable symbol of the enclosing item, e.g.
    /// `dlflow-sim::engine::Engine::step`; file-level symbol when the
    /// finding is outside any function.
    pub symbol: String,
    /// Witness call chain for reachability findings (root → … →
    /// `` `token` at file:line `` as the last element); empty for
    /// lexical findings.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// `file:line: [rule] message`, plus an indented `via …` line
    /// rendering the witness chain when the finding is reachability
    /// based — the human output format.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        );
        if !self.chain.is_empty() {
            s.push_str("\n    via ");
            s.push_str(&self.chain.join(" → "));
        }
        s
    }
}

/// Rule names, in catalog order. `bad-pragma` is the always-on meta rule
/// for malformed/unknown pragmas.
pub const RULE_NAMES: &[&str] = &[
    "hot-path-panic",
    "float-eq",
    "alloc-in-hot-loop",
    "float-into-exact",
    "scheduler-contract",
    "dead-pub",
    "bad-pragma",
];

/// Long-form rationale shown by `dlflow-lint --explain <rule>`.
const EXPLAIN: &[(&str, &str)] = &[
    (
        "hot-path-panic",
        "The per-event engine path (`Engine::{step,drain,admit_due}`, `Trace::replay`, \
         every `OnlineScheduler` hook) must return typed errors, not panic mid-event — \
         a panic aborts a 10^6-event replay and poisons campaign workers. Since PR 7 \
         the rule is call-graph transitive over dlflow-sim/dlflow-core/dlflow-lp: a \
         panic-shaped token (`unwrap`, `expect`, `panic!`, `todo!`, `unimplemented!`) \
         anywhere *reachable* from a hot root is a finding, and the diagnostic carries \
         the witness chain (`Engine::step → settle → `unwrap` at file:line`). \
         Invariant-backed `expect`s are fine — say why in a pragma.",
    ),
    (
        "float-eq",
        "Exact `==`/`!=` on floats is exactness-hostile outside the sanctioned dyadic \
         modules (`rational.rs`, `instance.rs`), where float bit-patterns are compared \
         by construction. The rule catches comparisons against float literals — the \
         form the hazard actually takes, and one clippy's `float_cmp` lets through for \
         `== 0.0` and `x.fract() != 0.0`. Compare with a tolerance, `total_cmp`, or \
         exact `Rat`.",
    ),
    (
        "alloc-in-hot-loop",
        "The per-event path must stay allocation-lean: `bench-report` asserts its \
         allocation ceilings (a flat replay allocates fewer than events/100 times, a \
         sharded one fewer than once per event, a warm engine's second wave at most 8 \
         times, and OLA's LP path at most 2 times per LP solve). Since PR 7 the rule \
         is call-graph transitive over dlflow-sim: an allocation-shaped token \
         (`Vec::new`, `vec!`, `.clone()`, `.collect()`, …) is flagged when it sits \
         inside a loop of a hot-reachable function, or anywhere in a function that \
         is itself reached through a call site inside a loop (loop context \
         propagates along edges). Hoist buffers out of the loop or reuse a scratch \
         field; justify cold setup allocations with a pragma.",
    ),
    (
        "float-into-exact",
        "Exact results (`min_max_*` / `feasible_at` in maxflow.rs) must be built from \
         exact arithmetic end to end. An f64→Rat conversion (`from_f64`, \
         `from_f64_approx`) or float arithmetic reachable from those entry points — \
         outside the sanctioned dyadic modules (`rational.rs`, `instance.rs`, \
         `traits.rs`) — silently rounds before the exact layer ever sees the value. \
         The diagnostic carries the witness chain from the entry point.",
    ),
    (
        "scheduler-contract",
        "Every `OnlineScheduler` impl must (a) define all event hooks explicitly — \
         `plan`, `on_arrival`, `on_completion`, `on_platform_change` — even as \
         deliberate no-ops, so \
         contract drift is visible in the diff when a hook is added; (b) embed a \
         string literal in `name()`, so reports can identify the policy without \
         running code.",
    ),
    (
        "dead-pub",
        "A `pub` item in a lib crate with zero references from any *other* workspace \
         crate, or from tests/examples/benches/bins, is API surface nobody consumes: \
         it dodges dead-code warnings forever and silently bit-rots. Demote it to \
         `pub(crate)` or remove it. References are counted by identifier anywhere \
         outside the defining crate's lib sources, plus doc comments *anywhere* \
         (doctests compile as external crates; intra-doc links need `pub`) — an \
         over-approximation, so a finding means *really* unreferenced.",
    ),
    (
        "bad-pragma",
        "A `dlflint:allow(rule, \"reason\")` pragma that is malformed, lacks a reason, \
         or names an unknown rule would otherwise silently suppress nothing (or the \
         wrong thing). Bad pragmas are findings themselves and cannot be suppressed.",
    ),
];

/// The `--explain` text for a rule, if the rule exists.
pub fn explain(rule: &str) -> Option<&'static str> {
    EXPLAIN.iter().find(|(r, _)| *r == rule).map(|(_, t)| *t)
}

/// Exactness-sensitive code checked by `float-eq`: the lib crates, the
/// façade, examples, root tests and crate benches. The sanctioned
/// dyadic-exactness modules — `instance.rs`
/// (`round_sig_bits`/`to_exact_dyadic`) and `rational.rs`
/// (`Rat::from_f64`) — compare floats *by construction* and are excluded.
fn float_eq_covers(path: &str) -> bool {
    const INCLUDE: &[&str] = &[
        "crates/dlflow-num/src/",
        "crates/dlflow-lp/src/",
        "crates/dlflow-core/src/",
        "crates/dlflow-gripps/src/",
        "crates/dlflow-sim/src/",
        "src/",
        "examples/",
        "tests/",
    ];
    const EXCLUDE: &[&str] = &[
        "crates/dlflow-num/src/rational.rs",
        "crates/dlflow-core/src/instance.rs",
    ];
    (INCLUDE.iter().any(|p| path.starts_with(p)) || path.contains("/benches/"))
        && !EXCLUDE.iter().any(|p| path.starts_with(p))
}

/// Crates whose hot-reachable functions the transitive panic rule scans.
/// dlflow-num is excluded deliberately: it is the arithmetic substrate,
/// and its `expect`s assert *arithmetic* invariants (non-zero divisors,
/// in-range limbs) that hold for any caller — see docs/LINTS.md.
const PANIC_SURFACE_CRATES: &[&str] = &["dlflow-sim", "dlflow-core", "dlflow-lp"];

/// Crate whose hot-reachable functions the transitive alloc rule scans
/// (the per-event allocation budget is an engine-crate property; the LP
/// path is guarded by `bench-report`'s allocations-per-LP-solve ceiling,
/// see docs/LINTS.md).
const ALLOC_SURFACE_CRATES: &[&str] = &["dlflow-sim"];

/// Entry points of exact-report construction (all in maxflow.rs).
const EXACT_ROOT_FNS: &[&str] = &[
    "feasible_at",
    "min_max_weighted_flow_divisible",
    "min_max_weighted_flow_preemptive",
    "min_max_stretch_divisible",
    "min_max_weighted_flow_divisible_with",
    "min_max_weighted_flow_bisection",
];

/// Files allowed to touch floats on exact-reachable paths: the dyadic
/// conversion layer itself.
const EXACT_SANCTIONED_FILES: &[&str] = &[
    "crates/dlflow-num/src/rational.rs",
    "crates/dlflow-core/src/instance.rs",
    "crates/dlflow-num/src/traits.rs",
];

/// The `OnlineScheduler` event hooks every impl must write explicitly.
const SCHEDULER_HOOKS: &[&str] = &[
    "name",
    "on_arrival",
    "on_completion",
    "on_platform_change",
    "plan",
];

/// `.method()` calls that allocate (heuristically) in a hot loop.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];

/// `path::new`-style constructors that allocate.
const ALLOC_CTORS: &[&str] = &["Vec", "String", "Box", "VecDeque", "BTreeMap", "HashMap"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

// ---------------------------------------------------------------------
// Lexical rule (path-scoped, single-file)
// ---------------------------------------------------------------------

/// `float-eq`: flags `==`/`!=` where one side is a float literal
/// (optionally behind a unary minus). A lexical pass cannot type
/// variables, so float-typed *identifiers* compared for equality are out
/// of reach — the rule catches the literal form, which is how the hazard
/// actually appears.
pub(crate) fn check_float_eq(path: &str, toks: &[Token], mask: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !float_eq_covers(path) {
        return out;
    }
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let lhs_float = i
            .checked_sub(1)
            .is_some_and(|k| toks[k].kind == TokKind::Float);
        let mut k = i + 1;
        if toks.get(k).is_some_and(|t| t.text == "-") {
            k += 1;
        }
        let rhs_float = toks.get(k).is_some_and(|t| t.kind == TokKind::Float);
        if lhs_float || rhs_float {
            out.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: "float-eq",
                message: format!(
                    "float `{}` comparison is exactness-hostile outside the dyadic \
                     modules; compare with a tolerance, `total_cmp`, or exact `Rat`",
                    t.text
                ),
                symbol: String::new(),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Runs the lexical rule over one lexed file (the semantic rules need
/// the workspace graph — see [`crate::analyze`]). `path` must be
/// workspace-relative with forward slashes. Pragma handling (suppression
/// and `bad-pragma`) happens in the caller — this returns raw findings.
pub fn check_file(path: &str, lexed: &LexedFile) -> Vec<Diagnostic> {
    check_float_eq(path, &lexed.tokens, &test_mask(&lexed.tokens))
}

// ---------------------------------------------------------------------
// Semantic rules (call-graph reachability)
// ---------------------------------------------------------------------

/// Hot-path roots: `Engine::{step,drain,admit_due}`, `Trace::replay`,
/// the sharded front-end's per-event entry points
/// `ShardedEngine::{push_arrival,drain,replay_trace}`, and every
/// `OnlineScheduler` event hook (impls *and* un-overridden trait
/// defaults — a default body runs too).
pub(crate) fn hot_roots(g: &Graph) -> Vec<FnId> {
    let mut roots = g.find(|f| {
        matches!(
            (f.item.owner.as_deref(), f.item.name.as_str()),
            (Some("Engine"), "step" | "drain" | "admit_due")
                | (Some("Trace"), "replay")
                | (
                    Some("ShardedEngine"),
                    "push_arrival" | "drain" | "replay_trace"
                )
        )
    });
    roots.extend(scheduler_hook_roots(g));
    roots
}

/// Every `OnlineScheduler` event hook: impl methods and trait defaults.
pub(crate) fn scheduler_hook_roots(g: &Graph) -> Vec<FnId> {
    g.find(|f| {
        matches!(
            f.item.name.as_str(),
            "plan" | "on_arrival" | "on_completion" | "on_platform_change"
        ) && (f.item.trait_impl.as_deref() == Some("OnlineScheduler")
            || (f.item.owner.as_deref() == Some("OnlineScheduler") && f.item.is_trait_default))
    })
}

/// Roots of exact-report construction for `float-into-exact`.
pub(crate) fn exact_roots(g: &Graph) -> Vec<FnId> {
    g.find(|f| {
        f.item.owner.is_none()
            && f.file.ends_with("maxflow.rs")
            && EXACT_ROOT_FNS.contains(&f.item.name.as_str())
    })
}

fn file_of<'x, 'a>(files: &'x [GraphFile<'a>], idx: usize) -> &'x GraphFile<'a> {
    files
        .iter()
        .find(|f| f.file_idx == idx)
        .expect("graph file for fn")
}

/// The panic-shaped token at `i`, if any.
fn panic_site(toks: &[Token], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
    let next = toks.get(i + 1).map(|t| t.text.as_str());
    match t.text.as_str() {
        "unwrap" if prev == Some(".") => Some("unwrap"),
        "expect" if prev == Some(".") => Some("expect"),
        "panic" if next == Some("!") => Some("panic"),
        "todo" if next == Some("!") => Some("todo"),
        "unimplemented" if next == Some("!") => Some("unimplemented"),
        _ => None,
    }
}

/// The allocation-shaped token at `i`, if any.
fn alloc_site(toks: &[Token], i: usize) -> Option<&str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
    let next = toks.get(i + 1).map(|t| t.text.as_str());
    let name = t.text.as_str();
    let hit = (ALLOC_METHODS.contains(&name) && prev == Some("."))
        || (ALLOC_MACROS.contains(&name) && next == Some("!"))
        || ((name == "new" || name == "with_capacity")
            && prev == Some("::")
            && i.checked_sub(2)
                .is_some_and(|k| ALLOC_CTORS.contains(&toks[k].text.as_str())));
    hit.then_some(name)
}

fn site_chain(
    hot: &Reach,
    g: &Graph,
    id: FnId,
    want_ctx: bool,
    tok: &str,
    file: &str,
    line: usize,
) -> Vec<String> {
    let mut chain = hot.chain(g, id, want_ctx);
    chain.push(format!("`{tok}` at {file}:{line}"));
    chain
}

/// `hot-path-panic`, transitive: panic-shaped tokens in any function
/// reachable from a hot root, within the panic surface crates.
pub(crate) fn check_hot_path_panic(
    g: &Graph,
    files: &[GraphFile<'_>],
    hot: &Reach,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in g.fns.iter().enumerate() {
        if !hot.is_hot(id) || !PANIC_SURFACE_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let Some((lo, hi)) = f.item.body else {
            continue;
        };
        let gf = file_of(files, f.file_idx);
        for i in lo..hi.min(gf.tokens.len()) {
            if gf.mask[i] {
                continue;
            }
            if let Some(name) = panic_site(gf.tokens, i) {
                let line = gf.tokens[i].line;
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line,
                    rule: "hot-path-panic",
                    message: format!(
                        "`{name}` can panic mid-event and is reachable from a hot root; \
                         return a typed error or justify the invariant with a pragma"
                    ),
                    symbol: f.symbol(),
                    chain: site_chain(hot, g, id, false, name, &f.file, line),
                });
            }
        }
    }
    out
}

/// `alloc-in-hot-loop`, transitive: allocation-shaped tokens inside a
/// loop of a hot-reachable function, or anywhere in a function reached
/// through an in-loop call site (loop context propagates along edges).
pub(crate) fn check_alloc_in_hot_loop(
    g: &Graph,
    files: &[GraphFile<'_>],
    hot: &Reach,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in g.fns.iter().enumerate() {
        if !hot.is_hot(id) || !ALLOC_SURFACE_CRATES.contains(&f.krate.as_str()) {
            continue;
        }
        let Some((lo, hi)) = f.item.body else {
            continue;
        };
        let gf = file_of(files, f.file_idx);
        let loops = loop_spans(gf.tokens, lo, hi.min(gf.tokens.len()));
        let fn_in_loop_ctx = hot.in_loop_ctx(id);
        for i in lo..hi.min(gf.tokens.len()) {
            if gf.mask[i] {
                continue;
            }
            let Some(name) = alloc_site(gf.tokens, i) else {
                continue;
            };
            let in_own_loop = loops.iter().any(|&(a, b)| a <= i && i < b);
            if !in_own_loop && !fn_in_loop_ctx {
                continue;
            }
            let line = gf.tokens[i].line;
            let name = name.to_string();
            let message = if in_own_loop {
                format!(
                    "`{name}` allocates inside a loop of hot-reachable `{}`; hoist the \
                     buffer out of the loop or reuse a scratch field",
                    f.display()
                )
            } else {
                format!(
                    "`{name}` allocates in `{}`, which is reached from inside a hot \
                     loop; hoist the allocation toward the caller or reuse a scratch field",
                    f.display()
                )
            };
            out.push(Diagnostic {
                file: f.file.clone(),
                line,
                rule: "alloc-in-hot-loop",
                message,
                symbol: f.symbol(),
                chain: site_chain(hot, g, id, !in_own_loop, &name, &f.file, line),
            });
        }
    }
    out
}

/// True when the float literal at `i` takes part in binary arithmetic.
fn float_arith_site(toks: &[Token], i: usize) -> bool {
    if toks[i].kind != TokKind::Float {
        return false;
    }
    let prev = i.checked_sub(1).map(|k| toks[k].text.as_str());
    let next = toks.get(i + 1).map(|t| t.text.as_str());
    if matches!(next, Some("+" | "-" | "*" | "/")) || matches!(prev, Some("+" | "*" | "/")) {
        return true;
    }
    // `x - 1.5` is binary iff the token before `-` can end an operand.
    if prev == Some("-") {
        if let Some(before) = i.checked_sub(2).map(|k| &toks[k]) {
            return matches!(
                before.kind,
                TokKind::Ident | TokKind::Int | TokKind::Float | TokKind::Literal
            ) || before.text == ")"
                || before.text == "]";
        }
    }
    false
}

/// `float-into-exact`: f64→Rat conversions or float arithmetic in
/// functions reachable from exact-report entry points, outside the
/// sanctioned dyadic modules.
pub(crate) fn check_float_into_exact(
    g: &Graph,
    files: &[GraphFile<'_>],
    exact: &Reach,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in g.fns.iter().enumerate() {
        if !exact.is_hot(id) || EXACT_SANCTIONED_FILES.iter().any(|s| f.file.ends_with(s)) {
            continue;
        }
        let Some((lo, hi)) = f.item.body else {
            continue;
        };
        let gf = file_of(files, f.file_idx);
        for i in lo..hi.min(gf.tokens.len()) {
            if gf.mask[i] {
                continue;
            }
            let t = &gf.tokens[i];
            let conversion = t.kind == TokKind::Ident
                && (t.text == "from_f64" || t.text == "from_f64_approx")
                && gf.tokens.get(i + 1).is_some_and(|n| n.text == "(");
            let arith = float_arith_site(gf.tokens, i);
            if !conversion && !arith {
                continue;
            }
            let what = if conversion {
                format!("`{}` rounds f64 into the exact domain", t.text)
            } else {
                "float arithmetic feeds the exact domain".to_string()
            };
            out.push(Diagnostic {
                file: f.file.clone(),
                line: t.line,
                rule: "float-into-exact",
                message: format!(
                    "{what} on a path reachable from an exact entry point; keep the \
                     conversion in the sanctioned dyadic modules or justify with a pragma"
                ),
                symbol: f.symbol(),
                chain: site_chain(exact, g, id, false, &t.text, &f.file, t.line),
            });
        }
    }
    out
}

fn impl_symbol(f: &FnInfo) -> String {
    let s = f.symbol();
    match s.rsplit_once("::") {
        Some((head, _)) => head.to_string(),
        None => s,
    }
}

/// `scheduler-contract`: every `OnlineScheduler` impl defines all event
/// hooks, and `name()` embeds a string literal.
pub(crate) fn check_scheduler_contract(g: &Graph, files: &[GraphFile<'_>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut impls: BTreeMap<(usize, String), Vec<FnId>> = BTreeMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.item.trait_impl.as_deref() == Some("OnlineScheduler") {
            let owner = f.item.owner.clone().unwrap_or_default();
            impls.entry((f.file_idx, owner)).or_default().push(id);
        }
    }
    for ((_, owner), ids) in &impls {
        let first = ids
            .iter()
            .map(|&id| &g.fns[id])
            .min_by_key(|f| f.item.line)
            .expect("impl group is non-empty");
        let defined: BTreeSet<&str> = ids.iter().map(|&id| g.fns[id].item.name.as_str()).collect();
        for hook in SCHEDULER_HOOKS {
            if !defined.contains(hook) {
                out.push(Diagnostic {
                    file: first.file.clone(),
                    line: first.item.line,
                    rule: "scheduler-contract",
                    message: format!(
                        "`impl OnlineScheduler for {owner}` does not define `{hook}`; \
                         write every event hook explicitly (an empty body documents \
                         intent) so contract drift stays visible"
                    ),
                    symbol: impl_symbol(first),
                    chain: Vec::new(),
                });
            }
        }
        if let Some(&name_id) = ids.iter().find(|&&id| g.fns[id].item.name == "name") {
            let f = &g.fns[name_id];
            let has_literal = f.item.body.is_some_and(|(lo, hi)| {
                let gf = file_of(files, f.file_idx);
                gf.tokens[lo..hi.min(gf.tokens.len())]
                    .iter()
                    .any(|t| t.kind == TokKind::Literal && t.text.contains('"'))
            });
            if !has_literal {
                out.push(Diagnostic {
                    file: f.file.clone(),
                    line: f.item.line,
                    rule: "scheduler-contract",
                    message: format!(
                        "`{owner}::name()` must embed a string literal so reports \
                         identify the policy without running code"
                    ),
                    symbol: f.symbol(),
                    chain: Vec::new(),
                });
            }
        }
    }

    out
}

/// One file's reference corpus for `dead-pub`: lexed identifiers plus
/// the raw text (doc comments and doctests reference API the lexer
/// strips).
pub(crate) struct RefSource<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Raw file contents.
    pub raw: &'a str,
}

/// Word-boundary containment: `needle` occurs in `hay` not embedded in a
/// longer identifier.
fn contains_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = start == 0 || !is_word_byte(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_word_byte(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// A byte of a word: `[A-Za-z0-9_]`.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The maximal runs of word bytes in `hay`. For a needle made of word
/// bytes, `contains_word(hay, needle)` holds exactly when the needle is
/// one of them.
fn words(hay: &str) -> BTreeSet<&str> {
    hay.split(|c: char| !u8::try_from(c).is_ok_and(is_word_byte))
        .filter(|w| !w.is_empty())
        .collect()
}

fn ref_qualifies(path: &str, def_crate: &str) -> bool {
    crate::graph::crate_of(path) != def_crate
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.contains("/benches/")
        || path.contains("/bin/")
        || path.ends_with("/main.rs")
}

/// Doc-comment text of a file (`///` and `//!` lines). Doctests inside
/// doc comments compile as *external* crates against the public API, and
/// rustdoc intra-doc links break (`-D warnings`) when their target loses
/// `pub` — so a doc mention anywhere keeps an item alive.
fn doc_text(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) {
            out.push_str(rest);
            out.push('\n');
        }
    }
    out
}

/// Source lines `start..=end` (1-indexed) of `raw`, joined.
fn raw_lines(raw: &str, start: usize, end: usize) -> String {
    let mut out = String::new();
    for (i, line) in raw.lines().enumerate() {
        let n = i + 1;
        if n >= start && n <= end {
            out.push_str(line);
            out.push('\n');
        }
        if n > end {
            break;
        }
    }
    out
}

/// Last source line of the item declaration starting at `line`: the
/// close of its first top-level brace group, or the terminating `;`,
/// whichever comes first.
fn decl_end_line(toks: &[Token], line: usize) -> usize {
    let Some(start) = toks.iter().position(|t| t.line >= line) else {
        return line;
    };
    for (k, t) in toks.iter().enumerate().skip(start) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" => return t.line,
                "{" => return toks[match_brace(toks, k)].line,
                _ => {}
            }
        }
    }
    toks.last().map_or(line, |t| t.line)
}

/// A `dead-pub` candidate with its declaration-region text (for fns the
/// signature up to the body-open line; for types the whole declaration).
struct PubCand {
    name: String,
    line: usize,
    symbol: String,
    file: String,
    region: String,
    live: bool,
}

/// `dead-pub`: `pub` items in lib sources with zero references from any
/// other workspace crate, tests, examples, benches, bins, or doc
/// comments (doctests and intra-doc links). A pub item mentioned in the
/// *declaration* of a live pub item of the same crate is itself live
/// (iterated to a fixpoint) — demoting a type named in a live pub
/// signature would trip `private_interfaces`, so it is not dead.
pub(crate) fn check_dead_pub(lib: &[GraphFile<'_>], refs: &[RefSource<'_>]) -> Vec<Diagnostic> {
    // Per-file identifier sets, and the word sets of each file's raw text
    // (doc comments, doctests) and doc text, so that every check is a set
    // lookup.
    let idents: Vec<BTreeSet<&str>> = refs
        .iter()
        .map(|r| {
            r.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect()
        })
        .collect();
    let raw_words: Vec<BTreeSet<&str>> = refs.iter().map(|r| words(r.raw)).collect();
    let docs: Vec<String> = refs.iter().map(|r| doc_text(r.raw)).collect();
    let doc_words: Vec<BTreeSet<&str>> = docs.iter().map(|d| words(d)).collect();
    let referenced = |name: &str, def_crate: &str| {
        // Only a word-shaped name can be looked up; any other takes the
        // scan, which agrees with the lookup on words.
        let in_text = |set: &BTreeSet<&str>, text: &str| {
            if name.bytes().all(is_word_byte) {
                set.contains(name)
            } else {
                contains_word(text, name)
            }
        };
        refs.iter().enumerate().any(|(i, r)| {
            if ref_qualifies(r.path, def_crate) {
                idents[i].contains(name) || in_text(&raw_words[i], r.raw)
            } else {
                in_text(&doc_words[i], &docs[i])
            }
        })
    };
    let raw_of: BTreeMap<&str, &str> = refs.iter().map(|r| (r.path, r.raw)).collect();

    // Collect candidates per crate so signature liveness propagates
    // across module files.
    let mut by_crate: BTreeMap<String, Vec<PubCand>> = BTreeMap::new();
    for gf in lib {
        let krate = crate::graph::crate_of(gf.path);
        let raw = raw_of.get(gf.path).copied().unwrap_or("");
        let mut push = |name: &str, line: usize, end: usize, symbol: String| {
            if name == "main" || name.starts_with('_') {
                return;
            }
            by_crate.entry(krate.clone()).or_default().push(PubCand {
                name: name.to_string(),
                line,
                symbol,
                file: gf.path.to_string(),
                region: raw_lines(raw, line, end),
                live: referenced(name, &krate),
            });
        };
        for t in &gf.items.types {
            if t.vis == Vis::Pub && t.kind != TypeKind::Mod {
                let info = FnInfo {
                    file: gf.path.to_string(),
                    krate: krate.clone(),
                    file_idx: gf.file_idx,
                    item: crate::items::FnItem {
                        name: t.name.clone(),
                        owner: None,
                        trait_impl: None,
                        is_trait_default: false,
                        vis: t.vis,
                        line: t.line,
                        body: None,
                        body_lines: None,
                        module: t.module.clone(),
                    },
                };
                push(
                    &t.name,
                    t.line,
                    decl_end_line(gf.tokens, t.line),
                    info.symbol(),
                );
            }
        }
        for f in &gf.items.fns {
            if f.vis == Vis::Pub && f.trait_impl.is_none() && !f.is_trait_default {
                let info = FnInfo {
                    file: gf.path.to_string(),
                    krate: krate.clone(),
                    file_idx: gf.file_idx,
                    item: f.clone(),
                };
                let sig_end = f.body.map_or(f.line, |(open, _)| gf.tokens[open].line);
                push(&f.name, f.line, sig_end, info.symbol());
            }
        }
    }

    let mut out = Vec::new();
    for cands in by_crate.values_mut() {
        // Fixpoint: a dead item named in any live item's declaration
        // region becomes live.
        loop {
            let mut newly: Vec<usize> = Vec::new();
            for c in cands.iter().filter(|c| c.live) {
                for (j, d) in cands.iter().enumerate() {
                    if !d.live && contains_word(&c.region, &d.name) {
                        newly.push(j);
                    }
                }
            }
            if newly.is_empty() {
                break;
            }
            for j in newly {
                cands[j].live = true;
            }
        }
        for c in cands.iter().filter(|c| !c.live) {
            out.push(Diagnostic {
                file: c.file.clone(),
                line: c.line,
                rule: "dead-pub",
                message: format!(
                    "pub item `{}` has no references outside its defining \
                     crate's lib sources (other crates, tests, examples, benches, \
                     bins, doc comments, and live pub signatures all checked); \
                     demote to `pub(crate)` or remove",
                    c.name
                ),
                symbol: c.symbol.clone(),
                chain: Vec::new(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Marks tokens inside `#[cfg(test)] mod … { … }` spans (and the
/// attribute itself). Test code legitimately unwraps, times, and
/// compares floats — every rule skips it.
pub(crate) fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // `#` `[` `cfg` `(` `test` `)` `]` = 7 tokens; then `mod`.
            let after = i + 7;
            if toks.get(after).is_some_and(|t| t.text == "mod") {
                let Some(open) = (after..toks.len()).find(|&k| toks[k].text == "{") else {
                    for m in mask.iter_mut().skip(i) {
                        *m = true;
                    }
                    break;
                };
                let close = match_brace(toks, open);
                for m in mask.iter_mut().take(close + 1).skip(i) {
                    *m = true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, want)| toks[i + k].text == *want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphFile};
    use crate::items::{parse_items, FileItems};
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, &lex(src))
    }

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

    fn graph_files(owned: &[Owned]) -> Vec<GraphFile<'_>> {
        owned
            .iter()
            .enumerate()
            .map(|(i, o)| GraphFile {
                path: &o.path,
                file_idx: i,
                tokens: &o.tokens,
                mask: &o.mask,
                items: &o.items,
            })
            .collect()
    }

    #[test]
    fn lexical_rules_respect_scope() {
        let src = "if x == 0.5 {}";
        assert_eq!(run("crates/dlflow-sim/src/schedulers/mct.rs", src).len(), 1);
        assert!(run("crates/dlflow-num/src/rational.rs", src).is_empty());
        assert!(run("crates/dlflow-cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "
fn f(x: f64) -> bool { x == 0.5 }
#[cfg(test)]
mod tests {
    fn g(x: f64) -> bool { x == 0.5 }
}
";
        let d = run("crates/dlflow-sim/src/engine.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn float_eq_catches_literals_both_sides_and_unary_minus() {
        let path = "crates/dlflow-core/src/maxflow.rs";
        assert_eq!(run(path, "if x == 0.0 {}").len(), 1);
        assert_eq!(run(path, "if 1.5 != y {}").len(), 1);
        assert_eq!(run(path, "if x == -2.0 {}").len(), 1);
        assert!(run(path, "if x == 0 {}").is_empty()); // int is fine
        assert!(run(path, "if x <= 0.0 {}").is_empty()); // ordering is fine
    }

    #[test]
    fn float_eq_extends_to_examples_tests_benches() {
        assert_eq!(run("examples/quickstart.rs", "if x == 0.5 {}").len(), 1);
        assert_eq!(run("tests/smoke.rs", "if x == 0.5 {}").len(), 1);
        assert_eq!(
            run("crates/dlflow-bench/benches/bench_sim.rs", "if x == 0.5 {}").len(),
            1
        );
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in RULE_NAMES {
            assert!(explain(rule).is_some(), "no --explain text for {rule}");
        }
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn transitive_panic_flagged_across_files_with_chain() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "impl Engine { pub fn step(&mut self) { settle(self); } }",
            ),
            (
                "crates/dlflow-sim/src/settle.rs",
                "pub fn settle(e: &mut Engine) { e.queue.pop().unwrap(); }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let hot = Reach::compute(&g, &hot_roots(&g));
        let d = check_hot_path_panic(&g, &files, &hot);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/dlflow-sim/src/settle.rs");
        assert_eq!(d[0].symbol, "dlflow-sim::settle::settle");
        assert_eq!(
            d[0].chain,
            [
                "Engine::step".to_string(),
                "settle".to_string(),
                "`unwrap` at crates/dlflow-sim/src/settle.rs:1".to_string()
            ]
        );
        assert!(d[0]
            .render()
            .contains("via Engine::step → settle → `unwrap`"));
    }

    #[test]
    fn sharded_engine_entry_points_are_hot_roots() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/shard.rs",
                "impl ShardedEngine { \
                 pub fn push_arrival(&mut self) { route(self); } \
                 pub fn drain(&mut self) { } \
                 pub fn replay_trace(&mut self) { } \
                 pub fn take_completed(&mut self) { } }",
            ),
            (
                "crates/dlflow-sim/src/route.rs",
                "pub fn route(s: &mut ShardedEngine) { s.map.get(0).unwrap(); }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let roots = hot_roots(&g);
        // push_arrival, drain, and replay_trace are roots; the merge-side
        // take_completed (post-simulation) is not.
        assert_eq!(roots.len(), 3, "{roots:?}");
        let hot = Reach::compute(&g, &roots);
        let d = check_hot_path_panic(&g, &files, &hot);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].symbol, "dlflow-sim::route::route");
        assert!(d[0].render().contains("via ShardedEngine::push_arrival"));
    }

    #[test]
    fn unreferenced_helper_is_not_flagged() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "impl Engine { pub fn step(&mut self) { } }",
            ),
            (
                "crates/dlflow-sim/src/settle.rs",
                "pub fn settle(e: &mut Engine) { e.queue.pop().unwrap(); }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let hot = Reach::compute(&g, &hot_roots(&g));
        assert!(check_hot_path_panic(&g, &files, &hot).is_empty());
    }

    #[test]
    fn panic_surface_excludes_num_crate() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "impl Engine { pub fn step(&mut self) { recip(x); } }",
            ),
            (
                "crates/dlflow-num/src/rational.rs",
                "pub fn recip(x: Rat) -> Rat { x.inv().expect(\"non-zero\") }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let hot = Reach::compute(&g, &hot_roots(&g));
        assert!(check_hot_path_panic(&g, &files, &hot).is_empty());
    }

    #[test]
    fn alloc_flagged_in_own_loop_and_via_loop_context() {
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "impl Engine { pub fn step(&mut self) { for e in es { emit(e); } } }",
            ),
            (
                "crates/dlflow-sim/src/emit.rs",
                "pub fn emit(e: Ev) { let v = e.to_vec(); }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let hot = Reach::compute(&g, &hot_roots(&g));
        let d = check_alloc_in_hot_loop(&g, &files, &hot);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/dlflow-sim/src/emit.rs");
        assert!(d[0].message.contains("reached from inside a hot loop"));
        // Same helper called outside any loop: clean.
        let owned = prep(&[
            (
                "crates/dlflow-sim/src/engine.rs",
                "impl Engine { pub fn step(&mut self) { emit(e); } }",
            ),
            (
                "crates/dlflow-sim/src/emit.rs",
                "pub fn emit(e: Ev) { let v = e.to_vec(); }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let hot = Reach::compute(&g, &hot_roots(&g));
        assert!(check_alloc_in_hot_loop(&g, &files, &hot).is_empty());
    }

    #[test]
    fn float_into_exact_flags_conversion_and_arith() {
        let owned = prep(&[
            (
                "crates/dlflow-core/src/maxflow.rs",
                "pub fn feasible_at(x: f64) -> bool { widen(x) }",
            ),
            (
                "crates/dlflow-core/src/helper.rs",
                "pub fn widen(x: f64) -> bool { let r = Rat::from_f64(x); let y = x * 2.0; true }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let exact = Reach::compute(&g, &exact_roots(&g));
        let d = check_float_into_exact(&g, &files, &exact);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("from_f64"));
        assert!(d[1].message.contains("float arithmetic"));
        // The sanctioned dyadic module may do exactly this: the helper's
        // float arithmetic lives in `rational.rs`, which is exempt.
        let owned = prep(&[
            (
                "crates/dlflow-core/src/maxflow.rs",
                "pub fn feasible_at(x: f64) -> bool { snap(x) }",
            ),
            (
                "crates/dlflow-num/src/rational.rs",
                "pub fn snap(x: f64) -> bool { let y = x * 2.0; true }",
            ),
        ]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let exact = Reach::compute(&g, &exact_roots(&g));
        assert!(check_float_into_exact(&g, &files, &exact).is_empty());
    }

    #[test]
    fn scheduler_contract_missing_hooks_and_name_literal() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/schedulers/mct.rs",
            "impl OnlineScheduler for Mct {
                 fn name(&self) -> String { self.label.clone() }
                 fn plan(&mut self) -> Plan { Plan::empty() }
             }",
        )]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        let d = check_scheduler_contract(&g, &files);
        let msgs: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(d.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`on_arrival`")));
        assert!(msgs.iter().any(|m| m.contains("`on_completion`")));
        assert!(msgs.iter().any(|m| m.contains("`on_platform_change`")));
        assert!(msgs.iter().any(|m| m.contains("string literal")));
    }

    #[test]
    fn scheduler_contract_accepts_complete_impl() {
        let owned = prep(&[(
            "crates/dlflow-sim/src/schedulers/edf.rs",
            "impl OnlineScheduler for Edf {
                 fn name(&self) -> String { format!(\"EDF(k={})\", self.k) }
                 fn on_arrival(&mut self, j: JobId) {}
                 fn on_completion(&mut self, j: JobId) {}
                 fn on_platform_change(&mut self, now: f64, up: &[bool]) {}
                 fn plan(&mut self) -> Plan { Plan::empty() }
             }",
        )]);
        let files = graph_files(&owned);
        let g = Graph::build(&files);
        assert!(check_scheduler_contract(&g, &files).is_empty());
    }

    #[test]
    fn dead_pub_flags_unreferenced_items_only() {
        let owned = prep(&[
            (
                "crates/dlflow-core/src/gantt.rs",
                "pub fn used() {} pub fn orphan() {} pub struct DeadType;",
            ),
            ("tests/smoke.rs", "fn t() { used(); }"),
        ]);
        let files = graph_files(&owned);
        let lib: Vec<GraphFile<'_>> = files
            .iter()
            .filter(|f| crate::graph::is_lib_source(f.path))
            .map(|f| GraphFile { ..*f })
            .collect();
        let refs: Vec<RefSource<'_>> = owned
            .iter()
            .map(|o| RefSource {
                path: &o.path,
                tokens: &o.tokens,
                raw: "",
            })
            .collect();
        let d = check_dead_pub(&lib, &refs);
        let names: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(d.len(), 2, "{names:?}");
        assert!(names.iter().any(|m| m.contains("`orphan`")));
        assert!(names.iter().any(|m| m.contains("`DeadType`")));
    }

    #[test]
    fn dead_pub_counts_doc_comment_references() {
        let owned = prep(&[("crates/dlflow-core/src/gantt.rs", "pub fn doc_only() {}")]);
        let files = graph_files(&owned);
        let refs = [RefSource {
            path: "tests/smoke.rs",
            tokens: &[],
            raw: "//! See [`doc_only`] for details.",
        }];
        assert!(check_dead_pub(&files, &refs).is_empty());
        // Substring matches do not count: word boundaries are required.
        let refs = [RefSource {
            path: "tests/smoke.rs",
            tokens: &[],
            raw: "fn doc_only_extended() {}",
        }];
        assert_eq!(check_dead_pub(&files, &refs).len(), 1);
    }

    #[test]
    fn render_includes_chain_line() {
        let d = Diagnostic {
            file: "crates/dlflow-sim/src/engine.rs".into(),
            line: 412,
            rule: "hot-path-panic",
            message: "`unwrap` can panic".into(),
            symbol: "dlflow-sim::engine::Engine::settle".into(),
            chain: vec![
                "Engine::step".into(),
                "Engine::settle".into(),
                "`unwrap` at crates/dlflow-sim/src/engine.rs:412".into(),
            ],
        };
        assert_eq!(
            d.render(),
            "crates/dlflow-sim/src/engine.rs:412: [hot-path-panic] `unwrap` can panic\n    \
             via Engine::step → Engine::settle → `unwrap` at crates/dlflow-sim/src/engine.rs:412"
        );
    }
}
