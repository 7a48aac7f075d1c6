//! # dlflow-lint — workspace static analysis for dlflow's invariants
//!
//! The repo's two load-bearing properties — byte-identical deterministic
//! reports (campaign parallel-vs-serial, engine-vs-dense parity) and
//! exact-arithmetic correctness (the Theorem-2 yardstick) — are enforced
//! at runtime by parity tests. This crate makes them *source-level*
//! invariants checked on every commit: a self-contained analysis driver
//! (no external dependencies) run over the whole workspace by the
//! `dlflow-lint` bin.
//!
//! It holds only what clippy cannot check. Clippy's configuration covers
//! the rest: `HashMap`/`HashSet` and wall-clock or entropy reads are
//! `disallowed-types`/`disallowed-methods` in the root `clippy.toml`, and
//! lossy `as` casts in dlflow-num and dlflow-core are clippy's cast lints.
//! The [`lexer`] feeds an item parser ([`items`]), a workspace symbol
//! table and conservative call graph ([`graph`]), and a reachability pass
//! ([`reach`]) whose witness chains appear in diagnostics. Seven rules
//! (catalog with rationale in `docs/LINTS.md`, or `--explain <rule>`):
//!
//! | rule | guards |
//! |---|---|
//! | `hot-path-panic`        | panic-free event paths, **transitive** over the call graph |
//! | `float-eq`              | exactness (no float `==`/`!=` against a literal outside the dyadic modules) |
//! | `alloc-in-hot-loop`     | allocation-lean hot path, **transitive** with loop-context propagation |
//! | `float-into-exact`      | no f64 rounding on paths reachable from exact entry points |
//! | `scheduler-contract`    | every `OnlineScheduler` impl writes all hooks; `name()` is a literal |
//! | `dead-pub`              | no unreferenced `pub` API surface in lib crates |
//! | `bad-pragma`            | suppressions are well-formed and reasoned |
//!
//! Findings can be suppressed inline with a justified pragma — e.g. a
//! trailing `` `dlflint:allow(float-eq, "fract()==0 is exact")` `` line
//! comment. `dlflow-lint --check` fails on any finding that remains.
//!
//! ```
//! use dlflow_lint::lint_source;
//!
//! let findings = lint_source(
//!     "crates/dlflow-core/src/maxflow.rs",
//!     "fn done(x: f64) -> bool { x == 0.0 }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "float-eq");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod walk;

use graph::{crate_of, file_module, is_lib_source, FnInfo, Graph, GraphFile};
use items::FileItems;
use reach::Reach;
use rules::Diagnostic;
use std::collections::BTreeMap;
use std::path::Path;

/// One file handed to [`analyze`]: a workspace-relative path (forward
/// slashes — it drives rule scoping) and the file's contents.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Raw file contents.
    pub source: String,
}

/// The result of analyzing a tree.
#[derive(Debug, Default)]
pub struct LintResult {
    /// Every finding, sorted by `(file, line, rule, …)`.
    pub findings: Vec<Diagnostic>,
    /// Files scanned.
    pub n_files: usize,
    /// Items parsed (functions + named type-level items).
    pub n_items: usize,
    /// Call sites that resolved to no workspace function (recorded,
    /// never dropped — a resolution regression shows up here).
    pub n_unresolved: usize,
    /// Per-rule wall time in microseconds, in execution order. Only
    /// rendered under `--timing`/`--json --timing` so default output
    /// stays byte-identical across runs.
    pub timings_us: Vec<(&'static str, u128)>,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl LintResult {
    /// Machine-readable report: findings (with symbol and witness
    /// chain), scan counters, and per-rule totals, rendered as
    /// deterministic JSON (hand-rolled — no serde in the offline
    /// dependency set). Per-rule timings are included only when
    /// `timing` is set, so the default output is byte-identical across
    /// runs.
    pub fn to_json(&self, timing: bool) -> String {
        let mut s = String::from("{\n  \"findings\": [\n");
        for (i, d) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() {
                ""
            } else {
                ","
            };
            let chain = d
                .chain
                .iter()
                .map(|c| format!("\"{}\"", escape(c)))
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"symbol\": \"{}\", \
                 \"message\": \"{}\", \"chain\": [{chain}]}}{comma}\n",
                d.file,
                d.line,
                d.rule,
                escape(&d.symbol),
                escape(&d.message),
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"n_files\": {},\n", self.n_files));
        s.push_str(&format!("  \"n_items\": {},\n", self.n_items));
        s.push_str(&format!("  \"n_unresolved\": {},\n", self.n_unresolved));
        s.push_str(&format!("  \"n_findings\": {},\n", self.findings.len()));
        let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.findings {
            *totals.entry(d.rule).or_insert(0) += 1;
        }
        let counts: Vec<String> = totals
            .iter()
            .map(|(rule, n)| format!("\"{rule}\": {n}"))
            .collect();
        s.push_str(&format!("  \"counts\": {{{}}}", counts.join(", ")));
        if timing {
            s.push_str(",\n  \"timings_us\": {");
            for (i, (rule, us)) in self.timings_us.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{rule}\": {us}"));
            }
            s.push('}');
        }
        s.push_str("\n}\n");
        s
    }
}

struct Prep {
    path: String,
    source: String,
    lexed: lexer::LexedFile,
    mask: Vec<bool>,
    items: FileItems,
}

/// Runs `f`, recording its wall time under `name`. Timings reach output
/// only under `--timing`, so findings stay deterministic.
fn timed<T>(
    timings: &mut Vec<(&'static str, u128)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "--timing and the --max-wall-ms budget report the analyzer's own wall time"
    )]
    let t0 = std::time::Instant::now();
    let out = f();
    timings.push((name, t0.elapsed().as_micros()));
    out
}

/// File-level fallback symbol for findings outside any function.
fn file_symbol(path: &str) -> String {
    format!("{}::{}", crate_of(path), file_module(path))
}

/// Drops the findings in `path` that a well-formed pragma covers, and
/// reports each pragma that is malformed or names an unknown rule as a
/// `bad-pragma` finding.
fn apply_pragmas(path: &str, pragmas: &[lexer::Pragma], findings: &mut Vec<Diagnostic>) {
    let mut bad = Vec::new();
    for pragma in pragmas {
        if let Some(err) = &pragma.error {
            bad.push((pragma.line, err.clone()));
            continue;
        }
        if !rules::RULE_NAMES.contains(&pragma.rule.as_str()) || pragma.rule == "bad-pragma" {
            bad.push((
                pragma.line,
                format!("pragma names unknown rule `{}`", pragma.rule),
            ));
            continue;
        }
        let target = pragma.applies_to_line();
        findings.retain(|d| !(d.file == path && d.rule == pragma.rule && d.line == target));
    }
    for (line, message) in bad {
        findings.push(Diagnostic {
            file: path.to_string(),
            line,
            rule: "bad-pragma",
            message,
            symbol: file_symbol(path),
            chain: Vec::new(),
        });
    }
}

/// Analyzes a set of source files as one workspace: lexes and parses
/// items per file, runs the lexical rule, builds the call graph over
/// lib sources, runs the reachability rules, then applies pragmas.
/// Output is a pure function of the file *set* — the list is sorted by
/// path first, so discovery order cannot leak into results.
pub fn analyze(mut files: Vec<SourceFile>) -> LintResult {
    files.sort_by(|a, b| a.path.cmp(&b.path));

    let mut timings: Vec<(&'static str, u128)> = Vec::new();
    let preps: Vec<Prep> = timed(&mut timings, "frontend", || {
        files
            .into_iter()
            .map(|f| {
                let lexed = lexer::lex(&f.source);
                let mask = rules::test_mask(&lexed.tokens);
                let items = items::parse_items(&lexed.tokens, &mask);
                Prep {
                    path: f.path,
                    source: f.source,
                    lexed,
                    mask,
                    items,
                }
            })
            .collect()
    });
    let n_items: usize = preps
        .iter()
        .map(|p| p.items.fns.len() + p.items.types.len())
        .sum();

    let mut findings: Vec<Diagnostic> = Vec::new();
    timed(&mut timings, "float-eq", || {
        for p in &preps {
            findings.extend(rules::check_float_eq(&p.path, &p.lexed.tokens, &p.mask));
        }
    });

    // The call graph covers lib sources only (tests/examples/benches
    // never sit under the hot path); dead-pub reads references from
    // every scanned file.
    let lib: Vec<GraphFile<'_>> = preps
        .iter()
        .enumerate()
        .filter(|(_, p)| is_lib_source(&p.path))
        .map(|(i, p)| GraphFile {
            path: &p.path,
            file_idx: i,
            tokens: &p.lexed.tokens,
            mask: &p.mask,
            items: &p.items,
        })
        .collect();
    let graph = timed(&mut timings, "graph-build", || Graph::build(&lib));
    let n_unresolved = graph.n_unresolved();

    let hot = timed(&mut timings, "reach-hot", || {
        Reach::compute(&graph, &rules::hot_roots(&graph))
    });
    timed(&mut timings, "hot-path-panic", || {
        findings.extend(rules::check_hot_path_panic(&graph, &lib, &hot));
    });
    timed(&mut timings, "alloc-in-hot-loop", || {
        findings.extend(rules::check_alloc_in_hot_loop(&graph, &lib, &hot));
    });
    timed(&mut timings, "float-into-exact", || {
        let exact = Reach::compute(&graph, &rules::exact_roots(&graph));
        findings.extend(rules::check_float_into_exact(&graph, &lib, &exact));
    });
    timed(&mut timings, "scheduler-contract", || {
        findings.extend(rules::check_scheduler_contract(&graph, &lib));
    });
    timed(&mut timings, "dead-pub", || {
        let refs: Vec<rules::RefSource<'_>> = preps
            .iter()
            .map(|p| rules::RefSource {
                path: &p.path,
                tokens: &p.lexed.tokens,
                raw: &p.source,
            })
            .collect();
        findings.extend(rules::check_dead_pub(&lib, &refs));
    });

    // Symbol fill for lexical findings: the narrowest enclosing fn, or
    // a file-level symbol.
    for d in &mut findings {
        if !d.symbol.is_empty() {
            continue;
        }
        let prep = preps
            .binary_search_by(|p| p.path.as_str().cmp(&d.file))
            .ok()
            .map(|i| &preps[i]);
        d.symbol = match prep.and_then(|p| p.items.fn_covering_line(d.line)) {
            Some(item) => FnInfo {
                file: d.file.clone(),
                krate: crate_of(&d.file),
                file_idx: 0,
                item: item.clone(),
            }
            .symbol(),
            None => file_symbol(&d.file),
        };
    }

    // Pragma pass: drop findings a well-formed pragma covers; report the
    // pragmas that are malformed or name an unknown rule.
    timed(&mut timings, "pragmas", || {
        for p in &preps {
            apply_pragmas(&p.path, &p.lexed.pragmas, &mut findings);
        }
    });

    findings.sort();
    findings.dedup();
    LintResult {
        findings,
        n_files: preps.len(),
        n_items,
        n_unresolved,
        timings_us: timings,
    }
}

/// Lints one source file in isolation: the *lexical* rule plus the
/// pragma pass. The reachability rules need the whole workspace — use
/// [`analyze`] for those. `path` is the workspace-relative path used
/// for rule scoping and in diagnostics.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let mut findings = rules::check_file(path, &lexed);
    apply_pragmas(path, &lexed.pragmas, &mut findings);
    findings.sort();
    findings
}

/// Analyzes every Rust file under `root` (see [`walk::rust_files`] for
/// what is scanned) and returns the aggregated findings.
pub fn run_lint(root: &Path) -> Result<LintResult, String> {
    let files = walk::rust_files(root)?;
    let mut inputs = Vec::with_capacity(files.len());
    for rel in &files {
        let full = root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
        let source = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        inputs.push(SourceFile {
            path: rel.clone(),
            source,
        });
    }
    Ok(analyze(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src = "let x = y == 0.5; // dlflint:allow(float-eq, \"0.5 is exact by construction\")";
        assert!(lint_source("crates/dlflow-core/src/gantt.rs", src).is_empty());
    }

    #[test]
    fn own_line_pragma_suppresses_next_line() {
        let src = "\
// dlflint:allow(float-eq, \"exact sentinel\")
let x = y == 0.5;
";
        assert!(lint_source("crates/dlflow-core/src/gantt.rs", src).is_empty());
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = "let x = y == 0.5; // dlflint:allow(hot-path-panic, \"wrong rule\")";
        let d = lint_source("crates/dlflow-core/src/gantt.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-eq");
    }

    #[test]
    fn pragma_does_not_leak_to_other_lines() {
        let src = "\
let a = y == 0.5; // dlflint:allow(float-eq, \"exact sentinel\")
let b = z == 0.5;
";
        let d = lint_source("crates/dlflow-core/src/gantt.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn malformed_and_unknown_pragmas_are_findings() {
        let missing = lint_source("src/lib.rs", "// dlflint:allow(float-eq)");
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, "bad-pragma");
        let unknown = lint_source("src/lib.rs", "// dlflint:allow(no-such-rule, \"why\")");
        assert_eq!(unknown.len(), 1);
        assert!(unknown[0].message.contains("unknown rule"));
        // A rule that moved to clippy is unknown here: its pragma cannot
        // silently survive the move.
        let moved = lint_source(
            "crates/dlflow-core/src/gantt.rs",
            "let x = y as u8; // dlflint:allow(lossy-cast, \"bounded\")",
        );
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].rule, "bad-pragma");
        assert!(moved[0].message.contains("unknown rule `lossy-cast`"));
    }

    #[test]
    fn analyze_fills_symbols_for_lexical_findings() {
        let res = analyze(vec![SourceFile {
            path: "crates/dlflow-core/src/gantt.rs".into(),
            source: "impl Gantt { pub fn pack(&self) { let x = y == 0.5; } }\nlet z = w != 1.5;\n"
                .into(),
        }]);
        let cmps: Vec<_> = res
            .findings
            .iter()
            .filter(|d| d.rule == "float-eq")
            .collect();
        assert_eq!(cmps.len(), 2);
        assert_eq!(cmps[0].symbol, "dlflow-core::gantt::Gantt::pack");
        assert_eq!(cmps[1].symbol, "dlflow-core::gantt");
        assert_eq!(res.n_files, 1);
        assert!(res.n_items >= 1);
    }

    #[test]
    fn analyze_pragma_suppresses_graph_findings() {
        let engine = "impl Engine { pub fn step(&mut self) { settle(self); } }";
        let bad = "pub fn settle(e: &mut Engine) { e.q.pop().unwrap(); }";
        let ok = "pub fn settle(e: &mut Engine) {\n    \
                  // dlflint:allow(hot-path-panic, \"queue non-empty: checked by caller\")\n    \
                  e.q.pop().unwrap();\n}";
        let run = |helper: &str| {
            analyze(vec![
                SourceFile {
                    path: "crates/dlflow-sim/src/engine.rs".into(),
                    source: engine.into(),
                },
                SourceFile {
                    path: "crates/dlflow-sim/src/settle.rs".into(),
                    source: helper.into(),
                },
            ])
        };
        let hits: Vec<_> = run(bad)
            .findings
            .into_iter()
            .filter(|d| d.rule == "hot-path-panic")
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(!hits[0].chain.is_empty());
        assert!(run(ok).findings.iter().all(|d| d.rule != "hot-path-panic"));
    }

    #[test]
    fn json_report_escapes_quotes_and_includes_chain() {
        let res = LintResult {
            findings: vec![rules::Diagnostic {
                file: "a.rs".into(),
                line: 1,
                rule: "float-eq",
                message: "has \"quotes\"".into(),
                symbol: "k::m::f".into(),
                chain: vec!["root".into(), "`x` at a.rs:1".into()],
            }],
            n_files: 1,
            n_items: 0,
            n_unresolved: 0,
            timings_us: vec![("float-eq", 12)],
        };
        let json = res.to_json(false);
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"chain\": [\"root\", \"`x` at a.rs:1\"]"));
        assert!(json.contains("\"n_findings\": 1"));
        assert!(!json.contains("timings_us"));
        assert!(res
            .to_json(true)
            .contains("\"timings_us\": {\"float-eq\": 12}"));
    }
}
