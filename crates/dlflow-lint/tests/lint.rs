//! Integration tests: every rule against its bad/clean fixture pair,
//! the self-check that the committed tree has no findings, and the
//! built binary's `--check` exit codes.

use dlflow_lint::rules::Diagnostic;
use dlflow_lint::{analyze, lint_source, run_lint, SourceFile};
use std::path::Path;
use std::process::Command;

/// Reads a fixture from `testdata/` (excluded from the workspace walk —
/// fixtures are intentionally bad).
fn fixture_text(fixture: &str) -> String {
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(fixture);
    std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()))
}

/// Lints a fixture with the *lexical* pass under `as_path`, which
/// decides rule scoping.
fn lint_fixture(fixture: &str, as_path: &str) -> Vec<Diagnostic> {
    lint_source(as_path, &fixture_text(fixture))
}

/// Analyzes a fixture as a one-file workspace under `as_path` — the
/// full pipeline including the call-graph rules.
fn analyze_fixture(fixture: &str, as_path: &str) -> Vec<Diagnostic> {
    analyze(vec![SourceFile {
        path: as_path.to_string(),
        source: fixture_text(fixture),
    }])
    .findings
}

/// Bad fixture: at least `min` findings, every one of `rule`. Clean
/// fixture: no findings at all under the same path.
fn assert_pair(
    lint: fn(&str, &str) -> Vec<Diagnostic>,
    rule: &str,
    bad: &str,
    clean: &str,
    as_path: &str,
    min: usize,
) {
    let findings = lint(bad, as_path);
    assert!(
        findings.len() >= min,
        "{bad}: expected >= {min} findings, got {findings:?}"
    );
    for d in &findings {
        assert_eq!(d.rule, rule, "{bad}: unexpected finding {d:?}");
    }
    let silent = lint(clean, as_path);
    assert!(
        silent.is_empty(),
        "{clean}: expected silence, got {silent:?}"
    );
}

#[test]
fn hot_path_panic_fixtures() {
    // Reachability rule: runs under the full pipeline. The bad fixture
    // panics both inside `Engine::step` and in a helper it calls; the
    // clean one handles failure structurally and parks a panic in a
    // function no root reaches.
    assert_pair(
        analyze_fixture,
        "hot-path-panic",
        "hot_path_panic_bad.rs",
        "hot_path_panic_clean.rs",
        "crates/dlflow-sim/src/engine.rs",
        4, // unwrap, panic!, expect, todo!
    );
    // Transitive findings carry a witness chain rooted at the engine.
    let findings = analyze_fixture("hot_path_panic_bad.rs", "crates/dlflow-sim/src/engine.rs");
    let in_helper = findings
        .iter()
        .find(|d| d.symbol.ends_with("drain_tail"))
        .expect("helper finding");
    assert!(in_helper.chain.first().unwrap().contains("Engine::step"));
}

#[test]
fn float_eq_fixtures() {
    assert_pair(
        lint_fixture,
        "float-eq",
        "float_eq_bad.rs",
        "float_eq_clean.rs",
        "crates/dlflow-core/src/maxflow.rs",
        2, // `== 0.0` and `1.5 !=`
    );
    // The dyadic-exactness modules are sanctioned.
    let dyadic = lint_fixture("float_eq_bad.rs", "crates/dlflow-core/src/instance.rs");
    assert!(dyadic.is_empty(), "instance.rs is sanctioned: {dyadic:?}");
}

#[test]
fn alloc_in_hot_loop_fixtures() {
    assert_pair(
        analyze_fixture,
        "alloc-in-hot-loop",
        "alloc_hot_loop_bad.rs",
        "alloc_hot_loop_clean.rs",
        "crates/dlflow-sim/src/engine.rs",
        2, // to_vec and format! inside the loop
    );
}

#[test]
fn lexer_hardening_fixtures() {
    // Raw strings (with and without extra hashes), nested block
    // comments, char/byte literals holding delimiters, and lifetime
    // ticks: the bad file's one real comparison survives them; the clean
    // file's decoy findings all sit inside literals or comments.
    assert_pair(
        lint_fixture,
        "float-eq",
        "lexer_hardening_bad.rs",
        "lexer_hardening_clean.rs",
        "crates/dlflow-num/src/simplex_support.rs",
        1,
    );
    let findings = lint_fixture(
        "lexer_hardening_bad.rs",
        "crates/dlflow-num/src/simplex_support.rs",
    );
    assert_eq!(findings.len(), 1, "only the real comparison: {findings:?}");
    assert_eq!(findings[0].line, 12);
}

#[test]
fn pragmas_suppress_fixture_findings_line_by_line() {
    // A fixture's finding disappears under a well-formed pragma for the
    // right rule on the right line — and only there.
    let src = "\
// dlflint:allow(float-eq, \"converged() tests an exact sentinel (0.0)\")
fn converged(x: f64) -> bool { x == 0.0 }
fn diverged(y: f64) -> bool { y == 0.0 }
";
    let d = lint_source("crates/dlflow-core/src/maxflow.rs", src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].line, 3);
}

#[test]
fn committed_tree_has_no_findings() {
    // The self-check CI runs as `dlflow-lint --check`: linting the
    // workspace finds nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let result = run_lint(&root).expect("workspace lint must run");
    assert!(
        result.n_files > 50,
        "walk looks truncated: {}",
        result.n_files
    );
    let rendered: Vec<String> = result.findings.iter().map(|d| d.render()).collect();
    assert!(
        rendered.is_empty(),
        "the tree has findings:\n{}",
        rendered.join("\n")
    );
}

/// Runs the built `dlflow-lint --check` over a one-file tree whose
/// `src/lib.rs` holds `source`; returns the exit code and stdout.
fn check_one_file_tree(name: &str, source: &str) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-check-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("create temp tree");
    std::fs::write(root.join("src").join("lib.rs"), source).expect("write temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_dlflow-lint"))
        .arg("--check")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run dlflow-lint");
    std::fs::remove_dir_all(&root).expect("remove temp tree");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn check_fails_on_any_finding_end_to_end() {
    let (code, out) =
        check_one_file_tree("violation", "fn done(x: f64) -> bool {\n    x == 0.0\n}\n");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("src/lib.rs:2: [float-eq]"), "{out}");

    let (code, out) = check_one_file_tree(
        "justified",
        "fn done(x: f64) -> bool {\n    \
         x == 0.0 // dlflint:allow(float-eq, \"0.0 is an exact sentinel\")\n}\n",
    );
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("0 finding(s)"), "{out}");

    // A pragma for a rule that moved to clippy names an unknown rule.
    let (code, out) = check_one_file_tree(
        "moved-rule",
        "fn narrow(x: u64) -> u8 {\n    x as u8 // dlflint:allow(lossy-cast, \"bounded\")\n}\n",
    );
    assert_eq!(code, Some(1), "{out}");
    assert!(
        out.contains("src/lib.rs:2: [bad-pragma] pragma names unknown rule `lossy-cast`"),
        "{out}"
    );
}
