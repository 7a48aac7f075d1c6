//! Integration tests of the semantic front end from the outside: the
//! item/graph/reachability layers a custom driver would compose, the
//! acceptance fixture for cross-module hot-path detection, and the
//! determinism contract of [`dlflow_lint::analyze`].

use dlflow_lint::graph::{crate_of, is_lib_source, loop_spans, Graph, GraphFile};
use dlflow_lint::items::parse_items;
use dlflow_lint::lexer::lex;
use dlflow_lint::reach::Reach;
use dlflow_lint::rules::check_file;
use dlflow_lint::{analyze, SourceFile};

#[test]
fn path_classification_helpers() {
    assert_eq!(crate_of("crates/dlflow-sim/src/engine.rs"), "dlflow-sim");
    assert!(is_lib_source("crates/dlflow-sim/src/engine.rs"));
    assert!(!is_lib_source("crates/dlflow-sim/tests/prop_engine.rs"));
    assert!(!is_lib_source("examples/tour.rs"));
}

#[test]
fn item_parser_locates_enclosing_functions() {
    let src = "pub fn alpha() {\n    work();\n}\n\nfn beta() {}\n";
    let lexed = lex(src);
    let mask = vec![false; lexed.tokens.len()];
    let items = parse_items(&lexed.tokens, &mask);
    assert_eq!(items.fns.len(), 2);
    assert_eq!(items.fn_covering_line(2).unwrap().name, "alpha");
    assert_eq!(items.fn_covering_line(5).unwrap().name, "beta");
    assert!(items.fn_covering_line(4).is_none());
}

#[test]
fn pragma_placement_rules() {
    let src = "let a = x.unwrap(); // dlflint:allow(hot-path-panic, \"why\")\n\
               // dlflint:allow(float-eq, \"why\")\nlet b = y == 0.5;\n";
    let lexed = lex(src);
    assert_eq!(lexed.pragmas.len(), 2);
    // Trailing form suppresses its own line; own-line form the next.
    assert_eq!(lexed.pragmas[0].applies_to_line(), 1);
    assert_eq!(lexed.pragmas[1].applies_to_line(), 3);
}

#[test]
fn loop_spans_cover_nested_bodies() {
    let lexed = lex("fn f() { for i in 0..3 { while go() { tick(); } } g(); }");
    let spans = loop_spans(&lexed.tokens, 0, lexed.tokens.len());
    assert_eq!(spans.len(), 2); // for body + nested while body
    let (outer, inner) = (spans[0], spans[1]);
    assert!(outer.0 < inner.0 && inner.1 <= outer.1);
}

#[test]
fn lexical_rules_run_standalone_per_file() {
    let lexed = lex("pub fn pack() { let a = x == 0.5; }");
    let out = check_file("crates/dlflow-core/src/gantt.rs", &lexed);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "float-eq");
}

#[test]
fn reachability_distinguishes_loop_context() {
    let engine = "impl Engine { pub fn step(&mut self) { for j in jobs { settle(j); } audit(); } }";
    let util = "pub fn settle(j: &Job) {}\npub fn audit() {}\npub fn unused() {}";
    let files = [
        ("crates/x/src/engine.rs", engine),
        ("crates/x/src/util.rs", util),
    ];
    let lexed: Vec<_> = files.iter().map(|(_, s)| lex(s)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| vec![false; l.tokens.len()]).collect();
    let items: Vec<_> = lexed
        .iter()
        .zip(&masks)
        .map(|(l, m)| parse_items(&l.tokens, m))
        .collect();
    let gfiles: Vec<GraphFile<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, (p, _))| GraphFile {
            path: p,
            file_idx: i,
            tokens: &lexed[i].tokens,
            mask: &masks[i],
            items: &items[i],
        })
        .collect();
    let graph = Graph::build(&gfiles);
    let roots = graph.find(|f| f.item.name == "step");
    assert_eq!(roots.len(), 1);
    let reach = Reach::compute(&graph, &roots);

    let id_of = |name: &str| graph.find(|f| f.item.name == name)[0];
    assert!(reach.is_hot(id_of("settle")));
    assert!(reach.in_loop_ctx(id_of("settle"))); // called inside the for
    assert!(reach.is_hot(id_of("audit")));
    assert!(!reach.in_loop_ctx(id_of("audit"))); // straight-line call
    assert!(!reach.is_hot(id_of("unused")));
}

/// The ISSUE acceptance fixture: a helper called from `Engine::step` in
/// a *different module* is flagged with a rendered witness chain; the
/// identical helper left unreferenced stays clean.
#[test]
fn cross_module_hot_helper_is_flagged_with_chain() {
    let engine = "impl Engine { pub fn step(&mut self) { crate::util::drain_one(self); } }";
    let helper = "pub(crate) fn drain_one(e: &mut Engine) { e.q.pop().unwrap(); }";
    let flagged = analyze(vec![
        SourceFile {
            path: "crates/dlflow-sim/src/engine.rs".into(),
            source: engine.into(),
        },
        SourceFile {
            path: "crates/dlflow-sim/src/util.rs".into(),
            source: helper.into(),
        },
    ]);
    let panics: Vec<_> = flagged
        .findings
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    assert_eq!(panics.len(), 1);
    let d = panics[0];
    assert_eq!(d.file, "crates/dlflow-sim/src/util.rs");
    assert!(d.chain.first().unwrap().contains("Engine::step"));
    let human = d.render();
    assert!(
        human.contains("via Engine::step"),
        "chain missing from: {human}"
    );

    // Same helper with no caller: not on the hot path, no finding.
    let clean = analyze(vec![SourceFile {
        path: "crates/dlflow-sim/src/util.rs".into(),
        source: helper.into(),
    }]);
    assert!(clean.findings.iter().all(|d| d.rule != "hot-path-panic"));
}

/// Determinism property: output is a pure function of the file *set* —
/// byte-identical across repeated runs and any input ordering, in both
/// the human rendering and the JSON report.
#[test]
fn analysis_output_is_order_independent_and_repeatable() {
    let corpus: Vec<SourceFile> = vec![
        SourceFile {
            path: "crates/a/src/engine.rs".into(),
            source: "impl Engine { pub fn step(&mut self) { helper(); } }".into(),
        },
        SourceFile {
            path: "crates/a/src/util.rs".into(),
            source: "pub fn helper() { v.pop().unwrap(); }\npub fn lonely() {}".into(),
        },
        SourceFile {
            path: "crates/b/src/lib.rs".into(),
            source: "pub fn cast_it(x: u64) -> u32 { x as u32 }".into(),
        },
    ];
    let render = |files: Vec<SourceFile>| {
        let res = analyze(files);
        let human: String = res.findings.iter().map(|d| d.render() + "\n").collect();
        (human, res.to_json(false))
    };
    let baseline = render(corpus.clone());
    // Repeatability: same order, fresh run.
    assert_eq!(render(corpus.clone()), baseline);
    // Order independence: reversed and rotated permutations.
    let mut reversed = corpus.clone();
    reversed.reverse();
    assert_eq!(render(reversed), baseline);
    let mut rotated = corpus.clone();
    rotated.rotate_left(1);
    assert_eq!(render(rotated), baseline);
}
