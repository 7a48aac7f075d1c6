//! `dlflow-lint` — run the workspace static-analysis pass.
//!
//! ```text
//! dlflow-lint                   # list findings (informational, exit 0)
//! dlflow-lint --check           # list findings, exit 1 if there is any (CI gate)
//! dlflow-lint --json            # machine-readable findings report
//! dlflow-lint --explain <rule>  # print a rule's rationale and exit
//! dlflow-lint --timing          # include per-rule wall time in the output
//! dlflow-lint --max-wall-ms <n> # fail if total analysis exceeds n ms (CI budget)
//! dlflow-lint --root <dir>      # workspace root (default: cwd)
//! ```
//!
//! `--check` combines with `--json`: the report is printed either way,
//! and the exit code says whether the tree is clean. Timing output is
//! opt-in so that default human and `--json` output is byte-identical
//! across runs.

#![forbid(unsafe_code)]

use dlflow_lint::rules;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let root = PathBuf::from(value_of("--root").unwrap_or_else(|| ".".to_string()));
    for (i, a) in args.iter().enumerate() {
        let known = matches!(
            a.as_str(),
            "--check" | "--json" | "--explain" | "--timing" | "--max-wall-ms" | "--root"
        ) || i
            .checked_sub(1)
            .and_then(|k| args.get(k))
            .is_some_and(|prev| matches!(prev.as_str(), "--root" | "--explain" | "--max-wall-ms"));
        if !known {
            eprintln!(
                "unknown argument `{a}` (expected --check, --json, --explain <rule>, \
                 --timing, --max-wall-ms <n>, --root <dir>)"
            );
            return ExitCode::FAILURE;
        }
    }

    if has("--explain") {
        let Some(rule) = value_of("--explain") else {
            eprintln!(
                "--explain needs a rule name; rules: {}",
                rules::RULE_NAMES.join(", ")
            );
            return ExitCode::FAILURE;
        };
        match rules::explain(&rule) {
            Some(text) => {
                println!("[{rule}]\n{text}");
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "unknown rule `{rule}`; rules: {}",
                    rules::RULE_NAMES.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let max_wall_ms: Option<u128> = match value_of("--max-wall-ms") {
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--max-wall-ms needs an integer millisecond budget, got `{v}`");
                return ExitCode::FAILURE;
            }
        },
        None => {
            if has("--max-wall-ms") {
                eprintln!("--max-wall-ms needs an integer millisecond budget");
                return ExitCode::FAILURE;
            }
            None
        }
    };

    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "--timing and the --max-wall-ms budget report the analyzer's own wall time"
    )]
    let t0 = std::time::Instant::now();
    let result = match dlflow_lint::run_lint(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dlflow-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = t0.elapsed().as_millis();

    if has("--json") {
        print!("{}", result.to_json(has("--timing")));
    } else {
        for d in &result.findings {
            println!("{}", d.render());
        }
        println!(
            "dlflow-lint: {} finding(s) across {} file(s)",
            result.findings.len(),
            result.n_files
        );
        if has("--timing") {
            eprintln!(
                "dlflow-lint: {} files, {} items, {} unresolved calls, {wall_ms} ms total",
                result.n_files, result.n_items, result.n_unresolved
            );
            for (rule, us) in &result.timings_us {
                eprintln!("  {rule:<22} {:>8.1} ms", *us as f64 / 1000.0);
            }
        }
    }

    let mut failed = false;
    if let Some(budget) = max_wall_ms.filter(|&b| wall_ms > b) {
        eprintln!("dlflow-lint: analysis took {wall_ms} ms, over the {budget} ms budget");
        failed = true;
    }
    if has("--check") && !result.findings.is_empty() {
        eprintln!(
            "dlflow-lint --check: {} finding(s); fix each or justify it with a \
             `dlflint:allow(rule, \"reason\")` pragma",
            result.findings.len()
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
