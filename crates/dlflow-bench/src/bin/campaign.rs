//! `campaign` — the paper's §6-style scheduler tournament, batched, and
//! its fault-intensity sweep.
//!
//! Runs the built-in quick-mode campaign (1 platform family × 1 workload
//! family × 20 seeds × 6 schedulers, exact Theorem-2 yardstick per run)
//! and writes `CAMPAIGN_PR4.json` (machine-readable, every run) plus
//! `CAMPAIGN_PR4.md` (aggregate table + head-to-head win matrix). A
//! config with a `faults` line is a fault sweep, written as one such
//! tournament report per level, each headed by the level's name and its
//! injected-event counts; the committed `CAMPAIGN_PR8.campaign`
//! regenerates `CAMPAIGN_PR8.json`/`.md`.
//!
//! ```text
//! cargo run --release -p dlflow-bench --bin campaign            # quick mode
//! cargo run --release -p dlflow-bench --bin campaign -- --full  # bigger sweep
//! cargo run --release -p dlflow-bench --bin campaign -- --config CAMPAIGN_PR8.campaign
//! ```
//!
//! Reports go to `<prefix>.json` and `<prefix>.md`: the prefix is
//! `--out`'s, else the `--config` path without its `.campaign`
//! extension, else `CAMPAIGN_FULL` under `--full` and `CAMPAIGN_PR4` for
//! the quick campaign, which regenerates its committed golden. Custom
//! configs use the format documented in `docs/FORMATS.md`.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::campaign::{
    parse_campaign, render_campaign, run_fault_sweep, FULL_CONFIG, QUICK_CONFIG,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let custom = get("--config");
    let (cfg, prefix) = match &custom {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let cfg = parse_campaign(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            (
                cfg,
                path.strip_suffix(".campaign").unwrap_or(path).to_string(),
            )
        }
        None => {
            let full = args.iter().any(|a| a == "--full");
            let (text, prefix) = if full {
                (FULL_CONFIG, "CAMPAIGN_FULL")
            } else {
                (QUICK_CONFIG, "CAMPAIGN_PR4")
            };
            let cfg = parse_campaign(text).expect("built-in config parses");
            (cfg, prefix.to_string())
        }
    };
    let prefix = get("--out").unwrap_or(prefix);

    eprintln!(
        "campaign `{}`: {} platform(s) × {} workload(s) × {} seed(s) × {} fault level(s) × {} scheduler(s)…",
        cfg.name,
        cfg.platforms.len(),
        cfg.workloads.len(),
        cfg.n_seeds,
        cfg.faults.len().max(1),
        cfg.schedulers.len()
    );
    let t0 = std::time::Instant::now();
    let levels = run_fault_sweep(&cfg).expect("campaign completes");
    let (json, markdown) = render_campaign(&cfg, &levels);
    let runs: Vec<_> = levels.iter().flat_map(|l| &l.report.runs).collect();
    eprintln!("{} runs in {:.2}s", runs.len(), t0.elapsed().as_secs_f64());

    print!("{markdown}");

    let json_path = format!("{prefix}.json");
    let md_path = format!("{prefix}.md");
    std::fs::write(&json_path, json).expect("write campaign JSON");
    std::fs::write(&md_path, markdown).expect("write campaign markdown");
    eprintln!("wrote {json_path} and {md_path}");

    // Acceptance invariants of the campaign engine (PR 4). The shape
    // checks only apply to the built-in configs — a custom --config may
    // legitimately be smaller.
    if custom.is_none() {
        let report = &levels[0].report;
        assert!(
            report.schedulers.len() >= 3,
            "tournament needs >= 3 schedulers"
        );
        assert!(report.n_seeds >= 20, "tournament needs >= 20 seeds");
        assert!(
            report.schedulers.iter().any(|s| s.starts_with("OLA")),
            "OfflineAdapt must be an entrant"
        );
    }
    // Faults or not, the yardstick is the fault-free exact optimum.
    for r in runs {
        assert!(
            r.opt_stretch > 0.0 && r.stretch_ratio.is_finite(),
            "every run reports its ratio to the exact Theorem-2 bound"
        );
        assert!(
            r.stretch_ratio > 0.99,
            "{}: online max-stretch {} cannot beat the exact offline optimum {}",
            r.scheduler,
            r.max_stretch,
            r.opt_stretch
        );
    }
}
