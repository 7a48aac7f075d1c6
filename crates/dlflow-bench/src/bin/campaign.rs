//! `campaign` — the paper's §6-style scheduler tournament, batched.
//!
//! Runs the built-in quick-mode campaign (1 platform family × 1 workload
//! family × 20 seeds × 6 schedulers, exact Theorem-2 yardstick per run)
//! and writes `CAMPAIGN_PR4.json` (machine-readable, every run) plus
//! `CAMPAIGN_PR4.md` (aggregate table + head-to-head win matrix).
//!
//! ```text
//! cargo run --release -p dlflow-bench --bin campaign            # quick mode
//! cargo run --release -p dlflow-bench --bin campaign -- --full  # bigger sweep
//! cargo run --release -p dlflow-bench --bin campaign -- --config my.campaign
//! ```
//!
//! `--out <prefix>` overrides the `CAMPAIGN_PR4` output prefix. Custom
//! configs use the format documented in `docs/FORMATS.md`.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::campaign::{parse_campaign, run_campaign, CampaignConfig};

/// The `--full` sweep: two platform families × two workload families.
const FULL_CONFIG: &str = "\
name full
seeds 20
seed-base 1
sigbits 12
weights stretch
platform cluster servers=4 banks=5 heterogeneity=3
platform wide    servers=8 banks=10 heterogeneity=5
workload steady  jobs=8 load=1.2
workload surge   jobs=14 load=2.0
scheduler mct
scheduler fifo
scheduler srpt
scheduler swrpt
scheduler rr
scheduler wage
scheduler edf
scheduler ola
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let prefix = get("--out").unwrap_or_else(|| "CAMPAIGN_PR4".to_string());

    let custom = get("--config");
    let cfg = if let Some(path) = &custom {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        parse_campaign(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    } else if args.iter().any(|a| a == "--full") {
        parse_campaign(FULL_CONFIG).expect("built-in full config parses")
    } else {
        CampaignConfig::quick()
    };

    eprintln!(
        "campaign `{}`: {} platform(s) × {} workload(s) × {} seed(s) × {} scheduler(s)…",
        cfg.name,
        cfg.platforms.len(),
        cfg.workloads.len(),
        cfg.n_seeds,
        cfg.schedulers.len()
    );
    let t0 = std::time::Instant::now();
    let report = run_campaign(&cfg).expect("campaign completes");
    eprintln!(
        "{} runs in {:.2}s",
        report.runs.len(),
        t0.elapsed().as_secs_f64()
    );

    print!("{}", report.to_markdown());

    let json_path = format!("{prefix}.json");
    let md_path = format!("{prefix}.md");
    std::fs::write(&json_path, report.to_json()).expect("write campaign JSON");
    std::fs::write(&md_path, report.to_markdown()).expect("write campaign markdown");
    eprintln!("wrote {json_path} and {md_path}");

    // Acceptance invariants of the campaign engine (PR 4). The shape
    // checks only apply to the built-in configs — a custom --config may
    // legitimately be smaller.
    if custom.is_none() {
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
    for r in &report.runs {
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
