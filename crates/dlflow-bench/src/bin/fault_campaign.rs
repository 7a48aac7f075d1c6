//! `fault-campaign` — the chaos counterpart of the `campaign` bin.
//!
//! Sweeps failure intensity (none → light → moderate → heavy, seeded
//! per-machine MTBF/MTTR fault schedules) × scheduler over the quick
//! tournament scenarios and writes `CAMPAIGN_PR8.json` (every run) plus
//! `CAMPAIGN_PR8.md` (the stretch-ratio degradation table). Every run
//! is scored against the **fault-free** exact Theorem-2 optimum of its
//! scenario, so the table reads directly as the price of the faults.
//!
//! ```text
//! cargo run --release -p dlflow-bench --bin fault-campaign
//! cargo run --release -p dlflow-bench --bin fault-campaign -- --out MYPREFIX
//! ```

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::chaos::{default_levels, run_fault_campaign, FaultCampaignConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prefix = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "CAMPAIGN_PR8".to_string());

    let cfg = FaultCampaignConfig {
        levels: default_levels(),
        ..FaultCampaignConfig::quick()
    };
    eprintln!(
        "chaos campaign `{}`: {} platform(s) × {} workload(s) × {} seed(s) × {} level(s) × {} scheduler(s)…",
        cfg.base.name,
        cfg.base.platforms.len(),
        cfg.base.workloads.len(),
        cfg.base.n_seeds,
        cfg.levels.len(),
        cfg.base.schedulers.len()
    );
    let t0 = std::time::Instant::now();
    let report = run_fault_campaign(&cfg).expect("chaos campaign completes");
    eprintln!(
        "{} runs in {:.2}s",
        report.runs.len(),
        t0.elapsed().as_secs_f64()
    );

    print!("{}", report.to_markdown());

    let json_path = format!("{prefix}.json");
    let md_path = format!("{prefix}.md");
    std::fs::write(&json_path, report.to_json()).expect("write chaos JSON");
    std::fs::write(&md_path, report.to_markdown()).expect("write chaos markdown");
    eprintln!("wrote {json_path} and {md_path}");

    // Acceptance invariants of the fault model (PR 8).
    assert!(
        report.levels.len() >= 4,
        "sweep needs >= 4 intensity levels"
    );
    assert_eq!(report.levels[0], "none", "the baseline level leads");
    for r in &report.runs {
        assert!(
            r.run.opt_stretch > 0.0 && r.run.stretch_ratio.is_finite(),
            "every run reports its ratio to the exact fault-free bound"
        );
        assert!(
            r.run.stretch_ratio > 0.99,
            "{} at {}: online max-stretch {} cannot beat the fault-free offline optimum {}",
            r.run.scheduler,
            r.level,
            r.run.max_stretch,
            r.run.opt_stretch
        );
        if r.level == "none" {
            assert_eq!(r.n_fault_events, 0, "baseline level must inject nothing");
        }
    }
    assert!(
        report
            .runs
            .iter()
            .any(|r| r.level == "heavy" && r.n_fault_events > 0),
        "the heavy level must actually inject faults"
    );
}
