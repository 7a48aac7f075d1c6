//! Fault-sweep reports: the chaos counterpart of the tournament report.
//!
//! A campaign config with a `faults` line sweeps **failure intensity ×
//! scheduler** over the same seeded (platform × workload) scenarios as
//! the tournament ([`crate::campaign::run_fault_sweep`]) and reports exact
//! stretch-ratio *degradation curves*: every run is scored against the
//! **fault-free** exact Theorem-2 optimum of its scenario, so a ratio of
//! 1.0 means "as good as an offline clairvoyant scheduler on a platform
//! that never fails" and the growth of the ratio across intensity levels
//! is precisely the price of the injected faults.
//!
//! Fault schedules come from the seeded [`FaultProcess`] generator:
//! per-machine exponential on/off (MTBF/MTTR), scaled *per scenario* to
//! its serial horizon (levels `none light moderate heavy`, numbers in
//! `docs/FORMATS.md`). Level `none` (no events)
//! rides along as the baseline — its report *is* the fault-free
//! tournament's, since both come from the one campaign runner.
//!
//! The paper's restricted-availability discussion (§3) models machines
//! that can serve only a subset of requests; failure/recovery is the
//! time-varying version of the same phenomenon, which is why degradation
//! is measured on the paper's own max-stretch objective.
//!
//! This module holds only the sweep's report and its JSON/markdown
//! layout (that of the committed `CAMPAIGN_PR8.json`/`.md`).
//!
//! [`FaultProcess`]: crate::workload::FaultProcess

use crate::campaign::{f6, quoted, CampaignReport};

/// One level of a fault sweep.
#[derive(Clone, Debug)]
pub struct SweepLevel {
    /// Level name: `none`, `light`, `moderate` or `heavy`.
    pub level: &'static str,
    /// The level's tournament: online metrics under its faults, every
    /// ratio against the scenario's fault-free exact optimum.
    pub report: CampaignReport,
    /// Platform events injected per scenario, in scenario order (every
    /// scheduler of a scenario sees the same schedule).
    pub fault_events: Vec<usize>,
}

/// Results of a fault sweep: one [`SweepLevel`] per level of the config's
/// `faults` line, in its order.
#[derive(Clone, Debug)]
pub struct FaultSweepReport {
    /// The levels, in report order.
    pub levels: Vec<SweepLevel>,
}

impl SweepLevel {
    /// Mean injected events per run.
    fn mean_fault_events(&self) -> f64 {
        let total: f64 = self.fault_events.iter().map(|&n| n as f64).sum();
        total / self.fault_events.len() as f64
    }
}

impl FaultSweepReport {
    /// Deterministic machine-readable JSON (hand-rendered, like the
    /// tournament report's). Runs are scenario-major, then level, then
    /// scheduler.
    pub fn to_json(&self) -> String {
        let first = &self.levels[0].report;
        let names: Vec<&str> = self.levels.iter().map(|l| l.level).collect();
        let n_runs: usize = self.levels.iter().map(|l| l.report.runs.len()).sum();
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": \"{}\",\n", first.name));
        s.push_str(&format!("  \"n_scenarios\": {},\n", first.n_scenarios));
        s.push_str(&format!("  \"n_runs\": {n_runs},\n"));
        s.push_str(&format!("  \"levels\": [{}],\n", quoted(&names)));
        s.push_str(&format!(
            "  \"schedulers\": [{}],\n",
            quoted(&first.schedulers)
        ));
        let mut rows = Vec::new();
        for l in &self.levels {
            for a in &l.report.aggregates {
                rows.push(format!(
                    "    {{\"level\": \"{}\", \"scheduler\": \"{}\", \"mean_ratio\": {}, \"median_ratio\": {}, \"p95_ratio\": {}, \"worst_ratio\": {}, \"mean_makespan\": {}, \"mean_fault_events\": {}}}",
                    l.level,
                    a.scheduler,
                    f6(a.mean_ratio),
                    f6(a.median_ratio),
                    f6(a.p95_ratio),
                    f6(a.worst_ratio),
                    f6(a.mean_makespan),
                    f6(l.mean_fault_events()),
                ));
            }
        }
        s.push_str(&format!(
            "  \"aggregates\": [\n{}\n  ],\n",
            rows.join(",\n")
        ));
        let ns = first.schedulers.len();
        let mut rows = Vec::with_capacity(n_runs);
        for sc in 0..first.n_scenarios {
            for l in &self.levels {
                for r in &l.report.runs[sc * ns..(sc + 1) * ns] {
                    rows.push(format!(
                        "    {{\"platform\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"level\": \"{}\", \"scheduler\": \"{}\", \"n_fault_events\": {}, \"max_stretch\": {}, \"makespan\": {}, \"utilization\": {}, \"opt_stretch\": {}, \"stretch_ratio\": {}, \"n_events\": {}}}",
                        r.platform,
                        r.workload,
                        r.seed,
                        l.level,
                        r.scheduler,
                        l.fault_events[sc],
                        f6(r.max_stretch),
                        f6(r.makespan),
                        f6(r.utilization),
                        f6(r.opt_stretch),
                        f6(r.stretch_ratio),
                        r.n_events,
                    ));
                }
            }
        }
        s.push_str(&format!("  \"runs\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
        s
    }

    /// Human-readable markdown: the degradation table (stretch ratio vs
    /// fault intensity, one row per scheduler) plus per-level detail.
    pub fn to_markdown(&self) -> String {
        let first = &self.levels[0].report;
        let mut s = format!("# Chaos campaign `{}`\n\n", first.name);
        s.push_str(&format!(
            "{} scenarios × {} fault levels × {} schedulers = {} runs. \
             Every run is scored against the **fault-free** exact Theorem-2 \
             optimum of its scenario (stretch ratio = online max-stretch ÷ \
             offline optimal max-stretch), so columns to the right show pure \
             fault-induced degradation.\n\n",
            first.n_scenarios,
            self.levels.len(),
            first.schedulers.len(),
            self.levels.len() * first.runs.len()
        ));

        s.push_str("## Mean stretch-ratio degradation\n\n");
        s.push_str("| scheduler |");
        for l in &self.levels {
            s.push_str(&format!(" {} |", l.level));
        }
        s.push_str("\n|---|");
        for _ in &self.levels {
            s.push_str("---:|");
        }
        s.push('\n');
        for (si, sched) in first.schedulers.iter().enumerate() {
            s.push_str(&format!("| {sched} |"));
            for l in &self.levels {
                s.push_str(&format!(" {} |", f6(l.report.aggregates[si].mean_ratio)));
            }
            s.push('\n');
        }

        s.push_str("\n## Per-level detail (median / p95 / worst ratio)\n\n");
        s.push_str(
            "| level | scheduler | median | p95 | worst | mean makespan | mean fault events |\n",
        );
        s.push_str("|---|---|---:|---:|---:|---:|---:|\n");
        for l in &self.levels {
            for a in &l.report.aggregates {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    l.level,
                    a.scheduler,
                    f6(a.median_ratio),
                    f6(a.p95_ratio),
                    f6(a.worst_ratio),
                    f6(a.mean_makespan),
                    f6(l.mean_fault_events()),
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::{
        parse_campaign, run_campaign, run_fault_sweep, run_fault_sweep_serial, CampaignConfig,
    };

    fn tiny() -> CampaignConfig {
        parse_campaign(
            "name tiny-chaos\nseeds 2\nsigbits 10\n\
             platform p servers=3 banks=3 heterogeneity=2\n\
             workload w jobs=4 load=1.2\n\
             scheduler swrpt\nscheduler mct\n\
             faults none light moderate heavy\n",
        )
        .unwrap()
    }

    #[test]
    fn parallel_and_serial_chaos_reports_are_byte_identical() {
        let cfg = tiny();
        let par = run_fault_sweep(&cfg).unwrap();
        let ser = run_fault_sweep_serial(&cfg).unwrap();
        assert_eq!(par.to_json(), ser.to_json());
        assert_eq!(par.to_markdown(), ser.to_markdown());
    }

    #[test]
    fn ratios_never_beat_the_fault_free_optimum() {
        let report = run_fault_sweep(&tiny()).unwrap();
        assert_eq!(report.levels.len(), 4);
        for l in &report.levels {
            assert_eq!(l.report.runs.len(), 2 * 2); // scenarios × schedulers
            for r in &l.report.runs {
                assert!(
                    r.stretch_ratio > 0.99,
                    "{} at {}: ratio {}",
                    r.scheduler,
                    l.level,
                    r.stretch_ratio
                );
                assert!(r.makespan.is_finite());
            }
        }
        // The `none` level injects nothing; heavier levels do.
        assert_eq!(report.levels[0].level, "none");
        assert_eq!(report.levels[0].fault_events, [0, 0]);
        let heavy = &report.levels[3];
        assert_eq!(heavy.level, "heavy");
        assert!(
            heavy.fault_events.iter().any(|&n| n > 0),
            "heavy level should inject events"
        );
    }

    #[test]
    fn none_level_matches_the_fault_free_tournament_engine() {
        // The sweep's baseline level is the fault-free tournament of the
        // same config, bit for bit: both run the same scenario runner.
        let cfg = tiny();
        let sweep = run_fault_sweep(&cfg).unwrap();
        let mut plain_cfg = cfg.clone();
        plain_cfg.faults.clear();
        let plain = run_campaign(&plain_cfg).unwrap();
        let none = &sweep.levels[0].report;
        assert_eq!(none.to_json(), plain.to_json());
        for (c, p) in none.runs.iter().zip(&plain.runs) {
            assert_eq!(c.max_stretch.to_bits(), p.max_stretch.to_bits());
            assert_eq!(c.opt_stretch.to_bits(), p.opt_stretch.to_bits());
            assert_eq!(c.n_events, p.n_events);
        }
        // The tournament entry points refuse a `faults` line instead of
        // dropping its levels.
        let err = run_campaign(&cfg).unwrap_err();
        assert!(err.contains("faults"), "{err}");
    }
}
