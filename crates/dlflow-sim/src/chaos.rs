//! Chaos campaign: the fault-injection counterpart of [`crate::campaign`].
//!
//! Sweeps **failure intensity × scheduler** over the same seeded
//! (platform × workload) scenarios the tournament engine uses, and
//! reports exact stretch-ratio *degradation curves*: every run is scored
//! against the **fault-free** exact Theorem-2 optimum of its scenario,
//! so a ratio of 1.0 means "as good as an offline clairvoyant scheduler
//! on a platform that never fails" and the growth of the ratio across
//! intensity levels is precisely the price of the injected faults.
//!
//! Fault schedules come from the seeded [`FaultProcess`] generator:
//! per-machine exponential on/off (MTBF/MTTR), scaled *per scenario* to
//! its serial horizon `H = max release + Σ fastest cost` so "one
//! expected failure per machine" means the same thing on a 2-second and
//! a 200-second scenario. Level `none` (no events) rides along as the
//! baseline — its rows double as a regression check that the
//! platform-aware engine reproduces fault-free behavior.
//!
//! The paper's restricted-availability discussion (§3) models machines
//! that can serve only a subset of requests; failure/recovery is the
//! time-varying version of the same phenomenon, which is why degradation
//! is measured on the paper's own max-stretch objective.

use crate::campaign::{f6, scenario_seed, splitmix64, CampaignConfig, RunRecord};
use crate::engine::{simulate_with_events, PlatformEvent, RunMetrics};
use crate::workload::FaultProcess;
use dlflow_core::instance::Instance;
use dlflow_core::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
use dlflow_gripps::CostModel;
use rayon::prelude::*;

/// One failure-intensity level of the sweep, expressed relative to each
/// scenario's serial horizon `H` (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultLevel {
    /// Level name (stamped into reports; `none`-like levels use 0.0).
    pub name: String,
    /// Expected failures per machine over the horizon (`H / MTBF`).
    /// `0.0` injects no events at all.
    pub failures: f64,
    /// Mean repair time as a fraction of the horizon (`MTTR / H`).
    pub repair_frac: f64,
}

/// A chaos-campaign description: the tournament cross-product plus the
/// intensity levels to sweep and a seed for the fault schedules.
#[derive(Clone, Debug)]
pub struct FaultCampaignConfig {
    /// The (platform × workload × seed × scheduler) base, reused from
    /// the tournament engine.
    pub base: CampaignConfig,
    /// Intensity levels, reported in this order.
    pub levels: Vec<FaultLevel>,
    /// Base seed of the fault schedules (independent of scenario seeds,
    /// so the same scenario sees *nested* fault schedules as intensity
    /// grows only in expectation, not by construction).
    pub fault_seed: u64,
}

impl FaultCampaignConfig {
    /// The built-in quick chaos sweep: the tournament's quick scenarios
    /// (fewer seeds) × 4 intensity levels.
    pub fn quick() -> FaultCampaignConfig {
        let mut base = CampaignConfig::quick();
        base.name = "quick-chaos".into();
        base.n_seeds = 12;
        FaultCampaignConfig {
            base,
            levels: default_levels(),
            fault_seed: 0xC0FFEE,
        }
    }
}

/// The standard intensity ladder: none → light → moderate → heavy.
pub fn default_levels() -> Vec<FaultLevel> {
    vec![
        FaultLevel {
            name: "none".into(),
            failures: 0.0,
            repair_frac: 0.0,
        },
        FaultLevel {
            name: "light".into(),
            failures: 1.0,
            repair_frac: 0.05,
        },
        FaultLevel {
            name: "moderate".into(),
            failures: 2.5,
            repair_frac: 0.10,
        },
        FaultLevel {
            name: "heavy".into(),
            failures: 5.0,
            repair_frac: 0.20,
        },
    ]
}

/// One (scenario × level × scheduler) run of the sweep.
#[derive(Clone, Debug)]
pub struct FaultRunRecord {
    /// The base tournament record (fault-free `opt_stretch` yardstick,
    /// online metrics *under faults*).
    pub run: RunRecord,
    /// Intensity level name.
    pub level: String,
    /// Platform events injected into this run.
    pub n_fault_events: usize,
}

/// Aggregate of one (level × scheduler) cell across scenarios.
#[derive(Clone, Debug)]
pub struct FaultAggregate {
    /// Intensity level name.
    pub level: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Mean stretch ratio across scenarios.
    pub mean_ratio: f64,
    /// Median stretch ratio.
    pub median_ratio: f64,
    /// 95th-percentile (nearest-rank) stretch ratio.
    pub p95_ratio: f64,
    /// Worst stretch ratio.
    pub worst_ratio: f64,
    /// Mean makespan (seconds).
    pub mean_makespan: f64,
    /// Mean injected events per run.
    pub mean_fault_events: f64,
}

/// Results of a chaos campaign.
#[derive(Clone, Debug)]
pub struct FaultCampaignReport {
    /// Campaign name.
    pub name: String,
    /// Level names, sweep order.
    pub levels: Vec<String>,
    /// Scheduler labels, config order.
    pub schedulers: Vec<String>,
    /// Scenarios per level (platforms × workloads × seeds).
    pub n_scenarios: usize,
    /// Every run, scenario-major, then level, then scheduler.
    pub runs: Vec<FaultRunRecord>,
    /// One aggregate per (level × scheduler), level-major.
    pub aggregates: Vec<FaultAggregate>,
}

/// Serial horizon of an instance: latest release plus everything run
/// back-to-back on its fastest machine — the time scale MTBF/MTTR are
/// expressed against.
fn serial_horizon(inst: &Instance<f64>) -> f64 {
    let max_release = (0..inst.n_jobs())
        .map(|j| inst.job(j).release)
        .fold(0.0f64, f64::max);
    let serial: f64 = (0..inst.n_jobs()).map(|j| inst.fastest_cost(j)).sum();
    max_release + serial.max(1e-9)
}

/// Runs every (level × scheduler) combination of one scenario.
fn run_scenario_chaos(
    cfg: &FaultCampaignConfig,
    pi: usize,
    wi: usize,
    k: u64,
) -> Result<Vec<FaultRunRecord>, String> {
    let base = &cfg.base;
    let seed = scenario_seed(base.seed_base, pi, wi, k);
    let model = CostModel::paper_scale();
    let platform = base.platforms[pi].realize(splitmix64(seed ^ 0xA5A5_A5A5));
    let requests = base.workloads[wi].realize(&platform, &model, splitmix64(seed ^ 0x5A5A_5A5A));
    let inst = platform
        .instance_dyadic(&requests, &model, base.sig_bits)
        .map_err(|e| format!("scenario ({pi},{wi},{k}): {e}"))?;

    // Fault-free exact yardstick, shared by every level of the sweep.
    let exact = inst.to_exact_dyadic().with_stretch_weights();
    let opt_stretch = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform)
        .optimum
        .to_f64();
    let sim_inst: Instance<f64> = if base.stretch_weights {
        inst.with_stretch_weights()
    } else {
        inst
    };
    let horizon = serial_horizon(&sim_inst);

    let mut records = Vec::with_capacity(cfg.levels.len() * base.schedulers.len());
    for (li, level) in cfg.levels.iter().enumerate() {
        let events: Vec<PlatformEvent> = if level.failures > 0.0 {
            FaultProcess {
                mtbf: horizon / level.failures,
                mttr: (horizon * level.repair_frac).max(1e-9),
                horizon,
                seed: splitmix64(cfg.fault_seed ^ seed.wrapping_add(li as u64)),
            }
            .sample(sim_inst.n_machines())
        } else {
            Vec::new()
        };
        for spec in &base.schedulers {
            let mut policy = spec.build();
            let res = simulate_with_events(&sim_inst, policy.as_mut(), &events).map_err(|e| {
                format!(
                    "scenario ({pi},{wi},{k}) / {} / {}: {e}",
                    level.name,
                    spec.label()
                )
            })?;
            let m = RunMetrics::from_completions(&sim_inst, &res.completions);
            records.push(FaultRunRecord {
                run: RunRecord {
                    platform: base.platforms[pi].name.clone(),
                    workload: base.workloads[wi].name.clone(),
                    seed: k,
                    scheduler: spec.label(),
                    max_stretch: m.max_stretch,
                    sum_stretch: m.sum_stretch,
                    makespan: m.makespan,
                    utilization: res.utilization(&sim_inst),
                    max_weighted_flow: m.max_weighted_flow,
                    opt_stretch,
                    stretch_ratio: m.max_stretch / opt_stretch,
                    n_events: res.n_events,
                    n_plans: res.n_plans,
                },
                level: level.name.clone(),
                n_fault_events: events.len(),
            });
        }
    }
    Ok(records)
}

fn aggregate(cfg: &FaultCampaignConfig, runs: &[FaultRunRecord]) -> FaultCampaignReport {
    let base = &cfg.base;
    let labels: Vec<String> = base.schedulers.iter().map(|s| s.label()).collect();
    let nl = cfg.levels.len();
    let ns = labels.len();
    let n_scenarios = runs.len() / (nl * ns).max(1);

    // runs is scenario-major: runs[(sc * nl + li) * ns + si].
    let rec = |sc: usize, li: usize, si: usize| &runs[(sc * nl + li) * ns + si];

    let mut aggregates = Vec::with_capacity(nl * ns);
    for (li, level) in cfg.levels.iter().enumerate() {
        for (si, label) in labels.iter().enumerate() {
            let mut ratios: Vec<f64> = (0..n_scenarios)
                .map(|sc| rec(sc, li, si).run.stretch_ratio)
                .collect();
            ratios.sort_by(|a, b| a.total_cmp(b));
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let median = ratios[ratios.len() / 2];
            let p95 = ratios[((ratios.len() as f64 * 0.95).ceil() as usize).max(1) - 1];
            let worst = *ratios.last().unwrap();
            let mean_makespan = (0..n_scenarios)
                .map(|sc| rec(sc, li, si).run.makespan)
                .sum::<f64>()
                / n_scenarios as f64;
            let mean_fault_events = (0..n_scenarios)
                .map(|sc| rec(sc, li, si).n_fault_events as f64)
                .sum::<f64>()
                / n_scenarios as f64;
            aggregates.push(FaultAggregate {
                level: level.name.clone(),
                scheduler: label.clone(),
                mean_ratio: mean,
                median_ratio: median,
                p95_ratio: p95,
                worst_ratio: worst,
                mean_makespan,
                mean_fault_events,
            });
        }
    }

    FaultCampaignReport {
        name: base.name.clone(),
        levels: cfg.levels.iter().map(|l| l.name.clone()).collect(),
        schedulers: labels,
        n_scenarios,
        runs: runs.to_vec(),
        aggregates,
    }
}

fn run_impl(cfg: &FaultCampaignConfig, parallel: bool) -> Result<FaultCampaignReport, String> {
    if cfg.levels.is_empty() {
        return Err("chaos campaign needs at least one fault level".into());
    }
    let base = &cfg.base;
    if base.platforms.is_empty() || base.workloads.is_empty() || base.schedulers.is_empty() {
        return Err("chaos campaign needs platforms, workloads, and schedulers".into());
    }
    let mut scenarios: Vec<(usize, usize, u64)> = Vec::new();
    for pi in 0..base.platforms.len() {
        for wi in 0..base.workloads.len() {
            for k in 0..base.n_seeds {
                scenarios.push((pi, wi, k));
            }
        }
    }
    let results: Vec<Result<Vec<FaultRunRecord>, String>> = if parallel {
        scenarios
            .par_iter()
            .map(|&(pi, wi, k)| run_scenario_chaos(cfg, pi, wi, k))
            .collect()
    } else {
        scenarios
            .iter()
            .map(|&(pi, wi, k)| run_scenario_chaos(cfg, pi, wi, k))
            .collect()
    };
    let mut runs = Vec::new();
    for r in results {
        runs.extend(r?);
    }
    Ok(aggregate(cfg, &runs))
}

/// Runs the chaos campaign, scenarios in parallel. The report is
/// bit-identical to [`run_fault_campaign_serial`]'s.
pub fn run_fault_campaign(cfg: &FaultCampaignConfig) -> Result<FaultCampaignReport, String> {
    run_impl(cfg, true)
}

/// Single-threaded reference runner (determinism oracle).
pub fn run_fault_campaign_serial(cfg: &FaultCampaignConfig) -> Result<FaultCampaignReport, String> {
    run_impl(cfg, false)
}

impl FaultCampaignReport {
    /// Deterministic machine-readable JSON (hand-rendered, like the
    /// tournament report's).
    pub fn to_json(&self) -> String {
        let quoted = |v: &[String]| -> String {
            v.iter()
                .map(|x| format!("\"{x}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": \"{}\",\n", self.name));
        s.push_str(&format!("  \"n_scenarios\": {},\n", self.n_scenarios));
        s.push_str(&format!("  \"n_runs\": {},\n", self.runs.len()));
        s.push_str(&format!("  \"levels\": [{}],\n", quoted(&self.levels)));
        s.push_str(&format!(
            "  \"schedulers\": [{}],\n",
            quoted(&self.schedulers)
        ));
        s.push_str("  \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            let comma = if i + 1 == self.aggregates.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!(
                "    {{\"level\": \"{}\", \"scheduler\": \"{}\", \"mean_ratio\": {}, \"median_ratio\": {}, \"p95_ratio\": {}, \"worst_ratio\": {}, \"mean_makespan\": {}, \"mean_fault_events\": {}}}{comma}\n",
                a.level,
                a.scheduler,
                f6(a.mean_ratio),
                f6(a.median_ratio),
                f6(a.p95_ratio),
                f6(a.worst_ratio),
                f6(a.mean_makespan),
                f6(a.mean_fault_events),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"platform\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"level\": \"{}\", \"scheduler\": \"{}\", \"n_fault_events\": {}, \"max_stretch\": {}, \"makespan\": {}, \"utilization\": {}, \"opt_stretch\": {}, \"stretch_ratio\": {}, \"n_events\": {}}}{comma}\n",
                r.run.platform,
                r.run.workload,
                r.run.seed,
                r.level,
                r.run.scheduler,
                r.n_fault_events,
                f6(r.run.max_stretch),
                f6(r.run.makespan),
                f6(r.run.utilization),
                f6(r.run.opt_stretch),
                f6(r.run.stretch_ratio),
                r.run.n_events,
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable markdown: the degradation table (stretch ratio vs
    /// fault intensity, one row per scheduler) plus per-level detail.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("# Chaos campaign `{}`\n\n", self.name);
        s.push_str(&format!(
            "{} scenarios × {} fault levels × {} schedulers = {} runs. \
             Every run is scored against the **fault-free** exact Theorem-2 \
             optimum of its scenario (stretch ratio = online max-stretch ÷ \
             offline optimal max-stretch), so columns to the right show pure \
             fault-induced degradation.\n\n",
            self.n_scenarios,
            self.levels.len(),
            self.schedulers.len(),
            self.runs.len()
        ));

        s.push_str("## Mean stretch-ratio degradation\n\n");
        s.push_str("| scheduler |");
        for l in &self.levels {
            s.push_str(&format!(" {l} |"));
        }
        s.push_str("\n|---|");
        for _ in &self.levels {
            s.push_str("---:|");
        }
        s.push('\n');
        for sched in &self.schedulers {
            s.push_str(&format!("| {sched} |"));
            for level in &self.levels {
                let a = self
                    .aggregates
                    .iter()
                    .find(|a| &a.level == level && &a.scheduler == sched)
                    .expect("aggregate exists for every (level, scheduler)");
                s.push_str(&format!(" {} |", f6(a.mean_ratio)));
            }
            s.push('\n');
        }

        s.push_str("\n## Per-level detail (median / p95 / worst ratio)\n\n");
        s.push_str(
            "| level | scheduler | median | p95 | worst | mean makespan | mean fault events |\n",
        );
        s.push_str("|---|---|---:|---:|---:|---:|---:|\n");
        for a in &self.aggregates {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                a.level,
                a.scheduler,
                f6(a.median_ratio),
                f6(a.p95_ratio),
                f6(a.worst_ratio),
                f6(a.mean_makespan),
                f6(a.mean_fault_events),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::parse_campaign;

    fn tiny() -> FaultCampaignConfig {
        let base = parse_campaign(
            "name tiny-chaos\nseeds 2\nsigbits 10\n\
             platform p servers=3 banks=3 heterogeneity=2\n\
             workload w jobs=4 load=1.2\n\
             scheduler swrpt\nscheduler mct\n",
        )
        .unwrap();
        FaultCampaignConfig {
            base,
            levels: default_levels(),
            fault_seed: 9,
        }
    }

    #[test]
    fn parallel_and_serial_chaos_reports_are_byte_identical() {
        let cfg = tiny();
        let par = run_fault_campaign(&cfg).unwrap();
        let ser = run_fault_campaign_serial(&cfg).unwrap();
        assert_eq!(par.to_json(), ser.to_json());
        assert_eq!(par.to_markdown(), ser.to_markdown());
    }

    #[test]
    fn ratios_never_beat_the_fault_free_optimum() {
        let report = run_fault_campaign(&tiny()).unwrap();
        assert_eq!(report.runs.len(), 2 * 4 * 2); // scenarios × levels × schedulers
        for r in &report.runs {
            assert!(
                r.run.stretch_ratio > 0.99,
                "{} at {}: ratio {}",
                r.run.scheduler,
                r.level,
                r.run.stretch_ratio
            );
            assert!(r.run.makespan.is_finite());
        }
        // The `none` level injects nothing; heavier levels do.
        for r in &report.runs {
            if r.level == "none" {
                assert_eq!(r.n_fault_events, 0);
            }
        }
        assert!(
            report
                .runs
                .iter()
                .any(|r| r.level == "heavy" && r.n_fault_events > 0),
            "heavy level should inject events"
        );
    }

    #[test]
    fn none_level_matches_the_fault_free_tournament_engine() {
        // The chaos sweep's baseline level reproduces plain `simulate`
        // bit for bit — the platform-aware engine is a strict superset.
        use crate::campaign::{run_campaign, CampaignConfig};
        let cfg = tiny();
        let chaos = run_fault_campaign(&cfg).unwrap();
        let base: CampaignConfig = cfg.base.clone();
        let plain = run_campaign(&base).unwrap();
        let chaos_none: Vec<&FaultRunRecord> =
            chaos.runs.iter().filter(|r| r.level == "none").collect();
        assert_eq!(chaos_none.len(), plain.runs.len());
        for (c, p) in chaos_none.iter().zip(&plain.runs) {
            assert_eq!(c.run.scheduler, p.scheduler);
            assert_eq!(c.run.max_stretch.to_bits(), p.max_stretch.to_bits());
            assert_eq!(c.run.opt_stretch.to_bits(), p.opt_stretch.to_bits());
            assert_eq!(c.run.n_events, p.n_events);
        }
    }
}
