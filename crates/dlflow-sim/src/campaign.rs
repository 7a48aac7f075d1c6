//! Scheduler-tournament campaign engine — the paper's §6 evaluation,
//! batched.
//!
//! A *campaign* runs the full cross-product of
//!
//! ```text
//! platform family × workload family × seed × scheduler
//! ```
//!
//! through the incremental event engine (each run is a
//! [`simulate_with_events`] drain of an [`Engine`](crate::engine::Engine)), in
//! parallel over scenarios (vendored-rayon workers), and aggregates
//! per-run metrics into the statistics a
//! methodology comparison needs: mean/median/p95/worst of the
//! degradation ratio against the **exact** offline bound, head-to-head
//! win matrices, and raw max-stretch / sum-stretch / makespan /
//! utilization columns.
//!
//! The yardstick is Theorem 2 itself: every scenario instance is
//! rounded to a few significand bits ([`Instance::quantize_sig_bits`])
//! so the very same instance can be simulated in `f64` *and* solved
//! exactly in [`Rat`](dlflow_num::Rat) arithmetic
//! ([`Instance::to_exact_dyadic`]) without bignum blow-up; the reported
//! `stretch_ratio` is online-max-stretch ÷ exact-optimal max-stretch,
//! per run.
//!
//! Campaigns are described by a small line-based text config (documented
//! in `docs/FORMATS.md`, next to `.dlf`):
//!
//! ```text
//! name quick
//! seeds 20                 # seeds per (platform × workload) cell
//! platform small servers=3 banks=4 heterogeneity=3
//! workload steady jobs=8 load=1.2
//! scheduler mct
//! scheduler edf target=3
//! scheduler ola
//! faults none heavy        # optional: a fault-intensity sweep
//! ```
//!
//! A `faults` line makes the campaign a *fault sweep*: every scheduler
//! also runs under each listed level's seeded failure/recovery schedule
//! (levels `none light moderate heavy`), still scored against the scenario's
//! **fault-free** exact optimum, so a level's ratios price its faults
//! ([`run_fault_sweep`]). The failure/recovery model is §3's restricted
//! availability made time-varying: a machine that is down serves no
//! request. Both come from one scenario runner, and one report layout:
//! a config without `faults` is the single fault-free level, and
//! [`render_campaign`] prints a sweep as each level's tournament report.
//!
//! ## Example
//!
//! ```
//! use dlflow_sim::campaign::{parse_campaign, run_campaign};
//!
//! let cfg = parse_campaign("
//!     name demo
//!     seeds 2
//!     platform tiny servers=2 banks=2 heterogeneity=2
//!     workload light jobs=3 load=0.8
//!     scheduler mct
//!     scheduler srpt
//! ").unwrap();
//! let report = run_campaign(&cfg).unwrap();
//! assert_eq!(report.runs.len(), 2 * 2); // 2 seeds × 2 schedulers
//! // Online policies can never beat the exact offline optimum.
//! assert!(report.runs.iter().all(|r| r.stretch_ratio > 0.99));
//! ```

use crate::engine::{simulate_with_events, OnlineScheduler, RunMetrics};
use crate::schedulers::{
    Edf, FifoFastest, Mct, OfflineAdapt, RoundRobin, Srpt, Swrpt, WeightedAge,
};
use crate::workload::FaultProcess;
use dlflow_core::instance::Instance;
use dlflow_core::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
use dlflow_gripps::{CostModel, PlatformFamily, RequestFamily};
use rayon::prelude::*;

/// One scheduler entry of a campaign, with its tunable knobs.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedulerSpec {
    /// Minimum Completion Time (non-preemptive, irrevocable).
    Mct,
    /// First-in-first-out on fastest free machines.
    Fifo,
    /// Shortest Remaining Processing Time.
    Srpt,
    /// Shortest *Weighted* Remaining Processing Time.
    Swrpt,
    /// Fluid processor sharing.
    RoundRobin,
    /// Largest weighted age first.
    WeightedAge,
    /// Earliest Deadline First on guessed deadlines
    /// (`d̂_j = r_j + target·p̄_j/w_j`).
    Edf {
        /// Deadline-guess multiplier (see [`Edf`]).
        target: f64,
    },
    /// The paper's online adaptation of the offline algorithm.
    Ola,
}

impl SchedulerSpec {
    /// Stable display label, used as the scheduler column of reports.
    /// Single-sourced from the policy's own
    /// [`OnlineScheduler::name`], so campaign reports and the other
    /// experiment binaries always agree on scheduler names.
    pub fn label(&self) -> String {
        self.build().name()
    }

    /// Instantiates the policy. The box is `Send` so a sharded drain
    /// can hand each shard's policy to a worker thread.
    pub fn build(&self) -> Box<dyn OnlineScheduler + Send> {
        match self {
            SchedulerSpec::Mct => Box::new(Mct::new()),
            SchedulerSpec::Fifo => Box::new(FifoFastest::new()),
            SchedulerSpec::Srpt => Box::new(Srpt::new()),
            SchedulerSpec::Swrpt => Box::new(Swrpt::new()),
            SchedulerSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerSpec::WeightedAge => Box::new(WeightedAge::new()),
            SchedulerSpec::Edf { target } => Box::new(Edf::with_target(*target)),
            SchedulerSpec::Ola => Box::new(OfflineAdapt::new()),
        }
    }

    /// Parses the compact one-token form used by `dlflow simulate
    /// --scheduler`: `kind[:key=val[,key=val…]]`, e.g. `swrpt` or
    /// `edf:target=3` — the same kinds and options as the
    /// campaign config's `scheduler` lines.
    pub fn parse_compact(spec: &str) -> Result<SchedulerSpec, String> {
        let (kind, opts) = match spec.split_once(':') {
            Some((k, o)) => (k, o),
            None => (spec, ""),
        };
        let mut args = Vec::new();
        for tok in opts.split(',').filter(|t| !t.is_empty()) {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("scheduler option {tok:?}: expected key=value"))?;
            let v: f64 = v
                .parse()
                .map_err(|_| format!("scheduler option {tok:?}: bad number"))?;
            if !v.is_finite() {
                return Err(format!("scheduler option {tok:?}: number must be finite"));
            }
            args.push((k.to_string(), v));
        }
        SchedulerSpec::parse(kind, &args)
    }

    /// Parses `kind key=val…` tokens from a `scheduler` config line. A
    /// key given twice is an error.
    pub fn parse(kind: &str, args: &[(String, f64)]) -> Result<SchedulerSpec, String> {
        check_unique(args).map_err(|e| format!("scheduler {kind}: {e}"))?;
        let only = |allowed: &[&str]| -> Result<(), String> {
            for (k, _) in args {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!("scheduler {kind}: unknown option {k:?}"));
                }
            }
            Ok(())
        };
        let get = |key: &str, default: f64| -> f64 {
            args.iter()
                .find(|(k, _)| k == key)
                .map_or(default, |(_, v)| *v)
        };
        match kind {
            "mct" => only(&[]).map(|_| SchedulerSpec::Mct),
            "fifo" => only(&[]).map(|_| SchedulerSpec::Fifo),
            "srpt" => only(&[]).map(|_| SchedulerSpec::Srpt),
            "swrpt" => only(&[]).map(|_| SchedulerSpec::Swrpt),
            "rr" => only(&[]).map(|_| SchedulerSpec::RoundRobin),
            "wage" => only(&[]).map(|_| SchedulerSpec::WeightedAge),
            "edf" => {
                only(&["target"])?;
                let target = get("target", 2.0);
                if target <= 0.0 {
                    return Err(format!(
                        "scheduler edf: target must be positive, got {target}"
                    ));
                }
                Ok(SchedulerSpec::Edf { target })
            }
            "ola" => only(&[]).map(|_| SchedulerSpec::Ola),
            other => Err(format!(
                "unknown scheduler {other:?} (expected mct|fifo|srpt|swrpt|rr|wage|edf|ola)"
            )),
        }
    }
}

/// A parsed campaign description: the cross-product to run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign name (stamped into reports).
    pub name: String,
    /// Platform families (rows of the cross-product).
    pub platforms: Vec<PlatformFamily>,
    /// Workload families.
    pub workloads: Vec<RequestFamily>,
    /// Tournament entrants.
    pub schedulers: Vec<SchedulerSpec>,
    /// Seeds per (platform × workload) cell.
    pub n_seeds: u64,
    /// Base seed all scenario seeds derive from.
    pub seed_base: u64,
    /// Significand bits kept by the dyadic quantization (see
    /// [`Instance::quantize_sig_bits`]).
    pub sig_bits: u32,
    /// Re-weight every instance with `w_j = 1/p̄_j` so max weighted flow
    /// *is* max stretch (the paper's §6 objective). When false, the
    /// GriPPS priority weights {1,2,5} are kept.
    pub stretch_weights: bool,
    /// The `faults` line's levels in report order, as positions on the
    /// ladder `none light moderate heavy` (0–3); empty without a
    /// `faults` line (the fault-free tournament).
    pub faults: Vec<usize>,
}

/// The fault-intensity levels a `faults` line picks from, as `(name,
/// failures, repair)`: `failures` is the expected failures per machine
/// over the scenario's serial horizon `H` (latest release plus all work
/// back to back on the fastest machines), so `H / MTBF`, and `repair` is
/// `MTTR / H`. Scaling by `H` makes "one failure per machine" mean the
/// same on a 2-second and a 200-second scenario. A level's position
/// salts its fault seed, so its schedules do not depend on the other
/// levels listed.
pub(crate) const FAULT_LADDER: [(&str, f64, f64); 4] = [
    ("none", 0.0, 0.0),
    ("light", 1.0, 0.05),
    ("moderate", 2.5, 0.10),
    ("heavy", 5.0, 0.20),
];

/// Base seed of every fault schedule, independent of the scenario seeds.
const FAULT_SEED: u64 = 0xC0FFEE;

/// The built-in quick-mode tournament: 1 platform × 1 workload ×
/// 20 seeds × 6 schedulers. `cargo run --release -p dlflow-bench --bin
/// campaign` runs it as-is.
pub const QUICK_CONFIG: &str = "\
# dlflow campaign config — see docs/FORMATS.md
name quick
seeds 20
seed-base 1
sigbits 12
weights stretch
platform cluster servers=4 banks=5 heterogeneity=3
workload steady jobs=8 load=1.2
scheduler mct
scheduler fifo
scheduler srpt
scheduler swrpt
scheduler edf
scheduler ola
";

/// The bigger sweep behind the `campaign` bin's `--full`: two platform
/// families × two workload families × 20 seeds × 8 schedulers.
pub const FULL_CONFIG: &str = "\
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

impl CampaignConfig {
    /// Parses [`QUICK_CONFIG`].
    pub fn quick() -> CampaignConfig {
        parse_campaign(QUICK_CONFIG).expect("built-in quick config parses")
    }
}

/// Names end up in JSON strings and markdown table cells, so restrict
/// them to a charset that needs no escaping in either.
fn check_name(name: &str, line: usize) -> Result<String, String> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if ok {
        Ok(name.to_string())
    } else {
        Err(format!(
            "line {line}: name {name:?} may only contain letters, digits, '_', '.', '-'"
        ))
    }
}

/// Rejects a key given twice among one line's `key=value` options.
fn check_unique(kv: &[(String, f64)]) -> Result<(), String> {
    for (i, (k, _)) in kv.iter().enumerate() {
        if kv[..i].iter().any(|(seen, _)| seen == k) {
            return Err(format!("option {k:?} given twice"));
        }
    }
    Ok(())
}

/// A `platform` or `workload` line's `key=value` options, each key once.
fn parse_options(args: &[&str], line: usize) -> Result<Vec<(String, f64)>, String> {
    let kv = args
        .iter()
        .map(|t| parse_kv_f64(t, line))
        .collect::<Result<Vec<_>, _>>()?;
    check_unique(&kv).map_err(|e| format!("line {line}: {e}"))?;
    Ok(kv)
}

fn parse_kv_f64(tok: &str, line: usize) -> Result<(String, f64), String> {
    let (k, v) = tok
        .split_once('=')
        .ok_or_else(|| format!("line {line}: expected key=value, got {tok:?}"))?;
    let v: f64 = v
        .parse()
        .map_err(|_| format!("line {line}: bad number in {tok:?}"))?;
    // Rust's f64 parser accepts "nan"/"inf", which would sail through
    // every range check below (all written as negative comparisons).
    if !v.is_finite() {
        return Err(format!("line {line}: number in {tok:?} must be finite"));
    }
    Ok((k.to_string(), v))
}

/// Upper bound for count-valued config options — generous for any real
/// tournament, small enough that `Vec` allocations cannot explode.
const MAX_COUNT: f64 = 10_000.0;

/// Validates a count-valued option: a whole number in `1..=MAX_COUNT`
/// (an f64 `as usize` cast would otherwise saturate huge values and
/// silently truncate fractional ones).
fn as_count(v: f64, what: &str, line: usize) -> Result<usize, String> {
    // dlflint:allow(float-eq, "fract() == 0.0 is an exact integrality test")
    if !(1.0..=MAX_COUNT).contains(&v) || v.fract() != 0.0 {
        return Err(format!(
            "line {line}: {what} must be a whole number in 1..={MAX_COUNT}, got {v}"
        ));
    }
    Ok(v as usize)
}

/// Parses a campaign config document (format in `docs/FORMATS.md`).
pub fn parse_campaign(text: &str) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig {
        name: "campaign".into(),
        platforms: Vec::new(),
        workloads: Vec::new(),
        schedulers: Vec::new(),
        n_seeds: 10,
        seed_base: 1,
        sig_bits: 12,
        stretch_weights: true,
        faults: Vec::new(),
    };
    // The directives that set one value, each allowed once.
    let mut seen: Vec<&str> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let directive = toks.next().expect("non-empty line");
        let rest: Vec<&str> = toks.collect();
        if ["name", "seeds", "seed-base", "sigbits", "weights", "faults"].contains(&directive) {
            if seen.contains(&directive) {
                return Err(format!("line {lineno}: duplicate {directive} line"));
            }
            seen.push(directive);
        }
        let one = |what: &str| -> Result<&str, String> {
            match rest.as_slice() {
                [v] => Ok(v),
                _ => Err(format!("line {lineno}: {directive} expects one {what}")),
            }
        };
        match directive {
            "name" => cfg.name = check_name(one("word")?, lineno)?,
            "seeds" => {
                let v: f64 = one("count")?
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad seed count"))?;
                cfg.n_seeds = as_count(v, "seeds", lineno)? as u64;
            }
            "seed-base" => {
                cfg.seed_base = one("seed")?
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad seed-base"))?;
            }
            "sigbits" => {
                cfg.sig_bits = one("bit count")?
                    .parse()
                    .map_err(|_| format!("line {lineno}: bad sigbits"))?;
                if !(1..=52).contains(&cfg.sig_bits) {
                    return Err(format!("line {lineno}: sigbits must be in 1..=52"));
                }
            }
            "weights" => {
                cfg.stretch_weights = match one("mode")? {
                    "stretch" => true,
                    "priority" => false,
                    other => {
                        return Err(format!(
                            "line {lineno}: weights must be stretch|priority, got {other:?}"
                        ))
                    }
                };
            }
            "platform" => {
                let Some((name, args)) = rest.split_first() else {
                    return Err(format!("line {lineno}: platform needs a name"));
                };
                let kv = parse_options(args, lineno)?;
                let get = |key: &str, default: f64| {
                    kv.iter()
                        .find(|(k, _)| k == key)
                        .map_or(default, |(_, v)| *v)
                };
                for (k, _) in &kv {
                    if !["servers", "banks", "heterogeneity"].contains(&k.as_str()) {
                        return Err(format!("line {lineno}: platform: unknown option {k:?}"));
                    }
                }
                let n_servers = get("servers", 4.0);
                let n_databanks = get("banks", 5.0);
                let heterogeneity = get("heterogeneity", 3.0);
                if heterogeneity < 1.0 {
                    return Err(format!(
                        "line {lineno}: platform heterogeneity must be >= 1, got {heterogeneity}"
                    ));
                }
                cfg.platforms.push(PlatformFamily {
                    name: check_name(name, lineno)?,
                    n_servers: as_count(n_servers, "platform servers", lineno)?,
                    n_databanks: as_count(n_databanks, "platform banks", lineno)?,
                    heterogeneity,
                });
            }
            "workload" => {
                let Some((name, args)) = rest.split_first() else {
                    return Err(format!("line {lineno}: workload needs a name"));
                };
                let kv = parse_options(args, lineno)?;
                let get = |key: &str, default: f64| {
                    kv.iter()
                        .find(|(k, _)| k == key)
                        .map_or(default, |(_, v)| *v)
                };
                for (k, _) in &kv {
                    if !["jobs", "load"].contains(&k.as_str()) {
                        return Err(format!("line {lineno}: workload: unknown option {k:?}"));
                    }
                }
                let load = get("load", 1.0);
                if load <= 0.0 {
                    return Err(format!("line {lineno}: workload load must be positive"));
                }
                let jobs = get("jobs", 8.0);
                cfg.workloads.push(RequestFamily {
                    name: check_name(name, lineno)?,
                    n_requests: as_count(jobs, "workload jobs", lineno)?,
                    load,
                });
            }
            "scheduler" => {
                let Some((kind, args)) = rest.split_first() else {
                    return Err(format!("line {lineno}: scheduler needs a kind"));
                };
                let kv: Result<Vec<_>, _> = args.iter().map(|t| parse_kv_f64(t, lineno)).collect();
                let spec =
                    SchedulerSpec::parse(kind, &kv?).map_err(|e| format!("line {lineno}: {e}"))?;
                if cfg.schedulers.iter().any(|s| s.label() == spec.label()) {
                    return Err(format!(
                        "line {lineno}: duplicate scheduler {:?}",
                        spec.label()
                    ));
                }
                cfg.schedulers.push(spec);
            }
            "faults" => {
                if rest.is_empty() {
                    return Err(format!("line {lineno}: faults expects at least one level"));
                }
                for level in &rest {
                    let Some(rung) = FAULT_LADDER.iter().position(|l| l.0 == *level) else {
                        return Err(format!(
                            "line {lineno}: unknown fault level {level:?} \
                             (expected none|light|moderate|heavy)"
                        ));
                    };
                    if cfg.faults.contains(&rung) {
                        return Err(format!("line {lineno}: fault level {level:?} given twice"));
                    }
                    cfg.faults.push(rung);
                }
            }
            other => return Err(format!("line {lineno}: unknown directive {other:?}")),
        }
    }
    if cfg.platforms.is_empty() {
        return Err("config has no `platform` line".into());
    }
    if cfg.workloads.is_empty() {
        return Err("config has no `workload` line".into());
    }
    if cfg.schedulers.is_empty() {
        return Err("config has no `scheduler` line".into());
    }
    Ok(cfg)
}

/// One (scenario, scheduler) outcome.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Platform family name.
    pub platform: String,
    /// Workload family name.
    pub workload: String,
    /// Seed index within the cell (`0..n_seeds`).
    pub seed: u64,
    /// Scheduler label.
    pub scheduler: String,
    /// Online max stretch.
    pub max_stretch: f64,
    /// Online sum stretch.
    pub sum_stretch: f64,
    /// Online makespan.
    pub makespan: f64,
    /// Fleet utilization over `[first release, makespan]`.
    pub utilization: f64,
    /// Online max weighted flow (equals `max_stretch` under stretch
    /// weights).
    pub max_weighted_flow: f64,
    /// Exact optimal offline divisible max stretch (Theorem 2 on the
    /// dyadic-exact instance).
    pub opt_stretch: f64,
    /// Degradation ratio `max_stretch / opt_stretch` (≥ 1 up to
    /// simulation float noise).
    pub stretch_ratio: f64,
    /// Events processed by the engine.
    pub n_events: usize,
    /// `plan` invocations.
    pub n_plans: usize,
}

/// Per-scheduler aggregate statistics over all scenarios.
#[derive(Clone, Debug)]
pub struct SchedulerAggregate {
    /// Scheduler label.
    pub scheduler: String,
    /// Mean degradation ratio.
    pub mean_ratio: f64,
    /// Median degradation ratio.
    pub median_ratio: f64,
    /// 95th-percentile (nearest-rank) degradation ratio.
    pub p95_ratio: f64,
    /// Worst degradation ratio.
    pub worst_ratio: f64,
    /// Mean online max stretch.
    pub mean_max_stretch: f64,
    /// Mean online sum stretch.
    pub mean_sum_stretch: f64,
    /// Mean online makespan.
    pub mean_makespan: f64,
    /// Mean fleet utilization.
    pub mean_utilization: f64,
}

/// A finished campaign: every run, plus the aggregate statistics.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name from the config.
    pub name: String,
    /// Significand bits used by the exact yardstick's quantization.
    pub sig_bits: u32,
    /// `true` when instances were stretch-weighted.
    pub stretch_weights: bool,
    /// Seeds per cell.
    pub n_seeds: u64,
    /// Number of scenarios (platforms × workloads × seeds).
    pub n_scenarios: usize,
    /// Scheduler labels, in config order.
    pub schedulers: Vec<String>,
    /// Platform family names.
    pub platforms: Vec<String>,
    /// Workload family names.
    pub workloads: Vec<String>,
    /// Every (scenario × scheduler) outcome, scenario-major, scheduler
    /// in config order within a scenario.
    pub runs: Vec<RunRecord>,
    /// Aggregates, in scheduler config order.
    pub aggregates: Vec<SchedulerAggregate>,
    /// `win_matrix[a][b]` = number of scenarios where scheduler `a`'s
    /// max stretch strictly beats scheduler `b`'s.
    pub win_matrix: Vec<Vec<usize>>,
}

/// One fault level of a campaign.
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

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scenario_seed(base: u64, pi: usize, wi: usize, k: u64) -> u64 {
    splitmix64(
        splitmix64(splitmix64(base.wrapping_add(pi as u64)).wrapping_add(wi as u64))
            .wrapping_add(k),
    )
}

/// The instance of one scenario: dyadic and factorization-preserving, so
/// lossless in f64 *and* as exact rationals, and still uniform-with-
/// restricted-availabilities so the yardstick runs on max-flows alone.
pub(crate) fn scenario_instance(
    cfg: &CampaignConfig,
    pi: usize,
    wi: usize,
    k: u64,
) -> Result<Instance<f64>, String> {
    let seed = scenario_seed(cfg.seed_base, pi, wi, k);
    let model = CostModel::paper_scale();
    let platform = cfg.platforms[pi].realize(splitmix64(seed ^ 0xA5A5_A5A5));
    let requests = cfg.workloads[wi].realize(&platform, &model, splitmix64(seed ^ 0x5A5A_5A5A));
    platform
        .instance_dyadic(&requests, &model, cfg.sig_bits)
        .map_err(|e| format!("scenario ({pi},{wi},{k}): {e}"))
}

/// Serial horizon of an instance: latest release plus everything run
/// back-to-back on its fastest machine — the time scale of the
/// [`FAULT_LADDER`]'s MTBF and MTTR.
fn serial_horizon(inst: &Instance<f64>) -> f64 {
    let max_release = (0..inst.n_jobs())
        .map(|j| inst.job(j).release)
        .fold(0.0f64, f64::max);
    let serial: f64 = (0..inst.n_jobs()).map(|j| inst.fastest_cost(j)).sum();
    max_release + serial.max(1e-9)
}

/// Runs one scenario: realizes it and its fault-free exact yardstick
/// once, then every scheduler under each level's sampled fault schedule
/// (`levels` are [`FAULT_LADDER`] positions). Returns, per level, the
/// records in scheduler order and the number of injected events.
fn run_scenario(
    cfg: &CampaignConfig,
    levels: &[usize],
    (pi, wi, k): (usize, usize, u64),
) -> Result<Vec<(Vec<RunRecord>, usize)>, String> {
    let base = scenario_instance(cfg, pi, wi, k)?;

    // Exact yardstick: Theorem 2 on the very same (dyadic) instance.
    let exact = base.to_exact_dyadic().with_stretch_weights();
    let opt_stretch = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform)
        .optimum
        .to_f64();
    debug_assert!(opt_stretch > 0.0);

    let sim_inst: Instance<f64> = if cfg.stretch_weights {
        base.with_stretch_weights()
    } else {
        base
    };

    let mut per_level = Vec::with_capacity(levels.len());
    for &rung in levels {
        let (name, failures, repair) = FAULT_LADDER[rung];
        let events = if failures > 0.0 {
            let horizon = serial_horizon(&sim_inst);
            let seed = scenario_seed(cfg.seed_base, pi, wi, k);
            FaultProcess {
                mtbf: horizon / failures,
                mttr: (horizon * repair).max(1e-9),
                horizon,
                seed: splitmix64(FAULT_SEED ^ seed.wrapping_add(rung as u64)),
            }
            .sample(sim_inst.n_machines())
        } else {
            Vec::new()
        };
        let at = if cfg.faults.is_empty() {
            String::new()
        } else {
            format!("{name} / ")
        };
        let mut records = Vec::with_capacity(cfg.schedulers.len());
        for spec in &cfg.schedulers {
            let mut policy = spec.build();
            let res = simulate_with_events(&sim_inst, policy.as_mut(), &events)
                .map_err(|e| format!("scenario ({pi},{wi},{k}) / {at}{}: {e}", spec.label()))?;
            let m = RunMetrics::from_completions(&sim_inst, &res.completions);
            records.push(RunRecord {
                platform: cfg.platforms[pi].name.clone(),
                workload: cfg.workloads[wi].name.clone(),
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
            });
        }
        per_level.push((records, events.len()));
    }
    Ok(per_level)
}

/// One level's tournament report over scenario-major `runs`.
fn aggregate(cfg: &CampaignConfig, runs: Vec<RunRecord>, n_scenarios: usize) -> CampaignReport {
    let labels: Vec<String> = cfg.schedulers.iter().map(|s| s.label()).collect();
    let ns = labels.len();

    // runs is scenario-major: runs[sc * ns + si] is scenario sc, scheduler si.
    let ratio_of = |sc: usize, si: usize| runs[sc * ns + si].stretch_ratio;
    let stretch_of = |sc: usize, si: usize| runs[sc * ns + si].max_stretch;

    let mut aggregates = Vec::with_capacity(ns);
    for (si, label) in labels.iter().enumerate() {
        let mut ratios: Vec<f64> = (0..n_scenarios).map(|sc| ratio_of(sc, si)).collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let median = ratios[ratios.len() / 2];
        let p95 = ratios[((ratios.len() as f64 * 0.95).ceil() as usize).max(1) - 1];
        let worst = *ratios.last().unwrap();
        let mean_of = |f: &dyn Fn(&RunRecord) -> f64| {
            (0..n_scenarios)
                .map(|sc| f(&runs[sc * ns + si]))
                .sum::<f64>()
                / n_scenarios as f64
        };
        aggregates.push(SchedulerAggregate {
            scheduler: label.clone(),
            mean_ratio: mean,
            median_ratio: median,
            p95_ratio: p95,
            worst_ratio: worst,
            mean_max_stretch: mean_of(&|r| r.max_stretch),
            mean_sum_stretch: mean_of(&|r| r.sum_stretch),
            mean_makespan: mean_of(&|r| r.makespan),
            mean_utilization: mean_of(&|r| r.utilization),
        });
    }

    let mut win_matrix = vec![vec![0usize; ns]; ns];
    for sc in 0..n_scenarios {
        for a in 0..ns {
            for b in 0..ns {
                if a != b && stretch_of(sc, a) < stretch_of(sc, b) - 1e-9 {
                    win_matrix[a][b] += 1;
                }
            }
        }
    }

    CampaignReport {
        name: cfg.name.clone(),
        sig_bits: cfg.sig_bits,
        stretch_weights: cfg.stretch_weights,
        n_seeds: cfg.n_seeds,
        n_scenarios,
        schedulers: labels,
        platforms: cfg.platforms.iter().map(|p| p.name.clone()).collect(),
        workloads: cfg.workloads.iter().map(|w| w.name.clone()).collect(),
        runs,
        aggregates,
        win_matrix,
    }
}

/// The one fan-out: every scenario of the config (in parallel on the
/// rayon shim, or serially) at each level of its `faults` line (just
/// `none` without one), then each level's runs aggregated into its
/// tournament report. Results never depend on the worker split (see
/// `tests/prop_campaign.rs`).
fn run_levels(cfg: &CampaignConfig, parallel: bool) -> Result<Vec<SweepLevel>, String> {
    let levels: &[usize] = if cfg.faults.is_empty() {
        &[0]
    } else {
        &cfg.faults
    };
    let mut scenarios: Vec<(usize, usize, u64)> = Vec::new();
    for pi in 0..cfg.platforms.len() {
        for wi in 0..cfg.workloads.len() {
            for k in 0..cfg.n_seeds {
                scenarios.push((pi, wi, k));
            }
        }
    }
    let run = |&sc: &(usize, usize, u64)| run_scenario(cfg, levels, sc);
    let results: Vec<Result<_, String>> = if parallel {
        scenarios.par_iter().map(run).collect()
    } else {
        scenarios.iter().map(run).collect()
    };
    let n = scenarios.len();
    let mut runs: Vec<Vec<RunRecord>> = levels
        .iter()
        .map(|_| Vec::with_capacity(n * cfg.schedulers.len()))
        .collect();
    let mut fault_events: Vec<Vec<usize>> = levels.iter().map(|_| Vec::with_capacity(n)).collect();
    for r in results {
        for (li, (records, n_events)) in r?.into_iter().enumerate() {
            runs[li].extend(records);
            fault_events[li].push(n_events);
        }
    }
    Ok(levels
        .iter()
        .zip(runs.into_iter().zip(fault_events))
        .map(|(&rung, (runs, fault_events))| SweepLevel {
            level: FAULT_LADDER[rung].0,
            report: aggregate(cfg, runs, n),
            fault_events,
        })
        .collect())
}

/// The fault-free tournament: the single level `none`. A config with a
/// `faults` line is refused rather than silently losing its levels.
fn run_tournament(cfg: &CampaignConfig, parallel: bool) -> Result<CampaignReport, String> {
    if !cfg.faults.is_empty() {
        return Err("config has a `faults` line: run it as a fault sweep".into());
    }
    let mut levels = run_levels(cfg, parallel)?;
    Ok(levels.remove(0).report)
}

/// Runs the campaign, scenarios in parallel (vendored-rayon workers).
/// The report is bit-identical to [`run_campaign_serial`]'s — the
/// worker split never leaks into results (see `tests/prop_campaign.rs`).
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    run_tournament(cfg, true)
}

/// Single-threaded reference runner (determinism oracle and small jobs).
pub fn run_campaign_serial(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    run_tournament(cfg, false)
}

/// Runs any config, scenarios in parallel: one [`SweepLevel`] per level
/// of its `faults` line (just `none` without one), all scored against
/// the fault-free exact optimum. Bit-identical to
/// [`run_fault_sweep_serial`]'s; [`render_campaign`] prints the result.
pub fn run_fault_sweep(cfg: &CampaignConfig) -> Result<Vec<SweepLevel>, String> {
    run_levels(cfg, true)
}

/// Single-threaded [`run_fault_sweep`] (determinism oracle).
pub fn run_fault_sweep_serial(cfg: &CampaignConfig) -> Result<Vec<SweepLevel>, String> {
    run_levels(cfg, false)
}

/// The campaign's report as `(json, markdown)`, from its
/// [`run_fault_sweep`] levels. Without a `faults` line that is the one
/// level's tournament report, byte for byte. A sweep prints each level's
/// tournament report in the line's order, headed by the level's name and
/// each scenario's injected-event count: in JSON, the objects of a
/// `levels` array (`level`, `fault_events`, `report`); in markdown, one
/// `# Fault level` section each.
pub fn render_campaign(cfg: &CampaignConfig, levels: &[SweepLevel]) -> (String, String) {
    if cfg.faults.is_empty() {
        let report = &levels[0].report;
        return (report.to_json(), report.to_markdown());
    }
    let (mut json, mut markdown) = (Vec::new(), Vec::new());
    for l in levels {
        let events: Vec<String> = l.fault_events.iter().map(|n| n.to_string()).collect();
        let events = events.join(", ");
        json.push(format!(
            "    {{\n      \"level\": \"{}\",\n      \"fault_events\": [{events}],\n      \"report\": {}\n    }}",
            l.level,
            l.report.to_json().trim_end().replace('\n', "\n      "),
        ));
        markdown.push(format!(
            "# Fault level `{}`\n\nPlatform events injected per scenario: {events}. Every \
             ratio is against the scenario's fault-free exact optimum.\n\n{}",
            l.level,
            l.report.to_markdown(),
        ));
    }
    let json = format!("{{\n  \"levels\": [\n{}\n  ]\n}}\n", json.join(",\n"));
    (json, markdown.join("\n"))
}

/// Formats a float for report output: fixed 6 decimals, deterministic.
pub(crate) fn f6(v: f64) -> String {
    format!("{v:.6}")
}

/// A JSON array body of quoted names: `"a", "b"`.
fn quoted(names: &[String]) -> String {
    names
        .iter()
        .map(|x| format!("\"{x}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

impl CampaignReport {
    /// Deterministic machine-readable JSON (no serde in the offline
    /// dependency set; hand-rendered like `BENCH_PR3.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": \"{}\",\n", self.name));
        s.push_str(&format!("  \"sig_bits\": {},\n", self.sig_bits));
        s.push_str(&format!(
            "  \"weights\": \"{}\",\n",
            if self.stretch_weights {
                "stretch"
            } else {
                "priority"
            }
        ));
        s.push_str(&format!("  \"seeds_per_cell\": {},\n", self.n_seeds));
        s.push_str(&format!("  \"n_scenarios\": {},\n", self.n_scenarios));
        s.push_str(&format!("  \"n_runs\": {},\n", self.runs.len()));
        s.push_str(&format!(
            "  \"platforms\": [{}],\n",
            quoted(&self.platforms)
        ));
        s.push_str(&format!(
            "  \"workloads\": [{}],\n",
            quoted(&self.workloads)
        ));
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
                "    {{\"scheduler\": \"{}\", \"mean_ratio\": {}, \"median_ratio\": {}, \"p95_ratio\": {}, \"worst_ratio\": {}, \"mean_max_stretch\": {}, \"mean_sum_stretch\": {}, \"mean_makespan\": {}, \"mean_utilization\": {}}}{comma}\n",
                a.scheduler,
                f6(a.mean_ratio),
                f6(a.median_ratio),
                f6(a.p95_ratio),
                f6(a.worst_ratio),
                f6(a.mean_max_stretch),
                f6(a.mean_sum_stretch),
                f6(a.mean_makespan),
                f6(a.mean_utilization),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"win_matrix\": [\n");
        for (i, row) in self.win_matrix.iter().enumerate() {
            let comma = if i + 1 == self.win_matrix.len() {
                ""
            } else {
                ","
            };
            let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
            s.push_str(&format!("    [{}]{comma}\n", cells.join(", ")));
        }
        s.push_str("  ],\n");
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"platform\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"scheduler\": \"{}\", \"max_stretch\": {}, \"sum_stretch\": {}, \"makespan\": {}, \"utilization\": {}, \"max_weighted_flow\": {}, \"opt_stretch\": {}, \"stretch_ratio\": {}, \"n_events\": {}, \"n_plans\": {}}}{comma}\n",
                r.platform,
                r.workload,
                r.seed,
                r.scheduler,
                f6(r.max_stretch),
                f6(r.sum_stretch),
                f6(r.makespan),
                f6(r.utilization),
                f6(r.max_weighted_flow),
                f6(r.opt_stretch),
                f6(r.stretch_ratio),
                r.n_events,
                r.n_plans,
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Markdown summary: the aggregate table and the head-to-head win
    /// matrix.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# Campaign `{}` — {} scenarios × {} schedulers\n\n",
            self.name,
            self.n_scenarios,
            self.schedulers.len()
        ));
        s.push_str(&format!(
            "Platforms: {} · workloads: {} · {} seeds/cell · weights: {} · exact yardstick: Theorem 2 max-stretch at {} significand bits.\n\n",
            self.platforms.join(", "),
            self.workloads.join(", "),
            self.n_seeds,
            if self.stretch_weights { "stretch" } else { "priority" },
            self.sig_bits
        ));
        s.push_str("## Degradation vs the exact offline bound (max-stretch ratio)\n\n");
        s.push_str("| scheduler | mean | median | p95 | worst | mean maxS | mean sumS | mean makespan | mean util |\n");
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for a in &self.aggregates {
            s.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.1} | {:.2} |\n",
                a.scheduler,
                a.mean_ratio,
                a.median_ratio,
                a.p95_ratio,
                a.worst_ratio,
                a.mean_max_stretch,
                a.mean_sum_stretch,
                a.mean_makespan,
                a.mean_utilization,
            ));
        }
        s.push_str("\n## Head-to-head wins (row strictly beats column on max stretch)\n\n");
        s.push_str(&format!(
            "| ↓ beats → | {} |\n",
            self.schedulers.join(" | ")
        ));
        s.push_str(&format!("|---|{}\n", "---|".repeat(self.schedulers.len())));
        for (a, row) in self.win_matrix.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(b, c)| if a == b { "·".into() } else { c.to_string() })
                .collect();
            s.push_str(&format!(
                "| {} | {} |\n",
                self.schedulers[a],
                cells.join(" | ")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "
        name tiny
        seeds 2
        sigbits 10
        platform p servers=2 banks=3 heterogeneity=2
        workload w jobs=4 load=1.0
        scheduler mct
        scheduler srpt
        scheduler edf target=3
    ";

    #[test]
    fn parses_quick_config() {
        let cfg = CampaignConfig::quick();
        assert_eq!(cfg.name, "quick");
        assert_eq!(cfg.n_seeds, 20);
        assert!(cfg.schedulers.len() >= 3);
        assert!(cfg.stretch_weights);
        assert!(cfg.faults.is_empty());
        // The other committed configs: `--full`, and the chaos sweep.
        let full = parse_campaign(FULL_CONFIG).unwrap();
        assert_eq!((full.platforms.len(), full.schedulers.len()), (2, 8));
        let pr8 = parse_campaign(PR8_CONFIG).unwrap();
        assert_eq!((pr8.name.as_str(), pr8.n_seeds), ("quick-chaos", 12));
        assert_eq!(pr8.faults, [0, 1, 2, 3]);
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(parse_campaign("frob 1").unwrap_err().contains("frob"));
        assert!(parse_campaign("scheduler zorp\nplatform p\nworkload w")
            .unwrap_err()
            .contains("zorp"));
        assert!(parse_campaign("platform p servers=x")
            .unwrap_err()
            .contains("bad number"));
        assert!(parse_campaign("seeds 0")
            .unwrap_err()
            .contains("seeds must be a whole number"));
        let noplat = "workload w jobs=2\nscheduler mct";
        assert!(parse_campaign(noplat).unwrap_err().contains("platform"));
        let dup = "platform p\nworkload w\nscheduler mct\nscheduler mct";
        assert!(parse_campaign(dup).unwrap_err().contains("duplicate"));
        // scheduler options are validated
        assert!(parse_campaign("scheduler mct target=2")
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn parse_rejects_bad_values_and_names_up_front() {
        // Values that would panic deep inside run_scenario fail at parse
        // time with a line number instead.
        for (bad, needle) in [
            ("platform p heterogeneity=0.5", "heterogeneity"),
            ("platform p servers=0", "whole number"),
            ("platform p banks=0", "whole number"),
            ("platform p servers=1e30", "whole number"),
            ("platform p heterogeneity=nan", "finite"),
            ("workload w jobs=0", "whole number"),
            ("workload w jobs=2.9", "whole number"),
            // One scenario tuple per seed is built before any runs.
            (
                "seeds 100000000000",
                "seeds must be a whole number in 1..=10000",
            ),
            ("seeds 2.5", "seeds must be a whole number"),
            ("workload w load=0", "load must be positive"),
            ("scheduler edf target=0", "target must be positive"),
            ("scheduler edf target=inf", "finite"),
            // Names reach JSON strings and markdown cells unescaped, so
            // the charset is restricted at parse time.
            ("name he\"llo", "may only contain"),
            ("platform a|b servers=2", "may only contain"),
            // A setting given twice is an error, not a silent first-wins.
            (
                "platform p servers=2 servers=9",
                "line 1: option \"servers\" given twice",
            ),
            (
                "workload w jobs=4 jobs=40",
                "line 1: option \"jobs\" given twice",
            ),
            (
                "scheduler edf target=3 target=0.5",
                "line 1: scheduler edf: option \"target\" given twice",
            ),
            ("name a\nname b", "line 2: duplicate name line"),
            ("seeds 2\nseeds 3", "line 2: duplicate seeds line"),
            (
                "seed-base 1\nseed-base 2",
                "line 2: duplicate seed-base line",
            ),
            ("sigbits 12\nsigbits 8", "line 2: duplicate sigbits line"),
            (
                "weights stretch\nweights priority",
                "line 2: duplicate weights line",
            ),
            // A `faults` line picks ladder levels, each once, in one line.
            ("faults", "line 1: faults expects at least one level"),
            ("faults none frob", "line 1: unknown fault level \"frob\""),
            ("faults Heavy", "line 1: unknown fault level \"Heavy\""),
            ("faults none=1", "line 1: unknown fault level \"none=1\""),
            (
                "faults light heavy light",
                "line 1: fault level \"light\" given twice",
            ),
            ("faults none\nfaults heavy", "line 2: duplicate faults line"),
        ] {
            let err = parse_campaign(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
            assert!(
                err.contains("line 1") || !needle.contains("only contain"),
                "{bad:?} error lacks a line number: {err}"
            );
        }
    }

    #[test]
    fn compact_specs_parse_like_config_lines() {
        assert_eq!(
            SchedulerSpec::parse_compact("swrpt").unwrap(),
            SchedulerSpec::Swrpt
        );
        assert_eq!(
            SchedulerSpec::parse_compact("ola").unwrap(),
            SchedulerSpec::Ola
        );
        assert_eq!(
            SchedulerSpec::parse_compact("edf:target=3").unwrap(),
            SchedulerSpec::Edf { target: 3.0 }
        );
        assert!(SchedulerSpec::parse_compact("zorp").is_err());
        assert!(SchedulerSpec::parse_compact("edf:target").is_err());
        assert!(SchedulerSpec::parse_compact("edf:target=x").is_err());
        assert!(SchedulerSpec::parse_compact("edf:target=inf").is_err());
        assert!(SchedulerSpec::parse_compact("mct:target=2").is_err());
        // A repeated option is refused before its values are checked.
        let err = SchedulerSpec::parse_compact("edf:target=3,target=-1").unwrap_err();
        assert_eq!(err, "scheduler edf: option \"target\" given twice");
    }

    #[test]
    fn removed_bisect_option_is_rejected() {
        // OLA's milestone search left no bisection to size.
        let err = SchedulerSpec::parse_compact("ola:bisect=20").unwrap_err();
        assert!(err.contains("unknown option \"bisect\""), "{err}");
        let err = parse_campaign("scheduler ola bisect=20").unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("unknown option"),
            "{err}"
        );
    }

    #[test]
    fn removed_throttle_option_is_rejected() {
        // OLA re-plans at every event; its re-solve throttle is gone.
        let err = SchedulerSpec::parse_compact("ola:throttle=30").unwrap_err();
        assert!(err.contains("unknown option \"throttle\""), "{err}");
        let err = parse_campaign("name t\nscheduler ola throttle=30").unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("unknown option \"throttle\""),
            "{err}"
        );
    }

    #[test]
    fn removed_olalite_scheduler_is_rejected() {
        for spec in ["olalite", "olalite:alpha=1.5"] {
            let err = SchedulerSpec::parse_compact(spec).unwrap_err();
            assert!(
                err.contains("unknown scheduler \"olalite\""),
                "{spec}: {err}"
            );
        }
        let err = parse_campaign("scheduler olalite alpha=1.2").unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("unknown scheduler"),
            "{err}"
        );
    }

    #[test]
    fn labels_match_policy_names() {
        // Single source of truth: the campaign column label IS the
        // policy's self-reported name.
        for spec in [
            SchedulerSpec::Mct,
            SchedulerSpec::RoundRobin,
            SchedulerSpec::Edf { target: 3.0 },
            SchedulerSpec::Ola,
        ] {
            assert_eq!(spec.label(), spec.build().name());
        }
        assert_eq!(SchedulerSpec::Ola.label(), "OLA");
        // Every knob is label-visible, so a single-knob sweep is two
        // distinct entrants rather than a duplicate error.
        let sweep = "platform p\nworkload w\nscheduler edf target=3\nscheduler edf\n";
        let cfg = parse_campaign(sweep).unwrap();
        assert_eq!(cfg.schedulers[0].label(), "EDF(k=3)");
        assert_eq!(cfg.schedulers[1].label(), "EDF");
    }

    #[test]
    fn tiny_campaign_runs_and_ratios_dominate_the_exact_bound() {
        let cfg = parse_campaign(TINY).unwrap();
        let report = run_campaign(&cfg).unwrap();
        assert_eq!(report.n_scenarios, 2);
        assert_eq!(report.runs.len(), 2 * 3);
        for r in &report.runs {
            assert!(r.opt_stretch > 0.0);
            assert!(
                r.stretch_ratio > 0.99,
                "{}: online stretch {} below exact optimum {}",
                r.scheduler,
                r.max_stretch,
                r.opt_stretch
            );
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
        }
        // Aggregates cover each scheduler once, in config order.
        let names: Vec<&str> = report
            .aggregates
            .iter()
            .map(|a| a.scheduler.as_str())
            .collect();
        assert_eq!(names, ["MCT", "SRPT", "EDF(k=3)"]);
    }

    #[test]
    fn every_quick_scenario_factorizes_as_uniform_machines() {
        // The yardstick's LP-free route needs the W·s factorization; a
        // seeding bug once called 4 of these 20 scenarios unrelated.
        let cfg = CampaignConfig::quick();
        let mut unrelated = Vec::new();
        for pi in 0..cfg.platforms.len() {
            for wi in 0..cfg.workloads.len() {
                for k in 0..cfg.n_seeds {
                    let exact = scenario_instance(&cfg, pi, wi, k)
                        .unwrap()
                        .to_exact_dyadic()
                        .with_stretch_weights();
                    if dlflow_core::uniform::uniform_factors(&exact).is_none() {
                        unrelated.push((pi, wi, k));
                    }
                }
            }
        }
        assert!(
            unrelated.is_empty(),
            "scenarios called unrelated: {unrelated:?}"
        );
    }

    #[test]
    fn win_matrix_is_consistent() {
        let cfg = parse_campaign(TINY).unwrap();
        let report = run_campaign(&cfg).unwrap();
        let ns = report.schedulers.len();
        for a in 0..ns {
            assert_eq!(report.win_matrix[a][a], 0);
            for b in 0..ns {
                assert!(report.win_matrix[a][b] + report.win_matrix[b][a] <= report.n_scenarios);
            }
        }
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let cfg = parse_campaign(TINY).unwrap();
        let report = run_campaign_serial(&cfg).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"tiny\""));
        assert!(json.contains("\"stretch_ratio\""));
        assert!(json.contains("\"win_matrix\""));
        let md = report.to_markdown();
        assert!(md.contains("| scheduler |"));
        assert!(md.contains("Head-to-head"));
    }

    #[test]
    fn a_level_samples_the_same_faults_whatever_else_is_listed() {
        // Levels keep the line's order, and a level's ladder position —
        // not its place on the line — salts its fault seed.
        let cfg = parse_campaign(&format!("{TINY}faults heavy none\n")).unwrap();
        assert_eq!(cfg.faults, [3, 0]);
        let picked = run_fault_sweep(&cfg).unwrap();
        let names: Vec<&str> = picked.iter().map(|l| l.level).collect();
        assert_eq!(names, ["heavy", "none"]);
        let all = parse_campaign(&format!("{TINY}faults none light moderate heavy\n")).unwrap();
        let all = run_fault_sweep(&all).unwrap();
        assert_eq!(picked[0].fault_events, all[3].fault_events);
        assert_eq!(picked[0].report.to_json(), all[3].report.to_json());
        // Without a `faults` line the sweep is the fault-free level alone.
        let plain = run_fault_sweep_serial(&parse_campaign(TINY).unwrap()).unwrap();
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].report.to_json(), all[0].report.to_json());
    }

    fn tiny_sweep() -> CampaignConfig {
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
        let cfg = tiny_sweep();
        let par = render_campaign(&cfg, &run_fault_sweep(&cfg).unwrap());
        let ser = render_campaign(&cfg, &run_fault_sweep_serial(&cfg).unwrap());
        assert_eq!(par.0, ser.0);
        assert_eq!(par.1, ser.1);
    }

    #[test]
    fn ratios_never_beat_the_fault_free_optimum() {
        let levels = run_fault_sweep(&tiny_sweep()).unwrap();
        assert_eq!(levels.len(), 4);
        for l in &levels {
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
        assert_eq!(levels[0].level, "none");
        assert_eq!(levels[0].fault_events, [0, 0]);
        let heavy = &levels[3];
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
        let cfg = tiny_sweep();
        let sweep = run_fault_sweep(&cfg).unwrap();
        let mut plain_cfg = cfg.clone();
        plain_cfg.faults.clear();
        let plain = run_campaign(&plain_cfg).unwrap();
        let none = &sweep[0].report;
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

    #[test]
    fn a_sweep_renders_each_level_as_its_tournament_report() {
        let cfg = tiny_sweep();
        let levels = run_fault_sweep(&cfg).unwrap();
        let (json, markdown) = render_campaign(&cfg, &levels);
        for l in &levels {
            let report = l.report.to_json();
            let nested = report.trim_end().replace('\n', "\n      ");
            assert!(json.contains(&nested), "{} report missing", l.level);
            assert!(markdown.contains(&l.report.to_markdown()));
            let events: Vec<String> = l.fault_events.iter().map(|n| n.to_string()).collect();
            let head = format!(
                "\"level\": \"{}\",\n      \"fault_events\": [{}],",
                l.level,
                events.join(", ")
            );
            assert!(json.contains(&head), "{head}");
            assert!(markdown.contains(&format!("# Fault level `{}`", l.level)));
        }
        assert!(json.starts_with("{\n  \"levels\": [\n    {\n"), "{json}");
        // Without a `faults` line the report is the tournament's.
        let mut plain_cfg = cfg.clone();
        plain_cfg.faults.clear();
        let plain = run_campaign(&plain_cfg).unwrap();
        let rendered = render_campaign(&plain_cfg, &run_fault_sweep(&plain_cfg).unwrap());
        assert_eq!(rendered, (plain.to_json(), plain.to_markdown()));
    }

    #[test]
    fn ola_participates_and_reports_per_run_ratio() {
        let cfg = parse_campaign(
            "name olatest\nseeds 1\nsigbits 10\nplatform p servers=2 banks=2 heterogeneity=2\nworkload w jobs=3 load=1.0\nscheduler ola\n",
        )
        .unwrap();
        let report = run_campaign(&cfg).unwrap();
        assert_eq!(report.runs.len(), 1);
        let r = &report.runs[0];
        assert_eq!(r.scheduler, "OLA");
        // OLA tracks the offline optimum closely on tiny instances.
        assert!(r.stretch_ratio < 3.0, "ratio {}", r.stretch_ratio);
    }

    /// The committed fault-sweep config behind `CAMPAIGN_PR8.json`.
    const PR8_CONFIG: &str = include_str!("../../../CAMPAIGN_PR8.campaign");

    /// A parse either succeeds or names the line at fault; only the three
    /// whole-document "config has no `…` line" errors name none.
    fn assert_names_its_line(text: &str) -> Result<(), proptest::prelude::TestCaseError> {
        let Err(err) = parse_campaign(text) else {
            return Ok(());
        };
        let whole = ["platform", "workload", "scheduler"]
            .iter()
            .any(|d| err == format!("config has no `{d}` line"));
        let lineno = err
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(':'))
            .and_then(|(n, _)| n.parse::<usize>().ok());
        let named = lineno.is_some_and(|n| (1..=text.lines().count()).contains(&n));
        proptest::prop_assert!(whole || named, "on {text:?}: {err}");
        Ok(())
    }

    /// One random mutation of a config: truncation at any byte, token
    /// splice and deletion, a refused number, duplicated and swapped
    /// lines, a second `faults` line, or an unknown, repeated or empty
    /// level list.
    fn mutate(text: &str, rng: &mut rand::rngs::SmallRng) -> String {
        use rand::Rng;
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split_whitespace().map(String::from).collect())
            .collect();
        let n_lines = lines.len().max(1);
        let at =
            |rng: &mut rand::rngs::SmallRng, lines: &[Vec<String>]| -> Option<(usize, usize)> {
                let li = rng.gen_range(0..lines.len().max(1));
                let n = lines.get(li)?.len();
                (n > 0).then(|| (li, rng.gen_range(0..n)))
            };
        let pick = |rng: &mut rand::rngs::SmallRng, items: &[&str]| {
            items[rng.gen_range(0..items.len())].to_string()
        };
        match rng.gen_range(0..8) {
            0 => {
                let mut cut = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                return text[..cut].to_string();
            }
            1 => {
                if let (Some((a, b)), Some((c, d))) = (at(rng, &lines), at(rng, &lines)) {
                    let tok = lines[a][b].clone();
                    lines[c].insert(d, tok);
                }
            }
            2 => {
                if let Some((a, b)) = at(rng, &lines) {
                    lines[a].remove(b);
                }
            }
            3 => {
                if let Some((a, b)) = at(rng, &lines) {
                    let bad = pick(rng, &["nan", "inf", "1e400", "-1", "0", "10001"]);
                    let tok = &mut lines[a][b];
                    *tok = match tok.split_once('=') {
                        Some((key, _)) => format!("{key}={bad}"),
                        None => bad,
                    };
                }
            }
            4 => {
                let line = lines
                    .get(rng.gen_range(0..n_lines))
                    .cloned()
                    .unwrap_or_default();
                lines.insert(rng.gen_range(0..=lines.len()), line);
            }
            5 if !lines.is_empty() => {
                let (i, j) = (rng.gen_range(0..n_lines), rng.gen_range(0..n_lines));
                lines.swap(i, j);
            }
            6 => {
                let faults = pick(rng, &["faults heavy", "faults none light moderate heavy"]);
                let line = faults.split(' ').map(String::from).collect();
                lines.insert(rng.gen_range(0..=lines.len()), line);
            }
            _ => {
                let list = pick(
                    rng,
                    &[
                        "",
                        "none none",
                        "light frob",
                        "NONE",
                        "heavy heavy none",
                        "none,light",
                    ],
                );
                let line: Vec<String> = std::iter::once("faults")
                    .chain(list.split_whitespace())
                    .map(String::from)
                    .collect();
                match lines
                    .iter()
                    .position(|l| l.first().is_some_and(|d| d == "faults"))
                {
                    Some(k) => lines[k] = line,
                    None => lines.insert(rng.gen_range(0..=lines.len()), line),
                }
            }
        }
        lines
            .iter()
            .map(|l| l.join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn mutated_configs_parse_or_name_their_line(
            seed in proptest::prelude::any::<u64>(),
            n_mutations in 1usize..5,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut text = [QUICK_CONFIG, FULL_CONFIG, PR8_CONFIG][(seed % 3) as usize].to_string();
            for _ in 0..n_mutations {
                text = mutate(&text, &mut rng);
            }
            assert_names_its_line(&text)?;
        }
    }
}
