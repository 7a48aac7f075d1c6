//! The four workloads. Each builds its inputs from the seed, runs an
//! untraced pass through the library's own entry points, and runs a
//! traced pass that re-drives the same pipeline through each layer's
//! public calls, so every layer can be timed from outside the library.

use crate::trace::{count_allocs, Hist, HookStats, Recorder, Timed};
use dlflow_core::instance::Instance;
use dlflow_core::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
use dlflow_gripps::CostModel;
use dlflow_sim::campaign::{
    parse_campaign, run_campaign, CampaignConfig, CampaignReport, RunRecord, SchedulerAggregate,
    SchedulerSpec,
};
use dlflow_sim::engine::{simulate, OnlineScheduler, ResolveStats, RunMetrics};
use dlflow_sim::service::{
    run_simulation, run_simulation_with, ServiceReport, SimInput, SimOptions,
};
use dlflow_sim::shard::ShardedEngine;
use dlflow_sim::workload::{
    generate_trace, ArrivalProcess, FaultProcess, ReplayStats, Trace, TraceSpec,
};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "stream-swrpt",
    "ola-online",
    "tournament",
    "federation-faults",
];

/// The shape of a generated open trace. The platform (machine cycle
/// times) is fixed per shape; the seed draws the arrivals.
pub struct Shape {
    /// Requests.
    pub requests: usize,
    /// Machines.
    pub machines: usize,
    /// Poisson arrival rate, requests per simulated second.
    pub rate: f64,
    /// Probability that a machine holds a request's databank.
    pub availability: f64,
}

impl Shape {
    /// The trace for `seed`: arrivals drawn from the seed, on the platform
    /// drawn once from [`PLATFORM_SEED`]. A per-seed platform would change
    /// the fleet's speed, and with it the load and the cost of a pass, by
    /// up to 2× from seed to seed.
    pub fn trace(&self, seed: u64) -> Trace {
        let spec = |n_requests, seed| TraceSpec {
            n_requests,
            n_machines: self.machines,
            availability: self.availability,
            process: ArrivalProcess::Poisson { rate: self.rate },
            seed,
            ..Default::default()
        };
        let mut trace = generate_trace(&spec(self.requests, seed));
        trace.cycle_times = generate_trace(&spec(1, PLATFORM_SEED)).cycle_times;
        trace
    }
}

/// Seed of the fixed platforms.
const PLATFORM_SEED: u64 = 4;

/// Input sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::SMALL`] keeps
/// the self-tests quick.
pub struct Sizes {
    /// `stream-swrpt`'s trace.
    pub stream: Shape,
    /// `ola-online`'s trace.
    pub ola: Shape,
    /// `federation-faults`'s trace.
    pub federation: Shape,
    /// Shards the federation is split into.
    pub shards: usize,
    /// Mean time between failures and to repair, simulated seconds.
    pub mtbf_mttr: (f64, f64),
    /// Campaign config; `None` is `CampaignConfig::quick()`.
    pub campaign: Option<&'static str>,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        stream: Shape {
            requests: 300_000,
            machines: 3,
            rate: 2.0,
            availability: 0.6,
        },
        ola: Shape {
            requests: 3_000,
            machines: 3,
            rate: 1.0,
            availability: 0.6,
        },
        federation: Shape {
            requests: 200_000,
            machines: 32,
            rate: 20.0,
            availability: 0.1,
        },
        shards: 8,
        mtbf_mttr: (500.0, 10.0),
        campaign: None,
    };

    /// Sizes for the self-tests.
    #[cfg(test)]
    pub const SMALL: Sizes = Sizes {
        stream: Shape {
            requests: 400,
            machines: 3,
            rate: 2.0,
            availability: 0.6,
        },
        ola: Shape {
            requests: 40,
            machines: 3,
            rate: 1.0,
            availability: 0.6,
        },
        federation: Shape {
            requests: 600,
            machines: 8,
            rate: 5.0,
            availability: 0.3,
        },
        shards: 4,
        mtbf_mttr: (40.0, 5.0),
        campaign: Some(
            "name small\nseeds 2\nplatform p servers=3 banks=3\nworkload w jobs=5 load=1.2\n\
             scheduler mct\nscheduler fifo\nscheduler srpt\nscheduler swrpt\nscheduler edf\n\
             scheduler ola\n",
        ),
    };
}

/// Salt that keeps the fault schedule's seed apart from the trace's.
const FAULT_SALT: u64 = 0xFA17_5EED;

/// The prepared inputs of one workload.
pub enum Workload {
    /// A `.dlt` text to parse and replay under SWRPT.
    Stream {
        /// The rendered trace.
        dlt: String,
        /// Requests in it.
        n: usize,
    },
    /// A trace to replay under eager OLA.
    Ola {
        /// The trace, as the service takes it.
        input: SimInput,
    },
    /// The quick tournament.
    Tournament {
        /// Its config, seeded.
        cfg: CampaignConfig,
    },
    /// A faulty federation trace to replay sharded under SWRPT.
    Federation {
        /// The trace with its fault schedule, as the service takes it.
        input: SimInput,
        /// Shards.
        shards: usize,
    },
}

/// What a pass produced, compared across passes.
#[derive(Clone, Debug, PartialEq)]
pub struct PassOut {
    /// The rendered report(s); every pass must reproduce them byte for byte.
    pub output: String,
    /// Online max stretch (tournament: mean over its runs).
    pub max_stretch: f64,
    /// Mean ratio of achieved to best possible: per request (flow ÷
    /// lone fastest time) on trace replays, per run (max stretch ÷ the
    /// exact offline optimum) on the tournament.
    pub ratio_mean: f64,
    /// Violated output checks.
    pub problems: Vec<String>,
}

/// Public counters of one traced pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Engine events (summed over runs and shards).
    pub events: usize,
    /// `plan` calls.
    pub plans: usize,
    /// Largest active set (sharded: the sum of per-shard peaks; not
    /// recorded on the tournament).
    pub peak_active: usize,
    /// Platform events the engine consumed.
    pub platform_events: usize,
    /// OLA re-solve telemetry, summed over OLA instances.
    pub resolve: Option<ResolveStats>,
    /// Theorem-2 feasibility probes.
    pub probes: usize,
    /// Theorem-2 milestones.
    pub milestones: usize,
    /// Events per shard.
    pub shard_events: Vec<usize>,
    /// Bytes parsed.
    pub parse_bytes: usize,
}

/// What a traced pass measured beyond its [`Counters`].
#[derive(Default)]
pub struct Timings {
    /// `plan` durations.
    pub plan: Hist,
    /// Time in `plan`.
    pub plan_ns: u64,
    /// Time in every hook.
    pub hook_ns: u64,
    /// Hook calls.
    pub hook_calls: u64,
    /// Per parallel chunk of the tournament, its summed scenario time.
    pub chunk_ns: Vec<u64>,
}

impl Timings {
    fn add_hooks(&mut self, h: &HookStats) {
        self.plan.merge(&h.plan);
        self.plan_ns += h.plan_ns;
        self.hook_ns += h.hook_ns;
        self.hook_calls += h.calls;
    }

    /// Adds another pass's (or chunk's) timings.
    pub fn merge(&mut self, o: &Timings) {
        self.plan.merge(&o.plan);
        self.plan_ns += o.plan_ns;
        self.hook_ns += o.hook_ns;
        self.hook_calls += o.hook_calls;
        self.chunk_ns.extend(&o.chunk_ns);
    }
}

fn swrpt() -> SchedulerSpec {
    SchedulerSpec::Swrpt
}

fn ola() -> SchedulerSpec {
    SchedulerSpec::parse_compact("ola").expect("the compact spec `ola` parses")
}

fn open_trace(input: &SimInput) -> &Trace {
    match input {
        SimInput::Open(t) => t,
        SimInput::Closed(_) => unreachable!("trace workloads hold open inputs"),
    }
}

impl Workload {
    /// Generates the inputs of workload `name` from `seed`.
    pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Result<Workload, String> {
        Ok(match name {
            "stream-swrpt" => {
                let trace = sizes.stream.trace(seed);
                Workload::Stream {
                    dlt: trace.to_dlt(),
                    n: trace.len(),
                }
            }
            "ola-online" => Workload::Ola {
                input: SimInput::Open(sizes.ola.trace(seed)),
            },
            // The seed is not used: one scenario's exact yardstick takes
            // 21 ms at the median and 300 ms at p99, so twenty seeded
            // scenarios vary 4× in cost from seed to seed. Every seed runs
            // the canonical quick tournament (seed-base 1).
            "tournament" => Workload::Tournament {
                cfg: match sizes.campaign {
                    Some(text) => parse_campaign(text)?,
                    None => CampaignConfig::quick(),
                },
            },
            "federation-faults" => {
                let mut trace = sizes.federation.trace(seed);
                let horizon = trace.arrivals.last().map_or(1.0, |a| a.release);
                let (mtbf, mttr) = sizes.mtbf_mttr;
                trace.platform_events = FaultProcess {
                    mtbf,
                    mttr,
                    horizon,
                    seed: seed ^ FAULT_SALT,
                }
                .sample(trace.n_machines());
                Workload::Federation {
                    input: SimInput::Open(trace),
                    shards: sizes.shards,
                }
            }
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// One untraced pass through the library's own entry points.
    pub fn pass(&self) -> Result<PassOut, String> {
        match self {
            Workload::Stream { dlt, n } => {
                let trace = Trace::parse_dlt(dlt)?;
                let report = run_simulation(&SimInput::Open(trace), &swrpt())?;
                Ok(service_out(&report, *n))
            }
            Workload::Ola { input } => {
                let report = run_simulation(input, &ola())?;
                Ok(service_out(&report, open_trace(input).len()))
            }
            Workload::Tournament { cfg } => Ok(tournament_out(&run_campaign(cfg)?)),
            Workload::Federation { input, shards } => {
                let opts = SimOptions {
                    shards: *shards,
                    ..Default::default()
                };
                let (report, _) = run_simulation_with(input, &swrpt(), &opts)?;
                Ok(service_out(&report, open_trace(input).len()))
            }
        }
    }

    /// One traced pass: the same work as [`Workload::pass`], driven
    /// through each layer's public calls, with spans under `root`.
    pub fn traced_pass(
        &self,
        rec: &mut Recorder,
        root: usize,
    ) -> Result<(PassOut, Counters, Timings), String> {
        let mut t = Timings::default();
        match self {
            Workload::Stream { dlt, n } => {
                let p = rec.open("workload.parse_dlt", Some(root));
                let trace = Trace::parse_dlt(dlt)?;
                rec.close(p);
                let (out, mut c) = replay_traced(&trace, &swrpt(), *n, rec, root, &mut t)?;
                c.parse_bytes = dlt.len();
                Ok((out, c, t))
            }
            Workload::Ola { input } => {
                let trace = open_trace(input);
                let (out, c) = replay_traced(trace, &ola(), trace.len(), rec, root, &mut t)?;
                Ok((out, c, t))
            }
            Workload::Tournament { cfg } => {
                let (out, c) = tournament_traced(cfg, rec, root, &mut t)?;
                Ok((out, c, t))
            }
            Workload::Federation { input, shards } => {
                let (out, c) = sharded_traced(open_trace(input), *shards, rec, root, &mut t)?;
                Ok((out, c, t))
            }
        }
    }
}

/// A service report's pass output: its JSON, checked to cover all `n`
/// requests.
fn service_out(report: &ServiceReport, n: usize) -> PassOut {
    let mut problems = Vec::new();
    if report.n_jobs != n {
        problems.push(format!("{} of {n} requests reported", report.n_jobs));
    }
    PassOut {
        output: report.to_json(),
        max_stretch: report.metrics.max_stretch,
        ratio_mean: report.metrics.sum_stretch / report.n_jobs.max(1) as f64,
        problems,
    }
}

/// A tournament's pass output: its JSON and markdown, checked so that no
/// online run beats the exact offline optimum.
fn tournament_out(report: &CampaignReport) -> PassOut {
    let runs = report.runs.len().max(1) as f64;
    let problems = report
        .runs
        .iter()
        .filter(|r| r.stretch_ratio < 1.0 - 1e-9)
        .map(|r| {
            format!(
                "seed {} / {}: stretch ratio {} beats the exact optimum",
                r.seed, r.scheduler, r.stretch_ratio
            )
        })
        .collect();
    PassOut {
        output: report.to_json() + &report.to_markdown(),
        max_stretch: report.runs.iter().map(|r| r.max_stretch).sum::<f64>() / runs,
        ratio_mean: report.runs.iter().map(|r| r.stretch_ratio).sum::<f64>() / runs,
        problems,
    }
}

/// A traced replay's pass output: its report rendered as the service
/// renders it, checked to cover all `n` requests.
fn replay_out(
    spec: &SchedulerSpec,
    trace: &Trace,
    n: usize,
    stats: ReplayStats,
    resolve: Option<ResolveStats>,
) -> PassOut {
    let report = ServiceReport {
        scheduler: spec.label(),
        input_kind: "trace",
        n_jobs: stats.n_jobs,
        n_machines: trace.n_machines(),
        n_events: stats.n_events,
        n_plans: stats.n_plans,
        metrics: stats.metrics,
        utilization: stats.utilization,
        max_active: stats.max_active,
        completions: Vec::new(),
        resolve_stats: resolve,
    };
    service_out(&report, n)
}

/// Traced replay of an open trace: [`Trace::replay`] under the policy
/// wrapped in [`Timed`]. A replay returns only once every request has
/// completed.
fn replay_traced(
    trace: &Trace,
    spec: &SchedulerSpec,
    n: usize,
    rec: &mut Recorder,
    root: usize,
    t: &mut Timings,
) -> Result<(PassOut, Counters), String> {
    let (mut policy, sink) = Timed::new(spec.build());
    let counting = count_allocs();
    let e = rec.open("engine.replay", Some(root));
    let stats = trace.replay(&mut policy).map_err(|e| e.to_string())?;
    rec.close(e);
    drop(counting);
    let resolve = policy.resolve_stats();
    drop(policy);
    let hooks = sink.lock().expect("hook sink is never poisoned").clone();
    rec.hooks(e, &hooks);
    t.add_hooks(&hooks);

    let c = Counters {
        events: stats.n_events,
        plans: stats.n_plans,
        peak_active: stats.max_active,
        platform_events: trace.platform_events.len(),
        resolve,
        ..Default::default()
    };
    let r = rec.open("service.to_json", Some(root));
    let out = replay_out(spec, trace, n, stats, resolve);
    rec.close(r);
    Ok((out, c))
}

/// Traced sharded replay: wrapped policies handed to
/// [`ShardedEngine::replay_trace`]. The engine inside cannot be stepped
/// from outside, so each shard's engine span runs from its policy's
/// first hook call to its last.
fn sharded_traced(
    trace: &Trace,
    shards: usize,
    rec: &mut Recorder,
    root: usize,
    t: &mut Timings,
) -> Result<(PassOut, Counters), String> {
    let spec = swrpt();
    let s = rec.open("shard.replay_trace", Some(root));
    let mut se = ShardedEngine::new(trace.n_machines(), shards);
    let mut sinks = Vec::new();
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> = (0..se.n_shards())
        .map(|_| {
            let (p, sink) = Timed::new(spec.build());
            sinks.push(sink);
            Box::new(p) as Box<dyn OnlineScheduler + Send>
        })
        .collect();
    let counting = count_allocs();
    let stats = se
        .replay_trace(trace, &mut policies)
        .map_err(|e| e.to_string())?;
    drop(counting);
    rec.close(s);
    let resolve = policies
        .iter()
        .try_fold(ResolveStats::default(), |mut acc, p| {
            p.resolve_stats().map(|r| {
                acc.merge(&r);
                acc
            })
        });
    drop(policies);
    for sink in &sinks {
        let hooks = sink.lock().expect("hook sink is never poisoned").clone();
        if let Some(e) = rec.hook_window("engine.shard", Some(s), &hooks) {
            rec.hooks(e, &hooks);
        }
        t.add_hooks(&hooks);
    }

    let shard = |k: usize| se.shard(k);
    let c = Counters {
        events: stats.n_events,
        plans: stats.n_plans,
        peak_active: se.peak_active(),
        platform_events: trace.platform_events.len()
            - (0..se.n_shards())
                .map(|k| shard(k).platform_pending_len())
                .sum::<usize>(),
        resolve,
        shard_events: (0..se.n_shards()).map(|k| shard(k).n_events()).collect(),
        ..Default::default()
    };
    let r = rec.open("service.to_json", Some(root));
    let mut out = replay_out(&spec, trace, trace.len(), stats, resolve);
    rec.close(r);
    if se.n_completed() != trace.len() {
        let done = se.n_completed();
        out.problems
            .push(format!("{done} of {} requests completed", trace.len()));
    }
    Ok((out, c))
}

// --- Tournament re-drive ---------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign's per-scenario seed derivation.
fn scenario_seed(base: u64, pi: usize, wi: usize, k: u64) -> u64 {
    splitmix64(
        splitmix64(splitmix64(base.wrapping_add(pi as u64)).wrapping_add(wi as u64))
            .wrapping_add(k),
    )
}

/// One tournament chunk's results.
struct Chunk {
    records: Vec<RunRecord>,
    counters: Counters,
    timings: Timings,
    scenario_ns: u64,
}

/// A scenario's dyadic instance, built as the campaign builds it.
fn scenario_instance(
    cfg: &CampaignConfig,
    (pi, wi, k): (usize, usize, u64),
) -> Result<Instance<f64>, String> {
    let seed = scenario_seed(cfg.seed_base, pi, wi, k);
    let model = CostModel::paper_scale();
    let platform = cfg.platforms[pi].realize(splitmix64(seed ^ 0xA5A5_A5A5));
    let requests = cfg.workloads[wi].realize(&platform, &model, splitmix64(seed ^ 0x5A5A_5A5A));
    platform
        .instance_dyadic(&requests, &model, cfg.sig_bits)
        .map_err(|e| format!("scenario ({pi},{wi},{k}): {e}"))
}

/// Runs every scheduler on one scenario, with spans under `parent`.
fn scenario_traced(
    cfg: &CampaignConfig,
    (pi, wi, k): (usize, usize, u64),
    rec: &mut Recorder,
    parent: usize,
    out: &mut Chunk,
) -> Result<(), String> {
    let g = rec.open("gripps.realize", Some(parent));
    let base = scenario_instance(cfg, (pi, wi, k))?;
    rec.close(g);

    let c = rec.open("core.instance", Some(parent));
    let exact = base.to_exact_dyadic().with_stretch_weights();
    rec.close(c);
    let c = rec.open("core.exact_opt", Some(parent));
    let flow = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform);
    let opt_stretch = flow.optimum.to_f64();
    rec.close(c);
    out.counters.probes += flow.stats.n_probes;
    out.counters.milestones += flow.stats.n_milestones;
    let c = rec.open("core.instance", Some(parent));
    let sim_inst = if cfg.stretch_weights {
        base.with_stretch_weights()
    } else {
        base
    };
    rec.close(c);

    for spec in &cfg.schedulers {
        let (mut policy, sink) = Timed::new(spec.build());
        let counting = count_allocs();
        let e = rec.open("engine.simulate", Some(parent));
        let res = simulate(&sim_inst, &mut policy)
            .map_err(|e| format!("scenario ({pi},{wi},{k}) / {}: {e}", spec.label()))?;
        let m = RunMetrics::from_completions(&sim_inst, &res.completions);
        let utilization = res.utilization(&sim_inst);
        rec.close(e);
        drop(counting);
        if let Some(r) = policy.resolve_stats() {
            out.counters
                .resolve
                .get_or_insert_with(ResolveStats::default)
                .merge(&r);
        }
        drop(policy);
        let hooks = sink.lock().expect("hook sink is never poisoned").clone();
        rec.hooks(e, &hooks);
        out.timings.add_hooks(&hooks);
        out.counters.events += res.n_events;
        out.counters.plans += res.n_plans;
        out.records.push(RunRecord {
            platform: cfg.platforms[pi].name.clone(),
            workload: cfg.workloads[wi].name.clone(),
            seed: k,
            scheduler: spec.label(),
            max_stretch: m.max_stretch,
            sum_stretch: m.sum_stretch,
            makespan: m.makespan,
            utilization,
            max_weighted_flow: m.max_weighted_flow,
            opt_stretch,
            stretch_ratio: m.max_stretch / opt_stretch,
            n_events: res.n_events,
            n_plans: res.n_plans,
        });
    }
    Ok(())
}

fn run_chunk(
    cfg: &CampaignConfig,
    scenarios: &[(usize, usize, u64)],
    mut rec: Recorder,
) -> Result<(Chunk, Recorder), String> {
    let top = rec.open("campaign.chunk", None);
    let mut out = Chunk {
        records: Vec::new(),
        counters: Counters::default(),
        timings: Timings::default(),
        scenario_ns: 0,
    };
    for &sc in scenarios {
        let t0 = Instant::now();
        scenario_traced(cfg, sc, &mut rec, top, &mut out)?;
        out.scenario_ns += t0.elapsed().as_nanos() as u64;
    }
    rec.close(top);
    Ok((out, rec))
}

/// Traced tournament: the campaign's scenarios fanned out over the same
/// contiguous chunks the library's parallel runner uses (one per core,
/// inline below 16 scenarios), each scenario re-driven through the
/// `gripps`, `core` and `engine` public calls, then aggregated and
/// rendered.
fn tournament_traced(
    cfg: &CampaignConfig,
    rec: &mut Recorder,
    root: usize,
    t: &mut Timings,
) -> Result<(PassOut, Counters), String> {
    let mut scenarios = Vec::new();
    for pi in 0..cfg.platforms.len() {
        for wi in 0..cfg.workloads.len() {
            for k in 0..cfg.n_seeds {
                scenarios.push((pi, wi, k));
            }
        }
    }
    let n = scenarios.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, |v| v.get())
        .min(n.max(1));
    let fan = rec.open("campaign.fanout", Some(root));
    let chunks: Vec<Result<(Chunk, Recorder), String>> = if n < 16 || threads <= 1 {
        vec![run_chunk(cfg, &scenarios, rec.fork(0))]
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = scenarios
                .chunks(n.div_ceil(threads))
                .enumerate()
                .map(|(k, part)| {
                    let worker = rec.fork(k + 1);
                    s.spawn(move || run_chunk(cfg, part, worker))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("tournament worker panicked"))
                .collect()
        })
    };
    let mut runs = Vec::with_capacity(n * cfg.schedulers.len());
    let mut c = Counters::default();
    for chunk in chunks {
        let (chunk, worker) = chunk?;
        runs.extend(chunk.records);
        rec.adopt(worker, fan);
        t.merge(&chunk.timings);
        t.chunk_ns.push(chunk.scenario_ns);
        let k = chunk.counters;
        c.events += k.events;
        c.plans += k.plans;
        c.probes += k.probes;
        c.milestones += k.milestones;
        if let Some(r) = k.resolve {
            c.resolve
                .get_or_insert_with(ResolveStats::default)
                .merge(&r);
        }
    }
    rec.close(fan);

    let a = rec.open("campaign.aggregate", Some(root));
    let report = aggregate(cfg, runs, n);
    rec.close(a);
    let r = rec.open("campaign.render", Some(root));
    let out = tournament_out(&report);
    rec.close(r);
    Ok((out, c))
}

/// The campaign's aggregation: per-scheduler ratio statistics and the
/// head-to-head win matrix, over scenario-major `runs`.
fn aggregate(cfg: &CampaignConfig, runs: Vec<RunRecord>, n_scenarios: usize) -> CampaignReport {
    let labels: Vec<String> = cfg.schedulers.iter().map(|s| s.label()).collect();
    let ns = labels.len();
    let at = |sc: usize, si: usize| &runs[sc * ns + si];
    let aggregates = labels
        .iter()
        .enumerate()
        .map(|(si, label)| {
            let mut ratios: Vec<f64> = (0..n_scenarios)
                .map(|sc| at(sc, si).stretch_ratio)
                .collect();
            ratios.sort_by(|a, b| a.total_cmp(b));
            let mean_of = |f: &dyn Fn(&RunRecord) -> f64| {
                (0..n_scenarios).map(|sc| f(at(sc, si))).sum::<f64>() / n_scenarios as f64
            };
            SchedulerAggregate {
                scheduler: label.clone(),
                mean_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
                median_ratio: ratios[ratios.len() / 2],
                p95_ratio: ratios[((ratios.len() as f64 * 0.95).ceil() as usize).max(1) - 1],
                worst_ratio: ratios[ratios.len() - 1],
                mean_max_stretch: mean_of(&|r| r.max_stretch),
                mean_sum_stretch: mean_of(&|r| r.sum_stretch),
                mean_makespan: mean_of(&|r| r.makespan),
                mean_utilization: mean_of(&|r| r.utilization),
            }
        })
        .collect();
    let mut win_matrix = vec![vec![0usize; ns]; ns];
    for sc in 0..n_scenarios {
        for (a, row) in win_matrix.iter_mut().enumerate() {
            for (b, wins) in row.iter_mut().enumerate() {
                if a != b && at(sc, a).max_stretch < at(sc, b).max_stretch - 1e-9 {
                    *wins += 1;
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

#[cfg(test)]
mod tests {
    //! The timing adapter is transparent: on small instances of every
    //! workload, wrapped and bare policies give bit-identical completions,
    //! event and plan counts and re-solve telemetry, and every traced pass
    //! renders exactly the untraced pass's reports.
    use super::*;
    use dlflow_sim::workload::replay_with_sink;

    type Run = (Vec<(usize, u64)>, usize, usize, Option<ResolveStats>);

    fn traced(w: &Workload) -> PassOut {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("pass", None);
        let (out, _, _) = w.traced_pass(&mut rec, root).expect("traced pass");
        rec.close(root);
        out
    }

    fn replay(trace: &Trace, policy: &mut dyn OnlineScheduler) -> Run {
        let mut done = Vec::new();
        let s = replay_with_sink(trace, policy, |c| done.push((c.id, c.completion.to_bits())))
            .expect("replay");
        (done, s.n_events, s.n_plans, policy.resolve_stats())
    }

    #[test]
    fn wrapped_trace_replays_match_bare_ones() {
        for (name, spec) in [("stream-swrpt", swrpt()), ("ola-online", ola())] {
            let w = Workload::setup(name, 3, &Sizes::SMALL).unwrap();
            let trace = match &w {
                Workload::Stream { dlt, .. } => Trace::parse_dlt(dlt).unwrap(),
                Workload::Ola { input } => open_trace(input).clone(),
                _ => unreachable!(),
            };
            let bare = replay(&trace, spec.build().as_mut());
            let (mut timed, _) = Timed::new(spec.build());
            assert_eq!(replay(&trace, &mut timed), bare, "{name}");
            assert!(bare.0.len() == trace.len() && bare.3.is_some() == (name == "ola-online"));
            assert_eq!(traced(&w), w.pass().unwrap(), "{name}");
        }
    }

    #[test]
    fn wrapped_tournament_runs_match_bare_ones() {
        let w = Workload::setup("tournament", 0, &Sizes::SMALL).unwrap();
        let Workload::Tournament { cfg } = &w else {
            unreachable!()
        };
        for k in 0..cfg.n_seeds {
            let inst = scenario_instance(cfg, (0, 0, k))
                .unwrap()
                .with_stretch_weights();
            for spec in &cfg.schedulers {
                let mut bare = spec.build();
                let want = simulate(&inst, bare.as_mut()).unwrap();
                let (mut timed, _) = Timed::new(spec.build());
                let got = simulate(&inst, &mut timed).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.completions), bits(&want.completions));
                assert_eq!((got.n_events, got.n_plans), (want.n_events, want.n_plans));
                assert_eq!(timed.resolve_stats(), bare.resolve_stats());
            }
        }
        let out = w.pass().unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(traced(&w), out);
    }

    #[test]
    fn wrapped_sharded_federation_matches_bare_one() {
        let w = Workload::setup("federation-faults", 5, &Sizes::SMALL).unwrap();
        let Workload::Federation { input, shards } = &w else {
            unreachable!()
        };
        let trace = open_trace(input);
        assert!(!trace.platform_events.is_empty());
        let run = |wrap: bool| {
            let mut se = ShardedEngine::new(trace.n_machines(), *shards);
            se.set_record_completions(true);
            for e in &trace.platform_events {
                se.push_platform_event(*e).unwrap();
            }
            for k in 0..trace.len() {
                se.push_arrival(trace.job_spec(k)).unwrap();
            }
            let mut policies: Vec<Box<dyn OnlineScheduler + Send>> = (0..se.n_shards())
                .map(|_| match wrap {
                    true => Box::new(Timed::new(swrpt().build()).0) as Box<_>,
                    false => swrpt().build(),
                })
                .collect();
            se.drain(&mut policies).unwrap();
            let done: Vec<(usize, u64)> = se
                .take_completed()
                .iter()
                .map(|c| (c.id, c.completion.to_bits()))
                .collect();
            let per_shard: Vec<usize> =
                (0..se.n_shards()).map(|s| se.shard(s).n_events()).collect();
            (done, se.n_plans(), per_shard)
        };
        let bare = run(false);
        assert_eq!(bare.0.len(), trace.len());
        assert_eq!(run(true), bare);
        assert_eq!(traced(&w), w.pass().unwrap());
    }
}
