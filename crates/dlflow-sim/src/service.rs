//! The replayable `simulate` service: one entry point that runs any
//! scheduler over either a **closed instance** or an **open-arrival
//! trace** and renders a deterministic report — the library half of the
//! `dlflow simulate` CLI subcommand.
//!
//! Reports are plain data plus hand-rendered JSON (the offline
//! dependency set has no serde): the same input always produces
//! byte-identical output, so a `dlflow simulate` invocation is a
//! reproducible, replayable record of a run.
//!
//! ## Example
//!
//! ```
//! use dlflow_sim::campaign::SchedulerSpec;
//! use dlflow_sim::service::{run_simulation, SimInput};
//! use dlflow_sim::workload::{generate_trace, TraceSpec};
//!
//! let trace = generate_trace(&TraceSpec { n_requests: 30, ..Default::default() });
//! let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
//! let report = run_simulation(&SimInput::Open(trace), &spec).unwrap();
//! assert_eq!(report.n_jobs, 30);
//! assert!(report.to_json().contains("\"scheduler\": \"SWRPT\""));
//! ```

use crate::campaign::{f6, SchedulerSpec};
use crate::engine::{
    CompletedJob, Engine, OnlineScheduler, PlatformEvent, ResolveStats, RunMetrics, SimError,
};
use crate::shard::ShardedEngine;
use crate::workload::{stream_arrivals, FaultProcess, Trace};
use dlflow_core::instance::Instance;

/// What to simulate: a closed instance (all jobs known up front) or an
/// open-arrival trace (requests streamed through the incremental
/// engine).
pub enum SimInput {
    /// A closed instance — every job pushed at start, per-job
    /// completions reported.
    Closed(Instance<f64>),
    /// An open trace — replayed with memory proportional to the
    /// in-flight request count.
    Open(Trace),
}

/// Outcome of one service run: counters plus metrics, rendering to text
/// and deterministic JSON.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Scheduler label (the policy's self-reported name).
    pub scheduler: String,
    /// `"instance"` or `"trace"`.
    pub input_kind: &'static str,
    /// Jobs simulated.
    pub n_jobs: usize,
    /// Machines.
    pub n_machines: usize,
    /// Events processed.
    pub n_events: usize,
    /// `plan` invocations.
    pub n_plans: usize,
    /// Run metrics.
    pub metrics: RunMetrics,
    /// Fleet utilization over `[first release, makespan]`.
    pub utilization: f64,
    /// Largest number of simultaneously in-flight jobs: the engine's peak
    /// active set, for closed instances and trace replays alike (since
    /// the snapshot, for a resumed run; the sum of the shards' peaks, an
    /// upper bound, for a sharded one).
    pub max_active: usize,
    /// Per-job completion times (closed instances only; empty for
    /// trace replays, which stream completions instead of storing them).
    pub completions: Vec<f64>,
    /// Re-solve cost telemetry, for policies that report it (OLA and
    /// its variants); `None` for policies that do no LP re-solving.
    /// Sharded runs aggregate across shards.
    pub resolve_stats: Option<ResolveStats>,
}

/// Fault injection requested on the command line: a seeded MTBF/MTTR
/// process layered on top of whatever platform events the input already
/// carries. `until` bounds the failure window; when `None` it defaults
/// to the input's own span (last release, plus the serial work for
/// closed instances).
#[derive(Clone, Debug)]
pub struct FaultInjection {
    /// Mean time between failures, seconds.
    pub mtbf: f64,
    /// Mean time to repair, seconds.
    pub mttr: f64,
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Failure-window end (`None` = derive from the input).
    pub until: Option<f64>,
}

/// Optional service behaviors behind `dlflow simulate`'s fault and
/// snapshot flags. [`Default`] is the plain run.
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Inject a seeded failure/recovery schedule. One whose `mtbf`,
    /// `mttr` or `until` is not positive and finite, or that expects more
    /// than 2²⁰ failures (machines × failure window ÷ `mtbf`), is refused
    /// before it is sampled.
    pub faults: Option<FaultInjection>,
    /// Take one snapshot when the engine's event counter first reaches
    /// this value (the run still continues to completion).
    pub snapshot_at: Option<usize>,
    /// Resume from this snapshot text instead of starting at `t = 0`.
    /// The snapshot carries the engine + scheduler state and the arrivals
    /// pushed so far; its cursor (`next_id`) may not pass the input's
    /// requests. An open trace's requests from the cursor on are read
    /// from the input, after checking that the snapshot's pending and
    /// active jobs are the input's; a closed instance's snapshot must
    /// have pushed every job.
    pub resume: Option<String>,
    /// Partition the platform into this many contiguous machine shards,
    /// each drained by its own engine + scheduler instance (`0` and `1`
    /// both mean the flat single-engine path). Sharding is incompatible
    /// with snapshot/resume — the snapshot format covers one engine.
    pub shards: usize,
}

/// Default failure window of an input: everything after the last
/// release (plus, for closed instances, the serial work on the fastest
/// machines) counts as the drain phase and stays fault-free.
fn default_horizon(input: &SimInput) -> f64 {
    match input {
        SimInput::Closed(inst) => {
            let max_release = (0..inst.n_jobs())
                .map(|j| inst.job(j).release)
                .fold(0.0f64, f64::max);
            let serial: f64 = (0..inst.n_jobs()).map(|j| inst.fastest_cost(j)).sum();
            max_release + serial
        }
        SimInput::Open(trace) => trace
            .arrivals
            .iter()
            .map(|a| a.release)
            .fold(0.0f64, f64::max),
    }
}

fn input_machines(input: &SimInput) -> usize {
    match input {
        SimInput::Closed(inst) => inst.n_machines(),
        SimInput::Open(trace) => trace.n_machines(),
    }
}

/// Most failures a `--faults` schedule may expect, `n_machines · horizon
/// / mtbf`. The sampler holds about two events per failure before the
/// run starts, so 2²⁰ failures bound it to about 50 MB; the schedules in
/// this tree's tests and docs expect a few thousand at most.
const MAX_EXPECTED_FAILURES: f64 = 1_048_576.0;

/// The platform events a fresh run pushes, in push order: the trace's
/// own, then the `--faults` schedule (same-time events apply in push
/// order). The schedule's parameters are checked here, before they are
/// sampled.
fn platform_events(input: &SimInput, opts: &SimOptions) -> Result<Vec<PlatformEvent>, String> {
    let mut events = match input {
        SimInput::Closed(_) => Vec::new(),
        SimInput::Open(trace) => trace.platform_events.clone(),
    };
    if let Some(f) = &opts.faults {
        if !(f.mtbf > 0.0 && f.mtbf.is_finite() && f.mttr > 0.0 && f.mttr.is_finite()) {
            return Err("--faults: mtbf and mttr must be positive and finite".into());
        }
        if f.until.is_some_and(|u| !(u > 0.0 && u.is_finite())) {
            return Err("--faults: until must be positive and finite".into());
        }
        let horizon = f.until.unwrap_or_else(|| default_horizon(input));
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err("--faults: the failure window is empty (set until=<t>)".into());
        }
        let n = input_machines(input);
        let expected = n as f64 * horizon / f.mtbf;
        if expected.is_nan() || expected > MAX_EXPECTED_FAILURES {
            return Err(format!(
                "--faults: {n} machines over {horizon} s at mtbf {} s expect {expected:.0} \
                 failures, more than the {MAX_EXPECTED_FAILURES} a schedule may hold",
                f.mtbf
            ));
        }
        let process = FaultProcess {
            mtbf: f.mtbf,
            mttr: f.mttr,
            horizon,
            seed: f.seed,
        };
        events.extend(process.sample(n));
    }
    Ok(events)
}

/// Completion times in job-id order.
fn completion_times(mut done: Vec<CompletedJob>) -> Vec<f64> {
    done.sort_unstable_by_key(|c| c.id);
    done.into_iter().map(|c| c.completion).collect()
}

/// Why a run stopped: the engine refused a step, or the service refused
/// an option or input (a message worded in full).
enum RunError {
    Engine(SimError),
    Refused(String),
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Engine(e)
    }
}

impl From<String> for RunError {
    fn from(msg: String) -> Self {
        RunError::Refused(msg)
    }
}

/// A run's outcome inside the service: the report and, if one was
/// requested and taken, the snapshot text.
type Run = Result<(ServiceReport, Option<String>), RunError>;

/// Runs `spec`'s scheduler over the input with fault-injection and
/// snapshot/resume options. Returns the report plus the snapshot text,
/// if one was requested and taken. The plain-options path is exactly
/// [`run_simulation`]. An open trace always streams its arrivals, so a
/// snapshot holds only those the feed has pushed; a closed instance
/// pushes every job up front.
///
/// Every path words an engine error the same way, behind the scheduler's
/// label: `SWRPT: simulation stalled at t = …`.
pub fn run_simulation_with(
    input: &SimInput,
    spec: &SchedulerSpec,
    opts: &SimOptions,
) -> Result<(ServiceReport, Option<String>), String> {
    run_unlabelled(input, spec, opts).map_err(|e| match e {
        RunError::Engine(e) => format!("{}: {e}", spec.label()),
        RunError::Refused(msg) => msg,
    })
}

/// [`run_simulation_with`], before its errors are worded. One flat path
/// whatever the options: a snapshot splits the run at its event count.
fn run_unlabelled(input: &SimInput, spec: &SchedulerSpec, opts: &SimOptions) -> Run {
    if opts.resume.is_some() && opts.faults.is_some() {
        return Err(RunError::Refused(
            "--resume and --faults cannot be combined: the snapshot already carries its \
             fault schedule"
                .into(),
        ));
    }
    if opts.shards > 1 {
        if opts.resume.is_some() || opts.snapshot_at.is_some() {
            return Err(RunError::Refused(
                "--shards: snapshot and resume cover a single engine; rerun without sharding"
                    .into(),
            ));
        }
        return run_sharded(input, spec, opts);
    }
    let mut policy = spec.build();
    let m = input_machines(input);
    let mut eng = if let Some(snap) = &opts.resume {
        let n = match input {
            SimInput::Closed(inst) => inst.n_jobs(),
            SimInput::Open(trace) => trace.len(),
        };
        let eng =
            Engine::restore(snap, policy.as_mut(), n).map_err(|e| format!("--resume: {e}"))?;
        if eng.n_machines() != m {
            return Err(RunError::Refused(format!(
                "--resume: snapshot has {} machines but the input has {m}",
                eng.n_machines()
            )));
        }
        check_cursor(&eng, input)?;
        eng
    } else {
        policy.reset();
        let mut eng = Engine::new(m);
        for e in platform_events(input, opts)? {
            eng.push_platform_event(e)?;
        }
        eng.record_completions = matches!(input, SimInput::Closed(_));
        if let SimInput::Closed(inst) = input {
            for j in 0..inst.n_jobs() {
                eng.push_arrival(crate::engine::job_spec_of(inst, j))?;
            }
        }
        eng
    };

    // Runs until the engine has taken `stop` events or is done: an open
    // trace streams from the engine's cursor, a closed instance drains.
    let run = |eng: &mut Engine, policy: &mut dyn OnlineScheduler, stop| match input {
        SimInput::Closed(_) => eng.drain_until(policy, stop),
        SimInput::Open(trace) => stream_arrivals(trace, None, 0, eng, policy, None, stop),
    };
    // A snapshot point past the final event degenerates to the end state.
    let snapshot = match opts.snapshot_at {
        Some(at) => {
            run(&mut eng, policy.as_mut(), at)?;
            Some(eng.snapshot(policy.as_ref()))
        }
        None => None,
    };
    run(&mut eng, policy.as_mut(), usize::MAX)?;

    let (kind, completions) = match input {
        SimInput::Closed(_) if opts.resume.is_none() => {
            ("instance", completion_times(eng.take_completed()))
        }
        SimInput::Closed(_) => ("instance", Vec::new()),
        SimInput::Open(_) => ("trace", Vec::new()),
    };
    let report = ServiceReport {
        scheduler: spec.label(),
        input_kind: kind,
        n_jobs: eng.n_completed(),
        n_machines: m,
        n_events: eng.n_events(),
        n_plans: eng.n_plans(),
        utilization: eng.utilization(),
        metrics: eng.metrics(),
        max_active: eng.peak_active(),
        completions,
        resolve_stats: policy.resolve_stats(),
    };
    Ok((report, snapshot))
}

/// Refuses a snapshot that the input does not continue; restore has
/// kept its cursor (`next_id`) within the input. A closed run pushes
/// every job before it steps, so its snapshot has pushed them all. Of an
/// open trace, the pending arrivals must be the last ones pushed, and
/// each pending and active job the trace's, bit for bit.
fn check_cursor(eng: &Engine, input: &SimInput) -> Result<(), String> {
    let cursor = eng.n_pushed();
    let trace = match input {
        SimInput::Closed(inst) if cursor < inst.n_jobs() => {
            return Err(format!(
                "--resume: snapshot has pushed {cursor} of the instance's {} jobs, not all",
                inst.n_jobs()
            ));
        }
        SimInput::Closed(_) => return Ok(()),
        SimInput::Open(trace) => trace,
    };
    // Restore keeps ids below `next_id` and distinct, so this is the
    // pending set exactly when no id falls short of it.
    let first = cursor - eng.pending_len();
    if let Some((id, ..)) = eng.pending_entries().find(|&(id, ..)| id < first) {
        return Err(format!(
            "--resume: pending request {id} is not among the last {} pushed",
            eng.pending_len()
        ));
    }
    let bits = |r: f64, w: f64, c: &[f64]| -> Vec<u64> {
        [r, w].iter().chain(c).map(|x| x.to_bits()).collect()
    };
    let active = eng
        .active_entries()
        .map(|(id, _, release, weight, costs, _)| (id, release, weight, costs));
    for (id, release, weight, costs) in eng.pending_entries().chain(active) {
        let want = trace.job_spec(id);
        if bits(release, weight, costs) != bits(want.release, want.weight, &want.costs) {
            return Err(format!(
                "--resume: request {id} of the snapshot differs from the input's"
            ));
        }
    }
    Ok(())
}

/// The multi-cluster path behind `--shards N`: one [`ShardedEngine`]
/// over the input's machines, one scheduler instance per shard, faults
/// routed by global machine index after the trace's own events. Closed
/// instances push every job up front and report per-job completions from
/// the deterministic merged stream; open traces stream their arrivals
/// through [`ShardedEngine::replay_trace`]'s feed.
fn run_sharded(input: &SimInput, spec: &SchedulerSpec, opts: &SimOptions) -> Run {
    let m = input_machines(input);
    let mut se = ShardedEngine::new(m, opts.shards);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| spec.build()).collect();
    for e in platform_events(input, opts)? {
        se.push_platform_event(e)?;
    }
    let (kind, n_jobs, completions) = match input {
        SimInput::Closed(inst) => {
            se.set_record_completions(true);
            for j in 0..inst.n_jobs() {
                se.push_arrival(crate::engine::job_spec_of(inst, j))?;
            }
            se.drain(&mut policies)?;
            (
                "instance",
                inst.n_jobs(),
                completion_times(se.take_completed()),
            )
        }
        SimInput::Open(trace) => {
            se.stream_trace(trace, &mut policies)?;
            ("trace", trace.len(), Vec::new())
        }
    };
    let report = ServiceReport {
        scheduler: spec.label(),
        input_kind: kind,
        n_jobs,
        n_machines: m,
        n_events: se.n_events(),
        n_plans: se.n_plans(),
        utilization: se.utilization(),
        metrics: se.metrics(),
        max_active: se.peak_active(),
        completions,
        // Aggregate across shards; a single shard without telemetry
        // means the policy kind reports none at all.
        resolve_stats: policies
            .iter()
            .try_fold(ResolveStats::default(), |mut acc, p| {
                p.resolve_stats().map(|s| {
                    acc.merge(&s);
                    acc
                })
            }),
    };
    Ok((report, None))
}

/// Runs `spec`'s scheduler over the input: [`run_simulation_with`] with
/// the default options. A closed instance pushes every job up front and
/// drains the engine, which is what [`crate::engine::simulate`] does; an
/// open trace streams its arrivals as [`Trace::replay`] does.
pub fn run_simulation(input: &SimInput, spec: &SchedulerSpec) -> Result<ServiceReport, String> {
    run_simulation_with(input, spec, &SimOptions::default()).map(|(report, _)| report)
}

impl ServiceReport {
    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let m = &self.metrics;
        let mut s = String::new();
        s.push_str(&format!(
            "{} over {} ({} jobs, {} machines)\n",
            self.scheduler, self.input_kind, self.n_jobs, self.n_machines
        ));
        s.push_str(&format!(
            "  events: {}   plans: {}   utilization: {:.3}",
            self.n_events, self.n_plans, self.utilization
        ));
        if self.max_active > 0 {
            s.push_str(&format!("   peak in-flight: {}", self.max_active));
        }
        s.push('\n');
        if let Some(rs) = &self.resolve_stats {
            s.push_str(&format!(
                "  re-solves: {}   LP solves: {}   mean LP/resolve: {:.2}\n",
                rs.n_resolves,
                rs.lp_solves(),
                rs.mean_lp_solves_per_resolve()
            ));
        }
        s.push_str(&format!(
            "  max stretch: {:.6}   sum stretch: {:.6}\n",
            m.max_stretch, m.sum_stretch
        ));
        s.push_str(&format!(
            "  max flow: {:.6}   mean flow: {:.6}   max weighted flow: {:.6}\n",
            m.max_flow, m.mean_flow, m.max_weighted_flow
        ));
        s.push_str(&format!("  makespan: {:.6}\n", m.makespan));
        s
    }

    /// Deterministic machine-readable JSON (same input → byte-identical
    /// bytes; no serde in the offline dependency set).
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scheduler\": \"{}\",\n", self.scheduler));
        s.push_str(&format!("  \"input\": \"{}\",\n", self.input_kind));
        s.push_str(&format!("  \"n_jobs\": {},\n", self.n_jobs));
        s.push_str(&format!("  \"n_machines\": {},\n", self.n_machines));
        s.push_str(&format!("  \"n_events\": {},\n", self.n_events));
        s.push_str(&format!("  \"n_plans\": {},\n", self.n_plans));
        if let Some(rs) = &self.resolve_stats {
            s.push_str(&format!("  \"n_resolves\": {},\n", rs.n_resolves));
            s.push_str(&format!("  \"lp_solves\": {},\n", rs.lp_solves()));
            s.push_str(&format!(
                "  \"mean_lp_solves_per_resolve\": {},\n",
                f6(rs.mean_lp_solves_per_resolve())
            ));
        }
        s.push_str(&format!("  \"max_active\": {},\n", self.max_active));
        s.push_str(&format!("  \"utilization\": {},\n", f6(self.utilization)));
        s.push_str(&format!("  \"max_stretch\": {},\n", f6(m.max_stretch)));
        s.push_str(&format!("  \"sum_stretch\": {},\n", f6(m.sum_stretch)));
        s.push_str(&format!("  \"max_flow\": {},\n", f6(m.max_flow)));
        s.push_str(&format!("  \"mean_flow\": {},\n", f6(m.mean_flow)));
        s.push_str(&format!(
            "  \"max_weighted_flow\": {},\n",
            f6(m.max_weighted_flow)
        ));
        s.push_str(&format!("  \"makespan\": {}", f6(m.makespan)));
        if self.completions.is_empty() {
            s.push('\n');
        } else {
            s.push_str(",\n  \"completions\": [");
            for (j, c) in self.completions.iter().enumerate() {
                let comma = if j + 1 == self.completions.len() {
                    ""
                } else {
                    ", "
                };
                s.push_str(&format!("{}{comma}", f6(*c)));
            }
            s.push_str("]\n");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, generate_trace, TraceSpec, WorkloadSpec};

    #[test]
    fn closed_and_open_runs_report_consistently() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 30,
            seed: 4,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("srpt").unwrap();
        let open = run_simulation(&SimInput::Open(trace.clone()), &spec).unwrap();
        let closed =
            run_simulation(&SimInput::Closed(trace.to_instance().unwrap()), &spec).unwrap();
        assert_eq!(open.n_events, closed.n_events);
        assert_eq!(open.n_plans, closed.n_plans);
        assert!((open.metrics.max_stretch - closed.metrics.max_stretch).abs() < 1e-9);
        assert_eq!(open.completions.len(), 0);
        assert_eq!(closed.completions.len(), 30);
        assert!(open.max_active >= 1);
    }

    #[test]
    fn faults_that_expect_more_than_two_to_the_twenty_failures_are_refused() {
        // Two machines at an mtbf of 1 s: a 2¹⁹ s window expects 2²⁰
        // failures. A repair longer than any window keeps each machine to
        // one failure, so what is sampled stays small on either side.
        let input = SimInput::Open(generate_trace(&TraceSpec {
            n_requests: 5,
            n_machines: 2,
            ..Default::default()
        }));
        let opts = |until: f64| SimOptions {
            faults: Some(FaultInjection {
                mtbf: 1.0,
                mttr: 1e12,
                seed: 1,
                until: Some(until),
            }),
            ..Default::default()
        };
        for until in [524_287.5, 524_288.0] {
            assert_eq!(platform_events(&input, &opts(until)).unwrap().len(), 4);
        }
        let err = platform_events(&input, &opts(524_288.5)).unwrap_err();
        assert_eq!(
            err,
            "--faults: 2 machines over 524288.5 s at mtbf 1 s expect 1048577 failures, \
             more than the 1048576 a schedule may hold"
        );
    }

    #[test]
    fn sharded_runs_refuse_snapshot_and_resume() {
        // A snapshot document captures one engine; no sharded one exists.
        let input = SimInput::Open(generate_trace(&TraceSpec {
            n_requests: 5,
            ..Default::default()
        }));
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let snapshot = SimOptions {
            shards: 2,
            snapshot_at: Some(3),
            ..Default::default()
        };
        let resume = SimOptions {
            shards: 2,
            resume: Some(String::new()),
            ..Default::default()
        };
        for opts in [snapshot, resume] {
            assert_eq!(
                run_simulation_with(&input, &spec, &opts).unwrap_err(),
                "--shards: snapshot and resume cover a single engine; rerun without sharding"
            );
        }
    }

    #[test]
    fn fault_parameters_are_checked_before_they_are_sampled() {
        // Unchecked, each of these reaches `FaultProcess::sample`'s
        // assertion and panics.
        let input = SimInput::Open(generate_trace(&TraceSpec {
            n_requests: 5,
            ..Default::default()
        }));
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let run = |mtbf: f64, mttr: f64, until: Option<f64>| {
            let opts = SimOptions {
                faults: Some(FaultInjection {
                    mtbf,
                    mttr,
                    seed: 1,
                    until,
                }),
                ..Default::default()
            };
            run_simulation_with(&input, &spec, &opts).unwrap_err()
        };
        for (mtbf, mttr) in [(-1.0, 20.0), (300.0, -1.0), (300.0, 0.0), (300.0, f64::NAN)] {
            assert_eq!(
                run(mtbf, mttr, None),
                "--faults: mtbf and mttr must be positive and finite"
            );
        }
        for until in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert_eq!(
                run(300.0, 20.0, Some(until)),
                "--faults: until must be positive and finite"
            );
        }
    }

    #[test]
    fn fault_injection_with_snapshot_resume_matches_the_straight_run() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 25,
            seed: 11,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let opts = SimOptions {
            faults: Some(FaultInjection {
                mtbf: 6.0,
                mttr: 1.5,
                seed: 3,
                until: None,
            }),
            snapshot_at: Some(20),
            resume: None,
            shards: 0,
        };
        let input = SimInput::Open(trace);
        let (full, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert_eq!(full.n_jobs, 25);
        let snap = snap.expect("snapshot taken");

        // Resuming the snapshot finishes the same run: identical final
        // event count and bit-identical metrics.
        let resume = SimOptions {
            resume: Some(snap.clone()),
            ..Default::default()
        };
        let (resumed, none) = run_simulation_with(&input, &spec, &resume).unwrap();
        assert!(none.is_none());
        assert_eq!(resumed.n_jobs, 25);
        assert_eq!(resumed.n_events, full.n_events);
        assert_eq!(
            resumed.metrics.makespan.to_bits(),
            full.metrics.makespan.to_bits()
        );
        assert_eq!(
            resumed.metrics.max_stretch.to_bits(),
            full.metrics.max_stretch.to_bits()
        );

        // Resuming into a different scheduler kind is a typed refusal,
        // and --resume + --faults cannot be combined.
        let edf = SchedulerSpec::parse_compact("edf").unwrap();
        let err = run_simulation_with(&input, &edf, &resume).unwrap_err();
        assert!(err.contains("cannot restore into"), "{err}");
        let both = SimOptions {
            faults: opts.faults.clone(),
            resume: Some(snap),
            ..Default::default()
        };
        let err = run_simulation_with(&input, &spec, &both).unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    const SPECS: [&str; 8] = ["mct", "fifo", "srpt", "swrpt", "rr", "wage", "edf", "ola"];

    /// A 40-request trace on 3 machines, with or without its own faults.
    fn small_trace(seed: u64, faulty: bool) -> Trace {
        generate_trace(&TraceSpec {
            n_requests: 40,
            n_machines: 3,
            seed,
            faults: faulty.then_some(FaultProcess {
                mtbf: 8.0,
                mttr: 2.0,
                horizon: 20.0,
                seed: seed ^ 0xFA,
            }),
            ..Default::default()
        })
    }

    /// The value of a snapshot's `key <n>` line.
    fn count(snap: &str, key: &str) -> usize {
        snap.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
            .unwrap()
    }

    /// `resumed` with the straight run's `max_active` (a resumed run
    /// counts its peak since the snapshot), as JSON.
    fn but_max_active(resumed: &ServiceReport, straight: &ServiceReport) -> String {
        let mut r = resumed.clone();
        r.max_active = straight.max_active;
        r.to_json()
    }

    /// A streamed snapshot holds only the arrivals the feed pushed: none
    /// released past the earliest pending one + 1e-9, nor lines beyond
    /// the fixed 19, pending, active (twice under faults), queued
    /// platform events and state.
    fn assert_streamed_shape(snap: &str) {
        let releases: Vec<f64> = snap
            .lines()
            .filter_map(|l| l.strip_prefix("arrival "))
            .map(|l| f64::from_bits(u64::from_str_radix(l.split(' ').nth(1).unwrap(), 16).unwrap()))
            .collect();
        let first = releases.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(releases.iter().all(|&r| r <= first + 1e-9), "{snap}");
        let faulty = count(snap, "faulty");
        let bound = 19
            + count(snap, "pending")
            + count(snap, "active") * (1 + faulty)
            + count(snap, "platform")
            + count(snap, "state");
        assert_eq!(snap.lines().count(), bound, "{snap}");
    }

    #[test]
    fn chained_resumes_reproduce_the_straight_run_for_every_policy() {
        // Every 7 events: snapshot, resume it with the next point. Each
        // resumed run finishes the trace with the straight run's report.
        for (name, faulty, inject) in SPECS.iter().flat_map(|n| {
            [
                (n, false, false),
                (n, false, true),
                (n, true, false),
                (n, true, true),
            ]
        }) {
            let spec = SchedulerSpec::parse_compact(name).unwrap();
            let input = SimInput::Open(small_trace(21, faulty));
            let faults = inject.then_some(FaultInjection {
                mtbf: 6.0,
                mttr: 1.5,
                seed: 8,
                until: None,
            });
            let plain = SimOptions {
                faults: faults.clone(),
                ..Default::default()
            };
            let (straight, _) = run_simulation_with(&input, &spec, &plain).unwrap();
            let mut opts = SimOptions {
                snapshot_at: Some(7),
                ..plain
            };
            let mut n_resumes = 0;
            loop {
                let (report, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
                assert_eq!(but_max_active(&report, &straight), straight.to_json());
                let snap = snap.unwrap();
                assert_streamed_shape(&snap);
                let at = count(&snap, "n_events");
                if at == straight.n_events {
                    break;
                }
                n_resumes += 1;
                opts = SimOptions {
                    snapshot_at: Some(at + 7),
                    resume: Some(snap),
                    ..Default::default()
                };
            }
            assert!(n_resumes >= 10, "{name}: {n_resumes} resumes");
        }
    }

    #[test]
    fn a_snapshot_of_a_push_all_run_resumes_through_the_service() {
        // The shape a v1 document had when the service pushed every
        // arrival: all unreleased requests pending, `next_id` = n.
        for (name, faulty) in SPECS.iter().flat_map(|n| [(n, false), (n, true)]) {
            let spec = SchedulerSpec::parse_compact(name).unwrap();
            let trace = small_trace(22, faulty);
            let input = SimInput::Open(trace.clone());
            let straight = run_simulation(&input, &spec).unwrap();
            for at in [0, 5, 60, usize::MAX] {
                let mut policy = spec.build();
                let mut eng = Engine::new(trace.n_machines());
                for e in &trace.platform_events {
                    eng.push_platform_event(*e).unwrap();
                }
                eng.record_completions = false;
                for k in 0..trace.len() {
                    eng.push_arrival(trace.job_spec(k)).unwrap();
                }
                eng.drain_until(policy.as_mut(), at).unwrap();
                let resume = SimOptions {
                    resume: Some(eng.snapshot(policy.as_ref())),
                    ..Default::default()
                };
                let (resumed, _) = run_simulation_with(&input, &spec, &resume).unwrap();
                assert_eq!(but_max_active(&resumed, &straight), straight.to_json());
            }
        }
    }

    /// A streamed snapshot of `input` under SWRPT that holds a pending
    /// and an active request.
    fn mid_run_snapshot(input: &SimInput) -> String {
        (1..100)
            .map(|at| {
                let opts = SimOptions {
                    snapshot_at: Some(at),
                    ..Default::default()
                };
                run_simulation_with(input, &SchedulerSpec::Swrpt, &opts)
                    .unwrap()
                    .1
                    .unwrap()
            })
            .find(|snap| count(snap, "pending") > 0 && count(snap, "active") > 0)
            .expect("a point with both")
    }

    #[test]
    fn resume_refuses_a_snapshot_that_does_not_continue_the_input() {
        let trace = small_trace(23, false);
        let snap = mid_run_snapshot(&SimInput::Open(trace.clone()));
        let cursor = count(&snap, "next_id");
        let resume = |trace: &Trace, snap: &str| {
            let opts = SimOptions {
                resume: Some(snap.to_string()),
                ..Default::default()
            };
            run_simulation_with(&SimInput::Open(trace.clone()), &SchedulerSpec::Swrpt, &opts)
        };

        // A trace shorter than the cursor: refused at the `next_id` line.
        let mut short = trace.clone();
        short.arrivals.truncate(cursor - 1);
        short.avail.truncate((cursor - 1) * trace.n_machines());
        let err = resume(&short, &snap).unwrap_err();
        let want = format!(
            "--resume: malformed snapshot at line 4: next_id {cursor} passes the input's {} \
             requests",
            cursor - 1
        );
        assert_eq!(err, want);

        // Pending requests that are not the last ones pushed.
        let skipped = snap.replace(
            &format!("\nnext_id {cursor}\n"),
            &format!("\nnext_id {}\n", cursor + 1),
        );
        let err = resume(&trace, &skipped).unwrap_err();
        assert!(err.contains("is not among the last"), "{err}");

        // An in-flight request that differs: the active one's weight,
        // the pending one's size.
        for kind in ["job ", "arrival "] {
            let id: usize = snap
                .lines()
                .find_map(|l| l.strip_prefix(kind)?.split(' ').next()?.parse().ok())
                .unwrap();
            let mut other = trace.clone();
            if kind == "job " {
                other.arrivals[id].weight += 1.0;
            } else {
                other.arrivals[id].size *= 1.5;
            }
            let err = resume(&other, &snap).unwrap_err();
            let want = format!("--resume: request {id} of the snapshot differs from the input's");
            assert_eq!(err, want);
        }

        // A trace that differs only after the cursor resumes, and the
        // run continues with the input's requests.
        let mut later = trace.clone();
        later.arrivals.last_mut().unwrap().size *= 3.0;
        let straight = run_simulation(&SimInput::Open(later.clone()), &SchedulerSpec::Swrpt);
        let straight = straight.unwrap();
        let (resumed, _) = resume(&later, &snap).unwrap();
        assert_eq!(but_max_active(&resumed, &straight), straight.to_json());
        assert_ne!(
            straight.to_json(),
            run_simulation(&SimInput::Open(trace), &SchedulerSpec::Swrpt)
                .unwrap()
                .to_json()
        );
    }

    #[test]
    fn resume_sizes_nothing_by_a_cursor_past_the_input() {
        // One machine, `next_id` at the 2²⁸-cell bound a trace may hold,
        // and a pending arrival at the top id: restore alone would size
        // its id map to 2²⁸ entries (1 GiB) before checking the input.
        // The input's length refuses it at the `next_id` line first.
        let trace = generate_trace(&TraceSpec {
            n_requests: 40,
            n_machines: 1,
            seed: 24,
            ..Default::default()
        });
        let input = SimInput::Open(trace);
        let snap = mid_run_snapshot(&input);
        let cursor = count(&snap, "next_id");
        let id = snap
            .lines()
            .find_map(|l| l.strip_prefix("arrival ")?.split(' ').next())
            .unwrap();
        let top = snap
            .replace(&format!("\nnext_id {cursor}\n"), "\nnext_id 268435456\n")
            .replace(&format!("\narrival {id} "), "\narrival 268435455 ");
        assert_eq!(count(&top, "next_id"), 268_435_456);
        assert!(top.contains("\narrival 268435455 "));
        let mut b = dlflow_core::instance::InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(1.0)]);
        for (input, n) in [(input, 40), (SimInput::Closed(b.build().unwrap()), 1)] {
            let opts = SimOptions {
                resume: Some(top.clone()),
                ..Default::default()
            };
            let err = run_simulation_with(&input, &SchedulerSpec::Swrpt, &opts).unwrap_err();
            let want = format!(
                "--resume: malformed snapshot at line 4: next_id 268435456 passes the input's \
                 {n} requests"
            );
            assert_eq!(err, want);
        }
    }

    #[test]
    fn closed_runs_report_the_engine_peak_on_every_flat_path() {
        // Four jobs, all in flight from t = 1 under SRPT. A fault window
        // that closes before the first failure injects nothing, so all
        // three runs take the same 10 events.
        let mut b = dlflow_core::instance::InstanceBuilder::new();
        for (release, weight) in [(0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (1.0, 1.0)] {
            b.job(release, weight);
        }
        b.machine(vec![Some(4.0), Some(2.0), Some(3.0), Some(5.0)]);
        b.machine(vec![Some(8.0), None, Some(2.0), Some(4.0)]);
        let input = SimInput::Closed(b.build().unwrap());
        let spec = SchedulerSpec::parse_compact("srpt").unwrap();
        let plain = run_simulation(&input, &spec).unwrap();
        let inert = SimOptions {
            faults: Some(FaultInjection {
                mtbf: 1e6,
                mttr: 1.0,
                seed: 1,
                until: Some(1.0),
            }),
            ..Default::default()
        };
        let snapshot = SimOptions {
            snapshot_at: Some(3),
            ..Default::default()
        };
        for opts in [inert, snapshot] {
            let (other, _) = run_simulation_with(&input, &spec, &opts).unwrap();
            assert_eq!(other.n_events, 10);
            assert_eq!(other.completions, plain.completions);
            assert_eq!(other.max_active, plain.max_active);
        }
        assert_eq!(plain.max_active, 4);
    }

    #[test]
    fn plain_options_take_the_plain_path() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 20,
            seed: 5,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("mct").unwrap();
        let plain = run_simulation(&SimInput::Open(trace.clone()), &spec).unwrap();
        let (with, snap) =
            run_simulation_with(&SimInput::Open(trace), &spec, &SimOptions::default()).unwrap();
        assert!(snap.is_none());
        assert_eq!(plain.to_json(), with.to_json());
    }

    #[test]
    fn sharded_runs_report_deterministically_and_refuse_snapshots() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 40,
            n_machines: 4,
            seed: 9,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        let opts = SimOptions {
            shards: 2,
            ..Default::default()
        };
        let input = SimInput::Open(trace.clone());
        let (a, snap) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert!(snap.is_none());
        assert_eq!(a.n_jobs, 40);
        let (b, _) = run_simulation_with(&input, &spec, &opts).unwrap();
        assert_eq!(a.to_json(), b.to_json());

        // Closed instances report the merged per-job completion times.
        let closed = SimInput::Closed(trace.to_instance().unwrap());
        let (c, _) = run_simulation_with(&closed, &spec, &opts).unwrap();
        assert_eq!(c.completions.len(), 40);
        assert!(c.completions.iter().all(|t| t.is_finite()));

        // Snapshots cover one engine; sharded runs refuse them.
        let bad = SimOptions {
            shards: 2,
            snapshot_at: Some(5),
            ..Default::default()
        };
        let err = run_simulation_with(&input, &spec, &bad).unwrap_err();
        assert!(err.contains("single engine"), "{err}");

        // Sharded fault injection drains to completion.
        let faulty = SimOptions {
            shards: 2,
            faults: Some(FaultInjection {
                mtbf: 8.0,
                mttr: 2.0,
                seed: 5,
                until: None,
            }),
            ..Default::default()
        };
        let (f, _) = run_simulation_with(&input, &spec, &faulty).unwrap();
        assert_eq!(f.n_jobs, 40);
        assert!(f.metrics.makespan.is_finite());
    }

    #[test]
    fn eager_ola_reports_resolve_costs() {
        // Eager OLA's milestone search: a re-plan with one active job
        // solves no LP, one with several about two, on a 1k-arrival
        // replay.
        let trace = generate_trace(&TraceSpec {
            n_requests: 1000,
            seed: 7,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("ola").unwrap();
        let report = run_simulation(&SimInput::Open(trace), &spec).unwrap();
        let rs = report.resolve_stats.expect("OLA reports resolve telemetry");
        assert!(rs.n_resolves > 0 && rs.lp_solves() > 0);
        let mean = rs.mean_lp_solves_per_resolve();
        assert!(mean <= 2.0, "{rs:?}");

        // Telemetry renders in both formats…
        let json = report.to_json();
        assert!(json.contains(&format!("\"n_resolves\": {},", rs.n_resolves)));
        assert!(json.contains(&format!("\"lp_solves\": {},", rs.lp_solves())));
        assert!(json.contains(&format!("\"mean_lp_solves_per_resolve\": {mean:.6},")));
        let text = report.to_text();
        assert!(
            text.contains(&format!("re-solves: {}", rs.n_resolves)),
            "{text}"
        );
        assert!(
            text.contains(&format!("mean LP/resolve: {mean:.2}")),
            "{text}"
        );

        // …and stays absent for policies that do no LP re-solving.
        let inert = SchedulerSpec::parse_compact("swrpt").unwrap();
        let trace = generate_trace(&TraceSpec {
            n_requests: 20,
            seed: 7,
            ..Default::default()
        });
        let plain = run_simulation(&SimInput::Open(trace), &inert).unwrap();
        assert!(plain.resolve_stats.is_none());
        assert!(!plain.to_json().contains("\"lp_solves\""));
        assert!(!plain.to_text().contains("re-solves"));
    }

    #[test]
    fn sharded_ola_aggregates_resolve_stats_across_shards() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 30,
            n_machines: 4,
            seed: 9,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("ola").unwrap();
        let opts = SimOptions {
            shards: 2,
            ..Default::default()
        };
        let (report, _) =
            run_simulation_with(&SimInput::Open(trace.clone()), &spec, &opts).unwrap();
        let rs = report.resolve_stats.expect("sharded OLA merges telemetry");
        // The same replay shard by shard: the report's counters are the
        // field-wise sums of each shard policy's own.
        let mut se = ShardedEngine::new(trace.n_machines(), 2);
        let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
            (0..2).map(|_| spec.build()).collect();
        se.replay_trace(&trace, &mut policies).unwrap();
        let shards: Vec<ResolveStats> = policies
            .iter()
            .map(|p| p.resolve_stats().unwrap())
            .collect();
        assert!(shards.iter().all(|s| s.n_resolves > 0), "{shards:?}");
        let sum = |field: fn(&ResolveStats) -> usize| shards.iter().map(field).sum::<usize>();
        assert_eq!(
            [
                rs.n_resolves,
                rs.warm_lp_solves,
                rs.cold_lp_solves,
                rs.warm_resolves,
                rs.cold_resolves
            ],
            [
                sum(|s| s.n_resolves),
                sum(|s| s.warm_lp_solves),
                sum(|s| s.cold_lp_solves),
                sum(|s| s.warm_resolves),
                sum(|s| s.cold_resolves)
            ]
        );
    }

    #[test]
    fn reports_are_byte_stable() {
        let inst = generate(&WorkloadSpec {
            n_jobs: 6,
            seed: 8,
            ..Default::default()
        });
        let spec = SchedulerSpec::parse_compact("mct").unwrap();
        let a = run_simulation(&SimInput::Closed(inst.clone()), &spec).unwrap();
        let b = run_simulation(&SimInput::Closed(inst), &spec).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
        assert!(a.to_json().contains("\"completions\": ["));
    }
}
