//! Workload generation: closed random instances for the offline
//! experiments, and **open-arrival traces** for the streaming engine.
//!
//! The closed half ([`WorkloadSpec`] / [`generate`]) materializes a full
//! [`Instance`] up front — what the exact offline yardsticks need. The
//! open half ([`TraceSpec`] / [`generate_trace`] / [`Trace`]) models the
//! paper's real regime: requests stream into the GriPPS platform from an
//! arrival *process* (Poisson, bursty, or diurnal), and the simulator
//! never needs the whole future. Traces round-trip through the `.dlt`
//! text format (documented in `docs/FORMATS.md`, next to `.dlf`) and
//! replay through the incremental [`Engine`] with memory proportional
//! to the number of *in-flight* requests.

use crate::engine::{
    CompletedJob, Engine, JobSpec, OnlineScheduler, PlatformChange, PlatformEvent, RunMetrics,
    SimError, StepOutcome, EPS,
};
use dlflow_core::instance::{Cost, Instance, Job};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Knobs for random instance generation.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Number of machines.
    pub n_machines: usize,
    /// Mean inter-arrival time (exponential arrivals).
    pub mean_interarrival: f64,
    /// Job base cost range (on a speed-1 machine), log-uniform.
    pub cost_range: (f64, f64),
    /// Machine cycle-time heterogeneity: cycle ∈ `[1, heterogeneity]`.
    pub heterogeneity: f64,
    /// Probability a machine holds a given job's databank (≥ one forced).
    pub availability: f64,
    /// Job weights drawn uniformly from this palette.
    pub weights: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_jobs: 10,
            n_machines: 3,
            mean_interarrival: 2.0,
            cost_range: (1.0, 20.0),
            heterogeneity: 3.0,
            availability: 0.6,
            weights: vec![1.0, 2.0, 5.0],
            seed: 0,
        }
    }
}

/// Generates a random unrelated-machines instance with the *uniform
/// machines + restricted availabilities* structure of the GriPPS platform
/// (§3): `c[i][j] = size_j · cycle_i` where available.
pub fn generate(spec: &WorkloadSpec) -> Instance<f64> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let n = spec.n_jobs;
    let m = spec.n_machines;
    assert!(n > 0 && m > 0);

    // Poisson arrivals.
    let mut releases = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        releases.push(t);
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() * spec.mean_interarrival;
    }

    // Log-uniform sizes.
    let (lo, hi) = spec.cost_range;
    assert!(lo > 0.0 && hi >= lo);
    let sizes: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            lo * (hi / lo).powf(u)
        })
        .collect();

    let weights: Vec<f64> = (0..n)
        .map(|_| spec.weights[rng.gen_range(0..spec.weights.len())])
        .collect();
    let cycles: Vec<f64> = (0..m)
        .map(|_| rng.gen_range(1.0..=spec.heterogeneity.max(1.0)))
        .collect();

    let mut avail: Vec<Vec<bool>> = (0..m)
        .map(|_| {
            (0..n)
                .map(|_| rng.gen_bool(spec.availability.clamp(0.0, 1.0)))
                .collect()
        })
        .collect();
    // Force at least one machine per job.
    for j in 0..n {
        if !(0..m).any(|i| avail[i][j]) {
            let i = rng.gen_range(0..m);
            avail[i][j] = true;
        }
    }

    Instance::uniform_restricted(&sizes, &releases, &weights, &cycles, &avail)
        .expect("generator produces valid instances")
}

/// An ensemble of instances differing only by seed.
pub fn ensemble(spec: &WorkloadSpec, count: usize) -> Vec<Instance<f64>> {
    (0..count)
        .map(|k| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(k as u64 * 0x9E3779B9);
            generate(&s)
        })
        .collect()
}

// --------------------------------------------------------------------------
// Open-arrival traces.
// --------------------------------------------------------------------------

/// The arrival process of an open trace: how request release dates are
/// spaced.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests per second.
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Markov-modulated on/off bursts: inside a burst, Poisson at
    /// `rate`; bursts last `Exp(mean_burst)` seconds and are separated
    /// by silent gaps of `Exp(mean_gap)` seconds.
    Bursty {
        /// Mean arrivals per second *inside* a burst.
        rate: f64,
        /// Mean burst duration (seconds).
        mean_burst: f64,
        /// Mean silent gap between bursts (seconds).
        mean_gap: f64,
    },
    /// Sinusoidal daily cycle: the instantaneous rate oscillates between
    /// `trough_rate` and `peak_rate` with the given period (sampled by
    /// thinning a Poisson process at `peak_rate`).
    Diurnal {
        /// Rate at the daily peak (arrivals per second).
        peak_rate: f64,
        /// Rate at the nightly trough.
        trough_rate: f64,
        /// Cycle length in seconds.
        period: f64,
    },
}

impl ArrivalProcess {
    /// Samples the next `n` arrival times starting at 0.
    fn sample(&self, n: usize, rng: &mut SmallRng) -> Vec<f64> {
        let exp = |rng: &mut SmallRng, mean: f64| -> f64 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            -u.ln() * mean
        };
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                let mut t = 0.0;
                for _ in 0..n {
                    t += exp(rng, 1.0 / rate);
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate,
                mean_burst,
                mean_gap,
            } => {
                assert!(
                    rate > 0.0 && mean_burst > 0.0 && mean_gap >= 0.0,
                    "bursty process parameters must be positive"
                );
                let mut t = 0.0;
                let mut burst_end = exp(rng, mean_burst);
                while out.len() < n {
                    let dt = exp(rng, 1.0 / rate);
                    if t + dt <= burst_end {
                        t += dt;
                        out.push(t);
                    } else {
                        // The burst ends before the next arrival: skip
                        // the silent gap and open a fresh burst.
                        t = burst_end + exp(rng, mean_gap);
                        burst_end = t + exp(rng, mean_burst);
                    }
                }
            }
            ArrivalProcess::Diurnal {
                peak_rate,
                trough_rate,
                period,
            } => {
                assert!(
                    peak_rate >= trough_rate && trough_rate >= 0.0 && peak_rate > 0.0,
                    "diurnal rates must satisfy peak >= trough >= 0, peak > 0"
                );
                assert!(period > 0.0, "diurnal period must be positive");
                // Thinning: candidates at peak_rate, accepted with
                // probability rate(t)/peak_rate.
                let mut t = 0.0;
                while out.len() < n {
                    t += exp(rng, 1.0 / peak_rate);
                    let phase = (std::f64::consts::TAU * t / period).sin();
                    let rate = trough_rate + (peak_rate - trough_rate) * (1.0 + phase) / 2.0;
                    if rng.gen_range(0.0..1.0) < rate / peak_rate {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// One arriving request of an open trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArrival {
    /// Release date (seconds).
    pub release: f64,
    /// Request size in work units (cost on machine `i` is
    /// `size · cycle_times[i]`).
    pub size: f64,
    /// Priority weight (≥ 0).
    pub weight: f64,
    /// Which machines hold the request's databank.
    pub avail: Vec<bool>,
}

/// An open-arrival trace: a machine fleet (cycle times) plus a stream of
/// requests sorted by release date, optionally interleaved with platform
/// failure/recovery events. Serializes to the `.dlt` text format and
/// replays through the incremental engine.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Seconds per work unit, one entry per machine.
    pub cycle_times: Vec<f64>,
    /// Requests, sorted by release (ties keep file/generation order).
    pub arrivals: Vec<TraceArrival>,
    /// Machine failure/recovery events, sorted by time. Empty for a
    /// fault-free trace (the replay then takes exactly the fault-free
    /// engine paths).
    pub platform_events: Vec<PlatformEvent>,
}

/// A seeded MTBF/MTTR fault generator: each machine alternates between
/// in-service spells of mean [`FaultProcess::mtbf`] and repair spells of
/// mean [`FaultProcess::mttr`], both exponential, independently per
/// machine. Failures are only injected before [`FaultProcess::horizon`],
/// but every failure's matching recovery is always emitted (possibly past
/// the horizon) — a sampled fault schedule never strands a machine down
/// forever, so every trace eventually completes.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultProcess {
    /// Mean time between failures (seconds in service before a failure).
    pub mtbf: f64,
    /// Mean time to repair (seconds down before recovery).
    pub mttr: f64,
    /// No failure is injected at or after this time.
    pub horizon: f64,
    /// RNG seed (independent of the trace seed).
    pub seed: u64,
}

impl FaultProcess {
    /// Samples the fault schedule for `n_machines` machines,
    /// deterministically from the seed, sorted by `(time, machine)`.
    pub fn sample(&self, n_machines: usize) -> Vec<PlatformEvent> {
        assert!(
            self.mtbf > 0.0 && self.mttr > 0.0 && self.horizon > 0.0,
            "fault process parameters must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut exp = |mean: f64| -> f64 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            -u.ln() * mean
        };
        let mut events = Vec::new();
        for machine in 0..n_machines {
            let mut t = 0.0f64;
            loop {
                t += exp(self.mtbf);
                if t >= self.horizon {
                    break;
                }
                events.push(PlatformEvent {
                    time: t,
                    machine,
                    change: PlatformChange::Down,
                });
                t += exp(self.mttr);
                events.push(PlatformEvent {
                    time: t,
                    machine,
                    change: PlatformChange::Up,
                });
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.machine.cmp(&b.machine)));
        events
    }
}

/// Knobs for synthetic trace generation.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Number of requests.
    pub n_requests: usize,
    /// Number of machines.
    pub n_machines: usize,
    /// Machine cycle-time heterogeneity: cycle ∈ `[1, heterogeneity]`.
    pub heterogeneity: f64,
    /// Probability a machine holds a given request's databank (≥ one
    /// forced).
    pub availability: f64,
    /// Request size range in work units, log-uniform.
    pub size_range: (f64, f64),
    /// Request weights drawn uniformly from this palette.
    pub weights: Vec<f64>,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// RNG seed.
    pub seed: u64,
    /// Optional machine fault process; `None` (the default) generates a
    /// fault-free trace.
    pub faults: Option<FaultProcess>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            n_requests: 1000,
            n_machines: 3,
            heterogeneity: 3.0,
            availability: 0.6,
            size_range: (0.05, 1.0),
            weights: vec![1.0, 2.0, 5.0],
            process: ArrivalProcess::Poisson { rate: 2.0 },
            seed: 0,
            faults: None,
        }
    }
}

/// Generates a synthetic open-arrival trace.
pub fn generate_trace(spec: &TraceSpec) -> Trace {
    assert!(spec.n_requests > 0 && spec.n_machines > 0);
    let (lo, hi) = spec.size_range;
    assert!(lo > 0.0 && hi >= lo, "size range must be positive");
    assert!(!spec.weights.is_empty(), "weight palette must be non-empty");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let m = spec.n_machines;

    let cycle_times: Vec<f64> = (0..m)
        .map(|_| rng.gen_range(1.0..=spec.heterogeneity.max(1.0)))
        .collect();
    let releases = spec.process.sample(spec.n_requests, &mut rng);

    let arrivals = releases
        .into_iter()
        .map(|release| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let size = lo * (hi / lo).powf(u);
            let weight = spec.weights[rng.gen_range(0..spec.weights.len())];
            let mut avail: Vec<bool> = (0..m)
                .map(|_| rng.gen_bool(spec.availability.clamp(0.0, 1.0)))
                .collect();
            if !avail.iter().any(|&a| a) {
                let i = rng.gen_range(0..m);
                avail[i] = true;
            }
            TraceArrival {
                release,
                size,
                weight,
                avail,
            }
        })
        .collect();

    let platform_events = spec
        .faults
        .as_ref()
        .map(|f| f.sample(m))
        .unwrap_or_default();

    Trace {
        cycle_times,
        arrivals,
        platform_events,
    }
}

/// Counters and metrics of one streaming trace replay — the streaming
/// counterpart of [`SimResult`](crate::engine::SimResult) (per-job
/// completion vectors are deliberately absent: memory stays
/// `O(|active|)`).
#[derive(Clone, Debug)]
pub struct ReplayStats {
    /// Requests replayed.
    pub n_jobs: usize,
    /// Events processed.
    pub n_events: usize,
    /// `plan` invocations.
    pub n_plans: usize,
    /// Busy machine-seconds per machine.
    pub busy: Vec<f64>,
    /// Run metrics folded online.
    pub metrics: RunMetrics,
    /// Fleet utilization over `[first release, makespan]`.
    pub utilization: f64,
    /// Largest number of simultaneously in-flight requests.
    pub max_active: usize,
}

impl Trace {
    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.cycle_times.len()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The `k`-th request as an engine [`JobSpec`].
    pub fn job_spec(&self, k: usize) -> JobSpec {
        let a = &self.arrivals[k];
        JobSpec {
            release: a.release,
            weight: a.weight,
            costs: self
                .cycle_times
                .iter()
                .zip(&a.avail)
                .map(|(ct, &ok)| if ok { a.size * ct } else { f64::INFINITY })
                .collect(), // dlflint:allow(alloc-in-hot-loop, "one cost row per admitted job; the JobSpec owns it from here on")
        }
    }

    /// Materializes the whole trace as a closed [`Instance`] (job `j` =
    /// arrival `j`). Only sensible for small traces — the offline
    /// yardsticks and parity tests use it; streaming replay does not.
    /// Platform events are not representable in a closed instance and
    /// are ignored (the offline yardstick scores the fault-free
    /// platform). Fails when a request is unplaceable or a weight is
    /// zero (closed instances are stricter than the engine).
    pub fn to_instance(&self) -> Result<Instance<f64>, String> {
        let jobs: Vec<Job<f64>> = self
            .arrivals
            .iter()
            .enumerate()
            .map(|(j, a)| Job {
                release: a.release,
                weight: a.weight,
                name: format!("J{}", j + 1),
            })
            .collect();
        let cost: Vec<Vec<Cost<f64>>> = (0..self.n_machines())
            .map(|i| {
                self.arrivals
                    .iter()
                    .map(|a| {
                        if a.avail[i] {
                            Cost::Finite(a.size * self.cycle_times[i])
                        } else {
                            Cost::Infinite
                        }
                    })
                    .collect()
            })
            .collect();
        Instance::new(jobs, cost).map_err(|e| e.to_string())
    }

    /// Replays the trace through a fresh [`Engine`] under `policy`,
    /// streaming arrivals in so engine memory stays proportional to the
    /// number of in-flight requests: at any moment the engine knows only
    /// the active set plus the arrivals released within the admission
    /// tolerance (1e-9) of the earliest pending one. The events are
    /// exactly those of pushing every arrival up front and draining.
    pub fn replay(&self, policy: &mut dyn OnlineScheduler) -> Result<ReplayStats, SimError> {
        self.replay_impl(policy, None)
    }

    /// The driver behind [`Trace::replay`] and [`replay_with_sink`]. With
    /// a sink, completions are buffered per step and handed over; without
    /// one, buffering is off entirely.
    fn replay_impl(
        &self,
        policy: &mut dyn OnlineScheduler,
        sink: Option<&mut dyn FnMut(&CompletedJob)>,
    ) -> Result<ReplayStats, SimError> {
        policy.reset();
        let mut eng = Engine::new(self.n_machines());
        eng.record_completions = sink.is_some();
        for e in &self.platform_events {
            eng.push_platform_event(*e)?;
        }
        stream_arrivals(self, None, 0, &mut eng, policy, sink)?;
        Ok(ReplayStats {
            n_jobs: self.len(),
            n_events: eng.n_events(),
            n_plans: eng.n_plans(),
            busy: eng.busy().to_vec(),
            metrics: eng.metrics(),
            utilization: eng.utilization(),
            max_active: eng.peak_active(),
        })
    }

    /// Renders the trace in the `.dlt` text format (see
    /// `docs/FORMATS.md`). Round-trips through [`Trace::parse_dlt`].
    pub fn to_dlt(&self) -> String {
        let mut s = String::from("# dlflow open-arrival trace (.dlt) — see docs/FORMATS.md\n");
        // `fmt::Write` for `String` never fails.
        s.push_str("machines");
        for ct in &self.cycle_times {
            let _ = write!(s, " {ct}");
        }
        s.push('\n');
        for a in &self.arrivals {
            let _ = write!(s, "arrival {} {} {} ", a.release, a.size, a.weight);
            if a.avail.iter().all(|&x| x) {
                s.push('*');
            } else {
                s.extend(a.avail.iter().map(|&x| if x { '1' } else { '0' }));
            }
            s.push('\n');
        }
        for e in &self.platform_events {
            let directive = match e.change {
                PlatformChange::Down => "fail",
                PlatformChange::Up => "recover",
            };
            let _ = writeln!(s, "{directive} {} {}", e.time, e.machine);
        }
        s
    }

    /// Parses the `.dlt` text format. Arrivals need not be sorted in the
    /// file; the parsed trace is (stably) sorted by release. Platform
    /// events (`fail`/`recover` lines) **must** appear in non-decreasing
    /// time order and alternate down/up per machine — the stricter rule
    /// keeps a hand-edited fault schedule honest. Errors carry 1-based
    /// line numbers.
    pub fn parse_dlt(text: &str) -> Result<Trace, String> {
        let mut cycle_times: Option<Vec<f64>> = None;
        let mut arrivals: Vec<TraceArrival> = Vec::new();
        let mut platform_events: Vec<PlatformEvent> = Vec::new();
        let mut down: Vec<bool> = Vec::new();
        let parse_num = |tok: &str, what: &str, lineno: usize| -> Result<f64, String> {
            let v: f64 = tok
                .parse()
                .map_err(|_| format!("line {lineno}: bad {what} {tok:?}"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "line {lineno}: {what} must be finite and non-negative, got {tok}"
                ));
            }
            Ok(v)
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let directive = toks.next().expect("non-empty line");
            let rest: Vec<&str> = toks.collect();
            match directive {
                "machines" => {
                    if cycle_times.is_some() {
                        return Err(format!("line {lineno}: duplicate machines line"));
                    }
                    if rest.is_empty() {
                        return Err(format!(
                            "line {lineno}: machines needs at least one cycle time"
                        ));
                    }
                    let cts: Result<Vec<f64>, String> = rest
                        .iter()
                        .map(|t| {
                            let v = parse_num(t, "cycle time", lineno)?;
                            if v <= 0.0 {
                                return Err(format!(
                                    "line {lineno}: cycle time must be positive, got {t}"
                                ));
                            }
                            Ok(v)
                        })
                        .collect();
                    cycle_times = Some(cts?);
                }
                "arrival" => {
                    let Some(cts) = &cycle_times else {
                        return Err(format!("line {lineno}: arrival before the machines line"));
                    };
                    let [release, size, weight, mask] = rest.as_slice() else {
                        return Err(format!(
                            "line {lineno}: arrival expects <release> <size> <weight> <mask>"
                        ));
                    };
                    let release = parse_num(release, "release", lineno)?;
                    let size = parse_num(size, "size", lineno)?;
                    let weight = parse_num(weight, "weight", lineno)?;
                    let avail: Vec<bool> = if *mask == "*" {
                        vec![true; cts.len()]
                    } else {
                        if mask.len() != cts.len() || !mask.chars().all(|c| c == '0' || c == '1') {
                            return Err(format!(
                                "line {lineno}: mask must be '*' or {} chars of 0/1, got {mask:?}",
                                cts.len()
                            ));
                        }
                        mask.chars().map(|c| c == '1').collect()
                    };
                    if !avail.iter().any(|&a| a) {
                        return Err(format!(
                            "line {lineno}: arrival can run on no machine (mask all 0)"
                        ));
                    }
                    arrivals.push(TraceArrival {
                        release,
                        size,
                        weight,
                        avail,
                    });
                }
                d @ ("fail" | "recover") => {
                    let Some(cts) = &cycle_times else {
                        return Err(format!("line {lineno}: {d} before the machines line"));
                    };
                    let [time, machine] = rest.as_slice() else {
                        return Err(format!("line {lineno}: {d} expects <time> <machine>"));
                    };
                    let time = parse_num(time, "event time", lineno)?;
                    let machine: usize = machine
                        .parse()
                        .map_err(|_| format!("line {lineno}: bad machine id {machine:?}"))?;
                    if machine >= cts.len() {
                        return Err(format!(
                            "line {lineno}: machine id {machine} out of range (trace has {} machines)",
                            cts.len()
                        ));
                    }
                    if let Some(prev) = platform_events.last() {
                        if time < prev.time {
                            return Err(format!(
                                "line {lineno}: non-monotone event time {time} (previous event at {})",
                                prev.time
                            ));
                        }
                    }
                    down.resize(cts.len(), false);
                    let change = if d == "fail" {
                        if down[machine] {
                            return Err(format!(
                                "line {lineno}: machine {machine} fails while already down"
                            ));
                        }
                        down[machine] = true;
                        PlatformChange::Down
                    } else {
                        if !down[machine] {
                            return Err(format!(
                                "line {lineno}: machine {machine} recovers without a preceding fail"
                            ));
                        }
                        down[machine] = false;
                        PlatformChange::Up
                    };
                    platform_events.push(PlatformEvent {
                        time,
                        machine,
                        change,
                    });
                }
                other => {
                    return Err(format!(
                        "line {lineno}: unknown directive {other:?} (expected machines|arrival|fail|recover)"
                    ))
                }
            }
        }
        let Some(cycle_times) = cycle_times else {
            return Err("trace has no machines line".into());
        };
        arrivals.sort_by(|a, b| a.release.partial_cmp(&b.release).unwrap());
        Ok(Trace {
            cycle_times,
            arrivals,
            platform_events,
        })
    }
}

/// The one arrival feed behind [`Trace::replay`] and
/// [`ShardedEngine::replay_trace`](crate::shard::ShardedEngine::replay_trace):
/// streams the arrivals `picks` names (indices into `trace.arrivals`, in
/// trace order; `None` = all of them) into `eng`, whose machines are the
/// trace's `lo..lo + eng.n_machines()`, and steps it to quiescence.
///
/// Before each step it pushes every arrival released by the earliest
/// pushed-but-unadmitted release (else the next release) plus `EPS`.
/// The engine's clock never passes that release, so these are all the
/// arrivals the step can see as its horizon or admit: the engine takes
/// exactly the events of a run that pushed the whole trace up front,
/// while holding only its in-flight window. `eng` must start with no
/// pending arrivals.
pub(crate) fn stream_arrivals(
    trace: &Trace,
    picks: Option<&[u32]>,
    lo: usize,
    eng: &mut Engine,
    policy: &mut dyn OnlineScheduler,
    mut sink: Option<&mut dyn FnMut(&CompletedJob)>,
) -> Result<(), SimError> {
    let n = picks.map_or(trace.arrivals.len(), <[u32]>::len);
    let arrival = |k: usize| &trace.arrivals[picks.map_or(k, |p| p[k] as usize)];
    let m = eng.n_machines();
    // Reused cost row: `push_arrival_ref` copies it straight into the
    // slab, so the steady-state loop performs no allocation.
    let mut costs = vec![0.0f64; m]; // dlflint:allow(alloc-in-hot-loop, "one buffer per replay, recycled across every arrival")
    let mut next = 0usize;
    // Stall guard equivalent to `Engine::drain`'s.
    let max_iters = 100_000 + 200 * n * (m + 2) + 2 * eng.platform_pending_len();
    for _ in 0..max_iters {
        if next < n {
            // Arrivals are sorted and admitted in release order, so the
            // pending ones are the last `pending_len` pushed.
            let t0 = arrival(next.saturating_sub(eng.pending_len())).release;
            while next < n && arrival(next).release <= t0 + EPS {
                let a = arrival(next);
                let (Some(cts), Some(avail)) =
                    (trace.cycle_times.get(lo..lo + m), a.avail.get(lo..lo + m))
                else {
                    return Err(SimError::InvalidJob {
                        reason: "costs length does not match the machine count",
                    });
                };
                for (c, (ct, &ok)) in costs.iter_mut().zip(cts.iter().zip(avail)) {
                    *c = if ok { a.size * ct } else { f64::INFINITY };
                }
                eng.push_arrival_ref(a.release, a.weight, &costs)?;
                next += 1;
            }
        }
        let outcome = eng.step(policy)?;
        if let Some(sink) = sink.as_mut() {
            for c in eng.take_completed() {
                sink(&c);
            }
        }
        if outcome == StepOutcome::Idle && next >= n {
            return Ok(());
        }
    }
    Err(SimError::Stalled { at: eng.now() })
}

/// Replays a trace, folding each completion through a caller-provided
/// sink as it streams out of the engine — per-request results without
/// ever buffering the whole run. A thin wrapper over the same driver as
/// [`Trace::replay`].
pub fn replay_with_sink(
    trace: &Trace,
    policy: &mut dyn OnlineScheduler,
    mut sink: impl FnMut(&CompletedJob),
) -> Result<ReplayStats, SimError> {
    trace.replay_impl(policy, Some(&mut |c: &CompletedJob| sink(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let spec = WorkloadSpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.n_jobs(), 10);
        assert_eq!(a.n_machines(), 3);
        for j in 0..a.n_jobs() {
            assert_eq!(a.job(j).release, b.job(j).release);
            assert!(a.job(j).release >= 0.0);
            assert!(a.job(j).weight > 0.0);
        }
    }

    #[test]
    fn releases_are_sorted() {
        let inst = generate(&WorkloadSpec {
            n_jobs: 50,
            ..Default::default()
        });
        for j in 1..inst.n_jobs() {
            assert!(inst.job(j).release >= inst.job(j - 1).release);
        }
    }

    #[test]
    fn every_job_placeable_even_with_low_availability() {
        for seed in 0..10 {
            let spec = WorkloadSpec {
                availability: 0.05,
                seed,
                ..Default::default()
            };
            let inst = generate(&spec); // would panic if unplaceable
            assert_eq!(inst.n_jobs(), 10);
        }
    }

    #[test]
    fn uniform_structure_holds() {
        // c[i][j] / c[i'][j] must be constant across jobs available on both.
        let inst = generate(&WorkloadSpec {
            availability: 1.0,
            ..Default::default()
        });
        let r0 = inst.cost(0, 0).finite().unwrap() / inst.cost(1, 0).finite().unwrap();
        for j in 1..inst.n_jobs() {
            let r = inst.cost(0, j).finite().unwrap() / inst.cost(1, j).finite().unwrap();
            assert!((r - r0).abs() < 1e-9);
        }
    }

    #[test]
    fn ensemble_varies() {
        let e = ensemble(&WorkloadSpec::default(), 3);
        assert_eq!(e.len(), 3);
        // Different seeds ⇒ different job sizes (fastest cost always exists).
        assert_ne!(e[0].fastest_cost(0), e[1].fastest_cost(0));
    }

    // --- Trace layer. ---

    #[test]
    fn trace_generation_is_deterministic_sorted_and_placeable() {
        let spec = TraceSpec {
            n_requests: 200,
            availability: 0.1,
            seed: 3,
            ..Default::default()
        };
        let a = generate_trace(&spec);
        let b = generate_trace(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for w in a.arrivals.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        for arr in &a.arrivals {
            assert!(arr.avail.iter().any(|&x| x));
            assert!(arr.size > 0.0);
        }
    }

    #[test]
    fn arrival_processes_have_the_expected_shape() {
        let mut rng = SmallRng::seed_from_u64(7);
        let poisson = ArrivalProcess::Poisson { rate: 2.0 }.sample(4000, &mut rng);
        let mean_gap = poisson.last().unwrap() / 4000.0;
        assert!((mean_gap - 0.5).abs() < 0.05, "Poisson mean gap {mean_gap}");

        // Bursty: same in-burst rate, but long gaps stretch the span.
        let mut rng = SmallRng::seed_from_u64(7);
        let bursty = ArrivalProcess::Bursty {
            rate: 2.0,
            mean_burst: 5.0,
            mean_gap: 50.0,
        }
        .sample(4000, &mut rng);
        assert!(*bursty.last().unwrap() > poisson.last().unwrap() * 2.0);
        for w in bursty.windows(2) {
            assert!(w[1] >= w[0]);
        }

        // Diurnal: arrivals cluster around the sinusoid's peaks — the
        // busiest half-period holds clearly more than half the arrivals.
        let mut rng = SmallRng::seed_from_u64(7);
        let period = 100.0;
        let diurnal = ArrivalProcess::Diurnal {
            peak_rate: 4.0,
            trough_rate: 0.2,
            period,
        }
        .sample(4000, &mut rng);
        let in_peak_half = diurnal
            .iter()
            .filter(|&&t| (std::f64::consts::TAU * t / period).sin() > 0.0)
            .count();
        assert!(
            in_peak_half as f64 > 0.6 * diurnal.len() as f64,
            "only {in_peak_half}/{} arrivals in the peak half",
            diurnal.len()
        );
    }

    #[test]
    fn dlt_round_trips() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 25,
            seed: 11,
            process: ArrivalProcess::Bursty {
                rate: 3.0,
                mean_burst: 2.0,
                mean_gap: 4.0,
            },
            ..Default::default()
        });
        let text = trace.to_dlt();
        let back = Trace::parse_dlt(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn dlt_rendering_is_pinned_byte_for_byte() {
        let trace = Trace {
            cycle_times: vec![1.0, 0.1, 2.5],
            arrivals: vec![
                TraceArrival {
                    release: 0.0,
                    size: 1e-7,
                    weight: 1.0,
                    avail: vec![true; 3],
                },
                TraceArrival {
                    release: 0.1,
                    size: 3.0,
                    weight: 0.5,
                    avail: vec![true, false, true],
                },
                TraceArrival {
                    release: 12.25,
                    size: 0.30000000000000004,
                    weight: 2.0,
                    avail: vec![false, false, true],
                },
            ],
            platform_events: vec![
                PlatformEvent {
                    time: 0.5,
                    machine: 2,
                    change: PlatformChange::Down,
                },
                PlatformEvent {
                    time: 7.0,
                    machine: 2,
                    change: PlatformChange::Up,
                },
            ],
        };
        assert_eq!(
            trace.to_dlt(),
            "# dlflow open-arrival trace (.dlt) — see docs/FORMATS.md\n\
             machines 1 0.1 2.5\n\
             arrival 0 0.0000001 1 *\n\
             arrival 0.1 3 0.5 101\n\
             arrival 12.25 0.30000000000000004 2 001\n\
             fail 0.5 2\n\
             recover 7 2\n"
        );
    }

    #[test]
    fn dlt_parse_errors_carry_line_numbers() {
        for (bad, needle) in [
            ("arrival 0 1 1 *", "before the machines"),
            ("machines\n", "at least one"),
            ("machines 1 2\nmachines 1", "duplicate"),
            ("machines 0", "positive"),
            ("machines 1 2\narrival 0 1 1 10x", "mask"),
            ("machines 1 2\narrival 0 1 1 00", "no machine"),
            ("machines 1 2\narrival -1 1 1 *", "non-negative"),
            ("machines 1 2\narrival 0 1 1", "expects"),
            ("machines 1 2\nfrob", "unknown directive"),
            ("# empty\n", "no machines line"),
            ("fail 1 0", "before the machines"),
            ("machines 1 2\nfail 1", "expects"),
            ("machines 1 2\nfail 1 7", "out of range"),
            ("machines 1 2\nfail 1 x", "bad machine id"),
            ("machines 1 2\nfail -1 0", "non-negative"),
            ("machines 1 2\nfail 2 0\nrecover 1 0", "non-monotone"),
            ("machines 1 2\nfail 1 0\nfail 2 0", "already down"),
            ("machines 1 2\nrecover 1 0", "without a preceding fail"),
            (
                "machines 1 2\nfail 1 0\nrecover 2 0\nrecover 3 0",
                "without a preceding fail",
            ),
        ] {
            let err = Trace::parse_dlt(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn dlt_round_trips_with_platform_events() {
        // Generator-produced fault schedules survive parse→render→parse.
        let trace = generate_trace(&TraceSpec {
            n_requests: 30,
            n_machines: 4,
            seed: 21,
            faults: Some(FaultProcess {
                mtbf: 10.0,
                mttr: 2.0,
                horizon: 40.0,
                seed: 77,
            }),
            ..Default::default()
        });
        assert!(
            !trace.platform_events.is_empty(),
            "fault process should fire within the horizon"
        );
        let text = trace.to_dlt();
        let back = Trace::parse_dlt(&text).unwrap();
        assert_eq!(trace, back);
        // And a second render is byte-identical (stable format).
        assert_eq!(back.to_dlt(), text);
    }

    #[test]
    fn fault_process_is_seeded_alternating_and_always_recovers() {
        let fp = FaultProcess {
            mtbf: 5.0,
            mttr: 1.0,
            horizon: 50.0,
            seed: 3,
        };
        let a = fp.sample(3);
        let b = fp.sample(3);
        assert_eq!(a, b, "sampling is deterministic");
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time, "events sorted by time");
        }
        // Per machine: strictly alternating down/up, starting down,
        // ending up (every failure has a matching recovery).
        for m in 0..3 {
            let seq: Vec<PlatformChange> = a
                .iter()
                .filter(|e| e.machine == m)
                .map(|e| e.change)
                .collect();
            assert!(!seq.is_empty(), "mtbf 5 over horizon 50 should fire");
            assert_eq!(seq.len() % 2, 0);
            for (k, c) in seq.iter().enumerate() {
                let want = if k % 2 == 0 {
                    PlatformChange::Down
                } else {
                    PlatformChange::Up
                };
                assert_eq!(*c, want);
            }
        }
    }

    #[test]
    fn replay_completes_through_total_blackout() {
        // Satellite regression: ALL machines fail mid-trace and recover
        // later; the engine must idle through the blackout (no progress
        // possible, but a future recovery exists) instead of stalling.
        let text = "machines 1 1\n\
                    arrival 0 1 1 *\n\
                    arrival 0.2 1 1 *\n\
                    arrival 5 0.5 2 *\n\
                    fail 0.1 0\n\
                    fail 0.1 1\n\
                    recover 3 0\n\
                    recover 4 1\n";
        let trace = Trace::parse_dlt(text).unwrap();
        for spec in ["swrpt", "mct", "edf", "ola"] {
            let spec = crate::campaign::SchedulerSpec::parse_compact(spec).unwrap();
            let mut policy = spec.build();
            let stats = trace.replay(policy.as_mut()).unwrap();
            assert_eq!(stats.n_jobs, 3, "{}", policy.name());
            // Nothing completes before the first recovery at t=3.
            assert!(
                stats.metrics.makespan >= 3.0,
                "{}: makespan {}",
                policy.name(),
                stats.metrics.makespan
            );
        }
    }

    #[test]
    fn faulty_replay_degrades_but_completes() {
        let base = TraceSpec {
            n_requests: 120,
            n_machines: 3,
            seed: 13,
            ..Default::default()
        };
        let clean = generate_trace(&base);
        let faulty = generate_trace(&TraceSpec {
            faults: Some(FaultProcess {
                mtbf: 15.0,
                mttr: 5.0,
                horizon: 60.0,
                seed: 5,
            }),
            ..base
        });
        // Arrivals identical: the fault process draws from its own RNG.
        assert_eq!(clean.arrivals, faulty.arrivals);
        use crate::schedulers::Swrpt;
        let s_clean = clean.replay(&mut Swrpt::new()).unwrap();
        let s_faulty = faulty.replay(&mut Swrpt::new()).unwrap();
        assert_eq!(s_faulty.n_jobs, 120);
        // Every request still completes, with well-defined (finite)
        // metrics; lost work shows up as extra busy time relative to the
        // clean run's identical arrival stream.
        assert!(s_faulty.metrics.max_stretch.is_finite());
        assert!(s_faulty.metrics.makespan >= s_clean.metrics.makespan - 1e-9);
    }

    #[test]
    fn replay_rejects_an_availability_row_of_the_wrong_length() {
        // Built by hand (the parser checks mask lengths): the short row
        // must not leave a stale zero cost on machine 1.
        let trace = Trace {
            cycle_times: vec![1.0, 1.0],
            arrivals: vec![TraceArrival {
                release: 0.0,
                size: 2.0,
                weight: 1.0,
                avail: vec![true],
            }],
            platform_events: Vec::new(),
        };
        let err = trace
            .replay(&mut crate::schedulers::Swrpt::new())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidJob {
                reason: "costs length does not match the machine count"
            }
        );
    }

    #[test]
    fn unsorted_dlt_arrivals_are_sorted_on_parse() {
        let t = Trace::parse_dlt("machines 1\narrival 5 1 1 *\narrival 0 2 1 *\narrival 2 3 1 *\n")
            .unwrap();
        let rel: Vec<f64> = t.arrivals.iter().map(|a| a.release).collect();
        assert_eq!(rel, vec![0.0, 2.0, 5.0]);
    }

    #[test]
    fn replay_matches_closed_simulation() {
        use crate::engine::{simulate, RunMetrics};
        use crate::schedulers::Swrpt;
        let trace = generate_trace(&TraceSpec {
            n_requests: 60,
            seed: 5,
            ..Default::default()
        });
        let stats = trace.replay(&mut Swrpt::new()).unwrap();
        assert_eq!(stats.n_jobs, 60);

        let inst = trace.to_instance().unwrap();
        let res = simulate(&inst, &mut Swrpt::new()).unwrap();
        let m = RunMetrics::from_completions(&inst, &res.completions);
        assert_eq!(stats.n_events, res.n_events);
        assert_eq!(stats.n_plans, res.n_plans);
        assert_eq!(stats.busy, res.busy);
        assert!((stats.metrics.max_stretch - m.max_stretch).abs() < 1e-9);
        assert!((stats.metrics.makespan - m.makespan).abs() < 1e-9);
        assert!(stats.max_active >= 1);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn replay_with_sink_streams_every_completion() {
        use crate::schedulers::Srpt;
        let trace = generate_trace(&TraceSpec {
            n_requests: 40,
            seed: 9,
            ..Default::default()
        });
        let mut seen = Vec::new();
        let stats = replay_with_sink(&trace, &mut Srpt::new(), |c| seen.push(c.id)).unwrap();
        assert_eq!(seen.len(), 40);
        assert_eq!(stats.n_jobs, 40);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40, "each request completes exactly once");
    }

    #[test]
    fn trace_dlt_round_trip_preserves_job_specs() {
        let text = "machines 1 2\narrival 0 3 1 *\narrival 1.5 2 2 10\n";
        let trace = Trace::parse_dlt(text).unwrap();
        let again = Trace::parse_dlt(&trace.to_dlt()).unwrap();
        assert_eq!(again.len(), trace.len());
        for k in 0..trace.len() {
            let (a, b) = (trace.job_spec(k), again.job_spec(k));
            assert_eq!(a.release, b.release);
            assert_eq!(a.weight, b.weight);
            assert_eq!(a.costs, b.costs);
        }
        // Size × cycle-time, with the mask knocking out machine 2.
        let spec = trace.job_spec(1);
        assert_eq!(spec.costs[0], 2.0);
        assert!(spec.costs[1].is_infinite());
    }
}
