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
//!
//! A [`Trace`] keeps every request's availability mask in one row-major
//! matrix, [`Trace::avail`], read through [`Trace::avail_row`]; only this
//! module knows its layout. [`Trace::parse_dlt`] allocates nothing per
//! line; its doc states the tokenizer's rules (a `#` comment anywhere,
//! tokens split on any Unicode whitespace, `\r\n` line ends).

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

/// One arriving request of an open trace. Which machines hold its
/// databank is its row of [`Trace::avail`], read through
/// [`Trace::avail_row`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceArrival {
    /// Release date (seconds).
    pub release: f64,
    /// Request size in work units (cost on machine `i` is
    /// `size · cycle_times[i]`).
    pub size: f64,
    /// Priority weight (≥ 0).
    pub weight: f64,
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
    /// Which machines hold each request's databank: a row-major
    /// `len() × n_machines()` matrix whose row `k` belongs to
    /// `arrivals[k]`. Read it through [`Trace::avail_row`], which also
    /// catches a hand-built matrix of the wrong size.
    pub avail: Vec<bool>,
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

    let mut arrivals = Vec::with_capacity(releases.len());
    let mut avail = Vec::with_capacity(releases.len() * m);
    for release in releases {
        let u: f64 = rng.gen_range(0.0..1.0);
        let size = lo * (hi / lo).powf(u);
        let weight = spec.weights[rng.gen_range(0..spec.weights.len())];
        let row = avail.len();
        avail.extend((0..m).map(|_| rng.gen_bool(spec.availability.clamp(0.0, 1.0))));
        if !avail[row..].contains(&true) {
            let i = rng.gen_range(0..m);
            avail[row + i] = true;
        }
        arrivals.push(TraceArrival {
            release,
            size,
            weight,
        });
    }

    let platform_events = spec
        .faults
        .as_ref()
        .map(|f| f.sample(m))
        .unwrap_or_default();

    Trace {
        cycle_times,
        arrivals,
        avail,
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

    /// Request `k`'s row of [`Trace::avail`]: entry `i` says whether
    /// machine `i` holds its databank. `None` when `k` is out of range or
    /// the matrix is not `len() × n_machines()` (a hand-built trace can
    /// break that; parsed and generated ones cannot).
    pub fn avail_row(&self, k: usize) -> Option<&[bool]> {
        let m = self.n_machines();
        if k >= self.len() || self.len().checked_mul(m) != Some(self.avail.len()) {
            return None;
        }
        self.avail.get(k * m..(k + 1) * m)
    }

    /// The `k`-th request as an engine [`JobSpec`]. Without an
    /// availability row its cost row is empty, which the engine refuses.
    pub fn job_spec(&self, k: usize) -> JobSpec {
        let a = &self.arrivals[k];
        JobSpec {
            release: a.release,
            weight: a.weight,
            costs: self
                .cycle_times
                .iter()
                .zip(self.avail_row(k).unwrap_or_default())
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
    /// zero (closed instances are stricter than the engine), and with a
    /// shape error when [`Trace::avail`] has the wrong size.
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
        // A missing row leaves every machine's cost row short.
        let cost: Vec<Vec<Cost<f64>>> = (0..self.n_machines())
            .map(|i| {
                (0..self.len())
                    .filter_map(|k| {
                        let ok = *self.avail_row(k)?.get(i)?;
                        Some(if ok {
                            Cost::Finite(self.arrivals[k].size * self.cycle_times[i])
                        } else {
                            Cost::Infinite
                        })
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
        stream_arrivals(self, None, 0, &mut eng, policy, sink, usize::MAX)?;
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
    /// `docs/FORMATS.md`). Round-trips through [`Trace::parse_dlt`]. A
    /// request without an availability row renders with an empty mask,
    /// which the parser refuses.
    pub fn to_dlt(&self) -> String {
        let mut s = String::from("# dlflow open-arrival trace (.dlt) — see docs/FORMATS.md\n");
        // `fmt::Write` for `String` never fails.
        s.push_str("machines");
        for ct in &self.cycle_times {
            let _ = write!(s, " {ct}");
        }
        s.push('\n');
        for (k, a) in self.arrivals.iter().enumerate() {
            let _ = write!(s, "arrival {} {} {} ", a.release, a.size, a.weight);
            match self.avail_row(k) {
                Some(row) if row.iter().all(|&x| x) => s.push('*'),
                row => s.extend(
                    row.unwrap_or_default()
                        .iter()
                        .map(|&x| if x { '1' } else { '0' }),
                ),
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
    ///
    /// The tokenizer's rules:
    ///
    /// - lines split exactly as [`str::lines`] splits them (`\n`, `\r\n`);
    /// - a comment starts at the first `#`, anywhere in a line;
    /// - tokens are separated by exactly the chars that
    ///   [`char::is_whitespace`] accepts. On ASCII these are `\t`, `\n`,
    ///   `\x0B`, `\x0C`, `\r` and space ([`u8::is_ascii_whitespace`]
    ///   omits `\x0B`). A line with a non-ASCII byte before its `#` is
    ///   split char by char, so U+00A0, U+3000 and the like separate
    ///   tokens too;
    /// - numbers go through `str::parse::<f64>` and must then be finite
    ///   and non-negative (cycle times positive);
    /// - a mask is `*` or exactly `n_machines()` bytes of `0`/`1`, not
    ///   all `0`;
    /// - requests × machines may not pass 2²⁸ availability cells.
    ///
    /// It allocates nothing per line: an `arrival` line's tokens live in
    /// a fixed array and its mask becomes a row of [`Trace::avail`].
    pub fn parse_dlt(text: &str) -> Result<Trace, String> {
        let mut parsed = DltParser::default();
        let mut toks = Tokens::new(text);
        let mut lineno = 0;
        while !toks.at_end() {
            lineno += 1;
            parsed
                .line(&mut toks)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            toks.end_line();
        }
        let Some(cycle_times) = parsed.cycle_times else {
            return Err("trace has no machines line".into());
        };
        sort_by_release(&mut parsed.arrivals, &mut parsed.avail, cycle_times.len());
        Ok(Trace {
            cycle_times,
            arrivals: parsed.arrivals,
            avail: parsed.avail,
            platform_events: parsed.platform_events,
        })
    }
}

/// Most availability cells (requests × machines) a `.dlt` text may ask
/// for: 2²⁸ booleans, 256 MiB. A `*` mask costs one line yet a whole row,
/// so without a bound a few MB of text could ask for 10¹² cells. A
/// 200k-request trace on 32 machines holds 6.4 M.
pub(crate) const MAX_AVAIL_CELLS: usize = 1 << 28;

/// What a `.dlt` parse has read so far.
#[derive(Default)]
struct DltParser {
    /// The `machines` line's cycle times, once read.
    cycle_times: Option<Vec<f64>>,
    arrivals: Vec<TraceArrival>,
    /// The arrivals' availability rows, row-major as in [`Trace::avail`].
    avail: Vec<bool>,
    platform_events: Vec<PlatformEvent>,
    /// Which machines the events so far left down.
    down: Vec<bool>,
}

impl DltParser {
    /// Parses the line at `toks`. The error message has no line number
    /// yet.
    fn line(&mut self, toks: &mut Tokens<'_>) -> Result<(), String> {
        let Some(directive) = toks.next() else {
            return Ok(());
        };
        let machines = |d: &str| {
            self.cycle_times
                .as_ref()
                .map(Vec::len)
                .ok_or_else(|| format!("{d} before the machines line"))
        };
        match directive {
            "machines" => {
                if self.cycle_times.is_some() {
                    return Err("duplicate machines line".into());
                }
                let cycle_times = parse_cycle_times(toks)?;
                self.down = vec![false; cycle_times.len()];
                self.cycle_times = Some(cycle_times);
            }
            "arrival" => {
                let m = machines(directive)?;
                let Some([release, size, weight, mask]) = exactly(toks) else {
                    return Err("arrival expects <release> <size> <weight> <mask>".into());
                };
                let release = parse_num(release, "release")?;
                let size = parse_num(size, "size")?;
                let weight = parse_num(weight, "weight")?;
                if (self.arrivals.len() + 1).saturating_mul(m) > MAX_AVAIL_CELLS {
                    return Err(format!(
                        "too many availability cells: requests × machines would pass \
                         {MAX_AVAIL_CELLS}"
                    ));
                }
                if mask == "*" {
                    self.avail.extend(std::iter::repeat_n(true, m));
                } else if mask.len() == m && mask.bytes().all(|b| b == b'0' || b == b'1') {
                    if !mask.contains('1') {
                        return Err("arrival can run on no machine (mask all 0)".into());
                    }
                    self.avail.extend(mask.bytes().map(|b| b == b'1'));
                } else {
                    return Err(format!(
                        "mask must be '*' or {m} chars of 0/1, got {mask:?}"
                    ));
                }
                self.arrivals.push(TraceArrival {
                    release,
                    size,
                    weight,
                });
            }
            d @ ("fail" | "recover") => {
                let m = machines(d)?;
                let Some([time, machine]) = exactly(toks) else {
                    return Err(format!("{d} expects <time> <machine>"));
                };
                let time = parse_num(time, "event time")?;
                let machine: usize = machine
                    .parse()
                    .map_err(|_| format!("bad machine id {machine:?}"))?;
                if machine >= m {
                    return Err(format!(
                        "machine id {machine} out of range (trace has {m} machines)"
                    ));
                }
                if let Some(prev) = self.platform_events.last().filter(|p| time < p.time) {
                    return Err(format!(
                        "non-monotone event time {time} (previous event at {})",
                        prev.time
                    ));
                }
                let fails = d == "fail";
                if std::mem::replace(&mut self.down[machine], fails) == fails {
                    return Err(if fails {
                        format!("machine {machine} fails while already down")
                    } else {
                        format!("machine {machine} recovers without a preceding fail")
                    });
                }
                let change = if fails {
                    PlatformChange::Down
                } else {
                    PlatformChange::Up
                };
                self.platform_events.push(PlatformEvent {
                    time,
                    machine,
                    change,
                });
            }
            other => {
                return Err(format!(
                    "unknown directive {other:?} (expected machines|arrival|fail|recover)"
                ))
            }
        }
        Ok(())
    }
}

/// A cursor over `.dlt` text. As an iterator it yields the tokens of
/// the current line up to its first `#`, split as [`Trace::parse_dlt`]
/// states; [`Tokens::end_line`] then moves on to the next line.
struct Tokens<'a> {
    text: &'a str,
    /// The next byte to scan.
    pos: usize,
    /// Set once the current line shows a non-ASCII byte before its `#`:
    /// the line's remaining tokens, split char by char, and its end.
    chars: Option<(std::str::SplitWhitespace<'a>, usize)>,
}

/// Byte classes of the ASCII scan (see [`BYTE_CLASS`]).
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const STOP: u8 = 2;
const NON_ASCII: u8 = 3;

/// The class of each byte. `SPACE` holds exactly the ASCII chars that
/// [`char::is_whitespace`] accepts but `\n` (`u8::is_ascii_whitespace`
/// would miss `\x0B`); `\n` and `#` end a line's tokens.
const BYTE_CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = NON_ASCII;
        b += 1;
    }
    class[b'\t' as usize] = SPACE;
    class[0x0B] = SPACE;
    class[0x0C] = SPACE;
    class[b'\r' as usize] = SPACE;
    class[b' ' as usize] = SPACE;
    class[b'\n' as usize] = STOP;
    class[b'#' as usize] = STOP;
    class
};

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens {
            text,
            pos: 0,
            chars: None,
        }
    }

    /// `true` when no line is left.
    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    /// The text from the current line on.
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Moves to the start of the next line.
    fn end_line(&mut self) {
        let end = match self.chars.take() {
            Some((_, end)) => end,
            None => self
                .rest()
                .find('\n')
                .map_or(self.text.len(), |i| self.pos + i),
        };
        self.pos = self.text.len().min(end + 1);
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if let Some((chars, _)) = &mut self.chars {
            return chars.next();
        }
        let class = |i: usize| {
            self.text
                .as_bytes()
                .get(i)
                .map(|&b| BYTE_CLASS[usize::from(b)])
        };
        let mut i = self.pos;
        while class(i) == Some(SPACE) {
            i += 1;
        }
        let start = i;
        while class(i) == Some(TOKEN) {
            i += 1;
        }
        if class(i) == Some(NON_ASCII) {
            // The tokens so far were ASCII and ended at ASCII whitespace,
            // so splitting the rest by chars splits the line as a whole.
            let line = self.rest();
            let end = self.pos + line.find('\n').unwrap_or(line.len());
            let line = &self.text[start..end];
            let content = line.split_once('#').map_or(line, |(content, _)| content);
            self.chars = Some((content.split_whitespace(), end));
            return self.next();
        }
        self.pos = i;
        (i > start).then(|| &self.text[start..i])
    }
}

/// The line's remaining tokens, if there are exactly `N` of them.
fn exactly<'a, const N: usize>(toks: &mut Tokens<'a>) -> Option<[&'a str; N]> {
    let mut out = [""; N];
    for slot in &mut out {
        *slot = toks.next()?;
    }
    toks.next().is_none().then_some(out)
}

/// A number token: `str::parse::<f64>`, then finite and non-negative.
fn parse_num(tok: &str, what: &str) -> Result<f64, String> {
    let v: f64 = tok.parse().map_err(|_| format!("bad {what} {tok:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{what} must be finite and non-negative, got {tok}"));
    }
    Ok(v)
}

/// The cycle times of a `machines` line.
fn parse_cycle_times(toks: &mut Tokens<'_>) -> Result<Vec<f64>, String> {
    let mut cycle_times = Vec::new();
    for t in toks {
        let v = parse_num(t, "cycle time")?;
        if v <= 0.0 {
            return Err(format!("cycle time must be positive, got {t}"));
        }
        cycle_times.push(v);
    }
    if cycle_times.is_empty() {
        return Err("machines needs at least one cycle time".into());
    }
    Ok(cycle_times)
}

/// Stably sorts the requests by release and moves each availability row
/// with its request. A sorted trace, as every rendered or generated one
/// is, is left as it is after one pass.
fn sort_by_release(arrivals: &mut Vec<TraceArrival>, avail: &mut Vec<bool>, m: usize) {
    if arrivals.windows(2).all(|w| w[0].release <= w[1].release) {
        return;
    }
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    // Releases are finite: `partial_cmp` is total, and -0 ties with 0.
    order.sort_by(|&x, &y| {
        arrivals[x]
            .release
            .partial_cmp(&arrivals[y].release)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    *arrivals = order.iter().map(|&k| arrivals[k]).collect();
    *avail = order
        .iter()
        .flat_map(|&k| &avail[k * m..(k + 1) * m])
        .copied()
        .collect();
}

/// The one arrival feed behind [`Trace::replay`], the `simulate` service
/// and [`ShardedEngine::replay_trace`](crate::shard::ShardedEngine::replay_trace):
/// streams the arrivals `picks` names (indices into `trace.arrivals`, in
/// trace order; `None` = all of them) into `eng`, whose machines are the
/// trace's `lo..lo + eng.n_machines()`, and steps it to quiescence, or
/// until it has taken `stop` events.
///
/// Before each step it pushes every arrival released by the earliest
/// pushed-but-unadmitted release (else the next release) plus `EPS`.
/// The engine's clock never passes that release, so these are all the
/// arrivals the step can see as its horizon or admit: the engine takes
/// exactly the events of a run that pushed the whole trace up front,
/// while holding only its in-flight window. The feed resumes at pick
/// `eng.n_pushed()`, so `eng` is fresh or one it stopped, perhaps
/// restored from a snapshot since.
pub(crate) fn stream_arrivals(
    trace: &Trace,
    picks: Option<&[u32]>,
    lo: usize,
    eng: &mut Engine,
    policy: &mut dyn OnlineScheduler,
    mut sink: Option<&mut dyn FnMut(&CompletedJob)>,
    stop: usize,
) -> Result<(), SimError> {
    let n = picks.map_or(trace.arrivals.len(), <[u32]>::len);
    let index = |k: usize| picks.map_or(k, |p| p[k] as usize);
    let arrival = |k: usize| &trace.arrivals[index(k)];
    let m = eng.n_machines();
    // Reused cost row: `push_arrival_ref` copies it straight into the
    // slab, so the steady-state loop performs no allocation.
    let mut costs = vec![0.0f64; m]; // dlflint:allow(alloc-in-hot-loop, "one buffer per replay, recycled across every arrival")
    let mut next = eng.n_pushed();
    // Stall guard equivalent to `Engine::drain`'s.
    let max_iters = 100_000 + 200 * n * (m + 2) + 2 * eng.platform_pending_len();
    for _ in 0..max_iters {
        if eng.n_events() >= stop {
            return Ok(());
        }
        if next < n {
            // Arrivals are sorted and admitted in release order, so the
            // pending ones are the last `pending_len` pushed.
            let t0 = arrival(next.saturating_sub(eng.pending_len())).release;
            while next < n && arrival(next).release <= t0 + EPS {
                let a = arrival(next);
                let avail = trace
                    .avail_row(index(next))
                    .and_then(|row| row.get(lo..lo + m));
                let (Some(cts), Some(avail)) = (trace.cycle_times.get(lo..lo + m), avail) else {
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
        for (k, arr) in a.arrivals.iter().enumerate() {
            assert!(a.avail_row(k).unwrap().contains(&true));
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
                },
                TraceArrival {
                    release: 0.1,
                    size: 3.0,
                    weight: 0.5,
                },
                TraceArrival {
                    release: 12.25,
                    size: 0.30000000000000004,
                    weight: 2.0,
                },
            ],
            #[rustfmt::skip]
            avail: vec![
                true, true, true,
                true, false, true,
                false, false, true,
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

    /// Hand-built traces whose availability matrix is not `len() ×
    /// n_machines()`: one cell short, and one cell long. (The sharded
    /// replay's test sits in `shard.rs`.)
    fn misshapen_traces() -> [Trace; 2] {
        let trace = |avail: Vec<bool>| Trace {
            cycle_times: vec![1.0, 1.0],
            arrivals: vec![
                TraceArrival {
                    release: 0.0,
                    size: 2.0,
                    weight: 1.0,
                };
                2
            ],
            avail,
            platform_events: Vec::new(),
        };
        [trace(vec![true; 3]), trace(vec![true; 5])]
    }

    const SHORT_ROW: &str = "costs length does not match the machine count";

    #[test]
    fn replay_rejects_an_availability_row_of_the_wrong_length() {
        // The misshapen matrix must not leave a stale zero cost on a
        // machine, nor read a neighbour's row.
        for trace in misshapen_traces() {
            let err = trace
                .replay(&mut crate::schedulers::Swrpt::new())
                .unwrap_err();
            assert_eq!(err, SimError::InvalidJob { reason: SHORT_ROW });
        }
    }

    #[test]
    fn service_paths_reject_an_availability_matrix_of_the_wrong_size() {
        use crate::service::{run_simulation_with, FaultInjection, SimInput, SimOptions};
        let faults = Some(FaultInjection {
            mtbf: 1e9,
            mttr: 1.0,
            seed: 1,
            until: Some(10.0),
        });
        for trace in misshapen_traces() {
            let input = SimInput::Open(trace);
            for opts in [
                SimOptions {
                    shards: 2,
                    ..Default::default()
                },
                SimOptions {
                    faults: faults.clone(),
                    ..Default::default()
                },
                SimOptions {
                    snapshot_at: Some(1),
                    ..Default::default()
                },
            ] {
                let err =
                    run_simulation_with(&input, &crate::campaign::SchedulerSpec::Swrpt, &opts)
                        .unwrap_err();
                assert!(err.ends_with(SHORT_ROW), "{opts:?}: {err}");
            }
        }
    }

    #[test]
    fn to_instance_rejects_an_availability_matrix_of_the_wrong_size() {
        for trace in misshapen_traces() {
            assert_eq!(
                trace.to_instance().unwrap_err(),
                "cost matrix shape mismatch"
            );
        }
    }

    #[test]
    fn job_spec_and_to_dlt_survive_an_availability_matrix_of_the_wrong_size() {
        for trace in misshapen_traces() {
            // No row: an empty cost row, which the engine refuses.
            let spec = trace.job_spec(1);
            assert!(spec.costs.is_empty());
            let err = Engine::new(2).push_arrival(spec).unwrap_err();
            assert_eq!(err, SimError::InvalidJob { reason: SHORT_ROW });
            // No row: an empty mask, which the parser refuses.
            let text = trace.to_dlt();
            assert!(text.contains("arrival 0 2 1 \n"), "{text}");
            let err = Trace::parse_dlt(&text).unwrap_err();
            assert!(err.contains("arrival expects"), "{err}");
        }
    }

    #[test]
    fn a_dlt_text_cannot_ask_for_more_availability_cells_than_the_bound() {
        // 2¹⁴ machines and 2¹⁴ arrivals already read fill the bound to the
        // cell; the hand-built state holds no matrix, so nothing large is
        // allocated.
        let m = 1 << 14;
        let arrival = TraceArrival {
            release: 0.0,
            size: 1.0,
            weight: 1.0,
        };
        let mut parser = DltParser {
            cycle_times: Some(vec![1.0; m]),
            arrivals: vec![arrival; 1 << 14],
            down: vec![false; m],
            ..Default::default()
        };
        assert_eq!(parser.arrivals.len() * m, MAX_AVAIL_CELLS);
        let err = parser
            .line(&mut Tokens::new("arrival 0 1 1 *"))
            .unwrap_err();
        assert_eq!(
            err,
            "too many availability cells: requests × machines would pass 268435456"
        );
        assert_eq!((parser.arrivals.len(), parser.avail.len()), (1 << 14, 0));
        // Under the bound the same line is read.
        parser.arrivals.pop();
        parser.line(&mut Tokens::new("arrival 0 1 1 *")).unwrap();
        assert_eq!((parser.arrivals.len(), parser.avail.len()), (1 << 14, m));
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

/// Differential fuzz of [`Trace::parse_dlt`] against the parser it
/// replaced: the same trace bit for bit, or the same error byte for byte.
#[cfg(test)]
mod dlt_fuzz {
    use super::*;
    use proptest::prelude::*;

    /// The line-by-line `.dlt` parser that [`Trace::parse_dlt`] replaced,
    /// changed only to return the flat availability matrix: one `Vec` per
    /// line of tokens and one per mask.
    fn oracle_parse_dlt(text: &str) -> Result<Trace, String> {
        let mut cycle_times: Option<Vec<f64>> = None;
        let mut arrivals: Vec<(TraceArrival, Vec<bool>)> = Vec::new();
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
                    arrivals.push((
                        TraceArrival {
                            release,
                            size,
                            weight,
                        },
                        avail,
                    ));
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
        arrivals.sort_by(|a, b| a.0.release.partial_cmp(&b.0.release).unwrap());
        Ok(Trace {
            cycle_times,
            avail: arrivals
                .iter()
                .flat_map(|(_, row)| row.iter().copied())
                .collect(),
            arrivals: arrivals.into_iter().map(|(a, _)| a).collect(),
            platform_events,
        })
    }

    /// Everything a trace holds, floats as bits.
    type Bits = (Vec<u64>, Vec<[u64; 3]>, Vec<bool>, Vec<(u64, usize, bool)>);

    fn bits(t: &Trace) -> Bits {
        (
            t.cycle_times.iter().map(|x| x.to_bits()).collect(),
            t.arrivals
                .iter()
                .map(|a| [a.release.to_bits(), a.size.to_bits(), a.weight.to_bits()])
                .collect(),
            t.avail.clone(),
            t.platform_events
                .iter()
                .map(|e| {
                    (
                        e.time.to_bits(),
                        e.machine,
                        e.change == PlatformChange::Down,
                    )
                })
                .collect(),
        )
    }

    /// Asserts that the parser gives the oracle's answer.
    fn assert_matches_oracle(text: &str) -> Result<(), TestCaseError> {
        let want = oracle_parse_dlt(text).map(|t| bits(&t));
        let got = Trace::parse_dlt(text).map(|t| bits(&t));
        prop_assert!(got == want, "on {text:?}:\n got {got:?}\nwant {want:?}");
        Ok(())
    }

    fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
        &items[rng.gen_range(0..items.len())]
    }

    /// A `.dlt` document of 1–40 machines: tied and unsorted releases,
    /// `*` and explicit masks, faults or none, comments and blank lines.
    fn random_dlt(rng: &mut SmallRng) -> String {
        let m = rng.gen_range(1..=40usize);
        let mut doc = String::new();
        if rng.gen_bool(0.5) {
            doc.push_str("# a fuzzed trace\n");
        }
        doc.push_str("machines");
        for _ in 0..m {
            let any = rng.gen_range(0.2..4.0);
            let _ = write!(doc, " {}", pick(rng, &[1.0, 0.1, 2.5, any]));
        }
        doc.push('\n');
        // Platform events in time order, alternating per machine.
        let mut events = Vec::new();
        if rng.gen_bool(0.5) {
            let mut down = vec![false; m];
            let mut t = 0.0;
            for _ in 0..rng.gen_range(0..12) {
                let any = rng.gen_range(0.0..3.0);
                t += pick(rng, &[0.0, 0.5, any]);
                let i = rng.gen_range(0..m);
                down[i] = !down[i];
                events.push(format!(
                    "{} {t} {i}",
                    if down[i] { "fail" } else { "recover" }
                ));
            }
        }
        let mut events = events.into_iter().peekable();
        for _ in 0..rng.gen_range(0..=60) {
            while events.peek().is_some() && rng.gen_bool(0.2) {
                doc.push_str(&events.next().unwrap_or_default());
                doc.push('\n');
            }
            let any = rng.gen_range(0.0..10.0);
            let release = *pick(rng, &[0.0, 0.5, 1.0, 2.25, any]);
            let size = rng.gen_range(0.01..5.0);
            let weight = pick(rng, &[1.0, 2.0, 5.0, 0.0]);
            let _ = write!(doc, "arrival {release} {size} {weight} ");
            if rng.gen_bool(0.3) {
                doc.push('*');
            } else {
                let one = rng.gen_range(0..m);
                doc.extend((0..m).map(|i| {
                    if i == one || rng.gen_bool(0.5) {
                        '1'
                    } else {
                        '0'
                    }
                }));
            }
            if rng.gen_bool(0.1) {
                doc.push_str(" # note");
            }
            doc.push('\n');
            if rng.gen_bool(0.05) {
                let line = pick(rng, &["\n", "# comment\n", "  \t\n"]);
                doc.push_str(line);
            }
        }
        for e in events {
            doc.push_str(&e);
            doc.push('\n');
        }
        doc
    }

    /// Byte spans of the whitespace-separated tokens of `text`.
    fn token_spans(text: &str) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = None;
        for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
            match (start, c.is_whitespace()) {
                (None, false) => start = Some(i),
                (Some(s), true) => {
                    spans.push((s, i));
                    start = None;
                }
                _ => {}
            }
        }
        spans
    }

    /// One random mutation of `text`.
    fn mutate(text: &str, rng: &mut SmallRng) -> String {
        let toks = token_spans(text);
        let mut lines: Vec<String> = text
            .split_inclusive('\n')
            .map(|l| {
                if l.ends_with('\n') {
                    l.to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let tok = |rng: &mut SmallRng| *pick(rng, &toks);
        match rng.gen_range(0..11) {
            // Truncation at any byte (that keeps the text UTF-8).
            0 => {
                let mut cut = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                return text[..cut].to_string();
            }
            // Token splice and deletion.
            1 if !toks.is_empty() => {
                let ((a, b), (at, _)) = (tok(rng), tok(rng));
                return format!("{} {} {}", &text[..at], &text[a..b], &text[at..]);
            }
            2 if !toks.is_empty() => {
                let (a, b) = tok(rng);
                return format!("{}{}", &text[..a], &text[b..]);
            }
            // A number that parses but is refused, or does not parse.
            3 if !toks.is_empty() => {
                let (a, b) = tok(rng);
                let bad = pick(rng, &["-1", "-0", "nan", "inf", "1e400", "+.5", "0"]);
                return format!("{}{bad}{}", &text[..a], &text[b..]);
            }
            // Duplicated and swapped lines, a second machines line.
            4 if !lines.is_empty() => {
                let k = rng.gen_range(0..lines.len());
                let line = lines[k].clone();
                lines.insert(rng.gen_range(0..=lines.len()), line);
            }
            5 if !lines.is_empty() => {
                let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
                lines.swap(i, j);
            }
            6 => lines.insert(rng.gen_range(0..=lines.len()), "machines 1 2\n".into()),
            7 => return text.replace('\n', "\r\n"),
            // Other separators: every char `char::is_whitespace` accepts
            // on ASCII, a lone `\r`, three Unicode spaces, and `\x1C`,
            // which is no whitespace at all.
            8 => {
                let seps = [
                    "\t", "\x0B", "\x0C", "\r", "\u{A0}", "\u{3000}", "\u{85}", "\x1C",
                ];
                let sep = *pick(rng, &seps);
                let every = rng.gen_bool(0.3);
                return text
                    .split(' ')
                    .enumerate()
                    .map(|(i, part)| {
                        let keep = i == 0 || !(every || rng.gen_bool(0.2));
                        format!(
                            "{}{part}",
                            if i == 0 {
                                ""
                            } else if keep {
                                " "
                            } else {
                                sep
                            }
                        )
                    })
                    .collect();
            }
            // `#` inside a token.
            9 if !toks.is_empty() => {
                let (a, b) = tok(rng);
                let mut at = rng.gen_range(a..=b);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                return format!("{}#{}", &text[..at], &text[at..]);
            }
            // Blank and comment-only lines.
            _ => {
                let line = pick(rng, &["\n", "# only a comment\n", " \t \n", "#\n"]);
                lines.insert(rng.gen_range(0..=lines.len()), line.to_string());
            }
        }
        lines.concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_matches_the_line_parser(seed in any::<u64>(), n_mutations in 0usize..4) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut text = random_dlt(&mut rng);
            for _ in 0..n_mutations {
                text = mutate(&text, &mut rng);
            }
            assert_matches_oracle(&text)?;
        }
    }

    #[test]
    fn hand_picked_documents_match_the_line_parser() {
        for text in [
            "",
            "\n\n",
            "machines 1",
            "machines 1\narrival 0 1 1 *",
            "machines 1 2\r\narrival 0 1 1 10\r\narrival 0 1 1 01\r\n",
            "machines\x0B1\narrival\x0B0\x0B1\x0B1\x0B*\n",
            "machines 1\narrival\u{A0}0 1 1 *\narrival 0\u{3000}1 1 *\n",
            "machines 1 # fleet\narrival 0 1 1 *# no space before the comment\n",
            "machines 1\narrival 0 1 1 *\rarrival 0 1 1 *\n",
            "machines 1\narri#val 0 1 1 *\n",
            "machines 1\narrival 0 1 1 é\n",
            "machines 1 1\narrival 0 1 1 é\n",
            "machines 1\narrival -0 1 1 *\narrival 0 2 1 *\narrival -0 3 1 *\n",
            "machines 1\nfail 1 0\nrecover 0.5 0\narrival 0 1 1 *\nfrob\n",
            "machines 1\narrival 0 1 1 *\nmachines 2\n",
            "machines 1 2\narrival 0 1 1 00\n",
            "machines 1\narrival x 1 1 *\n",
            "# only a comment\n",
        ] {
            assert_matches_oracle(text).unwrap();
        }
    }

    #[test]
    fn the_benchmark_trace_parses_as_the_line_parser_parses_it() {
        // The `stream-swrpt` trace: 300k requests on 3 machines.
        for seed in [1, 8191] {
            let spec = |n_requests, seed| TraceSpec {
                n_requests,
                n_machines: 3,
                availability: 0.6,
                process: ArrivalProcess::Poisson { rate: 2.0 },
                seed,
                ..Default::default()
            };
            let mut trace = generate_trace(&spec(300_000, seed));
            trace.cycle_times = generate_trace(&spec(1, 4)).cycle_times;
            let text = trace.to_dlt();
            let parsed = Trace::parse_dlt(&text).unwrap();
            assert!(bits(&parsed) == bits(&oracle_parse_dlt(&text).unwrap()));
            assert!(bits(&parsed) == bits(&trace));
        }
    }
}
