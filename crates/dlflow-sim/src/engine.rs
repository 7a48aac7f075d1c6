//! Incremental fluid discrete-event simulation engine.
//!
//! The core is a resumable [`Engine`] state machine: arrivals are *pushed*
//! into an event queue ([`Engine::push_arrival`]), the engine advances one
//! event at a time ([`Engine::step`]) or until it runs out of work
//! ([`Engine::drain`]), and completions stream back out as they happen.
//! Between consecutive events the scheduler's allocation (a sparse rate
//! map) is integrated exactly; events are arrivals, completions, and
//! platform changes (machine failures and recoveries pushed through
//! [`Engine::push_platform_event`]). The engine enforces the model
//! invariants (machine capacity, availability, liveness) and replays any
//! online policy reproducibly — this is the testbed for the paper's
//! concluding claim that an online adaptation of the offline algorithm
//! beats MCT.
//!
//! ## Hot-path layout
//!
//! Internally the engine is *flat*: jobs live in a slab of parallel
//! structure-of-arrays columns (id / remaining / release / weight /
//! fastest, plus one contiguous `slab × machines` cost arena), addressed
//! by stable slot indices that are recycled through a free list. The two
//! event queues are index-based 4-ary min-heaps of small `Copy` keys
//! (`heap::DaryHeap`), and the admission-ordered active set is a plain
//! `Vec<u32>` of slots. Schedulers see this storage through the borrowed
//! [`ActiveSet`] / [`JobView`] façade and write their plan into a
//! caller-owned [`Allocation`] whose row storage the engine recycles
//! event over event. The result is **zero allocations per steady-state
//! event** on the `step`/`drain`/`admit_due` path (capacity warms up to
//! the high-water mark, then stays) — a property enforced by
//! `dlflow-lint`'s `alloc-in-hot-loop` analysis and measured by
//! `bench-report --allocs`.
//!
//! Per-event cost is `O(assigned entries + |active|)` and memory is
//! `O(|active| + |pending|)` slots (plus one `u32` per pushed id for the
//! id→slot map) — independent of how many requests the surrounding trace
//! contains, which is what lets `dlflow simulate` replay 100k-request
//! open-arrival traces (see `workload::Trace`). The closed-instance entry
//! point [`simulate`] survives as a thin wrapper that pushes every job of
//! an [`Instance`] up front; the seed's dense-allocation batch loop is
//! kept as [`simulate_dense`], a parity oracle for `tests/prop_engine.rs`
//! and the baseline of the throughput benchmarks, and the PR-5
//! `Vec<ActiveJob>` engine survives verbatim as
//! [`crate::reference::ReferenceEngine`], the differential oracle of
//! `tests/prop_shard.rs`.
//!
//! ## Streaming example
//!
//! ```
//! use dlflow_sim::engine::{Engine, JobSpec};
//! use dlflow_sim::schedulers::Swrpt;
//!
//! let mut eng = Engine::new(2); // two machines
//! let mut policy = Swrpt::new();
//! eng.push_arrival(JobSpec { release: 0.0, weight: 1.0, costs: vec![4.0, 8.0] }).unwrap();
//! eng.push_arrival(JobSpec { release: 1.0, weight: 1.0, costs: vec![2.0, f64::INFINITY] }).unwrap();
//! eng.drain(&mut policy).unwrap();
//! assert_eq!(eng.take_completed().len(), 2);
//! assert!(eng.metrics().makespan > 0.0);
//! ```

use crate::heap::{DaryHeap, HeapOrd};
use dlflow_core::instance::Instance;

/// Comparison slack shared by the engine's admission and completion
/// checks (and by the trace replayer's arrival batching).
pub(crate) const EPS: f64 = 1e-9;

/// Sentinel for "no slot" / "not active" in the engine's `u32` index
/// maps.
const NONE: u32 = u32::MAX;

/// A job as it enters the engine: release date, weight, and one
/// processing cost per machine (`f64::INFINITY` where the machine lacks
/// the job's databank). This is the open-arrival counterpart of an
/// [`Instance`] column — no closed instance is required.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Release date `r_j ≥ 0`.
    pub release: f64,
    /// Weight `w_j ≥ 0` (zero-weight jobs are tolerated: they simply
    /// never bind the weighted-flow objective).
    pub weight: f64,
    /// Seconds each machine needs for the whole job; `f64::INFINITY`
    /// marks the machine as unavailable. At least one entry must be
    /// finite.
    pub costs: Vec<f64>,
}

/// A released, not-yet-finished job materialized as an owning struct.
/// The flattened [`Engine`] no longer stores these (jobs live in its
/// slab); the type survives as the working representation of the
/// [`simulate_dense`] parity oracle and the reference engine, and as the
/// unit the crate-internal `ScratchSet` adapter flattens into an
/// [`ActiveSet`].
#[derive(Clone, Debug)]
pub struct ActiveJob {
    /// Engine-assigned job id (assignment order of [`Engine::push_arrival`]).
    pub id: usize,
    /// Remaining fraction of the job, in `(0, 1]`.
    pub remaining: f64,
    /// Release date.
    pub release: f64,
    /// Weight.
    pub weight: f64,
    pub(crate) costs: Box<[f64]>,
    pub(crate) fastest: f64,
}

impl ActiveJob {
    pub(crate) fn new(id: usize, spec: JobSpec) -> ActiveJob {
        let fastest = spec.costs.iter().cloned().fold(f64::INFINITY, f64::min);
        ActiveJob {
            id,
            remaining: 1.0,
            release: spec.release,
            weight: spec.weight,
            costs: spec.costs.into_boxed_slice(),
            fastest,
        }
    }

    /// Processing cost of the whole job on `machine`, `None` when the
    /// machine lacks the job's databank.
    pub fn cost(&self, machine: usize) -> Option<f64> {
        let c = self.costs[machine];
        c.is_finite().then_some(c)
    }

    /// Smallest finite cost across machines (the job's fastest possible
    /// total processing time).
    pub fn fastest_cost(&self) -> f64 {
        self.fastest
    }

    /// Number of machines the job knows costs for.
    pub fn n_machines(&self) -> usize {
        self.costs.len()
    }
}

/// A borrowed, `Copy` view of one released, unfinished job — what a
/// scheduler sees. The data lives in the engine's structure-of-arrays
/// slab (or in a `ScratchSet` adapter); the view is a few words of
/// scalars plus a borrowed cost row, so policies pass it around by
/// value without touching the heap.
#[derive(Clone, Copy, Debug)]
pub struct JobView<'a> {
    /// Engine-assigned job id (assignment order of [`Engine::push_arrival`]).
    pub id: usize,
    /// Remaining fraction of the job, in `(0, 1]`.
    pub remaining: f64,
    /// Release date.
    pub release: f64,
    /// Weight.
    pub weight: f64,
    pub(crate) fastest: f64,
    pub(crate) costs: &'a [f64],
}

impl<'a> JobView<'a> {
    /// Processing cost of the whole job on `machine`, `None` when the
    /// machine lacks the job's databank.
    pub fn cost(&self, machine: usize) -> Option<f64> {
        let c = self.costs[machine];
        c.is_finite().then_some(c)
    }

    /// Smallest finite cost across machines (the job's fastest possible
    /// total processing time).
    pub fn fastest_cost(&self) -> f64 {
        self.fastest
    }

    /// Number of machines the job knows costs for.
    pub fn n_machines(&self) -> usize {
        self.costs.len()
    }

    /// The borrowed per-machine cost row.
    pub fn costs(&self) -> &'a [f64] {
        self.costs
    }
}

/// The set of released, unfinished jobs in admission order, as a `Copy`
/// bundle of borrowed structure-of-arrays columns, with the engine's
/// row of which machines are in service. This is what
/// [`OnlineScheduler::plan`] receives instead of a `&[ActiveJob]` slice:
/// indexing yields [`JobView`]s without the engine ever materializing
/// per-job structs on the hot path.
#[derive(Clone, Copy, Debug)]
pub struct ActiveSet<'a> {
    order: &'a [u32],
    ids: &'a [usize],
    remaining: &'a [f64],
    release: &'a [f64],
    weight: &'a [f64],
    fastest: &'a [f64],
    costs: &'a [f64],
    n_machines: usize,
    up: &'a [bool],
}

impl<'a> ActiveSet<'a> {
    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the active set empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of machines each job carries costs for.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Which machines are in service: `up()[i]` is `false` while machine
    /// `i` is down. The engine owns this row; a share handed to a down
    /// machine is rejected with [`SimError::DeadMachineAllocation`].
    pub fn up(&self) -> &'a [bool] {
        self.up
    }

    /// The `k`-th active job in admission order.
    pub fn get(&self, k: usize) -> JobView<'a> {
        let s = self.order[k] as usize;
        JobView {
            id: self.ids[s],
            remaining: self.remaining[s],
            release: self.release[s],
            weight: self.weight[s],
            fastest: self.fastest[s],
            costs: &self.costs[s * self.n_machines..(s + 1) * self.n_machines],
        }
    }

    /// Iterates the active jobs in admission order.
    pub fn iter(&self) -> impl Iterator<Item = JobView<'a>> {
        let this = *self;
        (0..this.len()).map(move |k| this.get(k))
    }
}

/// Flattens a `&[ActiveJob]` slice into [`ActiveSet`] column storage, so
/// the dense parity oracle and the reference engine can drive policies
/// through the same `plan` signature as the flattened engine. Buffers
/// are recycled across calls.
#[derive(Debug, Default)]
pub(crate) struct ScratchSet {
    order: Vec<u32>,
    ids: Vec<usize>,
    remaining: Vec<f64>,
    release: Vec<f64>,
    weight: Vec<f64>,
    fastest: Vec<f64>,
    costs: Vec<f64>,
}

impl ScratchSet {
    /// Rebuilds the columns from `active` (each job must carry
    /// `n_machines` costs).
    pub(crate) fn fill(&mut self, active: &[ActiveJob], n_machines: usize) {
        self.order.clear();
        self.ids.clear();
        self.remaining.clear();
        self.release.clear();
        self.weight.clear();
        self.fastest.clear();
        self.costs.clear();
        for (k, a) in active.iter().enumerate() {
            debug_assert_eq!(a.costs.len(), n_machines);
            self.order.push(k as u32);
            self.ids.push(a.id);
            self.remaining.push(a.remaining);
            self.release.push(a.release);
            self.weight.push(a.weight);
            self.fastest.push(a.fastest);
            self.costs.extend_from_slice(&a.costs);
        }
    }

    /// The flattened view over the current fill, on a platform whose
    /// machines are in service as `up` says (one entry per machine).
    pub(crate) fn view<'a>(&'a self, up: &'a [bool]) -> ActiveSet<'a> {
        ActiveSet {
            order: &self.order,
            ids: &self.ids,
            remaining: &self.remaining,
            release: &self.release,
            weight: &self.weight,
            fastest: &self.fastest,
            costs: &self.costs,
            n_machines: up.len(),
            up,
        }
    }
}

/// A [`JobView`] borrowing an owning [`ActiveJob`] (for the dense and
/// reference drivers' `on_arrival` notifications).
pub(crate) fn view_of(a: &ActiveJob) -> JobView<'_> {
    JobView {
        id: a.id,
        remaining: a.remaining,
        release: a.release,
        weight: a.weight,
        fastest: a.fastest,
        costs: &a.costs,
    }
}

/// A sparse rate allocation: for each machine, the share (0..=1) it
/// devotes to each job it serves. Machines' shares must sum to at most 1.
/// Memory is proportional to the number of *assigned* (machine, job)
/// pairs — independent of how many jobs the whole trace contains. The
/// engine hands policies a recycled instance every event
/// ([`Allocation::reset`] keeps row capacity), so steady-state planning
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Allocation {
    /// Per machine: `(job id, share)` entries sorted by job id.
    rows: Vec<Vec<(usize, f64)>>,
}

impl Allocation {
    /// The all-idle allocation for `n_machines` machines.
    pub fn idle(n_machines: usize) -> Self {
        Allocation {
            rows: vec![Vec::new(); n_machines], // dlflint:allow(alloc-in-hot-loop, "the returned Allocation is the product of planning, not a reusable scratch buffer")
        }
    }

    /// Clears every row and resizes to `n_machines`, keeping row
    /// capacity: the engine's per-event recycling entry point.
    pub fn reset(&mut self, n_machines: usize) {
        self.rows.truncate(n_machines);
        for row in &mut self.rows {
            row.clear();
        }
        while self.rows.len() < n_machines {
            self.rows.push(Vec::new()); // dlflint:allow(alloc-in-hot-loop, "an empty Vec allocates nothing; rows grow to the machine count once and are recycled after")
        }
    }

    /// Number of machines the allocation addresses.
    pub fn n_machines(&self) -> usize {
        self.rows.len()
    }

    /// Sets machine `machine`'s share for `job` (replacing any previous
    /// value).
    pub fn set(&mut self, machine: usize, job: usize, share: f64) {
        let row = &mut self.rows[machine];
        match row.binary_search_by_key(&job, |e| e.0) {
            Ok(k) => row[k].1 = share,
            Err(k) => row.insert(k, (job, share)),
        }
    }

    /// Adds `share` to machine `machine`'s share for `job`.
    pub fn add(&mut self, machine: usize, job: usize, share: f64) {
        let row = &mut self.rows[machine];
        match row.binary_search_by_key(&job, |e| e.0) {
            Ok(k) => row[k].1 += share,
            Err(k) => row.insert(k, (job, share)),
        }
    }

    /// Machine `machine`'s share for `job` (0 when unassigned, or when
    /// the machine index is out of range).
    pub fn share(&self, machine: usize, job: usize) -> f64 {
        let Some(row) = self.rows.get(machine) else {
            return 0.0;
        };
        match row.binary_search_by_key(&job, |e| e.0) {
            Ok(k) => row[k].1,
            Err(_) => 0.0,
        }
    }

    /// The `(job, share)` entries of one machine, sorted by job id.
    pub fn entries(&self, machine: usize) -> &[(usize, f64)] {
        &self.rows[machine]
    }

    /// Total share machine `machine` hands out.
    pub(crate) fn machine_total(&self, machine: usize) -> f64 {
        self.rows[machine].iter().map(|e| e.1).sum()
    }

    /// Scales every share of `machine` by `factor` (used to normalize a
    /// marginally oversubscribed machine).
    pub(crate) fn scale_machine(&mut self, machine: usize, factor: f64) {
        for e in &mut self.rows[machine] {
            e.1 *= factor;
        }
    }
}

/// Re-solve cost telemetry reported by LP-backed policies (OLA) through
/// [`OnlineScheduler::resolve_stats`]. Counters are *deterministic*
/// proxies — LP solves, not wall time — so reports that include them
/// stay byte-stable across runs and machines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Full re-plans performed, including those of a single active job,
    /// which solve no LP.
    pub n_resolves: usize,
    /// LP solves started from a previous solve's optimal basis: OLA's
    /// second stage, warm from the first stage's basis.
    pub warm_lp_solves: usize,
    /// LP solves performed from scratch: the milestone-search probes, the
    /// first stage, any serial-bound fallback, and a second stage whose
    /// warm start did not fit.
    pub cold_lp_solves: usize,
    /// Re-plans during which at least one LP solve was served warm.
    pub warm_resolves: usize,
    /// Re-plans served entirely by cold solves, or by none at all (a
    /// single active job).
    pub cold_resolves: usize,
}

impl ResolveStats {
    /// Total LP solves.
    pub fn lp_solves(&self) -> usize {
        self.warm_lp_solves + self.cold_lp_solves
    }

    /// Mean LP solves per full re-plan — the deterministic "mean resolve
    /// cost" figure surfaced in service reports.
    pub fn mean_lp_solves_per_resolve(&self) -> f64 {
        if self.n_resolves == 0 {
            0.0
        } else {
            self.lp_solves() as f64 / self.n_resolves as f64
        }
    }

    /// Component-wise sum (used to aggregate across shards).
    pub fn merge(&mut self, other: &ResolveStats) {
        self.n_resolves += other.n_resolves;
        self.warm_lp_solves += other.warm_lp_solves;
        self.cold_lp_solves += other.cold_lp_solves;
        self.warm_resolves += other.warm_resolves;
        self.cold_resolves += other.cold_resolves;
    }
}

/// An online scheduling policy, driven by event notifications. The
/// engine tells the policy about arrivals, completions and platform
/// changes so it can keep incremental state; [`OnlineScheduler::plan`] is
/// called at every event and sees only the currently active jobs and the
/// machines in service (the online model of §5 — future jobs are
/// unknown).
pub trait OnlineScheduler {
    /// Display name (used by experiment tables).
    fn name(&self) -> String;

    /// A job has entered the system (called once per job, before the
    /// next `plan`). Policies keeping per-job state start it here. The
    /// view is `Copy`; policies wanting the cost row beyond the call must
    /// copy it out.
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {}

    /// A job has completed (called before the next `plan`). Policies
    /// drop per-job state here.
    fn on_completion(&mut self, _now: f64, _job_id: usize) {}

    /// Writes the sparse rate allocation to apply until the next event
    /// into `alloc`. `active` lists released unfinished jobs in
    /// admission order, with their remaining fractions and per-machine
    /// costs, and [`ActiveSet::up`] says which machines are in service:
    /// a share on a down machine is rejected. `alloc` arrives reset to
    /// `active.n_machines()` empty rows (row capacity recycled from the
    /// previous event) — policies fill it and must not assume it retains
    /// prior contents.
    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation);

    /// The platform changed (machines failed or recovered) at `now`;
    /// `up[i]` tells whether machine `i` is in service. Policies holding
    /// machine-keyed state (queue assignments) must drop or rebuild it
    /// here. The next `plan` reads the same row off [`ActiveSet::up`],
    /// so a policy need not keep a copy of it.
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {}

    /// Serializes policy-internal state for [`Engine::snapshot`] as
    /// newline-separated lines (empty for stateless policies, the
    /// default). Must round-trip bit-exactly through
    /// [`OnlineScheduler::restore_state`].
    ///
    /// [`Engine::snapshot`]: crate::snapshot
    fn snapshot_state(&self) -> String {
        String::new()
    }

    /// Restores state captured by [`OnlineScheduler::snapshot_state`];
    /// the engine calls this on a freshly `reset` policy during restore.
    /// The default accepts only the stateless empty form.
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err("policy has no persistent state to restore".into())
        }
    }

    /// Reset internal state between runs.
    fn reset(&mut self) {}

    /// Re-solve cost telemetry since the last `reset`, for policies that
    /// pay an LP solve per plan (OLA and friends). `None` (the default)
    /// means the policy has no resolve machinery to report on; service
    /// reports omit the resolve block in that case.
    fn resolve_stats(&self) -> Option<ResolveStats> {
        None
    }
}

/// One finished job, streamed out of the engine as it completes.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedJob {
    /// Engine-assigned job id.
    pub id: usize,
    /// Release date.
    pub release: f64,
    /// Weight.
    pub weight: f64,
    /// Fastest possible total processing time (stretch denominator).
    pub fastest_cost: f64,
    /// Completion time.
    pub completion: f64,
}

/// Outcome of a simulation run (closed-instance entry points).
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Completion time per job.
    pub completions: Vec<f64>,
    /// Number of events processed.
    pub n_events: usize,
    /// Number of `plan` invocations.
    pub n_plans: usize,
    /// Machine-seconds of occupied capacity per machine: the integral of
    /// the shares each machine devoted to then-active jobs. Feeds the
    /// utilization column of campaign reports.
    pub busy: Vec<f64>,
}

impl SimResult {
    /// Fleet utilization over the span `[first release, makespan]`:
    /// total busy machine-seconds divided by total offered capacity.
    /// Returns 0 for degenerate (zero-length) spans.
    pub fn utilization(&self, inst: &Instance<f64>) -> f64 {
        let first = (0..inst.n_jobs())
            .map(|j| inst.job(j).release)
            .fold(f64::INFINITY, f64::min);
        let makespan = self.completions.iter().cloned().fold(0.0f64, f64::max);
        utilization_of(&self.busy, first, makespan)
    }
}

/// The one check of a job entering an engine of `n_machines` machines,
/// by a push (flat or sharded) or a snapshot restore: why its spec is
/// invalid (wrong `costs` length, no finite cost, a negative or NaN
/// cost, a negative or non-finite release or weight), if it is.
pub(crate) fn check_job(
    n_machines: usize,
    release: f64,
    weight: f64,
    costs: &[f64],
) -> Result<(), &'static str> {
    if costs.len() != n_machines {
        return Err("costs length does not match the machine count");
    }
    if !costs.iter().any(|c| c.is_finite()) {
        return Err("job can run on no machine");
    }
    if !costs.iter().all(|c| *c >= 0.0) {
        return Err("job has a negative or NaN cost");
    }
    if !(release.is_finite() && release >= 0.0) {
        return Err("job release must be finite and non-negative");
    }
    if !(weight.is_finite() && weight >= 0.0) {
        return Err("job weight must be finite and non-negative");
    }
    Ok(())
}

pub(crate) fn utilization_of(busy: &[f64], first_release: f64, makespan: f64) -> f64 {
    let span = makespan - first_release;
    if !span.is_finite() || span <= 0.0 {
        return 0.0;
    }
    let total: f64 = busy.iter().sum();
    total / (span * busy.len().max(1) as f64)
}

/// Errors the engine can surface. [`SimError::InvalidJob`] and
/// [`SimError::InvalidPlatformEvent`] indicate malformed input handed to
/// the push entry points; every other variant indicates a faulty
/// scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A malformed [`JobSpec`] was pushed (see [`Engine::push_arrival`]).
    InvalidJob {
        /// What was wrong with the spec.
        reason: &'static str,
    },
    /// A malformed [`PlatformEvent`] was pushed (see
    /// [`Engine::push_platform_event`]).
    InvalidPlatformEvent {
        /// What was wrong with the event.
        reason: &'static str,
    },
    /// A machine's shares summed to more than 1.
    MachineOversubscribed {
        /// Machine index.
        machine: usize,
        /// Offending total share.
        total: f64,
    },
    /// A rate was assigned to a job on a machine lacking its databank.
    ForbiddenAssignment {
        /// Machine index.
        machine: usize,
        /// Job index.
        job: usize,
    },
    /// A rate was assigned to a machine that is currently down — the
    /// policy ignored the [`ActiveSet::up`] row it planned with.
    DeadMachineAllocation {
        /// Machine index.
        machine: usize,
        /// Job index.
        job: usize,
    },
    /// Active jobs exist, no work is scheduled, and no future event
    /// (arrival *or* platform recovery) is pending.
    Stalled {
        /// Simulation time at the stall.
        at: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidJob { reason } => write!(f, "invalid job spec: {reason}"),
            SimError::InvalidPlatformEvent { reason } => {
                write!(f, "invalid platform event: {reason}")
            }
            SimError::MachineOversubscribed { machine, total } => {
                write!(f, "machine {machine} oversubscribed: Σ shares = {total}")
            }
            SimError::ForbiddenAssignment { machine, job } => {
                write!(
                    f,
                    "job {job} assigned to machine {machine} without its databank"
                )
            }
            SimError::DeadMachineAllocation { machine, job } => {
                write!(
                    f,
                    "job {job} assigned to machine {machine} while it is down"
                )
            }
            SimError::Stalled { at } => write!(f, "simulation stalled at t = {at}"),
        }
    }
}

impl std::error::Error for SimError {}

/// What one [`Engine::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine advanced to the next event (an arrival admission
    /// and/or a time integration step).
    Advanced,
    /// Nothing to do: no active jobs and no pending arrivals. Push more
    /// arrivals to resume.
    Idle,
}

/// A platform state transition: one machine leaving or rejoining
/// service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformChange {
    /// The machine fails: the work it contributed to unfinished jobs is
    /// lost back to their remaining sizes, and it accepts no shares
    /// until it recovers.
    Down,
    /// The machine recovers and may be allocated again.
    Up,
}

/// A timed [`PlatformChange`] for one machine, applied when the engine
/// clock reaches `time` (see [`Engine::push_platform_event`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlatformEvent {
    /// Simulation time at which the change takes effect.
    pub time: f64,
    /// Machine index.
    pub machine: usize,
    /// Direction of the transition.
    pub change: PlatformChange,
}

/// Pending-arrival heap key, ordered by `(release, id)` so simultaneous
/// arrivals are admitted in push order. The job's data already sits in
/// its slab slot; admission moves nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArrivalKey {
    pub(crate) release: f64,
    pub(crate) id: usize,
    pub(crate) slot: u32,
}

impl HeapOrd for ArrivalKey {
    fn before(&self, other: &Self) -> bool {
        match self.release.total_cmp(&other.release) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.id < other.id,
        }
    }
}

/// Platform-event heap key, ordered by `(time, push order)` so
/// simultaneous events apply deterministically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlatformKey {
    pub(crate) time: f64,
    pub(crate) seq: usize,
    pub(crate) event: PlatformEvent,
}

impl HeapOrd for PlatformKey {
    fn before(&self, other: &Self) -> bool {
        match self.time.total_cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// Streaming metrics accumulator: folds [`CompletedJob`]s into
/// [`RunMetrics`] one at a time, so a replay never has to materialize
/// its full completion vector. All divisions are guarded — zero
/// completions, zero-size jobs, and zero-length spans yield zeros, not
/// NaN.
#[derive(Clone, Debug, Default)]
pub struct MetricsAccumulator {
    pub(crate) max_wf: f64,
    pub(crate) max_f: f64,
    pub(crate) max_s: f64,
    pub(crate) sum_s: f64,
    pub(crate) sum_f: f64,
    pub(crate) mk: f64,
    pub(crate) first_release: Option<f64>,
    pub(crate) n: usize,
}

impl MetricsAccumulator {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completion in.
    pub fn push(&mut self, c: &CompletedJob) {
        let flow = c.completion - c.release;
        self.max_wf = self.max_wf.max(c.weight * flow);
        self.max_f = self.max_f.max(flow);
        if c.fastest_cost > 0.0 {
            let stretch = flow / c.fastest_cost;
            self.max_s = self.max_s.max(stretch);
            self.sum_s += stretch;
        }
        self.sum_f += flow;
        self.mk = self.mk.max(c.completion);
        self.first_release = Some(match self.first_release {
            None => c.release,
            Some(r) => r.min(c.release),
        });
        self.n += 1;
    }

    /// Folds another accumulator in, as if its completions had been
    /// pushed after this one's. Max-folds and sums are field-wise, so a
    /// shard merge in fixed shard order is deterministic (and the
    /// single-shard merge is the identity).
    pub(crate) fn merge(&mut self, other: &MetricsAccumulator) {
        self.max_wf = self.max_wf.max(other.max_wf);
        self.max_f = self.max_f.max(other.max_f);
        self.max_s = self.max_s.max(other.max_s);
        self.sum_s += other.sum_s;
        self.sum_f += other.sum_f;
        self.mk = self.mk.max(other.mk);
        self.first_release = match (self.first_release, other.first_release) {
            (None, r) => r,
            (r, None) => r,
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        self.n += other.n;
    }

    /// Completions folded in so far.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Earliest release seen so far (`None` before the first completion).
    pub fn first_release(&self) -> Option<f64> {
        self.first_release
    }

    /// The metrics of everything folded in so far. With zero completions
    /// every field is 0 (the guard the degenerate-input tests pin down).
    pub fn metrics(&self) -> RunMetrics {
        RunMetrics {
            max_weighted_flow: self.max_wf,
            max_flow: self.max_f,
            max_stretch: self.max_s,
            sum_stretch: self.sum_s,
            mean_flow: if self.n == 0 {
                0.0
            } else {
                self.sum_f / self.n as f64
            },
            sum_flow: self.sum_f,
            makespan: self.mk,
        }
    }
}

/// The incremental simulation core: a resumable event-queue state
/// machine over flat slab storage. See the [module docs](self) for the
/// lifecycle and hot-path layout; the closed [`simulate`] wrapper, the
/// open-arrival `workload::Trace::replay`, and the multi-cluster
/// `shard::ShardedEngine` are all thin drivers over this type.
#[derive(Debug)]
pub struct Engine {
    pub(crate) n_machines: usize,
    pub(crate) now: f64,
    pub(crate) next_id: usize,
    pub(crate) n_events: usize,
    pub(crate) n_plans: usize,
    pub(crate) busy: Vec<f64>,
    pub(crate) completed: Vec<CompletedJob>,
    /// When `false`, completions feed the metrics accumulator but are
    /// not buffered for [`Engine::take_completed`] — the setting for
    /// unbounded streaming replays.
    pub record_completions: bool,
    pub(crate) metrics: MetricsAccumulator,
    pub(crate) n_completed: usize,
    // Platform dynamics. All of it stays inert (empty heap, `faulty`
    // false) until the first `push_platform_event`, so fault-free runs
    // take exactly the event paths they took before faults existed.
    pub(crate) up: Vec<bool>,
    pub(crate) n_platform_pushed: usize,
    pub(crate) faulty: bool,
    // --- Slab: structure-of-arrays job storage, slot-indexed. A slot is
    // allocated at push, carries the job through its pending and active
    // life, and returns to the free list at completion.
    slot_id: Vec<usize>,
    slot_remaining: Vec<f64>,
    slot_release: Vec<f64>,
    slot_weight: Vec<f64>,
    slot_fastest: Vec<f64>,
    /// Contiguous cost arena, `slab_len × n_machines`, one row per slot.
    slot_costs: Vec<f64>,
    free_slots: Vec<u32>,
    /// id → slot (`NONE` once the job completed). One `u32` per pushed
    /// id — the only per-trace-length storage the engine keeps.
    id_slot: Vec<u32>,
    /// slot → admission position in `order` (`NONE` while pending/free).
    slot_pos: Vec<u32>,
    /// Active slots in admission order.
    order: Vec<u32>,
    pending: DaryHeap<ArrivalKey>,
    platform: DaryHeap<PlatformKey>,
    /// Flat volatile-work arena (`slab_len × n_machines`) when `faulty`:
    /// per (job slot, machine), the work fraction contributed since the
    /// machine last (re)entered service — exactly the amount lost back
    /// to `remaining` if that machine dies. Rows are zeroed at
    /// admission.
    volatile: Vec<f64>,
    // Scratch buffers recycled across events.
    rate: Vec<f64>,
    machine_share: Vec<f64>,
    /// Recycled allocation handed to `plan` each event.
    plan_alloc: Allocation,
    /// Per-machine gather of `(admission pos, slot, share)` entries,
    /// insertion-sorted by pos so float accumulation order matches the
    /// legacy active-list scan bit for bit.
    row_scratch: Vec<(u32, u32, f64)>,
    peak_active: usize,
}

impl Engine {
    /// A fresh engine for `n_machines` machines, at time 0, with no jobs.
    pub fn new(n_machines: usize) -> Engine {
        assert!(n_machines > 0, "engine needs at least one machine");
        Engine {
            n_machines,
            now: 0.0,
            next_id: 0,
            n_events: 0,
            n_plans: 0,
            busy: vec![0.0; n_machines],
            completed: Vec::new(),
            record_completions: true,
            metrics: MetricsAccumulator::new(),
            n_completed: 0,
            up: vec![true; n_machines],
            n_platform_pushed: 0,
            faulty: false,
            slot_id: Vec::new(),
            slot_remaining: Vec::new(),
            slot_release: Vec::new(),
            slot_weight: Vec::new(),
            slot_fastest: Vec::new(),
            slot_costs: Vec::new(),
            free_slots: Vec::new(),
            id_slot: Vec::new(),
            slot_pos: Vec::new(),
            order: Vec::new(),
            pending: DaryHeap::new(),
            platform: DaryHeap::new(),
            volatile: Vec::new(),
            rate: Vec::new(),
            machine_share: vec![0.0; n_machines],
            plan_alloc: Allocation::default(),
            row_scratch: Vec::new(),
            peak_active: 0,
        }
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Events processed so far (arrival admissions + integration steps).
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// `plan` invocations so far.
    pub fn n_plans(&self) -> usize {
        self.n_plans
    }

    /// Busy machine-seconds per machine so far.
    pub fn busy(&self) -> &[f64] {
        &self.busy
    }

    /// Currently active (released, unfinished) jobs, admission order.
    pub fn active(&self) -> ActiveSet<'_> {
        ActiveSet {
            order: &self.order,
            ids: &self.slot_id,
            remaining: &self.slot_remaining,
            release: &self.slot_release,
            weight: &self.slot_weight,
            fastest: &self.slot_fastest,
            costs: &self.slot_costs,
            n_machines: self.n_machines,
            up: &self.up,
        }
    }

    /// Pushed-but-not-yet-released arrivals.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Jobs pushed so far (also the next id to be assigned).
    pub fn n_pushed(&self) -> usize {
        self.next_id
    }

    /// Jobs completed so far.
    pub fn n_completed(&self) -> usize {
        self.n_completed
    }

    /// High-water mark of the active set (informational; not part of
    /// the snapshot format: a restored engine's starts at its restored
    /// active set).
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Platform events pushed but not yet applied.
    pub fn platform_pending_len(&self) -> usize {
        self.platform.len()
    }

    /// Running metrics over everything completed so far.
    pub fn metrics(&self) -> RunMetrics {
        self.metrics.metrics()
    }

    /// Fleet utilization over `[first completed release, makespan]` so
    /// far (0 while nothing has completed).
    pub fn utilization(&self) -> f64 {
        let m = self.metrics.metrics();
        utilization_of(
            &self.busy,
            self.metrics.first_release().unwrap_or(f64::INFINITY),
            m.makespan,
        )
    }

    /// Allocates a slab slot, growing every parallel column (and the
    /// arenas) only when the free list is empty — i.e. when the all-time
    /// high-water mark of in-flight jobs grows.
    fn alloc_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            return s;
        }
        let s = self.slot_id.len() as u32;
        self.slot_id.push(0);
        self.slot_remaining.push(0.0);
        self.slot_release.push(0.0);
        self.slot_weight.push(0.0);
        self.slot_fastest.push(0.0);
        self.slot_costs
            .resize(self.slot_costs.len() + self.n_machines, 0.0);
        self.slot_pos.push(NONE);
        self.rate.push(0.0);
        if self.faulty {
            self.volatile
                .resize(self.volatile.len() + self.n_machines, 0.0);
        }
        s
    }

    /// The view of one slab slot (used for `on_arrival` notifications).
    fn job_view(&self, slot: u32) -> JobView<'_> {
        let s = slot as usize;
        JobView {
            id: self.slot_id[s],
            remaining: self.slot_remaining[s],
            release: self.slot_release[s],
            weight: self.slot_weight[s],
            fastest: self.slot_fastest[s],
            costs: &self.slot_costs[s * self.n_machines..(s + 1) * self.n_machines],
        }
    }

    /// Enqueues a future arrival and returns its engine-assigned id (ids
    /// count up from 0 in push order). Arrivals may be pushed in any
    /// order; the event queue admits them by `(release, id)`. A release
    /// earlier than the current simulation time is admitted at the next
    /// event (its flow still counts from the stated release).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidJob`] if the spec is malformed: wrong `costs`
    /// length, no finite cost, negative or non-finite
    /// release/weight/costs. A rejected spec leaves the engine untouched
    /// (no id is consumed).
    pub fn push_arrival(&mut self, job: JobSpec) -> Result<usize, SimError> {
        self.push_arrival_ref(job.release, job.weight, &job.costs)
    }

    /// [`Engine::push_arrival`] without the owning [`JobSpec`]: the cost
    /// row is copied straight into the slab, so drivers replaying a
    /// stored trace push arrivals without any per-job allocation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidJob`] under exactly the same validation as
    /// [`Engine::push_arrival`].
    pub fn push_arrival_ref(
        &mut self,
        release: f64,
        weight: f64,
        costs: &[f64],
    ) -> Result<usize, SimError> {
        check_job(self.n_machines, release, weight, costs)
            .map_err(|reason| SimError::InvalidJob { reason })?;
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.insert_slot(id, 1.0, release, weight, costs);
        self.pending.push(ArrivalKey { release, id, slot });
        Ok(id)
    }

    /// Fills a fresh slot with one job's data and wires the id map.
    fn insert_slot(
        &mut self,
        id: usize,
        remaining: f64,
        release: f64,
        weight: f64,
        costs: &[f64],
    ) -> u32 {
        let slot = self.alloc_slot();
        let s = slot as usize;
        let m = self.n_machines;
        self.slot_id[s] = id;
        self.slot_remaining[s] = remaining;
        self.slot_release[s] = release;
        self.slot_weight[s] = weight;
        self.slot_fastest[s] = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        self.slot_costs[s * m..(s + 1) * m].copy_from_slice(costs);
        self.slot_pos[s] = NONE;
        if self.id_slot.len() <= id {
            self.id_slot.resize(id + 1, NONE);
        }
        self.id_slot[id] = slot;
        slot
    }

    /// Enqueues a machine failure or recovery at `event.time`. Events
    /// apply in `(time, push order)`. Applying `Down` to a down machine
    /// (or `Up` to an up one) is a no-op, so whole availability masks
    /// can be pushed via [`Engine::push_platform_mask`]. The first push
    /// switches the engine into fault-tracking mode (per-machine
    /// volatile-work accounting); fault-free runs never pay for it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlatformEvent`] for an out-of-range machine
    /// index or a non-finite/negative time. A rejected event leaves the
    /// engine untouched.
    pub fn push_platform_event(&mut self, event: PlatformEvent) -> Result<(), SimError> {
        let invalid = |reason| Err(SimError::InvalidPlatformEvent { reason });
        if event.machine >= self.n_machines {
            return invalid("machine index out of range");
        }
        if !(event.time.is_finite() && event.time >= 0.0) {
            return invalid("event time must be finite and non-negative");
        }
        self.enter_faulty_mode();
        let seq = self.n_platform_pushed;
        self.n_platform_pushed += 1;
        self.platform.push(PlatformKey {
            time: event.time,
            seq,
            event,
        });
        Ok(())
    }

    /// Pushes a whole availability mask taking effect at `time`: `Down`
    /// for every `false` machine, `Up` for every `true` one. Per-machine
    /// application is idempotent, so only actual transitions change
    /// state.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlatformEvent`] if the mask length does not
    /// match the machine count or the time is non-finite/negative.
    pub fn push_platform_mask(&mut self, time: f64, up: &[bool]) -> Result<(), SimError> {
        if up.len() != self.n_machines {
            return Err(SimError::InvalidPlatformEvent {
                reason: "mask length does not match the machine count",
            });
        }
        for (machine, &alive) in up.iter().enumerate() {
            self.push_platform_event(PlatformEvent {
                time,
                machine,
                change: if alive {
                    PlatformChange::Up
                } else {
                    PlatformChange::Down
                },
            })?;
        }
        Ok(())
    }

    /// One-time switch into fault-tracking mode: a zeroed volatile-work
    /// row for every slab slot (active rows start zero, matching the
    /// legacy backfill; pending/free rows are re-zeroed at admission).
    pub(crate) fn enter_faulty_mode(&mut self) {
        if !self.faulty {
            self.faulty = true;
            self.volatile = vec![0.0; self.slot_id.len() * self.n_machines]; // dlflint:allow(alloc-in-hot-loop, "one-time mode switch on the first pushed platform event, not per-event work")
        }
    }

    /// Applies every platform event due by `now + EPS`; each applied
    /// event is one engine event. `Down` loses the dying machine's
    /// volatile work back to each job's remaining size (the
    /// divisible-load model makes this exact). The policy is notified
    /// once per non-empty batch. Returns how many events were applied.
    fn apply_due_platform(&mut self, policy: &mut dyn OnlineScheduler) -> usize {
        let mut applied = 0;
        loop {
            match self.platform.peek() {
                Some(p) if p.time <= self.now + EPS => {}
                _ => break,
            }
            let Some(p) = self.platform.pop() else {
                break;
            };
            let i = p.event.machine;
            match p.event.change {
                PlatformChange::Down if self.up[i] => {
                    self.up[i] = false;
                    let m = self.n_machines;
                    // Refund in admission order (matches the legacy
                    // active-list walk bit for bit).
                    for &slot in &self.order {
                        let s = slot as usize;
                        let lost = self.volatile[s * m + i];
                        self.slot_remaining[s] = (self.slot_remaining[s] + lost).min(1.0);
                        self.volatile[s * m + i] = 0.0;
                    }
                }
                PlatformChange::Up if !self.up[i] => {
                    self.up[i] = true;
                }
                // Idempotent repeat (e.g. a mask push): no state change,
                // but still a consumed event.
                _ => {}
            }
            self.n_events += 1;
            applied += 1;
        }
        if applied > 0 {
            policy.on_platform_change(self.now, &self.up);
        }
        applied
    }

    /// Admits every pending arrival released by `now + EPS`; returns how
    /// many were admitted. Each admission is one event and one
    /// `on_arrival` notification. Admission moves no job data — it only
    /// appends the job's slot to the admission order.
    fn admit_due(&mut self, policy: &mut dyn OnlineScheduler) -> usize {
        let mut admitted = 0;
        loop {
            match self.pending.peek() {
                Some(p) if p.release <= self.now + EPS => {}
                _ => break,
            }
            let Some(p) = self.pending.pop() else {
                break;
            };
            let s = p.slot as usize;
            policy.on_arrival(self.now, self.job_view(p.slot));
            self.slot_pos[s] = self.order.len() as u32;
            self.order.push(p.slot);
            if self.faulty {
                let m = self.n_machines;
                self.volatile[s * m..(s + 1) * m].fill(0.0);
            }
            self.n_events += 1;
            admitted += 1;
        }
        if self.order.len() > self.peak_active {
            self.peak_active = self.order.len();
        }
        admitted
    }

    /// Advances the engine by one event: admit due arrivals, or plan and
    /// integrate up to the next completion/arrival. Returns
    /// [`StepOutcome::Idle`] when there is nothing to do (no active jobs,
    /// no pending arrivals) — push more arrivals to resume.
    ///
    /// Callers streaming an open trace must keep at least the next
    /// arrival pushed while the trace has more: the engine can only
    /// bound its integration horizon by arrivals it knows about.
    pub fn step(&mut self, policy: &mut dyn OnlineScheduler) -> Result<StepOutcome, SimError> {
        if self.order.is_empty() {
            let t_arrival = self.pending.peek().map(|p| p.release);
            let t_platform = self.platform.peek().map(|p| p.time);
            let t = match (t_arrival, t_platform) {
                (None, None) => return Ok(StepOutcome::Idle),
                (Some(a), None) => a,
                (None, Some(p)) => p,
                (Some(a), Some(p)) => a.min(p),
            };
            // Jump to the next event (never backwards).
            self.now = self.now.max(t);
            self.apply_due_platform(policy);
            self.admit_due(policy);
            return Ok(StepOutcome::Advanced);
        }

        // Platform events due now take effect before the policy plans —
        // it must never be asked to plan around a machine that is
        // already dead (e.g. after a resume with due events queued).
        self.apply_due_platform(policy);

        let m = self.n_machines;
        let mut alloc = std::mem::take(&mut self.plan_alloc);
        alloc.reset(m);
        policy.plan(self.now, &self.active(), &mut alloc);
        self.n_plans += 1;

        // Validate the allocation and compute per-job progress rates.
        // Instead of the legacy O(m · |active| · log) scan (every active
        // job probed against every machine's sparse row), each row's
        // entries are gathered once, filtered to active jobs, and
        // insertion-sorted by admission position — the same per-machine
        // job order and float accumulation order as the legacy scan, so
        // results are bit-identical, at O(assigned entries) cost.
        for &slot in &self.order {
            self.rate[slot as usize] = 0.0;
        }
        for i in 0..m {
            self.row_scratch.clear();
            for &(jid, share) in alloc.entries(i) {
                if share <= EPS {
                    continue;
                }
                let Some(&slot) = self.id_slot.get(jid) else {
                    continue; // unknown id: the legacy scan never saw it
                };
                if slot == NONE {
                    continue; // already completed
                }
                let pos = self.slot_pos[slot as usize];
                if pos == NONE {
                    continue; // pushed but not yet admitted
                }
                let mut k = self.row_scratch.len();
                self.row_scratch.push((pos, slot, share));
                while k > 0 && self.row_scratch[k - 1].0 > pos {
                    self.row_scratch.swap(k - 1, k);
                    k -= 1;
                }
            }
            let mut total = 0.0;
            for idx in 0..self.row_scratch.len() {
                let (_, slot, share) = self.row_scratch[idx];
                let s = slot as usize;
                if self.faulty && !self.up[i] {
                    return Err(SimError::DeadMachineAllocation {
                        machine: i,
                        job: self.slot_id[s],
                    });
                }
                let c = self.slot_costs[s * m + i];
                if !c.is_finite() {
                    return Err(SimError::ForbiddenAssignment {
                        machine: i,
                        job: self.slot_id[s],
                    });
                }
                total += share;
                if c <= EPS {
                    self.rate[s] = f64::INFINITY; // zero-cost job finishes instantly
                } else {
                    self.rate[s] += share / c;
                }
            }
            if total > 1.0 + 1e-6 {
                return Err(SimError::MachineOversubscribed { machine: i, total });
            }
            self.machine_share[i] = total;
        }

        // Horizon: next arrival, next platform event, earliest
        // completion.
        let t_arrival = self.pending.peek().map(|p| p.release);
        let t_platform = self.platform.peek().map(|p| p.time);
        let mut t_complete: Option<f64> = None;
        for &slot in &self.order {
            let s = slot as usize;
            if self.rate[s] > 0.0 {
                let t = if self.rate[s].is_infinite() {
                    self.now
                } else {
                    self.now + self.slot_remaining[s] / self.rate[s]
                };
                t_complete = Some(t_complete.map_or(t, |cur: f64| cur.min(t)));
            }
        }

        // Stalled only when *no* future event of any kind exists: an
        // all-machines-down window with a recovery queued is an idle
        // wait, not a stall.
        let t_next = [t_arrival, t_platform, t_complete]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if !t_next.is_finite() {
            return Err(SimError::Stalled { at: self.now });
        }
        let dt = (t_next - self.now).max(0.0);

        // Integrate progress.
        for i in 0..m {
            self.busy[i] += self.machine_share[i] * dt;
        }
        if self.faulty && dt > 0.0 {
            // Volatile-work accounting: what each live machine
            // contributed over this interval, charged per (job, machine)
            // so a later failure can refund exactly this much. Each
            // (slot, machine) cell is touched at most once per row, so
            // entry order is immaterial — no sort needed.
            for i in 0..m {
                if !self.up[i] {
                    continue;
                }
                for &(jid, share) in alloc.entries(i) {
                    if share <= EPS {
                        continue;
                    }
                    let Some(&slot) = self.id_slot.get(jid) else {
                        continue;
                    };
                    if slot == NONE {
                        continue;
                    }
                    let s = slot as usize;
                    if self.slot_pos[s] == NONE {
                        continue;
                    }
                    let c = self.slot_costs[s * m + i];
                    if c > EPS {
                        self.volatile[s * m + i] += share / c * dt;
                    }
                }
            }
        }
        self.plan_alloc = alloc;
        // Never backwards: a late-pushed arrival (release < now) may set
        // t_next in the past; it is admitted *at* the current time.
        self.now = self.now.max(t_next);
        self.n_events += 1;

        // Progress + completions in one admission-order pass (removal
        // shifts the next survivor into position `k`, so every job is
        // decremented exactly once and survivors keep their order).
        let mut k = 0;
        while k < self.order.len() {
            let slot = self.order[k];
            let s = slot as usize;
            if self.rate[s].is_infinite() {
                self.slot_remaining[s] = 0.0;
            } else {
                self.slot_remaining[s] -= self.rate[s] * dt;
            }
            if self.slot_remaining[s] <= EPS {
                self.order.remove(k);
                for pos in k..self.order.len() {
                    self.slot_pos[self.order[pos] as usize] = pos as u32;
                }
                let id = self.slot_id[s];
                self.slot_pos[s] = NONE;
                self.id_slot[id] = NONE;
                self.free_slots.push(slot);
                policy.on_completion(self.now, id);
                let done = CompletedJob {
                    id,
                    release: self.slot_release[s],
                    weight: self.slot_weight[s],
                    fastest_cost: self.slot_fastest[s],
                    completion: self.now,
                };
                self.metrics.push(&done);
                self.n_completed += 1;
                if self.record_completions {
                    self.completed.push(done);
                }
            } else {
                k += 1;
            }
        }

        // Events at t_next: completions above already happened, then
        // platform changes, then arrivals — a job completing exactly
        // when its machine dies keeps its work.
        self.apply_due_platform(policy);
        self.admit_due(policy);
        Ok(StepOutcome::Advanced)
    }

    /// Steps until the engine is idle (all pushed jobs completed).
    /// Bounded by the same stall guard as the legacy batch loop: a
    /// policy that spins on zero-length events errors out instead of
    /// hanging.
    pub fn drain(&mut self, policy: &mut dyn OnlineScheduler) -> Result<(), SimError> {
        self.drain_until(policy, usize::MAX)
    }

    /// [`Engine::drain`], returning early, resumable, once the engine
    /// has taken `stop` events.
    pub(crate) fn drain_until(
        &mut self,
        policy: &mut dyn OnlineScheduler,
        stop: usize,
    ) -> Result<(), SimError> {
        let max_iters =
            100_000 + 200 * self.next_id * (self.n_machines + 2) + 2 * self.n_platform_pushed;
        for _ in 0..max_iters {
            if self.n_events >= stop || self.step(policy)? == StepOutcome::Idle {
                return Ok(());
            }
        }
        Err(SimError::Stalled { at: self.now })
    }

    /// Takes the buffered completions (empties the buffer). Streaming
    /// drivers call this every few steps to keep memory `O(|active|)`.
    pub fn take_completed(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }

    // --- Snapshot plumbing (crate-internal). The `dlflow-snapshot v1`
    // byte format predates the slab layout and is frozen; these helpers
    // expose/rebuild the slab in the format's terms.

    /// Pending arrivals as `(id, release, weight, costs)`, unordered
    /// (heap layout order — serialization sorts what it needs).
    pub(crate) fn pending_entries(&self) -> impl Iterator<Item = (usize, f64, f64, &[f64])> + '_ {
        let m = self.n_machines;
        self.pending.as_slice().iter().map(move |p| {
            let s = p.slot as usize;
            (
                p.id,
                p.release,
                self.slot_weight[s],
                &self.slot_costs[s * m..(s + 1) * m],
            )
        })
    }

    /// Active jobs in admission order as
    /// `(id, remaining, release, weight, costs, volatile row)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn active_entries(
        &self,
    ) -> impl Iterator<Item = (usize, f64, f64, f64, &[f64], Option<&[f64]>)> + '_ {
        let m = self.n_machines;
        self.order.iter().map(move |&slot| {
            let s = slot as usize;
            (
                self.slot_id[s],
                self.slot_remaining[s],
                self.slot_release[s],
                self.slot_weight[s],
                &self.slot_costs[s * m..(s + 1) * m],
                self.faulty.then(|| &self.volatile[s * m..(s + 1) * m]),
            )
        })
    }

    /// Queued platform events as `(time, seq, event)`, unordered.
    pub(crate) fn platform_entries(
        &self,
    ) -> impl Iterator<Item = (f64, usize, PlatformEvent)> + '_ {
        self.platform
            .as_slice()
            .iter()
            .map(|p| (p.time, p.seq, p.event))
    }

    /// Whether job `id` is pending or active (the snapshot loader's
    /// duplicate check).
    pub(crate) fn holds(&self, id: usize) -> bool {
        self.id_slot.get(id).is_some_and(|&slot| slot != NONE)
    }

    /// Re-inserts one pending arrival during restore (the snapshot loader
    /// has checked the row, as a push would; ids need not be dense).
    pub(crate) fn restore_pending(&mut self, id: usize, release: f64, weight: f64, costs: &[f64]) {
        let slot = self.insert_slot(id, 1.0, release, weight, costs);
        self.pending.push(ArrivalKey { release, id, slot });
    }

    /// Re-inserts one active job during restore, appended to the
    /// admission order. A `Some` volatile row requires the engine to be
    /// in fault mode already.
    pub(crate) fn restore_active(
        &mut self,
        id: usize,
        remaining: f64,
        release: f64,
        weight: f64,
        costs: &[f64],
        volatile_row: Option<&[f64]>,
    ) {
        let slot = self.insert_slot(id, remaining, release, weight, costs);
        let s = slot as usize;
        self.slot_pos[s] = self.order.len() as u32;
        self.order.push(slot);
        if self.order.len() > self.peak_active {
            self.peak_active = self.order.len();
        }
        if self.faulty {
            let m = self.n_machines;
            self.volatile[s * m..(s + 1) * m].fill(0.0);
            if let Some(row) = volatile_row {
                self.volatile[s * m..(s + 1) * m].copy_from_slice(row);
            }
        }
    }

    /// Re-enqueues one platform event during restore with its original
    /// sequence number (the caller restores `n_platform_pushed`).
    pub(crate) fn restore_platform(&mut self, time: f64, seq: usize, event: PlatformEvent) {
        self.platform.push(PlatformKey { time, seq, event });
    }
}

/// One column of a closed instance as a [`JobSpec`].
pub(crate) fn job_spec_of(inst: &Instance<f64>, j: usize) -> JobSpec {
    JobSpec {
        release: inst.job(j).release,
        weight: inst.job(j).weight,
        costs: (0..inst.n_machines())
            .map(|i| inst.cost(i, j).finite().copied().unwrap_or(f64::INFINITY))
            .collect(),
    }
}

/// Runs a policy on a closed instance to completion — a thin wrapper
/// that pushes every job of the instance into an [`Engine`] and drains
/// it. Results (completions, event/plan counts, busy vectors) are
/// identical to the legacy batch loop [`simulate_dense`], a property
/// `tests/prop_engine.rs` enforces.
pub fn simulate(
    inst: &Instance<f64>,
    policy: &mut dyn OnlineScheduler,
) -> Result<SimResult, SimError> {
    simulate_with_events(inst, policy, &[])
}

/// [`simulate`] under a platform-event schedule: the given
/// failure/recovery events are pushed up front, then the instance runs
/// to completion. The chaos-campaign entry point. With an empty event
/// list this *is* `simulate` (the fault machinery stays inert).
pub fn simulate_with_events(
    inst: &Instance<f64>,
    policy: &mut dyn OnlineScheduler,
    events: &[PlatformEvent],
) -> Result<SimResult, SimError> {
    policy.reset();
    let mut eng = Engine::new(inst.n_machines());
    for &e in events {
        eng.push_platform_event(e)?;
    }
    for j in 0..inst.n_jobs() {
        eng.push_arrival(job_spec_of(inst, j))?; // id j by push order
    }
    eng.drain(policy)?;
    let mut completions = vec![f64::NAN; inst.n_jobs()];
    for c in eng.take_completed() {
        completions[c.id] = c.completion;
    }
    Ok(SimResult {
        completions,
        n_events: eng.n_events,
        n_plans: eng.n_plans,
        busy: eng.busy,
    })
}

/// The seed's batch simulation loop, kept verbatim as a parity oracle
/// and throughput baseline: allocations are materialized as **dense**
/// machine × total-job matrices every event, so per-event cost is
/// `O(m · n_total)` and memory `O(m · n_total)` — the scaling the
/// incremental [`Engine`] removes. `tests/prop_engine.rs` proves both
/// produce identical completions, event counts, and busy vectors;
/// `bench_sim` measures the gap.
pub fn simulate_dense(
    inst: &Instance<f64>,
    policy: &mut dyn OnlineScheduler,
) -> Result<SimResult, SimError> {
    policy.reset();
    let n = inst.n_jobs();
    let m = inst.n_machines();

    // Arrival order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| inst.job(a).release.total_cmp(&inst.job(b).release));

    let mut next_arrival = 0usize;
    let mut now = if n > 0 {
        inst.job(order[0]).release
    } else {
        0.0
    };
    let mut active: Vec<ActiveJob> = Vec::new();
    let mut completions = vec![f64::NAN; n];
    let mut n_events = 0usize;
    let mut n_plans = 0usize;
    let mut busy = vec![0.0f64; m];
    let mut scratch = ScratchSet::default();
    let all_up = vec![true; m];
    let mut alloc_buf = Allocation::default();

    let admit = |now: f64,
                 next_arrival: &mut usize,
                 active: &mut Vec<ActiveJob>,
                 n_events: &mut usize,
                 policy: &mut dyn OnlineScheduler| {
        while *next_arrival < n && inst.job(order[*next_arrival]).release <= now + EPS {
            let job = ActiveJob::new(
                order[*next_arrival],
                job_spec_of(inst, order[*next_arrival]),
            );
            policy.on_arrival(now, view_of(&job));
            active.push(job);
            *next_arrival += 1;
            *n_events += 1;
        }
    };

    // Admit initial arrivals.
    admit(now, &mut next_arrival, &mut active, &mut n_events, policy);

    let max_iters = 100_000 + 200 * n * (m + 2);
    for _ in 0..max_iters {
        if active.is_empty() && next_arrival >= n {
            return Ok(SimResult {
                completions,
                n_events,
                n_plans,
                busy,
            });
        }
        if active.is_empty() {
            // Jump to the next arrival.
            now = inst.job(order[next_arrival]).release;
            admit(now, &mut next_arrival, &mut active, &mut n_events, policy);
            continue;
        }

        // The legacy dense materialization: every plan becomes an
        // m × n_total rate matrix, zeroed from scratch.
        scratch.fill(&active, m);
        alloc_buf.reset(m);
        policy.plan(now, &scratch.view(&all_up), &mut alloc_buf);
        let sparse = &alloc_buf;
        n_plans += 1;
        let mut rates: Vec<Vec<f64>> = vec![vec![0.0; n]; m];
        for i in 0..m.min(sparse.n_machines()) {
            for &(j, share) in sparse.entries(i) {
                if j < n {
                    rates[i][j] = share;
                }
            }
        }

        // Validate the allocation and compute per-job progress rates.
        let mut rate: Vec<f64> = vec![0.0; active.len()];
        let mut machine_share = vec![0.0f64; m];
        for i in 0..m {
            let mut total = 0.0;
            for (aj, a) in active.iter().enumerate() {
                let share = rates[i][a.id];
                if share <= EPS {
                    continue;
                }
                let Some(&c) = inst.cost(i, a.id).finite() else {
                    return Err(SimError::ForbiddenAssignment {
                        machine: i,
                        job: a.id,
                    });
                };
                total += share;
                if c <= EPS {
                    rate[aj] = f64::INFINITY;
                } else {
                    rate[aj] += share / c;
                }
            }
            if total > 1.0 + 1e-6 {
                return Err(SimError::MachineOversubscribed { machine: i, total });
            }
            machine_share[i] = total;
        }

        // Horizon: next arrival and earliest completion.
        let t_arrival = (next_arrival < n).then(|| inst.job(order[next_arrival]).release);
        let mut t_complete: Option<f64> = None;
        for (aj, a) in active.iter().enumerate() {
            if rate[aj] > 0.0 {
                let t = if rate[aj].is_infinite() {
                    now
                } else {
                    now + a.remaining / rate[aj]
                };
                t_complete = Some(t_complete.map_or(t, |cur: f64| cur.min(t)));
            }
        }

        let t_next = match (t_arrival, t_complete) {
            (None, None) => return Err(SimError::Stalled { at: now }),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (Some(a), Some(c)) => a.min(c),
        };
        let dt = (t_next - now).max(0.0);

        // Integrate progress.
        for i in 0..m {
            busy[i] += machine_share[i] * dt;
        }
        for (aj, a) in active.iter_mut().enumerate() {
            if rate[aj].is_infinite() {
                a.remaining = 0.0;
            } else {
                a.remaining -= rate[aj] * dt;
            }
        }
        now = t_next;
        n_events += 1;

        // Completions.
        let mut still: Vec<ActiveJob> = Vec::with_capacity(active.len());
        for a in active.drain(..) {
            if a.remaining <= EPS {
                completions[a.id] = now;
                policy.on_completion(now, a.id);
            } else {
                still.push(a);
            }
        }
        active = still;

        // Arrivals at t_next.
        admit(now, &mut next_arrival, &mut active, &mut n_events, policy);
    }
    Err(SimError::Stalled { at: now })
}

/// Metrics of a completed run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// `max_j w_j (C_j − r_j)`.
    pub max_weighted_flow: f64,
    /// `max_j (C_j − r_j)`.
    pub max_flow: f64,
    /// `max_j (C_j − r_j) / min_i c_{i,j}` — max stretch.
    pub max_stretch: f64,
    /// `Σ_j (C_j − r_j) / min_i c_{i,j}` — sum stretch.
    pub sum_stretch: f64,
    /// Mean flow.
    pub mean_flow: f64,
    /// Total flow `Σ_j (C_j − r_j)`.
    pub sum_flow: f64,
    /// Latest completion.
    pub makespan: f64,
}

impl RunMetrics {
    /// Computes metrics from completions. Degenerate inputs are guarded:
    /// an empty completion list yields all-zero metrics (no NaN), and
    /// zero-size jobs are excluded from the stretch terms.
    pub fn from_completions(inst: &Instance<f64>, completions: &[f64]) -> RunMetrics {
        let mut acc = MetricsAccumulator::new();
        for (j, &c) in completions.iter().enumerate() {
            assert!(c.is_finite(), "job {j} never completed");
            acc.push(&CompletedJob {
                id: j,
                release: inst.job(j).release,
                weight: inst.job(j).weight,
                fastest_cost: inst.fastest_cost(j),
                completion: c,
            });
        }
        acc.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlflow_core::instance::InstanceBuilder;

    #[test]
    fn policies_read_the_mask_off_the_active_set() {
        use crate::campaign::SchedulerSpec;
        // Machine 1 is every job's fastest machine, and it fails at t = 1
        // with every job still in the system.
        let mut eng = Engine::new(3);
        for (release, costs) in [
            (0.0, [6.0, 2.0, 9.0]),
            (0.0, [8.0, 3.0, 8.0]),
            (0.5, [7.0, 4.0, 5.0]),
        ] {
            eng.push_arrival(JobSpec {
                release,
                weight: 1.0,
                costs: costs.to_vec(),
            })
            .unwrap();
        }
        eng.push_platform_event(PlatformEvent {
            time: 1.0,
            machine: 1,
            change: PlatformChange::Down,
        })
        .unwrap();
        let mut driver = crate::schedulers::Srpt::new();
        while eng.active().up()[1] {
            eng.step(&mut driver).unwrap();
        }
        assert_eq!((eng.now(), eng.active().len()), (1.0, 3));

        // A policy that was never told of the failure still plans around
        // it: the mask rides with the jobs.
        let kinds = [
            "mct",
            "fifo",
            "srpt",
            "swrpt",
            "rr",
            "wage",
            "edf",
            "edf:target=3",
            "ola",
        ];
        for kind in kinds {
            let mut fresh = SchedulerSpec::parse_compact(kind).unwrap().build();
            let mut alloc = Allocation::idle(3);
            fresh.plan(eng.now(), &eng.active(), &mut alloc);
            assert!(
                alloc.entries(1).is_empty(),
                "{kind}: {:?}",
                alloc.entries(1)
            );
            assert!(
                !alloc.entries(0).is_empty() || !alloc.entries(2).is_empty(),
                "{kind}"
            );
        }
    }

    /// Trivial policy: every machine gives its full rate to the lowest-id
    /// active job it can run.
    struct GreedyFirst;
    impl OnlineScheduler for GreedyFirst {
        fn name(&self) -> String {
            "greedy-first".into()
        }
        fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
            for i in 0..alloc.n_machines() {
                if let Some(a) = active.iter().find(|a| a.cost(i).is_some()) {
                    alloc.set(i, a.id, 1.0);
                }
            }
        }
    }

    fn inst2() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(2.0), Some(2.0)]);
        b.machine(vec![Some(4.0), Some(4.0)]);
        b.build().unwrap()
    }

    #[test]
    fn greedy_completes_all_jobs() {
        let inst = inst2();
        let res = simulate(&inst, &mut GreedyFirst).unwrap();
        assert!(res.completions.iter().all(|c| c.is_finite()));
        // J0 gets both machines (divisible): rate 1/2 + 1/4 = 3/4 → done at 4/3.
        assert!((res.completions[0] - 4.0 / 3.0).abs() < 1e-6);
        let m = RunMetrics::from_completions(&inst, &res.completions);
        assert!(m.makespan >= m.max_flow);
    }

    #[test]
    fn oversubscription_detected() {
        struct Bad;
        impl OnlineScheduler for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn plan(&mut self, _: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
                for x in active.iter() {
                    alloc.set(0, x.id, 1.0); // sums to 2 when both active
                }
            }
        }
        let inst = inst2();
        let err = simulate(&inst, &mut Bad).unwrap_err();
        assert!(matches!(
            err,
            SimError::MachineOversubscribed { machine: 0, .. }
        ));
    }

    #[test]
    fn forbidden_assignment_detected() {
        struct Bad;
        impl OnlineScheduler for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn plan(&mut self, _: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
                alloc.set(1, active.get(0).id, 1.0);
            }
        }
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(1.0)]);
        b.machine(vec![None]);
        let inst = b.build().unwrap();
        let err = simulate(&inst, &mut Bad).unwrap_err();
        assert_eq!(err, SimError::ForbiddenAssignment { machine: 1, job: 0 });
    }

    #[test]
    fn idle_policy_stalls() {
        struct Idle;
        impl OnlineScheduler for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn plan(&mut self, _: f64, _: &ActiveSet<'_>, _: &mut Allocation) {}
        }
        let inst = inst2();
        assert!(matches!(
            simulate(&inst, &mut Idle).unwrap_err(),
            SimError::Stalled { .. }
        ));
    }

    #[test]
    fn late_release_gap_is_skipped() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(100.0, 1.0);
        b.machine(vec![Some(1.0), Some(1.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut GreedyFirst).unwrap();
        assert!((res.completions[0] - 1.0).abs() < 1e-9);
        assert!((res.completions[1] - 101.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_computation() {
        let inst = inst2();
        let m = RunMetrics::from_completions(&inst, &[2.0, 5.0]);
        assert_eq!(m.max_flow, 4.0);
        assert_eq!(m.max_weighted_flow, 4.0);
        assert_eq!(m.mean_flow, 3.0);
        assert_eq!(m.sum_flow, 6.0);
        assert_eq!(m.makespan, 5.0);
        assert_eq!(m.max_stretch, 2.0); // (5−1)/2
        assert_eq!(m.sum_stretch, 3.0); // 2/2 + 4/2
    }

    #[test]
    fn busy_time_and_utilization_tracked() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut GreedyFirst).unwrap();
        // The only machine is fully busy from 0 to 2.
        assert!((res.busy[0] - 2.0).abs() < 1e-9);
        assert!((res.utilization(&inst) - 1.0).abs() < 1e-9);

        // Two machines, one job that only the first can run: the second
        // idles, so fleet utilization is at most 1/2.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0)]);
        b.machine(vec![None]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut GreedyFirst).unwrap();
        assert!((res.busy[0] - 2.0).abs() < 1e-9);
        assert_eq!(res.busy[1], 0.0);
        assert!((res.utilization(&inst) - 0.5).abs() < 1e-9);
    }

    // --- Streaming-engine behavior. ---

    #[test]
    fn engine_is_resumable_between_arrival_pushes() {
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        assert_eq!(eng.n_completed(), 1);
        assert_eq!(eng.step(&mut p).unwrap(), StepOutcome::Idle);

        // Resume: a second wave of arrivals after the engine went idle.
        eng.push_arrival(JobSpec {
            release: 10.0,
            weight: 1.0,
            costs: vec![4.0],
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        assert_eq!(eng.n_completed(), 2);
        let done = eng.take_completed();
        assert_eq!(done.len(), 2);
        assert!((done[1].completion - 14.0).abs() < 1e-9);
        assert!((eng.metrics().makespan - 14.0).abs() < 1e-9);
    }

    #[test]
    fn late_pushed_arrival_never_rewinds_the_clock() {
        // push_arrival documents that a release earlier than the current
        // simulation time is admitted at the next event. The clock must
        // not move backwards for it (regression: `now = t_next` once
        // rewound time, finishing in-flight jobs earlier than possible).
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![4.0],
        })
        .unwrap();
        // Admit at t=0, integrate one step partway through the job.
        assert_eq!(eng.step(&mut p).unwrap(), StepOutcome::Advanced);
        eng.push_arrival(JobSpec {
            release: 6.0,
            weight: 1.0,
            costs: vec![1.0],
        })
        .unwrap();
        assert_eq!(eng.step(&mut p).unwrap(), StepOutcome::Advanced); // J0 done at 4
        assert!((eng.now() - 4.0).abs() < 1e-9);
        // Now push an arrival stamped in the past.
        eng.push_arrival(JobSpec {
            release: 1.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        assert_eq!(done.len(), 3);
        // The late job is admitted at t=4, not at its stamped release:
        // completions stay physically consistent (monotone clock).
        let late = done.iter().find(|c| c.release == 1.0).unwrap();
        assert!((late.completion - 6.0).abs() < 1e-9, "{}", late.completion);
        // Completions stream out in a monotone clock order.
        for w in done.windows(2) {
            assert!(w[1].completion >= w[0].completion);
        }
        assert!((eng.metrics().makespan - 7.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_may_be_pushed_out_of_order() {
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        let late = eng
            .push_arrival(JobSpec {
                release: 5.0,
                weight: 1.0,
                costs: vec![1.0],
            })
            .unwrap();
        let early = eng
            .push_arrival(JobSpec {
                release: 0.0,
                weight: 1.0,
                costs: vec![1.0],
            })
            .unwrap();
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        assert_eq!(done[0].id, early);
        assert_eq!(done[1].id, late);
        assert!((done[0].completion - 1.0).abs() < 1e-9);
        assert!((done[1].completion - 6.0).abs() < 1e-9);
    }

    // --- Degenerate-input hardening (the seams the streaming API opens). ---

    #[test]
    fn zero_weight_job_is_tolerated() {
        // Instances forbid zero weights, but the open-arrival path has no
        // such gate: the engine and metrics must stay finite.
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 0.0,
            costs: vec![2.0],
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        let m = eng.metrics();
        assert_eq!(m.max_weighted_flow, 0.0);
        assert!((m.max_flow - 2.0).abs() < 1e-9);
        assert!(m.max_stretch.is_finite() && m.sum_stretch.is_finite());
    }

    #[test]
    fn all_equal_releases_admit_in_push_order() {
        // Simultaneous arrivals must be admitted deterministically (push
        // order), not heap-pop order.
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        for _ in 0..5 {
            eng.push_arrival(JobSpec {
                release: 1.0,
                weight: 1.0,
                costs: vec![1.0],
            })
            .unwrap();
        }
        assert_eq!(eng.step(&mut p).unwrap(), StepOutcome::Advanced);
        let ids: Vec<usize> = eng.active().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        eng.drain(&mut p).unwrap();
        // GreedyFirst serves lowest id first: completions in id order.
        let done = eng.take_completed();
        let order: Vec<usize> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_run_metrics_are_all_zero_not_nan() {
        // Zero completions: every division in the accumulator is guarded.
        let acc = MetricsAccumulator::new();
        let m = acc.metrics();
        assert_eq!(m.mean_flow, 0.0);
        assert_eq!(m.max_stretch, 0.0);
        assert_eq!(m.sum_flow, 0.0);
        assert_eq!(m.makespan, 0.0);
        let eng = Engine::new(2);
        assert_eq!(eng.utilization(), 0.0);
        assert_eq!(eng.metrics().mean_flow, 0.0);
    }

    #[test]
    fn zero_size_job_completes_instantly_and_skips_stretch() {
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![0.0],
        })
        .unwrap();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        let m = eng.metrics();
        // The zero-size job contributes no stretch term (division guard).
        assert!((m.max_stretch - 1.0).abs() < 1e-9);
        assert!(m.sum_stretch.is_finite());
        assert_eq!(eng.n_completed(), 2);
    }

    #[test]
    fn malformed_job_specs_are_rejected_with_typed_errors() {
        let reject = |job: JobSpec| match Engine::new(2).push_arrival(job) {
            Err(SimError::InvalidJob { reason }) => reason,
            other => panic!("expected InvalidJob, got {other:?}"),
        };
        assert!(reject(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![1.0], // wrong arity
        })
        .contains("machine count"));
        assert!(reject(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![f64::INFINITY, f64::INFINITY], // nowhere to run
        })
        .contains("no machine"));
        assert!(reject(JobSpec {
            release: -1.0,
            weight: 1.0,
            costs: vec![1.0, 1.0],
        })
        .contains("release"));
        assert!(reject(JobSpec {
            release: 0.0,
            weight: f64::NAN,
            costs: vec![1.0, 1.0],
        })
        .contains("weight"));
        assert!(reject(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![-1.0, 1.0], // negative cost
        })
        .contains("cost"));

        // A rejected push consumes no id and leaves the engine usable.
        let mut eng = Engine::new(1);
        assert!(eng
            .push_arrival(JobSpec {
                release: f64::NAN,
                weight: 1.0,
                costs: vec![1.0],
            })
            .is_err());
        assert_eq!(eng.n_pushed(), 0);
        let id = eng
            .push_arrival(JobSpec {
                release: 0.0,
                weight: 1.0,
                costs: vec![2.0],
            })
            .unwrap();
        assert_eq!(id, 0);
        eng.drain(&mut GreedyFirst).unwrap();
        assert_eq!(eng.n_completed(), 1);
    }

    #[test]
    fn record_completions_off_keeps_buffer_empty_but_metrics_live() {
        let mut eng = Engine::new(1);
        eng.record_completions = false;
        let mut p = GreedyFirst;
        for k in 0..10 {
            eng.push_arrival(JobSpec {
                release: k as f64,
                weight: 1.0,
                costs: vec![0.5],
            })
            .unwrap();
        }
        eng.drain(&mut p).unwrap();
        assert!(eng.take_completed().is_empty());
        assert_eq!(eng.n_completed(), 10);
        assert!((eng.metrics().makespan - 9.5).abs() < 1e-9);
        assert!(eng.utilization() > 0.0);
    }

    // --- Platform dynamics (failure/recovery). ---

    #[test]
    fn work_on_a_dying_machine_is_lost() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(1);
        let mut p = Srpt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        eng.push_platform_event(PlatformEvent {
            time: 1.0,
            machine: 0,
            change: PlatformChange::Down,
        })
        .unwrap();
        eng.push_platform_event(PlatformEvent {
            time: 2.0,
            machine: 0,
            change: PlatformChange::Up,
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        // Half the job ran in [0,1] and was lost with the failure; the
        // full job reruns from the recovery at t=2: done at exactly 4.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completion, 4.0);
    }

    #[test]
    fn completion_at_the_failure_instant_keeps_its_work() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(1);
        let mut p = Srpt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![1.0],
        })
        .unwrap();
        // The machine dies exactly when the job completes: completions
        // apply before platform events, so the job keeps its work.
        eng.push_platform_event(PlatformEvent {
            time: 1.0,
            machine: 0,
            change: PlatformChange::Down,
        })
        .unwrap();
        eng.push_platform_event(PlatformEvent {
            time: 1.5,
            machine: 0,
            change: PlatformChange::Up,
        })
        .unwrap();
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completion, 1.0);
    }

    #[test]
    fn engine_idles_through_platform_events_without_jobs() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(2);
        let mut p = Srpt::new();
        eng.push_platform_event(PlatformEvent {
            time: 1.0,
            machine: 0,
            change: PlatformChange::Down,
        })
        .unwrap();
        eng.push_platform_event(PlatformEvent {
            time: 3.0,
            machine: 0,
            change: PlatformChange::Up,
        })
        .unwrap();
        // No arrivals at all: the engine walks the platform schedule and
        // then reports Idle instead of stalling.
        eng.drain(&mut p).unwrap();
        assert_eq!(eng.step(&mut p).unwrap(), StepOutcome::Idle);
        assert_eq!(eng.active().up(), &[true, true]);
        assert_eq!(eng.platform_pending_len(), 0);
        assert!((eng.now() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stall_still_detected_when_no_recovery_is_coming() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(1);
        let mut p = Srpt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        // Down forever: no future arrival or recovery exists, so the
        // engine must surface Stalled rather than spin.
        eng.push_platform_event(PlatformEvent {
            time: 0.5,
            machine: 0,
            change: PlatformChange::Down,
        })
        .unwrap();
        assert!(matches!(
            eng.drain(&mut p).unwrap_err(),
            SimError::Stalled { .. }
        ));
    }

    #[test]
    fn allocation_on_a_dead_machine_is_rejected() {
        // A policy that ignores the platform mask gets a typed error.
        struct DeafToFaults;
        impl OnlineScheduler for DeafToFaults {
            fn name(&self) -> String {
                "deaf".into()
            }
            fn plan(&mut self, _: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
                if !active.is_empty() {
                    alloc.set(0, active.get(0).id, 1.0);
                }
            }
        }
        let mut eng = Engine::new(2);
        let mut p = DeafToFaults;
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![4.0, 4.0],
        })
        .unwrap();
        eng.push_platform_event(PlatformEvent {
            time: 1.0,
            machine: 0,
            change: PlatformChange::Down,
        })
        .unwrap();
        assert_eq!(
            eng.drain(&mut p).unwrap_err(),
            SimError::DeadMachineAllocation { machine: 0, job: 0 }
        );
    }

    #[test]
    fn malformed_platform_events_are_rejected_with_typed_errors() {
        let mut eng = Engine::new(2);
        let reject = |eng: &mut Engine, ev: PlatformEvent| match eng.push_platform_event(ev) {
            Err(SimError::InvalidPlatformEvent { reason }) => reason,
            other => panic!("expected InvalidPlatformEvent, got {other:?}"),
        };
        assert!(reject(
            &mut eng,
            PlatformEvent {
                time: 1.0,
                machine: 5,
                change: PlatformChange::Down,
            }
        )
        .contains("out of range"));
        assert!(reject(
            &mut eng,
            PlatformEvent {
                time: f64::NAN,
                machine: 0,
                change: PlatformChange::Down,
            }
        )
        .contains("finite"));
        assert!(reject(
            &mut eng,
            PlatformEvent {
                time: -1.0,
                machine: 0,
                change: PlatformChange::Up,
            }
        )
        .contains("non-negative"));
        // Rejected events leave the engine fault-free.
        assert_eq!(eng.platform_pending_len(), 0);
    }

    #[test]
    fn platform_mask_push_expands_to_events() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(2);
        let mut p = Srpt::new();
        assert!(matches!(
            eng.push_platform_mask(0.0, &[true]),
            Err(SimError::InvalidPlatformEvent { .. })
        ));
        eng.push_platform_mask(0.0, &[false, true]).unwrap();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![1.0, 1.0],
        })
        .unwrap();
        eng.push_platform_mask(2.0, &[true, true]).unwrap();
        eng.drain(&mut p).unwrap();
        // Machine 0 was down from the start: the job ran on machine 1.
        let done = eng.take_completed();
        assert_eq!(done[0].completion, 1.0);
        assert_eq!(eng.busy()[0], 0.0);
        assert_eq!(
            eng.active().up(),
            &[true, true],
            "mask at t=2 recovered machine 0"
        );
    }

    #[test]
    fn redundant_platform_events_are_idempotent() {
        use crate::schedulers::Srpt;
        let mut eng = Engine::new(1);
        let mut p = Srpt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0],
        })
        .unwrap();
        for (t, change) in [
            (1.0, PlatformChange::Down),
            (1.2, PlatformChange::Down), // duplicate down: no extra loss
            (2.0, PlatformChange::Up),
            (2.5, PlatformChange::Up), // duplicate up: no-op
        ] {
            eng.push_platform_event(PlatformEvent {
                time: t,
                machine: 0,
                change,
            })
            .unwrap();
        }
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        // Same outcome as the single down/up pair at 1 and 2.
        assert_eq!(done[0].completion, 4.0);
    }

    #[test]
    fn sparse_allocation_accessors() {
        let mut a = Allocation::idle(2);
        a.set(0, 7, 0.5);
        a.add(0, 3, 0.25);
        a.add(0, 7, 0.25);
        assert_eq!(a.share(0, 7), 0.75);
        assert_eq!(a.share(0, 3), 0.25);
        assert_eq!(a.share(0, 99), 0.0);
        assert_eq!(a.share(5, 0), 0.0); // out-of-range machine tolerated
        assert_eq!(a.entries(0), &[(3, 0.25), (7, 0.75)]);
        assert!((a.machine_total(0) - 1.0).abs() < 1e-12);
        a.scale_machine(0, 0.5);
        assert!((a.machine_total(0) - 0.5).abs() < 1e-12);
        assert_eq!(a.n_machines(), 2);
    }

    // --- Flattened-layout specifics (new in the slab engine). ---

    #[test]
    fn allocation_reset_clears_rows_and_resizes() {
        let mut a = Allocation::idle(1);
        a.set(0, 3, 0.5);
        a.reset(3);
        assert_eq!(a.n_machines(), 3);
        for i in 0..3 {
            assert!(a.entries(i).is_empty());
        }
        a.set(2, 1, 1.0);
        a.reset(2);
        assert_eq!(a.n_machines(), 2);
        assert!(a.entries(0).is_empty() && a.entries(1).is_empty());
    }

    #[test]
    fn slots_are_recycled_without_confusing_ids() {
        // Sequential jobs reuse the same slab slot; ids, costs, and
        // completions must stay per-job correct across the reuse.
        let mut eng = Engine::new(2);
        let mut p = GreedyFirst;
        for k in 0..6 {
            eng.push_arrival(JobSpec {
                release: 10.0 * k as f64,
                weight: 1.0,
                costs: vec![1.0 + k as f64, f64::INFINITY],
            })
            .unwrap();
        }
        eng.drain(&mut p).unwrap();
        let done = eng.take_completed();
        assert_eq!(done.len(), 6);
        for (k, c) in done.iter().enumerate() {
            assert_eq!(c.id, k);
            assert!((c.release - 10.0 * k as f64).abs() < 1e-12);
            assert!((c.fastest_cost - (1.0 + k as f64)).abs() < 1e-12);
            assert!((c.completion - (10.0 * k as f64 + 1.0 + k as f64)).abs() < 1e-9);
        }
        // One in-flight job at a time → one slab slot ever allocated.
        assert_eq!(eng.peak_active(), 1);
    }

    #[test]
    fn push_arrival_ref_matches_push_arrival() {
        let mut a = Engine::new(2);
        let mut b = Engine::new(2);
        let mut pa = GreedyFirst;
        let mut pb = GreedyFirst;
        let costs = [2.0, 4.0];
        for k in 0..4 {
            let ida = a
                .push_arrival(JobSpec {
                    release: k as f64 * 0.5,
                    weight: 1.0,
                    costs: costs.to_vec(),
                })
                .unwrap();
            let idb = b.push_arrival_ref(k as f64 * 0.5, 1.0, &costs).unwrap();
            assert_eq!(ida, idb);
        }
        a.drain(&mut pa).unwrap();
        b.drain(&mut pb).unwrap();
        let da = a.take_completed();
        let db = b.take_completed();
        assert_eq!(da, db);
        assert_eq!(a.n_events(), b.n_events());
    }

    #[test]
    fn peak_active_tracks_high_water_mark() {
        let mut eng = Engine::new(1);
        let mut p = GreedyFirst;
        for _ in 0..3 {
            eng.push_arrival(JobSpec {
                release: 0.0,
                weight: 1.0,
                costs: vec![1.0],
            })
            .unwrap();
        }
        assert_eq!(eng.peak_active(), 0);
        eng.drain(&mut p).unwrap();
        assert_eq!(eng.peak_active(), 3);
    }

    #[test]
    fn active_job_cost_hides_unavailable_machines() {
        let mut eng = Engine::new(2);
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: vec![2.0, f64::INFINITY],
        })
        .unwrap();
        // One step admits the release-0 arrival.
        eng.step(&mut GreedyFirst).unwrap();
        let job = eng.active().get(0);
        assert_eq!(job.cost(0), Some(2.0));
        assert_eq!(job.cost(1), None);
    }
}
