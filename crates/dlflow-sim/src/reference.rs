//! The PR-5 engine, preserved as a differential oracle.
//!
//! [`ReferenceEngine`] is the pre-flattening incremental engine kept
//! alive verbatim: owned [`ActiveJob`] structs in a `Vec`,
//! `BinaryHeap<Reverse<_>>` event queues, per-job `Vec<Vec<f64>>`
//! volatile-work rows, and the machine-major `O(m · |active| · log)`
//! allocation scan. It speaks the current [`OnlineScheduler`] API
//! through the same `ScratchSet` adapter as [`simulate_dense`], which
//! hands `plan` this engine's own availability row, so every policy runs
//! unmodified against both implementations.
//!
//! `tests/prop_shard.rs` drives randomized traces (with and without
//! fault processes) through this engine and the flattened
//! [`Engine`](crate::engine::Engine) and asserts **bit-identical**
//! [`CompletedJob`] streams, event counts, and busy vectors. The two
//! implementations share no event-loop code — agreement is evidence,
//! not tautology. Nothing in the production paths depends on this
//! module; it exists to make hot-path rewrites falsifiable.
//!
//! [`simulate_dense`]: crate::engine::simulate_dense

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::{
    view_of, ActiveJob, Allocation, CompletedJob, JobSpec, MetricsAccumulator, OnlineScheduler,
    PlatformChange, PlatformEvent, RunMetrics, ScratchSet, SimError, StepOutcome, EPS,
};

/// A pushed, not-yet-released job, ordered by `(release, id)` so
/// simultaneous arrivals admit in push order.
#[derive(Debug)]
struct Pending {
    release: f64,
    id: usize,
    job: JobSpec,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.release == other.release && self.id == other.id
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.release
            .total_cmp(&other.release)
            .then(self.id.cmp(&other.id))
    }
}

/// A queued platform event, ordered by `(time, push order)`.
#[derive(Debug)]
struct PlatformPending {
    time: f64,
    seq: usize,
    event: PlatformEvent,
}

impl PartialEq for PlatformPending {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for PlatformPending {}
impl PartialOrd for PlatformPending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PlatformPending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The pre-flattening incremental engine (owned job structs, binary
/// heaps, allocation lookups by binary search), preserved as a
/// differential oracle. Semantics — event ordering, EPS tolerances,
/// float accumulation order, error precedence — are exactly the
/// flattened engine's; only the data layout differs.
#[derive(Debug)]
pub struct ReferenceEngine {
    n_machines: usize,
    now: f64,
    pending: BinaryHeap<Reverse<Pending>>,
    active: Vec<ActiveJob>,
    next_id: usize,
    n_events: usize,
    n_plans: usize,
    busy: Vec<f64>,
    completed: Vec<CompletedJob>,
    /// When `false`, completions feed the metrics accumulator but are
    /// not buffered for [`ReferenceEngine::take_completed`].
    pub record_completions: bool,
    metrics: MetricsAccumulator,
    n_completed: usize,
    up: Vec<bool>,
    platform: BinaryHeap<Reverse<PlatformPending>>,
    n_platform_pushed: usize,
    faulty: bool,
    /// Parallel to `active` when `faulty`: per job, the work fraction
    /// each machine has contributed since it last (re)entered service.
    volatile: Vec<Vec<f64>>,
    // Scratch buffers recycled across events.
    rate: Vec<f64>,
    machine_share: Vec<f64>,
    scratch: ScratchSet,
    plan_alloc: Allocation,
}

impl ReferenceEngine {
    /// A fresh engine for `n_machines` machines, at time 0, with no jobs.
    pub fn new(n_machines: usize) -> ReferenceEngine {
        assert!(n_machines > 0, "engine needs at least one machine");
        ReferenceEngine {
            n_machines,
            now: 0.0,
            pending: BinaryHeap::new(),
            active: Vec::new(),
            next_id: 0,
            n_events: 0,
            n_plans: 0,
            busy: vec![0.0; n_machines],
            completed: Vec::new(),
            record_completions: true,
            metrics: MetricsAccumulator::new(),
            n_completed: 0,
            up: vec![true; n_machines],
            platform: BinaryHeap::new(),
            n_platform_pushed: 0,
            faulty: false,
            volatile: Vec::new(),
            rate: Vec::new(),
            machine_share: vec![0.0; n_machines],
            scratch: ScratchSet::default(),
            plan_alloc: Allocation::default(),
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

    /// Events processed so far.
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

    /// Jobs completed so far.
    pub fn n_completed(&self) -> usize {
        self.n_completed
    }

    /// Running metrics over everything completed so far.
    pub fn metrics(&self) -> RunMetrics {
        self.metrics.metrics()
    }

    /// Enqueues a future arrival; same validation and id assignment as
    /// the flattened engine.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidJob`] for a malformed spec (no id consumed).
    pub fn push_arrival(&mut self, job: JobSpec) -> Result<usize, SimError> {
        let invalid = |reason| Err(SimError::InvalidJob { reason });
        if job.costs.len() != self.n_machines {
            return invalid("costs length does not match the machine count");
        }
        if !job.costs.iter().any(|c| c.is_finite()) {
            return invalid("job can run on no machine");
        }
        if !job.costs.iter().all(|c| *c >= 0.0) {
            return invalid("job has a negative or NaN cost");
        }
        if !(job.release.is_finite() && job.release >= 0.0) {
            return invalid("job release must be finite and non-negative");
        }
        if !(job.weight.is_finite() && job.weight >= 0.0) {
            return invalid("job weight must be finite and non-negative");
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(Reverse(Pending {
            release: job.release,
            id,
            job,
        }));
        Ok(id)
    }

    /// Enqueues a machine failure or recovery at `event.time`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlatformEvent`] for an out-of-range machine or
    /// non-finite/negative time.
    pub fn push_platform_event(&mut self, event: PlatformEvent) -> Result<(), SimError> {
        let invalid = |reason| Err(SimError::InvalidPlatformEvent { reason });
        if event.machine >= self.n_machines {
            return invalid("machine index out of range");
        }
        if !(event.time.is_finite() && event.time >= 0.0) {
            return invalid("event time must be finite and non-negative");
        }
        if !self.faulty {
            self.faulty = true;
            self.volatile = self
                .active
                .iter()
                .map(|_| vec![0.0; self.n_machines])
                .collect();
        }
        let seq = self.n_platform_pushed;
        self.n_platform_pushed += 1;
        self.platform.push(Reverse(PlatformPending {
            time: event.time,
            seq,
            event,
        }));
        Ok(())
    }

    /// Pushes a whole availability mask taking effect at `time`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlatformEvent`] on a length mismatch or bad
    /// time.
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

    fn apply_due_platform(&mut self, policy: &mut dyn OnlineScheduler) -> usize {
        let mut applied = 0;
        loop {
            match self.platform.peek() {
                Some(Reverse(p)) if p.time <= self.now + EPS => {}
                _ => break,
            }
            let Some(Reverse(p)) = self.platform.pop() else {
                break;
            };
            let i = p.event.machine;
            match p.event.change {
                PlatformChange::Down if self.up[i] => {
                    self.up[i] = false;
                    for (aj, a) in self.active.iter_mut().enumerate() {
                        a.remaining = (a.remaining + self.volatile[aj][i]).min(1.0);
                        self.volatile[aj][i] = 0.0;
                    }
                }
                PlatformChange::Up if !self.up[i] => {
                    self.up[i] = true;
                }
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

    fn admit_due(&mut self, policy: &mut dyn OnlineScheduler) -> usize {
        let mut admitted = 0;
        loop {
            match self.pending.peek() {
                Some(Reverse(p)) if p.release <= self.now + EPS => {}
                _ => break,
            }
            let Some(Reverse(p)) = self.pending.pop() else {
                break;
            };
            let job = ActiveJob::new(p.id, p.job);
            policy.on_arrival(self.now, view_of(&job));
            self.active.push(job);
            if self.faulty {
                self.volatile.push(vec![0.0; self.n_machines]);
            }
            self.n_events += 1;
            admitted += 1;
        }
        admitted
    }

    /// Advances the engine by one event (exact PR-5 `step` semantics).
    ///
    /// # Errors
    ///
    /// The same [`SimError`] surface as the flattened engine's `step`.
    pub fn step(&mut self, policy: &mut dyn OnlineScheduler) -> Result<StepOutcome, SimError> {
        if self.active.is_empty() {
            let t_arrival = self.pending.peek().map(|Reverse(p)| p.release);
            let t_platform = self.platform.peek().map(|Reverse(p)| p.time);
            let t = match (t_arrival, t_platform) {
                (None, None) => return Ok(StepOutcome::Idle),
                (Some(a), None) => a,
                (None, Some(p)) => p,
                (Some(a), Some(p)) => a.min(p),
            };
            self.now = self.now.max(t);
            self.apply_due_platform(policy);
            self.admit_due(policy);
            return Ok(StepOutcome::Advanced);
        }

        // Platform events due now take effect before the policy plans.
        self.apply_due_platform(policy);

        let m = self.n_machines;
        self.scratch.fill(&self.active, m);
        let mut alloc = std::mem::take(&mut self.plan_alloc);
        alloc.reset(m);
        policy.plan(self.now, &self.scratch.view(&self.up), &mut alloc);
        self.n_plans += 1;

        // Validate the allocation and compute per-job progress rates:
        // the legacy machine-major scan over the active list, each share
        // a binary search into the sparse row.
        self.rate.clear();
        self.rate.resize(self.active.len(), 0.0);
        for i in 0..m {
            let mut total = 0.0;
            for (aj, a) in self.active.iter().enumerate() {
                let share = alloc.share(i, a.id);
                if share <= EPS {
                    continue;
                }
                if self.faulty && !self.up[i] {
                    self.plan_alloc = alloc;
                    return Err(SimError::DeadMachineAllocation {
                        machine: i,
                        job: a.id,
                    });
                }
                let c = a.costs[i];
                if !c.is_finite() {
                    self.plan_alloc = alloc;
                    return Err(SimError::ForbiddenAssignment {
                        machine: i,
                        job: a.id,
                    });
                }
                total += share;
                if c <= EPS {
                    self.rate[aj] = f64::INFINITY;
                } else {
                    self.rate[aj] += share / c;
                }
            }
            if total > 1.0 + 1e-6 {
                self.plan_alloc = alloc;
                return Err(SimError::MachineOversubscribed { machine: i, total });
            }
            self.machine_share[i] = total;
        }

        // Horizon.
        let t_arrival = self.pending.peek().map(|Reverse(p)| p.release);
        let t_platform = self.platform.peek().map(|Reverse(p)| p.time);
        let mut t_complete: Option<f64> = None;
        for (aj, a) in self.active.iter().enumerate() {
            if self.rate[aj] > 0.0 {
                let t = if self.rate[aj].is_infinite() {
                    self.now
                } else {
                    self.now + a.remaining / self.rate[aj]
                };
                t_complete = Some(t_complete.map_or(t, |cur: f64| cur.min(t)));
            }
        }

        let t_next = [t_arrival, t_platform, t_complete]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if !t_next.is_finite() {
            self.plan_alloc = alloc;
            return Err(SimError::Stalled { at: self.now });
        }
        let dt = (t_next - self.now).max(0.0);

        // Integrate progress.
        for i in 0..m {
            self.busy[i] += self.machine_share[i] * dt;
        }
        if self.faulty && dt > 0.0 {
            for i in 0..m {
                if !self.up[i] {
                    continue;
                }
                for (aj, a) in self.active.iter().enumerate() {
                    let share = alloc.share(i, a.id);
                    if share > EPS && a.costs[i] > EPS {
                        self.volatile[aj][i] += share / a.costs[i] * dt;
                    }
                }
            }
        }
        self.plan_alloc = alloc;
        for (aj, a) in self.active.iter_mut().enumerate() {
            if self.rate[aj].is_infinite() {
                a.remaining = 0.0;
            } else {
                a.remaining -= self.rate[aj] * dt;
            }
        }
        self.now = self.now.max(t_next);
        self.n_events += 1;

        // Completions (preserving admission order of the survivors).
        let mut k = 0;
        while k < self.active.len() {
            if self.active[k].remaining <= EPS {
                let a = self.active.remove(k);
                if self.faulty {
                    self.volatile.remove(k);
                }
                policy.on_completion(self.now, a.id);
                let done = CompletedJob {
                    id: a.id,
                    release: a.release,
                    weight: a.weight,
                    fastest_cost: a.fastest,
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

        // Completions → platform changes → arrivals at t_next.
        self.apply_due_platform(policy);
        self.admit_due(policy);
        Ok(StepOutcome::Advanced)
    }

    /// Steps until idle, with the same stall bound as the flattened
    /// engine.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] a step surfaces.
    pub fn drain(&mut self, policy: &mut dyn OnlineScheduler) -> Result<(), SimError> {
        let max_iters =
            100_000 + 200 * self.next_id * (self.n_machines + 2) + 2 * self.n_platform_pushed;
        for _ in 0..max_iters {
            if self.step(policy)? == StepOutcome::Idle {
                return Ok(());
            }
        }
        Err(SimError::Stalled { at: self.now })
    }

    /// Takes the buffered completions (empties the buffer).
    pub fn take_completed(&mut self) -> Vec<CompletedJob> {
        std::mem::take(&mut self.completed)
    }
}

/// SWRPT exactly as PR 5 ranked it, frozen for benchmarking.
///
/// The live [`Swrpt`](crate::schedulers::Swrpt) has since moved to
/// recycled scratch buffers, a packed integer sort key, and an
/// insertion sort — so pairing [`ReferenceEngine`] with the *live*
/// policy would measure a hybrid that never shipped. This policy
/// re-creates the PR-5 plan verbatim: fresh `order`/`prios` vectors per
/// plan, a stable `sort_by` whose comparator re-reads the job views,
/// a fresh machine mask, and a fresh [`Allocation`] — one measurement
/// of the whole PR-5 stack on today's host, which is what the
/// throughput-floor ratios in `bench-report` divide by. The produced
/// allocations are identical to the live SWRPT's (same priority, same
/// tie-break), only slower to compute; it is fault-unaware, as PR 5
/// was, so drive it on fault-free workloads only.
#[derive(Default)]
pub struct Pr5Swrpt;

impl Pr5Swrpt {
    /// Fresh policy.
    pub fn new() -> Self {
        Pr5Swrpt
    }
}

impl OnlineScheduler for Pr5Swrpt {
    fn name(&self) -> String {
        "SWRPT@PR5".into()
    }

    fn on_arrival(&mut self, _now: f64, _job: crate::engine::JobView<'_>) {}

    fn on_completion(&mut self, _now: f64, _id: usize) {}

    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {}

    fn plan(&mut self, _now: f64, active: &crate::engine::ActiveSet<'_>, alloc: &mut Allocation) {
        let n_machines = active.n_machines();
        let mut order: Vec<usize> = (0..active.len()).collect(); // dlflint:allow(alloc-in-hot-loop, "frozen PR-5 baseline: the per-plan allocation is what it measures")
        let prios: Vec<f64> = (0..active.len())
            .map(|k| {
                let a = active.get(k);
                -(a.remaining * a.fastest_cost()) / a.weight.max(1e-12)
            })
            .collect(); // dlflint:allow(alloc-in-hot-loop, "frozen PR-5 baseline: the per-plan allocation is what it measures")
        order.sort_by(|&x, &y| {
            prios[y]
                .partial_cmp(&prios[x])
                .unwrap() // dlflint:allow(hot-path-panic, "frozen PR-5 comparator verbatim; priorities come from validated finite inputs, never NaN")
                .then(active.get(x).id.cmp(&active.get(y).id))
        });
        let mut free = vec![true; n_machines]; // dlflint:allow(alloc-in-hot-loop, "frozen PR-5 baseline: the per-plan allocation is what it measures")
        for k in order {
            let job = active.get(k);
            let mut best: Option<(usize, f64)> = None;
            for (i, slot) in free.iter_mut().enumerate() {
                if !*slot {
                    continue;
                }
                if let Some(c) = job.cost(i) {
                    // dlflint:allow(hot-path-panic, "frozen PR-5 scan verbatim; best is Some whenever the right operand is reached")
                    if best.is_none() || c < best.unwrap().1 {
                        best = Some((i, c));
                    }
                }
            }
            if let Some((i, _)) = best {
                free[i] = false;
                alloc.set(i, job.id, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, JobSpec};
    use crate::schedulers::Swrpt;

    #[test]
    fn reference_matches_flattened_on_a_small_mixed_run() {
        let specs = [
            (0.0, 1.0, vec![2.0, 4.0]),
            (0.5, 2.0, vec![1.0, f64::INFINITY]),
            (0.5, 1.0, vec![f64::INFINITY, 3.0]),
            (4.0, 5.0, vec![0.5, 0.5]),
        ];
        let mut flat = Engine::new(2);
        let mut reference = ReferenceEngine::new(2);
        let mut p1 = Swrpt::new();
        let mut p2 = Swrpt::new();
        for (release, weight, costs) in &specs {
            flat.push_arrival(JobSpec {
                release: *release,
                weight: *weight,
                costs: costs.clone(),
            })
            .unwrap();
            reference
                .push_arrival(JobSpec {
                    release: *release,
                    weight: *weight,
                    costs: costs.clone(),
                })
                .unwrap();
        }
        flat.drain(&mut p1).unwrap();
        reference.drain(&mut p2).unwrap();
        assert_eq!(flat.take_completed(), reference.take_completed());
        assert_eq!(flat.n_events(), reference.n_events());
        assert_eq!(flat.n_plans(), reference.n_plans());
        let fb: Vec<u64> = flat.busy().iter().map(|b| b.to_bits()).collect();
        let rb: Vec<u64> = reference.busy().iter().map(|b| b.to_bits()).collect();
        assert_eq!(fb, rb);
    }

    #[test]
    fn reference_matches_flattened_under_faults() {
        let mut flat = Engine::new(2);
        let mut reference = ReferenceEngine::new(2);
        let mut p1 = Swrpt::new();
        let mut p2 = Swrpt::new();
        for (t, machine, change) in [
            (1.0, 0, PlatformChange::Down),
            (2.5, 0, PlatformChange::Up),
            (3.0, 1, PlatformChange::Down),
            (5.0, 1, PlatformChange::Up),
        ] {
            let ev = PlatformEvent {
                time: t,
                machine,
                change,
            };
            flat.push_platform_event(ev).unwrap();
            reference.push_platform_event(ev).unwrap();
        }
        for (release, weight, costs) in [
            (0.0, 1.0, vec![2.0, 2.0]),
            (0.5, 1.0, vec![4.0, 4.0]),
            (2.0, 3.0, vec![1.0, 2.0]),
        ] {
            flat.push_arrival(JobSpec {
                release,
                weight,
                costs: costs.clone(),
            })
            .unwrap();
            reference
                .push_arrival(JobSpec {
                    release,
                    weight,
                    costs,
                })
                .unwrap();
        }
        flat.drain(&mut p1).unwrap();
        reference.drain(&mut p2).unwrap();
        let a = flat.take_completed();
        let b = reference.take_completed();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.completion.to_bits(), y.completion.to_bits());
        }
        assert_eq!(flat.n_events(), reference.n_events());
    }
}
