//! The paper's proposal (§5): an **online adaptation of the offline
//! algorithm**, "enhanced by a simple preemption scheme".
//!
//! At every event the policy re-solves the offline divisible
//! max-weighted-flow problem restricted to the jobs currently in the
//! system (their *remaining* work) while accounting for the time they
//! have already spent waiting. In that sub-problem every job is available
//! `now`, yet due at `r_j + F/w_j`, counted from its original release.
//!
//! 1. find the optimal objective `F*` by the paper's own method (§4.3):
//!    binary-search the milestones above the floor `maxⱼ wⱼ(now − rⱼ)`
//!    with System-(2) probes (settled by certificate where one applies,
//!    else by an LP), then solve System (3) on the located range,
//!    minimizing `F` (both built by `dlflow-core`);
//! 2. solve System (3) again with `F` pinned at `F*` (to 1e-12
//!    relative), maximizing the weighted work of the first interval,
//!    `Σⱼ wⱼ Σᵢ α⁽⁰⁾ᵢⱼ`. Columns are in job-id order, so the plan does
//!    not depend on the active set's order. Where this stage's optimum
//!    is tied, the plan is the vertex its pivots reach from the basis
//!    the first stage's dual start ended on, so it also depends on that
//!    pivot path: GriPPS costs are size × cycle time, so machines are
//!    uniform-related and two jobs can often trade machines at equal
//!    weighted work;
//! 3. convert the first interval's fractions `α⁽⁰⁾ᵢⱼ` into machine
//!    shares and follow them until the next event (arrival, completion,
//!    platform change), then re-plan. Divisibility makes preemption and
//!    migration free.
//!
//! A single active job needs no LP: running it on every live machine that
//! holds its databank is optimal, with
//! `F* = w·(now − r + 1/Σᵢ 1/c'ᵢ)` for remaining-work costs `c'`. Should
//! either stage not end optimal, or the second refuse to re-optimize,
//! the re-plan falls back to System (2) at the serial bound, which is
//! feasible by construction.
//!
//! The policy never sees a closed instance: the sub-problem is built from
//! the active set the engine hands to `plan`, so it works unchanged on
//! open-arrival traces.
//!
//! # Per-event work
//!
//! A re-plan with several jobs costs the two stages plus one LP solve
//! per milestone probe that no certificate settles, through the one
//! [`LpWorkspace`] the policy owns. Each probe asks
//! [`deadline_verdict`] first: it refuses when some job is due before it
//! could finish alone on all its live machines (an empty window
//! included), and accepts when an earliest-deadline-first list schedule
//! meets every deadline, each with a margin of 1e-6 of the job's window
//! so that its verdict is the LP's. On `ola-online` (seed 1) they settle
//! 647 of the 683 probes; the other 36 solve cold. The first stage
//! minimizes `F` alone, so the basis of the
//! slacks and one `α` per completion row is dual feasible: it starts the
//! dual simplex there and runs no phase 1 ([`solve_dual_in`]), solving
//! two-phase only where that start refuses (a dual stall). The second
//! re-optimizes the first stage's final tableau in place
//! ([`reoptimize_in`]): the pin moves one right-hand side down that
//! row's basic slack, the new objective is priced, and the primal
//! simplex takes one or two pivots. No basis is snapshotted. The
//! programs, the milestone list and the deadline vector are refilled in
//! place. The tableau the second stage continues is the one the same
//! re-plan's first stage left, so only buffer capacity outlives an
//! event, and reset, restore and platform changes have no solver state
//! to drop.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::deadline::{deadline_verdict, VerdictScratch};
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::lp_build::{
    build_deadline_lp_into, build_range_lp_into, AlphaVar, DeadlineLp, RangeLp,
};
use dlflow_core::maxflow::locate_range;
use dlflow_core::milestones::milestones_into;
use dlflow_lp::{reoptimize_in, solve_dual_in, solve_in, LpSolution, LpWorkspace, Rel, Sense};
use std::mem;

/// Smallest weight the heaviest active job is taken to have: the
/// streaming path does not forbid zero weights, and an all-zero active
/// set must not divide by zero (its jobs then weigh the same).
const MIN_WEIGHT: f64 = 1e-12;

/// Floor on a weight relative to the heaviest active job's, which also
/// stands in for zero weights. It bounds the deadline slopes `1/w` that
/// fill the range LP's `F` column: a job this much lighter is due so far
/// out that its window never binds, and steeper slopes leave the
/// simplex's absolute tolerances unable to tell pivots from noise.
const REL_WEIGHT: f64 = 1e-4;

/// Relative slack of the second stage's pin `F ≤ F*·(1 + F_PIN)`. A
/// looser pin lets float ties hand other schedulers wins over OLA.
const F_PIN: f64 = 1e-12;

/// Keys of the snapshot state: one line per counter the policy owns,
/// in the order `snapshot_state` writes them.
const STATE_KEYS: [&str; 4] = ["n_resolves", "lp_solves", "warm_lp_solves", "warm_resolves"];

/// Column-major scratch copy of the active set, in job-id order: `plan`
/// refreshes these flat buffers from the borrowed [`ActiveSet`] instead
/// of materializing per-job structs (and per-job cost boxes) at every
/// event.
#[derive(Debug, Default)]
struct JobCols {
    n_machines: usize,
    ids: Vec<usize>,
    remaining: Vec<f64>,
    release: Vec<f64>,
    weight: Vec<f64>,
    /// Job-major raw cost rows (`f64::INFINITY` = unavailable).
    costs: Vec<f64>,
    /// Sort scratch: active-set positions in job-id order.
    order: Vec<usize>,
}

impl JobCols {
    fn n(&self) -> usize {
        self.ids.len()
    }

    /// Refills the columns from `active`, sorted by job id whatever the
    /// admission order.
    fn fill(&mut self, active: &ActiveSet<'_>) {
        self.n_machines = active.n_machines();
        self.order.clear();
        self.order.extend(0..active.len());
        self.order.sort_unstable_by_key(|&k| active.get(k).id);
        self.ids.clear();
        self.remaining.clear();
        self.release.clear();
        self.weight.clear();
        self.costs.clear();
        for &k in &self.order {
            let a = active.get(k);
            self.ids.push(a.id);
            self.remaining.push(a.remaining);
            self.release.push(a.release);
            self.weight.push(a.weight);
            self.costs.extend_from_slice(a.costs());
        }
    }

    /// Processing cost of job `k` on machine `i`, `None` when absent.
    fn cost(&self, i: usize, k: usize) -> Option<f64> {
        let c = self.costs[k * self.n_machines + i];
        c.is_finite().then_some(c)
    }

    /// Drops every job column for which `keep` is false, preserving order.
    fn retain_by<F: Fn(&Self, usize) -> bool>(&mut self, keep: F) {
        let m = self.n_machines;
        let mut w = 0;
        for k in 0..self.n() {
            if keep(self, k) {
                if w != k {
                    self.ids[w] = self.ids[k];
                    self.remaining[w] = self.remaining[k];
                    self.release[w] = self.release[k];
                    self.weight[w] = self.weight[k];
                    self.costs.copy_within(k * m..(k + 1) * m, w * m);
                }
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.remaining.truncate(w);
        self.release.truncate(w);
        self.weight.truncate(w);
        self.costs.truncate(w * m);
    }
}

/// Retired sub-instance buffers (jobs, cost matrix) handed back for
/// recycling into the next event's sub-instance build.
type SubBuffers = (Vec<Job<f64>>, Vec<Vec<Cost<f64>>>);

/// The policy's LP machinery: the simplex workspace every solve draws
/// its buffers from, the programs and vectors the builders refill, and
/// the count of solves since the last reset.
#[derive(Default)]
struct PolicyLp {
    /// Buffers of every simplex solve. Capacity only — each solve starts
    /// from the same logical state as with a fresh workspace — so it is
    /// never cleared.
    ws: LpWorkspace<f64>,
    /// System (2): the probes and the serial-bound fallback.
    built: DeadlineLp<f64>,
    /// System (3): both stages.
    range: RangeLp<f64>,
    /// Milestones above the floor.
    ms: Vec<f64>,
    /// Deadlines of the current probe.
    d: Vec<f64>,
    /// Buffers of the probes' certificates.
    verdict: VerdictScratch<f64>,
    /// LP solves since the last reset (probes a certificate settled
    /// solve none).
    solves: usize,
    /// Of those, solves started from the previous solve's basis.
    warm: usize,
}

impl PolicyLp {
    /// Fills [`Self::d`] with the deadlines at objective `f`: job `k` due
    /// at `origins[k] + f/w_k`.
    fn deadlines_at(&mut self, sub: &Instance<f64>, origins: &[f64], f: f64) {
        self.d.clear();
        self.d.extend(
            origins
                .iter()
                .zip(sub.jobs())
                .map(|(&o, job)| o + f / job.weight),
        );
    }

    /// The milestone probe: is System (2) feasible at objective `f`? The
    /// certificates of [`deadline_verdict`] answer first (an empty window
    /// is a refusal); only the probes they leave open solve an LP.
    fn probe(&mut self, sub: &Instance<f64>, origins: &[f64], f: f64) -> bool {
        self.deadlines_at(sub, origins, f);
        match deadline_verdict(sub, &self.d, &mut self.verdict) {
            Some(feasible) => feasible,
            None => self.solve_at(sub, origins, f).is_some(),
        }
    }

    /// Solves System (2) at objective `f`; the solution when it is
    /// optimal. The serial-bound fallback needs its vertex.
    fn solve_at(
        &mut self,
        sub: &Instance<f64>,
        origins: &[f64],
        f: f64,
    ) -> Option<LpSolution<f64>> {
        self.deadlines_at(sub, origins, f);
        self.solves += 1;
        build_deadline_lp_into(&mut self.built, sub, &self.d, false);
        let sol = solve_in(&self.built.lp, &mut self.ws);
        sol.is_optimal().then_some(sol)
    }

    /// Milestone search and the first stage: the optimal objective of
    /// the sub-problem. [`Self::range`] keeps its range LP, with a last
    /// row `F ≤ cap` for the second stage to tighten, and the workspace
    /// keeps that LP's final tableau. The range LP minimizes `F` alone, so
    /// its slack basis is dual feasible and the solve starts there
    /// ([`solve_dual_in`]), solving two-phase only where that start
    /// refuses. `None` when the range LP does not end optimal.
    fn min_flow(
        &mut self,
        sub: &Instance<f64>,
        origins: &[f64],
        now: f64,
        cap: f64,
    ) -> Option<f64> {
        let floor = flow_floor(sub, origins, now);
        let mut ms = mem::take(&mut self.ms);
        milestones_into(&mut ms, sub, origins, &floor);
        let range = locate_range(&ms, &floor, |&f| self.probe(sub, origins, f));
        self.ms = ms;
        let r = &mut self.range;
        build_range_lp_into(
            r,
            sub,
            origins,
            &range.lo,
            range.hi.as_ref(),
            &range.reference,
            false,
        );
        r.lp.push_row(Rel::Le, cap).expr.push(r.f_var, 1.0);
        self.solves += 1;
        let sol =
            solve_dual_in(&r.lp, &mut self.ws).unwrap_or_else(|| solve_in(&r.lp, &mut self.ws));
        sol.is_optimal().then(|| sol.values[r.f_var.index()])
    }

    /// The second stage: pins `F ≤ f_star·(1 + F_PIN)` on the last row
    /// and maximizes the weighted work of the first interval by
    /// re-optimizing the first stage's final tableau (the pin only
    /// tightens a row whose slack is basic, so that vertex stays
    /// feasible). `None` when the tableau refuses or the solve does not
    /// end optimal. It counts as a warm solve: it starts from the first
    /// stage's basis.
    fn stage_two(&mut self, sub: &Instance<f64>, f_star: f64) -> Option<LpSolution<f64>> {
        let RangeLp { lp, alpha, .. } = &mut self.range;
        if let Some(pin) = lp.constraints_mut().last_mut() {
            pin.rhs = f_star + f_star.abs() * F_PIN;
        }
        lp.reset_objective(Sense::Maximize);
        for &(_, _, k, v) in alpha.iter().take_while(|a| a.0 == 0) {
            lp.objective_term(v, sub.job(k).weight);
        }
        let sol = reoptimize_in(lp, &mut self.ws)?;
        self.solves += 1;
        self.warm += 1;
        sol.is_optimal().then_some(sol)
    }

    /// [`Self::stage_two`], with its first-interval rates added to
    /// `alloc`. `false` (and `alloc` untouched) when it does not end
    /// optimal.
    fn canonical_rates(
        &mut self,
        sub: &Instance<f64>,
        ids: &[usize],
        f_star: f64,
        alloc: &mut Allocation,
    ) -> bool {
        self.stage_two(sub, f_star).is_some_and(|sol| {
            let r = &self.range;
            r.intervals.n_intervals() > 0
                && add_first_interval(
                    alloc,
                    &r.alpha,
                    &sol.values,
                    r.intervals.len(0).eval(&sol.values[r.f_var.index()]),
                    sub,
                    ids,
                )
        })
    }

    /// The fallback: System (2) at the serial bound `hi`, feasible by
    /// construction, with its vertex's first-interval rates.
    fn serial_rates(
        &mut self,
        sub: &Instance<f64>,
        origins: &[f64],
        ids: &[usize],
        hi: f64,
        alloc: &mut Allocation,
    ) -> bool {
        let Some(sol) = self.solve_at(sub, origins, hi) else {
            return false;
        };
        !self.built.intervals.is_empty()
            && add_first_interval(
                alloc,
                &self.built.alpha,
                &sol.values,
                self.built.intervals.len(0),
                sub,
                ids,
            )
    }
}

/// The floor of the milestone search, `maxⱼ wⱼ(now − oⱼ)`: the flow the
/// jobs have already accrued, which no plan can undo.
fn flow_floor(sub: &Instance<f64>, origins: &[f64], now: f64) -> f64 {
    origins
        .iter()
        .zip(sub.jobs())
        .map(|(&o, job)| job.weight * (now - o))
        .fold(0.0, f64::max)
}

/// The serial bound on the optimal objective: all remaining work
/// serialized on each job's fastest machine, padded so it stays feasible
/// under float rounding.
fn serial_bound(sub: &Instance<f64>, origins: &[f64], now: f64) -> f64 {
    let total: f64 = (0..sub.n_jobs()).map(|k| sub.fastest_cost(k)).sum();
    origins
        .iter()
        .zip(sub.jobs())
        .map(|(&o, job)| job.weight * (now + total - o))
        .fold(0.0, f64::max)
        * (1.0 + 1e-9)
        + 1e-6
}

/// Adds the first interval's rates to `alloc`: α⁽⁰⁾ᵢⱼ · c'ᵢⱼ is the time
/// machine i spends on job j within the interval; divided by the
/// interval length it is the machine share. `false` (and `alloc`
/// untouched) when the interval is empty.
fn add_first_interval(
    alloc: &mut Allocation,
    alpha: &[AlphaVar],
    values: &[f64],
    len0: f64,
    sub: &Instance<f64>,
    ids: &[usize],
) -> bool {
    if len0.is_nan() || len0 <= 0.0 {
        return false;
    }
    // The α list runs in (t, i, j) order: interval 0 comes first.
    for &(_, i, k, v) in alpha.iter().take_while(|a| a.0 == 0) {
        let frac = values[v.index()];
        if frac <= 1e-12 {
            continue;
        }
        // The LP never grants share on an illegal pair; skip rather
        // than panic if a solver artefact ever does.
        let Some(&c) = sub.cost(i, k).finite() else {
            continue;
        };
        alloc.add(i, ids[k], (frac * c / len0).min(1.0));
    }
    // Normalize any machine marginally over 1 from float noise.
    for i in 0..alloc.n_machines() {
        let total = alloc.machine_total(i);
        if total > 1.0 {
            alloc.scale_machine(i, 1.0 / total);
        }
    }
    true
}

/// Online adaptation of the offline divisible optimum.
#[derive(Default)]
pub struct OfflineAdapt {
    /// Re-plans since the last `reset`.
    n_resolves: usize,
    /// Re-plans with at least one warm-started LP solve.
    warm_resolves: usize,
    /// Scratch copy of the active set, refreshed per event.
    scratch: JobCols,
    /// Recycled job/cost-matrix buffers for the LP sub-instance (the
    /// previous sub-instance's allocations, rotated back in).
    sub_recycle: SubBuffers,
    /// Simplex workspace, reused programs and LP-solve counter.
    lp: PolicyLp,
}

impl OfflineAdapt {
    /// Fresh policy: re-plans at every event, as §5 describes.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Hands every machine that `up` says is live wholly to the first job
/// (in id order) it can run. For a single job this is the optimum; for
/// several it is the last resort when no LP ended optimal.
fn whole_machines(cols: &JobCols, up: &[bool], alloc: &mut Allocation) {
    for (i, &live) in up.iter().enumerate() {
        if let Some(k) = (0..cols.n()).find(|&k| live && cols.cost(i, k).is_some()) {
            alloc.set(i, cols.ids[k], 1.0);
        }
    }
}

/// Builds the *remaining-work* sub-instance at `now` into recycled
/// buffers: one job per column with cost `remaining · c[i][j]` and
/// release `now`, one machine per entry of `up`. Dead machines
/// contribute all-`Infinite` rows, so the LP plans over live machines
/// only. `None` only if some column has no live finite machine — callers
/// pre-filter, so that is their bug, not an event.
fn build_sub(
    now: f64,
    cols: &JobCols,
    up: &[bool],
    recycle: &mut SubBuffers,
) -> Option<Instance<f64>> {
    let (mut jobs, mut cost) = mem::take(recycle);
    jobs.clear();
    // Weights relative to the heaviest job: the optimal schedule is the
    // same, and `F` is measured in the heaviest job's flow time.
    let heaviest = cols.weight.iter().fold(MIN_WEIGHT, |h, &w| h.max(w));
    for k in 0..cols.n() {
        jobs.push(Job {
            release: now,
            weight: (cols.weight[k] / heaviest).max(REL_WEIGHT),
            name: String::default(), // names are cosmetic; skip the per-job format
        });
    }
    cost.resize_with(up.len(), Default::default);
    cost.truncate(up.len());
    for (i, (row, &live)) in cost.iter_mut().zip(up).enumerate() {
        row.clear();
        for k in 0..cols.n() {
            row.push(match cols.cost(i, k) {
                Some(c) if live => Cost::Finite(cols.remaining[k] * c),
                _ => Cost::Infinite,
            });
        }
    }
    Instance::new(jobs, cost).ok()
}

impl OnlineScheduler for OfflineAdapt {
    fn name(&self) -> String {
        "OLA".into()
    }

    fn reset(&mut self) {
        self.n_resolves = 0;
        self.warm_resolves = 0;
        self.lp.solves = 0;
        self.lp.warm = 0;
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // No per-job state: every re-plan reads the active set afresh.
    }

    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // No per-job state: every re-plan reads the active set afresh.
    }

    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // No machine-keyed state: every re-plan reads the mask afresh.
    }

    fn snapshot_state(&self) -> String {
        STATE_KEYS
            .iter()
            .zip([
                self.n_resolves,
                self.lp.solves,
                self.lp.warm,
                self.warm_resolves,
            ])
            .map(|(key, n)| format!("{key} {n}\n"))
            .collect()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        // Documents written before the LP counters rode along hold the
        // `n_resolves` line alone; their LP counters restart at zero.
        let n_lines = state.lines().count();
        if n_lines != 1 && n_lines != STATE_KEYS.len() {
            return Err(format!(
                "OLA state: want 1 or {} counter lines, found {n_lines}",
                STATE_KEYS.len()
            ));
        }
        let mut counts = [0; STATE_KEYS.len()];
        for ((line, key), n) in state.lines().zip(STATE_KEYS).zip(&mut counts) {
            *n = line
                .strip_prefix(key)
                .and_then(|v| v.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("OLA state: bad `{key}` line {line:?}"))?;
        }
        let [n_resolves, solves, warm, warm_resolves] = counts;
        // `resolve_stats` subtracts each warm count from its total.
        if warm > solves || warm_resolves > n_resolves {
            return Err("OLA state: a warm count exceeds its total".into());
        }
        self.n_resolves = n_resolves;
        self.lp.solves = solves;
        self.lp.warm = warm;
        self.warm_resolves = warm_resolves;
        Ok(())
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        if active.is_empty() {
            return;
        }
        // Refresh the flat scratch copy of the borrowed columns (the LP
        // path needs them beyond this call frame's borrows).
        let mut cols = mem::take(&mut self.scratch);
        cols.fill(active);
        self.plan_into(now, &mut cols, active.up(), alloc);
        self.scratch = cols;
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        Some(ResolveStats {
            n_resolves: self.n_resolves,
            warm_lp_solves: self.lp.warm,
            cold_lp_solves: self.lp.solves - self.lp.warm,
            warm_resolves: self.warm_resolves,
            cold_resolves: self.n_resolves - self.warm_resolves,
        })
    }
}

impl OfflineAdapt {
    /// The re-plan proper, over the scratch columns (which it may filter
    /// down to the placeable subset on the degraded no-live-machine
    /// path) and the engine's mask `up`, writing into the engine's empty
    /// `alloc`.
    fn plan_into(&mut self, now: f64, cols: &mut JobCols, up: &[bool], alloc: &mut Allocation) {
        let placeable =
            |c: &JobCols, k: usize| (0..up.len()).any(|i| up[i] && c.cost(i, k).is_some());
        if (0..cols.n()).any(|k| !placeable(cols, k)) {
            // Some active job runs on no *live* machine: plan the
            // placeable subset instead of stranding everyone.
            cols.retain_by(placeable);
            if cols.n() == 0 {
                return;
            }
        }

        self.n_resolves += 1;
        if cols.n() == 1 {
            whole_machines(cols, up, alloc);
        } else if let Some(sub) = build_sub(now, cols, up, &mut self.sub_recycle) {
            let lp = &mut self.lp;
            let warm = lp.warm;
            let hi = serial_bound(&sub, &cols.release, now);
            let planned = lp
                .min_flow(&sub, &cols.release, now, hi)
                .is_some_and(|opt| lp.canonical_rates(&sub, &cols.ids, opt, alloc))
                || lp.serial_rates(&sub, &cols.release, &cols.ids, hi, alloc);
            self.warm_resolves += usize::from(lp.warm > warm);
            self.sub_recycle = sub.into_parts();
            if !planned {
                whole_machines(cols, up, alloc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, Engine, JobSpec, RunMetrics};
    use crate::schedulers::mct::Mct;
    use crate::snapshot::SnapshotError;
    use dlflow_core::instance::InstanceBuilder;
    use dlflow_lp::solve_warm;

    #[test]
    fn splits_divisible_job_across_machines() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(4.0)]);
        b.machine(vec![Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        // Divisible optimum: both machines half each → done at 2.
        assert!(
            (res.completions[0] - 2.0).abs() < 1e-4,
            "got {}",
            res.completions[0]
        );
    }

    #[test]
    fn single_job_completes_at_processing_time() {
        let mut b = InstanceBuilder::new();
        b.job(1.0, 2.0);
        b.machine(vec![Some(3.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        assert!((res.completions[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn beats_mct_on_weighted_instance() {
        // Heavy job arrives while a light long job monopolizes the only
        // fast machine under MCT; OLA preempts/splits.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // light, long (10 on M0)
        b.job(1.0, 10.0); // heavy, short (2 on M0), slow elsewhere
        b.machine(vec![Some(10.0), Some(2.0)]);
        b.machine(vec![Some(30.0), Some(20.0)]);
        let inst = b.build().unwrap();
        let mct = simulate(&inst, &mut Mct::new()).unwrap();
        let ola = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        let m_mct = RunMetrics::from_completions(&inst, &mct.completions);
        let m_ola = RunMetrics::from_completions(&inst, &ola.completions);
        assert!(
            m_ola.max_weighted_flow < m_mct.max_weighted_flow,
            "OLA {} should beat MCT {}",
            m_ola.max_weighted_flow,
            m_mct.max_weighted_flow
        );
    }

    #[test]
    fn respects_restricted_availability() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![None, Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        assert!((res.completions[0] - 2.0).abs() < 1e-4);
        assert!((res.completions[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn zero_weight_job_does_not_break_the_lp_path() {
        // The streaming engine allows weight 0; OLA clamps it to a floor
        // instead of building an invalid sub-instance or dividing by 0.
        let mut eng = Engine::new(2);
        let mut ola = OfflineAdapt::new();
        eng.push_arrival(JobSpec {
            release: 0.0,
            weight: 0.0,
            costs: vec![4.0, 4.0],
        })
        .unwrap();
        eng.push_arrival(JobSpec {
            release: 1.0,
            weight: 2.0,
            costs: vec![2.0, f64::INFINITY],
        })
        .unwrap();
        eng.drain(&mut ola).unwrap();
        assert_eq!(eng.n_completed(), 2);
        assert!(eng.metrics().makespan.is_finite());
    }

    #[test]
    fn resolve_stats_report_warm_and_cold_solves() {
        // A single-job re-plan solves no LP; over a run with overlapping
        // jobs the milestone search averages at most two per re-plan.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(3.0)]);
        b.machine(vec![Some(6.0)]);
        let mut ola = OfflineAdapt::new();
        simulate(&b.build().unwrap(), &mut ola).unwrap();
        let stats = ola.resolve_stats().unwrap();
        assert_eq!((stats.n_resolves, stats.lp_solves()), (1, 0), "{stats:?}");

        use crate::workload::{generate, WorkloadSpec};
        let inst = generate(&WorkloadSpec {
            n_jobs: 10,
            n_machines: 3,
            mean_interarrival: 0.8,
            seed: 7,
            ..Default::default()
        });
        let mut ola = OfflineAdapt::new();
        simulate(&inst, &mut ola).unwrap();
        let stats = ola.resolve_stats().unwrap();
        assert!(stats.n_resolves > 0 && stats.lp_solves() > 0, "{stats:?}");
        assert!(stats.mean_lp_solves_per_resolve() <= 2.0, "{stats:?}");
        // Only second stages run warm, at most one per re-plan.
        assert!(stats.warm_lp_solves > 0 && stats.warm_lp_solves < stats.lp_solves());
        assert_eq!(stats.warm_resolves, stats.warm_lp_solves, "{stats:?}");
        assert_eq!(stats.warm_resolves + stats.cold_resolves, stats.n_resolves);
    }

    /// Scratch columns for a sub-problem at `now`: job `k` released at
    /// `release[k]` with weight `weight[k]`, the whole job left, and
    /// `costs` job-major over `m` machines.
    fn cols_of(release: &[f64], weight: &[f64], costs: &[f64], m: usize) -> JobCols {
        JobCols {
            n_machines: m,
            ids: (0..release.len()).collect(),
            remaining: vec![1.0; release.len()],
            release: release.to_vec(),
            weight: weight.to_vec(),
            costs: costs.to_vec(),
            order: Vec::new(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The milestone optimum of a random OLA sub-problem lies in the
        /// final bracket of a 40-step bisection of `F` with System-(2)
        /// probes (the search the milestones replaced), widened by 1e-9
        /// relative: the new `F*` is never above the old feasible end.
        #[test]
        fn milestone_optimum_lies_in_the_bisection_bracket(
            n in 2usize..9,
            m in 2usize..5,
            releases in proptest::collection::vec(0.0f64..10.0, 8),
            weight_idx in proptest::collection::vec(0usize..5, 8),
            costs in proptest::collection::vec(0.5f64..5.0, 32),
            holes in proptest::collection::vec(0u8..4, 32),
            down in proptest::collection::vec(0u8..4, 4),
        ) {
            let now = 10.0;
            let weights = [MIN_WEIGHT, 1e-3, 0.25, 1.0, 4.0];
            let w: Vec<f64> = weight_idx[..n].iter().map(|&k| weights[k]).collect();
            // Machine 0 always runs every job; a quarter of the other
            // pairs are missing and a quarter of the other machines down.
            let raw: Vec<f64> = (0..n * m)
                .map(|x| if x % m == 0 || holes[x] != 0 { costs[x] } else { f64::INFINITY })
                .collect();
            let up: Vec<bool> = (0..m).map(|i| i == 0 || down[i] != 0).collect();
            let cols = cols_of(&releases[..n], &w, &raw, m);
            let sub = build_sub(now, &cols, &up, &mut (Vec::new(), Vec::new())).unwrap();
            let mut lp = PolicyLp::default();
            let hi0 = serial_bound(&sub, &cols.release, now);
            let f_star = lp.min_flow(&sub, &cols.release, now, hi0).expect("range LP optimal");

            let (mut lo, mut hi) = (0.0f64, hi0);
            for k in 0..n {
                lo = lo.max(sub.job(k).weight * (now - cols.release[k]));
            }
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if lp.solve_at(&sub, &cols.release, mid).is_some() {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            proptest::prop_assert!(
                lo * (1.0 - 1e-9) <= f_star && f_star <= hi * (1.0 + 1e-9),
                "F* = {} outside the bisection bracket [{}, {}]", f_star, lo, hi
            );
        }
    }

    #[test]
    fn single_job_plan_equals_the_two_stage_lp() {
        // One job on three machines, one of them down: the closed form
        // (whole live machines) is the two-stage LP's first interval, and
        // F* = w·(now − r + 1/Σᵢ 1/c'ᵢ) with c' the remaining-work costs.
        let (now, release, weight) = (7.0, 2.0, 0.5);
        let mut cols = cols_of(&[release], &[weight], &[3.0, 6.0, 1.0], 3);
        cols.remaining[0] = 0.5;
        let up = [true, true, false];
        let mut closed = Allocation::idle(3);
        whole_machines(&cols, &up, &mut closed);

        let sub = build_sub(now, &cols, &up, &mut (Vec::new(), Vec::new())).unwrap();
        let mut lp = PolicyLp::default();
        let opt = lp
            .min_flow(
                &sub,
                &cols.release,
                now,
                serial_bound(&sub, &cols.release, now),
            )
            .unwrap();
        // The sub-problem measures weights relative to the heaviest job.
        assert_eq!(sub.job(0).weight, 1.0);
        let want = now - release + 1.0 / (1.0 / 1.5 + 1.0 / 3.0);
        assert!((opt - want).abs() <= 1e-9 * want, "F* {opt} vs {want}");
        let mut staged = Allocation::idle(3);
        assert!(lp.canonical_rates(&sub, &cols.ids, opt, &mut staged));
        for i in 0..3 {
            assert!(
                (closed.share(i, 0) - staged.share(i, 0)).abs() <= 1e-9,
                "machine {i}: {} vs {}",
                closed.share(i, 0),
                staged.share(i, 0)
            );
        }
        assert_eq!((closed.share(0, 0), closed.share(2, 0)), (1.0, 0.0));
    }

    #[test]
    fn badly_scaled_range_lp_is_refused_not_a_panic() {
        // Weights 1e-3 and 1e-9 put deadline slopes 1e3 and 1e9 in one
        // `F` column: the f64 simplex breaks down on the range LP
        // (phase 1 once claimed "unbounded" and panicked). `build_sub`'s
        // relative floor keeps OLA away from this; the solver must still
        // return a verdict on it.
        let now = 10.0;
        let origins = [8.636811214241398, 7.0144959121400055];
        let raw = [
            2.543034329434919,
            2.563359845568149,
            1.6307552450506346,
            f64::INFINITY,
            4.4597665256412276,
            3.5492777171976195,
            4.412833438407885,
            4.465217087701761,
        ];
        let cols = cols_of(&origins, &[1e-3, 1e-9], &raw, 4);
        let mut b = InstanceBuilder::new();
        for w in [1e-3, 1e-9] {
            b.job(now, w);
        }
        for i in 0..4 {
            b.machine((0..2).map(|k| cols.cost(i, k)).collect());
        }
        let sub = b.build().unwrap();
        let mut lp = PolicyLp::default();
        let hi = serial_bound(&sub, &origins, now);
        let _ = lp.min_flow(&sub, &origins, now, hi);
        // Through `build_sub` the same jobs plan optimally.
        let sub = build_sub(now, &cols, &[true; 4], &mut (Vec::new(), Vec::new())).unwrap();
        assert!(lp
            .min_flow(&sub, &origins, now, serial_bound(&sub, &origins, now))
            .is_some());
    }

    /// Plans every event twice: once on the engine's active set, once on
    /// a permutation of it through a second policy, and records whether
    /// the two allocations differ in any bit.
    struct Permuted {
        base: OfflineAdapt,
        shadow: OfflineAdapt,
        scratch: crate::engine::ScratchSet,
        jobs: Vec<crate::engine::ActiveJob>,
        other: Allocation,
        multi_job_plans: usize,
        mismatches: usize,
    }

    impl OnlineScheduler for Permuted {
        fn name(&self) -> String {
            "permuted OLA".into()
        }

        fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
            self.base.plan(now, active, alloc);
            let n = active.len();
            self.multi_job_plans += usize::from(n > 1);
            for shift in 1..n.max(2) {
                self.jobs.clear();
                for a in active.iter() {
                    self.jobs.push(crate::engine::ActiveJob {
                        id: a.id,
                        remaining: a.remaining,
                        release: a.release,
                        weight: a.weight,
                        costs: a.costs().into(),
                        fastest: a.fastest,
                    });
                }
                self.jobs.reverse();
                self.jobs.rotate_left(shift % n.max(1));
                self.scratch.fill(&self.jobs, active.n_machines());
                self.other.reset(active.n_machines());
                let view = self.scratch.view(active.up());
                self.shadow.plan(now, &view, &mut self.other);
                let bits = |a: &Allocation, i: usize| -> Vec<(usize, u64)> {
                    a.entries(i)
                        .iter()
                        .map(|&(j, s)| (j, s.to_bits()))
                        .collect()
                };
                if (0..alloc.n_machines()).any(|i| bits(alloc, i) != bits(&self.other, i)) {
                    self.mismatches += 1;
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// OLA's allocation is bit-identical under every rotation of the
        /// reversed active set, across random traces and the three fault
        /// intensities: columns are sorted by job id before any LP sees
        /// them.
        #[test]
        fn allocation_is_invariant_under_active_set_order(seed in 0u64..20_000) {
            use crate::workload::{generate_trace, FaultProcess, TraceSpec};
            for (mtbf, mttr) in [(0.0, 0.0), (8.0, 2.0), (3.0, 3.0)] {
                let trace = generate_trace(&TraceSpec {
                    n_requests: 30,
                    n_machines: 3,
                    seed,
                    faults: (mtbf > 0.0).then_some(FaultProcess {
                        mtbf,
                        mttr,
                        horizon: 30.0,
                        seed: seed ^ 0x01A0,
                    }),
                    ..Default::default()
                });
                let mut policy = Permuted {
                    base: OfflineAdapt::new(),
                    shadow: OfflineAdapt::new(),
                    scratch: Default::default(),
                    jobs: Vec::new(),
                    other: Allocation::idle(0),
                    multi_job_plans: 0,
                    mismatches: 0,
                };
                trace.replay(&mut policy).unwrap();
                proptest::prop_assert!(policy.multi_job_plans > 0);
                proptest::prop_assert_eq!(policy.mismatches, 0);
            }
        }
    }

    /// The placeable active jobs of a multi-job re-plan, filtered into
    /// `cols` as OLA filters them, and their sub-problem; `None` below
    /// two jobs.
    fn multi_job_sub(
        now: f64,
        active: &ActiveSet<'_>,
        cols: &mut JobCols,
        recycle: &mut SubBuffers,
    ) -> Option<Instance<f64>> {
        let up = active.up();
        cols.fill(active);
        cols.retain_by(|c, k| (0..up.len()).any(|i| up[i] && c.cost(i, k).is_some()));
        (cols.n() >= 2).then(|| build_sub(now, cols, up, recycle).unwrap())
    }

    /// The first stage both ways at every multi-job re-plan of the plans
    /// `ola` makes: from the dual start, solved two-phase where that
    /// start refuses (the policy's path), and two-phase by `solve_in`
    /// (the path the dual start replaced). A shadow [`PolicyLp`] builds
    /// each first stage's program as the policy does.
    #[derive(Default)]
    struct StageOneOracle {
        ola: OfflineAdapt,
        shadow: PolicyLp,
        ws: LpWorkspace<f64>,
        cols: JobCols,
        recycle: SubBuffers,
        /// Multi-job re-plans.
        replans: usize,
        /// Of those, re-plans where the dual start refused.
        fallbacks: usize,
        /// Re-plans where the two paths' statuses differ.
        status_mismatches: usize,
        /// Largest relative gap between the two paths' `F*`.
        f_gap: f64,
    }

    impl OnlineScheduler for StageOneOracle {
        fn name(&self) -> String {
            "OLA, stage 1 both ways".into()
        }

        fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
            self.ola.plan(now, active, alloc);
            let Some(sub) = multi_job_sub(now, active, &mut self.cols, &mut self.recycle) else {
                return;
            };
            let origins = &self.cols.release;
            self.shadow
                .min_flow(&sub, origins, now, serial_bound(&sub, origins, now));
            self.replans += 1;
            let (lp, ws) = (&self.shadow.range.lp, &mut self.ws);
            let dual = solve_dual_in(lp, ws);
            self.fallbacks += usize::from(dual.is_none());
            let dual = dual.unwrap_or_else(|| solve_in(lp, ws));
            let two_phase = solve_in(lp, ws);
            if dual.status != two_phase.status {
                self.status_mismatches += 1;
            } else if let (Some(a), Some(b)) = (dual.objective, two_phase.objective) {
                let scale = a.abs().max(b.abs());
                if scale > 0.0 {
                    self.f_gap = self.f_gap.max((a - b).abs() / scale);
                }
            }
            self.recycle = sub.into_parts();
        }
    }

    impl StageOneOracle {
        /// Prints the counts under `label` and asserts the same status at
        /// every re-plan and `F*` within 1e-9 relative.
        fn check(&self, label: &str) {
            eprintln!(
                "{label}: {} re-plans, {} dual-start fallbacks, F* gap {:.1e}",
                self.replans, self.fallbacks, self.f_gap
            );
            assert!(self.replans > 100, "{label}: {} re-plans", self.replans);
            assert_eq!(self.status_mismatches, 0, "{label}");
            assert!(self.f_gap <= 1e-9, "{label}: F* gap {}", self.f_gap);
        }
    }

    /// The second stage both ways at every multi-job re-plan of the plans
    /// `ola` makes: re-optimized on the first stage's final tableau (the
    /// policy's path) and, as the oracle, warm from the basis that tableau
    /// holds by `solve_warm`, which re-realizes that basis in a fresh
    /// build of the pinned program (the path re-optimization replaced).
    /// A shadow [`PolicyLp`] repeats each first stage, so both paths start
    /// from the basis the policy's own stage 2 started from.
    #[derive(Default)]
    struct StageTwoOracle {
        ola: OfflineAdapt,
        shadow: PolicyLp,
        cols: JobCols,
        recycle: SubBuffers,
        allocs: [Allocation; 2],
        /// Multi-job re-plans whose first stage ended optimal.
        replans: usize,
        /// Of those, re-plans where only one path ended optimal.
        status_mismatches: usize,
        /// Largest relative gap between the two stage-2 objectives.
        objective_gap: f64,
        /// Largest gap between the two paths' first-interval shares.
        share_gap: f64,
        /// Re-plans whose shares differ by more than 1e-9: tied optima.
        ties: usize,
    }

    impl OnlineScheduler for StageTwoOracle {
        fn name(&self) -> String {
            "OLA, stage 2 both ways".into()
        }

        fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
            self.ola.plan(now, active, alloc);
            let Some(sub) = multi_job_sub(now, active, &mut self.cols, &mut self.recycle) else {
                return;
            };
            let origins = &self.cols.release;
            let hi = serial_bound(&sub, origins, now);
            if let Some(f_star) = self.shadow.min_flow(&sub, origins, now, hi) {
                self.replans += 1;
                let basis = self
                    .shadow
                    .ws
                    .basis()
                    .expect("the first stage ended optimal");
                let new = self.shadow.stage_two(&sub, f_star);
                let old = solve_warm(&self.shadow.range.lp, Some(&basis));
                assert!(
                    old.warm_used,
                    "the first stage's basis fits the pinned program"
                );
                match (new, old.solution.is_optimal()) {
                    (Some(new), true) => self.compare(&sub, &new, &old.solution),
                    (None, false) => {}
                    _ => self.status_mismatches += 1,
                }
            }
            self.recycle = sub.into_parts();
        }
    }

    impl StageTwoOracle {
        /// Records the gaps between two optimal stage-2 solutions.
        fn compare(&mut self, sub: &Instance<f64>, new: &LpSolution<f64>, old: &LpSolution<f64>) {
            let ids = &self.cols.ids;
            let (a, b) = (new.objective.unwrap(), old.objective.unwrap());
            let scale = a.abs().max(b.abs());
            if scale > 0.0 {
                self.objective_gap = self.objective_gap.max((a - b).abs() / scale);
            }
            let r = &self.shadow.range;
            if r.intervals.n_intervals() == 0 {
                return;
            }
            for (alloc, sol) in self.allocs.iter_mut().zip([new, old]) {
                alloc.reset(sub.n_machines());
                let len0 = r.intervals.len(0).eval(&sol.values[r.f_var.index()]);
                add_first_interval(alloc, &r.alpha, &sol.values, len0, sub, ids);
            }
            let [x, y] = &self.allocs;
            let gap = (0..sub.n_machines())
                .flat_map(|i| {
                    ids.iter()
                        .map(move |&j| (x.share(i, j) - y.share(i, j)).abs())
                })
                .fold(0.0, f64::max);
            self.share_gap = self.share_gap.max(gap);
            self.ties += usize::from(gap > 1e-9);
        }
    }

    /// The fault intensities `(mtbf, mttr)` of `tests/ola_differential.rs`.
    const INTENSITIES: [(f64, f64); 3] = [(0.0, 0.0), (8.0, 2.0), (3.0, 3.0)];

    /// The seeded trace `seed` at fault intensity `(mtbf, mttr)`: 100
    /// requests on three machines.
    fn seeded_trace(seed: u64, (mtbf, mttr): (f64, f64)) -> crate::workload::Trace {
        use crate::workload::{generate_trace, FaultProcess, TraceSpec};
        generate_trace(&TraceSpec {
            n_requests: 100,
            n_machines: 3,
            seed,
            faults: (mtbf > 0.0).then_some(FaultProcess {
                mtbf,
                mttr,
                horizon: 30.0,
                seed: seed ^ 0x01A0,
            }),
            ..Default::default()
        })
    }

    #[test]
    fn stage_two_matches_the_warm_oracle_on_seeded_traces() {
        for (intensity, faults) in INTENSITIES.into_iter().enumerate() {
            let mut oracle = StageTwoOracle::default();
            for seed in 0..6u64 {
                seeded_trace(seed, faults).replay(&mut oracle).unwrap();
            }
            let o = &oracle;
            eprintln!(
                "intensity {intensity}: {} re-plans, {} ties, objective gap {:.1e}, share gap {:.1e}",
                o.replans, o.ties, o.objective_gap, o.share_gap
            );
            assert!(o.replans > 100, "{} re-plans", o.replans);
            assert_eq!(o.status_mismatches, 0);
            assert!(o.objective_gap <= 1e-9, "objective gap {}", o.objective_gap);
        }
    }

    /// `dlbench`'s `ola-online` trace of `seed`: 3,000 Poisson requests
    /// at rate 1 on the three machines of the seed-4 platform.
    fn ola_online_trace(seed: u64) -> crate::workload::Trace {
        use crate::workload::{generate_trace, ArrivalProcess, TraceSpec};
        let spec = |n_requests, seed| TraceSpec {
            n_requests,
            n_machines: 3,
            availability: 0.6,
            process: ArrivalProcess::Poisson { rate: 1.0 },
            seed,
            ..Default::default()
        };
        let mut trace = generate_trace(&spec(3_000, seed));
        trace.cycle_times = generate_trace(&spec(1, 4)).cycle_times;
        trace
    }

    #[test]
    fn stage_two_matches_the_warm_oracle_on_ola_online_traces() {
        for seed in [1, 8191] {
            let mut oracle = StageTwoOracle::default();
            ola_online_trace(seed).replay(&mut oracle).unwrap();
            let o = &oracle;
            eprintln!(
                "seed {seed}: {} re-plans, {} ties, objective gap {:.1e}, share gap {:.1e}",
                o.replans, o.ties, o.objective_gap, o.share_gap
            );
            assert!(o.replans > 1_000, "{} re-plans", o.replans);
            assert_eq!(o.status_mismatches, 0);
            assert!(o.objective_gap <= 1e-9, "objective gap {}", o.objective_gap);
            assert!(o.share_gap <= 1e-9, "share gap {}", o.share_gap);
        }
    }

    /// Stage 1 from the dual start and two-phase at every multi-job
    /// re-plan of the seeded traces (each fault intensity) and of the
    /// `ola-online` traces (seeds 1 and 8191).
    #[test]
    fn stage_one_dual_start_matches_two_phase_on_traces() {
        for (intensity, faults) in INTENSITIES.into_iter().enumerate() {
            let mut oracle = StageOneOracle::default();
            for seed in 0..6u64 {
                seeded_trace(seed, faults).replay(&mut oracle).unwrap();
            }
            oracle.check(&format!("intensity {intensity}"));
        }
        for seed in [1, 8191] {
            let mut oracle = StageOneOracle::default();
            ola_online_trace(seed).replay(&mut oracle).unwrap();
            oracle.check(&format!("ola-online seed {seed}"));
        }
    }

    /// Stage 1 from the dual start and two-phase at every multi-job
    /// re-plan of OLA's runs in the quick and the full tournament.
    #[test]
    fn stage_one_dual_start_matches_two_phase_in_the_tournaments() {
        use crate::campaign::{parse_campaign, scenario_instance, FULL_CONFIG, QUICK_CONFIG};
        for (name, text) in [("quick", QUICK_CONFIG), ("full", FULL_CONFIG)] {
            let cfg = parse_campaign(text).unwrap();
            assert!(
                cfg.stretch_weights,
                "the campaign simulates stretch weights"
            );
            let mut oracle = StageOneOracle::default();
            for pi in 0..cfg.platforms.len() {
                for wi in 0..cfg.workloads.len() {
                    for k in 0..cfg.n_seeds {
                        let inst = scenario_instance(&cfg, pi, wi, k).unwrap();
                        simulate(&inst.with_stretch_weights(), &mut oracle).unwrap();
                    }
                }
            }
            oracle.check(&format!("{name} tournament"));
        }
    }

    /// Probes a certificate settled, and the first that disagreed with
    /// the solver.
    #[derive(Default)]
    struct Tally {
        refused: usize,
        accepted: usize,
        solved: usize,
        first_disagreement: Option<String>,
    }

    impl Tally {
        /// Records one probe: the certificates' verdict and the solver's;
        /// `probe` names it should they disagree.
        fn record(&mut self, verdict: Option<bool>, solver: bool, probe: impl FnOnce() -> String) {
            match verdict {
                Some(true) => self.accepted += 1,
                Some(false) => self.refused += 1,
                None => self.solved += 1,
            }
            if verdict.is_some_and(|v| v != solver) && self.first_disagreement.is_none() {
                self.first_disagreement = Some(format!(
                    "{}: certificate {verdict:?}, solver {solver}",
                    probe()
                ));
            }
        }

        /// Prints the counts under `label` and asserts that no settled
        /// probe disagreed and that each certificate settled some.
        fn check(&self, label: &str) {
            eprintln!(
                "{label}: {} probes, {} refused, {} accepted, {} left to the solver",
                self.refused + self.accepted + self.solved,
                self.refused,
                self.accepted,
                self.solved
            );
            if let Some(first) = &self.first_disagreement {
                panic!("{label}: first disagreement at {first}");
            }
            assert!(self.refused > 0 && self.accepted > 0, "{label}");
        }
    }

    /// OLA's milestone probes at every multi-job re-plan of the plans
    /// `ola` makes, each decided both ways: by [`deadline_verdict`] and by
    /// System (2)'s LP, which a shadow [`PolicyLp`] solves at every probe.
    /// The search follows the LP, as OLA's did before the certificates.
    #[derive(Default)]
    struct ProbeOracle {
        ola: OfflineAdapt,
        shadow: PolicyLp,
        cols: JobCols,
        recycle: SubBuffers,
        replans: usize,
        tally: Tally,
    }

    impl OnlineScheduler for ProbeOracle {
        fn name(&self) -> String {
            "OLA, probes both ways".into()
        }

        fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
            self.ola.plan(now, active, alloc);
            let Some(sub) = multi_job_sub(now, active, &mut self.cols, &mut self.recycle) else {
                return;
            };
            self.replans += 1;
            let origins = &self.cols.release;
            let floor = flow_floor(&sub, origins, now);
            let mut ms = Vec::new();
            milestones_into(&mut ms, &sub, origins, &floor);
            let (lp, tally, replan) = (&mut self.shadow, &mut self.tally, self.replans);
            locate_range(&ms, &floor, |&f| {
                let solver = lp.solve_at(&sub, origins, f).is_some();
                let verdict = deadline_verdict(&sub, &lp.d, &mut lp.verdict);
                tally.record(verdict, solver, || {
                    format!("multi-job re-plan {replan} (t = {now}), F = {f}")
                });
                solver
            });
            self.recycle = sub.into_parts();
        }
    }

    /// The certificates against the LP at every probe of OLA's re-plans
    /// on the seeded traces (each fault intensity) and the `ola-online`
    /// traces (seeds 1 and 8191).
    #[test]
    fn certificates_match_the_lp_on_traces() {
        for (intensity, faults) in INTENSITIES.into_iter().enumerate() {
            let mut oracle = ProbeOracle::default();
            for seed in 0..6u64 {
                seeded_trace(seed, faults).replay(&mut oracle).unwrap();
            }
            oracle.tally.check(&format!("intensity {intensity}"));
        }
        for seed in [1, 8191] {
            let mut oracle = ProbeOracle::default();
            ola_online_trace(seed).replay(&mut oracle).unwrap();
            oracle.tally.check(&format!("ola-online seed {seed}"));
        }
    }

    /// The certificates in the quick and the full tournament: against the
    /// LP at every probe of OLA's runs, and against the `f64` max-flow at
    /// every probe of the exact yardstick's guide, whose search this
    /// repeats probe for probe.
    #[test]
    fn certificates_match_the_solvers_in_the_tournaments() {
        use crate::campaign::{parse_campaign, scenario_instance, FULL_CONFIG, QUICK_CONFIG};
        use dlflow_core::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
        use dlflow_core::milestones::milestones;
        use dlflow_core::uniform::{
            deadline_feasible_with_factors, uniform_factors, UniformFactors,
        };
        use dlflow_num::Rat;
        for (name, text) in [("quick", QUICK_CONFIG), ("full", FULL_CONFIG)] {
            let cfg = parse_campaign(text).unwrap();
            let (mut oracle, mut guide) = (ProbeOracle::default(), Tally::default());
            let mut scratch = VerdictScratch::default();
            for pi in 0..cfg.platforms.len() {
                for wi in 0..cfg.workloads.len() {
                    for k in 0..cfg.n_seeds {
                        let inst = scenario_instance(&cfg, pi, wi, k).unwrap();
                        simulate(&inst.clone().with_stretch_weights(), &mut oracle).unwrap();
                        // The yardstick's guide: an f64 copy of the exact
                        // instance and its factors, probed at each
                        // milestone's f64 value.
                        let exact = inst.to_exact_dyadic().with_stretch_weights();
                        let factors = uniform_factors(&exact).expect("scenarios are uniform");
                        let fi = exact.map_scalar(Rat::to_f64);
                        let ff = UniformFactors {
                            speed: factors.speed.iter().map(Rat::to_f64).collect(),
                            work: factors.work.iter().map(Rat::to_f64).collect(),
                        };
                        let ms = milestones(&exact);
                        let range = locate_range(&ms, &Rat::zero(), |f| {
                            let f = f.to_f64();
                            let d: Vec<f64> =
                                (0..fi.n_jobs()).map(|j| fi.deadline(j, &f)).collect();
                            let flow = deadline_feasible_with_factors(&fi, &d, &ff).is_some();
                            let verdict = deadline_verdict(&fi, &d, &mut scratch);
                            guide.record(verdict, flow, || {
                                format!("scenario ({pi}, {wi}, {k}), F = {f}")
                            });
                            flow
                        });
                        let yardstick = min_max_weighted_flow_divisible_with(
                            &exact,
                            ProbeMethod::MaxFlowUniform,
                        );
                        assert_eq!(range.probes, yardstick.stats.n_probes, "the guide's probes");
                    }
                }
            }
            oracle.tally.check(&format!("{name} tournament, OLA"));
            guide.check(&format!("{name} tournament, the yardstick's guide"));
        }
    }

    /// An engine with a small seeded trace pushed.
    fn loaded_engine() -> Engine {
        use crate::workload::{generate_trace, TraceSpec};
        let trace = generate_trace(&TraceSpec {
            n_requests: 12,
            n_machines: 3,
            seed: 11,
            ..Default::default()
        });
        let mut eng = Engine::new(3);
        for k in 0..trace.len() {
            eng.push_arrival(trace.job_spec(k)).unwrap();
        }
        eng
    }

    /// Drains `eng` under `ola`: the completions as `(id, bits)`, by id.
    fn finish(eng: &mut Engine, ola: &mut OfflineAdapt) -> Vec<(usize, u64)> {
        eng.drain(ola).unwrap();
        let mut done: Vec<_> = eng
            .take_completed()
            .into_iter()
            .map(|c| (c.id, c.completion.to_bits()))
            .collect();
        done.sort_unstable();
        done
    }

    /// A snapshot of `loaded_engine` under OLA after its first `events`
    /// events, with the policy that wrote it.
    fn snapshot_after(events: usize) -> (String, OfflineAdapt) {
        let mut eng = loaded_engine();
        let mut ola = OfflineAdapt::new();
        while eng.n_events() < events {
            eng.step(&mut ola).unwrap();
        }
        (eng.snapshot(&ola), ola)
    }

    /// `snap` in the earlier state layout, which carried the re-plan count
    /// alone: all an eager OLA wrote before the LP counters rode along.
    fn counts_only_layout(snap: &str) -> String {
        let (engine, state) = snap.split_once("\nstate 4\n").unwrap();
        let n_resolves = state.lines().next().unwrap();
        format!("{engine}\nstate 1\n{n_resolves}\n")
    }

    /// The throttle cache an `OLA(t=…)` policy wrote after its counter:
    /// jobs 0 and 1 at shares 0.5 and 0.25 on two machines.
    const THROTTLE_CACHE: &str = "solved_at 0000000000000000\nknown 0 1\nalloc 2\n\
                                  row 0:3fe0000000000000\nrow 1:3fd0000000000000\n";

    #[test]
    fn restore_round_trips_the_resolve_counters() {
        let (snap, ola) = snapshot_after(20);
        let state = ola.snapshot_state();
        assert_eq!(state.lines().count(), STATE_KEYS.len(), "{state}");
        let stats = ola.resolve_stats().unwrap();
        assert!(
            stats.warm_lp_solves > 0 && stats.cold_resolves > 0,
            "{stats:?}"
        );
        let mut fresh = OfflineAdapt::new();
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.snapshot_state(), state);
        assert_eq!(fresh.resolve_stats(), Some(stats));
        let mut revived = OfflineAdapt::new();
        assert_eq!(
            Engine::restore(&snap, &mut revived, 12)
                .unwrap()
                .snapshot(&revived),
            snap
        );
    }

    #[test]
    fn earlier_snapshots_restore_bit_identical_or_fail_typed() {
        let mut straight = OfflineAdapt::new();
        let want = finish(&mut loaded_engine(), &mut straight);
        let (snap, before) = snapshot_after(20);
        let old = counts_only_layout(&snap);
        let tail = format!("scheduler OLA\nstate 1\nn_resolves {}\n", before.n_resolves);
        assert!(old.ends_with(&tail), "{old}");
        let mut ola = OfflineAdapt::new();
        let mut eng = Engine::restore(&old, &mut ola, 12).unwrap();
        assert_eq!(finish(&mut eng, &mut ola), want);
        // The re-plan count carries over; LP counters restart at zero.
        let (got, all) = (
            ola.resolve_stats().unwrap(),
            straight.resolve_stats().unwrap(),
        );
        assert_eq!(got.n_resolves, all.n_resolves);
        assert!(got.lp_solves() < all.lp_solves(), "{got:?} vs {all:?}");

        // A throttled policy's snapshot names a policy that is gone.
        let throttled = old.replace("scheduler OLA\nstate 1\n", "scheduler OLA(t=10)\nstate 6\n")
            + THROTTLE_CACHE;
        match Engine::restore(&throttled, &mut OfflineAdapt::new(), 12) {
            Err(SnapshotError::SchedulerMismatch { expected, found }) => {
                assert_eq!((expected.as_str(), found.as_str()), ("OLA(t=10)", "OLA"));
            }
            other => panic!("want SchedulerMismatch, got {other:?}"),
        }
    }

    #[test]
    fn engine_restore_reports_bad_ola_state_as_scheduler_state() {
        let (snap, ola) = snapshot_after(20);
        let old = counts_only_layout(&snap);
        let state = ola.snapshot_state();
        let warm_line = state.lines().nth(2).unwrap();
        for (bad, needle) in [
            // A throttle cache under the eager name.
            (
                old.replace("state 1\n", "state 6\n") + THROTTLE_CACHE,
                "found 6",
            ),
            (snap.replace(warm_line, "warm_lp_solves 1000000"), "exceeds"),
            (snap.replace("\nlp_solves ", "\nlp_solvez "), "`lp_solves`"),
            (old.replace("n_resolves ", "n_resolves -"), "`n_resolves`"),
        ] {
            match Engine::restore(&bad, &mut OfflineAdapt::new(), 12) {
                Err(SnapshotError::SchedulerState { reason }) => {
                    assert!(reason.contains(needle), "{needle}: {reason}");
                }
                other => panic!("{needle}: want SchedulerState, got {other:?}"),
            }
        }
    }
}
