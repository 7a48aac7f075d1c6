//! The paper's proposal (§5): an **online adaptation of the offline
//! algorithm**, "enhanced by a simple preemption scheme".
//!
//! At every event the policy re-solves the offline divisible
//! max-weighted-flow problem restricted to the jobs currently in the
//! system (their *remaining* work) while accounting for the time they
//! have already spent waiting:
//!
//! 1. binary-search the smallest feasible objective `F` such that the
//!    deadline windows `[now, r_j + F/w_j]` admit a divisible schedule of
//!    the remaining work (the probe is the paper's System (2), built by
//!    `dlflow-core`);
//! 2. take the first time interval of the feasible schedule and convert
//!    its fractions `α⁽⁰⁾ᵢⱼ` into machine shares;
//! 3. follow those rates until the next event (arrival/completion), then
//!    re-plan. Divisibility makes preemption and migration free.
//!
//! The policy never sees a closed instance: the sub-problem is built from
//! the active set the engine hands to `plan`, so it works unchanged on
//! open-arrival traces.
//!
//! # Per-event work
//!
//! Every bisection probe and the final rate solve build the filtered
//! System-(2) program (only the admissible `α` variables exist) and solve
//! it cold, through the one [`LpWorkspace`] the policy owns. A re-plan is
//! thus `bisection_iters + 1` LP solves. Only buffer capacity outlives
//! an event, so reset, restore and platform changes have no solver state
//! to drop.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::lp_build::{build_deadline_lp_into, build_deadline_probe_lp, DeadlineLp};
use dlflow_lp::{solve, solve_in, LpSolution, LpWorkspace};
use std::mem;

/// Weight floor used when a zero-weight job reaches the deadline maths
/// (the streaming path does not forbid zero weights; treat them as
/// "almost irrelevant" rather than dividing by zero).
pub(crate) const MIN_WEIGHT: f64 = 1e-12;

/// Rates cached by the re-solve throttle (see
/// [`OfflineAdapt::min_resolve_interval`]).
struct PlanCache {
    /// Time of the last full re-solve.
    solved_at: f64,
    /// Job ids that were active at the last re-solve (sorted).
    known: Vec<usize>,
    /// The sparse rate allocation the re-solve produced.
    alloc: Allocation,
}

/// Column-major scratch copy of the active set: `plan` refreshes these
/// flat buffers from the borrowed [`ActiveSet`] instead of materializing
/// per-job structs (and per-job cost boxes) at every event.
#[derive(Debug, Default)]
pub(crate) struct JobCols {
    pub(crate) n_machines: usize,
    pub(crate) ids: Vec<usize>,
    pub(crate) remaining: Vec<f64>,
    pub(crate) release: Vec<f64>,
    pub(crate) weight: Vec<f64>,
    /// Job-major raw cost rows (`f64::INFINITY` = unavailable).
    pub(crate) costs: Vec<f64>,
}

impl JobCols {
    pub(crate) fn n(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn fill(&mut self, active: &ActiveSet<'_>) {
        self.n_machines = active.n_machines();
        self.ids.clear();
        self.remaining.clear();
        self.release.clear();
        self.weight.clear();
        self.costs.clear();
        for a in active.iter() {
            self.ids.push(a.id);
            self.remaining.push(a.remaining);
            self.release.push(a.release);
            self.weight.push(a.weight);
            self.costs.extend_from_slice(a.costs());
        }
    }

    /// Processing cost of job `k` on machine `i`, `None` when absent.
    pub(crate) fn cost(&self, i: usize, k: usize) -> Option<f64> {
        let c = self.costs[k * self.n_machines + i];
        c.is_finite().then_some(c)
    }

    /// Drops every job column for which `keep` is false, preserving order.
    pub(crate) fn retain_by<F: Fn(&Self, usize) -> bool>(&mut self, keep: F) {
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
pub(crate) type SubBuffers = (Vec<Job<f64>>, Vec<Vec<Cost<f64>>>);

/// One policy's LP machinery: the simplex workspace every solve draws
/// its buffers from, the System-(2) program the builder refills, and the
/// count of solves since the last reset. Shared by [`OfflineAdapt`] and
/// [`crate::schedulers::ola_lite::OlaLite`].
#[derive(Default)]
pub(crate) struct PolicyLp {
    /// Buffers of every simplex solve. Capacity only — each solve starts
    /// from the same logical state as with a fresh workspace — so it is
    /// never cleared.
    ws: LpWorkspace<f64>,
    /// Filtered program of the current probe or final solve.
    pub(crate) built: DeadlineLp<f64>,
    /// LP solves since the last reset.
    pub(crate) solves: usize,
}

impl PolicyLp {
    /// Builds the filtered program for deadlines `d` into `built` and
    /// solves it cold: the computation the campaign goldens pin.
    pub(crate) fn solve_filtered(&mut self, sub: &Instance<f64>, d: &[f64]) -> LpSolution<f64> {
        self.solves += 1;
        build_deadline_lp_into(&mut self.built, sub, d, false);
        solve_in(&self.built.lp, &mut self.ws)
    }

    /// Whether deadlines `d` admit a schedule of `sub`. A deadline at or
    /// before `now` is an empty window and needs no LP to refute.
    pub(crate) fn probe(&mut self, sub: &Instance<f64>, d: &[f64], now: f64) -> bool {
        !d.iter().any(|&dj| dj <= now) && self.solve_filtered(sub, d).is_optimal()
    }

    /// Telemetry after `n_resolves` re-plans. Every solve is cold, so the
    /// warm counters read 0 and every re-plan counts as cold.
    pub(crate) fn resolve_stats(&self, n_resolves: usize) -> ResolveStats {
        ResolveStats {
            n_resolves,
            cold_lp_solves: self.solves,
            cold_resolves: n_resolves,
            ..ResolveStats::default()
        }
    }
}

/// Online adaptation of the offline divisible optimum.
pub struct OfflineAdapt {
    /// Bisection iterations (each one LP feasibility solve).
    pub bisection_iters: usize,
    /// Re-solve throttle: minimum simulated time between two full
    /// bisection+LP re-solves. `0.0` (the default) re-solves at every
    /// event, as §5 describes. With a positive interval, events inside the window
    /// reuse the last solve's rates (masked to still-active jobs) —
    /// unless a *new* job has arrived since, or the cached rates would
    /// leave every active job idle, both of which force a re-solve.
    /// This trades optimality for plan cost: the knob the campaign's
    /// `ola throttle=τ` scheduler spec sweeps.
    pub min_resolve_interval: f64,
    /// Number of full re-solves performed since the last `reset`
    /// (readable after a run to observe the throttle's effect).
    pub n_resolves: usize,
    cache: Option<PlanCache>,
    /// Platform availability mask (empty = all machines in service).
    up: Vec<bool>,
    /// Scratch copy of the active set, refreshed per event.
    scratch: JobCols,
    /// Recycled job/cost-matrix buffers for the LP sub-instance (the
    /// previous sub-instance's allocations, rotated back in).
    sub_recycle: SubBuffers,
    /// Recycled deadline vector (one slot per selected job).
    d_buf: Vec<f64>,
    /// Simplex workspace, reused program and LP-solve counter.
    lp: PolicyLp,
}

impl Default for OfflineAdapt {
    fn default() -> Self {
        OfflineAdapt {
            bisection_iters: 40,
            min_resolve_interval: 0.0,
            n_resolves: 0,
            cache: None,
            up: Vec::new(),
            scratch: JobCols::default(),
            sub_recycle: (Vec::new(), Vec::new()),
            d_buf: Vec::new(),
            lp: PolicyLp::default(),
        }
    }
}

impl OfflineAdapt {
    /// Fresh policy with default precision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh policy that re-solves at most once per `interval` of
    /// simulated time (see [`Self::min_resolve_interval`]).
    pub fn with_throttle(interval: f64) -> Self {
        assert!(interval >= 0.0, "throttle interval must be non-negative");
        OfflineAdapt {
            min_resolve_interval: interval,
            ..Self::default()
        }
    }

    /// Attempts to serve `plan` from the cache: permitted only when the
    /// throttle window is open, no unknown job is active, and the reused
    /// plan's next projected completion still lands inside the window.
    /// The last condition is load-bearing: the engine only calls `plan`
    /// at events, so a cached plan that trickles a job along at a tiny
    /// first-interval rate would otherwise stay in force until that
    /// job's (arbitrarily distant) completion — the re-solve budget must
    /// bound *simulated time between solves*, not just be checked when
    /// an event happens to occur.
    fn cached_plan(&self, now: f64, cols: &JobCols, n_machines: usize) -> Option<Allocation> {
        if self.min_resolve_interval <= 0.0 {
            return None;
        }
        let cache = self.cache.as_ref()?;
        if now - cache.solved_at >= self.min_resolve_interval {
            return None;
        }
        if cols
            .ids
            .iter()
            .any(|id| cache.known.binary_search(id).is_err())
        {
            return None; // a new arrival always warrants a fresh solve
        }
        let mut alloc = Allocation::idle(n_machines);
        for i in 0..n_machines {
            for &id in &cols.ids {
                let r = cache.alloc.share(i, id);
                if r > 0.0 {
                    alloc.set(i, id, r);
                }
            }
        }
        // Project the next completion under the reused rates; reuse only
        // if it arrives before the throttle window closes.
        let mut next_completion = f64::INFINITY;
        for k in 0..cols.n() {
            let mut rate = 0.0;
            for i in 0..n_machines {
                let share = alloc.share(i, cols.ids[k]);
                if share > 0.0 {
                    // A cached rate on an illegal pair means the cache is
                    // corrupt; discard it and force a fresh solve.
                    let c = cols.cost(i, k)?;
                    if c <= 1e-12 {
                        rate = f64::INFINITY;
                    } else {
                        rate += share / c;
                    }
                }
            }
            if rate > 0.0 {
                let t = if rate.is_infinite() {
                    now
                } else {
                    now + cols.remaining[k] / rate
                };
                next_completion = next_completion.min(t);
            }
        }
        (next_completion <= cache.solved_at + self.min_resolve_interval).then_some(alloc)
    }

    /// Whether machine `i` is in service under the current mask.
    fn live(&self, i: usize) -> bool {
        self.up.is_empty() || self.up[i]
    }

    /// Whether job column `k` can run on some live machine.
    fn placeable(&self, cols: &JobCols, k: usize, n_machines: usize) -> bool {
        (0..n_machines).any(|i| self.live(i) && cols.cost(i, k).is_some())
    }
}

/// Builds the *remaining-work* sub-instance at `now` into recycled
/// buffers: one job per column with cost `remaining · c[i][j]` and
/// release `now`. Dead machines (per the `up` mask; empty = all live)
/// contribute all-`Infinite` rows, so the LP plans over live machines
/// only. `None` only if some column has no live finite machine — callers
/// pre-filter, so that is their bug, not an event.
pub(crate) fn build_sub(
    now: f64,
    cols: &JobCols,
    up: &[bool],
    n_machines: usize,
    recycle: &mut SubBuffers,
) -> Option<Instance<f64>> {
    let (mut jobs, mut cost) = mem::take(recycle);
    jobs.clear();
    for k in 0..cols.n() {
        jobs.push(Job {
            release: now,
            weight: cols.weight[k].max(MIN_WEIGHT),
            name: String::default(), // names are cosmetic; skip the per-job format
        });
    }
    cost.resize_with(n_machines, Default::default);
    cost.truncate(n_machines);
    for (i, row) in cost.iter_mut().enumerate() {
        row.clear();
        let live = up.is_empty() || up[i];
        for k in 0..cols.n() {
            row.push(match cols.cost(i, k) {
                Some(c) if live => Cost::Finite(cols.remaining[k] * c),
                _ => Cost::Infinite,
            });
        }
    }
    Instance::new(jobs, cost).ok()
}

/// Brackets the optimal objective: `lo` is the flow already incurred
/// (any feasible `F` is at least the largest `w·(now − r)`), `hi`
/// serializes all remaining work on each job's fastest machine, padded
/// so it stays feasible under float rounding.
pub(crate) fn bracket(now: f64, cols: &JobCols, sub: &Instance<f64>) -> (f64, f64) {
    let lo = cols
        .weight
        .iter()
        .zip(&cols.release)
        .map(|(&w, &r)| w * (now - r))
        .fold(0.0f64, f64::max);
    let total_serial: f64 = (0..cols.n()).map(|k| sub.fastest_cost(k)).sum();
    let hi = cols
        .weight
        .iter()
        .zip(&cols.release)
        .map(|(&w, &r)| w.max(MIN_WEIGHT) * (now + total_serial - r))
        .fold(lo, f64::max)
        .max(lo + 1.0)
        * (1.0 + 1e-9)
        + 1e-6;
    (lo, hi)
}

/// First-interval rates from a solved deadline LP: α⁽⁰⁾ᵢⱼ · c'ᵢⱼ is the
/// time machine i spends on job j within the interval; divided by the
/// interval length it is the machine share. Returns the allocation and
/// whether the solution produced any usable first interval.
pub(crate) fn first_interval_rates(
    built: &dlflow_core::lp_build::DeadlineLp<f64>,
    sol: &dlflow_lp::LpSolution<f64>,
    sub: &Instance<f64>,
    cols: &JobCols,
    n_machines: usize,
) -> (Allocation, bool) {
    let mut alloc = Allocation::idle(n_machines);
    if built.intervals.n_intervals() == 0 {
        return (alloc, false);
    }
    let len0 = built.intervals.len(0);
    if len0 <= 0.0 {
        return (alloc, false);
    }
    for (t, i, k, v) in &built.alpha {
        if *t != 0 {
            continue;
        }
        let frac = sol.values[v.index()];
        if frac <= 1e-12 {
            continue;
        }
        // The LP never grants share on an illegal pair; skip rather
        // than panic if a solver artefact ever does.
        let Some(&c_sub) = sub.cost(*i, *k).finite() else {
            continue;
        };
        let share = (frac * c_sub / len0).min(1.0);
        alloc.add(*i, cols.ids[*k], share);
    }
    // Normalize any machine marginally over 1 from float noise.
    for i in 0..n_machines {
        let total = alloc.machine_total(i);
        if total > 1.0 {
            alloc.scale_machine(i, 1.0 / total);
        }
    }
    (alloc, true)
}

/// Deadlines induced by objective `F`, measured from the **original**
/// releases (so jobs that have waited longer get tighter windows),
/// clamped to `now` (a deadline in the past means `F` is infeasible,
/// expressed as an empty window). Fills the recycled buffer in place.
pub(crate) fn fill_deadlines(d: &mut Vec<f64>, now: f64, f: f64, cols: &JobCols) {
    d.clear();
    d.extend(
        cols.release
            .iter()
            .zip(&cols.weight)
            .map(|(&r, &w)| (r + f / w.max(MIN_WEIGHT)).max(now - 1.0)), // < now ⇒ infeasible window
    );
}

impl OnlineScheduler for OfflineAdapt {
    fn name(&self) -> String {
        // Every non-default knob appears in the name: campaign reports
        // derive their column labels (and duplicate detection) from it.
        let mut knobs = Vec::new();
        if self.min_resolve_interval > 0.0 {
            knobs.push(format!("t={}", self.min_resolve_interval));
        }
        if self.bisection_iters != OfflineAdapt::default().bisection_iters {
            knobs.push(format!("b={}", self.bisection_iters));
        }
        if knobs.is_empty() {
            "OLA".into()
        } else {
            format!("OLA({})", knobs.join(","))
        }
    }

    fn reset(&mut self) {
        self.cache = None;
        self.n_resolves = 0;
        self.lp.solves = 0;
        self.up.clear();
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Arrivals invalidate the cache implicitly: `plan` compares the
        // active-job id set against `cache.known` before reuse.
    }

    fn on_completion(&mut self, _now: f64, job_id: usize) {
        // Cached rates for a finished job must not leak into reuse
        // projections (they are masked anyway, but dropping the id keeps
        // the cache honest about what it knows).
        if let Some(cache) = &mut self.cache {
            if let Ok(k) = cache.known.binary_search(&job_id) {
                cache.known.remove(k);
            }
        }
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        self.up.clear();
        self.up.extend_from_slice(up);
        // A cached plan may grant shares on a machine that just died (or
        // ignore one that just recovered): always rebuild the LP over the
        // current live set.
        self.cache = None;
    }

    fn snapshot_state(&self) -> String {
        let mut s = format!("n_resolves {}\n", self.n_resolves);
        if let Some(cache) = &self.cache {
            s.push_str(&format!("solved_at {:016x}\n", cache.solved_at.to_bits()));
            s.push_str("known");
            for id in &cache.known {
                s.push_str(&format!(" {id}"));
            }
            s.push('\n');
            s.push_str(&format!("alloc {}\n", cache.alloc.n_machines()));
            for i in 0..cache.alloc.n_machines() {
                s.push_str("row");
                for (job, share) in cache.alloc.entries(i) {
                    s.push_str(&format!(" {job}:{:016x}", share.to_bits()));
                }
                s.push('\n');
            }
        }
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut lines = state.lines();
        let head = lines.next().ok_or("OLA state: missing n_resolves line")?;
        self.n_resolves = head
            .strip_prefix("n_resolves ")
            .and_then(|v| v.parse().ok())
            .ok_or("OLA state: bad n_resolves line")?;
        self.cache = None;
        let Some(line) = lines.next() else {
            return Ok(());
        };
        let solved_at = line
            .strip_prefix("solved_at ")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .map(f64::from_bits)
            .ok_or("OLA state: bad solved_at line")?;
        let line = lines.next().ok_or("OLA state: missing known line")?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("known") {
            return Err("OLA state: bad known line".into());
        }
        // `cached_plan` binary-searches this list.
        let mut known: Vec<usize> = Vec::new();
        for tok in toks {
            let id = tok.parse().map_err(|_| "OLA state: bad known id")?;
            if known.last().is_some_and(|&prev| prev >= id) {
                return Err("OLA state: known ids must be strictly increasing".into());
            }
            known.push(id);
        }
        let line = lines.next().ok_or("OLA state: missing alloc line")?;
        let n: usize = line
            .strip_prefix("alloc ")
            .and_then(|v| v.parse().ok())
            .ok_or("OLA state: bad alloc line")?;
        // The row count comes from outside the program: check it against
        // the rows actually present before sizing anything by it.
        let rows: Vec<&str> = lines.collect();
        if rows.len() != n {
            return Err(format!(
                "OLA state: alloc {n} needs {n} rows, found {}",
                rows.len()
            ));
        }
        let mut alloc = Allocation::idle(n);
        for (i, line) in rows.into_iter().enumerate() {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("row") {
                return Err("OLA state: bad alloc row".into());
            }
            for tok in toks {
                let (job, bits) = tok.split_once(':').ok_or("OLA state: bad alloc pair")?;
                let job = job.parse().map_err(|_| "OLA state: bad alloc job")?;
                let bits =
                    u64::from_str_radix(bits, 16).map_err(|_| "OLA state: bad alloc share")?;
                let share = f64::from_bits(bits);
                if !(0.0..=1.0).contains(&share) {
                    return Err("OLA state: alloc share outside [0, 1]".into());
                }
                alloc.set(i, job, share);
            }
        }
        self.cache = Some(PlanCache {
            solved_at,
            known,
            alloc,
        });
        Ok(())
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let n_machines = alloc.n_machines();
        if active.is_empty() {
            return;
        }
        // Refresh the flat scratch copy of the borrowed columns (the LP
        // path needs them beyond this call frame's borrows).
        let mut cols = mem::take(&mut self.scratch);
        cols.fill(active);
        let result = self.plan_impl(now, &mut cols, n_machines);
        self.scratch = cols;
        for i in 0..n_machines {
            for (job, share) in result.entries(i) {
                alloc.set(i, *job, *share);
            }
        }
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        Some(self.lp.resolve_stats(self.n_resolves))
    }
}

impl OfflineAdapt {
    /// The solve proper, over the scratch columns (which it may filter
    /// down to the placeable subset on the degraded no-live-machine
    /// path).
    fn plan_impl(&mut self, now: f64, cols: &mut JobCols, n_machines: usize) -> Allocation {
        if cols.n() == 0 {
            return Allocation::idle(n_machines);
        }
        if let Some(alloc) = self.cached_plan(now, cols, n_machines) {
            return alloc;
        }
        if (0..cols.n()).any(|k| !self.placeable(cols, k, n_machines)) {
            // Some active job runs on no *live* machine: plan the
            // placeable subset instead of stranding everyone (each
            // survivor has a live finite-cost machine, so the
            // sub-instance below cannot fail).
            let up = mem::take(&mut self.up);
            cols.retain_by(|c, k| {
                (0..n_machines).any(|i| (up.is_empty() || up[i]) && c.cost(i, k).is_some())
            });
            self.up = up;
            if cols.n() == 0 {
                return Allocation::idle(n_machines);
            }
            // Mirror of the pre-filter check: the cache may cover the
            // placeable subset even when an unplaceable newcomer made
            // the full set a miss.
            if let Some(alloc) = self.cached_plan(now, cols, n_machines) {
                return alloc;
            }
        }

        let Some(sub) = build_sub(now, cols, &self.up, n_machines, &mut self.sub_recycle) else {
            // Unreachable: every column was pre-filtered to be placeable
            // and carries non-negative data. Idle beats panicking.
            return Allocation::idle(n_machines);
        };

        let (mut lo, mut hi) = bracket(now, cols, &sub);

        let mut d = mem::take(&mut self.d_buf);
        // A stateless solve, so the policy's LP-solve count is the same
        // in debug and release builds.
        debug_assert!(
            {
                fill_deadlines(&mut d, now, hi, cols);
                solve(&build_deadline_probe_lp(&sub, &d, false)).is_optimal()
            },
            "upper bound must be feasible"
        );

        for _ in 0..self.bisection_iters {
            let mid = 0.5 * (lo + hi);
            fill_deadlines(&mut d, now, mid, cols);
            if self.lp.probe(&sub, &d, now) {
                hi = mid;
            } else {
                lo = mid;
            }
        }

        // Final solve at the feasible end of the bracket; its basic
        // solution gives the first-interval rates.
        fill_deadlines(&mut d, now, hi, cols);
        let sol = self.lp.solve_filtered(&sub, &d);
        debug_assert!(sol.is_optimal());
        self.n_resolves += 1;
        self.d_buf = d;

        let (alloc, produced) = first_interval_rates(&self.lp.built, &sol, &sub, cols, n_machines);
        self.sub_recycle = sub.into_parts();

        if !produced {
            return alloc;
        }
        if self.min_resolve_interval > 0.0 {
            // Recycle the previous cache generation's buffers: the
            // throttle cache is rebuilt once per re-solve, so in steady
            // state neither the id list nor the allocation rows allocate.
            let (mut known, mut kept) = match self.cache.take() {
                Some(prev) => (prev.known, prev.alloc),
                None => (Vec::default(), Allocation::idle(0)),
            };
            known.clear();
            known.extend_from_slice(&cols.ids);
            known.sort_unstable();
            kept.copy_from(&alloc);
            self.cache = Some(PlanCache {
                solved_at: now,
                known,
                alloc: kept,
            });
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, Engine, JobSpec, RunMetrics};
    use crate::schedulers::mct::Mct;
    use crate::snapshot::SnapshotError;
    use dlflow_core::instance::InstanceBuilder;

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
    fn throttled_ola_resolves_less_and_still_completes() {
        use crate::workload::{generate, WorkloadSpec};
        let inst = generate(&WorkloadSpec {
            n_jobs: 8,
            n_machines: 3,
            mean_interarrival: 1.0,
            seed: 11,
            ..Default::default()
        });

        let mut eager = OfflineAdapt::new();
        let res_eager = simulate(&inst, &mut eager).unwrap();
        assert!(res_eager.completions.iter().all(|c| c.is_finite()));

        let mut lazy = OfflineAdapt::with_throttle(1.0e6); // effectively "never re-solve on completions"
        let res_lazy = simulate(&inst, &mut lazy).unwrap();
        assert!(res_lazy.completions.iter().all(|c| c.is_finite()));

        assert!(
            lazy.n_resolves < eager.n_resolves,
            "throttle must cut re-solves: {} vs {}",
            lazy.n_resolves,
            eager.n_resolves
        );
        // Every arrival still forces a solve, so the floor is one per
        // distinct arrival burst.
        assert!(lazy.n_resolves >= 1);

        // The throttled policy pays an optimality price but remains a
        // valid, completing policy.
        let m_eager = RunMetrics::from_completions(&inst, &res_eager.completions);
        let m_lazy = RunMetrics::from_completions(&inst, &res_lazy.completions);
        assert!(m_lazy.max_weighted_flow >= m_eager.max_weighted_flow * 0.999);
    }

    #[test]
    fn zero_throttle_is_the_default_eager_policy() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let mut a = OfflineAdapt::new();
        let mut b2 = OfflineAdapt::with_throttle(0.0);
        let ra = simulate(&inst, &mut a).unwrap();
        let rb = simulate(&inst, &mut b2).unwrap();
        assert_eq!(ra.completions, rb.completions);
        assert_eq!(a.n_resolves, b2.n_resolves);
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
        // Every re-plan is 40 bisection probes plus the final rate solve,
        // all of them cold.
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
        assert!(stats.n_resolves > 0);
        assert_eq!(stats.n_resolves, ola.n_resolves);
        assert_eq!(stats.lp_solves(), 41 * stats.n_resolves, "{stats:?}");
        assert_eq!(stats.cold_lp_solves, stats.lp_solves());
        assert_eq!((stats.warm_lp_solves, stats.warm_resolves), (0, 0));
        assert_eq!(stats.cold_resolves, stats.n_resolves);
    }

    /// A throttled policy's state with a cached plan: jobs 0 and 1 at
    /// shares 0.5 and 0.25 on two machines.
    const CACHED_STATE: &str = "n_resolves 3\nsolved_at 0000000000000000\nknown 0 1\n\
                                alloc 2\nrow 0:3fe0000000000000\nrow 1:3fd0000000000000\n";

    #[test]
    fn restore_round_trips_the_cached_plan() {
        let mut fresh = OfflineAdapt::with_throttle(10.0);
        fresh.restore_state(CACHED_STATE).unwrap();
        assert_eq!(fresh.snapshot_state(), CACHED_STATE);
    }

    #[test]
    fn restore_rejects_a_row_count_it_was_not_given() {
        // An allocation sized from this line alone would exhaust memory.
        let state = CACHED_STATE.replace("alloc 2", "alloc 100000000000000000");
        let err = OfflineAdapt::with_throttle(10.0)
            .restore_state(&state)
            .unwrap_err();
        assert!(err.contains("rows"), "{err}");
        let extra = format!("{CACHED_STATE}row\n");
        assert!(OfflineAdapt::with_throttle(10.0)
            .restore_state(&extra)
            .is_err());
    }

    #[test]
    fn restore_rejects_unsorted_or_duplicated_known_ids() {
        for known in ["known 1 0", "known 0 0 1", "known 5 3 3"] {
            let state = CACHED_STATE.replace("known 0 1", known);
            let err = OfflineAdapt::with_throttle(10.0)
                .restore_state(&state)
                .unwrap_err();
            assert!(err.contains("strictly increasing"), "{known}: {err}");
        }
    }

    #[test]
    fn restore_rejects_shares_outside_the_unit_interval() {
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            let tampered =
                CACHED_STATE.replace("3fd0000000000000", &format!("{:016x}", bad.to_bits()));
            let err = OfflineAdapt::with_throttle(10.0)
                .restore_state(&tampered)
                .unwrap_err();
            assert!(err.contains("[0, 1]"), "{bad}: {err}");
        }
    }

    #[test]
    fn engine_restore_reports_bad_ola_state_as_scheduler_state() {
        let mut eng = Engine::new(2);
        let mut ola = OfflineAdapt::with_throttle(10.0);
        for costs in [vec![4.0, 3.0], vec![2.0, 5.0]] {
            eng.push_arrival(JobSpec {
                release: 0.0,
                weight: 1.0,
                costs,
            })
            .unwrap();
        }
        while eng.n_plans() == 0 {
            eng.step(&mut ola).unwrap();
        }
        let snap = eng.snapshot(&ola);
        assert!(snap.contains("\nalloc 2\n"), "{snap}");
        let tampered = snap.replace("\nalloc 2\n", "\nalloc 100000000000000000\n");
        match Engine::restore(&tampered, &mut OfflineAdapt::with_throttle(10.0)) {
            Err(SnapshotError::SchedulerState { reason }) => {
                assert!(reason.contains("rows"), "{reason}");
            }
            other => panic!("want SchedulerState, got {other:?}"),
        }
    }
}
