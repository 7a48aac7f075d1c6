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
//! # Incremental re-solves
//!
//! Re-solving at every event is the paper's accuracy story and this
//! module's cost story. The per-event work is dominated by the
//! bisection's LP feasibility probes, and two facts make most of them
//! cheap:
//!
//! * probes of one sub-problem share a **shape-stable** LP form
//!   ([`build_deadline_probe_lp`]); within a bracket segment they share
//!   every *coefficient* and differ only in RHS, so a [`ProbeCache`]
//!   retains the realized tableau between probes and re-solves by a
//!   pure RHS patch plus a handful of dual-simplex pivots — no basis
//!   re-realization at all on the common path;
//! * the sub-problem itself changes *incrementally* between events —
//!   a completion blanks a job column, an arrival appends one — so the
//!   last basis of the previous event carries across the active-set
//!   churn via [`WarmBasis::remap`] + [`probe_var_remap`], seeding the
//!   cache's first re-realization of the new shape.
//!
//! Warm starting must not change behaviour, only cost: the committed
//! campaign goldens pin this policy's output bit-for-bit, so every
//! probe verdict must equal what the legacy computation (filtered
//! builder + cold solve) would have said. A warm simplex solve follows
//! a different pivot path than a cold one, so the bisection runs the
//! warm path only behind a stack of guards and falls back to the exact
//! legacy computation everywhere else:
//!
//! * a warm *feasible* verdict is accepted only with a **primal
//!   certificate** in hand ([`certifies`]): a certified feasible point
//!   is true regardless of the pivot path, while an uncertified warm
//!   optimum is recomputed cold — an ill-conditioned basis
//!   re-realization can otherwise corrupt the tableau into claiming
//!   either verdict;
//! * a warm *infeasible* verdict is accepted only when it comes from
//!   the persistent RHS-patch path (exact algebra on a tableau that was
//!   realized once and never re-pivoted from scratch, so no
//!   re-realization corruption risk) **and** refutes feasibility by a
//!   decisive margin ([`dlflow_lp::ProbeSolve::infeasible_margin`] above
//!   `INFEASIBLE_MARGIN_GUARD` × the bracket scale); every other
//!   infeasibility claim — in particular any from a freshly
//!   re-realized basis — is recomputed by the exact legacy path;
//! * sub-problems whose LP entries span more than
//!   `COST_SPREAD_GUARD`⁻¹ in magnitude (a nearly-finished job's
//!   `remaining · c` next to full-size entries) sit the warm path out
//!   entirely: such LPs have been observed to make even the *cold*
//!   solver's verdict pivot-path dependent, and the goldens pin the
//!   cold behaviour, warts and all;
//! * probes whose deadlines nearly coincide with each other or with
//!   `now` (`tol_fragile`) go legacy: admissibility is decided by ±1e-9
//!   tolerance comparisons, and a probe on that boundary can differ
//!   macroscopically between the two LP formulations;
//! * once the bracket shrinks to `(hi − lo) ≤ ``WARM_SAFE_REL_WIDTH``
//!   · hi` the probe sits near the feasibility boundary, where the
//!   verdict is rounding noise — legacy decides.
//!
//! The final rate-extracting solve is always the legacy cold path.
//! Allocations are thus bit-identical to a full cold re-solve
//! ([`ResolveMode::ColdOracle`], the differential-test oracle), which
//! the differential suite and the goldens enforce empirically.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::lp_build::{
    build_deadline_lp_into, build_deadline_probe_lp, build_deadline_probe_lp_into, probe_var_remap,
    DeadlineLp,
};
use dlflow_lp::{
    certifies, solve, solve_in, solve_warm_in, LpProblem, LpSolution, LpStatus, LpWorkspace,
    ProbeCache, Sense, WarmBasis,
};
use std::mem;

/// Weight floor used when a zero-weight job reaches the deadline maths
/// (the streaming path does not forbid zero weights; treat them as
/// "almost irrelevant" rather than dividing by zero).
pub(crate) const MIN_WEIGHT: f64 = 1e-12;

/// Relative bracket width below which bisection probes switch from
/// warm shape-stable solves to the exact legacy cold computation.
///
/// Near the feasibility boundary the probe LP's infeasibility margin is
/// smaller than the `f64` simplex tolerances, so the verdict depends on
/// the pivot path taken — a warm start would answer differently than
/// the cold solve the committed goldens pin. How wide that ambiguous
/// band is depends on the LP's geometry (on unit workloads flips appear
/// below ~5·10⁻⁹ relative width; on chaos workloads, where a binding
/// constraint can respond weakly to the deadlines being bisected, up to
/// ~1·10⁻⁶), so the cutoff carries a 100× margin over the widest flip
/// observed — and the campaign goldens plus the differential tests in
/// `ola_differential.rs` enforce the equivalence empirically across
/// seeds, fault intensities and interruption points.
const WARM_SAFE_REL_WIDTH: f64 = 1e-4;

/// Minimum ratio between the smallest and largest finite LP cost entry
/// of a sub-problem for warm probes to engage (see the conditioning
/// guard in `plan_impl`). Six orders of magnitude of column spread is
/// where the f64 simplex's verdicts were observed to stop being
/// pivot-path independent.
const COST_SPREAD_GUARD: f64 = 1e-6;

/// Minimum decisive infeasibility margin, relative to the bracket's
/// upper bound, for a persistent-path infeasible verdict to be served
/// warm (see the module docs). The margin is the most negative basic
/// value of the dual-terminal tableau — how far, in work units, the
/// probe overshoots some capacity row. The RHS-patch path accumulates
/// only one rounding error per patched row per probe, so a margin
/// orders of magnitude above f64 noise at the problem's scale cannot be
/// a pivot-path artefact; anything smaller is recomputed cold. Shared
/// with [`crate::schedulers::ola_lite::OlaLite`]'s walk probes.
pub(crate) const INFEASIBLE_MARGIN_GUARD: f64 = 1e-6;

/// How [`OfflineAdapt`] runs its per-event LP re-solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResolveMode {
    /// Warm-started shape-stable probes outside the solver's tolerance
    /// band, the exact legacy computation inside it (the default).
    /// Bit-identical to [`ResolveMode::ColdOracle`] by construction.
    #[default]
    WarmIncremental,
    /// Every probe and the final solve run from scratch exactly as the
    /// pre-warm implementation did. This is the differential-test
    /// oracle and the bench baseline; it exists to *prove* the warm
    /// path is a pure perf change.
    ColdOracle,
}

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

    /// Column of the job with engine id `id`, if present.
    pub(crate) fn position_of(&self, id: usize) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }
}

/// Retired sub-instance buffers (jobs, cost matrix) handed back for
/// recycling into the next event's sub-instance build.
pub(crate) type SubBuffers = (Vec<Job<f64>>, Vec<Vec<Cost<f64>>>);

/// Cross-event warm-basis carry: remembers the sub-instance shape and
/// probe basis an event ended with, and remaps that basis onto the next
/// event's (job-churned) LP shape. Shared by [`OfflineAdapt`] and
/// [`crate::schedulers::ola_lite::OlaLite`].
#[derive(Debug, Default)]
pub(crate) struct WarmChain {
    /// Last optimal probe basis, if any.
    basis: Option<WarmBasis>,
    /// Sub-instance the carried basis was captured on.
    prev_sub: Option<Instance<f64>>,
    /// Engine job ids of `prev_sub`'s columns, in column order.
    prev_ids: Vec<usize>,
    /// Recycled old-job → new-column map.
    map_buf: Vec<Option<usize>>,
}

impl WarmChain {
    /// Produces the `(basis, var_map)` pair to [`WarmBasis::remap`] onto
    /// the event's first probe LP, consuming the carried basis. Returns
    /// `None` (fresh start) when nothing was carried or the platform
    /// shape changed.
    pub(crate) fn carry_in(
        &mut self,
        sub: &Instance<f64>,
        cols: &JobCols,
        n_machines: usize,
    ) -> Option<(WarmBasis, Vec<Option<usize>>)> {
        let stale = self.basis.take();
        let mut job_map = mem::take(&mut self.map_buf);
        let mut pending = None;
        if let (Some(prev), Some(basis)) = (self.prev_sub.as_ref(), stale) {
            if prev.n_machines() == n_machines && self.prev_ids.len() == prev.n_jobs() {
                job_map.clear();
                for &pid in &self.prev_ids {
                    job_map.push(cols.position_of(pid));
                }
                let var_map = probe_var_remap(prev, sub, &job_map);
                pending = Some((basis, var_map));
            }
        }
        job_map.clear();
        self.map_buf = job_map;
        pending
    }

    /// Retires an event: stores its last probe basis and sub-instance
    /// shape for the next event, and hands back the previous shape's
    /// buffers for recycling.
    pub(crate) fn carry_out(
        &mut self,
        basis: Option<WarmBasis>,
        sub: Instance<f64>,
        cols: &JobCols,
    ) -> Option<SubBuffers> {
        self.basis = basis;
        self.prev_ids.clear();
        self.prev_ids.extend_from_slice(&cols.ids);
        self.prev_sub.replace(sub).map(Instance::into_parts)
    }

    /// Drops all carried state (reset, restore, platform change).
    pub(crate) fn clear(&mut self) {
        self.basis = None;
        self.prev_sub = None;
        self.prev_ids.clear();
    }
}

/// One policy's LP machinery: the persistent probe factorization, the
/// simplex workspace that every solve of the policy draws its buffers
/// from, and the two System-(2) programs the builders refill. Shared by
/// [`OfflineAdapt`] and [`crate::schedulers::ola_lite::OlaLite`].
///
/// One workspace rather than one per solve kind: the probe cache's
/// re-realizations, the seeding solves, the cold probes and the final
/// rate solve never overlap, so a second pool would only hold a second
/// tableau's worth of idle capacity.
pub(crate) struct PolicyLp {
    /// Persistent probe factorization (retained tableau + RHS-patch
    /// re-solves) for the shape-stable probes. It holds state, so reset,
    /// restore and platform changes clear it.
    pub(crate) cache: ProbeCache<f64>,
    /// Buffers of every simplex solve. Capacity only — each solve starts
    /// from the same logical state as with a fresh workspace — so it is
    /// never cleared.
    pub(crate) ws: LpWorkspace<f64>,
    /// Probe-form program of the current warm probe.
    pub(crate) probe_lp: LpProblem<f64>,
    /// Filtered program of the current cold probe or final solve.
    pub(crate) built: DeadlineLp<f64>,
}

impl Default for PolicyLp {
    fn default() -> Self {
        PolicyLp {
            cache: ProbeCache::new(),
            ws: LpWorkspace::new(),
            probe_lp: LpProblem::new(Sense::Minimize),
            built: DeadlineLp::default(),
        }
    }
}

impl PolicyLp {
    /// Builds the filtered program for deadlines `d` into `built` and
    /// solves it cold: the legacy computation the goldens pin.
    pub(crate) fn solve_filtered(&mut self, sub: &Instance<f64>, d: &[f64]) -> LpSolution<f64> {
        build_deadline_lp_into(&mut self.built, sub, d, false);
        solve_in(&self.built.lp, &mut self.ws)
    }
}

/// Online adaptation of the offline divisible optimum.
pub struct OfflineAdapt {
    /// Bisection iterations (each one LP feasibility solve).
    pub bisection_iters: usize,
    /// Re-solve throttle: minimum simulated time between two full
    /// bisection+LP re-solves. `0.0` (the default) re-solves at every
    /// event, as §5 describes — warm-started probes keep the eager mode
    /// affordable. With a positive interval, events inside the window
    /// reuse the last solve's rates (masked to still-active jobs) —
    /// unless a *new* job has arrived since, or the cached rates would
    /// leave every active job idle, both of which force a re-solve.
    /// This trades optimality for plan cost: the knob the campaign's
    /// `ola throttle=τ` scheduler spec sweeps.
    pub min_resolve_interval: f64,
    /// Probe execution strategy (warm hybrid vs the cold oracle).
    pub resolve_mode: ResolveMode,
    /// Number of full re-solves performed since the last `reset`
    /// (readable after a run to observe the throttle's effect).
    pub n_resolves: usize,
    /// LP solves served by warm-basis reuse since the last `reset`.
    warm_lp_solves: usize,
    /// LP solves performed from scratch since the last `reset`.
    cold_lp_solves: usize,
    /// Re-plans in which ≥1 probe was served warm / none was.
    warm_resolves: usize,
    cold_resolves: usize,
    cache: Option<PlanCache>,
    /// Platform availability mask (empty = all machines in service).
    up: Vec<bool>,
    /// Scratch copy of the active set, refreshed per event.
    scratch: JobCols,
    /// Recycled job/cost-matrix buffers for the LP sub-instance (the
    /// previous-but-one sub-instance's allocations, rotated back in).
    sub_recycle: SubBuffers,
    /// Recycled deadline vector (one slot per selected job).
    d_buf: Vec<f64>,
    /// Cross-event warm-basis carry.
    chain: WarmChain,
    /// Probe cache, simplex workspace and reused programs.
    lp: PolicyLp,
}

impl Default for OfflineAdapt {
    fn default() -> Self {
        OfflineAdapt {
            bisection_iters: 40,
            min_resolve_interval: 0.0,
            resolve_mode: ResolveMode::default(),
            n_resolves: 0,
            warm_lp_solves: 0,
            cold_lp_solves: 0,
            warm_resolves: 0,
            cold_resolves: 0,
            cache: None,
            up: Vec::new(),
            scratch: JobCols::default(),
            sub_recycle: (Vec::new(), Vec::new()),
            d_buf: Vec::new(),
            chain: WarmChain::default(),
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

    /// Fresh policy in [`ResolveMode::ColdOracle`]: every LP from
    /// scratch, exactly the pre-warm implementation. Used as the
    /// differential-test oracle and the bench baseline.
    pub fn cold_oracle() -> Self {
        OfflineAdapt {
            resolve_mode: ResolveMode::ColdOracle,
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

/// Coincidence guard for warm probes: `true` when some deadline lands
/// within `TOL_GUARD` of `now` (every sub-job's release) or of another
/// deadline.
///
/// The LP builders decide interval admissibility with tolerance
/// comparisons (±1e-9). When two time points nearly coincide, a probe
/// sits exactly on that decision boundary, the shape-stable and the
/// filtered formulation can disagree *macroscopically* (a whole
/// interval's worth of work admitted by one and not the other), and the
/// verdict becomes unreproducible pivot-path noise — and because a huge
/// weight makes `d = r + F/w` nearly constant in `F`, the coincidence
/// can persist across the entire bisection bracket, so no bracket-width
/// cutoff catches it. Such probes must take the legacy path. The guard
/// is 1000× the comparison tolerance: spurious hits only cost a warm
/// opportunity, misses would cost golden identity.
pub(crate) fn tol_fragile(d: &[f64], now: f64) -> bool {
    const TOL_GUARD: f64 = 1e-6;
    for (j, &dj) in d.iter().enumerate() {
        if (dj - now).abs() <= TOL_GUARD {
            return true;
        }
        if d[..j].iter().any(|&dk| (dj - dk).abs() <= TOL_GUARD) {
            return true;
        }
    }
    false
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
        if self.resolve_mode == ResolveMode::ColdOracle {
            knobs.push("cold".to_string());
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
        self.warm_lp_solves = 0;
        self.cold_lp_solves = 0;
        self.warm_resolves = 0;
        self.cold_resolves = 0;
        self.up.clear();
        self.chain.clear();
        self.lp.cache.clear();
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
        // The carried basis was captured on the old platform's cost
        // pattern; `probe_var_remap` drops pairs that flipped between
        // finite and infinite, so carrying it across is still sound —
        // but the cheap, obviously-correct move is to rebuild. Platform
        // events are rare next to arrivals/completions.
        self.chain.clear();
        self.lp.cache.clear();
    }

    fn snapshot_state(&self) -> String {
        // The warm basis and the probe cache's retained tableau are
        // deliberately *not* serialized: both are pure pivot-order
        // hints, and the hybrid bisection returns the same verdicts
        // with or without them, so dropping them on restore cannot
        // change allocations — only the warm/cold split of the first
        // post-restore events (telemetry, which restarts at zero).
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
        // Safe-to-drop warm state (see `snapshot_state`).
        self.chain.clear();
        self.lp.cache.clear();
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
        let mut known = Vec::new();
        for tok in toks {
            known.push(tok.parse().map_err(|_| "OLA state: bad known id")?);
        }
        let line = lines.next().ok_or("OLA state: missing alloc line")?;
        let n: usize = line
            .strip_prefix("alloc ")
            .and_then(|v| v.parse().ok())
            .ok_or("OLA state: bad alloc line")?;
        let mut alloc = Allocation::idle(n);
        for i in 0..n {
            let line = lines.next().ok_or("OLA state: missing alloc row")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("row") {
                return Err("OLA state: bad alloc row".into());
            }
            for tok in toks {
                let (job, bits) = tok.split_once(':').ok_or("OLA state: bad alloc pair")?;
                let job = job.parse().map_err(|_| "OLA state: bad alloc job")?;
                let bits =
                    u64::from_str_radix(bits, 16).map_err(|_| "OLA state: bad alloc share")?;
                alloc.set(i, job, f64::from_bits(bits));
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
        Some(ResolveStats {
            n_resolves: self.n_resolves,
            warm_lp_solves: self.warm_lp_solves,
            cold_lp_solves: self.cold_lp_solves,
            warm_resolves: self.warm_resolves,
            cold_resolves: self.cold_resolves,
        })
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

        // Carry the previous event's probe basis onto this event's LP
        // shape: map surviving job columns by engine id, drop departed
        // ones (their basis columns fall out in `remap`), let arrivals
        // start non-basic.
        let mut pending: Option<(WarmBasis, Vec<Option<usize>>)> = None;
        if self.resolve_mode == ResolveMode::WarmIncremental {
            pending = self.chain.carry_in(&sub, cols, n_machines);
        }

        // Conditioning guard: a sub-problem whose finite LP entries span
        // many orders of magnitude (typically a nearly-finished job —
        // `remaining · c` of ~1e-7 next to entries of ~1e2) puts the f64
        // simplex outside the regime where its verdict is a function of
        // the problem rather than of the pivot path: the cold solver has
        // been observed to (reproducibly) declare such LPs infeasible
        // even when a certified feasible point exists. The goldens pin
        // the cold behaviour, so the warm path must sit those events
        // out entirely.
        let mut cmin = f64::INFINITY;
        let mut cmax = 0.0f64;
        for i in 0..n_machines {
            for k in 0..cols.n() {
                if let Some(&c) = sub.cost(i, k).finite() {
                    cmin = cmin.min(c);
                    cmax = cmax.max(c);
                }
            }
        }
        let well_conditioned = cmin > COST_SPREAD_GUARD * cmax;

        let (mut lo, mut hi) = bracket(now, cols, &sub);

        let mut d = mem::take(&mut self.d_buf);
        // Side-effect-free check (a stateless cold solve): the warm-basis
        // chain must look identical in debug and release builds, so the
        // assertion must not seed or consume the chained basis.
        debug_assert!(
            {
                fill_deadlines(&mut d, now, hi, cols);
                solve(&build_deadline_probe_lp(&sub, &d, false)).is_optimal()
            },
            "upper bound must be feasible"
        );

        // Hybrid bisection: warm shape-stable probes while the bracket
        // is wide, the exact legacy computation once it shrinks into the
        // solver's tolerance band (see WARM_SAFE_REL_WIDTH). The warm
        // probes run through the persistent [`ProbeCache`]: within a
        // bracket segment every probe after the first is a pure RHS
        // patch on the retained tableau.
        let warm_before = self.warm_lp_solves;
        let mut hint: Option<WarmBasis> = None;
        // Whether the cache ran on *this* event's LP shape: only then is
        // its retained basis safe to pair with this event's sub-instance
        // in the cross-event carry (an older event's basis has a
        // different variable count and would poison the next remap).
        let mut cache_on_event_shape = false;
        for _ in 0..self.bisection_iters {
            let mid = 0.5 * (lo + hi);
            fill_deadlines(&mut d, now, mid, cols);
            let feasible = if d.iter().any(|&dj| dj <= now) {
                false // an empty window needs no LP to refute
            } else if self.resolve_mode == ResolveMode::ColdOracle
                || !well_conditioned
                || (hi - lo) <= WARM_SAFE_REL_WIDTH * hi
                || tol_fragile(&d, now)
            {
                self.cold_lp_solves += 1;
                self.lp.solve_filtered(&sub, &d).is_optimal()
            } else {
                let lp = &mut self.lp;
                build_deadline_probe_lp_into(&mut lp.probe_lp, &sub, &d, false);
                if let Some((basis, var_map)) = pending.take() {
                    hint = Some(basis.remap(&lp.probe_lp, &var_map));
                }
                // A warm verdict is trusted on exactly two routes (see
                // the module docs): a primal-certified feasible point,
                // or a persistent-path infeasibility with a decisive
                // margin. Everything else — including any infeasibility
                // claimed by a freshly re-realized basis — is recomputed
                // by the exact legacy path.
                let served = lp.cache.solve_in(&lp.probe_lp, hint.as_ref(), &mut lp.ws);
                cache_on_event_shape |= served.is_some();
                let verdict = served.and_then(|out| {
                    if out.solution.is_optimal() {
                        if certifies(&lp.probe_lp, &out.solution) {
                            Some(true)
                        } else {
                            // An uncertifiable "optimum" means the
                            // tableau cannot be trusted for anything.
                            lp.cache.clear();
                            None
                        }
                    } else if out.persistent
                        && out.solution.status == LpStatus::Infeasible
                        && out
                            .infeasible_margin
                            .is_some_and(|m| m > INFEASIBLE_MARGIN_GUARD * (1.0 + hi))
                    {
                        Some(false)
                    } else {
                        None
                    }
                });
                match verdict {
                    Some(v) => {
                        self.warm_lp_solves += 1;
                        v
                    }
                    None => {
                        // No trusted warm verdict. With no basis to work
                        // from at all (a fresh run), seed the cache's
                        // next attempt from a cold probe-shape solve —
                        // exactly how the pre-cache implementation
                        // seeded its basis chain.
                        if hint.is_none() {
                            hint = solve_warm_in(&lp.probe_lp, None, &mut lp.ws).basis;
                        }
                        self.cold_lp_solves += 1;
                        lp.solve_filtered(&sub, &d).is_optimal()
                    }
                }
            };
            if feasible {
                hi = mid;
            } else {
                lo = mid;
            }
        }

        // Final solve at the feasible end of the bracket — always the
        // legacy cold path, whose basic solution the goldens pin.
        fill_deadlines(&mut d, now, hi, cols);
        let sol = self.lp.solve_filtered(&sub, &d);
        debug_assert!(sol.is_optimal());
        self.cold_lp_solves += 1;
        self.n_resolves += 1;
        if self.warm_lp_solves > warm_before {
            self.warm_resolves += 1;
        } else {
            self.cold_resolves += 1;
        }
        self.d_buf = d;

        let (alloc, produced) = first_interval_rates(&self.lp.built, &sol, &sub, cols, n_machines);

        // Retire this event's sub-instance into the carry slot and rotate
        // the previous one's buffers back into the recycle pool. The
        // carried basis is the probe cache's last retained one — the
        // next event remaps it onto the churned job set to seed the
        // cache's first re-realization there.
        if self.resolve_mode == ResolveMode::WarmIncremental {
            let carried = if cache_on_event_shape {
                self.lp.cache.basis()
            } else {
                None
            };
            if let Some(bufs) = self.chain.carry_out(carried, sub, cols) {
                self.sub_recycle = bufs;
            }
        } else {
            self.sub_recycle = sub.into_parts();
        }

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
    fn warm_mode_is_bit_identical_to_cold_oracle() {
        // The tentpole invariant in miniature (the full property test
        // lives in tests/ola_differential.rs): eager warm-hybrid OLA and
        // the all-cold oracle produce the same completions to the bit.
        use crate::workload::{generate, WorkloadSpec};
        for seed in [3, 11, 29] {
            let inst = generate(&WorkloadSpec {
                n_jobs: 10,
                n_machines: 3,
                mean_interarrival: 0.8,
                seed,
                ..Default::default()
            });
            let warm = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
            let cold = simulate(&inst, &mut OfflineAdapt::cold_oracle()).unwrap();
            assert_eq!(warm.completions, cold.completions, "seed {seed}");
        }
    }

    #[test]
    fn resolve_stats_report_warm_and_cold_solves() {
        use crate::workload::{generate, WorkloadSpec};
        let inst = generate(&WorkloadSpec {
            n_jobs: 10,
            n_machines: 3,
            mean_interarrival: 0.8,
            seed: 7,
            ..Default::default()
        });
        let mut warm = OfflineAdapt::new();
        simulate(&inst, &mut warm).unwrap();
        let stats = warm.resolve_stats().unwrap();
        assert_eq!(stats.n_resolves, warm.n_resolves);
        assert!(stats.warm_lp_solves > 0, "warm probes must fire: {stats:?}");
        assert!(
            stats.cold_lp_solves > 0,
            "tolerance-band probes and final solves stay cold: {stats:?}"
        );

        let mut cold = OfflineAdapt::cold_oracle();
        simulate(&inst, &mut cold).unwrap();
        let cstats = cold.resolve_stats().unwrap();
        assert_eq!(cstats.warm_lp_solves, 0, "the oracle never warm-starts");
        assert_eq!(cstats.lp_solves(), cstats.cold_lp_solves);
        // Verdict-identical runs do identical LP work in total.
        assert_eq!(stats.n_resolves, cstats.n_resolves);
        assert_eq!(stats.lp_solves(), cstats.lp_solves());
    }
}
