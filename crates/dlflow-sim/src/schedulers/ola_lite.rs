//! **OLA-lite**: the production-cheap member of the OLA family.
//!
//! [`super::OfflineAdapt`] pays ~40 LP feasibility probes per event to
//! bisect the smallest feasible objective `F` to full float precision.
//! That precision is what the paper's accuracy story (and this repo's
//! goldens) pin — but a deployment that merely wants *near*-optimal
//! max-stretch behaviour can spend far less, because the optimal `F`
//! moves slowly between consecutive events: a completion can only
//! shrink it, an arrival usually grows it by one job's worth of flow.
//!
//! `OlaLite` exploits that temporal coherence. It remembers the
//! objective `F` the previous event settled on and **geometrically
//! walks** it into place with factor `α > 1`:
//!
//! * if `F` is still feasible, shrink `F ← F/α` while feasibility
//!   holds (tracking the last feasible value);
//! * if it is not, grow `F ← F·α` until it is, capped by the serial
//!   upper bound `hi` of `bracket` (feasible by construction).
//!
//! In steady state the walk terminates after O(1) probes, and after a
//! burst that moves the optimum by a factor `R` it needs `O(log_α R)`
//! probes — versus the fixed 40 of the full bisection. The price is
//! resolution: the committed `F` overshoots the optimum by at most a
//! factor `α`, so first-interval rates are derived from a slightly
//! laxer deadline profile than OLA's.
//!
//! Probes run the warm path end to end: shape-stable probe LPs
//! ([`dlflow_core::lp_build::build_deadline_probe_lp`]) served by a
//! persistent [`dlflow_lp::ProbeCache`] (within an event every probe
//! after the first is a pure RHS patch on the retained tableau), chained
//! across events through the shared `WarmChain` carry. Warm feasible
//! verdicts are accepted only with a primal certificate ([`certifies`])
//! in hand, warm infeasible ones only from the persistent path with a
//! decisive margin — everything else is recomputed from scratch. Unlike `OfflineAdapt`, no golden
//! pins this policy's output, so it needs none of the
//! bit-compatibility guard stack — the certificate and the margin gate
//! alone keep the walk sound. The final rate-extracting solve is a
//! cold filtered solve, falling back to the guaranteed-feasible `hi`
//! (and then to an idle plan) if the committed `F` turns out to sit on
//! a solver tolerance boundary.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use dlflow_core::instance::Instance;
use dlflow_core::lp_build::build_deadline_probe_lp_into;
use dlflow_lp::{certifies, solve_in, solve_warm_in, LpStatus, WarmBasis};
use std::mem;

use super::offline_adapt::{
    bracket, build_sub, fill_deadlines, first_interval_rates, JobCols, PolicyLp, SubBuffers,
    WarmChain, INFEASIBLE_MARGIN_GUARD,
};

/// Safety cap on geometric walk steps per direction. With the default
/// `α = 2` this covers a 2⁶⁴ swing of the optimum between two events —
/// far beyond anything a trace can produce — while bounding the
/// per-event work even for `α` barely above 1.
const MAX_WALK_STEPS: usize = 64;

/// Cheap online adaptation: geometric objective walk instead of full
/// bisection. See the module docs for the algorithm.
pub struct OlaLite {
    /// Geometric walk factor (> 1). Larger values converge in fewer
    /// probes but commit a laxer objective: `F` overshoots the optimum
    /// by at most this factor.
    pub alpha: f64,
    /// Number of full re-solves performed since the last `reset`.
    pub n_resolves: usize,
    /// LP solves served by warm-basis reuse since the last `reset`.
    warm_lp_solves: usize,
    /// LP solves performed from scratch since the last `reset`.
    cold_lp_solves: usize,
    /// Re-plans in which ≥1 probe was served warm / none was.
    warm_resolves: usize,
    cold_resolves: usize,
    /// Objective the previous event committed (the walk's anchor).
    last_f: Option<f64>,
    /// Platform availability mask (empty = all machines in service).
    up: Vec<bool>,
    /// Scratch copy of the active set, refreshed per event.
    scratch: JobCols,
    /// Recycled job/cost-matrix buffers for the LP sub-instance.
    sub_recycle: SubBuffers,
    /// Recycled deadline vector (one slot per selected job).
    d_buf: Vec<f64>,
    /// Cross-event warm-basis carry (shared with `OfflineAdapt`).
    chain: WarmChain,
    /// Probe cache, simplex workspace and reused programs.
    lp: PolicyLp,
}

impl Default for OlaLite {
    fn default() -> Self {
        OlaLite {
            alpha: 2.0,
            n_resolves: 0,
            warm_lp_solves: 0,
            cold_lp_solves: 0,
            warm_resolves: 0,
            cold_resolves: 0,
            last_f: None,
            up: Vec::new(),
            scratch: JobCols::default(),
            sub_recycle: (Vec::new(), Vec::new()),
            d_buf: Vec::new(),
            chain: WarmChain::default(),
            lp: PolicyLp::default(),
        }
    }
}

impl OlaLite {
    /// Fresh policy with the default walk factor `α = 2`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh policy with walk factor `alpha` (must be finite and > 1).
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 1.0,
            "OLA-lite walk factor must be finite and > 1"
        );
        OlaLite {
            alpha,
            ..Self::default()
        }
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

/// One feasibility probe of the walk, served by the persistent
/// [`dlflow_lp::ProbeCache`]: a warm feasible verdict needs a primal
/// certificate, a warm infeasible one the persistent path plus a
/// decisive margin (`margin_gate`), and everything else is recomputed
/// from scratch.
/// `pending` (the cross-event basis carry) is consumed by the first
/// probe of the event; `hint` keeps the remapped basis alive as the
/// cache's re-seed for the rest of it.
#[allow(clippy::too_many_arguments)] // a probe really does touch all of the walk's moving parts
fn walk_probe(
    sub: &Instance<f64>,
    d: &[f64],
    now: f64,
    margin_gate: f64,
    pending: &mut Option<(WarmBasis, Vec<Option<usize>>)>,
    hint: &mut Option<WarmBasis>,
    lp: &mut PolicyLp,
    cache_on_event_shape: &mut bool,
    warm_lp_solves: &mut usize,
    cold_lp_solves: &mut usize,
) -> bool {
    if d.iter().any(|&dj| dj <= now) {
        return false; // an empty window needs no LP to refute
    }
    build_deadline_probe_lp_into(&mut lp.probe_lp, sub, d, false);
    if let Some((basis, var_map)) = pending.take() {
        *hint = Some(basis.remap(&lp.probe_lp, &var_map));
    }
    let served = lp.cache.solve_in(&lp.probe_lp, hint.as_ref(), &mut lp.ws);
    *cache_on_event_shape |= served.is_some();
    let verdict = served.and_then(|out| {
        if out.solution.is_optimal() {
            if certifies(&lp.probe_lp, &out.solution) {
                Some(true)
            } else {
                lp.cache.clear();
                None
            }
        } else if out.persistent
            && out.solution.status == LpStatus::Infeasible
            && out.infeasible_margin.is_some_and(|m| m > margin_gate)
        {
            Some(false)
        } else {
            None
        }
    });
    match verdict {
        Some(v) => {
            *warm_lp_solves += 1;
            v
        }
        None => {
            // No trusted warm verdict. Unlike OfflineAdapt there is no
            // golden to match, so the recomputation can stay in the
            // cheaper shape-stable form — and its basis doubles as the
            // cache's seed on a fresh run.
            *cold_lp_solves += 1;
            if hint.is_some() {
                return solve_in(&lp.probe_lp, &mut lp.ws).is_optimal();
            }
            let out = solve_warm_in(&lp.probe_lp, None, &mut lp.ws);
            *hint = out.basis;
            out.solution.is_optimal()
        }
    }
}

impl OnlineScheduler for OlaLite {
    fn name(&self) -> String {
        if self.alpha.total_cmp(&2.0).is_eq() {
            "OLA-lite".into()
        } else {
            format!("OLA-lite(a={})", self.alpha)
        }
    }

    fn reset(&mut self) {
        self.n_resolves = 0;
        self.warm_lp_solves = 0;
        self.cold_lp_solves = 0;
        self.warm_resolves = 0;
        self.cold_resolves = 0;
        self.last_f = None;
        self.up.clear();
        self.chain.clear();
        self.lp.cache.clear();
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // The walk re-anchors from `last_f` at the next `plan` call; an
        // arrival simply makes the grow direction more likely.
    }

    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Nothing cached per job; the next walk shrinks `F` if the
        // departure loosened the optimum.
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        self.up.clear();
        self.up.extend_from_slice(up);
        // The carried basis was captured on the old platform's cost
        // pattern; rebuild rather than remap (platform events are rare).
        // `last_f` survives: it is only a search anchor, and the grow
        // loop caps at the new platform's `hi` anyway.
        self.chain.clear();
        self.lp.cache.clear();
    }

    fn snapshot_state(&self) -> String {
        // The warm chain is a pure pivot-order hint and is deliberately
        // dropped across snapshot/restore (same policy as OfflineAdapt).
        // `last_f` is a search anchor, not telemetry: restoring it keeps
        // the first post-restore walk as short as it would have been.
        let mut s = format!("n_resolves {}\n", self.n_resolves);
        if let Some(f) = self.last_f {
            s.push_str(&format!("last_f {:016x}\n", f.to_bits()));
        }
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut lines = state.lines();
        let head = lines
            .next()
            .ok_or("OLA-lite state: missing n_resolves line")?;
        self.n_resolves = head
            .strip_prefix("n_resolves ")
            .and_then(|v| v.parse().ok())
            .ok_or("OLA-lite state: bad n_resolves line")?;
        self.last_f = match lines.next() {
            None => None,
            Some(line) => Some(
                line.strip_prefix("last_f ")
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .map(f64::from_bits)
                    .ok_or("OLA-lite state: bad last_f line")?,
            ),
        };
        self.chain.clear();
        self.lp.cache.clear();
        Ok(())
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let n_machines = alloc.n_machines();
        if active.is_empty() {
            return;
        }
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

impl OlaLite {
    /// The solve proper, over the scratch columns (which it may filter
    /// down to the placeable subset on the degraded path).
    fn plan_impl(&mut self, now: f64, cols: &mut JobCols, n_machines: usize) -> Allocation {
        if cols.n() == 0 {
            return Allocation::idle(n_machines);
        }
        if (0..cols.n()).any(|k| !self.placeable(cols, k, n_machines)) {
            // Same degraded-platform handling as OfflineAdapt: plan the
            // placeable subset instead of stranding everyone.
            let up = mem::take(&mut self.up);
            cols.retain_by(|c, k| {
                (0..n_machines).any(|i| (up.is_empty() || up[i]) && c.cost(i, k).is_some())
            });
            self.up = up;
            if cols.n() == 0 {
                return Allocation::idle(n_machines);
            }
        }

        let Some(sub) = build_sub(now, cols, &self.up, n_machines, &mut self.sub_recycle) else {
            // Unreachable after the placeability filter; idle beats panicking.
            return Allocation::idle(n_machines);
        };

        let mut pending = self.chain.carry_in(&sub, cols, n_machines);
        let mut hint: Option<WarmBasis> = None;
        // Gate for the cross-event basis carry: only a basis the cache
        // retained on *this* event's LP shape may be paired with this
        // event's sub-instance (see the same gate in `OfflineAdapt`).
        let mut cache_on_event_shape = false;
        let (_lo, hi) = bracket(now, cols, &sub);
        let margin_gate = INFEASIBLE_MARGIN_GUARD * (1.0 + hi);
        let warm_before = self.warm_lp_solves;

        // Anchor the walk on the previous event's objective; a fresh
        // start (or a nonsensical carry) anchors on the serial bound.
        let mut f = match self.last_f {
            Some(prev) if prev.is_finite() && prev > 0.0 => prev.min(hi),
            _ => hi,
        };

        let mut d = mem::take(&mut self.d_buf);
        fill_deadlines(&mut d, now, f, cols);
        let anchored = walk_probe(
            &sub,
            &d,
            now,
            margin_gate,
            &mut pending,
            &mut hint,
            &mut self.lp,
            &mut cache_on_event_shape,
            &mut self.warm_lp_solves,
            &mut self.cold_lp_solves,
        );
        if anchored {
            // Shrink while feasibility holds; `f` tracks the last
            // feasible value. Terminates: a small enough `F` empties
            // some deadline window (or starves the remaining work).
            for _ in 0..MAX_WALK_STEPS {
                let g = f / self.alpha;
                fill_deadlines(&mut d, now, g, cols);
                if walk_probe(
                    &sub,
                    &d,
                    now,
                    margin_gate,
                    &mut pending,
                    &mut hint,
                    &mut self.lp,
                    &mut cache_on_event_shape,
                    &mut self.warm_lp_solves,
                    &mut self.cold_lp_solves,
                ) {
                    f = g;
                } else {
                    break;
                }
            }
        } else {
            // Grow until feasible, capped by the serial upper bound
            // (feasible by construction — and re-checked by the final
            // solve's fallback below in case float noise disagrees).
            let mut found = false;
            for _ in 0..MAX_WALK_STEPS {
                if f >= hi {
                    break;
                }
                f = (f * self.alpha).min(hi);
                fill_deadlines(&mut d, now, f, cols);
                if walk_probe(
                    &sub,
                    &d,
                    now,
                    margin_gate,
                    &mut pending,
                    &mut hint,
                    &mut self.lp,
                    &mut cache_on_event_shape,
                    &mut self.warm_lp_solves,
                    &mut self.cold_lp_solves,
                ) {
                    found = true;
                    break;
                }
            }
            if !found {
                f = hi;
            }
        }

        // Commit: cold filtered solve at the walked objective, falling
        // back to the guaranteed-feasible serial bound if the committed
        // `F` sits on a solver tolerance boundary.
        fill_deadlines(&mut d, now, f, cols);
        let mut sol = self.lp.solve_filtered(&sub, &d);
        self.cold_lp_solves += 1;
        if !sol.is_optimal() && f < hi {
            f = hi;
            fill_deadlines(&mut d, now, f, cols);
            sol = self.lp.solve_filtered(&sub, &d);
            self.cold_lp_solves += 1;
        }
        self.n_resolves += 1;
        if self.warm_lp_solves > warm_before {
            self.warm_resolves += 1;
        } else {
            self.cold_resolves += 1;
        }
        self.d_buf = d;

        let committed = sol.is_optimal();
        let alloc = if committed {
            first_interval_rates(&self.lp.built, &sol, &sub, cols, n_machines).0
        } else {
            Allocation::idle(n_machines)
        };

        let carried = if cache_on_event_shape {
            self.lp.cache.basis()
        } else {
            None
        };
        if let Some(bufs) = self.chain.carry_out(carried, sub, cols) {
            self.sub_recycle = bufs;
        }
        self.last_f = committed.then_some(f);
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, RunMetrics};
    use crate::schedulers::offline_adapt::OfflineAdapt;
    use dlflow_core::instance::InstanceBuilder;

    fn two_machine_instance() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.5, 2.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(1.0), Some(2.0), Some(1.5)]);
        b.machine(vec![Some(2.0), Some(1.0), Some(1.5)]);
        b.build().unwrap()
    }

    #[test]
    fn completes_all_jobs() {
        let inst = two_machine_instance();
        let res = simulate(&inst, &mut OlaLite::new()).unwrap();
        assert_eq!(res.completions.len(), 3);
        assert!(res.completions.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn alpha_close_to_one_approaches_full_ola() {
        // A finer walk factor commits an objective closer to the
        // bisection's, so its objective can exceed the full OLA's by at
        // most a modest factor; a coarse walk stays a valid, completing
        // policy.
        let inst = two_machine_instance();
        let full = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
        let fine = simulate(&inst, &mut OlaLite::with_alpha(1.05)).unwrap();
        let coarse = simulate(&inst, &mut OlaLite::with_alpha(4.0)).unwrap();
        let m_full = RunMetrics::from_completions(&inst, &full.completions);
        let m_fine = RunMetrics::from_completions(&inst, &fine.completions);
        let m_coarse = RunMetrics::from_completions(&inst, &coarse.completions);
        assert!(
            m_fine.max_weighted_flow <= m_full.max_weighted_flow * 1.25 + 1e-6,
            "fine walk {} vs full OLA {}",
            m_fine.max_weighted_flow,
            m_full.max_weighted_flow
        );
        assert!(m_coarse.max_weighted_flow.is_finite());
    }

    #[test]
    #[should_panic(expected = "walk factor")]
    fn rejects_alpha_of_one() {
        let _ = OlaLite::with_alpha(1.0);
    }

    #[test]
    fn name_reports_non_default_alpha() {
        assert_eq!(OlaLite::new().name(), "OLA-lite");
        assert_eq!(OlaLite::with_alpha(1.5).name(), "OLA-lite(a=1.5)");
    }

    #[test]
    fn resolve_stats_count_walk_probes() {
        let inst = two_machine_instance();
        let mut s = OlaLite::new();
        let _ = simulate(&inst, &mut s).unwrap();
        let stats = s.resolve_stats().unwrap();
        assert!(stats.n_resolves > 0);
        assert!(stats.lp_solves() >= stats.n_resolves);
        // The walk is the whole point: far fewer probes per event than
        // the full bisection's fixed 40 (+1 final solve).
        assert!(stats.mean_lp_solves_per_resolve() < 41.0);
    }

    #[test]
    fn walk_is_cheaper_than_full_bisection() {
        let inst = two_machine_instance();
        let mut lite = OlaLite::new();
        let mut full = OfflineAdapt::new();
        let _ = simulate(&inst, &mut lite).unwrap();
        let _ = simulate(&inst, &mut full).unwrap();
        let sl = lite.resolve_stats().unwrap();
        let sf = full.resolve_stats().unwrap();
        assert!(
            sl.mean_lp_solves_per_resolve() < sf.mean_lp_solves_per_resolve() / 2.0,
            "OLA-lite {} probes/event vs full OLA {}",
            sl.mean_lp_solves_per_resolve(),
            sf.mean_lp_solves_per_resolve()
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_anchor() {
        let mut s = OlaLite::new();
        s.n_resolves = 7;
        s.last_f = Some(13.5);
        let snap = s.snapshot_state();
        let mut t = OlaLite::new();
        t.restore_state(&snap).unwrap();
        assert_eq!(t.n_resolves, 7);
        assert_eq!(t.last_f, Some(13.5));

        s.last_f = None;
        let snap = s.snapshot_state();
        t.last_f = Some(1.0);
        t.restore_state(&snap).unwrap();
        assert_eq!(t.last_f, None);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut s = OlaLite::new();
        assert!(s.restore_state("").is_err());
        assert!(s.restore_state("n_resolves x").is_err());
        assert!(s.restore_state("n_resolves 3\nlast_f zz\n").is_err());
    }

    #[test]
    fn respects_restricted_availability() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![None, Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut OlaLite::new()).unwrap();
        assert!((res.completions[0] - 2.0).abs() < 1e-4);
        assert!((res.completions[1] - 2.0).abs() < 1e-4);
    }
}
