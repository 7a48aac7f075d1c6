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
//! Every walk probe is the same filtered System-(2) solve as a probe of
//! OLA's bisection, on the policy's one reused workspace. The committed
//! `F` is thus either a value the walk already proved feasible with that
//! very solve, or the serial bound `hi`; the final rate-extracting solve
//! repeats it, and an idle plan covers a solver that refutes even `hi`.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use std::mem;

use super::offline_adapt::{
    bracket, build_sub, fill_deadlines, first_interval_rates, JobCols, PolicyLp, SubBuffers,
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
    /// Simplex workspace, reused program and LP-solve counter.
    lp: PolicyLp,
}

impl Default for OlaLite {
    fn default() -> Self {
        OlaLite {
            alpha: 2.0,
            n_resolves: 0,
            last_f: None,
            up: Vec::new(),
            scratch: JobCols::default(),
            sub_recycle: (Vec::new(), Vec::new()),
            d_buf: Vec::new(),
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
        self.lp.solves = 0;
        self.last_f = None;
        self.up.clear();
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
        // `last_f` survives: it is only a search anchor, and the grow
        // loop caps at the new platform's `hi` anyway.
    }

    fn snapshot_state(&self) -> String {
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
        Some(self.lp.resolve_stats(self.n_resolves))
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
        let (_lo, hi) = bracket(now, cols, &sub);

        // Anchor the walk on the previous event's objective; a fresh
        // start (or a nonsensical carry) anchors on the serial bound.
        let mut f = match self.last_f {
            Some(prev) if prev.is_finite() && prev > 0.0 => prev.min(hi),
            _ => hi,
        };

        let mut d = mem::take(&mut self.d_buf);
        fill_deadlines(&mut d, now, f, cols);
        if self.lp.probe(&sub, &d, now) {
            // Shrink while feasibility holds; `f` tracks the last
            // feasible value. Terminates: a small enough `F` empties
            // some deadline window (or starves the remaining work).
            for _ in 0..MAX_WALK_STEPS {
                let g = f / self.alpha;
                fill_deadlines(&mut d, now, g, cols);
                if !self.lp.probe(&sub, &d, now) {
                    break;
                }
                f = g;
            }
        } else {
            // Grow until feasible, capped by the serial upper bound
            // (feasible by construction).
            let mut found = false;
            for _ in 0..MAX_WALK_STEPS {
                if f >= hi {
                    break;
                }
                f = (f * self.alpha).min(hi);
                fill_deadlines(&mut d, now, f, cols);
                if self.lp.probe(&sub, &d, now) {
                    found = true;
                    break;
                }
            }
            if !found {
                f = hi;
            }
        }

        // Commit: the filtered solve at the walked objective.
        fill_deadlines(&mut d, now, f, cols);
        let sol = self.lp.solve_filtered(&sub, &d);
        self.n_resolves += 1;
        self.d_buf = d;

        let committed = sol.is_optimal();
        let alloc = if committed {
            first_interval_rates(&self.lp.built, &sol, &sub, cols, n_machines).0
        } else {
            Allocation::idle(n_machines)
        };
        self.sub_recycle = sub.into_parts();
        self.last_f = committed.then_some(f);
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, RunMetrics};
    use crate::schedulers::offline_adapt::OfflineAdapt;
    use dlflow_core::instance::{Instance, InstanceBuilder};

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
