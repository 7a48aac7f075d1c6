//! Theorem 2 (§4.3) and §4.4: exact minimization of the maximum weighted
//! flow, in the divisible model and in the preemptive (non-divisible)
//! model, via the milestone binary search.
//!
//! Outline (both models share it):
//! 1. enumerate the ≤ n²−n [`crate::milestones`] of the objective;
//! 2. binary-search the sorted milestone list with a System-(2)-style
//!    feasibility probe ("∃ schedule with max weighted flow ≤ F?" —
//!    monotone in `F`), isolating the milestone range containing the
//!    optimum. The probe is an LP ([`ProbeMethod::Lp`], and always in
//!    the preemptive model), or one max-flow on a divisible instance that
//!    factorizes as uniform machines ([`ProbeMethod::MaxFlowUniform`]).
//!    A max-flow probe asks the certificates of
//!    [`crate::deadline::deadline_verdict`] first and builds its network
//!    only where they leave it open; the LP prober asks none, so its
//!    warm and cold probe counts stay as they were. Over exact scalars
//!    the max-flow probes run on an `f64` copy and only guide the
//!    search, which still returns exact milestones;
//! 3. find the smallest feasible `F` on that range:
//!    - with LP probes, or over `f64`: one parametric LP (System (3), or
//!      (5) with the per-job bound), minimizing `F` as an ordinary LP
//!      variable — legal because within the range interval lengths are
//!      affine in `F`. Over exact scalars an `f64` copy is solved first
//!      and only its optimal basis seeds the exact solve, which certifies
//!      or repairs it (or falls back to a cold exact solve);
//!    - with max-flow probes over exact scalars, no LP at all: Newton's
//!      method on minimum cuts (the parametric max-flow of
//!      [`crate::uniform`]) walks the guided range on `f64` max-flows,
//!      pricing each proposed cut exactly, so every step is a proven
//!      lower bound. One exact max-flow at the last step, over `i128`
//!      integers scaled by the capacities' common denominator when they
//!      fit and over the exact scalar otherwise, certifies the optimum;
//!      if it does not saturate, exact steps continue from there. A range
//!      the exact flows reject is searched again with exact probes;
//! 4. rebuild an explicit schedule: interval packing for divisible (of
//!    the LP's fractions, or of the certifying, saturating flow),
//!    Lawler–Labetoulle phase decomposition for preemptive.

use crate::deadline::VerdictScratch;
use crate::decompose::decompose_interval;
use crate::instance::Instance;
use crate::lp_build::{build_deadline_lp, build_range_lp};
use crate::milestones::milestones;
use crate::schedule::{Schedule, ScheduleKind, Slice};
use crate::uniform::{feasible_at_uniform, min_flow_on_range, uniform_factors, UniformFactors};
use dlflow_lp::{solve, solve_float_guided, solve_warm, WarmBasis};
use dlflow_num::Scalar;

/// Search statistics (reported by the Theorem-2 experiment binary).
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Number of distinct milestones (≤ n²−n).
    pub n_milestones: usize,
    /// Feasibility probes run by the search that placed the milestone
    /// range. With [`ProbeMethod::MaxFlowUniform`] over exact scalars
    /// these are the `f64` guide's max-flow probes, plus the exact ones
    /// of the repeated search when the guided range fails certification.
    /// The max-flows that find the optimum on the range (the `f64` walk's
    /// and the exact certification's) are not probes and are not counted.
    pub n_probes: usize,
    /// LP probes warm-started from the previous probe's optimal basis
    /// (successive probes differ only in the flow-bound RHS, so the basis
    /// usually carries over; see `dlflow_lp::solve_warm`).
    pub n_warm_probes: usize,
    /// LP probes solved from scratch (first probe, or warm-start
    /// fallback). With [`ProbeMethod::MaxFlowUniform`] on a uniform
    /// instance no simplex runs at all, so both LP counters stay 0 even
    /// though `n_probes` counts the max-flow checks.
    pub n_cold_probes: usize,
    /// The final range LP was served by its float guide: an `f64` solve
    /// picked the basis and the exact solve only re-realized and repaired
    /// it (see `dlflow_lp::solve_float_guided`). `false` when the exact
    /// solve fell back to a cold start, when the scalar is inexact, and
    /// on the LP-free route ([`ProbeMethod::MaxFlowUniform`] over exact
    /// scalars), which runs no range LP.
    pub range_lp_guided: bool,
}

/// Stateful LP feasibility prober: carries the optimal basis of the last
/// feasible probe into the next one and counts warm vs cold solves.
struct LpProber<'a, S: Scalar> {
    inst: &'a Instance<S>,
    preemptive: bool,
    warm: Option<WarmBasis>,
    n_warm: usize,
    n_cold: usize,
}

impl<'a, S: Scalar> LpProber<'a, S> {
    fn new(inst: &'a Instance<S>, preemptive: bool) -> Self {
        LpProber {
            inst,
            preemptive,
            warm: None,
            n_warm: 0,
            n_cold: 0,
        }
    }

    fn probe(&mut self, f: &S) -> bool {
        let deadlines: Vec<S> = (0..self.inst.n_jobs())
            .map(|j| self.inst.deadline(j, f))
            .collect();
        // The probe-form builder keeps every probe structurally identical,
        // so the basis of the previous probe seeds this one.
        let lp = crate::lp_build::build_deadline_probe_lp(self.inst, &deadlines, self.preemptive);
        let out = solve_warm(&lp, self.warm.as_ref());
        if out.warm_used {
            self.n_warm += 1;
        } else {
            self.n_cold += 1;
        }
        if let Some(basis) = out.basis {
            // Only optimal (feasible) probes yield a basis; keep the last
            // one across infeasible probes — it often still matches.
            self.warm = Some(basis);
        }
        out.solution.is_optimal()
    }
}

/// Result of an exact max-weighted-flow minimization.
#[derive(Clone, Debug)]
pub struct FlowOutcome<S> {
    /// The optimal maximum weighted flow `F*`.
    pub optimum: S,
    /// A schedule achieving `F*` in the requested execution model.
    pub schedule: Schedule<S>,
    /// Search statistics.
    pub stats: FlowStats,
}

/// Feasibility probe: does a schedule with max weighted flow ≤ `f` exist?
/// (`preemptive` adds constraint (5b).) §4.3.1: equivalent to deadline
/// scheduling with `d̄_j = r_j + f/w_j`.
pub fn feasible_at<S: Scalar>(inst: &Instance<S>, f: &S, preemptive: bool) -> bool {
    let deadlines: Vec<S> = (0..inst.n_jobs()).map(|j| inst.deadline(j, f)).collect();
    solve(&build_deadline_lp(inst, &deadlines, preemptive).lp).is_optimal()
}

/// The milestone range `(lo, hi]` that holds the optimum, as found by
/// [`locate_range`].
#[derive(Clone, Debug, PartialEq)]
pub struct MilestoneRange<S> {
    /// Lower end: the floor or the largest milestone found infeasible.
    pub lo: S,
    /// Upper end: the smallest milestone found feasible; `None` when every
    /// milestone is infeasible and the range is unbounded above.
    pub hi: Option<S>,
    /// A point interior to the range, where the order of the epochal
    /// times is the one valid across the whole range.
    pub reference: S,
    /// Feasibility probes run.
    pub probes: usize,
}

/// Locates the milestone range containing the optimum (§4.3.2) by binary
/// search over `ms` — the milestones above `floor`, sorted ascending — with
/// the feasibility probe `probe`, monotone in `F`. `floor` must be a lower
/// bound on the optimum (zero for Theorem 2). With no milestones the range
/// is `(floor, ∞)`.
pub fn locate_range<S: Scalar>(
    ms: &[S],
    floor: &S,
    mut probe: impl FnMut(&S) -> bool,
) -> MilestoneRange<S> {
    let mut probes = 0usize;
    let (Some(first), Some(last)) = (ms.first(), ms.last()) else {
        // No milestones: the epochal order is constant on all of (floor, ∞).
        return MilestoneRange {
            lo: floor.clone(),
            hi: None,
            reference: floor.add(&S::one()),
            probes,
        };
    };
    probes += 1;
    if probe(first) {
        // Optimum in (floor, ms[0]].
        return MilestoneRange {
            lo: floor.clone(),
            hi: Some(first.clone()),
            reference: floor.midpoint_like(first),
            probes,
        };
    }
    // A lone milestone just failed as `first`: no need to probe it again.
    let last_feasible = ms.len() > 1 && {
        probes += 1;
        probe(last)
    };
    if !last_feasible {
        // Optimum beyond every milestone.
        return MilestoneRange {
            lo: last.clone(),
            hi: None,
            reference: last.add(&S::one()),
            probes,
        };
    }
    // Invariant: infeasible at ms[lo], feasible at ms[hi].
    let mut lo = 0usize;
    let mut hi = ms.len() - 1;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if probe(&ms[mid]) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    MilestoneRange {
        lo: ms[lo].clone(),
        hi: Some(ms[hi].clone()),
        reference: ms[lo].midpoint_like(&ms[hi]),
        probes,
    }
}

/// Small helper: `(a + b) / 2` through the `Scalar` trait.
trait MidpointLike: Scalar {
    fn midpoint_like(&self, other: &Self) -> Self {
        self.add(other).div(&Self::from_i64(2))
    }
}
impl<S: Scalar> MidpointLike for S {}

/// Shared core: locate the range, solve the parametric LP, hand back the
/// optimum, the per-interval α values and the concrete interval bounds
/// evaluated at the optimum.
struct RangeSolution<S> {
    optimum: S,
    /// `(interval, machine, job, fraction)` with positive fraction.
    fractions: Vec<(usize, usize, usize, S)>,
    /// Concrete `(inf, sup)` bounds at the optimum.
    bounds: Vec<(S, S)>,
    stats: FlowStats,
}

/// Which feasibility probe the milestone search uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProbeMethod {
    /// System (2) as an LP — always applicable (unrelated machines).
    #[default]
    Lp,
    /// Max-flow transportation probe — only for instances that factorize
    /// as uniform machines with restricted availabilities (divisible
    /// model only); falls back to [`ProbeMethod::Lp`] otherwise.
    MaxFlowUniform,
}

/// The LP routes: milestone search with max-flow probes when `factors`
/// is given, LP probes otherwise, then the range LP.
fn solve_min_flow_with<S: Scalar>(
    inst: &Instance<S>,
    preemptive: bool,
    factors: Option<&UniformFactors<S>>,
) -> RangeSolution<S> {
    let ms = milestones(inst);
    let zero = S::zero();
    let (range, warm_probes, cold_probes) = match factors {
        Some(fac) => {
            // Closed-form max-flow probes: no simplex runs, so neither LP
            // counter moves.
            let mut scratch = VerdictScratch::default();
            let range = locate_range(&ms, &zero, |f| {
                feasible_at_uniform(inst, f, fac, &mut scratch)
            });
            (range, 0, 0)
        }
        None => {
            let mut prober = LpProber::new(inst, preemptive);
            let range = locate_range(&ms, &zero, |f| prober.probe(f));
            debug_assert_eq!(prober.n_warm + prober.n_cold, range.probes);
            (range, prober.n_warm, prober.n_cold)
        }
    };
    let MilestoneRange {
        lo: f_lo,
        hi: f_hi,
        reference,
        probes,
    } = range;
    let built = build_range_lp(inst, &f_lo, f_hi.as_ref(), &reference, preemptive);
    // Float-first, certified exactly: only the f64 solve's basis crosses
    // into the exact solve, so the optimum is the exact one.
    let range = solve_float_guided(&built.lp);
    let sol = range.solution;
    assert!(
        sol.is_optimal(),
        "the range LP must be feasible on the located milestone range (got {:?}) — \
         range [{f_lo}, {:?}]",
        sol.status,
        f_hi
    );
    let optimum = sol.value(built.f_var).clone();

    let bounds: Vec<(S, S)> = (0..built.intervals.n_intervals())
        .map(|t| {
            (
                built.intervals.inf(t).eval(&optimum),
                built.intervals.sup(t).eval(&optimum),
            )
        })
        .collect();
    let fractions = built
        .alpha
        .iter()
        .filter_map(|(t, i, j, v)| {
            let val = sol.value(*v);
            val.is_positive_tol().then(|| (*t, *i, *j, val.clone()))
        })
        .collect();
    RangeSolution {
        optimum,
        fractions,
        bounds,
        stats: FlowStats {
            n_milestones: ms.len(),
            n_probes: probes,
            n_warm_probes: warm_probes,
            n_cold_probes: cold_probes,
            range_lp_guided: range.warm_used,
        },
    }
}

/// Theorem 2: exact optimal max weighted flow in the **divisible** model,
/// with an achieving schedule.
pub fn min_max_weighted_flow_divisible<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    min_max_weighted_flow_divisible_with(inst, ProbeMethod::Lp)
}

/// §4.4: exact optimal max weighted flow with **preemption but no
/// divisibility**, with an explicit schedule rebuilt by the
/// Lawler–Labetoulle decomposition.
pub fn min_max_weighted_flow_preemptive<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    let rs = solve_min_flow_with(inst, true, None);
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Preemptive);
    for (t, (inf, sup)) in rs.bounds.iter().enumerate() {
        let len = sup.sub(inf);
        if !len.is_positive_tol() {
            continue;
        }
        let mut work = vec![vec![S::zero(); inst.n_jobs()]; inst.n_machines()];
        for (tt, i, j, frac) in &rs.fractions {
            if *tt == t {
                let c = inst.cost(*i, *j).finite().unwrap();
                work[*i][*j] = work[*i][*j].add(&frac.mul(c));
            }
        }
        let phases = decompose_interval(&work, &len);
        let mut clock = inf.clone();
        for phase in phases {
            let end = clock.add(&phase.duration);
            for (i, j) in phase.assignment {
                sched.push(
                    i,
                    Slice {
                        job: j,
                        start: clock.clone(),
                        end: end.clone(),
                    },
                );
            }
            clock = end;
        }
    }
    sched.normalize();
    FlowOutcome {
        optimum: rs.optimum,
        schedule: sched,
        stats: rs.stats,
    }
}

/// Convenience: exact optimal **max stretch** (divisible), i.e. max
/// weighted flow after re-weighting jobs by the reciprocal of their
/// fastest processing time.
pub fn min_max_stretch_divisible<S: Scalar>(inst: &Instance<S>) -> FlowOutcome<S> {
    min_max_weighted_flow_divisible(&inst.clone().with_stretch_weights())
}

/// Theorem 2 with a selectable feasibility probe. On uniform-with-
/// restricted-availabilities instances, [`ProbeMethod::MaxFlowUniform`]
/// replaces every LP probe of the binary search with one max-flow
/// computation (see [`crate::uniform`]). Over exact scalars it replaces
/// the range LP too: `f64` max-flow probes place the milestone range,
/// `f64` max-flows with exactly priced cuts find the optimum on it, and
/// one exact max-flow certifies it, so no LP runs.
/// Either way the result is the exact optimum; over `f64` the range LP
/// stays.
pub fn min_max_weighted_flow_divisible_with<S: Scalar>(
    inst: &Instance<S>,
    probe_method: ProbeMethod,
) -> FlowOutcome<S> {
    let factors = match probe_method {
        ProbeMethod::MaxFlowUniform => uniform_factors(inst),
        ProbeMethod::Lp => None,
    };
    if let Some(fac) = &factors {
        if S::tolerance() == S::zero() {
            return min_flow_uniform_exact(inst, fac);
        }
    }
    let rs = solve_min_flow_with(inst, false, factors.as_ref());
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Divisible);
    let mut cursor: Vec<Vec<S>> = rs
        .bounds
        .iter()
        .map(|(inf, _)| vec![inf.clone(); inst.n_machines()])
        .collect();
    for (t, i, j, frac) in &rs.fractions {
        let c = inst
            .cost(*i, *j)
            .finite()
            .expect("fraction implies finite cost");
        let dur = frac.mul(c);
        let start = cursor[*t][*i].clone();
        let end = start.add(&dur);
        sched.push(
            *i,
            Slice {
                job: *j,
                start,
                end: end.clone(),
            },
        );
        cursor[*t][*i] = end;
    }
    sched.normalize();
    FlowOutcome {
        optimum: rs.optimum,
        schedule: sched,
        stats: rs.stats,
    }
}

/// Theorem 2 on an exact uniform instance with no LP at all.
///
/// The milestone search runs on an `f64` copy of the instance and of its
/// factors, probing at `ms[k].to_f64()` but indexing the exact list, so the
/// range it returns is one of exact milestones. Its guess is then checked
/// exactly: [`min_flow_on_range`]'s parametric search must find `lo`
/// infeasible (unless it is the floor) and the optimum no later than
/// `hi`, with exactly priced cuts and an exact certifying max-flow. If it
/// does not, the search runs again with exact probes. The schedule comes
/// from the certifying, saturating exact flow.
fn min_flow_uniform_exact<S: Scalar>(
    inst: &Instance<S>,
    factors: &UniformFactors<S>,
) -> FlowOutcome<S> {
    let ms = milestones(inst);
    let guide = float_copy(inst, factors, &ms).map(|(fi, ff)| {
        let mut scratch = VerdictScratch::default();
        locate_range(&ms, &S::zero(), |f| {
            feasible_at_uniform(&fi, &f.to_f64(), &ff, &mut scratch)
        })
    });
    min_flow_from_guide(inst, factors, &ms, guide)
}

/// [`min_flow_uniform_exact`] once the guide has run: certifies `guide`
/// (a range of `ms` placed by inexact probes, if any) by the parametric
/// search, or searches `ms` again with exact probes. `n_probes` counts
/// the guide's probes plus the exact ones.
fn min_flow_from_guide<S: Scalar>(
    inst: &Instance<S>,
    factors: &UniformFactors<S>,
    ms: &[S],
    guide: Option<MilestoneRange<S>>,
) -> FlowOutcome<S> {
    let zero = S::zero();
    let mut probes = guide.as_ref().map_or(0, |g| g.probes);
    let certified = guide.and_then(|range| min_flow_on_range(inst, factors, &range, &zero));
    let (optimum, schedule) = certified.unwrap_or_else(|| {
        let mut scratch = VerdictScratch::default();
        let range = locate_range(ms, &zero, |f| {
            feasible_at_uniform(inst, f, factors, &mut scratch)
        });
        probes += range.probes;
        min_flow_on_range(inst, factors, &range, &zero)
            .expect("exact probes place the optimum in their milestone range")
    });
    FlowOutcome {
        optimum,
        schedule,
        stats: FlowStats {
            n_milestones: ms.len(),
            n_probes: probes,
            ..FlowStats::default()
        },
    }
}

/// The `f64` copy of a uniform instance and its factors that guides the
/// exact milestone search, or `None` when a factor, or a deadline at the
/// largest milestone, does not stay finite in `f64` (the probe would
/// compare NaNs).
fn float_copy<S: Scalar>(
    inst: &Instance<S>,
    factors: &UniformFactors<S>,
    ms: &[S],
) -> Option<(Instance<f64>, UniformFactors<f64>)> {
    let fi = inst.map_scalar(S::to_f64);
    let ff = factors.to_f64();
    let f_max = ms.last().map_or(0.0, S::to_f64);
    let finite = (0..fi.n_jobs()).all(|j| fi.deadline(j, &f_max).is_finite())
        && ff.speed.iter().chain(&ff.work).all(|v| v.is_finite());
    finite.then_some((fi, ff))
}

/// Outcome of the ε-bisection strawman ([`min_max_weighted_flow_bisection`]).
#[derive(Clone, Debug)]
pub struct BisectionOutcome<S> {
    /// A feasible objective value within relative `eps` of the optimum.
    pub approx_optimum: S,
    /// Number of bisection iterations = feasibility LPs solved.
    pub iterations: usize,
    /// Final bracket `(infeasible, feasible)`.
    pub bracket: (S, S),
}

/// The approach §4.3.1 warns about: plain bisection on the objective
/// value. "A binary search on this value is not guaranteed to terminate,
/// as it can not attain any arbitrary value of a rational interval. By
/// setting a limit on the precision [...] the quality of the
/// approximation can be guaranteed." Implemented here exactly as that
/// strawman — stop when the bracket's relative width drops below
/// `rel_eps` — to serve as the ablation baseline against the exact
/// milestone method (see the `ablation_probes` experiment binary).
pub fn min_max_weighted_flow_bisection<S: Scalar>(
    inst: &Instance<S>,
    rel_eps: &S,
    preemptive: bool,
) -> BisectionOutcome<S> {
    assert!(rel_eps.is_positive_tol(), "rel_eps must be positive");
    let mut hi = inst.naive_flow_upper_bound();
    if !hi.is_positive_tol() {
        // Degenerate: everything completes instantly.
        return BisectionOutcome {
            approx_optimum: S::zero(),
            iterations: 0,
            bracket: (S::zero(), S::zero()),
        };
    }
    // The naive bound is feasible by construction; 0 may or may not be.
    let mut lo = S::zero();
    let mut iterations = 0usize;
    let two = S::from_i64(2);
    loop {
        let width = hi.sub(&lo);
        if width.le_tol(&rel_eps.mul(&hi)) {
            break;
        }
        let mid = lo.add(&hi).div(&two);
        iterations += 1;
        if feasible_at(inst, &mid, preemptive) {
            hi = mid;
        } else {
            lo = mid;
        }
        if iterations > 4096 {
            break; // safety net for pathological eps with exact arithmetic
        }
    }
    BisectionOutcome {
        approx_optimum: hi.clone(),
        iterations,
        bracket: (lo, hi),
    }
}

#[cfg(test)]
// Test fixtures cast small, known values; the cast lints guard library code.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::validate::validate;
    use dlflow_num::Rat;

    fn ri(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    #[test]
    fn single_job_optimum_is_processing_time() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(ri(3), ri(2));
        b.machine(vec![Some(ri(5))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        // F* = w · c = 2 · 5 = 10.
        assert_eq!(out.optimum, ri(10));
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.max_weighted_flow(&inst), ri(10));
    }

    #[test]
    fn split_job_halves_flow() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(4))]);
        b.machine(vec![Some(ri(4))]);
        let inst = b.build().unwrap();
        let div = min_max_weighted_flow_divisible(&inst);
        assert_eq!(div.optimum, ri(2)); // half on each machine
        validate(&inst, &div.schedule).unwrap();
        let pre = min_max_weighted_flow_preemptive(&inst);
        assert_eq!(pre.optimum, ri(4)); // cannot run on both at once
        validate(&inst, &pre.schedule).unwrap();
    }

    #[test]
    fn two_jobs_shared_machine_exact_value() {
        // One machine; J1 (r=0, w=1, c=2), J2 (r=0, w=1, c=2).
        // Optimal max flow: both finish by 4 ⇒ F* = 4 (whoever is second).
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(2)), Some(ri(2))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        assert_eq!(out.optimum, ri(4));
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.max_weighted_flow(&inst), ri(4));
    }

    #[test]
    fn weights_shift_the_optimum() {
        // Same as above but J2 has weight 3: the optimum balances
        // w1(C1) = C1 and 3(C2) with C1, C2 ∈ schedules on one machine of
        // total work 4. Best: finish J2 first at t2, J1 at 4.
        // F* = min over orders: max(4·1, t2·3) with t2 ≥ 2 → order J2 first:
        // max(4, 6)=6; order J1 first: max(2... J1 done at 2 (F=2), J2 at 4
        // (F=12). Divisible can interleave: completion times C1, C2 with
        // C1 ≥ ... the LP finds the true optimum; known value:
        // schedule J2 fully during [0,2): C2=2, wf=6; J1 during [2,4): C1=4,
        // wf=4 → F*=6? Can we beat 6? C2·3 ≥ 3·(work of J2 alone = 2) = 6.
        // So F* = 6.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), ri(3));
        b.machine(vec![Some(ri(2)), Some(ri(2))]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        assert_eq!(out.optimum, ri(6));
        validate(&inst, &out.schedule).unwrap();
    }

    #[test]
    fn staggered_releases_cross_milestones() {
        // Forces a non-trivial milestone search: different releases/weights.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.job(ri(2), Rat::one());
        b.machine(vec![Some(ri(3)), Some(ri(2)), Some(ri(2))]);
        b.machine(vec![Some(ri(6)), Some(ri(4)), None]);
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        validate(&inst, &out.schedule).unwrap();
        // The schedule's realized objective equals the claimed optimum.
        assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
        // And the optimum is a true lower bound: probing below fails.
        let below = out.optimum.sub(&Rat::from_ratio(1, 1000));
        assert!(!feasible_at(&inst, &below, false));
        assert!(feasible_at(&inst, &out.optimum, false));
        assert!(out.stats.n_milestones <= crate::milestones::milestone_bound(3));
    }

    #[test]
    fn warm_probes_reduce_cold_solves() {
        // Enough distinct releases/weights that the binary search runs
        // several probes; all probes after the first must warm-start
        // (probe LPs share one shape thanks to build_deadline_probe_lp).
        let mut b = InstanceBuilder::<Rat>::new();
        let data = [(0i64, 1i64), (1, 2), (3, 1), (5, 3), (8, 2)];
        for (rel, w) in data {
            b.job(ri(rel), ri(w));
        }
        for i in 0..2 {
            b.machine(
                (0..data.len())
                    .map(|j| Some(ri(2 + ((i + j) % 3) as i64)))
                    .collect(),
            );
        }
        let inst = b.build().unwrap();
        let out = min_max_weighted_flow_divisible(&inst);
        validate(&inst, &out.schedule).unwrap();
        let st = &out.stats;
        assert_eq!(st.n_probes, st.n_warm_probes + st.n_cold_probes);
        assert!(st.n_probes >= 3, "expected a nontrivial search, got {st:?}");
        assert!(
            st.n_warm_probes >= st.n_probes - 2,
            "probes after the first feasible one must warm-start: {st:?}"
        );
        assert!(st.n_cold_probes < st.n_probes, "{st:?}");
    }

    #[test]
    fn preemptive_at_least_divisible() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), Rat::one());
        b.machine(vec![Some(ri(4)), Some(ri(3))]);
        b.machine(vec![Some(ri(2)), Some(ri(6))]);
        let inst = b.build().unwrap();
        let div = min_max_weighted_flow_divisible(&inst);
        let pre = min_max_weighted_flow_preemptive(&inst);
        assert!(div.optimum <= pre.optimum);
        validate(&inst, &div.schedule).unwrap();
        validate(&inst, &pre.schedule).unwrap();
        assert_eq!(pre.schedule.max_weighted_flow(&inst), pre.optimum);
    }

    #[test]
    fn stretch_convenience() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one()); // weight replaced by 1/c
        b.machine(vec![Some(ri(5))]);
        let inst = b.build().unwrap();
        let out = min_max_stretch_divisible(&inst);
        // Alone in the system: stretch 1.
        assert_eq!(out.optimum, Rat::one());
    }

    #[test]
    fn uniform_probe_method_matches_lp_probes() {
        // A uniform instance (W·s factorization) with staggered releases.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.job(ri(3), Rat::one());
        b.machine(vec![Some(ri(4)), Some(ri(2)), Some(ri(6))]);
        b.machine(vec![Some(ri(8)), None, Some(ri(12))]);
        let inst = b.build().unwrap();
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        assert_eq!(lp.optimum, mf.optimum);
        validate(&inst, &mf.schedule).unwrap();
        assert_eq!(mf.schedule.max_weighted_flow(&inst), mf.optimum);
    }

    #[test]
    fn maxflow_probe_falls_back_on_unrelated() {
        // Genuinely unrelated costs: MaxFlowUniform must silently fall
        // back to LP probes and still return the exact optimum.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(2)), Some(ri(9))]);
        b.machine(vec![Some(ri(7)), Some(ri(3))]);
        let inst = b.build().unwrap();
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        assert_eq!(lp.optimum, mf.optimum);
    }

    /// A tournament-shaped exact instance: 8 jobs on 4 uniform machines
    /// with restricted availability (each job needs one of 5 databanks),
    /// sizes and release gaps with 12 significant bits, dyadic cycle
    /// times, stretch weights.
    pub(crate) fn campaign_shaped(seed: u64) -> Instance<Rat> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as i64 & i64::MAX
        };
        // k · 2⁻ᵉ with a 12-bit significand k ∈ [2¹¹, 2¹²).
        let mut sig12 = |e: i64| Rat::from_ratio(2048 + next() % 2048, 1 << e);
        let sizes: Vec<Rat> = (0..8).map(|_| sig12(8)).collect();
        let mut release = Rat::zero();
        let releases: Vec<Rat> = (0..8)
            .map(|_| {
                let r = release.clone();
                release = release.add_ref(&sig12(10));
                r
            })
            .collect();
        let cycles: Vec<Rat> = (0..4).map(|_| Rat::from_ratio(4 + next() % 8, 4)).collect();
        let banks: Vec<i64> = (0..8).map(|_| next() % 5).collect();
        let holds: Vec<Vec<bool>> = (0..4)
            .map(|i| (0..5).map(|b| b % 4 == i || next() % 2 == 0).collect())
            .collect();
        let avail: Vec<Vec<bool>> = holds
            .iter()
            .map(|h| banks.iter().map(|&b| h[b as usize]).collect())
            .collect();
        Instance::uniform_restricted(&sizes, &releases, &vec![Rat::one(); 8], &cycles, &avail)
            .unwrap()
            .with_stretch_weights()
    }

    #[test]
    fn range_lp_float_guide_engages_on_campaign_shapes() {
        // The guide is invisible in every result (the exact solve decides
        // the optimum either way); only its engagement shows that the
        // exact LP route still skips the cold rational range-LP solve.
        for seed in 0..12 {
            let inst = campaign_shaped(seed);
            let out = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
            assert!(
                out.stats.range_lp_guided,
                "seed {seed}: the range LP fell back to a cold exact solve"
            );
            validate(&inst, &out.schedule).unwrap();
            assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
        }
    }

    #[test]
    fn float_guide_places_the_range_on_campaign_shapes() {
        // The exact yardstick runs no LP: the f64 guide's range passes the
        // exact certification (no fallback search), and the parametric
        // max-flow lands on the LP route's optimum.
        for seed in 0..12 {
            let inst = campaign_shaped(seed);
            let factors = uniform_factors(&inst).expect("campaign shapes are uniform");
            let ms = milestones(&inst);
            let (fi, ff) = float_copy(&inst, &factors, &ms).expect("finite in f64");
            let mut scratch = VerdictScratch::default();
            let range = locate_range(&ms, &Rat::zero(), |f| {
                feasible_at_uniform(&fi, &f.to_f64(), &ff, &mut scratch)
            });
            let (optimum, sched) = min_flow_on_range(&inst, &factors, &range, &Rat::zero())
                .unwrap_or_else(|| panic!("seed {seed}: the guided range failed certification"));
            let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
            assert_eq!(optimum, lp.optimum, "seed {seed}");
            validate(&inst, &sched).unwrap();
            assert_eq!(sched.max_weighted_flow(&inst), optimum);

            let out = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
            assert_eq!(out.optimum, lp.optimum);
            let st = &out.stats;
            assert_eq!(st.n_probes, range.probes, "seed {seed}: {st:?}");
            assert!(!st.range_lp_guided && st.n_warm_probes + st.n_cold_probes == 0);
        }
    }

    #[test]
    fn wrong_guided_ranges_fall_back_to_the_exact_search() {
        // Wrong guesses, each a genuine range of consecutive milestones:
        // one wholly below the optimum, one above it, and the unbounded
        // one past the last milestone. The exact flows must reject each,
        // and the exact search must still reach the optimum.
        let inst = campaign_shaped(3);
        let factors = uniform_factors(&inst).unwrap();
        let ms = milestones(&inst);
        let opt = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp).optimum;
        let k = ms
            .iter()
            .position(|f| *f >= opt)
            .expect("optimum below the last milestone");
        assert!(
            k >= 2 && k + 2 < ms.len(),
            "fixture needs milestones on both sides"
        );
        let range = |lo: usize, hi: Option<usize>| MilestoneRange {
            lo: ms[lo].clone(),
            hi: hi.map(|h| ms[h].clone()),
            reference: hi.map_or(ms[lo].add_ref(&Rat::one()), |h| {
                ms[lo].midpoint_like(&ms[h])
            }),
            probes: 0,
        };
        for wrong in [
            range(k - 2, Some(k - 1)),
            range(k + 1, Some(k + 2)),
            range(ms.len() - 1, None),
        ] {
            assert!(min_flow_on_range(&inst, &factors, &wrong, &Rat::zero()).is_none());
            let out = min_flow_from_guide(&inst, &factors, &ms, Some(wrong.clone()));
            assert_eq!(out.optimum, opt, "from {wrong:?}");
            assert!(out.stats.n_probes > 0, "the exact search must have run");
            validate(&inst, &out.schedule).unwrap();
            assert_eq!(out.schedule.max_weighted_flow(&inst), opt);
        }
    }

    #[test]
    fn bisection_brackets_the_exact_optimum() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.machine(vec![Some(ri(3)), Some(ri(2))]);
        b.machine(vec![Some(ri(6)), Some(ri(4))]);
        let inst = b.build().unwrap();
        let exact = min_max_weighted_flow_divisible(&inst);
        let approx = min_max_weighted_flow_bisection(&inst, &Rat::from_ratio(1, 1000), false);
        // The bisection answer is feasible and within eps of the optimum...
        assert!(approx.approx_optimum >= exact.optimum);
        let rel = approx
            .approx_optimum
            .sub_ref(&exact.optimum)
            .div_ref(&exact.optimum);
        assert!(rel <= Rat::from_ratio(1, 500), "rel error {rel}");
        // ...but needs far more probes than the milestone search.
        assert!(approx.iterations > exact.stats.n_probes);
    }

    #[test]
    fn f64_mode_close_to_exact() {
        let mut b = InstanceBuilder::<f64>::new();
        b.job(0.0, 1.0);
        b.job(1.0, 2.0);
        b.machine(vec![Some(3.0), Some(2.0)]);
        b.machine(vec![Some(6.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let approx = min_max_weighted_flow_divisible(&inst);
        let exact = min_max_weighted_flow_divisible(&inst.map_scalar(|v| Rat::from_f64(*v)));
        assert!((approx.optimum - exact.optimum.to_f64()).abs() < 1e-6);
    }
}
