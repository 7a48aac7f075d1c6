//! Constraint generators for the paper's linear systems.
//!
//! | System | Paper | Purpose |
//! |--------|-------|---------|
//! | (1) | §4.1 | divisible makespan minimization |
//! | (2) | §4.2 | deadline-window feasibility (fixed deadlines) |
//! | (3) | §4.3.2 | min max weighted flow on a milestone range (divisible) |
//! | (5) | §4.4 | same, with the per-job-per-interval bound (preemptive) |
//!
//! Equations (a)–(e) that force `α⁽ᵗ⁾ᵢⱼ = 0` (release / deadline /
//! availability) are realised by **not creating the variable at all**,
//! which keeps the LPs as small as the instance allows.

use crate::instance::Instance;
use crate::intervals::{AffineF, ConcreteIntervals, SymbolicIntervals};
use dlflow_lp::{LinExpr, LpProblem, Rel, Sense, VarId};
use dlflow_num::Scalar;

/// A created `α⁽ᵗ⁾ᵢⱼ` variable: `(interval, machine, job, lp-var)`.
pub type AlphaVar = (usize, usize, usize, VarId);

/// System (1): the makespan LP.
pub struct MakespanLp<S> {
    /// The assembled linear program (minimize `Δ_n`).
    pub lp: LpProblem<S>,
    /// All `α` variables. Interval index `t == intervals.n_intervals()`
    /// denotes the final unbounded interval `[r_max, r_max + Δ_n)`.
    pub alpha: Vec<AlphaVar>,
    /// The `Δ_n` variable (length of the final interval).
    pub delta: VarId,
    /// Finite intervals between consecutive distinct release dates.
    pub intervals: ConcreteIntervals<S>,
}

/// Builds System (1) for the instance.
pub fn build_makespan_lp<S: Scalar>(inst: &Instance<S>) -> MakespanLp<S> {
    let intervals = ConcreteIntervals::from_points(inst.distinct_releases());
    let n_fin = intervals.n_intervals();
    let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
    let delta = lp.add_var("delta");
    lp.objective_term(delta, S::one());

    let mut alpha: Vec<AlphaVar> = Vec::new();
    // t in 0..n_fin → finite; t == n_fin → final interval.
    for t in 0..=n_fin {
        for i in 0..inst.n_machines() {
            for j in 0..inst.n_jobs() {
                if !inst.cost(i, j).is_finite() {
                    continue; // (availability)
                }
                // (1a): the job must be released at or before the interval start.
                let start_ok = if t < n_fin {
                    inst.job(j).release.le_tol(intervals.inf(t))
                } else {
                    true // final interval starts at r_max ≥ every release
                };
                if !start_ok {
                    continue;
                }
                let v = lp.add_var(format!("a[{t}][{i}][{j}]"));
                alpha.push((t, i, j, v));
            }
        }
    }

    // (1b)/(1c): machine capacity per interval.
    for t in 0..=n_fin {
        for i in 0..inst.n_machines() {
            let mut expr = LinExpr::new();
            for (tt, ii, j, v) in &alpha {
                if *tt == t && *ii == i {
                    expr.push(*v, inst.cost(i, *j).finite().unwrap().clone()); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
                }
            }
            if t < n_fin {
                if !expr.is_empty() {
                    lp.add_constraint_labelled(
                        format!("cap[t{t}][m{i}]"),
                        expr,
                        Rel::Le,
                        intervals.len(t),
                    );
                }
            } else {
                // Σ α·c − Δ ≤ 0
                expr.push(delta, S::one().neg());
                lp.add_constraint_labelled(format!("cap[final][m{i}]"), expr, Rel::Le, S::zero());
            }
        }
    }

    // (1d): completion.
    for j in 0..inst.n_jobs() {
        let mut expr = LinExpr::new();
        for (_, _, jj, v) in &alpha {
            if *jj == j {
                expr.push(*v, S::one());
            }
        }
        lp.add_constraint_labelled(format!("done[j{j}]"), expr, Rel::Eq, S::one());
    }

    MakespanLp {
        lp,
        alpha,
        delta,
        intervals,
    }
}

/// System (2): deadline feasibility with concrete per-job deadlines.
pub struct DeadlineLp<S> {
    /// The assembled feasibility program (zero objective).
    pub lp: LpProblem<S>,
    /// All `α` variables.
    pub alpha: Vec<AlphaVar>,
    /// Intervals between consecutive epochal times (releases ∪ deadlines).
    pub intervals: ConcreteIntervals<S>,
}

impl<S: Scalar> Default for DeadlineLp<S> {
    /// An empty program, to be filled by [`build_deadline_lp_into`].
    fn default() -> Self {
        DeadlineLp {
            lp: LpProblem::new(Sense::Minimize),
            alpha: Vec::new(),
            intervals: ConcreteIntervals::from_points(Vec::new()),
        }
    }
}

/// Builds System (2). `deadlines[j]` is `d̄_j`.
///
/// When `per_job_interval_bound` is set, constraint (5b) is added on top —
/// this is the concrete-`F` version of System (5) used as the feasibility
/// probe for the *preemptive* (non-divisible) variant of the problem.
pub fn build_deadline_lp<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    per_job_interval_bound: bool,
) -> DeadlineLp<S> {
    let mut out = DeadlineLp::default();
    build_deadline_lp_into(&mut out, inst, deadlines, per_job_interval_bound);
    out
}

/// [`build_deadline_lp`] into `out`, reusing its buffers: the program's
/// rows and variable list, the `α` list and the interval points.
///
/// This builder sits on OLA's per-event hot path (one call per probe of
/// §4.3's milestone search, plus one for the serial-bound fallback when
/// a stage does not end optimal), so variables and
/// constraints are anonymous — names and labels are display-only and the
/// `format!` calls used to dominate the build at production sub-problem
/// sizes — and each row's terms are read off the `α` list, which the
/// variable pass emits in `(t, i, j)` order. Both choices are
/// numerically invisible: the emitted LP has the same terms in the same
/// order, so every simplex pivot (and thus every verdict the campaign
/// goldens pin) is unchanged.
pub fn build_deadline_lp_into<S: Scalar>(
    out: &mut DeadlineLp<S>,
    inst: &Instance<S>,
    deadlines: &[S],
    per_job_interval_bound: bool,
) {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let DeadlineLp {
        lp,
        alpha,
        intervals,
    } = out;
    intervals.refill(
        inst.jobs()
            .iter()
            .map(|j| j.release.clone())
            .chain(deadlines.iter().cloned()),
    );
    let n_int = intervals.n_intervals();
    let (m, n) = (inst.n_machines(), inst.n_jobs());

    lp.clear(Sense::Minimize);
    alpha.clear();
    for t in 0..n_int {
        for i in 0..m {
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue;
                }
                // (2a): released before the interval; (2b): due after it.
                if !inst.job(j).release.le_tol(intervals.inf(t)) {
                    continue;
                }
                if !deadlines[j].ge_tol(intervals.sup(t)) {
                    continue;
                }
                let v = lp.add_var("");
                alpha.push((t, i, j, v));
            }
        }
    }

    // (2c) machine capacity: one row per (t, i) hosting some α — a
    // contiguous run of the α list.
    for run in alpha.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (t, i) = (run[0].0, run[0].1);
        let row = lp.push_row(Rel::Le, intervals.len(t));
        for &(_, _, j, v) in run {
            let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
            row.expr.push(v, c.clone());
        }
    }

    // (5b) optional: a job cannot occupy more wall-clock than the interval.
    if per_job_interval_bound {
        for run in alpha.chunk_by(|a, b| a.0 == b.0) {
            let t = run[0].0;
            for j in 0..n {
                if !run.iter().any(|a| a.2 == j) {
                    continue;
                }
                let row = lp.push_row(Rel::Le, intervals.len(t));
                for &(_, i, _, v) in run.iter().filter(|a| a.2 == j) {
                    let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
                    row.expr.push(v, c.clone());
                }
            }
        }
    }

    // (2d) completion. An empty expression (no interval can host the job)
    // yields `0 = 1`, i.e. infeasibility — exactly right.
    let done = lp.n_constraints();
    for _ in 0..n {
        lp.push_row(Rel::Eq, S::one());
    }
    let rows = lp.constraints_mut();
    for &(_, _, j, v) in alpha.iter() {
        rows[done + j].expr.push(v, S::one());
    }
}

/// System (2) in **probe form**: a deadline-feasibility LP whose *shape*
/// — variable count, variable order and constraint-relation pattern — is
/// independent of the deadline vector.
///
/// The filtered builder ([`build_deadline_lp`]) keeps LPs minimal by not
/// creating variables that equations (a)–(e) force to zero, but that makes
/// LPs at different objective values structurally different, so the
/// Theorem-2 binary search cannot carry a simplex basis from one probe to
/// the next. This builder instead fixes the frame:
///
/// * intervals are the `2n − 1` gaps between the sorted (NOT deduplicated)
///   epochal times — coincident times yield zero-length intervals whose
///   capacity rows force their `α` to 0;
/// * every `(t, i, j)` with finite cost gets a variable in a fixed order;
///   inadmissible combinations simply appear in **no** constraint (an
///   empty column can only sit at 0 in a basic solution, so feasibility
///   is unchanged);
/// * every capacity/completion row is emitted even when its expression is
///   empty.
///
/// Feasibility status is identical to [`build_deadline_lp`]'s; the payoff
/// is that any two probes of the same instance are
/// [`dlflow_lp::WarmBasis`]-compatible, enabling warm-started probes.
pub fn build_deadline_probe_lp<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    per_job_interval_bound: bool,
) -> LpProblem<S> {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let (m, n) = (inst.n_machines(), inst.n_jobs());
    let mut pts: Vec<S> = Vec::with_capacity(2 * n);
    pts.extend(inst.jobs().iter().map(|j| j.release.clone()));
    pts.extend(deadlines.iter().cloned());
    pts.sort_by(|a, b| a.cmp_total(b));
    let n_int = pts.len() - 1;

    // Every row is emitted first — the frame fixes their order — and the
    // single variable pass fills them in place.
    let mut lp = LpProblem::new(Sense::Minimize);
    // (2c) machine capacity — row t·m + i for every (t, i), even when empty.
    for t in 0..n_int {
        let len = pts[t + 1].sub(&pts[t]);
        for _ in 0..m {
            lp.push_row(Rel::Le, len.clone());
        }
    }
    // (5b) per-job wall-clock bound — row n_int·m + t·n + j when requested.
    if per_job_interval_bound {
        for t in 0..n_int {
            let len = pts[t + 1].sub(&pts[t]);
            for _ in 0..n {
                lp.push_row(Rel::Le, len.clone());
            }
        }
    }
    // (2d) completion — an empty expression yields `0 = 1`: infeasible.
    let done = lp.n_constraints();
    for _ in 0..n {
        lp.push_row(Rel::Eq, S::one());
    }

    let jobcap = n_int * m;
    for t in 0..n_int {
        let (inf, sup) = (&pts[t], &pts[t + 1]);
        let degenerate = !sup.sub(inf).is_positive_tol();
        for i in 0..m {
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue; // availability is deadline-independent
                }
                let v = lp.add_var("");
                let admissible =
                    !degenerate && inst.job(j).release.le_tol(inf) && deadlines[j].ge_tol(sup);
                if admissible {
                    let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "guarded by the is_finite check at the top of this loop body")
                    let rows = lp.constraints_mut();
                    rows[t * m + i].expr.push(v, c.clone());
                    if per_job_interval_bound {
                        rows[jobcap + t * n + j].expr.push(v, c.clone());
                    }
                    rows[done + j].expr.push(v, S::one());
                }
            }
        }
    }
    lp
}

/// Systems (3)/(5): minimize `F` over a milestone range.
pub struct RangeLp<S> {
    /// The assembled program (minimize `F`).
    pub lp: LpProblem<S>,
    /// All `α` variables.
    pub alpha: Vec<AlphaVar>,
    /// The objective-value variable `F`.
    pub f_var: VarId,
    /// Symbolic intervals whose bounds are affine in `F`.
    pub intervals: SymbolicIntervals<S>,
}

impl<S: Scalar> Default for RangeLp<S> {
    /// An empty program, to be filled by [`build_range_lp_into`].
    fn default() -> Self {
        let mut lp = LpProblem::new(Sense::Minimize);
        let f_var = lp.add_var("");
        RangeLp {
            lp,
            alpha: Vec::new(),
            f_var,
            intervals: SymbolicIntervals::from_points(Vec::new(), S::zero()),
        }
    }
}

/// Builds System (3) (divisible) or System (5) (`preemptive = true`) on
/// the objective range `[f_lo, f_hi]` (`f_hi = None` → unbounded above).
///
/// `reference` must be a point interior to the milestone range so that
/// the relative order of releases and deadlines is the one valid across
/// the whole range.
pub fn build_range_lp<S: Scalar>(
    inst: &Instance<S>,
    f_lo: &S,
    f_hi: Option<&S>,
    reference: &S,
    preemptive: bool,
) -> RangeLp<S> {
    let origins: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    let mut out = RangeLp::default();
    build_range_lp_into(&mut out, inst, &origins, f_lo, f_hi, reference, preemptive);
    out
}

/// [`build_range_lp`] into `out`, reusing its buffers, with job `j` due
/// at `origins[j] + F/w_j` instead of `r_j + F/w_j` (see
/// [`crate::milestones::milestones_into`]).
///
/// Like [`build_deadline_lp_into`], variables and rows are anonymous and
/// each row's terms are read off the `α` list, which the variable pass
/// emits in `(t, i, j)` order. With the releases as origins the program
/// has the same variables, rows and terms in the same order as a named
/// build would, so every pivot of the Theorem-2 solve is unchanged.
pub fn build_range_lp_into<S: Scalar>(
    out: &mut RangeLp<S>,
    inst: &Instance<S>,
    origins: &[S],
    f_lo: &S,
    f_hi: Option<&S>,
    reference: &S,
    preemptive: bool,
) {
    assert_eq!(origins.len(), inst.n_jobs());
    let RangeLp {
        lp,
        alpha,
        f_var,
        intervals,
    } = out;
    // Breakpoints: releases (constants) and deadlines o_j + F/w_j.
    intervals.refill(
        inst.jobs().iter().zip(origins).flat_map(|(job, o)| {
            [
                AffineF::constant(job.release.clone()),
                AffineF {
                    a: o.clone(),
                    b: job.weight.recip(),
                },
            ]
        }),
        reference.clone(),
    );
    let n_int = intervals.n_intervals();
    let (m, n) = (inst.n_machines(), inst.n_jobs());

    lp.clear(Sense::Minimize);
    alpha.clear();
    *f_var = lp.add_var("");
    lp.objective_term(*f_var, S::one());

    // (3a): F within the milestone range.
    if f_lo.is_positive_tol() {
        lp.push_row(Rel::Ge, f_lo.clone())
            .expr
            .push(*f_var, S::one());
    }
    if let Some(hi) = f_hi {
        lp.push_row(Rel::Le, hi.clone()).expr.push(*f_var, S::one());
    }

    // Variable creation: (3b) release / (3c) deadline / availability.
    // Order is constant on the range, so comparisons at the reference
    // point decide them for the whole range.
    for t in 0..n_int {
        let (inf_ref, sup_ref) = (intervals.inf_at_reference(t), intervals.sup_at_reference(t));
        for i in 0..m {
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue;
                }
                if !inst.job(j).release.le_tol(inf_ref) {
                    continue; // (3b)
                }
                let dl_ref = origins[j].add(&reference.div(&inst.job(j).weight));
                if !dl_ref.ge_tol(sup_ref) {
                    continue; // (3c)
                }
                let v = lp.add_var("");
                alpha.push((t, i, j, v));
            }
        }
    }

    // (3d): machine capacity — Σ α·c − len_b·F ≤ len_a, one row per
    // (t, i) hosting some α: a contiguous run of the α list.
    for run in alpha.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (t, i) = (run[0].0, run[0].1);
        let len = intervals.len(t);
        let row = lp.push_row(Rel::Le, len.a);
        for &(_, _, j, v) in run {
            let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
            row.expr.push(v, c.clone());
        }
        row.expr.push(*f_var, len.b.neg());
    }

    // (5b): per-job wall-clock bound per interval.
    if preemptive {
        for run in alpha.chunk_by(|a, b| a.0 == b.0) {
            let len = intervals.len(run[0].0);
            for j in 0..n {
                if !run.iter().any(|a| a.2 == j) {
                    continue;
                }
                let row = lp.push_row(Rel::Le, len.a.clone());
                for &(_, i, _, v) in run.iter().filter(|a| a.2 == j) {
                    let c = inst.cost(i, j).finite().unwrap(); // dlflint:allow(hot-path-panic, "alpha variables exist only for finite (i, j) cost pairs")
                    row.expr.push(v, c.clone());
                }
                row.expr.push(*f_var, len.b.neg());
            }
        }
    }

    // (3e): completion. An empty expression yields `0 = 1`: infeasible.
    let done = lp.n_constraints();
    for _ in 0..n {
        lp.push_row(Rel::Eq, S::one());
    }
    let rows = lp.constraints_mut();
    for &(_, _, j, v) in alpha.iter() {
        rows[done + j].expr.push(v, S::one());
    }
}

/// Turns an LP solution's `α` values into an explicit schedule by packing,
/// within every interval and machine, the non-zero fractions back to back
/// from the interval start (the paper: "during any time interval It we can
/// schedule in any order (and without idle times) the non-null fractions").
///
/// `bounds[t] = (inf, sup)` are the concrete interval bounds. Only valid
/// for the **divisible** model — preemptive schedules need the
/// Lawler–Labetoulle decomposition instead (see [`crate::decompose`]).
pub(crate) fn pack_alpha_schedule<S: Scalar>(
    inst: &Instance<S>,
    bounds: &[(S, S)],
    alpha: &[AlphaVar],
    values: &[S],
) -> crate::schedule::Schedule<S> {
    use crate::schedule::{Schedule, ScheduleKind, Slice};
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Divisible);
    // Cursor per (interval, machine).
    let mut cursor: Vec<Vec<S>> = bounds
        .iter()
        .map(|(inf, _)| vec![inf.clone(); inst.n_machines()])
        .collect();
    for (t, i, j, v) in alpha {
        let frac = &values[v.index()];
        if !frac.is_positive_tol() {
            continue;
        }
        let dur = frac.mul(
            inst.cost(*i, *j)
                .finite()
                .expect("alpha var implies finite cost"),
        );
        let start = cursor[*t][*i].clone();
        let end = start.add(&dur);
        debug_assert!(
            end.le_tol(&bounds[*t].1),
            "interval capacity exceeded while packing: end={end} sup={}",
            bounds[*t].1
        );
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
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dlflow_lp::{solve, LpStatus};
    use dlflow_num::Rat;

    fn simple() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(2.0, 1.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        b.build().unwrap()
    }

    #[test]
    fn makespan_lp_shape() {
        let inst = simple();
        let m = build_makespan_lp(&inst);
        // Intervals: [0,2) finite + final. J1 everywhere, J2 only in final.
        assert_eq!(m.intervals.n_intervals(), 1);
        // α vars: (t0, m0, j0), (final, m0, j0), (final, m0, j1) = 3.
        assert_eq!(m.alpha.len(), 3);
        let sol = solve(&m.lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // One machine, 8 units of work, J2 released at 2; both fully
        // processable: lower bound max(total work, r2 + c2) = 8 ≥ 2+4.
        // Optimal Cmax = 8 → Δ = 8 − 2 = 6.
        assert!((sol.objective.unwrap() - 6.0).abs() < 1e-7);
    }

    #[test]
    fn deadline_lp_feasible_and_not() {
        let inst = simple();
        // Deadlines generous: feasible.
        let d = vec![10.0, 10.0];
        let lp = build_deadline_lp(&inst, &d, false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Optimal);
        // Impossible: both jobs due by 4 but 8 units of single-machine work.
        let d = vec![4.0, 4.0];
        let lp = build_deadline_lp(&inst, &d, false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn deadline_lp_infeasible_when_window_empty() {
        let mut b = InstanceBuilder::new();
        b.job(5.0, 1.0);
        b.machine(vec![Some(1.0)]);
        let inst = b.build().unwrap();
        // Deadline before release: no interval can host the job.
        let lp = build_deadline_lp(&inst, &[3.0], false);
        assert_eq!(solve(&lp.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn probe_form_matches_filtered_builder() {
        // The uniform-shape probe LP must agree with the filtered System-(2)
        // builder on feasibility, for assorted deadline vectors and both
        // the divisible and preemptive (5b) variants.
        let inst = simple();
        for d in [
            vec![10.0, 10.0],
            vec![4.0, 4.0],
            vec![8.0, 8.0],
            vec![3.0, 9.0],
            vec![9.0, 3.0],
        ] {
            for pre in [false, true] {
                let filtered = solve(&build_deadline_lp(&inst, &d, pre).lp).status;
                let probe = solve(&build_deadline_probe_lp(&inst, &d, pre)).status;
                assert_eq!(filtered, probe, "deadlines {d:?} preemptive={pre}");
            }
        }
    }

    /// Asserts two programs are the same to the bit: variables, sense,
    /// objective and every row's relation, RHS, label and terms.
    fn assert_same_program(a: &LpProblem<f64>, b: &LpProblem<f64>) {
        let terms = |e: &LinExpr<f64>| -> Vec<(usize, u64)> {
            e.terms
                .iter()
                .map(|(v, c)| (v.index(), c.to_bits()))
                .collect()
        };
        assert_eq!(a.n_vars(), b.n_vars());
        assert_eq!(a.sense(), b.sense());
        assert_eq!(terms(a.objective()), terms(b.objective()));
        assert_eq!(a.n_constraints(), b.n_constraints());
        for (k, (ca, cb)) in a.constraints().iter().zip(b.constraints()).enumerate() {
            assert_eq!(ca.rel, cb.rel, "row {k}");
            assert_eq!(ca.rhs.to_bits(), cb.rhs.to_bits(), "row {k}");
            assert_eq!(ca.label, cb.label, "row {k}");
            assert_eq!(terms(&ca.expr), terms(&cb.expr), "row {k}");
        }
    }

    #[test]
    fn reusing_builders_match_fresh_builds_after_a_larger_instance() {
        // Four jobs on three machines (one unavailable pair), then the
        // two-job instance: the refilled program must equal a fresh build
        // of the last instance, with no trace of the larger one.
        let mut b = InstanceBuilder::new();
        for (r, w) in [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0), (1.5, 3.0)] {
            b.job(r, w);
        }
        b.machine(vec![Some(2.0), Some(3.0), None, Some(1.5)]);
        b.machine(vec![Some(4.0), Some(1.0), Some(2.5), Some(3.0)]);
        b.machine(vec![Some(1.0), Some(2.0), Some(2.0), None]);
        let large = b.build().unwrap();
        let small = simple();
        let d_large = [9.0, 7.5, 8.0, 6.25];
        let d_small = [6.0, 10.0];
        for pre in [false, true] {
            let mut filtered = DeadlineLp::default();
            for (inst, d) in [(&large, &d_large[..]), (&small, &d_small[..])] {
                build_deadline_lp_into(&mut filtered, inst, d, pre);
            }
            let fresh = build_deadline_lp(&small, &d_small, pre);
            assert_same_program(&filtered.lp, &fresh.lp);
            assert_eq!(filtered.alpha, fresh.alpha);
            let bits = |p: &[f64]| -> Vec<u64> { p.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                bits(filtered.intervals.points()),
                bits(fresh.intervals.points())
            );
        }
    }

    #[test]
    fn probe_form_shape_is_deadline_independent() {
        let inst = simple();
        let a = build_deadline_probe_lp(&inst, &[10.0, 10.0], false);
        let b = build_deadline_probe_lp(&inst, &[3.0, 7.5], false);
        assert_eq!(a.n_vars(), b.n_vars());
        assert_eq!(a.n_constraints(), b.n_constraints());
        for (ca, cb) in a.constraints().iter().zip(b.constraints()) {
            assert_eq!(ca.rel, cb.rel);
        }
    }

    #[test]
    fn preemptive_probe_is_stricter() {
        // Two machines, one job of cost 2 on each, deadline 1 after release:
        // divisible can split (half on each, done at 1); preemptive cannot
        // (the job would need 2 wall-clock units in a 1-unit window).
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0)]);
        b.machine(vec![Some(2.0)]);
        let inst = b.build().unwrap();
        let div = build_deadline_lp(&inst, &[1.0], false);
        assert_eq!(solve(&div.lp).status, LpStatus::Optimal);
        let pre = build_deadline_lp(&inst, &[1.0], true);
        assert_eq!(solve(&pre.lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn range_lp_minimizes_f_exactly() {
        // One machine, one job (r=0, w=1, c=4): optimum F* = 4.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::from_i64(4))]);
        let inst = b.build().unwrap();
        // No milestones (single job): range (0, ∞), reference 1.
        let r = build_range_lp(&inst, &Rat::zero(), None, &Rat::one(), false);
        let sol = solve(&r.lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), Rat::from_i64(4));
    }

    #[test]
    fn pack_alpha_schedule_of_an_empty_assignment_is_empty() {
        let sched = pack_alpha_schedule(&simple(), &[], &[], &[]);
        assert_eq!(sched.n_slices(), 0);
    }
}
