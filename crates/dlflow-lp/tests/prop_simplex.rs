//! Property-based tests for the simplex solver.
//!
//! Strategy: generate small random LPs with integer data, solve them with
//! both the exact-rational and the f64 instantiations, and check
//! (a) agreement of statuses and objective values (and, over `Rat`, the
//!     float-guided solve's exact agreement with the plain one),
//! (b) primal feasibility of the returned point,
//! (c) optimality against brute-force vertex enumeration in 2 variables,
//! (d) bit-identity of solves through one reused `LpWorkspace` with
//!     solves through a fresh one,
//! (e) re-optimization after a tightened row and a new objective against
//!     a cold solve of the changed program,
//! (f) the dual start (`solve_dual_in`) against the two-phase solve on
//!     programs whose slack basis is dual feasible, and re-optimization
//!     after it as in (e).

use dlflow_lp::{
    reoptimize_in, solve, solve_dual_in, solve_float_guided, solve_in, LinExpr, LpProblem,
    LpSolution, LpStatus, LpWorkspace, Rel, Sense,
};
use dlflow_num::{Rat, Scalar};
use proptest::prelude::*;
use std::cell::RefCell;
use std::fmt::Debug;

thread_local! {
    /// One workspace per scalar type for every case a test runs, so each
    /// solve starts on buffers left behind by differently shaped LPs.
    static WS_F64: RefCell<LpWorkspace<f64>> = RefCell::new(LpWorkspace::new());
    static WS_RAT: RefCell<LpWorkspace<Rat>> = RefCell::new(LpWorkspace::new());
}

/// Status, objective and values of a solution, each scalar through `key`
/// (bit patterns for `f64`), so that equality means bit-identity.
type SolutionKey<K> = (LpStatus, Option<K>, Vec<K>);

fn solution_key<S: Scalar, K>(s: &LpSolution<S>, key: &impl Fn(&S) -> K) -> SolutionKey<K> {
    (
        s.status,
        s.objective.as_ref().map(key),
        s.values.iter().map(key).collect(),
    )
}

/// Solves `p` again through the reused workspace `ws` and requires the
/// result to equal the fresh-workspace solve: same status, objective and
/// values, every scalar compared through `key`.
fn reused_workspace_matches_fresh<S: Scalar, K: PartialEq + Debug>(
    p: &LpProblem<S>,
    ws: &mut LpWorkspace<S>,
    key: impl Fn(&S) -> K,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        solution_key(&solve_in(p, ws), &key),
        solution_key(&solve(p), &key)
    );
    Ok(())
}

/// [`reused_workspace_matches_fresh`] over the shared `f64` workspace.
fn f64_reuse_is_bit_identical(p: &LpProblem<f64>) -> Result<(), TestCaseError> {
    WS_F64.with(|ws| reused_workspace_matches_fresh(p, &mut ws.borrow_mut(), |v| v.to_bits()))
}

/// [`reused_workspace_matches_fresh`] over the shared `Rat` workspace.
fn rat_reuse_is_identical(p: &LpProblem<Rat>) -> Result<(), TestCaseError> {
    WS_RAT.with(|ws| reused_workspace_matches_fresh(p, &mut ws.borrow_mut(), Rat::clone))
}

/// Random small LP over integer coefficients:
/// max cᵀx s.t. Ax ≤ b with b ≥ 0 — always feasible (x = 0) and bounded
/// when we also add Σx ≤ B.
fn build_pair(
    n: usize,
    c: &[i64],
    rows: &[Vec<i64>],
    b: &[i64],
    cap: i64,
) -> (LpProblem<f64>, LpProblem<Rat>) {
    let mut lp_f: LpProblem<f64> = LpProblem::new(Sense::Maximize);
    let mut lp_r: LpProblem<Rat> = LpProblem::new(Sense::Maximize);
    let vf: Vec<_> = (0..n).map(|i| lp_f.add_var(format!("x{i}"))).collect();
    let vr: Vec<_> = (0..n).map(|i| lp_r.add_var(format!("x{i}"))).collect();
    lp_f.set_objective(LinExpr::from_iter(
        vf.iter().zip(c).map(|(&v, &ci)| (v, ci as f64)),
    ));
    lp_r.set_objective(LinExpr::from_iter(
        vr.iter().zip(c).map(|(&v, &ci)| (v, Rat::from_i64(ci))),
    ));
    for (row, &bi) in rows.iter().zip(b) {
        lp_f.add_constraint(
            LinExpr::from_iter(vf.iter().zip(row).map(|(&v, &a)| (v, a as f64))),
            Rel::Le,
            bi as f64,
        );
        lp_r.add_constraint(
            LinExpr::from_iter(vr.iter().zip(row).map(|(&v, &a)| (v, Rat::from_i64(a)))),
            Rel::Le,
            Rat::from_i64(bi),
        );
    }
    // Bounding box keeps everything bounded.
    lp_f.add_constraint(
        LinExpr::from_iter(vf.iter().map(|&v| (v, 1.0))),
        Rel::Le,
        cap as f64,
    );
    lp_r.add_constraint(
        LinExpr::from_iter(vr.iter().map(|&v| (v, Rat::one()))),
        Rel::Le,
        Rat::from_i64(cap),
    );
    (lp_f, lp_r)
}

/// Solves `p` by `first_solve` through a fresh workspace, tightens the
/// row with the largest slack at the optimum (so its slack is basic) by
/// `cut`/4 of that slack, replaces the objective by `c` under `sense`,
/// and requires `reoptimize_in` to reach a cold solve's status and an
/// objective that `same` accepts, at a feasible point. Returns whether a
/// row had slack.
fn reoptimized_matches_cold<S: Scalar>(
    p: &LpProblem<S>,
    first_solve: impl Fn(&LpProblem<S>, &mut LpWorkspace<S>) -> LpSolution<S>,
    (c, sense): (&[i64], Sense),
    cut: i64,
    same: impl Fn(&S, &S) -> bool,
) -> Result<bool, TestCaseError> {
    let mut ws = LpWorkspace::new();
    let first = first_solve(p, &mut ws);
    prop_assert_eq!(first.status, LpStatus::Optimal);
    let slack = |row: &dlflow_lp::Constraint<S>| {
        let lhs = row.expr.terms.iter().fold(S::zero(), |acc, (v, a)| {
            acc.add(&a.mul(&first.values[v.index()]))
        });
        row.rhs.sub(&lhs)
    };
    let Some((k, s_k)) = p
        .constraints()
        .iter()
        .map(slack)
        .enumerate()
        .filter(|(_, s)| s.is_positive_tol())
        .max_by(|a, b| a.1.cmp_total(&b.1))
    else {
        return Ok(false);
    };
    let mut changed = p.clone();
    let row = &mut changed.constraints_mut()[k];
    row.rhs = row
        .rhs
        .sub(&s_k.mul(&S::from_i64(cut)).div(&S::from_i64(4)));
    changed.reset_objective(sense);
    // The old objective names every variable, in order.
    for ((v, _), &cj) in p.objective().terms.iter().zip(c) {
        changed.objective_term(*v, S::from_i64(cj));
    }
    let re = reoptimize_in(&changed, &mut ws);
    prop_assert!(re.is_some(), "refused a row whose slack is basic");
    let (re, cold) = (re.unwrap(), solve(&changed));
    prop_assert_eq!(re.status, cold.status);
    let (got, want) = (re.objective.unwrap(), cold.objective.unwrap());
    prop_assert!(same(&got, &want), "re-optimized {:?}, cold {:?}", got, want);
    prop_assert!(changed.check_feasible(&re.values).is_ok());
    Ok(true)
}

/// `f64` objectives agree to 1e-9 relative (absolute below 1).
fn f64_close(a: &f64, b: &f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// The integer data of a program whose slack-plus-last-term basis is
/// dual feasible (see [`dual_startable`]).
struct DualData<'a> {
    /// Costs of the `n` shared variables, all `≥ 0`.
    c: &'a [i64],
    /// Inequality rows as (is `≥`, coefficients over every variable,
    /// right-hand side of either sign).
    ineq: Vec<(bool, &'a [i64], i64)>,
    /// Equality rows as (coefficients over the shared variables, the
    /// coefficient of the row's own last variable, right-hand side).
    eq: Vec<(&'a [i64], i64, i64)>,
    /// Right-hand side of `Σ x ≤ cap` over every variable.
    cap: i64,
    /// Maximize `−c·x` instead of minimizing `c·x`.
    maximize: bool,
}

/// The program of `d` over `S`: minimize `c·x` (or maximize `−c·x`)
/// over the shared variables and one more variable per equality row,
/// which ends that row, appears in no other, and costs nothing. Every
/// reduced cost at the slack-plus-last-term basis is then a cost `≥ 0`,
/// and each last term keeps its entry while the rows above it pivot, so
/// the dual start has its basis.
fn dual_startable<S: Scalar>(d: &DualData<'_>) -> LpProblem<S> {
    let k = S::from_i64;
    let sense = if d.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut lp: LpProblem<S> = LpProblem::new(sense);
    let shared: Vec<_> = (0..d.c.len())
        .map(|i| lp.add_var(format!("x{i}")))
        .collect();
    let own: Vec<_> = (0..d.eq.len())
        .map(|i| lp.add_var(format!("e{i}")))
        .collect();
    let sign = if d.maximize { -1 } else { 1 };
    lp.set_objective(LinExpr::from_iter(
        shared.iter().zip(d.c).map(|(&v, &ci)| (v, k(sign * ci))),
    ));
    let all: Vec<_> = shared.iter().chain(&own).copied().collect();
    for &(ge, a, rhs) in &d.ineq {
        let rel = if ge { Rel::Ge } else { Rel::Le };
        lp.add_constraint(
            LinExpr::from_iter(all.iter().zip(a).map(|(&v, &ai)| (v, k(ai)))),
            rel,
            k(rhs),
        );
    }
    lp.add_constraint(
        LinExpr::from_iter(all.iter().map(|&v| (v, k(1)))),
        Rel::Le,
        k(d.cap),
    );
    for (&e, &(a, last, rhs)) in own.iter().zip(&d.eq) {
        let mut expr = LinExpr::from_iter(shared.iter().zip(a).map(|(&v, &ai)| (v, k(ai))));
        expr.push(e, k(last));
        lp.add_constraint(expr, Rel::Eq, k(rhs));
    }
    lp
}

/// [`solve_dual_in`] on a program built by [`dual_startable`], where it
/// serves.
fn dual_in<S: Scalar>(p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> LpSolution<S> {
    solve_dual_in(p, ws).expect("the dual start serves")
}

/// Requires the dual start on `p` to serve, through the shared workspace
/// `ws` bit for bit (under `key`) as through a fresh one, and to reach
/// the two-phase solve's status and an objective that `same` accepts, at
/// a feasible point. Returns that status.
fn dual_start_serves_like_two_phase<S: Scalar, K: PartialEq + Debug>(
    p: &LpProblem<S>,
    ws: &mut LpWorkspace<S>,
    same: impl Fn(&S, &S) -> bool,
    key: impl Fn(&S) -> K,
) -> Result<LpStatus, TestCaseError> {
    let dual = solve_dual_in(p, ws);
    prop_assert!(
        dual.is_some(),
        "the dual start refused a dual-feasible start"
    );
    let dual = dual.unwrap();
    let fresh = solve_dual_in(p, &mut LpWorkspace::new()).expect("served through ws");
    prop_assert_eq!(solution_key(&dual, &key), solution_key(&fresh, &key));
    let cold = solve(p);
    prop_assert_eq!(dual.status, cold.status);
    if let (Some(got), Some(want)) = (&dual.objective, &cold.objective) {
        prop_assert!(
            same(got, want),
            "dual start {:?}, two-phase {:?}",
            got,
            want
        );
        prop_assert!(p.check_feasible(&dual.values).is_ok());
    }
    Ok(dual.status)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On programs whose slack-plus-last-term basis is dual feasible the
    /// dual start serves and reaches the two-phase status and objective,
    /// exactly over `Rat` and within 1e-9 relative over `f64`; after it,
    /// tightening a row whose slack is basic and replacing the objective
    /// re-optimizes to a cold solve's status and objective.
    #[test]
    fn dual_start_matches_two_phase(
        c in proptest::collection::vec(0i64..=5, 3),
        n in 1usize..4,
        rels in proptest::collection::vec(0u8..2, 3),
        m in 1usize..4,
        a in proptest::collection::vec(-4i64..=6, 15),
        b in proptest::collection::vec(-6i64..=10, 3),
        eq_a in proptest::collection::vec(-2i64..=3, 6),
        eq_last in proptest::collection::vec(1i64..=3, 2),
        eq_b in proptest::collection::vec(0i64..=8, 2),
        n_eq in 0usize..3,
        cap in 1i64..=20,
        maximize in 0u8..2,
        new_c in proptest::collection::vec(-5i64..=5, 5),
        minimize_next in 0u8..2,
        cut in 0i64..=4,
    ) {
        let width = n + n_eq;
        let d = DualData {
            c: &c[..n],
            ineq: (0..m).map(|i| (rels[i] == 1, &a[i * 5..i * 5 + width], b[i])).collect(),
            eq: (0..n_eq).map(|r| (&eq_a[r * 3..r * 3 + n], eq_last[r], eq_b[r])).collect(),
            cap,
            maximize: maximize == 1,
        };
        let (lp_r, lp_f) = (dual_startable::<Rat>(&d), dual_startable::<f64>(&d));
        let exact = WS_RAT.with(|ws| {
            dual_start_serves_like_two_phase(&lp_r, &mut ws.borrow_mut(), |a, b| a == b, Rat::clone)
        })?;
        let float = WS_F64.with(|ws| {
            dual_start_serves_like_two_phase(&lp_f, &mut ws.borrow_mut(), f64_close, |v| v.to_bits())
        })?;
        prop_assert_eq!(exact, float);
        if exact == LpStatus::Optimal {
            let next = (&new_c[..width], if minimize_next == 1 { Sense::Minimize } else { Sense::Maximize });
            reoptimized_matches_cold(&lp_r, dual_in, next, cut, |a, b| a == b)?;
            reoptimized_matches_cold(&lp_f, dual_in, next, cut, f64_close)?;
        }
    }

    /// Tighten a row whose slack is basic and replace the objective: the
    /// re-optimized status and objective equal a cold solve's, exactly
    /// over `Rat` and within 1e-9 relative over `f64`.
    #[test]
    fn reoptimizing_matches_a_cold_solve(
        n in 1usize..4,
        m in 1usize..4,
        seed_c in proptest::collection::vec(-5i64..=5, 3),
        seed_a in proptest::collection::vec(-4i64..=6, 9),
        seed_b in proptest::collection::vec(0i64..=10, 3),
        cap in 1i64..=20,
        new_c in proptest::collection::vec(-5i64..=5, 3),
        minimize in 0u8..2,
        cut in 0i64..=4,
    ) {
        let rows: Vec<Vec<i64>> = (0..m).map(|i| (0..n).map(|j| seed_a[(i * 3 + j) % 9]).collect()).collect();
        let (lp_f, lp_r) = build_pair(n, &seed_c[..n], &rows, &seed_b[..m], cap);
        let sense = if minimize == 1 { Sense::Minimize } else { Sense::Maximize };
        let exact = reoptimized_matches_cold(&lp_r, solve_in, (&new_c, sense), cut, |a, b| a == b)?;
        let float = reoptimized_matches_cold(&lp_f, solve_in, (&new_c, sense), cut, f64_close)?;
        prop_assert_eq!(exact, float, "a row has slack in one scalar only");
    }

    #[test]
    fn f64_and_exact_agree(
        n in 1usize..4,
        m in 1usize..4,
        seed_c in proptest::collection::vec(-5i64..=5, 3),
        seed_a in proptest::collection::vec(-4i64..=6, 9),
        seed_b in proptest::collection::vec(0i64..=10, 3),
        cap in 1i64..=20,
    ) {
        let c: Vec<i64> = seed_c[..n].to_vec();
        let rows: Vec<Vec<i64>> = (0..m).map(|i| (0..n).map(|j| seed_a[(i * 3 + j) % 9]).collect()).collect();
        let b: Vec<i64> = seed_b[..m].to_vec();
        let (lp_f, lp_r) = build_pair(n, &c, &rows, &b, cap);
        let sf = solve(&lp_f);
        let sr = solve(&lp_r);
        // Feasible (x = 0) and bounded by construction.
        prop_assert_eq!(sf.status, LpStatus::Optimal);
        prop_assert_eq!(sr.status, LpStatus::Optimal);
        let of = sf.objective.unwrap();
        let or = sr.objective.as_ref().unwrap().to_f64();
        prop_assert!((of - or).abs() < 1e-6, "objectives disagree: f64={of}, exact={or}");
        // Returned points must be primal feasible.
        prop_assert!(lp_f.check_feasible(&sf.values).is_ok());
        prop_assert!(lp_r.check_feasible(&sr.values).is_ok());
        // The float guide may pick another optimal vertex, never another
        // verdict or optimum.
        let sg = solve_float_guided(&lp_r).solution;
        prop_assert_eq!(sg.status, sr.status);
        prop_assert_eq!(sg.objective, sr.objective);
        prop_assert!(lp_r.check_feasible(&sg.values).is_ok());
        f64_reuse_is_bit_identical(&lp_f)?;
        rat_reuse_is_identical(&lp_r)?;
    }

    #[test]
    fn two_var_matches_vertex_enumeration(
        c0 in -5i64..=5, c1 in -5i64..=5,
        a in proptest::collection::vec((-4i64..=6, -4i64..=6, 0i64..=12), 1..4),
    ) {
        // max c·x over {x ≥ 0, a_i·x ≤ b_i, x0 + x1 ≤ 15}
        let mut rows: Vec<Vec<i64>> = a.iter().map(|&(p, q, _)| vec![p, q]).collect();
        let mut b: Vec<i64> = a.iter().map(|&(_, _, r)| r).collect();
        rows.push(vec![1, 1]);
        b.push(15);
        let (lp_f, lp_r) = build_pair(2, &[c0, c1], &rows[..rows.len() - 1], &b[..b.len() - 1], 15);
        let sol = solve(&lp_f);
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        let got = sol.objective.unwrap();
        f64_reuse_is_bit_identical(&lp_f)?;
        rat_reuse_is_identical(&lp_r)?;

        // Brute force: enumerate pairwise constraint intersections
        // (including axes) and keep feasible ones.
        let mut lines: Vec<(f64, f64, f64)> = rows
            .iter()
            .zip(&b)
            .map(|(r, &bi)| (r[0] as f64, r[1] as f64, bi as f64))
            .collect();
        lines.push((1.0, 0.0, 0.0)); // x0 = 0  (as ≥, handled via equality here)
        lines.push((0.0, 1.0, 0.0)); // x1 = 0
        let feasible = |x: f64, y: f64| -> bool {
            x >= -1e-7 && y >= -1e-7
                && rows.iter().zip(&b).all(|(r, &bi)| r[0] as f64 * x + r[1] as f64 * y <= bi as f64 + 1e-7)
        };
        let mut best = f64::NEG_INFINITY;
        if feasible(0.0, 0.0) {
            best = 0.0;
        }
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (a1, b1, c1l) = lines[i];
                let (a2, b2, c2l) = lines[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() < 1e-12 {
                    continue;
                }
                let x = (c1l * b2 - c2l * b1) / det;
                let y = (a1 * c2l - a2 * c1l) / det;
                if feasible(x, y) {
                    best = best.max(c0 as f64 * x + c1 as f64 * y);
                }
            }
        }
        prop_assert!((got - best).abs() < 1e-5, "simplex={got} brute={best}");
    }

    #[test]
    fn exact_solution_is_truly_optimal_vs_perturbation(
        c in proptest::collection::vec(1i64..=5, 2),
        b in proptest::collection::vec(1i64..=10, 2),
    ) {
        // max c·x s.t. x_i ≤ b_i: optimum is c·b, trivially checkable.
        let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Maximize);
        let xs: Vec<_> = (0..2).map(|i| lp.add_var(format!("x{i}"))).collect();
        lp.set_objective(LinExpr::from_iter(xs.iter().zip(&c).map(|(&v, &ci)| (v, Rat::from_i64(ci)))));
        for (&v, &bi) in xs.iter().zip(&b) {
            lp.add_constraint(LinExpr::term(v, Rat::one()), Rel::Le, Rat::from_i64(bi));
        }
        let sol = solve(&lp);
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        let expect = Rat::from_i64(c[0] * b[0] + c[1] * b[1]);
        prop_assert_eq!(sol.objective.unwrap(), expect);
        rat_reuse_is_identical(&lp)?;
    }
}
