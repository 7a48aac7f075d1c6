//! Two-phase primal simplex on the dense tableau — the seed solver, kept
//! as the slow-but-simple **reference oracle** for the default revised
//! simplex in [`crate::revised`] (exported as [`crate::solve_dense`]).
//!
//! * Entering/leaving variables follow **Bland's rule**, which guarantees
//!   termination (no cycling) — essential for the exact-rational instantiation
//!   where a cycling pivot rule would loop forever rather than drift out of
//!   degeneracy by rounding.
//! * Phase 1 minimizes the sum of artificial variables; a strictly positive
//!   phase-1 optimum certifies infeasibility. Artificial variables left in
//!   the basis at level zero are pivoted out (or their redundant rows
//!   dropped) before phase 2.
//! * Generic over [`Scalar`]: `f64` (tolerance 1e-9) or `Rat` (exact).

use crate::problem::{LpProblem, Rel, Sense};
use crate::solution::LpSolution;
use dlflow_num::Scalar;

/// Hard cap on simplex pivots, as a defence against implementation bugs:
/// Bland's rule terminates, so hitting the cap is a panic, not a result.
const MAX_PIVOTS_FACTOR: usize = 2000;

/// Solves the problem, returning status, optimal value and a primal point.
pub fn solve<S: Scalar>(problem: &LpProblem<S>) -> LpSolution<S> {
    Tableau::build(problem).solve(problem)
}

struct Tableau<S> {
    /// `rows × cols` constraint matrix (current basis representation).
    a: Vec<Vec<S>>,
    /// Right-hand side, kept non-negative.
    b: Vec<S>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Number of structural (original) variables.
    n_struct: usize,
    /// Total columns (structural + slack/surplus + artificial).
    n_total: usize,
    /// Column index where artificial variables start (== n_total when none).
    art_start: usize,
}

impl<S: Scalar> Tableau<S> {
    /// Converts the problem to standard form `Ax = b, x ≥ 0, b ≥ 0` with
    /// slack/surplus and artificial columns, and an identity starting basis.
    fn build(p: &LpProblem<S>) -> Tableau<S> {
        let m = p.n_constraints();
        let n = p.n_vars();

        // Count extra columns.
        let mut n_slack = 0;
        for c in p.constraints() {
            if c.rel != Rel::Eq {
                n_slack += 1;
            }
        }

        // Rows needing an artificial: Eq rows, and Le/Ge rows whose slack
        // coefficient ends up -1 after sign normalization.
        let mut rows: Vec<(Vec<S>, S, Option<usize>)> = Vec::with_capacity(m); // (dense row, rhs, slack col)
        let mut slack_idx = 0usize;
        let mut needs_art = Vec::with_capacity(m);
        for c in p.constraints() {
            let mut dense = c.expr.to_dense(n);
            let mut rhs = c.rhs.clone();
            let mut rel = c.rel;
            // Normalize rhs ≥ 0.
            if rhs.is_negative_tol() {
                for d in dense.iter_mut() {
                    *d = d.neg();
                }
                rhs = rhs.neg();
                rel = match rel {
                    Rel::Le => Rel::Ge,
                    Rel::Ge => Rel::Le,
                    Rel::Eq => Rel::Eq,
                };
            }
            let (slack, art) = match rel {
                Rel::Le => (Some((slack_idx, S::one())), false),
                Rel::Ge => (Some((slack_idx, S::one().neg())), true),
                Rel::Eq => (None, true),
            };
            if slack.is_some() {
                slack_idx += 1;
            }
            needs_art.push(art);
            // Record: we stash the slack column index + sign in place of Option<usize>
            // by extending later; temporarily keep dense/rhs.
            rows.push((
                dense,
                rhs,
                slack.map(|(i, s)| {
                    // encode sign in the coefficient during assembly below
                    // (positive => basic slack candidate)
                    debug_assert!(s == S::one() || s == S::one().neg());
                    if s == S::one() {
                        i << 1
                    } else {
                        (i << 1) | 1
                    }
                }),
            ));
        }
        debug_assert_eq!(n_slack, slack_idx);

        let n_art: usize = needs_art.iter().filter(|&&x| x).count();
        let art_start = n + n_slack;
        let n_total = art_start + n_art;

        let mut a = vec![vec![S::zero(); n_total]; m];
        let mut b = vec![S::zero(); m];
        let mut basis = vec![usize::MAX; m];
        let mut art_idx = art_start;

        for (i, (dense, rhs, slack_code)) in rows.into_iter().enumerate() {
            for (j, v) in dense.into_iter().enumerate() {
                a[i][j] = v;
            }
            b[i] = rhs;
            if let Some(code) = slack_code {
                let col = n + (code >> 1);
                let positive = code & 1 == 0;
                a[i][col] = if positive { S::one() } else { S::one().neg() };
                if positive {
                    basis[i] = col; // slack starts basic
                }
            }
            if needs_art[i] {
                a[i][art_idx] = S::one();
                basis[i] = art_idx; // artificial starts basic
                art_idx += 1;
            }
            debug_assert_ne!(basis[i], usize::MAX);
        }

        Tableau {
            a,
            b,
            basis,
            n_struct: n,
            n_total,
            art_start,
        }
    }

    fn solve(mut self, p: &LpProblem<S>) -> LpSolution<S> {
        // --- Phase 1: minimize the sum of artificials. ---
        if self.art_start < self.n_total {
            let mut cost = vec![S::zero(); self.n_total];
            for c in cost.iter_mut().skip(self.art_start) {
                *c = S::one();
            }
            let (r, mut z) = self.reduced_costs(&cost);
            let mut r = r;
            if !self.run_simplex(&mut r, &mut z) {
                // Phase-1 objective is bounded below by 0; unbounded is a bug.
                unreachable!("phase-1 simplex reported unbounded");
            }
            // z now holds -(phase-1 optimum); optimum = -z.
            let phase1_opt = z.neg();
            if phase1_opt.is_positive_tol() {
                return LpSolution::infeasible(p.n_vars());
            }
            self.purge_artificials();
        }

        // --- Phase 2: original objective. ---
        let mut cost = vec![S::zero(); self.n_total];
        let dense_obj = p.objective().to_dense(self.n_struct);
        let negate = p.sense() == Sense::Maximize;
        for (j, v) in dense_obj.into_iter().enumerate() {
            cost[j] = if negate { v.neg() } else { v };
        }
        let (mut r, mut z) = self.reduced_costs(&cost);
        if !self.run_simplex(&mut r, &mut z) {
            return LpSolution::unbounded(p.n_vars());
        }

        // Extract the primal point.
        let mut values = vec![S::zero(); p.n_vars()];
        for (i, &bv) in self.basis.iter().enumerate() {
            if bv < self.n_struct {
                values[bv] = self.b[i].clone();
            }
        }
        // z holds -(min cᵀx); objective value in the user's sense:
        let min_val = z.neg();
        let objective = if negate { min_val.neg() } else { min_val };
        LpSolution::optimal(objective, values)
    }

    /// Computes reduced costs `r_j = c_j − c_B · B⁻¹A_j` for the current
    /// basis and the negative of the current objective value.
    fn reduced_costs(&self, cost: &[S]) -> (Vec<S>, S) {
        let mut r = cost.to_vec();
        let mut z = S::zero();
        for (i, &bv) in self.basis.iter().enumerate() {
            let cb = &cost[bv];
            if cb.is_negligible() {
                continue;
            }
            for j in 0..self.n_total {
                r[j] = r[j].sub(&cb.mul(&self.a[i][j]));
            }
            z = z.sub(&cb.mul(&self.b[i]));
        }
        (r, z)
    }

    /// Runs simplex iterations with Bland's rule until optimal (`true`) or
    /// unbounded (`false`). `r` is the reduced-cost row, `z` the negated
    /// objective value; both are updated in place.
    fn run_simplex(&mut self, r: &mut [S], z: &mut S) -> bool {
        let m = self.a.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        for _ in 0..max_pivots {
            // Bland: entering = smallest-index column with r_j < 0.
            let Some(enter) = (0..self.n_total).find(|&j| r[j].is_negative_tol()) else {
                return true; // optimal
            };
            // Ratio test; Bland tie-break on smallest basis variable index.
            let mut best: Option<(S, usize)> = None;
            for i in 0..m {
                if self.a[i][enter].is_positive_tol() {
                    let ratio = self.b[i].div(&self.a[i][enter]);
                    let better = match &best {
                        None => true,
                        Some((cur, l)) => {
                            ratio.lt_tol(cur)
                                || (!ratio.gt_tol(cur) && self.basis[i] < self.basis[*l])
                        }
                    };
                    if better {
                        best = Some((ratio, i));
                    }
                }
            }
            let Some((_, leave)) = best else {
                return false; // unbounded
            };
            self.pivot(leave, enter, r, z);
        }
        // dlflint:allow(hot-path-panic, "pivot-cap backstop: Bland's rule cannot cycle, so this is unreachable outside a solver bug")
        panic!("simplex exceeded pivot cap — this indicates a bug (Bland's rule cannot cycle)");
    }

    /// Pivots on `(row, col)`: `col` enters the basis, the current basic
    /// variable of `row` leaves.
    fn pivot(&mut self, row: usize, col: usize, r: &mut [S], z: &mut S) {
        let piv = self.a[row][col].clone();
        debug_assert!(piv.is_positive_tol());
        // Normalize pivot row.
        for j in 0..self.n_total {
            self.a[row][j] = self.a[row][j].div(&piv);
        }
        self.b[row] = self.b[row].div(&piv);
        self.a[row][col] = S::one(); // exact

        // Eliminate the column from all other rows.
        for i in 0..self.a.len() {
            if i == row {
                continue;
            }
            let f = self.a[i][col].clone();
            if f.is_negligible() {
                self.a[i][col] = S::zero();
                continue;
            }
            for j in 0..self.n_total {
                self.a[i][j] = self.a[i][j].sub(&f.mul(&self.a[row][j]));
            }
            self.b[i] = self.b[i].sub(&f.mul(&self.b[row]));
            self.a[i][col] = S::zero(); // exact
            if self.b[i].is_negligible() {
                self.b[i] = S::zero();
            }
        }
        // Eliminate from the reduced-cost row.
        let f = r[col].clone();
        if !f.is_negligible() {
            for j in 0..self.n_total {
                r[j] = r[j].sub(&f.mul(&self.a[row][j]));
            }
            *z = z.sub(&f.mul(&self.b[row]));
            r[col] = S::zero();
        }
        self.basis[row] = col;
    }

    /// After phase 1: pivot zero-level artificials out of the basis, drop
    /// rows that prove redundant, and delete artificial columns.
    fn purge_artificials(&mut self) {
        let mut row = 0;
        while row < self.a.len() {
            if self.basis[row] >= self.art_start {
                // With exact arithmetic a basic artificial is exactly 0 here
                // (phase-1 optimum is 0). With floats its value is bounded by
                // the accepted phase-1 residual, i.e. noise on the order of
                // the tolerance; the degenerate pivot below keeps it bounded.
                // Find any non-artificial column with a nonzero entry.
                let col = (0..self.art_start).find(|&j| !self.a[row][j].is_negligible());
                match col {
                    Some(col) => {
                        // Degenerate pivot (b[row] == 0): keeps b ≥ 0 regardless
                        // of the entry's sign, so no ratio test is needed.
                        let piv = self.a[row][col].clone();
                        for j in 0..self.n_total {
                            self.a[row][j] = self.a[row][j].div(&piv);
                        }
                        self.b[row] = self.b[row].div(&piv);
                        for i in 0..self.a.len() {
                            if i == row {
                                continue;
                            }
                            let f = self.a[i][col].clone();
                            if f.is_negligible() {
                                continue;
                            }
                            for j in 0..self.n_total {
                                self.a[i][j] = self.a[i][j].sub(&f.mul(&self.a[row][j]));
                            }
                            self.b[i] = self.b[i].sub(&f.mul(&self.b[row]));
                        }
                        self.basis[row] = col;
                        row += 1;
                    }
                    None => {
                        // Entire row is zero on structural+slack columns: redundant.
                        self.a.swap_remove(row);
                        self.b.swap_remove(row);
                        self.basis.swap_remove(row);
                    }
                }
            } else {
                row += 1;
            }
        }
        // Remove artificial columns.
        for r in self.a.iter_mut() {
            r.truncate(self.art_start);
        }
        self.n_total = self.art_start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinExpr;
    use crate::solution::LpStatus;
    use dlflow_num::Rat;

    fn lp_f64(sense: Sense) -> LpProblem<f64> {
        LpProblem::new(sense)
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2, 6).
        let mut lp = lp_f64(Sense::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 3.0), (y, 5.0)]));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 4.0);
        lp.add_constraint(LinExpr::term(y, 2.0), Rel::Le, 12.0);
        lp.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 2.0)]), Rel::Le, 18.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 36.0).abs() < 1e-9);
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
        assert!((sol.values[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn textbook_min_with_ge() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → opt 20 at (10, 0).
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 2.0), (y, 3.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Ge, 10.0);
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 2.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x − y = 1 → x = 2, y = 1, opt 3.
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 1.0), (y, 1.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 2.0)]), Rel::Eq, 4.0);
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, -1.0)]), Rel::Eq, 1.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
        assert!((sol.values[1] - 1.0).abs() < 1e-9);
        assert!((sol.objective.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 1.0);
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 2.0);
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = lp_f64(Sense::Maximize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 1.0);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x − y ≤ −2 with min x: needs rhs flip; opt x = 0 (y ≥ 2 free to grow).
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, -1.0)]), Rel::Le, -2.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn beale_cycling_instance_terminates() {
        // Beale's classic cycling example; Bland's rule must terminate.
        // min -0.75x4 + 150x5 - 0.02x6 + 6x7
        // s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 ≤ 0
        //      0.5x4 - 90x5 - 0.02x6 + 3x7 ≤ 0
        //      x6 ≤ 1
        let mut lp = lp_f64(Sense::Minimize);
        let x4 = lp.add_var("x4");
        let x5 = lp.add_var("x5");
        let x6 = lp.add_var("x6");
        let x7 = lp.add_var("x7");
        lp.set_objective(LinExpr::from_iter([
            (x4, -0.75),
            (x5, 150.0),
            (x6, -0.02),
            (x7, 6.0),
        ]));
        lp.add_constraint(
            LinExpr::from_iter([(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)]),
            Rel::Le,
            0.0,
        );
        lp.add_constraint(
            LinExpr::from_iter([(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)]),
            Rel::Le,
            0.0,
        );
        lp.add_constraint(LinExpr::term(x6, 1.0), Rel::Le, 1.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - (-0.05)).abs() < 1e-9);
    }

    #[test]
    fn exact_rational_solution() {
        // max x + y s.t. 3x + y ≤ 1, x + 3y ≤ 1 → x = y = 1/4, opt 1/2.
        let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, Rat::one()), (y, Rat::one())]));
        lp.add_constraint(
            LinExpr::from_iter([(x, Rat::from_i64(3)), (y, Rat::one())]),
            Rel::Le,
            Rat::one(),
        );
        lp.add_constraint(
            LinExpr::from_iter([(x, Rat::one()), (y, Rat::from_i64(3))]),
            Rel::Le,
            Rat::one(),
        );
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), Rat::from_ratio(1, 2));
        assert_eq!(sol.values[0], Rat::from_ratio(1, 4));
        assert_eq!(sol.values[1], Rat::from_ratio(1, 4));
    }

    #[test]
    fn degenerate_equality_with_redundant_row() {
        // Redundant equalities exercise the purge path that drops rows.
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 1.0), (y, 1.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 2.0)]), Rel::Eq, 4.0); // 2× the first
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        // Pure feasibility: empty objective, consistent constraints.
        let mut lp = lp_f64(Sense::Minimize);
        let x = lp.add_var("x");
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Eq, 5.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[0] - 5.0).abs() < 1e-9);
    }
}
