//! Linear-program model: variables, linear expressions, constraints.
//!
//! All variables are implicitly non-negative (`x ≥ 0`), which is exactly
//! what the paper's Systems (1), (2), (3) and (5) need: job fractions
//! `α⁽ᵗ⁾ᵢⱼ ≥ 0` and the flow objective `F ≥ 0`.

use dlflow_num::Scalar;
use std::fmt;

/// Handle to a decision variable of an [`LpProblem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's index in the problem's variable list.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint relation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rel::Le => write!(f, "<="),
            Rel::Eq => write!(f, "=="),
            Rel::Ge => write!(f, ">="),
        }
    }
}

/// A sparse linear expression `Σ coeff · var`.
#[derive(Clone, Debug)]
pub struct LinExpr<S> {
    /// `(variable, coefficient)` pairs; duplicates are summed on use.
    pub terms: Vec<(VarId, S)>,
}

impl<S: Scalar> LinExpr<S> {
    /// The empty expression (value 0).
    pub fn new() -> Self {
        LinExpr { terms: Vec::new() }
    }

    /// Single-term expression `coeff · var`.
    pub fn term(var: VarId, coeff: S) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
        }
    }

    /// Adds `coeff · var` to the expression.
    pub fn push(&mut self, var: VarId, coeff: S) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// `true` when the expression has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Collapses duplicate variables by summing their coefficients and
    /// drops exact zeros. Returns a dense coefficient vector of length
    /// `n_vars`.
    pub(crate) fn to_dense(&self, n_vars: usize) -> Vec<S> {
        let mut dense = vec![S::zero(); n_vars];
        for (v, c) in &self.terms {
            dense[v.0] = dense[v.0].add(c);
        }
        dense
    }
}

impl<S: Scalar> Default for LinExpr<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> FromIterator<(VarId, S)> for LinExpr<S> {
    fn from_iter<T: IntoIterator<Item = (VarId, S)>>(iter: T) -> Self {
        LinExpr {
            terms: iter.into_iter().collect(),
        }
    }
}

/// One linear constraint `expr rel rhs`.
#[derive(Clone, Debug)]
pub struct Constraint<S> {
    /// Left-hand side.
    pub expr: LinExpr<S>,
    /// Relation.
    pub rel: Rel,
    /// Right-hand side constant.
    pub rhs: S,
    /// Optional human-readable label (used in error/debug output).
    pub label: Option<String>,
}

/// A linear program with non-negative variables.
pub struct LpProblem<S> {
    var_names: Vec<String>,
    objective: LinExpr<S>,
    sense: Sense,
    constraints: Vec<Constraint<S>>,
    /// Rows retired by [`LpProblem::clear`], kept for their buffers'
    /// capacity and handed out again by [`LpProblem::push_row`].
    spare: Vec<Constraint<S>>,
}

impl<S: Scalar> Clone for LpProblem<S> {
    fn clone(&self) -> Self {
        LpProblem {
            var_names: self.var_names.clone(),
            objective: self.objective.clone(),
            sense: self.sense,
            constraints: self.constraints.clone(),
            spare: Vec::new(),
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for LpProblem<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LpProblem")
            .field("var_names", &self.var_names)
            .field("objective", &self.objective)
            .field("sense", &self.sense)
            .field("constraints", &self.constraints)
            .finish_non_exhaustive()
    }
}

impl<S: Scalar> LpProblem<S> {
    /// New empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            var_names: Vec::new(),
            objective: LinExpr::new(),
            sense,
            constraints: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Empties the program for a refill: no variables, no objective
    /// terms, no rows, and the given direction. Every buffer keeps its
    /// capacity; the removed rows are reused by [`LpProblem::push_row`].
    pub fn clear(&mut self, sense: Sense) {
        self.var_names.clear();
        self.objective.terms.clear();
        self.sense = sense;
        self.spare.append(&mut self.constraints);
    }

    /// Appends the row `0 rel rhs` and returns it for its expression to
    /// be filled. The row reuses the storage of one removed by
    /// [`LpProblem::clear`] when there is one.
    pub fn push_row(&mut self, rel: Rel, rhs: S) -> &mut Constraint<S> {
        let row = match self.spare.pop() {
            Some(mut c) => {
                c.expr.terms.clear();
                c.rel = rel;
                c.rhs = rhs;
                c.label = None;
                c
            }
            None => Constraint {
                expr: LinExpr::new(),
                rel,
                rhs,
                label: None,
            },
        };
        let k = self.constraints.len();
        self.constraints.push(row);
        &mut self.constraints[k]
    }

    /// Adds a non-negative variable and returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.var_names.push(name.into());
        VarId(self.var_names.len() - 1)
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, expr: LinExpr<S>) {
        self.objective = expr;
    }

    /// Empties the objective and sets its direction, keeping the buffer
    /// for [`LpProblem::objective_term`] to refill.
    pub fn reset_objective(&mut self, sense: Sense) {
        self.objective.terms.clear();
        self.sense = sense;
    }

    /// Adds `coeff · var` to the objective.
    pub fn objective_term(&mut self, var: VarId, coeff: S) {
        self.objective.push(var, coeff);
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr<S> {
        &self.objective
    }

    /// The constraint list.
    pub fn constraints(&self) -> &[Constraint<S>] {
        &self.constraints
    }

    /// The constraint list, for refilling rows in place.
    pub fn constraints_mut(&mut self) -> &mut [Constraint<S>] {
        &mut self.constraints
    }

    /// Adds a constraint `expr rel rhs`.
    pub fn add_constraint(&mut self, expr: LinExpr<S>, rel: Rel, rhs: S) {
        self.constraints.push(Constraint {
            expr,
            rel,
            rhs,
            label: None,
        });
    }

    /// Adds a labelled constraint (label shows up in pretty-printing).
    pub fn add_constraint_labelled(
        &mut self,
        label: impl Into<String>,
        expr: LinExpr<S>,
        rel: Rel,
        rhs: S,
    ) {
        self.constraints.push(Constraint {
            expr,
            rel,
            rhs,
            label: Some(label.into()),
        });
    }

    /// The same program over another scalar: same variables, rows,
    /// relations and sense, every objective coefficient, row coefficient
    /// and right-hand side converted by `f`.
    pub(crate) fn map_scalar<T: Scalar>(&self, f: impl Fn(&S) -> T) -> LpProblem<T> {
        let map_expr = |e: &LinExpr<S>| LinExpr {
            terms: e.terms.iter().map(|(v, c)| (*v, f(c))).collect(),
        };
        LpProblem {
            var_names: self.var_names.clone(),
            objective: map_expr(&self.objective),
            sense: self.sense,
            constraints: self
                .constraints
                .iter()
                .map(|c| Constraint {
                    expr: map_expr(&c.expr),
                    rel: c.rel,
                    rhs: f(&c.rhs),
                    label: c.label.clone(),
                })
                .collect(),
            spare: Vec::new(),
        }
    }

    /// Evaluates an expression at a point (dense value vector).
    pub(crate) fn eval_expr(expr: &LinExpr<S>, values: &[S]) -> S {
        let mut acc = S::zero();
        for (v, c) in &expr.terms {
            acc = acc.add(&c.mul(&values[v.0]));
        }
        acc
    }

    /// Checks whether `values` satisfies every constraint within tolerance.
    /// Returns the label/index of the first violated constraint.
    pub fn check_feasible(&self, values: &[S]) -> Result<(), String> {
        if values.len() != self.n_vars() {
            return Err(format!(
                "value vector has length {}, expected {}",
                values.len(),
                self.n_vars()
            ));
        }
        for (i, v) in values.iter().enumerate() {
            if v.is_negative_tol() {
                return Err(format!(
                    "variable {} = {} is negative",
                    self.var_names[i], v
                ));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            let lhs = Self::eval_expr(&c.expr, values);
            let ok = match c.rel {
                Rel::Le => lhs.le_tol(&c.rhs),
                Rel::Ge => lhs.ge_tol(&c.rhs),
                Rel::Eq => lhs.sub(&c.rhs).is_negligible(),
            };
            if !ok {
                let label = c.label.clone().unwrap_or_else(|| format!("#{i}"));
                return Err(format!(
                    "constraint {label} violated: {lhs} {} {}",
                    c.rel, c.rhs
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 3.0), (y, 2.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Le, 4.0);
        assert_eq!(lp.n_vars(), 2);
        assert_eq!(lp.n_constraints(), 1);
        let vals = vec![1.0, 2.0];
        assert_eq!(LpProblem::eval_expr(lp.objective(), &vals), 7.0);
        assert!(lp.check_feasible(&vals).is_ok());
        assert!(lp.check_feasible(&[3.0, 2.0]).is_err());
        assert!(lp.check_feasible(&[-1.0, 0.0]).is_err());
    }

    #[test]
    fn dense_collapses_duplicates() {
        let mut e: LinExpr<f64> = LinExpr::new();
        let v = VarId(0);
        e.push(v, 1.5).push(v, 2.5);
        assert_eq!(e.to_dense(2), vec![4.0, 0.0]);
    }

    #[test]
    fn labelled_violation_message() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        lp.add_constraint_labelled("cap", LinExpr::term(x, 1.0), Rel::Le, 1.0);
        let err = lp.check_feasible(&[2.0]).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }
}
