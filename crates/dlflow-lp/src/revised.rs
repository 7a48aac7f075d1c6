//! Sparse-column revised simplex — the default solver.
//!
//! The paper's LPs (Systems (1), (2), (3), (5)) are extremely sparse:
//! every `α⁽ᵗ⁾ᵢⱼ` variable appears in at most three constraints. The seed
//! solver kept a dense `rows × cols` tableau and touched every cell on
//! every pivot; this module stores the tableau **column-wise** as sorted
//! `(row, value)` pairs and skips structural zeros in pivoting, pricing
//! and the ratio test.
//!
//! * **Pricing**: Dantzig (most negative reduced cost) by default — fast
//!   in practice but can cycle on degenerate bases. After
//!   `DEGENERACY_STREAK` consecutive pivots without objective progress
//!   the solver switches to **Bland's rule** until progress resumes,
//!   which restores the termination guarantee (exactness over `Rat` makes
//!   "no progress" detectable without tolerances).
//! * **Warm starts**: [`solve_warm`] accepts the optimal basis of a
//!   structurally identical LP (same variables, same constraint
//!   relations). The basis is re-realized by Gaussian pivoting — skipping
//!   phase 1 outright — and primal feasibility is reinstated by a bounded
//!   **dual simplex** repair (valid whenever the warm basis is dual
//!   feasible, which always holds for pure feasibility probes with a zero
//!   objective). On any mismatch or failure it falls back to a cold solve.
//! * **Float guides**: [`solve_float_guided`] solves an `f64` copy of an
//!   exact problem and hands only its optimal basis to the exact warm
//!   path, so the exact solve starts at (or next to) the optimum instead
//!   of pivoting there in rational arithmetic.
//! * **Workspaces**: every tableau takes its buffers from an
//!   [`LpWorkspace`] and hands them back when the solve ends, so a caller
//!   that solves many programs in a row ([`solve_in`]) stops allocating
//!   once the buffers have grown. A workspace holds capacity only: every
//!   solve starts from the same logical state as a fresh one, so it runs
//!   the same pivots on the same operands. [`solve`] and [`solve_warm`]
//!   use a fresh workspace.
//!
//! The seed's dense two-phase solver survives as `solve_dense`
//! ([`crate::simplex::solve`]) and is the reference oracle in the
//! property tests.

use crate::problem::{LinExpr, LpProblem, Rel, Sense};
use crate::solution::LpSolution;
use dlflow_num::Scalar;
use std::mem;

/// Hard cap on simplex pivots, as a defence against implementation bugs.
const MAX_PIVOTS_FACTOR: usize = 2000;

/// Consecutive degenerate (no-progress) pivots tolerated under Dantzig
/// pricing before switching to Bland's anti-cycling rule.
const DEGENERACY_STREAK: usize = 1;

/// A reusable snapshot of an optimal basis, for warm-starting the solve
/// of a *structurally identical* problem (same variable count, same
/// constraint relations in the same order) whose coefficients or
/// right-hand sides changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WarmBasis {
    n_vars: usize,
    rels: Vec<Rel>,
    /// Basic column per row, in the structural+slack column space.
    basis: Vec<usize>,
}

impl WarmBasis {
    /// `true` when this basis can seed a solve of `p`.
    pub fn compatible_with<S: Scalar>(&self, p: &LpProblem<S>) -> bool {
        self.n_vars == p.n_vars()
            && self.rels.len() == p.n_constraints()
            && p.constraints()
                .iter()
                .zip(&self.rels)
                .all(|(c, r)| c.rel == *r)
    }
}

/// Result of [`solve_warm`]: the solution, a basis snapshot for the next
/// warm start (present iff the solve ended optimal), and whether the
/// provided hint was actually used.
#[derive(Clone, Debug)]
pub struct WarmSolve<S> {
    /// The LP solution.
    pub solution: LpSolution<S>,
    /// Basis snapshot to seed the next structurally identical solve.
    pub basis: Option<WarmBasis>,
    /// `true` iff the hint was compatible and the warm path succeeded.
    pub warm_used: bool,
}

/// Reusable buffers for the sparse revised simplex: tableau columns,
/// right-hand side, basis, pivot row and column, merge scratch, cost and
/// reduced-cost vectors, and row flags.
///
/// A solve takes the buffers it needs and returns them when it ends, so
/// repeated solves through one workspace stop allocating once capacity
/// has grown to the largest program seen. Only capacity survives a
/// solve; the next one starts from the same logical state as with a
/// fresh workspace, so results are bit-identical either way.
pub struct LpWorkspace<S> {
    /// Storage of the last retired tableau.
    tab: Tab<S>,
    /// Cost vector of the running phase.
    cost: Vec<S>,
    /// Reduced costs.
    r: Vec<S>,
    /// Basic costs (scratch of `Tab::reduced_costs`).
    cb: Vec<S>,
    /// Per-row flags: sign flips of a cold build, realized rows of a
    /// warm one.
    flags: Vec<bool>,
    /// Bases handed back by [`LpWorkspace::recycle_basis`], refilled by
    /// the next basis snapshots.
    bases: Vec<WarmBasis>,
}

impl<S> LpWorkspace<S> {
    /// An empty workspace (allocates nothing until first used).
    pub fn new() -> Self {
        LpWorkspace {
            tab: Tab::default(),
            cost: Vec::new(),
            r: Vec::new(),
            cb: Vec::new(),
            flags: Vec::new(),
            bases: Vec::new(),
        }
    }

    /// Hands a basis snapshot back, so that a later solve through this
    /// workspace refills its buffers instead of allocating new ones.
    pub fn recycle_basis(&mut self, basis: WarmBasis) {
        self.bases.push(basis);
    }
}

impl<S> Default for LpWorkspace<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for LpWorkspace<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LpWorkspace")
            .field("columns", &self.tab.cols.len())
            .finish_non_exhaustive()
    }
}

/// Solves the problem with the sparse revised simplex (cold start).
pub fn solve<S: Scalar>(problem: &LpProblem<S>) -> LpSolution<S> {
    solve_in(problem, &mut LpWorkspace::new())
}

/// [`solve`] with the buffers of `ws`.
pub fn solve_in<S: Scalar>(p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> LpSolution<S> {
    let mut tab = Tab::build_cold(p, ws);
    let (solution, _) = tab.solve_cold(p, ws, false);
    tab.recycle(ws);
    solution
}

/// Solves the problem, optionally warm-starting from a previous basis.
pub fn solve_warm<S: Scalar>(p: &LpProblem<S>, hint: Option<&WarmBasis>) -> WarmSolve<S> {
    solve_warm_in(p, hint, &mut LpWorkspace::new())
}

/// [`solve_warm`] with the buffers of `ws`.
pub fn solve_warm_in<S: Scalar>(
    p: &LpProblem<S>,
    hint: Option<&WarmBasis>,
    ws: &mut LpWorkspace<S>,
) -> WarmSolve<S> {
    if let Some(h) = hint.filter(|h| h.compatible_with(p)) {
        if let Some(out) = try_warm(p, h, ws) {
            return out;
        }
    }
    let mut tab = Tab::build_cold(p, ws);
    let (solution, basis) = tab.solve_cold(p, ws, true);
    tab.recycle(ws);
    WarmSolve {
        solution,
        basis,
        warm_used: false,
    }
}

/// Solves an exact problem float-first: an `f64` copy of `p` (same
/// variables, rows and relations, every entry through
/// [`Scalar::to_f64`]) is solved cold, and its optimal basis seeds
/// [`solve_warm`] on `p`, which re-realizes it with exact pivots and
/// repairs it by exact dual/primal simplex — or solves cold when the
/// basis does not fit. Only column indices cross from the float solve
/// into the exact one, so status and objective are exactly those of
/// [`solve`]; when the optimum is tied, the returned vertex may differ.
/// `warm_used` reports whether the float basis served.
///
/// Inexact scalars (nonzero [`Scalar::tolerance`]), and programs with an
/// entry outside `f64` range, take the plain cold solve.
pub fn solve_float_guided<S: Scalar>(p: &LpProblem<S>) -> WarmSolve<S> {
    let guide = (S::tolerance() == S::zero())
        .then(|| p.map_scalar(|v| v.to_f64()))
        .filter(all_finite)
        .and_then(|f| solve_warm(&f, None).basis);
    solve_warm(p, guide.as_ref())
}

/// `true` when every objective coefficient, row coefficient and
/// right-hand side is finite — a NaN or infinity would poison the
/// float pivots.
fn all_finite(p: &LpProblem<f64>) -> bool {
    let finite = |e: &LinExpr<f64>| e.terms.iter().all(|(_, v)| v.is_finite());
    finite(p.objective())
        && p.constraints()
            .iter()
            .all(|c| finite(&c.expr) && c.rhs.is_finite())
}

/// Sparse column-major tableau.
///
/// Every buffer comes from an [`LpWorkspace`] and goes back to one
/// ([`Tab::recycle`]). `cols` may hold more buffers than the tableau
/// has columns: entries at `n_total` and beyond are spare capacity whose
/// contents are never read.
struct Tab<S> {
    /// Per column: sorted `(row, value)` pairs, structural zeros omitted.
    cols: Vec<Vec<(u32, S)>>,
    /// Right-hand side (basic variable values).
    b: Vec<S>,
    /// Basic column of each row (`usize::MAX` while unassigned).
    basis: Vec<usize>,
    /// Number of structural (original) variables.
    n_struct: usize,
    /// Total columns (structural + slack [+ artificial]).
    n_total: usize,
    /// Column index where artificial variables start (== n_total when none).
    art_start: usize,
    /// Recycled merge buffer (see [`Tab::pivot`]).
    scratch: Vec<(u32, S)>,
    /// The pivot column while a pivot runs (moved out of `cols`).
    pcol: Vec<(u32, S)>,
    /// The pivot row as sparse `(col, value)` pairs (see
    /// [`Tab::extract_row`]).
    prow: Vec<(usize, S)>,
}

impl<S> Default for Tab<S> {
    fn default() -> Self {
        Tab {
            cols: Vec::new(),
            b: Vec::new(),
            basis: Vec::new(),
            n_struct: 0,
            n_total: 0,
            art_start: 0,
            scratch: Vec::new(),
            pcol: Vec::new(),
            prow: Vec::new(),
        }
    }
}

/// The relation of a constraint row after an optional sign flip.
fn flipped(rel: Rel, flip: bool) -> Rel {
    match (rel, flip) {
        (Rel::Le, true) => Rel::Ge,
        (Rel::Ge, true) => Rel::Le,
        (r, _) => r,
    }
}

impl<S: Scalar> Tab<S> {
    /// Takes the workspace's retired storage as an empty tableau with `m`
    /// unassigned rows and `n` empty structural columns.
    fn recycled(ws: &mut LpWorkspace<S>, m: usize, n: usize) -> Tab<S> {
        let mut tab = mem::take(&mut ws.tab);
        tab.b.clear();
        tab.basis.clear();
        tab.basis.resize(m, usize::MAX);
        tab.n_struct = n;
        tab.n_total = 0;
        for _ in 0..n {
            tab.push_col();
        }
        tab
    }

    /// Hands this tableau's buffers back to `ws`. When `ws` already holds
    /// a larger set, this one is dropped instead.
    fn recycle(self, ws: &mut LpWorkspace<S>) {
        if self.cols.len() >= ws.tab.cols.len() {
            ws.tab = self;
        }
    }

    /// Appends an empty column, reusing a spare buffer when one is left.
    fn push_col(&mut self) -> &mut Vec<(u32, S)> {
        let j = self.n_total;
        if j == self.cols.len() {
            self.cols.push(Vec::new());
        }
        self.n_total += 1;
        let col = &mut self.cols[j];
        col.clear();
        col
    }

    /// Fills the structural columns from the constraint expressions
    /// (duplicates summed, zeros dropped). `flip[i]` negates row `i` on
    /// the fly; rows past the end of `flip` are not negated.
    fn fill_structural(&mut self, p: &LpProblem<S>, flip: &[bool]) {
        for (i, c) in p.constraints().iter().enumerate() {
            let negate = flip.get(i).is_some_and(|&f| f);
            for (v, coeff) in &c.expr.terms {
                let val = if negate { coeff.neg() } else { coeff.clone() };
                self.cols[v.index()].push((i as u32, val));
            }
        }
        for col in &mut self.cols[..self.n_struct] {
            // Rows arrive in constraint order, so the column is sorted:
            // sum duplicate rows in place, then drop exact/negligible zeros.
            let mut w = 0;
            for k in 0..col.len() {
                if w > 0 && col[w - 1].0 == col[k].0 {
                    let (head, tail) = col.split_at_mut(k);
                    head[w - 1].1 = head[w - 1].1.add(&tail[0].1);
                } else {
                    col.swap(w, k);
                    w += 1;
                }
            }
            col.truncate(w);
            col.retain(|(_, v)| !v.is_negligible());
        }
    }

    /// Standard form with artificials and `b ≥ 0` (cold start, phase 1).
    fn build_cold(p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> Tab<S> {
        ws.flags.clear();
        ws.flags
            .extend(p.constraints().iter().map(|c| c.rhs.is_negative_tol()));
        let mut tab = Tab::recycled(ws, p.n_constraints(), p.n_vars());
        let flip = &ws.flags;
        tab.fill_structural(p, flip);
        // Slack/surplus columns, in constraint order.
        for (i, c) in p.constraints().iter().enumerate() {
            tab.b
                .push(if flip[i] { c.rhs.neg() } else { c.rhs.clone() });
            match flipped(c.rel, flip[i]) {
                Rel::Le => {
                    tab.basis[i] = tab.n_total;
                    tab.push_col().push((i as u32, S::one()));
                }
                Rel::Ge => tab.push_col().push((i as u32, S::one().neg())),
                Rel::Eq => {}
            }
        }
        // Artificials for the rows without a basic slack.
        tab.art_start = tab.n_total;
        for (i, c) in p.constraints().iter().enumerate() {
            if flipped(c.rel, flip[i]) != Rel::Le {
                tab.basis[i] = tab.n_total;
                tab.push_col().push((i as u32, S::one()));
            }
        }
        debug_assert!(tab.basis.iter().all(|&bv| bv != usize::MAX));
        tab
    }

    /// Standard form without artificials and without sign normalization
    /// (warm start; negative `b` entries are repaired by dual simplex).
    fn build_warm(p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> Tab<S> {
        let mut tab = Tab::recycled(ws, p.n_constraints(), p.n_vars());
        tab.fill_structural(p, &[]);
        for (i, c) in p.constraints().iter().enumerate() {
            tab.b.push(c.rhs.clone());
            match c.rel {
                Rel::Le => tab.push_col().push((i as u32, S::one())),
                Rel::Ge => tab.push_col().push((i as u32, S::one().neg())),
                Rel::Eq => {}
            }
        }
        tab.art_start = tab.n_total;
        tab
    }

    /// Value at `(row, col)`, `None` when structurally zero.
    #[inline]
    fn at(&self, row: usize, col: usize) -> Option<&S> {
        let c = &self.cols[col];
        c.binary_search_by_key(&(row as u32), |(r, _)| *r)
            .ok()
            .map(|k| &c[k].1)
    }

    /// Loads row `row` into `prow` as sparse `(col, value)` pairs.
    fn extract_row(&mut self, row: usize) {
        self.prow.clear();
        for (j, c) in self.cols[..self.n_total].iter().enumerate() {
            if let Ok(k) = c.binary_search_by_key(&(row as u32), |(r, _)| *r) {
                self.prow.push((j, c[k].1.clone()));
            }
        }
    }

    /// Pivots on `(row, col)`: `col` enters the basis, the basic variable
    /// of `row` leaves. `rc` is the maintained reduced-cost row and
    /// negated objective, updated sparsely when present. `prow_loaded`
    /// says a caller already loaded the pivot row into `prow` (dual
    /// ratio test), which saves the scan.
    fn pivot(&mut self, row: usize, col: usize, rc: Option<(&mut [S], &mut S)>, prow_loaded: bool) {
        // dlflint:allow(hot-path-panic, "ratio test only selects structurally nonzero pivots; a miss is a solver bug worth halting on")
        let piv = self.at(row, col).expect("pivot on structural zero").clone();
        debug_assert!(!piv.is_negligible());
        if !prow_loaded {
            self.extract_row(row);
        }
        // Pivot row with the elimination factor `a_rj / piv` cached, so
        // the column update and the reduced-cost update share one division.
        for (_, arj) in self.prow.iter_mut() {
            *arj = arj.div(&piv);
        }
        // The pivot column moves out of its slot; the slot gets the unit
        // vector at the end.
        mem::swap(&mut self.pcol, &mut self.cols[col]);

        let b_row_new = self.b[row].div(&piv);
        // RHS update, touching only the pivot column's nonzero rows.
        for (i, e) in &self.pcol {
            let i = *i as usize;
            if i == row {
                continue;
            }
            let v = self.b[i].sub(&b_row_new.mul(e));
            self.b[i] = if v.is_negligible() { S::zero() } else { v };
        }
        self.b[row] = b_row_new.clone();

        // Column updates, touching only columns with a nonzero pivot-row
        // entry (and in them only the pivot column's nonzero rows). The
        // merge moves entries out of the old column and recycles its
        // buffer as the next column's scratch — no steady-state allocation.
        // A merged column has at most one entry per row, which caps its
        // reservation.
        let m = self.b.len();
        let pcol = &self.pcol;
        let mut scratch = mem::take(&mut self.scratch);
        for (j, f) in &self.prow {
            if *j == col {
                continue;
            }
            let mut old = mem::replace(&mut self.cols[*j], scratch);
            let merged = &mut self.cols[*j];
            merged.clear();
            merged.reserve((old.len() + pcol.len()).min(m));
            {
                let mut a = old.drain(..).peekable();
                let mut c = pcol.iter().peekable();
                loop {
                    match (a.peek(), c.peek()) {
                        (Some((ra, _)), Some((rc2, _))) if ra == rc2 => {
                            let (r, va) = a.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            let (_, ve) = c.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            if r as usize == row {
                                merged.push((r, f.clone()));
                            } else {
                                let v = va.sub(&f.mul(ve));
                                if !v.is_negligible() {
                                    merged.push((r, v));
                                }
                            }
                        }
                        (Some((ra, _)), Some((rc2, _))) if ra < rc2 => {
                            merged.push(a.next().unwrap()); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                        }
                        (Some(_), Some(_)) | (None, Some(_)) => {
                            let (r, ve) = c.next().unwrap(); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                            if *r as usize == row {
                                merged.push((*r, f.clone()));
                            } else {
                                let v = f.mul(ve).neg();
                                if !v.is_negligible() {
                                    merged.push((*r, v));
                                }
                            }
                        }
                        (Some(_), None) => {
                            merged.push(a.next().unwrap()); // dlflint:allow(hot-path-panic, "peek returned Some on this branch")
                        }
                        (None, None) => break,
                    }
                }
            }
            scratch = old;
        }
        self.scratch = scratch;
        // The entering column becomes a unit vector.
        let unit = &mut self.cols[col];
        unit.clear();
        unit.push((row as u32, S::one()));

        if let Some((r, z)) = rc {
            let re = r[col].clone();
            if !re.is_negligible() {
                for (j, f) in &self.prow {
                    if *j == col {
                        continue;
                    }
                    let v = r[*j].sub(&re.mul(f));
                    r[*j] = if v.is_negligible() { S::zero() } else { v };
                }
                *z = z.sub(&re.mul(&self.b[row]));
                r[col] = S::zero();
            }
        }
        self.basis[row] = col;
    }

    /// Reduced costs `r_j = c_j − c_B · B⁻¹A_j` into `r` (with `cb` as the
    /// basic-cost scratch), computed sparsely per column; returns the
    /// negated objective value.
    fn reduced_costs(&self, cost: &[S], cb: &mut Vec<S>, r: &mut Vec<S>) -> S {
        cb.clear();
        cb.extend(self.basis.iter().map(|&bv| cost[bv].clone()));
        r.clear();
        r.extend_from_slice(cost);
        for j in 0..self.n_total {
            let mut acc = S::zero();
            for (i, v) in &self.cols[j] {
                let c = &cb[*i as usize];
                if !c.is_negligible() {
                    acc = acc.add(&c.mul(v));
                }
            }
            if !acc.is_negligible() {
                r[j] = r[j].sub(&acc);
            }
        }
        let mut z = S::zero();
        for (i, c) in cb.iter().enumerate() {
            if !c.is_negligible() {
                z = z.sub(&c.mul(&self.b[i]));
            }
        }
        z
    }

    /// Primal simplex until optimal (`true`) or unbounded (`false`).
    /// Dantzig pricing with a Bland fallback after a degeneracy streak.
    fn run_primal(&mut self, r: &mut [S], z: &mut S) -> bool {
        let m = self.b.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        let mut streak = 0usize;
        for _ in 0..max_pivots {
            let bland = streak >= DEGENERACY_STREAK;
            let enter = if bland {
                (0..self.n_total).find(|&j| r[j].is_negative_tol())
            } else {
                let mut best: Option<usize> = None;
                for j in 0..self.n_total {
                    if r[j].is_negative_tol()
                        && best.is_none_or(|bj| r[j].cmp_total(&r[bj]) == std::cmp::Ordering::Less)
                    {
                        best = Some(j);
                    }
                }
                best
            };
            let Some(enter) = enter else {
                return true; // optimal
            };
            // Ratio test over the entering column's nonzeros only;
            // smallest-basis-index tie-break (required in Bland mode).
            let mut best: Option<(S, usize)> = None;
            for (i, v) in &self.cols[enter] {
                let i = *i as usize;
                if v.is_positive_tol() {
                    let ratio = self.b[i].div(v);
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
            // enter was selected with r[enter] strictly negative, so the
            // pivot is degenerate iff the leaving basic variable sits at 0.
            let degenerate = !self.b[leave].is_positive_tol();
            self.pivot(leave, enter, Some((r, z)), false);
            streak = if degenerate { streak + 1 } else { 0 };
        }
        // dlflint:allow(hot-path-panic, "pivot-cap backstop: Bland's rule cannot cycle, so this is unreachable outside a solver bug")
        panic!("sparse simplex exceeded pivot cap — this indicates a bug");
    }

    /// Dual simplex repair: assumes `r ≥ 0` (dual feasible) and drives
    /// `b ≥ 0`. Returns `Some(true)` when primal feasibility was reached,
    /// `Some(false)` on a primal-infeasibility certificate, `None` when
    /// the pivot budget ran out (caller should fall back to a cold solve).
    fn run_dual(&mut self, r: &mut [S], z: &mut S) -> Option<bool> {
        let m = self.b.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        for _ in 0..max_pivots {
            // Leaving row: most negative b, tie-break smallest basis index.
            let mut leave: Option<usize> = None;
            for i in 0..m {
                if !self.b[i].is_negative_tol() {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some(l) => match self.b[i].cmp_total(&self.b[l]) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => self.basis[i] < self.basis[l],
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    leave = Some(i);
                }
            }
            let Some(leave) = leave else {
                return Some(true); // primal feasible
            };
            // Entering column: dual ratio test over the leaving row's
            // negative entries; smallest-index tie-break.
            self.extract_row(leave);
            let mut best: Option<(S, usize)> = None;
            for (j, arj) in &self.prow {
                if *j == self.basis[leave] || !arj.is_negative_tol() {
                    continue;
                }
                let ratio = r[*j].div(&arj.neg());
                let better = match &best {
                    None => true,
                    Some((cur, e)) => ratio.lt_tol(cur) || (!ratio.gt_tol(cur) && *j < *e),
                };
                if better {
                    best = Some((ratio, *j));
                }
            }
            let Some((_, enter)) = best else {
                return Some(false); // row ≥ 0 with b < 0: infeasible
            };
            self.pivot(leave, enter, Some((r, z)), true);
        }
        None
    }

    /// Removes row `row` (swap-remove semantics across `b`, `basis` and
    /// every column's row indices).
    fn remove_row(&mut self, row: usize) {
        let last = self.b.len() - 1;
        for col in self.cols[..self.n_total].iter_mut() {
            col.retain(|(r, _)| *r as usize != row);
            if row != last {
                for (r, _) in col.iter_mut() {
                    if *r as usize == last {
                        *r = row as u32;
                    }
                }
                col.sort_by_key(|(r, _)| *r);
            }
        }
        self.b.swap_remove(row);
        self.basis.swap_remove(row);
    }

    /// After phase 1: pivot zero-level artificials out of the basis, drop
    /// rows that prove redundant, and delete artificial columns (their
    /// buffers stay as spare capacity).
    fn purge_artificials(&mut self) {
        let mut row = 0;
        while row < self.b.len() {
            if self.basis[row] >= self.art_start {
                let col = (0..self.art_start)
                    .find(|&j| self.at(row, j).is_some_and(|v| !v.is_negligible()));
                match col {
                    Some(col) => {
                        // Degenerate pivot (b[row] == 0): keeps b ≥ 0.
                        self.pivot(row, col, None, false);
                        row += 1;
                    }
                    None => self.remove_row(row),
                }
            } else {
                row += 1;
            }
        }
        self.n_total = self.art_start;
    }

    /// Phase-2 cost vector in the minimization convention, into `cost`;
    /// returns whether the objective was negated.
    fn phase2_cost(&self, p: &LpProblem<S>, cost: &mut Vec<S>) -> bool {
        cost.clear();
        cost.resize(self.n_total, S::zero());
        let negate = p.sense() == Sense::Maximize;
        for (v, c) in &p.objective().terms {
            let cur = cost[v.index()].clone();
            cost[v.index()] = if negate { cur.sub(c) } else { cur.add(c) };
        }
        negate
    }

    /// Extracts the solution after an optimal phase 2.
    fn extract(&self, p: &LpProblem<S>, z: S, negate: bool) -> LpSolution<S> {
        let mut values = vec![S::zero(); p.n_vars()];
        for (i, &bv) in self.basis.iter().enumerate() {
            if bv < self.n_struct {
                values[bv] = self.b[i].clone();
            }
        }
        let min_val = z.neg();
        let objective = if negate { min_val.neg() } else { min_val };
        LpSolution::optimal(objective, values)
    }

    fn snapshot_basis(&self, p: &LpProblem<S>, spare: Option<WarmBasis>) -> WarmBasis {
        let mut out = spare.unwrap_or(WarmBasis {
            n_vars: 0,
            rels: Vec::new(),
            basis: Vec::new(),
        });
        out.n_vars = p.n_vars();
        out.rels.clear();
        out.rels.extend(p.constraints().iter().map(|c| c.rel));
        out.basis.clone_from(&self.basis);
        out
    }

    /// Two-phase cold solve over the vectors of `ws`; the optimal basis
    /// is snapshotted only when `want_basis` is set.
    fn solve_cold(
        &mut self,
        p: &LpProblem<S>,
        ws: &mut LpWorkspace<S>,
        want_basis: bool,
    ) -> (LpSolution<S>, Option<WarmBasis>) {
        let LpWorkspace { cost, r, cb, .. } = ws;
        if self.art_start < self.n_total {
            cost.clear();
            cost.resize(self.n_total, S::zero());
            for c in cost.iter_mut().skip(self.art_start) {
                *c = S::one();
            }
            let mut z = self.reduced_costs(cost, cb, r);
            // Phase 1 is bounded below by 0, so "unbounded" can only be
            // float breakdown on a badly scaled program: no feasible
            // point was found, and the caller gets to fall back.
            if !self.run_primal(r, &mut z) || z.neg().is_positive_tol() {
                return (LpSolution::infeasible(p.n_vars()), None);
            }
            self.purge_artificials();
        }
        let negate = self.phase2_cost(p, cost);
        let mut z = self.reduced_costs(cost, cb, r);
        if !self.run_primal(r, &mut z) {
            return (LpSolution::unbounded(p.n_vars()), None);
        }
        let basis = want_basis.then(|| self.snapshot_basis(p, ws.bases.pop()));
        (self.extract(p, z, negate), basis)
    }

    /// Warm start on a [`Tab::build_warm`] tableau: re-realizes the
    /// hinted basis (basic column per row, as in [`WarmBasis`]) and
    /// repairs it to a verdict, with a basis snapshot iff it is optimal.
    /// `None` means the basis could not be realized or the pivot budget
    /// ran out — fall back to a cold solve.
    fn run_warm(
        &mut self,
        p: &LpProblem<S>,
        hint: &[usize],
        ws: &mut LpWorkspace<S>,
    ) -> Option<(LpSolution<S>, Option<WarmBasis>)> {
        let m = self.b.len();

        // Re-realize the hinted basis by Gaussian pivoting: for each hinted
        // column pick the not-yet-assigned row with the largest pivot.
        let assigned = &mut ws.flags;
        assigned.clear();
        assigned.resize(m, false);
        for &c in hint {
            if c >= self.n_total || self.basis.contains(&c) {
                continue;
            }
            let mut pick: Option<(usize, S)> = None;
            for (i, v) in &self.cols[c] {
                let i = *i as usize;
                if assigned[i] || v.is_negligible() {
                    continue;
                }
                let mag = v.abs();
                if pick.as_ref().is_none_or(|(_, pm)| mag.gt_tol(pm)) {
                    pick = Some((i, mag));
                }
            }
            if let Some((row, _)) = pick {
                self.pivot(row, c, None, false);
                assigned[row] = true;
            }
        }
        // Cover leftover rows (hint shorter than m, or singular realization)
        // with any usable non-basic column, preferring the row's own slack.
        for row in 0..m {
            if assigned[row] {
                continue;
            }
            let col = (self.n_struct..self.n_total)
                .chain(0..self.n_struct)
                .find(|&j| {
                    !self.basis.contains(&j) && self.at(row, j).is_some_and(|v| !v.is_negligible())
                })?; // cannot complete a basis — cold solve
            self.pivot(row, col, None, false);
            assigned[row] = true;
        }

        let LpWorkspace { cost, r, cb, .. } = ws;
        let negate = self.phase2_cost(p, cost);
        let mut z = self.reduced_costs(cost, cb, r);
        let dual_feasible = r.iter().all(|v| !v.is_negative_tol());
        let primal_feasible = self.b.iter().all(|v| !v.is_negative_tol());
        if dual_feasible {
            // `None`: budget exhausted — cold solve.
            if !self.run_dual(r, &mut z)? {
                return Some((LpSolution::infeasible(p.n_vars()), None));
            }
        } else if !primal_feasible {
            return None; // neither primal nor dual feasible — cold solve
        }
        if !self.run_primal(r, &mut z) {
            return Some((LpSolution::unbounded(p.n_vars()), None));
        }
        let basis = self.snapshot_basis(p, ws.bases.pop());
        Some((self.extract(p, z, negate), Some(basis)))
    }
}

/// Attempts the warm-start path; `None` means "fall back to cold".
fn try_warm<S: Scalar>(
    p: &LpProblem<S>,
    hint: &WarmBasis,
    ws: &mut LpWorkspace<S>,
) -> Option<WarmSolve<S>> {
    let mut tab = Tab::build_warm(p, ws);
    let out = tab.run_warm(p, &hint.basis, ws);
    tab.recycle(ws);
    out.map(|(solution, basis)| WarmSolve {
        solution,
        basis,
        warm_used: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::LpStatus;
    use dlflow_num::Rat;

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → opt 36 at (2, 6).
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
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
    fn infeasible_and_unbounded() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 1.0);
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 2.0);
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);

        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x");
        lp.set_objective(LinExpr::term(x, 1.0));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 1.0);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
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
    fn beale_cycling_instance_terminates() {
        // Beale's cycling example: Dantzig pricing alone cycles; the
        // degeneracy-streak fallback to Bland must terminate it.
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
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
    fn degenerate_equality_with_redundant_row() {
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, 1.0), (y, 1.0)]));
        lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
        lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 2.0)]), Rel::Eq, 4.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_rhs_change_reuses_basis() {
        // Feasibility-style LP (zero objective); tighten the RHS and
        // re-solve warm: the dual repair must succeed.
        fn probe(rhs: f64) -> LpProblem<f64> {
            let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Eq, 2.0);
            lp.add_constraint(LinExpr::from_iter([(x, 2.0), (y, 1.0)]), Rel::Le, rhs);
            lp.add_constraint(LinExpr::term(y, 1.0), Rel::Le, rhs);
            lp
        }
        let first = solve_warm(&probe(4.0), None);
        assert_eq!(first.solution.status, LpStatus::Optimal);
        assert!(!first.warm_used);
        let basis = first.basis.expect("optimal solve must yield a basis");
        let second = solve_warm(&probe(2.0), Some(&basis));
        assert!(
            second.warm_used,
            "structurally identical LP must warm-start"
        );
        assert_eq!(second.solution.status, LpStatus::Optimal);
        // And an infeasible tightening is detected on the warm path too.
        let third = solve_warm(&probe(1.5), Some(&basis));
        assert!(third.warm_used);
        assert_eq!(third.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_incompatible_hint_falls_back() {
        let mut a: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = a.add_var("x");
        a.add_constraint(LinExpr::term(x, 1.0), Rel::Eq, 5.0);
        let wa = solve_warm(&a, None);
        let mut b: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = b.add_var("x");
        let y = b.add_var("y");
        b.set_objective(LinExpr::term(y, 1.0));
        b.add_constraint(LinExpr::from_iter([(x, 1.0), (y, 1.0)]), Rel::Ge, 3.0);
        let wb = solve_warm(&b, wa.basis.as_ref());
        assert!(!wb.warm_used);
        assert_eq!(wb.solution.status, LpStatus::Optimal);
    }

    #[test]
    fn warm_exact_rational_probe_chain() {
        // A Rat chain mimicking the Theorem-2 binary search: same shape,
        // shrinking deadline-like RHS.
        fn probe(rhs: i64) -> LpProblem<Rat> {
            let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
            let a = lp.add_var("a");
            let b = lp.add_var("b");
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::one()), (b, Rat::one())]),
                Rel::Eq,
                Rat::one(),
            );
            lp.add_constraint(
                LinExpr::from_iter([(a, Rat::from_i64(4)), (b, Rat::from_i64(2))]),
                Rel::Le,
                Rat::from_i64(rhs),
            );
            lp
        }
        let mut basis = None;
        for rhs in [8, 5, 3, 2] {
            let out = solve_warm(&probe(rhs), basis.as_ref());
            assert_eq!(out.solution.status, LpStatus::Optimal, "rhs={rhs}");
            assert_eq!(out.warm_used, basis.is_some());
            basis = out.basis;
        }
        let out = solve_warm(&probe(1), basis.as_ref());
        assert!(out.warm_used);
        assert_eq!(out.solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn float_guided_matches_plain_exact_solve() {
        // max x + y s.t. 3x + y ≤ 1, x + 3y ≤ 1 → opt 1/2: the f64 basis
        // is the exact optimal basis, so the guide serves.
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
        let guided = solve_float_guided(&lp);
        assert!(guided.warm_used);
        assert_eq!(guided.solution.objective, Some(Rat::from_ratio(1, 2)));
        assert!(lp.check_feasible(&guided.solution.values).is_ok());

        // Inexact scalars take the plain cold solve.
        let lp_f = lp.map_scalar(Rat::to_f64);
        let out = solve_float_guided(&lp_f);
        assert!(!out.warm_used);
        assert_eq!(out.solution.objective, solve(&lp_f).objective);
    }

    #[test]
    fn float_guide_skips_entries_beyond_f64_range() {
        // min x + y s.t. 2¹¹⁰⁰·x + y ≥ 2¹¹⁰⁰, x ≤ 1 → opt 1 at (1, 0). The
        // f64 copy would carry infinities into the float pivots, so the
        // guided solve must take the plain exact path instead.
        let huge = Rat::from_i64(2).powi(1100);
        assert!(huge.to_f64().is_infinite());
        let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, Rat::one()), (y, Rat::one())]));
        lp.add_constraint(
            LinExpr::from_iter([(x, huge.clone()), (y, Rat::one())]),
            Rel::Ge,
            huge,
        );
        lp.add_constraint(LinExpr::term(x, Rat::one()), Rel::Le, Rat::one());
        let guided = solve_float_guided(&lp);
        let plain = solve(&lp);
        assert!(!guided.warm_used);
        assert_eq!(guided.solution.status, plain.status);
        assert_eq!(guided.solution.objective, plain.objective);
        assert_eq!(plain.objective, Some(Rat::one()));
    }
}
