//! Revised simplex over a dense row-major tableau — the default solver.
//!
//! * **Pricing**: Dantzig (most negative reduced cost) by default — fast
//!   in practice but can cycle on degenerate bases. After
//!   `DEGENERACY_STREAK` consecutive pivots without objective progress
//!   the solver switches to **Bland's rule** until progress resumes,
//!   which restores the termination guarantee (exactness over `Rat` makes
//!   "no progress" detectable without tolerances). Dantzig ties go to the
//!   lowest column. A cold solve or dual start ties only equal reduced
//!   costs: its operands follow from the program alone. A warm start or
//!   re-optimization also ties reduced costs within the tolerance: its
//!   tableau carries the rounding of whichever path produced its basis,
//!   and at a tied optimum a last-bit difference there would otherwise
//!   pick the vertex (exact scalars have zero tolerance, so nothing
//!   changes for them).
//! * **Warm starts**: [`solve_warm`] accepts the optimal basis of a
//!   structurally identical LP (same variables, same constraint
//!   relations). The basis is re-realized by Gaussian pivoting — skipping
//!   phase 1 outright — and primal feasibility is reinstated by a bounded
//!   **dual simplex** repair (valid whenever the warm basis is dual
//!   feasible, which always holds for pure feasibility probes with a zero
//!   objective). The repair has no anti-cycling rule, so it gives up after
//!   more than `rows` degenerate pivots in a row. On any mismatch or
//!   failure it falls back to a cold solve.
//! * **Dual start**: [`solve_dual_in`] skips phase 1. Its tableau starts
//!   on every inequality row's slack, a `≥` row negated so that its
//!   surplus enters at +1, and on each equality row's last term, pivoted
//!   into that row in row order. No artificial column is built. When
//!   that basis is dual feasible (every reduced cost `≥ −tolerance`; a
//!   minimization with nonnegative costs whose equality rows end on
//!   uncosted terms always is), the dual simplex above drives it primal
//!   feasible and the primal simplex finishes, leaving the tableau
//!   optimal for [`reoptimize_in`]. It refuses, with `None`, when an
//!   equality row is empty or its last term's entry is zero, when the
//!   start is not dual feasible, and when the dual simplex stalls or runs
//!   out of pivots; the caller solves with [`solve_in`].
//! * **Float guides**: [`solve_float_guided`] solves an `f64` copy of an
//!   exact problem and hands only its optimal basis to the exact warm
//!   path, so the exact solve starts at (or next to) the optimum instead
//!   of pivoting there in rational arithmetic.
//! * **Re-optimization**: [`reoptimize_in`] continues from the optimal
//!   tableau the last solve through a workspace ended on, after some
//!   inequality right-hand sides and the objective changed (post-optimal
//!   analysis, as in Chvátal, *Linear Programming*, 1983). Nothing is
//!   rebuilt and no basis is re-realized: the right-hand sides move
//!   through their slack columns, the new objective is priced, and the
//!   primal simplex runs from there. It refuses, with `None`, whenever
//!   that tableau cannot serve (see its doc); the caller solves afresh.
//! * **Workspaces**: every tableau takes its buffers from an
//!   [`LpWorkspace`] and hands them back when the solve ends, so a caller
//!   that solves many programs in a row ([`solve_in`]) stops allocating
//!   once the buffers have grown. Every solve starts from the same logical
//!   state as with a fresh workspace, so it runs the same pivots on the
//!   same operands; only [`reoptimize_in`] and [`LpWorkspace::basis`]
//!   read the tableau the last solve left. [`solve`] and [`solve_warm`]
//!   use a fresh workspace.
//!
//! # Layout
//!
//! The tableau is one row-major buffer of `rows × columns` scalars. Its
//! columns are the program's variables that some row or the objective
//! mentions (in variable order), then one slack or surplus per inequality
//! row (in row order), then, in a cold solve, one artificial per row
//! without a basic slack. A variable no row or objective term mentions
//! has no column: it would stay empty under every pivot with reduced cost
//! zero, so it could never enter the basis. A variable only the objective
//! mentions keeps its column, so an unbounded program still reports
//! unbounded. [`WarmBasis`] snapshots stay
//! in the program's structural+slack column space and are mapped to and
//! from the tableau's; a hint naming an absent column is skipped, as an
//! empty column would be. The paper's programs are small and fill in as
//! they pivot, so a dense row costs less than sorted sparse columns: no
//! search to read an entry or the pivot row, no merge to update one.
//!
//! Memory is the one cost: `rows × columns` entries whatever the fill.
//! The largest tableau the test suites and experiment bins build holds
//! 0.26 M entries, 2.1 MB (159 rows × 1,619 columns over `f64`, for a
//! System (1) of 1,460 variables); the largest over `Rat` holds 0.15 M,
//! 3.6 MB at 24 bytes an entry (188 × 800, for 1,275 variables).
//!
//! # Pivot arithmetic
//!
//! These rules fix every operand of every operation, so a solve's
//! results do not depend on the storage, only on the pivot rules:
//!
//! * A structural zero is an *exact* zero (`== S::zero()`), never a
//!   tolerance test; an entry is built by summing the row's duplicate
//!   terms in term order, and a sum within tolerance is stored as zero.
//! * A pivot on `(r, c)` updates only the rows where column `c` is
//!   nonzero, and in them only the columns where row `r` is nonzero. An
//!   updated entry `a_ij − f_j·e_i` (or `−(f_j·e_i)` from a structural
//!   zero) that falls within tolerance is stored as zero; an entry the
//!   pivot does not touch keeps its value, even a negligible one.
//! * The pivot row's entries `f_j = a_rj / piv` are stored as computed,
//!   even within tolerance.
//! * Reduced costs are summed row by row: each row whose basic cost is
//!   not negligible adds `c_B[i]·a_ij` into column `j`'s sum for every
//!   nonzero `a_ij`, so each column sums its rows in increasing order.
//! * Ratio tests scan rows in increasing order, and the dual ratio test
//!   scans the pivot row in increasing column order, so their tie-breaks
//!   see the candidates in a fixed order.
//! * Removing a redundant row moves the last row into its place.
//! * A negated row's entries and right-hand side are built negated
//!   (`−a` summed in term order, `−b`), and the build records the flip
//!   per row: a cold build negates the rows with a negative right-hand
//!   side, a dual start every `≥` row. [`reoptimize_in`] reads that flag,
//!   not the right-hand side's sign, to refuse a change to a negated row.
//! * A re-optimization adds a right-hand-side change `Δ` of row `k` as
//!   `b_i += Δ·t_i` down the row's slack column `t` (`−Δ` for a `≥`
//!   row's surplus), rows in increasing order, changed rows in row order,
//!   and stores a negligible result as zero. It then prices the new
//!   objective with the phase-2 costs and the row-by-row reduced-cost sum
//!   above, and runs the primal simplex under the same pricing and
//!   ratio-test rules. It does no dual repair: the old basis stays primal
//!   feasible or the call refuses, while the new objective need not be
//!   dual feasible.
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
    fn compatible_with<S: Scalar>(&self, p: &LpProblem<S>) -> bool {
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

/// Reusable buffers for the revised simplex: the tableau entries,
/// right-hand side, basis, variable-to-column map, pivot row and pivot
/// column, cost and reduced-cost vectors, and a warm start's row flags.
///
/// A solve takes the buffers it needs and returns them when it ends, so
/// repeated solves through one workspace stop allocating once capacity
/// has grown to the largest program seen. The next solve starts from the
/// same logical state as with a fresh workspace, so results are
/// bit-identical either way; the last tableau survives only for
/// [`reoptimize_in`].
pub struct LpWorkspace<S> {
    /// Storage of the last retired tableau.
    tab: Tab<S>,
    /// Cost vector of the running phase.
    cost: Vec<S>,
    /// Reduced costs.
    r: Vec<S>,
    /// Basic costs (scratch of `Tab::reduced_costs`).
    cb: Vec<S>,
    /// Rows a warm start has realized.
    flags: Vec<bool>,
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
        }
    }
}

impl<S: Scalar> LpWorkspace<S> {
    /// The basis the last solve or re-optimization through this
    /// workspace ended on, as a [`solve_warm`] hint; `None` unless it
    /// ended optimal.
    pub fn basis(&self) -> Option<WarmBasis> {
        self.tab.optimal.then(|| self.tab.snapshot_basis())
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
            .field("tableau_capacity", &self.tab.a.capacity())
            .finish_non_exhaustive()
    }
}

/// Solves the problem with the revised simplex (cold start).
pub fn solve<S: Scalar>(problem: &LpProblem<S>) -> LpSolution<S> {
    solve_in(problem, &mut LpWorkspace::new())
}

/// [`solve`] with the buffers of `ws`.
pub fn solve_in<S: Scalar>(p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> LpSolution<S> {
    let mut tab = Tab::build(p, ws, Start::Cold);
    let (solution, _) = tab.solve_cold(p, ws, false);
    ws.tab = tab;
    solution
}

/// Solves `p` through `ws` without a phase 1: the dual simplex starts
/// from the basis of every inequality row's slack (a `≥` row negated, so
/// that its surplus enters at +1) and of each equality row's last term,
/// pivoted into that row, and the primal simplex finishes (the module
/// doc gives the rules). Status and objective are [`solve_in`]'s; where
/// the optimum is tied the vertex may differ. The tableau is left for
/// [`reoptimize_in`] as a [`solve_in`] leaves it.
///
/// Returns `None`, and leaves `ws` usable by any solve, when that start
/// cannot serve; the caller then solves with [`solve_in`]. That happens
/// when an equality row is empty or its last term's entry is zero once
/// the rows above it are pivoted, when the start is not dual feasible,
/// or when the dual simplex stalls (more than `rows` degenerate pivots
/// in a row) or runs out of pivots. A minimization whose objective
/// coefficients are all nonnegative, with no objective term on an
/// equality row's last term, always starts dual feasible.
///
/// Once the buffers have grown it allocates only the returned values.
pub fn solve_dual_in<S: Scalar>(
    p: &LpProblem<S>,
    ws: &mut LpWorkspace<S>,
) -> Option<LpSolution<S>> {
    let mut tab = Tab::build(p, ws, Start::Dual);
    let out = tab.solve_dual_start(p, ws);
    ws.tab = tab;
    out
}

/// Re-optimizes, in place, the optimal tableau that the last solve
/// through `ws` ended on, for `p`: that solve's program with some
/// inequality right-hand sides and the objective (sense included)
/// changed. The coefficients must be the ones that solve saw; that is the
/// caller's to keep, since the tableau no longer holds them.
///
/// The changed right-hand sides move the basic values through their
/// slack columns, the new objective is priced, and the primal simplex
/// runs from the old basis (the module doc gives the arithmetic). The
/// result is an optimum of `p`, or its unboundedness; where `p`'s optimum
/// is tied it may be another vertex than a cold solve's.
///
/// Returns `None`, and leaves `ws` usable by any solve, unless all of
/// these hold:
/// * the last solve through `ws` (or re-optimization) ended optimal;
/// * `p` has its shape: variable count, row count and each row's relation;
/// * every changed row is an inequality the last build did not negate
///   (a cold build negates a row with a negative right-hand side, a dual
///   start every `≥` row);
/// * every variable of the objective has a column;
/// * the changes leave every basic value `≥ −tolerance`.
///
/// Once the buffers have grown it allocates only the returned values.
pub fn reoptimize_in<S: Scalar>(
    p: &LpProblem<S>,
    ws: &mut LpWorkspace<S>,
) -> Option<LpSolution<S>> {
    let mut tab = mem::take(&mut ws.tab);
    let out = tab.reoptimize(p, ws);
    ws.tab = tab;
    out
}

/// Solves the problem, optionally warm-starting from a previous basis.
pub fn solve_warm<S: Scalar>(p: &LpProblem<S>, hint: Option<&WarmBasis>) -> WarmSolve<S> {
    let ws = &mut LpWorkspace::new();
    if let Some(h) = hint.filter(|h| h.compatible_with(p)) {
        let mut tab = Tab::build(p, ws, Start::Warm);
        let out = tab.run_warm(p, &h.basis, ws);
        ws.tab = tab;
        if let Some((solution, basis)) = out {
            return WarmSolve {
                solution,
                basis,
                warm_used: true,
            };
        }
    }
    let mut tab = Tab::build(p, ws, Start::Cold);
    let (solution, basis) = tab.solve_cold(p, ws, true);
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

/// Dense row-major tableau (see the module doc for its layout and the
/// arithmetic rules every pivot keeps).
///
/// Every buffer comes from an [`LpWorkspace`] and goes back to one. `a`
/// may hold more entries than `rows × w`: those past the live rows are
/// never read.
struct Tab<S> {
    /// Entry `(i, j)` at `i * w + j`.
    a: Vec<S>,
    /// Row stride: the columns the tableau was built with.
    w: usize,
    /// Right-hand side (basic variable values).
    b: Vec<S>,
    /// Basic column of each row (`usize::MAX` while unassigned).
    basis: Vec<usize>,
    /// Number of the program's variables.
    n_vars: usize,
    /// Tableau column of each variable (`usize::MAX` when absent).
    col_of: Vec<usize>,
    /// Variable of each structural column: its length is the number of
    /// structural columns, which come first.
    var_of: Vec<usize>,
    /// Columns in use (structural + slack [+ artificial]).
    n_total: usize,
    /// Column index where artificial variables start (== n_total when none).
    art_start: usize,
    /// Relation and right-hand side of each of the program's rows, as
    /// given, and whether the build negated the row.
    rows: Vec<(Rel, S, bool)>,
    /// The last cold solve or dual start, or a re-optimization since,
    /// ended optimal: the basis is optimal for `rows`. (Warm solves run
    /// on a workspace of their own, which no caller sees again.)
    optimal: bool,
    /// The pivot column's nonzeros off the pivot row, as `(row, value)`.
    pcol: Vec<(usize, S)>,
    /// The pivot row's nonzeros as `(col, value)` (see [`Tab::extract_row`]).
    prow: Vec<(usize, S)>,
}

impl<S> Default for Tab<S> {
    fn default() -> Self {
        Tab {
            a: Vec::new(),
            w: 0,
            b: Vec::new(),
            basis: Vec::new(),
            n_vars: 0,
            col_of: Vec::new(),
            var_of: Vec::new(),
            n_total: 0,
            art_start: 0,
            rows: Vec::new(),
            optimal: false,
            pcol: Vec::new(),
            prow: Vec::new(),
        }
    }
}

/// How [`Tab::build`] lays out the starting tableau.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Start {
    /// Two-phase: a row with a negative right-hand side is negated, so
    /// that `b ≥ 0`; `≤` rows start on their slack, every other row on an
    /// artificial.
    Cold,
    /// No negation, no artificials and no row assigned: the hinted basis
    /// is realized afterwards.
    Warm,
    /// Dual start: every `≥` row is negated, so that every inequality
    /// starts on its slack at +1; equality rows stay unassigned until
    /// their last term is pivoted in. No artificials.
    Dual,
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
    /// Standard form in the workspace's retired storage, laid out for
    /// `start` (see [`Start`]). Warm builds keep negative `b` entries for
    /// the dual simplex to repair once the hinted basis is realized, and
    /// dual starts keep them for the dual simplex outright.
    fn build(p: &LpProblem<S>, ws: &mut LpWorkspace<S>, start: Start) -> Tab<S> {
        let mut tab = mem::take(&mut ws.tab);
        tab.map_columns(p);
        tab.rows.clear();
        tab.rows.extend(p.constraints().iter().map(|c| {
            let flip = match start {
                Start::Cold => c.rhs.is_negative_tol(),
                Start::Warm => false,
                Start::Dual => c.rel == Rel::Ge,
            };
            (c.rel, c.rhs.clone(), flip)
        }));
        let rels = || tab.rows.iter().map(|&(rel, _, flip)| flipped(rel, flip));
        let n_slack = rels().filter(|&r| r != Rel::Eq).count();
        let n_art = if start == Start::Cold {
            rels().filter(|&r| r != Rel::Le).count()
        } else {
            0
        };
        let (m, n_struct, zero) = (p.n_constraints(), tab.var_of.len(), S::zero());
        let w = n_struct + n_slack + n_art;
        tab.w = w;
        tab.n_total = w;
        tab.art_start = n_struct + n_slack;
        // Re-zero the live region only; capacity past it stays unread.
        tab.a.truncate(m * w);
        tab.a.fill(zero.clone());
        tab.a.resize(m * w, zero.clone());
        tab.b.clear();
        tab.basis.clear();
        tab.basis.resize(m, usize::MAX);
        tab.optimal = false;
        let (mut slack, mut art) = (n_struct, tab.art_start);
        for (i, c) in p.constraints().iter().enumerate() {
            let flip = tab.rows[i].2;
            let rel = flipped(c.rel, flip);
            let row = &mut tab.a[i * w..(i + 1) * w];
            // Duplicate terms sum in term order; a negligible sum is zero.
            for (v, coeff) in &c.expr.terms {
                let val = if flip { coeff.neg() } else { coeff.clone() };
                let cell = &mut row[tab.col_of[v.index()]];
                *cell = if *cell == zero { val } else { cell.add(&val) };
            }
            for (v, _) in &c.expr.terms {
                let cell = &mut row[tab.col_of[v.index()]];
                if cell.is_negligible() {
                    *cell = zero.clone();
                }
            }
            tab.b.push(if flip { c.rhs.neg() } else { c.rhs.clone() });
            if rel != Rel::Eq {
                row[slack] = if rel == Rel::Le {
                    S::one()
                } else {
                    S::one().neg()
                };
                if start != Start::Warm && rel == Rel::Le {
                    tab.basis[i] = slack;
                }
                slack += 1;
            }
            if start == Start::Cold && rel != Rel::Le {
                row[art] = S::one();
                tab.basis[i] = art;
                art += 1;
            }
        }
        debug_assert!(start != Start::Cold || tab.basis.iter().all(|&bv| bv != usize::MAX));
        tab
    }

    /// Gives a column to every variable that a row or the objective
    /// mentions, in variable order, and none to the others.
    fn map_columns(&mut self, p: &LpProblem<S>) {
        self.n_vars = p.n_vars();
        self.col_of.clear();
        self.col_of.resize(self.n_vars, usize::MAX);
        let terms = p.constraints().iter().flat_map(|c| &c.expr.terms);
        for (v, _) in terms.chain(&p.objective().terms) {
            self.col_of[v.index()] = 0; // mentioned; numbered below
        }
        self.var_of.clear();
        for (v, col) in self.col_of.iter_mut().enumerate() {
            if *col == 0 {
                *col = self.var_of.len();
                self.var_of.push(v);
            }
        }
    }

    /// The program's column (structural+slack space) of tableau column `j`.
    fn program_col(&self, j: usize) -> usize {
        match self.var_of.get(j) {
            Some(&v) => v,
            None => j - self.var_of.len() + self.n_vars,
        }
    }

    /// The tableau column of the program's column `c`: `usize::MAX` for a
    /// variable without one, and past the tableau's columns for a slack
    /// past the program's.
    fn tableau_col(&self, c: usize) -> usize {
        match self.col_of.get(c) {
            Some(&j) => j,
            None => c - self.n_vars + self.var_of.len(),
        }
    }

    /// Loads row `row`'s nonzeros into `prow`.
    fn extract_row(&mut self, row: usize) {
        self.prow.clear();
        let zero = S::zero();
        let cells = &self.a[row * self.w..row * self.w + self.n_total];
        for (j, v) in cells.iter().enumerate() {
            if *v != zero {
                self.prow.push((j, v.clone()));
            }
        }
    }

    /// Pivots on `(row, col)`: `col` enters the basis, the basic variable
    /// of `row` leaves. `rc` is the maintained reduced-cost row and
    /// negated objective, updated sparsely when present. `prow_loaded`
    /// says a caller already loaded the pivot row into `prow` (dual
    /// ratio test), which saves the scan.
    fn pivot(&mut self, row: usize, col: usize, rc: Option<(&mut [S], &mut S)>, prow_loaded: bool) {
        let (w, zero) = (self.w, S::zero());
        let piv = self.a[row * w + col].clone();
        debug_assert!(!piv.is_negligible());
        if !prow_loaded {
            self.extract_row(row);
        }
        // Pivot row with the elimination factor `a_rj / piv` cached, so
        // the row update and the reduced-cost update share one division.
        for (j, arj) in self.prow.iter_mut() {
            *arj = arj.div(&piv);
            self.a[row * w + *j] = arj.clone();
        }
        // The pivot column moves out; it becomes the unit vector at `row`.
        self.pcol.clear();
        for i in (0..self.b.len()).filter(|&i| i != row) {
            let cell = &mut self.a[i * w + col];
            if *cell != zero {
                self.pcol.push((i, mem::replace(cell, zero.clone())));
            }
        }
        self.a[row * w + col] = S::one();

        let b_row_new = self.b[row].div(&piv);
        for (i, e) in &self.pcol {
            let v = self.b[*i].sub(&b_row_new.mul(e));
            self.b[*i] = if v.is_negligible() { zero.clone() } else { v };
        }
        self.b[row] = b_row_new;

        // Only (rows of the pivot column) × (columns of the pivot row).
        for (i, e) in &self.pcol {
            let cells = &mut self.a[i * w..(i + 1) * w];
            for (j, f) in &self.prow {
                if *j == col {
                    continue;
                }
                let cell = &mut cells[*j];
                let v = if *cell == zero {
                    f.mul(e).neg()
                } else {
                    cell.sub(&f.mul(e))
                };
                *cell = if v.is_negligible() { zero.clone() } else { v };
            }
        }

        if let Some((r, z)) = rc {
            let re = r[col].clone();
            if !re.is_negligible() {
                for (j, f) in &self.prow {
                    if *j == col {
                        continue;
                    }
                    let v = r[*j].sub(&re.mul(f));
                    r[*j] = if v.is_negligible() { zero.clone() } else { v };
                }
                *z = z.sub(&re.mul(&self.b[row]));
                r[col] = zero;
            }
        }
        self.basis[row] = col;
    }

    /// Reduced costs `r_j = c_j − c_B · B⁻¹A_j` into `r` (with `cb` as the
    /// basic-cost scratch), summed row by row over the rows with a
    /// non-negligible basic cost; returns the negated objective value.
    fn reduced_costs(&self, cost: &[S], cb: &mut Vec<S>, r: &mut Vec<S>) -> S {
        cb.clear();
        cb.extend(self.basis.iter().map(|&bv| cost[bv].clone()));
        let zero = S::zero();
        r.clear();
        r.resize(self.n_total, zero.clone());
        for (i, c) in cb.iter().enumerate() {
            if c.is_negligible() {
                continue;
            }
            let cells = &self.a[i * self.w..i * self.w + self.n_total];
            for (acc, v) in r.iter_mut().zip(cells) {
                if *v != zero {
                    *acc = acc.add(&c.mul(v));
                }
            }
        }
        for (acc, c) in r.iter_mut().zip(cost) {
            *acc = if acc.is_negligible() {
                c.clone()
            } else {
                c.sub(acc)
            };
        }
        let mut z = zero;
        for (i, c) in cb.iter().enumerate() {
            if !c.is_negligible() {
                z = z.sub(&c.mul(&self.b[i]));
            }
        }
        z
    }

    /// Primal simplex until optimal (`true`) or unbounded (`false`).
    /// Dantzig pricing with a Bland fallback after a degeneracy streak.
    /// With `near_ties`, a column displaces the best candidate only when
    /// its reduced cost is lower by more than the tolerance, so reduced
    /// costs that agree to within it go to the lower column; without, only
    /// an exact tie does.
    fn run_primal(&mut self, r: &mut [S], z: &mut S, near_ties: bool) -> bool {
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
                    let lower = |bj: usize| {
                        if near_ties {
                            r[j].lt_tol(&r[bj])
                        } else {
                            r[j].cmp_total(&r[bj]) == std::cmp::Ordering::Less
                        }
                    };
                    if r[j].is_negative_tol() && best.is_none_or(lower) {
                        best = Some(j);
                    }
                }
                best
            };
            let Some(enter) = enter else {
                return true; // optimal
            };
            // Ratio test down the entering column; smallest-basis-index
            // tie-break (required in Bland mode).
            let mut best: Option<(S, usize)> = None;
            for i in 0..m {
                let v = &self.a[i * self.w + enter];
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
        panic!("revised simplex exceeded pivot cap — this indicates a bug");
    }

    /// Dual simplex repair: assumes `r ≥ 0` (dual feasible) and drives
    /// `b ≥ 0`. Returns `Some(true)` when primal feasibility was reached,
    /// `Some(false)` on a primal-infeasibility certificate, `None` when
    /// the pivot budget ran out or more than `rows` pivots in a row were
    /// degenerate (caller should fall back to a cold solve). The repair
    /// has no anti-cycling rule: a degenerate stall is given up, not
    /// ridden out.
    fn run_dual(&mut self, r: &mut [S], z: &mut S) -> Option<bool> {
        let m = self.b.len();
        let max_pivots = MAX_PIVOTS_FACTOR * (m + self.n_total + 1);
        let mut streak = 0usize;
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
            // The dual objective moves by r[enter] times the step: a zero
            // reduced cost makes the pivot degenerate.
            streak = if r[enter].is_positive_tol() {
                0
            } else {
                streak + 1
            };
            if streak > m {
                return None;
            }
            self.pivot(leave, enter, Some((r, z)), true);
        }
        None
    }

    /// Removes row `row`: the last row moves into its place (swap-remove
    /// semantics across the entries, `b` and `basis`).
    fn remove_row(&mut self, row: usize) {
        let (last, w) = (self.b.len() - 1, self.w);
        if row != last {
            let (head, tail) = self.a.split_at_mut(last * w);
            head[row * w..(row + 1) * w].swap_with_slice(&mut tail[..w]);
        }
        self.b.swap_remove(row);
        self.basis.swap_remove(row);
    }

    /// After phase 1: pivot zero-level artificials out of the basis, drop
    /// rows that prove redundant, and retire the artificial columns
    /// (their entries stay in the buffer, unread).
    fn purge_artificials(&mut self) {
        let mut row = 0;
        while row < self.b.len() {
            if self.basis[row] >= self.art_start {
                let col = (0..self.art_start).find(|&j| !self.a[row * self.w + j].is_negligible());
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
            let j = self.col_of[v.index()];
            cost[j] = if negate {
                cost[j].sub(c)
            } else {
                cost[j].add(c)
            };
        }
        negate
    }

    /// Extracts the solution after an optimal phase 2.
    fn extract(&self, z: S, negate: bool) -> LpSolution<S> {
        let mut values = vec![S::zero(); self.n_vars];
        for (i, &bv) in self.basis.iter().enumerate() {
            if let Some(&v) = self.var_of.get(bv) {
                values[v] = self.b[i].clone();
            }
        }
        let min_val = z.neg();
        let objective = if negate { min_val.neg() } else { min_val };
        LpSolution::optimal(objective, values)
    }

    /// The basis, as a hint for the program this tableau was built from.
    fn snapshot_basis(&self) -> WarmBasis {
        WarmBasis {
            n_vars: self.n_vars,
            rels: self.rows.iter().map(|r| r.0).collect(),
            basis: self.basis.iter().map(|&j| self.program_col(j)).collect(),
        }
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
            if !self.run_primal(r, &mut z, false) || z.neg().is_positive_tol() {
                return (LpSolution::infeasible(p.n_vars()), None);
            }
            self.purge_artificials();
        }
        let negate = self.phase2_cost(p, cost);
        let mut z = self.reduced_costs(cost, cb, r);
        if !self.run_primal(r, &mut z, false) {
            return (LpSolution::unbounded(p.n_vars()), None);
        }
        self.optimal = true;
        let basis = want_basis.then(|| self.snapshot_basis());
        (self.extract(z, negate), basis)
    }

    /// Warm start on a warm [`Tab::build`] tableau: re-realizes the
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
        let n_struct = self.var_of.len();

        // Re-realize the hinted basis by Gaussian pivoting: for each hinted
        // column pick the not-yet-assigned row with the largest pivot.
        let assigned = &mut ws.flags;
        assigned.clear();
        assigned.resize(m, false);
        for &h in hint {
            let c = self.tableau_col(h);
            if c >= self.n_total || self.basis.contains(&c) {
                continue;
            }
            let mut pick: Option<(usize, S)> = None;
            for i in 0..m {
                let v = &self.a[i * self.w + c];
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
            let col = (n_struct..self.n_total)
                .chain(0..n_struct)
                .find(|&j| !self.basis.contains(&j) && !self.a[row * self.w + j].is_negligible())?; // cannot complete a basis — cold solve
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
        if !self.run_primal(r, &mut z, true) {
            return Some((LpSolution::unbounded(p.n_vars()), None));
        }
        Some((self.extract(z, negate), Some(self.snapshot_basis())))
    }

    /// [`solve_dual_in`] on a dual-start [`Tab::build`] tableau: pivots
    /// each equality row's last term into that row, in row order, then
    /// runs the dual simplex to primal feasibility and the primal simplex
    /// to a verdict. `None` when the start cannot serve (see
    /// [`solve_dual_in`]).
    fn solve_dual_start(
        &mut self,
        p: &LpProblem<S>,
        ws: &mut LpWorkspace<S>,
    ) -> Option<LpSolution<S>> {
        for (i, c) in p.constraints().iter().enumerate() {
            if c.rel != Rel::Eq {
                continue;
            }
            let col = self.col_of[c.expr.terms.last()?.0.index()];
            if self.a[i * self.w + col].is_negligible() {
                return None;
            }
            self.pivot(i, col, None, false);
        }
        let LpWorkspace { cost, r, cb, .. } = ws;
        let negate = self.phase2_cost(p, cost);
        let mut z = self.reduced_costs(cost, cb, r);
        if r.iter().any(|v| v.is_negative_tol()) {
            return None;
        }
        if !self.run_dual(r, &mut z)? {
            return Some(LpSolution::infeasible(p.n_vars()));
        }
        if !self.run_primal(r, &mut z, false) {
            return Some(LpSolution::unbounded(p.n_vars()));
        }
        self.optimal = true;
        Some(self.extract(z, negate))
    }

    /// [`reoptimize_in`] on this tableau, the workspace's last.
    fn reoptimize(&mut self, p: &LpProblem<S>, ws: &mut LpWorkspace<S>) -> Option<LpSolution<S>> {
        let fits = self.optimal
            && self.n_vars == p.n_vars()
            && self.rows.len() == p.n_constraints()
            && p.constraints()
                .iter()
                .zip(&self.rows)
                .all(|(c, (rel, ..))| c.rel == *rel)
            && p.objective()
                .terms
                .iter()
                .all(|(v, _)| self.col_of[v.index()] != usize::MAX);
        if !fits {
            return None;
        }
        // Until the primal simplex below ends optimal again.
        self.optimal = false;
        let zero = S::zero();
        let mut slack = self.var_of.len();
        for (c, (rel, rhs, negated)) in p.constraints().iter().zip(&mut self.rows) {
            if c.rhs != *rhs {
                if *rel == Rel::Eq || *negated {
                    return None;
                }
                // A `≥` row's surplus column holds −B⁻¹e_k.
                let delta = c.rhs.sub(rhs);
                let delta = if *rel == Rel::Ge { delta.neg() } else { delta };
                for (i, b) in self.b.iter_mut().enumerate() {
                    let t = &self.a[i * self.w + slack];
                    if *t != zero {
                        let v = b.add(&delta.mul(t));
                        *b = if v.is_negligible() { zero.clone() } else { v };
                    }
                }
                *rhs = c.rhs.clone();
            }
            if *rel != Rel::Eq {
                slack += 1;
            }
        }
        if self.b.iter().any(|v| v.is_negative_tol()) {
            return None;
        }
        let LpWorkspace { cost, r, cb, .. } = ws;
        let negate = self.phase2_cost(p, cost);
        let mut z = self.reduced_costs(cost, cb, r);
        if !self.run_primal(r, &mut z, true) {
            return Some(LpSolution::unbounded(p.n_vars()));
        }
        self.optimal = true;
        Some(self.extract(z, negate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarId;
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
    fn a_column_only_the_objective_mentions_reports_unbounded() {
        // min x − y s.t. x ≥ 1: no row mentions y, but its cost keeps its
        // column, so it enters with an empty ratio test. z is mentioned
        // nowhere and has no column; it reads 0 in a bounded solve.
        let mut lp: LpProblem<f64> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_var("z");
        lp.set_objective(LinExpr::from_iter([(x, 1.0), (y, -1.0)]));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Ge, 1.0);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
        assert_eq!(crate::simplex::solve(&lp).status, LpStatus::Unbounded);
        lp.set_objective(LinExpr::term(x, 1.0));
        let sol = solve(&lp);
        assert_eq!(sol.objective, Some(1.0));
        assert_eq!(sol.values, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn a_hint_maps_its_columns_past_a_variable_the_next_program_drops() {
        // P1: max 2x0 + x2 s.t. x0 + x1 + x3 ≤ 1, x2 ≤ 1 — optimal basis
        // {x0, x2}. P2 mentions x0 nowhere, so its tableau columns of x1..x3
        // shift down by one. Mapped, the hint realizes x2 (then the slack of
        // row 0), which is primal feasible; read unmapped it would realize
        // {x1, x3}, neither primal nor dual feasible, and go cold.
        fn program(p2: bool) -> LpProblem<Rat> {
            let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Maximize);
            let x: Vec<_> = (0..4).map(|k| lp.add_var(format!("x{k}"))).collect();
            let (one, two) = (Rat::one(), Rat::from_i64(2));
            if p2 {
                lp.set_objective(LinExpr::from_iter(x[1..].iter().map(|&v| (v, one.clone()))));
                lp.add_constraint(
                    LinExpr::from_iter([(x[1], one.clone()), (x[3], one.clone())]),
                    Rel::Le,
                    one.clone(),
                );
                lp.add_constraint(
                    LinExpr::from_iter([(x[2], one.clone()), (x[3], one.neg())]),
                    Rel::Le,
                    one,
                );
            } else {
                lp.set_objective(LinExpr::from_iter([(x[0], two), (x[2], one.clone())]));
                lp.add_constraint(
                    LinExpr::from_iter([
                        (x[0], one.clone()),
                        (x[1], one.clone()),
                        (x[3], one.clone()),
                    ]),
                    Rel::Le,
                    one.clone(),
                );
                lp.add_constraint(LinExpr::term(x[2], one.clone()), Rel::Le, one);
            }
            lp
        }
        let first = solve_warm(&program(false), None);
        let hint = first.basis.expect("P1 is optimal");
        assert!(hint.basis.contains(&0), "x0 is basic in P1");
        let p2 = program(true);
        let warm = solve_warm(&p2, Some(&hint));
        let cold = solve(&p2);
        assert!(warm.warm_used);
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        assert_eq!(warm.solution.objective, Some(Rat::from_i64(3)));
        assert_eq!(warm.solution.objective, cold.objective);
        assert_eq!(warm.solution.values, cold.values);
        // The snapshot is in the program's column space: x3 and x2.
        let mut basis = warm.basis.expect("optimal").basis;
        basis.sort_unstable();
        assert_eq!(basis, vec![2, 3]);
    }

    /// min 2x + y s.t. x + y = 2, 2x + 2y = 4, x − y ≤ 1: phase 1 ends at
    /// (3/2, 1/2) and proves the middle row redundant, so the last row,
    /// where x is basic, moves into its place; phase 2 then pivots x out
    /// of that row to reach (0, 2).
    fn middle_row_redundant<S: Scalar>() -> LpProblem<S> {
        let k = S::from_i64;
        let mut lp: LpProblem<S> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, k(2)), (y, k(1))]));
        lp.add_constraint(LinExpr::from_iter([(x, k(1)), (y, k(1))]), Rel::Eq, k(2));
        lp.add_constraint(LinExpr::from_iter([(x, k(2)), (y, k(2))]), Rel::Eq, k(4));
        lp.add_constraint(LinExpr::from_iter([(x, k(1)), (y, k(-1))]), Rel::Le, k(1));
        lp
    }

    #[test]
    fn removing_a_redundant_middle_row_keeps_the_last_one() {
        let exact = middle_row_redundant::<Rat>();
        let (sol, dense) = (solve(&exact), crate::simplex::solve(&exact));
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.status, dense.status);
        assert_eq!(sol.objective, Some(Rat::from_i64(2)));
        assert_eq!(sol.objective, dense.objective);
        assert_eq!(sol.values, vec![Rat::zero(), Rat::from_i64(2)]);
        let float = middle_row_redundant::<f64>();
        let (sol, dense) = (solve(&float), crate::simplex::solve(&float));
        assert_eq!(sol.status, dense.status);
        assert!((sol.objective.unwrap() - dense.objective.unwrap()).abs() < 1e-9);
        assert!((sol.objective.unwrap() - 2.0).abs() < 1e-9);
    }

    /// The textbook program (max 3x + 5y s.t. x ≤ 4, 2y ≤ 12,
    /// 3x + 2y ≤ 18; optimum 36 at (2, 6), where only x ≤ 4 has a basic
    /// slack, 2) with row 0's right-hand side at `x_cap`, objective
    /// `cx·x + cy·y` and sense `sense`.
    fn textbook(x_cap: f64, (cx, cy): (f64, f64), sense: Sense) -> LpProblem<f64> {
        let mut lp: LpProblem<f64> = LpProblem::new(sense);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective(LinExpr::from_iter([(x, cx), (y, cy)]));
        lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, x_cap);
        lp.add_constraint(LinExpr::term(y, 2.0), Rel::Le, 12.0);
        lp.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 2.0)]), Rel::Le, 18.0);
        lp
    }

    #[test]
    fn reoptimizing_a_changed_rhs_and_objective_equals_a_cold_solve() {
        let mut ws = LpWorkspace::new();
        assert_eq!(
            solve_in(&textbook(4.0, (3.0, 5.0), Sense::Maximize), &mut ws).objective,
            Some(36.0)
        );
        // Tighten x ≤ 4 to x ≤ 3 (its slack, 2, stays basic at 1) and
        // maximize 3x + y instead: the optimum moves to (3, 4.5), 13.5.
        let changed = textbook(3.0, (3.0, 1.0), Sense::Maximize);
        let re = reoptimize_in(&changed, &mut ws).expect("the old basis stays feasible");
        let cold = solve(&changed);
        assert_eq!(re.status, LpStatus::Optimal);
        assert_eq!(
            (re.objective, re.values.clone()),
            (Some(13.5), vec![3.0, 4.5])
        );
        assert_eq!((re.objective, re.values), (cold.objective, cold.values));
        // The re-optimized tableau is optimal in turn, so it chains: min
        // x − y over the same rows, 0 − 6 at (0, 6).
        let again = textbook(3.0, (1.0, -1.0), Sense::Minimize);
        let re = reoptimize_in(&again, &mut ws).expect("chains");
        assert_eq!((re.objective, re.values), (Some(-6.0), vec![0.0, 6.0]));
        assert_eq!(re.objective, solve(&again).objective);
    }

    #[test]
    fn reoptimizing_a_ge_row_moves_its_surplus_the_other_way() {
        // min x + y s.t. x + y ≥ 1, x ≤ 5, y ≤ 5 over Rat → 1. Raising the
        // ≥ row to 3 moves the basic values the other way from a ≤ row.
        let program = |lo: i64, cy: i64| {
            let k = Rat::from_i64;
            let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
            let x = lp.add_var("x");
            let y = lp.add_var("y");
            lp.set_objective(LinExpr::from_iter([(x, k(1)), (y, k(cy))]));
            lp.add_constraint(LinExpr::from_iter([(x, k(1)), (y, k(1))]), Rel::Ge, k(lo));
            lp.add_constraint(LinExpr::term(x, k(1)), Rel::Le, k(5));
            lp.add_constraint(LinExpr::term(y, k(1)), Rel::Le, k(5));
            lp
        };
        let mut ws = LpWorkspace::new();
        assert_eq!(
            solve_in(&program(1, 1), &mut ws).objective,
            Some(Rat::one())
        );
        // A higher floor only shortens the basic slacks of x ≤ 5 and
        // y ≤ 5; with y twice as dear, all of it goes to x.
        let changed = program(3, 2);
        let re = reoptimize_in(&changed, &mut ws).expect("feasible");
        assert_eq!(re.objective, Some(Rat::from_i64(3)));
        assert_eq!(re.objective, solve(&changed).objective);
        assert_eq!(re.values, solve(&changed).values);
    }

    /// `reoptimize_in` refuses `p` after `first` was solved through a
    /// workspace, and the workspace's next solve equals a fresh one.
    fn refuses_then_solves_fresh(first: &LpProblem<f64>, p: &LpProblem<f64>) {
        let mut ws = LpWorkspace::new();
        solve_in(first, &mut ws);
        assert!(reoptimize_in(p, &mut ws).is_none());
        assert!(reoptimize_in(p, &mut ws).is_none(), "a refusal is final");
        let (next, fresh) = (solve_in(p, &mut ws), solve(p));
        assert_eq!(
            (next.status, next.objective),
            (fresh.status, fresh.objective)
        );
        assert_eq!(next.values, fresh.values);
    }

    #[test]
    fn reoptimizing_refuses_a_tableau_that_cannot_serve() {
        let base = textbook(4.0, (3.0, 5.0), Sense::Maximize);
        // The last solve did not end optimal: x ≥ 5 contradicts x ≤ 4.
        let mut infeasible = base.clone();
        infeasible.add_constraint(LinExpr::term(VarId(0), 1.0), Rel::Ge, 5.0);
        let mut unbounded: LpProblem<f64> = LpProblem::new(Sense::Maximize);
        let x = unbounded.add_var("x");
        unbounded.add_var("y");
        unbounded.set_objective(LinExpr::term(x, 1.0));
        for _ in 0..3 {
            unbounded.add_constraint(LinExpr::term(x, -1.0), Rel::Le, 0.0);
        }
        refuses_then_solves_fresh(&infeasible, &infeasible);
        refuses_then_solves_fresh(&unbounded, &base);
        // Another shape: one row more, or one relation changed.
        let mut more = base.clone();
        more.add_constraint(LinExpr::term(VarId(1), 1.0), Rel::Le, 5.0);
        refuses_then_solves_fresh(&base, &more);
        let mut ge = textbook(4.0, (3.0, 5.0), Sense::Maximize);
        ge.constraints_mut()[0].rel = Rel::Ge;
        refuses_then_solves_fresh(&base, &ge);
        // A changed equality row.
        let mut eq = base.clone();
        eq.constraints_mut()[0].rel = Rel::Eq;
        let mut eq_moved = eq.clone();
        eq_moved.constraints_mut()[0].rhs = 3.0;
        refuses_then_solves_fresh(&eq, &eq_moved);
        // A change that drives a basic value negative: x ≤ 1 would leave
        // x ≤ 4's slack at −1.
        refuses_then_solves_fresh(&base, &textbook(1.0, (3.0, 5.0), Sense::Maximize));
        // A row the cold build sign-flipped: −x ≤ −1 became x ≥ 1.
        let mut flipped = base.clone();
        flipped.add_constraint(LinExpr::term(VarId(0), -1.0), Rel::Le, -1.0);
        let mut flipped_moved = flipped.clone();
        flipped_moved.constraints_mut()[3].rhs = -0.5;
        refuses_then_solves_fresh(&flipped, &flipped_moved);
        // An objective variable without a column: z is mentioned nowhere
        // in the solved program.
        let mut with_z = base.clone();
        let z = with_z.add_var("z");
        let mut prices_z = with_z.clone();
        prices_z.set_objective(LinExpr::term(z, 1.0));
        refuses_then_solves_fresh(&with_z, &prices_z);
    }

    /// min x + 2y + z s.t. x + y ≥ 2, x − y ≤ −1 (a `≤` row with a
    /// negative right-hand side), x ≤ 4, y ≤ 4, x + y + z = 3 over `Rat`:
    /// the dual start begins at x = y = 0, z = 3 with two rows negative
    /// and repairs to (1/2, 3/2, 1), 9/2.
    fn dual_startable() -> LpProblem<Rat> {
        let k = Rat::from_i64;
        let mut lp: LpProblem<Rat> = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective(LinExpr::from_iter([(x, k(1)), (y, k(2)), (z, k(1))]));
        lp.add_constraint(LinExpr::from_iter([(x, k(1)), (y, k(1))]), Rel::Ge, k(2));
        lp.add_constraint(LinExpr::from_iter([(x, k(1)), (y, k(-1))]), Rel::Le, k(-1));
        lp.add_constraint(LinExpr::term(x, k(1)), Rel::Le, k(4));
        lp.add_constraint(LinExpr::term(y, k(1)), Rel::Le, k(4));
        lp.add_constraint(
            LinExpr::from_iter([(x, k(1)), (y, k(1)), (z, k(1))]),
            Rel::Eq,
            k(3),
        );
        lp
    }

    #[test]
    fn a_dual_start_reaches_the_two_phase_optimum() {
        let lp = dual_startable();
        let mut ws = LpWorkspace::new();
        let dual = solve_dual_in(&lp, &mut ws).expect("the slack basis is dual feasible");
        let cold = solve(&lp);
        assert_eq!(dual.status, LpStatus::Optimal);
        assert_eq!(dual.objective, Some(Rat::from_ratio(9, 2)));
        assert_eq!(dual.values, cold.values);
        assert_eq!(dual.objective, cold.objective);
        // The tableau it leaves is optimal: its basis seeds a warm solve
        // that needs no repair.
        let warm = solve_warm(&lp, ws.basis().as_ref());
        assert!(warm.warm_used);
        assert_eq!(warm.solution.objective, cold.objective);
    }

    #[test]
    fn a_dual_start_refuses_and_leaves_the_workspace_usable() {
        let k = Rat::from_i64;
        // Not dual feasible: maximizing x prices x at −1.
        let mut max = dual_startable();
        max.reset_objective(Sense::Maximize);
        max.objective_term(VarId(0), k(1));
        // An equality row without terms.
        let mut empty = dual_startable();
        empty.push_row(Rel::Eq, k(1));
        // A last term whose entry the rows above cancel: 2x + 2y + 2z = 6
        // repeats the equality row, so z's entry there pivots to zero.
        let mut repeated = dual_startable();
        repeated.add_constraint(
            LinExpr::from_iter([(VarId(0), k(2)), (VarId(1), k(2)), (VarId(2), k(2))]),
            Rel::Eq,
            k(6),
        );
        for p in [&max, &empty, &repeated] {
            let mut ws = LpWorkspace::new();
            solve_in(&dual_startable(), &mut ws);
            assert!(solve_dual_in(p, &mut ws).is_none());
            assert!(ws.basis().is_none(), "a refusal leaves no optimal tableau");
            let (next, fresh) = (solve_in(p, &mut ws), solve(p));
            assert_eq!(
                (next.status, next.objective),
                (fresh.status, fresh.objective)
            );
            assert_eq!(next.values, fresh.values);
        }
    }

    #[test]
    fn reoptimizing_after_a_dual_start_reads_the_recorded_negation() {
        let k = Rat::from_i64;
        // The dual start negated x + y ≥ 2, so a change to it is refused.
        let mut ws = LpWorkspace::new();
        solve_dual_in(&dual_startable(), &mut ws).expect("serves");
        let mut ge_moved = dual_startable();
        ge_moved.constraints_mut()[0].rhs = k(3);
        assert!(reoptimize_in(&ge_moved, &mut ws).is_none());
        // x − y ≤ −1 has a negative right-hand side but kept its sign, so
        // moving it to −2 re-optimizes: (0, 2, 1), 5.
        let mut ws = LpWorkspace::new();
        solve_dual_in(&dual_startable(), &mut ws).expect("serves");
        let mut le_moved = dual_startable();
        le_moved.constraints_mut()[1].rhs = k(-2);
        let re = reoptimize_in(&le_moved, &mut ws).expect("the row was not negated");
        let cold = solve(&le_moved);
        assert_eq!(re.objective, Some(k(5)));
        assert_eq!((re.objective, re.values), (cold.objective, cold.values));
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
