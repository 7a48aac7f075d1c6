//! # dlflow-lp — linear-programming substrate
//!
//! A self-contained simplex solver, generic over the
//! [`dlflow_num::Scalar`] field. The paper reduces every scheduling
//! question to a linear program (Systems (1), (2), (3) and (5)); no LP
//! crate is available in the offline dependency set, so this one is built
//! from scratch.
//!
//! The default [`solve`] is a **revised simplex on one dense row-major
//! tableau** (Dantzig pricing, Bland anti-cycling fallback,
//! warm-startable via [`solve_warm`]); the seed's two-phase tableau
//! survives as [`solve_dense`] and serves as the reference oracle in
//! property tests. Callers that solve many programs in a row pass one
//! [`LpWorkspace`] to [`solve_in`] and stop allocating tableau storage;
//! [`solve_dual_in`] skips phase 1 by starting the dual simplex from the
//! slack basis where that basis is dual feasible, and [`reoptimize_in`]
//! continues the last solve's optimal tableau after some inequality
//! right-hand sides and the objective changed.
//!
//! The tableau holds `rows × columns` entries, where the columns are the
//! variables some row or the objective mentions, one slack per
//! inequality and, in a cold solve, the artificials; a variable nothing
//! mentions gets no column. The paper's programs are small and fill in
//! as they pivot, so rows cost less than sparse columns would, and the
//! pivot rules fix every operand (see [`revised`] for the invariants), so
//! results do not depend on the layout. The largest tableau the test
//! suites and experiment bins build holds 0.26 M entries (2.1 MB over
//! `f64`); the largest over `Rat`, 0.15 M (3.6 MB).
//!
//! Two instantiations matter:
//!
//! * **`LpProblem<Rat>`** — exact rational arithmetic with Bland's rule:
//!   terminates, never cycles, returns *the* optimum. Used by the
//!   Theorem 2 milestone search, where "optimal max weighted flow" is an
//!   exact rational number; its range LP goes through
//!   [`solve_float_guided`], which lets an `f64` solve pick the basis
//!   that the exact solve then certifies.
//! * **`LpProblem<f64>`** — fast approximate mode for large parameter
//!   sweeps in the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use dlflow_lp::{LpProblem, LinExpr, Rel, Sense, solve, LpStatus};
//!
//! // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
//! let mut lp: LpProblem<f64> = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.set_objective(LinExpr::from_iter([(x, 3.0), (y, 5.0)]));
//! lp.add_constraint(LinExpr::term(x, 1.0), Rel::Le, 4.0);
//! lp.add_constraint(LinExpr::term(y, 2.0), Rel::Le, 12.0);
//! lp.add_constraint(LinExpr::from_iter([(x, 3.0), (y, 2.0)]), Rel::Le, 18.0);
//! let sol = solve(&lp);
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective.unwrap() - 36.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // dense tableau code indexes several arrays in lockstep

pub mod problem;
pub mod revised;
pub mod simplex;
pub mod solution;

pub use problem::{Constraint, LinExpr, LpProblem, Rel, Sense, VarId};
pub use revised::{
    reoptimize_in, solve, solve_dual_in, solve_float_guided, solve_in, solve_warm, LpWorkspace,
    WarmBasis, WarmSolve,
};
pub use simplex::solve as solve_dense;
pub use solution::{LpSolution, LpStatus};
