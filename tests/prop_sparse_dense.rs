//! Property tests: the revised simplex (`dlflow_lp::solve`) against the
//! seed's two-phase tableau (`dlflow_lp::solve_dense`) on randomized LPs,
//! and warm-started solves against cold solves. (The file and test names
//! date from when the revised simplex stored its tableau in sparse
//! columns.)
//!
//! Over `Rat` the agreement is **exact**: both solvers must report the
//! same status, and on optimal instances the identical optimal objective
//! (the optimum of an LP is unique even when the optimal vertex is not).

use dlflow_lp::{solve, solve_dense, solve_warm, LinExpr, LpProblem, LpStatus, Rel, Sense};
use dlflow_num::Rat;
use proptest::prelude::*;

fn rel_of(code: u8) -> Rel {
    match code % 4 {
        0 | 1 => Rel::Le, // weight Le: keeps a healthy share of feasible LPs
        2 => Rel::Ge,
        _ => Rel::Eq,
    }
}

/// Random LP over integer data with a mix of `≤`/`≥`/`=` rows and a
/// bounding box, so all three statuses occur but Unbounded stays rare.
fn build_rat_lp(
    n: usize,
    sense: Sense,
    c: &[i64],
    rows: &[(Vec<i64>, u8, i64)],
    cap: i64,
) -> LpProblem<Rat> {
    let mut lp: LpProblem<Rat> = LpProblem::new(sense);
    let vs: Vec<_> = (0..n).map(|i| lp.add_var(format!("x{i}"))).collect();
    lp.set_objective(LinExpr::from_iter(
        vs.iter().zip(c).map(|(&v, &ci)| (v, Rat::from_i64(ci))),
    ));
    for (row, rel, rhs) in rows {
        lp.add_constraint(
            LinExpr::from_iter(vs.iter().zip(row).map(|(&v, &a)| (v, Rat::from_i64(a)))),
            rel_of(*rel),
            Rat::from_i64(*rhs),
        );
    }
    lp.add_constraint(
        LinExpr::from_iter(vs.iter().map(|&v| (v, Rat::one()))),
        Rel::Le,
        Rat::from_i64(cap),
    );
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sparse_agrees_with_dense_exactly(
        n in 1usize..5,
        m in 1usize..5,
        maximize in any::<bool>(),
        seed_c in proptest::collection::vec(-5i64..=5, 4),
        seed_a in proptest::collection::vec(-4i64..=6, 16),
        seed_rel in proptest::collection::vec(0u8..=3, 4),
        seed_b in proptest::collection::vec(-3i64..=10, 4),
        cap in 1i64..=25,
    ) {
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        let rows: Vec<(Vec<i64>, u8, i64)> = (0..m)
            .map(|i| {
                (
                    (0..n).map(|j| seed_a[(i * 4 + j) % 16]).collect(),
                    seed_rel[i % 4],
                    seed_b[i % 4],
                )
            })
            .collect();
        let lp = build_rat_lp(n, sense, &seed_c[..n], &rows, cap);
        let sparse = solve(&lp);
        let dense = solve_dense(&lp);
        prop_assert_eq!(sparse.status, dense.status, "status divergence");
        if sparse.status == LpStatus::Optimal {
            prop_assert_eq!(
                sparse.objective.clone().unwrap(),
                dense.objective.clone().unwrap(),
                "objective divergence"
            );
            // Both returned points must be feasible for the original LP.
            prop_assert!(lp.check_feasible(&sparse.values).is_ok());
            prop_assert!(lp.check_feasible(&dense.values).is_ok());
        }
    }

    #[test]
    fn warm_start_chain_agrees_with_cold(
        n in 1usize..4,
        maximize in any::<bool>(),
        seed_c in proptest::collection::vec(-4i64..=4, 3),
        seed_a in proptest::collection::vec(-3i64..=5, 9),
        seed_rel in proptest::collection::vec(0u8..=3, 3),
        rhs_walk in proptest::collection::vec(-2i64..=12, 4),
        cap in 1i64..=20,
    ) {
        // Re-solve the same structure under a walking RHS, threading the
        // warm basis through; every warm answer must equal the cold one.
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        let m = 2usize;
        let mut basis = None;
        for rhs in &rhs_walk {
            let rows: Vec<(Vec<i64>, u8, i64)> = (0..m)
                .map(|i| {
                    (
                        (0..n).map(|j| seed_a[(i * 3 + j) % 9]).collect(),
                        seed_rel[i % 3],
                        *rhs + i as i64,
                    )
                })
                .collect();
            let lp = build_rat_lp(n, sense, &seed_c[..n], &rows, cap);
            let warm = solve_warm(&lp, basis.as_ref());
            let cold = solve(&lp);
            prop_assert_eq!(warm.solution.status, cold.status);
            if cold.status == LpStatus::Optimal {
                prop_assert_eq!(warm.solution.objective.clone(), cold.objective.clone());
                prop_assert!(lp.check_feasible(&warm.solution.values).is_ok());
            }
            basis = warm.basis;
        }
    }
}
