//! Property-based tests of the core algorithms' invariants.

use dlflow_core::deadline::deadline_feasible_divisible;
use dlflow_core::decompose::{decompose_interval, verify_phases};
use dlflow_core::instance::{Cost, Instance, Job};
use dlflow_core::matching::hopcroft_karp;
use dlflow_core::maxflow::FlowOutcome;
use dlflow_core::maxflow::{
    feasible_at, min_max_weighted_flow_divisible, min_max_weighted_flow_divisible_with,
    min_max_weighted_flow_preemptive, ProbeMethod,
};
use dlflow_core::uniform::{deadline_feasible_with_factors, uniform_factors};
use dlflow_core::validate::{validate, ValidationError};
use dlflow_num::Rat;
use proptest::prelude::*;

fn ri(v: i64) -> Rat {
    Rat::from_i64(v)
}

/// A uniform-restricted instance with dyadic sizes `sizes[j]/4` and
/// cycle times `cycles[i]/4`. Machine `j % m` always holds job `j`;
/// `mask[i·n + j]` adds the rest.
fn uniform_instance(
    sizes: &[i64],
    cycles: &[i64],
    releases: &[Rat],
    mask: &[bool],
) -> Instance<Rat> {
    let (n, m) = (sizes.len(), cycles.len());
    let quarter = |v: &i64| Rat::from_ratio(*v, 4);
    let avail: Vec<Vec<bool>> = (0..m)
        .map(|i| (0..n).map(|j| mask[i * n + j] || i == j % m).collect())
        .collect();
    Instance::uniform_restricted(
        &sizes.iter().map(quarter).collect::<Vec<_>>(),
        releases,
        &vec![Rat::one(); n],
        &cycles.iter().map(quarter).collect::<Vec<_>>(),
        &avail,
    )
    .unwrap()
}

/// The schedule is legal, finishes every job of positive work (a
/// zero-work job gets no slice, which `validate` reports as incomplete),
/// and its max weighted flow is the claimed optimum.
fn attains_its_optimum(inst: &Instance<Rat>, out: &FlowOutcome<Rat>) -> Result<(), TestCaseError> {
    match validate(inst, &out.schedule) {
        Ok(()) => {}
        // Completion is checked last, so every per-machine check passed.
        Err(ValidationError::IncompleteJob { .. }) => {
            let done = out.schedule.processed_fractions(inst);
            for (j, frac) in done.iter().enumerate() {
                if inst.fastest_cost(j).is_positive() {
                    prop_assert_eq!(frac, &Rat::one(), "job {} incomplete", j);
                }
            }
        }
        Err(e) => prop_assert!(false, "invalid schedule: {}", e),
    }
    prop_assert_eq!(out.schedule.max_weighted_flow(inst), out.optimum.clone());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gonzalez–Sahni decomposition: for any non-negative work matrix with
    /// row/col sums ≤ len, the phases exactly reconstruct the matrix and
    /// never double-book a machine or a job.
    #[test]
    fn decompose_reconstructs_any_feasible_matrix(
        m in 1usize..4,
        n in 1usize..5,
        cells in proptest::collection::vec(0i64..4, 20),
    ) {
        let raw: Vec<Vec<i64>> = (0..m).map(|i| (0..n).map(|j| cells[(i * 5 + j) % 20]).collect()).collect();
        // len = max(row sums, col sums) guarantees feasibility.
        let row_max = raw.iter().map(|r| r.iter().sum::<i64>()).max().unwrap_or(0);
        let col_max = (0..n).map(|j| raw.iter().map(|r| r[j]).sum::<i64>()).max().unwrap_or(0);
        let len = ri(row_max.max(col_max).max(1));
        let work: Vec<Vec<Rat>> = raw.iter().map(|r| r.iter().map(|&v| ri(v)).collect()).collect();
        let phases = decompose_interval(&work, &len);
        prop_assert!(verify_phases(&work, &len, &phases).is_ok());
        prop_assert!(phases.len() <= (m + n) * (m + n));
    }

    /// Hopcroft–Karp matchings are consistent and maximal wrt simple
    /// augmenting checks (no free-left-vertex adjacent to free-right).
    #[test]
    fn matching_is_maximal_and_consistent(
        n in 1usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
    ) {
        let mut adj = vec![Vec::new(); n];
        for (u, v) in edges {
            if u < n && v < n && !adj[u].contains(&v) {
                adj[u].push(v);
            }
        }
        let (size, ml, mr) = hopcroft_karp(n, n, &adj);
        // Consistency.
        let mut count = 0;
        for (u, &v) in ml.iter().enumerate() {
            if v != usize::MAX {
                prop_assert_eq!(mr[v], u);
                prop_assert!(adj[u].contains(&v));
                count += 1;
            }
        }
        prop_assert_eq!(count, size);
        // No trivially augmentable pair remains.
        for u in 0..n {
            if ml[u] == usize::MAX {
                for &v in &adj[u] {
                    prop_assert!(mr[v] != usize::MAX, "edge ({u},{v}) left unmatched both sides");
                }
            }
        }
    }

    /// On uniform instances, the LP (Lemma 1) and the max-flow fast path
    /// must agree on deadline feasibility for arbitrary deadlines.
    #[test]
    fn uniform_maxflow_agrees_with_lp(
        works in proptest::collection::vec(1i64..6, 1..4),
        speeds in proptest::collection::vec(1i64..4, 1..3),
        rels in proptest::collection::vec(0i64..4, 4),
        dls in proptest::collection::vec(1i64..16, 4),
        holes in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let n = works.len();
        let m = speeds.len();
        let jobs: Vec<Job<Rat>> = (0..n)
            .map(|j| Job { release: ri(rels[j % 4]), weight: Rat::one(), name: format!("J{j}") })
            .collect();
        let mut cost: Vec<Vec<Cost<Rat>>> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if holes[(i * 4 + j) % 12] && m > 1 {
                            Cost::Infinite
                        } else {
                            Cost::Finite(ri(works[j] * speeds[i]))
                        }
                    })
                    .collect()
            })
            .collect();
        for j in 0..n {
            if !(0..m).any(|i| cost[i][j].is_finite()) {
                cost[0][j] = Cost::Finite(ri(works[j] * speeds[0]));
            }
        }
        let inst = Instance::new(jobs, cost).unwrap();
        let factors = uniform_factors(&inst).expect("constructed uniform");
        let deadlines: Vec<Rat> = (0..n).map(|j| ri(dls[j % 4])).collect();
        let lp = deadline_feasible_divisible(&inst, &deadlines);
        let mf = deadline_feasible_with_factors(&inst, &deadlines, &factors);
        prop_assert_eq!(lp.is_some(), mf.is_some());
        if let Some(s) = mf {
            prop_assert!(validate(&inst, &s).is_ok());
            // Deadlines actually met.
            for (j, c) in s.completion_times(n).into_iter().enumerate() {
                if let Some(c) = c {
                    prop_assert!(c <= deadlines[j]);
                }
            }
        }
    }

    /// Zero (`Rat`) and sub-tolerance (`f64`, ≤ 1e-9) costs: jobs of
    /// negligible work fix no machine speed, yet the max-flow probe path
    /// must still factorize the instance and return the LP probe's
    /// optimum.
    #[test]
    fn uniform_probe_handles_negligible_work(
        kinds in proptest::collection::vec(0u8..3, 2..5),
        speeds in proptest::collection::vec(1i64..4, 1..4),
        rels in proptest::collection::vec(0i64..4, 4),
        holes in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let n = kinds.len();
        let m = speeds.len();
        // kind 0: negligible work; otherwise work = kind.
        let build = |zero: f64| -> (Instance<Rat>, Instance<f64>) {
            let avail = |i: usize, j: usize| !holes[(i * 4 + j) % 16] || i == j % m;
            let jobs = |sc: &dyn Fn(i64) -> f64| -> Vec<Job<f64>> {
                (0..n)
                    .map(|j| Job { release: sc(rels[j % 4]), weight: 1.0, name: String::new() })
                    .collect()
            };
            let cost: Vec<Vec<Cost<f64>>> = (0..m)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let w = if kinds[j] == 0 { zero } else { f64::from(kinds[j]) };
                            if avail(i, j) {
                                Cost::Finite(w * speeds[i] as f64)
                            } else {
                                Cost::Infinite
                            }
                        })
                        .collect()
                })
                .collect();
            let float = Instance::new(jobs(&|v| v as f64), cost).unwrap();
            (float.map_scalar(|v| Rat::from_f64(*v)), float)
        };
        let (exact, _) = build(0.0);
        let mf = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform);
        let lp = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::Lp);
        prop_assert_eq!(&mf.optimum, &lp.optimum);

        let (_, float) = build(1e-10);
        let mf = min_max_weighted_flow_divisible_with(&float, ProbeMethod::MaxFlowUniform);
        let lp = min_max_weighted_flow_divisible_with(&float, ProbeMethod::Lp);
        prop_assert!(
            (mf.optimum - lp.optimum).abs() <= 1e-6 * lp.optimum.abs().max(1.0),
            "max-flow {} vs LP {}", mf.optimum, lp.optimum
        );
    }

    /// The preemptive and divisible optima are infeasible slightly below
    /// (by the plain exact probe, independent of the range LP's float
    /// guide) and achieved by legal schedules.
    #[test]
    fn preemptive_optimum_is_tight(
        costs in proptest::collection::vec(1i64..6, 2..4),
        rels in proptest::collection::vec(0i64..3, 2..4),
    ) {
        let n = costs.len().min(rels.len());
        let jobs: Vec<Job<Rat>> = (0..n)
            .map(|j| Job { release: ri(rels[j]), weight: ri(1 + (j as i64 % 2)), name: format!("J{j}") })
            .collect();
        let cost: Vec<Vec<Cost<Rat>>> = (0..2)
            .map(|i| (0..n).map(|j| Cost::Finite(ri(costs[j] * (i as i64 + 1)))).collect())
            .collect();
        let inst = Instance::new(jobs, cost).unwrap();
        for preemptive in [true, false] {
            let out = if preemptive {
                min_max_weighted_flow_preemptive(&inst)
            } else {
                min_max_weighted_flow_divisible(&inst)
            };
            prop_assert!(validate(&inst, &out.schedule).is_ok());
            prop_assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum.clone());
            let below = out.optimum.mul_ref(&Rat::from_ratio(99, 100));
            if below.is_positive() {
                prop_assert!(!feasible_at(&inst, &below, preemptive));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any uniform-restricted cost matrix factorizes, whatever order
    /// propagation reaches the machines in, and the factors reproduce
    /// every finite cost.
    #[test]
    fn uniform_restricted_instances_always_factorize(
        sizes in proptest::collection::vec(0i64..9, 1..10),
        cycles in proptest::collection::vec(1i64..17, 1..9),
        mask in proptest::collection::vec(any::<bool>(), 72),
    ) {
        let releases = vec![Rat::zero(); sizes.len()];
        let inst = uniform_instance(&sizes, &cycles, &releases, &mask);
        let f = uniform_factors(&inst);
        prop_assert!(f.is_some(), "sizes {:?}, cycles {:?}", sizes, cycles);
        let f = f.unwrap();
        for i in 0..inst.n_machines() {
            for j in 0..inst.n_jobs() {
                if let Some(c) = inst.cost(i, j).finite() {
                    prop_assert_eq!(&f.work[j].mul_ref(&f.speed[i]), c);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The LP-free exact route (max-flow guide, exact parametric max-flow)
    /// and the all-LP route agree on the optimum exactly, and the LP-free
    /// schedule attains it. Sizes below 3 become zero-work jobs.
    #[test]
    fn lp_free_route_matches_the_lp_route(
        sizes in proptest::collection::vec(0i64..16, 2..15),
        cycles in proptest::collection::vec(1i64..9, 1..9),
        gaps in proptest::collection::vec(0i64..6, 14),
        mask in proptest::collection::vec(any::<bool>(), 112),
        stretch in any::<bool>(),
        staggered in any::<bool>(),
    ) {
        let sizes: Vec<i64> = sizes.iter().map(|&s| if s < 3 { 0 } else { s }).collect();
        let mut at = Rat::zero();
        let releases: Vec<Rat> = gaps[..sizes.len()]
            .iter()
            .map(|&g| {
                if staggered {
                    at = at.add_ref(&Rat::from_ratio(g, 4));
                }
                at.clone()
            })
            .collect();
        let mut inst = uniform_instance(&sizes, &cycles, &releases, &mask);
        if stretch {
            inst = inst.with_stretch_weights();
        }
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        prop_assert_eq!(&mf.optimum, &lp.optimum);
        prop_assert!(!mf.stats.range_lp_guided);
        attains_its_optimum(&inst, &mf)?;
    }
}
