//! **Theorem 2 validation** — minimizing the max weighted flow is
//! polynomial (§4.3).
//!
//! (a) Milestone census: observed distinct milestones vs the paper's
//!     n²−n bound; binary-search probe count vs ⌈log₂ n_q⌉ + 2.
//! (b) Optimality: exact optimum achieved by the schedule, infeasible
//!     just below, and the execution-model chain
//!     divisible ≤ preemptive ≤ FIFO baseline.
//! (c) Scaling of the full exact pipeline and the f64 pipeline.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_table};
use dlflow_core::baselines::{baseline_max_weighted_flow, ListOrder};
use dlflow_core::maxflow::{
    feasible_at, min_max_weighted_flow_divisible, min_max_weighted_flow_preemptive,
};
use dlflow_core::milestones::{milestone_bound, milestones};
use dlflow_core::validate::validate;
use dlflow_num::Rat;
use dlflow_sim::workload::{generate, WorkloadSpec};
use std::time::Instant;

fn exact_instance(seed: u64, n: usize, m: usize) -> dlflow_core::instance::Instance<Rat> {
    generate(&WorkloadSpec {
        n_jobs: n,
        n_machines: m,
        seed,
        ..Default::default()
    })
    .map_scalar(|v| Rat::from_ratio((v * 16.0).round() as i64, 16))
}

fn main() {
    println!("=== Theorem 2: max weighted flow minimization ===\n");

    // ---------- (a) milestone census ----------
    println!("milestone census (exact arithmetic):");
    let mut rows = Vec::new();
    for n in [2usize, 3, 4, 6, 8, 10] {
        let inst = exact_instance(n as u64, n, 3);
        let ms = milestones(&inst);
        let out = min_max_weighted_flow_divisible(&inst);
        let log_bound = (ms.len().max(1) as f64).log2().ceil() as usize + 2;
        assert!(ms.len() <= milestone_bound(n));
        assert!(out.stats.n_probes <= log_bound.max(2));
        rows.push(vec![
            n.to_string(),
            ms.len().to_string(),
            milestone_bound(n).to_string(),
            format!(
                "{} ({}w/{}c)",
                out.stats.n_probes, out.stats.n_warm_probes, out.stats.n_cold_probes
            ),
            log_bound.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "n jobs",
                "milestones",
                "bound n²−n",
                "probes (warm/cold)",
                "probe bound"
            ],
            &rows
        )
    );

    // ---------- (b) optimality & model chain ----------
    println!("optimality checks (exact arithmetic, 6 random instances):");
    let mut rows = Vec::new();
    for seed in 0..6u64 {
        let inst = exact_instance(100 + seed, 4, 2);
        let div = min_max_weighted_flow_divisible(&inst);
        validate(&inst, &div.schedule).unwrap();
        assert_eq!(div.schedule.max_weighted_flow(&inst), div.optimum);
        let below = div.optimum.mul_ref(&Rat::from_ratio(999, 1000));
        let tight = !below.is_positive() || !feasible_at(&inst, &below, false);
        assert!(tight, "seed {seed}: optimum not tight");

        let pre = min_max_weighted_flow_preemptive(&inst);
        validate(&inst, &pre.schedule).unwrap();
        let fifo = baseline_max_weighted_flow(&inst, ListOrder::ReleaseDate);
        assert!(div.optimum <= pre.optimum && pre.optimum <= fifo);
        rows.push(vec![
            seed.to_string(),
            format!("{:.4}", div.optimum.to_f64()),
            format!("{:.4}", pre.optimum.to_f64()),
            format!("{:.4}", fifo.to_f64()),
            "tight+valid".into(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "seed",
                "F* divisible",
                "F* preemptive",
                "FIFO baseline",
                "verdict"
            ],
            &rows
        )
    );
    println!("chain divisible ≤ preemptive ≤ baseline holds on every instance.\n");

    // ---------- (c) scaling ----------
    println!("scaling of the full Theorem-2 pipeline:");
    let mut rows = Vec::new();
    for &(n, m) in &[(3usize, 2usize), (5, 2), (8, 3), (12, 3), (16, 4)] {
        let inst_f = generate(&WorkloadSpec {
            n_jobs: n,
            n_machines: m,
            seed: 5,
            ..Default::default()
        });
        let t0 = Instant::now();
        let f = min_max_weighted_flow_divisible(&inst_f);
        let t_f64 = t0.elapsed().as_secs_f64();
        std::hint::black_box(f.optimum);

        let t_exact = if n <= 8 {
            let inst_r = exact_instance(5, n, m);
            let t0 = Instant::now();
            let e = min_max_weighted_flow_divisible(&inst_r);
            std::hint::black_box(e.optimum.to_f64());
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3)
        } else {
            "-".into()
        };
        rows.push(vec![n.to_string(), m.to_string(), f3(t_f64 * 1e3), t_exact]);
    }
    println!(
        "{}",
        render_table(&["n", "m", "f64 (ms)", "exact (ms)"], &rows)
    );
    println!("polynomial growth in both arithmetic modes, as Theorem 2 promises.");
}
