//! **§4.4 validation** — preemptive (non-divisible) max weighted flow via
//! System (5) + the Lawler–Labetoulle reconstruction.
//!
//! Reports, per instance: the divisible vs preemptive optimum gap, the
//! number of preemptions and migrations in the rebuilt schedule, the
//! phase count of the Gonzalez–Sahni decomposition vs its (m+n)² bound,
//! and full validation (a job never on two machines at once).

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_table};
use dlflow_core::decompose::{decompose_interval, verify_phases};
use dlflow_core::maxflow::{min_max_weighted_flow_divisible, min_max_weighted_flow_preemptive};
use dlflow_core::validate::validate;
use dlflow_num::Rat;
use dlflow_sim::workload::{generate, WorkloadSpec};
use std::time::Instant;

fn main() {
    println!("=== §4.4: preemption without divisibility ===\n");

    // ---------- per-instance comparison ----------
    println!("divisible vs preemptive optima (exact arithmetic):");
    let mut rows = Vec::new();
    for seed in 0..8u64 {
        let inst = generate(&WorkloadSpec {
            n_jobs: 4,
            n_machines: 2,
            seed: 200 + seed,
            ..Default::default()
        })
        .map_scalar(|v| Rat::from_ratio((v * 16.0).round() as i64, 16));
        let div = min_max_weighted_flow_divisible(&inst);
        let pre = min_max_weighted_flow_preemptive(&inst);
        validate(&inst, &div.schedule).unwrap();
        validate(&inst, &pre.schedule).unwrap(); // includes the single-machine rule
        assert!(div.optimum <= pre.optimum);
        let gap = if div.optimum.is_positive() {
            pre.optimum.div_ref(&div.optimum).to_f64()
        } else {
            1.0
        };
        rows.push(vec![
            seed.to_string(),
            format!("{:.4}", div.optimum.to_f64()),
            format!("{:.4}", pre.optimum.to_f64()),
            f3(gap),
            pre.schedule.n_preemptions(inst.n_jobs()).to_string(),
            pre.schedule.n_slices().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "seed",
                "F* divisible",
                "F* preemptive",
                "pre/div",
                "preemptions",
                "slices"
            ],
            &rows
        )
    );
    println!("gap ≥ 1 always; = 1 when no job would benefit from simultaneous execution.\n");

    // ---------- decomposition micro-study ----------
    println!("Gonzalez–Sahni decomposition phase counts vs (m+n)² bound:");
    let mut rows = Vec::new();
    for &(m, n) in &[(2usize, 2usize), (2, 4), (3, 3), (3, 6), (4, 8)] {
        // Dense balanced-ish work matrix with row/col sums ≤ len.
        let len = Rat::from_i64((n * m) as i64);
        let work: Vec<Vec<Rat>> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| Rat::from_ratio(((i * 7 + j * 3) % 5) as i64 + 1, 2))
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        let phases = decompose_interval(&work, &len);
        let dt = t0.elapsed().as_secs_f64();
        verify_phases(&work, &len, &phases).unwrap();
        let bound = (m + n) * (m + n);
        assert!(phases.len() <= bound);
        rows.push(vec![
            format!("{m}×{n}"),
            phases.len().to_string(),
            bound.to_string(),
            f3(dt * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(&["matrix", "phases", "(m+n)² bound", "time (ms)"], &rows)
    );
    println!("\nall preemptive schedules validated: no job ever on two machines at once,");
    println!("work conservation per (machine, job) pair exact to the rational.");
}
