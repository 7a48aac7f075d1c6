//! **Theorem 1 validation** — divisible makespan minimization is
//! polynomial (§4.1).
//!
//! (a) Structured families with hand-computable optima: the LP must match
//!     the analytic value exactly (exact rational arithmetic).
//! (b) Random instances: LP optimum ≥ analytic lower bound, schedules
//!     validate.
//! (c) Scaling table: wall-clock vs n and m for the f64 pipeline —
//!     polynomial growth, empirically.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_table};
use dlflow_core::instance::InstanceBuilder;
use dlflow_core::makespan::{makespan_lower_bound, min_makespan};
use dlflow_core::validate::validate;
use dlflow_num::Rat;
use dlflow_sim::workload::{generate, WorkloadSpec};
use std::time::Instant;

fn main() {
    println!("=== Theorem 1: divisible makespan minimization ===\n");

    // ---------- (a) structured families, exact arithmetic ----------
    println!("structured instances (exact arithmetic):");
    let mut rows = Vec::new();

    // Family 1: single job, k identical machines of cost c → C = c/k.
    for k in 1..=4usize {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        for _ in 0..k {
            b.machine(vec![Some(Rat::from_i64(12))]);
        }
        let inst = b.build().unwrap();
        let out = min_makespan(&inst);
        validate(&inst, &out.schedule).unwrap();
        let expect = Rat::from_ratio(12, k as i64);
        assert_eq!(out.makespan, expect);
        rows.push(vec![
            format!("1 job / {k} machines (c=12)"),
            out.makespan.to_string(),
            expect.to_string(),
            "exact match".into(),
        ]);
    }

    // Family 2: n identical jobs, single machine, releases 0 → n·c.
    for n in [2i64, 4, 8] {
        let mut b = InstanceBuilder::<Rat>::new();
        for _ in 0..n {
            b.job(Rat::zero(), Rat::one());
        }
        b.machine((0..n).map(|_| Some(Rat::from_i64(3))).collect());
        let inst = b.build().unwrap();
        let out = min_makespan(&inst);
        validate(&inst, &out.schedule).unwrap();
        let expect = Rat::from_i64(3 * n);
        assert_eq!(out.makespan, expect);
        rows.push(vec![
            format!("{n} jobs / 1 machine (c=3)"),
            out.makespan.to_string(),
            expect.to_string(),
            "exact match".into(),
        ]);
    }

    // Family 3: harmonic split — 1 job, machines 2 and 6 → 3/2.
    {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::from_i64(2))]);
        b.machine(vec![Some(Rat::from_i64(6))]);
        let inst = b.build().unwrap();
        let out = min_makespan(&inst);
        assert_eq!(out.makespan, Rat::from_ratio(3, 2));
        rows.push(vec![
            "1 job / machines c=2,6".into(),
            out.makespan.to_string(),
            "3/2".into(),
            "exact match".into(),
        ]);
    }
    println!(
        "{}",
        render_table(&["family", "LP optimum", "analytic", "verdict"], &rows)
    );

    // ---------- (b) random instances, bound check ----------
    println!("random instances (f64): LP optimum vs analytic lower bound");
    let mut rows = Vec::new();
    for seed in 0..8u64 {
        let inst = generate(&WorkloadSpec {
            n_jobs: 8,
            n_machines: 3,
            seed,
            ..Default::default()
        });
        let out = min_makespan(&inst);
        validate(&inst, &out.schedule).unwrap();
        let lb = makespan_lower_bound(&inst);
        assert!(lb <= out.makespan + 1e-7);
        rows.push(vec![
            seed.to_string(),
            f3(out.makespan),
            f3(lb),
            f3(out.makespan / lb.max(1e-12)),
        ]);
    }
    println!(
        "{}",
        render_table(&["seed", "C_max*", "lower bound", "ratio"], &rows)
    );

    // ---------- (c) scaling ----------
    println!("scaling (f64 pipeline; time per solve):");
    let mut rows = Vec::new();
    for &(n, m) in &[(4usize, 2usize), (8, 2), (12, 3), (16, 3), (24, 4), (32, 4)] {
        let inst = generate(&WorkloadSpec {
            n_jobs: n,
            n_machines: m,
            seed: 1,
            ..Default::default()
        });
        let t0 = Instant::now();
        let out = min_makespan(&inst);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(out.makespan);
        rows.push(vec![n.to_string(), m.to_string(), f3(dt * 1e3)]);
    }
    println!(
        "{}",
        render_table(&["n jobs", "m machines", "solve (ms)"], &rows)
    );
    println!("growth is polynomial (LP size O(n²m)); no combinatorial blow-up.");
}
