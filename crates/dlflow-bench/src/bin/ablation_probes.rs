//! **Ablation** — the design choices behind Theorem 2's search:
//!
//! 1. *Milestone binary search + LP probes* (the paper's algorithm):
//!    exact optimum in O(log n²) probes.
//! 2. *Milestone binary search + max-flow probes* (our uniform-machine
//!    fast path): same exact optimum; each probe a combinatorial
//!    max-flow instead of an LP — applicable because the GriPPS platform
//!    is "uniform machines with restricted availabilities" (§3).
//! 3. *Plain ε-bisection* (the strawman §4.3.1 warns about): approximate
//!    only, and needs Θ(log(range/ε)) probes instead of Θ(log n²).
//! 4. *The exact arm*: on a `Rat` copy of each instance, the all-LP route
//!    against the LP-free one (`f64` max-flow guide, exact parametric
//!    max-flow on the range). Their optima must be equal as rationals.
//! 5. *The warm probes' stall guard*: Theorem 2 over `f64` on a 32-job
//!    instance whose warm dual repair stalls on degenerate pivots must
//!    give the stall up and finish within a 2 s budget, at the exact
//!    optimum.
//!
//! Reported per instance size: probe counts, wall-clock, and the accuracy
//! gap of the bisection.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_bench::{f3, render_table};
use dlflow_core::instance::{round_sig_bits, Instance};
use dlflow_core::maxflow::{
    min_max_weighted_flow_bisection, min_max_weighted_flow_divisible,
    min_max_weighted_flow_divisible_with, ProbeMethod,
};
use dlflow_core::uniform::uniform_factors;
use dlflow_num::Rat;
use dlflow_sim::workload::{generate, WorkloadSpec};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Theorem 2's exact optimum on [`dual_stall_instance`], from the exact
/// route (which takes about 10 s, so it is not recomputed here).
const DUAL_STALL_OPTIMUM: f64 = 3595.0 / 16.0;

/// An `f64` instance on which a warm probe's dual repair met only
/// degenerate pivots: without the stall guard one probe ran past 100,000
/// of them and the search did not finish in a minute.
fn dual_stall_instance() -> Instance<f64> {
    generate(&WorkloadSpec {
        n_jobs: 32,
        n_machines: 3,
        seed: 1,
        ..Default::default()
    })
    .quantize_sig_bits(12)
}

/// Runs Theorem 2 over `f64` on [`dual_stall_instance`] on a thread and
/// asserts it returns within a 2 s budget, at the exact optimum to 1e-9.
fn dual_stall_check() -> (f64, f64) {
    let budget = Duration::from_secs(2);
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let solver = std::thread::spawn(move || {
        let _ = tx.send(min_max_weighted_flow_divisible(&dual_stall_instance()).optimum);
    });
    let optimum = match rx.recv_timeout(budget) {
        Ok(optimum) => {
            solver.join().expect("the solver returns once it has sent");
            optimum
        }
        // A stalled solver cannot be joined; the panic ends the process.
        Err(RecvTimeoutError::Timeout) => {
            panic!("Theorem 2 on the dual-stall instance exceeded its {budget:?} budget")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(solver.join().expect_err("the solver dropped its sender"))
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let rel = ((optimum - DUAL_STALL_OPTIMUM) / DUAL_STALL_OPTIMUM).abs();
    assert!(
        rel <= 1e-9,
        "dual-stall instance: optimum {optimum}, exact {DUAL_STALL_OPTIMUM} (rel. gap {rel:.1e})"
    );
    (optimum, wall)
}

/// An exact copy of a uniform instance that still factorizes: its factors,
/// releases and weights rounded to 12 significand bits (as the campaign
/// rounds its scenarios), then multiplied out in `Rat`.
fn exact_copy(inst: &Instance<f64>) -> Instance<Rat> {
    let f = uniform_factors(inst).expect("workload must be uniform");
    let exact = |v: &f64| Rat::from_f64(round_sig_bits(*v, 12));
    let jobs = inst.jobs();
    let avail: Vec<Vec<bool>> = (0..inst.n_machines())
        .map(|i| {
            (0..inst.n_jobs())
                .map(|j| inst.cost(i, j).is_finite())
                .collect()
        })
        .collect();
    Instance::uniform_restricted(
        &f.work.iter().map(exact).collect::<Vec<_>>(),
        &jobs.iter().map(|j| exact(&j.release)).collect::<Vec<_>>(),
        &jobs.iter().map(|j| exact(&j.weight)).collect::<Vec<_>>(),
        &f.speed.iter().map(exact).collect::<Vec<_>>(),
        &avail,
    )
    .expect("rounded factors build a valid instance")
}

fn main() {
    println!("=== Ablation: milestone search vs ε-bisection; LP vs max-flow probes ===\n");

    let mut rows = Vec::new();
    for &n in &[4usize, 6, 8, 12, 16] {
        // The workload generator produces uniform-with-restricted-
        // availabilities instances, so the max-flow probe applies.
        let inst = generate(&WorkloadSpec {
            n_jobs: n,
            n_machines: 3,
            seed: 99,
            ..Default::default()
        });
        assert!(uniform_factors(&inst).is_some(), "workload must be uniform");

        let t0 = Instant::now();
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        let t_lp = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        let t_mf = t0.elapsed().as_secs_f64();
        assert!((lp.optimum - mf.optimum).abs() <= 1e-6 * lp.optimum.max(1.0));

        let eps = 1e-3;
        let t0 = Instant::now();
        let bi = min_max_weighted_flow_bisection(&inst, &eps, false);
        let t_bi = t0.elapsed().as_secs_f64();
        let err = (bi.approx_optimum - lp.optimum) / lp.optimum.max(1e-12);

        let exact = exact_copy(&inst);
        let t0 = Instant::now();
        let exact_lp = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::Lp);
        let t_exact_lp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let lp_free = min_max_weighted_flow_divisible_with(&exact, ProbeMethod::MaxFlowUniform);
        let t_lp_free = t0.elapsed().as_secs_f64();
        assert_eq!(
            lp_free.optimum, exact_lp.optimum,
            "n = {n}: the LP-free exact optimum differs from the LP route's"
        );

        rows.push(vec![
            n.to_string(),
            lp.stats.n_milestones.to_string(),
            lp.stats.n_probes.to_string(),
            f3(t_lp * 1e3),
            f3(t_mf * 1e3),
            bi.iterations.to_string(),
            f3(t_bi * 1e3),
            format!("{:.2e}", err),
            f3(t_exact_lp * 1e3),
            f3(t_lp_free * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "milestones",
                "probes",
                "LP-probe (ms)",
                "flow-probe (ms)",
                "bisect iters",
                "bisect (ms)",
                "bisect rel.err",
                "exact LP (ms)",
                "exact LP-free (ms)",
            ],
            &rows
        )
    );
    let (optimum, wall) = dual_stall_check();
    println!(
        "\nwarm-probe stall guard: n = 32, m = 3, seed 1, 12-bit: F* = {optimum} \
         (exact {DUAL_STALL_OPTIMUM}) in {} ms",
        f3(wall * 1e3)
    );
    println!("\nfindings:");
    println!("  - milestone search needs only O(log n²) probes; bisection needs ~log(range/eps)");
    println!("    and still returns an APPROXIMATION (the paper's §4.3.1 argument, quantified);");
    println!("  - on uniform platforms each probe can be a max-flow instead of an LP, with");
    println!("    identical results; over f64 the final range LP stays;");
    println!("  - over exact rationals the range LP goes too: on the float-placed range,");
    println!("    f64 max-flows propose the cuts of the parametric max-flow, exact arithmetic");
    println!("    prices them, one exact max-flow certifies the optimum, and the optimum");
    println!("    equals the all-LP route's as a rational (asserted above);");
    println!("  - a warm probe whose dual repair stalls on degenerate pivots falls back to a");
    println!("    cold solve instead of spinning (asserted above within a 2 s budget).");
}
