//! The paper's concluding experiment in miniature: replay a random
//! request stream through the online policies (MCT, FIFO, SRPT,
//! weighted-age, and the offline-adapted OLA) and compare their max
//! weighted flow against the exact offline divisible optimum.
//!
//! Run with: `cargo run --release --example online_vs_offline`

use dlflow::core::maxflow::min_max_weighted_flow_divisible;
use dlflow::sim::engine::{simulate, OnlineScheduler, RunMetrics};
use dlflow::sim::schedulers::{FifoFastest, Mct, OfflineAdapt, RoundRobin, Srpt, WeightedAge};
use dlflow::sim::workload::{generate, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec {
        n_jobs: 8,
        n_machines: 3,
        mean_interarrival: 3.0,
        cost_range: (2.0, 15.0),
        heterogeneity: 3.0,
        availability: 0.7,
        weights: vec![1.0, 2.0, 5.0],
        seed: 42,
    };
    let inst = generate(&spec);
    println!(
        "instance: {} jobs on {} machines (seed {})",
        inst.n_jobs(),
        inst.n_machines(),
        spec.seed
    );

    // The offline clairvoyant bound (Theorem 2).
    let offline = min_max_weighted_flow_divisible(&inst);
    println!("\noffline divisible optimum F* = {:.3}\n", offline.optimum);

    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>10}",
        "policy", "maxWF", "vs opt", "maxStretch", "meanFlow"
    );
    let mut policies: Vec<Box<dyn OnlineScheduler>> = vec![
        Box::new(Mct::new()),
        Box::new(FifoFastest::new()),
        Box::new(Srpt::new()),
        Box::new(RoundRobin::new()),
        Box::new(WeightedAge::new()),
        Box::new(OfflineAdapt::new()),
    ];
    let mut ola_wf = f64::INFINITY;
    let mut mct_wf = f64::INFINITY;
    for p in policies.iter_mut() {
        let res = simulate(&inst, p.as_mut()).expect("simulation completes");
        let m = RunMetrics::from_completions(&inst, &res.completions);
        println!(
            "{:<22} {:>12.3} {:>9.2}x {:>10.3} {:>10.3}",
            p.name(),
            m.max_weighted_flow,
            m.max_weighted_flow / offline.optimum,
            m.max_stretch,
            m.mean_flow
        );
        if p.name().starts_with("OLA") {
            ola_wf = m.max_weighted_flow;
        }
        if p.name() == "MCT" {
            mct_wf = m.max_weighted_flow;
        }
        assert!(
            m.max_weighted_flow >= offline.optimum * (1.0 - 1e-4),
            "no online policy can beat the offline optimum"
        );
    }

    // A win needs a margin of more than 1e-9, as in the campaign's win
    // matrix: both policies can reach the offline optimum a few ulps apart.
    println!(
        "\nOLA vs MCT: {:.3} vs {:.3} ({})",
        ola_wf,
        mct_wf,
        if mct_wf < ola_wf - 1e-9 {
            "MCT won on this seed"
        } else {
            "OLA wins or ties, as the paper reports"
        }
    );
}
