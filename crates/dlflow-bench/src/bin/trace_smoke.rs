//! `trace-smoke` — the engine-throughput CI smoke test.
//!
//! Replays a fixed 10k-request open-arrival trace (Poisson, seed 17)
//! under SWRPT through the incremental engine, asserts the **exact**
//! deterministic event count, and enforces a generous wall-clock budget
//! (default 30 s, override with `--budget-s <secs>` for slow runners) —
//! a few hundred times the local cost, so a regression back to
//! O(m·n_total)-per-event behavior fails loudly while CI noise cannot.
//!
//! It then replays a 20k-request faulty trace on 32 machines through the
//! service at 8 shards (`run_simulation_with`, the `--shards` path),
//! asserts its exact event count, and checks that the report is
//! byte-identical to pushing every arrival into a [`ShardedEngine`] up
//! front and draining it. The same trace also round-trips through
//! `.dlt`: the parsed trace equals the generated one, and its report is
//! byte-identical.
//!
//! Usage: `cargo run --release -p dlflow-bench --bin trace-smoke`

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::campaign::SchedulerSpec;
use dlflow_sim::engine::OnlineScheduler;
use dlflow_sim::schedulers::Swrpt;
use dlflow_sim::service::{run_simulation_with, ServiceReport, SimInput, SimOptions};
use dlflow_sim::shard::ShardedEngine;
use dlflow_sim::workload::{generate_trace, ArrivalProcess, FaultProcess, Trace, TraceSpec};
use std::time::Instant;

/// Requests in the smoke trace.
const N: usize = 10_000;
/// The deterministic event count of (trace seed 17, SWRPT): one
/// admission per request plus one integration step per
/// completion/arrival horizon the engine crossed.
const EXPECTED_EVENTS: usize = 27_038;
/// Shards of the federation leg.
const SHARDS: usize = 8;
/// The federation leg's deterministic event count, summed over shards:
/// admissions, integration steps and platform events.
const EXPECTED_SHARDED_EVENTS: usize = 55_679;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget_s: f64 = args
        .iter()
        .position(|a| a == "--budget-s")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);

    let trace = generate_trace(&TraceSpec {
        n_requests: N,
        n_machines: 3,
        process: ArrivalProcess::Poisson { rate: 2.0 },
        seed: 17,
        ..Default::default()
    });

    let t0 = Instant::now();
    let stats = trace.replay(&mut Swrpt::new()).expect("replay completes");
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "replayed {} requests in {:.3}s: {} events ({:.0} events/s), {} plans, peak in-flight {}, max stretch {:.3}, utilization {:.3}",
        stats.n_jobs,
        wall,
        stats.n_events,
        stats.n_events as f64 / wall,
        stats.n_plans,
        stats.max_active,
        stats.metrics.max_stretch,
        stats.utilization,
    );

    assert_eq!(stats.n_jobs, N, "every request must complete");
    assert_eq!(
        stats.n_events, EXPECTED_EVENTS,
        "event count drifted — the engine's event semantics changed"
    );
    assert!(
        wall < budget_s,
        "10k-request replay took {wall:.2}s, budget {budget_s}s"
    );
    assert!(stats.metrics.makespan.is_finite() && stats.metrics.makespan > 0.0);

    federation_leg(budget_s);
}

/// The sharded service path on a 32-machine faulty federation trace.
fn federation_leg(budget_s: f64) {
    let trace = generate_trace(&TraceSpec {
        n_requests: 2 * N,
        n_machines: 32,
        availability: 0.1,
        process: ArrivalProcess::Poisson { rate: 20.0 },
        seed: 17,
        faults: Some(FaultProcess {
            mtbf: 500.0,
            mttr: 10.0,
            horizon: 1_000.0,
            seed: 17,
        }),
        ..Default::default()
    });
    assert!(!trace.platform_events.is_empty(), "the fixture has faults");
    let text = trace.to_dlt();
    let parsed = Trace::parse_dlt(&text).expect("the rendered trace parses");
    assert!(
        parsed == trace && parsed.to_dlt() == text,
        "parse_dlt(to_dlt(trace)) must give the generated trace back"
    );
    let spec = SchedulerSpec::Swrpt;
    let opts = SimOptions {
        shards: SHARDS,
        ..Default::default()
    };
    let input = SimInput::Open(trace);
    let t0 = Instant::now();
    let (report, _) = run_simulation_with(&input, &spec, &opts).expect("sharded run completes");
    let wall = t0.elapsed().as_secs_f64();
    let SimInput::Open(trace) = &input else {
        unreachable!("the input was built open")
    };
    println!(
        "served {} requests on {} machines at {SHARDS} shards in {wall:.3}s: {} events, {} plans, {} platform events in the trace",
        report.n_jobs,
        report.n_machines,
        report.n_events,
        report.n_plans,
        trace.platform_events.len(),
    );
    assert_eq!(report.n_jobs, 2 * N, "every request must complete");
    assert_eq!(
        report.n_events, EXPECTED_SHARDED_EVENTS,
        "sharded event count drifted — routing, streaming or the engine changed"
    );
    assert_eq!(
        report.to_json(),
        push_all_report(trace, &spec),
        "the streamed sharded service run must match the push-all run byte for byte"
    );
    let (reparsed, _) = run_simulation_with(&SimInput::Open(parsed), &spec, &opts)
        .expect("the parsed trace's sharded run completes");
    assert_eq!(
        reparsed.to_json(),
        report.to_json(),
        "the trace parsed back from .dlt must replay to the same report byte for byte"
    );
    println!(
        "round-tripped the federation trace through {} bytes of .dlt: same trace, same report",
        text.len(),
    );
    assert!(
        wall < budget_s,
        "sharded 20k-request run took {wall:.2}s, budget {budget_s}s"
    );
}

/// The service report of pushing every arrival into the shards up front
/// and draining them.
fn push_all_report(trace: &Trace, spec: &SchedulerSpec) -> String {
    let mut se = ShardedEngine::new(trace.n_machines(), SHARDS);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| spec.build()).collect();
    for e in &trace.platform_events {
        se.push_platform_event(*e).expect("valid platform event");
    }
    se.set_record_completions(false);
    for k in 0..trace.len() {
        se.push_arrival(trace.job_spec(k)).expect("valid arrival");
    }
    se.drain(&mut policies).expect("push-all run completes");
    ServiceReport {
        scheduler: spec.label(),
        input_kind: "trace",
        n_jobs: trace.len(),
        n_machines: trace.n_machines(),
        n_events: se.n_events(),
        n_plans: se.n_plans(),
        metrics: se.metrics(),
        utilization: se.utilization(),
        max_active: se.peak_active(),
        completions: Vec::new(),
        resolve_stats: None,
    }
    .to_json()
}
