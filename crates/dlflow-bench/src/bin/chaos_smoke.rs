//! `chaos-smoke` — the fault-tolerance CI smoke test.
//!
//! Replays the engine-throughput smoke trace (10k Poisson arrivals,
//! seed 17) with a seeded per-machine failure/recovery schedule layered
//! on top, twice:
//!
//! 1. **straight** — one uninterrupted drain;
//! 2. **interrupted** — snapshotting every few thousand events,
//!    restoring each snapshot into a *fresh* scheduler (a simulated
//!    process restart), and continuing from the restored pair.
//!
//! Both runs must complete every request and produce **bit-identical**
//! completion times, and each snapshot must be a fixed point
//! (`restore → snapshot` reproduces the text byte for byte). A generous
//! wall-clock budget (default 30 s, `--budget-s <secs>` to override)
//! keeps the engine's fault path honest about asymptotics.
//!
//! Usage: `cargo run --release -p dlflow-bench --bin chaos-smoke`

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::engine::{Engine, StepOutcome};
use dlflow_sim::schedulers::Swrpt;
use dlflow_sim::workload::{generate_trace, ArrivalProcess, FaultProcess, Trace, TraceSpec};
use std::time::Instant;

/// Requests in the smoke trace (same base trace as `trace-smoke`).
const N: usize = 10_000;
/// Snapshot cadence of the interrupted run, in engine events.
const SNAPSHOT_EVERY: usize = 4_000;

fn smoke_trace() -> Trace {
    generate_trace(&TraceSpec {
        n_requests: N,
        n_machines: 3,
        process: ArrivalProcess::Poisson { rate: 2.0 },
        seed: 17,
        faults: Some(FaultProcess {
            mtbf: 600.0,
            mttr: 30.0,
            horizon: 5_000.0,
            seed: 1717,
        }),
        ..Default::default()
    })
}

fn load(trace: &Trace) -> Engine {
    let mut eng = Engine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).expect("valid platform event");
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).expect("valid arrival");
    }
    eng
}

fn completions_of(eng: &mut Engine) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = eng
        .take_completed()
        .into_iter()
        .map(|c| (c.id, c.completion.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget_s: f64 = args
        .iter()
        .position(|a| a == "--budget-s")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);

    let trace = smoke_trace();
    let n_faults = trace.platform_events.len();
    assert!(n_faults > 0, "the smoke schedule must inject faults");

    let t0 = Instant::now();

    // Straight run.
    let mut policy = Swrpt::new();
    let mut eng = load(&trace);
    eng.drain(&mut policy).expect("straight run completes");
    let straight_events = eng.n_events();
    let reference = completions_of(&mut eng);

    // Interrupted run: snapshot → fresh policy → restore → continue.
    let mut policy = Swrpt::new();
    let mut eng = load(&trace);
    let mut n_restores = 0usize;
    let mut last_snapshot_at = usize::MAX;
    loop {
        if eng.step(&mut policy).expect("interrupted run steps") == StepOutcome::Idle {
            break;
        }
        let at = eng.n_events();
        if at.is_multiple_of(SNAPSHOT_EVERY) && at != last_snapshot_at {
            last_snapshot_at = at;
            let snap = eng.snapshot(&policy);
            let mut revived = Swrpt::new();
            let restored = Engine::restore(&snap, &mut revived).expect("snapshot restores");
            assert_eq!(
                restored.snapshot(&revived),
                snap,
                "restore → snapshot must be a fixed point"
            );
            eng = restored;
            policy = revived;
            n_restores += 1;
        }
    }
    let interrupted = completions_of(&mut eng);
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "chaos-smoke: {} requests, {} platform events, {} engine events, {} restores, {:.3}s",
        N, n_faults, straight_events, n_restores, wall
    );

    assert_eq!(
        reference.len(),
        N,
        "straight run must complete every request"
    );
    assert!(n_restores > 0, "the interrupted run must actually restore");
    assert_eq!(
        interrupted, reference,
        "interrupted completions must be bit-identical to the straight run"
    );
    assert!(
        wall < budget_s,
        "chaos smoke took {wall:.2}s, budget {budget_s}s"
    );
}
