//! `chaos-smoke` — the fault-tolerance CI smoke test.
//!
//! Replays the engine-throughput smoke trace (10k Poisson arrivals,
//! seed 17) with a seeded per-machine failure/recovery schedule layered
//! on top, twice on an engine that holds every arrival:
//!
//! 1. **straight** — one uninterrupted drain;
//! 2. **interrupted** — snapshotting every few thousand events,
//!    restoring each snapshot into a *fresh* scheduler (a simulated
//!    process restart), and continuing from the restored pair.
//!
//! Both runs must complete every request and produce **bit-identical**
//! completion times, and each snapshot must be a fixed point
//! (`restore → snapshot` reproduces the text byte for byte).
//!
//! Then through the `simulate` service, which streams the trace: a run
//! snapshotting at the same cadence, each snapshot resumed with the next
//! point, must end each time in the straight service run's report (bar
//! `max_active`, counted since the snapshot), and each snapshot must hold
//! no more than its 19 fixed lines plus its pending, active (twice under
//! faults), queued-event and state lines. The interrupted run's first
//! snapshot, which holds every unreleased arrival, must resume through
//! the service to the same report. A generous wall-clock budget (default
//! 30 s, `--budget-s <secs>` to override) keeps the engine's fault path
//! honest about asymptotics.
//!
//! Usage: `cargo run --release -p dlflow-bench --bin chaos-smoke`

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "an experiment bin: the wall-clock time it reports is what it measures"
)]

use dlflow_sim::campaign::SchedulerSpec;
use dlflow_sim::engine::{Engine, StepOutcome};
use dlflow_sim::schedulers::Swrpt;
use dlflow_sim::service::{
    run_simulation, run_simulation_with, ServiceReport, SimInput, SimOptions,
};
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

/// The value of a snapshot's `key <n>` line.
fn count(snap: &str, key: &str) -> usize {
    snap.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("snapshot has no `{key}` line"))
}

/// The report as JSON, with `straight`'s `max_active`.
fn but_max_active(report: &ServiceReport, straight: &ServiceReport) -> String {
    let mut r = report.clone();
    r.max_active = straight.max_active;
    r.to_json()
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
    let mut push_all_snapshot = None;
    loop {
        if eng.step(&mut policy).expect("interrupted run steps") == StepOutcome::Idle {
            break;
        }
        let at = eng.n_events();
        if at.is_multiple_of(SNAPSHOT_EVERY) && at != last_snapshot_at {
            last_snapshot_at = at;
            let snap = eng.snapshot(&policy);
            let mut revived = Swrpt::new();
            let restored =
                Engine::restore(&snap, &mut revived, trace.len()).expect("snapshot restores");
            assert_eq!(
                restored.snapshot(&revived),
                snap,
                "restore → snapshot must be a fixed point"
            );
            push_all_snapshot.get_or_insert(snap);
            eng = restored;
            policy = revived;
            n_restores += 1;
        }
    }
    let interrupted = completions_of(&mut eng);

    // The service streams the trace: chained snapshot → resume.
    let input = SimInput::Open(trace.clone());
    let swrpt = SchedulerSpec::Swrpt;
    let service = run_simulation(&input, &swrpt).expect("straight service run completes");
    let mut opts = SimOptions {
        snapshot_at: Some(SNAPSHOT_EVERY),
        ..Default::default()
    };
    let (mut n_resumes, mut widest) = (0usize, 0usize);
    loop {
        let (report, snap) = run_simulation_with(&input, &swrpt, &opts).expect("service run");
        assert_eq!(
            but_max_active(&report, &service),
            service.to_json(),
            "a resumed service run must end in the straight run's report"
        );
        let snap = snap.expect("snapshot taken");
        let lines = snap.lines().count();
        let bound = 19
            + count(&snap, "pending")
            + count(&snap, "active") * (1 + count(&snap, "faulty"))
            + count(&snap, "platform")
            + count(&snap, "state");
        assert!(lines <= bound, "a {lines}-line snapshot, bound {bound}");
        widest = widest.max(lines);
        let at = count(&snap, "n_events");
        if at == service.n_events {
            break;
        }
        n_resumes += 1;
        opts = SimOptions {
            snapshot_at: Some(at + SNAPSHOT_EVERY),
            resume: Some(snap),
            ..Default::default()
        };
    }
    let push_all_snapshot = push_all_snapshot.expect("the interrupted run snapshots");
    let push_all_lines = push_all_snapshot.lines().count();
    let resume = SimOptions {
        resume: Some(push_all_snapshot),
        ..Default::default()
    };
    let (resumed, _) = run_simulation_with(&input, &swrpt, &resume).expect("push-all resume");
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "chaos-smoke: {} requests, {} platform events, {} engine events, {} restores, \
         {} service resumes (snapshots <= {} lines; push-all {}), {:.3}s",
        N, n_faults, straight_events, n_restores, n_resumes, widest, push_all_lines, wall
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
    assert_eq!(service.n_jobs, N, "the service must complete every request");
    assert!(n_resumes > 0, "the service run must actually resume");
    assert_eq!(
        but_max_active(&resumed, &service),
        service.to_json(),
        "a push-all snapshot must resume through the service to the same report"
    );
    assert!(
        wall < budget_s,
        "chaos smoke took {wall:.2}s, budget {budget_s}s"
    );
}
