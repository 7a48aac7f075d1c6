//! Differential wall around the PR-9 hot-path rework: the flattened
//! slab engine, the sharded front-end, the pre-rework reference engine,
//! and the dense batch oracle must all tell the same story.
//!
//! Four independent implementations of the same semantics exist in this
//! workspace, written years^H^H^H^H^HPRs apart:
//!
//! 1. [`Engine`] — the flattened slab/SoA engine (this PR);
//! 2. [`ShardedEngine`] — the multi-cluster front-end over it (this PR);
//! 3. [`ReferenceEngine`] — the pre-flattening engine, ported verbatim;
//! 4. [`simulate_dense`] — the seed's dense batch loop.
//!
//! Randomized traces (fault schedules included) are pushed through all
//! of them, with the strongest cheap assertion at every boundary:
//! **bit-identical** completion streams, not approximate metrics. A
//! single reordered float comparison anywhere in the rework shows up
//! here as a diverging bit pattern.

use dlflow_sim::campaign::SchedulerSpec;
use dlflow_sim::engine::{
    simulate_dense, CompletedJob, Engine, OnlineScheduler, PlatformChange, PlatformEvent,
    ResolveStats, RunMetrics, StepOutcome,
};
use dlflow_sim::reference::ReferenceEngine;
use dlflow_sim::schedulers::{
    Edf, FifoFastest, Mct, OfflineAdapt, RoundRobin, Srpt, Swrpt, WeightedAge,
};
use dlflow_sim::service::{
    run_simulation_with, FaultInjection, ServiceReport, SimInput, SimOptions,
};
use dlflow_sim::shard::ShardedEngine;
use dlflow_sim::workload::{generate_trace, FaultProcess, Trace, TraceSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Factory = fn() -> Box<dyn OnlineScheduler + Send>;

/// Fresh-instance factories for all 8 policies.
fn factories() -> Vec<Factory> {
    vec![
        || Box::new(Mct::new()),
        || Box::new(FifoFastest::new()),
        || Box::new(Srpt::new()),
        || Box::new(Swrpt::new()),
        || Box::new(RoundRobin::new()),
        || Box::new(WeightedAge::new()),
        || Box::new(Edf::new()),
        || Box::new(OfflineAdapt::new()),
    ]
}

/// The LP-free subset (usable at larger sizes).
fn cheap_factories() -> Vec<Factory> {
    let mut f = factories();
    f.pop(); // drop OLA
    f
}

/// A randomized trace over `m` machines, optionally with faults.
fn trace_of(seed: u64, n: usize, m: usize, faulty: bool) -> Trace {
    generate_trace(&TraceSpec {
        n_requests: n,
        n_machines: m,
        seed,
        faults: faulty.then_some(FaultProcess {
            mtbf: 8.0,
            mttr: 2.0,
            horizon: 30.0,
            seed: seed ^ 0xFA417,
        }),
        ..Default::default()
    })
}

/// [`trace_of`] with releases that nearly tie. About half the arrivals
/// land within 2.5·EPS (EPS = 1e-9, the engine's admission tolerance)
/// after the one before. On faulty traces about a third of the arrivals
/// also get a failure just under EPS before their release (recovered
/// within 3 s). That event sets an engine's clock just below a release
/// while the next release sits just past EPS.
fn near_tie_trace(seed: u64, n: usize, m: usize, faulty: bool) -> Trace {
    let mut trace = trace_of(seed, n, m, faulty);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x71E5);
    for k in 1..trace.arrivals.len() {
        if rng.gen_bool(0.5) {
            trace.arrivals[k].release = trace.arrivals[k - 1].release + rng.gen_range(0.0..2.5e-9);
        }
    }
    trace
        .arrivals
        .sort_by(|a, b| a.release.total_cmp(&b.release));
    if faulty {
        for k in 0..trace.arrivals.len() {
            if rng.gen_bool(0.3) {
                let time = (trace.arrivals[k].release - rng.gen_range(0.0..1e-9)).max(0.0);
                let machine = rng.gen_range(0..m);
                let back = time + rng.gen_range(0.5..3.0);
                for (time, change) in [(time, PlatformChange::Down), (back, PlatformChange::Up)] {
                    trace.platform_events.push(PlatformEvent {
                        time,
                        machine,
                        change,
                    });
                }
            }
        }
        trace
            .platform_events
            .sort_by(|a, b| a.time.total_cmp(&b.time));
    }
    trace
}

/// Every metric, as bits.
fn metric_bits(m: &RunMetrics) -> [u64; 7] {
    [
        m.max_weighted_flow,
        m.max_flow,
        m.max_stretch,
        m.sum_stretch,
        m.mean_flow,
        m.sum_flow,
        m.makespan,
    ]
    .map(f64::to_bits)
}

/// The streamed replays — flat [`Trace::replay`] and sharded
/// [`ShardedEngine::replay_trace`] — against pushing every arrival up
/// front and draining: same events, plans, busy time, peak and metric
/// bits. `None` when they agree, else what differed.
fn streamed_vs_push_all(trace: &Trace, fresh: Factory, shards: usize) -> Option<String> {
    let mut policy = fresh();
    let flat = trace.replay(policy.as_mut()).unwrap();
    policy.reset();
    let mut eng = Engine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    eng.drain(policy.as_mut()).unwrap();
    let want = (
        eng.n_events(),
        eng.n_plans(),
        eng.busy().to_vec(),
        eng.peak_active(),
        metric_bits(&eng.metrics()),
    );
    let got = (
        flat.n_events,
        flat.n_plans,
        flat.busy.clone(),
        flat.max_active,
        metric_bits(&flat.metrics),
    );
    if got != want {
        return Some(format!(
            "flat: streamed {got:?}, push-all {want:?} ({})",
            policy.name()
        ));
    }
    let (manual, _) = sharded_stream(trace, fresh, shards);
    let mut se = ShardedEngine::new(trace.n_machines(), shards);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| fresh()).collect();
    let stats = se.replay_trace(trace, &mut policies).unwrap();
    let want = (
        manual.n_events(),
        manual.n_plans(),
        manual.busy(),
        manual.peak_active(),
        metric_bits(&manual.metrics()),
    );
    let got = (
        stats.n_events,
        stats.n_plans,
        stats.busy,
        stats.max_active,
        metric_bits(&stats.metrics),
    );
    (got != want).then(|| {
        format!(
            "{shards} shards: streamed {got:?}, push-all {want:?} ({})",
            policy.name()
        )
    })
}

/// The platform events a service run pushes: the trace's own, then the
/// injected faults over the trace's release span.
fn platform_events(trace: &Trace, faults: Option<&FaultInjection>) -> Vec<PlatformEvent> {
    let mut events = trace.platform_events.clone();
    if let Some(f) = faults {
        let last = trace.arrivals.iter().map(|a| a.release).fold(0.0, f64::max);
        let process = FaultProcess {
            mtbf: f.mtbf,
            mttr: f.mttr,
            horizon: f.until.unwrap_or(last),
            seed: f.seed,
        };
        events.extend(process.sample(trace.n_machines()));
    }
    events
}

/// The service's flat `--faults` report rebuilt from public parts: every
/// arrival pushed up front into one [`Engine`] after the platform events,
/// stepped to quiescence, the report fields read off the engine.
fn flat_push_all_report(trace: &Trace, spec: &SchedulerSpec, faults: &FaultInjection) -> String {
    let mut policy = spec.build();
    let mut eng = Engine::new(trace.n_machines());
    for e in platform_events(trace, Some(faults)) {
        eng.push_platform_event(e).unwrap();
    }
    eng.record_completions = false;
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    while eng.step(policy.as_mut()).unwrap() != StepOutcome::Idle {}
    ServiceReport {
        scheduler: spec.label(),
        input_kind: "trace",
        n_jobs: eng.n_completed(),
        n_machines: trace.n_machines(),
        n_events: eng.n_events(),
        n_plans: eng.n_plans(),
        metrics: eng.metrics(),
        utilization: eng.utilization(),
        max_active: eng.peak_active(),
        completions: Vec::new(),
        resolve_stats: policy.resolve_stats(),
    }
    .to_json()
}

/// The service's sharded report rebuilt from public parts: every arrival
/// pushed up front into a [`ShardedEngine`] (trace events first, then the
/// injected faults), one drain, the report fields read off the engine.
fn push_all_report(
    trace: &Trace,
    spec: &SchedulerSpec,
    shards: usize,
    faults: Option<&FaultInjection>,
) -> String {
    let mut se = ShardedEngine::new(trace.n_machines(), shards);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| spec.build()).collect();
    for e in platform_events(trace, faults) {
        se.push_platform_event(e).unwrap();
    }
    se.set_record_completions(false);
    for k in 0..trace.len() {
        se.push_arrival(trace.job_spec(k)).unwrap();
    }
    se.drain(&mut policies).unwrap();
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
        resolve_stats: policies
            .iter()
            .try_fold(ResolveStats::default(), |mut acc, p| {
                p.resolve_stats().map(|s| {
                    acc.merge(&s);
                    acc
                })
            }),
    }
    .to_json()
}

/// The compact specs of all 8 policies.
const SPECS: [&str; 8] = ["mct", "fifo", "srpt", "swrpt", "rr", "wage", "edf", "ola"];

/// A completion stream reduced to comparable bits, order preserved.
fn bits(stream: &[CompletedJob]) -> Vec<(usize, u64, u64)> {
    stream
        .iter()
        .map(|c| (c.id, c.release.to_bits(), c.completion.to_bits()))
        .collect()
}

/// The flat engine's buffered completion stream for a trace.
fn flat_stream(trace: &Trace, policy: &mut dyn OnlineScheduler) -> Vec<CompletedJob> {
    policy.reset();
    let mut eng = Engine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    eng.drain(policy).unwrap();
    eng.take_completed()
}

/// The sharded front-end's merged completion stream for a trace.
fn sharded_stream(
    trace: &Trace,
    fresh: Factory,
    shards: usize,
) -> (ShardedEngine, Vec<CompletedJob>) {
    let mut se = ShardedEngine::new(trace.n_machines(), shards);
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        (0..se.n_shards()).map(|_| fresh()).collect();
    for p in policies.iter_mut() {
        p.reset();
    }
    for e in &trace.platform_events {
        se.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        se.push_arrival(trace.job_spec(k)).unwrap();
    }
    se.drain(&mut policies).unwrap();
    let stream = se.take_completed();
    (se, stream)
}

/// The pre-rework reference engine's stream for the same trace.
fn reference_stream(trace: &Trace, policy: &mut dyn OnlineScheduler) -> Vec<CompletedJob> {
    policy.reset();
    let mut eng = ReferenceEngine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    eng.drain(policy).unwrap();
    eng.take_completed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The three online implementations produce bit-identical streams —
    /// flat vs sharded@1 vs the PR-5 reference — for every scheduler,
    /// fault-free and faulty.
    #[test]
    fn flat_sharded_and_reference_streams_are_bit_identical(
        seed in 0u64..5_000,
        n in 4usize..12,
        faulty in 0u8..2,
    ) {
        let trace = trace_of(seed, n, 3, faulty == 1);
        for fresh in factories() {
            let flat = flat_stream(&trace, fresh().as_mut());
            prop_assert_eq!(flat.len(), n);
            let (_, sharded) = sharded_stream(&trace, fresh, 1);
            prop_assert_eq!(bits(&flat), bits(&sharded));
            let reference = reference_stream(&trace, fresh().as_mut());
            prop_assert_eq!(bits(&flat), bits(&reference));
        }
    }

    /// Fault-free traces also agree with the seed's dense batch oracle
    /// (faults are outside the closed-instance model, so this leg runs
    /// clean traces only).
    #[test]
    fn flat_engine_matches_the_dense_oracle(
        seed in 0u64..5_000,
        n in 4usize..20,
    ) {
        let trace = trace_of(seed, n, 3, false);
        let inst = trace.to_instance().unwrap();
        for fresh in cheap_factories() {
            let flat = flat_stream(&trace, fresh().as_mut());
            let dense = simulate_dense(&inst, fresh().as_mut()).unwrap();
            for c in &flat {
                prop_assert_eq!(
                    c.completion.to_bits(),
                    dense.completions[c.id].to_bits()
                );
            }
        }
    }

    /// Multi-shard runs: the merged stream is deterministic (two runs →
    /// identical bytes), time-ordered with ties resolved to the lower
    /// shard, and each cluster independently reproduces a standalone
    /// engine fed the same sub-workload.
    #[test]
    fn multi_shard_merge_is_deterministic_and_clusters_are_independent(
        seed in 0u64..5_000,
        n in 8usize..24,
        shards in 2usize..4,
        faulty in 0u8..2,
    ) {
        let m = 4;
        let trace = trace_of(seed, n, m, faulty == 1);
        for fresh in cheap_factories() {
            let (se1, s1) = sharded_stream(&trace, fresh, shards);
            let (se2, s2) = sharded_stream(&trace, fresh, shards);
            prop_assert_eq!(bits(&s1), bits(&s2));
            prop_assert_eq!(se1.n_events(), se2.n_events());
            prop_assert_eq!(s1.len(), n);

            // Merge order invariant: non-decreasing completion times.
            for w in s1.windows(2) {
                prop_assert!(w[0].completion <= w[1].completion);
            }

            // Per-cluster parity: rebuild each shard's workload by hand
            // with the documented assignment rule (fastest machine, ties
            // to the lower shard) and drain it in a standalone engine.
            for s in 0..se1.n_shards() {
                let (lo, hi) = se1.shard_range(s);
                let mut solo = Engine::new(hi - lo);
                let mut policy = fresh();
                for e in &trace.platform_events {
                    if (lo..hi).contains(&e.machine) {
                        let mut local = *e;
                        local.machine -= lo;
                        solo.push_platform_event(local).unwrap();
                    }
                }
                for k in 0..trace.len() {
                    let spec = trace.job_spec(k);
                    let best = (0..se1.n_shards())
                        .map(|q| {
                            let (a, b) = se1.shard_range(q);
                            spec.costs[a..b]
                                .iter()
                                .cloned()
                                .fold(f64::INFINITY, f64::min)
                        })
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.total_cmp(b))
                        .map(|(q, _)| q)
                        .unwrap();
                    if best == s {
                        solo.push_arrival_ref(spec.release, spec.weight, &spec.costs[lo..hi])
                            .unwrap();
                    }
                }
                solo.drain(policy.as_mut()).unwrap();
                prop_assert_eq!(solo.n_events(), se1.shard(s).n_events());
                prop_assert_eq!(solo.busy(), se1.shard(s).busy());
                prop_assert_eq!(
                    solo.metrics().makespan.to_bits(),
                    se1.shard(s).metrics().makespan.to_bits()
                );
            }
        }
    }
}

/// Pinned regression: two shards finishing jobs at the *same* instant
/// must merge shard 0's job first — the documented cross-shard
/// tie-break — so campaign-style reports cannot flap between runs.
#[test]
fn cross_shard_simultaneous_completion_tie_is_pinned() {
    let mut se = ShardedEngine::new(4, 2);
    // One job per shard, mirrored costs, both complete at t = 6.
    for costs in [
        [3.0, 6.0, f64::INFINITY, f64::INFINITY],
        [f64::INFINITY, f64::INFINITY, 3.0, 6.0],
    ] {
        se.push_arrival(dlflow_sim::engine::JobSpec {
            release: 0.0,
            weight: 1.0,
            costs: costs.to_vec(),
        })
        .unwrap();
    }
    let mut policies: Vec<Box<dyn OnlineScheduler + Send>> =
        vec![Box::new(Swrpt::new()), Box::new(Swrpt::new())];
    se.drain(&mut policies).unwrap();
    let done = se.take_completed();
    assert_eq!(done.len(), 2);
    assert_eq!(
        done[0].completion.to_bits(),
        done[1].completion.to_bits(),
        "fixture must actually tie"
    );
    assert_eq!(done[0].id, 0);
    assert_eq!(done[1].id, 1);
}

/// The sharded replay front door and the manual push-everything path
/// agree: `replay_trace` is pure plumbing.
#[test]
fn replay_trace_matches_the_manual_sharded_run() {
    let trace = trace_of(77, 50, 4, true);
    assert_eq!(
        streamed_vs_push_all(&trace, || Box::new(Swrpt::new()), 2),
        None
    );
}

/// Pinned regression: a streamed replay pushed an arrival released
/// within (EPS, 2·EPS] of a still-pending one a step late. Job 0 ends
/// at 0.9999999995, within EPS of job 1's release, so job 1 is admitted
/// early while job 2 (1.0000000008) stays pending. Job 3
/// (1.0000000015) is within EPS of job 2, so the push-all engine admits
/// it with job 2.
#[test]
fn near_tie_releases_stream_like_push_all() {
    let trace = Trace::parse_dlt(
        "machines 1\n\
         arrival 0 0.9999999995 1 *\n\
         arrival 1.0 1 1 *\n\
         arrival 1.0000000008 1 1 *\n\
         arrival 1.0000000015 1 1 *\n",
    )
    .unwrap();
    let stats = trace.replay(&mut Swrpt::new()).unwrap();
    assert_eq!((stats.n_events, stats.n_plans), (9, 5));
    for fresh in factories() {
        if let Some(diff) = streamed_vs_push_all(&trace, fresh, 1) {
            panic!("{diff}");
        }
    }
}

/// Near-tie sweep: 300 seeds × 8 policies on 4 machines, every other
/// seed faulty; each run streamed flat and at 2 shards must take exactly
/// the push-all run's events.
#[test]
fn near_tie_sweep_streams_like_push_all() {
    let mut diverged = Vec::new();
    for seed in 0..300u64 {
        let trace = near_tie_trace(seed, 6 + (seed % 7) as usize, 4, seed % 2 == 1);
        for fresh in factories() {
            if let Some(diff) = streamed_vs_push_all(&trace, fresh, 2) {
                diverged.push(format!("seed {seed}: {diff}"));
            }
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The service's sharded path (`--shards k`) renders exactly the
    /// report of a manual push-all sharded run, for every policy, with
    /// and without the trace's own faults and injected `--faults`.
    #[test]
    fn sharded_service_report_matches_the_push_all_run(
        seed in 0u64..5_000,
        n in 8usize..24,
        k in 0usize..4,
        faulty in 0u8..2,
        inject in 0u8..2,
    ) {
        let shards = [2, 3, 5, 16][k];
        let trace = near_tie_trace(seed, n, 16, faulty == 1);
        let faults = (inject == 1).then_some(FaultInjection {
            mtbf: 6.0,
            mttr: 1.5,
            seed: seed ^ 0xF00D,
            until: None,
        });
        let opts = SimOptions {
            faults: faults.clone(),
            shards,
            ..Default::default()
        };
        let input = SimInput::Open(trace);
        let SimInput::Open(trace) = &input else { unreachable!() };
        for name in SPECS {
            let spec = SchedulerSpec::parse_compact(name).unwrap();
            let (report, _) = run_simulation_with(&input, &spec, &opts).unwrap();
            prop_assert_eq!(
                report.to_json(),
                push_all_report(trace, &spec, shards, faults.as_ref())
            );
        }
    }

    /// The service's flat `--faults` path streams its arrivals, yet
    /// renders exactly the report of the test's own push-all engine
    /// ([`flat_push_all_report`]), for every policy, with and without the
    /// trace's own faults. So does a run that snapshots past its last
    /// event, which streams the trace too.
    #[test]
    fn flat_faults_service_report_matches_the_push_all_run(
        seed in 0u64..5_000,
        n in 8usize..24,
        faulty in 0u8..2,
    ) {
        let trace = near_tie_trace(seed, n, 6, faulty == 1);
        let faults = FaultInjection {
            mtbf: 6.0,
            mttr: 1.5,
            seed: seed ^ 0xF00D,
            until: None,
        };
        let opts = SimOptions {
            faults: Some(faults.clone()),
            ..Default::default()
        };
        let snapshot_at_end = SimOptions {
            snapshot_at: Some(usize::MAX),
            ..opts.clone()
        };
        let input = SimInput::Open(trace);
        let SimInput::Open(trace) = &input else { unreachable!() };
        for name in SPECS {
            let spec = SchedulerSpec::parse_compact(name).unwrap();
            let (streamed, snapshot) = run_simulation_with(&input, &spec, &opts).unwrap();
            prop_assert!(snapshot.is_none());
            let json = streamed.to_json();
            prop_assert_eq!(&json, &run_simulation_with(&input, &spec, &snapshot_at_end).unwrap().0.to_json());
            prop_assert_eq!(json, flat_push_all_report(trace, &spec, &faults));
        }
    }
}
