//! Replay identity for OLA: a run interrupted by snapshot/restore, or
//! replayed after a `reset()`, must reproduce the policy's uninterrupted
//! run bit for bit — across seeded traces and every fault intensity.
//!
//! Snapshot semantics under test: `dlflow-snapshot v1` carries OLA's
//! resolve counters and nothing of its LP buffers. The interrupted runs
//! restore into *fresh* policy instances, so any behaviour that leaked
//! out of state the snapshot does not carry would surface as a diverging
//! completion float, and any counter it dropped as diverging telemetry.
//!
//! Reuse across runs: the policy keeps its LP buffers (one simplex
//! workspace, the refilled programs and vectors) through `reset()`. They
//! hold capacity only, so a policy that replayed another trace and was
//! then reset must replay the next one exactly like a fresh instance.

use dlflow_sim::engine::{Engine, OnlineScheduler, ResolveStats, StepOutcome};
use dlflow_sim::schedulers::OfflineAdapt;
use dlflow_sim::workload::{generate_trace, replay_with_sink, FaultProcess, Trace, TraceSpec};
use proptest::prelude::*;

/// A small trace at one of three fault intensities: 0 = fault-free,
/// 1 = moderate (occasional outage), 2 = harsh (machines spend a
/// comparable share of the horizon down as up).
fn traced(seed: u64, n: usize, intensity: u8) -> Trace {
    let (mtbf, mttr) = match intensity {
        1 => (8.0, 2.0),
        2 => (3.0, 3.0),
        _ => (0.0, 0.0),
    };
    generate_trace(&TraceSpec {
        n_requests: n,
        n_machines: 3,
        seed,
        faults: (intensity > 0).then_some(FaultProcess {
            mtbf,
            mttr,
            horizon: 30.0,
            seed: seed ^ 0x01A0,
        }),
        ..Default::default()
    })
}

/// Pushes the whole trace (arrivals + platform events) into a fresh
/// engine.
fn load(trace: &Trace) -> Engine {
    let mut eng = Engine::new(trace.n_machines());
    for e in &trace.platform_events {
        eng.push_platform_event(*e).unwrap();
    }
    for k in 0..trace.len() {
        eng.push_arrival(trace.job_spec(k)).unwrap();
    }
    eng
}

/// Completions as `(id, completion-bits)`, sorted by id.
fn completions_of(eng: &mut Engine) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = eng
        .take_completed()
        .into_iter()
        .map(|c| (c.id, c.completion.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

/// Uninterrupted run after a `reset()`, returning completions and
/// resolve telemetry.
fn run_straight(
    trace: &Trace,
    policy: &mut dyn OnlineScheduler,
) -> (Vec<(usize, u64)>, ResolveStats) {
    policy.reset();
    let mut eng = load(trace);
    eng.drain(policy).unwrap();
    let stats = policy.resolve_stats().unwrap();
    (completions_of(&mut eng), stats)
}

/// Run interrupted by snapshot/restore every `every` events; each
/// restore targets a brand-new policy from `fresh`. Returns completions
/// and resolve telemetry, as [`run_straight`] does.
fn run_interrupted<P: OnlineScheduler>(
    trace: &Trace,
    every: usize,
    fresh: impl Fn() -> P,
) -> (Vec<(usize, u64)>, ResolveStats) {
    let mut policy = fresh();
    let mut eng = load(trace);
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "interrupted run does not terminate");
        if eng.step(&mut policy).unwrap() == StepOutcome::Idle {
            break;
        }
        if eng.n_events().is_multiple_of(every) {
            let snap = eng.snapshot(&policy);
            let mut revived = fresh();
            eng = Engine::restore(&snap, &mut revived, trace.len()).unwrap();
            policy = revived;
        }
    }
    (completions_of(&mut eng), policy.resolve_stats().unwrap())
}

/// Folds `word` into an FNV-1a hash, one byte at a time.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// OLA's plans pinned to the last bit: replays a 400-request trace,
/// fault-free and under a seeded fault process, and digests every
/// completion (id and time bits, in completion order), the resolve
/// counters and the bits of max stretch and max weighted flow. The
/// constants pin the dense tableau's arithmetic with the first stage
/// started from the dual simplex's slack basis and the second stage
/// re-optimized on the first stage's final tableau: any change in the
/// LP's arithmetic or pivot path, down to one ULP of one plan, changes a
/// digest.
#[test]
fn ola_replays_are_pinned_to_the_bit() {
    let digest = |intensity: u8| {
        let trace = traced(2022, 400, intensity);
        let mut policy = OfflineAdapt::new();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let stats = replay_with_sink(&trace, &mut policy, |c| {
            hash = fnv1a(fnv1a(hash, c.id as u64), c.completion.to_bits());
        })
        .unwrap();
        assert_eq!(stats.n_jobs, 400);
        let r = policy.resolve_stats().unwrap();
        for count in [
            r.n_resolves,
            r.warm_lp_solves,
            r.cold_lp_solves,
            r.warm_resolves,
            r.cold_resolves,
        ] {
            hash = fnv1a(hash, count as u64);
        }
        hash = fnv1a(hash, stats.metrics.max_stretch.to_bits());
        fnv1a(hash, stats.metrics.max_weighted_flow.to_bits())
    };
    let got = [digest(0), digest(1)];
    assert_eq!(
        got,
        [0x60b2_0efd_11e7_89f8, 0xb679_5136_6e60_77ff],
        "digests {got:#018x?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A policy that replayed another trace, then reset, replays this
    /// one like a fresh instance: its LP buffers hold capacity only.
    #[test]
    fn reset_then_replay_matches_a_fresh_instance(
        seed in 0u64..20_000,
        n in 4usize..12,
        intensity in 0u8..3,
    ) {
        let trace = traced(seed, n, intensity);
        let (fresh_done, fresh_stats) = run_straight(&trace, &mut OfflineAdapt::new());
        prop_assert_eq!(fresh_done.len(), n);
        let mut reused = OfflineAdapt::new();
        run_straight(&traced(seed ^ 0x5EED, n + 3, (intensity + 1) % 3), &mut reused);
        let (reused_done, reused_stats) = run_straight(&trace, &mut reused);
        prop_assert_eq!(&reused_done, &fresh_done);
        prop_assert_eq!(reused_stats, fresh_stats);
    }

    /// Interrupting OLA at every k-th event (snapshot → fresh instance
    /// → restore) reproduces its uninterrupted run bit for bit, resolve
    /// telemetry included.
    #[test]
    fn interrupted_run_matches_uninterrupted_run(
        seed in 0u64..20_000,
        n in 4usize..10,
        every in 1usize..5,
        intensity in 0u8..3,
    ) {
        let trace = traced(seed, n, intensity);
        let reference = run_straight(&trace, &mut OfflineAdapt::new());
        prop_assert_eq!(reference.0.len(), n);
        prop_assert_eq!(&run_interrupted(&trace, every, OfflineAdapt::new), &reference);
    }
}
