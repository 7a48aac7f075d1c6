//! Fault-tolerance property tests: crash consistency of
//! snapshot/restore, and engine robustness under machine
//! failure/recovery schedules — for **every** scheduler.
//!
//! The crash-consistency property is the strong one: interrupting a run
//! at *every k-th event* (snapshot → fresh policy → restore → continue)
//! must produce completions **bit-identical** to the uninterrupted run.
//! Anything the snapshot format forgets — a heap entry, a scheduler
//! cache, a volatile work ledger — shows up here as a diverging float.

use dlflow_sim::engine::{Engine, OnlineScheduler, StepOutcome};
use dlflow_sim::schedulers::{
    Edf, FifoFastest, Mct, OfflineAdapt, RoundRobin, Srpt, Swrpt, WeightedAge,
};
use dlflow_sim::workload::{generate_trace, FaultProcess, Trace, TraceSpec};
use proptest::prelude::*;

type Factory = fn() -> Box<dyn OnlineScheduler>;

/// Factories for all 8 policies (crash consistency needs *fresh*
/// instances of the same kind on each restore, like a real process
/// restart).
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

/// A small trace, optionally with a fault schedule.
fn small_trace(seed: u64, n: usize, faulty: bool) -> Trace {
    generate_trace(&TraceSpec {
        n_requests: n,
        n_machines: 3,
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

/// Pushes the whole trace (arrivals + platform events) into a fresh
/// engine. Snapshot mid-run therefore always exercises a non-empty
/// pending heap until the last arrival is admitted.
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

/// Uninterrupted reference run.
fn run_straight(trace: &Trace, policy: &mut dyn OnlineScheduler) -> Vec<(usize, u64)> {
    policy.reset();
    let mut eng = load(trace);
    eng.drain(policy).unwrap();
    completions_of(&mut eng)
}

/// Run interrupted by snapshot/restore every `every` events; each
/// restore targets a brand-new policy from `fresh`.
fn run_interrupted(trace: &Trace, fresh: Factory, every: usize) -> Vec<(usize, u64)> {
    let mut policy = fresh();
    policy.reset();
    let mut eng = load(trace);
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "interrupted run does not terminate");
        if eng.step(policy.as_mut()).unwrap() == StepOutcome::Idle {
            break;
        }
        if eng.n_events().is_multiple_of(every) {
            let snap = eng.snapshot(policy.as_ref());
            let mut revived = fresh();
            let restored = Engine::restore(&snap, revived.as_mut(), trace.len()).unwrap();
            // The snapshot of the restored pair reproduces the text
            // byte for byte: the format captures a fixed point.
            assert_eq!(restored.snapshot(revived.as_ref()), snap);
            eng = restored;
            policy = revived;
        }
    }
    completions_of(&mut eng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash consistency, fault-free and faulty, all 8 schedulers.
    #[test]
    fn snapshot_restore_is_crash_consistent(
        seed in 0u64..5_000,
        n in 4usize..10,
        every in 1usize..5,
        faulty in 0u8..2,
    ) {
        let trace = small_trace(seed, n, faulty == 1);
        for fresh in factories() {
            let reference = run_straight(&trace, fresh().as_mut());
            prop_assert_eq!(reference.len(), n);
            let interrupted = run_interrupted(&trace, fresh, every);
            prop_assert_eq!(&interrupted, &reference);
        }
    }

    /// Larger faulty traces: every scheduler survives arbitrary seeded
    /// failure/recovery schedules and completes every request.
    #[test]
    fn faulty_replays_complete_for_every_cheap_policy(
        seed in 0u64..5_000,
        n in 20usize..60,
    ) {
        let trace = small_trace(seed, n, true);
        for fresh in cheap_factories() {
            let mut policy = fresh();
            let stats = trace.replay(policy.as_mut()).unwrap();
            prop_assert_eq!(stats.n_jobs, n, "{}", policy.name());
            prop_assert!(stats.metrics.makespan.is_finite(), "{}", policy.name());
        }
    }

    /// A fault-free trace replayed through `push_platform_event`-free
    /// and platform-aware code paths is the same run: pushing an empty
    /// fault schedule is a no-op by construction.
    #[test]
    fn empty_fault_schedule_is_identity(seed in 0u64..5_000, n in 5usize..25) {
        let clean = small_trace(seed, n, false);
        prop_assert!(clean.platform_events.is_empty());
        for fresh in cheap_factories() {
            let mut a = fresh();
            let mut b = fresh();
            let s1 = clean.replay(a.as_mut()).unwrap();
            let s2 = clean.replay(b.as_mut()).unwrap();
            prop_assert_eq!(s1.n_events, s2.n_events);
            prop_assert_eq!(&s1.busy, &s2.busy);
        }
    }
}

/// Satellite edge case: snapshot taken mid-burst, with arrivals still
/// queued in the pending heap, restores with the queue intact.
#[test]
fn snapshot_mid_burst_keeps_pending_arrivals() {
    let trace = small_trace(42, 12, true);
    let mut policy = Mct::new();
    let mut eng = load(&trace);
    eng.step(&mut policy).unwrap();
    assert!(eng.pending_len() > 0, "test needs queued arrivals");
    assert!(eng.platform_pending_len() > 0, "test needs queued events");
    let snap = eng.snapshot(&policy);
    let mut revived = Mct::new();
    let restored = Engine::restore(&snap, &mut revived, trace.len()).unwrap();
    assert_eq!(restored.pending_len(), eng.pending_len());
    assert_eq!(restored.platform_pending_len(), eng.platform_pending_len());
    assert_eq!(restored.n_pushed(), eng.n_pushed());
    assert_eq!(restored.now(), eng.now());
    assert_eq!(restored.active().up(), eng.active().up());
}
