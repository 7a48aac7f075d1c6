//! Integration coverage for the engine/trace accessors an embedding
//! service uses: progress counters, allocation inspection, policy
//! constructors with explicit tuning knobs, and trace round-tripping.

use dlflow_core::instance::InstanceBuilder;
use dlflow_sim::engine::{simulate, Allocation, Engine, JobSpec};
use dlflow_sim::schedulers::Edf;
use dlflow_sim::workload::Trace;

#[test]
fn engine_counters_track_pushed_and_pending() {
    let mut eng = Engine::new(2);
    assert_eq!(eng.n_pushed(), 0);
    assert_eq!(eng.pending_len(), 0);
    let id = eng
        .push_arrival(JobSpec {
            release: 5.0,
            weight: 1.0,
            costs: vec![2.0, 4.0],
        })
        .unwrap();
    assert_eq!(id, 0);
    assert_eq!(eng.n_pushed(), 1);
    // Not yet released: sits in the pending queue, not in `active`.
    assert_eq!(eng.pending_len(), 1);
    assert!(eng.active().is_empty());
}

#[test]
fn active_job_exposes_raw_costs() {
    let mut eng = Engine::new(2);
    eng.push_arrival(JobSpec {
        release: 0.0,
        weight: 1.0,
        costs: vec![2.0, f64::INFINITY],
    })
    .unwrap();
    // One step admits the release-0 arrival.
    eng.step(&mut Edf::new()).unwrap();
    let job = eng.active().get(0);
    assert_eq!(job.raw_cost(0), 2.0);
    assert!(job.raw_cost(1).is_infinite()); // cost() hides this as None
    assert_eq!(job.cost(1), None);
}

#[test]
fn allocation_share_scaling() {
    let mut alloc = Allocation::idle(1);
    alloc.set(0, 0, 0.8);
    alloc.set(0, 1, 0.4); // oversubscribed: total 1.2
    let total = alloc.machine_total(0);
    assert!((total - 1.2).abs() < 1e-12);
    alloc.scale_machine(0, 1.0 / total);
    assert!((alloc.machine_total(0) - 1.0).abs() < 1e-12);
}

#[test]
fn tuned_policies_run_clean() {
    let mut b = InstanceBuilder::new();
    b.job(0.0, 1.0);
    b.job(1.0, 2.0);
    b.machine(vec![Some(2.0), Some(2.0)]);
    let inst = b.build().unwrap();
    // Explicit tuning constructor (vs the Default-based `new`).
    let res = simulate(&inst, &mut Edf::with_target(2.0)).unwrap();
    assert_eq!(res.completions.len(), 2);
}

#[test]
fn trace_dlt_round_trip_preserves_job_specs() {
    let text = "machines 1 2\narrival 0 3 1 *\narrival 1.5 2 2 10\n";
    let trace = Trace::parse_dlt(text).unwrap();
    let again = Trace::parse_dlt(&trace.to_dlt()).unwrap();
    assert_eq!(again.len(), trace.len());
    for k in 0..trace.len() {
        let (a, b) = (trace.job_spec(k), again.job_spec(k));
        assert_eq!(a.release, b.release);
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.costs, b.costs);
    }
    // Size × cycle-time, with the mask knocking out machine 2.
    let spec = trace.job_spec(1);
    assert_eq!(spec.costs[0], 2.0);
    assert!(spec.costs[1].is_infinite());
}
