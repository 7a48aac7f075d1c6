//! Combinatorial fast path for *uniform machines with restricted
//! availabilities* (§3).
//!
//! The paper notes that for GriPPS "the problem is essentially a uniform
//! machines with restricted availabilities scheduling problem": costs
//! factorize as `c[i][j] = W_j · s_i`. Under divisibility, System (2)
//! then degenerates into a transportation problem — job `j` must ship
//! `W_j` units of work, machine `i` offers `len(I_t)/s_i` units in
//! interval `I_t`, shipping allowed only inside the job's
//! `[r_j, d̄_j]` window and where the databank is present — which a single
//! max-flow computation decides. This replaces the LP feasibility probe
//! of the milestone binary search with a polynomial combinatorial
//! algorithm, and extracts a schedule from the flow values with no LP at
//! all.
//!
//! (The per-job bound (5b) of the preemptive variant is *not* expressible
//! this way when speeds differ, because a job's wall-clock usage mixes
//! work units at different rates; the preemptive path keeps the LP.)

use crate::flownet::FlowNetwork;
use crate::instance::Instance;
use crate::intervals::ConcreteIntervals;
use crate::schedule::{Schedule, ScheduleKind, Slice};
use dlflow_num::Scalar;

/// The factorized form of a uniform instance: `c[i][j] = work[j] · speed[i]`.
#[derive(Clone, Debug)]
pub struct UniformFactors<S> {
    /// Per-machine cycle time `s_i` (seconds per work unit); the overall
    /// scale is normalized so the first machine with any finite cost has
    /// speed 1.
    pub speed: Vec<S>,
    /// Per-job work `W_j` in those units.
    pub work: Vec<S>,
}

/// Attempts to factorize the cost matrix as `c[i][j] = W_j · s_i` on the
/// finite entries. Returns `None` when the instance is genuinely
/// unrelated (no consistent factorization exists).
pub fn uniform_factors<S: Scalar>(inst: &Instance<S>) -> Option<UniformFactors<S>> {
    let n = inst.n_jobs();
    let m = inst.n_machines();
    let mut speed: Vec<Option<S>> = vec![None; m];
    let mut work: Vec<Option<S>> = vec![None; n];

    // Propagate assignments across the machine–job availability graph.
    // Each connected component can be normalized independently.
    loop {
        let mut changed = false;
        // Seed any untouched component: first machine with a finite cost
        // to an unassigned job, or an entirely fresh machine.
        if let Some(i) =
            (0..m).find(|&i| speed[i].is_none() && (0..n).any(|j| inst.cost(i, j).is_finite()))
        {
            let fresh = (0..n).all(|j| !inst.cost(i, j).is_finite() || work[j].is_none());
            if fresh {
                speed[i] = Some(S::one());
                changed = true;
            }
        }
        for i in 0..m {
            for j in 0..n {
                let Some(c) = inst.cost(i, j).finite() else {
                    continue;
                };
                match (&speed[i], &work[j]) {
                    (Some(s), None) => {
                        if s.is_negligible() {
                            return None; // zero speed with finite cost: degenerate
                        }
                        work[j] = Some(c.div(s));
                        changed = true;
                    }
                    (None, Some(w)) => {
                        if w.is_negligible() {
                            // Zero-work job constrains nothing; cost must be 0.
                            if !c.is_negligible() {
                                return None;
                            }
                        } else {
                            speed[i] = Some(c.div(w));
                            changed = true;
                        }
                    }
                    (Some(s), Some(w)) => {
                        if !c.sub(&s.mul(w)).is_negligible() {
                            return None; // inconsistent: truly unrelated
                        }
                    }
                    (None, None) => {}
                }
            }
        }
        if !changed {
            // Stuck: any machine still without a speed is linked only to
            // jobs of negligible work (which fix no speed) or to none with
            // a known work. Seed it, so every component gets a seed.
            match (0..m)
                .find(|&i| speed[i].is_none() && (0..n).any(|j| inst.cost(i, j).is_finite()))
            {
                Some(i) => speed[i] = Some(S::one()),
                None => break,
            }
        }
    }
    // Machines with no finite entries get speed 1 (they are never used);
    // jobs must all be assigned (every job has a finite machine).
    let speed: Vec<S> = speed
        .into_iter()
        .map(|s| s.unwrap_or_else(S::one))
        .collect();
    let work: Vec<S> = work
        .into_iter()
        .map(|w| w.expect("validated instance: every job has a finite cost"))
        .collect();
    Some(UniformFactors { speed, work })
}

/// Deadline feasibility on a uniform instance via one max-flow
/// computation. Returns `None` when the instance does not factorize;
/// `Some(schedule)` / `Some(None)`-style result otherwise.
///
/// This is Lemma 1 specialised: feasible iff the transportation network
/// saturates the total work `Σ W_j`.
pub fn deadline_feasible_uniform<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
) -> Option<Option<Schedule<S>>> {
    let factors = uniform_factors(inst)?;
    Some(deadline_feasible_with_factors(inst, deadlines, &factors))
}

/// As [`deadline_feasible_uniform`] with precomputed factors (the
/// milestone search reuses the factors across all probes).
pub fn deadline_feasible_with_factors<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    factors: &UniformFactors<S>,
) -> Option<Schedule<S>> {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let n = inst.n_jobs();
    let m = inst.n_machines();

    // Quick reject: empty execution window.
    for j in 0..n {
        if deadlines[j].lt_tol(&inst.job(j).release) {
            return None;
        }
    }

    let mut points: Vec<S> = inst.jobs().iter().map(|j| j.release.clone()).collect();
    points.extend(deadlines.iter().cloned());
    let intervals = ConcreteIntervals::from_points(points);
    let n_int = intervals.n_intervals();

    // Node layout: 0 = source, 1..=n jobs, then n_int×m slot nodes, sink last.
    let slot = |t: usize, i: usize| 1 + n + t * m + i;
    let sink = 1 + n + n_int * m;
    let mut net = FlowNetwork::<S>::new(sink + 1);

    let mut total_work = S::zero();
    let mut job_edge = Vec::with_capacity(n);
    for j in 0..n {
        total_work = total_work.add(&factors.work[j]);
        job_edge.push(net.add_edge(0, 1 + j, factors.work[j].clone()));
    }
    let infinite = total_work.add(&S::one());
    let mut ship_edges: Vec<(usize, usize, usize, usize)> = Vec::new(); // (t, i, j, edge id)
    for t in 0..n_int {
        for i in 0..m {
            if factors.speed[i].is_negligible() {
                continue;
            }
            // Capacity: work deliverable by machine i during I_t.
            let cap = intervals.len(t).div(&factors.speed[i]);
            net.add_edge(slot(t, i), sink, cap);
            for j in 0..n {
                if !inst.cost(i, j).is_finite() {
                    continue;
                }
                if !inst.job(j).release.le_tol(intervals.inf(t)) {
                    continue;
                }
                if !deadlines[j].ge_tol(intervals.sup(t)) {
                    continue;
                }
                let e = net.add_edge(1 + j, slot(t, i), infinite.clone());
                ship_edges.push((t, i, j, e));
            }
        }
    }

    let flow = net.max_flow(0, sink);
    if !flow.sub(&total_work).is_negligible() {
        return None; // some work cannot be shipped: infeasible
    }

    // Rebuild a divisible schedule by packing shipped work per slot.
    let mut sched = Schedule::empty(m, ScheduleKind::Divisible);
    let mut cursor: Vec<Vec<S>> = (0..n_int)
        .map(|t| vec![intervals.inf(t).clone(); m])
        .collect();
    for (t, i, j, e) in ship_edges {
        let shipped = net.flow_on(e);
        if !shipped.is_positive_tol() {
            continue;
        }
        let dur = shipped.mul(&factors.speed[i]);
        let start = cursor[t][i].clone();
        let end = start.add(&dur);
        sched.push(
            i,
            Slice {
                job: j,
                start,
                end: end.clone(),
            },
        );
        cursor[t][i] = end;
    }
    sched.normalize();
    Some(sched)
}

/// Max-flow feasibility probe for "max weighted flow ≤ f": the uniform
/// counterpart of [`crate::maxflow::feasible_at`] (divisible model only).
pub fn feasible_at_uniform<S: Scalar>(
    inst: &Instance<S>,
    f: &S,
    factors: &UniformFactors<S>,
) -> bool {
    let deadlines: Vec<S> = (0..inst.n_jobs()).map(|j| inst.deadline(j, f)).collect();
    deadline_feasible_with_factors(inst, &deadlines, factors).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline_feasible_divisible;
    use crate::instance::InstanceBuilder;
    use crate::validate::validate;
    use dlflow_num::Rat;

    fn ri(v: i64) -> Rat {
        Rat::from_i64(v)
    }

    fn uniform_inst() -> Instance<Rat> {
        // W = [4, 2], s = [1, 2] → c = [[4,2],[8,4]] with one hole.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(ri(1), ri(2));
        b.machine(vec![Some(ri(4)), Some(ri(2))]);
        b.machine(vec![Some(ri(8)), None]);
        b.build().unwrap()
    }

    #[test]
    fn factorization_found() {
        let inst = uniform_inst();
        let f = uniform_factors(&inst).expect("uniform");
        // Normalized to machine 0: speeds [1, 2], works [4, 2].
        assert_eq!(f.speed, vec![Rat::one(), ri(2)]);
        assert_eq!(f.work, vec![ri(4), ri(2)]);
    }

    #[test]
    fn unrelated_matrix_rejected() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(4)), Some(ri(2))]);
        b.machine(vec![Some(ri(8)), Some(ri(100))]); // breaks the ratio
        let inst = b.build().unwrap();
        assert!(uniform_factors(&inst).is_none());
    }

    #[test]
    fn disconnected_components_factorize() {
        // Machine 0 only runs J0; machine 1 only runs J1: always uniform.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(3)), None]);
        b.machine(vec![None, Some(ri(7))]);
        let inst = b.build().unwrap();
        let f = uniform_factors(&inst).expect("factorizes componentwise");
        // Consistency: c = W·s on all finite entries.
        assert_eq!(f.work[0].mul_ref(&f.speed[0]), ri(3));
        assert_eq!(f.work[1].mul_ref(&f.speed[1]), ri(7));
    }

    #[test]
    fn zero_work_job_does_not_leave_a_component_unseeded() {
        // Machine 0 seeds, J0 gets zero work, and machine 1 can take no
        // speed from J0: J1 is only reached by seeding machine 1 too.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::zero()), None]);
        b.machine(vec![Some(Rat::zero()), Some(ri(5))]);
        let inst = b.build().unwrap();
        let f = uniform_factors(&inst).expect("factorizes");
        assert_eq!(f.work[1].mul_ref(&f.speed[1]), ri(5));
        use crate::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        let lp = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::Lp);
        assert_eq!((mf.optimum, lp.optimum), (ri(5), ri(5)));
    }

    #[test]
    fn maxflow_feasibility_matches_lp() {
        let inst = uniform_inst();
        let factors = uniform_factors(&inst).unwrap();
        for (d1, d2) in [(4i64, 3i64), (8, 8), (2, 2), (5, 2), (12, 2)] {
            let deadlines = vec![ri(d1), ri(d2)];
            let lp = deadline_feasible_divisible(&inst, &deadlines).is_some();
            let mf = deadline_feasible_with_factors(&inst, &deadlines, &factors).is_some();
            assert_eq!(lp, mf, "disagreement at deadlines ({d1},{d2})");
        }
    }

    #[test]
    fn maxflow_schedule_is_valid() {
        let inst = uniform_inst();
        let factors = uniform_factors(&inst).unwrap();
        let deadlines = vec![ri(8), ri(8)];
        let sched = deadline_feasible_with_factors(&inst, &deadlines, &factors).expect("feasible");
        validate(&inst, &sched).unwrap();
        let c = sched.completion_times(2);
        assert!(c[0].clone().unwrap() <= ri(8));
        assert!(c[1].clone().unwrap() <= ri(8));
    }

    #[test]
    fn probe_agrees_with_lp_probe() {
        let inst = uniform_inst();
        let factors = uniform_factors(&inst).unwrap();
        for f in [1i64, 2, 4, 6, 8, 16] {
            let fr = ri(f);
            let lp = crate::maxflow::feasible_at(&inst, &fr, false);
            let mf = feasible_at_uniform(&inst, &fr, &factors);
            assert_eq!(lp, mf, "probe disagreement at F = {f}");
        }
    }

    #[test]
    fn infeasible_when_window_empty() {
        let inst = uniform_inst();
        let factors = uniform_factors(&inst).unwrap();
        // J1's deadline before its release.
        assert!(
            deadline_feasible_with_factors(&inst, &[ri(8), Rat::from_ratio(1, 2)], &factors)
                .is_none()
        );
    }
}
