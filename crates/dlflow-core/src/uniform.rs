//! Combinatorial fast path for *uniform machines with restricted
//! availabilities* (§3).
//!
//! The paper notes that for GriPPS "the problem is essentially a uniform
//! machines with restricted availabilities scheduling problem": costs
//! factorize as `c[i][j] = W_j · s_i` ([`uniform_factors`]). Under
//! divisibility, System (2) then degenerates into a transportation
//! problem — job `j` must ship `W_j` units of work, machine `i` offers
//! `len(I_t)/s_i` units in interval `I_t`, shipping allowed only inside
//! the job's `[r_j, d̄_j]` window and where the databank is present —
//! which a single max-flow computation decides. This replaces the LP
//! feasibility probe of the milestone binary search with a polynomial
//! combinatorial algorithm, and extracts a schedule from the flow values
//! with no LP at all.
//!
//! Over exact scalars it replaces §4.3's range LP (System (3)) as well.
//! Inside one milestone range the network's topology is fixed and each
//! capacity `len_t(F)/s_i` is affine in `F`, so the maximum flow is the
//! minimum over cuts of lines `a + b·F`: concave and piecewise linear.
//! The optimum, the smallest `F` at which the flow carries all the work,
//! is found by Newton's method on minimum cuts, the parametric max-flow
//! of Gallo, Grigoriadis & Tarjan (SIAM J. Comput. 18(1), 1989), in a
//! few exact max-flows (see [`crate::maxflow`]).
//!
//! (The per-job bound (5b) of the preemptive variant is *not* expressible
//! this way when speeds differ, because a job's wall-clock usage mixes
//! work units at different rates; the preemptive path keeps the LP.)

use crate::flownet::FlowNetwork;
use crate::instance::Instance;
use crate::intervals::{AffineF, SymbolicIntervals};
use crate::maxflow::MilestoneRange;
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
/// unrelated (no consistent factorization exists), and when a machine
/// would get a negligible speed: it does real work in no time, which no
/// transportation network models.
pub fn uniform_factors<S: Scalar>(inst: &Instance<S>) -> Option<UniformFactors<S>> {
    let n = inst.n_jobs();
    let m = inst.n_machines();
    let mut speed: Vec<Option<S>> = vec![None; m];
    let mut work: Vec<Option<S>> = vec![None; n];

    // Propagate assignments across the machine–job availability graph.
    // Each connected component can be normalized independently, but only
    // once: a component is seeded when propagation is stuck, never while
    // a pass may still reach it from an earlier seed.
    loop {
        let mut changed = false;
        for i in 0..m {
            for j in 0..n {
                let Some(c) = inst.cost(i, j).finite() else {
                    continue;
                };
                match (&speed[i], &work[j]) {
                    (Some(s), None) => {
                        // Speeds are 1 (a seed) or checked non-negligible.
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
                            let s = c.div(w);
                            if s.is_negligible() {
                                return None; // real work in no time
                            }
                            speed[i] = Some(s);
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
            // a known work, so it lies in a component no seed reaches.
            // Seed it (the first pass seeds the first component).
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
    // Quick reject: empty execution window.
    if deadlines
        .iter()
        .zip(inst.jobs())
        .any(|(d, job)| d.lt_tol(&job.release))
    {
        return None;
    }
    let zero = S::zero();
    let due = deadlines.iter().cloned().map(AffineF::constant).collect();
    let network = Transport::new(inst, factors, due, &zero);
    let (net, ids, flow) = network.max_flow_at(&zero);
    network
        .saturated(&flow)
        .then(|| network.schedule(&net, &ids, &zero))
}

/// Max-flow feasibility probe for "max weighted flow ≤ f": the uniform
/// counterpart of [`crate::maxflow::feasible_at`] (divisible model only).
pub(crate) fn feasible_at_uniform<S: Scalar>(
    inst: &Instance<S>,
    f: &S,
    factors: &UniformFactors<S>,
) -> bool {
    let deadlines: Vec<S> = (0..inst.n_jobs()).map(|j| inst.deadline(j, f)).collect();
    deadline_feasible_with_factors(inst, &deadlines, factors).is_some()
}

/// One machine's share of one interval of a milestone range.
struct Slot<S> {
    machine: usize,
    /// Interval start `inf_t(F)`.
    start: AffineF<S>,
    /// Work the machine delivers in the interval, `len_t(F)/s_i`.
    cap: AffineF<S>,
}

/// The transportation network of System (2) on a uniform instance, with
/// deadlines affine in `F`. Its topology is the epochal order at a
/// reference `F`; inside a milestone range that order holds throughout,
/// so only the slot capacities move, affinely in `F`. Constant deadlines
/// give the network of one deadline vector.
struct Transport<'a, S> {
    factors: &'a UniformFactors<S>,
    /// `ΣW`, the work to ship.
    total: S,
    slots: Vec<Slot<S>>,
    /// `(slot, job)` shipping edges.
    ship: Vec<(usize, usize)>,
}

impl<'a, S: Scalar> Transport<'a, S> {
    fn new(
        inst: &Instance<S>,
        factors: &'a UniformFactors<S>,
        deadlines: Vec<AffineF<S>>,
        reference: &S,
    ) -> Self {
        let due: Vec<S> = deadlines.iter().map(|d| d.eval(reference)).collect();
        let intervals = SymbolicIntervals::from_points(
            inst.jobs()
                .iter()
                .zip(deadlines)
                .flat_map(|(job, d)| [AffineF::constant(job.release.clone()), d])
                .collect(),
            reference.clone(),
        );
        let (mut slots, mut ship) = (Vec::new(), Vec::new());
        for t in 0..intervals.n_intervals() {
            let inf_ref = intervals.inf(t).eval(reference);
            let sup_ref = intervals.sup(t).eval(reference);
            let len = intervals.len(t);
            for (i, s) in factors.speed.iter().enumerate() {
                if s.is_negligible() {
                    continue;
                }
                let first = ship.len();
                for j in 0..inst.n_jobs() {
                    if inst.cost(i, j).is_finite()
                        && inst.job(j).release.le_tol(&inf_ref)
                        && due[j].ge_tol(&sup_ref)
                    {
                        ship.push((slots.len(), j));
                    }
                }
                if ship.len() > first {
                    slots.push(Slot {
                        machine: i,
                        start: intervals.inf(t).clone(),
                        cap: AffineF {
                            a: len.a.div(s),
                            b: len.b.div(s),
                        },
                    });
                }
            }
        }
        let total = factors.work.iter().fold(S::zero(), |acc, w| acc.add(w));
        Transport {
            factors,
            total,
            slots,
            ship,
        }
    }

    /// Node of slot `k` (0 is the source, `1..=n` the jobs).
    fn slot_node(&self, k: usize) -> usize {
        1 + self.factors.work.len() + k
    }

    /// A maximum flow at `F = f`, with the ids of the shipping edges.
    fn max_flow_at(&self, f: &S) -> (FlowNetwork<S>, Vec<usize>, S) {
        let sink = self.slot_node(self.slots.len());
        let mut net = FlowNetwork::new(sink + 1);
        for (j, w) in self.factors.work.iter().enumerate() {
            net.add_edge(0, 1 + j, w.clone());
        }
        // A shipping edge carries at most its job's work, less than this,
        // so it never saturates and is never in a minimum cut.
        let unbounded = self.total.add(&S::one());
        let ids = self
            .ship
            .iter()
            .map(|&(k, j)| net.add_edge(1 + j, self.slot_node(k), unbounded.clone()))
            .collect();
        for (k, slot) in self.slots.iter().enumerate() {
            net.add_edge(self.slot_node(k), sink, slot.cap.eval(f));
        }
        let flow = net.max_flow(0, sink);
        (net, ids, flow)
    }

    /// `true` when a flow of this value ships all the work.
    fn saturated(&self, flow: &S) -> bool {
        flow.sub(&self.total).is_negligible()
    }

    /// The capacity `a + b·F` of the minimum cut left by a maximum flow:
    /// the work of the jobs off the source side plus the capacity of the
    /// slots on it.
    fn min_cut(&self, net: &FlowNetwork<S>) -> AffineF<S> {
        let side = net.source_side(0);
        let mut cut = AffineF::constant(S::zero());
        for (j, w) in self.factors.work.iter().enumerate() {
            if !side[1 + j] {
                cut.a = cut.a.add(w);
            }
        }
        for (k, slot) in self.slots.iter().enumerate() {
            if side[self.slot_node(k)] {
                cut.a = cut.a.add(&slot.cap.a);
                cut.b = cut.b.add(&slot.cap.b);
            }
        }
        cut
    }

    /// Packs the flow shipped at `F = f` into a divisible schedule, back
    /// to back from each slot's interval start.
    fn schedule(&self, net: &FlowNetwork<S>, ids: &[usize], f: &S) -> Schedule<S> {
        let speed = &self.factors.speed;
        let mut sched = Schedule::empty(speed.len(), ScheduleKind::Divisible);
        let mut cursor: Vec<S> = self.slots.iter().map(|s| s.start.eval(f)).collect();
        for (&(k, j), &e) in self.ship.iter().zip(ids) {
            let shipped = net.flow_on(e);
            if !shipped.is_positive_tol() {
                continue;
            }
            let i = self.slots[k].machine;
            let start = cursor[k].clone();
            let end = start.add(&shipped.mul(&speed[i]));
            sched.push(
                i,
                Slice {
                    job: j,
                    start,
                    end: end.clone(),
                },
            );
            cursor[k] = end;
        }
        sched.normalize();
        sched
    }
}

/// §4.3's last step without an LP, on an exact uniform instance: the
/// smallest `F` of the milestone range `range` (`floor` is the search's
/// floor) whose transportation network carries all the work, with a
/// schedule attaining it.
///
/// Every cut's capacity is affine in `F`, so the maximum flow is the
/// minimum of finitely many lines, concave in `F`. Newton's method on it
/// is the parametric max-flow of Gallo, Grigoriadis & Tarjan: from
/// `F₀ = lo`, each exact max-flow at `F_k` leaves a minimum cut
/// `a_k + b_k·F`, and `F_{k+1} = (ΣW − a_k)/b_k` is where that cut
/// would carry all the work. The iterates rise to the optimum from below
/// (each cut bounds the flow from above) with strictly falling slopes, so
/// the search stops, at the first saturating flow, after a few steps.
///
/// The range is only trusted once the exact flows confirm it: `None` when
/// the flow saturates at `lo` although `lo` is not the floor (the optimum
/// lies lower), or when an iterate would pass `hi` or stop advancing (it
/// lies higher). `range` must span consecutive exact milestones, so that
/// its reference order holds on all of `[lo, hi]`.
pub(crate) fn min_flow_on_range<S: Scalar>(
    inst: &Instance<S>,
    factors: &UniformFactors<S>,
    range: &MilestoneRange<S>,
    floor: &S,
) -> Option<(S, Schedule<S>)> {
    let due = inst
        .jobs()
        .iter()
        .map(|job| AffineF {
            a: job.release.clone(),
            b: job.weight.recip(),
        })
        .collect();
    let network = Transport::new(inst, factors, due, &range.reference);
    let mut f = range.lo.clone();
    loop {
        let (net, ids, flow) = network.max_flow_at(&f);
        if network.saturated(&flow) {
            // The iterates rise strictly, so only the first one is `lo`.
            let lo_feasible = f == range.lo;
            if lo_feasible && range.lo != *floor {
                return None;
            }
            let sched = network.schedule(&net, &ids, &f);
            return Some((f, sched));
        }
        let cut = network.min_cut(&net);
        if !cut.b.is_positive_tol() {
            return None;
        }
        let next = network.total.sub(&cut.a).div(&cut.b);
        if !next.gt_tol(&f) || range.hi.as_ref().is_some_and(|hi| next.gt_tol(hi)) {
            return None;
        }
        f = next;
    }
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
    fn a_seed_waits_until_propagation_is_stuck() {
        // W = (1, 2, 3), s = (1, 2, 3, 5). M0 seeds and reaches M3 through
        // J2; M1 is reached only in the next pass (M3 → J1 → M2 → J0), so
        // seeding it as "fresh" would clash with the first normalization.
        let (w, s) = ([1i64, 2, 3], [1i64, 2, 3, 5]);
        let holds: [&[usize]; 4] = [&[2], &[0], &[0, 1], &[1, 2]];
        let mut b = InstanceBuilder::<Rat>::new();
        for _ in w {
            b.job(Rat::zero(), Rat::one());
        }
        for (i, jobs) in holds.iter().enumerate() {
            b.machine(
                (0..3)
                    .map(|j| jobs.contains(&j).then(|| ri(w[j] * s[i])))
                    .collect(),
            );
        }
        let inst = b.build().unwrap();
        let f = uniform_factors(&inst).expect("the instance is uniform");
        for (i, jobs) in holds.iter().enumerate() {
            for &j in *jobs {
                assert_eq!(f.work[j].mul_ref(&f.speed[i]), ri(w[j] * s[i]));
            }
        }
    }

    #[test]
    fn a_zero_time_machine_is_not_uniform() {
        // M1 runs J0 (work 2 on M0) at zero cost. The max-flow network
        // cannot model a machine of speed 0, so the instance must take
        // the LP route, whose optimum is 0.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(ri(2))]);
        b.machine(vec![Some(Rat::zero())]);
        let inst = b.build().unwrap();
        assert!(uniform_factors(&inst).is_none());
        use crate::maxflow::{min_max_weighted_flow_divisible_with, ProbeMethod};
        let mf = min_max_weighted_flow_divisible_with(&inst, ProbeMethod::MaxFlowUniform);
        assert_eq!(mf.optimum, Rat::zero());
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
