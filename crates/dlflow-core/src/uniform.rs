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
//! of Gallo, Grigoriadis & Tarjan (SIAM J. Comput. 18(1), 1989). A
//! minimum cut is a node set, so `f64` max-flows propose the cuts and
//! exact arithmetic only prices them: each cut's line and each iterate
//! `(ΣW − a)/b` are exact, so every iterate is a proven lower bound on the
//! optimum. One exact max-flow at the last iterate then certifies it and
//! yields the schedule, over `i128` integers scaled by the capacities'
//! common denominator when they fit (see [`crate::maxflow`]); the
//! schedule is then packed from the integer flow, one exact value per
//! slice.
//!
//! (The per-job bound (5b) of the preemptive variant is *not* expressible
//! this way when speeds differ, because a job's wall-clock usage mixes
//! work units at different rates; the preemptive path keeps the LP.)

use crate::flownet::{Capacity, FlowNetwork, Int};
use crate::instance::Instance;
use crate::intervals::{AffineF, SymbolicIntervals};
use crate::maxflow::MilestoneRange;
use crate::schedule::{Schedule, ScheduleKind, Slice};
use dlflow_num::Scalar;
use std::mem;

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
    let (network, net, flow) = deadline_flow(inst, deadlines, factors)?;
    network
        .saturated(&flow)
        .then(|| network.schedule(&S::zero(), network.shipped(&net)))
}

/// Max-flow feasibility probe for "max weighted flow ≤ f": the uniform
/// counterpart of [`crate::maxflow::feasible_at`] (divisible model only).
/// A verdict only: no schedule is packed.
pub(crate) fn feasible_at_uniform<S: Scalar>(
    inst: &Instance<S>,
    f: &S,
    factors: &UniformFactors<S>,
) -> bool {
    let deadlines: Vec<S> = (0..inst.n_jobs()).map(|j| inst.deadline(j, f)).collect();
    deadline_flow(inst, &deadlines, factors)
        .is_some_and(|(network, _, flow)| network.saturated(&flow))
}

/// The transportation network of one deadline vector, run to a maximum
/// flow; `None` when a deadline precedes its job's release (an empty
/// window, which the network cannot express).
fn deadline_flow<'a, S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    factors: &'a UniformFactors<S>,
) -> Option<(Transport<'a, S>, FlowNetwork<S>, S)> {
    assert_eq!(deadlines.len(), inst.n_jobs());
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
    let (net, flow) = network.max_flow_at(&zero);
    Some((network, net, flow))
}

impl<S: Scalar> UniformFactors<S> {
    /// The factors rounded to `f64`.
    pub(crate) fn to_f64(&self) -> UniformFactors<f64> {
        UniformFactors {
            speed: self.speed.iter().map(S::to_f64).collect(),
            work: self.work.iter().map(S::to_f64).collect(),
        }
    }
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
///
/// Nodes: the source 0, jobs `1..=n`, then the slots, then the sink.
/// Edges, in this order: source → job `j` (capacity `W_j`), the shipping
/// edges job → slot, and slot → sink (the slot's capacity).
struct Transport<'a, S> {
    factors: &'a UniformFactors<S>,
    /// `ΣW`, the work to ship.
    total: S,
    slots: Vec<Slot<S>>,
    /// `(slot, job)` shipping edges.
    ship: Vec<(usize, usize)>,
}

/// One exact maximum flow of a [`Transport`] network.
enum ExactFlow<S> {
    /// It ships all the work: the schedule packed from it (see
    /// [`Transport::schedule`]).
    Saturated(Schedule<S>),
    /// It does not: the line of its minimum cut (see
    /// [`Transport::cut_line`]).
    Short(Option<AffineF<S>>),
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
                .flat_map(|(job, d)| [AffineF::constant(job.release.clone()), d]),
            reference.clone(),
        );
        let n = inst.n_jobs();
        let (mut slots, mut ship, mut open) = (Vec::new(), Vec::new(), Vec::with_capacity(n));
        for t in 0..intervals.n_intervals() {
            // The jobs whose window holds interval `t`, tested once for
            // every machine.
            let (inf_ref, sup_ref) = (intervals.inf_at_reference(t), intervals.sup_at_reference(t));
            open.clear();
            open.extend(
                (0..n).filter(|&j| inst.job(j).release.le_tol(inf_ref) && due[j].ge_tol(sup_ref)),
            );
            if open.is_empty() {
                continue;
            }
            let len = intervals.len(t);
            for (i, s) in factors.speed.iter().enumerate() {
                if s.is_negligible() {
                    continue;
                }
                let (k, first) = (slots.len(), ship.len());
                ship.extend(
                    open.iter()
                        .filter(|&&j| inst.cost(i, j).is_finite())
                        .map(|&j| (k, j)),
                );
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

    /// The network of a milestone range: job `j` due at `r_j + F/w_j`,
    /// ordered at the range's reference point.
    fn for_range(
        inst: &Instance<S>,
        factors: &'a UniformFactors<S>,
        range: &MilestoneRange<S>,
    ) -> Self {
        let due = inst
            .jobs()
            .iter()
            .map(|job| AffineF {
                a: job.release.clone(),
                b: job.weight.recip(),
            })
            .collect();
        Transport::new(inst, factors, due, &range.reference)
    }

    fn n_jobs(&self) -> usize {
        self.factors.work.len()
    }

    /// Node of slot `k`.
    fn slot_node(&self, k: usize) -> usize {
        1 + self.n_jobs() + k
    }

    fn sink(&self) -> usize {
        self.slot_node(self.slots.len())
    }

    /// Edge number of shipping edge `i`.
    fn ship_edge(&self, i: usize) -> usize {
        self.n_jobs() + i
    }

    /// The network's topology with every capacity zero.
    fn network<C: Capacity>(&self) -> FlowNetwork<C> {
        let sink = self.sink();
        let mut net = FlowNetwork::new(sink + 1);
        for j in 0..self.n_jobs() {
            net.add_edge(0, 1 + j, C::empty());
        }
        for &(k, j) in &self.ship {
            net.add_edge(1 + j, self.slot_node(k), C::empty());
        }
        for k in 0..self.slots.len() {
            net.add_edge(self.slot_node(k), sink, C::empty());
        }
        net
    }

    /// Slot `k`'s capacity at `F = f`. It is non-negative on the range,
    /// but its `f64` value can round below zero, so it is clamped there.
    fn slot_cap(&self, k: usize, f: &S) -> S {
        S::max_val(self.slots[k].cap.eval(f), S::zero())
    }

    /// The capacities at `F = f`, in edge order. A shipping edge carries
    /// at most its job's work, less than `ΣW + 1`, so it never saturates
    /// and is never in a minimum cut.
    fn capacities<'s>(&'s self, f: &'s S) -> impl Iterator<Item = S> + 's {
        let unbounded = self.total.add(&S::one());
        let ship = self.ship.iter().map(move |_| unbounded.clone());
        let slots = (0..self.slots.len()).map(move |k| self.slot_cap(k, f));
        self.factors.work.iter().cloned().chain(ship).chain(slots)
    }

    /// A maximum flow at `F = f`.
    fn max_flow_at(&self, f: &S) -> (FlowNetwork<S>, S) {
        let mut net = self.network();
        net.set_capacities(self.capacities(f));
        let flow = net.max_flow(0, self.sink());
        (net, flow)
    }

    /// `true` when a flow of this value ships all the work.
    fn saturated(&self, flow: &S) -> bool {
        flow.sub(&self.total).is_negligible()
    }

    /// The flow on each shipping edge, in order.
    fn shipped<'n>(&'n self, net: &'n FlowNetwork<S>) -> impl Iterator<Item = S> + 'n {
        (0..self.ship.len()).map(|i| net.flow_on(self.ship_edge(i)).clone())
    }

    /// The capacity `a + b·F` of the cut whose source side holds the nodes
    /// `v` with `side(v)`: the work of the jobs off the side plus the
    /// capacity of the slots on it. Any side that holds the source but not
    /// the sink is a cut, and inside the range its line bounds the maximum
    /// flow everywhere. `None` for a side that is no cut, or one that a
    /// shipping edge leaves: that edge's capacity is no line in `F`.
    fn cut_line(&self, side: impl Fn(usize) -> bool) -> Option<AffineF<S>> {
        let shipping_leaves = || {
            self.ship
                .iter()
                .any(|&(k, j)| side(1 + j) && !side(self.slot_node(k)))
        };
        if !side(0) || side(self.sink()) || shipping_leaves() {
            return None;
        }
        let mut cut = AffineF::constant(S::zero());
        for (j, w) in self.factors.work.iter().enumerate() {
            if !side(1 + j) {
                cut.a = cut.a.add(w);
            }
        }
        for (k, slot) in self.slots.iter().enumerate() {
            if side(self.slot_node(k)) {
                cut.a = cut.a.add(&slot.cap.a);
                cut.b = cut.b.add(&slot.cap.b);
            }
        }
        Some(cut)
    }

    /// Newton's step on `cut`: the `F` where it would carry all the work,
    /// when that lies above `f`. Below it the cut's capacity falls short
    /// of `ΣW`, so it is a lower bound on the optimum.
    fn rise(&self, cut: &AffineF<S>, f: &S) -> Option<S> {
        if !cut.b.is_positive_tol() {
            return None;
        }
        let next = self.total.sub(&cut.a).div(&cut.b);
        next.gt_tol(f).then_some(next)
    }

    /// Packs the shipped work at `F = f`, one amount per shipping edge in
    /// order, into a divisible schedule, back to back from each slot's
    /// interval start.
    fn schedule(&self, f: &S, shipped: impl IntoIterator<Item = S>) -> Schedule<S> {
        let speed = &self.factors.speed;
        let mut sched = Schedule::empty(speed.len(), ScheduleKind::Divisible);
        let mut cursor: Vec<S> = self.slots.iter().map(|s| s.start.eval(f)).collect();
        for (&(k, j), shipped) in self.ship.iter().zip(shipped) {
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

    /// [`Transport::schedule`] for a flow over integers, each shipping
    /// edge's amount times `den` (see [`Transport::scaled`]). Each slot
    /// sums its shipped numerators in `i128`, where they cannot overflow
    /// (the scaled total work fits), so a slice costs one exact value: it
    /// ends at `start + s_i·(sum/den)`. `None` if a sum overflows or `S`
    /// is inexact, neither of which a scaled flow can reach.
    fn schedule_scaled(
        &self,
        f: &S,
        shipped: impl IntoIterator<Item = i128>,
        den: u128,
    ) -> Option<Schedule<S>> {
        let speed = &self.factors.speed;
        let mut sched = Schedule::empty(speed.len(), ScheduleKind::Divisible);
        let starts: Vec<S> = self.slots.iter().map(|s| s.start.eval(f)).collect();
        let mut cursor = starts.clone();
        let mut sums = vec![0i128; self.slots.len()];
        for (&(k, j), shipped) in self.ship.iter().zip(shipped) {
            if shipped <= 0 {
                continue;
            }
            let i = self.slots[k].machine;
            sums[k] = sums[k].checked_add(shipped)?;
            let end = starts[k].add(&speed[i].mul(&S::from_i128_ratio(sums[k], den)?));
            let start = mem::replace(&mut cursor[k], end.clone());
            sched.push(i, Slice { job: j, start, end });
        }
        sched.normalize();
        Some(sched)
    }

    /// The same network over `f64` (with `factors`, the rounded factors),
    /// or `None` when a capacity does not stay finite.
    fn mirror<'b>(&self, factors: &'b UniformFactors<f64>) -> Option<Transport<'b, f64>> {
        let line = |l: &AffineF<S>| AffineF {
            a: l.a.to_f64(),
            b: l.b.to_f64(),
        };
        let slots: Vec<Slot<f64>> = self
            .slots
            .iter()
            .map(|s| Slot {
                machine: s.machine,
                start: line(&s.start),
                cap: line(&s.cap),
            })
            .collect();
        let total = factors.work.iter().fold(f64::zero(), |acc, w| acc.add(w));
        let finite = total.is_finite()
            && factors.work.iter().all(|w| w.is_finite())
            && slots
                .iter()
                .all(|s| s.cap.a.is_finite() && s.cap.b.is_finite());
        finite.then(|| Transport {
            factors,
            total,
            slots,
            ship: self.ship.clone(),
        })
    }

    /// Newton's iteration on the cuts that `f64` max-flows on `mirror`
    /// propose, from `range.lo`. Every cut is priced exactly, so each
    /// iterate is a lower bound on the optimum whatever the `f64` flow got
    /// wrong. The walk stops at `f64` saturation, at a side that is no
    /// priced cut, or at a cut that does not raise the iterate, and
    /// returns the last iterate; `None` when a cut's iterate passes
    /// `range.hi`, which proves the range wrong.
    fn walk(&self, mirror: &Transport<'_, f64>, range: &MilestoneRange<S>) -> Option<S> {
        let mut net = mirror.network();
        let mut f = range.lo.clone();
        loop {
            let at = f.to_f64();
            if !at.is_finite() {
                return Some(f);
            }
            net.set_capacities(mirror.capacities(&at));
            let flow = net.max_flow(0, mirror.sink());
            if mirror.saturated(&flow) {
                return Some(f);
            }
            let Some(next) = self
                .cut_line(|v| net.on_source_side(v))
                .and_then(|cut| self.rise(&cut, &f))
            else {
                return Some(f);
            };
            if range.hi.as_ref().is_some_and(|hi| next.gt_tol(hi)) {
                return None;
            }
            f = next;
        }
    }

    /// Exact Newton from `f`, a lower bound on the optimum of `range`
    /// (`floor` is the search's floor): an exact max-flow at `f` either
    /// ships all the work, and `f` is the optimum, or leaves a minimum cut
    /// that moves `f` up. `None` when the range is wrong: the flow
    /// saturates at `lo` although `lo` is not the floor (the optimum lies
    /// lower), or an iterate would pass `hi` or stop advancing (it lies
    /// higher).
    fn newton(&self, range: &MilestoneRange<S>, floor: &S, mut f: S) -> Option<(S, Schedule<S>)> {
        loop {
            match self.exact_flow(&f) {
                ExactFlow::Saturated(sched) => {
                    // The iterates rise strictly, so only the first one
                    // can be `lo`.
                    if f == range.lo && range.lo != *floor {
                        return None;
                    }
                    return Some((f, sched));
                }
                ExactFlow::Short(cut) => {
                    let next = self.rise(&cut?, &f)?;
                    if range.hi.as_ref().is_some_and(|hi| next.gt_tol(hi)) {
                        return None;
                    }
                    f = next;
                }
            }
        }
    }

    /// One exact maximum flow at `F = f`: over scaled integers when they
    /// fit, over `S` otherwise.
    fn exact_flow(&self, f: &S) -> ExactFlow<S> {
        if let Some(flow) = self.integer_flow(f) {
            return flow;
        }
        let (net, flow) = self.max_flow_at(f);
        if !self.saturated(&flow) {
            return ExactFlow::Short(self.cut_line(|v| net.on_source_side(v)));
        }
        ExactFlow::Saturated(self.schedule(f, self.shipped(&net)))
    }

    /// [`Transport::exact_flow`] over `i128` integers: every capacity at
    /// `F = f` times `D`, their common denominator, and the schedule
    /// packed over integers ([`Transport::schedule_scaled`]). `None` when
    /// `S` is inexact or `D`, a scaled capacity or the scaled total work
    /// overflows.
    fn integer_flow(&self, f: &S) -> Option<ExactFlow<S>> {
        let (caps, total, den) = self.scaled(f)?;
        let mut net = self.network();
        net.set_capacities(caps);
        if net.max_flow(0, self.sink()).0 < total {
            return Some(ExactFlow::Short(self.cut_line(|v| net.on_source_side(v))));
        }
        let shipped = (0..self.ship.len()).map(|i| net.flow_on(self.ship_edge(i)).0);
        Some(ExactFlow::Saturated(self.schedule_scaled(f, shipped, den)?))
    }

    /// The capacities at `F = f` in edge order as integer multiples of
    /// `1/D`, `D` the least common denominator of the works and slot
    /// capacities, with the scaled total work and `D`. `None` on overflow.
    fn scaled(&self, f: &S) -> Option<(Vec<Int>, i128, u128)> {
        let n = self.n_jobs();
        let parts: Vec<(i128, u128)> = self
            .factors
            .work
            .iter()
            .cloned()
            .chain((0..self.slots.len()).map(|k| self.slot_cap(k, f)))
            .map(|v| v.to_i128_ratio())
            .collect::<Option<_>>()?;
        let den = parts.iter().try_fold(1u128, |d, &(_, q)| lcm(d, q))?;
        let scale =
            |&(p, q): &(i128, u128)| Some(Int(p.checked_mul(i128::try_from(den / q).ok()?)?));
        let mut caps = parts[..n].iter().map(scale).collect::<Option<Vec<Int>>>()?;
        let total = caps.iter().try_fold(0i128, |acc, w| acc.checked_add(w.0))?;
        let unbounded = Int(total.checked_add(1)?);
        caps.extend(self.ship.iter().map(|_| unbounded));
        for part in &parts[n..] {
            caps.push(scale(part)?);
        }
        Some((caps, total, den))
    }
}

/// Least common multiple of two positive integers; `None` on overflow.
fn lcm(a: u128, b: u128) -> Option<u128> {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).checked_mul(b)
}

/// §4.3's last step without an LP, on an exact uniform instance: the
/// smallest `F` of the milestone range `range` (`floor` is the search's
/// floor) whose transportation network carries all the work, with a
/// schedule attaining it.
///
/// Every cut's capacity is affine in `F`, so the maximum flow is the
/// minimum of finitely many lines, concave in `F`. Newton's method on it
/// is the parametric max-flow of Gallo, Grigoriadis & Tarjan: from
/// `F₀ = lo`, a maximum flow at `F_k` leaves a minimum cut `a_k + b_k·F`,
/// and `F_{k+1} = (ΣW − a_k)/b_k` is where that cut would carry all the
/// work. The iterates rise to the optimum from below (each cut bounds the
/// flow from above), so the search stops after a few steps.
///
/// The steps run on `f64` max-flows whose cuts are priced exactly
/// ([`Transport::walk`]); an exact max-flow at the last iterate then
/// certifies it, and exact steps continue from there if it does not
/// ([`Transport::newton`]). The range is only trusted once the exact
/// flows confirm it: `None` when the flow saturates at `lo` although `lo`
/// is not the floor (the optimum lies lower), or when an iterate would
/// pass `hi` or stop advancing (it lies higher). `range` must span
/// consecutive exact milestones, so that its reference order holds on
/// all of `[lo, hi]`.
pub(crate) fn min_flow_on_range<S: Scalar>(
    inst: &Instance<S>,
    factors: &UniformFactors<S>,
    range: &MilestoneRange<S>,
    floor: &S,
) -> Option<(S, Schedule<S>)> {
    let network = Transport::for_range(inst, factors, range);
    let float_factors = factors.to_f64();
    let start = match network.mirror(&float_factors) {
        Some(mirror) => network.walk(&mirror, range)?,
        None => range.lo.clone(),
    };
    network.newton(range, floor, start)
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

    /// The milestone range that exact probes place, with the optimum of
    /// the LP route on the same instance.
    fn exact_range(
        inst: &Instance<Rat>,
        factors: &UniformFactors<Rat>,
    ) -> (MilestoneRange<Rat>, Rat) {
        use crate::maxflow::{locate_range, min_max_weighted_flow_divisible_with, ProbeMethod};
        let ms = crate::milestones::milestones(inst);
        let range = locate_range(&ms, &Rat::zero(), |f| feasible_at_uniform(inst, f, factors));
        let lp = min_max_weighted_flow_divisible_with(inst, ProbeMethod::Lp).optimum;
        (range, lp)
    }

    #[test]
    fn exact_newton_continues_from_below_the_optimum() {
        // Started at `lo`, below the optimum, the first exact flow cannot
        // saturate: only the exact continuation reaches the optimum.
        for seed in 0..6 {
            let inst = crate::maxflow::tests::campaign_shaped(seed);
            let factors = uniform_factors(&inst).unwrap();
            let (range, opt) = exact_range(&inst, &factors);
            assert!(
                range.lo < opt,
                "seed {seed}: fixture needs lo below the optimum"
            );
            let network = Transport::for_range(&inst, &factors, &range);
            let (f, sched) = network
                .newton(&range, &Rat::zero(), range.lo.clone())
                .unwrap_or_else(|| panic!("seed {seed}: the exact continuation gave up"));
            assert_eq!(f, opt, "seed {seed}");
            validate(&inst, &sched).unwrap();
            assert_eq!(sched.max_weighted_flow(&inst), opt);
        }
    }

    #[test]
    fn integer_certification_engages_on_campaign_shapes() {
        // At the optimum every capacity scales to i128, and the integer
        // flow ships exactly what the rational one does: its schedule,
        // packed over integers, equals the rational flow's, packed over
        // `Rat`, slice for slice.
        for seed in 0..6 {
            let inst = crate::maxflow::tests::campaign_shaped(seed);
            let factors = uniform_factors(&inst).unwrap();
            let (range, opt) = exact_range(&inst, &factors);
            let network = Transport::for_range(&inst, &factors, &range);
            let Some(ExactFlow::Saturated(sched)) = network.integer_flow(&opt) else {
                panic!("seed {seed}: the integer flow did not certify the optimum");
            };
            let (net, flow) = network.max_flow_at(&opt);
            assert!(network.saturated(&flow));
            let rational = network.schedule(&opt, network.shipped(&net));
            assert!(sched.n_slices() > 0, "seed {seed}");
            assert_eq!(sched.machines, rational.machines, "seed {seed}");
            validate(&inst, &sched).unwrap();
            assert_eq!(sched.max_weighted_flow(&inst), opt);
        }
    }

    #[test]
    fn a_denominator_past_i128_takes_the_rational_network() {
        // Releases on five coprime ~2^40 denominators: their product, a
        // common denominator of the capacities at the optimum, needs more
        // than 127 bits, so the certification runs over `Rat`.
        let primes: [i64; 5] = [
            1_099_511_627_791,
            1_099_511_627_803,
            1_099_511_627_831,
            1_099_511_627_873,
            1_099_511_627_891,
        ];
        let work = [3i64, 2, 4, 1, 2];
        let mut b = InstanceBuilder::<Rat>::new();
        for (j, p) in (0i64..).zip(primes) {
            b.job(Rat::from_ratio(j * p + 1, p), Rat::one());
        }
        b.machine(work.iter().map(|&w| Some(ri(w))).collect());
        b.machine(work.iter().map(|&w| Some(ri(2 * w))).collect());
        let inst = b.build().unwrap();
        let factors = uniform_factors(&inst).unwrap();
        let (range, opt) = exact_range(&inst, &factors);
        let network = Transport::for_range(&inst, &factors, &range);
        assert!(network.scaled(&opt).is_none(), "fixture must overflow i128");
        assert!(network.integer_flow(&opt).is_none());
        let (f, sched) = min_flow_on_range(&inst, &factors, &range, &Rat::zero()).unwrap();
        assert_eq!(f, opt);
        validate(&inst, &sched).unwrap();
        assert_eq!(sched.max_weighted_flow(&inst), opt);
    }

    #[test]
    fn a_slot_capacity_rounding_below_zero_is_clamped() {
        // J0 is due at F, J1 at R + F/3: they meet at F = 3R/2, the range's
        // lower end, where the slot between them has length 0. In `f64`
        // that length rounds to −2^-13, below the slack.
        let r = ri(1_000_000_000_000).add_ref(&Rat::from_ratio(1, 3));
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(r.clone(), ri(3));
        b.machine(vec![Some(r.mul_ref(&ri(2))), Some(Rat::one())]);
        let inst = b.build().unwrap();
        let factors = uniform_factors(&inst).unwrap();
        let lo = r.mul_ref(&Rat::from_ratio(3, 2));
        let range = MilestoneRange {
            reference: lo.add_ref(&Rat::one()),
            lo,
            hi: None,
            probes: 0,
        };
        let network = Transport::for_range(&inst, &factors, &range);
        let float_factors = factors.to_f64();
        let mirror = network.mirror(&float_factors).unwrap();
        let at = range.lo.to_f64();
        assert!(
            (0..mirror.slots.len()).any(|k| mirror.slots[k].cap.eval(&at).is_negative_tol()),
            "fixture must round a capacity below zero"
        );
        let (f, sched) = min_flow_on_range(&inst, &factors, &range, &Rat::zero()).unwrap();
        // A runs [0, R) and [R + 1, 2R + 1), B runs [R, R + 1).
        assert_eq!(f, r.mul_ref(&ri(2)).add_ref(&Rat::one()));
        validate(&inst, &sched).unwrap();
    }

    #[test]
    fn only_a_priced_cut_moves_the_walk() {
        // Nodes: source 0, jobs 1–2, slots 3.., sink last. The walk prices
        // a residual side only if it is a cut that no shipping edge leaves.
        let inst = uniform_inst();
        let factors = uniform_factors(&inst).unwrap();
        let range = MilestoneRange {
            lo: ri(4),
            hi: None,
            reference: ri(5),
            probes: 0,
        };
        let network = Transport::for_range(&inst, &factors, &range);
        let (n_nodes, sink) = (network.sink() + 1, network.sink());
        let side = |nodes: &[usize]| network.cut_line(|v| nodes.contains(&v));
        let source_only = side(&[0]).expect("the source alone is a cut");
        assert_eq!(source_only, AffineF::constant(ri(6)));
        let all_but_sink: Vec<usize> = (0..sink).collect();
        let slots = network
            .slots
            .iter()
            .fold(AffineF::constant(Rat::zero()), |acc, s| AffineF {
                a: acc.a.add_ref(&s.cap.a),
                b: acc.b.add_ref(&s.cap.b),
            });
        assert_eq!(side(&all_but_sink), Some(slots));
        // Holding the sink, or missing the source: no cut.
        assert_eq!(side(&(0..n_nodes).collect::<Vec<_>>()), None);
        assert_eq!(side(&[]), None);
        // J0 on the side, its slots off it: a shipping edge leaves.
        assert!(network.ship.iter().any(|&(_, j)| j == 0));
        assert_eq!(side(&[0, 1]), None);
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
