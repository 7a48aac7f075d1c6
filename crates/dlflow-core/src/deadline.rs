//! Lemma 1 (§4.2): deadline scheduling as LP feasibility.
//!
//! The milestone searches probe System (2) many times per optimum, so
//! [`deadline_verdict`] settles what it can before any solver runs, from
//! two textbook certificates:
//! - **refusal**: some job is due before it could finish alone on all
//!   its machines at once, `(d_j − r_j)·Σᵢ 1/c_ij < 1`;
//! - **acceptance**: an earliest-deadline-first list schedule meets every
//!   deadline. Jobs go in deadline order, ties by index, and each takes
//!   every machine that holds it from `max(free_i, r_j)` until it is done.
//!
//! Neither needs an LP or a max-flow. Where neither applies the probe
//! still solves: OLA's milestone probe (an LP) and
//! [`crate::uniform`]'s (a max-flow) both ask the certificates first.

use crate::decompose::decompose_interval;
use crate::instance::Instance;
use crate::lp_build::{build_deadline_lp, pack_alpha_schedule};
use crate::schedule::{Schedule, ScheduleKind, Slice};
use dlflow_lp::solve;
use dlflow_num::Scalar;

/// A certificate over an inexact scalar must clear its test by
/// `MARGIN_FACTOR · tolerance · (1 + |d_j − r_j|)`: 1e-6 of the job's
/// window, and 1e-6 time units, over `f64`; zero over exact scalars.
///
/// The solvers decide with absolute slack: the simplex and the max-flow
/// accept a residual of up to the tolerance (1e-9) on each row, each
/// basic value and the flow total, and merge epochal times closer than
/// it. A System-(2) program of `n` jobs on `m` machines has at most
/// `2n·m` capacity rows: a few hundred on the largest programs the
/// product probes (the full tournament's 14 jobs on 8 machines), so
/// their slack adds up to some 1e-7. A certificate that clears its test
/// by 1000× the tolerance therefore holds for every answer the solver
/// could give, while a margin that is small against a window still
/// settles nearly every probe the exact certificates would: flipping its
/// sign moves no verdict on any trace or tournament the oracles replay.
const MARGIN_FACTOR: i64 = 1000;

/// Buffers [`deadline_verdict`] reuses from call to call.
#[derive(Clone, Debug)]
pub struct VerdictScratch<S> {
    /// Job indices in deadline order, ties by index.
    order: Vec<usize>,
    /// When each machine is next free in the list schedule.
    free: Vec<S>,
    /// The current job's machines as `(start, rate, machine)`, sorted
    /// by start.
    lanes: Vec<(S, S, usize)>,
}

impl<S> Default for VerdictScratch<S> {
    fn default() -> Self {
        VerdictScratch {
            order: Vec::new(),
            free: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

/// Settles System (2)'s feasibility for `deadlines` without a solver
/// where a certificate applies (see the [module docs](self)):
/// `Some(false)` when some job cannot finish alone on all its machines
/// inside its window (an empty window included), `Some(true)` when the
/// earliest-deadline-first list schedule meets every deadline, and `None`
/// otherwise, or when a cost is zero or an input not finite.
///
/// Exact scalars compare exactly, so `Some(v)` is the truth. Inexact ones
/// must clear each test by `1000 · tolerance · (1 + |d_j − r_j|)`, 1e-6
/// of the window over `f64`, so `Some(v)` is the verdict the LP of
/// [`deadline_feasible_divisible`] and the max-flow of [`crate::uniform`]
/// reach.
pub fn deadline_verdict<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    scratch: &mut VerdictScratch<S>,
) -> Option<bool> {
    assert_eq!(deadlines.len(), inst.n_jobs());
    let exact = S::tolerance() == S::zero();
    let finite = |v: &S| exact || v.to_f64().is_finite();
    let mu = S::tolerance().mul(&S::from_i64(MARGIN_FACTOR));
    let one = S::one();
    let margin = |window: &S| mu.mul(&one.add(&window.abs()));
    let (mut refused, mut zero_cost) = (false, false);
    for (j, (job, d)) in inst.jobs().iter().zip(deadlines).enumerate() {
        if !finite(&job.release) || !finite(d) {
            return None;
        }
        // `rate` is the job's speed on all its machines at once; a zero
        // cost makes it unbounded.
        let (mut rate, mut unbounded) = (S::zero(), false);
        for i in 0..inst.n_machines() {
            if let Some(c) = inst.cost(i, j).finite() {
                if !finite(c) {
                    return None;
                }
                if c.is_negligible() {
                    unbounded = true;
                } else {
                    rate = rate.add(&c.recip());
                }
            }
        }
        let window = d.sub(&job.release);
        refused |=
            window <= S::zero() || (!unbounded && window.add(&margin(&window)).mul(&rate) < one);
        zero_cost |= unbounded;
    }
    if refused {
        return Some(false);
    }
    if zero_cost {
        return None;
    }
    edf_meets_deadlines(inst, deadlines, scratch, margin).then_some(true)
}

/// The acceptance certificate: runs the earliest-deadline-first list
/// schedule and reports whether every job finishes by its deadline less
/// `margin(window)`.
fn edf_meets_deadlines<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
    scratch: &mut VerdictScratch<S>,
    margin: impl Fn(&S) -> S,
) -> bool {
    let VerdictScratch { order, free, lanes } = scratch;
    order.clear();
    order.extend(0..inst.n_jobs());
    order.sort_unstable_by(|&a, &b| deadlines[a].cmp_total(&deadlines[b]).then(a.cmp(&b)));
    free.clear();
    free.resize(inst.n_machines(), S::zero());
    for &j in order.iter() {
        let release = &inst.job(j).release;
        lanes.clear();
        for (i, at) in free.iter().enumerate() {
            if let Some(c) = inst.cost(i, j).finite() {
                lanes.push((S::max_val(at.clone(), release.clone()), c.recip(), i));
            }
        }
        lanes.sort_by(|a, b| a.0.cmp_total(&b.0));
        let Some(first) = lanes.first() else {
            return false;
        };
        // Water-fill: from each lane's start the job gains its rate; it
        // is done when the work adds up to 1.
        let (mut done, mut rate, mut used) = (S::zero(), S::zero(), 0);
        let mut at = first.0.clone();
        let finish = loop {
            while lanes.get(used).is_some_and(|l| l.0 <= at) {
                rate = rate.add(&lanes[used].1);
                used += 1;
            }
            let end = at.add(&S::one().sub(&done).div(&rate));
            match lanes.get(used) {
                Some(next) if next.0 < end => {
                    done = done.add(&rate.mul(&next.0.sub(&at)));
                    at = next.0.clone();
                }
                _ => break end,
            }
        };
        let d = &deadlines[j];
        if finish > d.sub(&margin(&d.sub(release))) {
            return false;
        }
        for &(_, _, i) in &lanes[..used] {
            free[i] = finish.clone();
        }
    }
    true
}

/// Is there a **divisible** schedule meeting every `[r_j, d̄_j]` window?
/// Returns an achieving schedule when feasible (Lemma 1: System (2) has a
/// solution iff such a schedule exists, and packing fractions in any order
/// inside each interval realizes it).
pub fn deadline_feasible_divisible<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
) -> Option<Schedule<S>> {
    let built = build_deadline_lp(inst, deadlines, false);
    let sol = solve(&built.lp);
    if !sol.is_optimal() {
        return None;
    }
    let bounds: Vec<(S, S)> = (0..built.intervals.n_intervals())
        .map(|t| {
            (
                built.intervals.inf(t).clone(),
                built.intervals.sup(t).clone(),
            )
        })
        .collect();
    Some(pack_alpha_schedule(
        inst,
        &bounds,
        &built.alpha,
        &sol.values,
    ))
}

/// Is there a **preemptive** (non-divisible) schedule meeting every window?
/// Uses System (5) restricted to a concrete objective (System (2) plus the
/// per-job-per-interval bound (5b)), then rebuilds an explicit schedule
/// with the Lawler–Labetoulle decomposition applied interval by interval.
pub fn deadline_feasible_preemptive<S: Scalar>(
    inst: &Instance<S>,
    deadlines: &[S],
) -> Option<Schedule<S>> {
    let built = build_deadline_lp(inst, deadlines, true);
    let sol = solve(&built.lp);
    if !sol.is_optimal() {
        return None;
    }

    let n_int = built.intervals.n_intervals();
    let mut sched = Schedule::empty(inst.n_machines(), ScheduleKind::Preemptive);
    for t in 0..n_int {
        // Work matrix for this interval: time job j spends on machine i.
        let mut work = vec![vec![S::zero(); inst.n_jobs()]; inst.n_machines()];
        for (tt, i, j, v) in &built.alpha {
            if *tt == t {
                let frac = sol.value(*v);
                if frac.is_positive_tol() {
                    let c = inst
                        .cost(*i, *j)
                        .finite()
                        .expect("alpha implies finite cost");
                    work[*i][*j] = work[*i][*j].add(&frac.mul(c));
                }
            }
        }
        let len = built.intervals.len(t);
        let phases = decompose_interval(&work, &len);
        // Emit phases back to back from the interval start.
        let mut clock = built.intervals.inf(t).clone();
        for phase in phases {
            let end = clock.add(&phase.duration);
            for (i, j) in phase.assignment {
                sched.push(
                    i,
                    Slice {
                        job: j,
                        start: clock.clone(),
                        end: end.clone(),
                    },
                );
            }
            clock = end;
        }
    }
    sched.normalize();
    Some(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::validate::validate;
    use dlflow_num::Rat;

    fn two_machine_inst() -> Instance<Rat> {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one()); // c = 2 on each
        b.machine(vec![Some(Rat::from_i64(2))]);
        b.machine(vec![Some(Rat::from_i64(2))]);
        b.build().unwrap()
    }

    #[test]
    fn divisible_splits_across_machines() {
        let inst = two_machine_inst();
        // Divisible: half on each machine finishes at t = 1.
        let s = deadline_feasible_divisible(&inst, &[Rat::one()]).expect("feasible");
        validate(&inst, &s).unwrap();
        assert!(s.makespan() <= Rat::one());
    }

    #[test]
    fn preemptive_cannot_split_simultaneously() {
        let inst = two_machine_inst();
        // Preemptive: the job needs 2 wall-clock units; deadline 1 impossible.
        assert!(deadline_feasible_preemptive(&inst, &[Rat::one()]).is_none());
        // Deadline 2 is achievable (run on one machine).
        let s = deadline_feasible_preemptive(&inst, &[Rat::from_i64(2)]).expect("feasible");
        validate(&inst, &s).unwrap();
    }

    #[test]
    fn infeasible_when_deadline_before_release() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::from_i64(5), Rat::one());
        b.machine(vec![Some(Rat::one())]);
        let inst = b.build().unwrap();
        assert!(deadline_feasible_divisible(&inst, &[Rat::from_i64(4)]).is_none());
    }

    #[test]
    fn tight_deadline_exactly_met() {
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::from_i64(2)), Some(Rat::from_i64(2))]);
        let inst = b.build().unwrap();
        // One machine, 4 units of work, deadlines at exactly 4.
        let d = vec![Rat::from_i64(4), Rat::from_i64(4)];
        let s = deadline_feasible_divisible(&inst, &d).expect("feasible");
        validate(&inst, &s).unwrap();
        assert_eq!(s.makespan(), Rat::from_i64(4));
        // At 3 it is impossible.
        let d = vec![Rat::from_i64(3), Rat::from_i64(3)];
        assert!(deadline_feasible_divisible(&inst, &d).is_none());
    }

    #[test]
    fn preemptive_schedule_migrates_between_machines() {
        // Two jobs, two machines, tight symmetric deadlines force sharing.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one()); // c: 2 on M0, 6 on M1
        b.job(Rat::zero(), Rat::one()); // c: 6 on M0, 2 on M1
        b.machine(vec![Some(Rat::from_i64(2)), Some(Rat::from_i64(6))]);
        b.machine(vec![Some(Rat::from_i64(6)), Some(Rat::from_i64(2))]);
        let inst = b.build().unwrap();
        let d = vec![Rat::from_i64(2), Rat::from_i64(2)];
        let s = deadline_feasible_preemptive(&inst, &d).expect("feasible");
        validate(&inst, &s).unwrap();
        let c = s.completion_times(2);
        assert!(c[0].clone().unwrap() <= Rat::from_i64(2));
        assert!(c[1].clone().unwrap() <= Rat::from_i64(2));
    }

    #[test]
    fn verdicts_of_the_tight_two_job_instance() {
        // Two jobs of 2 units on one machine, released at 0: EDF ends them
        // at 2 and 4. At deadlines 4 the second finishes on its deadline
        // (accepted exactly over Rat, left to the LP over f64); at 3 each
        // could finish alone but EDF misses, so no certificate applies;
        // at 1 neither could finish alone.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::zero(), Rat::one());
        b.machine(vec![Some(Rat::from_i64(2)), Some(Rat::from_i64(2))]);
        let inst = b.build().unwrap();
        let float = inst.map_scalar(Rat::to_f64);
        let mut scratch = VerdictScratch::default();
        for (d, exact, inexact) in [
            (4, Some(true), None),
            (5, Some(true), Some(true)),
            (3, None, None),
            (2, None, None),
            (1, Some(false), Some(false)),
            (0, Some(false), Some(false)),
        ] {
            let at = vec![Rat::from_i64(d); 2];
            assert_eq!(
                deadline_verdict(&inst, &at, &mut scratch),
                exact,
                "Rat at {d}"
            );
            let at = vec![d as f64; 2];
            let mut s = VerdictScratch::default();
            assert_eq!(deadline_verdict(&float, &at, &mut s), inexact, "f64 at {d}");
        }
    }

    #[test]
    fn list_schedule_waits_for_releases() {
        // One machine; job 0 takes 2 from release 0, job 1 takes 1 from
        // release 3. Due at 2 and 4, EDF runs [0, 2] then [3, 4]; due at 6
        // and 4, job 1 on [3, 4] then job 0 on [4, 6]: both accepted. Due
        // at 5 and 4, job 0 ends at 6, late, although [0, 2] then [3, 4]
        // is feasible: no verdict. Due at 2 and 3, job 1's window is empty.
        let mut b = InstanceBuilder::<Rat>::new();
        b.job(Rat::zero(), Rat::one());
        b.job(Rat::from_i64(3), Rat::one());
        b.machine(vec![Some(Rat::from_i64(2)), Some(Rat::one())]);
        let inst = b.build().unwrap();
        let mut scratch = VerdictScratch::default();
        let at = |a, b| vec![Rat::from_i64(a), Rat::from_i64(b)];
        assert_eq!(deadline_verdict(&inst, &at(2, 4), &mut scratch), Some(true));
        assert_eq!(deadline_verdict(&inst, &at(6, 4), &mut scratch), Some(true));
        assert_eq!(
            deadline_verdict(&inst, &at(2, 3), &mut scratch),
            Some(false)
        );
        assert!(deadline_feasible_divisible(&inst, &at(5, 4)).is_some());
        assert_eq!(deadline_verdict(&inst, &at(5, 4), &mut scratch), None);
    }

    #[test]
    fn zero_costs_and_non_finite_inputs_give_no_verdict() {
        let mut b = InstanceBuilder::<f64>::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(0.0), Some(2.0)]);
        let inst = b.build().unwrap();
        let mut scratch = VerdictScratch::default();
        assert_eq!(deadline_verdict(&inst, &[5.0, 9.0], &mut scratch), None);
        // An empty window is refused whatever the costs.
        assert_eq!(
            deadline_verdict(&inst, &[0.0, 9.0], &mut scratch),
            Some(false)
        );
        let mut b = InstanceBuilder::<f64>::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0)]);
        let inst = b.build().unwrap();
        for d in [f64::NAN, f64::INFINITY] {
            assert_eq!(deadline_verdict(&inst, &[d], &mut scratch), None, "{d}");
        }
        assert_eq!(deadline_verdict(&inst, &[3.0], &mut scratch), Some(true));
        let mut b = InstanceBuilder::<f64>::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(f64::NAN)]);
        let inst = b.build().unwrap();
        assert_eq!(deadline_verdict(&inst, &[3.0], &mut scratch), None);
    }

    /// Words of a proptest case, drawn in turn (cycling).
    struct Draw<'a> {
        words: &'a [u64],
        at: usize,
    }

    impl Draw<'_> {
        fn word(&mut self) -> u64 {
            let w = self.words[self.at % self.words.len()];
            self.at += 1;
            w
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.word() % n as u64).unwrap()
        }

        fn pick(&mut self, xs: &[f64]) -> f64 {
            xs[self.below(xs.len())]
        }
    }

    /// Costs and weights across the `f64` range: 1e-300 to 1e300, two
    /// subnormals and zero.
    const EXTREMES: [f64; 7] = [0.0, 5e-324, 2.2e-310, 1e-300, 1e-150, 1e150, 1e300];

    /// A random instance of up to 4 jobs on up to 3 machines at one time
    /// scale (`1e-300` to `1e300`), with restricted availability, spread
    /// or tied releases, and now and then a cost from [`EXTREMES`]. Costs
    /// and releases are small multiples of the scale, so the instance is
    /// exact in `f64`.
    fn random_instance(draw: &mut Draw<'_>) -> Instance<f64> {
        let scale = draw.pick(&[1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300]);
        let (n, m) = (1 + draw.below(4), 1 + draw.below(3));
        let tied = draw.below(2) == 0;
        let mut b = InstanceBuilder::new();
        for _ in 0..n {
            let release = if tied {
                0.0
            } else {
                scale * (draw.below(8) as f64) / 4.0
            };
            let weight = draw.pick(&[1e-300, 1e-3, 1.0, 1e3, 1e300]);
            b.job(release, weight);
        }
        let holds: Vec<usize> = (0..n).map(|_| draw.below(m)).collect();
        for i in 0..m {
            b.machine(
                (0..n)
                    .map(|j| {
                        (holds[j] == i || draw.below(3) > 0).then(|| {
                            if draw.below(8) == 0 {
                                draw.pick(&EXTREMES)
                            } else {
                                scale * (2 + draw.below(15)) as f64 / 4.0
                            }
                        })
                    })
                    .collect(),
            );
        }
        b.build().unwrap()
    }

    /// `job`'s completion when it takes every machine that holds it
    /// from `starts[i]` (`None` where it is absent): the smallest `C`
    /// with `Σᵢ (C − sᵢ)⁺ / c_ij = 1`, by trying each count of machines
    /// in start order.
    fn completion<S: Scalar>(inst: &Instance<S>, job: usize, starts: &[Option<S>]) -> S {
        let mut lanes: Vec<(S, S)> = starts
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((s.clone()?, inst.cost(i, job).finite()?.clone())))
            .collect();
        lanes.sort_by(|a, b| a.0.cmp_total(&b.0));
        let (mut rate, mut weighted) = (S::zero(), S::zero());
        for (k, (s, c)) in lanes.iter().enumerate() {
            rate = rate.add(&c.recip());
            weighted = weighted.add(&s.div(c));
            let finish = S::one().add(&weighted).div(&rate);
            if lanes.get(k + 1).is_none_or(|next| finish <= next.0) {
                return finish;
            }
        }
        unreachable!("the last count of machines always finishes")
    }

    /// The completions of the list schedule that runs the jobs in `order`,
    /// each on every machine that holds it from `max(free_i, r_j)`.
    fn list_completions<S: Scalar>(inst: &Instance<S>, order: &[usize]) -> Vec<S> {
        let mut free = vec![S::zero(); inst.n_machines()];
        let mut done = vec![S::zero(); inst.n_jobs()];
        for &j in order {
            let release = &inst.job(j).release;
            let starts: Vec<Option<S>> = free
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    inst.cost(i, j)
                        .is_finite()
                        .then(|| S::max_val(f.clone(), release.clone()))
                })
                .collect();
            done[j] = completion(inst, j, &starts);
            for (i, s) in starts.iter().enumerate() {
                if s.as_ref().is_some_and(|s| *s < done[j]) {
                    free[i] = done[j].clone();
                }
            }
        }
        done
    }

    /// Deadlines near the tests' boundaries: per job, its completion
    /// alone on all its machines, or in the list schedule by index, or
    /// `r_j + F/w_j`, each moved by a relative step from exactly zero to
    /// far beyond the `f64` margin.
    fn random_deadlines(draw: &mut Draw<'_>, inst: &Instance<f64>) -> Vec<f64> {
        let order: Vec<usize> = (0..inst.n_jobs()).collect();
        let listed = list_completions(inst, &order);
        let f = draw.pick(&[1e-300, 1e-5, 1.0, 1e5, 1e300]);
        (0..inst.n_jobs())
            .map(|j| {
                let r = inst.job(j).release;
                let alone = (0..inst.n_machines())
                    .map(|i| Some(r).filter(|_| inst.cost(i, j).is_finite()))
                    .collect::<Vec<_>>();
                let anchor = match draw.below(3) {
                    0 => completion(inst, j, &alone),
                    1 => listed[j],
                    _ => inst.deadline(j, &f),
                };
                let step =
                    draw.pick(&[0.0, 1e-12, -1e-12, 1e-7, -1e-7, 1e-4, -1e-4, 0.5, -0.5, 3.0]);
                // Zero and subnormal costs can send an anchor off the
                // finite range; such a job gets a plain deadline.
                Some(r + (anchor - r) * (1.0 + step))
                    .filter(|d| d.is_finite())
                    .unwrap_or(r + 1.0)
            })
            .collect()
    }

    fn exact(v: &f64) -> Rat {
        Rat::from_f64(*v)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Whenever a certificate settles a random probe, System (2)'s LP
        /// agrees: exactly over `Rat`, and over `f64` both the exact LP
        /// (the truth) and the `f64` one (what the milestone searches
        /// would have solved) reach the verdict. Deadlines sit on and
        /// around the two tests' boundaries.
        #[test]
        fn certificates_agree_with_the_lp(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 48),
        ) {
            let mut draw = Draw { words: &words, at: 0 };
            let inst = random_instance(&mut draw);
            let d = random_deadlines(&mut draw, &inst);
            let (exact_inst, exact_d) = (inst.map_scalar(exact), d.iter().map(exact).collect::<Vec<_>>());
            let truth = deadline_feasible_divisible(&exact_inst, &exact_d).is_some();
            if let Some(v) = deadline_verdict(&exact_inst, &exact_d, &mut VerdictScratch::default()) {
                proptest::prop_assert_eq!(v, truth, "Rat verdict on {:?} at {:?}", inst, d);
            }
            if let Some(v) = deadline_verdict(&inst, &d, &mut VerdictScratch::default()) {
                proptest::prop_assert_eq!(v, truth, "f64 verdict on {:?} at {:?}", inst, d);
                let float = deadline_feasible_divisible(&inst, &d).is_some();
                proptest::prop_assert_eq!(v, float, "f64 LP on {:?} at {:?}", inst, d);
            }
        }

        /// Deadlines at the list schedule's own completions, in the order
        /// those completions keep, are met exactly: over `Rat` the
        /// acceptance test passes a job that finishes on its deadline.
        /// Over `f64` it passes them with room to spare.
        #[test]
        fn list_schedule_deadlines_are_accepted(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 48),
        ) {
            let mut draw = Draw { words: &words, at: 0 };
            let inst = random_instance(&mut draw).map_scalar(exact);
            let n = inst.n_jobs();
            if (0..n).any(|j| (0..inst.n_machines()).any(|i| inst.cost(i, j).finite().is_some_and(Rat::is_zero))) {
                return Ok(());
            }
            let mut order: Vec<usize> = (0..n).collect();
            for _ in 0..3 {
                let done = list_completions(&inst, &order);
                let mut by_done = order.clone();
                by_done.sort_by(|&a, &b| done[a].cmp(&done[b]).then(a.cmp(&b)));
                if by_done == order {
                    let verdict = deadline_verdict(&inst, &done, &mut VerdictScratch::default());
                    proptest::prop_assert_eq!(verdict, Some(true), "{:?} at {:?}", inst, done);
                    // Over f64, every deadline gets the same room, and the
                    // check runs where rounding keeps the jobs' order.
                    let room = 1e-4 * (0..n).map(|j| done[j].sub(&inst.job(j).release).to_f64()).fold(1.0, f64::max);
                    let loose: Vec<f64> = done.iter().map(|c| c.to_f64() + room).collect();
                    let float = inst.map_scalar(Rat::to_f64);
                    let kept = order.windows(2).all(|w| loose[w[0]] < loose[w[1]]);
                    if kept && loose.iter().all(|v| v.is_finite()) && (0..n).all(|j| (0..inst.n_machines()).all(|i| inst.cost(i, j).finite().is_none_or(|c| c.to_f64() > 1e-9))) {
                        let verdict = deadline_verdict(&float, &loose, &mut VerdictScratch::default());
                        proptest::prop_assert_eq!(verdict, Some(true), "{:?} at {:?}", float, loose);
                    }
                    break;
                }
                order = by_done;
            }
        }
    }
}
