//! Problem instances: jobs, machines, and the unrelated-machine cost matrix.
//!
//! Section 3 of the paper: `n` jobs `J_1..J_n` with release dates `r_j`
//! and weights `w_j`; `m` machines; `c[i][j]` is the time for machine
//! `M_i` to process the whole of job `J_j`, possibly infinite when the
//! databank required by `J_j` is not replicated on `M_i`.

use dlflow_num::{Rat, Scalar};
use std::fmt;

/// Per-job data.
#[derive(Clone, Debug)]
pub struct Job<S> {
    /// Release date `r_j ≥ 0`.
    pub release: S,
    /// Weight `w_j > 0`. Weighted flow is `w_j · (C_j − r_j)`.
    ///
    /// Max-stretch is the special case `w_j = 1 / W_j` where `W_j` is the
    /// job size (the paper's §3 states `w_j = W_j`, a typo: with weighted
    /// flow defined as `w_j · F_j`, the stretch `F_j / W_j` needs the
    /// reciprocal).
    pub weight: S,
    /// Human-readable label (used in schedules and error messages).
    pub name: String,
}

/// Processing cost of a job on a machine.
#[derive(Clone, Debug, PartialEq)]
pub enum Cost<S> {
    /// The machine holds the databank: processing the full job takes this long.
    Finite(S),
    /// The job's databank is absent from the machine: the job cannot run there.
    Infinite,
}

impl<S: Scalar> Cost<S> {
    /// The finite value, if any.
    pub fn finite(&self) -> Option<&S> {
        match self {
            Cost::Finite(c) => Some(c),
            Cost::Infinite => None,
        }
    }

    /// `true` when the job can run on the machine.
    pub fn is_finite(&self) -> bool {
        matches!(self, Cost::Finite(_))
    }
}

/// Errors from [`Instance`] construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// The job list was empty.
    NoJobs,
    /// No machines were given.
    NoMachines,
    /// The cost matrix dimensions do not match `(machines × jobs)`.
    BadMatrixShape,
    /// A job had a negative release date.
    NegativeRelease(usize),
    /// A job had a non-positive weight.
    NonPositiveWeight(usize),
    /// A finite cost was negative.
    NegativeCost(usize, usize),
    /// A job cannot run anywhere (all costs infinite).
    Unplaceable(usize),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoJobs => write!(f, "instance has no jobs"),
            InstanceError::NoMachines => write!(f, "instance has no machines"),
            InstanceError::BadMatrixShape => write!(f, "cost matrix shape mismatch"),
            InstanceError::NegativeRelease(j) => write!(f, "job {j} has a negative release date"),
            InstanceError::NonPositiveWeight(j) => write!(f, "job {j} has a non-positive weight"),
            InstanceError::NegativeCost(i, j) => write!(f, "cost[{i}][{j}] is negative"),
            InstanceError::Unplaceable(j) => {
                write!(
                    f,
                    "job {j} has no machine with a finite cost (databank nowhere replicated)"
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A scheduling instance on unrelated machines.
#[derive(Clone, Debug)]
pub struct Instance<S> {
    jobs: Vec<Job<S>>,
    /// `cost[i][j]`: machine `i`, job `j`.
    cost: Vec<Vec<Cost<S>>>,
}

impl<S: Scalar> Instance<S> {
    /// Builds and validates an instance.
    pub fn new(jobs: Vec<Job<S>>, cost: Vec<Vec<Cost<S>>>) -> Result<Self, InstanceError> {
        if jobs.is_empty() {
            return Err(InstanceError::NoJobs);
        }
        if cost.is_empty() {
            return Err(InstanceError::NoMachines);
        }
        if cost.iter().any(|row| row.len() != jobs.len()) {
            return Err(InstanceError::BadMatrixShape);
        }
        for (j, job) in jobs.iter().enumerate() {
            if job.release < S::zero() {
                return Err(InstanceError::NegativeRelease(j));
            }
            if job.weight.partial_cmp(&S::zero()) != Some(std::cmp::Ordering::Greater) {
                return Err(InstanceError::NonPositiveWeight(j));
            }
        }
        for (i, row) in cost.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                if let Cost::Finite(v) = c {
                    if *v < S::zero() {
                        return Err(InstanceError::NegativeCost(i, j));
                    }
                }
            }
        }
        for j in 0..jobs.len() {
            if !cost.iter().any(|row| row[j].is_finite()) {
                return Err(InstanceError::Unplaceable(j));
            }
        }
        Ok(Instance { jobs, cost })
    }

    /// Decomposes the instance into its raw parts, handing the job list
    /// and cost-matrix allocations back to the caller. The eager
    /// re-solve schedulers rebuild a sub-instance at every engine event;
    /// recycling these buffers keeps that off the allocator.
    pub fn into_parts(self) -> (Vec<Job<S>>, Vec<Vec<Cost<S>>>) {
        (self.jobs, self.cost)
    }

    /// The *uniform machines with restricted availabilities* special case
    /// the GriPPS application maps onto (§3): `c[i][j] = W_j · speed_i`
    /// when `available[i][j]`, infinite otherwise.
    ///
    /// * `sizes[j]` — job size `W_j` (e.g. Mflop),
    /// * `releases[j]`, `weights[j]` — per-job release dates and weights,
    /// * `cycle_time[i]` — seconds per unit of work on machine `i`,
    /// * `available[i][j]` — whether `J_j`'s databank is on `M_i`.
    pub fn uniform_restricted(
        sizes: &[S],
        releases: &[S],
        weights: &[S],
        cycle_time: &[S],
        available: &[Vec<bool>],
    ) -> Result<Self, InstanceError> {
        let n = sizes.len();
        if releases.len() != n || weights.len() != n {
            return Err(InstanceError::BadMatrixShape);
        }
        if available.len() != cycle_time.len() || available.iter().any(|r| r.len() != n) {
            return Err(InstanceError::BadMatrixShape);
        }
        let jobs = (0..n)
            .map(|j| Job {
                release: releases[j].clone(),
                weight: weights[j].clone(),
                name: format!("J{}", j + 1),
            })
            .collect();
        let cost = available
            .iter()
            .zip(cycle_time)
            .map(|(avail, ct)| {
                (0..n)
                    .map(|j| {
                        if avail[j] {
                            Cost::Finite(sizes[j].mul(ct))
                        } else {
                            Cost::Infinite
                        }
                    })
                    .collect()
            })
            .collect();
        Instance::new(jobs, cost)
    }

    /// Replaces every weight by `1 / W_j` (computed as the reciprocal of
    /// the job's *fastest* total processing time, the natural size proxy on
    /// unrelated machines), turning max weighted flow into max stretch.
    pub fn with_stretch_weights(mut self) -> Self {
        for j in 0..self.jobs.len() {
            let best = self.fastest_cost(j);
            if best > S::zero() {
                self.jobs[j].weight = best.recip();
            }
        }
        self
    }

    /// Number of jobs `n`.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of machines `m`.
    pub fn n_machines(&self) -> usize {
        self.cost.len()
    }

    /// Job accessor.
    pub fn job(&self, j: usize) -> &Job<S> {
        &self.jobs[j]
    }

    /// All jobs.
    pub fn jobs(&self) -> &[Job<S>] {
        &self.jobs
    }

    /// Cost of job `j` on machine `i`.
    pub fn cost(&self, i: usize, j: usize) -> &Cost<S> {
        &self.cost[i][j]
    }

    /// Smallest finite cost of job `j` across machines (its fastest
    /// possible total processing time). Every valid instance has one.
    pub fn fastest_cost(&self, j: usize) -> S {
        let mut best: Option<S> = None;
        for row in &self.cost {
            if let Cost::Finite(c) = &row[j] {
                best = Some(match best {
                    None => c.clone(),
                    Some(b) => S::min_val(b, c.clone()),
                });
            }
        }
        // dlflint:allow(hot-path-panic, "Instance::validate rejects jobs with no finite cost before any scheduling runs")
        best.expect("validated instance has a finite cost per job")
    }

    /// Largest release date.
    pub fn max_release(&self) -> S {
        self.jobs
            .iter()
            .map(|j| j.release.clone())
            .reduce(S::max_val)
            .expect("non-empty")
    }

    /// Distinct release dates, sorted ascending.
    pub fn distinct_releases(&self) -> Vec<S> {
        let mut r: Vec<S> = self.jobs.iter().map(|j| j.release.clone()).collect();
        r.sort_by(|a, b| a.cmp_total(b));
        r.dedup();
        r
    }

    /// The deadline `d̄_j(F) = r_j + F / w_j` induced by a max-weighted-flow
    /// objective value `F` (§4.3.1).
    pub fn deadline(&self, j: usize, objective: &S) -> S {
        self.jobs[j]
            .release
            .add(&objective.div(&self.jobs[j].weight))
    }

    /// A trivially feasible upper bound on the optimal max weighted flow:
    /// process jobs one at a time, in release order, each wholly on its
    /// fastest machine, starting when both the job and the machine are free
    /// (single shared timeline — a gross but safe overestimate).
    pub(crate) fn naive_flow_upper_bound(&self) -> S {
        let mut order: Vec<usize> = (0..self.n_jobs()).collect();
        order.sort_by(|&a, &b| self.jobs[a].release.cmp_total(&self.jobs[b].release));
        let mut time = S::zero();
        let mut worst = S::zero();
        for j in order {
            let job = &self.jobs[j];
            let start = S::max_val(time.clone(), job.release.clone());
            let done = start.add(&self.fastest_cost(j));
            let wf = job.weight.mul(&done.sub(&job.release));
            worst = S::max_val(worst, wf);
            time = done;
        }
        worst
    }

    /// Maps the instance's scalar type (e.g. `f64` instance → exact `Rat`).
    /// See [`Instance::quantize_dyadic`] / [`Instance::to_exact`] for the
    /// round-tripping pair built on top of this.
    pub fn map_scalar<T: Scalar>(&self, f: impl Fn(&S) -> T) -> Instance<T> {
        Instance {
            jobs: self
                .jobs
                .iter()
                .map(|j| Job {
                    release: f(&j.release),
                    weight: f(&j.weight),
                    name: j.name.clone(),
                })
                .collect(),
            cost: self
                .cost
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|c| match c {
                            Cost::Finite(v) => Cost::Finite(f(v)),
                            Cost::Infinite => Cost::Infinite,
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// Rounds a non-negative `f64` to `bits` significand bits: the result is
/// `k · 2^e` with `k < 2^bits`, exactly representable in `f64` and as a
/// small dyadic rational. Non-positive values round to 0.
pub fn round_sig_bits(v: f64, bits: u32) -> f64 {
    assert!((1..=52).contains(&bits), "bits must be in 1..=52");
    if v <= 0.0 {
        return 0.0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        reason = "log2 of a finite positive f64 is in [-1074, 1024]; bits <= 52"
    )]
    let e = (v.log2().floor() as i32) - (bits as i32 - 1);
    let scale = (e as f64).exp2();
    (v / scale).round() * scale
}

impl Instance<f64> {
    /// Rounds every release, weight, and finite cost to the dyadic grid
    /// `k / denom` (clamping positive values that would round to zero up
    /// to `1/denom`). Every resulting value is exactly representable in
    /// `f64` *and* converts losslessly to a small-denominator [`Rat`], so
    /// a quantized instance can be simulated in `f64` and solved exactly
    /// with Theorem 2 — on *the same* instance. This is how campaign runs
    /// obtain an exact offline yardstick for float simulations.
    pub fn quantize_dyadic(&self, denom: i64) -> Instance<f64> {
        assert!(denom > 0, "grid denominator must be positive");
        let g = denom as f64;
        let q = |v: &f64| -> f64 {
            let k = (v * g).round();
            if *v > 0.0 && k == 0.0 {
                1.0 / g
            } else {
                k / g
            }
        };
        self.map_scalar(q)
    }

    /// Converts an (already dyadic-quantized) instance to exact rationals
    /// with denominator `denom`. Panics (in debug builds) if a value is
    /// not on the grid — call [`Instance::quantize_dyadic`] first.
    pub fn to_exact(&self, denom: i64) -> Instance<Rat> {
        assert!(denom > 0, "grid denominator must be positive");
        let g = denom as f64;
        self.map_scalar(|v| {
            let k = (v * g).round();
            debug_assert!(
                (v * g - k).abs() < 1e-9,
                "value {v} is not on the 1/{denom} grid; quantize first"
            );
            #[expect(
                clippy::cast_possible_truncation,
                reason = "k is a rounded on-grid numerator, checked by the debug_assert above"
            )]
            Rat::from_ratio(k as i64, denom)
        })
    }

    /// Rounds every value to `bits` significand bits via
    /// [`round_sig_bits`], preserving *relative* precision across
    /// magnitudes — unlike the fixed grid of
    /// [`Instance::quantize_dyadic`], a 0.03-second job and a 600-second
    /// job both keep `bits` bits. Every result is exactly representable
    /// in `f64` and converts to a [`Rat`] with a `bits`-bit numerator via
    /// [`Instance::to_exact_dyadic`], keeping the exact Theorem-2
    /// yardstick in fast inline arithmetic.
    ///
    /// Note: rounding each cost independently destroys an exact
    /// `c[i][j] = W_j·s_i` factorization; to keep the
    /// [`crate::uniform`] fast path applicable, quantize the *factors*
    /// (sizes and cycle times) with [`round_sig_bits`] before building
    /// the instance instead.
    pub fn quantize_sig_bits(&self, bits: u32) -> Instance<f64> {
        self.map_scalar(|v| round_sig_bits(*v, bits))
    }

    /// Losslessly converts each (finite, dyadic) `f64` to an exact
    /// [`Rat`]. Pair with [`Instance::quantize_sig_bits`]: conversion is
    /// always exact, but the rationals stay small (fast) only when the
    /// values carry few significand bits.
    pub fn to_exact_dyadic(&self) -> Instance<Rat> {
        self.map_scalar(|v| Rat::from_f64(*v))
    }
}

/// Convenience builder used throughout tests and examples.
pub struct InstanceBuilder<S> {
    jobs: Vec<Job<S>>,
    rows: Vec<Vec<Cost<S>>>,
}

impl<S: Scalar> InstanceBuilder<S> {
    /// Starts an empty builder.
    pub fn new() -> Self {
        InstanceBuilder {
            jobs: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a job (`release`, `weight`); returns its index.
    pub fn job(&mut self, release: S, weight: S) -> usize {
        let idx = self.jobs.len();
        self.jobs.push(Job {
            release,
            weight,
            name: format!("J{}", idx + 1),
        });
        idx
    }

    /// Adds a machine given its full cost row (`None` = infinite).
    pub fn machine(&mut self, costs: Vec<Option<S>>) -> usize {
        let row = costs
            .into_iter()
            .map(|c| c.map_or(Cost::Infinite, Cost::Finite))
            .collect();
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// Finalizes into a validated [`Instance`].
    pub fn build(self) -> Result<Instance<S>, InstanceError> {
        Instance::new(self.jobs, self.rows)
    }
}

impl<S: Scalar> Default for InstanceBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
// Test fixtures cast small, known values; the cast lints guard library code.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
mod tests {
    use super::*;
    use dlflow_num::Rat;

    fn two_job_instance() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(2.0, 2.0);
        b.machine(vec![Some(4.0), Some(2.0)]);
        b.machine(vec![Some(8.0), None]);
        b.build().unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let inst = two_job_instance();
        assert_eq!(inst.n_jobs(), 2);
        assert_eq!(inst.n_machines(), 2);
        assert_eq!(inst.cost(0, 1), &Cost::Finite(2.0));
        assert_eq!(inst.cost(1, 1), &Cost::Infinite);
        assert_eq!(inst.fastest_cost(0), 4.0);
        assert_eq!(inst.max_release(), 2.0);
        assert_eq!(inst.distinct_releases(), vec![0.0, 2.0]);
    }

    #[test]
    fn validation_errors() {
        let e = Instance::<f64>::new(vec![], vec![]).unwrap_err();
        assert_eq!(e, InstanceError::NoJobs);

        let mut b = InstanceBuilder::new();
        b.job(-1.0, 1.0);
        b.machine(vec![Some(1.0)]);
        assert_eq!(b.build().unwrap_err(), InstanceError::NegativeRelease(0));

        let mut b = InstanceBuilder::new();
        b.job(0.0, 0.0);
        b.machine(vec![Some(1.0)]);
        assert_eq!(b.build().unwrap_err(), InstanceError::NonPositiveWeight(0));

        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![None]);
        assert_eq!(b.build().unwrap_err(), InstanceError::Unplaceable(0));

        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(-2.0)]);
        assert_eq!(b.build().unwrap_err(), InstanceError::NegativeCost(0, 0));
    }

    #[test]
    fn uniform_restricted_expands_costs() {
        let inst = Instance::uniform_restricted(
            &[10.0, 20.0], // sizes
            &[0.0, 1.0],   // releases
            &[1.0, 1.0],   // weights
            &[0.5, 2.0],   // cycle times
            &[vec![true, true], vec![true, false]],
        )
        .unwrap();
        assert_eq!(inst.cost(0, 0), &Cost::Finite(5.0));
        assert_eq!(inst.cost(0, 1), &Cost::Finite(10.0));
        assert_eq!(inst.cost(1, 0), &Cost::Finite(20.0));
        assert_eq!(inst.cost(1, 1), &Cost::Infinite);
    }

    #[test]
    fn stretch_weights_are_reciprocal_fastest() {
        let inst = two_job_instance().with_stretch_weights();
        assert_eq!(inst.job(0).weight, 1.0 / 4.0);
        assert_eq!(inst.job(1).weight, 1.0 / 2.0);
    }

    #[test]
    fn deadline_formula() {
        let inst = two_job_instance();
        // d̄_2(F) = r_2 + F / w_2 = 2 + 6/2 = 5
        assert_eq!(inst.deadline(1, &6.0), 5.0);
    }

    #[test]
    fn naive_upper_bound_is_finite_and_positive() {
        let inst = two_job_instance();
        let ub = inst.naive_flow_upper_bound();
        // J1 fastest 4 at t=0 → C=4, wf = 4. J2 starts max(4,2)=4, C=6, wf=2·4=8.
        assert_eq!(ub, 8.0);
    }

    #[test]
    fn map_scalar_to_exact() {
        let inst = two_job_instance().map_scalar(|v| Rat::from_f64(*v));
        assert_eq!(inst.cost(0, 1).finite().unwrap(), &Rat::from_i64(2));
        assert_eq!(inst.job(1).release, Rat::from_i64(2));
    }

    #[test]
    fn quantize_dyadic_rounds_to_grid_and_clamps_zero() {
        let mut b = InstanceBuilder::new();
        b.job(0.1234, 1.0);
        b.machine(vec![Some(3.1)]);
        let inst = b.build().unwrap();
        let q = inst.quantize_dyadic(16);
        // 0.1234·16 = 1.9744 → 2/16; 3.1·16 = 49.6 → 50/16.
        assert_eq!(q.job(0).release, 2.0 / 16.0);
        assert_eq!(q.cost(0, 0).finite().unwrap(), &(50.0 / 16.0));

        // A tiny positive cost clamps to 1/denom instead of 0.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(1e-9)]);
        let inst = b.build().unwrap();
        let q = inst.quantize_dyadic(16);
        assert_eq!(q.cost(0, 0).finite().unwrap(), &(1.0 / 16.0));
    }

    #[test]
    fn round_sig_bits_keeps_relative_precision() {
        for v in [0.0312, 1.0, 3.7, 641.3, 1.9e6] {
            let q = round_sig_bits(v, 12);
            assert!((q - v).abs() / v < 1.0 / 2048.0, "{v} → {q}");
            // Exactly dyadic: converting to Rat and back is lossless.
            assert_eq!(Rat::from_f64(q).to_f64(), q);
            // 12 significand bits: q / 2^⌊log2 q⌋−11 is a small integer.
            let e = (q.log2().floor() as i32) - 11;
            let k = q / (e as f64).exp2();
            assert_eq!(k, k.round());
            assert!(k <= 4096.0);
        }
        assert_eq!(round_sig_bits(0.0, 12), 0.0);
        assert_eq!(round_sig_bits(-3.0, 12), 0.0);
        // Powers of two are fixed points.
        assert_eq!(round_sig_bits(0.25, 4), 0.25);
    }

    #[test]
    fn quantize_sig_bits_and_exact_dyadic_round_trip() {
        let mut b = InstanceBuilder::new();
        b.job(0.123456, 1.0);
        b.job(98.7654, 2.0);
        b.machine(vec![Some(4.2e-3), Some(0.9)]);
        b.machine(vec![Some(7.7e4), None]);
        let inst = b.build().unwrap().quantize_sig_bits(10);
        let exact = inst.to_exact_dyadic();
        for j in 0..2 {
            assert_eq!(exact.job(j).release.to_f64(), inst.job(j).release);
            for i in 0..2 {
                match (inst.cost(i, j), exact.cost(i, j)) {
                    (Cost::Finite(f), Cost::Finite(r)) => assert_eq!(r.to_f64(), *f),
                    (Cost::Infinite, Cost::Infinite) => {}
                    _ => panic!("availability changed under conversion"),
                }
            }
        }
    }

    #[test]
    fn to_exact_round_trips_quantized_values() {
        let mut b = InstanceBuilder::new();
        b.job(0.7, 2.0);
        b.job(1.3, 5.0);
        b.machine(vec![Some(4.2), Some(0.9)]);
        b.machine(vec![Some(7.7), None]);
        let inst = b.build().unwrap().quantize_dyadic(32);
        let exact = inst.to_exact(32);
        for j in 0..2 {
            assert_eq!(exact.job(j).release.to_f64(), inst.job(j).release);
            assert_eq!(exact.job(j).weight.to_f64(), inst.job(j).weight);
            for i in 0..2 {
                match (inst.cost(i, j), exact.cost(i, j)) {
                    (Cost::Finite(f), Cost::Finite(r)) => assert_eq!(r.to_f64(), *f),
                    (Cost::Infinite, Cost::Infinite) => {}
                    _ => panic!("availability changed under conversion"),
                }
            }
        }
    }
}
