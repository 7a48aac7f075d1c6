//! Classical preemptive list heuristics (non-divisible: a job runs on at
//! most one machine at a time, but may be migrated or interrupted at any
//! event).

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler};

/// Recycled ranking buffers for [`assign_by_priority`]: job order,
/// priorities, and the machine occupancy mask. Each list policy owns one
/// so the per-event path allocates nothing once capacities warm up.
#[derive(Debug, Default)]
pub(crate) struct RankScratch {
    order: Vec<u32>,
    keys: Vec<u128>,
    free: Vec<bool>,
}

/// One sortable word per job: high 64 bits order by *descending*
/// priority under IEEE 754 `totalOrder` (exactly [`f64::total_cmp`]),
/// low 64 bits break exact-bit priority ties by ascending job id. A
/// single integer compare per sort comparison replaces two
/// bounds-checked float loads plus `total_cmp` plus an id compare —
/// this is the hottest comparison in the simulator.
#[inline]
fn rank_key(priority: f64, id: usize) -> u128 {
    let b = priority.to_bits();
    // Ascending totalOrder key: flip all bits of negatives, just the
    // sign bit of non-negatives.
    let asc = b ^ ((((b as i64) >> 63) as u64) | (1 << 63));
    // Descending = complement.
    ((!asc as u128) << 64) | id as u128
}

/// Assigns jobs (in the order produced by `priority`, *descending*) to
/// their fastest still-free **live** machine ([`ActiveSet::up`]), written
/// into `alloc`. Shared by every list heuristic in this module and by
/// [`crate::schedulers::edf::Edf`].
pub(crate) fn assign_by_priority(
    scratch: &mut RankScratch,
    active: &ActiveSet<'_>,
    alloc: &mut Allocation,
    mut priority: impl FnMut(JobView<'_>) -> f64,
) {
    let n_machines = alloc.n_machines();
    let n = active.len();
    if n == 0 {
        return;
    }

    // Seed the occupancy mask with the platform mask, counting the live
    // machines in the same pass: a dead machine is just a machine that
    // is never free. Every assignment then retires one machine, so once
    // `free_left` hits zero the remaining (lower-priority) jobs cannot be
    // served this plan — they are never visited at all.
    scratch.free.clear();
    let mut free_left = 0;
    scratch.free.extend(active.up().iter().map(|&ok| {
        free_left += usize::from(ok);
        ok
    }));

    // Tries to hand `job` its fastest still-free machine; returns
    // whether a machine was taken. Infinite and NaN costs lose every
    // `<` against the running best, so unavailable machines need no
    // separate check; strict `<` keeps the lowest index on cost ties.
    let mut try_assign = |k: usize, free: &mut [bool], free_left: &mut usize| -> bool {
        let job = active.get(k);
        let row = job.costs();
        let mut best = f64::INFINITY;
        let mut at = usize::MAX;
        for (i, (&f, &c)) in free.iter().zip(row).enumerate() {
            if f && c < best {
                best = c;
                at = i;
            }
        }
        if at != usize::MAX {
            free[at] = false;
            *free_left -= 1;
            alloc.set(at, job.id, 1.0);
            true
        } else {
            false
        }
    };

    if n == 1 {
        // One job: every priority ranks it first — skip ranking
        // entirely. This is the common case inside small shards.
        try_assign(0, &mut scratch.free, &mut free_left);
        return;
    }

    scratch.order.clear();
    scratch.keys.clear();
    for k in 0..n {
        let job = active.get(k);
        scratch.order.push(k as u32);
        scratch.keys.push(rank_key(priority(job), job.id));
    }
    let keys = &mut scratch.keys;
    let order = &mut scratch.order;

    // Keys are distinct (the low bits hold the unique job id), so the
    // descending-priority traversal is unique — how it is produced
    // cannot change the outcome, only its cost. Two regimes:
    //
    // * more jobs than machines: at most `free_left` jobs (plus any
    //   that fit nowhere) are ever visited, so *lazily* extract
    //   successive minima from an unsorted pool — O(visited · n) —
    //   instead of ordering all n. A saturated shard plans in O(n).
    // * otherwise: a branch-lean insertion sort of the whole set (n is
    //   small; the standard sort's dispatch overhead dominates it).
    if n > 2 * n_machines {
        while free_left > 0 && !order.is_empty() {
            let mut at = 0;
            let mut min_key = keys[order[0] as usize];
            for (j, &x) in order.iter().enumerate().skip(1) {
                let kx = keys[x as usize];
                if kx < min_key {
                    min_key = kx;
                    at = j;
                }
            }
            let k = order.swap_remove(at);
            try_assign(k as usize, &mut scratch.free, &mut free_left);
        }
    } else {
        for i in 1..n {
            let oi = order[i];
            let ki = keys[oi as usize];
            let mut j = i;
            while j > 0 && keys[order[j - 1] as usize] > ki {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = oi;
        }
        for &k in order.iter() {
            if free_left == 0 {
                break;
            }
            try_assign(k as usize, &mut scratch.free, &mut free_left);
        }
    }
}

/// Shortest Remaining Processing Time first (remaining work measured on
/// the job's fastest machine).
#[derive(Default)]
pub struct Srpt {
    scratch: RankScratch,
}

impl Srpt {
    /// Fresh policy.
    pub fn new() -> Self {
        Srpt::default()
    }
}

impl OnlineScheduler for Srpt {
    fn name(&self) -> String {
        "SRPT".into()
    }
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: every `plan` re-ranks the active set from scratch.
    }
    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }
    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        assign_by_priority(&mut self.scratch, active, alloc, |a| {
            -(a.remaining * a.fastest_cost())
        })
    }
}

/// Largest *weighted age* first: prioritizes the job whose weighted flow
/// is currently largest (`w_j · (now − r_j)`), an online greedy proxy for
/// the max-weighted-flow objective.
#[derive(Default)]
pub struct WeightedAge {
    scratch: RankScratch,
}

impl WeightedAge {
    /// Fresh policy.
    pub fn new() -> Self {
        WeightedAge::default()
    }
}

impl OnlineScheduler for WeightedAge {
    fn name(&self) -> String {
        "WeightedAge".into()
    }
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: ages are recomputed from `now` and releases in `plan`.
    }
    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }
    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        assign_by_priority(&mut self.scratch, active, alloc, |a| {
            // Weighted flow the job would reach if it finished right now,
            // plus its remaining fastest time (a lookahead tie-breaker).
            a.weight * (now - a.release + a.remaining * a.fastest_cost())
        })
    }
}

/// Shortest *Weighted* Remaining Processing Time first (SWRPT): the
/// classical SRPT rule with the remaining time divided by the job's
/// weight, so urgent (heavy) jobs jump the queue proportionally to their
/// priority. On stretch-weighted instances (`w_j = 1/p_j`) this orders
/// jobs by `remaining · p_j²`-style urgency — the standard online
/// max-stretch heuristic the paper's comparison set includes.
#[derive(Default)]
pub struct Swrpt {
    scratch: RankScratch,
}

impl Swrpt {
    /// Fresh policy.
    pub fn new() -> Self {
        Swrpt::default()
    }
}

impl OnlineScheduler for Swrpt {
    fn name(&self) -> String {
        "SWRPT".into()
    }
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: every `plan` re-ranks the active set from scratch.
    }
    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }
    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        assign_by_priority(&mut self.scratch, active, alloc, |a| {
            -(a.remaining * a.fastest_cost()) / a.weight.max(1e-12)
        })
    }
}

/// First-in-first-out: earliest release first, fastest free machine.
#[derive(Default)]
pub struct FifoFastest {
    scratch: RankScratch,
}

impl FifoFastest {
    /// Fresh policy.
    pub fn new() -> Self {
        FifoFastest::default()
    }
}

impl OnlineScheduler for FifoFastest {
    fn name(&self) -> String {
        "FIFO".into()
    }
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: release order is read off `active` in `plan`.
    }
    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }
    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        assign_by_priority(&mut self.scratch, active, alloc, |a| -a.release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use dlflow_core::instance::{Instance, InstanceBuilder};

    fn two_jobs_one_machine() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // long: 10
        b.job(1.0, 1.0); // short: 2
        b.machine(vec![Some(10.0), Some(2.0)]);
        b.build().unwrap()
    }

    #[test]
    fn srpt_preempts_for_short_job() {
        let inst = two_jobs_one_machine();
        let res = simulate(&inst, &mut Srpt::new()).unwrap();
        // At t=1 the short job (2) preempts the long one (9 remaining).
        assert!((res.completions[1] - 3.0).abs() < 1e-6);
        assert!((res.completions[0] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_does_not_preempt_for_later_arrival() {
        let inst = two_jobs_one_machine();
        let res = simulate(&inst, &mut FifoFastest::new()).unwrap();
        assert!((res.completions[0] - 10.0).abs() < 1e-6);
        assert!((res.completions[1] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_age_favours_heavy_jobs() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // light
        b.job(0.0, 100.0); // heavy
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut WeightedAge::new()).unwrap();
        // Heavy job must be served first.
        assert!(res.completions[1] < res.completions[0]);
    }

    #[test]
    fn swrpt_prefers_heavy_jobs_at_equal_remaining() {
        // Same size and release, different weights: the heavy job runs
        // first because its weighted remaining time is smaller.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 5.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Swrpt::new()).unwrap();
        assert!(res.completions[1] < res.completions[0]);
    }

    #[test]
    fn swrpt_matches_srpt_on_unit_weights() {
        let inst = two_jobs_one_machine();
        let a = simulate(&inst, &mut Swrpt::new()).unwrap();
        let b = simulate(&inst, &mut Srpt::new()).unwrap();
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn jobs_never_run_on_two_machines() {
        // assign_by_priority gives each job at most one machine per plan;
        // verify via a two-machine instance where splitting would help.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(4.0)]);
        b.machine(vec![Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Srpt::new()).unwrap();
        // Non-divisible: 4, not the divisible 2.
        assert!((res.completions[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn all_policies_complete_on_restricted_platform() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.5, 2.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(2.0), None, Some(3.0)]);
        b.machine(vec![None, Some(1.5), Some(6.0)]);
        let inst = b.build().unwrap();
        for policy in [
            &mut Srpt::new() as &mut dyn OnlineScheduler,
            &mut WeightedAge::new(),
            &mut FifoFastest::new(),
        ] {
            let res = simulate(&inst, policy).unwrap();
            assert!(res.completions.iter().all(|c| c.is_finite()));
        }
    }
}

/// Equal-share processor sharing ("round robin" in the fluid limit):
/// every machine divides its capacity equally among the active jobs it
/// can serve — the classical fairness baseline.
#[derive(Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Fresh policy.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl OnlineScheduler for RoundRobin {
    fn name(&self) -> String {
        "RoundRobin".into()
    }
    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: eligibility is recomputed per machine in `plan`.
    }
    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }
    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }
    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        for (i, &up) in active.up().iter().enumerate() {
            if !up {
                continue; // down machine: no shares until it recovers
            }
            // Two passes (count, then set) keep the per-event path free of
            // per-machine buffer allocations.
            let n_eligible = active.iter().filter(|a| a.cost(i).is_some()).count();
            if n_eligible == 0 {
                continue;
            }
            let share = 1.0 / n_eligible as f64;
            for a in active.iter().filter(|a| a.cost(i).is_some()) {
                alloc.set(i, a.id, share);
            }
        }
    }
}

#[cfg(test)]
mod round_robin_tests {
    use super::*;
    use crate::engine::simulate;
    use dlflow_core::instance::InstanceBuilder;

    #[test]
    fn equal_shares_on_one_machine() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut RoundRobin::new()).unwrap();
        // Both progress at rate 1/4 until one finishes; identical jobs
        // finish together at t = 4 (processor sharing).
        assert!((res.completions[0] - 4.0).abs() < 1e-6);
        assert!((res.completions[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn round_robin_completes_restricted_instances() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 2.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![Some(3.0), Some(1.5)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut RoundRobin::new()).unwrap();
        assert!(res.completions.iter().all(|c| c.is_finite()));
    }
}
