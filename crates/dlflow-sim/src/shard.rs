//! Multi-cluster sharding: a front-end over independent sub-engines.
//!
//! The GriPPS deployment the paper studies is not one flat machine pool:
//! requests hit a *federation* of clusters, and a request served by one
//! cluster never migrates to another. [`ShardedEngine`] models exactly
//! that — it partitions the platform's machines into `n_shards`
//! **contiguous** ranges, runs one flattened [`Engine`] per range, and
//! pins every arriving job to a single shard at admission time:
//!
//! * **assignment policy**: a job goes to the shard holding its fastest
//!   (minimum finite-cost) machine; ties resolve to the lowest shard
//!   index. Deterministic, so serial and parallel drains see identical
//!   per-shard workloads;
//! * **independence**: once pinned, a job interacts only with its
//!   shard's machines, scheduler instance, and clock. Shards therefore
//!   drain with *no* synchronization: the rayon `par_iter_mut` shim
//!   runs them on up to one thread per core, heaviest shard first (inline
//!   on a single-core host), and the results are bit-identical however
//!   the threads interleave;
//! * **deterministic merge**: completion streams are merged by a stable
//!   k-way walk ordered on completion time, cross-shard ties broken by
//!   the lower shard index; metrics fold through
//!   [`MetricsAccumulator`]'s field-wise merge in fixed shard order;
//!   event/plan counters sum. Every reported number is a pure function
//!   of the trace and the shard count, never of thread scheduling.
//!
//! With `n_shards == 1` the front-end is a transparent wrapper: the
//! assignment policy has one choice, the merge is the identity, and the
//! run is bit-identical to driving the inner [`Engine`] directly (the
//! differential suite in `tests/prop_shard.rs` pins this down).

use crate::engine::{
    check_job, utilization_of, CompletedJob, Engine, JobSpec, MetricsAccumulator, OnlineScheduler,
    PlatformEvent, RunMetrics, SimError,
};
use crate::workload::{stream_arrivals, ReplayStats, Trace};
use rayon::prelude::*;
use std::cmp::Reverse;

/// A multi-cluster simulation front-end: contiguous machine shards, each
/// an independent [`Engine`], behind a deterministic job-assignment
/// policy. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedEngine {
    n_machines: usize,
    /// Shard boundaries: shard `s` owns machines
    /// `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    shards: Vec<Engine>,
    /// Per shard: local job id → global job id, in local-id order.
    global_of: Vec<Vec<usize>>,
    next_id: usize,
}

impl ShardedEngine {
    /// A fresh front-end over `n_machines` machines split into
    /// `n_shards` contiguous near-equal ranges (the first
    /// `n_machines % n_shards` shards hold one extra machine). A shard
    /// count above the machine count is clamped — every shard must own
    /// at least one machine.
    ///
    /// # Panics
    ///
    /// If `n_machines` or `n_shards` is zero.
    pub fn new(n_machines: usize, n_shards: usize) -> ShardedEngine {
        assert!(n_machines > 0, "sharded engine needs at least one machine");
        assert!(n_shards > 0, "sharded engine needs at least one shard");
        let k = n_shards.min(n_machines);
        let base = n_machines / k;
        let extra = n_machines % k;
        let mut starts = Vec::with_capacity(k + 1);
        let mut at = 0usize;
        starts.push(at);
        for s in 0..k {
            at += base + usize::from(s < extra);
            starts.push(at);
        }
        debug_assert_eq!(at, n_machines);
        let shards = (0..k)
            .map(|s| Engine::new(starts[s + 1] - starts[s]))
            .collect();
        ShardedEngine {
            n_machines,
            starts,
            shards,
            global_of: vec![Vec::new(); k],
            next_id: 0,
        }
    }

    /// Number of machines across all shards.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The machine range `[start, end)` owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        (self.starts[s], self.starts[s + 1])
    }

    /// Read access to one sub-engine (tests and reports).
    pub fn shard(&self, s: usize) -> &Engine {
        &self.shards[s]
    }

    /// Latest clock across shards (each shard clocks independently).
    pub fn now(&self) -> f64 {
        self.shards.iter().map(Engine::now).fold(0.0, f64::max)
    }

    /// Total events processed across shards. Summation is
    /// order-independent, so serial and parallel drains report the same
    /// count.
    pub fn n_events(&self) -> usize {
        self.shards.iter().map(Engine::n_events).sum()
    }

    /// Total `plan` invocations across shards.
    pub fn n_plans(&self) -> usize {
        self.shards.iter().map(Engine::n_plans).sum()
    }

    /// Total completions across shards.
    pub fn n_completed(&self) -> usize {
        self.shards.iter().map(Engine::n_completed).sum()
    }

    /// Sum of per-shard active-set high-water marks — an upper bound on
    /// the global in-flight peak (per-shard peaks need not coincide in
    /// time).
    pub fn peak_active(&self) -> usize {
        self.shards.iter().map(Engine::peak_active).sum()
    }

    /// Busy machine-seconds in global machine order (shards are
    /// contiguous, so concatenation in shard order is machine order).
    pub fn busy(&self) -> Vec<f64> {
        let mut busy = Vec::with_capacity(self.n_machines);
        for e in &self.shards {
            busy.extend_from_slice(e.busy());
        }
        busy
    }

    /// Whether completions are buffered for [`ShardedEngine::take_completed`]
    /// (toggles every shard; see [`Engine::record_completions`]).
    pub fn set_record_completions(&mut self, on: bool) {
        for e in &mut self.shards {
            e.record_completions = on;
        }
    }

    /// Metrics over everything completed so far, folded in fixed shard
    /// order via the accumulator's field-wise merge.
    pub fn metrics(&self) -> RunMetrics {
        self.accumulate().metrics()
    }

    /// Fleet utilization over `[first completed release, makespan]`,
    /// both taken across all shards.
    pub fn utilization(&self) -> f64 {
        let acc = self.accumulate();
        let busy = self.busy();
        utilization_of(
            &busy,
            acc.first_release().unwrap_or(f64::INFINITY),
            acc.metrics().makespan,
        )
    }

    fn accumulate(&self) -> MetricsAccumulator {
        let mut acc = MetricsAccumulator::new();
        for e in &self.shards {
            acc.merge(&e.metrics);
        }
        acc
    }

    /// The shard of the lowest-index machine where `costs` (a full row
    /// that passed `check_job`) is cheapest: the assignment policy of
    /// [`ShardedEngine::push_arrival`] and of the replay's pre-pass.
    fn shard_of_fastest(&self, costs: &[f64]) -> usize {
        let mut at = 0;
        for (i, &c) in costs.iter().enumerate() {
            // Strict `<` keeps the lowest index on cost ties.
            if c < costs[at] {
                at = i;
            }
        }
        self.shard_of_machine(at)
    }

    /// Which shard owns global machine index `machine`.
    fn shard_of_machine(&self, machine: usize) -> usize {
        debug_assert!(machine < self.n_machines);
        // Shard counts are small; a linear scan beats binary search.
        let mut s = 0;
        while self.starts[s + 1] <= machine {
            s += 1;
        }
        s
    }

    /// Queues one arriving job: validated exactly like
    /// [`Engine::push_arrival`], assigned to the shard holding its
    /// fastest machine (ties to the lowest shard index), then pushed to
    /// that shard with its cost row sliced to the shard's machine range.
    /// Returns the job's *global* id — dense in push order, exactly as a
    /// flat engine would number the same stream.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidJob`] under the same validation (and messages)
    /// as [`Engine::push_arrival`]; a rejected spec consumes no id.
    pub fn push_arrival(&mut self, job: JobSpec) -> Result<usize, SimError> {
        self.push_arrival_ref(job.release, job.weight, &job.costs)
    }

    /// [`ShardedEngine::push_arrival`] without the owning [`JobSpec`] —
    /// the hot replay entry point: the row is sliced and copied straight
    /// into the owning shard's slab, no allocation.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::push_arrival`].
    pub fn push_arrival_ref(
        &mut self,
        release: f64,
        weight: f64,
        costs: &[f64],
    ) -> Result<usize, SimError> {
        // Full-row validation happens here, not per shard: a sub-engine
        // only ever sees its slice, but a NaN in *any* machine's cost
        // must reject the job with the flat engine's exact error.
        check_job(self.n_machines, release, weight, costs)
            .map_err(|reason| SimError::InvalidJob { reason })?;
        let best = self.shard_of_fastest(costs);
        let id = self.next_id;
        self.next_id += 1;
        let local = self.shards[best].push_arrival_ref(
            release,
            weight,
            &costs[self.starts[best]..self.starts[best + 1]],
        )?;
        debug_assert_eq!(local, self.global_of[best].len());
        self.global_of[best].push(id);
        Ok(id)
    }

    /// Enqueues a failure/recovery for a *global* machine index, routed
    /// to the owning shard with the index remapped into the shard's
    /// local range.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlatformEvent`] under the same validation (and
    /// messages) as [`Engine::push_platform_event`].
    pub fn push_platform_event(&mut self, event: PlatformEvent) -> Result<(), SimError> {
        let invalid = |reason| Err(SimError::InvalidPlatformEvent { reason });
        if event.machine >= self.n_machines {
            return invalid("machine index out of range");
        }
        if !(event.time.is_finite() && event.time >= 0.0) {
            return invalid("event time must be finite and non-negative");
        }
        let s = self.shard_of_machine(event.machine);
        self.shards[s].push_platform_event(PlatformEvent {
            time: event.time,
            machine: event.machine - self.starts[s],
            change: event.change,
        })
    }

    /// Runs every shard to quiescence — the sharded counterpart of
    /// [`Engine::drain`]. Shards are independent, so they drain in
    /// parallel under the rayon shim, most pending arrivals first (inline
    /// on a single-core host); either way each shard's event sequence,
    /// and therefore every merged number, is identical. The first error
    /// in shard-index order is returned.
    ///
    /// # Panics
    ///
    /// If `policies.len() != self.n_shards()` — each shard owns one
    /// scheduler instance for its whole run.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] a shard's drain surfaces.
    pub fn drain(
        &mut self,
        policies: &mut [Box<dyn OnlineScheduler + Send>],
    ) -> Result<(), SimError> {
        assert_eq!(
            policies.len(),
            self.shards.len(),
            "sharded drain needs exactly one policy per shard"
        );
        run_heaviest_first(
            &mut self.shards,
            policies,
            |_, eng| eng.pending_len(),
            |_, eng, pol| eng.drain(pol),
        )
    }

    /// Takes the buffered completion streams of every shard, remaps
    /// local ids back to global ids, and merges them into one stream:
    /// ordered by completion time, cross-shard ties broken by the lower
    /// shard index, within-shard order (the engine's admission-order
    /// sweep) preserved. Deterministic — and for a single shard, the
    /// identity.
    pub fn take_completed(&mut self) -> Vec<CompletedJob> {
        let mut streams: Vec<Vec<CompletedJob>> = Vec::with_capacity(self.shards.len());
        for (s, e) in self.shards.iter_mut().enumerate() {
            let mut stream = e.take_completed();
            for c in &mut stream {
                c.id = self.global_of[s][c.id];
            }
            streams.push(stream);
        }
        if streams.len() == 1 {
            return streams.pop().unwrap();
        }
        let total = streams.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        let mut cursor = vec![0usize; streams.len()];
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (s, stream) in streams.iter().enumerate() {
                if let Some(c) = stream.get(cursor[s]) {
                    // Strict `<` keeps the earliest (lowest-index) shard
                    // on completion-time ties.
                    if best.is_none_or(|(_, t)| c.completion < t) {
                        best = Some((s, c.completion));
                    }
                }
            }
            let Some((s, _)) = best else { break };
            out.push(streams[s][cursor[s]].clone());
            cursor[s] += 1;
        }
        out
    }

    /// Replays an open-arrival [`Trace`] through a front-end with no
    /// arrivals pushed yet. Platform events are routed up front; arrivals
    /// are assigned to shards in a validation pre-pass and then
    /// *streamed* into each shard through [`Trace::replay`]'s feed,
    /// applied per shard. Streaming keeps every shard's pending heap and
    /// job slab sized to its in-flight window rather than the whole
    /// trace, which is what makes the sharded replay faster than the
    /// flat one even on a single core. Each shard takes exactly the
    /// events of pushing every arrival up front and calling
    /// [`ShardedEngine::drain`]. Shards replay independently, in parallel
    /// under the rayon shim, most routed arrivals first; the merged
    /// counters come back as [`ReplayStats`]. Completions are *not*
    /// buffered; `max_active` is the cross-shard peak bound of
    /// [`ShardedEngine::peak_active`].
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from validation or replay. Invalid arrivals are
    /// rejected in the pre-pass (same messages as
    /// [`ShardedEngine::push_arrival`]) before any arrival is pushed.
    pub fn replay_trace(
        &mut self,
        trace: &Trace,
        policies: &mut [Box<dyn OnlineScheduler + Send>],
    ) -> Result<ReplayStats, SimError> {
        for e in &trace.platform_events {
            self.push_platform_event(*e)?;
        }
        self.stream_trace(trace, policies)
    }

    /// [`ShardedEngine::replay_trace`] after its platform events: routes
    /// and streams the arrivals. The service pushes its injected faults
    /// between the two, after the trace's own events.
    pub(crate) fn stream_trace(
        &mut self,
        trace: &Trace,
        policies: &mut [Box<dyn OnlineScheduler + Send>],
    ) -> Result<ReplayStats, SimError> {
        assert_eq!(
            policies.len(),
            self.shards.len(),
            "sharded replay needs exactly one policy per shard"
        );
        for p in policies.iter_mut() {
            p.reset();
        }
        self.set_record_completions(false);
        // Pre-pass: validate every arrival against the FULL cost row
        // (`check_job`, as the flat engine does) and pin it to the shard
        // of its globally fastest machine — ties to the lowest machine
        // index, as in `push_arrival`. Global ids are dealt here, in
        // trace order, so the id map is identical to the push-all path
        // no matter how the per-shard replays interleave.
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()]; // dlflint:allow(alloc-in-hot-loop, "one route list per shard per replay, not per event")
                                                                             // Route probe: every cost is the monotone image `fl(size·ct)` of
                                                                             // its machine's cycle time, so with machines pre-sorted by
                                                                             // (cycle time, index) the global minimum cost sits at the first
                                                                             // *available* machine in that order, and the lowest-index
                                                                             // tie-break is recovered by walking the (rare) run of equal-cost
                                                                             // machines behind it — O(1) expected per arrival instead of
                                                                             // O(m). Sound only when the cycle-time table and the arrival
                                                                             // itself are well-formed; anything else (and any probe miss)
                                                                             // builds the full cost row and routes it as `push_arrival` does.
        let cts = &trace.cycle_times;
        let cts_ok = cts.len() == self.n_machines && cts.iter().all(|c| c.is_finite() && *c >= 0.0);
        let mut ct_order: Vec<u32> = (0..cts.len() as u32).collect(); // dlflint:allow(alloc-in-hot-loop, "one probe order per replay, not per event")
        if cts_ok {
            ct_order.sort_unstable_by(|&x, &y| {
                cts[x as usize]
                    .partial_cmp(&cts[y as usize])
                    .unwrap() // dlflint:allow(hot-path-panic, "guarded by cts_ok: every cycle time is finite, so partial_cmp is total here")
                    .then(x.cmp(&y))
            });
        }
        let mut row = Vec::new();
        for (k, a) in trace.arrivals.iter().enumerate() {
            // Without an availability row the cost row is empty, which
            // `check_job` refuses.
            let avail = trace.avail_row(k).unwrap_or_default();
            let s = 'route: {
                if cts_ok
                    && !avail.is_empty()
                    && a.size.is_finite()
                    && a.size >= 0.0
                    && a.release.is_finite()
                    && a.release >= 0.0
                    && a.weight.is_finite()
                    && a.weight >= 0.0
                {
                    let mut it = ct_order.iter().copied();
                    if let Some(i0) = it.by_ref().find(|&i| avail[i as usize]) {
                        let cmin = a.size * cts[i0 as usize];
                        if cmin.is_finite() {
                            // Products are non-decreasing along the
                            // probe order, so the first strictly larger
                            // one ends the tie run.
                            let mut lo = i0 as usize;
                            for i in it {
                                if !avail[i as usize] {
                                    continue;
                                }
                                if a.size * cts[i as usize] > cmin {
                                    break;
                                }
                                lo = lo.min(i as usize);
                            }
                            break 'route self.shard_of_machine(lo);
                        }
                    }
                }
                row.clear();
                row.extend(
                    cts.iter()
                        .zip(avail)
                        .map(|(ct, &ok)| if ok { a.size * ct } else { f64::INFINITY }),
                );
                check_job(self.n_machines, a.release, a.weight, &row)
                    .map_err(|reason| SimError::InvalidJob { reason })?;
                self.shard_of_fastest(&row)
            };
            routed[s].push(k as u32);
            self.global_of[s].push(self.next_id);
            self.next_id += 1;
        }
        // Each shard streams its pinned arrivals through the one feed,
        // cost rows sliced to its machine range.
        let starts = &self.starts;
        run_heaviest_first(
            &mut self.shards,
            policies,
            |s, _| routed[s].len(),
            |s, e, p| stream_arrivals(trace, Some(&routed[s]), starts[s], e, p, None, usize::MAX),
        )?;
        Ok(ReplayStats {
            n_jobs: trace.len(),
            n_events: self.n_events(),
            n_plans: self.n_plans(),
            busy: self.busy(),
            metrics: self.metrics(),
            utilization: self.utilization(),
            max_active: self.peak_active(),
        })
    }
}

/// Runs `run` on every shard with its policy under the rayon shim,
/// handing the shim the heaviest shards (by `load`) first so the longest
/// runs start earliest. Results map back to shard order: the first error
/// in shard-index order is returned, whichever shard finished first.
fn run_heaviest_first(
    shards: &mut [Engine],
    policies: &mut [Box<dyn OnlineScheduler + Send>],
    load: impl Fn(usize, &Engine) -> usize,
    run: impl Fn(usize, &mut Engine, &mut dyn OnlineScheduler) -> Result<(), SimError> + Sync,
) -> Result<(), SimError> {
    let mut work: Vec<(usize, &mut Engine, &mut (dyn OnlineScheduler + Send))> = shards
        .iter_mut()
        .zip(policies.iter_mut())
        .enumerate()
        .map(|(s, (e, p))| (s, e, p.as_mut()))
        .collect(); // dlflint:allow(alloc-in-hot-loop, "one work item per shard per run, not per event")
    work.sort_unstable_by_key(|(s, e, _)| (Reverse(load(*s, e)), *s));
    let mut results: Vec<(usize, Result<(), SimError>)> = work
        .par_iter_mut()
        .map(|(s, eng, pol)| (*s, run(*s, eng, &mut **pol)))
        .collect(); // dlflint:allow(alloc-in-hot-loop, "one result slot per shard per run, not per event")
    results.sort_unstable_by_key(|(s, _)| *s);
    results.into_iter().try_for_each(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PlatformChange;
    use crate::schedulers::{Mct, Swrpt};
    use crate::workload::{
        generate_trace, ArrivalProcess, FaultProcess, Trace, TraceArrival, TraceSpec,
    };

    fn job(release: f64, weight: f64, costs: &[f64]) -> JobSpec {
        JobSpec {
            release,
            weight,
            costs: costs.to_vec(),
        }
    }

    fn boxed(policy: impl OnlineScheduler + Send + 'static) -> Box<dyn OnlineScheduler + Send> {
        Box::new(policy)
    }

    #[test]
    fn partition_is_contiguous_near_equal_and_clamped() {
        let se = ShardedEngine::new(10, 4);
        assert_eq!(se.n_shards(), 4);
        let ranges: Vec<(usize, usize)> = (0..4).map(|s| se.shard_range(s)).collect();
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        // More shards than machines clamps to one machine per shard.
        let se = ShardedEngine::new(3, 8);
        assert_eq!(se.n_shards(), 3);
        assert_eq!(se.shard_range(2), (2, 3));
    }

    #[test]
    fn validation_matches_the_flat_engine() {
        let mut flat = Engine::new(2);
        let mut se = ShardedEngine::new(2, 2);
        for bad in [
            job(0.0, 1.0, &[1.0]),
            job(0.0, 1.0, &[f64::INFINITY, f64::INFINITY]),
            job(0.0, 1.0, &[1.0, -2.0]),
            job(0.0, 1.0, &[1.0, f64::NAN]),
            job(f64::NAN, 1.0, &[1.0, 2.0]),
            job(0.0, -1.0, &[1.0, 2.0]),
        ] {
            assert_eq!(
                flat.push_arrival(bad.clone()).unwrap_err(),
                se.push_arrival(bad).unwrap_err()
            );
        }
        assert_eq!(
            flat.push_platform_event(PlatformEvent {
                time: -1.0,
                machine: 0,
                change: PlatformChange::Down,
            })
            .unwrap_err(),
            se.push_platform_event(PlatformEvent {
                time: -1.0,
                machine: 0,
                change: PlatformChange::Down,
            })
            .unwrap_err()
        );
    }

    #[test]
    fn jobs_go_to_the_fastest_shard_ties_to_the_lowest() {
        let mut se = ShardedEngine::new(4, 2);
        // Fastest machine (cost 1) in shard 1's range.
        se.push_arrival(job(0.0, 1.0, &[5.0, 4.0, 1.0, 9.0]))
            .unwrap();
        // Equal fastest in both shards → shard 0.
        se.push_arrival(job(0.0, 1.0, &[3.0, 7.0, 3.0, 8.0]))
            .unwrap();
        // Runs only on shard 1's machines.
        se.push_arrival(job(
            0.0,
            1.0,
            &[f64::INFINITY, f64::INFINITY, f64::INFINITY, 2.0],
        ))
        .unwrap();
        assert_eq!(se.shard(0).pending_len(), 1);
        assert_eq!(se.shard(1).pending_len(), 2);
    }

    #[test]
    fn single_shard_run_is_bit_identical_to_the_flat_engine() {
        let mut flat = Engine::new(2);
        let mut fpol = Swrpt::new();
        let mut se = ShardedEngine::new(2, 1);
        let mut spols = vec![boxed(Swrpt::new())];
        for j in [
            job(0.0, 1.0, &[4.0, 6.0]),
            job(0.5, 2.0, &[3.0, f64::INFINITY]),
            job(0.5, 1.0, &[f64::INFINITY, 2.0]),
            job(2.0, 5.0, &[1.0, 1.5]),
        ] {
            flat.push_arrival(j.clone()).unwrap();
            se.push_arrival(j).unwrap();
        }
        flat.drain(&mut fpol).unwrap();
        se.drain(&mut spols).unwrap();
        assert_eq!(flat.take_completed(), se.take_completed());
        assert_eq!(flat.n_events(), se.n_events());
        assert_eq!(flat.n_plans(), se.n_plans());
        assert_eq!(flat.busy(), se.busy().as_slice());
        assert_eq!(
            flat.metrics().max_weighted_flow.to_bits(),
            se.metrics().max_weighted_flow.to_bits()
        );
    }

    #[test]
    fn cross_shard_simultaneous_completions_merge_by_shard_index() {
        // Two identical single-machine shards, one job each, identical
        // timing: both complete at t = 4. The merged stream must order
        // the shard-0 job (global id 0) first — the documented
        // tie-break — and keep doing so however many times it runs.
        let mut se = ShardedEngine::new(2, 2);
        se.push_arrival(job(0.0, 1.0, &[4.0, f64::INFINITY]))
            .unwrap();
        se.push_arrival(job(0.0, 1.0, &[f64::INFINITY, 4.0]))
            .unwrap();
        let mut pols = vec![boxed(Swrpt::new()), boxed(Swrpt::new())];
        se.drain(&mut pols).unwrap();
        let done = se.take_completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].completion.to_bits(), done[1].completion.to_bits());
        assert_eq!(done[0].id, 0, "tie goes to the lower shard");
        assert_eq!(done[1].id, 1);
    }

    #[test]
    fn two_shards_match_manually_partitioned_engines() {
        // The front-end must add nothing beyond routing: running each
        // half on its own flat engine reproduces the per-shard numbers.
        let trace = generate_trace(&TraceSpec {
            n_requests: 120,
            n_machines: 4,
            seed: 23,
            process: ArrivalProcess::Poisson { rate: 2.0 },
            ..Default::default()
        });
        let mut se = ShardedEngine::new(4, 2);
        let mut pols = vec![boxed(Swrpt::new()), boxed(Swrpt::new())];
        let stats = se.replay_trace(&trace, &mut pols).unwrap();
        assert_eq!(stats.n_jobs, 120);
        assert_eq!(
            stats.n_events,
            se.shard(0).n_events() + se.shard(1).n_events()
        );

        // Rebuild shard 0's stream by hand with the same assignment rule.
        let mut manual = Engine::new(2);
        let mut mpol = Swrpt::new();
        for (k, a) in trace.arrivals.iter().enumerate() {
            let costs: Vec<f64> = trace
                .cycle_times
                .iter()
                .zip(trace.avail_row(k).unwrap())
                .map(|(ct, &ok)| if ok { a.size * ct } else { f64::INFINITY })
                .collect();
            let lo = costs[..2].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = costs[2..].iter().cloned().fold(f64::INFINITY, f64::min);
            if lo <= hi {
                manual
                    .push_arrival_ref(a.release, a.weight, &costs[..2])
                    .unwrap();
            }
        }
        manual.drain(&mut mpol).unwrap();
        assert_eq!(manual.n_events(), se.shard(0).n_events());
        assert_eq!(manual.busy(), se.shard(0).busy());
        assert_eq!(
            manual.metrics().makespan.to_bits(),
            se.shard(0).metrics().makespan.to_bits()
        );
    }

    #[test]
    fn replay_rejects_an_availability_matrix_of_the_wrong_size() {
        // Hand-built: two requests on two machines, one cell short and
        // one cell long. No row may be read from a misshapen matrix.
        for cells in [3, 5] {
            let trace = Trace {
                cycle_times: vec![1.0, 1.0],
                arrivals: vec![
                    TraceArrival {
                        release: 0.0,
                        size: 2.0,
                        weight: 1.0,
                    };
                    2
                ],
                avail: vec![true; cells],
                platform_events: Vec::new(),
            };
            let mut se = ShardedEngine::new(2, 2);
            let mut pols = vec![boxed(Swrpt::new()), boxed(Swrpt::new())];
            let err = se.replay_trace(&trace, &mut pols).unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidJob {
                    reason: "costs length does not match the machine count"
                }
            );
        }
    }

    #[test]
    fn sharded_replay_handles_faulty_traces() {
        let trace = generate_trace(&TraceSpec {
            n_requests: 80,
            n_machines: 4,
            seed: 31,
            faults: Some(FaultProcess {
                mtbf: 10.0,
                mttr: 2.0,
                horizon: 30.0,
                seed: 7,
            }),
            ..Default::default()
        });
        assert!(!trace.platform_events.is_empty());
        let mut se = ShardedEngine::new(4, 2);
        let mut pols = vec![boxed(Mct::new()), boxed(Mct::new())];
        let stats = se.replay_trace(&trace, &mut pols).unwrap();
        assert_eq!(se.n_completed(), 80);
        assert!(stats.metrics.makespan.is_finite());
        assert!(stats.metrics.max_stretch.is_finite());
    }

    #[test]
    fn malformed_arrivals_fail_as_in_the_flat_replay() {
        use crate::campaign::SchedulerSpec;
        use crate::service::{run_simulation_with, SimInput, SimOptions};
        // One valid request, then the malformed one: the flat replay
        // refuses it when its turn to be pushed comes, the sharded
        // pre-pass before any shard steps.
        let bad = |release: f64, size: f64, weight: f64| Trace {
            cycle_times: vec![1.5, 2.0, 3.0, 4.0],
            arrivals: vec![
                TraceArrival {
                    release: 0.0,
                    size: 1.0,
                    weight: 1.0,
                },
                TraceArrival {
                    release,
                    size,
                    weight,
                },
            ],
            avail: vec![true, true, true, true, false, true, false, true],
            platform_events: Vec::new(),
        };
        let spec = SchedulerSpec::parse_compact("swrpt").unwrap();
        for (trace, reason) in [
            (bad(1.0, f64::NAN, 1.0), "job can run on no machine"),
            (bad(1.0, -1.0, 1.0), "job has a negative or NaN cost"),
            (
                bad(f64::INFINITY, 1.0, 1.0),
                "job release must be finite and non-negative",
            ),
            (
                bad(1.0, 1.0, -1.0),
                "job weight must be finite and non-negative",
            ),
            (
                bad(1.0, 1.0, f64::NAN),
                "job weight must be finite and non-negative",
            ),
            // `f64::MAX` times every cycle time above 1 overflows to ∞.
            (bad(1.0, f64::MAX, 1.0), "job can run on no machine"),
        ] {
            let flat = trace.replay(&mut Swrpt::new()).unwrap_err();
            assert_eq!(flat, SimError::InvalidJob { reason });
            let mut se = ShardedEngine::new(4, 2);
            let mut pols = vec![boxed(Swrpt::new()), boxed(Swrpt::new())];
            assert_eq!(se.replay_trace(&trace, &mut pols).unwrap_err(), flat);

            let input = SimInput::Open(trace);
            let plain = run_simulation_with(&input, &spec, &SimOptions::default()).unwrap_err();
            let sharded = SimOptions {
                shards: 2,
                ..Default::default()
            };
            assert_eq!(
                run_simulation_with(&input, &spec, &sharded).unwrap_err(),
                plain
            );
            assert_eq!(plain, format!("SWRPT: invalid job spec: {reason}"));
        }
    }
}
