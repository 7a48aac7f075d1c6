//! Tracing from outside the library: spans around calls into each
//! layer's public functions, and a timing adapter around every
//! scheduler.
//!
//! Spans are kept in memory and written out when the run ends. A span is
//! either an *interval* (one call, start to end) or an *aggregate* (every
//! scheduler hook one policy instance served, folded into a count and a
//! busy sum, because spanning each of a million hook calls separately
//! would cost more memory than the run). A span's self time is its busy
//! time minus what its children cover: the union of its interval
//! children, plus the busy sums of its aggregate children.

use allocmeter::Meter;
use dlflow_sim::engine::{ActiveSet, Allocation, JobView, OnlineScheduler, ResolveStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// Counts the calling thread's allocations, through allocmeter, until
/// the guard is dropped. Traced passes hold one around engine calls only.
pub struct CountAllocs(bool);

/// Starts counting the calling thread's allocations.
pub fn count_allocs() -> CountAllocs {
    CountAllocs(COUNTING.with(|c| c.replace(true)))
}

impl Drop for CountAllocs {
    fn drop(&mut self) {
        let _ = COUNTING.try_with(|c| c.set(self.0));
    }
}

/// The benchmark's global allocator: allocmeter's counting [`Meter`] on
/// threads that are counting, the system allocator otherwise. The
/// meter's counters are process-wide atomics, and on the tournament's two
/// threads their contention slowed a pass from 1.9 s to 3.3 s (2-core
/// host), so only the engine spans of traced passes pay for them. The
/// count is process-wide: while two threads count at once, each sees the
/// other's allocations too.
pub struct SwitchedMeter;

// SAFETY: both paths hand out and take back `System` memory (`Meter`
// delegates every call verbatim to `System`), so a block allocated on
// either path may be resized or freed on either path; the layouts are
// passed through unchanged.
unsafe impl GlobalAlloc for SwitchedMeter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            unsafe { Meter.alloc(layout) }
        } else {
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            unsafe { Meter.alloc_zeroed(layout) }
        } else {
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            unsafe { Meter.realloc(ptr, layout, new_size) }
        } else {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

/// Log-bucketed latency histogram: 16 sub-buckets per power of two, so a
/// quantile is read to within 1/16 of its value.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 16 + 60 * 16],
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize; // ≥ 4
        let sub = ((ns >> (e - 4)) & 15) as usize;
        16 + (e - 4) * 16 + sub
    }

    /// Midpoint of bucket `b`'s value range.
    fn value(b: usize) -> f64 {
        if b < 16 {
            return b as f64;
        }
        let e = (b - 16) / 16 + 4;
        let lo = ((16 + (b - 16) % 16) as u64) << (e - 4);
        lo as f64 + (1u64 << (e - 4)) as f64 / 2.0
    }

    /// Records one sample.
    pub fn add(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (nearest rank), in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// What one policy instance's hooks cost.
#[derive(Clone, Debug, Default)]
pub struct HookStats {
    /// Hook calls of every kind.
    pub calls: u64,
    /// Time in every hook.
    pub hook_ns: u64,
    /// Allocations made inside hooks.
    pub hook_allocs: u64,
    /// Time in `plan` alone.
    pub plan_ns: u64,
    /// `plan` durations.
    pub plan: Hist,
    /// Start of the first hook call.
    pub first: Option<Instant>,
    /// End of the last hook call.
    pub last: Option<Instant>,
    /// The process's allocation count at `first` and at `last`.
    pub allocs_at: (u64, u64),
}

impl HookStats {
    fn merge(&mut self, o: &HookStats) {
        self.calls += o.calls;
        self.hook_ns += o.hook_ns;
        self.hook_allocs += o.hook_allocs;
        self.plan_ns += o.plan_ns;
        self.plan.merge(&o.plan);
        if o.first.is_some() && (self.first.is_none() || o.first < self.first) {
            self.first = o.first;
            self.allocs_at.0 = o.allocs_at.0;
        }
        if o.last > self.last {
            self.last = o.last;
            self.allocs_at.1 = o.allocs_at.1;
        }
    }
}

/// Shared slot a [`Timed`] adapter hands its statistics to when dropped.
pub type HookSink = Arc<Mutex<HookStats>>;

/// A timing adapter: implements [`OnlineScheduler`] by delegating every
/// method to the wrapped policy, timing the event hooks (`on_arrival`,
/// `on_completion`, `plan`, `on_platform_change`). The statistics reach
/// the returned [`HookSink`] when the adapter is dropped, so it also works
/// when the library takes ownership of boxed policies.
pub struct Timed {
    inner: Box<dyn OnlineScheduler + Send>,
    stats: HookStats,
    sink: HookSink,
}

impl Timed {
    /// Wraps `inner`; read the sink after dropping the adapter.
    pub fn new(inner: Box<dyn OnlineScheduler + Send>) -> (Timed, HookSink) {
        let sink = HookSink::default();
        let timed = Timed {
            inner,
            stats: HookStats::default(),
            sink: Arc::clone(&sink),
        };
        (timed, sink)
    }

    fn time<R>(&mut self, is_plan: bool, f: impl FnOnce(&mut dyn OnlineScheduler) -> R) -> R {
        let a0 = allocmeter::alloc_count();
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let t1 = Instant::now();
        let a1 = allocmeter::alloc_count();
        let s = &mut self.stats;
        let ns = (t1 - t0).as_nanos() as u64;
        s.calls += 1;
        s.hook_ns += ns;
        s.hook_allocs += a1 - a0;
        if is_plan {
            s.plan_ns += ns;
            s.plan.add(ns);
        }
        if s.first.is_none() {
            s.first = Some(t0);
            s.allocs_at.0 = a0;
        }
        s.last = Some(t1);
        s.allocs_at.1 = a1;
        r
    }
}

/// A policy whose hooks do nothing: the yardstick of
/// [`wrapper_ns_per_call`].
struct NoOp;

impl OnlineScheduler for NoOp {
    fn name(&self) -> String {
        "no-op".into()
    }

    fn plan(&mut self, _now: f64, _active: &ActiveSet<'_>, _alloc: &mut Allocation) {}
}

/// What one [`Timed`] hook call costs outside the interval it records, in
/// ns: wrapped no-op hook calls timed end to end, minus the hook time the
/// wrapper recorded for them, per call (median of five rounds). That
/// remainder falls between hooks, so into the calling engine span's self
/// time; traced runs move `calls ×` it from `engine` to `trace`.
pub fn wrapper_ns_per_call() -> f64 {
    const CALLS: usize = 200_000;
    let mut per_call: Vec<f64> = (0..5)
        .map(|_| {
            let (mut timed, sink) = Timed::new(Box::new(NoOp));
            let policy: &mut dyn OnlineScheduler = &mut timed;
            let t0 = Instant::now();
            for id in 0..CALLS {
                std::hint::black_box(&mut *policy).on_completion(0.0, id);
            }
            let total = t0.elapsed().as_nanos() as f64;
            drop(timed);
            let recorded = sink.lock().expect("hook sink is never poisoned").hook_ns as f64;
            (total - recorded).max(0.0) / CALLS as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned sink means a reader panicked; its numbers are lost
        // either way, and a drop must not panic.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.stats);
        }
    }
}

impl OnlineScheduler for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_arrival(&mut self, now: f64, job: JobView<'_>) {
        self.time(false, |p| p.on_arrival(now, job));
    }

    fn on_completion(&mut self, now: f64, job_id: usize) {
        self.time(false, |p| p.on_completion(now, job_id));
    }

    fn plan(&mut self, now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        self.time(true, |p| p.plan(now, active, alloc));
    }

    fn on_platform_change(&mut self, now: f64, up: &[bool]) {
        self.time(false, |p| p.on_platform_change(now, up));
    }

    fn snapshot_state(&self) -> String {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        self.inner.resolve_stats()
    }
}

/// One recorded span. Times are ns since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Index of the parent span in the same [`Recorder`].
    pub parent: Option<usize>,
    /// 0 for the main thread, `k` for the benchmark's own worker `k`.
    pub thread: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Time the span itself accounts for: `end - start` for an interval,
    /// the summed hook time for an aggregate.
    pub busy: u64,
    /// Calls folded into the span (1 for an interval).
    pub calls: u64,
    /// Allocations made within the span (a process-wide counter, so
    /// approximate while other threads allocate).
    pub allocs: u64,
    aggregate: bool,
    allocs_at_open: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span store for one traced pass (or one worker thread of it).
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    /// Spans in open order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            thread: 0,
            spans: Vec::new(),
        }
    }

    /// An empty recorder for worker thread `thread`, on the same epoch.
    pub fn fork(&self, thread: usize) -> Recorder {
        Recorder {
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens an interval span now.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            thread: self.thread,
            start,
            end: start,
            busy: 0,
            calls: 1,
            allocs: 0,
            aggregate: false,
            allocs_at_open: allocmeter::alloc_count(),
        });
        self.spans.len() - 1
    }

    /// Closes interval span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        let s = &mut self.spans[id];
        s.end = end;
        s.busy = end - s.start;
        s.allocs = allocmeter::alloc_count() - s.allocs_at_open;
    }

    /// Records an interval span from a policy's first to its last hook
    /// call: the stretch of time an engine the benchmark cannot step
    /// itself spent driving that policy. Returns `None` when the policy
    /// saw no hook call.
    pub fn hook_window(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        h: &HookStats,
    ) -> Option<usize> {
        let (first, last) = (h.first?, h.last?);
        let (start, end) = (self.ns(first), self.ns(last));
        self.spans.push(Span {
            name,
            parent,
            thread: self.thread,
            start,
            end,
            busy: end - start,
            calls: 1,
            allocs: h.allocs_at.1 - h.allocs_at.0,
            aggregate: false,
            allocs_at_open: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a policy's hooks as one aggregate span under `parent`.
    pub fn hooks(&mut self, parent: usize, h: &HookStats) {
        let start = h.first.map_or(0, |t| self.ns(t));
        let end = h.last.map_or(start, |t| self.ns(t));
        self.spans.push(Span {
            name: "schedulers.hooks",
            parent: Some(parent),
            thread: self.thread,
            start,
            end,
            busy: h.hook_ns,
            calls: h.calls,
            allocs: h.hook_allocs,
            aggregate: true,
            allocs_at_open: 0,
        });
    }

    /// Moves a worker's spans in, re-rooting its top-level spans under
    /// `parent`.
    pub fn adopt(&mut self, worker: Recorder, parent: usize) {
        let offset = self.spans.len();
        for mut s in worker.spans {
            s.parent = Some(s.parent.map_or(parent, |p| p + offset));
            self.spans.push(s);
        }
    }

    /// Self time and self allocations of every span, in span order.
    pub fn self_costs(&self) -> Vec<(u64, u64)> {
        let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut covered = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            child_allocs[p] += s.allocs;
            if s.aggregate {
                covered[p] += s.busy;
            } else {
                intervals[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let cover = covered[i] + union_len(&mut intervals[i]);
                (
                    s.busy.saturating_sub(cover),
                    s.allocs.saturating_sub(child_allocs[i]),
                )
            })
            .collect()
    }

    /// Self time per layer, summed over spans.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, (ns, _)) in self.spans.iter().zip(self.self_costs()) {
            *out.entry(s.layer()).or_insert(0) += ns;
        }
        out
    }

    /// Summed self time of spans named `name`.
    pub fn named_self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_costs())
            .filter(|(s, _)| s.name == name)
            .map(|(_, (ns, _))| ns)
            .sum()
    }

    /// Summed self allocations of spans in `layer`.
    pub fn layer_self_allocs(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_costs())
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, (_, a))| a)
            .sum()
    }

    /// Durations (ns) of the interval spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy)
            .collect()
    }
}

/// Total length of the union of `iv` (sorted in place).
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_sixteenth() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.add(ns);
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() <= want / 16.0, "q{q}: {got} vs {want}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_aggregates() {
        let mut r = Recorder::new(Instant::now());
        let mk = |name, parent, start, end, busy, aggregate| Span {
            name,
            parent,
            thread: 0,
            start,
            end,
            busy,
            calls: 1,
            allocs: 0,
            aggregate,
            allocs_at_open: 0,
        };
        r.spans.push(mk("pass", None, 0, 100, 100, false));
        // Two overlapping children on different threads cover [10, 70).
        r.spans.push(mk("engine.a", Some(0), 10, 50, 40, false));
        r.spans.push(mk("engine.b", Some(0), 30, 70, 40, false));
        // An aggregate child of engine.a accounts 15 of its 40.
        r.spans
            .push(mk("schedulers.hooks", Some(1), 10, 50, 15, true));
        let own: Vec<u64> = r.self_costs().into_iter().map(|(ns, _)| ns).collect();
        assert_eq!(own, vec![40, 25, 40, 15]);
        let layers = r.layer_self_ns();
        assert_eq!(layers["engine"], 65);
        assert_eq!(layers["pass"], 40);
    }
}
