//! Minimum Completion Time (MCT).
//!
//! Each arriving job is immediately and irrevocably assigned, whole, to
//! the machine on which it would complete earliest given the work already
//! queued there. Machines serve their queues FIFO, one job at a time —
//! non-preemptive, non-divisible: exactly the "classical scheduling
//! heuristic" the paper's conclusion compares against.
//!
//! The policy is fully incremental: assignments live in a small map that
//! grows with the number of jobs *in the system*, not the trace length —
//! completions prune it via [`OnlineScheduler::on_completion`].

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler};
use std::collections::BTreeMap;

/// MCT policy state.
#[derive(Default)]
pub struct Mct {
    /// Machine assigned to each job currently in the system. `BTreeMap`
    /// keeps the policy's state deterministic however it is inspected.
    assigned: BTreeMap<usize, usize>,
    /// FIFO queue per machine (active job ids only).
    queues: Vec<Vec<usize>>,
    /// Recycled buffer of not-yet-assigned active-set indices.
    newcomers: Vec<u32>,
}

impl Mct {
    /// Fresh policy.
    pub fn new() -> Self {
        Mct::default()
    }
}

impl OnlineScheduler for Mct {
    fn name(&self) -> String {
        "MCT".into()
    }

    fn reset(&mut self) {
        self.assigned.clear();
        self.queues.clear();
        self.newcomers.clear();
    }

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Assignment happens lazily in `plan`, where the machine queue
        // lengths needed for the min-completion-time rule are known.
    }

    fn on_completion(&mut self, _now: f64, job_id: usize) {
        if let Some(i) = self.assigned.remove(&job_id) {
            self.queues[i].retain(|&k| k != job_id);
        }
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        // Evict dead machines' queues: their jobs become newcomers again
        // and the next `plan` re-runs the MCT rule over live machines —
        // "irrevocable" yields to survival when the machine is gone.
        for (i, q) in self.queues.iter_mut().enumerate() {
            if i < up.len() && !up[i] {
                for id in q.drain(..) {
                    self.assigned.remove(&id);
                }
            }
        }
    }

    fn snapshot_state(&self) -> String {
        let mut s = format!("nqueues {}\n", self.queues.len());
        for q in &self.queues {
            s.push_str("queue");
            for id in q {
                s.push_str(&format!(" {id}"));
            }
            s.push('\n');
        }
        s.push_str("assigned");
        for (job, machine) in &self.assigned {
            s.push_str(&format!(" {job}:{machine}"));
        }
        s.push('\n');
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut lines = state.lines();
        let head = lines.next().ok_or("MCT state: missing nqueues line")?;
        let n: usize = head
            .strip_prefix("nqueues ")
            .and_then(|v| v.parse().ok())
            .ok_or("MCT state: bad nqueues line")?;
        // `n` comes from the document: grow with the lines it supplies.
        self.queues.clear();
        for _ in 0..n {
            let line = lines.next().ok_or("MCT state: missing queue line")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("queue") {
                return Err("MCT state: bad queue line".into());
            }
            let q: Result<Vec<usize>, _> = toks.map(str::parse).collect();
            self.queues.push(q.map_err(|_| "MCT state: bad queue id")?);
        }
        let line = lines.next().ok_or("MCT state: missing assigned line")?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("assigned") {
            return Err("MCT state: bad assigned line".into());
        }
        for tok in toks {
            let (job, machine) = tok.split_once(':').ok_or("MCT state: bad assigned pair")?;
            self.assigned.insert(
                job.parse().map_err(|_| "MCT state: bad assigned job")?,
                machine
                    .parse()
                    .map_err(|_| "MCT state: bad assigned machine")?,
            );
        }
        Ok(())
    }

    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let n_machines = alloc.n_machines();
        let up = active.up();
        if self.queues.len() < n_machines {
            self.queues.resize(n_machines, Vec::new()); // dlflint:allow(alloc-in-hot-loop, "grows once to the machine count, then the guard keeps it allocation-free")
        }
        let job_of = |id: usize| active.iter().find(|a| a.id == id);

        // Assign any newly seen jobs, in release order (ties by id). The
        // unstable sort is safe: `(release, id)` is a total order with no
        // equal pairs, so the result matches a stable sort bit for bit.
        self.newcomers.clear();
        for k in 0..active.len() {
            if !self.assigned.contains_key(&active.get(k).id) {
                self.newcomers.push(k as u32);
            }
        }
        self.newcomers.sort_unstable_by(|&x, &y| {
            let a = active.get(x as usize);
            let b = active.get(y as usize);
            a.release.total_cmp(&b.release).then(a.id.cmp(&b.id))
        });
        for &k in &self.newcomers {
            let job = active.get(k as usize);
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n_machines {
                if !up[i] {
                    continue;
                }
                let Some(c) = job.cost(i) else {
                    continue;
                };
                // Backlog of still-active queued jobs on machine i.
                let backlog: f64 = self.queues[i]
                    .iter()
                    .map(|&k| job_of(k).map_or(0.0, |a| a.remaining * a.cost(i).unwrap_or(0.0)))
                    .sum();
                let completion = backlog + c; // relative to now
                if best.is_none_or(|(_, b)| completion < b) {
                    best = Some((i, completion));
                }
            }
            // Validated jobs always run somewhere; if one doesn't, leave
            // it unassigned and let the engine surface `Stalled`.
            let Some((i, _)) = best else { continue };
            self.assigned.insert(job.id, i);
            self.queues[i].push(job.id);
        }

        // Serve each live queue head (completions already pruned the
        // queues, so heads are always active; dead machines' queues were
        // evicted by `on_platform_change`).
        for i in 0..n_machines {
            if !up[i] {
                continue;
            }
            if let Some(&head) = self.queues[i].first() {
                alloc.set(i, head, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use dlflow_core::instance::InstanceBuilder;

    #[test]
    fn picks_machine_with_earliest_completion() {
        // M0 fast but will be busy; M1 slow but free.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // J0: 10 on M0, 100 on M1 → M0
        b.job(0.0, 1.0); // J1: 10 on M0 (behind J0 → 20), 15 on M1 → M1
        b.machine(vec![Some(10.0), Some(10.0)]);
        b.machine(vec![Some(100.0), Some(15.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Mct::new()).unwrap();
        assert!((res.completions[0] - 10.0).abs() < 1e-6);
        assert!((res.completions[1] - 15.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_within_machine() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Mct::new()).unwrap();
        let mut c = res.completions.clone();
        c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((c[0] - 4.0).abs() < 1e-6);
        assert!((c[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn respects_availability() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![None]);
        b.machine(vec![Some(3.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Mct::new()).unwrap();
        assert!((res.completions[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_is_irrevocable() {
        // A later fast arrival does not displace an earlier slow job.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // long job on the only useful machine
        b.job(1.0, 10.0); // urgent short job, same machine
        b.machine(vec![Some(10.0), Some(1.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Mct::new()).unwrap();
        // J1 waits for J0: completes at 11.
        assert!((res.completions[1] - 11.0).abs() < 1e-6);
    }

    #[test]
    fn state_is_pruned_on_completion() {
        // After a full run, no per-job state lingers (memory stays
        // O(|active|) on long traces).
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(2.0), Some(2.0)]);
        let inst = b.build().unwrap();
        let mut mct = Mct::new();
        simulate(&inst, &mut mct).unwrap();
        assert!(mct.assigned.is_empty());
        assert!(mct.queues.iter().all(|q| q.is_empty()));
    }
}
