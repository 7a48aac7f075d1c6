//! Earliest Deadline First on *guessed* deadlines.
//!
//! The offline optimum turns the flow objective into deadline scheduling
//! (`d̄_j = r_j + F/w_j`, §4.3.1), but an online policy does not know the
//! optimal objective `F`. EDF-on-guesses substitutes a fixed per-job
//! guess: each job is given the deadline it would have if the final
//! objective were `target` times its own weighted fastest processing
//! time,
//!
//! ```text
//! d̂_j = r_j + target · p̄_j / w_j      (p̄_j = min_i c_{i,j})
//! ```
//!
//! and jobs are served earliest-guessed-deadline-first on their fastest
//! free machine. On stretch-weighted instances (`w_j = 1/p̄_j`) the guess
//! becomes `r_j + target · p̄_j²` — the classical "deadline = release +
//! stretch-bound × size" rule of online max-stretch algorithms (cf. the
//! Bender–Chakrabarti–Muthukrishnan O(1)-competitive scheme).
//!
//! The guess is fixed at arrival time, so the policy computes it once in
//! [`OnlineScheduler::on_arrival`] and keeps it in a map pruned on
//! completion — incremental state instead of per-plan recomputation.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler};
use crate::schedulers::greedy::{assign_by_priority, RankScratch};
use std::collections::BTreeMap;

/// The guessed deadline of a job under a given target factor.
fn guess_of(target: f64, job: JobView<'_>) -> f64 {
    job.release + target * job.fastest_cost() / job.weight.max(1e-12)
}

/// EDF on guessed deadlines (see module docs).
pub struct Edf {
    /// Multiplier applied to `p̄_j / w_j` when guessing job deadlines:
    /// the stretch (resp. weighted-flow) bound the policy "bets" the
    /// optimum will reach. Default 2.
    pub target: f64,
    /// Deadline guesses of the jobs currently in the system. `BTreeMap`
    /// keeps the policy's state deterministic however it is inspected.
    guesses: BTreeMap<usize, f64>,
    /// Platform availability mask (empty = all machines in service).
    up: Vec<bool>,
    scratch: RankScratch,
}

impl Default for Edf {
    fn default() -> Self {
        Edf {
            target: 2.0,
            guesses: BTreeMap::new(),
            up: Vec::new(),
            scratch: RankScratch::default(),
        }
    }
}

impl Edf {
    /// Fresh policy with the default target factor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh policy with an explicit target factor.
    pub(crate) fn with_target(target: f64) -> Self {
        assert!(target > 0.0, "EDF target factor must be positive");
        Edf {
            target,
            ..Self::default()
        }
    }
}

impl OnlineScheduler for Edf {
    fn name(&self) -> String {
        if (self.target - 2.0).abs() < 1e-12 {
            "EDF".into()
        } else {
            format!("EDF(k={})", self.target)
        }
    }

    fn reset(&mut self) {
        self.guesses.clear();
        self.up.clear();
    }

    fn on_arrival(&mut self, _now: f64, job: JobView<'_>) {
        let d = guess_of(self.target, job);
        self.guesses.insert(job.id, d);
    }

    fn on_completion(&mut self, _now: f64, job_id: usize) {
        self.guesses.remove(&job_id);
    }

    fn on_platform_change(&mut self, _now: f64, up: &[bool]) {
        // Guessed deadlines are machine-independent; only the mask used
        // by the fastest-free-machine assignment needs updating.
        self.up.clear();
        self.up.extend_from_slice(up);
    }

    fn snapshot_state(&self) -> String {
        // Guesses are f64s serialized as bit patterns: restore must
        // reproduce the exact priorities, not a near-equal reparse.
        let mut s = String::new();
        for (id, d) in &self.guesses {
            s.push_str(&format!("guess {id} {:016x}\n", d.to_bits()));
        }
        s
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        for line in state.lines() {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("guess") {
                return Err("EDF state: bad guess line".into());
            }
            let id: usize = toks
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("EDF state: bad guess id")?;
            let bits = toks
                .next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or("EDF state: bad guess bits")?;
            self.guesses.insert(id, f64::from_bits(bits));
        }
        Ok(())
    }

    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let target = self.target;
        let guesses = &self.guesses;
        assign_by_priority(&mut self.scratch, active, &self.up, alloc, |a| {
            // Cached at arrival; recomputed only if a driver skipped the
            // arrival notification.
            -guesses
                .get(&a.id)
                .copied()
                .unwrap_or_else(|| guess_of(target, a))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use dlflow_core::instance::InstanceBuilder;

    #[test]
    fn serves_tightest_guessed_deadline_first() {
        // J0: long, early. J1: short, slightly later — its guessed
        // deadline (1 + 2·2 = 5) beats J0's (0 + 2·10 = 20), so EDF
        // preempts the long job.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(1.0, 1.0);
        b.machine(vec![Some(10.0), Some(2.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Edf::new()).unwrap();
        assert!((res.completions[1] - 3.0).abs() < 1e-6);
        assert!((res.completions[0] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn weight_tightens_the_guess() {
        // Identical jobs except weight: the heavy job's guessed deadline
        // is earlier, so it is served first.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 10.0);
        b.machine(vec![Some(4.0), Some(4.0)]);
        let inst = b.build().unwrap();
        let res = simulate(&inst, &mut Edf::new()).unwrap();
        assert!(res.completions[1] < res.completions[0]);
    }

    #[test]
    fn completes_on_restricted_platforms() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.5, 2.0);
        b.machine(vec![Some(2.0), None]);
        b.machine(vec![Some(3.0), Some(1.5)]);
        let inst = b.build().unwrap();
        let mut edf = Edf::with_target(3.0);
        let res = simulate(&inst, &mut edf).unwrap();
        assert!(res.completions.iter().all(|c| c.is_finite()));
        // Guess cache is pruned on completion.
        assert!(edf.guesses.is_empty());
    }
}
