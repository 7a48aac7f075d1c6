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
//! The guess depends only on the job's release, weight and fastest cost,
//! which the active set carries bit for bit, so `plan` computes it afresh
//! and the policy keeps no per-job state.

use crate::engine::{ActiveSet, Allocation, JobView, OnlineScheduler};
use crate::schedulers::greedy::{assign_by_priority, RankScratch};

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
    scratch: RankScratch,
}

impl Default for Edf {
    fn default() -> Self {
        Edf {
            target: 2.0,
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

    fn on_arrival(&mut self, _now: f64, _job: JobView<'_>) {
        // Stateless: `plan` computes each guess from the active set.
    }

    fn on_completion(&mut self, _now: f64, _job_id: usize) {
        // Stateless: no per-job bookkeeping to drop.
    }

    fn on_platform_change(&mut self, _now: f64, _up: &[bool]) {
        // Stateless: `plan` reads the mask off the active set.
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        // Documents written while the policy cached its guesses hold one
        // `guess <id> <bits>` line per job in the system. `plan` computes
        // the same values, so they are checked and dropped.
        for line in state.lines() {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("guess") {
                return Err("EDF state: bad guess line".into());
            }
            toks.next()
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or("EDF state: bad guess id")?;
            toks.next()
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or("EDF state: bad guess bits")?;
        }
        Ok(())
    }

    fn plan(&mut self, _now: f64, active: &ActiveSet<'_>, alloc: &mut Allocation) {
        let target = self.target;
        assign_by_priority(&mut self.scratch, active, alloc, |a| -guess_of(target, a))
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
        let res = simulate(&inst, &mut Edf::with_target(3.0)).unwrap();
        assert!(res.completions.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn snapshots_with_cached_guesses_resume_to_the_straight_run() {
        use crate::campaign::SchedulerSpec;
        use crate::engine::Engine;
        use crate::service::{run_simulation, run_simulation_with, SimInput, SimOptions};
        use crate::snapshot::SnapshotError;
        use crate::workload::Trace;
        // Written at event 35 of the trace by an EDF that cached its
        // guesses, with two machines down: one `guess` line per active job.
        let snap = include_str!("../../tests/data/edf_guesses.snapshot");
        let text = include_str!("../../tests/data/edf_guesses.dlt");
        let trace = Trace::parse_dlt(text).unwrap();
        let guesses: Vec<&str> = snap.lines().filter(|l| l.starts_with("guess ")).collect();
        assert_eq!(guesses.len(), 6);

        let mut edf = Edf::new();
        let eng = Engine::restore(snap, &mut edf, trace.len()).unwrap();
        assert!(eng.snapshot(&edf).ends_with("\nscheduler EDF\nstate 0\n"));
        let bad = snap.replace(guesses[0], "guess 1 zz");
        match Engine::restore(&bad, &mut Edf::new(), trace.len()) {
            Err(SnapshotError::SchedulerState { reason }) => {
                assert_eq!(reason, "EDF state: bad guess bits");
            }
            other => panic!("want SchedulerState, got {other:?}"),
        }

        let spec = SchedulerSpec::parse_compact("edf").unwrap();
        let input = SimInput::Open(trace);
        let opts = SimOptions {
            resume: Some(snap.into()),
            ..Default::default()
        };
        let (mut resumed, _) = run_simulation_with(&input, &spec, &opts).unwrap();
        let straight = run_simulation(&input, &spec).unwrap();
        // A resumed report differs from the straight run only in its
        // peak in-flight count, counted since the snapshot.
        resumed.max_active = straight.max_active;
        assert_eq!(resumed.to_json(), straight.to_json());
    }
}
