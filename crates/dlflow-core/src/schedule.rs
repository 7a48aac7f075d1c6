//! Explicit schedules and their metrics.
//!
//! A schedule is a set of per-machine timelines of [`Slice`]s. Two
//! execution models share the representation:
//!
//! * **Divisible** (§3 "job divisibility"): a job may run on several
//!   machines *simultaneously* — a master hands different byte-ranges of
//!   the databank to different servers.
//! * **Preemptive** (§4.4): a job may be interrupted and resumed, possibly
//!   elsewhere, but never runs on two machines at the same instant.

use crate::instance::Instance;
use dlflow_num::Scalar;
use std::fmt;

/// A contiguous run of one job on one machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Slice<S> {
    /// Job index.
    pub job: usize,
    /// Start time (inclusive).
    pub start: S,
    /// End time (exclusive).
    pub end: S,
}

impl<S: Scalar> Slice<S> {
    /// Slice duration.
    pub fn duration(&self) -> S {
        self.end.sub(&self.start)
    }
}

/// Which execution model a schedule claims to satisfy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScheduleKind {
    /// Divisible load: simultaneous execution of one job on many machines allowed.
    Divisible,
    /// Preemption only: a job is on at most one machine at any instant.
    Preemptive,
}

/// An explicit schedule.
#[derive(Clone, Debug)]
pub struct Schedule<S> {
    /// `machines[i]` = time-ordered slices on machine `i`.
    pub machines: Vec<Vec<Slice<S>>>,
    /// Claimed execution model (checked by [`crate::validate::validate`]).
    pub kind: ScheduleKind,
}

impl<S: Scalar> Schedule<S> {
    /// An empty schedule on `m` machines.
    pub fn empty(m: usize, kind: ScheduleKind) -> Self {
        Schedule {
            machines: vec![Vec::new(); m],
            kind,
        }
    }

    /// Appends a slice to machine `i` (dropping zero-length slices).
    pub fn push(&mut self, machine: usize, slice: Slice<S>) {
        if !slice.duration().is_negligible() {
            self.machines[machine].push(slice);
        }
    }

    /// Sorts every machine timeline by start time and merges adjacent
    /// slices of the same job.
    pub fn normalize(&mut self) {
        for tl in &mut self.machines {
            tl.sort_by(|a, b| a.start.cmp_total(&b.start));
            let mut merged: Vec<Slice<S>> = Vec::with_capacity(tl.len());
            for s in tl.drain(..) {
                match merged.last_mut() {
                    Some(last) if last.job == s.job && last.end.sub(&s.start).is_negligible() => {
                        last.end = s.end;
                    }
                    _ => merged.push(s),
                }
            }
            *tl = merged;
        }
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Total number of slices.
    pub fn n_slices(&self) -> usize {
        self.machines.iter().map(Vec::len).sum()
    }

    /// Per-job completion time: the latest end over all its slices.
    /// `None` for jobs with no slice (which is only legitimate for
    /// zero-work jobs, whose completion is their release date).
    pub fn completion_times(&self, n_jobs: usize) -> Vec<Option<S>> {
        let mut c: Vec<Option<S>> = vec![None; n_jobs];
        for tl in &self.machines {
            for s in tl {
                let cur = &mut c[s.job];
                *cur = Some(match cur.take() {
                    None => s.end.clone(),
                    Some(v) => S::max_val(v, s.end.clone()),
                });
            }
        }
        c
    }

    /// Makespan: the latest slice end (zero for an empty schedule).
    pub fn makespan(&self) -> S {
        let mut best = S::zero();
        for tl in &self.machines {
            for s in tl {
                best = S::max_val(best, s.end.clone());
            }
        }
        best
    }

    /// Per-job slices (across machines), sorted by start time.
    pub fn job_slices(&self, n_jobs: usize) -> Vec<Vec<(usize, Slice<S>)>> {
        let mut out: Vec<Vec<(usize, Slice<S>)>> = vec![Vec::new(); n_jobs];
        for (i, tl) in self.machines.iter().enumerate() {
            for s in tl {
                out[s.job].push((i, s.clone()));
            }
        }
        for v in &mut out {
            v.sort_by(|a, b| a.1.start.cmp_total(&b.1.start));
        }
        out
    }

    /// Fraction of each job processed: `Σ duration / c[i][j]`.
    pub fn processed_fractions(&self, inst: &Instance<S>) -> Vec<S> {
        let mut frac = vec![S::zero(); inst.n_jobs()];
        for (i, tl) in self.machines.iter().enumerate() {
            for s in tl {
                match inst.cost(i, s.job).finite() {
                    Some(c) if !c.is_negligible() => {
                        frac[s.job] = frac[s.job].add(&s.duration().div(c));
                    }
                    Some(_zero_cost) => {
                        // Zero-cost job: any positive time processes it fully.
                        frac[s.job] = S::one();
                    }
                    None => {
                        // Slice on a forbidden machine: leave fraction short;
                        // the validator reports it as an availability breach.
                    }
                }
            }
        }
        frac
    }

    /// Maximum weighted flow `max_j w_j (C_j − r_j)` of the schedule.
    /// Jobs without slices contribute zero (completed at release).
    pub fn max_weighted_flow(&self, inst: &Instance<S>) -> S {
        let c = self.completion_times(inst.n_jobs());
        let mut worst = S::zero();
        for (j, cj) in c.into_iter().enumerate() {
            if let Some(cj) = cj {
                let flow = cj.sub(&inst.job(j).release);
                worst = S::max_val(worst, inst.job(j).weight.mul(&flow));
            }
        }
        worst
    }

    /// Maximum (unweighted) flow `max_j (C_j − r_j)`.
    pub fn max_flow(&self, inst: &Instance<S>) -> S {
        let c = self.completion_times(inst.n_jobs());
        let mut worst = S::zero();
        for (j, cj) in c.into_iter().enumerate() {
            if let Some(cj) = cj {
                worst = S::max_val(worst, cj.sub(&inst.job(j).release));
            }
        }
        worst
    }

    /// Number of preemptions: slice count minus job count (a job with k
    /// slices was interrupted k−1 times), counting only scheduled jobs.
    pub fn n_preemptions(&self, n_jobs: usize) -> usize {
        let per_job = self.job_slices(n_jobs);
        per_job
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| v.len() - 1)
            .sum()
    }
}

impl<S: Scalar> fmt::Display for Schedule<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, tl) in self.machines.iter().enumerate() {
            write!(f, "M{}:", i + 1)?;
            for s in tl {
                write!(f, " [{} J{} {})", s.start, s.job + 1, s.end)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn inst() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0); // J0
        b.job(1.0, 2.0); // J1
        b.machine(vec![Some(2.0), Some(4.0)]);
        b.machine(vec![Some(4.0), Some(2.0)]);
        b.build().unwrap()
    }

    fn sched() -> Schedule<f64> {
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 2.0,
            },
        ); // J0 fully on M0
        s.push(
            1,
            Slice {
                job: 1,
                start: 1.0,
                end: 3.0,
            },
        ); // J1 fully on M1
        s
    }

    #[test]
    fn metrics() {
        let i = inst();
        let s = sched();
        assert_eq!(s.makespan(), 3.0);
        assert_eq!(s.completion_times(2), vec![Some(2.0), Some(3.0)]);
        assert_eq!(s.processed_fractions(&i), vec![1.0, 1.0]);
        // flows: J0 = 2−0 = 2 (w=1 → 2); J1 = 3−1 = 2 (w=2 → 4).
        assert_eq!(s.max_weighted_flow(&i), 4.0);
        assert_eq!(s.max_flow(&i), 2.0);
        assert_eq!(s.n_preemptions(2), 0);
        assert_eq!(s.n_slices(), 2);
    }

    #[test]
    fn zero_length_slices_dropped() {
        let mut s = Schedule::<f64>::empty(1, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 1.0,
                end: 1.0,
            },
        );
        assert_eq!(s.n_slices(), 0);
    }

    #[test]
    fn normalize_merges_adjacent() {
        let mut s = Schedule::<f64>::empty(1, ScheduleKind::Preemptive);
        s.push(
            0,
            Slice {
                job: 0,
                start: 2.0,
                end: 3.0,
            },
        );
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 2.0,
            },
        );
        s.push(
            0,
            Slice {
                job: 1,
                start: 3.0,
                end: 4.0,
            },
        );
        s.normalize();
        assert_eq!(s.machines[0].len(), 2);
        assert_eq!(
            s.machines[0][0],
            Slice {
                job: 0,
                start: 0.0,
                end: 3.0
            }
        );
    }

    #[test]
    fn preemption_count() {
        let mut s = Schedule::<f64>::empty(2, ScheduleKind::Preemptive);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 1.0,
            },
        );
        s.push(
            1,
            Slice {
                job: 0,
                start: 2.0,
                end: 3.0,
            },
        );
        s.push(
            0,
            Slice {
                job: 1,
                start: 1.0,
                end: 2.0,
            },
        );
        assert_eq!(s.n_preemptions(2), 1);
    }

    #[test]
    fn partial_fraction_detected() {
        let i = inst();
        let mut s = Schedule::<f64>::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 1.0,
            },
        ); // half of J0
        assert_eq!(s.processed_fractions(&i), vec![0.5, 0.0]);
    }
}
