//! Independent schedule verification.
//!
//! The validator re-checks, from first principles, every property the
//! paper's constructions are supposed to guarantee. Tests and experiment
//! binaries run it on every schedule produced, so a bug in the LP
//! builders, the packer or the decomposition cannot silently produce
//! invalid "optima".

use crate::instance::Instance;
use crate::schedule::{Schedule, ScheduleKind};
use dlflow_num::Scalar;
use std::fmt;

/// A specific violated property.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // field names (machine/job/index) are self-describing
pub enum ValidationError {
    /// A slice has `end < start`.
    NegativeSlice { machine: usize, index: usize },
    /// Two slices on one machine overlap in time.
    MachineOverlap { machine: usize, index: usize },
    /// A slice starts before its job's release date.
    ReleaseViolated { machine: usize, job: usize },
    /// A slice runs a job on a machine lacking its databank.
    Unavailable { machine: usize, job: usize },
    /// A job's processed fraction differs from 1.
    IncompleteJob { job: usize, fraction_str: String },
    /// Preemptive model only: a job occupies two machines simultaneously.
    SimultaneousExecution { job: usize },
    /// A job index out of range.
    UnknownJob { machine: usize, job: usize },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NegativeSlice { machine, index } => {
                write!(f, "machine {machine}, slice {index}: negative duration")
            }
            ValidationError::MachineOverlap { machine, index } => {
                write!(
                    f,
                    "machine {machine}: slice {index} overlaps its predecessor"
                )
            }
            ValidationError::ReleaseViolated { machine, job } => {
                write!(
                    f,
                    "job {job} starts before its release date on machine {machine}"
                )
            }
            ValidationError::Unavailable { machine, job } => {
                write!(
                    f,
                    "job {job} scheduled on machine {machine} where its databank is absent"
                )
            }
            ValidationError::IncompleteJob { job, fraction_str } => {
                write!(f, "job {job} processed fraction {fraction_str} ≠ 1")
            }
            ValidationError::SimultaneousExecution { job } => {
                write!(
                    f,
                    "job {job} runs on two machines at the same time (preemptive model)"
                )
            }
            ValidationError::UnknownJob { machine, job } => {
                write!(f, "machine {machine} references unknown job {job}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a schedule against its instance and claimed execution model.
pub fn validate<S: Scalar>(inst: &Instance<S>, sched: &Schedule<S>) -> Result<(), ValidationError> {
    let n = inst.n_jobs();

    // Per-machine checks: well-formed, sorted, non-overlapping, released,
    // available.
    for (i, tl) in sched.machines.iter().enumerate() {
        let mut prev_end: Option<&S> = None;
        for (k, s) in tl.iter().enumerate() {
            if s.job >= n {
                return Err(ValidationError::UnknownJob {
                    machine: i,
                    job: s.job,
                });
            }
            if s.end.lt_tol(&s.start) {
                return Err(ValidationError::NegativeSlice {
                    machine: i,
                    index: k,
                });
            }
            if let Some(pe) = prev_end {
                if s.start.lt_tol(pe) {
                    return Err(ValidationError::MachineOverlap {
                        machine: i,
                        index: k,
                    });
                }
            }
            prev_end = Some(&s.end);
            if s.start.lt_tol(&inst.job(s.job).release) {
                return Err(ValidationError::ReleaseViolated {
                    machine: i,
                    job: s.job,
                });
            }
            if !inst.cost(i, s.job).is_finite() {
                return Err(ValidationError::Unavailable {
                    machine: i,
                    job: s.job,
                });
            }
        }
    }

    // Completion: fractions sum to 1. A job with a zero cost on some
    // machine needs no time there, so it is complete with or without a
    // slice: the packers emit none for it, and the objectives count a
    // job without slices as done at its release.
    let fractions = sched.processed_fractions(inst);
    for (j, frac) in fractions.iter().enumerate() {
        let free =
            (0..inst.n_machines()).any(|i| inst.cost(i, j).finite().is_some_and(S::is_negligible));
        if !free && !frac.sub(&S::one()).is_negligible() {
            return Err(ValidationError::IncompleteJob {
                job: j,
                fraction_str: format!("{frac}"),
            });
        }
    }

    // Preemptive model: the same job never on two machines at once.
    if sched.kind == ScheduleKind::Preemptive {
        let per_job = sched.job_slices(n);
        for (j, slices) in per_job.iter().enumerate() {
            // Slices are sorted by start; overlap ⇔ some start < previous end.
            let mut prev_end: Option<&S> = None;
            for (_m, s) in slices {
                if let Some(pe) = prev_end {
                    if s.start.lt_tol(pe) {
                        return Err(ValidationError::SimultaneousExecution { job: j });
                    }
                }
                prev_end = Some(&s.end);
            }
        }
    }

    Ok(())
}

/// Validates *and* checks the schedule's realized max weighted flow
/// against a claimed optimum.
pub fn validate_with_objective<S: Scalar>(
    inst: &Instance<S>,
    sched: &Schedule<S>,
    claimed: &S,
) -> Result<(), String> {
    validate(inst, sched).map_err(|e| e.to_string())?;
    let realized = sched.max_weighted_flow(inst);
    if realized.gt_tol(claimed) {
        return Err(format!(
            "realized max weighted flow {realized} exceeds claimed {claimed}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::schedule::Slice;

    fn inst() -> Instance<f64> {
        let mut b = InstanceBuilder::new();
        b.job(1.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(2.0), Some(2.0)]);
        b.machine(vec![None, Some(4.0)]);
        b.build().unwrap()
    }

    #[test]
    fn valid_divisible_schedule_passes() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 1.0,
                end: 3.0,
            },
        );
        s.push(
            1,
            Slice {
                job: 1,
                start: 0.0,
                end: 4.0,
            },
        );
        validate(&i, &s).unwrap();
    }

    #[test]
    fn release_violation_caught() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.5,
                end: 2.5,
            },
        ); // released at 1
        s.push(
            1,
            Slice {
                job: 1,
                start: 0.0,
                end: 4.0,
            },
        );
        assert_eq!(
            validate(&i, &s).unwrap_err(),
            ValidationError::ReleaseViolated { machine: 0, job: 0 }
        );
    }

    #[test]
    fn availability_violation_caught() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            1,
            Slice {
                job: 0,
                start: 1.0,
                end: 2.0,
            },
        ); // J0 forbidden on M1
        assert_eq!(
            validate(&i, &s).unwrap_err(),
            ValidationError::Unavailable { machine: 1, job: 0 }
        );
    }

    #[test]
    fn machine_overlap_caught() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 1.0,
                end: 3.0,
            },
        );
        s.push(
            0,
            Slice {
                job: 1,
                start: 2.0,
                end: 3.0,
            },
        );
        // normalize() sorts; overlap remains.
        s.normalize();
        assert!(matches!(
            validate(&i, &s),
            Err(ValidationError::MachineOverlap { .. })
        ));
    }

    #[test]
    fn incomplete_job_caught() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 1.0,
                end: 2.0,
            },
        ); // half of J0
        s.push(
            1,
            Slice {
                job: 1,
                start: 0.0,
                end: 4.0,
            },
        );
        assert!(matches!(
            validate(&i, &s),
            Err(ValidationError::IncompleteJob { job: 0, .. })
        ));
    }

    #[test]
    fn zero_cost_jobs_need_no_slice_but_others_do() {
        // Job 0 costs nothing on machine 0; job 1 costs 2 there.
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.job(0.0, 1.0);
        b.machine(vec![Some(0.0), Some(2.0)]);
        b.machine(vec![Some(3.0), Some(1.0)]);
        let i = b.build().unwrap();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        let slice = |job, end| Slice {
            job,
            start: 0.0,
            end,
        };
        s.push(1, slice(1, 1.0));
        validate(&i, &s).unwrap();
        // Omitting the positive-cost job still fails, as does a short one.
        let empty = Schedule::empty(2, ScheduleKind::Divisible);
        assert!(matches!(
            validate(&i, &empty),
            Err(ValidationError::IncompleteJob { job: 1, .. })
        ));
        let mut short = Schedule::empty(2, ScheduleKind::Divisible);
        short.push(1, slice(1, 0.5));
        assert!(matches!(
            validate(&i, &short),
            Err(ValidationError::IncompleteJob { job: 1, .. })
        ));
    }

    #[test]
    fn simultaneous_execution_caught_in_preemptive_only() {
        let mut b = InstanceBuilder::new();
        b.job(0.0, 1.0);
        b.machine(vec![Some(4.0)]);
        b.machine(vec![Some(4.0)]);
        let i = b.build().unwrap();
        let mut s = Schedule::empty(2, ScheduleKind::Preemptive);
        s.push(
            0,
            Slice {
                job: 0,
                start: 0.0,
                end: 2.0,
            },
        );
        s.push(
            1,
            Slice {
                job: 0,
                start: 0.0,
                end: 2.0,
            },
        );
        assert_eq!(
            validate(&i, &s).unwrap_err(),
            ValidationError::SimultaneousExecution { job: 0 }
        );
        // The identical slices are legal under the divisible model.
        let mut s2 = s.clone();
        s2.kind = ScheduleKind::Divisible;
        validate(&i, &s2).unwrap();
    }

    #[test]
    fn objective_check() {
        let i = inst();
        let mut s = Schedule::empty(2, ScheduleKind::Divisible);
        s.push(
            0,
            Slice {
                job: 0,
                start: 1.0,
                end: 3.0,
            },
        );
        s.push(
            1,
            Slice {
                job: 1,
                start: 0.0,
                end: 4.0,
            },
        );
        // Flows: J0 = 2, J1 = 4 → max weighted flow 4.
        validate_with_objective(&i, &s, &4.0).unwrap();
        assert!(validate_with_objective(&i, &s, &3.0).is_err());
    }
}
