//! # dlflow-core — the paper's contribution
//!
//! Off-line scheduling of divisible requests on an heterogeneous
//! collection of databanks (Legrand, Su, Vivien — IPPS/HCW 2005,
//! INRIA RR-5386), implemented in full:
//!
//! * **Theorem 1** ([`makespan::min_makespan`]): divisible makespan
//!   minimization via Linear Program (1) over release-date intervals.
//! * **Lemma 1** ([`deadline`]): deadline-window feasibility via
//!   System (2), with divisible and preemptive variants.
//! * **Theorem 2** ([`maxflow::min_max_weighted_flow_divisible`]): exact
//!   polynomial minimization of the maximum weighted flow
//!   `max_j w_j (C_j − r_j)` on unrelated machines in the divisible-load
//!   model — milestone enumeration ([`milestones`]), binary search with
//!   deadline-feasibility probes, and one parametric LP (System (3)) on
//!   the isolated milestone range.
//! * **§4.4** ([`maxflow::min_max_weighted_flow_preemptive`]): the same
//!   objective under preemption *without* divisibility — System (5) plus
//!   the Lawler–Labetoulle / Gonzalez–Sahni phase decomposition
//!   ([`decompose`]) rebuilding an explicit schedule in which a job never
//!   runs on two machines simultaneously.
//!
//! Everything is generic over [`dlflow_num::Scalar`]: use `Rat` for exact
//! optimality (the form the theorems are stated in) or `f64` for fast
//! sweeps. Every produced schedule can be re-checked from first
//! principles with [`validate::validate`].
//!
//! ## Quickstart
//!
//! ```
//! use dlflow_core::instance::InstanceBuilder;
//! use dlflow_core::maxflow::min_max_weighted_flow_divisible;
//! use dlflow_core::validate::validate;
//! use dlflow_num::Rat;
//!
//! // Two databank servers, two motif-comparison requests.
//! let mut b = InstanceBuilder::<Rat>::new();
//! b.job(Rat::zero(), Rat::one());               // r=0, w=1
//! b.job(Rat::from_i64(1), Rat::from_i64(2));    // r=1, w=2
//! b.machine(vec![Some(Rat::from_i64(4)), Some(Rat::from_i64(2))]);
//! b.machine(vec![Some(Rat::from_i64(8)), None]); // second databank absent
//! let inst = b.build().unwrap();
//!
//! let out = min_max_weighted_flow_divisible(&inst);
//! validate(&inst, &out.schedule).unwrap();
//! assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // matrix/interval code indexes parallel structures in lockstep
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod baselines;
pub mod deadline;
pub mod decompose;
mod flownet;
pub mod gantt;
pub mod instance;
pub mod intervals;
pub mod lp_build;
pub mod makespan;
pub mod matching;
pub mod maxflow;
pub mod milestones;
pub mod schedule;
pub mod uniform;
pub mod validate;

pub use instance::{Cost, Instance, InstanceBuilder, InstanceError, Job};
pub use makespan::{min_makespan, MakespanOutcome};
pub use maxflow::{
    feasible_at, min_max_stretch_divisible, min_max_weighted_flow_bisection,
    min_max_weighted_flow_divisible, min_max_weighted_flow_divisible_with,
    min_max_weighted_flow_preemptive, BisectionOutcome, FlowOutcome, FlowStats, ProbeMethod,
};
pub use schedule::{Schedule, ScheduleKind, Slice};
pub use validate::{validate, validate_with_objective, ValidationError};
