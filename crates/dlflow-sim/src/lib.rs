//! # dlflow-sim — streaming simulation core & campaign engine
//!
//! A deterministic fluid discrete-event simulator for divisible requests
//! on unrelated machines, built around a resumable incremental
//! [`engine::Engine`] (`push_arrival` / `step` / `drain`): per-event cost
//! and memory scale with the number of *in-flight* requests, not the
//! trace length, so open-arrival traces of 100k+ requests replay in
//! seconds. On top of it:
//!
//! * the online policies the paper's conclusion compares — **MCT**
//!   (Minimum Completion Time, the classical baseline), FIFO / SRPT /
//!   SWRPT / weighted-age / round-robin greedy variants, **EDF** on
//!   guessed deadlines, and **OLA**, the paper's proposal: re-solve the
//!   offline divisible max-weighted-flow problem at every event and
//!   follow its rates. All speak the event-notification
//!   [`engine::OnlineScheduler`] API and keep incremental state;
//! * an open-arrival [`workload`] layer: Poisson / bursty / diurnal
//!   arrival processes, the `.dlt` trace file format, and streaming
//!   replay ([`workload::Trace::replay`]);
//! * the [`campaign`] module — the paper's §6-style (platform × workload
//!   × seed × scheduler) tournament, run in parallel, every run scored
//!   against the **exact** Theorem-2 offline optimum;
//! * the [`service`] module — the replayable report API behind the
//!   `dlflow simulate` CLI subcommand, including fault injection and
//!   snapshot/resume. It streams every open trace through the one
//!   arrival feed, so a snapshot holds only the arrivals pushed so far,
//!   and its `next_id` is the cursor a resumed run streams on from;
//! * **fault tolerance**: machine failure/recovery as a third event
//!   stream ([`engine::PlatformEvent`], the seeded
//!   [`workload::FaultProcess`] generator, `.dlt` `fail`/`recover`
//!   directives) with work-loss semantics and scheduler degradation
//!   (every `plan` reads the live machines off
//!   [`engine::ActiveSet::up`]); crash-consistent
//!   [`engine::Engine::snapshot`] / [`engine::Engine::restore`] in the
//!   byte-stable `dlflow-snapshot v1` format ([`snapshot`]); and fault
//!   sweeps: a campaign config's `faults` line runs failure intensity ×
//!   scheduler against the fault-free exact optimum, reported as one
//!   tournament report per level ([`campaign::render_campaign`]).
//!
//! The closed-instance entry point [`engine::simulate`] remains a thin
//! wrapper over the engine; the seed's dense batch loop survives as
//! [`engine::simulate_dense`], the parity oracle of
//! `tests/prop_engine.rs`.
//!
//! ## Example
//!
//! ```
//! use dlflow_sim::engine::{simulate, RunMetrics};
//! use dlflow_sim::schedulers::{Mct, OfflineAdapt, Swrpt};
//! use dlflow_sim::workload::{generate, generate_trace, TraceSpec, WorkloadSpec};
//!
//! // Closed instance, two policies head to head.
//! let inst = generate(&WorkloadSpec { n_jobs: 5, ..Default::default() });
//! let mct = simulate(&inst, &mut Mct::new()).unwrap();
//! let ola = simulate(&inst, &mut OfflineAdapt::new()).unwrap();
//! let m1 = RunMetrics::from_completions(&inst, &mct.completions);
//! let m2 = RunMetrics::from_completions(&inst, &ola.completions);
//! assert!(m2.max_weighted_flow <= m1.max_weighted_flow * 1.5 + 1.0); // sanity
//!
//! // Open-arrival trace, streamed through the incremental engine.
//! let trace = generate_trace(&TraceSpec { n_requests: 50, ..Default::default() });
//! let stats = trace.replay(&mut Swrpt::new()).unwrap();
//! assert_eq!(stats.n_jobs, 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // rate-map code indexes machines/jobs in lockstep

pub mod campaign;
pub mod engine;
mod heap;
pub mod reference;
pub mod schedulers;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod workload;

pub use campaign::{
    parse_campaign, render_campaign, run_campaign, run_campaign_serial, run_fault_sweep,
    run_fault_sweep_serial, CampaignConfig, CampaignReport, RunRecord, SchedulerSpec, SweepLevel,
};
pub use engine::{
    simulate, simulate_dense, simulate_with_events, ActiveJob, ActiveSet, Allocation, CompletedJob,
    Engine, JobSpec, JobView, MetricsAccumulator, OnlineScheduler, PlatformChange, PlatformEvent,
    RunMetrics, SimError, SimResult, StepOutcome,
};
pub use reference::ReferenceEngine;
pub use service::{
    run_simulation, run_simulation_with, FaultInjection, ServiceReport, SimInput, SimOptions,
};
pub use shard::ShardedEngine;
pub use snapshot::SnapshotError;
pub use workload::{
    ensemble, generate, generate_trace, ArrivalProcess, FaultProcess, ReplayStats, Trace,
    TraceArrival, TraceSpec, WorkloadSpec,
};
