//! # dlflow-cli — the `dlflow` command-line front end
//!
//! One binary, six subcommands, mapping one-to-one onto the library's
//! entry points:
//!
//! | subcommand | library entry point | paper artefact |
//! |---|---|---|
//! | `makespan` | `dlflow_core::makespan::min_makespan` | Theorem 1 |
//! | `maxflow` (`--preemptive`, `--stretch`) | `dlflow_core::maxflow` | Theorem 2 / §4.4 |
//! | `deadline` | `dlflow_core::deadline` | Lemma 1 |
//! | `milestones` | `dlflow_core::milestones` | the Theorem-2 breakpoints |
//! | `campaign` (`--out`, `--serial`) | `dlflow_sim::campaign`, `dlflow_sim::chaos` | the §6 tournament, or its fault sweep when the config has a `faults` line |
//! | `simulate` (`--scheduler`, `--json`) | `dlflow_sim::service` | the §5 online model, streamed |
//!
//! Instances are read from `.dlf` text files (parsed by [`mod@format`]
//! into exact-rational `Instance<Rat>` values), open-arrival traces from
//! `.dlt` files (replayed through the incremental engine with memory
//! bound by the in-flight request count), and campaigns from campaign
//! config files; all three formats are documented in `docs/FORMATS.md`.
//! `--gantt [width]` renders ASCII charts for any schedule-producing
//! subcommand; `simulate --json` emits a byte-stable, replayable report.
//!
//! This crate's library target exists for the parser and for end-to-end
//! tests; the binary (`src/main.rs`) is a thin argument-handling shell
//! over it.
//!
//! ## Example
//!
//! ```
//! use dlflow_cli::format::parse_instance;
//! use dlflow_core::maxflow::min_max_weighted_flow_divisible;
//!
//! let inst = parse_instance("
//!     job 0 1 blast-query
//!     job 1 2 prosite-scan
//!     machine 4 2
//!     machine 8 inf     # second databank absent here
//! ").unwrap();
//! let out = min_max_weighted_flow_divisible(&inst);
//! dlflow_core::validate::validate(&inst, &out.schedule).unwrap();
//! assert_eq!(out.schedule.max_weighted_flow(&inst), out.optimum);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
