//! Online scheduling policies.
//!
//! All eight speak the event-notification
//! [`OnlineScheduler`](crate::engine::OnlineScheduler) API: the engine
//! tells them about arrivals, completions and platform changes, those
//! with incremental state keep it, and `plan` sees only the active set
//! and the engine's row of live machines
//! ([`ActiveSet::up`](crate::engine::ActiveSet::up)) — never a closed
//! instance — so every policy runs unchanged on open-arrival traces of
//! any length.
//!
//! * [`mct::Mct`] — Minimum Completion Time, the classical heuristic the
//!   paper's conclusion names as the baseline its online adaptation beats
//!   (assignments pruned incrementally on completion).
//! * [`greedy::Srpt`], [`greedy::Swrpt`], [`greedy::WeightedAge`],
//!   [`greedy::FifoFastest`], [`greedy::RoundRobin`] — further classical
//!   list heuristics (preemptive, non-divisible).
//! * [`edf::Edf`] — Earliest Deadline First on guessed deadlines
//!   (`d̂_j = r_j + k·p̄_j/w_j`), the deadline-driven member of the
//!   comparison set (guesses computed in `plan`, no per-job state).
//! * [`offline_adapt::OfflineAdapt`] — the paper's proposal: re-solve the
//!   offline divisible max-weighted-flow problem at every event with the
//!   paper's milestone search (§4.3) and follow its first-interval rates
//!   (divisibility gives preemption for free). A single active job needs
//!   no LP, and a re-plan with several costs about two.

pub mod edf;
pub mod greedy;
pub mod mct;
pub mod offline_adapt;

pub use edf::Edf;
pub use greedy::{FifoFastest, RoundRobin, Srpt, Swrpt, WeightedAge};
pub use mct::Mct;
pub use offline_adapt::OfflineAdapt;
