//! The paper's contribution: configuration-replacement policies that
//! maximise task reuse, and the design-time phase of the hybrid
//! design-time/run-time technique.
//!
//! * [`lfd`] — the Longest-Forward-Distance policy. With the manager's
//!   `Lookahead::All` it is Belady's clairvoyant LFD (the paper's
//!   optimal-reuse upper bound); with `Lookahead::Graphs(w)` it is the
//!   paper's **Local LFD (w)**, which only sees the Dynamic List.
//! * [`history`] — the run-time baselines: LRU (the paper's main
//!   comparison point), and FIFO / MRU / LFU / Random, which widen the
//!   policy mix of the fuzzer and the property tests.
//! * [`mobility`] — the design-time phase (the paper's Fig. 6): per-task
//!   *mobility* values obtained by probing delayed schedules against the
//!   reference ASAP schedule.
//! * [`registry`] — the process-wide mobility memo
//!   ([`TemplateRegistry`]): mobility vectors computed once per
//!   template and system (the "bulk of the computations at design
//!   time"), shared across grid cells and worker threads. The `table2`
//!   binary times it against recomputing mobility at every arrival (the
//!   paper's 10× claim).

pub mod history;
pub mod lfd;
pub mod mobility;
pub mod registry;
mod stamp;

pub use history::{FifoPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy};
pub use lfd::LfdPolicy;
pub use mobility::{compute_mobility, MobilityError};
pub use registry::TemplateRegistry;
// The incremental next-occurrence index lives in `rtr-manager` (the
// engine maintains it), but it is the paper's decision-layer machinery,
// so the canonical path re-exports here.
pub use rtr_manager::{DecisionContext, ReuseIndex, ReuseWindow};
