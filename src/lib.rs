//! # reconfig-reuse
//!
//! A full Rust reproduction of *"A Replacement Technique to Maximize
//! Task Reuse in Reconfigurable Systems"* (Clemente et al., IPDPS
//! Workshops / RAW 2011): the **Local LFD** configuration-replacement
//! policy with the **Skip Events** mobility feature, running on a
//! discrete-event simulator of a multi-RU dynamically reconfigurable
//! system driven by the event-triggered task-graph execution manager of
//! the paper's ref.&nbsp;9.
//!
//! This facade crate re-exports the workspace layers under stable
//! module names:
//!
//! * [`taskgraph`] — DAG substrate, benchmark graphs, generators.
//! * [`sim`] — discrete-event kernel (time, queues, Gantt rendering).
//! * [`hw`] — RU pool, reconfiguration controller, traffic and energy
//!   accounting.
//! * [`manager`] — the execution manager, policy trait, traces,
//!   validation, ideal baselines.
//! * [`core`] — the paper's contribution: LFD / Local LFD, the LRU &
//!   friends baselines, mobility calculation, design-time template
//!   registry.
//! * [`workload`] — experiment harness: sequence generators, sweeps,
//!   metric tables.
//!
//! ## Quickstart
//!
//! ```
//! use reconfig_reuse::prelude::*;
//! use std::sync::Arc;
//!
//! // Two multimedia applications from the paper, executed in an
//! // alternating FIFO sequence on 6 RUs with 4 ms reconfigurations.
//! let jpeg = Arc::new(taskgraph::benchmarks::jpeg());
//! let mpeg = Arc::new(taskgraph::benchmarks::mpeg1());
//! let jobs: Vec<JobSpec> = [&jpeg, &mpeg, &jpeg, &mpeg]
//!     .iter()
//!     .map(|g| JobSpec::new(Arc::clone(g)))
//!     .collect();
//!
//! let cfg = ManagerConfig::paper_default()
//!     .with_rus(6)
//!     .with_lookahead(Lookahead::Graphs(1));
//! let mut policy = LfdPolicy::local(1);
//! let out = manager::simulate(&cfg, &jobs, &mut policy).unwrap();
//! println!(
//!     "reuse {:.1}%  overhead {}",
//!     out.stats.reuse_rate_pct(),
//!     out.stats.total_overhead()
//! );
//! assert!(out.stats.reuses > 0);
//! ```

#![warn(missing_docs)]

pub use rtr_core as core;
pub use rtr_hw as hw;
pub use rtr_manager as manager;
pub use rtr_sim as sim;
pub use rtr_taskgraph as taskgraph;
pub use rtr_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::core::{
        compute_mobility, FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy,
        TemplateRegistry,
    };
    pub use crate::hw::{DeviceSpec, RuId, RuPool};
    pub use crate::manager::{
        simulate, JobSpec, Lookahead, ManagerConfig, ReplacementPolicy, RunStats, Trace,
    };
    pub use crate::sim::{SimDuration, SimTime};
    pub use crate::taskgraph::{self, ConfigId, NodeId, TaskGraph, TaskGraphBuilder};
    pub use crate::{hw, manager, sim, workload};
}
