//! The external task-graph execution manager (the paper's ref.&nbsp;9) and
//! the run-time replacement-module protocol (the paper's Figs. 4 and 8).
//!
//! The manager executes task graphs on a pool of reconfigurable units,
//! consuming jobs from an online arrival queue through the streaming
//! [`manager::Engine`] ([`simulate`] is its batch wrapper: every job
//! arrives at t = 0, reproducing the paper's fixed FIFO sequence). It
//! is *event triggered*: all scheduling actions happen at
//! `job_arrival`, `new_task_graph`, `end_of_reconfiguration` /
//! `reused_task` or `end_of_execution` events. Semantics (validated
//! against the paper's Figs. 2, 3 and 7 — see `tests/paper_examples.rs`):
//!
//! * Graphs execute strictly sequentially in service order: the
//!   highest QoS priority first, each priority in arrival order (so a
//!   run without priorities runs in arrival order); a graph's
//!   reconfigurations start when it becomes current. When no arrived
//!   job is waiting the manager idles with RU residency intact and
//!   resumes on the next arrival.
//! * Within the current graph, tasks load ASAP through the single
//!   reconfiguration port in the design-time *reconfiguration sequence*
//!   order (prefetch).
//! * A task whose configuration is already resident and unclaimed is
//!   *reused* — claimed with zero latency and zero energy.
//! * When every RU is occupied, the replacement module picks a victim
//!   among the RUs whose tasks finished executing. With *Skip Events*
//!   enabled, a reconfiguration whose selected victim will be reused
//!   within the visible future is delayed to the next event while the
//!   task's design-time *mobility* budget allows.
//!
//! The crate also provides the [`policy::ReplacementPolicy`] trait the
//! actual policies (in `rtr-core`) implement, a full schedule
//! [`trace::Trace`] with an invariant [`validate`] pass,
//! per-run [`stats`](stats::RunStats), and the zero-latency
//! [`ideal`] baseline used to express overheads the way the paper
//! does.

pub mod config;
pub(crate) mod engine;
pub mod fleet;
pub mod ideal;
pub mod job;
pub mod manager;
pub mod policy;
pub mod qos;
pub mod reuse_index;
pub mod stats;
pub mod trace;
pub mod validate;

pub use config::{FaultPlan, Lookahead, ManagerConfig, PrefetchConfig};
pub use fleet::{
    simulate_fleet, Fleet, FleetConfig, FleetError, FleetOutcome, FleetSpec, FleetStats,
    PlacementKind, PlacementPolicy, TenantStats,
};
pub use job::{JobSpec, TenantId};
pub use manager::{simulate, Engine, SimError, SimulationOutcome};
pub use policy::{
    DecisionContext, FirstCandidatePolicy, FutureView, ReplacementPolicy, VictimCandidate,
};
pub use qos::{PreemptionMode, QosClass};
pub use reuse_index::{ReuseIndex, ReuseWindow};
pub use stats::{ClassSojournStats, FaultStats, PrefetchStats, QosStats, RunStats};
pub use trace::{FaultKind, Trace, TraceCounts, TraceEvent};
pub use validate::{
    CheckContext, CheckOutput, Checker, CheckerOutcome, CheckerRegistry, RegistryReport, Violation,
};

// `Fleet::run` hands each device engine, with its policy, to a worker
// thread. A field that is not `Send` (a raw-pointer map key, say) would
// fail the build at that call site with a long trait-bound chain; this
// names the type that lost `Send` instead.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<Fleet>();
};
