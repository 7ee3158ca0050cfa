//! Experiment substrate: workload generation, policy grids, parallel
//! parameter sweeps and result tables for the paper's evaluation
//! (Fig. 9a/b/c, Tables I and II) plus the streaming-arrival, QoS,
//! fault and fleet experiments.
//!
//! * [`sequence`] — seeded application-sequence models (the paper's
//!   "sequence of 500 applications randomly selected from our set of
//!   benchmarks", plus weighted/bursty/round-robin variants).
//! * [`arrivals`] — seeded arrival processes (Poisson / periodic /
//!   bursty) stamping per-job arrival instants for the streaming
//!   engine; `ArrivalProcess::Batch` reproduces the paper's setting.
//! * [`policies`] — a serialisable policy selector that couples each
//!   policy with the manager configuration it needs (lookahead window,
//!   Skip Events flag).
//! * [`qos`] — declarative QoS class assignment (priority lanes and
//!   ideal-makespan-derived deadlines) for scenarios and experiments;
//!   the default spec reproduces the pre-QoS uniform workload.
//! * [`runner`] — runs one (policy × system) cell, preparing mobility
//!   annotations the hybrid way; includes a timing wrapper that
//!   attributes wall-clock cost to the replacement module.
//! * [`parallel`] — a deterministic parallel map on scoped threads,
//!   used for parameter sweeps.
//! * [`table`] — Markdown/CSV result tables.
//! * [`experiments`] — the per-figure/table drivers.
//! * [`vopr`] — the deterministic fuzz campaign behind the `vopr`
//!   binary: seeded case derivation, a run-to-run determinism check,
//!   replayable failure fingerprints and a greedy scenario minimiser.

pub mod arrivals;
pub mod experiments;
pub mod parallel;
pub mod policies;
pub mod qos;
pub mod runner;
pub mod scenario;
pub mod sequence;
pub mod table;
pub mod vopr;

pub use arrivals::{ArrivalError, ArrivalProcess};
pub use policies::PolicyKind;
pub use qos::QosSpec;
pub use runner::{run_cell, CellConfig};
pub use scenario::Scenario;
pub use sequence::SequenceModel;
pub use table::Table;
