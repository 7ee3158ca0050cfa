//! Task-graph substrate for the `reconfig-reuse` workspace.
//!
//! Applications targeting the reconfigurable system are Directed Acyclic
//! Graphs (DAGs): nodes are hardware tasks (each identified by the
//! *configuration* — bitstream — it needs and an execution time), edges
//! are data dependencies. This crate provides:
//!
//! * [`TaskGraph`] — an arena-backed immutable DAG with `u32` ids,
//!   validated at construction ([`TaskGraphBuilder`]).
//! * [`analysis`] — ASAP/ALAP times, critical path, slack, levels.
//! * [`recseq`] — the design-time *reconfiguration sequence* (the order
//!   in which the execution manager loads a graph's tasks).
//! * [`benchmarks`] — the paper's graphs: the Fig. 2 and Fig. 3
//!   motivational examples (validated against the paper's numbers) and
//!   reconstructions of the JPEG / MPEG-1 / Hough multimedia applications.
//! * [`generate`] — seeded random DAG generators (layered, chain,
//!   fork-join, series-parallel) for stress tests and the fuzzer.
//! * [`serialize`] — JSON import/export.

pub mod analysis;
pub mod benchmarks;
pub mod generate;
pub mod graph;
pub mod recseq;
pub mod serialize;
pub mod topo;

pub use graph::{ConfigId, GraphError, NodeId, TaskGraph, TaskGraphBuilder, TaskNode};
pub use recseq::reconfiguration_sequence;
