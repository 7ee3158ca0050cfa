//! The design-time phase: mobility calculation (the paper's Fig. 6).
//!
//! A task's *mobility* is "how many events can be skipped before loading
//! a task without generating any additional delay". The algorithm:
//!
//! 1. Obtain the reference schedule (all mobilities 0) of the graph in
//!    isolation on the target system.
//! 2. For every task except the first in the reconfiguration sequence
//!    (its mobility is 0 by definition), tentatively increase its
//!    mobility and re-simulate with the load delayed that many events;
//!    keep increasing while the makespan does not exceed the reference,
//!    then restore the last feasible value.
//!
//! As in the paper, the probe schedules keep the mobilities already
//! assigned to earlier tasks (the assignments are jointly feasible by
//! construction). A delay whose "following event" never arrives (the
//! simulator reports [`rtr_manager::SimError`]) is infeasible and ends
//! the probing for that task.
//!
//! The per-task search is capped at `max_mobility` (default 64) to
//! bound design time on adversarial graphs; the cap is far above any
//! value reachable on the paper's graphs.

use rtr_manager::{simulate, FirstCandidatePolicy, JobSpec, ManagerConfig};
use rtr_sim::SimDuration;
use rtr_taskgraph::{reconfiguration_sequence, TaskGraph};
use std::fmt;
use std::sync::Arc;

/// Failures of the design-time phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MobilityError {
    /// The reference schedule itself could not be simulated (e.g. the
    /// graph needs more RUs than the system has and deadlocks — cannot
    /// happen for graphs produced by `rtr-taskgraph` builders, but the
    /// API reports it rather than panicking).
    ReferenceFailed(String),
}

impl fmt::Display for MobilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityError::ReferenceFailed(e) => {
                write!(f, "mobility calculation: reference schedule failed: {e}")
            }
        }
    }
}

impl std::error::Error for MobilityError {}

/// Computes per-node mobilities of `graph` on the system described by
/// `cfg` (RU count, reconfiguration latency and the reuse switch;
/// lookahead, skip, trace, prefetch and fault settings are irrelevant
/// for the single-graph probes and are overridden).
pub fn compute_mobility(
    graph: &Arc<TaskGraph>,
    cfg: &ManagerConfig,
) -> Result<Vec<u32>, MobilityError> {
    compute_mobility_capped(graph, cfg, 64)
}

/// [`compute_mobility`] with an explicit per-task search cap.
pub fn compute_mobility_capped(
    graph: &Arc<TaskGraph>,
    cfg: &ManagerConfig,
    max_mobility: u32,
) -> Result<Vec<u32>, MobilityError> {
    // Mobility is a property of the fault-free *demand* schedule:
    // probes force the speculative prefetcher and the fault plan off
    // (besides skip events and tracing), so a prefetching or faulty
    // caller gets the same budgets as a plain one — which is also what
    // keeps the registry's mobility memo key (template, RUs, latency)
    // complete.
    let probe_cfg = ManagerConfig {
        skip_events: false,
        record_trace: false,
        prefetch: rtr_manager::PrefetchConfig::off(),
        faults: rtr_manager::FaultPlan::off(),
        ..cfg.clone()
    };
    let reference = probe_makespan(graph, &probe_cfg, None)
        .map_err(|e| MobilityError::ReferenceFailed(e.to_string()))?;

    let seq = reconfiguration_sequence(graph);
    let mut mobility = vec![0u32; graph.len()];
    // Fig. 6 step 2: every task except the first in the sequence.
    for &node in seq.iter().skip(1) {
        // Fig. 6 steps 5-7: increase while feasible.
        while mobility[node.idx()] < max_mobility {
            mobility[node.idx()] += 1;
            let feasible = match probe_makespan(graph, &probe_cfg, Some(&mobility)) {
                Ok(makespan) => makespan <= reference,
                Err(_) => false, // waits for an event that never comes
            };
            if !feasible {
                // Fig. 6 step 8: restore the previous value.
                mobility[node.idx()] -= 1;
                break;
            }
        }
    }
    Ok(mobility)
}

/// Simulates the graph in isolation with optional forced delays and
/// returns the makespan.
fn probe_makespan(
    graph: &Arc<TaskGraph>,
    cfg: &ManagerConfig,
    delays: Option<&Vec<u32>>,
) -> Result<SimDuration, rtr_manager::SimError> {
    let mut job = JobSpec::new(Arc::clone(graph));
    if let Some(d) = delays {
        job = job.with_forced_delays(Arc::new(d.clone()));
    }
    let out = simulate(cfg, &[job], &mut FirstCandidatePolicy)?;
    Ok(out.stats.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    fn cfg() -> ManagerConfig {
        ManagerConfig::paper_default()
    }

    #[test]
    fn fig7_mobilities_match_paper() {
        // Fig. 7: for Task Graph 2 (T4..T7) on 4 RUs with 4 ms latency,
        // "the mobility of Task 5 is set to 0", "the mobility of Task 6
        // is also 0", "the mobility of Task 7 is set to 1".
        let g = Arc::new(benchmarks::fig3_tg2());
        let m = compute_mobility(&g, &cfg()).unwrap();
        assert_eq!(m, vec![0, 0, 0, 1]);
    }

    #[test]
    fn fig2_chains_have_zero_mobility() {
        let g = Arc::new(benchmarks::fig2_tg1());
        assert_eq!(compute_mobility(&g, &cfg()).unwrap(), vec![0, 0, 0]);
        let g2 = Arc::new(benchmarks::fig2_tg2());
        assert_eq!(compute_mobility(&g2, &cfg()).unwrap(), vec![0, 0]);
    }

    #[test]
    fn jpeg_chain_gains_mobility_deeper_in_the_pipe() {
        // Long executions ahead of a task create slack measured in
        // events: IDCT and ColorConv can be delayed past earlier
        // end-of-execution events for free.
        let g = Arc::new(benchmarks::jpeg());
        let m = compute_mobility(&g, &cfg()).unwrap();
        assert_eq!(m[0], 0, "first task is never probed");
        assert!(m[2] >= 1, "IDCT has event slack, got {m:?}");
        assert!(
            m[3] >= m[2],
            "later chain tasks have at least as much slack"
        );
    }

    #[test]
    fn single_node_graph_has_zero_mobility() {
        let mut b = rtr_taskgraph::TaskGraphBuilder::new("solo");
        b.node("t", rtr_taskgraph::ConfigId(1), SimDuration::from_ms(5));
        let g = Arc::new(b.build().unwrap());
        assert_eq!(compute_mobility(&g, &cfg()).unwrap(), vec![0]);
    }

    #[test]
    fn cap_bounds_search() {
        let g = Arc::new(benchmarks::jpeg());
        let m = compute_mobility_capped(&g, &cfg(), 1).unwrap();
        assert!(m.iter().all(|&x| x <= 1));
    }

    #[test]
    fn mobilities_never_degrade_reference() {
        // Joint-feasibility invariant: simulating with the full final
        // assignment reproduces the reference makespan.
        for g in [
            Arc::new(benchmarks::jpeg()),
            Arc::new(benchmarks::mpeg1()),
            Arc::new(benchmarks::hough()),
            Arc::new(benchmarks::fig3_tg2()),
        ] {
            let m = compute_mobility(&g, &cfg()).unwrap();
            let reference = probe_makespan(&g, &cfg().with_trace(false), None).unwrap();
            let delayed = probe_makespan(&g, &cfg().with_trace(false), Some(&m)).unwrap();
            assert_eq!(delayed, reference, "graph {}", g.name());
        }
    }
}
