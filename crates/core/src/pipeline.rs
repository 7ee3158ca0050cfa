//! End-to-end preparation pipelines: hybrid (design-time) vs purely
//! run-time.
//!
//! The paper's headline efficiency claim: "by performing the bulk of
//! the computations at design time, we reduce the execution time of the
//! replacement technique by 10 times with respect to an equivalent
//! purely run-time one." The two functions here make that comparison
//! concrete and benchmarkable:
//!
//! * [`prepare_jobs_hybrid`] — the mobility of each *template* is
//!   computed once (design time, through a [`TemplateRegistry`]) and
//!   every instance reuses it; the per-arrival run-time cost is a memo
//!   lookup.
//! * [`prepare_jobs_runtime`] — an "equivalent purely run-time"
//!   pipeline recomputes the mobility at every graph arrival, the way a
//!   system without the design-time phase would have to.
//!
//! Both produce identical job sequences (same annotations), so the
//! simulated schedules agree — only the preparation cost differs.

use crate::mobility::{compute_mobility, MobilityError};
use crate::registry::TemplateRegistry;
use rtr_manager::{JobSpec, ManagerConfig};
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Annotates an application sequence the hybrid way: one design-time
/// mobility computation per distinct template.
pub fn prepare_jobs_hybrid(
    sequence: &[Arc<TaskGraph>],
    cfg: &ManagerConfig,
) -> Result<Vec<JobSpec>, MobilityError> {
    let registry = TemplateRegistry::new();
    sequence
        .iter()
        .map(|g| registry.instantiate(g, cfg, true))
        .collect()
}

/// Annotates an application sequence the purely run-time way: mobility
/// recomputed at every arrival (no template memo). Functionally
/// identical, deliberately wasteful — this is the baseline of the
/// paper's 10× claim.
pub fn prepare_jobs_runtime(
    sequence: &[Arc<TaskGraph>],
    cfg: &ManagerConfig,
) -> Result<Vec<JobSpec>, MobilityError> {
    sequence
        .iter()
        .map(|g| {
            let mobility = Arc::new(compute_mobility(g, cfg)?);
            Ok(JobSpec::new(Arc::clone(g)).with_mobility(mobility))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    #[test]
    fn hybrid_and_runtime_agree() {
        let cfg = ManagerConfig::paper_default();
        let tpls = [
            Arc::new(benchmarks::jpeg()),
            Arc::new(benchmarks::mpeg1()),
            Arc::new(benchmarks::hough()),
        ];
        let seq: Vec<Arc<TaskGraph>> = (0..9).map(|i| Arc::clone(&tpls[i % 3])).collect();
        let hybrid = prepare_jobs_hybrid(&seq, &cfg).unwrap();
        let runtime = prepare_jobs_runtime(&seq, &cfg).unwrap();
        assert_eq!(hybrid.len(), runtime.len());
        for (h, r) in hybrid.iter().zip(&runtime) {
            assert_eq!(h.mobility.as_deref(), r.mobility.as_deref());
            assert!(Arc::ptr_eq(&h.graph, &r.graph));
        }
    }

    #[test]
    fn hybrid_shares_annotations_across_instances() {
        let cfg = ManagerConfig::paper_default();
        let g = Arc::new(benchmarks::jpeg());
        let jobs = prepare_jobs_hybrid(&[Arc::clone(&g), Arc::clone(&g)], &cfg).unwrap();
        let a = jobs[0].mobility.as_ref().unwrap();
        let b = jobs[1].mobility.as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b), "hybrid instances share one mobility Arc");
    }
}
