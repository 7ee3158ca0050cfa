//! The design-time mobility memo.
//!
//! The paper's hybrid approach banks on "performing the bulk of the
//! computations at design time". Here the costly design-time result is
//! the *mobility* vector (the paper's Fig. 6), and [`TemplateRegistry`]
//! memoises it per `(template, system)`. Mobility depends on the RU
//! count, the reconfiguration latency and the reuse switch only: the
//! probe schedules run one graph alone, untraced, with skips, prefetch
//! and faults forced off, so that key is complete and cells that differ
//! only in policy, lookahead, prefetch depth or fault plan share one
//! entry.
//!
//! The registry is `Sync`: wrap it in an `Arc` and hand clones to
//! every worker of a parallel grid. It holds nothing else — each
//! [`Engine`](rtr_manager::Engine) computes the cheap structural
//! artifacts of its own templates. Every entry pins its graph `Arc`,
//! so the pointer identity used as the key can never be recycled while
//! the registry lives.

use crate::mobility::{compute_mobility, MobilityError};
use rtr_manager::{JobSpec, ManagerConfig};
use rtr_sim::{FxHashMap, FxHashSet};
use rtr_taskgraph::TaskGraph;
use std::sync::{Arc, RwLock};

/// The `ManagerConfig` fields mobility actually depends on (see
/// [`compute_mobility`]): the probe schedules run a single graph with
/// `FirstCandidatePolicy` and skips, traces, prefetch and faults off,
/// so none of those settings can influence the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MobilityKey {
    graph: usize,
    rus: usize,
    latency_us: u64,
}

impl MobilityKey {
    fn new(graph: &Arc<TaskGraph>, cfg: &ManagerConfig) -> Self {
        MobilityKey {
            graph: Arc::as_ptr(graph) as usize,
            rus: cfg.rus,
            latency_us: cfg.device.reconfig_latency.as_us(),
        }
    }
}

/// One memoised mobility vector and the graph its key points at.
#[derive(Debug)]
struct MobilityEntry {
    /// Pins the graph, so the key's address is never recycled.
    graph: Arc<TaskGraph>,
    mobility: Arc<Vec<u32>>,
}

/// Process-wide mobility memo, shared across grid cells and worker
/// threads.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    mobility: RwLock<FxHashMap<MobilityKey, MobilityEntry>>,
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mobility vector of `graph` on the system described by `cfg`,
    /// computed on first access per `(template, system)` pair.
    pub fn mobility(
        &self,
        graph: &Arc<TaskGraph>,
        cfg: &ManagerConfig,
    ) -> Result<Arc<Vec<u32>>, MobilityError> {
        let key = MobilityKey::new(graph, cfg);
        if let Some(hit) = self.mobility.read().expect("registry lock").get(&key) {
            return Ok(Arc::clone(&hit.mobility));
        }
        let computed = Arc::new(compute_mobility(graph, cfg)?);
        let mut map = self.mobility.write().expect("registry lock");
        // A racing thread may have inserted meanwhile; keep the first
        // entry so every instance shares one Arc.
        let entry = map.entry(key).or_insert_with(|| MobilityEntry {
            graph: Arc::clone(graph),
            mobility: computed,
        });
        Ok(Arc::clone(&entry.mobility))
    }

    /// Builds a job for one instance of `graph`, attaching the memoised
    /// mobility annotation when `with_mobility` is requested (policies
    /// using Skip Events need it; pure history policies do not).
    pub fn instantiate(
        &self,
        graph: &Arc<TaskGraph>,
        cfg: &ManagerConfig,
        with_mobility: bool,
    ) -> Result<JobSpec, MobilityError> {
        let job = JobSpec::new(Arc::clone(graph));
        if with_mobility {
            Ok(job.with_mobility(self.mobility(graph, cfg)?))
        } else {
            Ok(job)
        }
    }

    /// Number of distinct templates with a memoised mobility vector.
    pub fn templates(&self) -> usize {
        let map = self.mobility.read().expect("registry lock");
        let graphs: FxHashSet<*const TaskGraph> =
            map.values().map(|e| Arc::as_ptr(&e.graph)).collect();
        graphs.len()
    }

    /// Number of memoised `(template, system)` mobility entries.
    pub fn mobility_entries(&self) -> usize {
        self.mobility.read().expect("registry lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    #[test]
    fn mobility_is_memoised_per_system() {
        let reg = TemplateRegistry::new();
        let g = Arc::new(benchmarks::jpeg());
        let cfg4 = ManagerConfig::paper_default();
        let a = reg.mobility(&g, &cfg4).unwrap();
        let b = reg.mobility(&g, &cfg4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same system, one computation");
        assert_eq!(reg.mobility_entries(), 1);
        // A different RU count is a different system.
        let cfg3 = cfg4.clone().with_rus(3);
        let c = reg.mobility(&g, &cfg3).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.mobility_entries(), 2);
        // Lookahead/trace changes do NOT invalidate the memo.
        let cfg_look = cfg4.clone().with_lookahead(rtr_manager::Lookahead::All);
        let d = reg.mobility(&g, &cfg_look).unwrap();
        assert!(Arc::ptr_eq(&a, &d), "lookahead is mobility-irrelevant");
    }

    #[test]
    fn entries_pin_their_graphs() {
        // Dropping the caller's Arc must not free the graph while the
        // registry holds its address as a key: the entry owns a clone.
        let reg = TemplateRegistry::new();
        let g = Arc::new(benchmarks::mpeg1());
        let weak = Arc::downgrade(&g);
        reg.mobility(&g, &ManagerConfig::paper_default()).unwrap();
        drop(g);
        assert!(weak.upgrade().is_some(), "the entry keeps the graph alive");
        assert_eq!(reg.templates(), 1);
    }

    #[test]
    fn memoised_mobility_matches_direct_computation() {
        let reg = TemplateRegistry::new();
        let cfg = ManagerConfig::paper_default();
        for g in [
            Arc::new(benchmarks::jpeg()),
            Arc::new(benchmarks::mpeg1()),
            Arc::new(benchmarks::hough()),
            Arc::new(benchmarks::fig3_tg2()),
        ] {
            let memo = reg.mobility(&g, &cfg).unwrap();
            let direct = compute_mobility(&g, &cfg).unwrap();
            assert_eq!(*memo, direct, "graph {}", g.name());
        }
        assert_eq!(reg.templates(), 4);
    }

    #[test]
    fn instantiate_attaches_mobility_on_request() {
        let reg = TemplateRegistry::new();
        let cfg = ManagerConfig::paper_default();
        let g = Arc::new(benchmarks::hough());
        let plain = reg.instantiate(&g, &cfg, false).unwrap();
        assert!(plain.mobility.is_none());
        let annotated = reg.instantiate(&g, &cfg, true).unwrap();
        let again = reg.instantiate(&g, &cfg, true).unwrap();
        assert!(Arc::ptr_eq(
            annotated.mobility.as_ref().unwrap(),
            again.mobility.as_ref().unwrap()
        ));
    }

    #[test]
    fn fault_plans_do_not_leak_into_mobility() {
        // Probes run fault-free: a fault plan must not change mobility,
        // and since the memo key has no fault plan, whichever config
        // asks first must not decide what later queries are served.
        let g = Arc::new(benchmarks::mpeg1());
        let clean = ManagerConfig::paper_default().with_rus(2);
        let faulty = clean.clone().with_faults(rtr_manager::FaultPlan::high(3));
        let expected = vec![0, 0, 1, 1, 1];
        assert_eq!(compute_mobility(&g, &clean).unwrap(), expected);
        assert_eq!(compute_mobility(&g, &faulty).unwrap(), expected);
        let reg = TemplateRegistry::new();
        assert_eq!(*reg.mobility(&g, &faulty).unwrap(), expected);
        assert_eq!(*reg.mobility(&g, &clean).unwrap(), expected);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Arc::new(TemplateRegistry::new());
        let g = Arc::new(benchmarks::jpeg());
        let cfg = ManagerConfig::paper_default();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let g = Arc::clone(&g);
                let cfg = cfg.clone();
                std::thread::spawn(move || reg.mobility(&g, &cfg).unwrap().len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), g.len());
        }
        assert_eq!(reg.mobility_entries(), 1);
    }
}
