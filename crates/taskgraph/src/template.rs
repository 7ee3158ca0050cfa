//! Interned graph templates and their design-time artifacts.
//!
//! The paper's hybrid approach "performs the bulk of the computations
//! at design time": for every *template* (distinct task graph) the
//! reconfiguration sequence, its configuration projection and the
//! predecessor counts are fixed properties, yet a sweep instantiates
//! each template thousands of times across jobs, replications and grid
//! cells. [`TemplateSet`] is the shared intern table that computes
//! these artifacts exactly once per template and hands out
//! [`Arc<TemplateArtifacts>`] clones — safe to share across worker
//! threads and engine resets.
//!
//! Identity is the `Arc<TaskGraph>` allocation (pointer identity, like
//! the rest of the workspace): two structurally equal graphs behind
//! different `Arc`s are different templates. Every entry keeps a clone
//! of its graph `Arc` alive, so a key's address can never be recycled
//! for a different graph while the set holds it — pointer keys stay
//! unambiguous for the set's whole lifetime.

use crate::graph::{ConfigId, NodeId, TaskGraph};
use crate::recseq::reconfiguration_sequence;
use rtr_sim::FxHashMap;
use std::sync::{Arc, RwLock};

/// The design-time artifacts of one graph template: everything the
/// run-time manager walks instead of recomputing.
#[derive(Debug)]
pub struct TemplateArtifacts {
    /// The template graph (kept alive so the interning pointer key
    /// stays valid).
    pub graph: Arc<TaskGraph>,
    /// The reconfiguration sequence (load order, the paper's §III).
    pub rec_seq: Arc<Vec<NodeId>>,
    /// Configuration of each `rec_seq` entry — the request stream the
    /// replacement module sees.
    pub cfg_seq: Arc<Vec<ConfigId>>,
    /// Per-node predecessor counts (indexed by node id) — the initial
    /// dependency state of every instance, copied into the engine's
    /// recycled node records instead of being re-derived per
    /// activation.
    pub pred_counts: Arc<Vec<u32>>,
}

impl TemplateArtifacts {
    /// Runs the design-time phase for `graph`.
    pub fn compute(graph: &Arc<TaskGraph>) -> Arc<Self> {
        let rec_seq = reconfiguration_sequence(graph);
        let cfg_seq = rec_seq.iter().map(|&n| graph.config_of(n)).collect();
        let pred_counts = graph
            .node_ids()
            .map(|id| graph.preds(id).len() as u32)
            .collect();
        Arc::new(TemplateArtifacts {
            graph: Arc::clone(graph),
            rec_seq: Arc::new(rec_seq),
            cfg_seq: Arc::new(cfg_seq),
            pred_counts: Arc::new(pred_counts),
        })
    }
}

/// A thread-safe intern table of [`TemplateArtifacts`], keyed by graph
/// identity. Clone the `Arc<TemplateSet>` into every engine and worker
/// of a sweep so each distinct template is analysed once per process,
/// not once per cell.
#[derive(Debug, Default)]
pub struct TemplateSet {
    entries: RwLock<FxHashMap<usize, Arc<TemplateArtifacts>>>,
}

impl TemplateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the artifacts of `graph`, computing them on first
    /// access. Concurrent first accesses are serialised by the write
    /// lock, so the computation runs once.
    pub fn get_or_compute(&self, graph: &Arc<TaskGraph>) -> Arc<TemplateArtifacts> {
        let key = Arc::as_ptr(graph) as usize;
        if let Some(hit) = self.entries.read().expect("template set lock").get(&key) {
            return Arc::clone(hit);
        }
        let mut entries = self.entries.write().expect("template set lock");
        Arc::clone(
            entries
                .entry(key)
                .or_insert_with(|| TemplateArtifacts::compute(graph)),
        )
    }

    /// Number of distinct templates interned.
    pub fn len(&self) -> usize {
        self.entries.read().expect("template set lock").len()
    }

    /// True when nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn artifacts_match_direct_computation() {
        let g = Arc::new(benchmarks::jpeg());
        let tpl = TemplateArtifacts::compute(&g);
        assert_eq!(*tpl.rec_seq, reconfiguration_sequence(&g));
        let cfgs: Vec<ConfigId> = tpl.rec_seq.iter().map(|&n| g.config_of(n)).collect();
        assert_eq!(*tpl.cfg_seq, cfgs);
        for id in g.node_ids() {
            assert_eq!(tpl.pred_counts[id.idx()], g.preds(id).len() as u32);
        }
    }

    #[test]
    fn set_interns_by_graph_identity() {
        let set = TemplateSet::new();
        let g = Arc::new(benchmarks::jpeg());
        let a = set.get_or_compute(&g);
        let b = set.get_or_compute(&g);
        assert!(Arc::ptr_eq(&a, &b), "same template, same artifacts");
        assert_eq!(set.len(), 1);
        // A structurally identical but distinct allocation is a
        // different template.
        let g2 = Arc::new(benchmarks::jpeg());
        let c = set.get_or_compute(&g2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn entries_pin_their_graphs() {
        // Dropping the caller's Arc must not free the graph while the
        // set holds its key: the entry owns a clone.
        let set = TemplateSet::new();
        let tpl = {
            let g = Arc::new(benchmarks::mpeg1());
            set.get_or_compute(&g)
        };
        assert_eq!(tpl.graph.name(), "MPEG-1");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn set_is_shareable_across_threads() {
        let set = Arc::new(TemplateSet::new());
        let g = Arc::new(benchmarks::hough());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let set = Arc::clone(&set);
                let g = Arc::clone(&g);
                std::thread::spawn(move || set.get_or_compute(&g).rec_seq.len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), g.len());
        }
        assert_eq!(set.len(), 1);
    }
}
