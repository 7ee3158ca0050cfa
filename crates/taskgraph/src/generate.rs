//! Seeded random task-graph generators.
//!
//! Used by stress tests, property tests and the vopr fuzzer to exercise
//! the system far beyond the paper's three benchmark graphs.
//! All generators are deterministic given the caller's RNG, and every
//! produced graph satisfies the [`crate::TaskGraph`] invariants by
//! construction.

use crate::graph::{ConfigId, NodeId, TaskGraph, TaskGraphBuilder};
use rand::{Rng, RngExt};
use rtr_sim::SimDuration;

/// Parameters shared by the generators.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Inclusive range of per-task execution times, in microseconds.
    pub exec_us: (u64, u64),
    /// First configuration id to allocate. Each generated node consumes
    /// the next id unless `config_pool` is set.
    pub config_base: u32,
    /// When `Some(k)`, node configurations are drawn uniformly from
    /// `config_base .. config_base + k` instead of being unique — this
    /// creates *intra-* and *inter-graph* configuration sharing, an
    /// extension the paper does not evaluate but the replacement
    /// machinery must survive.
    pub config_pool: Option<u32>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            exec_us: (1_000, 30_000),
            config_base: 1_000,
            config_pool: None,
        }
    }
}

impl GenConfig {
    fn pick_exec<R: Rng>(&self, rng: &mut R) -> SimDuration {
        let (lo, hi) = self.exec_us;
        assert!(lo > 0 && lo <= hi, "invalid exec_us range");
        SimDuration::from_us(rng.random_range(lo..=hi))
    }

    fn pick_config<R: Rng>(&self, rng: &mut R, ordinal: u32) -> ConfigId {
        match self.config_pool {
            Some(k) if k > 0 => ConfigId(self.config_base + rng.random_range(0..k)),
            _ => ConfigId(self.config_base + ordinal),
        }
    }
}

/// A linear chain of `len` tasks.
pub fn chain<R: Rng>(rng: &mut R, name: &str, len: usize, cfg: &GenConfig) -> TaskGraph {
    assert!(len > 0, "chain length must be positive");
    let mut b = TaskGraphBuilder::new(name);
    let mut prev: Option<NodeId> = None;
    for i in 0..len {
        let id = b.node(
            format!("t{i}"),
            cfg.pick_config(rng, i as u32),
            cfg.pick_exec(rng),
        );
        if let Some(p) = prev {
            b.edge(p, id);
        }
        prev = Some(id);
    }
    b.build().expect("chain generator produces valid graphs")
}

/// A fork-join: one source, `branches` parallel middle tasks, one sink.
pub fn fork_join<R: Rng>(rng: &mut R, name: &str, branches: usize, cfg: &GenConfig) -> TaskGraph {
    assert!(branches > 0, "fork_join needs at least one branch");
    let mut b = TaskGraphBuilder::new(name);
    let src = b.node("fork", cfg.pick_config(rng, 0), cfg.pick_exec(rng));
    let mids: Vec<NodeId> = (0..branches)
        .map(|i| {
            b.node(
                format!("branch{i}"),
                cfg.pick_config(rng, 1 + i as u32),
                cfg.pick_exec(rng),
            )
        })
        .collect();
    let sink = b.node(
        "join",
        cfg.pick_config(rng, 1 + branches as u32),
        cfg.pick_exec(rng),
    );
    for m in &mids {
        b.edge(src, *m).edge(*m, sink);
    }
    b.build()
        .expect("fork_join generator produces valid graphs")
}

/// A layered DAG: `layers` ranks of `1..=max_width` nodes; every node has
/// at least one predecessor in the previous layer, plus extra edges with
/// probability `edge_prob`.
pub fn layered<R: Rng>(
    rng: &mut R,
    name: &str,
    layers: usize,
    max_width: usize,
    edge_prob: f64,
    cfg: &GenConfig,
) -> TaskGraph {
    assert!(
        layers > 0 && max_width > 0,
        "layered needs layers and width"
    );
    let mut b = TaskGraphBuilder::new(name);
    let mut ordinal = 0u32;
    let mut prev_layer: Vec<NodeId> = Vec::new();
    for layer in 0..layers {
        let width = rng.random_range(1..=max_width);
        let mut this_layer = Vec::with_capacity(width);
        for i in 0..width {
            let id = b.node(
                format!("l{layer}n{i}"),
                cfg.pick_config(rng, ordinal),
                cfg.pick_exec(rng),
            );
            ordinal += 1;
            if !prev_layer.is_empty() {
                // Guarantee connectivity to the previous layer...
                let anchor = prev_layer[rng.random_range(0..prev_layer.len())];
                b.edge(anchor, id);
                // ...plus optional extra edges.
                for &p in &prev_layer {
                    if p != anchor && rng.random_bool(edge_prob) {
                        b.edge(p, id);
                    }
                }
            }
            this_layer.push(id);
        }
        prev_layer = this_layer;
    }
    b.build().expect("layered generator produces valid graphs")
}

/// A series-parallel graph built by recursive composition: at each level
/// the generator either chains two sub-graphs or runs them in parallel
/// between a fork and a join node. `size_budget` bounds the node count.
pub fn series_parallel<R: Rng>(
    rng: &mut R,
    name: &str,
    size_budget: usize,
    cfg: &GenConfig,
) -> TaskGraph {
    let mut b = TaskGraphBuilder::new(name);
    let mut ordinal = 0u32;
    let budget = size_budget.max(1);
    let (_first, _last) = sp_rec(rng, &mut b, budget, cfg, &mut ordinal);
    b.build()
        .expect("series_parallel generator produces valid graphs")
}

/// Recursively emits a sub-graph and returns its (entry, exit) nodes.
fn sp_rec<R: Rng>(
    rng: &mut R,
    b: &mut TaskGraphBuilder,
    budget: usize,
    cfg: &GenConfig,
    ordinal: &mut u32,
) -> (NodeId, NodeId) {
    if budget <= 1 {
        let id = b.node(
            format!("sp{}", *ordinal),
            cfg.pick_config(rng, *ordinal),
            cfg.pick_exec(rng),
        );
        *ordinal += 1;
        return (id, id);
    }
    let left_budget = rng.random_range(1..budget);
    let right_budget = budget - left_budget;
    let (l_in, l_out) = sp_rec(rng, b, left_budget, cfg, ordinal);
    let (r_in, r_out) = sp_rec(rng, b, right_budget, cfg, ordinal);
    if rng.random_bool(0.5) {
        // Series composition.
        b.edge(l_out, r_in);
        (l_in, r_out)
    } else {
        // Parallel composition between fresh fork/join nodes.
        let fork = b.node(
            format!("sp{}f", *ordinal),
            cfg.pick_config(rng, *ordinal),
            cfg.pick_exec(rng),
        );
        *ordinal += 1;
        let join = b.node(
            format!("sp{}j", *ordinal),
            cfg.pick_config(rng, *ordinal),
            cfg.pick_exec(rng),
        );
        *ordinal += 1;
        b.edge(fork, l_in).edge(fork, r_in);
        b.edge(l_out, join).edge(r_out, join);
        (fork, join)
    }
}

/// An Erdős–Rényi-style DAG: `n` nodes, each pair `(i, j)` with `i < j`
/// connected with probability `p` (so the node order is the topological
/// order).
pub fn gnp_dag<R: Rng>(rng: &mut R, name: &str, n: usize, p: f64, cfg: &GenConfig) -> TaskGraph {
    assert!(n > 0, "gnp_dag needs at least one node");
    let mut b = TaskGraphBuilder::new(name);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            b.node(
                format!("g{i}"),
                cfg.pick_config(rng, i as u32),
                cfg.pick_exec(rng),
            )
        })
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(p) {
                b.edge(ids[i], ids[j]);
            }
        }
    }
    b.build().expect("gnp_dag generator produces valid graphs")
}

/// Generates a family of `count` distinct graph templates for workload
/// experiments, mixing all generator shapes. Config ids are segmented per
/// template (base + 100·index) unless a shared pool is requested.
pub fn template_family<R: Rng>(rng: &mut R, count: usize, base_cfg: &GenConfig) -> Vec<TaskGraph> {
    (0..count)
        .map(|i| {
            let mut cfg = base_cfg.clone();
            if cfg.config_pool.is_none() {
                cfg.config_base = base_cfg.config_base + 100 * i as u32;
            }
            let name = format!("tpl{i}");
            match i % 4 {
                0 => {
                    let len = rng.random_range(3..=8);
                    chain(rng, &name, len, &cfg)
                }
                1 => {
                    let branches = rng.random_range(2..=5);
                    fork_join(rng, &name, branches, &cfg)
                }
                2 => {
                    let layers = rng.random_range(2..=4);
                    layered(rng, &name, layers, 3, 0.4, &cfg)
                }
                _ => {
                    let budget = rng.random_range(4..=9);
                    series_parallel(rng, &name, budget, &cfg)
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn chain_has_line_structure() {
        let g = chain(&mut rng(), "c", 6, &GenConfig::default());
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.sources().count(), 1);
        assert_eq!(g.sinks().count(), 1);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(&mut rng(), "fj", 4, &GenConfig::default());
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.sources().count(), 1);
        assert_eq!(g.sinks().count(), 1);
    }

    #[test]
    fn layered_is_connected_to_previous_layer() {
        let g = layered(&mut rng(), "ly", 4, 3, 0.5, &GenConfig::default());
        // Every non-source node has at least one predecessor.
        let sources: Vec<_> = g.sources().collect();
        for id in g.node_ids() {
            if !sources.contains(&id) {
                assert!(!g.preds(id).is_empty());
            }
        }
    }

    #[test]
    fn series_parallel_single_source_sink_budgets() {
        for budget in [1usize, 2, 5, 12] {
            let g = series_parallel(&mut rng(), "sp", budget, &GenConfig::default());
            assert!(g.len() >= budget, "budget {budget} -> {} nodes", g.len());
        }
    }

    #[test]
    fn gnp_respects_probability_extremes() {
        let g0 = gnp_dag(&mut rng(), "p0", 10, 0.0, &GenConfig::default());
        assert_eq!(g0.edge_count(), 0);
        let g1 = gnp_dag(&mut rng(), "p1", 10, 1.0, &GenConfig::default());
        assert_eq!(g1.edge_count(), 45);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = template_family(&mut StdRng::seed_from_u64(7), 6, &GenConfig::default());
        let b = template_family(&mut StdRng::seed_from_u64(7), 6, &GenConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn config_pool_shares_configs() {
        let cfg = GenConfig {
            config_pool: Some(3),
            ..GenConfig::default()
        };
        let g = chain(&mut rng(), "pool", 20, &cfg);
        let distinct: std::collections::HashSet<_> = g.nodes().iter().map(|n| n.config).collect();
        assert!(distinct.len() <= 3);
    }

    #[test]
    fn unique_configs_without_pool() {
        let g = chain(&mut rng(), "uniq", 10, &GenConfig::default());
        let distinct: std::collections::HashSet<_> = g.nodes().iter().map(|n| n.config).collect();
        assert_eq!(distinct.len(), 10);
    }
}
