//! Fig. 9 — the paper's main performance evaluation.
//!
//! "We have executed a sequence of 500 applications randomly selected
//! from our set of benchmarks" (JPEG, MPEG-1, Hough) on systems with
//! 4–10 RUs:
//!
//! * Fig. 9a — reuse rates, ASAP (no skips): LRU, Local LFD (1/2/4), LFD.
//! * Fig. 9b — reuse rates with Skip Events: LRU, Local LFD (1),
//!   Local LFD (1) + Skip Events, LFD.
//! * Fig. 9c — % of the original reconfiguration overhead remaining:
//!   LRU, Local LFD (1/2/4) + Skip Events, LFD.
//!
//! The driver runs the full (policy × RU × seed) grid in parallel and
//! averages across seeds; the paper's single 500-app run corresponds to
//! one seed.

use crate::experiments::sweep;
use crate::policies::PolicyKind;
use crate::runner::CellConfig;
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_manager::SimError;
use rtr_taskgraph::TaskGraph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Grid parameters.
#[derive(Debug, Clone)]
pub struct Fig9Params {
    /// Applications per sequence (paper: 500).
    pub apps: usize,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// RU counts (paper: 4..=10).
    pub rus: Vec<usize>,
    /// Worker threads for the sweep.
    pub workers: usize,
}

impl Default for Fig9Params {
    fn default() -> Self {
        Fig9Params {
            apps: 500,
            seeds: vec![11, 22, 33],
            rus: (4..=10).collect(),
            workers: crate::parallel::default_workers(),
        }
    }
}

impl Fig9Params {
    /// A small grid for tests.
    pub fn smoke() -> Self {
        Fig9Params {
            apps: 60,
            seeds: vec![7],
            rus: vec![4, 6],
            workers: 2,
        }
    }
}

/// Averaged metrics of one (RU count, policy) cell.
#[derive(Debug, Clone)]
pub struct Fig9Cell {
    /// RU count.
    pub rus: usize,
    /// Policy.
    pub policy: PolicyKind,
    /// Mean reuse rate in percent.
    pub reuse_pct: f64,
    /// Mean remaining reconfiguration overhead in percent of the
    /// original overhead.
    pub remaining_pct: f64,
}

/// Runs the full grid for the given policies.
pub fn run_matrix(params: &Fig9Params, policies: &[PolicyKind]) -> Result<Vec<Fig9Cell>, SimError> {
    let templates = multimedia_templates();
    // Pre-generate one sequence per seed (shared template Arcs).
    let sequences: Vec<Vec<Arc<TaskGraph>>> = params
        .seeds
        .iter()
        .map(|&s| SequenceModel::UniformRandom.generate(&templates, params.apps, s))
        .collect();

    let mut grid: Vec<(usize, PolicyKind, usize)> = Vec::new();
    for &rus in &params.rus {
        for &policy in policies {
            for seed_idx in 0..params.seeds.len() {
                grid.push((rus, policy, seed_idx));
            }
        }
    }

    let results = sweep(grid, params.workers, |runner, (rus, policy, seed_idx)| {
        let out = runner.run(&sequences[seed_idx], &CellConfig::new(policy, rus))?;
        Ok((
            rus,
            policy,
            out.stats.reuse_rate_pct(),
            out.stats.remaining_overhead_pct(),
        ))
    })?;

    // Average over seeds, keyed by (rus, policy position): running sums
    // of reuse and remaining overhead plus the sample count.
    let policy_pos = |p: &PolicyKind| policies.iter().position(|q| q == p).expect("known policy");
    let mut acc: BTreeMap<(usize, usize), (f64, f64, u32)> = BTreeMap::new();
    for (rus, policy, reuse, remaining) in results {
        let e = acc
            .entry((rus, policy_pos(&policy)))
            .or_insert((0.0, 0.0, 0));
        e.0 += reuse;
        e.1 += remaining;
        e.2 += 1;
    }
    Ok(acc
        .into_iter()
        .map(|((rus, pos), (r, rem, n))| {
            let n = f64::from(n);
            Fig9Cell {
                rus,
                policy: policies[pos],
                reuse_pct: r / n,
                remaining_pct: rem / n,
            }
        })
        .collect())
}

/// Builds a paper-style table (rows = RU counts + "Avg.", one column per
/// policy) from a metric extractor.
fn metric_table(
    title: &str,
    cells: &[Fig9Cell],
    policies: &[PolicyKind],
    rus: &[usize],
    metric: impl Fn(&Fig9Cell) -> f64,
) -> Table {
    let mut headers: Vec<String> = vec!["RUs".to_string()];
    headers.extend(policies.iter().map(|p| p.label()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);

    let lookup = |r: usize, p: &PolicyKind| -> f64 {
        cells
            .iter()
            .find(|c| c.rus == r && &c.policy == p)
            .map(&metric)
            .expect("matrix covers the full grid")
    };
    for &r in rus {
        let mut row = vec![r.to_string()];
        row.extend(policies.iter().map(|p| fmt_f(lookup(r, p), 2)));
        table.push_row(row);
    }
    // The paper's "Avg." column group: average across RU counts.
    let mut avg_row = vec!["Avg.".to_string()];
    for p in policies {
        let mean = rus.iter().map(|&r| lookup(r, p)).sum::<f64>() / rus.len() as f64;
        avg_row.push(fmt_f(mean, 2));
    }
    table.push_row(avg_row);
    table
}

/// Fig. 9a: reuse rates, ASAP.
pub fn fig9a(params: &Fig9Params) -> Result<Table, SimError> {
    let policies = PolicyKind::fig9a_set();
    let cells = run_matrix(params, &policies)?;
    Ok(metric_table(
        "Fig. 9a — task reuse rate (%), ASAP (no skip events)",
        &cells,
        &policies,
        &params.rus,
        |c| c.reuse_pct,
    ))
}

/// Fig. 9b: reuse rates with Skip Events.
pub fn fig9b(params: &Fig9Params) -> Result<Table, SimError> {
    let policies = PolicyKind::fig9b_set();
    let cells = run_matrix(params, &policies)?;
    Ok(metric_table(
        "Fig. 9b — task reuse rate (%) with Skip Events",
        &cells,
        &policies,
        &params.rus,
        |c| c.reuse_pct,
    ))
}

/// Fig. 9c: remaining reconfiguration overhead.
pub fn fig9c(params: &Fig9Params) -> Result<Table, SimError> {
    let policies = PolicyKind::fig9c_set();
    let cells = run_matrix(params, &policies)?;
    Ok(metric_table(
        "Fig. 9c — remaining reconfiguration overhead (% of original)",
        &cells,
        &policies,
        &params.rus,
        |c| c.remaining_pct,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_covers_grid_and_orders_policies() {
        let params = Fig9Params::smoke();
        let policies = PolicyKind::fig9a_set();
        let cells = run_matrix(&params, &policies).unwrap();
        assert_eq!(cells.len(), params.rus.len() * policies.len());

        // Qualitative shape on every RU count: LFD >= Local LFD (4) >=
        // Local LFD(1) ~ and all >= LRU (small tolerance for ties).
        for &r in &params.rus {
            let get = |p: &PolicyKind| {
                cells
                    .iter()
                    .find(|c| c.rus == r && &c.policy == p)
                    .unwrap()
                    .reuse_pct
            };
            let lru = get(&PolicyKind::Lru);
            let l1 = get(&PolicyKind::LocalLfd {
                window: 1,
                skip: false,
            });
            let l4 = get(&PolicyKind::LocalLfd {
                window: 4,
                skip: false,
            });
            let lfd = get(&PolicyKind::Lfd);
            assert!(lfd + 1e-9 >= l4, "LFD {lfd} vs L4 {l4} at {r} RUs");
            assert!(l4 + 1e-9 >= l1 - 2.0, "L4 {l4} vs L1 {l1} at {r} RUs");
            assert!(lfd > lru, "LFD {lfd} vs LRU {lru} at {r} RUs");
        }
    }

    #[test]
    fn tables_have_rus_plus_avg_rows() {
        let params = Fig9Params::smoke();
        let t = fig9a(&params).unwrap();
        assert_eq!(t.len(), params.rus.len() + 1);
        assert!(t.to_markdown().contains("Avg."));
    }
}
