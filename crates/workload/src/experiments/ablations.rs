//! Ablations beyond the paper's evaluation (DESIGN.md §7).
//!
//! * Dynamic-List window sweep (1–8 graphs): how much future knowledge
//!   Local LFD actually needs.
//! * Reconfiguration-latency sweep: where replacement stops mattering.
//! * Sequence-model sweep: burstier workloads give all policies more
//!   reuse, but the LFD-family advantage persists.

use crate::parallel::parallel_map_with;
use crate::policies::PolicyKind;
use crate::runner::{pooled_workers, CellConfig};
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_core::TemplateRegistry;
use rtr_hw::DeviceSpec;
use rtr_sim::SimDuration;
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

fn templates() -> Vec<Arc<TaskGraph>> {
    rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Sweep of the Dynamic-List window for Local LFD (reuse % and
/// remaining overhead % on a fixed system).
pub fn dl_window_sweep(apps: usize, seed: u64, rus: usize, windows: &[usize]) -> Table {
    let seq = SequenceModel::UniformRandom.generate(&templates(), apps, seed);
    let registry = Arc::new(TemplateRegistry::new());
    let results = parallel_map_with(
        windows.to_vec(),
        crate::parallel::default_workers(),
        pooled_workers(&registry),
        |runner, w| {
            let cell = CellConfig::new(
                PolicyKind::LocalLfd {
                    window: w,
                    skip: false,
                },
                rus,
            );
            let out = runner.run(&seq, &cell).expect("sweep cell simulates");
            (
                w,
                out.stats.reuse_rate_pct(),
                out.stats.remaining_overhead_pct(),
            )
        },
    );
    let mut t = Table::new(
        format!("Ablation — DL window sweep ({rus} RUs, {apps} apps)"),
        &["DL window", "Reuse (%)", "Remaining overhead (%)"],
    );
    for (w, reuse, rem) in results {
        t.push_row(vec![w.to_string(), fmt_f(reuse, 2), fmt_f(rem, 2)]);
    }
    t
}

/// Sweep of the reconfiguration latency for a fixed policy pair.
pub fn latency_sweep(apps: usize, seed: u64, rus: usize, latencies_ms: &[u64]) -> Table {
    let seq = SequenceModel::UniformRandom.generate(&templates(), apps, seed);
    let grid: Vec<(u64, PolicyKind)> = latencies_ms
        .iter()
        .flat_map(|&l| {
            [
                (l, PolicyKind::Lru),
                (
                    l,
                    PolicyKind::LocalLfd {
                        window: 1,
                        skip: false,
                    },
                ),
                (l, PolicyKind::Lfd),
            ]
        })
        .collect();
    let registry = Arc::new(TemplateRegistry::new());
    let results = parallel_map_with(
        grid,
        crate::parallel::default_workers(),
        pooled_workers(&registry),
        |runner, (l, policy)| {
            let mut cell = CellConfig::new(policy, rus);
            cell.device = DeviceSpec::paper_default().with_latency(SimDuration::from_ms(l));
            let out = runner.run(&seq, &cell).expect("sweep cell simulates");
            (l, policy, out.stats.total_overhead().as_ms_f64())
        },
    );
    let mut t = Table::new(
        format!("Ablation — reconfiguration latency sweep ({rus} RUs, overhead in ms)"),
        &["Latency (ms)", "LRU", "Local LFD (1)", "LFD"],
    );
    for &l in latencies_ms {
        let get = |p: &PolicyKind| {
            results
                .iter()
                .find(|(ll, pp, _)| *ll == l && pp == p)
                .map(|(_, _, o)| *o)
                .expect("grid covered")
        };
        t.push_row(vec![
            l.to_string(),
            fmt_f(get(&PolicyKind::Lru), 1),
            fmt_f(
                get(&PolicyKind::LocalLfd {
                    window: 1,
                    skip: false,
                }),
                1,
            ),
            fmt_f(get(&PolicyKind::Lfd), 1),
        ]);
    }
    t
}

/// Tie-break ablation: the paper's first-candidate rule vs an LRU
/// tie-break among equally-distant victims, across DL windows.
pub fn tie_break_sweep(apps: usize, seed: u64, rus: usize) -> Table {
    use rtr_core::{LfdPolicy, TieBreak};
    use rtr_manager::{Engine, JobSpec, Lookahead, ManagerConfig};

    let seq = SequenceModel::UniformRandom.generate(&templates(), apps, seed);
    let jobs: Vec<JobSpec> = seq.iter().map(|g| JobSpec::new(Arc::clone(g))).collect();
    let mut t = Table::new(
        format!("Ablation — Local LFD tie-break ({rus} RUs, reuse % / overhead ms)"),
        &["DL window", "First candidate (paper)", "LRU tie-break"],
    );
    // One pooled engine serves all six runs; each `reset` is
    // bit-exact with a fresh `simulate` (the sweep's window axis is
    // a config change, not an engine rebuild).
    let base_cfg = ManagerConfig::paper_default()
        .with_rus(rus)
        .with_trace(false);
    let mut engine = Engine::new(&base_cfg);
    let run = |engine: &mut Engine, cfg: &ManagerConfig, policy: &mut LfdPolicy| {
        use rtr_manager::ReplacementPolicy;
        policy.reset();
        engine.reset(cfg, &jobs);
        engine.run(policy);
        engine.outcome().expect("tie-break cell simulates")
    };
    for window in [1usize, 2, 4] {
        let cfg = base_cfg.clone().with_lookahead(Lookahead::Graphs(window));
        let mut first = LfdPolicy::local(window);
        let a = run(&mut engine, &cfg, &mut first);
        let mut lru = LfdPolicy::local(window).with_tie_break(TieBreak::LeastRecentlyUsed);
        let b = run(&mut engine, &cfg, &mut lru);
        t.push_row(vec![
            window.to_string(),
            format!(
                "{} / {}",
                fmt_f(a.stats.reuse_rate_pct(), 2),
                fmt_f(a.stats.total_overhead().as_ms_f64(), 0)
            ),
            format!(
                "{} / {}",
                fmt_f(b.stats.reuse_rate_pct(), 2),
                fmt_f(b.stats.total_overhead().as_ms_f64(), 0)
            ),
        ]);
    }
    t
}

/// Sweep of the sequence model (workload shape).
pub fn sequence_model_sweep(apps: usize, seed: u64, rus: usize) -> Table {
    let models: Vec<(&str, SequenceModel)> = vec![
        ("Uniform", SequenceModel::UniformRandom),
        ("Bursty 0.5", SequenceModel::Bursty { repeat_prob: 0.5 }),
        ("Bursty 0.8", SequenceModel::Bursty { repeat_prob: 0.8 }),
        ("RoundRobin", SequenceModel::RoundRobin),
    ];
    let tpls = templates();
    let grid: Vec<(usize, PolicyKind)> = (0..models.len())
        .flat_map(|i| {
            [
                (i, PolicyKind::Lru),
                (
                    i,
                    PolicyKind::LocalLfd {
                        window: 1,
                        skip: false,
                    },
                ),
                (i, PolicyKind::Lfd),
            ]
        })
        .collect();
    let sequences: Vec<Vec<Arc<TaskGraph>>> = models
        .iter()
        .map(|(_, m)| m.generate(&tpls, apps, seed))
        .collect();
    let registry = Arc::new(TemplateRegistry::new());
    let results = parallel_map_with(
        grid,
        crate::parallel::default_workers(),
        pooled_workers(&registry),
        |runner, (mi, policy)| {
            let cell = CellConfig::new(policy, rus);
            let out = runner
                .run(&sequences[mi], &cell)
                .expect("sweep cell simulates");
            (mi, policy, out.stats.reuse_rate_pct())
        },
    );
    let mut t = Table::new(
        format!("Ablation — workload model sweep ({rus} RUs, reuse %)"),
        &["Model", "LRU", "Local LFD (1)", "LFD"],
    );
    for (mi, (name, _)) in models.iter().enumerate() {
        let get = |p: &PolicyKind| {
            results
                .iter()
                .find(|(m, pp, _)| *m == mi && pp == p)
                .map(|(_, _, r)| *r)
                .expect("grid covered")
        };
        t.push_row(vec![
            name.to_string(),
            fmt_f(get(&PolicyKind::Lru), 2),
            fmt_f(
                get(&PolicyKind::LocalLfd {
                    window: 1,
                    skip: false,
                }),
                2,
            ),
            fmt_f(get(&PolicyKind::Lfd), 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_sweep_reuse_is_monotonic_ish() {
        let t = dl_window_sweep(60, 5, 4, &[1, 2, 4, 8]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn tie_break_sweep_runs() {
        let t = tie_break_sweep(60, 9, 6);
        assert_eq!(t.len(), 3);
        assert!(t.to_markdown().contains("LRU tie-break"));
    }

    #[test]
    fn latency_sweep_overhead_grows_with_latency() {
        let t = latency_sweep(40, 6, 4, &[1, 4, 16]);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let overhead = |row: &str| -> f64 { row.split(',').nth(3).unwrap().parse().unwrap() };
        assert!(overhead(rows[2]) >= overhead(rows[0]));
    }

    #[test]
    fn bursty_beats_uniform_reuse_for_lfd() {
        // A clairvoyant policy exploits bursts (immediate repeats of a
        // graph reuse its resident configurations); LRU may not — its
        // own loads evict the configs the repeat needs (the pathology
        // the paper's Fig. 2 illustrates).
        let t = sequence_model_sweep(300, 7, 4);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let lfd = |row: &str| -> f64 { row.split(',').nth(3).unwrap().parse().unwrap() };
        let uniform = lfd(rows[0]);
        let bursty8 = lfd(rows[2]);
        assert!(
            bursty8 > uniform,
            "bursty 0.8 ({bursty8}) should beat uniform ({uniform}) for LFD"
        );
    }
}
