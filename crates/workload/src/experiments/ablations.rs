//! Ablations beyond the paper's evaluation.
//!
//! * Dynamic-List window sweep (1–8 graphs): how much future knowledge
//!   Local LFD actually needs.
//! * Reconfiguration-latency sweep: where replacement stops mattering.
//! * Sequence-model sweep: burstier workloads give all policies more
//!   reuse, but the LFD-family advantage persists.

use crate::experiments::sweep;
use crate::parallel::default_workers;
use crate::policies::PolicyKind;
use crate::runner::CellConfig;
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_hw::DeviceSpec;
use rtr_manager::SimError;
use rtr_sim::SimDuration;
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Sweep of the Dynamic-List window for Local LFD (reuse % and
/// remaining overhead % on a fixed system).
pub fn dl_window_sweep(
    apps: usize,
    seed: u64,
    rus: usize,
    windows: &[usize],
) -> Result<Table, SimError> {
    let seq = SequenceModel::UniformRandom.generate(&multimedia_templates(), apps, seed);
    let results = sweep(windows.to_vec(), default_workers(), |runner, w| {
        let policy = PolicyKind::LocalLfd {
            window: w,
            skip: false,
        };
        let out = runner.run(&seq, &CellConfig::new(policy, rus))?;
        Ok((
            w,
            out.stats.reuse_rate_pct(),
            out.stats.remaining_overhead_pct(),
        ))
    })?;
    let mut t = Table::new(
        format!("Ablation — DL window sweep ({rus} RUs, {apps} apps)"),
        &["DL window", "Reuse (%)", "Remaining overhead (%)"],
    );
    for (w, reuse, rem) in results {
        t.push_row(vec![w.to_string(), fmt_f(reuse, 2), fmt_f(rem, 2)]);
    }
    Ok(t)
}

/// Sweep of the reconfiguration latency for a fixed policy pair.
pub fn latency_sweep(
    apps: usize,
    seed: u64,
    rus: usize,
    latencies_ms: &[u64],
) -> Result<Table, SimError> {
    let seq = SequenceModel::UniformRandom.generate(&multimedia_templates(), apps, seed);
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
    let results = sweep(grid, default_workers(), |runner, (l, policy)| {
        let mut cell = CellConfig::new(policy, rus);
        cell.device = DeviceSpec::paper_default().with_latency(SimDuration::from_ms(l));
        let out = runner.run(&seq, &cell)?;
        Ok((l, policy, out.stats.total_overhead().as_ms_f64()))
    })?;
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
    Ok(t)
}

/// Sweep of the sequence model (workload shape).
pub fn sequence_model_sweep(apps: usize, seed: u64, rus: usize) -> Result<Table, SimError> {
    let models: Vec<(&str, SequenceModel)> = vec![
        ("Uniform", SequenceModel::UniformRandom),
        ("Bursty 0.5", SequenceModel::Bursty { repeat_prob: 0.5 }),
        ("Bursty 0.8", SequenceModel::Bursty { repeat_prob: 0.8 }),
        ("RoundRobin", SequenceModel::RoundRobin),
    ];
    let tpls = multimedia_templates();
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
    let results = sweep(grid, default_workers(), |runner, (mi, policy)| {
        let out = runner.run(&sequences[mi], &CellConfig::new(policy, rus))?;
        Ok((mi, policy, out.stats.reuse_rate_pct()))
    })?;
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
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_sweep_reuse_is_monotonic_ish() {
        let t = dl_window_sweep(60, 5, 4, &[1, 2, 4, 8]).unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn latency_sweep_overhead_grows_with_latency() {
        let t = latency_sweep(40, 6, 4, &[1, 4, 16]).unwrap();
        let lfd: Vec<f64> = t.rows().map(|r| r.num("LFD")).collect();
        assert!(lfd[2] >= lfd[0]);
    }

    #[test]
    fn bursty_beats_uniform_reuse_for_lfd() {
        // A clairvoyant policy exploits bursts (immediate repeats of a
        // graph reuse its resident configurations); LRU may not — its
        // own loads evict the configs the repeat needs (the pathology
        // the paper's Fig. 2 illustrates).
        let t = sequence_model_sweep(300, 7, 4).unwrap();
        let lfd = |model: &str| {
            t.rows()
                .find(|r| r.get("Model") == model)
                .unwrap()
                .num("LFD")
        };
        let (uniform, bursty8) = (lfd("Uniform"), lfd("Bursty 0.8"));
        assert!(
            bursty8 > uniform,
            "bursty 0.8 ({bursty8}) should beat uniform ({uniform}) for LFD"
        );
    }
}
