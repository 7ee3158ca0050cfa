//! `fig_qos` — preemptive, deadline-aware scheduling under streaming
//! arrivals.
//!
//! Sweeps preemption mode × QoS class mix × arrival intensity on the
//! multimedia workload. Every `stride`-th application is promoted to a
//! high-priority lane with a deadline derived from its ideal makespan;
//! the engine either ignores the lanes for suspension
//! ([`PreemptionMode::Off`] — the run-to-completion baseline), kills
//! in-flight work on preemption (`Kill`, replaying it later), or
//! checkpoints it (`Checkpoint`, resuming the remainder plus a restore
//! penalty). Reported per cell: the promoted class's deadline-miss
//! rate and sojourn percentiles, the best-effort class's mean sojourn
//! (the price the low lane pays), the preemption/checkpoint/replay
//! counters with the lost-work total, and the run's reuse rate — the
//! configuration-reuse cost of preemption, which disturbs residency.
//!
//! The uniform-mix `Off` rows are the plain streaming path: a default
//! [`CellConfig`] already has preemption off and every job in the
//! default class.

use crate::arrivals::ArrivalProcess;
use crate::parallel::parallel_map_with;
use crate::policies::PolicyKind;
use crate::qos::QosSpec;
use crate::runner::{pooled_workers, CellConfig};
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_core::TemplateRegistry;
use rtr_manager::PreemptionMode;
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Salt decorrelating arrival instants from the application sequence.
const ARRIVAL_SEED_SALT: u64 = 0xF16A_7713;

/// Grid parameters.
#[derive(Debug, Clone)]
pub struct QosParams {
    /// Applications per run.
    pub apps: usize,
    /// Seed for sequence + arrival streams.
    pub seed: u64,
    /// RU count.
    pub rus: usize,
    /// Replacement policy driving every cell.
    pub policy: PolicyKind,
    /// Arrival processes, ordered light → heavy (the intensity axis).
    pub processes: Vec<ArrivalProcess>,
    /// Preemption modes to compare.
    pub modes: Vec<PreemptionMode>,
    /// Class mixes to compare (uniform is the pre-QoS control).
    pub mixes: Vec<QosSpec>,
    /// Worker threads for the sweep.
    pub workers: usize,
}

impl Default for QosParams {
    fn default() -> Self {
        QosParams {
            apps: 200,
            seed: 42,
            rus: 4,
            policy: PolicyKind::Lru,
            processes: default_processes(),
            modes: PreemptionMode::ALL.to_vec(),
            mixes: vec![QosSpec::UNIFORM, QosSpec::strided(4, 5, 150)],
            workers: crate::parallel::default_workers(),
        }
    }
}

impl QosParams {
    /// A small grid for tests and CI smoke runs.
    pub fn smoke() -> Self {
        QosParams {
            apps: 60,
            seed: 7,
            processes: vec![
                ArrivalProcess::Poisson {
                    mean_gap_us: 200_000,
                },
                ArrivalProcess::Poisson {
                    mean_gap_us: 30_000,
                },
            ],
            ..QosParams::default()
        }
    }

    /// The heaviest configured intensity (the last process — the axis
    /// is ordered light → heavy).
    pub fn highest_intensity(&self) -> &ArrivalProcess {
        self.processes.last().expect("at least one process")
    }
}

/// The arrival-intensity axis, light → heavy: generous gaps first,
/// then gaps well under the suite's ideal makespans so queues build
/// and the run-to-completion baseline blows promoted deadlines.
pub fn default_processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Poisson {
            mean_gap_us: 400_000,
        },
        ArrivalProcess::Poisson {
            mean_gap_us: 100_000,
        },
        ArrivalProcess::Poisson {
            mean_gap_us: 30_000,
        },
    ]
}

/// Runs the (process × mix × mode) grid and tabulates it.
///
/// # Panics
/// Panics on the driving thread — before any worker spawns — if a
/// degenerate arrival process is configured.
pub fn fig_qos(params: &QosParams) -> Table {
    for p in &params.processes {
        p.validate()
            .unwrap_or_else(|e| panic!("fig_qos parameters: {e}"));
    }
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&templates, params.apps, params.seed);
    let arrival_streams: Vec<Vec<rtr_sim::SimTime>> = params
        .processes
        .iter()
        .map(|p| p.generate(params.apps, params.seed ^ ARRIVAL_SEED_SALT))
        .collect();
    let class_streams: Vec<Vec<Option<Vec<rtr_manager::QosClass>>>> = arrival_streams
        .iter()
        .map(|arrivals| {
            params
                .mixes
                .iter()
                .map(|mix| mix.assign(&sequence, arrivals, params.rus))
                .collect()
        })
        .collect();

    let mut grid: Vec<(usize, usize, PreemptionMode)> = Vec::new();
    for proc_idx in 0..params.processes.len() {
        for mix_idx in 0..params.mixes.len() {
            for &mode in &params.modes {
                grid.push((proc_idx, mix_idx, mode));
            }
        }
    }

    let registry = Arc::new(TemplateRegistry::new());
    let rows = parallel_map_with(
        grid,
        params.workers,
        pooled_workers(&registry),
        |runner, (proc_idx, mix_idx, mode)| {
            let cell = CellConfig::new(params.policy, params.rus).with_preemption(mode);
            let out = runner
                .run_with_arrivals_qos(
                    &sequence,
                    Some(&arrival_streams[proc_idx]),
                    class_streams[proc_idx][mix_idx].as_deref(),
                    &cell,
                )
                .expect("qos cell simulates to completion");
            let mix = &params.mixes[mix_idx];
            let q = &out.stats.qos;
            let high = q.class(mix.priority).cloned().unwrap_or_else(|| {
                rtr_manager::ClassSojournStats::from_samples(
                    mix.priority,
                    &mut Vec::new(),
                    0,
                    rtr_sim::SimDuration::ZERO,
                )
            });
            let low = q.class(0).cloned().unwrap_or_else(|| {
                rtr_manager::ClassSojournStats::from_samples(
                    0,
                    &mut Vec::new(),
                    0,
                    rtr_sim::SimDuration::ZERO,
                )
            });
            vec![
                params.processes[proc_idx].label(),
                mix_label(mix),
                mode.label().to_string(),
                high.jobs.to_string(),
                high.deadline_misses.to_string(),
                fmt_f(high.miss_rate() * 100.0, 2),
                fmt_f(high.p50.as_ms_f64(), 1),
                fmt_f(high.p95.as_ms_f64(), 1),
                fmt_f(high.max.as_ms_f64(), 1),
                fmt_f(low.mean_sojourn_ms(), 1),
                q.preemptions.to_string(),
                q.checkpoints.to_string(),
                q.replayed_nodes.to_string(),
                fmt_f(q.lost_work_cycles.as_ms_f64(), 1),
                fmt_f(out.stats.reuse_rate_pct(), 2),
                out.stats.loads.to_string(),
                fmt_f(out.stats.makespan.as_ms_f64(), 1),
            ]
        },
    );

    let mut t = Table::new(
        format!(
            "fig_qos — {} apps, seed {}, {} RUs, {} (uniform mix = pre-QoS control)",
            params.apps,
            params.seed,
            params.rus,
            params.policy.label()
        ),
        &[
            "Arrivals",
            "Mix",
            "Preemption",
            "Hi jobs",
            "Hi misses",
            "Hi miss (%)",
            "Hi p50 (ms)",
            "Hi p95 (ms)",
            "Hi max (ms)",
            "Lo mean (ms)",
            "Preempts",
            "Checkpoints",
            "Replays",
            "Lost work (ms)",
            "Reuse (%)",
            "Loads",
            "Makespan (ms)",
        ],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Stable mix label for CSV rows.
pub fn mix_label(mix: &QosSpec) -> String {
    if mix.is_uniform() {
        "uniform".to_string()
    } else {
        match mix.deadline_stretch_pct {
            Some(pct) => format!("strided({})@p{}+{}%", mix.stride, mix.priority, pct),
            None => format!("strided({})@p{}", mix.stride, mix.priority),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_deterministic() {
        let params = QosParams::smoke();
        let a = fig_qos(&params);
        let b = fig_qos(&params);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(
            a.len(),
            params.processes.len() * params.mixes.len() * params.modes.len()
        );
    }

    /// The acceptance property: at the highest arrival intensity,
    /// checkpointing preemption cuts the promoted class's deadline-miss
    /// rate by at least half relative to run-to-completion — and the
    /// CSV carries the reuse cost alongside.
    #[test]
    fn checkpoint_halves_high_priority_misses_at_peak_intensity() {
        let params = QosParams::smoke();
        let csv = fig_qos(&params).to_csv();
        let peak = params.highest_intensity().label();
        let cell = |mode: &str| -> (f64, f64) {
            let row = csv
                .lines()
                .find(|l| {
                    let c: Vec<&str> = l.split(',').collect();
                    c[0] == peak && c[1] != "uniform" && c[2] == mode
                })
                .unwrap_or_else(|| panic!("missing row {mode} in\n{csv}"));
            let c: Vec<&str> = row.split(',').collect();
            (
                c[5].parse().expect("miss rate"),
                c[14].parse().expect("reuse"),
            )
        };
        let (off_miss, _) = cell("off");
        let (ckpt_miss, ckpt_reuse) = cell("checkpoint");
        assert!(
            off_miss > 0.0,
            "the baseline must miss deadlines at peak intensity, got {off_miss}%"
        );
        assert!(
            ckpt_miss <= off_miss / 2.0,
            "checkpoint miss rate {ckpt_miss}% !<= half of off's {off_miss}%"
        );
        assert!(ckpt_reuse.is_finite());
    }

    #[test]
    fn uniform_rows_are_mode_invariant() {
        // With nobody promoted there is nothing to preempt: all three
        // modes must produce identical uniform-mix rows (modulo the
        // mode column itself).
        let params = QosParams::smoke();
        let csv = fig_qos(&params).to_csv();
        for process in &params.processes {
            let rows: Vec<Vec<&str>> = csv
                .lines()
                .filter(|l| {
                    let c: Vec<&str> = l.split(',').collect();
                    c[0] == process.label() && c[1] == "uniform"
                })
                .map(|l| l.split(',').skip(3).collect())
                .collect();
            assert_eq!(rows.len(), PreemptionMode::ALL.len());
            assert!(
                rows.windows(2).all(|w| w[0] == w[1]),
                "uniform rows diverged across modes:\n{csv}"
            );
        }
    }
}
