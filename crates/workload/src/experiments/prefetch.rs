//! `fig_prefetch` — reuse-aware configuration prefetching under
//! streaming arrivals.
//!
//! Sweeps prefetch depth × policy × arrival intensity on the multimedia
//! workload: with the reconfiguration port otherwise idle, the engine's
//! planner speculatively loads the nearest upcoming configurations into
//! RUs whose residents have farther next uses (never evicting a nearer
//! one — the Fig. 3 guard). Reported per cell: the zero-latency reuse
//! rate *and* the traffic-free demand reuse rate (a prefetch hit hides
//! the port latency but still moved a bitstream on the speculative
//! lane — the two columns bracket that trade), visible overhead,
//! loads, and the prefetch issue/hit/cancel/waste counters.
//!
//! Depth 0 rows are the prefetch-off baseline: the plain streaming
//! path, which runs no speculation (the `prefetch-off-invisible`
//! checker pins that on every validated run).

use crate::arrivals::ArrivalProcess;
use crate::parallel::parallel_map_with;
use crate::policies::PolicyKind;
use crate::runner::{pooled_workers, CellConfig};
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_core::TemplateRegistry;
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Salt decorrelating arrival instants from the application sequence.
const ARRIVAL_SEED_SALT: u64 = 0xF16A_7713;

/// Grid parameters.
#[derive(Debug, Clone)]
pub struct PrefetchParams {
    /// Applications per run.
    pub apps: usize,
    /// Seed for sequence + arrival streams.
    pub seed: u64,
    /// RU counts to sweep.
    pub rus: Vec<usize>,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Arrival processes to sweep (the intensity axis; includes batch
    /// as the paper-setting control).
    pub processes: Vec<ArrivalProcess>,
    /// Prefetch depths to sweep (0 = off baseline).
    pub depths: Vec<usize>,
    /// Worker threads for the sweep.
    pub workers: usize,
}

impl Default for PrefetchParams {
    fn default() -> Self {
        PrefetchParams {
            apps: 200,
            seed: 42,
            rus: vec![4, 8],
            policies: vec![
                PolicyKind::Lru,
                PolicyKind::LocalLfd {
                    window: 1,
                    skip: false,
                },
                PolicyKind::LocalLfd {
                    window: 4,
                    skip: false,
                },
                PolicyKind::Lfd,
            ],
            processes: default_processes(),
            depths: vec![0, 1, 2, 4],
            workers: crate::parallel::default_workers(),
        }
    }
}

impl PrefetchParams {
    /// A small grid for tests and CI smoke runs.
    pub fn smoke() -> Self {
        PrefetchParams {
            apps: 40,
            seed: 7,
            rus: vec![4],
            policies: vec![
                PolicyKind::LocalLfd {
                    window: 1,
                    skip: false,
                },
                PolicyKind::Lfd,
            ],
            processes: vec![
                ArrivalProcess::Batch,
                ArrivalProcess::Poisson {
                    mean_gap_us: 100_000,
                },
            ],
            depths: vec![0, 4],
            workers: 2,
        }
    }
}

/// The arrival-intensity axis: batch (the paper's setting) plus the
/// Poisson sweep and the structured feeds of `fig_arrivals`.
pub fn default_processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Batch,
        ArrivalProcess::Poisson {
            mean_gap_us: 25_000,
        },
        ArrivalProcess::Poisson {
            mean_gap_us: 100_000,
        },
        ArrivalProcess::Poisson {
            mean_gap_us: 400_000,
        },
        ArrivalProcess::Periodic { period_us: 100_000 },
        ArrivalProcess::Bursty {
            size: 8,
            mean_gap_us: 800_000,
        },
    ]
}

/// Runs the (process × RU × policy × depth) grid and tabulates it.
///
/// # Panics
/// Panics on the driving thread — before any worker spawns — if a
/// degenerate arrival process is configured (see
/// [`ArrivalProcess::validate`]).
pub fn fig_prefetch(params: &PrefetchParams) -> Table {
    for p in &params.processes {
        p.validate()
            .unwrap_or_else(|e| panic!("fig_prefetch parameters: {e}"));
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

    let mut grid: Vec<(usize, usize, PolicyKind, usize)> = Vec::new();
    for proc_idx in 0..params.processes.len() {
        for &rus in &params.rus {
            for &policy in &params.policies {
                for &depth in &params.depths {
                    grid.push((proc_idx, rus, policy, depth));
                }
            }
        }
    }

    let registry = Arc::new(TemplateRegistry::new());
    let rows = parallel_map_with(
        grid,
        params.workers,
        pooled_workers(&registry),
        |runner, (proc_idx, rus, policy, depth)| {
            let cell = CellConfig::new(policy, rus).with_prefetch_depth(depth);
            let out = runner
                .run_with_arrivals(&sequence, Some(&arrival_streams[proc_idx]), &cell)
                .expect("prefetch cell simulates to completion");
            let pf = out.stats.prefetch;
            vec![
                params.processes[proc_idx].label(),
                rus.to_string(),
                policy.label(),
                depth.to_string(),
                fmt_f(out.stats.reuse_rate_pct(), 2),
                fmt_f(out.stats.demand_reuse_rate_pct(), 2),
                fmt_f(out.stats.total_overhead().as_ms_f64(), 1),
                fmt_f(out.stats.remaining_overhead_pct(), 2),
                out.stats.loads.to_string(),
                pf.issued.to_string(),
                pf.hits.to_string(),
                pf.cancelled.to_string(),
                pf.wasted.to_string(),
                fmt_f(out.stats.mean_sojourn_ms(), 1),
            ]
        },
    );

    let mut t = Table::new(
        format!(
            "fig_prefetch — {} apps, seed {} (depth 0 = prefetch off)",
            params.apps, params.seed
        ),
        &[
            "Arrivals",
            "RUs",
            "Policy",
            "Depth",
            "Reuse (%)",
            "Demand reuse (%)",
            "Overhead (ms)",
            "Remaining (%)",
            "Loads",
            "PF issued",
            "PF hits",
            "PF cancelled",
            "PF wasted",
            "Mean sojourn (ms)",
        ],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_deterministic() {
        let params = PrefetchParams::smoke();
        let a = fig_prefetch(&params);
        let b = fig_prefetch(&params);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(
            a.len(),
            params.processes.len() * params.rus.len() * params.policies.len() * params.depths.len()
        );
    }

    /// The acceptance property: on a non-batch arrival intensity, both
    /// Local LFD and the LFD oracle see their visible reconfiguration
    /// overhead drop with prefetch on — without losing reuse rate.
    #[test]
    fn prefetch_improves_lfd_policies_on_streaming_arrivals() {
        let params = PrefetchParams::smoke();
        let csv = fig_prefetch(&params).to_csv();
        let cell = |policy: &str, depth: usize| -> (f64, f64) {
            let row = csv
                .lines()
                .find(|l| {
                    let c: Vec<&str> = l.split(',').collect();
                    c[0] == "poisson(100ms)" && c[2] == policy && c[3] == depth.to_string()
                })
                .unwrap_or_else(|| panic!("missing row {policy}/{depth} in\n{csv}"));
            let c: Vec<&str> = row.split(',').collect();
            (
                c[4].parse().expect("reuse"),
                c[6].parse().expect("overhead"),
            )
        };
        for policy in ["Local LFD (1)", "LFD"] {
            let (reuse_off, overhead_off) = cell(policy, 0);
            let (reuse_on, overhead_on) = cell(policy, 4);
            assert!(
                overhead_on < overhead_off,
                "{policy}: prefetch-on overhead {overhead_on} !< {overhead_off}"
            );
            assert!(
                reuse_on >= reuse_off,
                "{policy}: the guard must not trade reuse away \
                 ({reuse_on} < {reuse_off})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch setting")]
    fn degenerate_processes_fail_on_the_driving_thread() {
        let mut params = PrefetchParams::smoke();
        params.processes = vec![ArrivalProcess::Poisson { mean_gap_us: 0 }];
        let _ = fig_prefetch(&params);
    }
}
