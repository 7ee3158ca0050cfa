//! `fig_faults` — graceful degradation under injected hardware
//! faults.
//!
//! Sweeps fault-rate class × replacement policy × RU count on the
//! multimedia workload (the paper's batch setting). Each cell runs
//! the same application sequence under a seeded [`FaultPlan`]:
//! transient load corruption retried with bounded exponential
//! backoff, resident-configuration upsets repaired by lazy re-load,
//! and RU hard faults that quarantine the unit and let the engine run
//! gracefully degraded until the unit heals. Reported per cell: the
//! fault/retry/repair/quarantine/heal counters, the degraded-pool and
//! lost-work totals, the availability (time-weighted fraction of the
//! run with the full pool), and the makespan/reuse degradation the
//! recovery machinery costs.
//!
//! The fault-off rows are the plain batch path: `FaultRate::Off` is
//! [`FaultPlan::off`], which every [`CellConfig`] already holds.

use crate::parallel::parallel_map_with;
use crate::policies::PolicyKind;
use crate::runner::{pooled_workers, CellConfig};
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_core::TemplateRegistry;
use rtr_manager::FaultPlan;
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Salt decorrelating the fault-decision stream from the
/// application-sequence stream drawn with the same experiment seed.
const FAULT_SEED_SALT: u64 = 0xDE6A_DE01;

/// The fault-rate axis, benign → hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRate {
    /// No faults — the exact pre-fault code path (the control row).
    Off,
    /// [`FaultPlan::low`]: occasional corruption, rare upsets/hard
    /// faults, 20 ms repairs.
    Low,
    /// [`FaultPlan::high`]: frequent corruption, tight retry budget,
    /// 40 ms repairs.
    High,
}

impl FaultRate {
    /// All rates, in sweep order (the control row first).
    pub const ALL: [FaultRate; 3] = [FaultRate::Off, FaultRate::Low, FaultRate::High];

    /// Stable label (table rows, CSV).
    pub fn label(&self) -> &'static str {
        match self {
            FaultRate::Off => "off",
            FaultRate::Low => "low",
            FaultRate::High => "high",
        }
    }

    /// The plan this rate decodes to under `seed`.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        match self {
            FaultRate::Off => FaultPlan::off(),
            FaultRate::Low => FaultPlan::low(seed ^ FAULT_SEED_SALT),
            FaultRate::High => FaultPlan::high(seed ^ FAULT_SEED_SALT),
        }
    }
}

/// Grid parameters.
#[derive(Debug, Clone)]
pub struct FaultParams {
    /// Applications per run.
    pub apps: usize,
    /// Seed for the sequence and fault streams.
    pub seed: u64,
    /// RU counts to sweep (the degraded-pool axis).
    pub rus: Vec<usize>,
    /// Replacement policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Fault-rate classes to sweep.
    pub rates: Vec<FaultRate>,
    /// Worker threads for the sweep.
    pub workers: usize,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            apps: 200,
            seed: 42,
            rus: vec![2, 4, 6],
            policies: vec![PolicyKind::Lru, PolicyKind::Lfd],
            rates: FaultRate::ALL.to_vec(),
            workers: crate::parallel::default_workers(),
        }
    }
}

impl FaultParams {
    /// A small grid for tests and CI smoke runs.
    pub fn smoke() -> Self {
        FaultParams {
            apps: 60,
            seed: 7,
            rus: vec![2, 4],
            policies: vec![PolicyKind::Lru],
            ..FaultParams::default()
        }
    }
}

/// Runs the (rate × policy × RU) grid and tabulates it.
pub fn fig_faults(params: &FaultParams) -> Table {
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&templates, params.apps, params.seed);

    let mut grid: Vec<(FaultRate, PolicyKind, usize)> = Vec::new();
    for &rate in &params.rates {
        for &policy in &params.policies {
            for &rus in &params.rus {
                grid.push((rate, policy, rus));
            }
        }
    }

    let registry = Arc::new(TemplateRegistry::new());
    let rows = parallel_map_with(
        grid,
        params.workers,
        pooled_workers(&registry),
        |runner, (rate, policy, rus)| {
            let cell = CellConfig::new(policy, rus).with_faults(rate.plan(params.seed));
            let out = runner
                .run(&sequence, &cell)
                .expect("fault cell simulates to completion");
            let f = &out.stats.faults;
            vec![
                rate.label().to_string(),
                policy.label(),
                rus.to_string(),
                out.stats.graph_completions.len().to_string(),
                f.injected.to_string(),
                f.retries.to_string(),
                f.repairs.to_string(),
                f.quarantines.to_string(),
                f.heals.to_string(),
                fmt_f(f.degraded_time.as_ms_f64(), 1),
                fmt_f(f.lost_work_cycles.as_ms_f64(), 1),
                fmt_f(out.stats.availability_pct(), 2),
                fmt_f(out.stats.reuse_rate_pct(), 2),
                out.stats.loads.to_string(),
                fmt_f(out.stats.makespan.as_ms_f64(), 1),
            ]
        },
    );

    let mut t = Table::new(
        format!(
            "fig_faults — {} apps, seed {} (off = fault-free control)",
            params.apps, params.seed
        ),
        &[
            "Faults",
            "Policy",
            "RUs",
            "Jobs",
            "Injected",
            "Retries",
            "Repairs",
            "Quarantines",
            "Heals",
            "Degraded (ms)",
            "Lost work (ms)",
            "Availability (%)",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_deterministic() {
        let params = FaultParams::smoke();
        let a = fig_faults(&params);
        let b = fig_faults(&params);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(
            a.len(),
            params.rates.len() * params.policies.len() * params.rus.len()
        );
    }

    /// The acceptance properties: the degraded-pool path never loses a
    /// job (every row completes the full batch), the low-rate rows
    /// keep availability above 90%, and faults actually inject at both
    /// non-zero rates.
    #[test]
    fn low_rate_keeps_availability_and_no_jobs_are_lost() {
        let params = FaultParams::smoke();
        let csv = fig_faults(&params).to_csv();
        let mut low_rows = 0;
        let mut injected_by_rate = [0u64; 3];
        for line in csv.lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            let jobs: u64 = c[3].parse().expect("jobs");
            assert_eq!(
                jobs, params.apps as u64,
                "a fault row lost jobs:\n{line}\n{csv}"
            );
            let rate_idx = FaultRate::ALL
                .iter()
                .position(|r| r.label() == c[0])
                .expect("rate label");
            injected_by_rate[rate_idx] += c[4].parse::<u64>().expect("injected");
            if c[0] == "low" {
                low_rows += 1;
                let availability: f64 = c[11].parse().expect("availability");
                assert!(
                    availability > 90.0,
                    "low-rate availability {availability}% !> 90%:\n{line}"
                );
            }
        }
        assert!(low_rows > 0, "low-rate rows present:\n{csv}");
        assert_eq!(injected_by_rate[0], 0, "off rows must not inject");
        assert!(
            injected_by_rate[1] > 0 && injected_by_rate[2] > 0,
            "non-zero rates must inject, got {injected_by_rate:?}:\n{csv}"
        );
    }
}
