//! `fig_fleet` — cross-device reuse affinity at cluster scope.
//!
//! Sweeps placement policy × device mix × tenant count × arrival
//! intensity on the multimedia workload. Each cell submits the same
//! tenant-stamped job stream to a pooled fleet and reports the
//! cluster-scope reuse rate, the per-tenant fairness index and the
//! fleet makespan. The headline comparison is `reuse-affinity` versus
//! `round-robin` on cross-device reuse: routing a job to the device
//! whose residency model already holds its configurations clusters
//! templates per device, so the in-device replacement module sees far
//! more reuse than blind rotation gives it.
//!
//! The single-device fleet must be byte-identical to the plain batch
//! path ([`assert_fleet_single_matches_baseline`] pins that; CI runs
//! it through the `fig_fleet -- smoke` binary).

use crate::arrivals::ArrivalProcess;
use crate::parallel::parallel_map_with;
use crate::policies::PolicyKind;
use crate::runner::{pooled_workers, CellConfig, CellRunner};
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_core::TemplateRegistry;
use rtr_manager::fleet::{simulate_fleet, FleetConfig, PlacementKind};
use rtr_manager::{JobSpec, TenantId};
use rtr_taskgraph::TaskGraph;
use std::sync::Arc;

/// Salt decorrelating the arrival-time RNG stream from the
/// application-sequence stream drawn with the same experiment seed.
const ARRIVAL_SEED_SALT: u64 = 0xF1EE_7A21;

/// Grid parameters.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Applications per run.
    pub apps: usize,
    /// Seed for the sequence and arrival streams.
    pub seed: u64,
    /// Device mixes to sweep: each entry is one fleet, listing the RU
    /// count of every pooled device.
    pub device_mixes: Vec<Vec<usize>>,
    /// Tenant counts to sweep (jobs stamped round-robin).
    pub tenant_counts: Vec<usize>,
    /// Poisson arrival intensities to sweep, as mean inter-arrival
    /// gaps in µs (0 = the paper's batch setting).
    pub mean_gaps_us: Vec<u64>,
    /// Placement policies to compare.
    pub placements: Vec<PlacementKind>,
    /// The in-device replacement policy of every pooled engine.
    pub policy: PolicyKind,
    /// Worker threads for the sweep.
    pub workers: usize,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            apps: 400,
            seed: 42,
            device_mixes: vec![vec![4, 4], vec![2, 4, 6], vec![4, 4, 4, 4]],
            tenant_counts: vec![1, 4],
            mean_gaps_us: vec![0, 30_000],
            placements: PlacementKind::ALL.to_vec(),
            policy: PolicyKind::Lru,
            workers: crate::parallel::default_workers(),
        }
    }
}

impl FleetParams {
    /// A small grid for tests and CI smoke runs.
    pub fn smoke() -> Self {
        FleetParams {
            apps: 120,
            seed: 7,
            device_mixes: vec![vec![4, 4], vec![2, 4, 6]],
            tenant_counts: vec![2],
            mean_gaps_us: vec![30_000],
            ..FleetParams::default()
        }
    }
}

/// Compact device-mix label: `2+4+6`.
fn mix_label(mix: &[usize]) -> String {
    mix.iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// The arrival process a mean-gap entry decodes to.
fn arrivals_for(gap_us: u64) -> ArrivalProcess {
    if gap_us == 0 {
        ArrivalProcess::Batch
    } else {
        ArrivalProcess::Poisson {
            mean_gap_us: gap_us,
        }
    }
}

/// The tenant-stamped job stream of one cell.
fn fleet_jobs(params: &FleetParams, gap_us: u64, tenants: usize) -> Vec<JobSpec> {
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&templates, params.apps, params.seed);
    let arrivals = arrivals_for(gap_us).generate(params.apps, params.seed ^ ARRIVAL_SEED_SALT);
    sequence
        .iter()
        .enumerate()
        .map(|(i, g)| {
            JobSpec::new(Arc::clone(g))
                .with_arrival(arrivals[i])
                .with_tenant(TenantId((i % tenants) as u32))
        })
        .collect()
}

/// Runs the (placement × mix × tenants × intensity) grid and
/// tabulates it.
pub fn fig_fleet(params: &FleetParams) -> Table {
    let mut grid: Vec<(PlacementKind, Vec<usize>, usize, u64)> = Vec::new();
    for &placement in &params.placements {
        for mix in &params.device_mixes {
            for &tenants in &params.tenant_counts {
                for &gap in &params.mean_gaps_us {
                    grid.push((placement, mix.clone(), tenants, gap));
                }
            }
        }
    }

    let registry = Arc::new(TemplateRegistry::new());
    let rows = parallel_map_with(
        grid,
        params.workers,
        pooled_workers(&registry),
        |_runner, (placement, mix, tenants, gap)| {
            let jobs = fleet_jobs(params, gap, tenants);
            let base = CellConfig::new(params.policy, mix[0]).manager_config();
            let devices = mix.iter().map(|&rus| base.clone().with_rus(rus)).collect();
            let cfg = FleetConfig::new(devices, placement);
            let outcome = simulate_fleet(&cfg, &jobs, || params.policy.build())
                .expect("fleet cell simulates");
            let s = &outcome.stats;
            vec![
                placement.label().to_string(),
                mix_label(&mix),
                tenants.to_string(),
                arrivals_for(gap).label(),
                s.completed.to_string(),
                fmt_f(s.cross_device_reuse_rate_pct(), 2),
                s.loads.to_string(),
                fmt_f(s.fairness_index(), 3),
                fmt_f(s.makespan.as_ms_f64(), 1),
            ]
        },
    );

    let mut t = Table::new(
        format!(
            "fig_fleet — {} apps, seed {}, {} policy per device",
            params.apps,
            params.seed,
            params.policy.label()
        ),
        &[
            "Placement",
            "Devices",
            "Tenants",
            "Arrivals",
            "Jobs",
            "Reuse (%)",
            "Loads",
            "Fairness",
            "Makespan (ms)",
        ],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Asserts that a one-device fleet is byte-identical (stats *and*
/// trace, serialised to JSON) to the plain single-engine batch path —
/// with and without multi-tenant stamping, since the engine itself is
/// tenant-agnostic. This is the golden guard CI runs: a fleet-layer
/// regression that leaks into the degenerate pool turns the build red
/// instead of silently drifting a golden number.
///
/// # Panics
/// Panics on the first differing run.
pub fn assert_fleet_single_matches_baseline(params: &FleetParams) {
    let mut runner = CellRunner::new();
    let mut tenant_cases = params.tenant_counts.clone();
    if !tenant_cases.contains(&1) {
        tenant_cases.push(1);
    }
    for &gap in &params.mean_gaps_us {
        for &tenants in &tenant_cases {
            let jobs = fleet_jobs(params, gap, tenants);
            let mut cell = CellConfig::new(params.policy, 4);
            cell.record_trace = true;
            let arrivals: Vec<rtr_sim::SimTime> = jobs.iter().map(|j| j.arrival).collect();
            let sequence: Vec<Arc<TaskGraph>> = jobs.iter().map(|j| Arc::clone(&j.graph)).collect();
            let reference = runner
                .run_with_arrivals(&sequence, Some(&arrivals), &cell)
                .expect("baseline cell simulates");
            let fleet_cfg = FleetConfig::single(cell.manager_config());
            let outcome = simulate_fleet(&fleet_cfg, &jobs, || params.policy.build())
                .expect("single-device fleet simulates");
            assert_eq!(outcome.devices.len(), 1);
            let a = (
                serde_json::to_string(&outcome.devices[0].stats).expect("stats serialise"),
                serde_json::to_string(&outcome.devices[0].trace).expect("trace serialises"),
            );
            let b = (
                serde_json::to_string(&reference.stats).expect("stats serialise"),
                serde_json::to_string(&reference.trace).expect("trace serialises"),
            );
            assert_eq!(
                a, b,
                "single-device fleet diverged from the plain engine path \
                 (gap {gap} µs, {tenants} tenants)"
            );
        }
    }
}

/// Aggregate cross-device reuse of one placement policy over a CSV
/// produced by [`fig_fleet`] (mean over that policy's rows).
pub fn mean_reuse_of(csv: &str, placement: PlacementKind) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for line in csv.lines().skip(1) {
        let c: Vec<&str> = line.split(',').collect();
        if c[0] == placement.label() {
            sum += c[5].parse::<f64>().expect("reuse column");
            n += 1;
        }
    }
    assert!(n > 0, "no rows for placement {}:\n{csv}", placement.label());
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_deterministic() {
        let params = FleetParams::smoke();
        let a = fig_fleet(&params);
        let b = fig_fleet(&params);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(
            a.len(),
            params.placements.len()
                * params.device_mixes.len()
                * params.tenant_counts.len()
                * params.mean_gaps_us.len()
        );
    }

    #[test]
    fn single_device_fleet_matches_plain_batch_path() {
        assert_fleet_single_matches_baseline(&FleetParams::smoke());
    }

    /// The acceptance property: reuse-affinity placement beats blind
    /// round-robin on cross-device reuse rate, and no cell loses jobs.
    #[test]
    fn reuse_affinity_beats_round_robin() {
        let params = FleetParams::smoke();
        let csv = fig_fleet(&params).to_csv();
        for line in csv.lines().skip(1) {
            let c: Vec<&str> = line.split(',').collect();
            assert_eq!(
                c[4].parse::<usize>().expect("jobs"),
                params.apps,
                "a fleet cell lost jobs:\n{line}"
            );
        }
        let affinity = mean_reuse_of(&csv, PlacementKind::ReuseAffinity);
        let rr = mean_reuse_of(&csv, PlacementKind::RoundRobin);
        assert!(
            affinity > rr,
            "reuse-affinity ({affinity:.2}%) must beat round-robin ({rr:.2}%):\n{csv}"
        );
    }
}
