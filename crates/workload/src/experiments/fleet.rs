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
//! The single-device fleet must be identical to the plain engine path;
//! [`check`] pins that alongside the table's acceptance properties.

use crate::arrivals::ArrivalProcess;
use crate::experiments::sweep;
use crate::parallel::default_workers;
use crate::policies::PolicyKind;
use crate::runner::{CellConfig, CellRunner};
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_manager::fleet::{simulate_fleet, FleetConfig, PlacementKind};
use rtr_manager::{JobSpec, SimError, TenantId};
use std::sync::Arc;

/// Applications per run.
const APPS: usize = 400;
/// Seed for the sequence and arrival streams.
const SEED: u64 = 42;
/// Salt decorrelating the arrival-time RNG stream from the
/// application-sequence stream drawn with the same experiment seed.
const ARRIVAL_SEED_SALT: u64 = 0xF1EE_7A21;
/// Device mixes: each entry is one fleet, listing the RU count of every
/// pooled device.
const DEVICE_MIXES: [&[usize]; 3] = [&[4, 4], &[2, 4, 6], &[4, 4, 4, 4]];
/// Tenant counts (jobs stamped round-robin).
const TENANTS: [usize; 2] = [1, 4];
/// Arrival processes: the paper's batch setting and a Poisson stream.
const ARRIVALS: [ArrivalProcess; 2] = [
    ArrivalProcess::Batch,
    ArrivalProcess::Poisson {
        mean_gap_us: 30_000,
    },
];
/// The in-device replacement policy of every pooled engine.
const POLICY: PolicyKind = PolicyKind::Lru;

/// Compact device-mix label: `2+4+6`.
fn mix_label(mix: &[usize]) -> String {
    mix.iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// The tenant-stamped job stream of one cell.
fn fleet_jobs(process: ArrivalProcess, tenants: usize) -> Vec<JobSpec> {
    let sequence = SequenceModel::UniformRandom.generate(&multimedia_templates(), APPS, SEED);
    let arrivals = process.generate(APPS, SEED ^ ARRIVAL_SEED_SALT);
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
pub fn run() -> Result<Table, SimError> {
    let mut grid = Vec::new();
    for placement in PlacementKind::ALL {
        for mix in DEVICE_MIXES {
            for tenants in TENANTS {
                for process in ARRIVALS {
                    grid.push((placement, mix, tenants, process));
                }
            }
        }
    }

    let rows = sweep(
        grid,
        default_workers(),
        |_runner, (placement, mix, tenants, process)| {
            let jobs = fleet_jobs(process, tenants);
            let base = CellConfig::new(POLICY, mix[0]).manager_config();
            let devices = mix.iter().map(|&rus| base.clone().with_rus(rus)).collect();
            let cfg = FleetConfig::new(devices, placement);
            let s = simulate_fleet(&cfg, &jobs, || POLICY.build())?.stats;
            Ok(vec![
                placement.label().to_string(),
                mix_label(mix),
                tenants.to_string(),
                process.label(),
                s.completed.to_string(),
                fmt_f(s.cross_device_reuse_rate_pct(), 2),
                s.loads.to_string(),
                fmt_f(s.fairness_index(), 3),
                fmt_f(s.makespan.as_ms_f64(), 1),
            ])
        },
    )?;

    let mut t = Table::new(
        format!(
            "fig_fleet — {APPS} apps, seed {SEED}, {} policy per device",
            POLICY.label()
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
    Ok(t)
}

/// The acceptance check over [`run`]'s table: no cell loses an
/// admitted job, and `reuse-affinity` placement beats `round-robin` on
/// mean cross-device reuse. It also re-runs every arrival intensity
/// and tenant count of the grid through a one-device fleet and through
/// the plain single-engine path, which must agree on stats and trace:
/// the fleet layer is invisible when the pool has one device.
pub fn check(t: &Table) -> Result<String, String> {
    for row in t.rows() {
        if row.get("Jobs") != APPS.to_string() {
            return Err(format!(
                "{} / {} / {} tenants / {} completed {} of {APPS} jobs",
                row.get("Placement"),
                row.get("Devices"),
                row.get("Tenants"),
                row.get("Arrivals"),
                row.get("Jobs")
            ));
        }
    }
    let mean_reuse = |placement: PlacementKind| {
        let reuse: Vec<f64> = t
            .rows()
            .filter(|r| r.get("Placement") == placement.label())
            .map(|r| r.num("Reuse (%)"))
            .collect();
        if reuse.is_empty() {
            return Err(format!("no {} rows", placement.label()));
        }
        Ok(reuse.iter().sum::<f64>() / reuse.len() as f64)
    };
    let affinity = mean_reuse(PlacementKind::ReuseAffinity)?;
    let round_robin = mean_reuse(PlacementKind::RoundRobin)?;
    if affinity <= round_robin {
        return Err(format!(
            "reuse-affinity mean reuse {affinity:.2}% does not beat round-robin {round_robin:.2}%"
        ));
    }
    single_device_matches_plain_path()?;
    Ok(format!(
        "no admitted jobs lost in any cell; mean reuse {affinity:.2}% (reuse-affinity) > \
         {round_robin:.2}% (round-robin); a one-device fleet matches the plain engine path"
    ))
}

/// Runs each of the grid's job streams through a one-device fleet and
/// through a plain [`CellRunner`] and compares stats and trace.
fn single_device_matches_plain_path() -> Result<(), String> {
    let mut runner = CellRunner::new();
    for process in ARRIVALS {
        for tenants in TENANTS {
            let jobs = fleet_jobs(process, tenants);
            let mut cell = CellConfig::new(POLICY, 4);
            cell.record_trace = true;
            let arrivals: Vec<rtr_sim::SimTime> = jobs.iter().map(|j| j.arrival).collect();
            let sequence: Vec<_> = jobs.iter().map(|j| Arc::clone(&j.graph)).collect();
            let reference = runner
                .run_with_arrivals_qos(&sequence, Some(&arrivals), None, &cell)
                .map_err(|e| format!("plain engine path: {e}"))?;
            let fleet_cfg = FleetConfig::single(cell.manager_config());
            let outcome = simulate_fleet(&fleet_cfg, &jobs, || POLICY.build())
                .map_err(|e| format!("one-device fleet: {e}"))?;
            let device = &outcome.devices[0];
            if device.stats != reference.stats || device.trace != reference.trace {
                return Err(format!(
                    "a one-device fleet diverged from the plain engine path \
                     ({}, {tenants} tenants)",
                    process.label()
                ));
            }
        }
    }
    Ok(())
}
