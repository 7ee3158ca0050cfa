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

use crate::experiments::sweep;
use crate::parallel::default_workers;
use crate::policies::PolicyKind;
use crate::runner::CellConfig;
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_manager::{FaultPlan, SimError};

/// Applications per run.
const APPS: usize = 200;
/// Seed for the sequence and fault streams.
const SEED: u64 = 42;
/// Salt decorrelating the fault-decision stream from the
/// application-sequence stream drawn with the same experiment seed.
const FAULT_SEED_SALT: u64 = 0xDE6A_DE01;
/// RU counts (the degraded-pool axis).
const RUS: [usize; 3] = [2, 4, 6];
/// Replacement policies compared.
const POLICIES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Lfd];

const HEADERS: [&str; 15] = [
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
];

/// The fault-rate axis, benign → hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultRate {
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
    const ALL: [FaultRate; 3] = [FaultRate::Off, FaultRate::Low, FaultRate::High];

    /// Stable label (table rows, CSV).
    fn label(self) -> &'static str {
        match self {
            FaultRate::Off => "off",
            FaultRate::Low => "low",
            FaultRate::High => "high",
        }
    }

    /// The plan this rate decodes to.
    fn plan(self) -> FaultPlan {
        match self {
            FaultRate::Off => FaultPlan::off(),
            FaultRate::Low => FaultPlan::low(SEED ^ FAULT_SEED_SALT),
            FaultRate::High => FaultPlan::high(SEED ^ FAULT_SEED_SALT),
        }
    }
}

/// Runs the (rate × policy × RU) grid and tabulates it.
pub fn run() -> Result<Table, SimError> {
    let sequence = SequenceModel::UniformRandom.generate(&multimedia_templates(), APPS, SEED);

    let mut grid = Vec::new();
    for rate in FaultRate::ALL {
        for policy in POLICIES {
            for rus in RUS {
                grid.push((rate, policy, rus));
            }
        }
    }

    let rows = sweep(grid, default_workers(), |runner, (rate, policy, rus)| {
        let cell = CellConfig::new(policy, rus).with_faults(rate.plan());
        let out = runner.run(&sequence, &cell)?;
        let f = &out.stats.faults;
        Ok(vec![
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
        ])
    })?;

    let mut t = Table::new(
        format!("fig_faults — {APPS} apps, seed {SEED} (off = fault-free control)"),
        &HEADERS,
    );
    for row in rows {
        t.push_row(row);
    }
    Ok(t)
}

/// The acceptance check over [`run`]'s table: the degraded-pool path
/// never loses a job (every row completes all of them), the low-rate
/// rows keep availability above 90%, the `off` rows inject no fault
/// and both non-zero rates inject some.
pub fn check(t: &Table) -> Result<String, String> {
    let mut worst_low_availability = f64::INFINITY;
    for rate in FaultRate::ALL {
        let mut injected = 0.0;
        for row in t.rows().filter(|r| r.get("Faults") == rate.label()) {
            if row.get("Jobs") != APPS.to_string() {
                return Err(format!(
                    "{} / {} / {} RUs completed {} of {APPS} jobs",
                    rate.label(),
                    row.get("Policy"),
                    row.get("RUs"),
                    row.get("Jobs")
                ));
            }
            injected += row.num("Injected");
            if rate == FaultRate::Low {
                worst_low_availability = worst_low_availability.min(row.num("Availability (%)"));
            }
        }
        match rate {
            FaultRate::Off if injected > 0.0 => {
                return Err(format!("the off rows injected {injected} faults"));
            }
            FaultRate::Low | FaultRate::High if injected == 0.0 => {
                return Err(format!("the {} rows injected no fault", rate.label()));
            }
            _ => {}
        }
    }
    if worst_low_availability <= 90.0 {
        return Err(format!(
            "worst low-rate availability {worst_low_availability}% is not above 90%"
        ));
    }
    Ok(format!(
        "no jobs lost in any cell; worst low-rate availability {worst_low_availability}% > 90%; \
         off injects nothing, low and high inject"
    ))
}
