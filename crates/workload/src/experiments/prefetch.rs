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
//! loads, the prefetch issue/hit/cancel/waste counters and the mean
//! sojourn time (completion − arrival).
//!
//! Depth 0 rows are the prefetch-off baseline: the plain streaming
//! path, which runs no speculation (the `prefetch-off-invisible`
//! checker pins that on every validated run). They double as the
//! policy × RU count × arrival intensity table of the streaming
//! engine.

use crate::arrivals::ArrivalProcess;
use crate::experiments::sweep;
use crate::parallel::default_workers;
use crate::policies::PolicyKind;
use crate::runner::CellConfig;
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_manager::SimError;

/// Applications per run.
const APPS: usize = 200;
/// Seed for the sequence and arrival streams.
const SEED: u64 = 42;
/// Salt decorrelating arrival instants from the application sequence.
const ARRIVAL_SEED_SALT: u64 = 0xF16A_7713;
/// RU counts.
const RUS: [usize; 2] = [4, 8];
/// Policies compared.
const POLICIES: [PolicyKind; 4] = [
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
];
// The Poisson intensities sit around the suite's ~70 ms mean service
// time on 4 RUs.
/// Poisson arrivals 25 ms apart on average: overload.
const HEAVY: ArrivalProcess = ArrivalProcess::Poisson {
    mean_gap_us: 25_000,
};
/// 100 ms apart: near saturation.
const STREAMING: ArrivalProcess = ArrivalProcess::Poisson {
    mean_gap_us: 100_000,
};
/// 400 ms apart: light load.
const LIGHT: ArrivalProcess = ArrivalProcess::Poisson {
    mean_gap_us: 400_000,
};
/// The arrival axis: batch (the paper's setting), the Poisson sweep,
/// and periodic and bursty feeds at the middle intensity.
const PROCESSES: [ArrivalProcess; 6] = [
    ArrivalProcess::Batch,
    HEAVY,
    STREAMING,
    LIGHT,
    ArrivalProcess::Periodic { period_us: 100_000 },
    ArrivalProcess::Bursty {
        size: 8,
        mean_gap_us: 800_000,
    },
];
/// Prefetch depths (0 = off).
const DEPTHS: [usize; 4] = [0, 1, 2, 4];

const HEADERS: [&str; 14] = [
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
];

/// Runs the (process × RU × policy × depth) grid and tabulates it.
pub fn run() -> Result<Table, SimError> {
    let sequence = SequenceModel::UniformRandom.generate(&multimedia_templates(), APPS, SEED);
    let arrival_streams: Vec<Vec<rtr_sim::SimTime>> = PROCESSES
        .iter()
        .map(|p| p.generate(APPS, SEED ^ ARRIVAL_SEED_SALT))
        .collect();

    let mut grid = Vec::new();
    for proc_idx in 0..PROCESSES.len() {
        for rus in RUS {
            for policy in POLICIES {
                for depth in DEPTHS {
                    grid.push((proc_idx, rus, policy, depth));
                }
            }
        }
    }

    let rows = sweep(
        grid,
        default_workers(),
        |runner, (proc_idx, rus, policy, depth)| {
            let cell = CellConfig::new(policy, rus).with_prefetch_depth(depth);
            let out = runner.run_with_arrivals_qos(
                &sequence,
                Some(&arrival_streams[proc_idx]),
                None,
                &cell,
            )?;
            let pf = out.stats.prefetch;
            Ok(vec![
                PROCESSES[proc_idx].label(),
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
            ])
        },
    )?;

    let mut t = Table::new(
        format!("fig_prefetch — {APPS} apps, seed {SEED} (depth 0 = prefetch off)"),
        &HEADERS,
    );
    for row in rows {
        t.push_row(row);
    }
    Ok(t)
}

/// The acceptance check over [`run`]'s table:
///
/// * at `poisson(100ms)` on 4 RUs, depth 4 lowers the visible overhead
///   of Local LFD (1) and of LFD without lowering their reuse rate;
/// * with prefetch off, every policy on every RU count has a longer
///   mean sojourn under the heaviest Poisson load than under the
///   lightest.
pub fn check(t: &Table) -> Result<String, String> {
    let cell = |arrivals: ArrivalProcess, rus: usize, policy: &str, depth: usize| {
        let arrivals = arrivals.label();
        t.rows()
            .find(|r| {
                r.get("Arrivals") == arrivals
                    && r.get("RUs") == rus.to_string()
                    && r.get("Policy") == policy
                    && r.get("Depth") == depth.to_string()
            })
            .ok_or_else(|| format!("no row {arrivals}, {rus} RUs, {policy}, depth {depth}"))
    };
    let mut summary = Vec::new();
    for policy in ["Local LFD (1)", "LFD"] {
        let (off, on) = (
            cell(STREAMING, 4, policy, 0)?,
            cell(STREAMING, 4, policy, 4)?,
        );
        let (overhead_off, overhead_on) = (off.num("Overhead (ms)"), on.num("Overhead (ms)"));
        let (reuse_off, reuse_on) = (off.num("Reuse (%)"), on.num("Reuse (%)"));
        if overhead_on >= overhead_off {
            return Err(format!(
                "{policy}: depth 4 overhead {overhead_on} ms is not below depth 0's {overhead_off} ms"
            ));
        }
        if reuse_on < reuse_off {
            return Err(format!(
                "{policy}: the guard traded reuse away ({reuse_on}% < {reuse_off}%)"
            ));
        }
        summary.push(format!(
            "{policy} at depth 4 cuts overhead {overhead_off} -> {overhead_on} ms, \
             reuse {reuse_off}% -> {reuse_on}%"
        ));
    }
    for rus in RUS {
        for policy in POLICIES {
            let label = policy.label();
            let heavy = cell(HEAVY, rus, &label, 0)?.num("Mean sojourn (ms)");
            let light = cell(LIGHT, rus, &label, 0)?.num("Mean sojourn (ms)");
            if heavy <= light {
                return Err(format!(
                    "{label} on {rus} RUs: mean sojourn {heavy} ms under {} is not above \
                     {light} ms under {}",
                    HEAVY.label(),
                    LIGHT.label()
                ));
            }
        }
    }
    summary.push(format!(
        "every depth-0 mean sojourn is longer under {} than under {}",
        HEAVY.label(),
        LIGHT.label()
    ));
    Ok(summary.join("; "))
}
