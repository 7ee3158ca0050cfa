//! `fig_qos` — preemptive, deadline-aware scheduling under streaming
//! arrivals.
//!
//! Sweeps preemption mode × QoS class mix × arrival intensity on the
//! multimedia workload. Every 4th application is promoted to a
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
use crate::experiments::sweep;
use crate::parallel::default_workers;
use crate::policies::PolicyKind;
use crate::qos::QosSpec;
use crate::runner::CellConfig;
use crate::sequence::{multimedia_templates, SequenceModel};
use crate::table::{fmt_f, Table};
use rtr_manager::{ClassSojournStats, PreemptionMode, SimError};
use rtr_sim::SimDuration;

/// Applications per run.
const APPS: usize = 200;
/// Seed for the sequence and arrival streams.
const SEED: u64 = 42;
/// Salt decorrelating arrival instants from the application sequence.
const ARRIVAL_SEED_SALT: u64 = 0xF16A_7713;
/// RU count.
const RUS: usize = 4;
/// Replacement policy driving every cell.
const POLICY: PolicyKind = PolicyKind::Lru;
/// The arrival-intensity axis, light → heavy: generous gaps first,
/// then gaps well under the suite's ideal makespans so queues build
/// and the run-to-completion baseline blows promoted deadlines.
const PROCESSES: [ArrivalProcess; 3] = [
    ArrivalProcess::Poisson {
        mean_gap_us: 400_000,
    },
    ArrivalProcess::Poisson {
        mean_gap_us: 100_000,
    },
    ArrivalProcess::Poisson {
        mean_gap_us: 30_000,
    },
];
/// Every 4th job promoted to priority 5 with a deadline of 150% of its
/// ideal makespan.
const PROMOTED: QosSpec = QosSpec::strided(4, 5, 150);
/// Class mixes compared (uniform is the pre-QoS control).
const MIXES: [QosSpec; 2] = [QosSpec::UNIFORM, PROMOTED];

const HEADERS: [&str; 17] = [
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
];

/// Runs the (process × mix × mode) grid and tabulates it.
pub fn run() -> Result<Table, SimError> {
    let sequence = SequenceModel::UniformRandom.generate(&multimedia_templates(), APPS, SEED);
    let arrival_streams: Vec<Vec<rtr_sim::SimTime>> = PROCESSES
        .iter()
        .map(|p| p.generate(APPS, SEED ^ ARRIVAL_SEED_SALT))
        .collect();
    let class_streams: Vec<Vec<Option<Vec<rtr_manager::QosClass>>>> = arrival_streams
        .iter()
        .map(|arrivals| {
            MIXES
                .iter()
                .map(|mix| mix.assign(&sequence, arrivals, RUS))
                .collect()
        })
        .collect();

    let mut grid = Vec::new();
    for proc_idx in 0..PROCESSES.len() {
        for mix_idx in 0..MIXES.len() {
            for mode in PreemptionMode::ALL {
                grid.push((proc_idx, mix_idx, mode));
            }
        }
    }

    let rows = sweep(
        grid,
        default_workers(),
        |runner, (proc_idx, mix_idx, mode)| {
            let cell = CellConfig::new(POLICY, RUS).with_preemption(mode);
            let out = runner.run_with_arrivals_qos(
                &sequence,
                Some(&arrival_streams[proc_idx]),
                class_streams[proc_idx][mix_idx].as_deref(),
                &cell,
            )?;
            let mix = &MIXES[mix_idx];
            let q = &out.stats.qos;
            let class = |priority| {
                q.class(priority).cloned().unwrap_or_else(|| {
                    ClassSojournStats::from_samples(priority, &mut Vec::new(), 0, SimDuration::ZERO)
                })
            };
            let (high, low) = (class(mix.priority), class(0));
            Ok(vec![
                PROCESSES[proc_idx].label(),
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
            ])
        },
    )?;

    let mut t = Table::new(
        format!(
            "fig_qos — {APPS} apps, seed {SEED}, {RUS} RUs, {} (uniform mix = pre-QoS control)",
            POLICY.label()
        ),
        &HEADERS,
    );
    for row in rows {
        t.push_row(row);
    }
    Ok(t)
}

/// Stable mix label for CSV rows.
fn mix_label(mix: &QosSpec) -> String {
    if mix.is_uniform() {
        "uniform".to_string()
    } else {
        match mix.deadline_stretch_pct {
            Some(pct) => format!("strided({})@p{}+{}%", mix.stride, mix.priority, pct),
            None => format!("strided({})@p{}", mix.stride, mix.priority),
        }
    }
}

/// The acceptance check over [`run`]'s table:
///
/// * at the heaviest intensity, run-to-completion (`off`) misses some
///   promoted deadlines, and `checkpoint` misses at most half as many
///   (by rate);
/// * with nobody promoted there is nothing to preempt, so the uniform
///   rows are identical across the three modes.
pub fn check(t: &Table) -> Result<String, String> {
    let peak = PROCESSES[PROCESSES.len() - 1].label();
    let promoted = mix_label(&PROMOTED);
    let miss_of = |mode: PreemptionMode| {
        t.rows()
            .find(|r| {
                r.get("Arrivals") == peak
                    && r.get("Mix") == promoted
                    && r.get("Preemption") == mode.label()
            })
            .map(|r| r.num("Hi miss (%)"))
            .ok_or_else(|| format!("no {promoted} row for {} at {peak}", mode.label()))
    };
    let off = miss_of(PreemptionMode::Off)?;
    let ckpt = miss_of(PreemptionMode::Checkpoint)?;
    if off <= 0.0 {
        return Err(format!(
            "run-to-completion must miss promoted deadlines at {peak}, got {off}%"
        ));
    }
    if ckpt > off / 2.0 {
        return Err(format!(
            "checkpoint miss rate {ckpt}% is above half of off's {off}% at {peak}"
        ));
    }
    for process in PROCESSES {
        let label = process.label();
        let uniform: Vec<Vec<&str>> = t
            .rows()
            .filter(|r| r.get("Arrivals") == label && r.get("Mix") == "uniform")
            .map(|r| {
                HEADERS
                    .iter()
                    .filter(|&&h| h != "Preemption")
                    .map(|h| r.get(h))
                    .collect()
            })
            .collect();
        if uniform.len() != PreemptionMode::ALL.len() {
            return Err(format!(
                "{} uniform rows at {label}, expected one per mode",
                uniform.len()
            ));
        }
        if uniform.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("uniform rows diverge across modes at {label}"));
        }
    }
    Ok(format!(
        "checkpoint misses {ckpt}% of promoted deadlines at {peak}, at most half of \
         off's {off}%; uniform rows agree across all modes"
    ))
}
