//! Whole-sweep throughput: cells/sec through the pooled engine.
//!
//! A replication loop should pay for the *events it simulates*, not
//! for redundant per-cell work (design-time artifacts, engine
//! construction, per-job allocations, per-job ideal recomputation).
//! This bench drives a policy × RU-count × stream-length grid the way
//! the sweep harness does —
//!
//! * one shared [`TemplateRegistry`] for the whole grid (design time
//!   paid once per distinct `(template, system)` pair),
//! * one pooled [`Engine`] for the whole grid, jobs submitted once per
//!   cell,
//! * replications via [`Engine::reset_replay`] + [`Engine::run_with`]
//!   (monomorphised policy dispatch), each a full cold simulation
//!   bit-exact with a fresh run (asserted against the one-shot
//!   [`run_cell`] path before timing) —
//!
//! and reports **cells per second** per cell, against the **pre-pooling
//! baseline** recorded in `results/sweep_throughput_baseline.csv`
//! (measured with the pre-pooling `run_cell` pipeline — a fresh
//! per-cell mobility memo, fresh engine, per-job ideal — on the same
//! machine class that commits the results).
//!
//! Outputs:
//! * `results/sweep_throughput.csv` — per-cell throughput and speedups;
//! * `results/BENCH_sweep.json` — one trajectory point for the
//!   acceptance grid (1e3 jobs × 8 RUs, aggregated over the policy
//!   axis) and the pass/fail of the cells/sec floor.
//!
//! Env knobs: `SWEEP_SMOKE=1` shrinks batches for CI; `SWEEP_FLOOR`
//! overrides the aggregate pooled cells/sec floor (default 500, about a
//! third of what a 2-core dev box measures cold, so only a genuine
//! regression or a pathologically slow runner trips it; CI fails when
//! the floor is violated). A malformed `SWEEP_FLOOR` aborts loudly
//! instead of silently falling back to the default.

use rtr_core::{LfdPolicy, LruPolicy, TemplateRegistry};
use rtr_manager::{Engine, JobSpec, ReplacementPolicy};
use rtr_workload::runner::{run_cell, CellConfig};
use rtr_workload::{PolicyKind, SequenceModel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const RU_COUNTS: [usize; 3] = [4, 8, 16];
const STREAM_LENS: [usize; 2] = [100, 1_000];
const SEQUENCE_SEED: u64 = 42;
/// The acceptance sub-grid of the ISSUE: 1e3 jobs on 8 RUs.
const ACCEPT_APPS: usize = 1_000;
const ACCEPT_RUS: usize = 8;
/// Default aggregate pooled cells/sec floor on the acceptance grid.
const DEFAULT_FLOOR: f64 = 500.0;

fn policies() -> Vec<(PolicyKind, &'static str)> {
    vec![
        (PolicyKind::Lru, "LRU"),
        (
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            "LocalLFD1+Skip",
        ),
        (PolicyKind::Lfd, "LFD"),
    ]
}

/// Times `reps` pooled replications of the prepared cell and returns
/// seconds per cell. The policy is concrete, so the engine loop is
/// monomorphised — the production sweep path.
fn time_pooled<P: ReplacementPolicy>(engine: &mut Engine, policy: &mut P, reps: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        policy.reset();
        engine.reset_replay();
        engine.run_with(policy);
        let out = engine.outcome().expect("cell simulates to completion");
        black_box(out.stats.reuses);
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

/// Best (minimum) seconds-per-cell over `batches` timing batches — the
/// standard noise-robust estimator for throughput: background load on a
/// shared machine only ever inflates a batch, never deflates it, so the
/// fastest batch is the closest measurement of the code itself. The
/// committed pre-PR baseline uses the same estimator.
fn best_pooled<P: ReplacementPolicy>(
    engine: &mut Engine,
    policy: &mut P,
    reps: u32,
    batches: usize,
) -> f64 {
    (0..batches)
        .map(|_| time_pooled(engine, policy, reps))
        .fold(f64::INFINITY, f64::min)
}

/// Measures one cell through the pooled path, in cells per second.
fn measure_cell(
    registry: &Arc<TemplateRegistry>,
    engine: &mut Engine,
    sequence: &[Arc<rtr_taskgraph::TaskGraph>],
    kind: PolicyKind,
    rus: usize,
    reps: u32,
    batches: usize,
) -> f64 {
    let cell = CellConfig::new(kind, rus);
    let cfg = cell.manager_config();
    // Design time once per cell configuration: memoised in the shared
    // registry, so repeat templates/systems across the grid are free.
    let jobs: Vec<JobSpec> = sequence
        .iter()
        .map(|g| {
            registry
                .instantiate(g, &cfg, kind.needs_mobility())
                .expect("benchmark graphs have feasible reference schedules")
        })
        .collect();
    engine.reset_with_config(&cfg, &jobs);

    // Bit-exactness guard: the pooled replication must reproduce the
    // one-shot path before it is worth timing.
    let seconds = match kind {
        PolicyKind::Lru => {
            let mut p = LruPolicy::new();
            verify_against_one_shot(engine, &mut p, sequence, &cell);
            best_pooled(engine, &mut p, reps, batches)
        }
        PolicyKind::LocalLfd { window, skip } => {
            let mut p = if skip {
                LfdPolicy::local_with_skip(window)
            } else {
                LfdPolicy::local(window)
            };
            verify_against_one_shot(engine, &mut p, sequence, &cell);
            best_pooled(engine, &mut p, reps, batches)
        }
        PolicyKind::Lfd => {
            let mut p = LfdPolicy::oracle();
            verify_against_one_shot(engine, &mut p, sequence, &cell);
            best_pooled(engine, &mut p, reps, batches)
        }
        other => unreachable!("bench grid does not include {other:?}"),
    };
    1.0 / seconds
}

fn verify_against_one_shot<P: ReplacementPolicy>(
    engine: &mut Engine,
    policy: &mut P,
    sequence: &[Arc<rtr_taskgraph::TaskGraph>],
    cell: &CellConfig,
) {
    policy.reset();
    engine.reset_replay();
    engine.run_with(policy);
    let pooled = engine.outcome().expect("cell simulates to completion");
    let fresh = run_cell(sequence, cell).expect("cell simulates to completion");
    assert_eq!(
        pooled.stats, fresh.stats,
        "pooled replication diverged from the one-shot path"
    );
}

/// Pre-PR baseline cells/sec, keyed by `(policy label, rus, apps)`,
/// parsed from the committed `results/sweep_throughput_baseline.csv`.
fn load_baseline() -> Vec<(String, usize, usize, f64)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sweep_throughput_baseline.csv"
    );
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .skip(1)
        .filter_map(|line| {
            let mut it = line.split(',');
            Some((
                it.next()?.to_string(),
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
            ))
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("SWEEP_SMOKE").is_ok_and(|v| v != "0");
    // A malformed floor must fail the run, not silently measure against
    // the default: a typo'd CI variable would otherwise pass a
    // regressed build against a floor nobody asked for.
    let floor: f64 = match std::env::var("SWEEP_FLOOR") {
        Ok(v) => v.trim().parse().unwrap_or_else(|e| {
            panic!("malformed SWEEP_FLOOR={v:?}: {e} (expected a cells/sec number)")
        }),
        Err(std::env::VarError::NotPresent) => DEFAULT_FLOOR,
        Err(e) => panic!("unreadable SWEEP_FLOOR: {e}"),
    };
    // Long streams get more, smaller batches: spreading the samples
    // over a wider wall-clock window lets the best-of estimator escape
    // multi-second background-load spikes on shared machines.
    let (batches_small, batches_large, reps_small, reps_large) = if smoke {
        (3, 3, 20, 5)
    } else {
        (7, 15, 200, 20)
    };

    let templates: Vec<Arc<rtr_taskgraph::TaskGraph>> =
        rtr_taskgraph::benchmarks::multimedia_suite()
            .into_iter()
            .map(Arc::new)
            .collect();
    let baseline = load_baseline();
    let baseline_of = |label: &str, rus: usize, apps: usize| -> Option<f64> {
        baseline
            .iter()
            .find(|(l, r, a, _)| l == label && *r == rus && *a == apps)
            .map(|&(_, _, _, v)| v)
    };

    // One registry and one pooled engine serve the entire grid — the
    // sweep-harness topology (per worker thread) collapsed onto one
    // thread for stable timing.
    let registry = Arc::new(TemplateRegistry::new());
    let mut engine: Option<Engine> = None;
    let sequences: Vec<(usize, Vec<Arc<rtr_taskgraph::TaskGraph>>)> = STREAM_LENS
        .iter()
        .map(|&apps| {
            (
                apps,
                SequenceModel::UniformRandom.generate(&templates, apps, SEQUENCE_SEED),
            )
        })
        .collect();

    let mut rows = String::from(
        "policy,rus,apps,baseline_cells_per_sec,pooled_cells_per_sec,speedup_vs_baseline\n",
    );
    let mut accept_base_time = 0.0f64;
    let mut accept_base_cells = 0u32;
    let mut accept_pooled_time = 0.0f64;
    let mut accept_cells = 0u32;
    let mut accept_detail: Vec<(String, f64)> = Vec::new();

    for (kind, label) in policies() {
        for &rus in &RU_COUNTS {
            for &(apps, ref sequence) in &sequences {
                let (reps, batches) = if apps >= 1_000 {
                    (reps_large, batches_large)
                } else {
                    (reps_small, batches_small)
                };
                let cell_cfg = CellConfig::new(kind, rus).manager_config();
                let engine = engine.get_or_insert_with(|| {
                    Engine::with_templates(&cell_cfg, registry.template_set())
                });
                let cells_per_sec =
                    measure_cell(&registry, engine, sequence, kind, rus, reps, batches);
                let base = baseline_of(label, rus, apps);
                let speedup = base.map(|b| cells_per_sec / b);
                println!(
                    "{label} rus={rus} apps={apps}: pooled={cells_per_sec:.0} cells/s \
                     baseline={} speedup={}",
                    base.map_or("n/a".into(), |b| format!("{b:.0}")),
                    speedup.map_or("n/a".into(), |s| format!("{s:.2}x")),
                );
                rows.push_str(&format!(
                    "{label},{rus},{apps},{},{cells_per_sec:.1},{}\n",
                    base.map_or("n/a".into(), |b| format!("{b:.1}")),
                    speedup.map_or("n/a".into(), |s| format!("{s:.2}")),
                ));
                if apps == ACCEPT_APPS && rus == ACCEPT_RUS {
                    // The pooled aggregate (the floor guard) never
                    // depends on the baseline CSV being present.
                    accept_pooled_time += 1.0 / cells_per_sec;
                    accept_cells += 1;
                    accept_detail.push((label.to_string(), cells_per_sec));
                    if let Some(b) = base {
                        accept_base_time += 1.0 / b;
                        accept_base_cells += 1;
                    }
                }
            }
        }
    }

    // Aggregate the acceptance grid: cells/sec over the policy axis at
    // 1e3 jobs × 8 RUs (total cells / total time, both paths). The
    // speedup is only meaningful when every acceptance cell has a
    // committed baseline entry.
    let agg_pooled = f64::from(accept_cells) / accept_pooled_time.max(f64::MIN_POSITIVE);
    let agg_base = (accept_base_cells == accept_cells && accept_cells > 0)
        .then(|| f64::from(accept_base_cells) / accept_base_time.max(f64::MIN_POSITIVE));
    let agg_speedup = agg_base.map(|b| agg_pooled / b.max(f64::MIN_POSITIVE));
    if agg_base.is_none() {
        eprintln!(
            "warning: pre-PR baseline missing for {} of {accept_cells} acceptance cells \
             (results/sweep_throughput_baseline.csv) — speedup unavailable, floor still enforced",
            accept_cells - accept_base_cells
        );
    }
    let floor_ok = agg_pooled >= floor;
    println!(
        "acceptance grid ({ACCEPT_APPS} jobs x {ACCEPT_RUS} RUs, {accept_cells} cells): \
         baseline={} cells/s pooled={agg_pooled:.0} cells/s speedup={} floor={floor:.0} ({})",
        agg_base.map_or("n/a".into(), |b| format!("{b:.0}")),
        agg_speedup.map_or("n/a".into(), |s| format!("{s:.2}x")),
        if floor_ok { "ok" } else { "VIOLATED" }
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("results directory is writable");
    std::fs::write(format!("{dir}/sweep_throughput.csv"), rows).expect("CSV is writable");
    let json = format!(
        "{{\n  \"bench\": \"sweep_throughput\",\n  \"grid\": \"{ACCEPT_APPS}jobs_{ACCEPT_RUS}rus\",\n  \
         \"cells\": {accept_cells},\n  \"baseline_cells_per_sec\": {},\n  \
         \"pooled_cells_per_sec\": {agg_pooled:.1},\n  \"speedup_vs_baseline\": {},\n  \
         \"floor_cells_per_sec\": {floor:.1},\n  \"floor_ok\": {floor_ok},\n  \"smoke\": {smoke}\n}}\n",
        agg_base.map_or("null".into(), |b| format!("{b:.1}")),
        agg_speedup.map_or("null".into(), |s| format!("{s:.2}")),
    );
    std::fs::write(format!("{dir}/BENCH_sweep.json"), json).expect("JSON is writable");
    println!("wrote {dir}/sweep_throughput.csv and {dir}/BENCH_sweep.json");

    if !floor_ok {
        let per_cell = accept_detail
            .iter()
            .map(|(l, v)| format!("{l}={v:.0}"))
            .collect::<Vec<_>>()
            .join(", ");
        let slowest = accept_detail
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, v)| format!("{l} at {v:.0} cells/s"))
            .unwrap_or_else(|| "<no acceptance cells measured>".to_string());
        panic!(
            "pooled sweep throughput REGRESSION on the {ACCEPT_APPS}x{ACCEPT_RUS} grid: \
             measured {agg_pooled:.0} cells/s aggregate < floor {floor:.0} cells/s \
             (per-cell: {per_cell}; slowest: {slowest}). \
             Re-measure with `cargo bench --bench sweep_throughput` or adjust SWEEP_FLOOR \
             only if the regression is intended."
        );
    }
}
