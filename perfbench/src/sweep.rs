//! The two sweep workloads: `fig9_batch` and `qos_stream`.
//!
//! A run simulates a fixed verification set first (twice, on fresh
//! runners: once at `nproc` workers and once on one worker, and the
//! digests must agree), then timed rounds until the budget is spent.
//! A round is one pass over the (policy × RU) grid with fresh seeds:
//! set-up builds the templates, a fresh design-time registry and every
//! cell's generated inputs; the timed part is one `parallel_map_with`
//! call over pooled `CellRunner`s. Grid neighbours always differ in
//! policy or RU count, and every cell has its own seed.

use crate::trace::Tracer;
use crate::{
    derive, digest_stats, median, mix, pct, percentile, secs, set_engine_counts, Checks, Digest,
    Options, SeedGuard, Values,
};
use rtr_core::TemplateRegistry;
use rtr_manager::{FaultPlan, PreemptionMode, QosClass, RunStats, SimError};
use rtr_sim::SimTime;
use rtr_taskgraph::TaskGraph;
use rtr_workload::parallel::{default_workers, parallel_map_with};
use rtr_workload::runner::{pooled_workers, CellConfig, CellResult};
use rtr_workload::{ArrivalProcess, PolicyKind, QosSpec, SequenceModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed stream of the timed cells.
const TIMED: u64 = 1;
/// Seed stream of the verification set.
const VERIFY: u64 = 2;
/// Salts decorrelating a cell's arrivals and faults from its sequence.
const ARRIVAL_SALT: u64 = 0xA77E_0001;
const FAULT_SALT: u64 = 0xFA17_0002;

/// `qos_stream`: mean Poisson inter-arrival gap (simulated time).
const MEAN_GAP_US: u64 = 30_000;
/// `qos_stream`: every 4th job is promoted to this lane priority, with a
/// deadline of 150% of its ideal makespan.
const PROMOTED_PRIORITY: u8 = 5;
/// `qos_stream`: prefetch planning depth.
const PREFETCH_DEPTH: usize = 2;

/// The grid and sizes of one sweep workload.
#[derive(Debug, Clone)]
pub struct Plan {
    apps: usize,
    policies: Vec<PolicyKind>,
    rus: Vec<usize>,
    round_replicas: usize,
    verify_replicas: usize,
    streaming: bool,
}

impl Plan {
    /// The paper's Fig. 9 evaluation: union of the Fig. 9a/b/c policy
    /// sets on 4..=10 RUs, 500-app batch sequences.
    pub fn fig9_batch(smoke: bool) -> Plan {
        let mut policies: Vec<PolicyKind> = Vec::new();
        let sets = [
            PolicyKind::fig9a_set(),
            PolicyKind::fig9b_set(),
            PolicyKind::fig9c_set(),
        ];
        for p in sets.into_iter().flatten() {
            if !policies.contains(&p) {
                policies.push(p);
            }
        }
        Plan {
            apps: if smoke { 60 } else { 500 },
            policies,
            rus: if smoke {
                vec![4, 6]
            } else {
                (4..=10).collect()
            },
            round_replicas: if smoke { 1 } else { 2 },
            verify_replicas: if smoke { 1 } else { 4 },
            streaming: false,
        }
    }

    /// Streaming QoS: LRU and Local LFD (2) on 4/6/8 RUs, Poisson
    /// arrivals, promoted lanes, checkpoint preemption, prefetch and
    /// low-rate faults.
    pub fn qos_stream(smoke: bool) -> Plan {
        Plan {
            apps: if smoke { 60 } else { 500 },
            policies: vec![
                PolicyKind::Lru,
                PolicyKind::LocalLfd {
                    window: 2,
                    skip: false,
                },
            ],
            rus: if smoke { vec![4] } else { vec![4, 6, 8] },
            round_replicas: if smoke { 1 } else { 4 },
            verify_replicas: if smoke { 2 } else { 8 },
            streaming: true,
        }
    }

    /// Cells of `replicas` grid passes; neighbours differ in policy or
    /// RU count.
    fn grid(&self, replicas: usize) -> Vec<(PolicyKind, usize)> {
        let mut out = Vec::new();
        for _ in 0..replicas {
            for &rus in &self.rus {
                out.extend(self.policies.iter().map(|&p| (p, rus)));
            }
        }
        out
    }

    fn cell_config(&self, policy: PolicyKind, rus: usize, seed: u64) -> CellConfig {
        let cell = CellConfig::new(policy, rus);
        if !self.streaming {
            return cell;
        }
        cell.with_preemption(PreemptionMode::Checkpoint)
            .with_prefetch_depth(PREFETCH_DEPTH)
            .with_faults(FaultPlan::low(mix(seed ^ FAULT_SALT)))
    }
}

/// One cell's generated inputs.
struct CellInput {
    id: u64,
    seed: u64,
    cfg: CellConfig,
    sequence: Vec<Arc<TaskGraph>>,
    arrivals: Option<Vec<SimTime>>,
    qos: Option<Vec<QosClass>>,
}

/// A round ready to run: its registry and cells.
struct Round {
    registry: Arc<TemplateRegistry>,
    cells: Vec<CellInput>,
}

/// Host time spent generating inputs.
#[derive(Debug, Default, Clone, Copy)]
struct GenTimes {
    sequence: Duration,
    arrivals: Duration,
    qos: Duration,
}

/// Runs `f` and records it as span `name` under `parent`.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    acc: &mut Duration,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    *acc += end - start;
    tracer.record(name, start, end, parent, id, 0);
    out
}

/// Set-up of one round: templates, a fresh registry and the generated
/// inputs of cells `first..`, cell `id` drawing from `seed_of(id)`.
fn build_round(
    plan: &Plan,
    seed_of: impl Fn(u64) -> u64,
    first: u64,
    replicas: usize,
    gen: &mut GenTimes,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Round {
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let registry = Arc::new(TemplateRegistry::new());
    let grid = plan.grid(replicas);
    let apps = plan.apps;
    let mut cells: Vec<CellInput> = timed(
        tracer,
        "workload.sequence",
        parent,
        first,
        &mut gen.sequence,
        || {
            grid.iter()
                .zip(first..)
                .map(|(&(policy, rus), id)| {
                    let seed = seed_of(id);
                    CellInput {
                        id,
                        seed,
                        cfg: plan.cell_config(policy, rus, seed),
                        sequence: SequenceModel::UniformRandom.generate(&templates, apps, seed),
                        arrivals: None,
                        qos: None,
                    }
                })
                .collect()
        },
    );
    if plan.streaming {
        let process = ArrivalProcess::Poisson {
            mean_gap_us: MEAN_GAP_US,
        };
        timed(
            tracer,
            "workload.arrivals",
            parent,
            first,
            &mut gen.arrivals,
            || {
                for c in &mut cells {
                    c.arrivals = Some(process.generate(apps, mix(c.seed ^ ARRIVAL_SALT)));
                }
            },
        );
        let spec = QosSpec::strided(4, PROMOTED_PRIORITY, 150);
        timed(tracer, "workload.qos", parent, first, &mut gen.qos, || {
            for c in &mut cells {
                let arrivals = c.arrivals.as_deref().expect("arrivals generated above");
                c.qos = spec.assign(&c.sequence, arrivals, c.cfg.rus);
            }
        });
    }
    Round { registry, cells }
}

/// What one cell returned, with its host-time interval.
struct CellOut {
    id: u64,
    tasks: u64,
    result: Result<CellResult, SimError>,
    start: Instant,
    end: Instant,
    worker: usize,
}

/// Runs a round's cells on `workers` pooled runners sharing its
/// registry; results come back in cell order.
fn execute(round: Round, workers: usize) -> Vec<CellOut> {
    let Round { registry, cells } = round;
    let make_runner = pooled_workers(&registry);
    let next_worker = AtomicUsize::new(1);
    parallel_map_with(
        cells,
        workers,
        || (make_runner(), next_worker.fetch_add(1, Ordering::Relaxed)),
        |(runner, worker), cell| {
            let tasks = cell.sequence.iter().map(|g| g.len() as u64).sum();
            let start = Instant::now();
            let result = match &cell.arrivals {
                None => runner.run(&cell.sequence, &cell.cfg),
                Some(arrivals) => runner.run_with_arrivals_qos(
                    &cell.sequence,
                    Some(arrivals),
                    cell.qos.as_deref(),
                    &cell.cfg,
                ),
            };
            CellOut {
                id: cell.id,
                tasks,
                result,
                start,
                end: Instant::now(),
                worker: *worker,
            }
        },
    )
}

/// Checks one cell: it simulated to completion, executed every task
/// of its sequence and completed every application.
fn check_cell(out: &CellOut, apps: usize, checks: &mut Checks) {
    let mut problems = Vec::new();
    match &out.result {
        Err(e) => problems.push(format!("cell {}: {e}", out.id)),
        Ok(r) => {
            if r.stats.executed != out.tasks {
                problems.push(format!(
                    "cell {}: executed {} tasks, sequence has {}",
                    out.id, r.stats.executed, out.tasks
                ));
            }
            if r.stats.graph_completions.len() != apps {
                problems.push(format!(
                    "cell {}: {} of {apps} applications completed",
                    out.id,
                    r.stats.graph_completions.len()
                ));
            }
        }
    }
    checks.unit(problems);
}

/// Host-time totals of one timed phase.
#[derive(Debug, Default)]
struct Phase {
    rounds: usize,
    tasks: u64,
    round_jobs_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    cell_ms: Vec<f64>,
    wall: Duration,
    cell_wall: Duration,
    design: Duration,
    replacement: Duration,
    total: Duration,
    calls: u64,
    gen: GenTimes,
}

/// What every timed round of a run shares: the plan, the seed stream
/// position and the cold-run guard.
struct Timed<'a> {
    plan: &'a Plan,
    seed: u64,
    next_id: u64,
    guard: &'a mut SeedGuard,
    checks: &'a mut Checks,
}

impl Timed<'_> {
    /// One timed round on `workers` workers, accumulated into `p`.
    fn round(&mut self, p: &mut Phase, workers: usize, tracer: &mut Tracer) {
        let plan = self.plan;
        let round_no = p.rounds as u64;
        let round_span = tracer.open("round", None, round_no);
        let t0 = Instant::now();
        let seed = self.seed;
        let round = build_round(
            plan,
            |id| derive(seed, TIMED, id),
            self.next_id,
            plan.round_replicas,
            &mut p.gen,
            tracer,
            round_span,
        );
        p.setup_s.push(secs(t0.elapsed()));
        self.next_id += round.cells.len() as u64;
        for c in &round.cells {
            self.guard.claim(c.seed, self.checks);
        }
        let par_span = tracer.open("workload.parallel", round_span, round_no);
        let t1 = Instant::now();
        let outs = execute(round, workers);
        let wall = t1.elapsed();
        tracer.close(par_span);
        let mut apps = 0usize;
        for o in &outs {
            tracer.record("workload.runner", o.start, o.end, par_span, o.id, o.worker);
            check_cell(o, plan.apps, self.checks);
            let took = o.end - o.start;
            p.cell_ms.push(took.as_secs_f64() * 1e3);
            p.cell_wall += took;
            if let Ok(r) = &o.result {
                apps += r.stats.graph_completions.len();
                p.tasks += r.stats.executed;
                p.design += r.design_time;
                p.replacement += r.replacement_time;
                p.total += r.total_time;
                p.calls += r.replacement_calls;
            }
        }
        p.round_jobs_per_s.push(apps as f64 / secs(wall));
        p.wall += wall;
        p.rounds += 1;
        tracer.close(round_span);
    }
}

/// The verification set, simulated twice on fresh runners.
fn verify(
    plan: &Plan,
    opts: &Options,
    workers: usize,
    guard: &mut SeedGuard,
    checks: &mut Checks,
    values: &mut Values,
) {
    let mut off = Tracer::new(false);
    let mut gen = GenTimes::default();
    let seed_of = |id| derive(opts.seed, VERIFY, id);
    let round = build_round(
        plan,
        seed_of,
        0,
        plan.verify_replicas,
        &mut gen,
        &mut off,
        None,
    );
    for c in &round.cells {
        guard.claim(c.seed, checks);
    }
    let registry = Arc::clone(&round.registry);
    let first = execute(round, workers);
    let again = build_round(
        plan,
        seed_of,
        0,
        plan.verify_replicas,
        &mut gen,
        &mut off,
        None,
    );
    let second = execute(again, 1);

    let mut digests = [Digest::default(); 2];
    for (pass, outs) in [&first, &second].into_iter().enumerate() {
        for o in outs {
            check_cell(o, plan.apps, checks);
            if let Ok(r) = &o.result {
                digests[pass].push(r.replacement_calls);
                digest_stats(&mut digests[pass], &r.stats);
            }
        }
    }
    if digests[0].value() != digests[1].value() {
        checks.problem(format!(
            "verification digests differ between runs of the same seeds: {:#018x} vs {:#018x}",
            digests[0].value(),
            digests[1].value()
        ));
    }
    values.digest = digests[0].value();

    let results: Vec<&CellResult> = first
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let stats: Vec<&RunStats> = results.iter().map(|r| &r.stats).collect();
    let n = stats.len().max(1) as f64;
    values.set(
        "reuse_pct",
        stats.iter().map(|s| s.reuse_rate_pct()).sum::<f64>() / n,
    );
    values.set(
        "remaining_overhead_pct",
        stats
            .iter()
            .map(|s| s.remaining_overhead_pct())
            .sum::<f64>()
            / n,
    );
    let mut sojourns: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.sojourns().map(|d| d.as_ms_f64()))
        .collect();
    values.set("sojourn_p99_ms", percentile(&mut sojourns, 99.0));
    set_engine_counts(values, &stats);
    values.set(
        "policy.calls",
        results.iter().map(|r| r.replacement_calls).sum::<u64>() as f64,
    );
    values.set("registry.templates", registry.templates() as f64);
    values.set(
        "registry.mobility_entries",
        registry.mobility_entries() as f64,
    );
    let (mut misses, mut promoted) = (0u64, 0u64);
    for s in &stats {
        if let Some(c) = s.qos.class(PROMOTED_PRIORITY) {
            misses += c.deadline_misses;
            promoted += c.jobs;
        }
    }
    values.set("qos.deadline_miss_pct", pct(misses as f64, promoted as f64));
    values.notes.push(format!(
        "verification set: {} cells x {} apps, simulated twice (nproc and 1 worker)",
        first.len(),
        plan.apps
    ));
}

/// Runs a sweep workload.
pub fn run(plan: &Plan, opts: &Options, checks: &mut Checks) -> Values {
    let workers = default_workers();
    let mut guard = SeedGuard::with_room(crate::GUARD_ROOM);
    let mut values = Values::default();
    verify(plan, opts, workers, &mut guard, checks, &mut values);

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut timed = Timed {
        plan,
        seed: opts.seed,
        next_id: 0,
        guard: &mut guard,
        checks,
    };
    let mut off = Tracer::new(false);
    let began = Instant::now();
    if !opts.trace {
        let mut p = Phase {
            cell_ms: Vec::with_capacity(crate::GUARD_ROOM),
            ..Phase::default()
        };
        while p.rounds == 0 || began.elapsed() < budget {
            timed.round(&mut p, workers, &mut off);
        }
        values.set("jobs_per_s", median(&mut p.round_jobs_per_s));
        values.set("cell_ms_p50", median(&mut p.cell_ms));
        values.set("cell_ms_p99", percentile(&mut p.cell_ms, 99.0));
        values.set("setup_s", median(&mut p.setup_s));
        values.notes.push(format!(
            "timed: {} rounds, {} cold cells (cell_ms samples), {workers} workers",
            p.rounds,
            p.cell_ms.len()
        ));
        return values;
    }

    // Traced run: rounds rotate between untraced at nproc workers,
    // traced at nproc workers and untraced on one worker, so all three
    // see the same machine conditions.
    let mut tracer = Tracer::new(true);
    let (mut untraced, mut p, mut single) = (Phase::default(), Phase::default(), Phase::default());
    while single.rounds == 0 || began.elapsed() < budget {
        timed.round(&mut untraced, workers, &mut off);
        timed.round(&mut p, workers, &mut tracer);
        timed.round(&mut single, 1, &mut off);
    }
    let jps_n = median(&mut untraced.round_jobs_per_s);
    let jps_1 = median(&mut single.round_jobs_per_s);
    let jps_traced = median(&mut p.round_jobs_per_s);
    let rounds = p.rounds as f64;
    let self_s = tracer.self_seconds();
    let engine = p.total.saturating_sub(p.replacement);
    values.set("parallel.workers", workers as f64);
    values.set("parallel.jobs_per_s_1w", jps_1);
    values.set("parallel.jobs_per_s_nw", jps_n);
    values.set("parallel.scaling_eff", jps_n / (workers as f64 * jps_1));
    values.set(
        "parallel.busy_pct",
        pct(secs(p.cell_wall), secs(p.wall) * workers as f64),
    );
    values.set(
        "parallel.self_s",
        self_s.get("workload.parallel").copied().unwrap_or(0.0) / rounds,
    );
    values.set(
        "runner.self_s",
        secs(p.cell_wall.saturating_sub(p.design + p.total)) / rounds,
    );
    values.set("registry.design_s", secs(p.design) / rounds);
    values.set(
        "policy.decide_ns",
        secs(p.replacement) * 1e9 / p.calls.max(1) as f64,
    );
    values.set("policy.share_pct", pct(secs(p.replacement), secs(p.total)));
    values.set("engine.self_s", secs(engine) / rounds);
    values.set(
        "engine.ns_per_task",
        secs(engine) * 1e9 / p.tasks.max(1) as f64,
    );
    values.set("gen.sequence_s", secs(p.gen.sequence) / rounds);
    values.set("gen.arrivals_s", secs(p.gen.arrivals) / rounds);
    values.set("gen.qos_s", secs(p.gen.qos) / rounds);
    crate::finish_trace(&mut values, opts, &tracer, jps_n, jps_traced);
    values
}
