//! `fleet_soak`: 1e6 jobs through a 4-device multi-tenant fleet.
//!
//! One soak: eight tenants submit in 10k-job waves (tenant 0 is greedy:
//! every other submission, against a per-wave quota of 2000), a
//! `drain` places each wave with reuse-affinity placement, one `run`
//! simulates every device, and `outcome` rolls the ledgers up. Set-up
//! (templates, every wave's sequence, `Fleet::new`) is timed apart
//! from the soak. Each soak draws its waves from fresh seeds; the
//! verification fleets are simulated twice and must digest identically.
//! For this workload a "cell" of the latency metrics is one wave's
//! ingress: its submissions plus the drain that places them.

use crate::trace::Tracer;
use crate::{
    derive, digest_stats, median, pct, percentile, secs, set_engine_counts, Checks, Digest,
    Options, SeedGuard, Values,
};
use rtr_manager::{
    Fleet, FleetConfig, FleetStats, JobSpec, PlacementKind, RunStats, SimError, TenantId,
};
use rtr_taskgraph::TaskGraph;
use rtr_workload::runner::CellConfig;
use rtr_workload::{PolicyKind, SequenceModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RU counts of the pooled devices.
const DEVICE_RUS: [usize; 4] = [2, 4, 6, 4];
/// Tenants sharing the fleet (tenant 0 submits half of all jobs).
const TENANTS: u32 = 8;
/// Per-tenant, per-wave admission quota.
const QUOTA: usize = 2_000;
/// Ingress wave size (one `drain` per wave).
const WAVE: usize = 10_000;
/// Jobs per soak.
const JOBS: usize = 1_000_000;
const SMOKE_JOBS: usize = 50_000;
/// Verification set: this many independent fleets of `VERIFY_JOBS`.
const VERIFY_FLEETS: usize = 128;
const VERIFY_JOBS: usize = 20_000;
/// Replacement policy of every device.
const POLICY: PolicyKind = PolicyKind::Lru;
/// Seed streams of the timed soaks and the verification fleets.
const TIMED: u64 = 1;
const VERIFY: u64 = 2;
/// Seed stream of a soak's waves, under the soak's seed.
const WAVES: u64 = 3;

/// The tenant of submission `i`: tenant 0 takes every even submission,
/// the other seven share the rest, so each wave overruns tenant 0's
/// quota and nobody else's.
fn tenant_of(i: usize) -> TenantId {
    if i.is_multiple_of(2) {
        TenantId(0)
    } else {
        TenantId(1 + ((i / 2) as u32 % (TENANTS - 1)))
    }
}

/// A soak ready to run.
struct Soak {
    fleet: Fleet,
    waves: Vec<Vec<Arc<TaskGraph>>>,
}

/// Builds the fleet and generates every wave of soak `seed`.
fn setup(
    jobs: usize,
    seed: u64,
    guard: &mut SeedGuard,
    checks: &mut Checks,
    gen: &mut Duration,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Soak {
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let start = Instant::now();
    let waves = (0..jobs.div_ceil(WAVE))
        .map(|w| {
            let wave_seed = derive(seed, WAVES, w as u64);
            guard.claim(wave_seed, checks);
            let count = WAVE.min(jobs - w * WAVE);
            SequenceModel::UniformRandom.generate(&templates, count, wave_seed)
        })
        .collect();
    let end = Instant::now();
    *gen += end - start;
    tracer.record("workload.sequence", start, end, parent, seed, 0);
    let devices = DEVICE_RUS
        .iter()
        .map(|&rus| CellConfig::new(POLICY, rus).manager_config())
        .collect();
    let cfg = FleetConfig::new(devices, PlacementKind::ReuseAffinity)
        .with_quota(QUOTA)
        .with_decisions(false);
    Soak {
        fleet: Fleet::new(cfg),
        waves,
    }
}

/// What one soak returned, with its phase times.
struct SoakRun {
    stats: Result<FleetStats, SimError>,
    expected_tasks: u64,
    submit: Duration,
    drain: Duration,
    run: Duration,
    outcome: Duration,
    wave_ms: Vec<f64>,
}

impl SoakRun {
    fn busy(&self) -> Duration {
        self.submit + self.drain + self.run + self.outcome
    }
}

/// Submits every wave, draining after each, then runs and rolls up.
fn run_soak(soak: Soak, tracer: &mut Tracer, parent: Option<usize>) -> SoakRun {
    let Soak { mut fleet, waves } = soak;
    let (mut submit, mut drain) = (Duration::ZERO, Duration::ZERO);
    let mut wave_ms = Vec::with_capacity(waves.len());
    let mut expected_tasks = 0;
    let mut submitted = 0usize;
    for (w, wave) in waves.into_iter().enumerate() {
        let t0 = Instant::now();
        for graph in wave {
            let tasks = graph.len() as u64;
            let job = JobSpec::new(graph).with_tenant(tenant_of(submitted));
            // Quota rejections are the point of the greedy tenant: they
            // land in the ledger, not in the error count.
            if fleet.submit(job).is_ok() {
                expected_tasks += tasks;
            }
            submitted += 1;
        }
        let t1 = Instant::now();
        fleet.drain();
        let t2 = Instant::now();
        tracer.record("fleet.submit", t0, t1, parent, w as u64, 0);
        tracer.record("fleet.drain", t1, t2, parent, w as u64, 0);
        submit += t1 - t0;
        drain += t2 - t1;
        wave_ms.push((t2 - t0).as_secs_f64() * 1e3);
    }
    let t3 = Instant::now();
    let mut policies = fleet.fresh_policies(|| POLICY.build());
    fleet.run(&mut policies);
    let t4 = Instant::now();
    let stats = fleet.outcome().map(|o| o.stats);
    let t5 = Instant::now();
    tracer.record("fleet.run", t3, t4, parent, 0, 0);
    tracer.record("fleet.outcome", t4, t5, parent, 0, 0);
    SoakRun {
        stats,
        expected_tasks,
        submit,
        drain,
        run: t4 - t3,
        outcome: t5 - t4,
        wave_ms,
    }
}

/// Checks one soak: it completed, its roll-up balances, every admitted
/// job completed and executed every task of its graph, and the greedy
/// tenant was refused.
fn check_soak(run: &SoakRun, jobs: usize, checks: &mut Checks) {
    let mut problems = Vec::new();
    match &run.stats {
        Err(e) => problems.push(format!("soak: {e}")),
        Ok(s) => {
            if !s.balanced() {
                problems.push("soak roll-up out of balance".to_string());
            }
            if s.completed != s.admitted {
                problems.push(format!(
                    "{} of {} admitted completed",
                    s.completed, s.admitted
                ));
            }
            if s.submitted != jobs as u64 {
                problems.push(format!("{} of {jobs} jobs submitted", s.submitted));
            }
            if s.executed != run.expected_tasks {
                problems.push(format!(
                    "executed {} tasks, admitted graphs have {}",
                    s.executed, run.expected_tasks
                ));
            }
            if s.rejected == 0 {
                problems.push("the greedy tenant was never refused".to_string());
            }
        }
    }
    checks.unit(problems);
}

fn digest_fleet(s: &FleetStats) -> u64 {
    let mut d = Digest::default();
    for w in [
        s.submitted,
        s.admitted,
        s.rejected,
        s.completed,
        s.executed,
        s.reuses,
        s.loads,
        s.makespan.as_us(),
    ] {
        d.push(w);
    }
    for t in &s.per_tenant {
        for w in [
            u64::from(t.tenant),
            t.submitted,
            t.admitted,
            t.rejected,
            t.completed,
            t.executed,
        ] {
            d.push(w);
        }
    }
    for dev in &s.per_device {
        digest_stats(&mut d, dev);
    }
    d.value()
}

/// Host-time totals of one timed phase.
#[derive(Debug, Default)]
struct Phase {
    soaks: usize,
    jobs_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    wave_ms: Vec<f64>,
    submit: Duration,
    drain: Duration,
    run: Duration,
    outcome: Duration,
    admitted: u64,
    executed: u64,
    gen: Duration,
}

/// One timed soak with a fresh seed, accumulated into `p`.
fn timed_soak(
    p: &mut Phase,
    opts: &Options,
    next_id: &mut u64,
    guard: &mut SeedGuard,
    checks: &mut Checks,
    tracer: &mut Tracer,
) {
    let jobs = if opts.smoke { SMOKE_JOBS } else { JOBS };
    let id = *next_id;
    *next_id += 1;
    let seed = derive(opts.seed, TIMED, id);
    guard.claim(seed, checks);
    let span = tracer.open("soak", None, id);
    let t0 = Instant::now();
    let soak = setup(jobs, seed, guard, checks, &mut p.gen, tracer, span);
    p.setup_s.push(secs(t0.elapsed()));
    let r = run_soak(soak, tracer, span);
    check_soak(&r, jobs, checks);
    if let Ok(s) = &r.stats {
        p.jobs_per_s.push(s.admitted as f64 / secs(r.busy()));
        p.admitted += s.admitted;
        p.executed += s.executed;
    }
    p.wave_ms.extend_from_slice(&r.wave_ms);
    p.submit += r.submit;
    p.drain += r.drain;
    p.run += r.run;
    p.outcome += r.outcome;
    p.soaks += 1;
    tracer.close(span);
}

/// The verification set: `VERIFY_FLEETS` independent fleets, each
/// simulated twice.
///
/// Reuse-affinity placement locks each fleet into one of a few device
/// specialisations early on, so one fleet's reuse rate takes one of a
/// handful of levels (27% to 67%) depending on its seed. The simulated
/// metrics are means over many smaller fleets, which keeps their
/// seed-to-seed spread small.
fn verify(opts: &Options, guard: &mut SeedGuard, checks: &mut Checks, values: &mut Values) {
    let (fleets, jobs) = if opts.smoke {
        (2, 2 * WAVE)
    } else {
        (VERIFY_FLEETS, VERIFY_JOBS)
    };
    let mut off = Tracer::new(false);
    let mut gen = Duration::ZERO;
    let mut digests = [Digest::default(); 2];
    let mut kept: Vec<FleetStats> = Vec::with_capacity(fleets);
    for f in 0..fleets {
        let seed = derive(opts.seed, VERIFY, f as u64);
        guard.claim(seed, checks);
        for (pass, digest) in digests.iter_mut().enumerate() {
            // The second pass deliberately repeats the seeds on a fresh
            // fleet: it is the determinism check, not a timed cell.
            let mut pass_guard = SeedGuard::default();
            let g = if pass == 0 {
                &mut *guard
            } else {
                &mut pass_guard
            };
            let soak = setup(jobs, seed, g, checks, &mut gen, &mut off, None);
            let r = run_soak(soak, &mut off, None);
            check_soak(&r, jobs, checks);
            if let Ok(s) = r.stats {
                digest.push(digest_fleet(&s));
                if pass == 0 {
                    kept.push(s);
                }
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
    let n = kept.len().max(1) as f64;
    let mean = |f: &dyn Fn(&FleetStats) -> f64| kept.iter().map(f).sum::<f64>() / n;
    values.set("reuse_pct", mean(&|s| s.cross_device_reuse_rate_pct()));
    values.set(
        "remaining_overhead_pct",
        mean(&|s| {
            pct(
                s.per_device
                    .iter()
                    .map(|d| d.total_overhead().as_us() as f64)
                    .sum(),
                s.per_device
                    .iter()
                    .map(|d| d.original_overhead().as_us() as f64)
                    .sum(),
            )
        }),
    );
    values.set("fleet.fairness_index", mean(&|s| s.fairness_index()));
    let devices: Vec<&RunStats> = kept.iter().flat_map(|s| &s.per_device).collect();
    let mut sojourns: Vec<f64> = devices
        .iter()
        .flat_map(|d| d.sojourns().map(|x| x.as_ms_f64()))
        .collect();
    values.set("sojourn_p99_ms", percentile(&mut sojourns, 99.0));
    set_engine_counts(values, &devices);
    values.notes.push(format!(
        "verification set: {fleets} fleets x {jobs} jobs, simulated twice"
    ));
}

/// Runs the fleet soak workload.
pub fn run(opts: &Options, checks: &mut Checks) -> Values {
    let mut guard = SeedGuard::default();
    let mut values = Values::default();
    verify(opts, &mut guard, checks, &mut values);

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut next_id = 0u64;
    let mut off = Tracer::new(false);
    let began = Instant::now();
    if !opts.trace {
        let mut p = Phase::default();
        while p.soaks == 0 || began.elapsed() < budget {
            timed_soak(&mut p, opts, &mut next_id, &mut guard, checks, &mut off);
        }
        values.set("jobs_per_s", median(&mut p.jobs_per_s));
        values.set("cell_ms_p50", median(&mut p.wave_ms));
        values.set("cell_ms_p99", percentile(&mut p.wave_ms, 99.0));
        values.set("setup_s", median(&mut p.setup_s));
        values.notes.push(format!(
            "timed: {} cold soaks, {} waves (cell_ms samples), 1 thread",
            p.soaks,
            p.wave_ms.len()
        ));
        return values;
    }

    // Traced run: soaks alternate between untraced and traced, so both
    // see the same machine conditions, and which goes first alternates
    // per pair, so neither always follows the other.
    let mut tracer = Tracer::new(true);
    let (mut untraced, mut p) = (Phase::default(), Phase::default());
    while p.soaks == 0 || began.elapsed() < budget {
        for traced in [p.soaks % 2 == 1, p.soaks % 2 == 0] {
            let (phase, t) = if traced {
                (&mut p, &mut tracer)
            } else {
                (&mut untraced, &mut off)
            };
            timed_soak(phase, opts, &mut next_id, &mut guard, checks, t);
        }
    }
    let soaks = p.soaks as f64;
    let busy = p.submit + p.drain + p.run + p.outcome;
    values.set("parallel.workers", 1.0);
    values.set("fleet.submit_s", secs(p.submit) / soaks);
    values.set("fleet.drain_s", secs(p.drain) / soaks);
    values.set(
        "fleet.place_ns_per_job",
        secs(p.drain) * 1e9 / p.admitted.max(1) as f64,
    );
    values.set("fleet.run_s", secs(p.run) / soaks);
    values.set("fleet.outcome_s", secs(p.outcome) / soaks);
    values.set("fleet.run_share_pct", pct(secs(p.run), secs(busy)));
    values.set("engine.self_s", secs(p.run) / soaks);
    values.set(
        "engine.ns_per_task",
        secs(p.run) * 1e9 / p.executed.max(1) as f64,
    );
    values.set("gen.sequence_s", secs(p.gen) / soaks);
    let untraced_jps = median(&mut untraced.jobs_per_s);
    let traced_jps = median(&mut p.jobs_per_s);
    crate::finish_trace(&mut values, opts, &tracer, untraced_jps, traced_jps);
    values
}
