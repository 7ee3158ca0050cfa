//! Anti-vacuity for the invariant-checker registry: a curated golden
//! scenario suite must make **every** registered checker actually
//! evaluate something (`fired > 0`). A checker that never fires is a
//! silent hole — the campaign-level twin of this gate is the `vopr`
//! smoke run's coverage gate. The tamper tables check the converse: for
//! the `ledger` checker, corrupting any one `RunStats` field it
//! re-derives must trip it; for `arrival-order`, an activation out of
//! priority-lane order must.

use rtr_core::LfdPolicy;
use rtr_manager::trace::{Trace, TraceEvent};
use rtr_manager::{
    simulate, simulate_fleet, CheckContext, CheckerRegistry, FleetConfig, FleetOutcome, JobSpec,
    Lookahead, ManagerConfig, PlacementKind, PrefetchConfig, QosClass, ReplacementPolicy, RunStats,
    SimulationOutcome, TenantId,
};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{benchmarks, TaskGraph};
use rtr_workload::vopr::{build_case, build_policy, Fingerprint};
use rtr_workload::{ArrivalProcess, SequenceModel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One golden scenario: a completed run plus the context the registry
/// needs (reference outcome for `pooled-identity`, prefetch depth for
/// `prefetch-off-invisible`).
struct Golden {
    name: &'static str,
    outcome: SimulationOutcome,
    reference: SimulationOutcome,
    jobs: Vec<JobSpec>,
    latency: SimDuration,
    depth: usize,
}

fn multimedia_jobs(count: usize, seed: u64, arrivals: &ArrivalProcess) -> Vec<JobSpec> {
    let templates: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let seq = SequenceModel::UniformRandom.generate(&templates, count, seed);
    let instants = arrivals.generate(count, seed ^ 0xA11);
    seq.iter()
        .zip(&instants)
        .map(|(g, &a)| JobSpec::new(Arc::clone(g)).with_arrival(a))
        .collect()
}

fn golden(
    name: &'static str,
    cfg: &ManagerConfig,
    jobs: Vec<JobSpec>,
    mut policy: Box<dyn ReplacementPolicy>,
) -> Golden {
    let outcome = simulate(cfg, &jobs, policy.as_mut()).expect("golden scenario completes");
    let reference = simulate(cfg, &jobs, policy.as_mut()).expect("golden scenario completes");
    Golden {
        name,
        outcome,
        reference,
        jobs,
        latency: cfg.device.reconfig_latency,
        depth: cfg.prefetch.depth,
    }
}

/// The curated suite, chosen so the union covers every checker:
/// a batch depth-0 run (`prefetch-off-invisible`), a streaming
/// prefetch-on run (`prefetch-guard` probes at every speculative
/// load), and a Skip-Events run (skip/stall paths of
/// `reuse-residency`). Every scenario carries a reference, so
/// `pooled-identity` fires throughout.
fn golden_suite() -> Vec<Golden> {
    let base = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let mut suite = vec![golden(
        "batch-depth0",
        &base,
        multimedia_jobs(40, 11, &ArrivalProcess::Batch),
        Box::new(LfdPolicy::local(1)),
    )];
    let prefetch_cfg = base.clone().with_prefetch(PrefetchConfig::with_depth(4));
    suite.push(golden(
        "streaming-prefetch4",
        &prefetch_cfg,
        multimedia_jobs(
            60,
            42,
            &ArrivalProcess::Poisson {
                mean_gap_us: 100_000,
            },
        ),
        Box::new(LfdPolicy::local(1)),
    ));
    let skip_cfg = base
        .clone()
        .with_lookahead(Lookahead::Graphs(2))
        .with_skip_events(true);
    let skip_jobs: Vec<JobSpec> = multimedia_jobs(30, 7, &ArrivalProcess::Batch)
        .into_iter()
        .map(|job| {
            let mobility = Arc::new(
                rtr_core::compute_mobility(&job.graph, &skip_cfg).expect("mobility computes"),
            );
            job.with_mobility(mobility)
        })
        .collect();
    suite.push(golden(
        "skip-events",
        &skip_cfg,
        skip_jobs,
        Box::new(LfdPolicy::local_with_skip(2)),
    ));
    suite
}

/// The fleet golden: a 2-device ReuseAffinity pool under a tenant
/// quota tight enough to reject some submissions, so the admission
/// replay of `tenant-isolation` exercises both branches. Each device
/// carries a partitioned reference run (jobs routed to it, replayed
/// through a dedicated engine) so the single-device checkers fire on
/// the pooled traces too.
struct FleetGolden {
    cfg: FleetConfig,
    outcome: FleetOutcome,
    routed: Vec<Vec<JobSpec>>,
    references: Vec<SimulationOutcome>,
    device_rus: Vec<usize>,
}

fn fleet_golden() -> FleetGolden {
    let base = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let devices: Vec<ManagerConfig> = [2usize, 4]
        .iter()
        .map(|&rus| base.clone().with_rus(rus))
        .collect();
    let device_rus: Vec<usize> = devices.iter().map(|c| c.rus).collect();
    let cfg = FleetConfig::new(devices, PlacementKind::ReuseAffinity).with_quota(10);
    let jobs: Vec<JobSpec> = multimedia_jobs(48, 23, &ArrivalProcess::Batch)
        .into_iter()
        .enumerate()
        .map(|(i, job)| job.with_tenant(TenantId((i % 3) as u32)))
        .collect();
    let build = || Box::new(LfdPolicy::local(1)) as Box<dyn ReplacementPolicy>;
    let outcome = simulate_fleet(&cfg, &jobs, build).expect("fleet golden completes");
    let mut routed: Vec<Vec<JobSpec>> = vec![Vec::new(); cfg.devices.len()];
    for d in &outcome.decisions {
        routed[d.device].push(jobs[d.submit_index].clone());
    }
    let references: Vec<SimulationOutcome> = cfg
        .devices
        .iter()
        .zip(&routed)
        .map(|(dev_cfg, dev_jobs)| {
            let mut policy = build();
            simulate(dev_cfg, dev_jobs, policy.as_mut()).expect("fleet reference completes")
        })
        .collect();
    FleetGolden {
        cfg,
        outcome,
        routed,
        references,
        device_rus,
    }
}

#[test]
fn every_registered_checker_fires_on_the_golden_suite() {
    let registry = CheckerRegistry::standard();
    let mut fired: BTreeMap<&'static str, u64> =
        registry.names().into_iter().map(|n| (n, 0)).collect();
    for g in golden_suite() {
        let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
            .with_reference(&g.reference)
            .with_prefetch_depth(g.depth);
        let report = registry.run(&cx);
        assert!(
            report.is_clean(),
            "golden scenario '{}' must validate:\n{}",
            g.name,
            report.render()
        );
        for o in &report.outcomes {
            *fired.get_mut(o.name).expect("registered name") += o.fired;
        }
    }
    let fg = fleet_golden();
    let info = fg.outcome.check_info(&fg.cfg, &fg.device_rus);
    for (d, dev) in fg.outcome.devices.iter().enumerate() {
        let cx = CheckContext::new(
            &dev.trace,
            &fg.routed[d],
            fg.cfg.devices[d].device.reconfig_latency,
            Some(&dev.stats),
        )
        .with_reference(&fg.references[d]);
        let cx = if d == 0 { cx.with_fleet(&info) } else { cx };
        let report = registry.run(&cx);
        assert!(
            report.is_clean(),
            "fleet golden device {d} must validate:\n{}",
            report.render()
        );
        for o in &report.outcomes {
            *fired.get_mut(o.name).expect("registered name") += o.fired;
        }
    }
    let silent: Vec<&&str> = fired
        .iter()
        .filter_map(|(name, &n)| (n == 0).then_some(name))
        .collect();
    assert!(
        silent.is_empty(),
        "checkers never fired on the golden suite (vacuous): {silent:?}\ntotals: {fired:?}"
    );
}

#[test]
fn registry_reports_are_deterministic_and_ordered() {
    let registry = CheckerRegistry::standard();
    let suite = golden_suite();
    let g = &suite[1];
    let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
        .with_reference(&g.reference)
        .with_prefetch_depth(g.depth);
    let a = registry.run(&cx);
    let b = registry.run(&cx);
    assert_eq!(a.render(), b.render(), "reports must be byte-stable");
    let names: Vec<&'static str> = a.outcomes.iter().map(|o| o.name).collect();
    assert_eq!(
        names,
        registry.names(),
        "report order must follow registration order"
    );
}

#[test]
fn disabling_a_checker_silences_only_that_checker() {
    let mut registry = CheckerRegistry::standard();
    registry
        .set_enabled("prefetch-guard", false)
        .expect("registered name");
    let suite = golden_suite();
    let g = &suite[1]; // the prefetch-on scenario
    let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
        .with_reference(&g.reference)
        .with_prefetch_depth(g.depth);
    let report = registry.run(&cx);
    assert!(report.outcome("prefetch-guard").is_none());
    assert_eq!(
        report.outcomes.len(),
        CheckerRegistry::standard().names().len() - 1
    );
    assert!(report.is_clean());
}

/// One unit of simulated time (the clock counts microseconds).
const TICK: SimDuration = SimDuration::from_us(1);

/// A `RunStats` field and a one-unit corruption of it.
type Tamper = (&'static str, fn(&mut RunStats));

/// One row per `RunStats` field the `ledger` checker re-derives. Class
/// rows are corrupted in the first row (every completed run has one).
fn tampers() -> Vec<Tamper> {
    vec![
        ("loads", |s| s.loads += 1),
        ("reuses", |s| s.reuses += 1),
        ("executed", |s| s.executed += 1),
        ("skips", |s| s.skips += 1),
        ("stalls", |s| s.stalls += 1),
        ("prefetch.issued", |s| s.prefetch.issued += 1),
        ("prefetch.completed", |s| s.prefetch.completed += 1),
        ("prefetch.cancelled", |s| s.prefetch.cancelled += 1),
        ("prefetch.hits", |s| s.prefetch.hits += 1),
        ("prefetch.wasted", |s| s.prefetch.wasted += 1),
        ("traffic.loads", |s| s.traffic.loads += 1),
        ("traffic.reuses", |s| s.traffic.reuses += 1),
        ("traffic.prefetch_loads", |s| s.traffic.prefetch_loads += 1),
        ("port_busy_time", |s| s.port_busy_time += TICK),
        ("makespan", |s| s.makespan += TICK),
        ("graph_arrivals", |s| s.graph_arrivals[0] += TICK),
        ("graph_completions", |s| s.graph_completions[0] += TICK),
        ("qos.preemptions", |s| s.qos.preemptions += 1),
        ("qos.checkpoints", |s| s.qos.checkpoints += 1),
        ("qos.replayed_nodes", |s| s.qos.replayed_nodes += 1),
        ("qos.lost_work_cycles", |s| s.qos.lost_work_cycles += TICK),
        ("qos.deadline_misses", |s| s.qos.deadline_misses += 1),
        ("qos.tardiness_total", |s| s.qos.tardiness_total += TICK),
        ("qos.class_sojourns.jobs", |s| {
            s.qos.class_sojourns[0].jobs += 1
        }),
        ("qos.class_sojourns.deadline_misses", |s| {
            s.qos.class_sojourns[0].deadline_misses += 1
        }),
        ("qos.class_sojourns.tardiness_total", |s| {
            s.qos.class_sojourns[0].tardiness_total += TICK
        }),
        ("qos.class_sojourns.sojourn_total", |s| {
            s.qos.class_sojourns[0].sojourn_total += TICK
        }),
        ("faults.injected", |s| s.faults.injected += 1),
        ("faults.retries", |s| s.faults.retries += 1),
        ("faults.repairs", |s| s.faults.repairs += 1),
        ("faults.quarantines", |s| s.faults.quarantines += 1),
        ("faults.heals", |s| s.faults.heals += 1),
        ("faults.degraded_time", |s| s.faults.degraded_time += TICK),
        ("faults.lost_work_cycles", |s| {
            s.faults.lost_work_cycles += TICK
        }),
    ]
}

#[test]
fn ledger_catches_every_tampered_field() {
    let registry = CheckerRegistry::standard();
    let mut completed = 0;
    for case_index in 0..64 {
        let case = build_case(&Fingerprint {
            master_seed: 0x1ED6E5,
            case_index,
            fault: None,
        });
        let mut policy = build_policy(case.knobs.policy, case.knobs.scenario_seed);
        let Ok(out) = simulate(&case.cfg, &case.jobs, policy.as_mut()) else {
            continue; // a stalled case has no ledger to tamper with
        };
        completed += 1;
        let run = |stats: &RunStats| {
            let cx = CheckContext::new(
                &out.trace,
                &case.jobs,
                case.cfg.device.reconfig_latency,
                Some(stats),
            )
            .with_prefetch_depth(case.knobs.depth)
            .with_fault_plan(&case.cfg.faults);
            registry.run(&cx)
        };
        let clean = run(&out.stats);
        assert!(
            clean.is_clean(),
            "case {case_index} must validate untampered:\n{}",
            clean.render()
        );
        for (field, tamper) in tampers() {
            let mut bad = out.stats.clone();
            tamper(&mut bad);
            let failing = run(&bad).failing();
            assert!(
                failing.contains(&"ledger"),
                "case {case_index}: bumping {field} by one unit went unnoticed (failing: {failing:?})"
            );
        }
    }
    assert!(completed >= 32, "only {completed} of 64 cases completed");
}

/// The `arrival-order` violations of a hand-written activation trace
/// over jobs of the given priorities. Each event is `(kind, job, ms)`:
/// `A` arrival (which also sets the job's specified arrival), `S`
/// start, `E` end, `R` resume, and `P` a preemption of the running
/// graph by `job`.
fn arrival_order_violations(priorities: &[u8], parts: &[&[(char, u32, u64)]]) -> usize {
    let g = Arc::new(benchmarks::jpeg());
    let mut jobs: Vec<JobSpec> = priorities
        .iter()
        .map(|&p| JobSpec::new(Arc::clone(&g)).with_qos(QosClass::priority(p)))
        .collect();
    let mut trace = Trace::default();
    let mut running = None;
    for &(kind, job, ms) in parts.concat().iter() {
        let at = SimTime::from_ms(ms);
        trace.push(match kind {
            'A' => {
                jobs[job as usize].arrival = at;
                TraceEvent::JobArrival { job, at }
            }
            'S' | 'R' => {
                running = Some(job);
                if kind == 'S' {
                    TraceEvent::GraphStart { job, at }
                } else {
                    TraceEvent::GraphResume { job, at }
                }
            }
            'E' => TraceEvent::GraphEnd { job, at },
            _ => TraceEvent::Preempt {
                victim: running.take().expect("a graph runs"),
                preemptor: job,
                at,
            },
        });
    }
    let cx = CheckContext::new(&trace, &jobs, SimDuration::from_ms(4), None);
    let report = CheckerRegistry::standard().run(&cx);
    let outcome = report.outcome("arrival-order").expect("registered");
    outcome.violations.len()
}

#[test]
fn arrival_order_catches_activations_out_of_lane_order() {
    // Job 1 (priority 5) waits behind job 0 (priority 0).
    let burst = [('A', 0, 0), ('A', 1, 0)];
    let lanes = [('S', 1, 0), ('E', 1, 9), ('S', 0, 9), ('E', 0, 18)];
    assert_eq!(arrival_order_violations(&[0, 5], &[&burst, &lanes]), 0);
    let low_first = [('S', 0, 0), ('E', 0, 9), ('S', 1, 9), ('E', 1, 18)];
    assert!(arrival_order_violations(&[0, 5], &[&burst, &low_first]) > 0);
    // Job 1 preempts job 0; job 2 (priority 5) arrives while job 1
    // runs, so it outranks the suspended job 0 when job 1 ends.
    let head = [('A', 0, 0), ('S', 0, 0), ('A', 1, 1), ('P', 1, 1)];
    let mid = [('S', 1, 1), ('A', 2, 2), ('E', 1, 5)];
    let lanes = [('S', 2, 5), ('E', 2, 9), ('R', 0, 9), ('E', 0, 12)];
    assert_eq!(
        arrival_order_violations(&[1, 5, 5], &[&head, &mid, &lanes]),
        0
    );
    let resume_first = [('R', 0, 5), ('E', 0, 8), ('S', 2, 8), ('E', 2, 12)];
    assert!(arrival_order_violations(&[1, 5, 5], &[&head, &mid, &resume_first]) > 0);
}
