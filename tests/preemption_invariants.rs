//! Hand-built preemption schedules, validated by checker name.
//!
//! Two task graphs on the paper-default device (4 ms loads):
//!
//! * `LOW` (priority 0): chain `L1(20ms) -> L2(20ms)`, arriving at 0.
//! * `HIGH` (priority 5): single `H1(5ms)`, arriving mid-execution of
//!   `L1`.
//!
//! Under `PreemptionMode::Checkpoint` the arrival suspends `LOW`,
//! checkpoints the in-flight `L1` and runs `HIGH` to completion; `LOW`
//! then resumes, re-claims its still-resident configurations and pays
//! `remainder + restore` for `L1`. Under `Kill` the same schedule
//! replays `L1` in full and books the elapsed slice as lost work. The
//! timelines are pinned event-for-event through the expected stats, and
//! every trace goes through the full checker registry — the two QoS
//! checkers (`no-lost-work`, `preemption-order`) and the `ledger`
//! checker, which owns the QoS counters, must fire and stay clean.
//!
//! Property tests over random scenarios (random template families,
//! every policy, every arrival process) close the file: armed
//! preemption is invisible under default QoS, and random priority
//! lanes with deadlines, as well as Skip Events with prefetching,
//! validate clean through the full registry.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtr_core::{compute_mobility, LfdPolicy, LruPolicy};
use rtr_manager::{
    simulate, CheckContext, CheckerRegistry, JobSpec, Lookahead, ManagerConfig, PreemptionMode,
    PrefetchConfig, QosClass, RunStats, SimulationOutcome,
};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::generate::{self, GenConfig};
use rtr_taskgraph::{ConfigId, TaskGraph, TaskGraphBuilder};
use rtr_workload::vopr::{build_case, build_policy, Fingerprint};
use rtr_workload::ArrivalProcess;
use std::sync::Arc;

fn low_graph() -> Arc<rtr_taskgraph::TaskGraph> {
    let mut b = TaskGraphBuilder::new("LOW");
    let l1 = b.node("L1", ConfigId(10), SimDuration::from_ms(20));
    let l2 = b.node("L2", ConfigId(11), SimDuration::from_ms(20));
    b.edge(l1, l2);
    Arc::new(b.build().expect("chain is valid"))
}

fn high_graph() -> Arc<rtr_taskgraph::TaskGraph> {
    let mut b = TaskGraphBuilder::new("HIGH");
    b.node("H1", ConfigId(20), SimDuration::from_ms(5));
    Arc::new(b.build().expect("single node is valid"))
}

/// `LOW` at 0, `HIGH` (priority 5, 25 ms deadline) at `high_arrival`.
fn jobs(high_arrival: SimTime) -> Vec<JobSpec> {
    vec![
        JobSpec::new(low_graph()).with_qos(QosClass::priority(0)),
        JobSpec::new(high_graph())
            .with_arrival(high_arrival)
            .with_qos(QosClass::priority(5).with_deadline(SimTime::from_us(25_000))),
    ]
}

fn run(mode: PreemptionMode, high_arrival: SimTime) -> (SimulationOutcome, Vec<JobSpec>) {
    let cfg = ManagerConfig::paper_default().with_preemption(mode);
    let jobs = jobs(high_arrival);
    let out = simulate(&cfg, &jobs, &mut LruPolicy::new()).expect("schedule completes");
    (out, jobs)
}

/// Full-registry validation; returns the report for by-name asserts.
fn validate(out: &SimulationOutcome, jobs: &[JobSpec]) -> rtr_manager::RegistryReport {
    let cfg = ManagerConfig::paper_default();
    let cx = CheckContext::new(
        &out.trace,
        jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    );
    let report = CheckerRegistry::standard().run(&cx);
    assert!(report.is_clean(), "{}", report.render());
    report
}

fn assert_fired(report: &rtr_manager::RegistryReport, name: &str) {
    let o = report.outcome(name).expect("checker is registered");
    assert!(o.fired > 0, "checker {name} never fired on this schedule");
}

#[test]
fn checkpoint_schedule_suspends_and_resumes() {
    // t=0 load L1 (0-4), L1 runs 4-24; load L2 (4-8). HIGH arrives at
    // 10 with the port idle: L1 checkpointed (14 ms left), L2's claim
    // released, LOW suspended. HIGH loads (10-14), runs 14-19, meets
    // its 25 ms deadline. LOW resumes at 19: both configurations are
    // still resident, so L1 re-runs 19-37 (14 ms + 4 ms restore) and
    // L2 runs 37-57.
    let (out, jobs) = run(PreemptionMode::Checkpoint, SimTime::from_us(10_000));
    let report = validate(&out, &jobs);
    for name in ["no-lost-work", "preemption-order", "ledger"] {
        assert_fired(&report, name);
    }
    let c = out.trace.counts();
    assert_eq!(c.preemptions, 1);
    assert_eq!(c.checkpoints, 1);
    assert_eq!(c.killed_nodes, 0);
    assert_eq!(c.resumes, 1);
    let q = &out.stats.qos;
    assert_eq!(q.preemptions, 1);
    assert_eq!(q.checkpoints, 1);
    assert_eq!(q.replayed_nodes, 0);
    assert_eq!(q.lost_work_cycles, SimDuration::ZERO);
    assert_eq!(q.deadline_misses, 0, "HIGH completes at 19 ms < 25 ms");
    assert_eq!(out.stats.makespan, SimDuration::from_us(57_000));
    let high = q.class(5).expect("priority-5 row exists");
    assert_eq!(high.jobs, 1);
    assert_eq!(high.max, SimDuration::from_us(9_000), "HIGH sojourn 10->19");
}

#[test]
fn kill_schedule_replays_and_books_lost_work() {
    // Same timeline to the preemption instant; the kill discards L1's
    // 10-4 = 6 ms of progress, and the resume at 19 replays the full
    // 20 ms (19-39), then L2 runs 39-59.
    let (out, jobs) = run(PreemptionMode::Kill, SimTime::from_us(10_000));
    let report = validate(&out, &jobs);
    for name in ["no-lost-work", "preemption-order", "ledger"] {
        assert_fired(&report, name);
    }
    let c = out.trace.counts();
    assert_eq!(c.preemptions, 1);
    assert_eq!(c.checkpoints, 0);
    assert_eq!(c.killed_nodes, 1);
    assert_eq!(c.resumes, 1);
    let q = &out.stats.qos;
    assert_eq!(q.replayed_nodes, 1);
    assert_eq!(q.lost_work_cycles, SimDuration::from_us(6_000));
    assert_eq!(q.deadline_misses, 0);
    assert_eq!(out.stats.makespan, SimDuration::from_us(59_000));
}

#[test]
fn preemption_defers_behind_inflight_demand_load() {
    // HIGH arrives at 5 ms, while L2's demand load occupies the port
    // (4-8). The preemption must wait for the load to land, then
    // execute at 8: L1 is checkpointed with 16 ms left, HIGH runs
    // 12-17, LOW resumes at 17 (L1 17-37, L2 37-57).
    let (out, jobs) = run(PreemptionMode::Checkpoint, SimTime::from_us(5_000));
    let report = validate(&out, &jobs);
    assert_fired(&report, "preemption-order");
    let c = out.trace.counts();
    assert_eq!(c.preemptions, 1);
    assert_eq!(c.checkpoints, 1);
    assert_eq!(out.stats.makespan, SimDuration::from_us(57_000));
    let high = out.stats.qos.class(5).expect("priority-5 row exists");
    assert_eq!(high.max, SimDuration::from_us(12_000), "HIGH sojourn 5->17");
}

#[test]
fn preemption_off_runs_high_priority_last() {
    // Same workload with preemption off: priorities are ignored for
    // suspension, so HIGH waits for LOW's full 44 ms schedule and
    // blows its deadline — the contrast the fig_qos experiment plots.
    let (out, jobs) = run(PreemptionMode::Off, SimTime::from_us(10_000));
    let report = validate(&out, &jobs);
    assert_fired(&report, "ledger");
    let c = out.trace.counts();
    assert_eq!(c.preemptions, 0);
    assert_eq!(c.resumes, 0);
    let q = &out.stats.qos;
    assert_eq!(q.deadline_misses, 1, "HIGH finishes only after LOW");
    assert!(q.tardiness_total > SimDuration::ZERO);
}

#[test]
fn higher_priority_arrival_preempts_the_preemptor() {
    // A third, even higher-priority job lands while HIGH runs: the
    // suspended stack holds [LOW, HIGH] (priority increasing toward
    // the top) and must unwind LIFO.
    let cfg = ManagerConfig::paper_default().with_preemption(PreemptionMode::Checkpoint);
    let mut js = jobs(SimTime::from_us(10_000));
    let mut b = TaskGraphBuilder::new("TOP");
    b.node("T1", ConfigId(30), SimDuration::from_ms(3));
    let top = Arc::new(b.build().expect("single node is valid"));
    js.push(
        JobSpec::new(top)
            .with_arrival(SimTime::from_us(15_000))
            .with_qos(QosClass::priority(9)),
    );
    let out = simulate(&cfg, &js, &mut LruPolicy::new()).expect("schedule completes");
    let report = validate(&out, &js);
    assert_fired(&report, "preemption-order");
    assert_fired(&report, "no-lost-work");
    let c = out.trace.counts();
    assert_eq!(c.preemptions, 2);
    assert_eq!(c.resumes, 2);
    assert_eq!(out.stats.graph_completions.len(), 3);
}

/// Zeroes every statistic a deadline feeds: the miss count and the
/// tardiness, overall and per class.
fn without_deadline_ledger(mut stats: RunStats) -> RunStats {
    stats.qos.deadline_misses = 0;
    stats.qos.tardiness_total = SimDuration::ZERO;
    for row in &mut stats.qos.class_sojourns {
        row.deadline_misses = 0;
        row.tardiness_total = SimDuration::ZERO;
    }
    stats
}

#[test]
fn deadlines_never_change_the_schedule() {
    // A deadline is measured, never scheduled by: stripping every
    // deadline from a case must leave its trace and every statistic
    // outside the miss/tardiness ledger untouched. The cases are the
    // single-device vopr cases that combine deadlines with prefetching,
    // the feature most likely to grow a deadline rule.
    let mut kept = 0;
    for case_index in 0..500 {
        let fp = Fingerprint {
            master_seed: 0x5EEDC,
            case_index,
            fault: None,
        };
        let case = build_case(&fp);
        let knobs = &case.knobs;
        if knobs.devices != 1
            || knobs.depth == 0
            || case.jobs.iter().all(|j| j.qos.deadline.is_none())
        {
            continue;
        }
        kept += 1;
        let mut stripped = case.jobs.clone();
        for job in &mut stripped {
            job.qos.deadline = None;
        }
        let run = |jobs: &[JobSpec]| {
            let mut policy = build_policy(knobs.policy, knobs.scenario_seed);
            simulate(&case.cfg, jobs, policy.as_mut())
        };
        match (run(&case.jobs), run(&stripped)) {
            (Ok(with), Ok(without)) => {
                assert_eq!(with.trace, without.trace, "case {case_index}: trace");
                assert_eq!(
                    without_deadline_ledger(with.stats),
                    without_deadline_ledger(without.stats),
                    "case {case_index}: stats"
                );
            }
            (with, without) => assert_eq!(
                with.err(),
                without.err(),
                "case {case_index}: one run failed, the other did not"
            ),
        }
    }
    assert!(
        kept >= 100,
        "only {kept} cases combine deadlines and prefetch"
    );
}

/// One randomly drawn scenario: jobs (graphs + arrivals + annotations)
/// and the manager configuration implied by its policy.
#[derive(Debug, Clone)]
struct Scenario {
    jobs: Vec<JobSpec>,
    cfg: ManagerConfig,
    policy_id: u8,
    policy_seed: u64,
}

fn arrival_process(kind: u8) -> ArrivalProcess {
    match kind % 4 {
        0 => ArrivalProcess::Batch,
        1 => ArrivalProcess::Poisson {
            mean_gap_us: 40_000,
        },
        2 => ArrivalProcess::Periodic { period_us: 35_000 },
        _ => ArrivalProcess::Bursty {
            size: 3,
            mean_gap_us: 150_000,
        },
    }
}

/// Lookahead the policy selector of [`build_policy`] needs.
fn lookahead_for(id: u8, seed: u64) -> Lookahead {
    match id % 8 {
        6 => Lookahead::Graphs(1 + (seed % 3) as usize),
        7 => Lookahead::All,
        _ => Lookahead::None,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_scenario(
    seed: u64,
    templates: usize,
    apps: usize,
    rus: usize,
    arrivals_kind: u8,
    policy_id: u8,
    with_mobility: bool,
    prefetch_depth: usize,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_cfg = GenConfig {
        exec_us: (1_000, 25_000),
        config_base: 50,
        config_pool: Some(10),
    };
    let family: Vec<Arc<TaskGraph>> = generate::template_family(&mut rng, templates, &gen_cfg)
        .into_iter()
        .map(Arc::new)
        .collect();
    let cfg = ManagerConfig::paper_default()
        .with_rus(rus)
        .with_lookahead(lookahead_for(policy_id, seed))
        .with_skip_events(with_mobility)
        .with_prefetch(PrefetchConfig::with_depth(prefetch_depth))
        .with_trace(true);
    let arrivals = arrival_process(arrivals_kind).generate(apps, seed ^ 0x5EED);
    let jobs: Vec<JobSpec> = (0..apps)
        .map(|i| {
            let graph = Arc::clone(&family[i % family.len()]);
            let mut job = JobSpec::new(Arc::clone(&graph)).with_arrival(arrivals[i]);
            if with_mobility {
                let mobility = Arc::new(compute_mobility(&graph, &cfg).expect("mobility computes"));
                job = job.with_mobility(mobility);
            }
            job
        })
        .collect();
    Scenario {
        jobs,
        cfg,
        policy_id,
        policy_seed: seed,
    }
}

fn run_scenario(s: &Scenario) -> SimulationOutcome {
    let mut policy = build_policy(s.policy_id, s.policy_seed);
    simulate(&s.cfg, &s.jobs, policy.as_mut()).expect("scenario completes")
}

/// Validates `out` through the full standard registry, prefetch depth
/// and fault plan included. With a `reference`, `pooled-identity`
/// also pins `out` to it: stats field by field, then the trace event
/// by event.
fn assert_validates(
    out: &SimulationOutcome,
    s: &Scenario,
    reference: Option<&SimulationOutcome>,
    what: &str,
) {
    let mut cx = CheckContext::new(
        &out.trace,
        &s.jobs,
        s.cfg.device.reconfig_latency,
        Some(&out.stats),
    )
    .with_prefetch_depth(s.cfg.prefetch.depth)
    .with_fault_plan(&s.cfg.faults);
    if let Some(reference) = reference {
        cx = cx.with_reference(reference);
    }
    let report = CheckerRegistry::standard().run(&cx);
    assert!(report.is_clean(), "{what}:\n{}", report.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With uniform default QoS no arrival can out-prioritise the
    /// current graph, so flipping the preemption knob to `Kill` or
    /// `Checkpoint` must be invisible: stats and trace bit-exact with
    /// the `Off` run.
    #[test]
    fn preemption_modes_invisible_with_default_qos(
        seed in any::<u64>(),
        apps in 1usize..16,
        rus in 1usize..7,
        arrivals in 0u8..4,
        policy in 0u8..8,
    ) {
        let templates = 1 + (seed % 3) as usize;
        let s = build_scenario(seed, templates, apps, rus, arrivals, policy, false, 0);
        let off = run_scenario(&s);
        for mode in [PreemptionMode::Kill, PreemptionMode::Checkpoint] {
            let mut armed = s.clone();
            armed.cfg = armed.cfg.with_preemption(mode);
            let out = run_scenario(&armed);
            assert_validates(&out, &armed, Some(&off), "armed preemption, default QoS");
        }
    }

    /// QoS workloads (random priority lanes, deadlines, every
    /// preemption mode) validate clean: the suspended stack, the
    /// execution tokens and the QoS ledgers stay consistent.
    #[test]
    fn random_qos_runs_validate_clean(
        seed in any::<u64>(),
        apps in 2usize..14,
        rus in 1usize..6,
        arrivals in 0u8..4,
        policy in 0u8..8,
        mode in 0u8..3,
    ) {
        let templates = 1 + (seed % 3) as usize;
        let mut s = build_scenario(seed, templates, apps, rus, arrivals, policy, false, 0);
        s.cfg = s.cfg.with_preemption(PreemptionMode::ALL[mode as usize]);
        for (i, job) in s.jobs.iter_mut().enumerate() {
            let r = seed.rotate_left(i as u32 * 7) ^ i as u64;
            let mut qos = QosClass::priority((r % 4) as u8);
            if r.is_multiple_of(3) {
                qos = qos.with_deadline(
                    job.arrival + SimDuration::from_us(10_000 + (r % 200_000)),
                );
            }
            job.qos = qos;
        }
        let out = run_scenario(&s);
        assert_validates(&out, &s, None, "random QoS scenario");
    }

    /// Skip Events (mobility-annotated jobs, the paper's Fig. 8 steps
    /// 4–5) at prefetch depths 0–2 validate clean, skip counters
    /// included.
    #[test]
    fn random_skip_event_runs_validate_clean(
        seed in any::<u64>(),
        apps in 1usize..12,
        rus in 2usize..6,
        arrivals in 0u8..4,
        window in 1usize..4,
        depth in 0usize..3,
    ) {
        let mut s = build_scenario(seed, 2, apps, rus, arrivals, 6, true, depth);
        s.cfg = s.cfg.with_lookahead(Lookahead::Graphs(window));
        let out = simulate(&s.cfg, &s.jobs, &mut LfdPolicy::local_with_skip(window))
            .expect("scenario completes");
        assert_validates(&out, &s, None, "Skip Events scenario");
    }
}
