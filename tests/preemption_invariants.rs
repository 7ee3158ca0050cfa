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

use rtr_core::LruPolicy;
use rtr_manager::{
    simulate, CheckContext, CheckerRegistry, JobSpec, ManagerConfig, PreemptionMode, QosClass,
    RunStats, SimulationOutcome,
};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{ConfigId, TaskGraphBuilder};
use rtr_workload::vopr::{build_case, build_policy, Fingerprint};
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
