//! Golden tests: exact reproduction of the paper's worked examples.
//!
//! * Fig. 2 — two task graphs on 4 RUs under LRU / LFD / Local LFD:
//!   reuse counts and reconfiguration overheads.
//! * Fig. 3 — the Skip Events motivational example: ASAP vs skip-enabled
//!   Local LFD (1).
//! * Fig. 7 — the mobility-calculation probe schedules.
//!
//! Every run's trace is additionally checked against the full invariant
//! validator.

use reconfig_reuse::prelude::*;
use rtr_manager::validate::assert_valid;
use rtr_manager::ReplacementPolicy;
use std::sync::Arc;

fn ms(x: u64) -> SimDuration {
    SimDuration::from_ms(x)
}

/// Fig. 2 workload: TG1, TG2, TG2, TG1, TG2 (12 task executions).
fn fig2_jobs() -> Vec<JobSpec> {
    let tg1 = Arc::new(taskgraph::benchmarks::fig2_tg1());
    let tg2 = Arc::new(taskgraph::benchmarks::fig2_tg2());
    [&tg1, &tg2, &tg2, &tg1, &tg2]
        .iter()
        .map(|g| JobSpec::new(Arc::clone(g)))
        .collect()
}

fn run_fig2(policy: &mut dyn ReplacementPolicy, lookahead: Lookahead) -> RunStats {
    let cfg = ManagerConfig::paper_default().with_lookahead(lookahead);
    let jobs = fig2_jobs();
    let out = manager::simulate(&cfg, &jobs, policy).expect("fig2 simulates");
    assert_valid(
        &out.trace,
        &jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    );
    out.stats
}

#[test]
fn fig2_ideal_baseline_is_42ms() {
    let jobs = fig2_jobs();
    assert_eq!(
        rtr_manager::ideal::ideal_sequence_makespan(&jobs, 4),
        ms(42)
    );
}

#[test]
fn fig2a_lru_reuse_and_overhead() {
    // Paper: "Reuse: 16.7% / Overhead: 22 ms".
    let stats = run_fig2(&mut LruPolicy::new(), Lookahead::None);
    assert_eq!(stats.executed, 12);
    assert_eq!(stats.reuses, 2, "LRU reuses 2 of 12 tasks");
    assert!((stats.reuse_rate_pct() - 16.7).abs() < 0.1);
    assert_eq!(stats.total_overhead(), ms(22));
}

#[test]
fn fig2b_lfd_reuse_and_overhead() {
    // Paper: "Reuse: 41.7% / Overhead: 11 ms" — the optimal reuse rate.
    let stats = run_fig2(&mut LfdPolicy::oracle(), Lookahead::All);
    assert_eq!(stats.executed, 12);
    assert_eq!(stats.reuses, 5, "LFD reuses 5 of 12 tasks");
    assert!((stats.reuse_rate_pct() - 41.7).abs() < 0.1);
    assert_eq!(stats.total_overhead(), ms(11));
}

#[test]
fn fig2c_local_lfd_reuse_and_overhead() {
    // Paper: "Reuse: 41.7% / Overhead: 15 ms" — same optimal reuse, 4 ms
    // more overhead because the first load of Task 5 evicts RU1.
    let stats = run_fig2(&mut LfdPolicy::local(1), Lookahead::Graphs(1));
    assert_eq!(stats.reuses, 5, "Local LFD (1) reuses 5 of 12 tasks");
    assert!((stats.reuse_rate_pct() - 41.7).abs() < 0.1);
    assert_eq!(stats.total_overhead(), ms(15));
}

#[test]
fn fig2_local_lfd_with_two_graphs_matches_lfd() {
    // Paper: "this limitation disappears if there are two task graphs
    // enqueued in DL ... Local LFD achieves the same results as LFD."
    let stats = run_fig2(&mut LfdPolicy::local(2), Lookahead::Graphs(2));
    assert_eq!(stats.reuses, 5);
    assert_eq!(stats.total_overhead(), ms(11));
}

#[test]
fn fig2_first_victim_of_local_lfd_is_ru1() {
    // The paper narrates that loading the first instance of Task 5,
    // Local LFD "selects the first candidate it finds, which is RU1"
    // (LFD selects RU3 instead). Check the trace.
    let cfg = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let jobs = fig2_jobs();
    let out = manager::simulate(&cfg, &jobs, &mut LfdPolicy::local(1)).unwrap();
    let first_t5_load = out
        .trace
        .iter()
        .find_map(|e| match *e {
            manager::TraceEvent::LoadStart {
                config: ConfigId(5),
                ru,
                ..
            } => Some(ru),
            _ => None,
        })
        .expect("task 5 is loaded");
    assert_eq!(first_t5_load, RuId(0), "Local LFD evicts RU1");

    let out = manager::simulate(&cfg, &jobs, &mut LfdPolicy::oracle()).unwrap();
    // Oracle needs full lookahead:
    let cfg_all = cfg.with_lookahead(Lookahead::All);
    let out = {
        let _ = out;
        manager::simulate(&cfg_all, &jobs, &mut LfdPolicy::oracle()).unwrap()
    };
    let first_t5_load = out
        .trace
        .iter()
        .find_map(|e| match *e {
            manager::TraceEvent::LoadStart {
                config: ConfigId(5),
                ru,
                ..
            } => Some(ru),
            _ => None,
        })
        .unwrap();
    assert_eq!(first_t5_load, RuId(2), "LFD evicts RU3");
}

/// Fig. 3 workload: TG1, TG2, TG1 (10 task executions), with mobility
/// annotations for the skip runs.
fn fig3_jobs(cfg: &ManagerConfig) -> Vec<JobSpec> {
    let tg1 = Arc::new(taskgraph::benchmarks::fig3_tg1());
    let tg2 = Arc::new(taskgraph::benchmarks::fig3_tg2());
    let registry = TemplateRegistry::new();
    [&tg1, &tg2, &tg1]
        .iter()
        .map(|g| registry.instantiate(g, cfg, true).unwrap())
        .collect()
}

#[test]
fn fig3_ideal_baseline_is_62ms() {
    let cfg = ManagerConfig::paper_default();
    assert_eq!(
        rtr_manager::ideal::ideal_sequence_makespan(&fig3_jobs(&cfg), 4),
        ms(62)
    );
}

#[test]
fn fig3a_asap_local_lfd() {
    // Paper Fig. 3a: "Reuse: 0% / Overhead: 12 ms", makespan 74 ms.
    let cfg = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let jobs = fig3_jobs(&cfg);
    let out = manager::simulate(&cfg, &jobs, &mut LfdPolicy::local(1)).unwrap();
    assert_valid(
        &out.trace,
        &jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    );
    assert_eq!(out.stats.executed, 10);
    assert_eq!(out.stats.reuses, 0);
    assert_eq!(out.stats.makespan, ms(74));
    assert_eq!(out.stats.total_overhead(), ms(12));
}

#[test]
fn fig3b_skip_events_local_lfd() {
    // Paper Fig. 3b: "Reuse: 10% / Overhead: 8 ms", makespan 70 ms —
    // Task 7's load is delayed one event, Task 4 is evicted instead of
    // Task 1, and Task 1 is reused by the second instance of TG1.
    let cfg = ManagerConfig::paper_default()
        .with_lookahead(Lookahead::Graphs(1))
        .with_skip_events(true);
    let jobs = fig3_jobs(&cfg);
    let out = manager::simulate(&cfg, &jobs, &mut LfdPolicy::local_with_skip(1)).unwrap();
    assert_valid(
        &out.trace,
        &jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    );
    assert_eq!(out.stats.executed, 10);
    assert_eq!(out.stats.reuses, 1, "Task 1 is reused");
    assert!((out.stats.reuse_rate_pct() - 10.0).abs() < 1e-9);
    assert_eq!(out.stats.makespan, ms(70));
    assert_eq!(out.stats.total_overhead(), ms(8));
    assert_eq!(out.stats.skips, 1, "exactly one reconfiguration delayed");

    // The reused task is T1 (config 1) of job 2.
    let reuse = out
        .trace
        .iter()
        .find_map(|e| match *e {
            manager::TraceEvent::Reuse { job, config, .. } => Some((job, config)),
            _ => None,
        })
        .expect("one reuse event");
    assert_eq!(reuse, (2, ConfigId(1)));
}

#[test]
fn fig7_probe_schedules_match_paper() {
    // Fig. 7: reference 30 ms; delaying T5 once → 36 ms; T6 once →
    // 32 ms; T7 once → 30 ms; T7 twice → 32 ms.
    let g = Arc::new(taskgraph::benchmarks::fig3_tg2());
    let cfg = ManagerConfig::paper_default();
    let probe = |delays: Vec<u32>| -> SimDuration {
        let job = JobSpec::new(Arc::clone(&g)).with_forced_delays(Arc::new(delays));
        manager::simulate(&cfg, &[job], &mut rtr_manager::FirstCandidatePolicy)
            .unwrap()
            .stats
            .makespan
    };
    assert_eq!(probe(vec![0, 0, 0, 0]), ms(30), "reference schedule");
    assert_eq!(probe(vec![0, 1, 0, 0]), ms(36), "delaying task 5");
    assert_eq!(probe(vec![0, 0, 1, 0]), ms(32), "delaying task 6");
    assert_eq!(probe(vec![0, 0, 0, 1]), ms(30), "delaying task 7 once");
    assert_eq!(probe(vec![0, 0, 0, 2]), ms(32), "delaying task 7 twice");
}

#[test]
fn fig3_graph_timeline_matches_figure() {
    // Cross-check key instants of the Fig. 3a schedule: TG1a completes
    // at 22, TG2 at 52, TG1b at 74.
    let cfg = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let jobs = fig3_jobs(&cfg);
    let out = manager::simulate(&cfg, &jobs, &mut LfdPolicy::local(1)).unwrap();
    assert_eq!(
        out.stats.graph_completions,
        vec![
            SimTime::from_ms(22),
            SimTime::from_ms(52),
            SimTime::from_ms(74)
        ]
    );
}
