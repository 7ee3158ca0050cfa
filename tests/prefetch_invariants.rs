//! Prefetch-subsystem invariants, validated through the shared
//! checker registry (`rtr_manager::validate`) — the same named
//! checkers the `vopr` fuzz harness drives.
//!
//! * The **guard**: no speculative load ever evicts a configuration
//!   with a strictly nearer next use — enforced by the `prefetch-guard`
//!   checker over random scenarios × policies × arrival processes, and
//!   shown to have teeth against a fabricated violating trace.
//! * **Demand priority**: a speculative load is cancelled the moment a
//!   demand load needs the port, and coalesced when it is writing
//!   exactly the configuration demand wants.
//! * **Prefetch off is invisible**: depth 0 records no speculative
//!   events and zeroed prefetch counters, bit-exact with the default
//!   configuration (the golden Fig. 2/3/7 + Table 1/2 tests pin the
//!   actual numbers).
//! * **Prefetch on pays**: on the paper's multimedia workload the
//!   planner hides load latency (lower visible overhead) while raising
//!   — never lowering — the reuse rate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reconfig_reuse::taskgraph::generate::{self, GenConfig};
use rtr_core::{
    compute_mobility, FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy,
};
use rtr_manager::{
    simulate, CheckContext, CheckerRegistry, FirstCandidatePolicy, JobSpec, Lookahead,
    ManagerConfig, PrefetchConfig, ReplacementPolicy, SimulationOutcome, TraceEvent,
};
use rtr_sim::SimDuration;
use rtr_taskgraph::{benchmarks, ConfigId, TaskGraph, TaskGraphBuilder};
use rtr_workload::{ArrivalProcess, SequenceModel};
use std::sync::Arc;

fn ms(x: u64) -> SimDuration {
    SimDuration::from_ms(x)
}

/// Runs the scenario and validates it through the full checker
/// registry, prefetch-depth context included (so `prefetch-off-
/// invisible` engages on depth-0 runs).
fn run(
    cfg: &ManagerConfig,
    jobs: &[JobSpec],
    policy: &mut dyn ReplacementPolicy,
) -> SimulationOutcome {
    let out = simulate(cfg, jobs, policy).expect("scenario completes");
    let cx = CheckContext::new(
        &out.trace,
        jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    )
    .with_prefetch_depth(cfg.prefetch.depth);
    let report = CheckerRegistry::standard().run(&cx);
    assert!(
        report.is_clean(),
        "checker registry found violations:\n{}",
        report.render()
    );
    out
}

/// Streamed multimedia workload: prefetch-on must reduce the visible
/// reconfiguration overhead without lowering the reuse rate, and every
/// hidden load must be attributed as a hit.
#[test]
fn streaming_prefetch_hides_loads_and_raises_reuse() {
    let templates: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let seq = SequenceModel::UniformRandom.generate(&templates, 120, 42);
    let arrivals = ArrivalProcess::Poisson {
        mean_gap_us: 100_000,
    }
    .generate(120, 7);
    let jobs: Vec<JobSpec> = seq
        .iter()
        .zip(&arrivals)
        .map(|(g, &a)| JobSpec::new(Arc::clone(g)).with_arrival(a))
        .collect();
    for (lookahead, mut policy) in [
        (Lookahead::Graphs(1), LfdPolicy::local(1)),
        (Lookahead::All, LfdPolicy::oracle()),
    ] {
        let base_cfg = ManagerConfig::paper_default().with_lookahead(lookahead);
        let off = run(&base_cfg, &jobs, &mut policy);
        let on_cfg = base_cfg
            .clone()
            .with_prefetch(PrefetchConfig::with_depth(4));
        let on = run(&on_cfg, &jobs, &mut policy);
        assert!(
            on.stats.total_overhead() < off.stats.total_overhead(),
            "{lookahead:?}: prefetch-on overhead {} !< prefetch-off {}",
            on.stats.total_overhead(),
            off.stats.total_overhead()
        );
        assert!(
            on.stats.reuse_rate_pct() >= off.stats.reuse_rate_pct(),
            "{lookahead:?}: the guard must never trade reuse away"
        );
        assert!(
            on.stats.prefetch.hits > 0,
            "prefetches must convert to hits"
        );
        // (issued = completed + cancelled is asserted on every `run`
        // by the registry's `ledger` checker.)
        // Prefetch hits surface as reuse claims.
        assert!(on.stats.reuses >= off.stats.reuses);
    }
}

/// The paper's batch setting benefits too: while the tail of a graph
/// executes, the idle port preloads the next graph's configurations.
#[test]
fn batch_prefetch_reduces_overhead() {
    let templates: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let seq = SequenceModel::UniformRandom.generate(&templates, 120, 42);
    let jobs: Vec<JobSpec> = seq.iter().map(|g| JobSpec::new(Arc::clone(g))).collect();
    let cfg = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let off = run(&cfg, &jobs, &mut LfdPolicy::local(1));
    let on = run(
        &cfg.clone().with_prefetch(PrefetchConfig::with_depth(4)),
        &jobs,
        &mut LfdPolicy::local(1),
    );
    assert!(
        on.stats.makespan < off.stats.makespan,
        "prefetch-on makespan {} !< prefetch-off {}",
        on.stats.makespan,
        off.stats.makespan
    );
    assert!(on.stats.reuse_rate_pct() >= off.stats.reuse_rate_pct());
}

/// Hand-built schedule driving the cancellation path. Graph A runs two
/// tasks on the *same* configuration: while the first executes (its
/// copy claimed, unreusable) and the second head is force-delayed, the
/// planner speculates on the backlog; a mid-write arrival unblocks the
/// head, whose demand load (same config, busy copy) aborts the write.
#[test]
fn demand_load_cancels_in_flight_prefetch() {
    let mut b = TaskGraphBuilder::new("A");
    let a0 = b.node("a0", ConfigId(30), ms(6));
    let a1 = b.node("a1", ConfigId(30), ms(2));
    b.edge(a0, a1);
    let a = Arc::new(b.build().unwrap());
    let mut b = TaskGraphBuilder::new("B");
    b.node("b0", ConfigId(31), ms(3));
    let bg = Arc::new(b.build().unwrap());
    let mut b = TaskGraphBuilder::new("D");
    b.node("d0", ConfigId(32), ms(3));
    let dg = Arc::new(b.build().unwrap());
    let jobs = vec![
        JobSpec::new(a).with_forced_delays(Arc::new(vec![0, 1])),
        JobSpec::new(bg),
        // Arrives mid-write of the speculative load (4..8): the
        // arrival event is what retries a1's delayed head.
        JobSpec::new(dg).with_arrival(rtr_sim::SimTime::from_ms(6)),
    ];
    let cfg = ManagerConfig::paper_default()
        .with_rus(2)
        .with_lookahead(Lookahead::Graphs(1))
        .with_prefetch(PrefetchConfig::with_depth(2));
    let out = run(&cfg, &jobs, &mut FirstCandidatePolicy);
    // t=0..4 load C30 (a0 execs 4..10); t=4 head a1 takes its forced
    // skip — C30 is resident but claimed-executing — and the planner
    // prefetches B's C31 into the free RU (4..8). t=6 D's arrival
    // retries a1: its claim of C30 fails (the copy is executing), so
    // the demand load of C30 cancels the C31 write mid-flight and
    // takes the freed RU (6..10).
    assert_eq!(out.stats.prefetch.cancelled, 1);
    assert!(out.trace.iter().any(|e| matches!(
        e,
        TraceEvent::PrefetchCancel {
            config: ConfigId(31),
            ..
        }
    )));
    // C31 is re-prefetched once A's tail executes, and D's C32 behind
    // it; both land as hits.
    assert_eq!(out.stats.prefetch.issued, 3);
    assert_eq!(out.stats.prefetch.completed, 2);
    assert_eq!(out.stats.prefetch.hits, 2);
    // The cancelled write holds the port for 2 ms (4..6) but never
    // charges traffic; only completed loads move bitstreams.
    assert_eq!(
        out.stats.traffic.prefetch_loads,
        out.stats.prefetch.completed
    );
}

/// Regression: the planner's window must *include* the blocked head.
/// With a force-delayed head whose configuration sits resident and
/// unclaimed on the only RU, a head-excluding window would see that
/// resident as "never requested" and evict it for the backlog's
/// configuration — precisely the Fig. 3 hazard. The guard must keep it.
#[test]
fn blocked_head_resident_is_never_a_prefetch_victim() {
    let mut b = TaskGraphBuilder::new("A");
    let a0 = b.node("a0", ConfigId(40), ms(6));
    let a1 = b.node("a1", ConfigId(40), ms(2));
    b.edge(a0, a1);
    let a = Arc::new(b.build().unwrap());
    let mut b = TaskGraphBuilder::new("B");
    b.node("b0", ConfigId(41), ms(3));
    let bg = Arc::new(b.build().unwrap());
    let mut b = TaskGraphBuilder::new("D");
    b.node("d0", ConfigId(42), ms(3));
    let dg = Arc::new(b.build().unwrap());
    let jobs = vec![
        // a1 is delayed two events: its second skip fires at a0's
        // execution end, exactly when C40 is resident-unclaimed and the
        // planner runs with the head still unissued.
        JobSpec::new(a).with_forced_delays(Arc::new(vec![0, 2])),
        JobSpec::new(bg),
        // A late arrival supplies the event that finally issues a1.
        JobSpec::new(dg).with_arrival(rtr_sim::SimTime::from_ms(20)),
    ];
    let cfg = ManagerConfig::paper_default()
        .with_rus(1)
        .with_lookahead(Lookahead::Graphs(1))
        .with_prefetch(PrefetchConfig::with_depth(2));
    // `run` validates the trace: a guard violation (speculative load of
    // C41 evicting C40, whose next request is the head's) would panic.
    let out = run(&cfg, &jobs, &mut FirstCandidatePolicy);
    assert_eq!(out.stats.prefetch.wasted, 0);
    assert!(
        out.stats.reuses >= 1,
        "a1 must reuse the protected resident C40"
    );
}

/// Hand-built schedule driving the coalesce path: the demand head wants
/// exactly the configuration the in-flight prefetch is writing — the
/// engine waits for the write instead of aborting it, and the placement
/// lands as a reuse claim (a prefetch hit).
#[test]
fn demand_coalesces_onto_matching_prefetch() {
    let mut b = TaskGraphBuilder::new("A");
    b.node("a0", ConfigId(20), ms(2));
    let a = Arc::new(b.build().unwrap());
    let mut b = TaskGraphBuilder::new("B");
    b.node("b0", ConfigId(21), ms(4));
    let bg = Arc::new(b.build().unwrap());
    let jobs = vec![JobSpec::new(a), JobSpec::new(bg)];
    let cfg = ManagerConfig::paper_default()
        .with_rus(2)
        .with_lookahead(Lookahead::Graphs(1))
        .with_prefetch(PrefetchConfig::with_depth(1));
    let out = run(&cfg, &jobs, &mut FirstCandidatePolicy);
    // t=0..4 load C20; exec 4..6; meanwhile the planner prefetches C21
    // (4..8). A ends at 6; B's head wants C21 — in flight — and waits
    // for the write instead of cancelling: the claim lands at t=8.
    assert_eq!(out.stats.prefetch.cancelled, 0);
    assert_eq!(out.stats.prefetch.hits, 1);
    assert_eq!(out.stats.reuses, 1, "the coalesced placement is a reuse");
    let reuse_at = out
        .trace
        .iter()
        .find_map(|e| match *e {
            TraceEvent::Reuse {
                config: ConfigId(21),
                at,
                ..
            } => Some(at),
            _ => None,
        })
        .expect("B's node reuses the prefetched configuration");
    assert_eq!(reuse_at, rtr_sim::SimTime::from_ms(8));
    // B executes 8..12: the prefetch hid 2 ms of the 4 ms load.
    assert_eq!(out.stats.makespan, ms(12));
}

/// Depth 0 must be indistinguishable from the pre-prefetch engine:
/// zero counters, no speculative trace events, and bit-identical
/// output with the default configuration.
#[test]
fn prefetch_off_is_invisible() {
    let templates: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let seq = SequenceModel::UniformRandom.generate(&templates, 40, 3);
    let jobs: Vec<JobSpec> = seq.iter().map(|g| JobSpec::new(Arc::clone(g))).collect();
    let default_cfg = ManagerConfig::paper_default();
    let explicit_off = default_cfg.clone().with_prefetch(PrefetchConfig::off());
    // `run` already applies `prefetch-off-invisible` to both runs (no
    // speculative events, zeroed counters); the bit-exactness claim is
    // the registry's `pooled-identity` checker with the explicit-off
    // run as the reference.
    let a = run(&default_cfg, &jobs, &mut LfdPolicy::local(1));
    let b = run(&explicit_off, &jobs, &mut LfdPolicy::local(1));
    let cx = CheckContext::new(
        &a.trace,
        &jobs,
        default_cfg.device.reconfig_latency,
        Some(&a.stats),
    )
    .with_reference(&b)
    .with_prefetch_depth(0);
    let report = CheckerRegistry::standard().run(&cx);
    assert!(
        report.is_clean(),
        "default config must be bit-identical with explicit prefetch-off:\n{}",
        report.render()
    );
}

/// The validator's guard rule has teeth: a fabricated trace whose
/// speculative load evicts a configuration with a strictly nearer next
/// use is flagged.
#[test]
fn validator_rejects_guard_violations() {
    use rtr_hw::RuId;
    use rtr_sim::SimTime;
    use rtr_taskgraph::NodeId;
    // Chain a(C1) → b(C1) → c(C3): after `a` executes, the remaining
    // requests are [C1 (for b), C3 (for c)] — evicting C1 to prefetch
    // C3 trades the nearer reuse away.
    let mut b = TaskGraphBuilder::new("g");
    let n0 = b.node("a", ConfigId(1), ms(5));
    let n1 = b.node("b", ConfigId(1), ms(5));
    let n2 = b.node("c", ConfigId(3), ms(5));
    b.edge(n0, n1).edge(n1, n2);
    let g = Arc::new(b.build().unwrap());
    let jobs = vec![JobSpec::new(g)];
    let t = SimTime::from_ms;
    let mut trace = rtr_manager::Trace::default();
    for ev in [
        TraceEvent::JobArrival { job: 0, at: t(0) },
        TraceEvent::GraphStart { job: 0, at: t(0) },
        TraceEvent::LoadStart {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru: RuId(0),
            at: t(0),
        },
        TraceEvent::LoadEnd {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru: RuId(0),
            at: t(4),
        },
        TraceEvent::ExecStart {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru: RuId(0),
            at: t(4),
        },
        TraceEvent::ExecEnd {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru: RuId(0),
            at: t(9),
        },
        // C1 is needed next (node b), yet the speculative load evicts it.
        TraceEvent::PrefetchStart {
            config: ConfigId(3),
            ru: RuId(0),
            at: t(9),
        },
        TraceEvent::PrefetchEnd {
            config: ConfigId(3),
            ru: RuId(0),
            at: t(13),
        },
    ] {
        trace.push(ev);
    }
    let cx = CheckContext::new(&trace, &jobs, ms(4), None);
    let report = CheckerRegistry::standard().run(&cx);
    let guard = report
        .outcome("prefetch-guard")
        .expect("prefetch-guard is registered");
    assert!(
        guard
            .violations
            .iter()
            .any(|v| v.0.contains("prefetch guard violated")),
        "expected the prefetch-guard checker to flag the eviction, got:\n{}",
        report.render()
    );
    assert!(
        report.failing().contains(&"prefetch-guard"),
        "the violation must be attributed to prefetch-guard by name"
    );
}

/// One randomly drawn scenario for the guard property test.
///
/// `annotate` selects head-blocking job annotations — the engine states
/// in which the head request is pending while the planner runs, where a
/// window bug can turn the head's own resident into a "legal" victim:
/// 0 = none, 1 = mobility + Skip Events, 2 = a forced one-event delay
/// on a random node of every job.
fn guard_scenario(
    seed: u64,
    apps: usize,
    rus: usize,
    arrivals_kind: u8,
    depth: usize,
    annotate: u8,
) -> (Vec<JobSpec>, ManagerConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_cfg = GenConfig {
        exec_us: (1_000, 25_000),
        config_base: 50,
        config_pool: Some(8),
    };
    let family: Vec<Arc<TaskGraph>> =
        generate::template_family(&mut rng, 1 + (seed % 3) as usize, &gen_cfg)
            .into_iter()
            .map(Arc::new)
            .collect();
    let arrivals = match arrivals_kind % 4 {
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
    .generate(apps, seed ^ 0x5EED);
    let lookahead = match seed % 3 {
        0 => Lookahead::None,
        1 => Lookahead::Graphs(1 + (seed % 4) as usize),
        _ => Lookahead::All,
    };
    let cfg = ManagerConfig::paper_default()
        .with_rus(rus)
        .with_lookahead(lookahead)
        .with_skip_events(annotate % 3 == 1)
        .with_prefetch(PrefetchConfig::with_depth(depth))
        .with_trace(true);
    let jobs: Vec<JobSpec> = (0..apps)
        .map(|i| {
            let graph = Arc::clone(&family[i % family.len()]);
            let mut job = JobSpec::new(Arc::clone(&graph)).with_arrival(arrivals[i]);
            match annotate % 3 {
                1 => {
                    let mobility =
                        Arc::new(compute_mobility(&graph, &cfg).expect("mobility computes"));
                    job = job.with_mobility(mobility);
                }
                2 => {
                    let mut delays = vec![0u32; graph.len()];
                    delays[(seed as usize + i) % graph.len()] = 1;
                    job = job.with_forced_delays(Arc::new(delays));
                }
                _ => {}
            }
            job
        })
        .collect();
    (jobs, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy × arrival process × lookahead × depth ×
    /// head-blocking annotation: the recorded schedule passes the full
    /// validator — single-port exclusivity across both lanes, the
    /// reuse-distance guard on every speculative eviction, and the
    /// prefetch/traffic/port counters.
    #[test]
    fn prefetched_schedules_always_validate(
        seed in any::<u64>(),
        apps in 1usize..16,
        rus in 1usize..7,
        arrivals in 0u8..4,
        policy in 0u8..7,
        depth in 1usize..5,
        annotate in 0u8..3,
    ) {
        let (jobs, cfg) = guard_scenario(seed, apps, rus, arrivals, depth, annotate);
        let mut policy: Box<dyn ReplacementPolicy> = match policy % 7 {
            0 => Box::new(FirstCandidatePolicy),
            1 => Box::new(LruPolicy::new()),
            2 => Box::new(FifoPolicy::new()),
            3 => Box::new(MruPolicy::new()),
            4 => Box::new(LfuPolicy::new()),
            5 => Box::new(RandomPolicy::new(seed)),
            _ => Box::new(LfdPolicy::local(2)),
        };
        // Random forced delays can be infeasible (the "following event"
        // never comes) — that is the documented StalledAwaitingEvent
        // error, not a guard property; only completed runs validate.
        match simulate(&cfg, &jobs, policy.as_mut()) {
            Ok(out) => {
                let cx = CheckContext::new(
                    &out.trace,
                    &jobs,
                    cfg.device.reconfig_latency,
                    Some(&out.stats),
                )
                .with_prefetch_depth(cfg.prefetch.depth);
                let report = CheckerRegistry::standard().run(&cx);
                prop_assert!(report.is_clean(), "violations:\n{}", report.render());
            }
            Err(e) => prop_assert!(annotate % 3 == 2, "unexpected stall: {e}"),
        }
    }
}
