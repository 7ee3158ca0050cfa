//! Fault-injection invariants: randomised scenario × policy × fault
//! plan runs must validate clean through the full checker registry,
//! the empty plan must be invisible (byte-identical outcomes to the
//! plain configuration), and the hand-built fault schedules (retry
//! exhaustion, upset-then-repair, quarantine of the last RU) must
//! behave exactly as specified.

use proptest::prelude::*;
use rtr_manager::{
    simulate, CheckContext, CheckerRegistry, FaultPlan, JobSpec, ManagerConfig, PrefetchConfig,
    SimError, SimulationOutcome, TraceEvent,
};
use rtr_sim::SimDuration;
use rtr_taskgraph::generate::{self, GenConfig};
use rtr_taskgraph::TaskGraph;
use rtr_workload::vopr::{build_policy, fault_plan};
use std::sync::Arc;

/// A small deterministic batch workload: `apps` jobs drawn from a
/// seeded template family, all arriving at t = 0.
fn batch_jobs(seed: u64, templates: usize, apps: usize) -> Vec<JobSpec> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_cfg = GenConfig {
        exec_us: (1_000, 25_000),
        config_base: 50,
        config_pool: Some(8),
    };
    let family: Vec<Arc<TaskGraph>> = generate::template_family(&mut rng, templates, &gen_cfg)
        .into_iter()
        .map(Arc::new)
        .collect();
    (0..apps)
        .map(|i| JobSpec::new(Arc::clone(&family[i % family.len()])))
        .collect()
}

fn cfg_with(rus: usize, depth: usize, faults: FaultPlan) -> ManagerConfig {
    ManagerConfig::paper_default()
        .with_rus(rus)
        .with_prefetch(PrefetchConfig::with_depth(depth))
        .with_faults(faults)
        .with_trace(true)
}

fn run(cfg: &ManagerConfig, jobs: &[JobSpec], policy_id: u8, seed: u64) -> SimulationOutcome {
    let mut policy = build_policy(policy_id, seed);
    simulate(cfg, jobs, policy.as_mut()).expect("fault runs with finite repair complete")
}

fn outcome_bytes(out: &SimulationOutcome) -> (String, String) {
    (
        serde_json::to_string(&out.stats).expect("stats serialise"),
        serde_json::to_string(&out.trace).expect("trace serialises"),
    )
}

/// Validates one subject outcome through the full standard registry
/// (reference run included, so pooled-identity arms too) and panics
/// with the rendered report on any violation.
fn assert_validates_clean(
    cfg: &ManagerConfig,
    jobs: &[JobSpec],
    subject: &SimulationOutcome,
    policy_id: u8,
    seed: u64,
) {
    let mut reference_policy = build_policy(policy_id, seed);
    let reference = simulate(cfg, jobs, reference_policy.as_mut()).expect("reference completes");
    let cx = CheckContext::new(
        &subject.trace,
        jobs,
        cfg.device.reconfig_latency,
        Some(&subject.stats),
    )
    .with_reference(&reference)
    .with_prefetch_depth(cfg.prefetch.depth)
    .with_fault_plan(&cfg.faults);
    let report = CheckerRegistry::standard().run(&cx);
    assert!(
        report.is_clean(),
        "fault run violated invariants:\n{}",
        report.render()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scenarios × policies × fault plans validate clean
    /// through every checker, including the four fault checkers.
    #[test]
    fn random_fault_runs_validate_clean(
        seed in 0u64..1_000_000,
        templates in 1usize..4,
        apps in 1usize..10,
        rus in 1usize..6,
        depth_idx in 0usize..4,
        policy_id in 0u8..8,
        rate in 1u8..3,
        mix in 0u8..4,
    ) {
        let jobs = batch_jobs(seed, templates, apps);
        let depth = [0usize, 1, 2, 4][depth_idx];
        let cfg = cfg_with(rus, depth, fault_plan(rate, mix, seed));
        let subject = run(&cfg, &jobs, policy_id, seed);
        assert_validates_clean(&cfg, &jobs, &subject, policy_id, seed);
    }

    /// A plan with every rate zero is off, whatever else it carries: a
    /// config whose plan has zero rates but a non-zero seed, a retry
    /// budget and a repair latency produces byte-identical outcomes
    /// (stats *and* trace) to the plain config.
    #[test]
    fn empty_plan_is_byte_identical_to_off(
        seed in 0u64..1_000_000,
        apps in 1usize..10,
        rus in 1usize..6,
        policy_id in 0u8..8,
    ) {
        let jobs = batch_jobs(seed, 2, apps);
        let plain = cfg_with(rus, 2, FaultPlan::off());
        let explicit = plain.clone().with_faults(FaultPlan {
            load_fault_pm: 0,
            upset_pm: 0,
            ru_fault_pm: 0,
            ..FaultPlan::high(seed + 1)
        });
        prop_assert!(explicit.faults.is_off() && explicit.faults != FaultPlan::off());
        prop_assert_eq!(
            outcome_bytes(&run(&explicit, &jobs, policy_id, seed)),
            outcome_bytes(&run(&plain, &jobs, policy_id, seed))
        );
    }
}

/// Retry exhaustion on both port lanes: a transient-only plan hot
/// enough to exhaust its retry budget must show bounded retries, at
/// least one give-up, and one quarantine per give-up — while still
/// completing every job and validating clean. The depth-0 leg exhausts
/// demand loads; the prefetching leg must also exhaust a speculative
/// load, whose give-up closes the prefetch with a `PrefetchCancel` on
/// the same RU at the same instant.
#[test]
fn retry_exhaustion_gives_up_quarantines_and_recovers() {
    let jobs = batch_jobs(11, 2, 8);
    for (rus, depth) in [(2, 0), (3, 4)] {
        let found = (0u64..64).find_map(|fault_seed| {
            let plan = FaultPlan::off()
                .with_seed(fault_seed)
                .with_load_faults(600, 1)
                .with_ru_faults(0, Some(SimDuration::from_ms(10)));
            let cfg = cfg_with(rus, depth, plan);
            let out = run(&cfg, &jobs, 1, 11);
            let gave_up = if depth == 0 {
                out.trace.counts().fault_giveups > 0
            } else {
                speculative_giveups(&out) > 0
            };
            gave_up.then_some((cfg, out))
        });
        let (cfg, out) = found.unwrap_or_else(|| {
            panic!("64 fault seeds cover a retry exhaustion at {rus} RUs, depth {depth}")
        });
        let c = out.trace.counts();
        assert!(c.fault_retries > 0, "retries precede give-ups");
        assert_eq!(
            c.ru_quarantines, c.fault_giveups,
            "every give-up quarantines its RU (no hard faults configured)"
        );
        assert!(
            out.stats.prefetch.balanced(),
            "issued = completed + cancelled: {:?}",
            out.stats.prefetch
        );
        assert_eq!(
            out.stats.graph_completions.len(),
            jobs.len(),
            "the degraded pool still completes every job"
        );
        assert_validates_clean(&cfg, &jobs, &out, 1, 11);
    }
}

/// Give-ups of speculative loads: a `FaultGiveUp` immediately followed
/// by a `PrefetchCancel` on the same RU at the same instant.
fn speculative_giveups(out: &SimulationOutcome) -> usize {
    let events: Vec<&TraceEvent> = out.trace.iter().collect();
    events
        .windows(2)
        .filter(|w| {
            matches!(
                (w[0], w[1]),
                (
                    TraceEvent::FaultGiveUp { ru, at, .. },
                    TraceEvent::PrefetchCancel { ru: cancelled, at: when, .. },
                ) if ru == cancelled && at == when
            )
        })
        .count()
}

/// Upset then repair: an upset-only plan must invalidate resident
/// configurations (repairing them by lazy re-load) without a single
/// quarantine, and still validate clean.
#[test]
fn upset_is_repaired_by_lazy_reload() {
    let jobs = batch_jobs(23, 2, 10);
    let found = (0u64..64).find_map(|fault_seed| {
        let plan = FaultPlan::off().with_seed(fault_seed).with_upsets(500);
        let cfg = cfg_with(3, 0, plan);
        let out = run(&cfg, &jobs, 1, 23);
        (out.trace.counts().fault_upsets > 0).then_some((cfg, out))
    });
    let (cfg, out) = found.expect("64 fault seeds cover an upset");
    let c = out.trace.counts();
    assert_eq!(c.ru_quarantines, 0, "upsets never quarantine");
    assert_eq!(c.fault_retries, 0, "upsets never retry");
    assert_eq!(
        out.stats.faults.repairs, c.fault_repairs,
        "stats mirror the trace's repair tally"
    );
    assert_eq!(out.stats.graph_completions.len(), jobs.len());
    assert_validates_clean(&cfg, &jobs, &out, 1, 23);
}

/// Quarantining the last RU with no repair configured must surface the
/// typed [`SimError::PoolExhausted`] — not a deadlock, not a stall.
#[test]
fn quarantine_of_last_ru_is_a_typed_error() {
    let jobs = batch_jobs(5, 1, 4);
    let plan = FaultPlan::off().with_seed(3).with_ru_faults(1000, None);
    let cfg = cfg_with(1, 0, plan);
    let mut policy = build_policy(1, 5);
    let err = simulate(&cfg, &jobs, policy.as_mut())
        .expect_err("a permanently dead one-RU pool cannot finish");
    match err {
        SimError::PoolExhausted { completed_jobs, at } => {
            assert!(completed_jobs < jobs.len());
            assert!(at > rtr_sim::SimTime::ZERO);
        }
        other => panic!("expected PoolExhausted, got {other:?}"),
    }
}
