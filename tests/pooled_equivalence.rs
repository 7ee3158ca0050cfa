//! Pooled-engine determinism: a reused engine must be bit-exact with a
//! fresh one.
//!
//! Sweeps reuse one [`Engine`] across cells ([`Engine::reset`]),
//! pooling every workload-sized allocation. Pooling must be
//! *invisible*: for any scenario — random template families, all
//! policies, every arrival process — the pooled run's [`RunStats`] and
//! full [`Trace`] must equal the fresh [`simulate`] run's, event for
//! event. This property test drives one engine through different
//! scenarios back to back, comparing each leg against a fresh engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reconfig_reuse::taskgraph::generate::{self, GenConfig};
use rtr_core::{
    compute_mobility, FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy,
};
use rtr_manager::{
    simulate, CheckContext, CheckerRegistry, Engine, FaultPlan, FirstCandidatePolicy, JobSpec,
    Lookahead, ManagerConfig, PreemptionMode, PrefetchConfig, QosClass, ReplacementPolicy,
    SimulationOutcome,
};
use rtr_sim::SimDuration;
use rtr_taskgraph::TaskGraph;
use rtr_workload::ArrivalProcess;
use std::sync::Arc;

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

/// Builds the policy for `id` (fresh state every call).
fn build_policy(id: u8, seed: u64) -> Box<dyn ReplacementPolicy> {
    match id % 8 {
        0 => Box::new(FirstCandidatePolicy),
        1 => Box::new(LruPolicy::new()),
        2 => Box::new(FifoPolicy::new()),
        3 => Box::new(MruPolicy::new()),
        4 => Box::new(LfuPolicy::new()),
        5 => Box::new(RandomPolicy::new(seed)),
        6 => Box::new(LfdPolicy::local(1 + (seed % 3) as usize)),
        _ => Box::new(LfdPolicy::oracle()),
    }
}

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

fn run_fresh(s: &Scenario) -> SimulationOutcome {
    let mut policy = build_policy(s.policy_id, s.policy_seed);
    simulate(&s.cfg, &s.jobs, policy.as_mut()).expect("scenario completes")
}

fn run_pooled(engine: &mut Engine, s: &Scenario) -> SimulationOutcome {
    let mut policy = build_policy(s.policy_id, s.policy_seed);
    policy.reset();
    engine.reset(&s.cfg, &s.jobs);
    engine.run(policy.as_mut());
    engine.outcome().expect("scenario completes")
}

/// The bit-exactness claim is the registry's `pooled-identity` checker
/// (field-level counter pins first — naming the leaked counter — then
/// full stats, then the first diverging trace event), run here with the
/// fresh outcome as the reference. The same implementation backs the
/// vopr fuzz harness's reset/retarget lifecycles.
fn assert_same(pooled: &SimulationOutcome, fresh: &SimulationOutcome, s: &Scenario, leg: &str) {
    let cx = CheckContext::new(
        &pooled.trace,
        &s.jobs,
        s.cfg.device.reconfig_latency,
        Some(&pooled.stats),
    )
    .with_reference(fresh)
    .with_prefetch_depth(s.cfg.prefetch.depth)
    .with_fault_plan(&s.cfg.faults);
    let report = CheckerRegistry::standard().run(&cx);
    assert!(
        report.is_clean(),
        "{leg}: pooled run diverged from fresh:\n{}",
        report.render()
    );
}

/// Resetting a pooled engine to an *empty* batch must not leak the
/// previous batch: with zero jobs, `reset` submits nothing, so only its
/// own clearing stands between the two runs.
#[test]
fn reset_to_empty_batch_matches_fresh_empty_run() {
    let s = build_scenario(7, 2, 5, 4, 0, 1, false, 0);
    let empty = Scenario {
        jobs: Vec::new(),
        ..s.clone()
    };
    let fresh_empty = run_fresh(&empty);
    let mut engine = Engine::new(&s.cfg);
    let _ = run_pooled(&mut engine, &s);
    let pooled_empty = run_pooled(&mut engine, &empty);
    assert_same(
        &pooled_empty,
        &fresh_empty,
        &empty,
        "empty batch after a full one",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One engine, two different scenarios back to back, then the first
    /// again: every leg bit-exact with a fresh engine. Scenario
    /// B may enable the prefetcher, so its per-RU flags, counters and
    /// the speculative slot are exercised across resets/retargets too.
    #[test]
    fn pooled_engine_is_bit_exact_with_fresh(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        apps_a in 1usize..20,
        apps_b in 1usize..20,
        rus_a in 1usize..7,
        rus_b in 1usize..7,
        arrivals_a in 0u8..4,
        arrivals_b in 0u8..4,
        policy_a in 0u8..8,
        policy_b in 0u8..8,
        depth_b in 0usize..4,
    ) {
        let templates = 1 + (seed_a % 3) as usize;
        let a = build_scenario(seed_a, templates, apps_a, rus_a, arrivals_a, policy_a, false, 0);
        let b = build_scenario(seed_b, templates, apps_b, rus_b, arrivals_b, policy_b, false, depth_b);
        let fresh_a = run_fresh(&a);
        let fresh_b = run_fresh(&b);

        let mut engine = Engine::new(&a.cfg);
        let pooled_a = run_pooled(&mut engine, &a);
        assert_same(&pooled_a, &fresh_a, &a, "scenario A on a fresh pool");
        // Different config, jobs, policy — the pool must not leak.
        let pooled_b = run_pooled(&mut engine, &b);
        assert_same(&pooled_b, &fresh_b, &b, "scenario B after A");
        // And back to A, exercising a second config retarget.
        let pooled_a2 = run_pooled(&mut engine, &a);
        assert_same(&pooled_a2, &fresh_a, &a, "scenario A after B");
    }

    /// With uniform default QoS no arrival can out-prioritise the
    /// current graph, so flipping the preemption knob to `Kill` or
    /// `Checkpoint` must be invisible: stats and trace bit-exact with
    /// the `Off` run (the tentpole's backward-compatibility contract).
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
        let fresh_off = run_fresh(&s);
        for mode in [PreemptionMode::Kill, PreemptionMode::Checkpoint] {
            let mut armed = s.clone();
            armed.cfg = armed.cfg.with_preemption(mode);
            let mut engine = Engine::new(&armed.cfg);
            let pooled = run_pooled(&mut engine, &armed);
            assert_same(&pooled, &fresh_off, &armed, "armed preemption, default QoS");
        }
    }

    /// QoS workloads (priority lanes, deadlines, live preemptions)
    /// through the pooled engine: bit-exact with a fresh engine on the
    /// first run *and* on a warm rerun, so the suspended stack, the
    /// execution tokens and the QoS ledgers all reset cleanly.
    #[test]
    fn pooled_engine_is_bit_exact_with_fresh_under_qos(
        seed in any::<u64>(),
        apps in 2usize..14,
        rus in 1usize..6,
        arrivals in 0u8..4,
        policy in 0u8..8,
        mode in 0u8..3,
    ) {
        let templates = 1 + (seed % 3) as usize;
        let mut s = build_scenario(seed, templates, apps, rus, arrivals, policy, false, 0);
        s.cfg = s.cfg.with_preemption(match mode {
            0 => PreemptionMode::Off,
            1 => PreemptionMode::Kill,
            _ => PreemptionMode::Checkpoint,
        });
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
        let fresh = run_fresh(&s);
        let mut engine = Engine::new(&s.cfg);
        let pooled = run_pooled(&mut engine, &s);
        assert_same(&pooled, &fresh, &s, "QoS scenario on a fresh pool");
        let rerun = run_pooled(&mut engine, &s);
        assert_same(&rerun, &fresh, &s, "QoS scenario on a warm pool");
    }

    /// A config walk over one pooled engine: base cell, a detour with
    /// prefetch and/or preemption armed, a fault-injecting detour, then
    /// the base cell again. Every leg must be bit-exact with a fresh
    /// engine, so no detour leaves residue in the pool.
    #[test]
    fn pooled_config_walk_is_bit_exact(
        seed in any::<u64>(),
        apps in 2usize..12,
        rus in 1usize..7,
        policy in 0u8..8,
        depth_detour in 0usize..3,
        preempt_detour in 0u8..3,
    ) {
        let base = build_scenario(seed, 1 + (seed % 3) as usize, apps, rus, 0, policy, false, 0);
        let fresh_base = run_fresh(&base);
        let mut engine = Engine::new(&base.cfg);
        let pooled = run_pooled(&mut engine, &base);
        assert_same(&pooled, &fresh_base, &base, "config walk: base cell");

        let mut d = base.clone();
        d.cfg = d.cfg
            .with_prefetch(PrefetchConfig::with_depth(depth_detour))
            .with_preemption(match preempt_detour {
                0 => PreemptionMode::Off,
                1 => PreemptionMode::Kill,
                _ => PreemptionMode::Checkpoint,
            });
        let fresh_d = run_fresh(&d);
        let pooled = run_pooled(&mut engine, &d);
        assert_same(&pooled, &fresh_d, &d, "config walk: prefetch/preemption detour");

        let mut f = base.clone();
        f.cfg = f.cfg.with_faults(FaultPlan::low(seed));
        let fresh_f = run_fresh(&f);
        let pooled = run_pooled(&mut engine, &f);
        assert_same(&pooled, &fresh_f, &f, "config walk: fault detour");

        let pooled = run_pooled(&mut engine, &base);
        assert_same(&pooled, &fresh_base, &base, "config walk: back to base");
    }

    /// Skip Events (mobility-annotated jobs, the paper's Fig. 8 steps
    /// 4–5) through the pooled engine: bit-exact with fresh, including
    /// the skip counters in the trace.
    #[test]
    fn pooled_engine_matches_fresh_with_skip_events(
        seed in any::<u64>(),
        apps in 1usize..12,
        rus in 2usize..6,
        arrivals in 0u8..4,
        window in 1usize..4,
        depth in 0usize..3,
    ) {
        let mut s = build_scenario(seed, 2, apps, rus, arrivals, 6, true, depth);
        s.cfg = s.cfg.with_lookahead(Lookahead::Graphs(window));
        let fresh = {
            let mut p = LfdPolicy::local_with_skip(window);
            simulate(&s.cfg, &s.jobs, &mut p).expect("scenario completes")
        };
        let mut engine = Engine::new(&s.cfg);
        // Two consecutive pooled runs: first exercises a cold pool,
        // second a warm one.
        for leg in ["cold pooled run", "warm pooled run"] {
            let mut p = LfdPolicy::local_with_skip(window);
            p.reset();
            engine.reset(&s.cfg, &s.jobs);
            engine.run(&mut p);
            let pooled = engine.outcome().expect("scenario completes");
            assert_same(&pooled, &fresh, &s, leg);
        }
    }
}
