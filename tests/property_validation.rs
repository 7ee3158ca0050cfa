//! Property-based system tests: random workloads through every policy,
//! every resulting schedule checked against the full trace validator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reconfig_reuse::prelude::*;
use reconfig_reuse::taskgraph::generate::{self, GenConfig};
use rtr_manager::validate::validate_trace;
use rtr_manager::FirstCandidatePolicy;
use std::sync::Arc;

/// A random workload: a family of templates and an instance sequence.
#[derive(Debug, Clone)]
struct Workload {
    jobs: Vec<JobSpec>,
    rus: usize,
}

fn build_workload(seed: u64, templates: usize, apps: usize, rus: usize, shared: bool) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GenConfig {
        exec_us: (1_000, 30_000),
        config_base: 100,
        config_pool: if shared { Some(12) } else { None },
    };
    let family = generate::template_family(&mut rng, templates, &cfg);
    let family: Vec<Arc<TaskGraph>> = family.into_iter().map(Arc::new).collect();
    let jobs = (0..apps)
        .map(|i| JobSpec::new(Arc::clone(&family[i % family.len()])))
        .collect();
    Workload { jobs, rus }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        1usize..5,
        1usize..18,
        1usize..8,
        any::<bool>(),
    )
        .prop_map(|(seed, templates, apps, rus, shared)| {
            build_workload(seed, templates, apps, rus, shared)
        })
}

fn policies() -> Vec<Box<dyn ReplacementPolicy>> {
    vec![
        Box::new(FirstCandidatePolicy),
        Box::new(LruPolicy::new()),
        Box::new(FifoPolicy::new()),
        Box::new(MruPolicy::new()),
        Box::new(LfuPolicy::new()),
        Box::new(RandomPolicy::new(99)),
        Box::new(LfdPolicy::local(1)),
        Box::new(LfdPolicy::local(3)),
        Box::new(LfdPolicy::oracle()),
    ]
}

fn lookahead_for(name: &str) -> Lookahead {
    if name == "LFD" {
        Lookahead::All
    } else if name.starts_with("Local LFD (1)") {
        Lookahead::Graphs(1)
    } else if name.starts_with("Local LFD (3)") {
        Lookahead::Graphs(3)
    } else {
        Lookahead::None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_policy_produces_valid_schedules(w in arb_workload()) {
        for mut policy in policies() {
            let cfg = ManagerConfig::paper_default()
                .with_rus(w.rus)
                .with_lookahead(lookahead_for(policy.name()));
            let out = manager::simulate(&cfg, &w.jobs, policy.as_mut())
                .expect("workloads complete");
            let violations = validate_trace(
                &out.trace,
                &w.jobs,
                cfg.device.reconfig_latency,
                Some(&out.stats),
            );
            prop_assert!(
                violations.is_empty(),
                "policy {} violated invariants: {:?}",
                out.stats.policy,
                violations
            );
            // Accounting identities.
            prop_assert_eq!(out.stats.loads + out.stats.reuses, out.stats.executed);
            prop_assert!(out.stats.makespan >= out.stats.ideal_makespan);
        }
    }

    #[test]
    fn simulations_are_deterministic(w in arb_workload()) {
        let cfg = ManagerConfig::paper_default()
            .with_rus(w.rus)
            .with_lookahead(Lookahead::Graphs(2));
        let a = manager::simulate(&cfg, &w.jobs, &mut LfdPolicy::local(2)).unwrap();
        let b = manager::simulate(&cfg, &w.jobs, &mut LfdPolicy::local(2)).unwrap();
        prop_assert_eq!(a.stats.makespan, b.stats.makespan);
        prop_assert_eq!(a.stats.reuses, b.stats.reuses);
        prop_assert_eq!(a.trace.events, b.trace.events);
    }

    #[test]
    fn mobility_annotation_is_jointly_feasible(seed in any::<u64>(), kind in 0u8..4) {
        // On arbitrary generated graphs the full mobility assignment
        // must reproduce the reference makespan when applied as forced
        // delays (the Fig. 6 feasibility condition).
        let mut rng = StdRng::seed_from_u64(seed);
        let gen_cfg = GenConfig::default();
        let graph = Arc::new(match kind {
            0 => generate::chain(&mut rng, "c", 5, &gen_cfg),
            1 => generate::fork_join(&mut rng, "fj", 3, &gen_cfg),
            2 => generate::layered(&mut rng, "ly", 3, 3, 0.5, &gen_cfg),
            _ => generate::series_parallel(&mut rng, "sp", 6, &gen_cfg),
        });
        let cfg = ManagerConfig::paper_default();
        let mobility = compute_mobility(&graph, &cfg).expect("mobility computes");

        let reference = manager::simulate(
            &cfg,
            &[JobSpec::new(Arc::clone(&graph))],
            &mut FirstCandidatePolicy,
        )
        .unwrap()
        .stats
        .makespan;
        let delayed = manager::simulate(
            &cfg,
            &[JobSpec::new(Arc::clone(&graph)).with_forced_delays(Arc::new(mobility))],
            &mut FirstCandidatePolicy,
        )
        .unwrap()
        .stats
        .makespan;
        prop_assert_eq!(delayed, reference);
    }

    #[test]
    fn gantt_rendering_never_panics(w in arb_workload()) {
        let cfg = ManagerConfig::paper_default().with_rus(w.rus);
        let out = manager::simulate(&cfg, &w.jobs, &mut LruPolicy::new()).unwrap();
        let chart = out.trace.to_gantt(w.rus).render();
        prop_assert!(chart.contains("RU1"));
    }
}
