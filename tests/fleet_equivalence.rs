//! Fleet-layer equivalence properties.
//!
//! The multi-tenant fleet virtualizes N pooled engines behind one
//! submission front-end, and its contract is that the virtualization
//! is *invisible*:
//!
//! * a single-device fleet is byte-identical (stats and trace) to the
//!   plain [`simulate`] path, however the ingress is interleaved with
//!   [`Fleet::drain`];
//! * an N-device round-robin fleet equals N independent engines run on
//!   the round-robin partition of the job list;
//! * `reuse-affinity` placement never routes a job to a device with
//!   less resident-configuration overlap than the best available;
//! * per-tenant quota backpressure is pure filtering — dropping the
//!   rejected submissions up front and running without a quota yields
//!   the byte-identical fleet outcome;
//! * [`Fleet::run`] drives the devices on parallel workers, yet every
//!   device of an uneven fleet equals [`simulate`] on the jobs placement
//!   routed to it, with its own policy; a second `run` continues each
//!   device without resetting its policy; and a policy panic on any
//!   device reaches the caller.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reconfig_reuse::taskgraph::generate::{self, GenConfig};
use rtr_core::{FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy};
use rtr_hw::RuId;
use rtr_manager::fleet::ResidencyModel;
use rtr_manager::{
    simulate, simulate_fleet, DecisionContext, Engine, FirstCandidatePolicy, Fleet, FleetConfig,
    FleetOutcome, JobSpec, Lookahead, ManagerConfig, PlacementKind, ReplacementPolicy,
    SimulationOutcome, TenantId,
};
use rtr_sim::SimTime;
use rtr_taskgraph::{benchmarks, TaskGraph};
use rtr_workload::ArrivalProcess;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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

/// One randomly drawn fleet scenario: tenant-stamped jobs and the base
/// device configuration.
#[derive(Debug, Clone)]
struct Scenario {
    jobs: Vec<JobSpec>,
    cfg: ManagerConfig,
    policy_id: u8,
    policy_seed: u64,
}

fn build_scenario(
    seed: u64,
    apps: usize,
    rus: usize,
    arrivals_kind: u8,
    policy_id: u8,
    tenants: usize,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen_cfg = GenConfig {
        exec_us: (1_000, 25_000),
        config_base: 50,
        config_pool: Some(10),
    };
    let templates = 1 + (seed % 3) as usize;
    let family: Vec<Arc<TaskGraph>> = generate::template_family(&mut rng, templates, &gen_cfg)
        .into_iter()
        .map(Arc::new)
        .collect();
    let cfg = ManagerConfig::paper_default()
        .with_rus(rus)
        .with_lookahead(lookahead_for(policy_id, seed))
        .with_trace(true);
    let arrivals = arrival_process(arrivals_kind).generate(apps, seed ^ 0x5EED);
    let jobs: Vec<JobSpec> = (0..apps)
        .map(|i| {
            JobSpec::new(Arc::clone(&family[i % family.len()]))
                .with_arrival(arrivals[i])
                .with_tenant(TenantId((i % tenants) as u32))
        })
        .collect();
    Scenario {
        jobs,
        cfg,
        policy_id,
        policy_seed: seed,
    }
}

fn fingerprint(outcome: &SimulationOutcome) -> (String, String) {
    (
        serde_json::to_string(&outcome.stats).expect("stats serialise"),
        serde_json::to_string(&outcome.trace).expect("trace serialises"),
    )
}

/// The jobs of `submitted[range]` that the recorded placement decisions
/// routed to `device`, in submission order (`submitted[i]` is the
/// fleet's submission `i`).
fn routed(
    outcome: &FleetOutcome,
    submitted: &[JobSpec],
    range: std::ops::Range<usize>,
    device: usize,
) -> Vec<JobSpec> {
    outcome
        .decisions
        .iter()
        .filter(|d| d.device == device && range.contains(&d.submit_index))
        .map(|d| submitted[d.submit_index].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single-device fleet is byte-identical to the plain engine
    /// path, including when the ingress is drained midway (drain is
    /// dispatch, not execution — the FIFO order cannot change).
    #[test]
    fn single_device_fleet_is_bit_exact_with_simulate(
        seed in any::<u64>(),
        apps in 1usize..16,
        rus in 1usize..7,
        arrivals in 0u8..4,
        policy in 0u8..8,
        tenants in 1usize..4,
    ) {
        let s = build_scenario(seed, apps, rus, arrivals, policy, tenants);
        let fresh = {
            let mut p = build_policy(s.policy_id, s.policy_seed);
            simulate(&s.cfg, &s.jobs, p.as_mut()).expect("scenario completes")
        };

        // Batch ingress through the wrapper.
        let cfg = FleetConfig::single(s.cfg.clone());
        let outcome = simulate_fleet(&cfg, &s.jobs, || build_policy(s.policy_id, s.policy_seed))
            .expect("fleet completes");
        prop_assert_eq!(fingerprint(&outcome.devices[0]), fingerprint(&fresh));

        // Interleaved ingress: submit half, drain, submit the rest.
        let mut fleet = Fleet::new(cfg);
        let half = s.jobs.len() / 2;
        for job in &s.jobs[..half] {
            fleet.submit(job.clone()).expect("no quota configured");
        }
        fleet.drain();
        for job in &s.jobs[half..] {
            fleet.submit(job.clone()).expect("no quota configured");
        }
        let mut policies = vec![build_policy(s.policy_id, s.policy_seed)];
        fleet.run(&mut policies);
        let outcome = fleet.outcome().expect("fleet completes");
        prop_assert_eq!(fingerprint(&outcome.devices[0]), fingerprint(&fresh));
    }

    /// An N-device round-robin fleet equals N independent engines, each
    /// running the round-robin partition of the job list (job `i` on
    /// device `i % N`).
    #[test]
    fn round_robin_fleet_equals_independent_engines(
        seed in any::<u64>(),
        apps in 1usize..16,
        rus in 1usize..6,
        arrivals in 0u8..4,
        policy in 0u8..8,
        devices in 2usize..5,
    ) {
        let s = build_scenario(seed, apps, rus, arrivals, policy, 2);
        let device_cfgs: Vec<ManagerConfig> = (0..devices)
            .map(|d| s.cfg.clone().with_rus(1 + ((rus - 1 + d) % 6)))
            .collect();
        let cfg = FleetConfig::new(device_cfgs.clone(), PlacementKind::RoundRobin);
        let outcome = simulate_fleet(&cfg, &s.jobs, || build_policy(s.policy_id, s.policy_seed))
            .expect("fleet completes");
        for (d, dev_cfg) in device_cfgs.iter().enumerate() {
            let routed: Vec<JobSpec> = s
                .jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % devices == d)
                .map(|(_, j)| j.clone())
                .collect();
            let mut p = build_policy(s.policy_id, s.policy_seed);
            let independent =
                simulate(dev_cfg, &routed, p.as_mut()).expect("independent engine completes");
            prop_assert_eq!(
                fingerprint(&outcome.devices[d]),
                fingerprint(&independent),
                "device {} diverged from its independent engine",
                d
            );
        }
    }

    /// `reuse-affinity` placement never routes below the best resident
    /// overlap: replaying the residency models from scratch, every
    /// recorded decision chose a device whose overlap equals the
    /// maximum across the pool.
    #[test]
    fn reuse_affinity_never_routes_below_best_overlap(
        seed in any::<u64>(),
        apps in 2usize..20,
        rus in 1usize..6,
        arrivals in 0u8..4,
        policy in 0u8..8,
        devices in 2usize..5,
    ) {
        let s = build_scenario(seed, apps, rus, arrivals, policy, 3);
        let device_cfgs: Vec<ManagerConfig> = (0..devices)
            .map(|d| s.cfg.clone().with_rus(1 + ((rus - 1 + d) % 6)))
            .collect();
        let rus_per_device: Vec<usize> = device_cfgs.iter().map(|c| c.rus).collect();
        let cfg = FleetConfig::new(device_cfgs, PlacementKind::ReuseAffinity);
        let outcome = simulate_fleet(&cfg, &s.jobs, || build_policy(s.policy_id, s.policy_seed))
            .expect("fleet completes");
        prop_assert_eq!(outcome.decisions.len(), s.jobs.len());
        let mut models: Vec<ResidencyModel> = rus_per_device
            .iter()
            .map(|&capacity| ResidencyModel::new(capacity))
            .collect();
        for decision in &outcome.decisions {
            let replayed: Vec<u32> = models
                .iter()
                .map(|m| m.overlap(&decision.cfg_seq))
                .collect();
            prop_assert_eq!(
                &replayed,
                &decision.overlaps,
                "recorded overlaps diverge from the replayed residency model"
            );
            let best = *replayed.iter().max().expect("at least one device");
            prop_assert_eq!(
                replayed[decision.device], best,
                "job {} routed to device {} with overlap {} while {} was available",
                decision.submit_index, decision.device,
                replayed[decision.device], best
            );
            models[decision.device].admit(&decision.cfg_seq);
        }
    }

    /// Quota backpressure is pure filtering: running the admitted
    /// prefix (the first `quota` submissions of each tenant) without
    /// any quota reproduces the quota'd fleet byte for byte, and the
    /// rejection ledger accounts for exactly the filtered jobs.
    #[test]
    fn quota_rejections_are_pure_filtering(
        seed in any::<u64>(),
        apps in 4usize..20,
        rus in 1usize..6,
        arrivals in 0u8..4,
        policy in 0u8..8,
        tenants in 1usize..4,
        quota in 1usize..6,
    ) {
        let s = build_scenario(seed, apps, rus, arrivals, policy, tenants);
        let device_cfgs: Vec<ManagerConfig> =
            vec![s.cfg.clone(), s.cfg.clone().with_rus(1 + (rus % 6))];
        let quotad = FleetConfig::new(device_cfgs.clone(), PlacementKind::LeastLoaded)
            .with_quota(quota);
        let outcome = simulate_fleet(&quotad, &s.jobs, || build_policy(s.policy_id, s.policy_seed))
            .expect("fleet completes");

        // With one undrained ingress window, the admitted set is the
        // first `quota` submissions of each tenant.
        let mut pending = vec![0usize; tenants];
        let admitted: Vec<JobSpec> = s
            .jobs
            .iter()
            .filter(|j| {
                let p = &mut pending[j.tenant.0 as usize];
                *p += 1;
                *p <= quota
            })
            .cloned()
            .collect();
        let rejected = s.jobs.len() - admitted.len();
        prop_assert_eq!(outcome.stats.admitted, admitted.len() as u64);
        prop_assert_eq!(outcome.stats.rejected, rejected as u64);

        let open = FleetConfig::new(device_cfgs, PlacementKind::LeastLoaded);
        let filtered = simulate_fleet(&open, &admitted, || build_policy(s.policy_id, s.policy_seed))
            .expect("filtered fleet completes");
        for (d, dev) in outcome.devices.iter().enumerate() {
            prop_assert_eq!(
                fingerprint(dev),
                fingerprint(&filtered.devices[d]),
                "device {} diverged once the rejected jobs were pre-filtered",
                d
            );
        }
    }

    /// Every device of an uneven fleet (2–5 devices of 1–6 RUs, each
    /// with its own policy) is byte-identical to `simulate` on the jobs
    /// the recorded decisions routed to it, in submission order — under
    /// reuse-affinity and least-loaded placement, with or without a
    /// quota, drained midway. `run` drives the devices on parallel
    /// workers; this pins that each engine still runs exactly its own
    /// jobs under its own policy.
    #[test]
    fn every_device_equals_simulate_on_its_routed_jobs(
        seed in any::<u64>(),
        apps in 2usize..24,
        arrivals in 0u8..4,
        policy in 0u8..8,
        devices in 2usize..6,
        rus_draw in any::<u64>(),
        affinity in any::<bool>(),
        quota in 0usize..6,
        tenants in 1usize..4,
    ) {
        let s = build_scenario(seed, apps, 1, arrivals, policy, tenants);
        // Device `d` runs policy `policy + d`, with the lookahead it needs.
        let policy_of = |d: usize| policy.wrapping_add(d as u8);
        let device_cfgs: Vec<ManagerConfig> = (0..devices)
            .map(|d| {
                s.cfg
                    .clone()
                    .with_rus(1 + ((rus_draw >> (8 * d)) % 6) as usize)
                    .with_lookahead(lookahead_for(policy_of(d), seed))
            })
            .collect();
        let placement = if affinity {
            PlacementKind::ReuseAffinity
        } else {
            PlacementKind::LeastLoaded
        };
        let mut cfg = FleetConfig::new(device_cfgs.clone(), placement);
        if quota > 0 {
            cfg = cfg.with_quota(quota);
        }
        let mut fleet = Fleet::new(cfg);
        let half = s.jobs.len() / 2;
        for (i, job) in s.jobs.iter().enumerate() {
            if i == half {
                fleet.drain();
            }
            // Quota rejections land in the ledger; the decisions below
            // name the admitted jobs.
            let _ = fleet.submit(job.clone());
        }
        let mut policies: Vec<Box<dyn ReplacementPolicy>> =
            (0..devices).map(|d| build_policy(policy_of(d), seed)).collect();
        fleet.run(&mut policies);
        let outcome = fleet.outcome().expect("fleet completes");
        prop_assert_eq!(outcome.decisions.len() as u64, outcome.stats.admitted);
        prop_assert!(outcome.stats.balanced());
        for (d, dev_cfg) in device_cfgs.iter().enumerate() {
            let jobs = routed(&outcome, &s.jobs, 0..s.jobs.len(), d);
            let mut p = build_policy(policy_of(d), seed);
            let alone = simulate(dev_cfg, &jobs, p.as_mut()).expect("device alone completes");
            prop_assert_eq!(
                fingerprint(&outcome.devices[d]),
                fingerprint(&alone),
                "device {} diverged from simulate on its {} routed jobs",
                d,
                jobs.len()
            );
        }
    }
}

#[test]
fn a_second_run_continues_every_device_without_a_reset() {
    // Two submit + run rounds on an uneven three-device fleet, the
    // second batch arriving long after the first has finished. Each
    // device runs a policy whose history a reset would erase (LRU's
    // recency, Random's draw stream, LFU's counts) and must equal one
    // engine driven the same way: reset once, then submit, run,
    // submit, run.
    let suite: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let policy_ids = [1u8, 5, 4];
    let device_cfgs: Vec<ManagerConfig> = [1, 2, 3]
        .iter()
        .map(|&rus| {
            ManagerConfig::paper_default()
                .with_rus(rus)
                .with_trace(true)
        })
        .collect();
    let batch = |at: SimTime, offset: usize| -> Vec<JobSpec> {
        (0..18)
            .map(|i| {
                JobSpec::new(Arc::clone(&suite[(i * 7 + offset) % suite.len()])).with_arrival(at)
            })
            .collect()
    };
    let first = batch(SimTime::ZERO, 0);
    let second = batch(SimTime::from_ms(600_000), 1);
    let submitted: Vec<JobSpec> = first.iter().chain(&second).cloned().collect();

    let mut fleet = Fleet::new(FleetConfig::new(
        device_cfgs.clone(),
        PlacementKind::ReuseAffinity,
    ));
    let mut policies: Vec<Box<dyn ReplacementPolicy>> =
        policy_ids.iter().map(|&id| build_policy(id, 7)).collect();
    for job in &first {
        fleet.submit(job.clone()).expect("no quota configured");
    }
    fleet.run(&mut policies);
    for job in &second {
        fleet.submit(job.clone()).expect("no quota configured");
    }
    fleet.run(&mut policies);
    let outcome = fleet.outcome().expect("fleet completes");

    let rounds = [0..first.len(), first.len()..submitted.len()];
    for (d, dev_cfg) in device_cfgs.iter().enumerate() {
        let mut policy = build_policy(policy_ids[d], 7);
        policy.reset();
        let mut engine = Engine::new(dev_cfg);
        for round in &rounds {
            for job in routed(&outcome, &submitted, round.clone(), d) {
                engine.submit(job);
            }
            engine.run(policy.as_mut());
        }
        let alone = engine.finish().expect("device alone completes");
        assert!(alone.stats.executed > 0, "device {d} ran nothing");
        assert_eq!(
            fingerprint(&outcome.devices[d]),
            fingerprint(&alone),
            "device {d} diverged from one engine run twice"
        );
    }
}

/// Panics on its first eviction decision.
struct PanicsOnEviction;

impl ReplacementPolicy for PanicsOnEviction {
    fn name(&self) -> &str {
        "panics-on-eviction"
    }

    fn select_victim(&mut self, _ctx: &DecisionContext<'_>) -> RuId {
        panic!("no victim today")
    }
}

#[test]
fn a_policy_panic_on_any_device_reaches_the_caller() {
    // Three 1-RU devices running JPEG, so every device must evict. With
    // 200 jobs per device the caller is still busy with device 0 when a
    // second worker starts, so on more than one core a culprit on
    // device 1 panics on that worker. Whichever thread runs the
    // culprit, `run` re-raises its panic, payload intact, on the caller.
    let g = Arc::new(benchmarks::jpeg());
    for culprit in 0..3 {
        let cfg = FleetConfig::new(
            vec![ManagerConfig::paper_default().with_rus(1); 3],
            PlacementKind::RoundRobin,
        );
        let mut fleet = Fleet::new(cfg);
        for _ in 0..600 {
            fleet
                .submit(JobSpec::new(Arc::clone(&g)))
                .expect("no quota configured");
        }
        let mut policies: Vec<Box<dyn ReplacementPolicy>> = (0..3)
            .map(|d| -> Box<dyn ReplacementPolicy> {
                if d == culprit {
                    Box::new(PanicsOnEviction)
                } else {
                    Box::new(FirstCandidatePolicy)
                }
            })
            .collect();
        let payload = catch_unwind(AssertUnwindSafe(|| fleet.run(&mut policies)))
            .expect_err("the culprit's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"no victim today"),
            "culprit device {culprit}"
        );
    }
}
