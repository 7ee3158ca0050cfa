//! Million-job fleet soak: sustained ingress throughput through the
//! multi-tenant submission front-end.
//!
//! The fleet layer's cost model is "placement is bookkeeping": one
//! residency-model scan per job on the dispatch plane, then the pooled
//! engines do exactly the work a dedicated engine would. This soak
//! drives 1e6 jobs (50k under `FLEET_SMOKE=1`) through a 4-device
//! heterogeneous pool (2/4/6/4 RUs) under `reuse-affinity` placement,
//! in ingress waves of 10k with a [`Fleet::drain`] between waves —
//! eight tenants, one of them greedy (half of all submissions) against
//! a per-wave quota, so admission control and the rejection ledger are
//! on the hot path too. Decision recording and traces are off, as a
//! production-scale run would have them.
//!
//! The soak runs twice and the two outcomes must be identical — the
//! determinism claim at scale — while the wall-clock of the faster run
//! sets the throughput figure (background load only ever inflates a
//! run, never deflates it).
//!
//! Outputs `results/BENCH_fleet.json`: admitted jobs/sec, the
//! cross-device reuse rate, Jain's fairness index over per-tenant
//! completions, and the pass/fail of the jobs/sec floor.
//!
//! Env knobs: `FLEET_SMOKE=1` shrinks the soak to 50k jobs for CI;
//! `FLEET_FLOOR` overrides the admitted-jobs/sec floor (default
//! 20,000 — far below what a dev machine measures, so only a genuine
//! regression or a pathologically slow runner trips it; the run
//! panics when violated). A malformed `FLEET_FLOOR` aborts loudly
//! instead of silently falling back to the default.

use rtr_manager::{
    Fleet, FleetConfig, FleetStats, JobSpec, ManagerConfig, PlacementKind, ReplacementPolicy,
    TenantId,
};
use rtr_taskgraph::TaskGraph;
use rtr_workload::{PolicyKind, SequenceModel};
use std::sync::Arc;
use std::time::Instant;

/// RU counts of the pooled devices.
const DEVICE_RUS: [usize; 4] = [2, 4, 6, 4];
/// Tenants sharing the fleet (tenant 0 submits half of all jobs).
const TENANTS: u32 = 8;
/// Per-tenant, per-wave admission quota.
const QUOTA: usize = 2_000;
/// Ingress wave size (one `drain` per wave).
const WAVE: usize = 10_000;
/// Soak sizes.
const FULL_JOBS: usize = 1_000_000;
const SMOKE_JOBS: usize = 50_000;
const SEQUENCE_SEED: u64 = 42;
/// Default admitted-jobs/sec floor.
const DEFAULT_FLOOR: f64 = 20_000.0;

/// The tenant of submission `i`: tenant 0 is greedy (every even
/// submission), the other seven share the rest — so each 10k wave has
/// tenant 0 submitting 5k against a 2k quota while everyone else
/// stays under it. Rejection is exercised on every wave without
/// starving the well-behaved tenants.
fn tenant_of(i: usize) -> TenantId {
    if i.is_multiple_of(2) {
        TenantId(0)
    } else {
        TenantId(1 + ((i / 2) as u32 % (TENANTS - 1)))
    }
}

/// One full soak: waves of tenant-stamped batch jobs, a drain per
/// wave, one run, one roll-up. Returns the stats and the wall-clock
/// seconds of the whole ingress + simulate + roll-up pipeline.
fn soak(jobs_total: usize, policy: PolicyKind) -> (FleetStats, f64) {
    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let base = ManagerConfig::paper_default();
    let devices: Vec<ManagerConfig> = DEVICE_RUS
        .iter()
        .map(|&rus| base.clone().with_rus(rus))
        .collect();
    let cfg = FleetConfig::new(devices, PlacementKind::ReuseAffinity)
        .with_quota(QUOTA)
        .with_decisions(false);

    let t0 = Instant::now();
    let mut fleet = Fleet::new(cfg);
    let mut submitted = 0usize;
    let mut wave_index = 0u64;
    while submitted < jobs_total {
        let count = WAVE.min(jobs_total - submitted);
        let sequence = SequenceModel::UniformRandom.generate(
            &templates,
            count,
            SEQUENCE_SEED ^ wave_index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for (offset, graph) in sequence.into_iter().enumerate() {
            let job = JobSpec::new(graph).with_tenant(tenant_of(submitted + offset));
            // Quota rejections are the point of the greedy tenant:
            // recorded in the ledger, not errors to surface.
            let _ = fleet.submit(job);
        }
        fleet.drain();
        submitted += count;
        wave_index += 1;
    }
    let mut policies: Vec<Box<dyn ReplacementPolicy>> = (0..DEVICE_RUS.len())
        .map(|_| -> Box<dyn ReplacementPolicy> { policy.build() })
        .collect();
    fleet.run(&mut policies);
    let outcome = fleet.outcome().expect("soak simulates to completion");
    (outcome.stats, t0.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::var("FLEET_SMOKE").is_ok_and(|v| v != "0");
    let floor: f64 = match std::env::var("FLEET_FLOOR") {
        Ok(v) => v.trim().parse().unwrap_or_else(|e| {
            panic!("malformed FLEET_FLOOR={v:?}: {e} (expected a jobs/sec number)")
        }),
        Err(std::env::VarError::NotPresent) => DEFAULT_FLOOR,
        Err(e) => panic!("unreadable FLEET_FLOOR: {e}"),
    };
    let jobs_total = if smoke { SMOKE_JOBS } else { FULL_JOBS };

    let (stats, secs_a) = soak(jobs_total, PolicyKind::Lru);
    let (stats_b, secs_b) = soak(jobs_total, PolicyKind::Lru);
    assert_eq!(
        stats, stats_b,
        "the soak must be deterministic run to run (stats diverged)"
    );
    let secs = secs_a.min(secs_b);

    assert!(stats.balanced(), "soak roll-up out of balance");
    assert_eq!(stats.submitted, jobs_total as u64);
    assert_eq!(stats.completed, stats.admitted);
    assert!(
        stats.rejected > 0,
        "the greedy tenant must overrun its quota in every wave"
    );

    let jobs_per_sec = stats.admitted as f64 / secs.max(f64::MIN_POSITIVE);
    let reuse_pct = stats.cross_device_reuse_rate_pct();
    let fairness = stats.fairness_index();
    let floor_ok = jobs_per_sec >= floor;
    println!(
        "fleet soak ({jobs_total} jobs, {} devices, {placement}, quota {QUOTA}/wave): \
         admitted={} rejected={} in {secs:.2}s -> {jobs_per_sec:.0} jobs/s \
         reuse={reuse_pct:.2}% fairness={fairness:.3} floor={floor:.0} ({})",
        DEVICE_RUS.len(),
        stats.admitted,
        stats.rejected,
        if floor_ok { "ok" } else { "VIOLATED" },
        placement = stats.placement,
    );
    for t in &stats.per_tenant {
        println!(
            "  tenant t{}: submitted={} admitted={} rejected={} completed={}",
            t.tenant, t.submitted, t.admitted, t.rejected, t.completed
        );
    }

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("results directory is writable");
    let json = format!(
        "{{\n  \"bench\": \"fleet_soak\",\n  \"jobs\": {jobs_total},\n  \
         \"devices\": {:?},\n  \"placement\": \"{}\",\n  \"tenants\": {TENANTS},\n  \
         \"quota_per_wave\": {QUOTA},\n  \"admitted\": {},\n  \"rejected\": {},\n  \
         \"jobs_per_sec\": {jobs_per_sec:.1},\n  \"cross_device_reuse_pct\": {reuse_pct:.2},\n  \
         \"fairness_index\": {fairness:.4},\n  \"floor_jobs_per_sec\": {floor:.1},\n  \
         \"floor_ok\": {floor_ok},\n  \"smoke\": {smoke}\n}}\n",
        DEVICE_RUS, stats.placement, stats.admitted, stats.rejected,
    );
    std::fs::write(format!("{dir}/BENCH_fleet.json"), json).expect("JSON is writable");
    println!("wrote {dir}/BENCH_fleet.json");

    if !floor_ok {
        panic!(
            "fleet soak throughput REGRESSION: measured {jobs_per_sec:.0} admitted jobs/s \
             < floor {floor:.0} jobs/s over {jobs_total} jobs. Re-measure with \
             `cargo bench --bench fleet_soak` or adjust FLEET_FLOOR only if the \
             regression is intended."
        );
    }
}
