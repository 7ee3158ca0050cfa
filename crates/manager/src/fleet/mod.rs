//! The fleet layer: N pooled [`Engine`]s behind one deterministic
//! job-submission API.
//!
//! The paper keeps the configurations with the nearest reuse resident
//! *inside one device*. This module lifts that insight to cluster
//! scope: a pool of heterogeneous devices (each with its own
//! [`ManagerConfig`] — RU count, reconfiguration latency, fault plan)
//! sits behind a single ingress queue with per-tenant admission
//! control, and a pluggable [`PlacementPolicy`] routes each admitted
//! job to a device. The headline [`ReuseAffinity`] router scores
//! devices by the overlap between their residency model and the
//! arriving job's configuration sequence — cross-device reuse
//! affinity.
//!
//! Everything is deterministic and replayable: the ingress is FIFO,
//! admission is a pure function of the per-tenant pending counts, and
//! placement sees only dispatch-plane bookkeeping. A fleet of one
//! device with no quotas performs exactly the call sequence of
//! [`simulate`](crate::simulate), so its device outcome is
//! byte-identical to the plain engine path (asserted in CI).
//!
//! ```
//! use rtr_manager::fleet::{Fleet, FleetConfig, PlacementKind};
//! use rtr_manager::policy::FirstCandidatePolicy;
//! use rtr_manager::{JobSpec, ManagerConfig, TenantId};
//! use rtr_taskgraph::benchmarks;
//! use std::sync::Arc;
//!
//! let cfg = FleetConfig::new(
//!     vec![ManagerConfig::paper_default(), ManagerConfig::paper_default().with_rus(6)],
//!     PlacementKind::ReuseAffinity,
//! );
//! let mut fleet = Fleet::new(cfg);
//! let g = Arc::new(benchmarks::jpeg());
//! for i in 0..4 {
//!     fleet
//!         .submit(JobSpec::new(Arc::clone(&g)).with_tenant(TenantId(i % 2)))
//!         .unwrap();
//! }
//! let mut policies = fleet.fresh_policies(|| Box::new(FirstCandidatePolicy));
//! fleet.run(&mut policies);
//! let outcome = fleet.outcome().unwrap();
//! assert_eq!(outcome.stats.completed, 4);
//! assert!(outcome.stats.balanced());
//! ```

mod placement;
mod stats;

pub use placement::{
    job_cfg_seq, DeviceView, LeastLoaded, PlacementDecision, PlacementKind, PlacementPolicy,
    ResidencyModel, ReuseAffinity, RoundRobin,
};
pub use stats::{AdmissionEvent, FleetCheckInfo, FleetStats, TenantStats};

use placement::{intern, DenseResidency};

use crate::config::ManagerConfig;
use crate::job::{JobSpec, TenantId};
use crate::manager::{Engine, SimError, SimulationOutcome};
use crate::policy::ReplacementPolicy;
use rtr_hw::RuPool;
use rtr_sim::SimDuration;
use rtr_taskgraph::ConfigId;
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread;

/// Typed submission failures of the fleet ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The tenant already has `pending` jobs in the ingress queue and
    /// its quota admits no more until the next [`Fleet::drain`].
    QuotaExceeded {
        /// The rejected tenant.
        tenant: TenantId,
        /// The per-tenant quota in force.
        quota: usize,
        /// The tenant's pending ingress jobs at rejection time.
        pending: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::QuotaExceeded {
                tenant,
                quota,
                pending,
            } => write!(
                f,
                "tenant {tenant} over quota: {pending} jobs pending, quota {quota}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Declarative fleet description for `Scenario` JSON files: device RU
/// counts, placement policy, quota, and the tenant mix the workload
/// layer stamps onto jobs. [`to_config`](FleetSpec::to_config)
/// expands it against a base [`ManagerConfig`] (everything but the RU
/// count is inherited per device).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// RU count of each pooled device (one entry per device).
    pub devices: Vec<usize>,
    /// The placement policy routing admitted jobs.
    pub placement: PlacementKind,
    /// Per-tenant ingress quota (`None` = unlimited).
    pub quota: Option<usize>,
    /// Tenants the workload layer spreads jobs across (round-robin by
    /// submission index). 1 keeps every job on the default tenant.
    pub tenants: usize,
}

impl FleetSpec {
    /// Expands the spec against `base`: one device per RU-count entry,
    /// all other knobs inherited from `base`.
    pub fn to_config(&self, base: &ManagerConfig) -> FleetConfig {
        let devices = self
            .devices
            .iter()
            .map(|&rus| base.clone().with_rus(rus))
            .collect();
        FleetConfig {
            devices,
            placement: self.placement,
            quota: self.quota,
            record_decisions: true,
        }
    }
}

impl serde::Serialize for FleetSpec {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert(
            "devices".to_string(),
            serde::Serialize::serialize(&self.devices),
        );
        m.insert(
            "placement".to_string(),
            serde::Serialize::serialize(&self.placement),
        );
        m.insert(
            "quota".to_string(),
            serde::Serialize::serialize(&self.quota),
        );
        m.insert(
            "tenants".to_string(),
            serde::Serialize::serialize(&self.tenants),
        );
        serde::Value::Object(m)
    }
}

impl serde::Deserialize for FleetSpec {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::as_object(v)?;
        let devices: Vec<usize> = serde::field(m, "devices")?;
        if devices.is_empty() {
            return Err(serde::Error::msg(
                "fleet.devices must name at least one device",
            ));
        }
        if devices
            .iter()
            .any(|rus| !(1..=RuPool::MAX_RUS).contains(rus))
        {
            return Err(serde::Error::msg(format!(
                "each fleet device needs at least one RU and at most {} (the RU id range)",
                RuPool::MAX_RUS
            )));
        }
        // Optional knobs fall back to their defaults so terse files
        // (`{"devices": [4, 4]}`) stay loadable.
        let placement: Option<PlacementKind> = serde::field(m, "placement")?;
        let tenants: Option<usize> = serde::field(m, "tenants")?;
        if tenants == Some(0) {
            return Err(serde::Error::msg("fleet.tenants must be at least 1"));
        }
        Ok(FleetSpec {
            devices,
            placement: placement.unwrap_or(PlacementKind::RoundRobin),
            quota: serde::field(m, "quota")?,
            tenants: tenants.unwrap_or(1),
        })
    }
}

/// Full configuration of a fleet: the per-device [`ManagerConfig`]s
/// plus the dispatch-plane knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// One configuration per pooled device (heterogeneous RU counts,
    /// latencies, policies, fault plans all allowed).
    pub devices: Vec<ManagerConfig>,
    /// The placement policy routing admitted jobs to devices.
    pub placement: PlacementKind,
    /// Per-tenant ingress quota: at most this many pending jobs per
    /// tenant between [`Fleet::drain`]s (`None` = unlimited).
    pub quota: Option<usize>,
    /// Record per-decision placement score vectors. Cheap for
    /// experiments and required by the `placement-residency` checker;
    /// disable for million-job soaks.
    pub record_decisions: bool,
}

impl FleetConfig {
    /// A fleet of `devices` with `placement` routing, no quota and
    /// decision recording on.
    pub fn new(devices: Vec<ManagerConfig>, placement: PlacementKind) -> Self {
        FleetConfig {
            devices,
            placement,
            quota: None,
            record_decisions: true,
        }
    }

    /// The degenerate single-device fleet: no quota, round-robin over
    /// one device — byte-identical to the plain engine path.
    pub fn single(cfg: ManagerConfig) -> Self {
        FleetConfig::new(vec![cfg], PlacementKind::RoundRobin)
    }

    /// Builder-style quota override.
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Builder-style decision-recording override.
    pub fn with_decisions(mut self, record: bool) -> Self {
        self.record_decisions = record;
        self
    }
}

/// An ingress job awaiting dispatch.
struct Pending {
    job: JobSpec,
    submit_index: usize,
}

/// The placement inputs of one template, computed on its first
/// dispatch.
struct Template {
    /// The distinct-configuration sequence, shared by recorded
    /// decisions.
    cfg_seq: Arc<Vec<ConfigId>>,
    /// `cfg_seq` interned to the fleet's dense configuration indices.
    dense: Box<[u32]>,
    /// The graph's total execution time.
    work: SimDuration,
}

/// The virtualized device pool: one deterministic submission front-end
/// over N pooled [`Engine`]s.
///
/// Lifecycle: [`submit`](Fleet::submit) jobs (admission control
/// applies per tenant), [`drain`](Fleet::drain) to route pending jobs
/// to devices (resetting the per-tenant ingress windows),
/// [`run`](Fleet::run) to execute every device, and
/// [`outcome`](Fleet::outcome) to collect the per-device outcomes and
/// the aggregate [`FleetStats`]. `run` drains implicitly, so callers
/// only invoke `drain` when they want quota windows narrower than a
/// full run (e.g. wave-based soaks).
///
/// Ingress, placement and roll-up run on the calling thread; `run`
/// executes the devices in parallel, which is why
/// [`ReplacementPolicy`] requires `Send`.
pub struct Fleet {
    cfg: FleetConfig,
    engines: Vec<Engine>,
    policy: Box<dyn PlacementPolicy>,
    residency: Vec<DenseResidency>,
    queued_work: Vec<SimDuration>,
    /// The router's input, refilled for every job.
    views: Vec<DeviceView>,
    ingress: Vec<Pending>,
    pending_by_tenant: BTreeMap<u32, usize>,
    /// Placement inputs per template, keyed by the `Arc<TaskGraph>`
    /// pointer (templates are shared across jobs).
    templates: BTreeMap<usize, Template>,
    /// Dense index of every configuration the templates use.
    config_ids: BTreeMap<ConfigId, u32>,
    tenants: BTreeMap<u32, TenantStats>,
    decisions: Vec<PlacementDecision>,
    admissions: Vec<AdmissionEvent>,
    submitted: usize,
    started: bool,
}

impl Fleet {
    /// Builds an idle fleet: one engine per device configuration. The
    /// engines share no state; each computes the design-time artifacts
    /// of the templates placed on it.
    ///
    /// # Panics
    /// Panics if the device list is empty or any device has zero RUs.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(!cfg.devices.is_empty(), "a fleet needs at least one device");
        let engines: Vec<Engine> = cfg.devices.iter().map(Engine::new).collect();
        let residency = cfg
            .devices
            .iter()
            .map(|c| DenseResidency::new(c.rus))
            .collect();
        let n = cfg.devices.len();
        Fleet {
            policy: cfg.placement.build(),
            residency,
            queued_work: vec![SimDuration::ZERO; n],
            views: Vec::with_capacity(n),
            ingress: Vec::new(),
            pending_by_tenant: BTreeMap::new(),
            templates: BTreeMap::new(),
            config_ids: BTreeMap::new(),
            tenants: BTreeMap::new(),
            decisions: Vec::new(),
            admissions: Vec::new(),
            submitted: 0,
            started: false,
            engines,
            cfg,
        }
    }

    /// Number of pooled devices.
    pub fn devices(&self) -> usize {
        self.engines.len()
    }

    /// One freshly built policy per device — the convenience most
    /// callers want before [`run`](Fleet::run).
    pub fn fresh_policies(
        &self,
        mut build: impl FnMut() -> Box<dyn ReplacementPolicy>,
    ) -> Vec<Box<dyn ReplacementPolicy>> {
        (0..self.devices()).map(|_| build()).collect()
    }

    /// Submits one job to the ingress queue.
    ///
    /// Admission control: with a quota of `q`, a tenant may have at
    /// most `q` jobs pending between drains; the `q+1`-th submission
    /// is rejected with [`FleetError::QuotaExceeded`] and does not
    /// enter the queue. Rejections never affect other tenants.
    /// Returns the fleet-wide submission index on admission.
    pub fn submit(&mut self, job: JobSpec) -> Result<usize, FleetError> {
        let tenant = job.tenant;
        let submit_index = self.submitted;
        self.submitted += 1;
        let pending = *self.pending_by_tenant.get(&tenant.0).unwrap_or(&0);
        let ledger = self
            .tenants
            .entry(tenant.0)
            .or_insert_with(|| TenantStats::new(tenant));
        ledger.submitted += 1;
        let admitted = self.cfg.quota.is_none_or(|q| pending < q);
        self.admissions.push(AdmissionEvent {
            submit_index,
            tenant,
            pending_before: pending as u64,
            admitted,
        });
        if !admitted {
            ledger.rejected += 1;
            return Err(FleetError::QuotaExceeded {
                tenant,
                quota: self.cfg.quota.expect("rejection implies a quota"),
                pending,
            });
        }
        ledger.admitted += 1;
        *self.pending_by_tenant.entry(tenant.0).or_insert(0) += 1;
        self.ingress.push(Pending { job, submit_index });
        Ok(submit_index)
    }

    /// Routes every pending ingress job to a device (FIFO order) and
    /// resets the per-tenant admission windows. Called implicitly by
    /// [`run`](Fleet::run); call it directly between submission waves
    /// to make quotas bind per wave.
    pub fn drain(&mut self) {
        let ingress = std::mem::take(&mut self.ingress);
        for pending in ingress {
            self.dispatch(pending);
        }
        self.pending_by_tenant.clear();
    }

    /// Places one admitted job on a device and updates the dispatch
    /// plane's bookkeeping, which allocates nothing per job unless the
    /// job's template is new or decisions are recorded.
    fn dispatch(&mut self, pending: Pending) {
        let Pending { job, submit_index } = pending;
        let config_ids = &mut self.config_ids;
        let template = self
            .templates
            .entry(Arc::as_ptr(&job.graph) as usize)
            .or_insert_with(|| {
                let cfg_seq = job_cfg_seq(&job);
                Template {
                    dense: intern(config_ids, &cfg_seq),
                    cfg_seq: Arc::new(cfg_seq),
                    work: job.graph.total_exec_time(),
                }
            });
        let views = self
            .residency
            .iter()
            .zip(&self.queued_work)
            .map(|(model, &queued_work)| DeviceView {
                queued_work,
                overlap: model.overlap(&template.dense),
            });
        self.views.clear();
        self.views.extend(views);
        let device = self.policy.place(&job, &self.views);
        assert!(device < self.engines.len(), "placement out of range");
        if self.cfg.record_decisions {
            self.decisions.push(PlacementDecision {
                submit_index,
                tenant: job.tenant,
                device,
                cfg_seq: Arc::clone(&template.cfg_seq),
                overlaps: self.views.iter().map(|v| v.overlap).collect(),
                queued_work: self.views.iter().map(|v| v.queued_work).collect(),
            });
        }
        self.residency[device].admit(&template.dense);
        self.queued_work[device] += template.work;
        let ledger = self
            .tenants
            .get_mut(&job.tenant.0)
            .expect("admitted job has a ledger");
        // A dispatched job completes or `outcome` fails, so it counts as
        // completed here; jobs still in the ingress never do.
        ledger.completed += 1;
        ledger.executed += job.graph.len() as u64;
        self.engines[device].submit(job);
    }

    /// Drains the ingress and runs every device to completion of its
    /// currently scheduled events, one policy per device.
    ///
    /// Once `drain` has placed the jobs the devices share nothing: each
    /// engine consumes only its own jobs and its own policy. So the
    /// engines run in parallel on `min(available_parallelism, devices)`
    /// workers, the calling thread among them, each taking the next
    /// `(engine, policy)` pair in device order from one shared cursor.
    /// On one core the caller runs every device in order and spawns
    /// nothing. Results do not depend on the scheduling.
    ///
    /// On the first call each policy's `reset` is invoked before its
    /// device runs — the exact call sequence of
    /// [`simulate`](crate::simulate), which is what makes the
    /// single-device fleet byte-identical to the plain path. Later
    /// calls continue incrementally, mirroring [`Engine::run`].
    ///
    /// # Panics
    /// Panics unless exactly one policy per device is supplied. A panic
    /// inside one device's run (a policy choosing a foreign RU, say) is
    /// re-raised on the calling thread once every worker has stopped.
    pub fn run(&mut self, policies: &mut [Box<dyn ReplacementPolicy>]) {
        assert_eq!(
            policies.len(),
            self.engines.len(),
            "need exactly one replacement policy per device"
        );
        self.drain();
        let first = !self.started;
        self.started = true;
        // Memory that lands in a worker's malloc arena stays mapped after
        // the worker exits, so the backlog-sized run state is allocated
        // here, on the calling thread.
        for engine in &mut self.engines {
            engine.reserve_backlog();
        }
        let workers = thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(self.engines.len());
        let cursor = Mutex::new(self.engines.iter_mut().zip(policies));
        let drive = || loop {
            let next = cursor
                .lock()
                .expect("no worker panics while holding the cursor")
                .next();
            let Some((engine, policy)) = next else { break };
            if first {
                policy.reset();
            }
            engine.run(policy.as_mut());
        };
        thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(drive)).collect();
            drive();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Finishes every device's engine and rolls the outcomes up into
    /// [`FleetStats`], consuming the fleet. Fails with the first
    /// device's [`SimError`] if any device stalled or lost its whole RU
    /// pool.
    ///
    /// The engines finish one after another on the calling thread: a
    /// parallel `finish` would allocate every device's sojourn samples
    /// in worker threads' malloc arenas, which stay mapped after the
    /// workers exit, to save a few milliseconds.
    pub fn outcome(self) -> Result<FleetOutcome, SimError> {
        let mut devices = Vec::with_capacity(self.engines.len());
        for engine in self.engines {
            devices.push(engine.finish()?);
        }
        let per_tenant: Vec<TenantStats> = self.tenants.into_values().collect();
        let stats = FleetStats {
            devices: devices.len(),
            placement: self.cfg.placement.label().to_string(),
            submitted: per_tenant.iter().map(|t| t.submitted).sum(),
            admitted: per_tenant.iter().map(|t| t.admitted).sum(),
            rejected: per_tenant.iter().map(|t| t.rejected).sum(),
            completed: per_tenant.iter().map(|t| t.completed).sum(),
            executed: devices.iter().map(|d| d.stats.executed).sum(),
            reuses: devices.iter().map(|d| d.stats.reuses).sum(),
            loads: devices.iter().map(|d| d.stats.loads).sum(),
            makespan: devices
                .iter()
                .map(|d| d.stats.makespan)
                .max()
                .unwrap_or(SimDuration::ZERO),
            per_tenant,
            per_device: devices.iter().map(|d| d.stats.clone()).collect(),
        };
        Ok(FleetOutcome {
            stats,
            devices,
            decisions: self.decisions,
            admissions: self.admissions,
        })
    }
}

/// Everything one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The aggregate roll-up (tenant ledgers included).
    pub stats: FleetStats,
    /// Per-device outcomes, in device order (traces included when the
    /// device config records them).
    pub devices: Vec<SimulationOutcome>,
    /// Recorded placement decisions (empty when recording was off).
    pub decisions: Vec<PlacementDecision>,
    /// Admission events, in submission order.
    pub admissions: Vec<AdmissionEvent>,
}

impl FleetOutcome {
    /// Borrows the outcome as checker input.
    pub fn check_info<'a>(
        &'a self,
        cfg: &'a FleetConfig,
        device_rus: &'a [usize],
    ) -> FleetCheckInfo<'a> {
        FleetCheckInfo {
            placement: cfg.placement,
            quota: cfg.quota,
            stats: &self.stats,
            decisions: &self.decisions,
            admissions: &self.admissions,
            device_rus,
        }
    }
}

/// Batch wrapper, the fleet analogue of [`simulate`](crate::simulate):
/// builds the fleet, submits every job (quota rejections are recorded
/// in the ledger, not errors), runs one policy instance per device and
/// collects the outcome.
pub fn simulate_fleet(
    cfg: &FleetConfig,
    jobs: &[JobSpec],
    mut build_policy: impl FnMut() -> Box<dyn ReplacementPolicy>,
) -> Result<FleetOutcome, SimError> {
    let mut fleet = Fleet::new(cfg.clone());
    for job in jobs {
        let _ = fleet.submit(job.clone());
    }
    let mut policies = fleet.fresh_policies(&mut build_policy);
    fleet.run(&mut policies);
    fleet.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FirstCandidatePolicy;
    use crate::simulate;
    use rtr_taskgraph::benchmarks;

    fn jobs(n: usize) -> Vec<JobSpec> {
        let templates = [Arc::new(benchmarks::jpeg()), Arc::new(benchmarks::mpeg1())];
        (0..n)
            .map(|i| {
                JobSpec::new(Arc::clone(&templates[i % 2])).with_tenant(TenantId((i % 3) as u32))
            })
            .collect()
    }

    #[test]
    fn single_device_fleet_matches_simulate() {
        let base = ManagerConfig::paper_default().with_trace(true);
        let jobs = jobs(12);
        let mut lru = FirstCandidatePolicy;
        let reference = simulate(&base, &jobs, &mut lru).unwrap();
        let outcome = simulate_fleet(&FleetConfig::single(base), &jobs, || {
            Box::new(FirstCandidatePolicy)
        })
        .unwrap();
        assert_eq!(outcome.devices.len(), 1);
        assert_eq!(
            serde_json::to_string(&outcome.devices[0].stats).unwrap(),
            serde_json::to_string(&reference.stats).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&outcome.devices[0].trace).unwrap(),
            serde_json::to_string(&reference.trace).unwrap()
        );
        assert!(outcome.stats.balanced());
    }

    #[test]
    fn quota_rejects_only_the_over_quota_tenant() {
        let cfg = FleetConfig::single(ManagerConfig::paper_default()).with_quota(2);
        let mut fleet = Fleet::new(cfg);
        let g = Arc::new(benchmarks::jpeg());
        let job = |t: u32| JobSpec::new(Arc::clone(&g)).with_tenant(TenantId(t));
        assert!(fleet.submit(job(0)).is_ok());
        assert!(fleet.submit(job(0)).is_ok());
        let err = fleet.submit(job(0)).unwrap_err();
        assert_eq!(
            err,
            FleetError::QuotaExceeded {
                tenant: TenantId(0),
                quota: 2,
                pending: 2
            }
        );
        // A different tenant is unaffected by tenant 0's rejection.
        assert!(fleet.submit(job(1)).is_ok());
        // Draining opens a fresh admission window.
        fleet.drain();
        assert!(fleet.submit(job(0)).is_ok());
        let mut policies = fleet.fresh_policies(|| Box::new(FirstCandidatePolicy));
        fleet.run(&mut policies);
        let outcome = fleet.outcome().unwrap();
        assert_eq!(outcome.stats.submitted, 5);
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(outcome.stats.completed, 4);
        assert_eq!(outcome.stats.tenant(TenantId(0)).unwrap().rejected, 1);
        assert_eq!(outcome.stats.tenant(TenantId(1)).unwrap().rejected, 0);
        assert!(outcome.stats.balanced());
        assert_eq!(
            err.to_string(),
            "tenant t0 over quota: 2 jobs pending, quota 2"
        );
    }

    #[test]
    fn jobs_left_in_the_ingress_are_admitted_but_not_completed() {
        let cfg = FleetConfig::new(
            vec![ManagerConfig::paper_default(); 2],
            PlacementKind::ReuseAffinity,
        );
        let mut fleet = Fleet::new(cfg);
        for job in jobs(4) {
            fleet.submit(job).unwrap();
        }
        let mut policies = fleet.fresh_policies(|| Box::new(FirstCandidatePolicy));
        fleet.run(&mut policies);
        for job in jobs(2) {
            fleet.submit(job).unwrap();
        }
        let outcome = fleet.outcome().unwrap();
        assert_eq!(outcome.stats.admitted, 6);
        assert_eq!(outcome.stats.completed, 4);
        let t0 = outcome.stats.tenant(TenantId(0)).unwrap();
        assert_eq!((t0.admitted, t0.completed), (3, 2));
        assert!(outcome.stats.balanced());
    }

    #[test]
    fn round_robin_partitions_like_independent_engines() {
        let base = ManagerConfig::paper_default();
        let cfg = FleetConfig::new(
            vec![base.clone(), base.clone().with_rus(6)],
            PlacementKind::RoundRobin,
        );
        let all = jobs(10);
        let outcome = simulate_fleet(&cfg, &all, || Box::new(FirstCandidatePolicy)).unwrap();
        for (d, device_cfg) in cfg.devices.iter().enumerate() {
            let part: Vec<JobSpec> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == d)
                .map(|(_, j)| j.clone())
                .collect();
            let mut lru = FirstCandidatePolicy;
            let reference = simulate(device_cfg, &part, &mut lru).unwrap();
            assert_eq!(
                serde_json::to_string(&outcome.devices[d].stats).unwrap(),
                serde_json::to_string(&reference.stats).unwrap()
            );
        }
        assert!(outcome.stats.balanced());
    }

    #[test]
    fn reuse_affinity_records_replayable_decisions() {
        let base = ManagerConfig::paper_default();
        let cfg = FleetConfig::new(
            vec![base.clone(), base.clone(), base],
            PlacementKind::ReuseAffinity,
        );
        let outcome = simulate_fleet(&cfg, &jobs(18), || Box::new(FirstCandidatePolicy)).unwrap();
        assert_eq!(outcome.decisions.len(), 18);
        // Replay the residency models independently and confirm every
        // recorded overlap existed at decision time.
        let mut models: Vec<ResidencyModel> = cfg
            .devices
            .iter()
            .map(|c| ResidencyModel::new(c.rus))
            .collect();
        for d in &outcome.decisions {
            for (i, model) in models.iter().enumerate() {
                assert_eq!(
                    model.overlap(&d.cfg_seq),
                    d.overlaps[i],
                    "decision {}",
                    d.submit_index
                );
            }
            let best = d.overlaps.iter().copied().max().unwrap();
            assert_eq!(d.overlaps[d.device], best, "routed below best overlap");
            models[d.device].admit(&d.cfg_seq);
        }
        assert!(outcome.stats.balanced());
    }

    #[test]
    fn fleet_spec_round_trips_and_defaults() {
        let spec = FleetSpec {
            devices: vec![2, 4, 6],
            placement: PlacementKind::ReuseAffinity,
            quota: Some(16),
            tenants: 4,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FleetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Terse form: only the device list, everything else defaulted.
        let terse: FleetSpec = serde_json::from_str(r#"{"devices": [4]}"#).unwrap();
        assert_eq!(terse.placement, PlacementKind::RoundRobin);
        assert_eq!(terse.quota, None);
        assert_eq!(terse.tenants, 1);
        // Unknown keys are ignored, so files that still carry the
        // retired `seed` knob load unchanged.
        let old: FleetSpec = serde_json::from_str(
            r#"{"devices": [2, 4, 6], "placement": "reuse-affinity", "quota": 16, "tenants": 4, "seed": 9}"#,
        )
        .unwrap();
        assert_eq!(old, spec);
        // Invalid forms are loud.
        assert!(serde_json::from_str::<FleetSpec>(r#"{"devices": []}"#).is_err());
        assert!(serde_json::from_str::<FleetSpec>(r#"{"devices": [0]}"#).is_err());
        assert!(serde_json::from_str::<FleetSpec>(r#"{"devices": [4, 70000]}"#).is_err());
        assert!(serde_json::from_str::<FleetSpec>(r#"{"devices": [4], "tenants": 0}"#).is_err());
        assert!(serde_json::from_str::<FleetSpec>(
            r#"{"devices": [4], "placement": "alphabetical"}"#
        )
        .is_err());
        // Expansion inherits everything but the RU count.
        let cfg = spec.to_config(&ManagerConfig::paper_default());
        assert_eq!(cfg.devices.len(), 3);
        assert_eq!(cfg.devices[1].rus, 4);
        assert_eq!(cfg.quota, Some(16));
    }

    #[test]
    #[should_panic(expected = "one replacement policy per device")]
    fn policy_count_mismatch_panics() {
        let mut fleet = Fleet::new(FleetConfig::single(ManagerConfig::paper_default()));
        fleet.run(&mut []);
    }
}
