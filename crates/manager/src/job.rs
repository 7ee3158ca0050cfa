//! Jobs: task-graph instances submitted to the manager.

use crate::qos::QosClass;
use rtr_sim::SimTime;
use rtr_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identity of the tenant a job is submitted on behalf of.
///
/// Tenants exist at the fleet layer (admission control, per-tenant
/// quotas and ledgers); the single-device [`Engine`](crate::Engine)
/// ignores the field entirely, so a workload where every job carries
/// the default tenant is byte-identical to the pre-fleet engine.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant every pre-fleet job belongs to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One application instance submitted to the streaming
/// [`Engine`](crate::Engine) (or, in batch form, to
/// [`crate::simulate`]).
///
/// The same `Arc<TaskGraph>` is typically shared by many instances
/// (e.g. 500 random picks from three templates); design-time artifacts
/// (reconfiguration sequence, configuration sequence) are computed once
/// per distinct template per engine.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The task graph to execute.
    pub graph: Arc<TaskGraph>,
    /// When the job enters the manager's online queue. Jobs become
    /// eligible for activation (and visible to the replacement module's
    /// Dynamic List) only from this instant on. The default of
    /// [`SimTime::ZERO`] reproduces the paper's batch setting where the
    /// whole sequence is known up front.
    pub arrival: SimTime,
    /// Per-node *mobility* values from the design-time phase (aligned
    /// with node ids). Required for Skip Events to have any effect.
    pub mobility: Option<Arc<Vec<u32>>>,
    /// Per-node *forced delays* (aligned with node ids): before loading
    /// node `n`, skip exactly `forced_delays[n]` events. Only used by
    /// the design-time mobility calculation (the paper's Fig. 6), which
    /// probes schedules with individual tasks delayed.
    pub forced_delays: Option<Arc<Vec<u32>>>,
    /// Scheduling class: lane priority plus an optional deadline. The
    /// default best-effort class reproduces the pre-QoS FIFO engine.
    pub qos: QosClass,
    /// Tenant the job is submitted on behalf of. Only the fleet layer
    /// (admission control, quotas, per-tenant ledgers) reads it; the
    /// engine itself is tenant-agnostic, so the default tenant
    /// reproduces the pre-fleet behaviour exactly.
    pub tenant: TenantId,
}

impl JobSpec {
    /// A plain job with no annotations, arriving at time zero.
    pub fn new(graph: Arc<TaskGraph>) -> Self {
        JobSpec {
            graph,
            arrival: SimTime::ZERO,
            mobility: None,
            forced_delays: None,
            qos: QosClass::default(),
            tenant: TenantId::DEFAULT,
        }
    }

    /// Sets the job's QoS class (builder style).
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the submitting tenant (builder style).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the arrival instant (builder style).
    pub fn with_arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Attaches design-time mobility values.
    ///
    /// # Panics
    /// Panics if the vector length does not match the node count.
    pub fn with_mobility(mut self, mobility: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            mobility.len(),
            self.graph.len(),
            "mobility annotation length must match node count"
        );
        self.mobility = Some(mobility);
        self
    }

    /// Attaches forced per-node delays (mobility-calculation probes).
    ///
    /// # Panics
    /// Panics if the vector length does not match the node count.
    pub fn with_forced_delays(mut self, delays: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            delays.len(),
            self.graph.len(),
            "forced-delay annotation length must match node count"
        );
        self.forced_delays = Some(delays);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    #[test]
    fn annotations_attach() {
        let g = Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(Arc::clone(&g))
            .with_mobility(Arc::new(vec![0, 1, 2, 0]))
            .with_forced_delays(Arc::new(vec![0, 0, 1, 0]));
        assert_eq!(job.mobility.as_ref().unwrap().len(), 4);
        assert_eq!(job.forced_delays.as_ref().unwrap()[2], 1);
    }

    #[test]
    fn default_qos_is_best_effort_and_builder_attaches() {
        let g = Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(Arc::clone(&g));
        assert!(job.qos.is_default());
        let urgent =
            JobSpec::new(g).with_qos(QosClass::priority(4).with_deadline(SimTime::from_ms(80)));
        assert_eq!(urgent.qos.priority, 4);
        assert_eq!(urgent.qos.deadline, Some(SimTime::from_ms(80)));
    }

    #[test]
    fn default_tenant_is_zero_and_builder_attaches() {
        let g = Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(Arc::clone(&g));
        assert_eq!(job.tenant, TenantId::DEFAULT);
        let tenanted = JobSpec::new(g).with_tenant(TenantId(7));
        assert_eq!(tenanted.tenant, TenantId(7));
        assert_eq!(TenantId(7).to_string(), "t7");
    }

    #[test]
    fn default_arrival_is_time_zero() {
        let g = Arc::new(benchmarks::jpeg());
        let job = JobSpec::new(Arc::clone(&g));
        assert_eq!(job.arrival, SimTime::ZERO);
        let late = JobSpec::new(g).with_arrival(SimTime::from_ms(25));
        assert_eq!(late.arrival, SimTime::from_ms(25));
    }

    #[test]
    #[should_panic(expected = "mobility annotation length")]
    fn wrong_mobility_length_panics() {
        let g = Arc::new(benchmarks::jpeg());
        let _ = JobSpec::new(g).with_mobility(Arc::new(vec![0]));
    }

    #[test]
    #[should_panic(expected = "forced-delay annotation length")]
    fn wrong_delay_length_panics() {
        let g = Arc::new(benchmarks::jpeg());
        let _ = JobSpec::new(g).with_forced_delays(Arc::new(vec![0, 0]));
    }
}
