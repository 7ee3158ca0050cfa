//! Fleet-level ledgers: per-tenant accounting and the aggregate
//! roll-up of per-device [`RunStats`].
//!
//! Everything here is *derived* — the fleet computes it from admission
//! events and device outcomes, and the `fleet-accounting` checker
//! recomputes it independently and asserts equality. No counter is
//! authoritative on its own.

use crate::fleet::placement::{PlacementDecision, PlacementKind};
use crate::job::TenantId;
use crate::stats::RunStats;
use rtr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One tenant's ledger across the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant this row aggregates.
    pub tenant: u32,
    /// Jobs the tenant submitted to the ingress queue.
    pub submitted: u64,
    /// Submissions that passed admission control.
    pub admitted: u64,
    /// Submissions rejected with
    /// [`FleetError::QuotaExceeded`](crate::fleet::FleetError).
    pub rejected: u64,
    /// Admitted jobs whose task graph ran to completion.
    pub completed: u64,
    /// Task instances executed on behalf of the tenant, counted at
    /// dispatch time from the job's design-time graph size. Runtime
    /// fault recovery and preemption replays re-execute tasks *on the
    /// device* without re-dispatching, so the tenant sum is a lower
    /// bound on the device-measured total.
    pub executed: u64,
}

impl TenantStats {
    /// An empty ledger for `tenant`.
    pub fn new(tenant: TenantId) -> Self {
        TenantStats {
            tenant: tenant.0,
            submitted: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            executed: 0,
        }
    }

    /// Per-tenant ledger identity: every submission was either
    /// admitted or rejected, and only admitted jobs can complete.
    pub fn balanced(&self) -> bool {
        self.submitted == self.admitted + self.rejected && self.completed <= self.admitted
    }
}

/// One admission-control decision, in fleet submission order. Always
/// recorded (24 bytes per job) so the `tenant-isolation` checker can
/// replay admission without re-running the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Fleet-wide submission index (rejected submissions count too).
    pub submit_index: usize,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The tenant's jobs already pending in the ingress queue when
    /// this submission arrived.
    pub pending_before: u64,
    /// Whether the submission was admitted.
    pub admitted: bool,
}

/// Aggregate statistics of one fleet run: totals, the per-tenant
/// ledger, and the untouched per-device [`RunStats`] they roll up
/// from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Number of pooled devices.
    pub devices: usize,
    /// Label of the placement policy that routed the jobs.
    pub placement: String,
    /// Jobs submitted to the ingress queue (admitted + rejected).
    pub submitted: u64,
    /// Jobs that passed admission control.
    pub admitted: u64,
    /// Jobs rejected by per-tenant quota backpressure.
    pub rejected: u64,
    /// Admitted jobs whose task graph ran to completion.
    pub completed: u64,
    /// Task instances executed across all devices.
    pub executed: u64,
    /// Task instances whose configuration was reused (no load),
    /// summed across devices.
    pub reuses: u64,
    /// Reconfigurations performed across all devices.
    pub loads: u64,
    /// Fleet makespan: the latest device makespan (devices run in
    /// parallel in wall-clock terms).
    pub makespan: SimDuration,
    /// Per-tenant ledgers, ascending tenant id.
    pub per_tenant: Vec<TenantStats>,
    /// The per-device run statistics the totals roll up from, in
    /// device order.
    pub per_device: Vec<RunStats>,
}

impl FleetStats {
    /// The ledger row of `tenant`, if it ever submitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.per_tenant.iter().find(|t| t.tenant == tenant.0)
    }

    /// The paper's reuse rate at cluster scope: reused task instances
    /// over executed task instances across every pooled device, in
    /// percent. This is the headline metric `ReuseAffinity` placement
    /// is built to raise — routing a job to the device that already
    /// holds its configurations turns cross-device cache misses into
    /// reuses.
    pub fn cross_device_reuse_rate_pct(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.reuses as f64 / self.executed as f64 * 100.0
        }
    }

    /// Jain's fairness index over per-tenant *completed* jobs, in
    /// `(0, 1]`: `(Σx)² / (n · Σx²)`. 1.0 means every tenant finished
    /// the same number of jobs; `1/n` means one tenant got everything.
    /// An empty or all-zero ledger reports 1.0 (vacuously fair, never
    /// NaN).
    pub fn fairness_index(&self) -> f64 {
        let xs: Vec<f64> = self.per_tenant.iter().map(|t| t.completed as f64).collect();
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if xs.is_empty() || sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (xs.len() as f64 * sq)
        }
    }

    /// The roll-up identities the `fleet-accounting` checker asserts:
    /// totals equal the sum of the per-device ledgers, per-tenant rows
    /// sum to the fleet totals (executed is a lower bound — replays
    /// re-execute on-device without re-dispatching), each row is
    /// itself balanced, and the makespan is the device maximum.
    pub fn balanced(&self) -> bool {
        let dev_executed: u64 = self.per_device.iter().map(|d| d.executed).sum();
        let dev_reuses: u64 = self.per_device.iter().map(|d| d.reuses).sum();
        let dev_loads: u64 = self.per_device.iter().map(|d| d.loads).sum();
        let dev_completed: u64 = self
            .per_device
            .iter()
            .map(|d| d.graph_completions.len() as u64)
            .sum();
        let dev_makespan = self
            .per_device
            .iter()
            .map(|d| d.makespan)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let t_sub: u64 = self.per_tenant.iter().map(|t| t.submitted).sum();
        let t_adm: u64 = self.per_tenant.iter().map(|t| t.admitted).sum();
        let t_rej: u64 = self.per_tenant.iter().map(|t| t.rejected).sum();
        let t_comp: u64 = self.per_tenant.iter().map(|t| t.completed).sum();
        let t_exec: u64 = self.per_tenant.iter().map(|t| t.executed).sum();
        self.devices == self.per_device.len()
            && self.executed == dev_executed
            && self.reuses == dev_reuses
            && self.loads == dev_loads
            && self.completed == dev_completed
            && self.makespan == dev_makespan
            && self.submitted == self.admitted + self.rejected
            && (t_sub, t_adm, t_rej) == (self.submitted, self.admitted, self.rejected)
            && t_comp == self.completed
            && t_exec <= self.executed
            && self.per_tenant.iter().all(TenantStats::balanced)
            && self
                .per_tenant
                .windows(2)
                .all(|w| w[0].tenant < w[1].tenant)
    }
}

/// Everything the fleet checkers need, borrowed from a
/// [`FleetOutcome`](crate::fleet::FleetOutcome) and its config.
/// Attached to a [`CheckContext`](crate::validate::CheckContext) via
/// `with_fleet`; single-device contexts leave it `None` and every
/// fleet checker passes vacuously (fired zero probes).
#[derive(Debug, Clone, Copy)]
pub struct FleetCheckInfo<'a> {
    /// The placement policy that routed the jobs.
    pub placement: PlacementKind,
    /// The per-tenant admission quota (`None` = unlimited).
    pub quota: Option<usize>,
    /// The aggregate roll-up under test.
    pub stats: &'a FleetStats,
    /// Recorded placement decisions (empty when decision recording was
    /// disabled — the residency checker then has nothing to replay).
    pub decisions: &'a [PlacementDecision],
    /// Recorded admission events, in submission order.
    pub admissions: &'a [AdmissionEvent],
    /// RU count of each pooled device (residency-model capacities).
    pub device_rus: &'a [usize],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_row(tenant: u32, sub: u64, adm: u64, comp: u64, exec: u64) -> TenantStats {
        TenantStats {
            tenant,
            submitted: sub,
            admitted: adm,
            rejected: sub - adm,
            completed: comp,
            executed: exec,
        }
    }

    fn device_stats(executed: u64, reuses: u64, completed: usize, makespan_ms: u64) -> RunStats {
        RunStats {
            policy: "test".into(),
            makespan: SimDuration::from_ms(makespan_ms),
            executed,
            reuses,
            loads: executed - reuses,
            skips: 0,
            stalls: 0,
            traffic: Default::default(),
            prefetch: Default::default(),
            port_busy_time: SimDuration::ZERO,
            graph_arrivals: vec![rtr_sim::SimTime::ZERO; completed],
            graph_completions: vec![rtr_sim::SimTime::ZERO; completed],
            ideal_makespan: SimDuration::ZERO,
            reconfig_latency: SimDuration::from_ms(4),
            qos: Default::default(),
            faults: Default::default(),
        }
    }

    fn fleet_stats() -> FleetStats {
        FleetStats {
            devices: 2,
            placement: "round-robin".into(),
            submitted: 12,
            admitted: 10,
            rejected: 2,
            completed: 10,
            executed: 30,
            reuses: 12,
            loads: 18,
            makespan: SimDuration::from_ms(90),
            per_tenant: vec![tenant_row(0, 8, 6, 6, 20), tenant_row(3, 4, 4, 4, 10)],
            per_device: vec![device_stats(20, 8, 6, 90), device_stats(10, 4, 4, 70)],
        }
    }

    #[test]
    fn roll_up_balances() {
        let s = fleet_stats();
        assert!(s.balanced());
        assert!((s.cross_device_reuse_rate_pct() - 40.0).abs() < 1e-12);
        assert_eq!(s.tenant(TenantId(3)).unwrap().admitted, 4);
        assert!(s.tenant(TenantId(1)).is_none());
    }

    #[test]
    fn imbalances_are_caught() {
        let mut s = fleet_stats();
        s.executed += 1; // totals drift from the device sum
        assert!(!s.balanced());

        let mut s = fleet_stats();
        s.per_tenant[0].rejected += 1; // tenant row no longer balanced
        assert!(!s.balanced());

        let mut s = fleet_stats();
        s.makespan = SimDuration::from_ms(80); // not the device max
        assert!(!s.balanced());

        let mut s = fleet_stats();
        s.per_tenant[0].executed += 1; // tenant sum above the device total
        assert!(!s.balanced());

        let mut s = fleet_stats();
        s.per_tenant[0].executed -= 1; // replays: device total may exceed
        assert!(s.balanced()); // the dispatch-time tenant attribution

        let mut s = fleet_stats();
        s.per_tenant.swap(0, 1); // tenant order violated
        assert!(!s.balanced());
    }

    #[test]
    fn fairness_index_is_jain() {
        let mut s = fleet_stats();
        // Two tenants, 6 and 4 completions: (10)^2 / (2 * 52) ≈ 0.9615.
        assert!((s.fairness_index() - 100.0 / 104.0).abs() < 1e-12);
        s.per_tenant[1].completed = 6;
        assert!((s.fairness_index() - 1.0).abs() < 1e-12);
        s.per_tenant.clear();
        assert_eq!(s.fairness_index(), 1.0); // vacuously fair, not NaN
    }

    #[test]
    fn tenant_ledger_identities() {
        let mut t = TenantStats::new(TenantId(5));
        assert_eq!(t.tenant, 5);
        assert!(t.balanced());
        t.submitted = 3;
        t.admitted = 2;
        t.rejected = 1;
        t.completed = 2;
        assert!(t.balanced());
        t.completed = 3; // completed more than admitted
        assert!(!t.balanced());
    }
}
