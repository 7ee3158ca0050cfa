//! Per-run statistics and the overhead metrics of the paper's Fig. 9.

use rtr_hw::TrafficStats;
use rtr_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Counters of the speculative-prefetch subsystem (all zero when
/// prefetching is disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Speculative loads started on the idle port.
    pub issued: u64,
    /// Speculative loads that ran to completion (resident afterwards).
    pub completed: u64,
    /// Speculative loads aborted because a demand load needed the port.
    pub cancelled: u64,
    /// Prefetched configurations later claimed by the demand path
    /// before being evicted — each hit hid one full load latency.
    pub hits: u64,
    /// Prefetched configurations evicted before any use — the bus
    /// traffic they moved was wasted.
    pub wasted: u64,
}

impl PrefetchStats {
    /// The closed-ledger identities every run must satisfy: each
    /// issued speculative load either completed or was cancelled, and
    /// hit/waste attribution never exceeds the completions. The
    /// `ledger` checker asserts this on every validated run.
    pub fn balanced(&self) -> bool {
        self.issued == self.completed + self.cancelled && self.hits + self.wasted <= self.completed
    }

    /// Fraction of completed prefetches that were later used, in
    /// `[0, 1]` (0 when none completed).
    pub fn hit_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.hits as f64 / self.completed as f64
        }
    }
}

/// Counters of the fault-injection + recovery subsystem (all zero when
/// the fault plan is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected, all classes (transient loads + upsets + RU
    /// hard faults).
    pub injected: u64,
    /// Backoff retries of corrupt loads.
    pub retries: u64,
    /// Upset residents repaired by a later rewrite of the same RU.
    pub repairs: u64,
    /// RUs quarantined out of the pool (hard faults and retry
    /// exhaustion combined).
    pub quarantines: u64,
    /// Quarantined RUs that healed back into the pool.
    pub heals: u64,
    /// Total time the pool spent with at least one RU quarantined.
    pub degraded_time: SimDuration,
    /// Execution time discarded by hard faults (work done before the
    /// fault instant that must be redone elsewhere).
    pub lost_work_cycles: SimDuration,
}

impl Default for FaultStats {
    fn default() -> Self {
        FaultStats {
            injected: 0,
            retries: 0,
            repairs: 0,
            quarantines: 0,
            heals: 0,
            degraded_time: SimDuration::ZERO,
            lost_work_cycles: SimDuration::ZERO,
        }
    }
}

impl FaultStats {
    /// Internal-consistency identities the `ledger` checker asserts: a
    /// unit can only heal after being quarantined, and a run that never
    /// lost a unit accrued no degraded time.
    pub fn balanced(&self) -> bool {
        self.heals <= self.quarantines
            && (self.quarantines > 0 || self.degraded_time == SimDuration::ZERO)
    }
}

/// Sojourn / deadline breakdown for one QoS priority class.
///
/// Percentiles use the nearest-rank definition on the sorted per-graph
/// sojourn times of the class. A class that completed zero jobs reports
/// all-zero durations (integer arithmetic throughout — no `0/0` NaN is
/// possible).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSojournStats {
    /// The lane priority this row aggregates.
    pub priority: u8,
    /// Task graphs of this class that completed.
    pub jobs: u64,
    /// Completed graphs of this class that finished after their
    /// deadline.
    pub deadline_misses: u64,
    /// Summed lateness (`completion − deadline`) of the missing graphs.
    pub tardiness_total: SimDuration,
    /// Median sojourn time (nearest rank).
    pub p50: SimDuration,
    /// 95th-percentile sojourn time (nearest rank).
    pub p95: SimDuration,
    /// Worst-case sojourn time.
    pub max: SimDuration,
    /// Summed sojourn time (mean = `sojourn_total / jobs`).
    pub sojourn_total: SimDuration,
}

/// Nearest-rank percentile over an ascending-sorted slice; `ZERO` for
/// an empty one.
fn percentile(sorted: &[SimDuration], pct: u64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1).min(n);
    sorted[(rank - 1) as usize]
}

impl ClassSojournStats {
    /// Aggregates one class from its per-graph samples. `samples` is
    /// sorted in place; an empty class yields all-zero durations.
    pub fn from_samples(
        priority: u8,
        samples: &mut [SimDuration],
        deadline_misses: u64,
        tardiness_total: SimDuration,
    ) -> Self {
        samples.sort_unstable();
        ClassSojournStats {
            priority,
            jobs: samples.len() as u64,
            deadline_misses,
            tardiness_total,
            p50: percentile(samples, 50),
            p95: percentile(samples, 95),
            max: samples.last().copied().unwrap_or(SimDuration::ZERO),
            sojourn_total: samples.iter().copied().sum(),
        }
    }

    /// Mean sojourn time in milliseconds (0 for an empty class — never
    /// NaN).
    pub fn mean_sojourn_ms(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.sojourn_total.as_ms_f64() / self.jobs as f64
        }
    }

    /// Fraction of this class's completed graphs that missed their
    /// deadline, in `[0, 1]` (0 for an empty class).
    pub fn miss_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.jobs as f64
        }
    }
}

/// QoS-scheduling counters of one run (all zero / empty when every job
/// is best-effort and preemption is off — the pre-QoS engine).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosStats {
    /// Completed graphs that finished after their deadline.
    pub deadline_misses: u64,
    /// Summed lateness (`completion − deadline`) across missed
    /// deadlines.
    pub tardiness_total: SimDuration,
    /// Running graphs suspended by a higher-priority arrival.
    pub preemptions: u64,
    /// In-flight tasks checkpointed at a preemption instant.
    pub checkpoints: u64,
    /// In-flight tasks killed at a preemption instant and replayed from
    /// scratch later.
    pub replayed_nodes: u64,
    /// Execution time discarded by kills (work done before the
    /// preemption instant that must be redone).
    pub lost_work_cycles: SimDuration,
    /// Per-priority sojourn / deadline breakdown, ascending priority.
    /// Only classes that completed at least one graph appear.
    pub class_sojourns: Vec<ClassSojournStats>,
}

impl Default for QosStats {
    fn default() -> Self {
        QosStats {
            deadline_misses: 0,
            tardiness_total: SimDuration::ZERO,
            preemptions: 0,
            checkpoints: 0,
            replayed_nodes: 0,
            lost_work_cycles: SimDuration::ZERO,
            class_sojourns: Vec::new(),
        }
    }
}

impl QosStats {
    /// The class row for a given priority, if any graph of that class
    /// completed.
    pub fn class(&self, priority: u8) -> Option<&ClassSojournStats> {
        self.class_sojourns.iter().find(|c| c.priority == priority)
    }

    /// Ledger identity checked by the `ledger` checker: the per-class
    /// miss/tardiness rows must sum to the run totals.
    pub fn balanced(&self) -> bool {
        let misses: u64 = self.class_sojourns.iter().map(|c| c.deadline_misses).sum();
        let tardiness: SimDuration = self.class_sojourns.iter().map(|c| c.tardiness_total).sum();
        misses == self.deadline_misses && tardiness == self.tardiness_total
    }
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Name of the replacement policy that produced this run.
    pub policy: String,
    /// Completion time of the last task graph.
    pub makespan: SimDuration,
    /// Task instances executed.
    pub executed: u64,
    /// Task instances whose configuration was reused (no load).
    pub reuses: u64,
    /// Reconfigurations performed.
    pub loads: u64,
    /// Reconfigurations delayed by the Skip Events feature (run-time
    /// skips and forced mobility-probe delays combined).
    pub skips: u64,
    /// Load attempts that found no eviction candidate and retried.
    pub stalls: u64,
    /// Energy / bus-traffic counters.
    pub traffic: TrafficStats,
    /// Speculative-prefetch counters (all zero with prefetch off).
    pub prefetch: PrefetchStats,
    /// Total time the single reconfiguration port spent writing
    /// bitstreams (demand loads, completed prefetches and the written
    /// part of cancelled ones) — the port-utilisation counter of the
    /// `ReconfigController`, surfaced so run-to-run equality pins it.
    pub port_busy_time: SimDuration,
    /// Arrival instant of each task graph, in activation order
    /// (all-zero in the paper's batch setting).
    pub graph_arrivals: Vec<SimTime>,
    /// Completion instant of each task graph, in activation order
    /// (equal to submission order when all jobs arrive at t = 0).
    pub graph_completions: Vec<SimTime>,
    /// Zero-latency baseline makespan of the same job sequence (the
    /// "ideal schedule where no reconfiguration overhead is generated"
    /// of the paper's Fig. 2).
    pub ideal_makespan: SimDuration,
    /// Per-load reconfiguration latency used in the run.
    pub reconfig_latency: SimDuration,
    /// QoS counters: deadline misses, tardiness, preemption ledger and
    /// per-class sojourn breakdowns (defaulted for pre-QoS runs).
    pub qos: QosStats,
    /// Fault-injection + recovery counters (all zero with the fault
    /// plan off).
    pub faults: FaultStats,
}

impl RunStats {
    /// Reuse rate as the paper defines it: "the number of reused tasks
    /// divided by the total number of executed tasks", in percent.
    ///
    /// Counts every zero-*latency* placement — genuine demand reuse
    /// *and* claims of speculatively prefetched configurations. A
    /// prefetch hit hides the port latency but did move a bitstream on
    /// the speculative lane; use [`Self::demand_reuse_rate_pct`] for
    /// the traffic-free share, and `traffic.prefetch_loads` /
    /// `traffic.bytes_moved` for what speculation actually cost.
    pub fn reuse_rate_pct(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.reuses as f64 / self.executed as f64 * 100.0
        }
    }

    /// The traffic-free reuse rate: placements that required *no*
    /// bitstream movement at all (reuse claims minus prefetch hits),
    /// over executed tasks, in percent. With prefetch off this equals
    /// [`Self::reuse_rate_pct`]; with prefetch on, the two bracket the
    /// trade the planner makes — latency hidden versus bus traffic
    /// spent.
    pub fn demand_reuse_rate_pct(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.reuses.saturating_sub(self.prefetch.hits) as f64 / self.executed as f64 * 100.0
        }
    }

    /// Reconfiguration overhead that remained visible in the makespan:
    /// `makespan − ideal` (the "overhead: N ms" labels of Figs. 2/3).
    pub fn total_overhead(&self) -> SimDuration {
        self.makespan.saturating_sub(self.ideal_makespan)
    }

    /// The "original reconfiguration overhead": what reconfigurations
    /// would cost if none were hidden or avoided — one full latency per
    /// executed task instance.
    pub fn original_overhead(&self) -> SimDuration {
        self.reconfig_latency * self.executed
    }

    /// The Fig. 9c metric: percentage of the original reconfiguration
    /// overhead still visible after prefetch + replacement. A zero-task
    /// run has no overhead to attribute, so it reports 0 (never NaN).
    pub fn remaining_overhead_pct(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.total_overhead().percent_of(self.original_overhead())
    }

    /// Pool availability under faults: the fraction of the run during
    /// which *no* RU was quarantined, in percent
    /// (`100 · (1 − degraded_time / makespan)`; 100 for a zero-length
    /// or fault-free run — never NaN).
    pub fn availability_pct(&self) -> f64 {
        if self.makespan == SimDuration::ZERO {
            return 100.0;
        }
        100.0 - self.faults.degraded_time.percent_of(self.makespan)
    }

    /// Per-graph sojourn times (completion − arrival): how long each
    /// application spent in the system, queueing included. The key
    /// responsiveness metric of streaming-arrival runs; in the batch
    /// setting it degenerates to the completion instants.
    pub fn sojourns(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.graph_arrivals
            .iter()
            .zip(&self.graph_completions)
            .map(|(&a, &c)| c.since(a))
    }

    /// Mean sojourn time in milliseconds (0 when no graph completed).
    pub fn mean_sojourn_ms(&self) -> f64 {
        let n = self.graph_completions.len();
        if n == 0 {
            return 0.0;
        }
        self.sojourns().map(|d| d.as_ms_f64()).sum::<f64>() / n as f64
    }

    /// Worst-case sojourn time across all graphs.
    pub fn max_sojourn(&self) -> SimDuration {
        self.sojourns().max().unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            policy: "test".into(),
            makespan: SimDuration::from_ms(120),
            executed: 10,
            reuses: 4,
            loads: 6,
            skips: 1,
            stalls: 2,
            traffic: TrafficStats::default(),
            prefetch: PrefetchStats::default(),
            port_busy_time: SimDuration::from_ms(24),
            graph_arrivals: vec![SimTime::ZERO, SimTime::from_ms(40)],
            graph_completions: vec![SimTime::from_ms(50), SimTime::from_ms(120)],
            ideal_makespan: SimDuration::from_ms(100),
            reconfig_latency: SimDuration::from_ms(4),
            qos: QosStats::default(),
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn reuse_rate_matches_paper_definition() {
        assert!((stats().reuse_rate_pct() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn overheads() {
        let s = stats();
        assert_eq!(s.total_overhead(), SimDuration::from_ms(20));
        assert_eq!(s.original_overhead(), SimDuration::from_ms(40));
        assert!((s.remaining_overhead_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_executed_is_safe() {
        let mut s = stats();
        s.executed = 0;
        assert_eq!(s.reuse_rate_pct(), 0.0);
        assert_eq!(s.remaining_overhead_pct(), 0.0);
    }

    #[test]
    fn prefetch_balance_identities() {
        let mut p = PrefetchStats::default();
        assert!(p.balanced());
        p.issued = 5;
        p.completed = 3;
        p.cancelled = 2;
        p.hits = 2;
        p.wasted = 1;
        assert!(p.balanced());
        p.wasted = 2; // hits + wasted > completed
        assert!(!p.balanced());
        p.wasted = 1;
        p.cancelled = 1; // issued != completed + cancelled
        assert!(!p.balanced());
    }

    #[test]
    fn prefetch_hit_ratio_is_finite() {
        let mut p = PrefetchStats::default();
        assert_eq!(p.hit_ratio(), 0.0);
        p.completed = 4;
        p.hits = 3;
        assert!((p.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn demand_reuse_excludes_prefetch_hits() {
        let mut s = stats();
        // 4 reuses over 10 executed = 40%; 3 of them were prefetch
        // hits, so only 1 placement was truly traffic-free.
        s.prefetch.hits = 3;
        assert!((s.reuse_rate_pct() - 40.0).abs() < 1e-12);
        assert!((s.demand_reuse_rate_pct() - 10.0).abs() < 1e-12);
        // Without prefetching the two metrics coincide.
        s.prefetch.hits = 0;
        assert_eq!(s.demand_reuse_rate_pct(), s.reuse_rate_pct());
        // Never negative, even on inconsistent inputs.
        s.prefetch.hits = 99;
        assert_eq!(s.demand_reuse_rate_pct(), 0.0);
    }

    #[test]
    fn sojourn_metrics() {
        // Graph 0: 50 − 0 = 50 ms; graph 1: 120 − 40 = 80 ms.
        let s = stats();
        assert!((s.mean_sojourn_ms() - 65.0).abs() < 1e-12);
        assert_eq!(s.max_sojourn(), SimDuration::from_ms(80));
    }

    #[test]
    fn class_sojourn_percentiles_nearest_rank() {
        let mut samples: Vec<SimDuration> = [80, 10, 30, 20, 50, 40, 60, 70, 90, 100] // unsorted on purpose
            .iter()
            .map(|&ms| SimDuration::from_ms(ms))
            .collect();
        let c = ClassSojournStats::from_samples(2, &mut samples, 3, SimDuration::from_ms(12));
        assert_eq!(c.priority, 2);
        assert_eq!(c.jobs, 10);
        // Nearest rank over 10 samples: p50 → rank 5 (50 ms), p95 →
        // rank ceil(9.5) = 10 (100 ms).
        assert_eq!(c.p50, SimDuration::from_ms(50));
        assert_eq!(c.p95, SimDuration::from_ms(100));
        assert_eq!(c.max, SimDuration::from_ms(100));
        assert!((c.mean_sojourn_ms() - 55.0).abs() < 1e-12);
        assert!((c.miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_class_reports_zero_not_nan() {
        let c = ClassSojournStats::from_samples(7, &mut Vec::new(), 0, SimDuration::ZERO);
        assert_eq!(c.jobs, 0);
        assert_eq!(c.p50, SimDuration::ZERO);
        assert_eq!(c.p95, SimDuration::ZERO);
        assert_eq!(c.max, SimDuration::ZERO);
        for v in [c.mean_sojourn_ms(), c.miss_rate()] {
            assert!(v.is_finite());
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn single_sample_class_percentiles_collapse() {
        let mut one = vec![SimDuration::from_ms(42)];
        let c = ClassSojournStats::from_samples(1, &mut one, 1, SimDuration::from_ms(2));
        assert_eq!(c.p50, SimDuration::from_ms(42));
        assert_eq!(c.p95, SimDuration::from_ms(42));
        assert_eq!(c.max, SimDuration::from_ms(42));
        assert!((c.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_ledger_balance_and_availability() {
        let mut f = FaultStats::default();
        assert!(f.balanced());
        f.degraded_time = SimDuration::from_ms(5); // degraded without any quarantine
        assert!(!f.balanced());
        f.quarantines = 2;
        f.heals = 1;
        assert!(f.balanced());
        f.heals = 3; // more heals than quarantines
        assert!(!f.balanced());

        let mut s = stats();
        assert_eq!(s.availability_pct(), 100.0);
        s.faults.quarantines = 1;
        s.faults.degraded_time = SimDuration::from_ms(30); // of a 120 ms run
        assert!((s.availability_pct() - 75.0).abs() < 1e-9);
        s.makespan = SimDuration::ZERO;
        assert_eq!(s.availability_pct(), 100.0);
    }

    #[test]
    fn qos_ledger_balance() {
        let mut q = QosStats::default();
        assert!(q.balanced());
        q.class_sojourns.push(ClassSojournStats::from_samples(
            0,
            &mut [SimDuration::from_ms(10)],
            1,
            SimDuration::from_ms(3),
        ));
        q.class_sojourns.push(ClassSojournStats::from_samples(
            2,
            &mut [SimDuration::from_ms(5)],
            1,
            SimDuration::from_ms(4),
        ));
        q.deadline_misses = 2;
        q.tardiness_total = SimDuration::from_ms(7);
        assert!(q.balanced());
        assert_eq!(q.class(2).unwrap().jobs, 1);
        assert!(q.class(1).is_none());
        q.deadline_misses = 3;
        assert!(!q.balanced());
    }

    #[test]
    fn empty_run_sojourn_is_zero() {
        let mut s = stats();
        s.graph_arrivals.clear();
        s.graph_completions.clear();
        assert_eq!(s.mean_sojourn_ms(), 0.0);
        assert_eq!(s.max_sojourn(), SimDuration::ZERO);
    }

    #[test]
    fn zero_task_and_zero_job_runs_report_zero_not_nan() {
        // The stats of a run with no jobs at all (or whose jobs executed
        // no tasks): every derived metric must be a finite 0, never a
        // NaN from a 0/0 — empty and all-future-arrival scenarios
        // tabulate cleanly.
        let s = RunStats {
            policy: "empty".into(),
            makespan: SimDuration::ZERO,
            executed: 0,
            reuses: 0,
            loads: 0,
            skips: 0,
            stalls: 0,
            traffic: TrafficStats::default(),
            prefetch: PrefetchStats::default(),
            port_busy_time: SimDuration::ZERO,
            graph_arrivals: Vec::new(),
            graph_completions: Vec::new(),
            ideal_makespan: SimDuration::ZERO,
            reconfig_latency: SimDuration::from_ms(4),
            qos: QosStats::default(),
            faults: FaultStats::default(),
        };
        for v in [
            s.reuse_rate_pct(),
            s.remaining_overhead_pct(),
            s.mean_sojourn_ms(),
        ] {
            assert!(v.is_finite(), "derived metric must never be NaN/inf");
            assert_eq!(v, 0.0);
        }
        assert_eq!(s.max_sojourn(), SimDuration::ZERO);
        assert_eq!(s.total_overhead(), SimDuration::ZERO);
        assert_eq!(s.original_overhead(), SimDuration::ZERO);
    }
}
