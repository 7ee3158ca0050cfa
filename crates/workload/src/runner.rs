//! Runs one experiment cell: a policy on a workload on a system.
//!
//! The runner owns the glue the paper describes as the hybrid flow: it
//! prepares mobility annotations once per template (design time) when
//! the policy needs them, configures the manager to match the policy
//! (lookahead, skip events), runs the simulation, and reports both the
//! schedule statistics and the wall-clock cost split between the
//! replacement module and the rest of the manager (the paper's
//! Tables I/II distinction).

use crate::policies::PolicyKind;
use rtr_core::TemplateRegistry;
use rtr_hw::{DeviceSpec, RuId};
use rtr_manager::{
    DecisionContext, Engine, FaultPlan, JobSpec, ManagerConfig, PreemptionMode, PrefetchConfig,
    QosClass, ReplacementPolicy, RunStats, SimError, Trace,
};
use rtr_sim::SimTime;
use rtr_taskgraph::{ConfigId, TaskGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One grid cell: which policy, on how many RUs, on which device.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Policy (and implied manager settings).
    pub policy: PolicyKind,
    /// Number of reconfigurable units.
    pub rus: usize,
    /// Device parameters.
    pub device: DeviceSpec,
    /// Record the full schedule trace.
    pub record_trace: bool,
    /// Speculative configuration prefetching (off by default, which is
    /// bit-exact with the pre-prefetch cells).
    pub prefetch: PrefetchConfig,
    /// Preemption policy for QoS-class scheduling (`Off` by default,
    /// which is bit-exact with the pre-QoS cells).
    pub preemption: PreemptionMode,
    /// Fault-injection plan (off by default, which is bit-exact with
    /// the fault-free cells).
    pub faults: FaultPlan,
}

impl CellConfig {
    /// Cell on the paper's default device.
    pub fn new(policy: PolicyKind, rus: usize) -> Self {
        CellConfig {
            policy,
            rus,
            device: DeviceSpec::paper_default(),
            record_trace: false,
            prefetch: PrefetchConfig::off(),
            preemption: PreemptionMode::Off,
            faults: FaultPlan::off(),
        }
    }

    /// Builder-style preemption-mode override.
    pub fn with_preemption(mut self, mode: PreemptionMode) -> Self {
        self.preemption = mode;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style prefetch-depth override.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch = PrefetchConfig::with_depth(depth);
        self
    }

    /// The manager configuration this cell implies.
    pub fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            rus: self.rus,
            device: self.device.clone(),
            lookahead: self.policy.lookahead(),
            skip_events: self.policy.skip_events(),
            record_trace: self.record_trace,
            prefetch: self.prefetch,
            preemption: self.preemption,
            faults: self.faults,
        }
    }
}

/// Outcome of one cell, with cost attribution.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Schedule statistics.
    pub stats: RunStats,
    /// Schedule trace (empty unless requested).
    pub trace: Trace,
    /// Wall-clock time spent *inside* `select_victim` calls.
    pub replacement_time: Duration,
    /// Number of `select_victim` invocations.
    pub replacement_calls: u64,
    /// Wall-clock time of the whole simulation (including the above).
    pub total_time: Duration,
    /// Wall-clock time of the design-time phase (mobility preparation);
    /// zero when the policy does not need mobility.
    pub design_time: Duration,
}

/// Wraps a policy and attributes wall-clock time to its decisions.
pub struct TimingPolicy<'a> {
    inner: &'a mut dyn ReplacementPolicy,
    spent: Duration,
    calls: u64,
}

impl<'a> TimingPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ReplacementPolicy) -> Self {
        TimingPolicy {
            inner,
            spent: Duration::ZERO,
            calls: 0,
        }
    }

    /// Accumulated decision time.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Number of decisions made.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl ReplacementPolicy for TimingPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let t0 = Instant::now();
        let v = self.inner.select_victim(ctx);
        self.spent += t0.elapsed();
        self.calls += 1;
        v
    }
    fn on_load_complete(&mut self, config: ConfigId, ru: RuId, now: SimTime) {
        self.inner.on_load_complete(config, ru, now);
    }
    fn on_reuse(&mut self, config: ConfigId, ru: RuId, now: SimTime) {
        self.inner.on_reuse(config, ru, now);
    }
    fn on_exec_start(&mut self, config: ConfigId, now: SimTime) {
        self.inner.on_exec_start(config, now);
    }
    fn on_exec_end(&mut self, config: ConfigId, now: SimTime) {
        self.inner.on_exec_end(config, now);
    }
    fn on_graph_start(&mut self, job: u32, now: SimTime) {
        self.inner.on_graph_start(job, now);
    }
    fn on_graph_end(&mut self, job: u32, now: SimTime) {
        self.inner.on_graph_end(job, now);
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Builds a cell's job sequence through the given design-time
/// registry, stamping arrivals and QoS classes and gating mobility on
/// the policy. Returns the jobs and the wall-clock design time of *this
/// call* (≈ 0 when the registry already holds the cell's artifacts;
/// always zero when the policy needs no mobility).
///
/// # Panics
/// Panics if `arrivals` or `qos` is provided with a length different
/// from `sequence`.
fn build_jobs(
    registry: &TemplateRegistry,
    sequence: &[Arc<TaskGraph>],
    arrivals: Option<&[SimTime]>,
    qos: Option<&[QosClass]>,
    cell: &CellConfig,
) -> (Vec<JobSpec>, Duration) {
    if let Some(arrivals) = arrivals {
        assert_eq!(
            arrivals.len(),
            sequence.len(),
            "one arrival instant per application required"
        );
    }
    if let Some(qos) = qos {
        assert_eq!(
            qos.len(),
            sequence.len(),
            "one QoS class per application required"
        );
    }
    let arrival_of = |i: usize| arrivals.map_or(SimTime::ZERO, |a| a[i]);
    let qos_of = |i: usize| qos.map_or_else(QosClass::default, |q| q[i]);
    let cfg = cell.manager_config();
    let needs_mobility = cell.policy.needs_mobility();
    let t0 = Instant::now();
    let jobs: Vec<JobSpec> = sequence
        .iter()
        .enumerate()
        .map(|(i, g)| {
            registry
                .instantiate(g, &cfg, needs_mobility)
                .expect("benchmark graphs have feasible reference schedules")
                .with_arrival(arrival_of(i))
                .with_qos(qos_of(i))
        })
        .collect();
    let design_time = if needs_mobility {
        t0.elapsed()
    } else {
        Duration::ZERO
    };
    (jobs, design_time)
}

/// Runs one cell over an application sequence (batch: all arrivals at
/// t = 0).
///
/// One-shot form: builds a private [`CellRunner`] (fresh registry), so
/// mobility cost is attributed to this cell alone. Sweeps should hold a
/// `CellRunner` instead and amortise it.
pub fn run_cell(sequence: &[Arc<TaskGraph>], cell: &CellConfig) -> Result<CellResult, SimError> {
    CellRunner::new().run(sequence, cell)
}

/// A cell executor over a (typically shared) mobility memo, the
/// [`TemplateRegistry`]. Every cell builds its own [`Engine`], which
/// computes the structural artifacts of its templates, so cells share
/// nothing but the registry.
///
/// Sweeps create one `CellRunner` per worker thread, all pointing at
/// one registry, so each `(template, system)` mobility vector is
/// computed once per process. Results are bit-exact with the one-shot
/// [`run_cell`] path; only the wall-clock attribution differs —
/// `design_time` reports this *call's* cost, which is ≈ 0 whenever the
/// registry already holds the cell's mobility vectors.
pub struct CellRunner {
    registry: Arc<TemplateRegistry>,
}

/// Per-worker [`CellRunner`] factory sharing one mobility memo,
/// `registry` — the worker-init closure a sweep passes to
/// [`parallel_map_with`](crate::parallel::parallel_map_with).
pub fn pooled_workers(registry: &Arc<TemplateRegistry>) -> impl Fn() -> CellRunner + Sync + '_ {
    move || CellRunner::with_registry(Arc::clone(registry))
}

impl CellRunner {
    /// A runner with a private registry (the one-shot configuration).
    pub fn new() -> Self {
        CellRunner::with_registry(Arc::new(TemplateRegistry::new()))
    }

    /// A runner drawing mobility vectors from a shared registry.
    pub fn with_registry(registry: Arc<TemplateRegistry>) -> Self {
        CellRunner { registry }
    }

    /// The runner's registry (share it with further runners).
    pub fn registry(&self) -> &Arc<TemplateRegistry> {
        &self.registry
    }

    /// Runs one batch cell (all arrivals at t = 0).
    pub fn run(
        &mut self,
        sequence: &[Arc<TaskGraph>],
        cell: &CellConfig,
    ) -> Result<CellResult, SimError> {
        self.run_with_arrivals_qos(sequence, None, None, cell)
    }

    /// Runs one cell, streaming jobs in at the given instants (`None` =
    /// batch) with per-job QoS classes (priority lanes and deadlines;
    /// `None` = every job in the default class).
    ///
    /// # Panics
    /// Panics if `arrivals` or `qos` is provided with a length
    /// different from `sequence`.
    pub fn run_with_arrivals_qos(
        &mut self,
        sequence: &[Arc<TaskGraph>],
        arrivals: Option<&[SimTime]>,
        qos: Option<&[QosClass]>,
        cell: &CellConfig,
    ) -> Result<CellResult, SimError> {
        // Design-time phase: memoised in the registry, so only the
        // first cell touching a (template, system) pair pays it.
        let (jobs, design_time) = build_jobs(&self.registry, sequence, arrivals, qos, cell);
        let cfg = cell.manager_config();
        let mut engine = Engine::new(&cfg);
        for job in jobs {
            engine.submit(job);
        }
        let mut policy = cell.policy.build();
        policy.reset();
        let mut timed = TimingPolicy::new(policy.as_mut());
        let t0 = Instant::now();
        engine.run(&mut timed);
        let out = engine.finish()?;
        let total_time = t0.elapsed();
        Ok(CellResult {
            stats: out.stats,
            trace: out.trace,
            replacement_time: timed.spent(),
            replacement_calls: timed.calls(),
            total_time,
            design_time,
        })
    }
}

impl Default for CellRunner {
    fn default() -> Self {
        CellRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{multimedia_templates, SequenceModel};

    fn small_sequence(seed: u64) -> Vec<Arc<TaskGraph>> {
        SequenceModel::UniformRandom.generate(&multimedia_templates(), 40, seed)
    }

    #[test]
    fn lru_cell_runs() {
        let seq = small_sequence(1);
        let out = run_cell(&seq, &CellConfig::new(PolicyKind::Lru, 4)).unwrap();
        assert_eq!(
            out.stats.executed as usize,
            seq.iter().map(|g| g.len()).sum::<usize>()
        );
        assert!(out.design_time.is_zero());
    }

    #[test]
    fn skip_cell_prepares_mobility() {
        let seq = small_sequence(2);
        let cell = CellConfig::new(
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            4,
        );
        let out = run_cell(&seq, &cell).unwrap();
        assert!(out.design_time > Duration::ZERO);
        assert!(out.stats.executed > 0);
    }

    #[test]
    fn lfd_dominates_lru_on_reuse() {
        let seq = small_sequence(3);
        let lru = run_cell(&seq, &CellConfig::new(PolicyKind::Lru, 4)).unwrap();
        let lfd = run_cell(&seq, &CellConfig::new(PolicyKind::Lfd, 4)).unwrap();
        assert!(
            lfd.stats.reuses >= lru.stats.reuses,
            "LFD {} vs LRU {}",
            lfd.stats.reuses,
            lru.stats.reuses
        );
    }

    #[test]
    fn determinism_across_runs() {
        let seq = small_sequence(4);
        let cell = CellConfig::new(
            PolicyKind::LocalLfd {
                window: 2,
                skip: false,
            },
            5,
        );
        let a = run_cell(&seq, &cell).unwrap();
        let b = run_cell(&seq, &cell).unwrap();
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.stats.reuses, b.stats.reuses);
        assert_eq!(a.stats.loads, b.stats.loads);
    }

    #[test]
    fn arrivals_stamp_jobs_and_stream() {
        use crate::arrivals::ArrivalProcess;
        let seq = small_sequence(6);
        let arrivals = ArrivalProcess::Poisson {
            mean_gap_us: 60_000,
        }
        .generate(seq.len(), 11);
        let cell = CellConfig::new(PolicyKind::Lru, 4);
        let out = CellRunner::new()
            .run_with_arrivals_qos(&seq, Some(&arrivals), None, &cell)
            .unwrap();
        // Every job arrived at its stamped instant.
        let mut stamped = arrivals.clone();
        stamped.sort_unstable();
        let mut recorded = out.stats.graph_arrivals.clone();
        recorded.sort_unstable();
        assert_eq!(recorded, stamped);
        assert_eq!(
            out.stats.executed as usize,
            seq.iter().map(|g| g.len()).sum::<usize>()
        );
        // Sojourns are well-defined and the run is deterministic.
        let again = CellRunner::new()
            .run_with_arrivals_qos(&seq, Some(&arrivals), None, &cell)
            .unwrap();
        assert_eq!(out.stats.mean_sojourn_ms(), again.stats.mean_sojourn_ms());
    }

    #[test]
    #[should_panic(expected = "one arrival instant per application")]
    fn mismatched_arrival_length_panics() {
        let seq = small_sequence(7);
        let arrivals = vec![SimTime::ZERO; seq.len() - 1];
        let _ = CellRunner::new().run_with_arrivals_qos(
            &seq,
            Some(&arrivals),
            None,
            &CellConfig::new(PolicyKind::Lru, 4),
        );
    }

    #[test]
    fn pooled_runner_matches_one_shot_cells() {
        // One CellRunner across heterogeneous cells (policy, RU count,
        // mobility needs) must reproduce the one-shot path bit-exactly
        // (stats and trace): the shared registry is invisible.
        let seq = small_sequence(8);
        let mut runner = CellRunner::with_registry(Arc::new(TemplateRegistry::new()));
        let mut cells = vec![
            CellConfig::new(PolicyKind::Lru, 4),
            CellConfig::new(
                PolicyKind::LocalLfd {
                    window: 2,
                    skip: true,
                },
                5,
            ),
            CellConfig::new(PolicyKind::Lfd, 3),
        ];
        for cell in &mut cells {
            cell.record_trace = true;
        }
        for cell in &cells {
            let pooled = runner.run(&seq, cell).unwrap();
            let fresh = run_cell(&seq, cell).unwrap();
            assert_eq!(pooled.stats, fresh.stats);
            assert_eq!(pooled.trace, fresh.trace);
        }
        assert_eq!(runner.registry().templates(), 3);
    }

    #[test]
    fn registry_holds_only_mobility() {
        // Engines compute their own structural artifacts: cells without
        // Skip Events leave a shared registry empty.
        let seq = small_sequence(10);
        let mut runner = CellRunner::new();
        for policy in [
            PolicyKind::Lru,
            PolicyKind::LocalLfd {
                window: 2,
                skip: false,
            },
            PolicyKind::Lfd,
        ] {
            runner.run(&seq, &CellConfig::new(policy, 4)).unwrap();
        }
        assert_eq!(runner.registry().templates(), 0);
        assert_eq!(runner.registry().mobility_entries(), 0);
        let skip = PolicyKind::LocalLfd {
            window: 2,
            skip: true,
        };
        runner.run(&seq, &CellConfig::new(skip, 4)).unwrap();
        assert!(runner.registry().templates() > 0);
        assert!(runner.registry().mobility_entries() > 0);
    }

    #[test]
    fn shared_registry_amortises_design_time() {
        let seq = small_sequence(9);
        let cell = CellConfig::new(
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            4,
        );
        let mut runner = CellRunner::new();
        let first = runner.run(&seq, &cell).unwrap();
        let templates = runner.registry().templates();
        let mobility_entries = runner.registry().mobility_entries();
        assert!(templates > 0);
        assert!(mobility_entries > 0);
        let second = runner.run(&seq, &cell).unwrap();
        assert!(first.design_time > Duration::ZERO);
        // The second run hits the registry memo; it must not recompute
        // the (expensive) mobility probes. Assert the structural
        // property — no new registry entries — rather than comparing
        // noisy wall-clock durations.
        assert_eq!(runner.registry().templates(), templates);
        assert_eq!(runner.registry().mobility_entries(), mobility_entries);
        assert_eq!(first.stats, second.stats, "replications are bit-exact");
    }

    #[test]
    fn identical_reruns_keep_decision_attribution() {
        // Every run simulates cold: re-running the same cell on the
        // same runner makes (and times) the same decisions again.
        let seq = small_sequence(5);
        let cell = CellConfig::new(PolicyKind::Lru, 4);
        let mut runner = CellRunner::new();
        let first = runner.run(&seq, &cell).unwrap();
        let second = runner.run(&seq, &cell).unwrap();
        assert_eq!(first.stats, second.stats);
        assert!(first.replacement_calls > 0);
        assert_eq!(second.replacement_calls, first.replacement_calls);
    }

    #[test]
    fn replacement_calls_counted() {
        let seq = small_sequence(5);
        let out = run_cell(&seq, &CellConfig::new(PolicyKind::Lru, 4)).unwrap();
        assert!(out.replacement_calls > 0);
        assert!(out.total_time >= out.replacement_time);
    }
}
