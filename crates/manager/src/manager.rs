//! The event-triggered execution manager (the paper's Fig. 4) with the
//! replacement-module protocol (Fig. 8), generalised into a streaming
//! [`Engine`] that consumes jobs from an online arrival queue.
//!
//! This file is the thin orchestrator: the public [`Engine`] /
//! [`simulate`] surface, submission, the event-drain loop and run
//! finalisation. The event semantics live in the six submodules of
//! `crate::engine` — `events` (Fig. 4), `residency`, `decision`
//! (Fig. 8), `prefetch`, `qos` and `faults` — whose module docs
//! describe each.
//!
//! When the current graph completes and no arrived job is waiting, the
//! manager goes *idle*: resident configurations stay in place (so reuse
//! survives idle gaps) and the next `JobArrival` event resumes
//! activation.

use crate::config::ManagerConfig;
use crate::engine::faults::FaultRuntime;
use crate::engine::{Counters, Event, JobScratch, Lanes, ManagerState, TemplateArtifacts};
use crate::engine::{
    PRIO_END_OF_EXECUTION, PRIO_END_OF_RECONFIGURATION, PRIO_JOB_ARRIVAL, PRIO_NEW_TASK_GRAPH,
    PRIO_RU_HEAL,
};
use crate::ideal::ideal_graph_makespan;
use crate::job::JobSpec;
use crate::policy::ReplacementPolicy;
use crate::reuse_index::ReuseIndex;
use crate::stats::{ClassSojournStats, FaultStats, QosStats, RunStats};
use crate::trace::Trace;
use rtr_hw::{ReconfigController, RuPool, TrafficStats};
use rtr_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use rtr_taskgraph::TaskGraph;
use std::fmt;
use std::mem;
use std::sync::Arc;

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained before all jobs completed while usable
    /// RUs remained. With correct inputs this has two causes:
    ///
    /// * a skip (run-time or forced mobility probe) waited for a
    ///   "following event" that does not exist; the design-time
    ///   mobility calculation treats it as an infeasible delay;
    /// * a permanent RU fault (a [`FaultPlan`](crate::FaultPlan) whose
    ///   `repair_latency` is `None`) requeued a task after later tasks
    ///   of its graph had claimed every usable RU. Claimed RUs are
    ///   never eviction candidates and those tasks wait on the requeued
    ///   one, so nothing can run.
    StalledAwaitingEvent {
        /// Jobs fully completed before the stall.
        completed_jobs: usize,
        /// Time of the last processed event.
        at: SimTime,
    },
    /// Every RU was quarantined by hardware faults with no repair
    /// pending, so the remaining jobs can never be placed. Only
    /// reachable with an active [`FaultPlan`](crate::FaultPlan) whose
    /// `repair_latency` is `None`.
    PoolExhausted {
        /// Jobs fully completed before the pool died.
        completed_jobs: usize,
        /// Time of the last processed event.
        at: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StalledAwaitingEvent { completed_jobs, at } => write!(
                f,
                "simulation stalled at {at} after {completed_jobs} jobs: a delayed \
                 reconfiguration waited for an event that never comes, or a task \
                 requeued by a permanent RU fault found every usable RU claimed"
            ),
            SimError::PoolExhausted { completed_jobs, at } => write!(
                f,
                "simulation halted at {at} after {completed_jobs} jobs: every RU is \
                 quarantined and the fault plan repairs none"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of [`simulate`].
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Full schedule trace (empty when `record_trace` is off).
    pub trace: Trace,
}

/// The streaming execution engine: an online generalisation of the
/// paper's batch simulator.
///
/// Jobs are [`submit`](Engine::submit)ted with explicit arrival times
/// and consumed as they arrive; [`run`](Engine::run) drains every
/// currently scheduled event (arrivals included), after which more jobs
/// may be submitted and `run` called again — an open-loop driver can
/// interleave submission and simulation indefinitely. The manager
/// idles (RU residency intact) whenever the online queue is empty while
/// later arrivals are still pending, and resumes on the next arrival.
///
/// **Batch equivalence:** submitting every job with `arrival == t0 = 0`
/// and draining the queue reproduces the paper's fixed-sequence
/// semantics event for event — [`simulate`] is exactly that wrapper,
/// and the golden Fig. 2/3/7 numbers are regression-tested through it.
///
/// **One run per engine:** build an engine, [`submit`](Engine::submit)
/// and [`run`](Engine::run), then [`finish`](Engine::finish), which
/// consumes it. Within the run the engine recycles its per-activation
/// buffers (the current job's node records, the candidate and
/// ready-successor scratch, the same-instant execution batch).
/// The engine computes each template's design-time artifacts the first
/// time it sees the template and shares them with no other engine.
pub struct Engine {
    m: ManagerState,
    jobs: Vec<JobSpec>,
    /// Design-time artifacts per template, keyed by the graph's address.
    /// `jobs` keeps every graph alive for the engine's lifetime, so an
    /// address is never recycled for another graph.
    templates: FxHashMap<usize, Arc<TemplateArtifacts>>,
    /// Pending arrivals `(time, job idx)` kept out of the event heap:
    /// arrivals are known at submission, so they live in this sorted
    /// lane and merge with the heap under the queue's total order. This
    /// keeps the heap depth at the count of *in-flight* events (a
    /// handful) instead of the whole submitted backlog (thousands in a
    /// batch run).
    arrival_lane: Vec<(SimTime, usize)>,
    /// First unconsumed `arrival_lane` entry.
    lane_cursor: usize,
    /// An out-of-order submission happened since the last sort.
    lane_dirty: bool,
    /// Name of the policy last passed to [`Engine::run`] (for stats).
    policy_name: String,
    /// Scratch for batched same-instant `EndOfExecution` dispatch.
    exec_batch: Vec<Event>,
}

impl Engine {
    /// Creates an idle engine with no jobs.
    ///
    /// # Panics
    /// Panics if `cfg.rus == 0`.
    pub fn new(cfg: &ManagerConfig) -> Self {
        assert!(cfg.rus > 0, "need at least one RU");
        Engine {
            m: ManagerState {
                pool: RuPool::new(cfg.rus),
                controller: ReconfigController::new(cfg.device.reconfig_latency),
                // The queue only ever holds in-flight events (arrivals
                // live in the lane), so pre-sizing to the RU count plus
                // slack makes it allocation-free for the engine's whole
                // lifetime.
                queue: EventQueue::with_capacity(cfg.rus + 4),
                job_templates: Vec::new(),
                current: None,
                scratch: JobScratch::default(),
                exec_ready: Vec::new(),
                candidates: Vec::new(),
                arrived: Lanes::default(),
                reuse_index: ReuseIndex::new(),
                index_bound: cfg.lookahead.visible_graphs(usize::MAX).saturating_add(1),
                pending_activation: None,
                completed_jobs: 0,
                trace: Trace::default(),
                counters: Counters::default(),
                prefetched: vec![false; cfg.rus],
                prefetch_scratch: Vec::new(),
                graph_arrivals: Vec::new(),
                graph_completions: Vec::new(),
                makespan_end: SimTime::ZERO,
                suspended: Vec::new(),
                exec_token: vec![0; cfg.rus],
                pending_preempt: false,
                qos_records: Vec::new(),
                faults: FaultRuntime::seeded(cfg.faults.seed),
                cfg: cfg.clone(),
            },
            jobs: Vec::new(),
            templates: FxHashMap::default(),
            arrival_lane: Vec::new(),
            lane_cursor: 0,
            lane_dirty: false,
            policy_name: String::new(),
            exec_batch: Vec::new(),
        }
    }

    /// Submits a job; its arrival event fires at `job.arrival`. Returns
    /// the job's index (activation order may differ — jobs activate in
    /// service order: by priority lane, each lane in arrival order).
    ///
    /// The design-time phase (reconfiguration sequence, configuration
    /// projection, predecessor counts) runs here, once per distinct
    /// graph template per engine.
    ///
    /// # Panics
    /// Panics if the arrival lies in the simulated past (before the
    /// time of the last processed event).
    pub fn submit(&mut self, job: JobSpec) -> usize {
        assert!(
            job.arrival >= self.m.queue.now(),
            "job arrival {} is in the simulated past (now = {})",
            job.arrival,
            self.m.queue.now()
        );
        let tpl = self
            .templates
            .entry(Arc::as_ptr(&job.graph) as usize)
            .or_insert_with(|| TemplateArtifacts::compute(&job.graph));
        self.m.job_templates.push(Arc::clone(tpl));
        let idx = self.jobs.len();
        // The job's lane is created here, on the calling thread (see
        // `reserve_backlog`).
        self.m.arrived.open(job.qos.priority);
        if self
            .arrival_lane
            .last()
            .is_some_and(|&(last, _)| job.arrival < last)
        {
            self.lane_dirty = true;
        }
        self.arrival_lane.push((job.arrival, idx));
        self.jobs.push(job);
        idx
    }

    /// Processes events until both the heap and the arrival lane drain:
    /// every submitted job has arrived and either completed or stalled.
    /// More jobs may be submitted afterwards and `run` called again.
    ///
    /// The policy is passed per call (not stored) so the same engine
    /// can be driven by external schedulers; pass the same policy on
    /// every call for meaningful history-based decisions. The policy's
    /// `reset` is *not* invoked — callers owning the full run (like
    /// [`simulate`]) reset the policy themselves.
    ///
    /// The event loop is monomorphised for `P`: a concrete policy type
    /// lets small policy bodies (an LRU touch is one array store)
    /// inline into the loop, and a boxed policy runs as
    /// `P = dyn ReplacementPolicy` with one vtable call per callback.
    pub fn run<P: ReplacementPolicy + ?Sized>(&mut self, policy: &mut P) {
        self.policy_name.clear();
        self.policy_name.push_str(policy.name());
        if self.lane_dirty {
            // Stable sort by time keeps submission order among ties —
            // the same total order the heap's sequence numbers gave.
            self.arrival_lane[self.lane_cursor..].sort_by_key(|&(t, _)| t);
            self.lane_dirty = false;
        }
        loop {
            // Merge the four event sources under the simulation's total
            // order `(time, priority class)`: the queue (executions and
            // RU heals), the port's in-flight load, the sorted arrival
            // lane, and the single activation slot. Priority
            // classes are disjoint per source, so the pair is a total
            // order; ties within a class exist only among executions
            // (ordered by the queue's sequence numbers) and arrivals
            // (ordered by the lane's stable sort).
            let mut pick: Option<(SimTime, u8)> = None;
            if let Some((qt, qp, _)) = self.m.queue.peek_key() {
                debug_assert!(
                    qp == PRIO_END_OF_EXECUTION || qp == PRIO_RU_HEAL,
                    "queue holds only executions and RU heals"
                );
                pick = Some((qt, qp));
            }
            if let Some(op) = self.m.controller.in_flight() {
                let key = (op.completes, PRIO_END_OF_RECONFIGURATION);
                if pick.is_none_or(|best| key < best) {
                    pick = Some(key);
                }
            }
            if let Some(&(at, _)) = self.arrival_lane.get(self.lane_cursor) {
                let key = (at, PRIO_JOB_ARRIVAL);
                if pick.is_none_or(|best| key < best) {
                    pick = Some(key);
                }
            }
            if let Some(nt) = self.m.pending_activation {
                let key = (nt, PRIO_NEW_TASK_GRAPH);
                if pick.is_none_or(|best| key < best) {
                    pick = Some(key);
                }
            }
            let Some((now, prio)) = pick else { break };
            if prio != PRIO_RU_HEAL {
                // Heals are maintenance, not workload: one firing after
                // the last graph completed must not stretch the
                // makespan (which is defined by the final `GraphEnd`).
                self.m.makespan_end = now;
            }
            match prio {
                PRIO_END_OF_EXECUTION => {
                    // Simultaneous completions (parallel tasks on many
                    // RUs finishing together) drain as one batch
                    // instead of re-running the merge per event. Events
                    // a handler pushes at this same key carry later
                    // sequence numbers — they would pop after every
                    // pre-drained one anyway — so dispatching the batch
                    // in drained order equals the one-at-a-time order.
                    let mut batch = mem::take(&mut self.exec_batch);
                    self.m.queue.pop_same_instant_into(&mut batch);
                    for ev in batch.drain(..) {
                        self.m.handle(ev, now, &self.jobs, policy);
                    }
                    self.exec_batch = batch;
                }
                PRIO_END_OF_RECONFIGURATION => {
                    self.m.queue.advance_to(now);
                    self.m
                        .handle(Event::EndOfReconfiguration, now, &self.jobs, policy);
                }
                PRIO_JOB_ARRIVAL => {
                    let (_, idx) = self.arrival_lane[self.lane_cursor];
                    self.lane_cursor += 1;
                    self.m.queue.advance_to(now);
                    self.m
                        .handle(Event::JobArrival { idx }, now, &self.jobs, policy);
                    // Same-instant arrival storms batch while the
                    // manager is idle: with no current graph an arrival
                    // only records, indexes and arms the activation
                    // slot (fired at `PRIO_NEW_TASK_GRAPH`, after every
                    // same-instant arrival), so the rest of the burst
                    // is exactly the next picks of the merge. With a
                    // graph current an arrival can start a zero-length
                    // execution whose completion outranks the next
                    // arrival — fall back to the per-event merge.
                    while self.m.current.is_none() {
                        match self.arrival_lane.get(self.lane_cursor) {
                            Some(&(at, next)) if at == now => {
                                self.lane_cursor += 1;
                                self.m.handle(
                                    Event::JobArrival { idx: next },
                                    now,
                                    &self.jobs,
                                    policy,
                                );
                            }
                            _ => break,
                        }
                    }
                }
                PRIO_RU_HEAL => {
                    let ev = self.m.queue.pop().expect("picked from the queue").payload;
                    self.m.handle(ev, now, &self.jobs, policy);
                }
                _ => {
                    self.m.pending_activation = None;
                    self.m.queue.advance_to(now);
                    self.m.handle(Event::NewTaskGraph, now, &self.jobs, policy);
                }
            }
        }
    }

    /// Reserves the run state that grows by one entry per job — every
    /// priority lane and the per-completion ledgers — for every
    /// unfinished job. [`Fleet::run`](crate::Fleet::run) calls it before
    /// handing the engine to a worker thread: glibc gives each thread
    /// its own malloc arena, and memory that lands in a worker's arena
    /// stays mapped after the worker exits. In a batch run the whole
    /// backlog lands in the lanes at t = 0.
    pub(crate) fn reserve_backlog(&mut self) {
        let unfinished = self.jobs.len() - self.m.completed_jobs;
        let m = &mut self.m;
        m.arrived.reserve(unfinished);
        m.graph_arrivals.reserve(unfinished);
        m.graph_completions.reserve(unfinished);
        m.qos_records.reserve(unfinished);
    }

    /// The simulation clock: time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.m.queue.now()
    }

    /// Number of jobs that ran to completion so far.
    pub fn completed_jobs(&self) -> usize {
        self.m.completed_jobs
    }

    /// True when no graph is active and no events (arrivals included)
    /// are pending.
    pub fn is_idle(&self) -> bool {
        self.m.current.is_none()
            && self.m.suspended.is_empty()
            && self.m.queue.is_empty()
            && self.m.controller.is_idle()
            && self.m.pending_activation.is_none()
            && self.lane_cursor == self.arrival_lane.len()
    }

    /// Finalises the run into stats + trace, consuming the engine.
    ///
    /// Returns [`SimError::PoolExhausted`] when some submitted job did
    /// not complete and every RU is quarantined with no repair coming,
    /// and [`SimError::StalledAwaitingEvent`] when some submitted job
    /// did not complete for another reason.
    pub fn finish(mut self) -> Result<SimulationOutcome, SimError> {
        if self.m.completed_jobs != self.jobs.len() {
            // Distinguish "the whole pool died with no repair coming"
            // (a fault-plan outcome the caller may expect and handle)
            // from a genuine scheduling stall.
            if self.m.pool.usable_len() == 0 {
                return Err(SimError::PoolExhausted {
                    completed_jobs: self.m.completed_jobs,
                    at: self.m.makespan_end,
                });
            }
            return Err(SimError::StalledAwaitingEvent {
                completed_jobs: self.m.completed_jobs,
                at: self.m.makespan_end,
            });
        }
        let ideal_makespan = self.ideal_makespan();
        let class_sojourns = self.fold_class_sojourns();
        let c = mem::take(&mut self.m.counters);
        let device = &self.m.cfg.device;
        let stats = RunStats {
            policy: mem::take(&mut self.policy_name),
            makespan: self.m.makespan_end.since(SimTime::ZERO),
            executed: c.executed,
            reuses: c.reuses,
            loads: c.loads,
            skips: c.skips,
            stalls: c.stalls,
            traffic: TrafficStats::from_writes(
                device,
                c.demand_writes,
                c.speculative_writes,
                c.reuses,
            ),
            prefetch: c.prefetch,
            port_busy_time: self.m.controller.busy_time(),
            graph_arrivals: mem::take(&mut self.m.graph_arrivals),
            graph_completions: mem::take(&mut self.m.graph_completions),
            ideal_makespan,
            reconfig_latency: device.reconfig_latency,
            qos: QosStats {
                class_sojourns,
                ..c.qos
            },
            faults: FaultStats {
                degraded_time: self.m.fault_degraded_time(self.m.makespan_end),
                ..c.faults
            },
        };
        Ok(SimulationOutcome {
            stats,
            trace: mem::take(&mut self.m.trace),
        })
    }

    /// Folds the run's per-completion QoS records into per-class
    /// sojourn/miss/tardiness rows, ascending priority.
    fn fold_class_sojourns(&mut self) -> Vec<ClassSojournStats> {
        let records = mem::take(&mut self.m.qos_records);
        let mut prios: Vec<u8> = records.iter().map(|r| r.0).collect();
        prios.sort_unstable();
        prios.dedup();
        let mut samples: Vec<SimDuration> = Vec::new();
        let mut class_sojourns = Vec::with_capacity(prios.len());
        for p in prios {
            samples.clear();
            let mut misses = 0u64;
            let mut tardiness = SimDuration::ZERO;
            for &(rp, sojourn, lateness) in &records {
                if rp != p {
                    continue;
                }
                samples.push(sojourn);
                if !lateness.is_zero() {
                    misses += 1;
                    tardiness += lateness;
                }
            }
            class_sojourns.push(ClassSojournStats::from_samples(
                p,
                &mut samples,
                misses,
                tardiness,
            ));
        }
        class_sojourns
    }

    /// [`ideal_sequence_makespan`](crate::ideal::ideal_sequence_makespan)
    /// over the submitted jobs, with the per-graph ideal memoised per
    /// template: re-deriving it for every *job instance* would dominate
    /// run finalisation on long streams.
    fn ideal_makespan(&self) -> SimDuration {
        // The arrival lane is exactly the required order — (arrival,
        // submission index), stably sorted — and `finish` only gets
        // here once every submitted arrival has been consumed, so it is
        // fully sorted; no per-run order buffer needed.
        debug_assert_eq!(self.arrival_lane.len(), self.jobs.len());
        let rus = self.m.cfg.rus;
        // `self.jobs` keeps every graph alive while the memo lives, so
        // a template's address identifies it.
        let mut memo: FxHashMap<*const TaskGraph, SimDuration> = FxHashMap::default();
        crate::ideal::ideal_sequence_makespan_with(
            &self.jobs,
            self.arrival_lane.iter().map(|&(_, i)| i),
            |g| {
                *memo
                    .entry(Arc::as_ptr(g))
                    .or_insert_with(|| ideal_graph_makespan(g, rus))
            },
        )
    }
}

/// Runs the manager over `jobs` with the given replacement `policy`.
///
/// This is the batch entry point: every job is submitted up front to a
/// streaming [`Engine`] and the event queue is drained once. Jobs
/// carrying the default `arrival == 0` reproduce the paper's
/// fixed-sequence semantics exactly; arrival-annotated jobs stream in
/// at their own instants.
///
/// The policy's `reset` is invoked first, so policies can be reused
/// across runs. Returns an error only when a delayed reconfiguration
/// waits forever (see [`SimError`]).
pub fn simulate(
    cfg: &ManagerConfig,
    jobs: &[JobSpec],
    policy: &mut dyn ReplacementPolicy,
) -> Result<SimulationOutcome, SimError> {
    policy.reset();
    let mut engine = Engine::new(cfg);
    for job in jobs {
        engine.submit(job.clone());
    }
    engine.run(policy);
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Lookahead, PrefetchConfig};
    use crate::policy::{DecisionContext, FirstCandidatePolicy};
    use crate::qos::{PreemptionMode, QosClass};
    use crate::trace::TraceEvent;
    use rtr_hw::RuId;
    use rtr_sim::SimDuration;
    use rtr_taskgraph::{benchmarks, ConfigId};
    use std::cmp::Reverse;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_ms(x)
    }

    fn run(cfg: &ManagerConfig, jobs: &[JobSpec]) -> SimulationOutcome {
        simulate(cfg, jobs, &mut FirstCandidatePolicy).expect("simulation completes")
    }

    #[test]
    fn empty_sequence_completes_immediately() {
        let out = run(&ManagerConfig::paper_default(), &[]);
        assert_eq!(out.stats.makespan, SimDuration::ZERO);
        assert_eq!(out.stats.executed, 0);
        // Derived metrics of the zero-job run are finite zeros, not NaN.
        assert_eq!(out.stats.reuse_rate_pct(), 0.0);
        assert_eq!(out.stats.remaining_overhead_pct(), 0.0);
        assert_eq!(out.stats.mean_sojourn_ms(), 0.0);
    }

    #[test]
    fn single_chain_graph_schedule() {
        // JPEG on 4 RUs: loads pipeline behind the 21 ms VLD execution;
        // only the initial 4 ms load is exposed. Makespan = 79 + 4.
        let jobs = vec![JobSpec::new(Arc::new(benchmarks::jpeg()))];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        assert_eq!(out.stats.makespan, ms(83));
        assert_eq!(out.stats.executed, 4);
        assert_eq!(out.stats.loads, 4);
        assert_eq!(out.stats.reuses, 0);
        assert_eq!(out.stats.total_overhead(), ms(4));
    }

    #[test]
    fn repeated_graph_reuses_everything_with_enough_rus() {
        let g = Arc::new(benchmarks::jpeg());
        let jobs = vec![JobSpec::new(Arc::clone(&g)), JobSpec::new(g)];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        // Second instance reuses all 4 configurations.
        assert_eq!(out.stats.reuses, 4);
        assert_eq!(out.stats.loads, 4);
        assert_eq!(out.stats.makespan, ms(83 + 79));
        assert!((out.stats.reuse_rate_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn graphs_execute_sequentially() {
        let jobs = vec![
            JobSpec::new(Arc::new(benchmarks::jpeg())),
            JobSpec::new(Arc::new(benchmarks::mpeg1())),
        ];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        // First exec of job 1 must not precede last exec end of job 0.
        let mut first_exec_job1 = None;
        let mut last_end_job0 = None;
        for ev in out.trace.iter() {
            match *ev {
                TraceEvent::ExecStart { job: 1, at, .. } => {
                    first_exec_job1.get_or_insert(at);
                }
                TraceEvent::ExecEnd { job: 0, at, .. } => last_end_job0 = Some(at),
                _ => {}
            }
        }
        assert!(first_exec_job1.unwrap() >= last_end_job0.unwrap());
    }

    #[test]
    fn single_ru_serialises_with_replacement() {
        // MPEG-1 on one RU: every task must evict its predecessor.
        let jobs = vec![JobSpec::new(Arc::new(benchmarks::mpeg1()))];
        let cfg = ManagerConfig::paper_default().with_rus(1);
        let out = run(&cfg, &jobs);
        assert_eq!(out.stats.executed, 5);
        assert_eq!(out.stats.loads, 5);
        // Fully serial: each task pays its load latency then runs.
        assert_eq!(
            out.stats.makespan,
            ms(5 * 4) + benchmarks::mpeg1().total_exec_time()
        );
    }

    #[test]
    fn stall_retries_until_candidate_appears() {
        // Two RUs, a graph with three parallel sources and one sink:
        // the third source cannot load until a source finishes.
        let mut b = rtr_taskgraph::TaskGraphBuilder::new("wide");
        let a = b.node("a", ConfigId(1), ms(10));
        let c = b.node("b", ConfigId(2), ms(10));
        let d = b.node("c", ConfigId(3), ms(10));
        let e = b.node("d", ConfigId(4), ms(5));
        b.edge(a, e).edge(c, e).edge(d, e);
        let g = Arc::new(b.build().unwrap());
        let cfg = ManagerConfig::paper_default().with_rus(2);
        let out = run(&cfg, &[JobSpec::new(g)]);
        assert_eq!(out.stats.executed, 4);
        assert!(out.stats.stalls > 0, "expected stalled load attempts");
    }

    #[test]
    fn forced_delay_shifts_schedule() {
        // Fig. 7b: delaying T5 of Fig3-TG2 by one event gives 36 ms.
        let g = Arc::new(benchmarks::fig3_tg2());
        let job = JobSpec::new(Arc::clone(&g)).with_forced_delays(Arc::new(vec![0, 1, 0, 0]));
        let out = run(&ManagerConfig::paper_default(), &[job]);
        assert_eq!(out.stats.makespan, ms(36));
        assert_eq!(out.stats.skips, 1);
    }

    #[test]
    fn infeasible_forced_delay_errors() {
        // Delaying the only task of a single-node graph: there is never
        // a "following event".
        let mut b = rtr_taskgraph::TaskGraphBuilder::new("solo");
        b.node("t", ConfigId(1), ms(5));
        let g = Arc::new(b.build().unwrap());
        let job = JobSpec::new(g).with_forced_delays(Arc::new(vec![1]));
        let err = simulate(
            &ManagerConfig::paper_default(),
            &[job],
            &mut FirstCandidatePolicy,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::StalledAwaitingEvent { .. }));
    }

    #[test]
    fn energy_accounting_tracks_loads_and_reuses() {
        let g = Arc::new(benchmarks::jpeg());
        let jobs = vec![JobSpec::new(Arc::clone(&g)), JobSpec::new(g)];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        assert_eq!(out.stats.traffic.loads, 4);
        assert_eq!(out.stats.traffic.reuses, 4);
        assert_eq!(
            out.stats.traffic.bytes_moved,
            4 * ManagerConfig::paper_default().device.bitstream_bytes
        );
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let jobs = vec![JobSpec::new(Arc::new(benchmarks::jpeg()))];
        let cfg = ManagerConfig::paper_default().with_trace(false);
        let out = run(&cfg, &jobs);
        assert!(out.trace.is_empty());
        assert_eq!(out.stats.executed, 4);
    }

    #[test]
    fn late_arrival_idles_then_resumes() {
        // One JPEG at t = 0 (makespan 83 ms solo), a second arriving at
        // 200 ms: the manager idles in between, and residency survives
        // the gap, so the second instance reuses all 4 configurations
        // and finishes at 200 + 79 ms.
        let g = Arc::new(benchmarks::jpeg());
        let jobs = vec![
            JobSpec::new(Arc::clone(&g)),
            JobSpec::new(g).with_arrival(SimTime::from_ms(200)),
        ];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        assert_eq!(out.stats.reuses, 4, "residency survives the idle gap");
        assert_eq!(out.stats.makespan, ms(200 + 79));
        // The idle gap absorbs job 0's exposed initial load (it ends at
        // 83 ms, well before job 1 arrives), so no overhead is visible.
        assert_eq!(out.stats.total_overhead(), ms(0));
        assert_eq!(
            out.stats.graph_arrivals,
            vec![SimTime::ZERO, SimTime::from_ms(200)]
        );
    }

    #[test]
    fn activation_follows_arrival_order_not_submission_order() {
        // Job 1 arrives before job 0: it must run first.
        let jobs = vec![
            JobSpec::new(Arc::new(benchmarks::jpeg())).with_arrival(SimTime::from_ms(50)),
            JobSpec::new(Arc::new(benchmarks::mpeg1())).with_arrival(SimTime::from_ms(10)),
        ];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        let starts: Vec<u32> = out
            .trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::GraphStart { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![1, 0]);
    }

    #[test]
    fn engine_interleaves_submission_and_running() {
        // Drive the engine open-loop: run to idle, then submit more.
        let g = Arc::new(benchmarks::jpeg());
        let mut policy = FirstCandidatePolicy;
        let mut engine = Engine::new(&ManagerConfig::paper_default());
        engine.submit(JobSpec::new(Arc::clone(&g)));
        engine.run(&mut policy);
        assert!(engine.is_idle());
        assert_eq!(engine.completed_jobs(), 1);
        let t = engine.now();
        assert_eq!(t, SimTime::from_ms(83));
        // Submit a job arriving strictly later than "now".
        engine.submit(JobSpec::new(g).with_arrival(t + ms(17)));
        engine.run(&mut policy);
        assert_eq!(engine.completed_jobs(), 2);
        let out = engine.finish().expect("both jobs completed");
        assert_eq!(out.stats.reuses, 4);
        assert_eq!(out.stats.makespan, ms(100 + 79));
    }

    #[test]
    #[should_panic(expected = "simulated past")]
    fn submitting_into_the_past_panics() {
        let g = Arc::new(benchmarks::jpeg());
        let mut engine = Engine::new(&ManagerConfig::paper_default());
        engine.submit(JobSpec::new(Arc::clone(&g)));
        engine.run(&mut FirstCandidatePolicy);
        // now == 83 ms; an arrival at 5 ms is in the past.
        engine.submit(JobSpec::new(g).with_arrival(SimTime::from_ms(5)));
    }

    #[test]
    fn simultaneous_arrivals_activate_in_submission_order() {
        let jobs = vec![
            JobSpec::new(Arc::new(benchmarks::jpeg())).with_arrival(SimTime::from_ms(30)),
            JobSpec::new(Arc::new(benchmarks::mpeg1())).with_arrival(SimTime::from_ms(30)),
        ];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        let starts: Vec<u32> = out
            .trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::GraphStart { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![0, 1]);
        // Nothing can run before the shared arrival instant.
        assert!(out.stats.makespan >= ms(30 + 83));
    }

    #[test]
    fn streaming_trace_records_arrivals() {
        let jobs =
            vec![JobSpec::new(Arc::new(benchmarks::jpeg())).with_arrival(SimTime::from_ms(7))];
        let out = run(&ManagerConfig::paper_default(), &jobs);
        let arrivals: Vec<(u32, SimTime)> = out
            .trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::JobArrival { job, at } => Some((job, at)),
                _ => None,
            })
            .collect();
        assert_eq!(arrivals, vec![(0, SimTime::from_ms(7))]);
    }

    #[test]
    fn jobs_share_artifacts_per_graph_allocation() {
        // Jobs of one `Arc` share one artifact entry; a structurally
        // equal graph behind a second `Arc` is a different template.
        let g = Arc::new(benchmarks::jpeg());
        let twin = Arc::new(benchmarks::jpeg());
        let mut engine = Engine::new(&ManagerConfig::paper_default());
        engine.submit(JobSpec::new(Arc::clone(&g)));
        engine.submit(JobSpec::new(g));
        engine.submit(JobSpec::new(twin));
        assert_eq!(engine.templates.len(), 2);
        let tpls = &engine.m.job_templates;
        assert!(Arc::ptr_eq(&tpls[0], &tpls[1]), "one Arc, one entry");
        assert!(!Arc::ptr_eq(&tpls[0], &tpls[2]), "second Arc, own entry");
        engine.run(&mut FirstCandidatePolicy);
        assert_eq!(engine.completed_jobs(), 3);
    }

    #[test]
    fn reuse_index_tracks_backlog_and_drains() {
        // Two jobs at t = 0: while job 0 runs, the index holds job 0 +
        // the backlog job 1; after the run everything retired.
        let g = Arc::new(benchmarks::jpeg());
        let mut engine = Engine::new(&ManagerConfig::paper_default());
        engine.submit(JobSpec::new(Arc::clone(&g)));
        engine.submit(JobSpec::new(g));
        assert!(engine.m.reuse_index.is_empty(), "indexed on arrival");
        engine.run(&mut FirstCandidatePolicy);
        assert!(engine.m.reuse_index.is_empty(), "retired on completion");
        assert_eq!(engine.completed_jobs(), 2);
    }

    #[test]
    fn reuse_index_holds_only_what_the_lookahead_reaches() {
        // A same-instant burst of N arrivals, then its activation: the
        // index holds the current graph plus the w graphs a window can
        // show, not the rest of the backlog.
        const N: usize = 8;
        let g = Arc::new(benchmarks::jpeg());
        for (lookahead, held) in [
            (Lookahead::None, 1),
            (Lookahead::Graphs(2), 3),
            (Lookahead::All, N),
        ] {
            let cfg = ManagerConfig::paper_default().with_lookahead(lookahead);
            let mut engine = Engine::new(&cfg);
            for _ in 0..N {
                engine.submit(JobSpec::new(Arc::clone(&g)));
            }
            let m = &mut engine.m;
            for idx in 0..N {
                let ev = Event::JobArrival { idx };
                m.handle(ev, SimTime::ZERO, &engine.jobs, &mut FirstCandidatePolicy);
            }
            assert_eq!(m.arrived.len(), N);
            assert_eq!(m.reuse_index.jobs(), held, "after the burst, {lookahead:?}");
            m.pending_activation = None;
            m.handle(
                Event::NewTaskGraph,
                SimTime::ZERO,
                &engine.jobs,
                &mut FirstCandidatePolicy,
            );
            assert_eq!(
                m.reuse_index.jobs(),
                held,
                "after activation, {lookahead:?}"
            );
        }
    }

    /// Evicts the candidate whose configuration is requested farthest
    /// ahead in the window (absent counts as farthest; lowest RU on
    /// ties): every choice depends on the index's answers.
    struct FarthestNextUse;

    impl ReplacementPolicy for FarthestNextUse {
        fn name(&self) -> &str {
            "farthest-next-use"
        }

        fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
            let (_, victim) = ctx
                .candidates
                .iter()
                .enumerate()
                .max_by_key(|(i, c)| {
                    let dist = ctx.distance_of(c.config).unwrap_or(usize::MAX);
                    (dist, Reverse(*i))
                })
                .expect("decisions have candidates");
            victim.ru
        }
    }

    /// Keeps the visible window of the run's first decision.
    #[derive(Default)]
    struct FirstWindow(Vec<ConfigId>);

    impl ReplacementPolicy for FirstWindow {
        fn name(&self) -> &str {
            "first-window"
        }

        fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
            if self.0.is_empty() {
                self.0.extend(ctx.future_iter());
            }
            ctx.candidates[0].ru
        }
    }

    #[test]
    fn reuse_index_follows_service_order_not_arrival_order() {
        // Priorities 5, 0, 5 at t = 0, preemption off: job 2 runs after
        // job 0, so job 0's eviction (a 3-chain on 2 RUs) must see job
        // 2's configurations through `Graphs(1)`, not job 1's.
        let jobs: Vec<JobSpec> = [(0, 5), (10, 0), (20, 5)]
            .into_iter()
            .map(|(base, p)| {
                let mut b = rtr_taskgraph::TaskGraphBuilder::new("chain");
                let t: Vec<_> = (1..=3)
                    .map(|k| b.node("t", ConfigId(base + k), ms(10)))
                    .collect();
                b.edge(t[0], t[1]).edge(t[1], t[2]);
                JobSpec::new(Arc::new(b.build().unwrap())).with_qos(QosClass::priority(p))
            })
            .collect();
        let cfg = ManagerConfig::paper_default()
            .with_rus(2)
            .with_lookahead(Lookahead::Graphs(1));
        let mut policy = FirstWindow::default();
        simulate(&cfg, &jobs, &mut policy).expect("simulation completes");
        assert_eq!(policy.0, [ConfigId(21), ConfigId(22), ConfigId(23)]);
    }

    #[test]
    fn bounded_reuse_index_leaves_every_run_unchanged() {
        // Random lane workloads, each run twice: with the engine's bound
        // of 1 + w indexed jobs and with every arrived job indexed. The
        // stats and the trace must not differ by one event.
        let suite: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        for case in 0..300 {
            let lookahead = match draw(4) {
                0 => Lookahead::None,
                n => Lookahead::Graphs(n as usize),
            };
            let cfg = ManagerConfig::paper_default()
                .with_rus(2 + draw(5) as usize)
                .with_lookahead(lookahead)
                .with_preemption(PreemptionMode::ALL[draw(3) as usize])
                .with_prefetch(PrefetchConfig::with_depth(draw(3) as usize));
            let mut at = SimTime::ZERO;
            let jobs: Vec<JobSpec> = (0..4 + draw(24))
                .map(|_| {
                    if draw(3) != 0 {
                        at += SimDuration::from_us(draw(40_000));
                    }
                    let graph = Arc::clone(&suite[draw(3) as usize]);
                    let priority = [0, 0, 3, 5][draw(4) as usize];
                    JobSpec::new(graph)
                        .with_arrival(at)
                        .with_qos(QosClass::priority(priority))
                })
                .collect();
            let [bounded, unbounded] = [false, true].map(|unbounded| {
                let mut engine = Engine::new(&cfg);
                if unbounded {
                    engine.m.index_bound = usize::MAX;
                }
                for job in &jobs {
                    engine.submit(job.clone());
                }
                engine.run(&mut FarthestNextUse);
                engine.finish().map(|out| (out.stats, out.trace))
            });
            assert_eq!(bounded, unbounded, "case {case}: {cfg:?}");
        }
    }
}
