//! Internals of the streaming execution engine, decomposed by concern:
//!
//! * [`events`] — the event alphabet (the paper's Fig. 4 triggers) and
//!   the per-event dispatch;
//! * [`residency`] — everything that changes what is resident where:
//!   reuse claims, load starts, execution starts, and the incremental
//!   maintenance of the [`ReuseIndex`] as jobs arrive and retire;
//! * [`decision`] — the replacement module (the paper's Fig. 8): victim
//!   selection through [`DecisionContext`](crate::DecisionContext) and
//!   the Skip Events rule;
//! * [`prefetch`] — the speculative lane of the reconfiguration port;
//! * [`qos`] — preemption, resume and the service-order index rebuild;
//! * [`faults`] — fault injection, the corrupt-load retry and
//!   quarantine.
//!
//! [`crate::manager`] remains the thin orchestrator owning the public
//! [`Engine`](crate::Engine) / [`simulate`](crate::simulate) surface;
//! the split keeps each concern small enough to reason about while the
//! shared [`ManagerState`] stays one struct (the event loop is a state
//! machine, not a layer cake).
//!
//! **The in-flight load.** The port's
//! [`InFlight`](rtr_hw::InFlight) record is the engine's only record of
//! the pending reconfiguration. Its lane names what the load is for (a
//! demanded node or a prefetch), and the run loop fires the one
//! `EndOfReconfiguration` event at its `completes` instant.
//!
//! **Recycling within a run.** An engine serves one run. Inside it,
//! the buffers each activation needs are recycled rather than
//! reallocated: the [`ActiveJob`] node records and recovery queue go
//! back to [`JobScratch`] at graph completion (graphs run
//! sequentially), and the eviction-candidate and ready-successor
//! scratch buffers keep their capacity from event to event.
//! Each engine computes the [`TemplateArtifacts`] of a template the
//! first time a job of it is submitted, and shares them with every
//! later job of that template; engines share no design-time state.

use crate::config::ManagerConfig;
use crate::job::JobSpec;
use crate::policy::VictimCandidate;
use crate::reuse_index::ReuseIndex;
use crate::stats::{FaultStats, PrefetchStats, QosStats};
use crate::trace::{Trace, TraceEvent};
use rtr_hw::{LoadLane, ReconfigController, RuId, RuPool};
use rtr_sim::{EventQueue, SimDuration, SimTime};
use rtr_taskgraph::{reconfiguration_sequence, ConfigId, NodeId, TaskGraph};
use std::collections::VecDeque;
use std::sync::Arc;

pub(crate) mod decision;
pub(crate) mod events;
pub(crate) mod faults;
pub(crate) mod prefetch;
pub(crate) mod qos;
pub(crate) mod residency;

pub(crate) use events::{
    Event, PRIO_END_OF_EXECUTION, PRIO_END_OF_RECONFIGURATION, PRIO_JOB_ARRIVAL,
    PRIO_NEW_TASK_GRAPH, PRIO_RU_HEAL,
};

/// Where one node of the current graph stands. A node that lost its
/// placement to a preemption or a fault returns to `Unplaced` and is
/// re-placed through the job's recovery queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// No RU holds the node's configuration for it.
    Unplaced,
    /// Loaded (or reuse-claimed) on the RU, not yet executing.
    Placed(RuId),
    /// Executing on `ru` since `start`, scheduled to finish at `end` —
    /// a kill charges `now − start` to lost work, a checkpoint keeps
    /// `end − now` as the remainder.
    Running {
        ru: RuId,
        start: SimTime,
        end: SimTime,
    },
    /// Finished executing.
    Done,
}

/// The run-time record of one node of the current graph.
#[derive(Debug)]
pub(crate) struct NodeRun {
    /// Predecessors that have not finished yet.
    pub(crate) pending_preds: u32,
    pub(crate) place: Placement,
    /// Checkpointed remainder: when nonzero, the node's next execution
    /// runs for `resume_left + reconfig latency` (the restore penalty)
    /// instead of its full design-time time.
    pub(crate) resume_left: SimDuration,
    /// Forced delays already honoured (mobility probes).
    pub(crate) forced_skips: u32,
}

/// The design-time artifacts of one graph template: everything the
/// engine walks instead of recomputing per job.
#[derive(Debug)]
pub(crate) struct TemplateArtifacts {
    /// The template graph.
    pub(crate) graph: Arc<TaskGraph>,
    /// The reconfiguration sequence (load order, the paper's §III).
    pub(crate) rec_seq: Vec<NodeId>,
    /// Configuration of each `rec_seq` entry — the request stream the
    /// replacement module sees. Shared with the [`ReuseIndex`]
    /// segments of the template's jobs.
    pub(crate) cfg_seq: Arc<Vec<ConfigId>>,
    /// Per-node predecessor counts (indexed by node id): the initial
    /// dependency state copied into each activation's node records.
    pub(crate) pred_counts: Vec<u32>,
}

impl TemplateArtifacts {
    /// Runs the design-time phase for `graph`.
    pub(crate) fn compute(graph: &Arc<TaskGraph>) -> Arc<Self> {
        let rec_seq = reconfiguration_sequence(graph);
        let cfg_seq = rec_seq.iter().map(|&n| graph.config_of(n)).collect();
        let pred_counts = graph
            .node_ids()
            .map(|id| graph.preds(id).len() as u32)
            .collect();
        Arc::new(TemplateArtifacts {
            graph: Arc::clone(graph),
            rec_seq,
            cfg_seq: Arc::new(cfg_seq),
            pred_counts,
        })
    }
}

/// Run-time state of the current task graph. The node records and the
/// recovery queue are on loan from the engine's [`JobScratch`] pool:
/// they are moved in at activation and reclaimed at graph completion,
/// never reallocated.
#[derive(Debug)]
pub(crate) struct ActiveJob {
    pub(crate) idx: u32,
    /// Lane priority of the job's QoS class (cached from the spec: the
    /// preemption trigger compares it on every arrival).
    pub(crate) priority: u8,
    /// Design-time artifacts of the job's template (graph,
    /// reconfiguration sequence, configuration projection, predecessor
    /// counts).
    pub(crate) tpl: Arc<TemplateArtifacts>,
    /// Cursor into the template's `rec_seq`: next task to load.
    pub(crate) seq_pos: usize,
    /// One record per node, indexed by [`NodeId`].
    pub(crate) nodes: Vec<NodeRun>,
    /// Recovery queue of a resumed graph: nodes already past the
    /// sequence cursor whose placements were released at suspension, in
    /// reconfiguration-sequence order. Serviced by the demand path
    /// before the cursor advances.
    pub(crate) replaced: Vec<NodeId>,
    /// Nodes in [`Placement::Done`].
    pub(crate) done_count: usize,
    /// Run-time Skip Events counter — "initialized externally to this
    /// function each time a new task graph starts its execution"
    /// (Fig. 8).
    pub(crate) skipped_events: u32,
    pub(crate) mobility: Option<Arc<Vec<u32>>>,
    pub(crate) forced_delays: Option<Arc<Vec<u32>>>,
}

impl ActiveJob {
    pub(crate) fn new(
        idx: u32,
        spec: &JobSpec,
        tpl: &Arc<TemplateArtifacts>,
        scratch: &mut JobScratch,
    ) -> Self {
        let mut nodes = std::mem::take(&mut scratch.nodes);
        nodes.clear();
        nodes.extend(tpl.pred_counts.iter().map(|&pending_preds| NodeRun {
            pending_preds,
            place: Placement::Unplaced,
            resume_left: SimDuration::ZERO,
            forced_skips: 0,
        }));
        let mut replaced = std::mem::take(&mut scratch.replaced);
        replaced.clear();
        ActiveJob {
            idx,
            priority: spec.qos.priority,
            tpl: Arc::clone(tpl),
            seq_pos: 0,
            nodes,
            replaced,
            done_count: 0,
            skipped_events: 0,
            mobility: spec.mobility.clone(),
            forced_delays: spec.forced_delays.clone(),
        }
    }

    /// The job's task graph (shared with the template artifacts).
    pub(crate) fn graph(&self) -> &Arc<TaskGraph> {
        &self.tpl.graph
    }

    /// True when `node` holds its RU, is not executing yet and every
    /// predecessor has finished.
    pub(crate) fn ready(&self, node: NodeId) -> bool {
        let run = &self.nodes[node.idx()];
        matches!(run.place, Placement::Placed(_)) && run.pending_preds == 0
    }
}

/// The vectors loaned to the current [`ActiveJob`]. Graphs
/// execute strictly sequentially, so one set suffices; it grows to the
/// largest graph seen and is never shrunk.
#[derive(Debug, Default)]
pub(crate) struct JobScratch {
    nodes: Vec<NodeRun>,
    replaced: Vec<NodeId>,
}

impl JobScratch {
    /// Takes the vectors back from a completed job.
    pub(crate) fn reclaim(&mut self, job: ActiveJob) {
        self.nodes = job.nodes;
        self.replaced = job.replaced;
    }
}

/// The online queue: one FIFO of waiting jobs per priority level,
/// highest level first. Service order is the lanes walked in order, so
/// the next job is the head of the highest non-empty lane and ties keep
/// arrival order. [`Engine::submit`](crate::Engine::submit) opens a
/// job's lane, and lanes are never dropped: nothing walks more than
/// the number of levels.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    /// `(priority, waiting jobs in arrival order)`, by descending priority.
    lanes: Vec<(u8, VecDeque<usize>)>,
    /// Waiting jobs over every lane.
    len: usize,
}

impl Lanes {
    /// Creates the lane of `priority` if absent.
    pub(crate) fn open(&mut self, priority: u8) {
        let at = self.lanes.partition_point(|&(p, _)| p > priority);
        if self.lanes.get(at).is_none_or(|&(p, _)| p != priority) {
            self.lanes.insert(at, (priority, VecDeque::new()));
        }
    }

    /// Appends job `idx` to the tail of its lane, which
    /// [`open`](Lanes::open) created at submission.
    pub(crate) fn push(&mut self, priority: u8, idx: usize) {
        let lane = self.lanes.iter_mut().find(|(p, _)| *p == priority);
        lane.expect("submit opened the lane").1.push_back(idx);
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The next job in service order and its priority.
    pub(crate) fn best(&self) -> Option<(usize, u8)> {
        self.lanes
            .iter()
            .find_map(|(p, lane)| lane.front().map(|&i| (i, *p)))
    }

    /// Removes and returns the next job in service order.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let idx = self.lanes.iter_mut().find_map(|l| l.1.pop_front())?;
        self.len -= 1;
        Some(idx)
    }

    /// Every waiting job, in service order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes.iter().flat_map(|(_, lane)| lane.iter().copied())
    }

    /// The lane holding every waiting job, if exactly one lane is busy.
    pub(crate) fn fifo(&self) -> Option<&VecDeque<usize>> {
        let (_, lane) = self.lanes.iter().find(|(_, lane)| !lane.is_empty())?;
        (lane.len() == self.len).then_some(lane)
    }

    /// Gives every lane room for `jobs` waiting jobs.
    pub(crate) fn reserve(&mut self, jobs: usize) {
        for (_, lane) in &mut self.lanes {
            lane.reserve(jobs - lane.len());
        }
    }
}

/// The run's ledger: every per-run statistic, counted once. The event
/// handlers increment it and [`Engine::finish`](crate::Engine::finish)
/// turns it into [`RunStats`](crate::RunStats). The public stat
/// structs are embedded as they are; `finish` fills in the two values
/// that are not counts (`qos.class_sojourns`, `faults.degraded_time`).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) executed: u64,
    pub(crate) reuses: u64,
    /// Demand load starts (retries excluded).
    pub(crate) loads: u64,
    pub(crate) skips: u64,
    pub(crate) stalls: u64,
    /// Bitstreams written on the demand lane: every demand load start
    /// and every demand retry.
    pub(crate) demand_writes: u64,
    /// Bitstreams written on the speculative lane: every completed
    /// prefetch and every speculative transfer that completed corrupt.
    pub(crate) speculative_writes: u64,
    pub(crate) prefetch: PrefetchStats,
    pub(crate) qos: QosStats,
    pub(crate) faults: FaultStats,
}

/// The mutable heart of the engine, shared by the submodules.
pub(crate) struct ManagerState {
    pub(crate) cfg: ManagerConfig,
    pub(crate) pool: RuPool,
    pub(crate) controller: ReconfigController,
    pub(crate) queue: EventQueue<Event>,
    /// Per-job design-time artifacts, indexed like `jobs`; jobs of one
    /// template share one entry.
    pub(crate) job_templates: Vec<Arc<TemplateArtifacts>>,
    pub(crate) current: Option<ActiveJob>,
    /// Pool of the current job's node records (see [`JobScratch`]).
    pub(crate) scratch: JobScratch,
    /// Reusable buffer for the ready successors collected during an
    /// `EndOfExecution` event (fires once per executed task).
    pub(crate) exec_ready: Vec<NodeId>,
    /// Reusable buffer for the legal eviction victims of one decision.
    pub(crate) candidates: Vec<VictimCandidate>,
    /// Online queue: the jobs that have arrived but not yet been
    /// activated, one FIFO per priority level. This is what the
    /// replacement module's Dynamic List is built from.
    pub(crate) arrived: Lanes,
    /// The incremental next-occurrence index over the first
    /// `index_bound` jobs of the service order (the current graph, the
    /// suspended stack top to bottom, then the lanes) — every job a
    /// decision window can reach — shared across consecutive
    /// replacement decisions instead of a per-decision stream rebuild.
    pub(crate) reuse_index: ReuseIndex,
    /// Most jobs the reuse index holds: the current graph plus the `w`
    /// graphs the lookahead can expose (`usize::MAX` under
    /// [`Lookahead::All`](crate::Lookahead::All)).
    pub(crate) index_bound: usize,
    /// The pending `NewTaskGraph` activation, if any. At most one can
    /// exist (graphs execute sequentially), so it lives in a slot the
    /// run loop merges at `PRIO_NEW_TASK_GRAPH` instead of paying
    /// queue traffic once per job; the slot also prevents
    /// double-activation when several jobs arrive at the same instant.
    pub(crate) pending_activation: Option<SimTime>,
    pub(crate) completed_jobs: usize,
    pub(crate) trace: Trace,
    pub(crate) counters: Counters,
    /// Per-RU flag: the resident configuration arrived via a completed
    /// prefetch and has not been claimed since — consulted to attribute
    /// hits and waste.
    pub(crate) prefetched: Vec<bool>,
    /// Pooled scratch for the planner's next-k-configs query.
    pub(crate) prefetch_scratch: Vec<ConfigId>,
    /// Arrival instant of each graph, in completion order (paired
    /// positionally with `graph_completions` — both are pushed together
    /// at `GraphEnd`, so the pairing survives out-of-order activation
    /// under QoS lanes and preemption).
    pub(crate) graph_arrivals: Vec<SimTime>,
    pub(crate) graph_completions: Vec<SimTime>,
    pub(crate) makespan_end: SimTime,
    /// LIFO stack of preempted graphs (priority increases toward the
    /// top). A suspended graph resumes at an activation instant when
    /// no waiting arrival outranks it.
    pub(crate) suspended: Vec<ActiveJob>,
    /// Per-RU generation counter for `EndOfExecution` events. Revoking
    /// an in-flight execution bumps the RU's token, orphaning the
    /// already-scheduled completion event (dropped on pop). All zero —
    /// and never consulted — with preemption off.
    pub(crate) exec_token: Vec<u64>,
    /// A preemption was requested while a demand load was in flight;
    /// executed (after re-checking the trigger) when that load lands.
    pub(crate) pending_preempt: bool,
    /// One `(priority, sojourn, lateness)` record per completed graph,
    /// in completion order — folded into per-class stats at `finish`.
    pub(crate) qos_records: Vec<(u8, SimDuration, SimDuration)>,
    /// Fault-injection runtime (see [`faults`]). Never consulted — and
    /// its draw stream never advanced — unless the run's
    /// [`FaultPlan`](crate::FaultPlan) is active.
    pub(crate) faults: faults::FaultRuntime,
}

impl ManagerState {
    /// Records a trace event. Takes a closure so disabled-trace runs
    /// (every large sweep) never even construct the event — this sits
    /// on paths that fire once per task.
    pub(crate) fn record(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if self.cfg.record_trace {
            self.trace.push(ev());
        }
    }

    /// True when the demand path may use (or take over) the port: it is
    /// idle, or the in-flight operation is a cancellable speculative
    /// load. With prefetch disabled this is exactly
    /// [`ReconfigController::is_idle`].
    pub(crate) fn demand_port_free(&self) -> bool {
        self.controller
            .in_flight()
            .is_none_or(|op| op.lane == LoadLane::Speculative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    #[test]
    fn artifacts_match_direct_computation() {
        let g = Arc::new(benchmarks::jpeg());
        let tpl = TemplateArtifacts::compute(&g);
        assert_eq!(tpl.rec_seq, reconfiguration_sequence(&g));
        let cfgs: Vec<ConfigId> = tpl.rec_seq.iter().map(|&n| g.config_of(n)).collect();
        assert_eq!(*tpl.cfg_seq, cfgs);
        for id in g.node_ids() {
            assert_eq!(tpl.pred_counts[id.idx()], g.preds(id).len() as u32);
        }
    }
}
