//! Schedule traces.
//!
//! Every simulation can record the complete schedule as a sequence of
//! [`TraceEvent`]s. Traces serve three purposes: the golden tests
//! compare them against the paper's figures, the
//! [`validate`](crate::validate) pass checks system invariants on them
//! (used heavily by property tests), and they render as ASCII Gantt
//! charts in the example binaries.

use rtr_hw::RuId;
use rtr_sim::gantt::GanttChart;
use rtr_sim::SimTime;
use rtr_taskgraph::{ConfigId, NodeId};
use serde::{Deserialize, Serialize};

/// Which hardware fault class a [`TraceEvent::FaultInject`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A demand or speculative reconfiguration completed corrupt
    /// (failed its integrity check) and enters the retry/backoff path.
    TransientLoad,
    /// An SEU silently invalidated a resident, unclaimed bitstream; it
    /// stops counting as reusable until the RU is rewritten.
    Upset,
    /// A reconfigurable unit hard-faulted and is quarantined out of
    /// the pool.
    RuHard,
}

impl FaultKind {
    /// Stable label (checker reports, coverage CSV).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::TransientLoad => "transient-load",
            FaultKind::Upset => "upset",
            FaultKind::RuHard => "ru-hard",
        }
    }
}

/// One schedule event. `job` is the index of the application instance
/// in the submitted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Task graph `job` entered the manager's online queue.
    JobArrival {
        /// Application index.
        job: u32,
        /// Event time.
        at: SimTime,
    },
    /// Task graph `job` became the current graph.
    GraphStart {
        /// Application index.
        job: u32,
        /// Event time.
        at: SimTime,
    },
    /// Task graph `job` finished all executions.
    GraphEnd {
        /// Application index.
        job: u32,
        /// Event time.
        at: SimTime,
    },
    /// A reconfiguration started (evicting whatever was resident).
    LoadStart {
        /// Application index.
        job: u32,
        /// Node within the graph.
        node: NodeId,
        /// Configuration being written.
        config: ConfigId,
        /// Destination RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A reconfiguration completed.
    LoadEnd {
        /// Application index.
        job: u32,
        /// Node within the graph.
        node: NodeId,
        /// Configuration written.
        config: ConfigId,
        /// Destination RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A resident configuration was claimed without reconfiguration.
    Reuse {
        /// Application index.
        job: u32,
        /// Node within the graph.
        node: NodeId,
        /// Reused configuration.
        config: ConfigId,
        /// RU holding it.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A task started executing.
    ExecStart {
        /// Application index.
        job: u32,
        /// Node within the graph.
        node: NodeId,
        /// Its configuration.
        config: ConfigId,
        /// RU executing it.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A task finished executing.
    ExecEnd {
        /// Application index.
        job: u32,
        /// Node within the graph.
        node: NodeId,
        /// Its configuration.
        config: ConfigId,
        /// RU that executed it.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// The replacement module delayed a reconfiguration to the next
    /// event (`forced` marks design-time mobility probes rather than
    /// run-time Skip Events).
    Skip {
        /// Application index.
        job: u32,
        /// Node whose load was delayed.
        node: NodeId,
        /// Whether this was a forced (mobility-calculation) delay.
        forced: bool,
        /// Event time.
        at: SimTime,
    },
    /// A load attempt found no eviction candidate and will retry at the
    /// next event.
    Stall {
        /// Application index.
        job: u32,
        /// Node whose load is waiting.
        node: NodeId,
        /// Event time.
        at: SimTime,
    },
    /// A speculative (prefetch) reconfiguration started on the idle
    /// port. Speculative loads belong to a *configuration*, not a
    /// placed task — the demand path later claims the resident
    /// configuration through the ordinary reuse path.
    PrefetchStart {
        /// Configuration being written ahead of demand.
        config: ConfigId,
        /// Destination RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A speculative reconfiguration completed; the configuration is
    /// resident and unclaimed (a reuse / eviction candidate).
    PrefetchEnd {
        /// Configuration written.
        config: ConfigId,
        /// Destination RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// An in-flight speculative reconfiguration was aborted because a
    /// demand load needed the port; the target RU is empty again.
    PrefetchCancel {
        /// Configuration whose write was aborted.
        config: ConfigId,
        /// The RU whose partial write was discarded.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A strictly-higher-priority arrival suspended the running graph
    /// (`PreemptionMode::{Kill, Checkpoint}`). Per-node consequences
    /// follow as [`TraceEvent::NodeKilled`] /
    /// [`TraceEvent::NodeCheckpointed`] events at the same instant.
    Preempt {
        /// The suspended (running) graph.
        victim: u32,
        /// The arriving graph that takes over.
        preemptor: u32,
        /// Event time.
        at: SimTime,
    },
    /// An in-flight task was killed by a preemption: the work done so
    /// far is lost and the node replays from scratch when its graph
    /// resumes.
    NodeKilled {
        /// Application index of the suspended graph.
        job: u32,
        /// The killed node.
        node: NodeId,
        /// The RU it was executing on.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// An in-flight task was checkpointed by a preemption: its
    /// remaining execution time is preserved and resumed later (plus a
    /// restore penalty of one reconfiguration latency).
    NodeCheckpointed {
        /// Application index of the suspended graph.
        job: u32,
        /// The checkpointed node.
        node: NodeId,
        /// The RU it was executing on.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A previously suspended graph became the current graph again.
    GraphResume {
        /// Application index.
        job: u32,
        /// Event time.
        at: SimTime,
    },
    /// The fault plan injected a hardware fault.
    FaultInject {
        /// Fault class.
        kind: FaultKind,
        /// Affected RU.
        ru: RuId,
        /// Affected configuration, when one was involved (the corrupt
        /// load target, the upset resident, or the hard-faulted unit's
        /// resident; `None` for a hard fault on an empty unit).
        config: Option<ConfigId>,
        /// Event time.
        at: SimTime,
    },
    /// A corrupt reconfiguration is being retried after exponential
    /// backoff; the rewrite occupies the port over
    /// `[until - latency, until]`.
    FaultRetry {
        /// RU being rewritten.
        ru: RuId,
        /// Configuration being rewritten.
        config: ConfigId,
        /// Retry attempt number (1-based).
        attempt: u8,
        /// When the retried write completes.
        until: SimTime,
        /// Event time.
        at: SimTime,
    },
    /// A corrupt reconfiguration exhausted its retry budget; the load
    /// is abandoned and the unit condemned (a [`TraceEvent::RuQuarantine`]
    /// follows at the same instant).
    FaultGiveUp {
        /// RU whose load was abandoned.
        ru: RuId,
        /// Configuration that failed to load.
        config: ConfigId,
        /// Total attempts made (initial load + retries).
        attempts: u8,
        /// Event time.
        at: SimTime,
    },
    /// An RU left the pool (hard fault or retry exhaustion); no
    /// placement, claim, or prefetch may target it until it heals.
    RuQuarantine {
        /// Quarantined RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
    /// A quarantined RU finished its repair and rejoined the pool
    /// empty.
    RuHeal {
        /// Healed RU.
        ru: RuId,
        /// Event time.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The event kind as a stable label (checker reports, fault
    /// descriptions).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::JobArrival { .. } => "JobArrival",
            TraceEvent::GraphStart { .. } => "GraphStart",
            TraceEvent::GraphEnd { .. } => "GraphEnd",
            TraceEvent::LoadStart { .. } => "LoadStart",
            TraceEvent::LoadEnd { .. } => "LoadEnd",
            TraceEvent::Reuse { .. } => "Reuse",
            TraceEvent::ExecStart { .. } => "ExecStart",
            TraceEvent::ExecEnd { .. } => "ExecEnd",
            TraceEvent::Skip { .. } => "Skip",
            TraceEvent::Stall { .. } => "Stall",
            TraceEvent::PrefetchStart { .. } => "PrefetchStart",
            TraceEvent::PrefetchEnd { .. } => "PrefetchEnd",
            TraceEvent::PrefetchCancel { .. } => "PrefetchCancel",
            TraceEvent::Preempt { .. } => "Preempt",
            TraceEvent::NodeKilled { .. } => "NodeKilled",
            TraceEvent::NodeCheckpointed { .. } => "NodeCheckpointed",
            TraceEvent::GraphResume { .. } => "GraphResume",
            TraceEvent::FaultInject { .. } => "FaultInject",
            TraceEvent::FaultRetry { .. } => "FaultRetry",
            TraceEvent::FaultGiveUp { .. } => "FaultGiveUp",
            TraceEvent::RuQuarantine { .. } => "RuQuarantine",
            TraceEvent::RuHeal { .. } => "RuHeal",
        }
    }

    /// Event timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::JobArrival { at, .. }
            | TraceEvent::GraphStart { at, .. }
            | TraceEvent::GraphEnd { at, .. }
            | TraceEvent::LoadStart { at, .. }
            | TraceEvent::LoadEnd { at, .. }
            | TraceEvent::Reuse { at, .. }
            | TraceEvent::ExecStart { at, .. }
            | TraceEvent::ExecEnd { at, .. }
            | TraceEvent::Skip { at, .. }
            | TraceEvent::Stall { at, .. }
            | TraceEvent::PrefetchStart { at, .. }
            | TraceEvent::PrefetchEnd { at, .. }
            | TraceEvent::PrefetchCancel { at, .. }
            | TraceEvent::Preempt { at, .. }
            | TraceEvent::NodeKilled { at, .. }
            | TraceEvent::NodeCheckpointed { at, .. }
            | TraceEvent::GraphResume { at, .. }
            | TraceEvent::FaultInject { at, .. }
            | TraceEvent::FaultRetry { at, .. }
            | TraceEvent::FaultGiveUp { at, .. }
            | TraceEvent::RuQuarantine { at, .. }
            | TraceEvent::RuHeal { at, .. } => at,
        }
    }
}

/// Event-kind totals of one trace, including the hit/waste attribution
/// of speculative loads (a completed prefetch later claimed by the
/// demand path is a *hit*; one overwritten before any claim is
/// *wasted*). The single source of truth the `ledger` checker
/// compares [`RunStats`] counters against.
///
/// [`RunStats`]: crate::stats::RunStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Demand reconfigurations started.
    pub loads: u64,
    /// Resident configurations claimed without reconfiguration.
    pub reuses: u64,
    /// Task executions completed.
    pub executed: u64,
    /// Reconfigurations delayed by Skip Events (forced or run-time).
    pub skips: u64,
    /// Load attempts that found no eviction candidate and retried.
    pub stalls: u64,
    /// Speculative loads started on the idle port.
    pub prefetch_issued: u64,
    /// Speculative loads that ran to completion.
    pub prefetch_completed: u64,
    /// Speculative loads aborted by a demand load.
    pub prefetch_cancelled: u64,
    /// Prefetched configurations later claimed by the demand path.
    pub prefetch_hits: u64,
    /// Prefetched configurations evicted before any use.
    pub prefetch_wasted: u64,
    /// Graph suspensions by a higher-priority arrival.
    pub preemptions: u64,
    /// In-flight tasks checkpointed at a preemption instant.
    pub checkpoints: u64,
    /// In-flight tasks killed at a preemption instant (each replays
    /// from scratch when its graph resumes).
    pub killed_nodes: u64,
    /// Suspended graphs that became current again.
    pub resumes: u64,
    /// Faults injected, all classes.
    pub fault_injected: u64,
    /// Transient load-corruption faults injected.
    pub fault_transients: u64,
    /// Resident-config upsets injected.
    pub fault_upsets: u64,
    /// RU hard faults injected.
    pub fault_ru: u64,
    /// Backoff retries of corrupt loads.
    pub fault_retries: u64,
    /// Corrupt loads abandoned after exhausting the retry budget.
    pub fault_giveups: u64,
    /// Upset residents repaired by a later rewrite of the same RU.
    pub fault_repairs: u64,
    /// RUs quarantined out of the pool.
    pub ru_quarantines: u64,
    /// Quarantined RUs that healed back into the pool.
    pub ru_heals: u64,
}

/// An ordered schedule trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in emission (and hence time) order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Appends an event (the manager guarantees time ordering).
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= ev.at()),
            "trace events must be time-ordered"
        );
        self.events.push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every recorded event, in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Tallies event kinds in one walk, attributing prefetch hits and
    /// waste: a resident written by [`TraceEvent::PrefetchEnd`] stays
    /// "speculative" until it is claimed by a [`TraceEvent::Reuse`]
    /// (hit) or overwritten by any later load on the same RU (wasted).
    pub fn counts(&self) -> TraceCounts {
        let mut c = TraceCounts::default();
        let mut speculative: std::collections::HashSet<u16> = std::collections::HashSet::new();
        let mut corrupt: std::collections::HashSet<u16> = std::collections::HashSet::new();
        for ev in &self.events {
            match *ev {
                TraceEvent::LoadStart { ru, .. } => {
                    c.loads += 1;
                    if speculative.remove(&ru.0) {
                        c.prefetch_wasted += 1;
                    }
                    if corrupt.remove(&ru.0) {
                        c.fault_repairs += 1;
                    }
                }
                TraceEvent::Reuse { ru, .. } => {
                    c.reuses += 1;
                    if speculative.remove(&ru.0) {
                        c.prefetch_hits += 1;
                    }
                }
                TraceEvent::ExecEnd { .. } => c.executed += 1,
                TraceEvent::Skip { .. } => c.skips += 1,
                TraceEvent::Stall { .. } => c.stalls += 1,
                TraceEvent::PrefetchStart { ru, .. } => {
                    c.prefetch_issued += 1;
                    if speculative.remove(&ru.0) {
                        c.prefetch_wasted += 1;
                    }
                    if corrupt.remove(&ru.0) {
                        c.fault_repairs += 1;
                    }
                }
                TraceEvent::PrefetchEnd { ru, .. } => {
                    c.prefetch_completed += 1;
                    speculative.insert(ru.0);
                }
                TraceEvent::PrefetchCancel { .. } => c.prefetch_cancelled += 1,
                TraceEvent::Preempt { .. } => c.preemptions += 1,
                TraceEvent::NodeCheckpointed { .. } => c.checkpoints += 1,
                TraceEvent::NodeKilled { .. } => c.killed_nodes += 1,
                TraceEvent::GraphResume { .. } => c.resumes += 1,
                TraceEvent::FaultInject { kind, ru, .. } => {
                    c.fault_injected += 1;
                    match kind {
                        FaultKind::TransientLoad => c.fault_transients += 1,
                        FaultKind::Upset => {
                            c.fault_upsets += 1;
                            // An upset resident that was prefetched and
                            // never claimed can no longer become a hit;
                            // the engine writes it off as wasted at the
                            // upset instant.
                            if speculative.remove(&ru.0) {
                                c.prefetch_wasted += 1;
                            }
                            corrupt.insert(ru.0);
                        }
                        FaultKind::RuHard => c.fault_ru += 1,
                    }
                }
                TraceEvent::FaultRetry { .. } => c.fault_retries += 1,
                TraceEvent::FaultGiveUp { .. } => c.fault_giveups += 1,
                TraceEvent::RuQuarantine { ru, .. } => {
                    c.ru_quarantines += 1;
                    // Quarantine discards whatever was resident: an
                    // unclaimed prefetch is wasted, a pending upset is
                    // wiped without counting as repaired.
                    if speculative.remove(&ru.0) {
                        c.prefetch_wasted += 1;
                    }
                    corrupt.remove(&ru.0);
                }
                TraceEvent::RuHeal { .. } => c.ru_heals += 1,
                _ => {}
            }
        }
        c
    }

    /// Renders the per-RU schedule as an ASCII Gantt chart:
    /// `%` = demand reconfiguration, `s` = speculative reconfiguration
    /// (prefetch; cancelled writes paint up to the abort), `#` =
    /// execution (labelled with the node name's last char in future
    /// extensions), `.` = idle.
    pub fn to_gantt(&self, rus: usize) -> GanttChart {
        let mut chart = GanttChart::per_ms();
        for i in 0..rus {
            chart.add_row(format!("RU{}", i + 1));
        }
        // Pair up start/end events per RU.
        let mut load_start: Vec<Option<SimTime>> = vec![None; rus];
        let mut exec_start: Vec<Option<SimTime>> = vec![None; rus];
        let mut exec_cfg: Vec<u32> = vec![0; rus];
        for ev in &self.events {
            match *ev {
                TraceEvent::LoadStart { ru, at, .. } | TraceEvent::PrefetchStart { ru, at, .. } => {
                    load_start[ru.idx()] = Some(at)
                }
                TraceEvent::LoadEnd { ru, at, .. } => {
                    if let Some(s) = load_start[ru.idx()].take() {
                        chart.paint(ru.idx(), s, at, '%');
                    }
                }
                TraceEvent::PrefetchEnd { ru, at, .. }
                | TraceEvent::PrefetchCancel { ru, at, .. } => {
                    if let Some(s) = load_start[ru.idx()].take() {
                        chart.paint(ru.idx(), s, at, 's');
                    }
                }
                TraceEvent::ExecStart { ru, at, config, .. } => {
                    exec_start[ru.idx()] = Some(at);
                    exec_cfg[ru.idx()] = config.0;
                }
                TraceEvent::ExecEnd { ru, at, .. } => {
                    if let Some(s) = exec_start[ru.idx()].take() {
                        let glyph = char::from_digit(exec_cfg[ru.idx()] % 36, 36).unwrap_or('#');
                        chart.paint(ru.idx(), s, at, glyph);
                    }
                }
                // Revoked executions paint the partial run up to the
                // preemption instant.
                TraceEvent::NodeKilled { ru, at, .. }
                | TraceEvent::NodeCheckpointed { ru, at, .. } => {
                    if let Some(s) = exec_start[ru.idx()].take() {
                        let glyph = char::from_digit(exec_cfg[ru.idx()] % 36, 36).unwrap_or('#');
                        chart.paint(ru.idx(), s, at, glyph);
                    }
                }
                _ => {}
            }
        }
        chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn push_keeps_order_and_counts() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::GraphStart { job: 0, at: t(0) });
        tr.push(TraceEvent::Reuse {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru: RuId(0),
            at: t(0),
        });
        tr.push(TraceEvent::GraphEnd { job: 0, at: t(5) });
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.counts().reuses, 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::GraphStart { job: 0, at: t(5) });
        tr.push(TraceEvent::GraphEnd { job: 0, at: t(1) });
    }

    #[test]
    fn gantt_paints_loads_and_execs() {
        let mut tr = Trace::default();
        let ru = RuId(0);
        tr.push(TraceEvent::LoadStart {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru,
            at: t(0),
        });
        tr.push(TraceEvent::LoadEnd {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru,
            at: t(4),
        });
        tr.push(TraceEvent::ExecStart {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru,
            at: t(4),
        });
        tr.push(TraceEvent::ExecEnd {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru,
            at: t(9),
        });
        let s = tr.to_gantt(1).render();
        assert!(s.contains("%%%%11111"), "{s}");
    }

    #[test]
    fn counts_attribute_prefetch_hits_and_waste() {
        let ru = RuId(0);
        let mut tr = Trace::default();
        // A completed prefetch claimed by the demand path: a hit.
        tr.push(TraceEvent::PrefetchStart {
            config: ConfigId(1),
            ru,
            at: t(0),
        });
        tr.push(TraceEvent::PrefetchEnd {
            config: ConfigId(1),
            ru,
            at: t(4),
        });
        tr.push(TraceEvent::Reuse {
            job: 0,
            node: NodeId(0),
            config: ConfigId(1),
            ru,
            at: t(4),
        });
        // A completed prefetch overwritten before any claim: wasted.
        tr.push(TraceEvent::PrefetchStart {
            config: ConfigId(2),
            ru,
            at: t(10),
        });
        tr.push(TraceEvent::PrefetchEnd {
            config: ConfigId(2),
            ru,
            at: t(14),
        });
        tr.push(TraceEvent::LoadStart {
            job: 0,
            node: NodeId(1),
            config: ConfigId(3),
            ru,
            at: t(14),
        });
        let c = tr.counts();
        assert_eq!(c.prefetch_issued, 2);
        assert_eq!(c.prefetch_completed, 2);
        assert_eq!(c.prefetch_hits, 1);
        assert_eq!(c.prefetch_wasted, 1);
        assert_eq!(c.loads, 1);
        assert_eq!(c.reuses, 1);
        assert_eq!(tr.events[0].kind_name(), "PrefetchStart");
    }

    #[test]
    fn serde_round_trip() {
        let mut tr = Trace::default();
        tr.push(TraceEvent::Skip {
            job: 2,
            node: NodeId(3),
            forced: true,
            at: t(7),
        });
        let json = serde_json::to_string(&tr).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tr);
    }
}
