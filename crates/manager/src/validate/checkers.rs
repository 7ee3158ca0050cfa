//! The standard invariant checkers.
//!
//! Each checker walks the trace with its own small local state so it
//! can be enabled, disabled and counted independently; the shared
//! bookkeeping (resident map, current-graph cursor) is cheap enough
//! that a handful of checkers carrying private copies beats one
//! monolithic pass with entangled assertions. The assertion *logic* is
//! single-sited: every invariant lives in exactly one checker, and the
//! test suites and the `vopr` fuzz campaigns all call the same
//! registry.

use super::{CheckContext, CheckOutput, Checker};
use crate::job::JobSpec;
use crate::trace::{FaultKind, TraceEvent};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{reconfiguration_sequence, ConfigId, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Every checker this crate defines, in canonical order.
pub fn standard_checkers() -> Vec<Box<dyn Checker>> {
    vec![
        Box::new(ArrivalOrder),
        Box::new(PortLanes),
        Box::new(RuIntervals),
        Box::new(TaskLifecycle),
        Box::new(Precedence),
        Box::new(ReuseResidency),
        Box::new(PrefetchGuard),
        Box::new(Ledger),
        Box::new(PrefetchOffInvisible),
        Box::new(NoLostWork),
        Box::new(PreemptionOrder),
        Box::new(FaultRetryBounded),
        Box::new(QuarantineIsolation),
        Box::new(CorruptNeverReused),
        Box::new(PooledIdentity),
        Box::new(TenantIsolation),
        Box::new(PlacementResidency),
        Box::new(FleetAccounting),
    ]
}

/// True when the trace records any fault-subsystem event. The
/// recovery-lane re-queues reorder the demand request stream, so the
/// linear-stream checkers (`prefetch-guard`) relax on fault runs — the
/// fault checkers own the tightened assertions there.
fn faults_active(cx: &CheckContext<'_>) -> bool {
    cx.trace.iter().any(|e| {
        matches!(
            e,
            TraceEvent::FaultInject { .. }
                | TraceEvent::FaultRetry { .. }
                | TraceEvent::FaultGiveUp { .. }
                | TraceEvent::RuQuarantine { .. }
                | TraceEvent::RuHeal { .. }
        )
    })
}

/// True when the trace or the workload leaves the strict-FIFO regime:
/// priority lanes reorder activations and preemptions interleave
/// graphs, so the order-sensitive checkers relax (their QoS-aware
/// counterparts take over the tightened assertions).
fn qos_active(cx: &CheckContext<'_>) -> bool {
    cx.jobs.iter().any(|j| j.qos.priority != 0) || cx.trace.counts().preemptions > 0
}

/// Activation order: arrival time, ties broken by submission index
/// (the engine's online queue is FIFO per instant).
fn activation_order(jobs: &[JobSpec]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    order.sort_by_key(|&i| (jobs[i as usize].arrival, i));
    order
}

/// Per-job design-time configuration sequences (the order placements
/// follow).
fn config_sequences(jobs: &[JobSpec]) -> Vec<Vec<ConfigId>> {
    jobs.iter()
        .map(|j| {
            reconfiguration_sequence(&j.graph)
                .into_iter()
                .map(|n| j.graph.config_of(n))
                .collect()
        })
        .collect()
}

/// Graph executions are sequential, never before the job's arrival,
/// and every started graph ends. Activations follow the lane rule,
/// derived from the job specs alone. The *best waiter* is the arrived,
/// not yet started job of highest priority, ties broken by (arrival,
/// index). Every `GraphStart` starts the best waiter and strictly
/// outranks the top of a non-empty suspended stack; every `Preempt`
/// names the best waiter as its preemptor; a `GraphResume` happens only
/// when no waiter outranks the top of the stack. With one priority
/// level the rule is arrival order.
struct ArrivalOrder;

impl Checker for ArrivalOrder {
    fn name(&self) -> &'static str {
        "arrival-order"
    }
    fn description(&self) -> &'static str {
        "graphs activate sequentially in priority-lane order and all complete"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        let prio = |j: u32| jobs.get(j as usize).map(|s| s.qos.priority);
        // A job's service rank: the best waiter has the smallest key.
        let key = |j: u32| Some((Reverse(prio(j)?), jobs[j as usize].arrival, j));
        let mut waiting: BTreeSet<(Reverse<u8>, SimTime, u32)> = BTreeSet::new();
        let mut suspended: Vec<u32> = Vec::new();
        let mut graph_started: Vec<u32> = Vec::new();
        let mut last_ended: Option<(u32, SimTime)> = None;
        let mut ended = 0usize;
        let mut current_graph: Option<u32> = None;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::JobArrival { job, at } => {
                    out.probe(
                        jobs.get(job as usize).map(|j| j.arrival) == Some(at),
                        || {
                            format!(
                                "job {job} arrived at {at}, but its spec says {:?}",
                                jobs.get(job as usize).map(|j| j.arrival)
                            )
                        },
                    );
                    waiting.extend(key(job));
                }
                TraceEvent::GraphStart { job, at } => {
                    out.probe(current_graph.is_none(), || {
                        format!(
                            "graph {job} started at {at} while graph {current_graph:?} is active"
                        )
                    });
                    if let Some((prev, prev_end)) = last_ended {
                        out.probe(at >= prev_end, || {
                            format!(
                                "graph {job} started at {at} before graph {prev} ended at {prev_end}"
                            )
                        });
                    }
                    out.probe(
                        jobs.get(job as usize).is_none_or(|j| at >= j.arrival),
                        || {
                            format!(
                                "graph {job} started at {at} before its arrival at {:?}",
                                jobs.get(job as usize).map(|j| j.arrival)
                            )
                        },
                    );
                    let best = waiting.first().map(|k| k.2);
                    out.probe(best == Some(job), || {
                        format!("graph {job} started at {at}, but the best waiter is {best:?}")
                    });
                    if let Some(k) = key(job) {
                        waiting.remove(&k);
                    }
                    if let Some(&top) = suspended.last() {
                        out.probe(prio(job) > prio(top), || {
                            format!(
                                "graph {job} started at {at} without outranking suspended \
                                 graph {top}"
                            )
                        });
                    }
                    graph_started.push(job);
                    current_graph = Some(job);
                }
                TraceEvent::Preempt {
                    victim,
                    preemptor,
                    at,
                } => {
                    out.probe(current_graph == Some(victim), || {
                        format!("graph {victim} preempted at {at} but is not current")
                    });
                    let best = waiting.first().map(|k| k.2);
                    out.probe(best == Some(preemptor), || {
                        format!(
                            "graph {victim} preempted at {at} by {preemptor}, but the best \
                             waiter is {best:?}"
                        )
                    });
                    suspended.push(victim);
                    current_graph = None;
                }
                TraceEvent::GraphResume { job, at } => {
                    out.probe(current_graph.is_none(), || {
                        format!(
                            "graph {job} resumed at {at} while graph {current_graph:?} is active"
                        )
                    });
                    out.probe(graph_started.contains(&job), || {
                        format!("graph {job} resumed at {at} but never started")
                    });
                    let top = suspended.pop().and_then(prio);
                    let best = waiting.first().map(|k| k.0 .0);
                    out.probe(best.is_none_or(|p| top.is_some_and(|t| t >= p)), || {
                        format!(
                            "graph {job} resumed at {at} while a waiter of priority {best:?} \
                             outranks the suspended top ({top:?})"
                        )
                    });
                    current_graph = Some(job);
                }
                TraceEvent::GraphEnd { job, at } => {
                    out.probe(current_graph == Some(job), || {
                        format!("graph {job} ended at {at} but is not current")
                    });
                    current_graph = None;
                    last_ended = Some((job, at));
                    ended += 1;
                }
                _ => {}
            }
        }
        out.probe(ended == graph_started.len(), || {
            format!("{} graphs started but {ended} ended", graph_started.len())
        });
    }
}

/// Demand and speculative reconfigurations are serialised on the
/// single port: loads and completed prefetches take exactly the
/// device latency, a cancelled prefetch aborts inside its write
/// interval, and a demand load never starts while a speculative one
/// is still in flight.
struct PortLanes;

impl Checker for PortLanes {
    fn name(&self) -> &'static str {
        "port-lanes"
    }
    fn description(&self) -> &'static str {
        "single reconfiguration port serialised across demand and speculative lanes"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let latency = cx.latency;
        let mut port_busy_until: Option<(SimTime, u32)> = None;
        // The single in-flight speculative load
        // `(config, write-window end, ru, retried)` — a backoff retry
        // moves the window end forward.
        let mut pending_prefetch: Option<(ConfigId, SimTime, u16, bool)> = None;
        // Per-RU in-flight demand load `(config, window end, job, node)`.
        let mut pending_load: HashMap<u16, (ConfigId, SimTime, u32, u32)> = HashMap::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::LoadStart {
                    job,
                    node,
                    config,
                    ru,
                    at,
                } => {
                    if let Some((busy_until, j)) = port_busy_until {
                        out.probe(at >= busy_until, || {
                            format!(
                                "load at {at} overlaps in-flight reconfiguration of job {j} \
                                 (busy until {busy_until})"
                            )
                        });
                    }
                    out.probe(pending_prefetch.is_none(), || {
                        format!(
                            "demand load at {at} started while a speculative load of \
                             {pending_prefetch:?} was still in flight (it must be cancelled first)"
                        )
                    });
                    port_busy_until = Some((at + latency, job));
                    pending_load.insert(ru.0, (config, at + latency, job, node.0));
                }
                TraceEvent::LoadEnd {
                    job,
                    node,
                    config,
                    ru,
                    at,
                } => match pending_load.remove(&ru.0) {
                    Some((c, ends, j, n)) => {
                        out.probe(c == config && j == job && n == node.0, || {
                            format!("load end at {at} on {ru} does not match its start")
                        });
                        out.probe(at == ends, || {
                            format!(
                                "load of {config} on {ru} completed at {at}, but its \
                                 write window ends at {ends}"
                            )
                        });
                    }
                    None => out.fail(format!("load end at {at} on {ru} without a start")),
                },
                TraceEvent::PrefetchStart { config, ru, at } => {
                    if let Some((busy_until, j)) = port_busy_until {
                        out.probe(at >= busy_until, || {
                            format!(
                                "speculative load at {at} overlaps job {j}'s demand \
                                 reconfiguration (busy until {busy_until})"
                            )
                        });
                    }
                    out.probe(pending_prefetch.is_none(), || {
                        format!("speculative load at {at} while another one is in flight")
                    });
                    pending_prefetch = Some((config, at + latency, ru.0, false));
                }
                TraceEvent::PrefetchEnd { config, ru, at } => match pending_prefetch.take() {
                    Some((c, ends, r, _)) => {
                        out.probe(c == config && r == ru.0, || {
                            format!("speculative load end at {at} on {ru} does not match its start")
                        });
                        out.probe(at == ends, || {
                            format!(
                                "speculative load of {config} on {ru} completed at {at}, \
                                 but its write window ends at {ends}"
                            )
                        });
                    }
                    None => out.fail(format!(
                        "speculative load end at {at} on {ru} without a start"
                    )),
                },
                TraceEvent::PrefetchCancel { config, ru, at } => match pending_prefetch.take() {
                    Some((c, ends, r, retried)) => {
                        out.probe(c == config && r == ru.0, || {
                            format!(
                                "speculative cancel at {at} on {ru} does not match \
                                 the in-flight load"
                            )
                        });
                        if retried {
                            // A retried speculative load may be cancelled
                            // any time up to its rewrite completion — the
                            // backoff wait before the window is free.
                            out.probe(at <= ends, || {
                                format!(
                                    "speculative retry of {config} cancelled at {at}, \
                                     after its rewrite window ended at {ends}"
                                )
                            });
                        } else {
                            out.probe(at <= ends && ends.saturating_since(at) <= latency, || {
                                format!(
                                    "speculative load of {config} cancelled at {at}, \
                                     outside its write interval (ends {ends})"
                                )
                            });
                        }
                    }
                    None => out.fail(format!(
                        "speculative cancel at {at} on {ru} with nothing in flight"
                    )),
                },
                TraceEvent::FaultRetry {
                    ru,
                    config,
                    until,
                    at,
                    ..
                } => {
                    // The retry re-arms the port: the rewrite occupies
                    // `[until - latency, until]`, moving the pending
                    // operation's window.
                    match pending_prefetch.as_mut() {
                        Some((c, ends, r, retried)) if *r == ru.0 => {
                            out.probe(*c == config, || {
                                format!(
                                    "fault retry at {at} rewrites {config} but the \
                                     in-flight speculative load is of a different \
                                     configuration"
                                )
                            });
                            *ends = until;
                            *retried = true;
                        }
                        _ => match pending_load.get_mut(&ru.0) {
                            Some((c, ends, j, _)) => {
                                out.probe(*c == config, || {
                                    format!(
                                        "fault retry at {at} rewrites {config} but the \
                                         in-flight demand load on {ru} is of a different \
                                         configuration"
                                    )
                                });
                                port_busy_until = Some((until, *j));
                                *ends = until;
                            }
                            None => out.fail(format!(
                                "fault retry at {at} on {ru} with no load in flight"
                            )),
                        },
                    }
                }
                // A speculative give-up is closed by the
                // PrefetchCancel that follows; a demand give-up
                // abandons the load with no LoadEnd.
                TraceEvent::FaultGiveUp { ru, at, .. } if !matches!(pending_prefetch, Some((_, _, r, _)) if r == ru.0) =>
                {
                    out.probe(pending_load.remove(&ru.0).is_some(), || {
                        format!("fault give-up at {at} on {ru} with no load in flight")
                    });
                }
                _ => {}
            }
        }
        // A started speculative load must end or be cancelled.
        out.probe(pending_prefetch.is_none(), || {
            format!("speculative load {pending_prefetch:?} neither completed nor cancelled")
        });
    }
}

/// Per RU, load and execution intervals never overlap, and a
/// speculative load never targets an RU whose resident is claimed
/// (placed but not yet finished) or executing.
struct RuIntervals;

impl Checker for RuIntervals {
    fn name(&self) -> &'static str {
        "ru-intervals"
    }
    fn description(&self) -> &'static str {
        "per-RU load/exec intervals disjoint; prefetch never targets claimed RUs"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let latency = cx.latency;
        let mut ru_busy_until: HashMap<u16, SimTime> = HashMap::new();
        // Placed-but-not-finished tasks per RU (claimed residents —
        // never legal speculative-eviction targets), attributed to the
        // claiming job: a preemption revokes every claim its victim
        // holds (the resumed graph re-places them, emitting fresh
        // `Reuse`/`LoadEnd` events).
        let mut ru_claims: HashMap<u16, Vec<u32>> = HashMap::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::LoadStart { ru, at, .. } => {
                    if let Some(&busy) = ru_busy_until.get(&ru.0) {
                        out.probe(at >= busy, || {
                            format!("{ru} reloaded at {at} while busy until {busy}")
                        });
                    }
                    ru_busy_until.insert(ru.0, at + latency);
                }
                TraceEvent::LoadEnd { job, ru, .. } | TraceEvent::Reuse { job, ru, .. } => {
                    ru_claims.entry(ru.0).or_default().push(job);
                }
                TraceEvent::ExecEnd { job, ru, at, .. } => {
                    ru_busy_until.insert(ru.0, at);
                    if let Some(claims) = ru_claims.get_mut(&ru.0) {
                        if let Some(k) = claims.iter().position(|&j| j == job) {
                            claims.swap_remove(k);
                        }
                    }
                }
                TraceEvent::Preempt { victim, .. } => {
                    for claims in ru_claims.values_mut() {
                        claims.retain(|&j| j != victim);
                    }
                }
                TraceEvent::PrefetchStart { ru, at, .. } => {
                    if let Some(&busy) = ru_busy_until.get(&ru.0) {
                        out.probe(at >= busy, || {
                            format!("{ru} speculatively reloaded at {at} while busy until {busy}")
                        });
                    }
                    out.probe(ru_claims.get(&ru.0).is_none_or(Vec::is_empty), || {
                        format!(
                            "speculative load at {at} targets {ru}, whose resident is \
                             claimed by a placed-but-unfinished task"
                        )
                    });
                    ru_busy_until.insert(ru.0, at + latency);
                }
                TraceEvent::PrefetchCancel { ru, at, .. } => {
                    // The partially written RU holds nothing and is free.
                    ru_busy_until.insert(ru.0, at);
                }
                TraceEvent::FaultRetry { ru, until, .. } => {
                    // The backoff rewrite extends the unit's busy window.
                    ru_busy_until.insert(ru.0, until);
                }
                TraceEvent::RuQuarantine { ru, at, .. } => {
                    // Claims die with the unit (the engine revoked or
                    // released them); the unit returns empty at heal.
                    ru_claims.remove(&ru.0);
                    ru_busy_until.insert(ru.0, at);
                }
                _ => {}
            }
        }
    }
}

/// A task executes exactly once, after its configuration was loaded
/// into or reused on its RU, for exactly its design-time execution
/// time — and every placed task completes by end of trace. Preemption
/// revocations reset a node's life: a killed node replays in full, a
/// checkpointed node's resumed run must take exactly
/// `remainder + restore penalty`.
struct TaskLifecycle;

#[derive(Default, Clone)]
struct NodeLife {
    placed_at: Option<SimTime>, // load end or reuse
    exec_start: Option<SimTime>,
    exec_end: Option<SimTime>,
    ru: Option<u16>,
    /// Expected duration of the *next* run, when a checkpoint changed
    /// it (`remainder + restore penalty`); `None` = design time.
    expected: Option<SimDuration>,
}

impl Checker for TaskLifecycle {
    fn name(&self) -> &'static str {
        "task-lifecycle"
    }
    fn description(&self) -> &'static str {
        "every task placed once, executed once, for its design-time duration"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        // BTreeMap so the end-of-trace completeness sweep reports in a
        // deterministic order (fingerprint replays must be byte-equal).
        let mut life: BTreeMap<(u32, u32), NodeLife> = BTreeMap::new();
        let mut graph_started: Vec<u32> = Vec::new();
        let mut execs = 0u64;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::GraphStart { job, .. } => graph_started.push(job),
                TraceEvent::LoadEnd {
                    job, node, ru, at, ..
                }
                | TraceEvent::Reuse {
                    job, node, ru, at, ..
                } => {
                    let entry = life.entry((job, node.0)).or_default();
                    entry.placed_at = Some(at);
                    entry.ru = Some(ru.0);
                }
                TraceEvent::ExecStart {
                    job, node, ru, at, ..
                } => {
                    let entry = life.entry((job, node.0)).or_default();
                    out.probe(entry.exec_start.is_none(), || {
                        format!("node {node} of job {job} executed twice")
                    });
                    match entry.placed_at {
                        Some(p) => out.probe(at >= p, || {
                            format!(
                                "node {node} of job {job} started at {at} before its \
                                 configuration arrived at {p}"
                            )
                        }),
                        None => out.fail(format!(
                            "node {node} of job {job} started without load or reuse"
                        )),
                    }
                    out.probe(entry.ru == Some(ru.0), || {
                        format!(
                            "node {node} of job {job} executes on {ru} but was placed on RU{:?}",
                            entry.ru.map(|r| r + 1)
                        )
                    });
                    entry.exec_start = Some(at);
                }
                TraceEvent::ExecEnd { job, node, at, .. } => {
                    execs += 1;
                    let entry = life.entry((job, node.0)).or_default();
                    match entry.exec_start {
                        Some(s) => match jobs.get(job as usize) {
                            Some(spec) => {
                                let expected = entry
                                    .expected
                                    .take()
                                    .unwrap_or_else(|| spec.graph.exec_time(NodeId(node.0)));
                                out.probe(at.since(s) == expected, || {
                                    format!(
                                        "node {node} of job {job} ran {} (expected {expected})",
                                        at.since(s)
                                    )
                                });
                            }
                            None => {
                                out.fail(format!("exec end for node {node} of unknown job {job}"))
                            }
                        },
                        None => out.fail(format!(
                            "exec end without start for node {node} of job {job}"
                        )),
                    }
                    out.probe(entry.exec_end.is_none(), || {
                        format!("node {node} of job {job} finished twice")
                    });
                    entry.exec_end = Some(at);
                }
                TraceEvent::NodeKilled { job, node, at, .. } => {
                    let entry = life.entry((job, node.0)).or_default();
                    out.probe(
                        entry.exec_start.is_some() && entry.exec_end.is_none(),
                        || format!("node {node} of job {job} killed at {at} but was not in flight"),
                    );
                    // The replay runs the full design time again from a
                    // fresh placement.
                    entry.exec_start = None;
                    entry.placed_at = None;
                    entry.ru = None;
                    entry.expected = None;
                }
                TraceEvent::FaultInject {
                    kind: FaultKind::RuHard,
                    ru,
                    ..
                } => {
                    // The dead unit's live placement (claimed or
                    // executing) is revoked and the node re-queues for a
                    // fresh placement — reset its life like a kill.
                    for entry in life.values_mut() {
                        if entry.ru == Some(ru.0) && entry.exec_end.is_none() {
                            entry.exec_start = None;
                            entry.placed_at = None;
                            entry.ru = None;
                            entry.expected = None;
                        }
                    }
                }
                TraceEvent::NodeCheckpointed { job, node, at, .. } => {
                    let entry = life.entry((job, node.0)).or_default();
                    match entry.exec_start {
                        Some(s) => {
                            // The resumed run covers the remainder plus
                            // the restore penalty (one reconfiguration).
                            let expected = entry.expected.unwrap_or_else(|| {
                                jobs.get(job as usize).map_or(SimDuration::ZERO, |spec| {
                                    spec.graph.exec_time(NodeId(node.0))
                                })
                            });
                            entry.expected = Some((s + expected).since(at) + cx.latency);
                        }
                        None => out.fail(format!(
                            "node {node} of job {job} checkpointed at {at} but was not in flight"
                        )),
                    }
                    entry.exec_start = None;
                    entry.placed_at = None;
                    entry.ru = None;
                }
                _ => {}
            }
        }
        // Every placed/executed node ran exactly once with a placement.
        for ((job, node), l) in &life {
            out.probe(l.exec_start.is_some() && l.exec_end.is_some(), || {
                format!("node {node} of job {job} never completed execution")
            });
        }
        // Executed count matches the workload.
        let expected_execs: u64 = graph_started
            .iter()
            .filter_map(|&j| jobs.get(j as usize).map(|s| s.graph.len() as u64))
            .sum();
        out.probe(execs == expected_execs, || {
            format!("trace has {execs} executions, workload requires {expected_execs}")
        });
    }
}

/// A task starts only after all its predecessors finished.
struct Precedence;

impl Checker for Precedence {
    fn name(&self) -> &'static str {
        "precedence"
    }
    fn description(&self) -> &'static str {
        "no task starts before all its graph predecessors finished"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        let mut exec_end: HashMap<(u32, u32), SimTime> = HashMap::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::ExecStart { job, node, at, .. } => {
                    let Some(spec) = jobs.get(job as usize) else {
                        out.fail(format!("exec start for node {node} of unknown job {job}"));
                        continue;
                    };
                    for &p in spec.graph.preds(NodeId(node.0)) {
                        match exec_end.get(&(job, p.0)) {
                            Some(&e) => out.probe(at >= e, || {
                                format!(
                                    "node {node} of job {job} started at {at} before \
                                     predecessor {p} finished at {e}"
                                )
                            }),
                            None => out.fail(format!(
                                "node {node} of job {job} started before predecessor {p} ran"
                            )),
                        }
                    }
                }
                TraceEvent::ExecEnd { job, node, at, .. } => {
                    exec_end.insert((job, node.0), at);
                }
                _ => {}
            }
        }
    }
}

/// A reuse claim only happens when the same configuration was left on
/// that RU by a previous load (demand or completed speculative) with
/// no intervening overwrite — and every placement, skip and stall
/// belongs to the current graph.
struct ReuseResidency;

impl Checker for ReuseResidency {
    fn name(&self) -> &'static str {
        "reuse-residency"
    }
    fn description(&self) -> &'static str {
        "reuse claims match residents; placements belong to the current graph"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let mut resident: HashMap<u16, ConfigId> = HashMap::new();
        let mut current_graph: Option<u32> = None;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::GraphStart { job, .. } | TraceEvent::GraphResume { job, .. } => {
                    current_graph = Some(job)
                }
                TraceEvent::GraphEnd { .. } | TraceEvent::Preempt { .. } => current_graph = None,
                TraceEvent::LoadStart {
                    job, node, ru, at, ..
                } => {
                    out.probe(current_graph == Some(job), || {
                        format!(
                            "load for job {job} node {node} at {at}: job is not current \
                             (no cross-graph prefetch)"
                        )
                    });
                    // Eviction: the previous resident is gone.
                    resident.remove(&ru.0);
                }
                TraceEvent::LoadEnd { config, ru, .. } => {
                    resident.insert(ru.0, config);
                }
                TraceEvent::Reuse {
                    job,
                    config,
                    ru,
                    at,
                    ..
                } => {
                    out.probe(current_graph == Some(job), || {
                        format!("reuse for job {job} at {at}: job is not current")
                    });
                    out.probe(resident.get(&ru.0) == Some(&config), || {
                        format!(
                            "reuse of {config} on {ru} at {at} but resident is {:?}",
                            resident.get(&ru.0)
                        )
                    });
                }
                TraceEvent::ExecStart {
                    job,
                    config,
                    ru,
                    at,
                    ..
                } => {
                    out.probe(current_graph == Some(job), || {
                        format!("exec start for job {job} at {at}: job is not current")
                    });
                    out.probe(resident.get(&ru.0) == Some(&config), || {
                        format!(
                            "exec of {config} on {ru} at {at} but resident is {:?}",
                            resident.get(&ru.0)
                        )
                    });
                }
                TraceEvent::Skip { at, .. } => {
                    out.probe(current_graph.is_some(), || {
                        format!("skip at {at} outside any active graph")
                    });
                }
                TraceEvent::Stall { at, .. } => {
                    out.probe(current_graph.is_some(), || {
                        format!("stall at {at} outside any active graph")
                    });
                }
                TraceEvent::PrefetchStart { at, ru, .. } => {
                    out.probe(current_graph.is_some(), || {
                        format!(
                            "speculative load at {at} outside any active graph (the \
                             planner only runs while a graph is current)"
                        )
                    });
                    resident.remove(&ru.0);
                }
                TraceEvent::PrefetchEnd { config, ru, .. } => {
                    resident.insert(ru.0, config);
                }
                TraceEvent::PrefetchCancel { ru, .. } => {
                    resident.remove(&ru.0);
                }
                TraceEvent::FaultInject {
                    kind: FaultKind::Upset,
                    ru,
                    ..
                } => {
                    // The upset resident no longer counts as reusable;
                    // only a full rewrite re-establishes residency.
                    resident.remove(&ru.0);
                }
                TraceEvent::RuQuarantine { ru, .. } => {
                    resident.remove(&ru.0);
                }
                _ => {}
            }
        }
    }
}

/// The reuse-distance guard (the Fig. 3 hazard): a speculative load
/// never evicts a resident configuration whose next request comes
/// strictly before the fetched configuration's — checked against the
/// *entire* remaining request stream (a superset of any lookahead
/// window the engine could have used, so an engine guard violation can
/// never hide behind limited visibility).
struct PrefetchGuard;

impl Checker for PrefetchGuard {
    fn name(&self) -> &'static str {
        "prefetch-guard"
    }
    fn description(&self) -> &'static str {
        "speculative loads never evict a resident with a strictly nearer next use"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        // Priority lanes, preemptions and fault-recovery re-queues
        // reorder the request stream dynamically; the linear
        // arrival-order model below would produce false positives, so
        // the guard only audits FIFO fault-free runs.
        if qos_active(cx) || faults_active(cx) {
            return;
        }
        let expected_order = activation_order(jobs);
        let mut resident: HashMap<u16, ConfigId> = HashMap::new();
        // Per-job count of placements (loads + reuses) — placements
        // follow the design-time reconfiguration sequence, so this is
        // the cursor into the job's configuration sequence.
        let mut placements: HashMap<u32, usize> = HashMap::new();
        // Configuration sequences, derived lazily: only traces with
        // speculative loads pay for the design-time recomputation.
        let mut cfg_seqs: Option<Vec<Vec<ConfigId>>> = None;
        let mut started = 0usize;
        let mut current_graph: Option<u32> = None;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::GraphStart { job, .. } => {
                    started += 1;
                    current_graph = Some(job);
                }
                TraceEvent::GraphEnd { .. } => current_graph = None,
                TraceEvent::LoadStart { ru, .. } => {
                    resident.remove(&ru.0);
                }
                TraceEvent::LoadEnd {
                    job, config, ru, ..
                } => {
                    resident.insert(ru.0, config);
                    *placements.entry(job).or_default() += 1;
                }
                TraceEvent::Reuse { job, .. } => {
                    *placements.entry(job).or_default() += 1;
                }
                TraceEvent::PrefetchStart { config, ru, at } => {
                    let evicted = resident.remove(&ru.0);
                    let seqs = cfg_seqs.get_or_insert_with(|| config_sequences(jobs));
                    // Walk the remaining request stream (current
                    // graph's unplaced tail, then every not-yet-started
                    // job in activation order) segment by segment
                    // without materialising it, early-exiting once both
                    // queried configurations are located — on real
                    // traces the nearest requests sit in the first
                    // segment or two, so this is O(1)-ish per
                    // speculative load instead of O(stream).
                    let mut fetched_next: Option<usize> = None;
                    let mut victim_next: Option<usize> = None;
                    let cur_tail = current_graph.and_then(|cur| {
                        let seq = seqs.get(cur as usize)?;
                        let done = placements.get(&cur).copied().unwrap_or(0);
                        Some(&seq[done.min(seq.len())..])
                    });
                    let rest = expected_order
                        .iter()
                        .skip(started)
                        .map(|&j| seqs[j as usize].as_slice());
                    let mut base = 0usize;
                    for seg in cur_tail.into_iter().chain(rest) {
                        for (k, &c) in seg.iter().enumerate() {
                            if fetched_next.is_none() && c == config {
                                fetched_next = Some(base + k);
                            }
                            if victim_next.is_none() && evicted == Some(c) {
                                victim_next = Some(base + k);
                            }
                        }
                        base += seg.len();
                        if fetched_next.is_some() && (evicted.is_none() || victim_next.is_some()) {
                            break;
                        }
                    }
                    out.probe(fetched_next.is_some(), || {
                        format!(
                            "speculative load of {config} at {at}: the configuration is \
                             never requested again"
                        )
                    });
                    if let (Some(victim), Some(fetched_next)) = (evicted, fetched_next) {
                        out.probe(victim_next.is_none_or(|vn| vn > fetched_next), || {
                            format!(
                                "prefetch guard violated at {at}: speculative load of \
                                 {config} (next request at stream offset {fetched_next}) \
                                 evicted {victim} whose next request comes at offset \
                                 {victim_next:?} — strictly nearer"
                            )
                        });
                    }
                }
                TraceEvent::PrefetchEnd { config, ru, .. } => {
                    resident.insert(ru.0, config);
                }
                TraceEvent::PrefetchCancel { ru, .. } => {
                    resident.remove(&ru.0);
                }
                _ => {}
            }
        }
    }
}

/// The run ledger: every [`RunStats`](crate::stats::RunStats) field the
/// trace determines is re-derived from it and compared field by field,
/// one probe per field, each naming the field it checks.
///
/// Without stats the checker still asserts the ledger's trace-only
/// identities: every issued speculative load completed or was
/// cancelled and hit/waste attribution never exceeds completions; the
/// per-class fault injections sum to the total, every quarantine came
/// from a give-up or a hard fault, and heals never outnumber
/// quarantines; every suspension resumed.
///
/// With stats, [`Trace::counts`](crate::trace::Trace::counts) plus one
/// walk re-derive:
///
/// * the event counters (`loads`, `reuses`, `executed`, `skips`,
///   `stalls`) and the five `prefetch` counters;
/// * the `traffic` write counts (a demand retry rewrites a full
///   bitstream; a corrupt speculative completion moved one without a
///   `PrefetchEnd`), the port busy time and the makespan;
/// * the `qos` counters, the lost work of kills (each `NodeKilled`
///   instant minus its RU's last `ExecStart`), the deadline ledger and
///   the per-class `jobs`/miss/tardiness/sojourn rows, all from the
///   `GraphEnd` instants against the job specs;
/// * `graph_completions` (the `GraphEnd` instants, in order) and
///   `graph_arrivals` (the same jobs' arrivals);
/// * every `faults` counter, the degraded-pool time (closed at the
///   makespan if a unit is still down) and the lost work of hard faults;
/// * the `balanced()` identities of the prefetch, QoS and fault stats.
///
/// Left unchecked: `traffic.bytes_moved` and `traffic.energy_uj` scale
/// the write counts by the device's bitstream size and energy model,
/// which [`CheckContext`] does not carry; and the class rows' `p50`,
/// `p95` and `max`, whose re-derivation would share the engine's
/// nearest-rank percentile code rather than check it.
struct Ledger;

/// One QoS class row as the trace implies it.
#[derive(Debug, Default, PartialEq, Eq)]
struct ClassTally {
    jobs: u64,
    deadline_misses: u64,
    tardiness_total: SimDuration,
    sojourn_total: SimDuration,
}

/// One ledger probe: stats field `name` equals its trace-derived value.
fn field<T: PartialEq + fmt::Debug>(out: &mut CheckOutput, name: &str, stats: T, trace: T) {
    out.probe(stats == trace, || {
        format!("stats.{name} {stats:?} != {trace:?} re-derived from the trace")
    });
}

impl Checker for Ledger {
    fn name(&self) -> &'static str {
        "ledger"
    }
    fn description(&self) -> &'static str {
        "every RunStats ledger field re-derives from the trace"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let c = cx.trace.counts();
        out.probe(
            c.prefetch_issued == c.prefetch_completed + c.prefetch_cancelled,
            || {
                format!(
                    "trace prefetch ledger is open: issued {} != completed {} + cancelled {}",
                    c.prefetch_issued, c.prefetch_completed, c.prefetch_cancelled
                )
            },
        );
        out.probe(
            c.prefetch_hits + c.prefetch_wasted <= c.prefetch_completed,
            || {
                format!(
                    "trace prefetch attribution exceeds completions: hits {} + wasted {} > \
                     completed {}",
                    c.prefetch_hits, c.prefetch_wasted, c.prefetch_completed
                )
            },
        );
        out.probe(
            c.fault_injected == c.fault_transients + c.fault_upsets + c.fault_ru,
            || {
                format!(
                    "per-class injections {} + {} + {} do not sum to the total {}",
                    c.fault_transients, c.fault_upsets, c.fault_ru, c.fault_injected
                )
            },
        );
        out.probe(c.ru_quarantines == c.fault_giveups + c.fault_ru, || {
            format!(
                "{} quarantines for {} give-ups + {} hard faults",
                c.ru_quarantines, c.fault_giveups, c.fault_ru
            )
        });
        out.probe(c.ru_heals <= c.ru_quarantines, || {
            format!(
                "{} heals recorded for only {} quarantines",
                c.ru_heals, c.ru_quarantines
            )
        });
        out.probe(c.resumes == c.preemptions, || {
            format!(
                "trace has {} preemptions but {} resumes (every suspension must resume)",
                c.preemptions, c.resumes
            )
        });
        let Some(s) = cx.stats else { return };
        let latency = cx.latency;
        let mut port_busy = SimDuration::ZERO;
        // Write-window start of the in-flight speculative load; a
        // backoff retry moves it, a corrupt completion restarts it.
        let mut spec_window: Option<SimTime> = None;
        let mut demand_retries = 0u64;
        let mut spec_corrupts = 0u64;
        let mut exec_started: HashMap<u16, SimTime> = HashMap::new();
        let mut killed_work = SimDuration::ZERO;
        let mut hard_fault_work = SimDuration::ZERO;
        let mut degraded = SimDuration::ZERO;
        let mut down = 0u32;
        let mut down_since: Option<SimTime> = None;
        let mut completions: Vec<SimTime> = Vec::new();
        let mut arrivals: Vec<SimTime> = Vec::new();
        let mut classes: BTreeMap<u8, ClassTally> = BTreeMap::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::LoadEnd { .. } => port_busy += latency,
                TraceEvent::PrefetchStart { at, .. } => spec_window = Some(at),
                TraceEvent::PrefetchEnd { at, .. } | TraceEvent::PrefetchCancel { at, .. } => {
                    if let Some(window) = spec_window.take() {
                        port_busy += at.saturating_since(window);
                    }
                }
                TraceEvent::FaultInject { kind, ru, at, .. } => match kind {
                    // A corrupt completion held the port for a full
                    // write on either lane; on the speculative lane
                    // only time after it charges the next window.
                    FaultKind::TransientLoad => {
                        port_busy += latency;
                        if let Some(window) = spec_window.as_mut() {
                            spec_corrupts += 1;
                            *window = at;
                        }
                    }
                    FaultKind::RuHard => {
                        if let Some(start) = exec_started.remove(&ru.0) {
                            hard_fault_work += at.saturating_since(start);
                        }
                    }
                    FaultKind::Upset => {}
                },
                // The rewrite occupies `[until - latency, until]`.
                TraceEvent::FaultRetry { until, .. } => match spec_window.as_mut() {
                    Some(window) => *window = until - latency,
                    None => demand_retries += 1,
                },
                TraceEvent::ExecStart { ru, at, .. } => {
                    exec_started.insert(ru.0, at);
                }
                TraceEvent::ExecEnd { ru, .. } | TraceEvent::NodeCheckpointed { ru, .. } => {
                    exec_started.remove(&ru.0);
                }
                TraceEvent::NodeKilled { ru, at, .. } => {
                    if let Some(start) = exec_started.remove(&ru.0) {
                        killed_work += at.saturating_since(start);
                    }
                }
                TraceEvent::RuQuarantine { at, .. } => {
                    down += 1;
                    if down == 1 {
                        down_since = Some(at);
                    }
                }
                TraceEvent::RuHeal { at, .. } => {
                    down = down.saturating_sub(1);
                    if down == 0 {
                        if let Some(since) = down_since.take() {
                            degraded += at.saturating_since(since);
                        }
                    }
                }
                TraceEvent::GraphEnd { job, at } => {
                    completions.push(at);
                    if let Some(spec) = cx.jobs.get(job as usize) {
                        arrivals.push(spec.arrival);
                        let row = classes.entry(spec.qos.priority).or_default();
                        row.jobs += 1;
                        row.sojourn_total += at.saturating_since(spec.arrival);
                        if let Some(deadline) = spec.qos.deadline.filter(|&d| at > d) {
                            row.deadline_misses += 1;
                            row.tardiness_total += at.since(deadline);
                        }
                    }
                }
                _ => {}
            }
        }
        // A stretch still open at end of trace closes at the makespan.
        if let Some(open) = down_since {
            degraded += (SimTime::ZERO + s.makespan).saturating_since(open);
        }
        let pf = &s.prefetch;
        let q = &s.qos;
        let f = &s.faults;
        let misses: u64 = classes.values().map(|r| r.deadline_misses).sum();
        let tardiness: SimDuration = classes.values().map(|r| r.tardiness_total).sum();
        for (name, stats, trace) in [
            ("loads", s.loads, c.loads),
            ("reuses", s.reuses, c.reuses),
            ("executed", s.executed, c.executed),
            ("skips", s.skips, c.skips),
            ("stalls", s.stalls, c.stalls),
            ("prefetch.issued", pf.issued, c.prefetch_issued),
            ("prefetch.completed", pf.completed, c.prefetch_completed),
            ("prefetch.cancelled", pf.cancelled, c.prefetch_cancelled),
            ("prefetch.hits", pf.hits, c.prefetch_hits),
            ("prefetch.wasted", pf.wasted, c.prefetch_wasted),
            ("traffic.loads", s.traffic.loads, c.loads + demand_retries),
            ("traffic.reuses", s.traffic.reuses, c.reuses),
            (
                "traffic.prefetch_loads",
                s.traffic.prefetch_loads,
                c.prefetch_completed + spec_corrupts,
            ),
            ("qos.preemptions", q.preemptions, c.preemptions),
            ("qos.checkpoints", q.checkpoints, c.checkpoints),
            ("qos.replayed_nodes", q.replayed_nodes, c.killed_nodes),
            ("qos.deadline_misses", q.deadline_misses, misses),
            ("faults.injected", f.injected, c.fault_injected),
            ("faults.retries", f.retries, c.fault_retries),
            ("faults.repairs", f.repairs, c.fault_repairs),
            ("faults.quarantines", f.quarantines, c.ru_quarantines),
            ("faults.heals", f.heals, c.ru_heals),
        ] {
            field(out, name, stats, trace);
        }
        for (name, stats, trace) in [
            ("port_busy_time", s.port_busy_time, port_busy),
            ("qos.lost_work_cycles", q.lost_work_cycles, killed_work),
            ("qos.tardiness_total", q.tardiness_total, tardiness),
            ("faults.degraded_time", f.degraded_time, degraded),
            (
                "faults.lost_work_cycles",
                f.lost_work_cycles,
                hard_fault_work,
            ),
        ] {
            field(out, name, stats, trace);
        }
        if let Some(&last) = completions.last() {
            field(out, "makespan", s.makespan, last.since(SimTime::ZERO));
        }
        field(out, "graph_completions", &s.graph_completions, &completions);
        field(out, "graph_arrivals", &s.graph_arrivals, &arrivals);
        let rows: Vec<(u8, ClassTally)> = q
            .class_sojourns
            .iter()
            .map(|r| {
                let tally = ClassTally {
                    jobs: r.jobs,
                    deadline_misses: r.deadline_misses,
                    tardiness_total: r.tardiness_total,
                    sojourn_total: r.sojourn_total,
                };
                (r.priority, tally)
            })
            .collect();
        field(
            out,
            "qos.class_sojourns",
            rows,
            classes.into_iter().collect(),
        );
        out.probe(pf.balanced(), || {
            format!("stats.prefetch ledger is open: {pf:?}")
        });
        out.probe(q.balanced(), || {
            format!("stats.qos per-class miss/tardiness rows do not sum to the run totals: {q:?}")
        });
        out.probe(f.balanced(), || {
            format!("stats.faults internal identities do not hold: {f:?}")
        });
    }
}

/// With prefetch depth 0, speculation must be invisible: no
/// speculative trace events and zeroed prefetch counters (the golden
/// figure tests pin the actual numbers bit for bit).
struct PrefetchOffInvisible;

impl Checker for PrefetchOffInvisible {
    fn name(&self) -> &'static str {
        "prefetch-off-invisible"
    }
    fn description(&self) -> &'static str {
        "depth 0 records no speculative events and zeroed prefetch counters"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        if cx.prefetch_depth != Some(0) {
            return;
        }
        let speculative = cx
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::PrefetchStart { .. }
                        | TraceEvent::PrefetchEnd { .. }
                        | TraceEvent::PrefetchCancel { .. }
                )
            })
            .count();
        out.probe(speculative == 0, || {
            format!("prefetch is off but the trace records {speculative} speculative events")
        });
        if let Some(s) = cx.stats {
            out.probe(s.prefetch == Default::default(), || {
                format!("prefetch is off but stats.prefetch is {:?}", s.prefetch)
            });
            out.probe(s.traffic.prefetch_loads == 0, || {
                format!(
                    "prefetch is off but stats.traffic.prefetch_loads is {}",
                    s.traffic.prefetch_loads
                )
            });
        }
    }
}

/// Preemption never loses work permanently: by each graph's
/// completion every one of its nodes has finished exactly once, and
/// every revocation (kill or checkpoint) was paid for with exactly one
/// extra execution start.
struct NoLostWork;

impl Checker for NoLostWork {
    fn name(&self) -> &'static str {
        "no-lost-work"
    }
    fn description(&self) -> &'static str {
        "every node of a completed graph finished exactly once; revocations replayed"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        let mut starts: HashMap<(u32, u32), u64> = HashMap::new();
        let mut ends: HashMap<(u32, u32), u64> = HashMap::new();
        let mut revoked: HashMap<(u32, u32), u64> = HashMap::new();
        // In-flight execution per RU, so a hard fault's implicit kill
        // is booked as a revocation (no NodeKilled event is emitted —
        // the FaultInject carries the consequence).
        let mut inflight: HashMap<u16, (u32, u32)> = HashMap::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::ExecStart { job, node, ru, .. } => {
                    *starts.entry((job, node.0)).or_default() += 1;
                    inflight.insert(ru.0, (job, node.0));
                }
                TraceEvent::ExecEnd { job, node, ru, .. } => {
                    *ends.entry((job, node.0)).or_default() += 1;
                    inflight.remove(&ru.0);
                }
                TraceEvent::NodeKilled { job, node, ru, .. }
                | TraceEvent::NodeCheckpointed { job, node, ru, .. } => {
                    *revoked.entry((job, node.0)).or_default() += 1;
                    inflight.remove(&ru.0);
                }
                TraceEvent::FaultInject {
                    kind: FaultKind::RuHard,
                    ru,
                    ..
                } => {
                    if let Some(key) = inflight.remove(&ru.0) {
                        *revoked.entry(key).or_default() += 1;
                    }
                }
                TraceEvent::GraphEnd { job, at } => {
                    let Some(spec) = jobs.get(job as usize) else {
                        out.fail(format!("graph end at {at} for unknown job {job}"));
                        continue;
                    };
                    for n in 0..spec.graph.len() as u32 {
                        let e = ends.get(&(job, n)).copied().unwrap_or(0);
                        out.probe(e == 1, || {
                            format!(
                                "graph {job} completed at {at} but node {n} finished \
                                 {e} times (expected exactly once)"
                            )
                        });
                        let st = starts.get(&(job, n)).copied().unwrap_or(0);
                        let rv = revoked.get(&(job, n)).copied().unwrap_or(0);
                        out.probe(st == 1 + rv, || {
                            format!(
                                "graph {job} node {n}: {st} execution starts for {rv} \
                                 revocations (expected {})",
                                1 + rv
                            )
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

/// Preemptions respect the priority lattice: a preemptor's lane
/// priority is strictly above its victim's, the suspended stack is
/// LIFO with priorities increasing toward the top, and every
/// suspension is resumed before the end of the trace.
struct PreemptionOrder;

impl Checker for PreemptionOrder {
    fn name(&self) -> &'static str {
        "preemption-order"
    }
    fn description(&self) -> &'static str {
        "preemptor priority strictly above victim; LIFO suspend/resume, all resumed"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let jobs = cx.jobs;
        let prio = |j: u32| -> Option<u8> { jobs.get(j as usize).map(|spec| spec.qos.priority) };
        // The suspended stack as the trace implies it: victims pushed
        // at Preempt, popped at GraphResume.
        let mut stack: Vec<u32> = Vec::new();
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::Preempt {
                    victim,
                    preemptor,
                    at,
                } => {
                    match (prio(victim), prio(preemptor)) {
                        (Some(v), Some(p)) => out.probe(p > v, || {
                            format!(
                                "preemption at {at}: preemptor {preemptor} (priority {p}) \
                                 does not strictly out-prioritise victim {victim} \
                                 (priority {v})"
                            )
                        }),
                        _ => out.fail(format!(
                            "preemption at {at} names unknown jobs \
                             ({victim} by {preemptor})"
                        )),
                    }
                    if let (Some(&below), Some(v)) = (stack.last(), prio(victim)) {
                        out.probe(prio(below).is_some_and(|b| v >= b), || {
                            format!(
                                "suspended stack priorities must increase toward the top: \
                                 victim {victim} (priority {v}) pushed above job {below} \
                                 (priority {:?})",
                                prio(below)
                            )
                        });
                    }
                    stack.push(victim);
                }
                TraceEvent::GraphResume { job, at } => match stack.pop() {
                    Some(top) => out.probe(top == job, || {
                        format!(
                            "resume at {at} is not LIFO: graph {job} resumed while \
                             {top} is on top of the suspended stack"
                        )
                    }),
                    None => out.fail(format!(
                        "graph {job} resumed at {at} but nothing is suspended"
                    )),
                },
                _ => {}
            }
        }
        out.probe(stack.is_empty(), || {
            format!("graphs {stack:?} were suspended but never resumed")
        });
    }
}

/// The retry/backoff protocol: every corrupt load completion is
/// resolved at the same instant by a retry or a give-up, attempts
/// count up by one and never exceed the plan's budget, retried writes
/// honour the exponential-backoff schedule, and every give-up is
/// followed by its unit's quarantine.
struct FaultRetryBounded;

impl Checker for FaultRetryBounded {
    fn name(&self) -> &'static str {
        "fault-retry-bounded"
    }
    fn description(&self) -> &'static str {
        "corrupt loads retry with bounded exponential backoff, then quarantine"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let latency = cx.latency;
        // Unresolved corrupt completion per RU: `(config, instant)`.
        let mut open: HashMap<u16, (Option<ConfigId>, SimTime)> = HashMap::new();
        // Attempts burned on the RU's in-flight load so far.
        let mut attempts: HashMap<u16, u8> = HashMap::new();
        // A give-up whose RuQuarantine has not arrived yet.
        let mut due_quarantine: Option<(u16, SimTime)> = None;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::FaultInject {
                    kind: FaultKind::TransientLoad,
                    ru,
                    config,
                    at,
                } => {
                    out.probe(!open.contains_key(&ru.0), || {
                        format!(
                            "corrupt completion on {ru} at {at} while an earlier one \
                             is still unresolved"
                        )
                    });
                    open.insert(ru.0, (config, at));
                }
                TraceEvent::FaultRetry {
                    ru,
                    config,
                    attempt,
                    until,
                    at,
                } => {
                    match open.remove(&ru.0) {
                        Some((c, t)) => out.probe(c == Some(config) && t == at, || {
                            format!(
                                "retry of {config} on {ru} at {at} does not match the \
                                 corrupt completion it resolves ({c:?} at {t})"
                            )
                        }),
                        None => out.fail(format!(
                            "retry of {config} on {ru} at {at} without a corrupt completion"
                        )),
                    }
                    let prev = attempts.get(&ru.0).copied().unwrap_or(0);
                    out.probe(attempt == prev + 1, || {
                        format!(
                            "retry attempt {attempt} on {ru} at {at} does not follow \
                             attempt {prev}"
                        )
                    });
                    if let Some(plan) = cx.fault_plan {
                        out.probe(attempt <= plan.max_retries, || {
                            format!(
                                "retry attempt {attempt} on {ru} at {at} exceeds the \
                                 plan's budget of {}",
                                plan.max_retries
                            )
                        });
                    }
                    if (1..=32).contains(&attempt) {
                        let expected = latency * ((1u64 << (attempt - 1)) + 1);
                        out.probe(until.since(at) == expected, || {
                            format!(
                                "retry attempt {attempt} on {ru} at {at} completes at \
                                 {until}; the backoff schedule requires {expected} \
                                 (latency × (2^(k−1) + 1))"
                            )
                        });
                    }
                    attempts.insert(ru.0, attempt);
                }
                TraceEvent::FaultGiveUp {
                    ru,
                    config,
                    attempts: total,
                    at,
                } => {
                    match open.remove(&ru.0) {
                        Some((c, t)) => out.probe(c == Some(config) && t == at, || {
                            format!(
                                "give-up of {config} on {ru} at {at} does not match the \
                                 corrupt completion it resolves ({c:?} at {t})"
                            )
                        }),
                        None => out.fail(format!(
                            "give-up of {config} on {ru} at {at} without a corrupt completion"
                        )),
                    }
                    let prev = attempts.remove(&ru.0).unwrap_or(0);
                    out.probe(total == prev + 1, || {
                        format!(
                            "give-up on {ru} at {at} reports {total} attempts after \
                             attempt {prev}"
                        )
                    });
                    if let Some(plan) = cx.fault_plan {
                        out.probe(total == plan.max_retries + 1, || {
                            format!(
                                "give-up on {ru} at {at} after {total} attempts; the \
                                 plan's budget allows exactly {}",
                                plan.max_retries + 1
                            )
                        });
                    }
                    out.probe(due_quarantine.is_none(), || {
                        format!(
                            "give-up on {ru} at {at} while {due_quarantine:?} still \
                             awaits its quarantine"
                        )
                    });
                    due_quarantine = Some((ru.0, at));
                }
                TraceEvent::RuQuarantine { ru, at } if due_quarantine == Some((ru.0, at)) => {
                    due_quarantine = None;
                }
                TraceEvent::LoadEnd { ru, at, .. } | TraceEvent::PrefetchEnd { ru, at, .. } => {
                    out.probe(!open.contains_key(&ru.0), || {
                        format!(
                            "clean completion on {ru} at {at} while a corrupt one is \
                             unresolved"
                        )
                    });
                    attempts.remove(&ru.0);
                }
                TraceEvent::PrefetchCancel { ru, .. } => {
                    // A cancelled speculative retry abandons the load.
                    attempts.remove(&ru.0);
                }
                _ => {}
            }
        }
        out.probe(open.is_empty(), || {
            format!("corrupt completions never resolved: {open:?}")
        });
        out.probe(due_quarantine.is_none(), || {
            format!("give-up {due_quarantine:?} was never followed by its quarantine")
        });
    }
}

/// Quarantine isolation: no load, reuse, execution, retry or further
/// fault ever targets a quarantined RU, quarantines and heals pair up,
/// and a unit only heals out of quarantine.
struct QuarantineIsolation;

impl Checker for QuarantineIsolation {
    fn name(&self) -> &'static str {
        "quarantine-isolation"
    }
    fn description(&self) -> &'static str {
        "no event targets a quarantined RU; quarantines and heals pair up"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let mut quarantined: HashSet<u16> = HashSet::new();
        let mut quarantines = 0u64;
        let mut heals = 0u64;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::RuQuarantine { ru, at } => {
                    out.probe(quarantined.insert(ru.0), || {
                        format!("{ru} quarantined at {at} but is already out of the pool")
                    });
                    quarantines += 1;
                }
                TraceEvent::RuHeal { ru, at } => {
                    out.probe(quarantined.remove(&ru.0), || {
                        format!("{ru} healed at {at} but was not quarantined")
                    });
                    heals += 1;
                }
                TraceEvent::LoadStart { ru, at, .. }
                | TraceEvent::LoadEnd { ru, at, .. }
                | TraceEvent::Reuse { ru, at, .. }
                | TraceEvent::ExecStart { ru, at, .. }
                | TraceEvent::ExecEnd { ru, at, .. }
                | TraceEvent::PrefetchStart { ru, at, .. }
                | TraceEvent::PrefetchEnd { ru, at, .. }
                | TraceEvent::PrefetchCancel { ru, at, .. }
                | TraceEvent::FaultInject { ru, at, .. }
                | TraceEvent::FaultRetry { ru, at, .. }
                | TraceEvent::FaultGiveUp { ru, at, .. }
                | TraceEvent::NodeKilled { ru, at, .. }
                | TraceEvent::NodeCheckpointed { ru, at, .. } => {
                    out.probe(!quarantined.contains(&ru.0), || {
                        format!("{} targets quarantined {ru} at {at}", ev.kind_name())
                    });
                }
                _ => {}
            }
        }
        out.probe(heals <= quarantines, || {
            format!("{heals} heals recorded for only {quarantines} quarantines")
        });
    }
}

/// An upset (corrupt) resident never satisfies a reuse claim or backs
/// an execution start; only a full rewrite of the unit (or its
/// quarantine) clears the corruption.
struct CorruptNeverReused;

impl Checker for CorruptNeverReused {
    fn name(&self) -> &'static str {
        "corrupt-never-reused"
    }
    fn description(&self) -> &'static str {
        "upset residents are never reused or executed before a rewrite"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let mut corrupt: HashSet<u16> = HashSet::new();
        let mut upsets = 0u64;
        for ev in cx.trace.iter() {
            match *ev {
                TraceEvent::FaultInject {
                    kind: FaultKind::Upset,
                    ru,
                    at,
                    ..
                } => {
                    out.probe(corrupt.insert(ru.0), || {
                        format!("upset at {at} hit {ru}, whose resident is already corrupt")
                    });
                    upsets += 1;
                }
                // A rewrite (either lane) repairs the unit; quarantine
                // discards the resident outright.
                TraceEvent::LoadStart { ru, .. }
                | TraceEvent::PrefetchStart { ru, .. }
                | TraceEvent::RuQuarantine { ru, .. } => {
                    corrupt.remove(&ru.0);
                }
                TraceEvent::Reuse { ru, at, .. } => {
                    out.probe(!corrupt.contains(&ru.0), || {
                        format!("reuse claim on {ru} at {at} of an upset (corrupt) resident")
                    });
                }
                TraceEvent::ExecStart { ru, at, .. } => {
                    out.probe(!corrupt.contains(&ru.0), || {
                        format!("execution start on {ru} at {at} over an upset resident")
                    });
                }
                _ => {}
            }
        }
        out.probe(corrupt.len() as u64 <= upsets, || {
            format!(
                "{} residents marked corrupt by only {upsets} upsets",
                corrupt.len()
            )
        });
    }
}

/// The determinism and fleet-device contract: the run is bit-exact
/// with the reference outcome — field-level pins first so a divergence
/// names the diverging counter, then full stats and the event-for-event
/// trace.
struct PooledIdentity;

impl Checker for PooledIdentity {
    fn name(&self) -> &'static str {
        "pooled-identity"
    }
    fn description(&self) -> &'static str {
        "run is bit-exact with the reference outcome (stats and trace)"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let Some(reference) = cx.reference else {
            return;
        };
        if let Some(s) = cx.stats {
            let r = &reference.stats;
            out.probe(s.traffic == r.traffic, || {
                format!(
                    "traffic/energy counters diverged from the reference run: \
                     {:?} != {:?}",
                    s.traffic, r.traffic
                )
            });
            out.probe(s.port_busy_time == r.port_busy_time, || {
                format!(
                    "controller busy-time diverged from the reference run: {} != {}",
                    s.port_busy_time, r.port_busy_time
                )
            });
            out.probe(s.prefetch == r.prefetch, || {
                format!(
                    "prefetch counters diverged from the reference run: {:?} != {:?}",
                    s.prefetch, r.prefetch
                )
            });
            out.probe(s == r, || {
                format!(
                    "RunStats diverged from the reference run: \
                     makespan {} vs {}, executed {} vs {}, reuses {} vs {}, \
                     loads {} vs {}, skips {} vs {}, stalls {} vs {}",
                    s.makespan,
                    r.makespan,
                    s.executed,
                    r.executed,
                    s.reuses,
                    r.reuses,
                    s.loads,
                    r.loads,
                    s.skips,
                    r.skips,
                    s.stalls,
                    r.stalls
                )
            });
        }
        let a = &cx.trace.events;
        let b = &reference.trace.events;
        out.probe(a == b, || {
            match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
                Some(i) => format!(
                    "trace diverged from the reference run at event {i}: {:?} != {:?}",
                    a[i], b[i]
                ),
                None => format!(
                    "trace diverged from the reference run: {} events vs {}",
                    a.len(),
                    b.len()
                ),
            }
        });
    }
}

/// Admission control never starves a tenant that stayed inside its
/// own quota: replaying the admission event stream, a submission is
/// rejected if and only if the submitting tenant itself was already at
/// quota, independent of every other tenant's behaviour.
struct TenantIsolation;

impl Checker for TenantIsolation {
    fn name(&self) -> &'static str {
        "tenant-isolation"
    }
    fn description(&self) -> &'static str {
        "a tenant over quota never starves tenants below quota"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let Some(fleet) = cx.fleet else {
            return; // single-device run: nothing to isolate
        };
        // Replay the per-tenant pending windows independently of the
        // fleet's own bookkeeping. Windows reset when the recorded
        // pending count drops back (a drain happened in between), so
        // the replay follows the recorded `pending_before` and only
        // asserts the *decision* taken on it.
        let mut last_index = None;
        for ev in fleet.admissions {
            out.probe(last_index < Some(ev.submit_index), || {
                format!(
                    "admission events out of submission order at index {}",
                    ev.submit_index
                )
            });
            last_index = Some(ev.submit_index);
            let own_quota_open = fleet.quota.is_none_or(|q| (ev.pending_before as usize) < q);
            out.probe(ev.admitted == own_quota_open, || {
                if ev.admitted {
                    format!(
                        "submission {} of tenant {} admitted although the tenant \
                         was at quota ({} pending, quota {:?})",
                        ev.submit_index, ev.tenant, ev.pending_before, fleet.quota
                    )
                } else {
                    format!(
                        "submission {} of tenant {} rejected although the tenant \
                         was below quota ({} pending, quota {:?}) — \
                         starved by another tenant",
                        ev.submit_index, ev.tenant, ev.pending_before, fleet.quota
                    )
                }
            });
        }
    }
}

/// Every recorded placement score existed at decision time: the
/// checker replays each device's residency from scratch with the
/// reference [`ResidencyModel`](crate::fleet::ResidencyModel) (the LRU
/// rule the fleet's dense model implements, same capacities; no code
/// shared with the router) and re-derives each decision's per-device
/// overlap vector. For `ReuseAffinity` it additionally
/// asserts the routing claim itself — the chosen device had the
/// maximal overlap, with ties broken toward the least queued work.
struct PlacementResidency;

impl Checker for PlacementResidency {
    fn name(&self) -> &'static str {
        "placement-residency"
    }
    fn description(&self) -> &'static str {
        "placement scores replay exactly; reuse-affinity routed to a best-overlap device"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let Some(fleet) = cx.fleet else {
            return;
        };
        let mut models: Vec<crate::fleet::ResidencyModel> = fleet
            .device_rus
            .iter()
            .map(|&rus| crate::fleet::ResidencyModel::new(rus))
            .collect();
        for d in fleet.decisions {
            if d.device >= models.len() || d.overlaps.len() != models.len() {
                out.fail(format!(
                    "decision {} malformed: device {} of {}, {} overlap entries",
                    d.submit_index,
                    d.device,
                    models.len(),
                    d.overlaps.len()
                ));
                continue;
            }
            for (i, model) in models.iter().enumerate() {
                let replayed = model.overlap(&d.cfg_seq);
                out.probe(replayed == d.overlaps[i], || {
                    format!(
                        "decision {}: recorded overlap {} on device {i}, but the \
                         replayed residency model says {replayed} — the claimed \
                         score did not exist at decision time",
                        d.submit_index, d.overlaps[i]
                    )
                });
            }
            if fleet.placement == crate::fleet::PlacementKind::ReuseAffinity {
                let best = d.overlaps.iter().copied().max().unwrap_or(0);
                out.probe(d.overlaps[d.device] == best, || {
                    format!(
                        "decision {}: reuse-affinity routed to device {} with \
                         overlap {}, but device {} offered {}",
                        d.submit_index,
                        d.device,
                        d.overlaps[d.device],
                        d.overlaps
                            .iter()
                            .enumerate()
                            .max_by_key(|&(_, &o)| o)
                            .map(|(i, _)| i)
                            .unwrap_or(0),
                        best
                    )
                });
                let min_work = d
                    .overlaps
                    .iter()
                    .zip(&d.queued_work)
                    .filter(|(&o, _)| o == best)
                    .map(|(_, &w)| w)
                    .min();
                out.probe(Some(d.queued_work[d.device]) == min_work, || {
                    format!(
                        "decision {}: reuse-affinity broke the overlap tie toward \
                         device {} with queued work {}, not the least-loaded \
                         candidate ({:?})",
                        d.submit_index, d.device, d.queued_work[d.device], min_work
                    )
                });
            }
            models[d.device].admit(&d.cfg_seq);
        }
    }
}

/// The [`FleetStats`](crate::fleet::FleetStats) roll-up is a pure
/// function of its parts: totals equal the per-device `RunStats` sums,
/// the per-tenant ledger sums to the totals and re-derives from the
/// admission event stream, and the makespan is the device maximum.
struct FleetAccounting;

impl Checker for FleetAccounting {
    fn name(&self) -> &'static str {
        "fleet-accounting"
    }
    fn description(&self) -> &'static str {
        "FleetStats equals the sum of the per-device RunStats ledgers"
    }
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput) {
        let Some(fleet) = cx.fleet else {
            return;
        };
        let s = fleet.stats;
        out.probe(s.balanced(), || {
            format!(
                "FleetStats roll-up out of balance: {} devices, totals \
                 submitted={} admitted={} rejected={} completed={} \
                 executed={} reuses={} loads={} makespan={}",
                s.devices,
                s.submitted,
                s.admitted,
                s.rejected,
                s.completed,
                s.executed,
                s.reuses,
                s.loads,
                s.makespan
            )
        });
        out.probe(s.devices == fleet.device_rus.len(), || {
            format!(
                "FleetStats reports {} devices, fleet config has {}",
                s.devices,
                fleet.device_rus.len()
            )
        });
        // Re-derive the admission ledger from the event stream.
        let mut submitted = 0u64;
        let mut admitted = 0u64;
        let mut per_tenant: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for ev in fleet.admissions {
            submitted += 1;
            let t = per_tenant.entry(ev.tenant.0).or_insert((0, 0));
            t.0 += 1;
            if ev.admitted {
                admitted += 1;
                t.1 += 1;
            }
        }
        out.probe((submitted, admitted) == (s.submitted, s.admitted), || {
            format!(
                "admission events tally {submitted} submitted / {admitted} \
                     admitted, FleetStats says {} / {}",
                s.submitted, s.admitted
            )
        });
        out.probe(s.per_tenant.len() == per_tenant.len(), || {
            format!(
                "{} tenant ledger rows, but {} tenants appear in the \
                 admission events",
                s.per_tenant.len(),
                per_tenant.len()
            )
        });
        for row in &s.per_tenant {
            let (sub, adm) = per_tenant.get(&row.tenant).copied().unwrap_or((0, 0));
            out.probe((row.submitted, row.admitted) == (sub, adm), || {
                format!(
                    "tenant {} ledger says submitted={} admitted={}, the \
                         admission events tally {sub} / {adm}",
                    row.tenant, row.submitted, row.admitted
                )
            });
        }
        // Placed jobs must cover exactly the admitted ones when
        // decisions were recorded.
        if !fleet.decisions.is_empty() || s.admitted == 0 {
            out.probe(fleet.decisions.len() as u64 == s.admitted, || {
                format!(
                    "{} placement decisions recorded for {} admitted jobs",
                    fleet.decisions.len(),
                    s.admitted
                )
            });
            let mut per_device = vec![0u64; s.devices];
            for d in fleet.decisions {
                if let Some(n) = per_device.get_mut(d.device) {
                    *n += 1;
                }
            }
            for (i, dev) in s.per_device.iter().enumerate() {
                out.probe(dev.graph_completions.len() as u64 == per_device[i], || {
                    format!(
                        "device {i} completed {} graphs but was routed {}",
                        dev.graph_completions.len(),
                        per_device[i]
                    )
                });
            }
        }
    }
}
