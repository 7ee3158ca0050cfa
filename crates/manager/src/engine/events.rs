//! The engine's event alphabet and per-event dispatch — the paper's
//! Fig. 4 pseudo-code, one match arm per line group.

use super::{ActiveJob, ManagerState, Placement};
use crate::job::JobSpec;
use crate::policy::ReplacementPolicy;
use crate::trace::TraceEvent;
use rtr_hw::{LoadLane, RuId};
use rtr_sim::SimTime;
use rtr_taskgraph::NodeId;

/// Same-time event ordering (lower fires first): task completions are
/// observed before reconfiguration completions, then arrivals enter the
/// online queue, and graph activations happen after all same-instant
/// completions and arrivals.
pub(crate) const PRIO_END_OF_EXECUTION: u8 = 0;
pub(crate) const PRIO_END_OF_RECONFIGURATION: u8 = 1;
pub(crate) const PRIO_JOB_ARRIVAL: u8 = 2;
pub(crate) const PRIO_NEW_TASK_GRAPH: u8 = 3;
/// RU repairs land after every same-instant completion, arrival and
/// activation — a healed unit serves the *next* decision, never the
/// one already being made at its instant.
pub(crate) const PRIO_RU_HEAL: u8 = 4;

/// Events driving the manager.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Job `idx` enters the online queue.
    JobArrival { idx: usize },
    /// The top of the suspended stack resumes, or the next waiting job
    /// in service order (the head of the highest non-empty lane) becomes
    /// current.
    NewTaskGraph,
    /// The port's in-flight reconfiguration finished, on either lane
    /// (the port's [`InFlight`](rtr_hw::InFlight) record says which).
    EndOfReconfiguration,
    /// A task finished executing. `token` is the RU's execution
    /// generation at start time: a preemption that revokes the
    /// execution bumps the RU's counter, so this event arrives stale
    /// and is dropped. Always zero with preemption off.
    EndOfExecution { ru: RuId, node: NodeId, token: u64 },
    /// A quarantined RU finished its repair and rejoins the pool
    /// (fault plans with a repair latency only).
    RuHeal { ru: RuId },
}

impl ManagerState {
    /// Dispatches one event (the body of the paper's Fig. 4). Generic
    /// over the policy type so concrete-policy runs
    /// ([`Engine::run`](crate::Engine::run)) monomorphise the whole
    /// event loop — the per-event callback fan-out inlines instead of
    /// going through vtable dispatch.
    pub(crate) fn handle<P: ReplacementPolicy + ?Sized>(
        &mut self,
        ev: Event,
        now: SimTime,
        jobs: &[JobSpec],
        policy: &mut P,
    ) {
        match ev {
            Event::JobArrival { idx } => {
                self.admit_arrival(idx, jobs[idx].qos.priority, now);
                if self.current.is_none() {
                    // Idle manager: resume by activating at this instant
                    // (unless a same-instant activation is already
                    // pending — the slot holds at most one).
                    if self.pending_activation.is_none() {
                        self.pending_activation = Some(now);
                    }
                } else if self.cfg.preemption.enabled()
                    && self
                        .current
                        .as_ref()
                        .is_some_and(|j| jobs[idx].qos.priority > j.priority)
                {
                    // A strictly-higher-priority arrival suspends the
                    // running graph (immediately, or once the in-flight
                    // demand load lands); the activation slot then picks
                    // the highest-priority waiter at this same instant.
                    self.request_preemption(now);
                    if self.current.is_some() {
                        self.try_advance(now, policy);
                    }
                } else {
                    // The Dynamic List just grew: a stalled or skipped
                    // reconfiguration of the current graph may retry at
                    // this event.
                    self.try_advance(now, policy);
                }
            }
            Event::NewTaskGraph => {
                debug_assert!(self.current.is_none(), "graphs execute sequentially");
                debug_assert!(
                    self.demand_port_free(),
                    "no cross-graph demand reconfigurations can be in flight \
                     (a speculative prefetch may span the boundary)"
                );
                let best = self.arrived.best();
                let resume = self
                    .suspended
                    .last()
                    .is_some_and(|s| best.is_none_or(|(_, p)| s.priority >= p));
                if resume {
                    self.resume_suspended(now, policy);
                    self.rebuild_reuse_index();
                } else {
                    // Topping the index up is sound exactly while the
                    // service order is one lane's arrival order.
                    let fifo = self.suspended.is_empty() && self.arrived.fifo().is_some();
                    let idx = self.arrived.pop().expect("activation follows an arrival");
                    let job = ActiveJob::new(
                        idx as u32,
                        &jobs[idx],
                        &self.job_templates[idx],
                        &mut self.scratch,
                    );
                    self.record(|| TraceEvent::GraphStart {
                        job: idx as u32,
                        at: now,
                    });
                    self.current = Some(job);
                    policy.on_graph_start(idx as u32, now);
                    if fifo {
                        self.top_up_reuse_index();
                    } else {
                        self.rebuild_reuse_index();
                    }
                }
                self.try_advance(now, policy);
            }
            Event::EndOfReconfiguration => {
                let op = self.controller.complete(now);
                if !self.cfg.faults.is_off() {
                    // Integrity-check the transfer before accepting it.
                    if self.faults.transfer_corrupt(self.cfg.faults.load_fault_pm) {
                        self.fault_corrupt_load(op, now, policy);
                        return;
                    }
                    self.faults.load_attempts = 0;
                }
                let ru = op.ru;
                let LoadLane::Demand(node) = op.lane else {
                    self.finish_prefetch(ru, op.config, now);
                    // The speculative resident may satisfy the head (a
                    // coalesced demand claims it via reuse here), and
                    // the now-idle port may plan the next prefetch.
                    self.try_advance(now, policy);
                    return;
                };
                let config = self
                    .pool
                    .finish_load(ru)
                    .expect("manager drives RU transitions correctly");
                let job_idx = {
                    let job = self
                        .current
                        .as_mut()
                        .expect("loads only happen for the current graph");
                    job.nodes[node.idx()].place = Placement::Placed(ru);
                    job.idx
                };
                self.record(|| TraceEvent::LoadEnd {
                    job: job_idx,
                    node,
                    config,
                    ru,
                    at: now,
                });
                policy.on_load_complete(config, ru, now);
                // A preemption deferred behind this demand load executes
                // now, before the landed task can start (its claim is
                // released and recovered on resume instead).
                if self.pending_preempt {
                    self.pending_preempt = false;
                    self.execute_preemption(now);
                    if self.current.is_none() {
                        return;
                    }
                }
                // Fig. 4 lines 6–8: start the task if it is ready.
                if self.current.as_ref().is_some_and(|j| j.ready(node)) {
                    self.start_execution(node, now, policy);
                }
                // Fig. 4 line 9: invoke the replacement module again.
                self.try_advance(now, policy);
            }
            Event::EndOfExecution { ru, node, token } => {
                if token != self.exec_token[ru.idx()] {
                    // The execution this completion belonged to was
                    // revoked by a preemption; the event is stale.
                    return;
                }
                let config = self
                    .pool
                    .finish_execution(ru)
                    .expect("manager drives RU transitions correctly");
                let (job_idx, done, graph_len) = {
                    let job = self
                        .current
                        .as_mut()
                        .expect("executions only happen for the current graph");
                    job.done_count += 1;
                    job.nodes[node.idx()].place = Placement::Done;
                    (job.idx, job.done_count, job.graph().len())
                };
                self.counters.executed += 1;
                self.record(|| TraceEvent::ExecEnd {
                    job: job_idx,
                    node,
                    config,
                    ru,
                    at: now,
                });
                policy.on_exec_end(config, now);
                // Fig. 4 lines 11–13: replacement module first, if the
                // reconfiguration circuitry is available to demand (an
                // in-flight speculative load does not block it — the
                // demand path cancels or coalesces as needed).
                if self.demand_port_free() {
                    self.try_advance(now, policy);
                }
                // Fig. 4 line 14: update task dependencies. The ready
                // set goes through the pooled `exec_ready` buffer —
                // this path fires once per executed task, so a fresh
                // Vec here would be a per-task allocation.
                let mut to_start = std::mem::take(&mut self.exec_ready);
                to_start.clear();
                if let Some(job) = self.current.as_mut() {
                    for &s in job.tpl.graph.succs(node) {
                        job.nodes[s.idx()].pending_preds -= 1;
                    }
                    // Fig. 4 lines 15–19: start loaded ready tasks.
                    for &s in job.tpl.graph.succs(node) {
                        if job.ready(s) {
                            to_start.push(s);
                        }
                    }
                }
                for &ready in &to_start {
                    self.start_execution(ready, now, policy);
                }
                to_start.clear();
                self.exec_ready = to_start;
                // Graph completion → resume or activate the next job in
                // service order, or go idle until the next arrival.
                if done == graph_len {
                    self.record(|| TraceEvent::GraphEnd {
                        job: job_idx,
                        at: now,
                    });
                    policy.on_graph_end(job_idx, now);
                    let finished = self.current.take().expect("checked above");
                    self.scratch.reclaim(finished);
                    self.retire_front_job();
                    self.completed_jobs += 1;
                    // QoS ledger: arrivals and completions are pushed
                    // together so positional pairing survives
                    // out-of-order activation; default-class jobs get a
                    // zero-lateness record.
                    let spec = &jobs[job_idx as usize];
                    self.graph_arrivals.push(spec.arrival);
                    self.graph_completions.push(now);
                    let sojourn = now.since(spec.arrival);
                    let lateness = spec
                        .qos
                        .deadline
                        .map_or(rtr_sim::SimDuration::ZERO, |d| now.saturating_since(d));
                    if !lateness.is_zero() {
                        self.counters.qos.deadline_misses += 1;
                        self.counters.qos.tardiness_total += lateness;
                    }
                    self.qos_records
                        .push((spec.qos.priority, sojourn, lateness));
                    self.pending_preempt = false;
                    if self.arrived.len() > 0 || !self.suspended.is_empty() {
                        debug_assert!(
                            self.pending_activation.is_none(),
                            "no activation can pend while a graph was current"
                        );
                        self.pending_activation = Some(now);
                    }
                }
                // Executions are the fault clock: each completion draws
                // once for a resident upset and once for an RU hard
                // fault (no-ops on an inactive plan).
                if !self.cfg.faults.is_off() {
                    self.fault_post_exec(now, policy);
                }
            }
            Event::RuHeal { ru } => self.fault_heal(ru, now, policy),
        }
    }
}
