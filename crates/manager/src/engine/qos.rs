//! Preemption and resume machinery for QoS-class scheduling.
//!
//! A strictly-higher-priority arrival may suspend the running graph
//! (policy-gated by [`PreemptionMode`](crate::qos::PreemptionMode)):
//!
//! * **Checkpoint** — in-flight executions are revoked and their
//!   remainders saved; on resume each checkpointed node re-runs for
//!   `remainder + reconfig latency` (the restore penalty).
//! * **Kill** — in-flight executions are revoked and discarded; the
//!   elapsed part is charged to `lost_work_cycles` and the node replays
//!   in full from its last completed predecessor frontier.
//!
//! In both modes, loaded-but-idle claims are released and every
//! not-yet-done placement is forgotten; a resumed graph re-places them
//! through its recovery queue ([`ActiveJob::replaced`]) before its
//! sequence cursor advances, re-claiming residents where possible
//! (counted as reuses) and re-loading otherwise.
//!
//! Suspended graphs stack LIFO; because only a strictly higher priority
//! preempts, priority increases toward the top of the stack, and the
//! top resumes as soon as it out-prioritises every waiting arrival at
//! an activation instant.

use super::{ManagerState, Placement};
use crate::job::JobSpec;
use crate::policy::ReplacementPolicy;
use crate::qos::PreemptionMode;
use crate::trace::TraceEvent;
use rtr_sim::SimTime;
use std::cmp::Reverse;
use std::mem;
use std::sync::Arc;

impl ManagerState {
    /// The waiting arrival with the highest lane priority: returns its
    /// position in `arrived` and its priority. Ties keep the earliest
    /// arrival, so uniform-priority runs always pick position 0 — the
    /// legacy FIFO pop. The scan is gated on `qos_lanes` to keep the
    /// default path O(1).
    pub(crate) fn best_arrived(&self, jobs: &[JobSpec]) -> Option<(usize, u8)> {
        let &front = self.arrived.front()?;
        if !self.qos_lanes {
            return Some((0, jobs[front].qos.priority));
        }
        let mut best = (0usize, jobs[front].qos.priority);
        for (k, &i) in self.arrived.iter().enumerate().skip(1) {
            let p = jobs[i].qos.priority;
            if p > best.1 {
                best = (k, p);
            }
        }
        Some(best)
    }

    /// Requests a preemption of the current graph. If a demand load is
    /// in flight the request is deferred until that load lands (the
    /// single port cannot abandon a demand reconfiguration mid-frame);
    /// otherwise it executes immediately.
    pub(crate) fn request_preemption(&mut self, now: SimTime, jobs: &[JobSpec]) {
        if !self.demand_port_free() {
            self.pending_preempt = true;
            return;
        }
        self.execute_preemption(now, jobs);
    }

    /// Suspends the current graph if the trigger still holds (a waiting
    /// arrival strictly out-prioritises it); re-checking makes deferred
    /// requests self-healing. The preemptor is not activated here — the
    /// standard activation slot fires at the same instant and picks the
    /// highest-priority waiter, which also handles several same-instant
    /// arrivals correctly.
    pub(crate) fn execute_preemption(&mut self, now: SimTime, jobs: &[JobSpec]) {
        debug_assert!(self.cfg.preemption.enabled());
        debug_assert!(
            self.demand_port_free(),
            "preemption must not interrupt an in-flight demand load"
        );
        let Some(best) = self.best_arrived(jobs) else {
            return;
        };
        let Some(job) = self.current.as_ref() else {
            return;
        };
        if best.1 <= job.priority {
            return;
        }
        let preemptor = self.arrived[best.0] as u32;
        let mut job = self.current.take().expect("checked above");
        self.counters.qos.preemptions += 1;
        let victim = job.idx;
        self.record(|| TraceEvent::Preempt {
            victim,
            preemptor,
            at: now,
        });
        let kill = matches!(self.cfg.preemption, PreemptionMode::Kill);
        for pos in 0..job.tpl.rec_seq.len() {
            let node = job.tpl.rec_seq[pos];
            let run = &mut job.nodes[node.idx()];
            match run.place {
                Placement::Unplaced | Placement::Done => continue,
                Placement::Placed(ru) => {
                    self.pool
                        .release_claim(ru)
                        .expect("releasing a waiting claim");
                }
                Placement::Running { ru, start, end } => {
                    self.pool
                        .revoke_execution(ru)
                        .expect("revoking an in-flight execution");
                    self.exec_token[ru.idx()] += 1;
                    if kill {
                        self.counters.qos.replayed_nodes += 1;
                        self.counters.qos.lost_work_cycles += now.since(start);
                        self.record(|| TraceEvent::NodeKilled {
                            job: victim,
                            node,
                            ru,
                            at: now,
                        });
                    } else {
                        debug_assert!(end > now, "completion would have fired first");
                        run.resume_left = end.since(now);
                        self.counters.qos.checkpoints += 1;
                        self.record(|| TraceEvent::NodeCheckpointed {
                            job: victim,
                            node,
                            ru,
                            at: now,
                        });
                    }
                }
            }
            // Forget the placement either way; the recovery queue
            // re-places it on resume.
            run.place = Placement::Unplaced;
        }
        self.suspended.push(job);
        self.index_fifo = false;
        if self.pending_activation.is_none() {
            self.pending_activation = Some(now);
        }
    }

    /// Pops the suspended stack's top, queues its recovery work and
    /// makes it current again. Caller must have verified the resume
    /// condition and must rebuild the reuse index afterwards.
    pub(crate) fn resume_suspended<P: ReplacementPolicy + ?Sized>(
        &mut self,
        now: SimTime,
        policy: &mut P,
    ) -> u32 {
        let mut job = self.suspended.pop().expect("resume with empty stack");
        let idx = job.idx;
        self.record(|| TraceEvent::GraphResume { job: idx, at: now });
        // Nodes already past the sequence cursor lost their placements
        // at suspension; queue them for re-claim/re-load in sequence
        // order. Completed nodes stay done.
        job.replaced.clear();
        for pos in 0..job.seq_pos {
            let node = job.tpl.rec_seq[pos];
            if job.nodes[node.idx()].place != Placement::Done {
                job.replaced.push(node);
            }
        }
        self.current = Some(job);
        policy.on_graph_start(idx, now);
        idx
    }

    /// Rebuilds the reuse index in planned service order — current
    /// graph first, then the suspended stack top to bottom, then waiting
    /// arrivals by priority lane (ties in arrival order) — keeping only
    /// the first `index_bound` jobs. Called at every activation once the
    /// FIFO invariant is lost; uniform-priority runs never get here.
    pub(crate) fn rebuild_reuse_index(&mut self, jobs: &[JobSpec]) {
        self.reuse_index.clear();
        for job in self
            .current
            .iter()
            .chain(self.suspended.iter().rev())
            .take(self.index_bound)
        {
            self.reuse_index.push_job(Arc::clone(&job.tpl.cfg_seq));
        }
        let room = (self.index_bound - self.reuse_index.jobs()).min(self.arrived.len());
        if room == 0 {
            return;
        }
        // The keys are unique, so selecting the `room` smallest and
        // sorting only those gives the same prefix as sorting them all.
        let mut order = mem::take(&mut self.lane_order);
        order.clear();
        order.extend(
            self.arrived
                .iter()
                .enumerate()
                .map(|(k, &i)| (Reverse(jobs[i].qos.priority), k)),
        );
        if room < order.len() {
            order.select_nth_unstable(room);
            order.truncate(room);
        }
        order.sort_unstable();
        for &(_, k) in &order {
            let i = self.arrived[k];
            self.reuse_index
                .push_job(Arc::clone(&self.job_templates[i].cfg_seq));
        }
        self.lane_order = order;
    }
}
