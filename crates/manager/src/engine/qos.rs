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
//! top resumes at the first activation instant at which no waiting
//! arrival outranks it.

use super::{ManagerState, Placement};
use crate::policy::ReplacementPolicy;
use crate::qos::PreemptionMode;
use crate::trace::TraceEvent;
use rtr_sim::SimTime;
use std::sync::Arc;

impl ManagerState {
    /// Requests a preemption of the current graph. If a demand load is
    /// in flight the request is deferred until that load lands (the
    /// single port cannot abandon a demand reconfiguration mid-frame);
    /// otherwise it executes immediately.
    pub(crate) fn request_preemption(&mut self, now: SimTime) {
        if !self.demand_port_free() {
            self.pending_preempt = true;
            return;
        }
        self.execute_preemption(now);
    }

    /// Suspends the current graph if the trigger still holds (a waiting
    /// arrival strictly out-prioritises it); re-checking makes deferred
    /// requests self-healing. The preemptor is not activated here — the
    /// standard activation slot fires at the same instant and picks the
    /// highest-priority waiter, which also handles several same-instant
    /// arrivals correctly.
    pub(crate) fn execute_preemption(&mut self, now: SimTime) {
        debug_assert!(self.cfg.preemption.enabled());
        debug_assert!(
            self.demand_port_free(),
            "preemption must not interrupt an in-flight demand load"
        );
        let (Some((preemptor, p)), Some(job)) = (self.arrived.best(), self.current.as_ref()) else {
            return;
        };
        if p <= job.priority {
            return;
        }
        let preemptor = preemptor as u32;
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

    /// Rebuilds the reuse index in service order — current graph first,
    /// then the suspended stack top to bottom, then the lanes — keeping
    /// only the first `index_bound` jobs. Called at every activation
    /// unless nothing is suspended and one lane holds every waiting job.
    pub(crate) fn rebuild_reuse_index(&mut self) {
        self.reuse_index.clear();
        let held = self.current.iter().chain(self.suspended.iter().rev());
        let waiting = self.arrived.iter().map(|i| &self.job_templates[i]);
        let tpls = held.map(|job| &job.tpl).chain(waiting);
        for tpl in tpls.take(self.index_bound) {
            self.reuse_index.push_job(Arc::clone(&tpl.cfg_seq));
        }
    }
}
