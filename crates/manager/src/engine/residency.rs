//! Residency transitions: what is loaded where, and when it changes.
//!
//! This module owns every state change of the RU pool (reuse claims,
//! load starts, execution starts) and — because residency decisions are
//! driven by the future request stream — the incremental maintenance of
//! the [`ReuseIndex`](crate::ReuseIndex). The index holds only the jobs
//! a decision window can reach: the first `index_bound` = 1 + w jobs of
//! the service order, where `w` is the lookahead's reach. A job is
//! indexed when it enters that prefix (at arrival, or at the activation
//! that moves it up) and pruned the moment its graph retires, so a
//! backlog of any length costs the index at most 1 + w segments.

use super::events::{Event, PRIO_END_OF_EXECUTION};
use super::{ManagerState, Placement};
use crate::policy::{ReplacementPolicy, VictimCandidate};
use crate::trace::TraceEvent;
use rtr_hw::{LoadLane, RuId};
use rtr_sim::SimTime;
use rtr_taskgraph::{ConfigId, NodeId};
use std::mem;
use std::sync::Arc;

impl ManagerState {
    /// A submitted job's arrival fired: record it and append it to the
    /// online queue. It joins the next-occurrence index only while fewer
    /// than `index_bound` jobs are live: the index then holds every live
    /// job, and an arrival is last in service order until the next
    /// activation re-plans it. The single admission path shared by the
    /// event dispatch and the run loop's same-instant burst fast path,
    /// so per-arrival bookkeeping can never diverge between the two.
    pub(crate) fn admit_arrival(&mut self, idx: usize, priority: u8, now: SimTime) {
        self.record(|| TraceEvent::JobArrival {
            job: idx as u32,
            at: now,
        });
        let live = usize::from(self.current.is_some()) + self.suspended.len() + self.arrived.len();
        if live < self.index_bound {
            self.reuse_index
                .push_job(Arc::clone(&self.job_templates[idx].cfg_seq));
        }
        self.arrived.push(priority, idx);
    }

    /// An activation made the head of the one busy lane current, with
    /// nothing suspended: the index holds a prefix of `[current] + lane`
    /// (one job short of `index_bound` after the retire), so append the
    /// jobs that follow it until it is full again — in steady state one
    /// job. An index that already holds every live job costs no walk
    /// over the lane.
    pub(crate) fn top_up_reuse_index(&mut self) {
        if self.reuse_index.is_empty() {
            let job = self
                .current
                .as_ref()
                .expect("activation made a job current");
            self.reuse_index.push_job(Arc::clone(&job.tpl.cfg_seq));
        }
        // The index holds the current job and `lane[..held - 1]`.
        let held = self.reuse_index.jobs();
        if let Some(lane) = self.arrived.fifo() {
            for &i in lane.range(held - 1..).take(self.index_bound - held) {
                self.reuse_index
                    .push_job(Arc::clone(&self.job_templates[i].cfg_seq));
            }
        }
        #[cfg(test)]
        {
            let topped = self.reuse_index.clone();
            self.rebuild_reuse_index();
            assert!(
                topped.sequences().eq(self.reuse_index.sequences()),
                "a top-up must index exactly what a rebuild does"
            );
            self.reuse_index = topped;
        }
    }

    /// The current graph completed: drop its (fully consumed) segment
    /// from the index. The activation at this instant refills it.
    pub(crate) fn retire_front_job(&mut self) {
        self.reuse_index.retire_front();
    }

    /// Attempts the reuse claim of Fig. 8 step 1 for the sequence head:
    /// if `config` is resident and unclaimed, claim it (zero latency,
    /// zero energy), advance the sequence (unless this is a recovery
    /// re-claim of an already-issued node — `advance_seq` false) and
    /// start the task when ready. Returns `true` when the claim
    /// happened.
    pub(crate) fn claim_reuse<P: ReplacementPolicy + ?Sized>(
        &mut self,
        node: NodeId,
        config: ConfigId,
        job_idx: u32,
        advance_seq: bool,
        now: SimTime,
        policy: &mut P,
    ) -> bool {
        let Some(ru) = self.pool.try_claim_reuse(config) else {
            return false;
        };
        self.note_claim(ru);
        {
            let job = self.current.as_mut().expect("reuse needs a current job");
            job.nodes[node.idx()].place = Placement::Placed(ru);
            if advance_seq {
                job.seq_pos += 1;
            }
        }
        self.counters.reuses += 1;
        self.record(|| TraceEvent::Reuse {
            job: job_idx,
            node,
            config,
            ru,
            at: now,
        });
        policy.on_reuse(config, ru, now);
        if self.current.as_ref().is_some_and(|j| j.ready(node)) {
            self.start_execution(node, now, policy);
        }
        true
    }

    /// Fills `out` with the legal eviction victims: every unclaimed
    /// resident configuration, in RU-index order. The caller passes the
    /// pooled scratch buffer — the decision path runs once per load, so
    /// a fresh Vec here would be a per-load allocation.
    pub(crate) fn fill_candidates(&self, out: &mut Vec<VictimCandidate>) {
        out.clear();
        out.extend(
            self.pool
                .iter_eviction_candidates()
                .map(|(ru, config)| VictimCandidate { ru, config }),
        );
    }

    /// Fig. 8 steps 6–7: triggers the reconfiguration of `config` into
    /// `target` and removes the task from the sequence. The caller
    /// guarantees the circuitry is idle and `target` is empty or an
    /// unclaimed candidate.
    pub(crate) fn begin_reconfiguration(
        &mut self,
        target: RuId,
        node: NodeId,
        config: ConfigId,
        job_idx: u32,
        advance_seq: bool,
        now: SimTime,
    ) {
        self.note_eviction(target);
        if self.pool.is_corrupt(target) {
            // Rewriting an upset resident repairs the unit.
            self.counters.faults.repairs += 1;
        }
        self.pool
            .begin_load(target, config)
            .expect("target RU is empty or an unclaimed candidate");
        self.controller
            .start(target, config, LoadLane::Demand(node), now);
        if advance_seq {
            let job = self.current.as_mut().expect("loads need a current job");
            job.seq_pos += 1;
        }
        self.counters.loads += 1;
        self.counters.demand_writes += 1;
        self.record(|| TraceEvent::LoadStart {
            job: job_idx,
            node,
            config,
            ru: target,
            at: now,
        });
    }

    /// Starts executing `node` on its claimed RU (Fig. 4 lines 6–8 and
    /// 15–19). A checkpointed node runs for its saved remainder plus
    /// one reconfiguration latency (the context-restore penalty)
    /// instead of its full design-time execution time.
    pub(crate) fn start_execution<P: ReplacementPolicy + ?Sized>(
        &mut self,
        node: NodeId,
        now: SimTime,
        policy: &mut P,
    ) {
        let restore_penalty = self.cfg.device.reconfig_latency;
        let (ru, idx, end) = {
            let job = self.current.as_mut().expect("start_execution needs a job");
            let run = &mut job.nodes[node.idx()];
            let Placement::Placed(ru) = run.place else {
                panic!("ready tasks hold an RU");
            };
            let dur = if run.resume_left.is_zero() {
                job.tpl.graph.exec_time(node)
            } else {
                mem::take(&mut run.resume_left) + restore_penalty
            };
            let end = now + dur;
            run.place = Placement::Running {
                ru,
                start: now,
                end,
            };
            (ru, job.idx, end)
        };
        let config = self
            .pool
            .begin_execution(ru)
            .expect("ready tasks hold a claimed RU");
        let token = self.exec_token[ru.idx()];
        self.queue.push(
            end,
            PRIO_END_OF_EXECUTION,
            Event::EndOfExecution { ru, node, token },
        );
        self.record(|| TraceEvent::ExecStart {
            job: idx,
            node,
            config,
            ru,
            at: now,
        });
        policy.on_exec_start(config, now);
    }
}
