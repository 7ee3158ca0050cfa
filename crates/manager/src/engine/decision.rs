//! The replacement module (the paper's Fig. 8): reuse claim / victim
//! selection / skip decision / load, driven by the incremental
//! [`ReuseIndex`](crate::ReuseIndex).
//!
//! The decision path is the engine's hot loop. Where the legacy
//! implementation rebuilt a `FutureView` of the whole visible stream
//! for every decision and let the policy rescan it per candidate
//! (O(stream × candidates)), this module derives a [`ReuseWindow`] —
//! two additions on the shared index — and hands the policy a
//! [`DecisionContext`] whose distance queries are one ordered lookup
//! each: O(candidates · log n) per decision, index shared across
//! consecutive decisions.

use super::{ActiveJob, ManagerState};
use crate::policy::{DecisionContext, ReplacementPolicy};
use crate::reuse_index::ReuseWindow;
use crate::trace::TraceEvent;
use rtr_hw::RuId;
use rtr_sim::SimTime;

/// Outcome of one replacement-module invocation while the pooled
/// candidate buffer is on loan.
enum Decision {
    /// No legal victim: retry at the next event.
    Stall,
    /// Skip Events delayed the reconfiguration to the next event.
    Skip,
    /// Evict the chosen RU and reconfigure into it.
    Evict(RuId),
}

impl ManagerState {
    /// The visible Dynamic-List window of a decision for the current
    /// `job`: the rest of its configuration sequence *after* the entry
    /// being placed now, then the next `lookahead` arrived jobs.
    ///
    /// Only *arrived* jobs are visible — an online manager cannot look
    /// into arrivals that have not happened yet, so even
    /// `Lookahead::All` is clairvoyant only about the enqueued backlog.
    /// In the batch setting every job arrives at t = 0 and this is
    /// exactly the paper's Dynamic List over the remaining sequence.
    fn decision_window(&self, job: &ActiveJob, is_recovery: bool) -> ReuseWindow {
        // A recovery re-load places an already-issued node, so the
        // sequence head itself is still part of the visible future.
        let consumed = job.seq_pos + usize::from(!is_recovery);
        let visible = self.cfg.lookahead.visible_graphs(self.arrived.len());
        self.reuse_index.window(consumed, visible)
    }

    /// The replacement module (Fig. 8) plus the speculative lane:
    /// processes the head of the reconfiguration sequence while the
    /// circuitry is available to demand, then — if the demand path left
    /// the port idle and prefetching is enabled — runs one prefetch
    /// planning round ([`ManagerState::try_prefetch`]).
    pub(crate) fn try_advance<P: ReplacementPolicy + ?Sized>(
        &mut self,
        now: SimTime,
        policy: &mut P,
    ) {
        self.advance_demand(now, policy);
        if self.cfg.prefetch.enabled() && self.controller.is_idle() {
            self.try_prefetch(now);
        }
    }

    /// The demand path: reuse claims cascade (they occupy no
    /// circuitry); at most one load can start (it occupies the
    /// circuitry, cancelling an in-flight speculative load if one holds
    /// the port). A resumed graph's recovery queue is serviced before
    /// the sequence cursor advances — those nodes were already issued
    /// once and lost their placement at suspension.
    fn advance_demand<P: ReplacementPolicy + ?Sized>(&mut self, now: SimTime, policy: &mut P) {
        loop {
            if !self.demand_port_free() {
                return;
            }
            let (node, config, job_idx, forced_delay_pending, is_recovery) = {
                let Some(job) = self.current.as_ref() else {
                    return;
                };
                if let Some(&node) = job.replaced.first() {
                    (node, job.graph().config_of(node), job.idx, false, true)
                } else {
                    if job.seq_pos >= job.tpl.rec_seq.len() {
                        return;
                    }
                    let node = job.tpl.rec_seq[job.seq_pos];
                    let forced = job
                        .forced_delays
                        .as_ref()
                        .is_some_and(|req| job.nodes[node.idx()].forced_skips < req[node.idx()]);
                    (node, job.tpl.cfg_seq[job.seq_pos], job.idx, forced, false)
                }
            };

            // Forced delay probes (design-time mobility calculation,
            // Fig. 6): delay this load by one event, unconditionally.
            if forced_delay_pending {
                let job = self.current.as_mut().expect("checked above");
                job.nodes[node.idx()].forced_skips += 1;
                self.counters.skips += 1;
                self.record(|| TraceEvent::Skip {
                    job: job_idx,
                    node,
                    forced: true,
                    at: now,
                });
                return;
            }

            // Reuse: "the RU has identified that a task can be reused
            // since it was already loaded in a previous execution".
            if self.claim_reuse(node, config, job_idx, !is_recovery, now, policy) {
                if is_recovery {
                    let job = self.current.as_mut().expect("checked above");
                    job.replaced.remove(0);
                }
                continue;
            }

            // The head needs the single port. If a speculative load
            // holds it, either coalesce (the prefetch is writing
            // exactly the configuration the head wants — waiting for
            // the partial write beats aborting and restarting it) or
            // cancel it (demand never queues behind speculation).
            if let Some(op) = self.controller.in_flight() {
                if op.config == config {
                    return; // coalesce: claimed via reuse on completion
                }
                self.cancel_prefetch(now);
            }

            // Pick the destination RU: a free one if it exists,
            // otherwise ask the policy for a victim (Fig. 8 step 2).
            // The candidate list lives in the engine's pooled scratch
            // buffer (taken out for the borrow, returned on every exit).
            let target = if let Some(ru) = self.pool.first_empty() {
                ru
            } else {
                let mut candidates = std::mem::take(&mut self.candidates);
                self.fill_candidates(&mut candidates);
                let outcome = if candidates.is_empty() {
                    // Fig. 8 step 3: no victim — retry at the next event.
                    Decision::Stall
                } else {
                    let job = self.current.as_ref().expect("checked above");
                    let window = self.decision_window(job, is_recovery);
                    let ctx = DecisionContext::indexed(
                        now,
                        config,
                        &candidates,
                        &self.reuse_index,
                        window,
                    );
                    let victim = policy.select_victim(&ctx);
                    let victim_cfg = candidates
                        .iter()
                        .find(|c| c.ru == victim)
                        .unwrap_or_else(|| {
                            panic!(
                                "policy {} returned a non-candidate victim {victim}",
                                policy.name()
                            )
                        })
                        .config;
                    // Fig. 8 steps 4–5: Skip Events. If the victim's
                    // configuration will be requested within the visible
                    // window and the new task still has mobility budget,
                    // delay the reconfiguration to the next event.
                    let do_skip = !is_recovery
                        && self.cfg.skip_events
                        && job.mobility.as_ref().is_some_and(|mob| {
                            mob[node.idx()] > job.skipped_events
                                && self.reuse_index.contains(victim_cfg, window)
                        });
                    if do_skip {
                        Decision::Skip
                    } else {
                        Decision::Evict(victim)
                    }
                };
                self.candidates = candidates;
                match outcome {
                    Decision::Stall => {
                        self.counters.stalls += 1;
                        self.record(|| TraceEvent::Stall {
                            job: job_idx,
                            node,
                            at: now,
                        });
                        return;
                    }
                    Decision::Skip => {
                        let job = self.current.as_mut().expect("checked above");
                        job.skipped_events += 1;
                        self.counters.skips += 1;
                        self.record(|| TraceEvent::Skip {
                            job: job_idx,
                            node,
                            forced: false,
                            at: now,
                        });
                        return;
                    }
                    Decision::Evict(victim) => victim,
                }
            };

            self.begin_reconfiguration(target, node, config, job_idx, !is_recovery, now);
            if is_recovery {
                let job = self.current.as_mut().expect("checked above");
                job.replaced.remove(0);
            }
            // Controller now busy: the loop exits on the next check.
        }
    }
}
