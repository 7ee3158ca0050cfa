//! Deterministic fault injection and recovery.
//!
//! An active [`FaultPlan`](crate::FaultPlan) threads three hardware
//! fault classes through the engine, each drawn from a SplitMix64
//! stream seeded by the plan (never wall-clock), so every run of the
//! same configuration sees the identical fault schedule:
//!
//! * **Transient load corruption** — a completed reconfiguration
//!   (demand or speculative) fails its integrity check. One handler
//!   serves both port lanes: the load is retried in its lane with
//!   exponential backoff (attempt *k* waits `latency × 2^(k−1)` before
//!   rewriting); a speculative retry stays cancellable by demand,
//!   including for free during the backoff wait. Exhausting the retry
//!   budget condemns the unit (persistent port or cell damage is
//!   indistinguishable from bad luck at that point) and re-queues the
//!   demanded task for placement elsewhere, or closes the prefetch as
//!   cancelled.
//! * **Resident upsets** — an SEU silently flips a resident, unclaimed
//!   configuration. Residency stops counting it reusable, so the next
//!   request misses and the rewrite repairs the unit lazily.
//! * **RU hard faults** — a unit dies outright. In-flight execution is
//!   revoked through the same token machinery preemption uses, the
//!   task re-queues on the recovery lane, and the unit is quarantined
//!   out of the pool — healing after the plan's repair latency, if one
//!   is configured.
//!
//! With the default [`FaultPlan::off`](crate::FaultPlan::off) none of
//! this code runs and the engine stays bit-exact with the fault-free
//! golden outputs.

use super::{ActiveJob, Event, ManagerState, Placement, PRIO_RU_HEAL};
use crate::policy::ReplacementPolicy;
use crate::trace::{FaultKind, TraceEvent};
use rtr_hw::{InFlight, LoadLane, RuId, RuState};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::NodeId;

/// Per-run fault state: the deterministic draw stream, the retry
/// counter of the single in-flight load and the degradation clock.
/// The fault counts live in the engine's ledger (`Counters::faults`).
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    /// SplitMix64 state, reseeded from the plan at every run start.
    rng: u64,
    /// Attempts of the in-flight load so far (0 = first try pending).
    pub(crate) load_attempts: u8,
    /// When the pool entered its current degraded (≥ 1 quarantined)
    /// stretch, if it is in one.
    pub(crate) degraded_since: Option<SimTime>,
    /// Closed degraded stretches accumulated so far this run.
    pub(crate) degraded: SimDuration,
}

impl FaultRuntime {
    /// A fresh runtime for a plan seeded with `seed`.
    pub(crate) fn seeded(seed: u64) -> Self {
        FaultRuntime {
            rng: seed,
            ..FaultRuntime::default()
        }
    }

    /// Next draw of the SplitMix64 stream.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Per-mille Bernoulli draw; consumes no stream state when the
    /// class is disabled.
    pub(crate) fn roll(&mut self, pm: u16) -> bool {
        pm > 0 && self.next() % 1000 < u64::from(pm)
    }

    /// Draws whether the just-completed transfer came back corrupt. A
    /// corrupt transfer also draws a salt (the corrupted byte). Nothing
    /// reads it, but skipping the draw would shift every later one and
    /// change every fault schedule.
    pub(crate) fn transfer_corrupt(&mut self, pm: u16) -> bool {
        if !self.roll(pm) {
            return false;
        }
        let _salt = self.next();
        true
    }
}

/// Re-queues `node` on its job's recovery lane (kept in
/// reconfiguration-sequence order) after its placement was lost to a
/// fault, forgetting the placement.
fn requeue(job: &mut ActiveJob, node: NodeId) {
    let place = &mut job.nodes[node.idx()].place;
    debug_assert!(*place != Placement::Done, "completed work cannot be lost");
    *place = Placement::Unplaced;
    let at = {
        let seq = &job.tpl.rec_seq;
        let pos = |x: NodeId| seq.iter().position(|&s| s.idx() == x.idx());
        let mine = pos(node);
        job.replaced
            .iter()
            .position(|&r| pos(r) > mine)
            .unwrap_or(job.replaced.len())
    };
    job.replaced.insert(at, node);
}

impl ManagerState {
    /// Handles a corrupt load completion on either lane: re-arm a
    /// backoff retry on the port in the load's lane (a speculative
    /// retry stays cancellable by demand), or give up and quarantine
    /// the unit. Giving up re-queues a demanded node for placement
    /// elsewhere and closes a prefetch as cancelled.
    pub(crate) fn fault_corrupt_load<P: ReplacementPolicy + ?Sized>(
        &mut self,
        InFlight {
            ru, config, lane, ..
        }: InFlight,
        now: SimTime,
        policy: &mut P,
    ) {
        self.counters.faults.injected += 1;
        self.record(|| TraceEvent::FaultInject {
            kind: FaultKind::TransientLoad,
            ru,
            config: Some(config),
            at: now,
        });
        let speculative = lane == LoadLane::Speculative;
        if speculative {
            // The corrupt transfer still moved the bits over the bus.
            self.counters.speculative_writes += 1;
        }
        self.faults.load_attempts += 1;
        let attempt = self.faults.load_attempts;
        if attempt <= self.cfg.faults.max_retries {
            let backoff = self.controller.latency() * (1u64 << (attempt - 1));
            let completes = self.controller.start(ru, config, lane, now + backoff);
            if !speculative {
                // A demand rewrite is counted when it starts.
                self.counters.demand_writes += 1;
            }
            self.counters.faults.retries += 1;
            self.record(|| TraceEvent::FaultRetry {
                ru,
                config,
                attempt,
                until: completes,
                at: now,
            });
            return;
        }
        self.faults.load_attempts = 0;
        self.record(|| TraceEvent::FaultGiveUp {
            ru,
            config,
            attempts: attempt,
            at: now,
        });
        self.pool
            .cancel_load(ru)
            .expect("the abandoned load was in flight on this RU");
        match lane {
            LoadLane::Demand(node) => {
                let job = self
                    .current
                    .as_mut()
                    .expect("demand loads belong to the current graph");
                requeue(job, node);
            }
            LoadLane::Speculative => {
                // Close the speculative ledger: issued = completed + cancelled.
                self.counters.prefetch.cancelled += 1;
                self.record(|| TraceEvent::PrefetchCancel {
                    config,
                    ru,
                    at: now,
                });
            }
        }
        self.fault_quarantine(ru, now);
        self.try_advance(now, policy);
    }

    /// Post-execution fault draws: one upset draw, then one hard-fault
    /// draw, both across the whole pool. Runs once per (non-stale)
    /// `EndOfExecution` after its normal processing.
    pub(crate) fn fault_post_exec<P: ReplacementPolicy + ?Sized>(
        &mut self,
        now: SimTime,
        policy: &mut P,
    ) {
        let plan = self.cfg.faults;
        if self.faults.roll(plan.upset_pm) {
            let draw = self.faults.next();
            let victim = pick_ru(draw, self.pool.len(), |r| {
                self.pool.state(r).is_eviction_candidate() && !self.pool.is_corrupt(r)
            });
            if let Some(ru) = victim {
                let config = self
                    .pool
                    .mark_corrupt(ru)
                    .expect("upset victims are loaded and unclaimed");
                // A speculative resident dies unclaimed — provably waste.
                self.note_eviction(ru);
                self.counters.faults.injected += 1;
                self.record(|| TraceEvent::FaultInject {
                    kind: FaultKind::Upset,
                    ru,
                    config: Some(config),
                    at: now,
                });
            }
        }
        if self.faults.roll(plan.ru_fault_pm) {
            let draw = self.faults.next();
            let victim = pick_ru(draw, self.pool.len(), |r| {
                !matches!(
                    self.pool.state(r),
                    RuState::Loading { .. } | RuState::Quarantined
                )
            });
            if let Some(ru) = victim {
                self.fault_kill_ru(ru, now);
                if self.current.is_some() {
                    self.try_advance(now, policy);
                }
            }
        }
    }

    /// An RU dies: revoke whatever ran on it, re-queue the lost task on
    /// the recovery lane, quarantine the unit.
    pub(crate) fn fault_kill_ru(&mut self, ru: RuId, now: SimTime) {
        let state = self.pool.state(ru);
        self.counters.faults.injected += 1;
        self.record(|| TraceEvent::FaultInject {
            kind: FaultKind::RuHard,
            ru,
            config: state.resident_config(),
            at: now,
        });
        match state {
            RuState::Executing { .. } => {
                self.pool
                    .revoke_execution(ru)
                    .expect("revoking the killed unit's execution");
                self.exec_token[ru.idx()] += 1;
            }
            RuState::Loaded { claimed: true, .. } => {
                self.pool
                    .release_claim(ru)
                    .expect("releasing the killed unit's claim");
            }
            _ => {}
        }
        // Any live placement of the current graph on this unit is lost;
        // elapsed execution is charged as lost work and the task
        // re-queues for recovery placement. Suspended graphs hold no
        // placements (released at suspension).
        if let Some(job) = self.current.as_mut() {
            let lost = job.nodes.iter().position(|run| match run.place {
                Placement::Placed(r) | Placement::Running { ru: r, .. } => r == ru,
                Placement::Unplaced | Placement::Done => false,
            });
            if let Some(n) = lost {
                if let Placement::Running { start, .. } = job.nodes[n].place {
                    self.counters.faults.lost_work_cycles += now.since(start);
                }
                requeue(job, NodeId(n as u32));
            }
        }
        self.fault_quarantine(ru, now);
    }

    /// Removes `ru` from service: quarantines it in the pool, opens the
    /// degradation clock when it is the first unit out, and schedules
    /// the heal when the plan repairs units.
    pub(crate) fn fault_quarantine(&mut self, ru: RuId, now: SimTime) {
        // An unclaimed prefetched resident dies with the unit.
        self.note_eviction(ru);
        self.pool
            .quarantine(ru)
            .expect("quarantine victims are empty or unclaimed");
        self.counters.faults.quarantines += 1;
        self.record(|| TraceEvent::RuQuarantine { ru, at: now });
        if self.pool.quarantined_count() == 1 {
            self.faults.degraded_since = Some(now);
        }
        if let Some(repair) = self.cfg.faults.repair_latency {
            self.queue
                .push(now + repair, PRIO_RU_HEAL, Event::RuHeal { ru });
        }
    }

    /// A quarantined unit finished its repair: rejoin the pool empty,
    /// close the degradation clock when it was the last unit out, and
    /// let a stalled demand path use the fresh capacity.
    pub(crate) fn fault_heal<P: ReplacementPolicy + ?Sized>(
        &mut self,
        ru: RuId,
        now: SimTime,
        policy: &mut P,
    ) {
        self.pool
            .heal(ru)
            .expect("heal events target quarantined units");
        self.counters.faults.heals += 1;
        self.record(|| TraceEvent::RuHeal { ru, at: now });
        if self.pool.quarantined_count() == 0 {
            if let Some(since) = self.faults.degraded_since.take() {
                self.faults.degraded += now.since(since);
            }
        }
        if self.current.is_some() {
            self.try_advance(now, policy);
        }
    }

    /// Total degraded-pool time, closing a still-open stretch at `end`.
    pub(crate) fn fault_degraded_time(&self, end: SimTime) -> SimDuration {
        match self.faults.degraded_since {
            Some(since) => self.faults.degraded + end.saturating_since(since),
            None => self.faults.degraded,
        }
    }
}

/// Uniform pick (via `draw`) among the RUs satisfying `keep`, or `None`
/// when none does. Two passes, no allocation — fault draws are rare.
fn pick_ru(draw: u64, pool_len: usize, keep: impl Fn(RuId) -> bool) -> Option<RuId> {
    let ids = || (0..pool_len as u16).map(RuId).filter(|&r| keep(r));
    let n = ids().count();
    if n == 0 {
        return None;
    }
    ids().nth((draw % n as u64) as usize)
}
