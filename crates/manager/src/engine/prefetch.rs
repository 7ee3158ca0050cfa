//! Reuse-aware configuration prefetching: the speculative lane of the
//! single reconfiguration port.
//!
//! The paper's hybrid manager interleaves replacement with loading
//! configurations *in advance of demand* whenever the reconfiguration
//! circuitry is idle. Done naively, prefetching destroys exactly the
//! reuse that replacement fought to keep — the Fig. 3 hazard: eagerly
//! loading T5 into the RU that still holds reusable T1 turns a
//! zero-cost reuse into a full reload. The planner here is therefore
//! *reuse-aware*, built on the same [`ReuseIndex`] the replacement
//! module queries:
//!
//! 1. **What to fetch** — the nearest distinct upcoming configurations
//!    of the visible window (the current graph's unissued requests,
//!    blocked head included, then the arrived backlog up to the
//!    configured `Lookahead`), via
//!    [`ReuseIndex::next_k_configs`], skipping anything already
//!    resident. The window is clamped to [`PREFETCH_HORIZON`] requests
//!    so a planning round never degenerates into a full-stream scan.
//! 2. **Where to put it** — an empty RU if one exists; otherwise the
//!    unclaimed resident whose configuration has the *farthest* next
//!    use (never reappearing beats everything; ties break on the lower
//!    RU index, like the demand path's policies).
//! 3. **The guard** — a speculative load may evict a resident
//!    configuration only when that resident's next use is *strictly
//!    farther* than the fetched configuration's. Anything else would
//!    trade a nearer reuse away for a farther one — the validator
//!    enforces this on every recorded trace.
//! 4. **Demand always wins** — a speculative load only starts on an
//!    idle port after the demand path declined it, and is cancelled
//!    mid-write the moment a demand load needs the port
//!    ([`ManagerState::cancel_prefetch`]). The one exception: when the
//!    demand path wants the very configuration that is being
//!    prefetched, it *coalesces* — waiting for the in-flight write to
//!    finish is strictly cheaper than aborting and restarting it.
//!
//! With `PrefetchConfig::off()` (the default) none of this code runs
//! and the engine is bit-exact with the pre-prefetch golden outputs.
//!
//! [`ReuseIndex`]: crate::ReuseIndex
//! [`ReuseIndex::next_k_configs`]: crate::ReuseIndex::next_k_configs

use super::ManagerState;
use crate::trace::TraceEvent;
use rtr_hw::{LoadLane, RuId};
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;
use std::mem;

/// Upper bound on the number of window requests one planning round may
/// scan while looking for its `depth` distinct candidates. Keeps the
/// idle-port planner O(1)-ish per event even when a clairvoyant
/// (`Lookahead::All`) run has thousands of backlog jobs indexed.
pub(crate) const PREFETCH_HORIZON: usize = 256;

impl ManagerState {
    /// One planning round: issue at most one speculative load on the
    /// (idle) port. Called by the demand path whenever it leaves the
    /// port idle; a no-op unless prefetching is enabled.
    pub(crate) fn try_prefetch(&mut self, now: SimTime) {
        debug_assert!(self.controller.is_idle());
        debug_assert!(self.cfg.prefetch.enabled());
        let Some(job) = self.current.as_ref() else {
            // Between graphs (or idle): the index front segment is
            // retired, so there is no well-defined window. The
            // activation firing at this same instant re-enters here.
            return;
        };
        let visible = self.cfg.lookahead.visible_graphs(self.arrived.len());
        // The window starts at `seq_pos` — *including* the head. The
        // planner only runs after the demand path declined the port, so
        // the head is still unissued: on the forced-delay/skip paths
        // its configuration may even be resident-unclaimed, and hiding
        // its request from the guard would let a speculative load evict
        // exactly the configuration demand needs next (the hazard this
        // subsystem exists to prevent). Including it both protects such
        // residents (nearest possible next use — never a legal victim)
        // and lets the planner speculate on a blocked head's missing
        // configuration, which the demand path then claims or coalesces
        // onto.
        let window = self
            .reuse_index
            .window(job.seq_pos, visible)
            .clamp_len(PREFETCH_HORIZON);
        if window.is_empty() {
            return;
        }
        let mut wanted = mem::take(&mut self.prefetch_scratch);
        self.reuse_index
            .next_k_configs(window, self.cfg.prefetch.depth, &mut wanted);
        for &config in &wanted {
            // Resident in any state (loaded, claimed, executing) —
            // nothing to gain. `Loading` cannot occur: the port is idle.
            if self.pool.is_resident(config) {
                continue;
            }
            let target = if let Some(ru) = self.pool.first_empty() {
                Some(ru)
            } else {
                self.prefetch_victim(config, window)
            };
            if let Some(ru) = target {
                self.begin_prefetch(ru, config, now);
                break; // single port: one speculative load at a time
            }
        }
        wanted.clear();
        self.prefetch_scratch = wanted;
    }

    /// The guard and the victim choice: among the unclaimed residents,
    /// the one whose configuration has the farthest next use in
    /// `window` — and only if that next use is *strictly farther* than
    /// `config`'s (a resident absent from the window counts as
    /// farthest: its true next use, if any, lies beyond every in-window
    /// position). Returns `None` when no resident may legally be
    /// evicted for `config`.
    fn prefetch_victim(
        &self,
        config: ConfigId,
        window: crate::reuse_index::ReuseWindow,
    ) -> Option<RuId> {
        let fetch_pos = self
            .reuse_index
            .next_use(config, window)
            .expect("planner candidates come from the window");
        // `None` next use = never reappears in the window = best victim.
        let mut best: Option<(RuId, Option<u64>)> = None;
        for (ru, resident) in self.pool.iter_eviction_candidates() {
            let pos = self.reuse_index.next_use(resident, window);
            let farther = pos.is_none_or(|p| p > fetch_pos);
            if !farther {
                continue;
            }
            let better = match (&best, pos) {
                (None, _) => true,
                // First never-reappearing victim wins ties (lowest RU).
                (Some((_, None)), _) => false,
                (Some((_, Some(_))), None) => true,
                (Some((_, Some(b))), Some(p)) => p > *b,
            };
            if better {
                best = Some((ru, pos));
            }
        }
        best.map(|(ru, _)| ru)
    }

    /// Starts the speculative (cancellable) load of `config` into `ru`.
    fn begin_prefetch(&mut self, ru: RuId, config: ConfigId, now: SimTime) {
        self.note_eviction(ru);
        if self.pool.is_corrupt(ru) {
            // Rewriting an upset resident repairs the unit.
            self.counters.faults.repairs += 1;
        }
        self.pool
            .begin_load(ru, config)
            .expect("prefetch target is empty or an unclaimed candidate");
        self.controller
            .start(ru, config, LoadLane::Speculative, now);
        self.counters.prefetch.issued += 1;
        self.record(|| TraceEvent::PrefetchStart {
            config,
            ru,
            at: now,
        });
    }

    /// The in-flight speculative load finished (the caller already
    /// completed the port operation and integrity-checked it): the
    /// configuration is resident and *unclaimed* — immediately
    /// claimable by the demand path (a hit) and evictable by
    /// replacement (then counted wasted).
    pub(crate) fn finish_prefetch(&mut self, ru: RuId, config: ConfigId, now: SimTime) {
        let loaded = self
            .pool
            .finish_load_unclaimed(ru)
            .expect("speculative load was in flight on this RU");
        debug_assert_eq!(loaded, config);
        self.counters.prefetch.completed += 1;
        self.prefetched[ru.idx()] = true;
        self.counters.speculative_writes += 1;
        self.record(|| TraceEvent::PrefetchEnd {
            config,
            ru,
            at: now,
        });
    }

    /// Aborts the in-flight speculative load because a demand load
    /// needs the port *now*. The partially written RU returns to empty
    /// (and is usually the demand load's own target one line later).
    pub(crate) fn cancel_prefetch(&mut self, now: SimTime) {
        let op = self.controller.cancel(now);
        let discarded = self
            .pool
            .cancel_load(op.ru)
            .expect("speculative load was in flight on this RU");
        debug_assert_eq!(discarded, op.config);
        self.counters.prefetch.cancelled += 1;
        self.record(|| TraceEvent::PrefetchCancel {
            config: op.config,
            ru: op.ru,
            at: now,
        });
    }

    /// Bookkeeping for any eviction (demand or speculative): a resident
    /// that was prefetched and never claimed is now provably wasted.
    pub(crate) fn note_eviction(&mut self, ru: RuId) {
        if self.prefetched[ru.idx()] {
            self.prefetched[ru.idx()] = false;
            self.counters.prefetch.wasted += 1;
        }
    }

    /// Bookkeeping for a reuse claim: a claim on a still-speculative
    /// resident is a prefetch hit (the hidden load latency the planner
    /// bought).
    pub(crate) fn note_claim(&mut self, ru: RuId) {
        if self.prefetched[ru.idx()] {
            self.prefetched[ru.idx()] = false;
            self.counters.prefetch.hits += 1;
        }
    }
}
