//! Reconfigurable-unit (RU) pool with a checked state machine.
//!
//! State machine per RU:
//!
//! ```text
//!            begin_load                finish_load
//!   Empty ───────────────▶ Loading ───────────────▶ Loaded{claimed}
//!     ▲                                                 │  ▲
//!     │                                begin_execution  │  │ finish_execution
//!     │                                                 ▼  │ (→ unclaimed)
//!     └───(never: configs persist)                   Executing
//!
//!   Loaded{unclaimed} ── try_claim_reuse ──▶ Loaded{claimed}
//!   Loaded{unclaimed} ── begin_load(evict) ─▶ Loading (new config)
//! ```
//!
//! The *claim* flag encodes the eviction rule reverse-engineered from the
//! paper's figures: a configuration is evictable exactly when it is
//! resident and **unclaimed** — i.e. the task that loaded or reused it
//! has already finished executing. (In Fig. 3b, right after task 4
//! finishes, tasks 1 *and* 4 are the two candidates, while the
//! loaded-but-not-run tasks 5 and 6 are not.)

use rtr_sim::DenseIdMap;
use rtr_taskgraph::ConfigId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-configuration bitmasks of the RUs where that configuration is
/// resident *and unclaimed* — the set [`RuPool::find_reusable`] probes
/// once per sequence head, turning the reuse check from an O(RUs) state
/// scan into a `trailing_zeros`. Only maintained for pools of ≤ 64 RUs
/// (one `u64` of mask); larger pools fall back to the scan.
#[derive(Debug, Clone, Default)]
struct ReusableTable {
    masks: DenseIdMap<u64>,
}

impl ReusableTable {
    fn mark(&mut self, config: ConfigId, ru: usize) {
        *self.masks.entry(config.0) |= 1 << ru;
    }

    fn unmark(&mut self, config: ConfigId, ru: usize) {
        *self.masks.entry(config.0) &= !(1 << ru);
    }

    fn mask(&self, config: ConfigId) -> u64 {
        self.masks.get(config.0).copied().unwrap_or(0)
    }
}

/// Index of a reconfigurable unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RuId(pub u16);

impl RuId {
    /// Index usable for slice access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 1-based like the paper's figures (RU1..RU4).
        write!(f, "RU{}", self.0 + 1)
    }
}

/// State of one RU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuState {
    /// Nothing resident (only at system start).
    Empty,
    /// A reconfiguration is writing `config` into this RU.
    Loading {
        /// Configuration being written.
        config: ConfigId,
    },
    /// `config` is resident. `claimed` is true while a pending task of
    /// the active graph owns it (not evictable).
    Loaded {
        /// Resident configuration.
        config: ConfigId,
        /// True while a not-yet-finished task owns the configuration.
        claimed: bool,
    },
    /// The task using `config` is currently executing.
    Executing {
        /// Resident configuration.
        config: ConfigId,
    },
    /// The unit hard-faulted and is out of the pool: nothing resident,
    /// no placement, claim or prefetch may target it until it heals
    /// back to [`RuState::Empty`].
    Quarantined,
}

impl RuState {
    /// The configuration physically present in the RU, if any.
    pub fn resident_config(self) -> Option<ConfigId> {
        match self {
            RuState::Empty | RuState::Quarantined => None,
            RuState::Loading { config }
            | RuState::Loaded { config, .. }
            | RuState::Executing { config } => Some(config),
        }
    }

    /// True when the replacement module may evict this RU's contents.
    pub fn is_eviction_candidate(self) -> bool {
        matches!(self, RuState::Loaded { claimed: false, .. })
    }
}

/// Errors raised on invalid state transitions — these indicate manager
/// bugs, so they carry enough context to debug the event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionError {
    /// The RU on which the transition was attempted.
    pub ru: RuId,
    /// The state it was in.
    pub found: RuState,
    /// What the caller attempted.
    pub attempted: &'static str,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid RU transition: {} on {} in state {:?}",
            self.attempted, self.ru, self.found
        )
    }
}

impl std::error::Error for TransitionError {}

/// The pool of equal-sized RUs.
#[derive(Debug, Clone)]
pub struct RuPool {
    states: Vec<RuState>,
    /// Number of RUs currently in [`RuState::Empty`] — lets the hot
    /// "is there a free RU?" check short-circuit once the pool fills
    /// (only a cancelled speculative load can re-empty an RU).
    empties: usize,
    /// Unclaimed-resident masks per configuration (see
    /// [`ReusableTable`]); maintained only when `mask_tracking`.
    reusable: ReusableTable,
    /// True for pools of ≤ 64 RUs, where one `u64` covers the pool.
    mask_tracking: bool,
    /// Per-RU upset flags: `true` marks a resident, unclaimed bitstream
    /// silently invalidated by an SEU — physically present but never
    /// reusable until the RU is rewritten.
    corrupt: Vec<bool>,
    /// Number of RUs currently in [`RuState::Quarantined`].
    quarantined: usize,
}

impl RuPool {
    /// The largest RU count a pool can index with [`RuId`].
    pub const MAX_RUS: usize = u16::MAX as usize;

    /// Creates `count` empty RUs.
    ///
    /// # Panics
    /// Panics if `count` is zero or exceeds [`RuPool::MAX_RUS`].
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "a reconfigurable system needs at least one RU");
        assert!(count <= Self::MAX_RUS, "RU count exceeds RuId range");
        RuPool {
            states: vec![RuState::Empty; count],
            empties: count,
            reusable: ReusableTable::default(),
            mask_tracking: count <= 64,
            corrupt: vec![false; count],
            quarantined: 0,
        }
    }

    /// Number of RUs.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false (constructor requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// All RU ids in index order.
    pub fn ids(&self) -> impl Iterator<Item = RuId> + '_ {
        (0..self.states.len() as u16).map(RuId)
    }

    /// Current state of `ru`.
    pub fn state(&self, ru: RuId) -> RuState {
        self.states[ru.idx()]
    }

    /// Lowest-indexed empty RU, if any. O(1) when the pool is full —
    /// the steady state of every run after warm-up.
    pub fn first_empty(&self) -> Option<RuId> {
        if self.empties == 0 {
            return None;
        }
        self.ids().find(|&r| self.states[r.idx()] == RuState::Empty)
    }

    /// The RU where `config` is resident and **unclaimed** (available
    /// for a reuse claim), lowest index first. One mask probe plus a
    /// `trailing_zeros` on pools of ≤ 64 RUs; a state scan otherwise.
    fn find_reusable(&self, config: ConfigId) -> Option<RuId> {
        if self.mask_tracking {
            let mask = self.reusable.mask(config);
            if mask == 0 {
                return None;
            }
            let ru = RuId(mask.trailing_zeros() as u16);
            debug_assert!(matches!(
                self.states[ru.idx()],
                RuState::Loaded { config: c, claimed: false } if c == config
            ));
            return Some(ru);
        }
        self.ids().find(|&r| {
            !self.corrupt[r.idx()]
                && matches!(
                    self.states[r.idx()],
                    RuState::Loaded { config: c, claimed: false } if c == config
                )
        })
    }

    /// Claims the lowest-indexed RU where `config` is resident and
    /// unclaimed, if any — the reuse claim the engine's cascade makes
    /// once per sequence head. Upset residents are never claimed.
    pub fn try_claim_reuse(&mut self, config: ConfigId) -> Option<RuId> {
        let ru = self.find_reusable(config)?;
        if self.mask_tracking {
            self.reusable.unmark(config, ru.idx());
        }
        self.states[ru.idx()] = RuState::Loaded {
            config,
            claimed: true,
        };
        Some(ru)
    }

    /// Whether `config` is resident anywhere (any state). Upset
    /// residents do not count — their bits are garbage, so a re-fetch
    /// of the same configuration is useful, not redundant.
    pub fn is_resident(&self, config: ConfigId) -> bool {
        self.ids().any(|r| {
            !self.corrupt[r.idx()] && self.states[r.idx()].resident_config() == Some(config)
        })
    }

    /// Eviction candidates with their resident configurations, in
    /// RU-index order (the paper's tie-break: "Local LFD selects the
    /// first candidate it finds").
    pub fn iter_eviction_candidates(&self) -> impl Iterator<Item = (RuId, ConfigId)> + '_ {
        self.ids().filter_map(|r| match self.states[r.idx()] {
            RuState::Loaded {
                config,
                claimed: false,
            } => Some((r, config)),
            _ => None,
        })
    }

    /// Starts loading `config` into `ru`, evicting any unclaimed
    /// resident configuration.
    pub fn begin_load(&mut self, ru: RuId, config: ConfigId) -> Result<(), TransitionError> {
        match self.states[ru.idx()] {
            RuState::Empty => {
                self.empties -= 1;
                self.states[ru.idx()] = RuState::Loading { config };
                Ok(())
            }
            RuState::Loaded {
                config: evicted,
                claimed: false,
            } => {
                if self.mask_tracking {
                    self.reusable.unmark(evicted, ru.idx());
                }
                // Rewriting the unit repairs any pending upset.
                self.corrupt[ru.idx()] = false;
                self.states[ru.idx()] = RuState::Loading { config };
                Ok(())
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "begin_load",
            }),
        }
    }

    /// Completes the in-flight load; the new configuration starts out
    /// claimed by the task that requested it.
    pub fn finish_load(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loading { config } => {
                self.states[ru.idx()] = RuState::Loaded {
                    config,
                    claimed: true,
                };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "finish_load",
            }),
        }
    }

    /// Completes the in-flight load *unclaimed* — the landing state of a
    /// speculative prefetch: no task owns the configuration yet, so it
    /// is immediately a reuse and eviction candidate.
    pub fn finish_load_unclaimed(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loading { config } => {
                if self.mask_tracking {
                    self.reusable.mark(config, ru.idx());
                }
                self.states[ru.idx()] = RuState::Loaded {
                    config,
                    claimed: false,
                };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "finish_load_unclaimed",
            }),
        }
    }

    /// Aborts an in-flight load: the partially written bitstream is
    /// discarded and the RU returns to [`RuState::Empty`] (whatever was
    /// resident before was already evicted at load start). Used when a
    /// demand load cancels a speculative prefetch mid-write.
    pub fn cancel_load(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loading { config } => {
                self.states[ru.idx()] = RuState::Empty;
                self.empties += 1;
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "cancel_load",
            }),
        }
    }

    /// Moves a claimed RU into execution.
    pub fn begin_execution(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loaded {
                config,
                claimed: true,
            } => {
                self.states[ru.idx()] = RuState::Executing { config };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "begin_execution",
            }),
        }
    }

    /// Revokes an in-flight execution — the preemption path. The task
    /// stops immediately; its configuration stays resident and becomes
    /// **unclaimed** (a reuse and eviction candidate), so a preemptor
    /// can always find a victim RU. Whether the interrupted work is
    /// replayed from scratch (kill) or resumed from a checkpoint is the
    /// manager's accounting, not the pool's.
    pub fn revoke_execution(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Executing { config } => {
                if self.mask_tracking {
                    self.reusable.mark(config, ru.idx());
                }
                self.states[ru.idx()] = RuState::Loaded {
                    config,
                    claimed: false,
                };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "revoke_execution",
            }),
        }
    }

    /// Releases a claim without executing — the other preemption path:
    /// a configuration placed for a task that has not started yet is
    /// handed back to the pool (resident, unclaimed) when its graph is
    /// suspended. The suspended job re-claims it on resume if it is
    /// still there.
    pub fn release_claim(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loaded {
                config,
                claimed: true,
            } => {
                if self.mask_tracking {
                    self.reusable.mark(config, ru.idx());
                }
                self.states[ru.idx()] = RuState::Loaded {
                    config,
                    claimed: false,
                };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "release_claim",
            }),
        }
    }

    /// Finishes execution; the configuration stays resident, unclaimed
    /// (it becomes a reuse and eviction candidate).
    pub fn finish_execution(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Executing { config } => {
                if self.mask_tracking {
                    self.reusable.mark(config, ru.idx());
                }
                self.states[ru.idx()] = RuState::Loaded {
                    config,
                    claimed: false,
                };
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "finish_execution",
            }),
        }
    }

    /// Marks the resident, unclaimed bitstream of `ru` as upset: it
    /// stays physically present (and evictable) but stops counting as
    /// reusable or resident until the unit is rewritten or
    /// quarantined. Returns the invalidated configuration.
    pub fn mark_corrupt(&mut self, ru: RuId) -> Result<ConfigId, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Loaded {
                config,
                claimed: false,
            } if !self.corrupt[ru.idx()] => {
                if self.mask_tracking {
                    self.reusable.unmark(config, ru.idx());
                }
                self.corrupt[ru.idx()] = true;
                Ok(config)
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "mark_corrupt",
            }),
        }
    }

    /// True while `ru` holds an upset (invalid) resident bitstream.
    pub fn is_corrupt(&self, ru: RuId) -> bool {
        self.corrupt[ru.idx()]
    }

    /// Takes `ru` out of the pool after a hard fault or retry
    /// exhaustion. Only quiescent units can be quarantined directly —
    /// the manager revokes executions, releases claims and cancels
    /// in-flight loads first. Returns the discarded resident
    /// configuration, if any.
    pub fn quarantine(&mut self, ru: RuId) -> Result<Option<ConfigId>, TransitionError> {
        match self.states[ru.idx()] {
            RuState::Empty => {
                self.empties -= 1;
                self.quarantined += 1;
                self.states[ru.idx()] = RuState::Quarantined;
                Ok(None)
            }
            RuState::Loaded {
                config,
                claimed: false,
            } => {
                if self.mask_tracking {
                    self.reusable.unmark(config, ru.idx());
                }
                self.corrupt[ru.idx()] = false;
                self.quarantined += 1;
                self.states[ru.idx()] = RuState::Quarantined;
                Ok(Some(config))
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "quarantine",
            }),
        }
    }

    /// Returns a quarantined unit to the pool, empty.
    pub fn heal(&mut self, ru: RuId) -> Result<(), TransitionError> {
        match self.states[ru.idx()] {
            RuState::Quarantined => {
                self.quarantined -= 1;
                self.empties += 1;
                self.states[ru.idx()] = RuState::Empty;
                Ok(())
            }
            found => Err(TransitionError {
                ru,
                found,
                attempted: "heal",
            }),
        }
    }

    /// Number of RUs currently quarantined out of the pool.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// Number of RUs still in service (total minus quarantined).
    pub fn usable_len(&self) -> usize {
        self.states.len() - self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ConfigId = ConfigId(1);
    const C2: ConfigId = ConfigId(2);

    #[test]
    fn fresh_pool_is_all_empty() {
        let pool = RuPool::new(4);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.first_empty(), Some(RuId(0)));
        assert_eq!(pool.iter_eviction_candidates().next(), None);
        assert!(!pool.is_resident(C1));
    }

    #[test]
    fn full_lifecycle() {
        let mut pool = RuPool::new(2);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        assert_eq!(pool.state(ru), RuState::Loading { config: C1 });
        assert!(pool.is_resident(C1));
        assert_eq!(pool.find_reusable(C1), None, "loading is not reusable");

        assert_eq!(pool.finish_load(ru).unwrap(), C1);
        assert!(!pool.state(ru).is_eviction_candidate(), "claimed");

        pool.begin_execution(ru).unwrap();
        assert_eq!(pool.state(ru), RuState::Executing { config: C1 });

        assert_eq!(pool.finish_execution(ru).unwrap(), C1);
        assert!(pool.state(ru).is_eviction_candidate());
        assert_eq!(pool.find_reusable(C1), Some(ru));
        assert!(pool.iter_eviction_candidates().eq([(ru, C1)]));
    }

    #[test]
    fn reuse_claim_cycle() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();

        assert_eq!(pool.try_claim_reuse(C1), Some(ru));
        assert!(!pool.state(ru).is_eviction_candidate());
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();
    }

    #[test]
    fn eviction_replaces_unclaimed_config() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();

        pool.begin_load(ru, C2).unwrap();
        assert!(!pool.is_resident(C1), "old config evicted at load start");
        assert!(pool.is_resident(C2));
    }

    #[test]
    fn cannot_evict_claimed_or_executing() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        // Claimed: eviction rejected.
        let err = pool.begin_load(ru, C2).unwrap_err();
        assert_eq!(err.attempted, "begin_load");
        pool.begin_execution(ru).unwrap();
        // Executing: eviction rejected.
        assert!(pool.begin_load(ru, C2).is_err());
    }

    #[test]
    fn cannot_claim_wrong_or_claimed_config() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        // Claimed already.
        assert_eq!(pool.try_claim_reuse(C1), None);
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();
        // Wrong config.
        assert_eq!(pool.try_claim_reuse(C2), None);
        // Right config, unclaimed.
        assert_eq!(pool.try_claim_reuse(C1), Some(ru));
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        assert!(pool.finish_load(ru).is_err());
        assert!(pool.begin_execution(ru).is_err());
        assert!(pool.finish_execution(ru).is_err());
        assert_eq!(pool.try_claim_reuse(C1), None);
    }

    #[test]
    fn candidates_ordered_by_index() {
        let mut pool = RuPool::new(3);
        for (i, c) in [(0u16, ConfigId(10)), (1, ConfigId(11)), (2, ConfigId(12))] {
            let ru = RuId(i);
            pool.begin_load(ru, c).unwrap();
            pool.finish_load(ru).unwrap();
            pool.begin_execution(ru).unwrap();
            pool.finish_execution(ru).unwrap();
        }
        let order: Vec<RuId> = pool.iter_eviction_candidates().map(|(r, _)| r).collect();
        assert_eq!(order, vec![RuId(0), RuId(1), RuId(2)]);
    }

    #[test]
    fn speculative_load_lands_unclaimed_and_reusable() {
        let mut pool = RuPool::new(2);
        let ru = RuId(1);
        pool.begin_load(ru, C1).unwrap();
        assert_eq!(pool.finish_load_unclaimed(ru).unwrap(), C1);
        assert!(pool.state(ru).is_eviction_candidate());
        assert_eq!(pool.find_reusable(C1), Some(ru));
        // A reuse claim consumes it exactly like a post-execution one.
        assert_eq!(pool.try_claim_reuse(C1), Some(ru));
        assert_eq!(pool.find_reusable(C1), None);
    }

    #[test]
    fn cancelled_load_returns_the_ru_to_empty() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        assert_eq!(pool.first_empty(), None);
        assert_eq!(pool.cancel_load(ru).unwrap(), C1);
        assert_eq!(pool.state(ru), RuState::Empty);
        assert_eq!(pool.first_empty(), Some(ru));
        assert!(!pool.is_resident(C1));
        // Cancelling with nothing loading is rejected.
        assert!(pool.cancel_load(ru).is_err());
    }

    #[test]
    fn revoked_execution_leaves_config_unclaimed_and_reusable() {
        let mut pool = RuPool::new(2);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        // Preempt mid-execution: config stays, claim drops.
        assert_eq!(pool.revoke_execution(ru).unwrap(), C1);
        assert_eq!(
            pool.state(ru),
            RuState::Loaded {
                config: C1,
                claimed: false
            }
        );
        assert!(pool.state(ru).is_eviction_candidate());
        assert_eq!(pool.find_reusable(C1), Some(ru));
        // The suspended owner (or anyone else) can re-claim and run.
        assert_eq!(pool.try_claim_reuse(C1), Some(ru));
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();
        // Revoking a non-executing RU is rejected.
        assert!(pool.revoke_execution(ru).is_err());
        assert!(pool.revoke_execution(RuId(1)).is_err());
    }

    #[test]
    fn released_claim_becomes_candidate_and_reclaims() {
        let mut pool = RuPool::new(1);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap(); // claimed, not yet executing
        assert_eq!(pool.release_claim(ru).unwrap(), C1);
        assert!(pool.state(ru).is_eviction_candidate());
        // Evictable by a preemptor's load...
        assert_eq!(pool.find_reusable(C1), Some(ru));
        // ...or re-claimable by the suspended owner on resume.
        assert_eq!(pool.try_claim_reuse(C1), Some(ru));
        // Releasing an unclaimed or executing RU is rejected.
        pool.begin_execution(ru).unwrap();
        assert!(pool.release_claim(ru).is_err());
        pool.finish_execution(ru).unwrap();
        assert!(pool.release_claim(ru).is_err());
    }

    #[test]
    fn upset_resident_is_not_reusable_until_rewritten() {
        let mut pool = RuPool::new(2);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();
        assert_eq!(pool.find_reusable(C1), Some(ru));

        assert_eq!(pool.mark_corrupt(ru).unwrap(), C1);
        assert!(pool.is_corrupt(ru));
        // The garbage bits are neither reusable nor resident...
        assert_eq!(pool.find_reusable(C1), None);
        assert_eq!(pool.try_claim_reuse(C1), None);
        assert!(!pool.is_resident(C1));
        // ...but the unit is still an eviction candidate, and a rewrite
        // (same or different config) repairs it.
        assert!(pool.iter_eviction_candidates().eq([(ru, C1)]));
        pool.begin_load(ru, C1).unwrap();
        assert!(!pool.is_corrupt(ru));
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();
        assert_eq!(pool.find_reusable(C1), Some(ru));
        // Double upsets and upsets of claimed/executing/empty units are
        // rejected.
        pool.mark_corrupt(ru).unwrap();
        assert!(pool.mark_corrupt(ru).is_err());
        assert!(pool.mark_corrupt(RuId(1)).is_err());
    }

    #[test]
    fn quarantine_removes_and_heal_restores() {
        let mut pool = RuPool::new(2);
        let ru = RuId(0);
        pool.begin_load(ru, C1).unwrap();
        pool.finish_load(ru).unwrap();
        pool.begin_execution(ru).unwrap();
        pool.finish_execution(ru).unwrap();

        assert_eq!(pool.quarantine(ru).unwrap(), Some(C1));
        assert_eq!(pool.state(ru), RuState::Quarantined);
        assert_eq!(pool.quarantined_count(), 1);
        assert_eq!(pool.usable_len(), 1);
        assert!(!pool.is_resident(C1));
        assert_eq!(pool.find_reusable(C1), None);
        assert_eq!(pool.iter_eviction_candidates().next(), None);
        // A quarantined unit accepts no transitions but heal.
        assert!(pool.begin_load(ru, C2).is_err());
        assert!(pool.quarantine(ru).is_err());
        pool.heal(ru).unwrap();
        assert_eq!(pool.state(ru), RuState::Empty);
        assert_eq!(pool.quarantined_count(), 0);
        assert_eq!(pool.first_empty(), Some(ru));
        assert!(pool.heal(ru).is_err());

        // Quarantining an empty unit removes it from the free list.
        let other = RuId(1);
        assert_eq!(pool.quarantine(other).unwrap(), None);
        assert_eq!(pool.first_empty(), Some(ru));
        assert_eq!(pool.usable_len(), 1);
        // Busy units cannot be quarantined directly.
        pool.begin_load(ru, C2).unwrap();
        assert!(pool.quarantine(ru).is_err());
    }

    #[test]
    fn wide_pool_scan_path_matches_mask_path() {
        // Pools over 64 RUs keep no reusable masks and answer queries
        // by scanning states. Drive a 64-RU pool (masks) and a 65-RU
        // pool (scans) through one script on RUs below 64 and compare
        // every query after every step.
        let mut masked = RuPool::new(64);
        let mut scanned = RuPool::new(65);
        assert!(masked.mask_tracking && !scanned.mask_tracking);
        type Step = fn(&mut RuPool) -> String;
        let script: [(&str, Step); 27] = [
            ("load C1 on RU64", |p| {
                format!("{:?}", p.begin_load(RuId(63), C1))
            }),
            ("land it claimed", |p| {
                format!("{:?}", p.finish_load(RuId(63)))
            }),
            ("execute", |p| format!("{:?}", p.begin_execution(RuId(63)))),
            ("finish", |p| format!("{:?}", p.finish_execution(RuId(63)))),
            ("prefetch C1 on RU8", |p| {
                format!("{:?}", p.begin_load(RuId(7), C1))
            }),
            ("land it unclaimed", |p| {
                format!("{:?}", p.finish_load_unclaimed(RuId(7)))
            }),
            ("reuse claim C1", |p| format!("{:?}", p.try_claim_reuse(C1))),
            ("release the claim", |p| {
                format!("{:?}", p.release_claim(RuId(7)))
            }),
            ("load C2 on RU1", |p| {
                format!("{:?}", p.begin_load(RuId(0), C2))
            }),
            ("land it claimed", |p| {
                format!("{:?}", p.finish_load(RuId(0)))
            }),
            ("execute", |p| format!("{:?}", p.begin_execution(RuId(0)))),
            ("finish", |p| format!("{:?}", p.finish_execution(RuId(0)))),
            ("upset RU8", |p| format!("{:?}", p.mark_corrupt(RuId(7)))),
            ("reuse claim C1 again", |p| {
                format!("{:?}", p.try_claim_reuse(C1))
            }),
            ("execute", |p| format!("{:?}", p.begin_execution(RuId(63)))),
            ("revoke", |p| format!("{:?}", p.revoke_execution(RuId(63)))),
            ("quarantine RU1", |p| format!("{:?}", p.quarantine(RuId(0)))),
            ("reuse claim C2 (gone)", |p| {
                format!("{:?}", p.try_claim_reuse(C2))
            }),
            ("heal RU1", |p| format!("{:?}", p.heal(RuId(0)))),
            ("rewrite RU8 with C2", |p| {
                format!("{:?}", p.begin_load(RuId(7), C2))
            }),
            ("cancel the rewrite", |p| {
                format!("{:?}", p.cancel_load(RuId(7)))
            }),
            ("reuse claim C1 (only RU64 holds it)", |p| {
                format!("{:?}", p.try_claim_reuse(C1))
            }),
            ("execute", |p| format!("{:?}", p.begin_execution(RuId(63)))),
            ("finish", |p| format!("{:?}", p.finish_execution(RuId(63)))),
            ("quarantine empty RU32", |p| {
                format!("{:?}", p.quarantine(RuId(31)))
            }),
            ("execute on it (rejected)", |p| {
                format!("{:?}", p.begin_execution(RuId(31)))
            }),
            ("upset RU64", |p| format!("{:?}", p.mark_corrupt(RuId(63)))),
        ];
        for (what, step) in script {
            let out = step(&mut masked);
            assert_eq!(
                out.starts_with("Err"),
                what.contains("rejected"),
                "{what}: {out}"
            );
            assert_eq!(out, step(&mut scanned), "{what}");
            for config in [C1, C2] {
                assert_eq!(
                    masked.find_reusable(config),
                    scanned.find_reusable(config),
                    "{what}: find_reusable({config:?})"
                );
                assert_eq!(
                    masked.clone().try_claim_reuse(config),
                    scanned.clone().try_claim_reuse(config),
                    "{what}: try_claim_reuse({config:?})"
                );
                assert_eq!(
                    masked.is_resident(config),
                    scanned.is_resident(config),
                    "{what}: is_resident({config:?})"
                );
            }
            assert!(
                masked
                    .iter_eviction_candidates()
                    .eq(scanned.iter_eviction_candidates()),
                "{what}: eviction candidates"
            );
        }
    }

    #[test]
    fn display_is_one_based() {
        assert_eq!(RuId(0).to_string(), "RU1");
        assert_eq!(RuId(3).to_string(), "RU4");
    }

    #[test]
    #[should_panic]
    fn zero_rus_rejected() {
        let _ = RuPool::new(0);
    }
}
