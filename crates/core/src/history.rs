//! History-based replacement baselines.
//!
//! LRU is the paper's primary baseline ("the scheduler uses LRU, the
//! reuse rate is very low"). FIFO, MRU, LFU and Random widen the policy
//! mix the vopr fuzzer, the property tests and
//! `examples/multimedia_station.rs` run; no figure uses them. All of
//! them key their state by *configuration* (not RU): the quantity being
//! cached is the bitstream.
//!
//! A configuration counts as "used" when it is loaded, reused, or when
//! a task running it starts or finishes — i.e. recency reflects the
//! last time the configuration was touched by the schedule.

use crate::stamp::ConfigStamp;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtr_hw::RuId;
use rtr_manager::{DecisionContext, ReplacementPolicy};
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;

/// Least Recently Used.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    /// Monotonic touch counter per configuration (larger = more recent).
    last_touch: ConfigStamp,
    clock: u64,
}

impl LruPolicy {
    /// Fresh policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, config: ConfigId) {
        self.clock += 1;
        self.last_touch.set(config, self.clock);
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &str {
        "LRU"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        // Least-recent touch wins; configurations never touched (only
        // possible right after reset) count as touch 0. Ties keep the
        // first (lowest RU).
        let mut best = 0usize;
        let mut best_touch = u64::MAX;
        for (i, cand) in ctx.candidates.iter().enumerate() {
            let touch = self.last_touch.get(cand.config);
            if touch < best_touch {
                best_touch = touch;
                best = i;
            }
        }
        ctx.candidates[best].ru
    }

    fn on_load_complete(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.touch(config);
    }
    fn on_reuse(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.touch(config);
    }
    fn on_exec_start(&mut self, config: ConfigId, _now: SimTime) {
        self.touch(config);
    }
    fn on_exec_end(&mut self, config: ConfigId, _now: SimTime) {
        self.touch(config);
    }
    fn reset(&mut self) {
        self.last_touch.clear();
        self.clock = 0;
    }
}

/// Most Recently Used — pathological for looping workloads, included as
/// an extreme of the policy mix.
#[derive(Debug, Clone, Default)]
pub struct MruPolicy {
    last_touch: ConfigStamp,
    clock: u64,
}

impl MruPolicy {
    /// Fresh policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, config: ConfigId) {
        self.clock += 1;
        self.last_touch.set(config, self.clock);
    }
}

impl ReplacementPolicy for MruPolicy {
    fn name(&self) -> &str {
        "MRU"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let mut best = 0usize;
        let mut best_touch = 0u64;
        for (i, cand) in ctx.candidates.iter().enumerate() {
            let touch = self.last_touch.get(cand.config);
            if touch > best_touch {
                best_touch = touch;
                best = i;
            }
        }
        ctx.candidates[best].ru
    }

    fn on_load_complete(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.touch(config);
    }
    fn on_reuse(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.touch(config);
    }
    fn on_exec_start(&mut self, config: ConfigId, _now: SimTime) {
        self.touch(config);
    }
    fn on_exec_end(&mut self, config: ConfigId, _now: SimTime) {
        self.touch(config);
    }
    fn reset(&mut self) {
        self.last_touch.clear();
        self.clock = 0;
    }
}

/// First In, First Out — evicts the configuration *loaded* longest ago;
/// reuses do not refresh the load time (classic FIFO).
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy {
    loaded_at: ConfigStamp,
    clock: u64,
}

impl FifoPolicy {
    /// Fresh policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let mut best = 0usize;
        let mut best_seq = u64::MAX;
        for (i, cand) in ctx.candidates.iter().enumerate() {
            let seq = self.loaded_at.get(cand.config);
            if seq < best_seq {
                best_seq = seq;
                best = i;
            }
        }
        ctx.candidates[best].ru
    }

    fn on_load_complete(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.clock += 1;
        self.loaded_at.set(config, self.clock);
    }
    fn reset(&mut self) {
        self.loaded_at.clear();
        self.clock = 0;
    }
}

/// Least Frequently Used — evicts the configuration claimed (loaded or
/// reused) the fewest times; ties keep the first candidate.
#[derive(Debug, Clone, Default)]
pub struct LfuPolicy {
    claims: ConfigStamp,
}

impl LfuPolicy {
    /// Fresh policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for LfuPolicy {
    fn name(&self) -> &str {
        "LFU"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let mut best = 0usize;
        let mut best_count = u64::MAX;
        for (i, cand) in ctx.candidates.iter().enumerate() {
            let count = self.claims.get(cand.config);
            if count < best_count {
                best_count = count;
                best = i;
            }
        }
        ctx.candidates[best].ru
    }

    fn on_load_complete(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.claims.set(config, self.claims.get(config) + 1);
    }
    fn on_reuse(&mut self, config: ConfigId, _ru: RuId, _now: SimTime) {
        self.claims.set(config, self.claims.get(config) + 1);
    }
    fn reset(&mut self) {
        self.claims.clear();
    }
}

/// Uniform-random victim, seeded for reproducibility.
#[derive(Debug)]
pub struct RandomPolicy {
    seed: u64,
    rng: StdRng,
}

impl RandomPolicy {
    /// Policy drawing victims from a deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &str {
        "Random"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let i = self.rng.random_range(0..ctx.candidates.len());
        ctx.candidates[i].ru
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_manager::{FutureView, VictimCandidate};

    fn cand(ru: u16, config: u32) -> VictimCandidate {
        VictimCandidate {
            ru: RuId(ru),
            config: ConfigId(config),
        }
    }

    fn ctx_select(policy: &mut dyn ReplacementPolicy, candidates: &[VictimCandidate]) -> RuId {
        let future = FutureView::empty();
        let ctx = DecisionContext::from_view(SimTime::ZERO, ConfigId(99), candidates, &future);
        policy.select_victim(&ctx)
    }

    #[test]
    fn lru_evicts_least_recent_touch() {
        let mut p = LruPolicy::new();
        p.on_load_complete(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        p.on_exec_end(ConfigId(1), SimTime::from_ms(5));
        // Config 2 is now least recently touched.
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(1));
    }

    #[test]
    fn lru_reuse_refreshes() {
        let mut p = LruPolicy::new();
        p.on_load_complete(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        p.on_reuse(ConfigId(1), RuId(0), SimTime::from_ms(9));
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(1));
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut p = MruPolicy::new();
        p.on_load_complete(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(1));
    }

    #[test]
    fn fifo_ignores_reuse() {
        let mut p = FifoPolicy::new();
        p.on_load_complete(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        // Reusing 1 does not refresh its load slot.
        p.on_reuse(ConfigId(1), RuId(0), SimTime::from_ms(20));
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(0));
    }

    #[test]
    fn lfu_evicts_least_claimed() {
        let mut p = LfuPolicy::new();
        p.on_load_complete(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_reuse(ConfigId(1), RuId(0), SimTime::ZERO);
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(1));
    }

    #[test]
    fn random_is_deterministic_per_seed_and_valid() {
        let candidates = [cand(0, 1), cand(1, 2), cand(2, 3)];
        let picks1: Vec<RuId> = {
            let mut p = RandomPolicy::new(7);
            (0..10).map(|_| ctx_select(&mut p, &candidates)).collect()
        };
        let picks2: Vec<RuId> = {
            let mut p = RandomPolicy::new(7);
            (0..10).map(|_| ctx_select(&mut p, &candidates)).collect()
        };
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|r| r.0 < 3));
    }

    #[test]
    fn reset_clears_history() {
        let mut p = LruPolicy::new();
        p.on_load_complete(ConfigId(2), RuId(1), SimTime::ZERO);
        p.reset();
        // After reset both candidates are untouched; first wins.
        assert_eq!(ctx_select(&mut p, &[cand(0, 1), cand(1, 2)]), RuId(0));
    }
}
