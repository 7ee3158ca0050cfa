//! Longest Forward Distance replacement (Belady) and its windowed
//! variant, the paper's **Local LFD**.
//!
//! > "LFD selects the candidate that will be requested farthest in the
//! > future and, if it is applied over all the complete sequence of
//! > tasks that will be executed, it guarantees the optimal reuse rate.
//! > Since we apply LFD over just a subset of the total sequence of
//! > tasks (which are those that are enqueued in DL at the moment of
//! > performing a replacement), we have called it Local LFD." (§II)
//!
//! The *window* is not a property of this policy but of the manager's
//! [`Lookahead`](rtr_manager::Lookahead): the same selection logic sees
//! either the whole remaining sequence (oracle LFD) or only the Dynamic
//! List (Local LFD (w)). Distances come from the
//! [`DecisionContext`]: one ordered [`ReuseIndex`](crate::ReuseIndex)
//! lookup per candidate inside the engine (O(log n)), or the legacy
//! linear scan — whose worst-case cost the paper's Table I measures —
//! when the context is view-backed. Both backings produce identical
//! distances, so the choice never changes a decision.
//!
//! Tie-breaking follows the paper: "Local LFD selects the first
//! candidate it finds" — among equal (including never-requested)
//! distances the lowest-indexed RU wins.

use rtr_hw::RuId;
use rtr_manager::{DecisionContext, ReplacementPolicy};

/// The LFD / Local LFD victim-selection policy.
#[derive(Debug, Clone)]
pub struct LfdPolicy {
    label: String,
    /// Reusable distance buffer — one decision happens per load, so a
    /// fresh Vec here would be a per-load allocation on the hot path.
    dist_scratch: Vec<Option<usize>>,
}

impl LfdPolicy {
    fn new(label: String) -> Self {
        LfdPolicy {
            label,
            dist_scratch: Vec::new(),
        }
    }

    /// Oracle flavour — pair with `Lookahead::All`.
    pub fn oracle() -> Self {
        Self::new("LFD".to_string())
    }

    /// Local flavour with a Dynamic List of `window` graphs — pair with
    /// `Lookahead::Graphs(window)`.
    pub fn local(window: usize) -> Self {
        Self::new(format!("Local LFD ({window})"))
    }

    /// Local flavour with Skip Events — same selection logic; the label
    /// distinguishes the manager configuration in reports.
    pub fn local_with_skip(window: usize) -> Self {
        Self::new(format!("Local LFD ({window}) + Skip"))
    }
}

impl ReplacementPolicy for LfdPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let candidates = ctx.candidates;
        debug_assert!(!candidates.is_empty());
        // All candidate distances at once: ordered index lookups when
        // the engine's ReuseIndex backs the context, a single joint
        // pass over the stream otherwise. `None` means "not requested
        // in the window" = infinite distance. The buffer is policy
        // state, reused across decisions.
        let mut dist = std::mem::take(&mut self.dist_scratch);
        ctx.candidate_distances_into(&mut dist);
        // Farthest distance wins; infinity beats everything; among ties
        // the strict `>` keeps the earliest candidate (the paper's
        // "first candidate it finds").
        let mut best = 0usize;
        for i in 1..candidates.len() {
            let better = match (dist[i], dist[best]) {
                (None, Some(_)) => true,
                (Some(a), Some(b)) => a > b,
                (None, None) | (Some(_), None) => false,
            };
            if better {
                best = i;
            }
        }
        self.dist_scratch = dist;
        candidates[best].ru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_manager::{FutureView, VictimCandidate};
    use rtr_sim::SimTime;
    use rtr_taskgraph::ConfigId;

    fn cand(ru: u16, config: u32) -> VictimCandidate {
        VictimCandidate {
            ru: RuId(ru),
            config: ConfigId(config),
        }
    }

    fn select(candidates: &[VictimCandidate], stream: &[u32]) -> RuId {
        let configs: Vec<ConfigId> = stream.iter().map(|&c| ConfigId(c)).collect();
        let future = FutureView::new(vec![&configs]);
        let ctx = DecisionContext::from_view(SimTime::ZERO, ConfigId(99), candidates, &future);
        LfdPolicy::oracle().select_victim(&ctx)
    }

    #[test]
    fn picks_farthest_request() {
        // Stream 1,2,3: config 3 is requested farthest.
        let victims = [cand(0, 1), cand(1, 2), cand(2, 3)];
        assert_eq!(select(&victims, &[1, 2, 3]), RuId(2));
    }

    #[test]
    fn unreferenced_beats_referenced() {
        let victims = [cand(0, 1), cand(1, 2), cand(2, 3)];
        // Config 2 never appears again.
        assert_eq!(select(&victims, &[1, 3]), RuId(1));
    }

    #[test]
    fn all_unreferenced_picks_first() {
        // The Fig. 2c narrative: all candidates have the same (infinite)
        // forward distance, so "Local LFD selects the first candidate it
        // finds, which is RU1".
        let victims = [cand(0, 1), cand(1, 2), cand(2, 3)];
        assert_eq!(select(&victims, &[7, 8]), RuId(0));
    }

    #[test]
    fn finite_ties_keep_first() {
        // Both candidates' configs first occur via... distinct positions
        // can never tie exactly, so emulate a tie with equal distance by
        // duplicate configs on different RUs.
        let victims = [cand(2, 5), cand(3, 5)];
        assert_eq!(select(&victims, &[1, 5]), RuId(2));
    }

    #[test]
    fn distances_use_first_occurrence() {
        let victims = [cand(0, 1), cand(1, 2)];
        // Config 1 appears early then late; early occurrence counts.
        assert_eq!(select(&victims, &[1, 2, 1]), RuId(1));
    }

    #[test]
    fn names() {
        assert_eq!(LfdPolicy::oracle().name(), "LFD");
        assert_eq!(LfdPolicy::local(4).name(), "Local LFD (4)");
        assert_eq!(LfdPolicy::local_with_skip(1).name(), "Local LFD (1) + Skip");
    }
}
