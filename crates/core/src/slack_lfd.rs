//! Deadline-aware replacement: **Slack-Aware LFD**.
//!
//! Plain LFD ranks victims purely by forward distance — how far away
//! the resident configuration's next request is. Under QoS classes that
//! is blind to *whose* request that is: evicting a configuration whose
//! owner is already out of slack converts a free reuse into a full
//! reload exactly where the schedule can least afford one.
//!
//! Slack-Aware LFD orders victims by their in-window owner's remaining
//! slack first (`deadline − ideal makespan − now`, precomputed by the
//! engine and exposed through
//! [`DecisionContext::owner_slack_of`]): the candidate whose owner has
//! the *most* slack is evicted. A candidate with no slack information —
//! no deadline on the owner, no in-window next use, or a run without
//! deadlines at all — counts as infinitely slack, i.e. the safest
//! victim. Ties (including the all-`None` case) fall back to the exact
//! LFD rule — farthest next use, infinity beats everything, first
//! candidate among equals — so on deadline-free runs the policy decides
//! identically to [`LfdPolicy`](crate::LfdPolicy).

use rtr_hw::RuId;
use rtr_manager::{DecisionContext, ReplacementPolicy};

/// The slack-aware LFD victim-selection policy.
#[derive(Debug, Clone)]
pub struct SlackAwareLfdPolicy {
    label: String,
    /// Reusable distance buffer (see `LfdPolicy::dist_scratch`).
    dist_scratch: Vec<Option<usize>>,
    /// Reusable per-candidate owner-slack buffer; `i64::MAX` = no
    /// slack information = infinitely slack.
    slack_scratch: Vec<i64>,
}

impl SlackAwareLfdPolicy {
    /// Oracle flavour — pair with `Lookahead::All`.
    pub fn oracle() -> Self {
        Self::new("Slack LFD".to_string())
    }

    /// Local flavour with a Dynamic List of `window` graphs — pair with
    /// `Lookahead::Graphs(window)`.
    pub fn local(window: usize) -> Self {
        Self::new(format!("Slack LFD ({window})"))
    }

    fn new(label: String) -> Self {
        SlackAwareLfdPolicy {
            label,
            dist_scratch: Vec::new(),
            slack_scratch: Vec::new(),
        }
    }
}

impl ReplacementPolicy for SlackAwareLfdPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let candidates = ctx.candidates;
        debug_assert!(!candidates.is_empty());
        let mut dist = std::mem::take(&mut self.dist_scratch);
        ctx.candidate_distances_into(&mut dist);
        let mut slack = std::mem::take(&mut self.slack_scratch);
        slack.clear();
        slack.extend(
            candidates
                .iter()
                .map(|c| ctx.owner_slack_of(c.config).unwrap_or(i64::MAX)),
        );
        let mut best = 0usize;
        for i in 1..candidates.len() {
            let better = match slack[i].cmp(&slack[best]) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                // Equal slack (typically both unconstrained): exact LFD
                // order — strict `>` keeps the earliest candidate.
                std::cmp::Ordering::Equal => match (dist[i], dist[best]) {
                    (None, Some(_)) => true,
                    (Some(a), Some(b)) => a > b,
                    (None, None) | (Some(_), None) => false,
                },
            };
            if better {
                best = i;
            }
        }
        self.dist_scratch = dist;
        self.slack_scratch = slack;
        candidates[best].ru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LfdPolicy;
    use rtr_manager::{FutureView, VictimCandidate};
    use rtr_sim::SimTime;
    use rtr_taskgraph::ConfigId;

    fn cand(ru: u16, config: u32) -> VictimCandidate {
        VictimCandidate {
            ru: RuId(ru),
            config: ConfigId(config),
        }
    }

    #[test]
    fn without_slack_info_decides_like_lfd() {
        // View-backed context: no index, hence no owner slack — the
        // policy must reproduce LFD's choice on every stream.
        let streams: [&[u32]; 4] = [&[1, 2, 3], &[1, 3], &[7, 8], &[1, 2, 1]];
        let victims = [cand(0, 1), cand(1, 2), cand(2, 3)];
        for stream in streams {
            let configs: Vec<ConfigId> = stream.iter().map(|&c| ConfigId(c)).collect();
            let future = FutureView::new(vec![&configs]);
            let ctx = DecisionContext::from_view(SimTime::ZERO, ConfigId(99), &victims, &future);
            assert_eq!(
                SlackAwareLfdPolicy::oracle().select_victim(&ctx),
                LfdPolicy::oracle().select_victim(&ctx),
                "stream {stream:?}"
            );
        }
    }

    #[test]
    fn most_slack_owner_is_evicted() {
        use rtr_manager::ReuseIndex;
        use std::sync::Arc;
        // Job A (segment 0, tight slack) requests config 1 next; job B
        // (segment 1, ample slack) requests config 2. LFD alone would
        // evict config 2 (farther), and so does slack-awareness here —
        // but flip the slacks and the decision must flip too, which
        // distance order alone would not.
        let mut index = ReuseIndex::new();
        index.push_job(Arc::new(vec![ConfigId(1)]));
        index.push_job(Arc::new(vec![ConfigId(2)]));
        let window = index.window(0, usize::MAX);
        let victims = [cand(0, 1), cand(1, 2)];
        let tight_a = [0i64, 1_000_000];
        let ctx_a = DecisionContext::indexed(SimTime::ZERO, ConfigId(9), &victims, &index, window)
            .with_owner_slack(&tight_a);
        assert_eq!(
            SlackAwareLfdPolicy::oracle().select_victim(&ctx_a),
            RuId(1),
            "B has the slack: evict B's config"
        );
        let tight_b = [1_000_000i64, 0];
        let ctx_b = DecisionContext::indexed(SimTime::ZERO, ConfigId(9), &victims, &index, window)
            .with_owner_slack(&tight_b);
        assert_eq!(
            SlackAwareLfdPolicy::oracle().select_victim(&ctx_b),
            RuId(0),
            "A has the slack: evict A's config even though it is nearer"
        );
    }
}
