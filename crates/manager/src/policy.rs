//! The replacement-policy interface.
//!
//! The manager separates *mechanism* from *policy*: it computes the set
//! of legal victims (unclaimed resident configurations) and the visible
//! future request stream, and asks a [`ReplacementPolicy`] to choose
//! through a [`DecisionContext`]. The policies themselves — LRU, LFD,
//! the paper's Local LFD — live in `rtr-core`; this crate only ships
//! the trivial [`FirstCandidatePolicy`] used by baselines and manager
//! unit tests.
//!
//! A [`DecisionContext`] answers the future-knowledge questions two
//! ways:
//!
//! * **Indexed** — backed by the engine's incremental
//!   [`ReuseIndex`]: next-use distances in O(log n) per candidate, the
//!   path every simulation takes.
//! * **View** — backed by a borrowed [`FutureView`] stream: the legacy
//!   linear scan, kept for tests, worst-case cost measurements
//!   (Table I) and ad-hoc contexts built outside an engine.
//!
//! Both yield bit-identical distances (the equivalence is
//! property-tested), so policies are written once against the context
//! and never know which backing they got.

use crate::reuse_index::{ReuseIndex, ReuseWindow};
use rtr_hw::RuId;
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;

/// One legal eviction victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCandidate {
    /// The RU that would be reconfigured.
    pub ru: RuId,
    /// The configuration currently resident there.
    pub config: ConfigId,
}

/// The future request stream as an explicit sequence of borrowed
/// segments: the legacy representation of the replacement module's
/// visible window.
///
/// The engine no longer builds one per decision (it queries the
/// [`ReuseIndex`] instead); `FutureView` remains the cheap way to
/// construct a [`DecisionContext`] from raw slices in tests, benches
/// and the Table I worst-case scenarios.
#[derive(Debug, Clone)]
pub struct FutureView<'a> {
    segments: Vec<&'a [ConfigId]>,
}

impl<'a> FutureView<'a> {
    /// Builds a view over the given segments (earlier segment = sooner).
    pub fn new(segments: Vec<&'a [ConfigId]>) -> Self {
        FutureView { segments }
    }

    /// An empty view (no future knowledge).
    pub fn empty() -> Self {
        FutureView {
            segments: Vec::new(),
        }
    }

    /// Iterates over the stream in request order.
    pub fn iter(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.segments.iter().flat_map(|s| s.iter().copied())
    }

    /// Forward distance of `config`: 1-based position of its next
    /// occurrence, or `None` if it does not occur in the visible window.
    /// This is the linear search whose cost the paper's Table I measures.
    pub fn distance_of(&self, config: ConfigId) -> Option<usize> {
        self.iter().position(|c| c == config).map(|p| p + 1)
    }

    /// True when `config` occurs in the visible window (the
    /// `reusable(victim)` predicate of the paper's Fig. 8).
    pub fn contains(&self, config: ConfigId) -> bool {
        self.iter().any(|c| c == config)
    }

    /// Total number of requests in the window.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.is_empty())
    }
}

/// The two backings of a [`DecisionContext`]'s future knowledge.
#[derive(Debug)]
enum FutureSource<'a> {
    /// The engine's shared incremental index, restricted to the
    /// decision's visible window.
    Indexed {
        index: &'a ReuseIndex,
        window: ReuseWindow,
    },
    /// A borrowed explicit stream (legacy linear scan).
    View(&'a FutureView<'a>),
}

/// Everything a policy may consult when choosing a victim.
///
/// Constructed by the engine ([`DecisionContext::indexed`]) or by
/// tests/benches ([`DecisionContext::from_view`]).
#[derive(Debug)]
pub struct DecisionContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The configuration that needs an RU.
    pub new_config: ConfigId,
    /// Legal victims, in RU-index order. Never empty.
    pub candidates: &'a [VictimCandidate],
    future: FutureSource<'a>,
}

impl<'a> DecisionContext<'a> {
    /// Context backed by the engine's [`ReuseIndex`], restricted to the
    /// decision's visible `window`.
    pub fn indexed(
        now: SimTime,
        new_config: ConfigId,
        candidates: &'a [VictimCandidate],
        index: &'a ReuseIndex,
        window: ReuseWindow,
    ) -> Self {
        DecisionContext {
            now,
            new_config,
            candidates,
            future: FutureSource::Indexed { index, window },
        }
    }

    /// Context backed by an explicit [`FutureView`] (the legacy linear
    /// scan) — for tests, benches and worst-case measurements.
    pub fn from_view(
        now: SimTime,
        new_config: ConfigId,
        candidates: &'a [VictimCandidate],
        future: &'a FutureView<'a>,
    ) -> Self {
        DecisionContext {
            now,
            new_config,
            candidates,
            future: FutureSource::View(future),
        }
    }

    /// Forward distance of `config` in the visible window: 1-based
    /// position of its next request, `None` when it is not requested.
    /// O(log n) when indexed, O(n) on a view.
    pub fn distance_of(&self, config: ConfigId) -> Option<usize> {
        match self.future {
            FutureSource::Indexed { index, window } => index.distance_of(config, window),
            FutureSource::View(view) => view.distance_of(config),
        }
    }

    /// Forward distances of every candidate's configuration, aligned
    /// with [`candidates`](Self::candidates). Indexed: one ordered
    /// lookup per candidate, O(candidates · log n). View: a single
    /// joint pass over the stream, O(stream × candidates) worst case —
    /// the legacy cost this refactor removes from the hot path.
    pub fn candidate_distances(&self) -> Vec<Option<usize>> {
        let mut dist = Vec::new();
        self.candidate_distances_into(&mut dist);
        dist
    }

    /// [`candidate_distances`](Self::candidate_distances) into a
    /// caller-owned buffer — the allocation-free form for policies that
    /// decide once per load: keep the buffer as policy state and reuse
    /// it across decisions.
    pub fn candidate_distances_into(&self, dist: &mut Vec<Option<usize>>) {
        dist.clear();
        match self.future {
            FutureSource::Indexed { index, window } => {
                dist.extend(
                    self.candidates
                        .iter()
                        .map(|cand| index.distance_of(cand.config, window)),
                );
            }
            FutureSource::View(view) => {
                dist.resize(self.candidates.len(), None);
                let mut unresolved = self.candidates.len();
                for (pos, config) in view.iter().enumerate() {
                    for (i, cand) in self.candidates.iter().enumerate() {
                        if dist[i].is_none() && cand.config == config {
                            dist[i] = Some(pos + 1);
                            unresolved -= 1;
                        }
                    }
                    if unresolved == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// True when `config` is requested in the visible window (the
    /// `reusable(victim)` predicate of the paper's Fig. 8).
    pub fn future_contains(&self, config: ConfigId) -> bool {
        match self.future {
            FutureSource::Indexed { index, window } => index.contains(config, window),
            FutureSource::View(view) => view.contains(config),
        }
    }

    /// Number of requests in the visible window.
    pub fn future_len(&self) -> usize {
        match self.future {
            FutureSource::Indexed { window, .. } => window.len(),
            FutureSource::View(view) => view.len(),
        }
    }

    /// Iterates the visible window in request order — the legacy
    /// iterator view, available on both backings for policies that
    /// genuinely need to walk the stream.
    pub fn future_iter(&self) -> Box<dyn Iterator<Item = ConfigId> + '_> {
        match self.future {
            FutureSource::Indexed { index, window } => Box::new(index.iter_window(window)),
            FutureSource::View(view) => Box::new(view.iter()),
        }
    }
}

/// A configuration-replacement policy.
///
/// `select_victim` must return the `ru` of one of the presented
/// candidates; the manager asserts this. The notification callbacks give
/// history-based policies (LRU, LFU, FIFO…) the usage signal they need;
/// all have empty default bodies.
///
/// Policies are `Send`: [`Fleet::run`](crate::Fleet::run) hands each
/// device's policy, with its engine, to a worker thread. A policy is
/// only ever driven by one thread at a time, so it need not be `Sync`.
pub trait ReplacementPolicy: Send {
    /// Short display name, e.g. `"LRU"` or `"Local LFD (2)"`.
    ///
    /// Returns a borrow (typically `&'static str`, or a field for
    /// parameterised policies like Local LFD) so hot-path callers —
    /// the engine brands every run with the policy name, and error
    /// paths quote it — never allocate.
    fn name(&self) -> &str;

    /// Chooses the victim RU among `ctx.candidates`.
    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId;

    /// A reconfiguration of `config` into `ru` completed.
    fn on_load_complete(&mut self, _config: ConfigId, _ru: RuId, _now: SimTime) {}

    /// A resident `config` on `ru` was claimed for reuse.
    fn on_reuse(&mut self, _config: ConfigId, _ru: RuId, _now: SimTime) {}

    /// A task using `config` started executing.
    fn on_exec_start(&mut self, _config: ConfigId, _now: SimTime) {}

    /// A task using `config` finished executing.
    fn on_exec_end(&mut self, _config: ConfigId, _now: SimTime) {}

    /// Task graph number `job` became current.
    fn on_graph_start(&mut self, _job: u32, _now: SimTime) {}

    /// Task graph number `job` completed.
    fn on_graph_end(&mut self, _job: u32, _now: SimTime) {}

    /// Clears any per-run state so the policy can be reused.
    fn reset(&mut self) {}
}

/// Picks the first (lowest-index RU) candidate. This is both the
/// fallback tie-break the paper describes for Local LFD and a useful
/// "no intelligence" baseline; the mobility probes run under it.
#[derive(Debug, Clone, Default)]
pub struct FirstCandidatePolicy;

impl ReplacementPolicy for FirstCandidatePolicy {
    fn name(&self) -> &str {
        "FirstCandidate"
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        ctx.candidates[0].ru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn c(id: u32) -> ConfigId {
        ConfigId(id)
    }

    #[test]
    fn future_view_distances() {
        let seg1 = [c(4), c(5)];
        let seg2 = [c(1), c(2), c(3)];
        let view = FutureView::new(vec![&seg1, &seg2]);
        assert_eq!(view.len(), 5);
        assert_eq!(view.distance_of(c(4)), Some(1));
        assert_eq!(view.distance_of(c(1)), Some(3));
        assert_eq!(view.distance_of(c(3)), Some(5));
        assert_eq!(view.distance_of(c(9)), None);
        assert!(view.contains(c(2)));
        assert!(!view.contains(c(9)));
    }

    #[test]
    fn empty_view() {
        let view = FutureView::empty();
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
        assert_eq!(view.distance_of(c(1)), None);
    }

    #[test]
    fn distance_uses_first_occurrence() {
        let seg = [c(7), c(8), c(7)];
        let view = FutureView::new(vec![&seg]);
        assert_eq!(view.distance_of(c(7)), Some(1));
    }

    #[test]
    fn first_candidate_picks_lowest_ru() {
        let mut p = FirstCandidatePolicy;
        let seg: [ConfigId; 0] = [];
        let future = FutureView::new(vec![&seg]);
        let candidates = [
            VictimCandidate {
                ru: RuId(1),
                config: c(10),
            },
            VictimCandidate {
                ru: RuId(3),
                config: c(11),
            },
        ];
        let ctx = DecisionContext::from_view(SimTime::ZERO, c(1), &candidates, &future);
        assert_eq!(p.select_victim(&ctx), RuId(1));
    }

    #[test]
    fn indexed_and_view_backings_agree() {
        let stream = [c(4), c(5), c(1), c(2), c(3), c(5)];
        let view = FutureView::new(vec![&stream]);
        let mut index = ReuseIndex::new();
        // Current job contributing one already-consumed head entry,
        // then the stream split across two backlog jobs.
        index.push_job(Arc::new(vec![c(99)]));
        index.push_job(Arc::new(vec![c(4), c(5), c(1)]));
        index.push_job(Arc::new(vec![c(2), c(3), c(5)]));
        let window = index.window(1, 2);
        let candidates = [
            VictimCandidate {
                ru: RuId(0),
                config: c(5),
            },
            VictimCandidate {
                ru: RuId(1),
                config: c(3),
            },
            VictimCandidate {
                ru: RuId(2),
                config: c(42),
            },
        ];
        let by_view = DecisionContext::from_view(SimTime::ZERO, c(7), &candidates, &view);
        let by_index = DecisionContext::indexed(SimTime::ZERO, c(7), &candidates, &index, window);
        assert_eq!(
            by_view.candidate_distances(),
            by_index.candidate_distances()
        );
        for cand in &candidates {
            assert_eq!(
                by_view.distance_of(cand.config),
                by_index.distance_of(cand.config)
            );
            assert_eq!(
                by_view.future_contains(cand.config),
                by_index.future_contains(cand.config)
            );
        }
        assert_eq!(by_view.future_len(), by_index.future_len());
        let a: Vec<ConfigId> = by_view.future_iter().collect();
        let b: Vec<ConfigId> = by_index.future_iter().collect();
        assert_eq!(a, b);
    }
}
