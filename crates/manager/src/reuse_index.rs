//! The incremental next-occurrence index over the future request
//! stream — the data structure that turns a replacement decision from an
//! O(stream × candidates) rescan into O(candidates · log n).
//!
//! Belady-style policies (LFD, the paper's Local LFD) need one question
//! answered per candidate: *when is this configuration requested next?*
//! The legacy implementation answered it by linearly walking a
//! [`FutureView`](crate::FutureView) rebuilt for every decision. The
//! [`ReuseIndex`] instead maintains, incrementally as the engine runs,
//!
//! * a **global position space**: every configuration request of every
//!   indexed job gets a monotonically increasing position as the job is
//!   pushed, in service order, so positions are stream order;
//! * **per-config occurrence lists**: for each [`ConfigId`], the sorted
//!   list of its positions — sorted for free, because positions are
//!   assigned monotonically;
//! * a **segment deque** holding the current job and the jobs queued
//!   after it, in service order, so the visible Dynamic-List window of
//!   any decision is a single *contiguous* position interval.
//!
//! That contiguity is the crux: the window the replacement module sees
//! is always "the rest of the current graph's sequence, then the next
//! `w` graphs" — consecutive segments in service order. A next-use
//! query is therefore one binary search (`partition_point`) in the
//! config's occurrence list against the window's lower bound, plus an
//! upper-bound check. No per-decision rebuild, and the index is shared
//! across consecutive decisions.
//!
//! A window ends `w` segments past the front, so the index need not
//! hold more than `1 + w` jobs: the engine pushes a job only when it
//! enters that prefix of the service order, and jobs further back are
//! never indexed. Retired jobs are pruned front-first
//! ([`ReuseIndex::retire_front`]). Memory therefore scales with
//! `1 + w` jobs, not with the backlog or the run history.

use rtr_sim::DenseIdMap;
use rtr_taskgraph::ConfigId;
use std::collections::VecDeque;
use std::sync::Arc;

/// One config's sorted position list: a contiguous `Vec` with a lazy
/// head cursor instead of a ring buffer, so the binary-search hot path
/// (`partition_point` per replacement decision) runs on a plain slice —
/// no ring-wrap masking per probe. Front pops advance the cursor; the
/// dead prefix is compacted away once it outgrows the live tail, so
/// memory stays proportional to the indexed jobs (amortised O(1) per
/// pop).
#[derive(Debug, Clone, Default)]
struct OccurrenceList {
    buf: Vec<u64>,
    head: usize,
    /// Query cursor: index of the first entry not yet known to lie
    /// below the last queried lower bound. The engine's decision
    /// windows have monotonically non-decreasing lower bounds (the
    /// stream is consumed front to back), so advancing this cursor
    /// instead of binary-searching makes a next-use query amortised
    /// O(1) — each position is stepped over at most once per run.
    /// Purely an accelerator: a lower bound that *does* move backwards
    /// (ad-hoc windows in tests) falls back to an exact binary search
    /// over the skipped prefix.
    search: std::cell::Cell<usize>,
}

impl OccurrenceList {
    fn push_back(&mut self, v: u64) {
        self.buf.push(v);
    }

    fn pop_front(&mut self) -> Option<u64> {
        let v = self.buf.get(self.head).copied()?;
        self.head += 1;
        if self.head >= 64 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.search.set(self.search.get().saturating_sub(self.head));
            self.head = 0;
        }
        Some(v)
    }

    /// The first live position `>= lo`, advancing the query cursor.
    fn first_at_or_after(&self, lo: u64) -> Option<u64> {
        let mut i = self.search.get().clamp(self.head, self.buf.len());
        if i > self.head && self.buf[i - 1] >= lo {
            // The bound moved backwards relative to the cached cursor:
            // exact binary search over the prefix the cursor skipped.
            i = self.head + self.buf[self.head..i].partition_point(|&p| p < lo);
        } else {
            while i < self.buf.len() && self.buf[i] < lo {
                i += 1;
            }
        }
        self.search.set(i);
        self.buf.get(i).copied()
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.search.set(0);
    }
}

/// Per-config occurrence lists over a dense-by-id table
/// ([`DenseIdMap`]): one array index per query on the hot path.
/// Emptied lists keep their allocation.
#[derive(Debug, Clone, Default)]
struct OccurrenceTable {
    lists: DenseIdMap<OccurrenceList>,
}

impl OccurrenceTable {
    /// The list for `config`, creating an empty one if absent.
    fn entry(&mut self, config: ConfigId) -> &mut OccurrenceList {
        self.lists.entry(config.0)
    }

    /// The list for `config`, if any occurrence was ever recorded.
    fn get(&self, config: ConfigId) -> Option<&OccurrenceList> {
        self.lists.get(config.0)
    }

    /// Empties every list, keeping all allocations.
    fn clear(&mut self) {
        self.lists.clear_values(OccurrenceList::clear);
    }
}

/// One job's contiguous slice of the global position space.
#[derive(Debug, Clone)]
struct IndexSegment {
    /// Global position of the segment's first request.
    base: u64,
    /// The job's configuration sequence (design-time artifact, shared
    /// with the engine's template cache).
    cfgs: Arc<Vec<ConfigId>>,
}

impl IndexSegment {
    /// One past the segment's last global position.
    fn end(&self) -> u64 {
        self.base + self.cfgs.len() as u64
    }
}

/// A contiguous half-open interval `[lo, hi)` of global positions: the
/// visible future window of one replacement decision.
///
/// Obtained from [`ReuseIndex::window`]; cheap to copy, valid until the
/// index is mutated (the engine derives a fresh one per decision — it
/// is two additions, not a rebuild).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseWindow {
    lo: u64,
    hi: u64,
}

impl ReuseWindow {
    /// Number of requests inside the window.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True when the window contains no requests.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// The same window truncated to at most `max_len` requests — a
    /// bounded planning horizon (used by the prefetch planner so a huge
    /// backlog never turns one planning round into a full-stream scan).
    pub fn clamp_len(self, max_len: usize) -> ReuseWindow {
        ReuseWindow {
            lo: self.lo,
            hi: self.hi.min(self.lo + max_len as u64),
        }
    }
}

/// Per-config next-occurrence index over the future request stream.
///
/// Maintained by the engine as jobs enter the indexed prefix of the
/// service order ([`push_job`]), as the current graph's sequence is consumed (positional, via the `consumed`
/// argument of [`window`]), and as graphs retire ([`retire_front`]).
/// Policies query it through
/// [`DecisionContext`](crate::DecisionContext).
///
/// [`push_job`]: ReuseIndex::push_job
/// [`window`]: ReuseIndex::window
/// [`retire_front`]: ReuseIndex::retire_front
#[derive(Debug, Clone, Default)]
pub struct ReuseIndex {
    /// Sorted global positions per configuration. Push order is
    /// monotone (positions only grow), pops are front-first (retired
    /// jobs hold the smallest positions), so each list stays sorted
    /// without ever sorting. Emptied lists are kept (not removed), so
    /// a long run reuses their allocations instead of churning the
    /// table — the config universe is bounded by the template set.
    occurrences: OccurrenceTable,
    /// The indexed jobs, current job first, in service order.
    segments: VecDeque<IndexSegment>,
    /// Next global position to assign.
    next_pos: u64,
}

impl ReuseIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a job's configuration sequence to the stream, assigning
    /// it the next contiguous position range. Call in service order, so
    /// positions are stream order.
    pub fn push_job(&mut self, cfgs: Arc<Vec<ConfigId>>) {
        let base = self.next_pos;
        for (k, &c) in cfgs.iter().enumerate() {
            self.occurrences.entry(c).push_back(base + k as u64);
        }
        self.next_pos = base + cfgs.len() as u64;
        self.segments.push_back(IndexSegment { base, cfgs });
    }

    /// Retires the front (= oldest, the just-completed current) job,
    /// pruning its occurrences. The front job holds the globally
    /// smallest live positions, so pruning is a front pop per
    /// occurrence — O(len of the retired sequence).
    ///
    /// # Panics
    /// Panics if the index holds no jobs, or if the occurrence lists
    /// are out of sync (an engine-integration bug).
    pub fn retire_front(&mut self) {
        let seg = self
            .segments
            .pop_front()
            .expect("retire_front needs a live job");
        for (k, &c) in seg.cfgs.iter().enumerate() {
            let popped = self.occurrences.entry(c).pop_front();
            debug_assert_eq!(popped, Some(seg.base + k as u64));
        }
    }

    /// Empties the index while keeping every allocation (segment deque,
    /// per-config occurrence lists, map table) — the QoS planned-order
    /// rebuild starts from here. A cleared index answers queries
    /// exactly like a fresh one: the position space restarts at 0.
    pub fn clear(&mut self) {
        self.occurrences.clear();
        self.segments.clear();
        self.next_pos = 0;
    }

    /// The indexed jobs' configuration sequences, in service order.
    #[cfg(test)]
    pub(crate) fn sequences(&self) -> impl Iterator<Item = *const Vec<ConfigId>> + '_ {
        self.segments.iter().map(|s| Arc::as_ptr(&s.cfgs))
    }

    /// Number of jobs in the index (the current job included).
    pub fn jobs(&self) -> usize {
        self.segments.len()
    }

    /// Total number of live (not yet retired) requests indexed.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.cfgs.len()).sum()
    }

    /// True when no job is indexed.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The visible window of one decision: the front job's sequence
    /// with its first `consumed` entries dropped (the entries already
    /// placed, plus the one being placed now), followed by the next
    /// `visible_jobs` indexed jobs — one contiguous interval, because
    /// segments are contiguous in service order.
    ///
    /// # Panics
    /// Panics if the index holds no jobs (decisions only happen while a
    /// graph is current).
    pub fn window(&self, consumed: usize, visible_jobs: usize) -> ReuseWindow {
        let front = self.segments.front().expect("window needs a current job");
        let lo = front.base + (consumed as u64).min(front.cfgs.len() as u64);
        let last = visible_jobs.min(self.segments.len() - 1);
        let hi = self.segments[last].end();
        ReuseWindow { lo, hi }
    }

    /// Global position of `config`'s next request inside `window`, or
    /// `None` if it is not requested there. One `partition_point` on
    /// the config's sorted occurrence list: O(log n).
    pub fn next_use(&self, config: ConfigId, window: ReuseWindow) -> Option<u64> {
        let p = self.occurrences.get(config)?.first_at_or_after(window.lo)?;
        (p < window.hi).then_some(p)
    }

    /// Forward distance of `config` in `window`: the 1-based position
    /// of its next request, exactly matching the legacy
    /// [`FutureView::distance_of`](crate::FutureView::distance_of)
    /// contract — so index-backed and scan-backed decisions compare
    /// (and tie) identically.
    pub fn distance_of(&self, config: ConfigId, window: ReuseWindow) -> Option<usize> {
        self.next_use(config, window)
            .map(|p| (p - window.lo + 1) as usize)
    }

    /// True when `config` is requested inside `window` — the
    /// `reusable(victim)` predicate of the paper's Fig. 8, in O(log n).
    pub fn contains(&self, config: ConfigId, window: ReuseWindow) -> bool {
        self.next_use(config, window).is_some()
    }

    /// Fills `out` with the first (at most) `k` *distinct*
    /// configurations requested inside `window`, in stream order —
    /// nearest next use first. This is the prefetch planner's query:
    /// "which configurations does the visible future want soonest?"
    ///
    /// The scan walks the window front to back and stops as soon as `k`
    /// distinct configurations are found; pass a
    /// [`clamp_len`](ReuseWindow::clamp_len)-bounded window to cap the
    /// worst case (a long window with fewer than `k` distinct configs).
    /// Dedup is a linear probe of `out` — `k` is a small planning depth,
    /// not a stream length.
    pub fn next_k_configs(&self, window: ReuseWindow, k: usize, out: &mut Vec<ConfigId>) {
        out.clear();
        if k == 0 {
            return;
        }
        for cfg in self.iter_window(window) {
            if !out.contains(&cfg) {
                out.push(cfg);
                if out.len() == k {
                    break;
                }
            }
        }
    }

    /// Iterates the window's requests in stream order — the legacy
    /// iterator view, reconstructed from the segment deque without
    /// copying (each item is a slice walk). Only the segments that
    /// overlap the window are visited: the first is found by binary
    /// search, and the walk stops at the first segment past `hi`.
    pub fn iter_window(&self, window: ReuseWindow) -> impl Iterator<Item = ConfigId> + '_ {
        let first = self.segments.partition_point(|seg| seg.end() <= window.lo);
        self.segments
            .range(first..)
            .take_while(move |seg| seg.base < window.hi)
            .flat_map(move |seg| {
                let lo = window.lo.max(seg.base);
                let hi = window.hi.min(seg.end());
                seg.cfgs[(lo - seg.base) as usize..(hi - seg.base) as usize]
                    .iter()
                    .copied()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32) -> ConfigId {
        ConfigId(id)
    }

    fn seq(ids: &[u32]) -> Arc<Vec<ConfigId>> {
        Arc::new(ids.iter().map(|&i| c(i)).collect())
    }

    #[test]
    fn distances_match_stream_order() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2, 3])); // current
        idx.push_job(seq(&[4, 1]));
        // Window: everything after the current job's first entry.
        let w = idx.window(1, 1);
        assert_eq!(w.len(), 4);
        assert_eq!(idx.distance_of(c(2), w), Some(1));
        assert_eq!(idx.distance_of(c(3), w), Some(2));
        assert_eq!(idx.distance_of(c(4), w), Some(3));
        assert_eq!(idx.distance_of(c(1), w), Some(4));
        assert_eq!(idx.distance_of(c(9), w), None);
    }

    #[test]
    fn window_excludes_consumed_prefix_and_invisible_jobs() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2]));
        idx.push_job(seq(&[3]));
        idx.push_job(seq(&[4]));
        // Only the current job's tail: lookahead 0.
        let w = idx.window(1, 0);
        assert_eq!(idx.distance_of(c(2), w), Some(1));
        assert!(!idx.contains(c(3), w));
        assert!(!idx.contains(c(4), w));
        // One backlog job visible.
        let w = idx.window(1, 1);
        assert!(idx.contains(c(3), w));
        assert!(!idx.contains(c(4), w));
        // Visible-jobs request beyond the backlog clamps.
        let w = idx.window(1, 99);
        assert!(idx.contains(c(4), w));
    }

    #[test]
    fn consumed_prefix_clamps_to_sequence_length() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1]));
        idx.push_job(seq(&[1, 5]));
        idx.push_job(seq(&[9]));
        // The current job is fully consumed; only the backlog remains.
        let w = idx.window(7, 1);
        assert_eq!(idx.distance_of(c(1), w), Some(1));
        assert_eq!(idx.distance_of(c(5), w), Some(2));
        let got: Vec<u32> = idx.iter_window(w).map(|c| c.0).collect();
        assert_eq!(
            got,
            vec![1, 5],
            "starts past the consumed front, stops at hi"
        );
        let got: Vec<u32> = idx.iter_window(idx.window(7, 2)).map(|c| c.0).collect();
        assert_eq!(got, vec![1, 5, 9]);
        let w = idx.window(7, 0);
        assert!(w.is_empty());
        assert!(idx.iter_window(w).next().is_none());
    }

    #[test]
    fn first_occurrence_wins_with_duplicates() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[7, 8, 7, 7]));
        let w = idx.window(1, 0);
        assert_eq!(idx.distance_of(c(7), w), Some(2));
        assert_eq!(idx.distance_of(c(8), w), Some(1));
    }

    #[test]
    fn retire_front_prunes_and_keeps_later_jobs_queryable() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2]));
        idx.push_job(seq(&[2, 3]));
        assert_eq!(idx.len(), 4);
        idx.retire_front();
        assert_eq!(idx.jobs(), 1);
        assert_eq!(idx.len(), 2);
        let w = idx.window(0, 0);
        assert_eq!(idx.distance_of(c(2), w), Some(1));
        assert_eq!(idx.distance_of(c(3), w), Some(2));
        assert!(!idx.contains(c(1), w));
    }

    #[test]
    fn iter_window_reconstructs_the_stream() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2, 3]));
        idx.push_job(seq(&[4, 5]));
        idx.push_job(seq(&[6]));
        let w = idx.window(2, 1);
        let got: Vec<u32> = idx.iter_window(w).map(|c| c.0).collect();
        assert_eq!(got, vec![3, 4, 5]);
        // Distances agree with the reconstructed stream.
        for (i, cfg) in idx.iter_window(w).enumerate() {
            assert_eq!(idx.distance_of(cfg, w), Some(i + 1));
        }
    }

    #[test]
    fn next_k_configs_dedups_in_stream_order() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2, 1, 3, 2, 4]));
        let w = idx.window(0, 0);
        let mut out = Vec::new();
        idx.next_k_configs(w, 3, &mut out);
        assert_eq!(out, vec![c(1), c(2), c(3)]);
        // Fewer distinct configs than k: all of them, once each.
        idx.next_k_configs(w, 99, &mut out);
        assert_eq!(out, vec![c(1), c(2), c(3), c(4)]);
        // k = 0 and empty windows yield nothing.
        idx.next_k_configs(w, 0, &mut out);
        assert!(out.is_empty());
        idx.next_k_configs(idx.window(6, 0), 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clamp_len_bounds_the_scan_horizon() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 1, 1, 2, 3]));
        let w = idx.window(0, 0).clamp_len(3);
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        idx.next_k_configs(w, 4, &mut out);
        assert_eq!(out, vec![c(1)], "configs beyond the horizon are unseen");
        // Clamping beyond the window length is a no-op.
        assert_eq!(idx.window(0, 0).clamp_len(99), idx.window(0, 0));
    }

    #[test]
    fn empty_window_has_no_occurrences() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1]));
        let w = idx.window(1, 0);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(idx.next_use(c(1), w), None);
        assert!(idx.iter_window(w).next().is_none());
    }

    #[test]
    fn clear_resets_position_space_like_fresh() {
        let mut idx = ReuseIndex::new();
        idx.push_job(seq(&[1, 2, 3]));
        idx.push_job(seq(&[2, 4]));
        idx.retire_front();
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        // Rebuild after clear: behaves exactly like a fresh index
        // (positions restart at 0).
        let mut fresh = ReuseIndex::new();
        for target in [&mut idx, &mut fresh] {
            target.push_job(seq(&[5, 6]));
            target.push_job(seq(&[6, 7]));
        }
        let w = idx.window(1, 1);
        assert_eq!(w, fresh.window(1, 1));
        for c_id in [5u32, 6, 7, 99] {
            assert_eq!(idx.next_use(c(c_id), w), fresh.next_use(c(c_id), w));
        }
    }

    #[test]
    fn positions_survive_interleaved_push_retire() {
        let mut idx = ReuseIndex::new();
        for round in 0..100u32 {
            idx.push_job(seq(&[round % 5, (round + 1) % 5]));
            if round % 3 == 2 {
                idx.retire_front();
            }
        }
        // The index stays internally consistent: every live occurrence
        // is addressable through a full window.
        let w = idx.window(0, idx.jobs());
        let stream: Vec<ConfigId> = idx.iter_window(w).collect();
        assert_eq!(stream.len(), idx.len());
        for (i, &cfg) in stream.iter().enumerate() {
            let d = idx.distance_of(cfg, w).expect("occurs");
            assert!(d <= i + 1, "next use cannot be after a later sighting");
            assert_eq!(stream[d - 1], cfg, "distance points at an occurrence");
        }
    }
}
