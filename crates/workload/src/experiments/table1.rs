//! Table I — worst-case run-time cost of the replacement module.
//!
//! The paper measures the decision time "for the worst-case scenario:
//! the selected replacement candidate never exists in the complete list
//! of reconfigurations or the Dynamic List … hence the replacement
//! module always has to search in the whole list … and this search has
//! to be carried out 4 times" (4 RUs all being candidates).
//!
//! This module constructs exactly that scenario — candidate
//! configurations absent from the visible stream — for each policy
//! flavour, and measures wall-clock decision times; the `table1`
//! binary prints and writes the resulting table.

use crate::policies::PolicyKind;
use crate::sequence::paper_workload;
use crate::table::Table;
use rtr_hw::RuId;
use rtr_manager::{DecisionContext, FutureView, ReplacementPolicy, VictimCandidate};
use rtr_sim::SimTime;
use rtr_taskgraph::{reconfiguration_sequence, ConfigId};
use std::time::{Duration, Instant};

/// A self-contained worst-case replacement scenario.
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// Victim candidates whose configurations never occur in the stream.
    pub candidates: Vec<VictimCandidate>,
    /// The visible future stream (configs of the Dynamic-List graphs).
    pub stream: Vec<ConfigId>,
}

impl WorstCase {
    /// Scenario with `rus` candidates and a stream of the first
    /// `dl_graphs` applications of the paper's 500-app workload
    /// (`usize::MAX` = the whole 500-app sequence, the LFD oracle case).
    pub fn new(rus: usize, dl_graphs: usize) -> Self {
        let workload = paper_workload(0xF169);
        let take = dl_graphs.min(workload.len());
        let mut stream = Vec::new();
        for g in workload.iter().take(take) {
            for node in reconfiguration_sequence(g) {
                stream.push(g.config_of(node));
            }
        }
        // Candidate configs 9000+ never occur in benchmark graphs.
        let candidates = (0..rus as u16)
            .map(|i| VictimCandidate {
                ru: RuId(i),
                config: ConfigId(9_000 + u32::from(i)),
            })
            .collect();
        WorstCase { candidates, stream }
    }

    /// Runs one decision on `policy` (primed history for the
    /// history-based policies happens in [`time_policy`]). Built on the
    /// legacy view backing on purpose: Table I measures the worst-case
    /// *linear-scan* cost the paper reports.
    pub fn decide(&self, policy: &mut dyn ReplacementPolicy) -> RuId {
        let future = FutureView::new(vec![&self.stream]);
        let ctx =
            DecisionContext::from_view(SimTime::ZERO, ConfigId(8_888), &self.candidates, &future);
        policy.select_victim(&ctx)
    }
}

/// Average wall-clock time per worst-case decision over `iters` calls.
pub fn time_policy(kind: PolicyKind, wc: &WorstCase, iters: u32) -> Duration {
    let mut policy = kind.build();
    // Prime history-based policies so every candidate has state.
    for (i, cand) in wc.candidates.iter().enumerate() {
        policy.on_load_complete(cand.config, cand.ru, SimTime::from_ms(i as u64));
    }
    // Warm-up decision.
    let _ = wc.decide(policy.as_mut());
    let t0 = Instant::now();
    for _ in 0..iters {
        let v = wc.decide(policy.as_mut());
        std::hint::black_box(v);
    }
    t0.elapsed() / iters
}

/// The Table I policy set: LRU, LFD (whole-sequence search) and
/// Local LFD (1/2/4) + Skip Events, with the DL sizes they imply.
pub fn table1_rows(iters: u32) -> Table {
    let mut t = Table::new(
        "Table I — worst-case run-time decision cost (4 RUs)",
        &["Replacement strategy", "Stream length", "Time per decision"],
    );
    let cases: Vec<(PolicyKind, usize)> = vec![
        (PolicyKind::Lru, 0),
        (PolicyKind::Lfd, usize::MAX),
        (
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            1,
        ),
        (
            PolicyKind::LocalLfd {
                window: 2,
                skip: true,
            },
            2,
        ),
        (
            PolicyKind::LocalLfd {
                window: 4,
                skip: true,
            },
            4,
        ),
    ];
    for (kind, dl) in cases {
        let wc = WorstCase::new(4, dl);
        let per_call = time_policy(kind, &wc, iters);
        t.push_row(vec![
            kind.label(),
            wc.stream.len().to_string(),
            format!("{:.3} µs", per_call.as_nanos() as f64 / 1_000.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_candidates_absent_from_stream() {
        let wc = WorstCase::new(4, 4);
        for cand in &wc.candidates {
            assert!(!wc.stream.contains(&cand.config));
        }
        assert!(!wc.stream.is_empty());
    }

    #[test]
    fn oracle_stream_covers_full_workload() {
        let wc = WorstCase::new(4, usize::MAX);
        // 500 apps × 4..6 tasks ≈ 2000+ requests.
        assert!(wc.stream.len() > 1_500, "got {}", wc.stream.len());
    }

    #[test]
    fn decisions_return_valid_candidates() {
        let wc = WorstCase::new(4, 2);
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Lfd,
            PolicyKind::LocalLfd {
                window: 2,
                skip: true,
            },
        ] {
            let mut p = kind.build();
            let v = wc.decide(p.as_mut());
            assert!(wc.candidates.iter().any(|c| c.ru == v));
        }
    }

    #[test]
    fn timing_is_positive_and_ordered() {
        // LFD over the whole sequence must cost (much) more than LRU.
        let lru = time_policy(PolicyKind::Lru, &WorstCase::new(4, 0), 200);
        let lfd = time_policy(PolicyKind::Lfd, &WorstCase::new(4, usize::MAX), 50);
        assert!(lfd > lru, "LFD {lfd:?} should exceed LRU {lru:?}");
    }

    #[test]
    fn table_has_five_strategies() {
        let t = table1_rows(10);
        assert_eq!(t.len(), 5);
    }
}
