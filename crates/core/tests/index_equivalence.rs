//! Property test pinning the tentpole equivalence: on seeded random
//! streams and candidate sets, index-backed decisions (the engine's
//! O(log n) [`ReuseIndex`] path) pick the *same victim* as the legacy
//! O(stream × candidates) scan — distances, victims and tie-break
//! order, for both the LFD oracle and the Local-LFD windows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtr_core::{LfdPolicy, ReuseIndex};
use rtr_hw::RuId;
use rtr_manager::{DecisionContext, FutureView, ReplacementPolicy, VictimCandidate};
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;
use std::sync::Arc;

/// One randomised decision scenario: a backlog of jobs (index 0 is the
/// current graph), a consumed prefix of the current sequence, a
/// Dynamic-List visibility, and a candidate set drawn from configs
/// both present in and absent from the stream (duplicates included, so
/// ties happen).
#[derive(Debug, Clone)]
struct Case {
    /// Jobs already pushed *and retired* before the live ones — they
    /// exercise index pruning and must not affect any distance.
    prehistory: Vec<Vec<ConfigId>>,
    /// Live jobs in activation order; `jobs[0]` is current.
    jobs: Vec<Vec<ConfigId>>,
    /// Entries of the current sequence already placed (seq_pos + 1).
    consumed: usize,
    /// Arrived jobs visible to the decision (the Dynamic List size).
    visible: usize,
    candidates: Vec<VictimCandidate>,
}

fn gen_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = 2 + (rng.random_range(0..8u32));
    let job = |rng: &mut StdRng| -> Vec<ConfigId> {
        let len = rng.random_range(1..8usize);
        (0..len)
            .map(|_| ConfigId(rng.random_range(0..pool)))
            .collect()
    };
    let prehistory = (0..rng.random_range(0..4usize))
        .map(|_| job(&mut rng))
        .collect();
    let njobs = rng.random_range(1..6usize);
    let jobs: Vec<Vec<ConfigId>> = (0..njobs).map(|_| job(&mut rng)).collect();
    let consumed = rng.random_range(0..=jobs[0].len() + 1);
    let visible = rng.random_range(0..njobs + 2);
    let ncand = rng.random_range(1..6usize);
    let candidates = (0..ncand as u16)
        .map(|i| {
            // ~1 in 3 candidates never occur in the stream (infinite
            // distance); duplicates of in-pool configs create ties.
            let config = if rng.random_range(0..3u32) == 0 {
                ConfigId(900 + u32::from(i % 2))
            } else {
                ConfigId(rng.random_range(0..pool))
            };
            VictimCandidate {
                ru: RuId(i),
                config,
            }
        })
        .collect();
    Case {
        prehistory,
        jobs,
        consumed,
        visible,
        candidates,
    }
}

/// Builds the two backings of the same decision: the incremental index
/// (prehistory pushed then retired, live jobs pushed in activation
/// order) and the legacy segment view.
fn build(case: &Case) -> (ReuseIndex, Vec<&[ConfigId]>) {
    let mut index = ReuseIndex::new();
    for pre in &case.prehistory {
        index.push_job(Arc::new(pre.clone()));
    }
    for _ in &case.prehistory {
        index.retire_front();
    }
    for j in &case.jobs {
        index.push_job(Arc::new(j.clone()));
    }
    let mut segments: Vec<&[ConfigId]> = Vec::new();
    let cur = &case.jobs[0];
    segments.push(&cur[case.consumed.min(cur.len())..]);
    for j in case.jobs.iter().skip(1).take(case.visible) {
        segments.push(j.as_slice());
    }
    (index, segments)
}

fn assert_equivalent(case: &Case) {
    let (index, segments) = build(case);
    // Clamp visibility the way the engine's Lookahead does: at most the
    // arrived backlog.
    let visible = case.visible.min(case.jobs.len() - 1);
    let window = index.window(case.consumed, visible);
    let view = FutureView::new(segments);
    let new_config = ConfigId(777);
    let by_view = DecisionContext::from_view(SimTime::ZERO, new_config, &case.candidates, &view);
    let by_index =
        DecisionContext::indexed(SimTime::ZERO, new_config, &case.candidates, &index, window);

    // Distances agree per candidate (the raw quantity LFD ranks on)…
    prop_assert_eq!(
        by_view.candidate_distances(),
        by_index.candidate_distances(),
        "distances diverged on {:?}",
        case
    );
    prop_assert_eq!(by_view.future_len(), by_index.future_len());
    // …and so does the reconstructed legacy iterator view.
    let a: Vec<ConfigId> = by_view.future_iter().collect();
    let b: Vec<ConfigId> = by_index.future_iter().collect();
    prop_assert_eq!(a, b, "iterator views diverged on {:?}", case);

    // The paper's policy picks the same victim — tie-break included —
    // for the oracle flavour and the Local-LFD flavour (same selection
    // logic, window set by the caller).
    let mut oracle = LfdPolicy::oracle();
    prop_assert_eq!(
        oracle.select_victim(&by_view),
        oracle.select_victim(&by_index),
        "LFD victim diverged on {:?}",
        case
    );
    let mut local = LfdPolicy::local(visible);
    prop_assert_eq!(
        local.select_victim(&by_view),
        local.select_victim(&by_index),
        "Local LFD victim diverged on {:?}",
        case
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_backed_decisions_match_legacy_scan(seed in any::<u64>()) {
        let case = gen_case(seed);
        assert_equivalent(&case);
    }
}

#[test]
fn fully_consumed_current_job_still_equivalent() {
    // Degenerate corner the random generator rarely hits exactly: the
    // current sequence fully placed, nothing visible beyond it.
    let case = Case {
        prehistory: vec![vec![ConfigId(1)]],
        jobs: vec![vec![ConfigId(2), ConfigId(3)]],
        consumed: 2,
        visible: 0,
        candidates: vec![
            VictimCandidate {
                ru: RuId(0),
                config: ConfigId(2),
            },
            VictimCandidate {
                ru: RuId(1),
                config: ConfigId(3),
            },
        ],
    };
    assert_equivalent(&case);
}
