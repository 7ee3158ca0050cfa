//! Replacement-decision hot path: legacy linear scan vs. the
//! incremental [`ReuseIndex`].
//!
//! Times one `select_victim` call of the paper's LFD policy over the
//! *same* decision, backed two ways:
//!
//! * `scan` — a [`FutureView`] over the visible stream, resolved by the
//!   legacy joint linear pass: O(stream × candidates) worst case (the
//!   cost model of the paper's Table I);
//! * `index` — the engine's [`ReuseIndex`], one ordered lookup per
//!   candidate: O(candidates · log n).
//!
//! The grid is stream length {10², 10³, 10⁴} × RU count {4, 8, 16};
//! half the candidates never occur in the stream (the worst case that
//! forces the scan to walk the whole window) and half occur late. Every
//! cell first asserts that both backings pick the same victim, then
//! `results/replacement_decision.csv` receives the per-cell medians and
//! the scan/index speedup.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin replacement_decision
//! ```

use rtr_bench::median_ns;
use rtr_core::LfdPolicy;
use rtr_hw::RuId;
use rtr_manager::{DecisionContext, FutureView, ReplacementPolicy, ReuseIndex, VictimCandidate};
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;
use std::path::Path;
use std::sync::Arc;

const STREAM_LENS: [usize; 3] = [100, 1_000, 10_000];
const RU_COUNTS: [usize; 3] = [4, 8, 16];
/// Decisions per timed batch.
const CALLS: u32 = 200;

/// One decision scenario shared by both backings.
struct Scenario {
    stream: Vec<ConfigId>,
    candidates: Vec<VictimCandidate>,
    index: ReuseIndex,
}

impl Scenario {
    /// Deterministic scenario: a stream over a 64-config pool; even
    /// candidates hold configs that never occur (forcing the scan to
    /// exhaust the window — the paper's Table I worst case), odd
    /// candidates hold configs whose next occurrence is in the last
    /// tenth of the stream (a deep but successful scan).
    fn new(stream_len: usize, rus: usize) -> Self {
        // Small xorshift so the stream is reproducible without an RNG.
        let mut state = 0x9E37_79B9_u64 | stream_len as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let late_base = 500u32;
        let mut stream: Vec<ConfigId> = (0..stream_len)
            .map(|_| ConfigId((next() % 64) as u32))
            .collect();
        let candidates: Vec<VictimCandidate> = (0..rus as u16)
            .map(|i| {
                let config = if i % 2 == 0 {
                    ConfigId(9_000 + u32::from(i))
                } else {
                    ConfigId(late_base + u32::from(i))
                };
                VictimCandidate {
                    ru: RuId(i),
                    config,
                }
            })
            .collect();
        // Plant the "late" configs in the final tenth of the stream.
        let tail_start = stream_len - stream_len / 10 - 1;
        for (k, cand) in candidates.iter().enumerate() {
            if cand.ru.0 % 2 == 1 {
                let slot = tail_start + (k * 7) % (stream_len / 10).max(1);
                stream[slot.min(stream_len - 1)] = cand.config;
            }
        }
        let mut index = ReuseIndex::new();
        index.push_job(Arc::new(stream.clone()));
        Scenario {
            stream,
            candidates,
            index,
        }
    }

    fn decide_scan(&self, policy: &mut LfdPolicy) -> RuId {
        let view = FutureView::new(vec![&self.stream]);
        let ctx =
            DecisionContext::from_view(SimTime::ZERO, ConfigId(8_888), &self.candidates, &view);
        policy.select_victim(&ctx)
    }

    fn decide_index(&self, policy: &mut LfdPolicy) -> RuId {
        let window = self.index.window(0, 0);
        let ctx = DecisionContext::indexed(
            SimTime::ZERO,
            ConfigId(8_888),
            &self.candidates,
            &self.index,
            window,
        );
        policy.select_victim(&ctx)
    }
}

fn main() -> std::io::Result<()> {
    let mut csv = String::from("stream_len,rus,scan_ns,index_ns,speedup\n");
    for &n in &STREAM_LENS {
        for &rus in &RU_COUNTS {
            let sc = Scenario::new(n, rus);
            let mut p_scan = LfdPolicy::oracle();
            let mut p_index = LfdPolicy::oracle();
            assert_eq!(
                sc.decide_scan(&mut p_scan),
                sc.decide_index(&mut p_index),
                "n={n} rus={rus}: backings must agree before being compared for speed"
            );
            let scan = median_ns(CALLS, || sc.decide_scan(&mut p_scan));
            let index = median_ns(CALLS, || sc.decide_index(&mut p_index));
            let speedup = scan / index;
            csv.push_str(&format!("{n},{rus},{scan:.1},{index:.1},{speedup:.2}\n"));
            println!("n={n} rus={rus} scan={scan:.1}ns index={index:.1}ns speedup={speedup:.2}x");
        }
    }
    let results = Path::new("results");
    std::fs::create_dir_all(results)?;
    let path = results.join("replacement_decision.csv");
    std::fs::write(&path, csv)?;
    println!("CSV written to {}", path.display());
    Ok(())
}
