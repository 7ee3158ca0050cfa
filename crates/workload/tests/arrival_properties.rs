//! Property tests over every [`ArrivalProcess`] variant: outputs are
//! non-decreasing, deterministic per seed, exactly `count` long, and
//! `generate(0, _)` is an empty vector that nothing downstream panics
//! on — including the whole scenario pipeline.

use proptest::prelude::*;
use rtr_workload::{ArrivalProcess, Scenario};

/// The variant under test, drawn from a small strategy space. Index 0–3
/// selects the variant; the parameters are clamped to valid ranges (the
/// degenerate values have their own tests in `arrivals.rs`).
fn process(kind: u8, a: u64, b: u64) -> ArrivalProcess {
    let nonzero = |x: u64| 1 + (x % 1_000_000);
    match kind % 4 {
        0 => ArrivalProcess::Batch,
        1 => ArrivalProcess::Poisson {
            mean_gap_us: nonzero(a),
        },
        2 => ArrivalProcess::Periodic {
            period_us: nonzero(a),
        },
        _ => ArrivalProcess::Bursty {
            size: 1 + (b % 9) as usize,
            mean_gap_us: nonzero(a),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counts 0, 1 and large: the output has exactly `count` entries,
    /// is sorted, and is bit-identical across calls with the same seed.
    #[test]
    fn outputs_are_sized_sorted_and_deterministic(
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
        count_sel in 0usize..4,
        count_var in 2usize..50,
    ) {
        // Edge counts 0 and 1, a small varying count, and a large one.
        let count = match count_sel {
            0 => 0,
            1 => 1,
            2 => count_var,
            _ => 2_000,
        };
        let p = process(kind, a, b);
        prop_assert_eq!(p.validate(), Ok(()));
        let ts = p.try_generate(count, seed).expect("valid parameters");
        prop_assert_eq!(ts.len(), count);
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {:?}", ts);
        prop_assert_eq!(&ts, &p.generate(count, seed), "generate must be deterministic");
        // Zero jobs never panic, for any variant.
        prop_assert!(p.try_generate(0, seed).expect("valid").is_empty());
    }
}

/// A zero-application streaming scenario flows through sequence
/// generation, job preparation and the engine without ever
/// reaching for a `last().unwrap()`-style pattern: the table simply has
/// its policy rows with all-zero metrics.
#[test]
fn zero_app_scenario_runs_end_to_end() {
    for arrivals in [
        ArrivalProcess::Batch,
        ArrivalProcess::Poisson {
            mean_gap_us: 50_000,
        },
        ArrivalProcess::Periodic { period_us: 10_000 },
        ArrivalProcess::Bursty {
            size: 4,
            mean_gap_us: 80_000,
        },
    ] {
        let s = Scenario::streaming(4, 0, 11, arrivals);
        let t = s.run().unwrap();
        assert_eq!(t.len(), s.policies.len());
    }
}

/// One application exercises the no-backlog edge of every variant.
#[test]
fn single_app_scenario_runs_end_to_end() {
    let s = Scenario::streaming(
        4,
        1,
        5,
        ArrivalProcess::Bursty {
            size: 8,
            mean_gap_us: 100_000,
        },
    );
    let t = s.run().unwrap();
    assert_eq!(t.len(), s.policies.len());
}
