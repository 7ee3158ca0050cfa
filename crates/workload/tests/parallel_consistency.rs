//! Determinism of the parallel sweep substrate: `parallel_map` must be
//! observationally identical to a sequential map for any item/worker
//! combination, and a whole `Scenario` must tabulate identically
//! whether its policy cells run sequentially or fanned out.

use proptest::prelude::*;
use rtr_workload::arrivals::ArrivalProcess;
use rtr_workload::parallel::parallel_map;
use rtr_workload::Scenario;

/// A cheap but order-sensitive function: mixes the value with its
/// position so any reordering or dropped/duplicated item shows up.
fn mix(idx_value: (usize, u64)) -> u64 {
    let (idx, value) = idx_value;
    let mut z = value ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_map_equals_sequential_map(
        seed in any::<u64>(),
        items in 0usize..300,
        workers in 1usize..24,
    ) {
        let input: Vec<(usize, u64)> = (0..items)
            .map(|i| (i, seed.wrapping_add(i as u64)))
            .collect();
        let sequential: Vec<u64> = input.clone().into_iter().map(mix).collect();
        let parallel = parallel_map(input, workers, mix);
        prop_assert_eq!(parallel, sequential);
    }
}

#[test]
fn scenario_tables_identical_sequential_vs_parallel() {
    for scenario in [
        Scenario::paper_fig9(4, 40, 9),
        Scenario::streaming(
            4,
            40,
            9,
            ArrivalProcess::Poisson {
                mean_gap_us: 60_000,
            },
        ),
    ] {
        let sequential = scenario.run_with_workers(1).unwrap();
        let parallel = scenario.run_with_workers(8).unwrap();
        assert_eq!(
            sequential.to_markdown(),
            parallel.to_markdown(),
            "scenario {} diverged between sequential and parallel runs",
            scenario.name
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }
}
