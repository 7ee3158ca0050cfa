//! Cross-policy invariants on the paper's multimedia workload: the
//! qualitative claims of §VI, asserted on seed-aggregated results so
//! individual-run noise cannot flip them.

use reconfig_reuse::prelude::*;
use reconfig_reuse::workload::{
    runner::{run_cell, CellConfig},
    PolicyKind, SequenceModel,
};
use std::sync::Arc;

fn sequences(apps: usize) -> Vec<Vec<Arc<TaskGraph>>> {
    let templates: Vec<Arc<TaskGraph>> = taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    [101u64, 202, 303]
        .iter()
        .map(|&s| SequenceModel::UniformRandom.generate(&templates, apps, s))
        .collect()
}

fn total_reuses(kind: PolicyKind, rus: usize, seqs: &[Vec<Arc<TaskGraph>>]) -> u64 {
    seqs.iter()
        .map(|s| {
            run_cell(s, &CellConfig::new(kind, rus))
                .expect("cell simulates")
                .stats
                .reuses
        })
        .sum()
}

fn total_overhead_ms(kind: PolicyKind, rus: usize, seqs: &[Vec<Arc<TaskGraph>>]) -> f64 {
    seqs.iter()
        .map(|s| {
            run_cell(s, &CellConfig::new(kind, rus))
                .expect("cell simulates")
                .stats
                .total_overhead()
                .as_ms_f64()
        })
        .sum()
}

#[test]
fn lfd_reuse_dominates_history_policies() {
    // "LRU achieves poor reuse rates with respect to the optimal
    // results of LFD" — and LFD beats every history baseline.
    let seqs = sequences(150);
    for rus in [4usize, 6, 8] {
        let lfd = total_reuses(PolicyKind::Lfd, rus, &seqs);
        for baseline in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Mru,
            PolicyKind::Lfu,
            PolicyKind::Random { seed: 5 },
        ] {
            let other = total_reuses(baseline, rus, &seqs);
            assert!(
                lfd >= other,
                "{} RUs: LFD reuse {lfd} < {} reuse {other}",
                rus,
                baseline.label()
            );
        }
    }
}

#[test]
fn local_lfd_reuse_grows_with_dynamic_list() {
    // "the more task graphs are stored in DL, the better Local LFD
    // works" (aggregate, small tolerance for plateau ties).
    let seqs = sequences(150);
    for rus in [5usize, 7, 9] {
        let mut prev = 0u64;
        for w in [1usize, 2, 4] {
            let reuse = total_reuses(
                PolicyKind::LocalLfd {
                    window: w,
                    skip: false,
                },
                rus,
                &seqs,
            );
            assert!(
                reuse + 5 >= prev,
                "{rus} RUs: reuse dropped from {prev} to {reuse} at window {w}"
            );
            prev = prev.max(reuse);
        }
        let lfd = total_reuses(PolicyKind::Lfd, rus, &seqs);
        assert!(
            lfd + 5 >= prev,
            "{rus} RUs: Local LFD (4) {prev} exceeds oracle {lfd} by more than tolerance"
        );
    }
}

#[test]
fn skip_events_raise_reuse_beyond_the_oracle() {
    // The paper's headline Fig. 9b effect: "Local LFD (1) + Skip Events
    // reuses 48.19% of the tasks, whereas for LFD this rate is 44.38%"
    // — legal because LFD cannot delay reconfigurations.
    let seqs = sequences(200);
    let mut skip_total = 0u64;
    let mut plain_total = 0u64;
    let mut oracle_total = 0u64;
    for rus in [4usize, 5, 6, 7] {
        skip_total += total_reuses(
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            rus,
            &seqs,
        );
        plain_total += total_reuses(
            PolicyKind::LocalLfd {
                window: 1,
                skip: false,
            },
            rus,
            &seqs,
        );
        oracle_total += total_reuses(PolicyKind::Lfd, rus, &seqs);
    }
    assert!(
        skip_total > plain_total,
        "skip {skip_total} should beat plain ASAP {plain_total}"
    );
    assert!(
        skip_total > oracle_total,
        "skip {skip_total} should beat the no-delay oracle {oracle_total}"
    );
}

#[test]
fn overhead_shrinks_as_rus_grow() {
    // Fig. 9c: "this important overhead can be reduced if we increase
    // the number of RUs" — aggregate overhead at 10 RUs is below 4 RUs
    // for every policy family.
    let seqs = sequences(150);
    for kind in [
        PolicyKind::Lru,
        PolicyKind::LocalLfd {
            window: 1,
            skip: true,
        },
        PolicyKind::Lfd,
    ] {
        let small = total_overhead_ms(kind, 4, &seqs);
        let large = total_overhead_ms(kind, 10, &seqs);
        assert!(
            large < small,
            "{}: overhead at 10 RUs ({large}) not below 4 RUs ({small})",
            kind.label()
        );
    }
}

#[test]
fn skip_events_reduce_overhead_under_high_competition() {
    // The design-time no-degradation guarantee is per-graph *in
    // isolation*; in a dynamic sequence reuse shifts the event
    // structure, so a skip can cost time. The paper observes exactly
    // this: at 4 RUs ("extremely high competition") Skip Events reduce
    // the remaining overhead below even LFD's, while "as the number of
    // RUs grows ... LFD is powerful enough to outperform Local LFD".
    // Assert the 4-RU win strictly and bound the high-RU give-back.
    let seqs = sequences(200);
    let plain4 = total_overhead_ms(
        PolicyKind::LocalLfd {
            window: 1,
            skip: false,
        },
        4,
        &seqs,
    );
    let skip4 = total_overhead_ms(
        PolicyKind::LocalLfd {
            window: 1,
            skip: true,
        },
        4,
        &seqs,
    );
    let lfd4 = total_overhead_ms(PolicyKind::Lfd, 4, &seqs);
    assert!(
        skip4 <= plain4,
        "4 RUs: skip overhead {skip4} ms exceeds ASAP {plain4} ms"
    );
    assert!(
        skip4 <= lfd4,
        "4 RUs: skip overhead {skip4} ms exceeds LFD {lfd4} ms (paper's inversion)"
    );
    // At larger RU counts the reuse-for-makespan trade gives back some
    // overhead; bound the give-back so a regression cannot silently
    // blow it up.
    for rus in [6usize, 8] {
        let plain = total_overhead_ms(
            PolicyKind::LocalLfd {
                window: 1,
                skip: false,
            },
            rus,
            &seqs,
        );
        let skip = total_overhead_ms(
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            rus,
            &seqs,
        );
        assert!(
            skip <= plain * 1.35,
            "{rus} RUs: skip overhead {skip} ms exceeds ASAP {plain} ms by more than 35%"
        );
    }
}

#[test]
fn energy_tracks_reuse() {
    // Fewer loads = proportionally less reconfiguration energy.
    let seqs = sequences(100);
    let seq = &seqs[0];
    let lru = run_cell(seq, &CellConfig::new(PolicyKind::Lru, 6)).unwrap();
    let lfd = run_cell(seq, &CellConfig::new(PolicyKind::Lfd, 6)).unwrap();
    assert!(lfd.stats.reuses > lru.stats.reuses);
    assert!(lfd.stats.traffic.energy_uj < lru.stats.traffic.energy_uj);
    assert_eq!(
        lfd.stats.traffic.energy_uj,
        lfd.stats.loads * DeviceSpec::paper_default().energy_per_load_uj
    );
}
