//! Fingerprint replay round-trips for the vopr fuzz harness: a failing
//! case's fingerprint — parsed back from its string form — must replay
//! through the public replay API ([`case_report`]) to the
//! byte-identical violation report, minimised reproduction included.

use rtr_manager::CheckerRegistry;
use rtr_workload::vopr::{
    case_report, run_campaign, CampaignConfig, CaseStatus, Fault, Fingerprint,
};

/// Finds a case whose injected fault actually produces violations
/// (faults only bite on runs that execute at least one task).
fn failing_fingerprint(registry: &CheckerRegistry, fault: Fault) -> Fingerprint {
    for case_index in 0..64 {
        let fp = Fingerprint {
            master_seed: 0xF00D,
            case_index,
            fault: Some(fault),
        };
        if case_report(&fp, registry, false).outcome.violation_count() > 0 {
            return fp;
        }
    }
    panic!("no case in 0..64 produced a violation under {fault:?}");
}

#[test]
fn fabricated_violation_replays_to_identical_report() {
    let registry = CheckerRegistry::standard();
    for fault in [Fault::DropExecEnd, Fault::BumpReuses] {
        let fp = failing_fingerprint(&registry, fault);
        let original = case_report(&fp, &registry, true);
        assert!(
            original.outcome.violation_count() > 0,
            "the fault must fabricate a violation"
        );
        // Round-trip: stringified fingerprint → parse → replay.
        let parsed: Fingerprint = fp.to_string().parse().expect("fingerprint parses back");
        assert_eq!(parsed, fp);
        let replayed = case_report(&parsed, &registry, true);
        assert_eq!(
            original.rendered, replayed.rendered,
            "replay must reproduce the byte-identical violation report"
        );
    }
}

#[test]
fn fault_violations_are_attributed_to_named_checkers() {
    let registry = CheckerRegistry::standard();
    let fp = failing_fingerprint(&registry, Fault::BumpReuses);
    let report = case_report(&fp, &registry, false);
    match &report.outcome.status {
        CaseStatus::Checked(r) => {
            assert!(
                r.failing().contains(&"ledger"),
                "a bumped reuse counter must trip ledger, got {:?}",
                r.failing()
            );
        }
        other => panic!("expected a checked case, got {other:?}"),
    }
}

#[test]
fn campaigns_are_deterministic() {
    let registry = CheckerRegistry::standard();
    let config = CampaignConfig {
        master_seed: 0xBEE5,
        cases: 64,
        minimize: false,
        ..CampaignConfig::default()
    };
    let a = run_campaign(&config, &registry);
    let b = run_campaign(&config, &registry);
    assert_eq!(a.cases, b.cases);
    assert_eq!(a.stalled, b.stalled);
    assert_eq!(a.violating_cases, b.violating_cases);
    assert_eq!(a.depth_cases, b.depth_cases);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.coverage_csv(), b.coverage_csv());
    // A healthy engine: no real violations in the un-faulted campaign.
    assert!(a.is_clean(), "campaign found violations");
}

#[test]
fn campaign_with_disabled_checker_reports_no_coverage_for_it() {
    let mut registry = CheckerRegistry::standard();
    registry
        .set_enabled("pooled-identity", false)
        .expect("registered name");
    let config = CampaignConfig {
        master_seed: 0xBEE5,
        cases: 16,
        minimize: false,
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&config, &registry);
    assert!(
        !summary.coverage.iter().any(|c| c.name == "pooled-identity"),
        "disabled checkers must not appear in coverage"
    );
}
