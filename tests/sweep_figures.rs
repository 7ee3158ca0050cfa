//! Golden test of the four sweep figures beyond the paper: each run
//! must regenerate its committed `results/fig_*.csv` byte for byte and
//! then pass the figure's acceptance check, the same one its binary
//! runs.

use rtr_manager::SimError;
use rtr_workload::experiments::{faults, fleet, prefetch, qos};
use rtr_workload::Table;
use std::path::Path;

fn assert_golden(
    name: &str,
    run: fn() -> Result<Table, SimError>,
    check: fn(&Table) -> Result<String, String>,
) {
    let table = run().unwrap_or_else(|e| panic!("{name}: a cell failed to simulate: {e}"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{name}.csv"));
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let csv = table.to_csv();
    if csv != committed {
        let first = csv
            .lines()
            .zip(committed.lines())
            .position(|(now, was)| now != was)
            .map_or("the line count".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{name} no longer reproduces {}; first difference: {first}",
            path.display()
        );
    }
    check(&table).unwrap_or_else(|e| panic!("{name}: acceptance check failed: {e}"));
}

#[test]
fn fig_faults_reproduces_committed_csv_and_passes_check() {
    assert_golden("fig_faults", faults::run, faults::check);
}

#[test]
fn fig_fleet_reproduces_committed_csv_and_passes_check() {
    assert_golden("fig_fleet", fleet::run, fleet::check);
}

#[test]
fn fig_prefetch_reproduces_committed_csv_and_passes_check() {
    assert_golden("fig_prefetch", prefetch::run, prefetch::check);
}

#[test]
fn fig_qos_reproduces_committed_csv_and_passes_check() {
    assert_golden("fig_qos", qos::run, qos::check);
}
