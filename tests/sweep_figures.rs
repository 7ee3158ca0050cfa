//! Golden test of the committed figure CSVs: the paper's Fig. 9 panels
//! and the four sweep figures beyond the paper must each regenerate
//! their `results/*.csv` byte for byte; the four sweeps then pass their
//! acceptance check, the same one their binary runs.

use rtr_manager::SimError;
use rtr_workload::experiments::fig9::{fig9a, fig9b, fig9c, Fig9Params};
use rtr_workload::experiments::{faults, fleet, prefetch, qos};
use rtr_workload::Table;
use std::path::Path;

/// Fails unless `run` renders byte for byte as the committed
/// `results/<name>.csv`; returns the table.
fn assert_committed(name: &str, run: Result<Table, SimError>) -> Table {
    let table = run.unwrap_or_else(|e| panic!("{name}: a cell failed to simulate: {e}"));
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
    table
}

fn assert_golden(
    name: &str,
    run: fn() -> Result<Table, SimError>,
    check: fn(&Table) -> Result<String, String>,
) {
    let table = assert_committed(name, run());
    check(&table).unwrap_or_else(|e| panic!("{name}: acceptance check failed: {e}"));
}

#[test]
fn fig9a_reproduces_committed_csv() {
    assert_committed("fig9a", fig9a(&Fig9Params::default()));
}

#[test]
fn fig9b_reproduces_committed_csv() {
    assert_committed("fig9b", fig9b(&Fig9Params::default()));
}

#[test]
fn fig9c_reproduces_committed_csv() {
    assert_committed("fig9c", fig9c(&Fig9Params::default()));
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
