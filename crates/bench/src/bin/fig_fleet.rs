//! Multi-tenant fleet sweep: placement policy × device mix × tenant
//! count × arrival process on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_fleet
//! ```
//!
//! Prints the table, writes `results/fig_fleet.csv` and runs the
//! acceptance check: no cell loses an admitted job, `reuse-affinity`
//! placement beats `round-robin` on mean cross-device reuse (routing a
//! job to the device that already holds its configurations turns
//! cross-device cache misses into reuses), and a one-device fleet
//! matches the plain engine path in stats and trace.

use rtr_workload::experiments::fleet;
use std::process::ExitCode;

fn main() -> ExitCode {
    rtr_bench::sweep_figure("fig_fleet", fleet::run, fleet::check)
}
