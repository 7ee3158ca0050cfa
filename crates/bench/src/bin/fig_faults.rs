//! Fault injection and recovery: fault-rate class × replacement
//! policy × RU count on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_faults
//! ```
//!
//! Prints the table, writes `results/fig_faults.csv` and runs the
//! acceptance check: no row loses a job (the degraded-pool path
//! completes the full batch), every low-rate row keeps availability
//! above 90%, and faults inject at both non-zero rates only.

use rtr_workload::experiments::faults;
use std::process::ExitCode;

fn main() -> ExitCode {
    rtr_bench::sweep_figure("fig_faults", faults::run, faults::check)
}
