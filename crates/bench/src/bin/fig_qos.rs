//! Preemptive, deadline-aware scheduling: preemption mode × QoS class
//! mix × arrival intensity on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_qos
//! ```
//!
//! Prints the table, writes `results/fig_qos.csv` and runs the
//! acceptance check: at the heaviest arrival intensity, checkpointing
//! preemption cuts the promoted class's deadline-miss rate at least in
//! half relative to run-to-completion, and uniform-mix rows do not
//! depend on the preemption mode.

use rtr_workload::experiments::qos;
use std::process::ExitCode;

fn main() -> ExitCode {
    rtr_bench::sweep_figure("fig_qos", qos::run, qos::check)
}
