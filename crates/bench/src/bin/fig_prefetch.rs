//! Reuse-aware configuration prefetching: prefetch depth × policy ×
//! arrival intensity on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_prefetch
//! ```
//!
//! Prints the table, writes `results/fig_prefetch.csv` and runs the
//! acceptance check: at `poisson(100ms)` on 4 RUs, depth 4 lowers
//! Local LFD (1)'s and LFD's overhead without lowering their reuse,
//! and with prefetch off heavier load gives a longer mean sojourn.
//! Depth 0 rows are the prefetch-off baseline (the plain streaming
//! path).

use rtr_workload::experiments::prefetch;
use std::process::ExitCode;

fn main() -> ExitCode {
    rtr_bench::sweep_figure("fig_prefetch", prefetch::run, prefetch::check)
}
