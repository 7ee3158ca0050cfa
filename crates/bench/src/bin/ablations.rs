//! Runs the extended ablations: Dynamic-List window sweep,
//! reconfiguration-latency sweep and workload-model sweep.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin ablations
//! ```

use rtr_manager::SimError;
use rtr_workload::experiments::ablations::{dl_window_sweep, latency_sweep, sequence_model_sweep};
use std::path::Path;

fn main() -> Result<(), SimError> {
    let results = Path::new("results");

    // 7 RUs: enough capacity that extra future knowledge changes
    // victim choices (at 4 RUs the 15 configurations thrash and every
    // window behaves alike).
    let t = dl_window_sweep(500, 42, 7, &[1, 2, 3, 4, 6, 8])?;
    println!("{}", t.to_markdown());
    t.write_csv(&results.join("ablation_dl_window.csv"))
        .unwrap();

    let t = latency_sweep(500, 42, 4, &[1, 2, 4, 8, 16])?;
    println!("{}", t.to_markdown());
    t.write_csv(&results.join("ablation_latency.csv")).unwrap();

    let t = sequence_model_sweep(500, 42, 6)?;
    println!("{}", t.to_markdown());
    t.write_csv(&results.join("ablation_workload.csv")).unwrap();

    println!("CSV written under results/");
    Ok(())
}
