//! Reuse-aware configuration prefetching: prefetch depth × policy ×
//! arrival intensity on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_prefetch            # full grid
//! cargo run --release -p rtr-bench --bin fig_prefetch -- smoke   # CI-sized
//! cargo run --release -p rtr-bench --bin fig_prefetch -- 500 11  # apps seed
//! ```
//!
//! The table is printed as Markdown and written as CSV under
//! `results/fig_prefetch.csv`. Depth 0 rows are the prefetch-off
//! baseline (the plain streaming path).

use rtr_workload::experiments::prefetch::{fig_prefetch, PrefetchParams};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = match args.first().map(String::as_str) {
        Some("smoke") => PrefetchParams::smoke(),
        _ => PrefetchParams::default(),
    };
    if let Some(apps) = args.first().filter(|a| a.as_str() != "smoke") {
        params.apps = apps.parse().expect("apps must be a number");
    }
    if let Some(seed) = args.get(1) {
        params.seed = seed.parse().expect("seed must be a number");
    }

    println!(
        "fig_prefetch — {} apps from {{JPEG, MPEG-1, Hough}}, seed {}, RUs {:?}, depths {:?}",
        params.apps, params.seed, params.rus, params.depths
    );
    println!(
        "arrival processes: {}",
        params
            .processes
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    let t = fig_prefetch(&params);
    println!("{}", t.to_markdown());
    let csv = Path::new("results").join("fig_prefetch.csv");
    t.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());
}
