//! Fault injection and recovery: fault-rate class × replacement
//! policy × RU count on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_faults            # full grid
//! cargo run --release -p rtr-bench --bin fig_faults -- smoke   # CI-sized
//! cargo run --release -p rtr-bench --bin fig_faults -- 500 11  # apps seed
//! ```
//!
//! The table is printed as Markdown and written as CSV under
//! `results/fig_faults.csv`. After the sweep the binary checks the
//! acceptance envelope: no row may lose a job (the degraded-pool path
//! completes the full batch), and every low-rate row must keep
//! availability above 90%.

use rtr_workload::experiments::faults::{fig_faults, FaultParams};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = match args.first().map(String::as_str) {
        Some("smoke") => FaultParams::smoke(),
        _ => FaultParams::default(),
    };
    if let Some(apps) = args.first().filter(|a| a.as_str() != "smoke") {
        params.apps = apps.parse().expect("apps must be a number");
    }
    if let Some(seed) = args.get(1) {
        params.seed = seed.parse().expect("seed must be a number");
    }

    println!(
        "fig_faults — {} apps from {{JPEG, MPEG-1, Hough}}, seed {}, RUs {:?}",
        params.apps, params.seed, params.rus
    );
    println!();

    let t = fig_faults(&params);
    println!("{}", t.to_markdown());
    let csv = Path::new("results").join("fig_faults.csv");
    t.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());

    // Acceptance envelope: the degraded-pool path never loses a job,
    // and availability stays above 90% at the low fault rate.
    let csv_text = t.to_csv();
    let mut worst_low_availability = 100.0f64;
    for line in csv_text.lines().skip(1) {
        let c: Vec<&str> = line.split(',').collect();
        let jobs: usize = c[3].parse().expect("jobs column");
        assert_eq!(
            jobs, params.apps,
            "acceptance: a fault row lost jobs: {line}"
        );
        if c[0] == "low" {
            let availability: f64 = c[11].parse().expect("availability column");
            worst_low_availability = worst_low_availability.min(availability);
            assert!(
                availability > 90.0,
                "acceptance: low-rate availability {availability}% must exceed 90%: {line}"
            );
        }
    }
    println!(
        "acceptance: no jobs lost in any cell; worst low-rate availability \
         {worst_low_availability}% > 90%"
    );
}
