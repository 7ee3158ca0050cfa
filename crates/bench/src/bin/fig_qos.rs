//! Preemptive, deadline-aware scheduling: preemption mode × QoS class
//! mix × arrival intensity on the multimedia workload.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig_qos            # full grid
//! cargo run --release -p rtr-bench --bin fig_qos -- smoke   # CI-sized
//! cargo run --release -p rtr-bench --bin fig_qos -- 500 11  # apps seed
//! ```
//!
//! The table is printed as Markdown and written as CSV under
//! `results/fig_qos.csv`. After the sweep the binary checks the
//! acceptance envelope: at the heaviest arrival intensity,
//! checkpointing preemption must cut the promoted class's
//! deadline-miss rate at least in half relative to run-to-completion.

use rtr_workload::experiments::qos::{fig_qos, QosParams};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = match args.first().map(String::as_str) {
        Some("smoke") => QosParams::smoke(),
        _ => QosParams::default(),
    };
    if let Some(apps) = args.first().filter(|a| a.as_str() != "smoke") {
        params.apps = apps.parse().expect("apps must be a number");
    }
    if let Some(seed) = args.get(1) {
        params.seed = seed.parse().expect("seed must be a number");
    }

    println!(
        "fig_qos — {} apps from {{JPEG, MPEG-1, Hough}}, seed {}, {} RUs, {}",
        params.apps,
        params.seed,
        params.rus,
        params.policy.label()
    );
    println!(
        "arrival processes (light -> heavy): {}",
        params
            .processes
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    let t = fig_qos(&params);
    println!("{}", t.to_markdown());
    let csv = Path::new("results").join("fig_qos.csv");
    t.write_csv(&csv).expect("write csv");
    println!("CSV written to {}", csv.display());

    // Acceptance envelope: at peak intensity, Checkpoint cuts the
    // promoted class's miss rate at least in half versus Off.
    let csv_text = t.to_csv();
    let peak = params.highest_intensity().label();
    let miss_of = |mode: &str| -> f64 {
        csv_text
            .lines()
            .find(|l| {
                let c: Vec<&str> = l.split(',').collect();
                c[0] == peak && c[1] != "uniform" && c[2] == mode
            })
            .map(|l| {
                l.split(',')
                    .nth(5)
                    .expect("miss-rate column")
                    .parse()
                    .expect("miss rate parses")
            })
            .unwrap_or_else(|| panic!("missing {mode} row at {peak}"))
    };
    let off = miss_of("off");
    let ckpt = miss_of("checkpoint");
    assert!(
        off > 0.0 && ckpt <= off / 2.0,
        "acceptance: checkpoint miss rate {ckpt}% must be <= half of off's {off}%"
    );
    println!("acceptance: checkpoint miss {ckpt}% <= half of off {off}% at {peak}");
}
