//! Regenerates the paper's Fig. 9 (a, b and c): reuse rates and
//! remaining reconfiguration overhead for 500 random applications on
//! 4–10 RUs.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig9            # all three
//! cargo run --release -p rtr-bench --bin fig9 -- a       # one panel
//! cargo run --release -p rtr-bench --bin fig9 -- all 500 11,22,33
//! ```
//!
//! Tables are printed as Markdown and written as CSV under `results/`.

use rtr_manager::SimError;
use rtr_workload::experiments::fig9::{fig9a, fig9b, fig9c, Fig9Params};
use std::path::Path;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.first().map(String::as_str).unwrap_or("all");
    let mut params = Fig9Params::default();
    if let Some(apps) = args.get(1) {
        params.apps = apps.parse().expect("apps must be a number");
    }
    if let Some(seeds) = args.get(2) {
        params.seeds = seeds
            .split(',')
            .map(|s| s.parse().expect("seeds must be numbers"))
            .collect();
    }

    println!(
        "Fig. 9 — {} apps from {{JPEG, MPEG-1, Hough}}, seeds {:?}, RUs {:?}\n",
        params.apps, params.seeds, params.rus
    );

    let results = Path::new("results");
    if panel == "a" || panel == "all" {
        let t = fig9a(&params)?;
        println!("{}", t.to_markdown());
        t.write_csv(&results.join("fig9a.csv")).expect("write csv");
    }
    if panel == "b" || panel == "all" {
        let t = fig9b(&params)?;
        println!("{}", t.to_markdown());
        t.write_csv(&results.join("fig9b.csv")).expect("write csv");
    }
    if panel == "c" || panel == "all" {
        let t = fig9c(&params)?;
        println!("{}", t.to_markdown());
        t.write_csv(&results.join("fig9c.csv")).expect("write csv");
    }
    println!("CSV written under results/");
    Ok(())
}
