//! Regenerates the paper's Table I: worst-case run-time execution time
//! of the replacement strategies (victim absent from every list, all 4
//! RUs candidates).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin table1
//! ```

use rtr_workload::experiments::table1::table1_rows;

fn main() {
    println!("Table I — worst-case decision cost (host CPU; paper used a 100 MHz PowerPC 405)");
    println!("Paper: LRU 7.2 µs; LFD 11349.8 µs; Local LFD (1/2/4)+Skip 60.3/74.1/110.2 µs\n");
    let t = table1_rows(2_000);
    println!("{}", t.to_markdown());
    t.write_csv(std::path::Path::new("results/table1.csv"))
        .expect("write csv");
    println!("CSV written to results/table1.csv");
}
