//! Regenerates the paper's Table II: the cost split between the
//! design-time phase (mobility calculation) and the run-time
//! replacement module, per benchmark application.
//!
//! It then times the paper's 10× claim: "by performing the bulk of the
//! computations at design time, we reduce the execution time of the
//! replacement technique by 10 times with respect to an equivalent
//! purely run-time one." The same 30-application sequence over the
//! three multimedia templates is prepared two ways:
//!
//! * hybrid — every arrival goes through
//!   [`TemplateRegistry::instantiate`], which computes each template's
//!   mobility once (3 computations) and serves the rest from its memo;
//! * purely run-time — [`compute_mobility`] at every arrival (30
//!   computations), the cost a system without the design-time phase
//!   pays.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin table2
//! ```

use rtr_bench::median_ns;
use rtr_core::{compute_mobility, TemplateRegistry};
use rtr_manager::{JobSpec, ManagerConfig};
use rtr_taskgraph::TaskGraph;
use rtr_workload::experiments::table2::table2;
use rtr_workload::SequenceModel;
use std::sync::Arc;

/// Sequence preparations per timed batch.
const PREP_CALLS: u32 = 5;

fn main() {
    println!("Table II — design-time vs run-time cost (host CPU; paper used a 100 MHz PowerPC)");
    println!("Paper: initial exec 79/37/94 ms; manager 0.87/1.02/0.88 ms; replacement");
    println!("       0.082 ms avg (0.09–0.22%); design-time 8.60/11.09/14.48 ms\n");
    let t = table2(100);
    println!("{}", t.to_markdown());
    t.write_csv(std::path::Path::new("results/table2.csv"))
        .expect("write csv");
    println!("CSV written to results/table2.csv");

    let templates: Vec<Arc<TaskGraph>> = rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&templates, 30, 99);
    let cfg = ManagerConfig::paper_default();
    let hybrid = median_ns(PREP_CALLS, || {
        let registry = TemplateRegistry::new();
        sequence
            .iter()
            .map(|g| {
                registry
                    .instantiate(g, &cfg, true)
                    .expect("mobility computes")
            })
            .collect::<Vec<JobSpec>>()
    });
    let runtime = median_ns(PREP_CALLS, || {
        sequence
            .iter()
            .map(|g| {
                let mobility = compute_mobility(g, &cfg).expect("mobility computes");
                JobSpec::new(Arc::clone(g)).with_mobility(Arc::new(mobility))
            })
            .collect::<Vec<JobSpec>>()
    });
    let (hybrid_us, runtime_us) = (hybrid / 1e3, runtime / 1e3);
    println!("\nThe 10× claim: preparing one 30-app sequence (median of 15 batches)");
    println!("  hybrid (mobility memoised per template): {hybrid_us:>8.1} µs");
    println!("  purely run-time (mobility per arrival):  {runtime_us:>8.1} µs");
    println!("  ratio: {:.1}× (paper: 10×)", runtime / hybrid);
}
