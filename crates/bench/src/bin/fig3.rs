//! Regenerates the paper's Fig. 3: the Skip Events motivational
//! example — Local LFD with ASAP loading vs Local LFD allowed to delay
//! reconfigurations within the tasks' mobility.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin fig3
//! ```

use rtr_bench::render_outcome;
use rtr_core::{LfdPolicy, TemplateRegistry};
use rtr_manager::{simulate, JobSpec, Lookahead, ManagerConfig};
use std::sync::Arc;

fn main() {
    let tg1 = Arc::new(rtr_taskgraph::benchmarks::fig3_tg1());
    let tg2 = Arc::new(rtr_taskgraph::benchmarks::fig3_tg2());
    let cfg_base = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let registry = TemplateRegistry::new();
    let jobs: Vec<JobSpec> = [&tg1, &tg2, &tg1]
        .iter()
        .map(|g| {
            registry
                .instantiate(g, &cfg_base, true)
                .expect("fig3 graphs annotate")
        })
        .collect();

    println!("Fig. 3 — sequence TG1, TG2, TG1 on 4 RUs, 4 ms latency");
    println!(
        "TG1 = T1(12) -> {{T2(6), T3(6)}};  TG2 = T4(12) -> {{T5(8), T6(6)}} -> T7(6); ideal = {}",
        rtr_manager::ideal::ideal_sequence_makespan(&jobs, 4)
    );
    println!("Paper: ASAP 0%/12ms/74ms; + Skip Events 10%/8ms/70ms\n");

    let asap = simulate(&cfg_base, &jobs, &mut LfdPolicy::local(1)).expect("fig3a simulates");
    println!("{}", render_outcome("(a) Local LFD, ASAP", &asap, 4));

    let cfg_skip = cfg_base.clone().with_skip_events(true);
    let skip =
        simulate(&cfg_skip, &jobs, &mut LfdPolicy::local_with_skip(1)).expect("fig3b simulates");
    println!(
        "{}",
        render_outcome("(b) Local LFD + Skip Events", &skip, 4)
    );
    println!(
        "Skip Events delayed {} reconfiguration(s); task T1 reused: {}",
        skip.stats.skips,
        skip.stats.reuses == 1
    );
}
