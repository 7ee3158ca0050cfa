//! Shared helpers for the figure binaries: paper-style schedule
//! rendering, the one driver every `fig_*` sweep binary runs, and the
//! micro-timer of the `table2` and `replacement_decision` binaries.

use rtr_manager::{SimError, SimulationOutcome, Trace};
use rtr_workload::Table;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Renders a simulation's schedule as an ASCII Gantt chart plus a
/// paper-style caption (`Reuse: X% / Overhead: Y ms`).
pub fn render_outcome(title: &str, out: &SimulationOutcome, rus: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!("--- {title} ---\n"));
    s.push_str(&format!(
        "Reuse: {:.1}%   Overhead: {}   Makespan: {}\n",
        out.stats.reuse_rate_pct(),
        out.stats.total_overhead(),
        out.stats.makespan,
    ));
    s.push_str(&render_gantt(&out.trace, rus));
    s
}

/// Renders only the Gantt chart of a trace.
pub fn render_gantt(trace: &Trace, rus: usize) -> String {
    trace.to_gantt(rus).render()
}

/// Runs one sweep figure end to end: prints the table `run` returns,
/// writes it to `results/<name>.csv`, then runs the figure's acceptance
/// `check` over it. Fails if the sweep, the write or the check fails.
pub fn sweep_figure(
    name: &str,
    run: fn() -> Result<Table, SimError>,
    check: fn(&Table) -> Result<String, String>,
) -> ExitCode {
    let table = match run() {
        Ok(table) => table,
        Err(e) => {
            eprintln!("{name}: a cell failed to simulate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", table.to_markdown());
    let csv = Path::new("results").join(format!("{name}.csv"));
    if let Err(e) = table.write_csv(&csv) {
        eprintln!("{name}: cannot write {}: {e}", csv.display());
        return ExitCode::FAILURE;
    }
    println!("CSV written to {}", csv.display());
    match check(&table) {
        Ok(summary) => {
            println!("acceptance: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: acceptance check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median wall-clock nanoseconds per call of `f`: one warm-up batch,
/// then 15 timed batches of `calls` calls each.
pub fn median_ns<T>(calls: u32, mut f: impl FnMut() -> T) -> f64 {
    const BATCHES: usize = 15;
    for _ in 0..calls {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_manager::{simulate, FirstCandidatePolicy, JobSpec, ManagerConfig};
    use std::sync::Arc;

    #[test]
    fn renders_caption_and_rows() {
        let jobs = vec![JobSpec::new(Arc::new(rtr_taskgraph::benchmarks::jpeg()))];
        let cfg = ManagerConfig::paper_default();
        let out = simulate(&cfg, &jobs, &mut FirstCandidatePolicy).unwrap();
        let s = render_outcome("JPEG", &out, 4);
        assert!(s.contains("Reuse: 0.0%"));
        assert!(s.contains("RU1"));
        assert!(s.contains("RU4"));
    }
}
