//! Shared helpers for the figure binaries: paper-style schedule
//! rendering and the one driver every `fig_*` sweep binary runs.

use rtr_manager::{SimError, SimulationOutcome, Trace};
use rtr_workload::Table;
use std::path::Path;
use std::process::ExitCode;

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
