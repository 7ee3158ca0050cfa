//! The zero-latency ("ideal") baseline.
//!
//! The paper expresses overheads "with respect to an ideal schedule
//! where no reconfiguration overhead is generated" (Fig. 2). With zero
//! reconfiguration latency the replacement policy is irrelevant, so the
//! ideal schedule of a job sequence is policy-independent: graphs run
//! back-to-back, and within a graph tasks start as soon as their
//! predecessors finish and an RU is free (list scheduling in
//! reconfiguration-sequence priority order).
//!
//! For graphs whose parallelism never exceeds the RU count — true for
//! every experiment in the paper — this equals the critical path, i.e.
//! the paper's "initial execution time" per application.

use crate::job::JobSpec;
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{reconfiguration_sequence, TaskGraph};
use std::sync::Arc;

/// Ideal (zero-latency) makespan of a single graph on `rus` units.
pub fn ideal_graph_makespan(g: &TaskGraph, rus: usize) -> SimDuration {
    assert!(rus > 0, "need at least one RU");
    let seq = reconfiguration_sequence(g);
    let n = g.len();
    let mut finish: Vec<Option<SimTime>> = vec![None; n];
    // Free times of the RU pool: we only need the multiset.
    let mut ru_free: Vec<SimTime> = vec![SimTime::ZERO; rus];
    let mut started = vec![false; n];
    let mut remaining = n;
    let mut makespan = SimTime::ZERO;

    while remaining > 0 {
        // Earliest start among unstarted ready tasks, in sequence order.
        let mut progressed = false;
        for &node in &seq {
            if started[node.idx()] {
                continue;
            }
            let deps_ready = g.preds(node).iter().all(|p| finish[p.idx()].is_some());
            if !deps_ready {
                continue;
            }
            let ready_at = g
                .preds(node)
                .iter()
                .map(|p| finish[p.idx()].expect("checked above"))
                .max()
                .unwrap_or(SimTime::ZERO);
            // Take the RU that frees earliest.
            let (ru_idx, &free_at) = ru_free
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("rus > 0");
            let start = ready_at.max(free_at);
            let end = start + g.exec_time(node);
            ru_free[ru_idx] = end;
            finish[node.idx()] = Some(end);
            started[node.idx()] = true;
            remaining -= 1;
            makespan = makespan.max(end);
            progressed = true;
        }
        assert!(progressed, "list scheduling stalled on an acyclic graph");
    }
    makespan.since(SimTime::ZERO)
}

/// Ideal makespan of a full job sequence: graphs execute strictly
/// sequentially in arrival order (ties broken by submission order,
/// matching the streaming engine), each starting no earlier than its
/// arrival. With every arrival at t = 0 — the paper's batch setting —
/// this is the plain sum of per-graph ideals.
pub fn ideal_sequence_makespan(jobs: &[JobSpec], rus: usize) -> SimDuration {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].arrival, i));
    ideal_sequence_makespan_with(jobs, order, |g| ideal_graph_makespan(g, rus))
}

/// The sequencing rule itself, shared with the engine's memoised path
/// ([`Engine::finish`](crate::Engine::finish)): jobs run strictly
/// sequentially in the given `(arrival, submission)` order, each
/// starting no earlier than its arrival, with `graph_ideal` supplying
/// the per-graph zero-latency makespan (computed here, memoised per
/// template in the engine). This is the single source of truth for the
/// ideal baseline's ordering semantics.
pub fn ideal_sequence_makespan_with(
    jobs: &[JobSpec],
    order: impl IntoIterator<Item = usize>,
    mut graph_ideal: impl FnMut(&Arc<TaskGraph>) -> SimDuration,
) -> SimDuration {
    let mut clock = SimTime::ZERO;
    for i in order {
        let start = clock.max(jobs[i].arrival);
        clock = start + graph_ideal(&jobs[i].graph);
    }
    clock.since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;
    use std::sync::Arc;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_ms(x)
    }

    #[test]
    fn ideal_equals_critical_path_when_rus_suffice() {
        assert_eq!(ideal_graph_makespan(&benchmarks::jpeg(), 4), ms(79));
        assert_eq!(ideal_graph_makespan(&benchmarks::mpeg1(), 4), ms(37));
        assert_eq!(ideal_graph_makespan(&benchmarks::hough(), 4), ms(94));
        assert_eq!(ideal_graph_makespan(&benchmarks::fig3_tg1(), 4), ms(18));
        assert_eq!(ideal_graph_makespan(&benchmarks::fig3_tg2(), 4), ms(26));
    }

    #[test]
    fn single_ru_serialises_everything() {
        let g = benchmarks::mpeg1();
        assert_eq!(ideal_graph_makespan(&g, 1), g.total_exec_time());
    }

    #[test]
    fn limited_rus_extend_parallel_sections() {
        // Hough has a 2-wide level (GradX ∥ GradY, 18 ms each); with one
        // RU they serialise: 94 + 18 = 112.
        assert_eq!(ideal_graph_makespan(&benchmarks::hough(), 1), ms(112));
        assert_eq!(ideal_graph_makespan(&benchmarks::hough(), 2), ms(94));
    }

    #[test]
    fn sequence_is_sum_of_graphs() {
        let jobs = vec![
            JobSpec::new(Arc::new(benchmarks::fig3_tg1())),
            JobSpec::new(Arc::new(benchmarks::fig3_tg2())),
            JobSpec::new(Arc::new(benchmarks::fig3_tg1())),
        ];
        // 18 + 26 + 18 = 62 ms — the ideal baseline of Fig. 3.
        assert_eq!(ideal_sequence_makespan(&jobs, 4), ms(62));
    }

    #[test]
    fn arrivals_insert_idle_gaps_and_reorder() {
        // tg2 (26 ms) arrives at 0, tg1 (18 ms) arrives at 100 ms:
        // the machine idles 100 − 26 = 74 ms, total 118 ms.
        let jobs = vec![
            JobSpec::new(Arc::new(benchmarks::fig3_tg2())),
            JobSpec::new(Arc::new(benchmarks::fig3_tg1()))
                .with_arrival(rtr_sim::SimTime::from_ms(100)),
        ];
        assert_eq!(ideal_sequence_makespan(&jobs, 4), ms(118));
        // Submission order reversed: arrival order still wins, so the
        // ideal is identical.
        let jobs_rev = vec![jobs[1].clone(), jobs[0].clone()];
        assert_eq!(ideal_sequence_makespan(&jobs_rev, 4), ms(118));
    }

    #[test]
    fn fig2_sequence_ideal() {
        let tg1 = Arc::new(benchmarks::fig2_tg1());
        let tg2 = Arc::new(benchmarks::fig2_tg2());
        let jobs: Vec<JobSpec> = [&tg1, &tg2, &tg2, &tg1, &tg2]
            .iter()
            .map(|g| JobSpec::new(Arc::clone(g)))
            .collect();
        // 9 + 8 + 8 + 9 + 8 = 42 ms — the ideal baseline of Fig. 2.
        assert_eq!(ideal_sequence_makespan(&jobs, 4), ms(42));
    }
}
