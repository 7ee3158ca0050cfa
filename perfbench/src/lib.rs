//! The repository's end-to-end benchmark: one command, three workloads,
//! every metric by name and unit, and a correctness check on every run.
//!
//! * `fig9_batch` — the paper's own evaluation (Fig. 9a–c): 500-app
//!   uniform-random multimedia sequences on 4..=10 RUs under the union
//!   of the Fig. 9 policy sets, through the parallel sweep runner.
//! * `qos_stream` — the same engine through its feature paths: Poisson
//!   arrivals, promoted QoS lanes with deadlines, checkpoint
//!   preemption, prefetching and low-rate fault injection.
//! * `fleet_soak` — 1e6 jobs through a 4-device multi-tenant fleet in
//!   10k-job waves: ingress, placement, device engines and roll-up.
//!
//! Every timed cell (or fleet soak) is *cold*: it simulates a job
//! sequence generated from its own seed, which no earlier cell in the
//! process used ([`SeedGuard`] asserts it). Simulated metrics come from
//! a fixed verification set drawn from the run seed, so they repeat
//! exactly for a seed whatever the host speed; the verification set is
//! simulated twice on fresh runners and the two digests must agree.
//!
//! The benchmark drives only public entry points: `SequenceModel`,
//! `ArrivalProcess`, `QosSpec`, `parallel_map_with` + `pooled_workers`
//! + `CellRunner`, and `Fleet`.

pub mod fleet;
pub mod sweep;
pub mod trace;

use rtr_manager::RunStats;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics (printed with `--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reuse_pct", "%"),
    ("remaining_overhead_pct", "%"),
    ("sojourn_p99_ms", "ms"),
];

/// Per-layer metrics (printed with `--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parallel.workers", "count"),
    ("parallel.jobs_per_s_1w", "1/s"),
    ("parallel.jobs_per_s_nw", "1/s"),
    ("parallel.scaling_eff", "ratio"),
    ("parallel.busy_pct", "%"),
    ("parallel.self_s", "s"),
    ("runner.self_s", "s"),
    ("registry.design_s", "s"),
    ("registry.templates", "count"),
    ("registry.mobility_entries", "count"),
    ("policy.calls", "count"),
    ("policy.decide_ns", "ns"),
    ("policy.share_pct", "%"),
    ("engine.self_s", "s"),
    ("engine.ns_per_task", "ns"),
    ("engine.tasks", "count"),
    ("engine.loads", "count"),
    ("engine.reuses", "count"),
    ("engine.skips", "count"),
    ("engine.stalls", "count"),
    ("hw.port_busy_pct", "%"),
    ("prefetch.issued", "count"),
    ("prefetch.hits", "count"),
    ("prefetch.wasted", "count"),
    ("prefetch.hit_ratio", "ratio"),
    ("qos.preemptions", "count"),
    ("qos.replayed_nodes", "count"),
    ("qos.deadline_miss_pct", "%"),
    ("faults.injected", "count"),
    ("faults.retries", "count"),
    ("fleet.submit_s", "s"),
    ("fleet.drain_s", "s"),
    ("fleet.place_ns_per_job", "ns"),
    ("fleet.run_s", "s"),
    ("fleet.outcome_s", "s"),
    ("fleet.run_share_pct", "%"),
    ("fleet.fairness_index", "ratio"),
    ("gen.sequence_s", "s"),
    ("gen.arrivals_s", "s"),
    ("gen.qos_s", "s"),
    ("trace.jobs_per_s_untraced", "1/s"),
    ("trace.jobs_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 9 batch sweep.
    Fig9Batch,
    /// Streaming arrivals through the QoS, prefetch and fault paths.
    QosStream,
    /// The million-job multi-tenant fleet soak.
    FleetSoak,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig9Batch,
        Workload::QosStream,
        Workload::FleetSoak,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Batch => "fig9_batch",
            Workload::QosStream => "qos_stream",
            Workload::FleetSoak => "fleet_soak",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrinks every input (the benchmark's own tests).
    pub smoke: bool,
}

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Cells (or fleet soaks) simulated, timed and verification alike.
    pub attempted: u64,
    /// Of those, the ones that returned an error or failed a check.
    pub failed: u64,
    /// Digest of every simulated statistic of the verification set.
    pub digest: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, check failures, trace path.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one benchmark.
pub fn run(opts: &Options) -> Report {
    let mut checks = Checks::default();
    let mut values = match opts.workload {
        Workload::Fig9Batch => sweep::run(&sweep::Plan::fig9_batch(opts.smoke), opts, &mut checks),
        Workload::QosStream => sweep::run(&sweep::Plan::qos_stream(opts.smoke), opts, &mut checks),
        Workload::FleetSoak => fleet::run(opts, &mut checks),
    };
    values.set("peak_rss_mb", peak_rss_mb());
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name, opts.trace),
        })
        .collect();
    for m in &mut metrics {
        if !m.value.is_finite() {
            checks.problem(format!("metric {} is {}", m.name, m.value));
            m.value = 0.0;
        }
    }
    let mut notes = values.notes;
    notes.extend(checks.problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Report {
        correct: checks.problems.is_empty(),
        attempted: checks.attempted,
        failed: checks.failed,
        digest: values.digest,
        metrics,
        notes,
    }
}

/// Metric values gathered by a workload, plus its digest and notes.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<&'static str, f64>,
    /// Digest of the verification set's simulated statistics.
    pub digest: u64,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Values {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.map.insert(name, value);
    }

    /// A metric's value. An end-to-end metric must have been set; a
    /// per-layer metric the workload has no layer for reads 0.
    ///
    /// # Panics
    /// Panics when an end-to-end metric is missing: a benchmark bug.
    fn get(&self, name: &str, per_layer: bool) -> f64 {
        match self.map.get(name) {
            Some(&v) => v,
            None if per_layer => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        }
    }
}

/// Tally of attempted and failed units, and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Description of every failure.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one unit (cell or soak) that passed when `problems` is
    /// empty and failed otherwise.
    pub fn unit(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Records a failure that belongs to no single unit.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// The cold-run guard: every cell seed may be used once per process.
#[derive(Debug, Default)]
pub struct SeedGuard {
    used: HashSet<u64>,
}

/// Seeds a guard makes room for up front: a 60-second run claims
/// fewer, so the set never grows mid-run and the benchmark's own
/// bookkeeping adds a fixed amount to `peak_rss_mb`.
pub const GUARD_ROOM: usize = 1 << 18;

impl SeedGuard {
    /// A guard with room for `seeds` claims before it must grow.
    pub fn with_room(seeds: usize) -> Self {
        SeedGuard {
            used: HashSet::with_capacity(seeds),
        }
    }

    /// Claims `seed`; records a problem when it was used before.
    pub fn claim(&mut self, seed: u64, checks: &mut Checks) {
        if !self.used.insert(seed) {
            checks.problem(format!("seed {seed:#x} reused: a cell would not run cold"));
        }
    }
}

/// SplitMix64 finaliser: a bijection on `u64` with good avalanche.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of item `index` of stream `domain` under workload seed
/// `base`. Distinct indices of one stream never collide.
pub fn derive(base: u64, domain: u64, index: u64) -> u64 {
    mix(mix(base ^ mix(domain)) ^ index)
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds every simulated statistic of one run into `d`.
pub fn digest_stats(d: &mut Digest, s: &RunStats) {
    let t = &s.traffic;
    let p = &s.prefetch;
    let q = &s.qos;
    let f = &s.faults;
    for w in [
        s.executed,
        s.reuses,
        s.loads,
        s.skips,
        s.stalls,
        s.makespan.as_us(),
        s.ideal_makespan.as_us(),
        s.reconfig_latency.as_us(),
        s.port_busy_time.as_us(),
        t.loads,
        t.reuses,
        t.prefetch_loads,
        t.bytes_moved,
        t.energy_uj,
        p.issued,
        p.completed,
        p.cancelled,
        p.hits,
        p.wasted,
        q.deadline_misses,
        q.tardiness_total.as_us(),
        q.preemptions,
        q.checkpoints,
        q.replayed_nodes,
        q.lost_work_cycles.as_us(),
        f.injected,
        f.retries,
        f.repairs,
        f.quarantines,
        f.heals,
        f.degraded_time.as_us(),
        f.lost_work_cycles.as_us(),
    ] {
        d.push(w);
    }
    for c in &q.class_sojourns {
        for w in [
            u64::from(c.priority),
            c.jobs,
            c.deadline_misses,
            c.tardiness_total.as_us(),
            c.p50.as_us(),
            c.p95.as_us(),
            c.max.as_us(),
            c.sojourn_total.as_us(),
        ] {
            d.push(w);
        }
    }
    for (a, c) in s.graph_arrivals.iter().zip(&s.graph_completions) {
        d.push(a.as_us());
        d.push(c.as_us());
    }
}

/// Sets the tracing metrics of a traced run and writes its spans to
/// `perfbench/traces/<workload>-seed<seed>.json`.
pub(crate) fn finish_trace(
    values: &mut Values,
    opts: &Options,
    tracer: &Tracer,
    jobs_per_s_untraced: f64,
    jobs_per_s_traced: f64,
) {
    values.set("trace.jobs_per_s_untraced", jobs_per_s_untraced);
    values.set("trace.jobs_per_s_traced", jobs_per_s_traced);
    values.set(
        "trace.overhead_pct",
        100.0 * (jobs_per_s_untraced - jobs_per_s_traced) / jobs_per_s_untraced,
    );
    values.set("trace.spans", tracer.len() as f64);
    for (name, s) in tracer.self_seconds() {
        values
            .notes
            .push(format!("self time {name}: {s:.6} s over the traced phase"));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
    values.notes.push(match tracer.write_chrome(&path) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
}

/// Simulated engine, prefetch, QoS and fault counts summed over runs.
pub fn set_engine_counts(values: &mut Values, stats: &[&RunStats]) {
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    values.set("engine.tasks", sum(&|s| s.executed));
    values.set("engine.loads", sum(&|s| s.loads));
    values.set("engine.reuses", sum(&|s| s.reuses));
    values.set("engine.skips", sum(&|s| s.skips));
    values.set("engine.stalls", sum(&|s| s.stalls));
    values.set(
        "hw.port_busy_pct",
        pct(
            sum(&|s| s.port_busy_time.as_us()),
            sum(&|s| s.makespan.as_us()),
        ),
    );
    let issued = sum(&|s| s.prefetch.issued);
    let hits = sum(&|s| s.prefetch.hits);
    values.set("prefetch.issued", issued);
    values.set("prefetch.hits", hits);
    values.set("prefetch.wasted", sum(&|s| s.prefetch.wasted));
    values.set("prefetch.hit_ratio", pct(hits, issued) / 100.0);
    values.set("qos.preemptions", sum(&|s| s.qos.preemptions));
    values.set("qos.replayed_nodes", sum(&|s| s.qos.replayed_nodes));
    values.set("faults.injected", sum(&|s| s.faults.injected));
    values.set("faults.retries", sum(&|s| s.faults.retries));
}

/// `100 · part / whole`, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 if empty.
pub fn percentile(samples: &mut [f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    samples[rank - 1]
}

/// Median of `samples` (sorted in place); 0 if empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
///
/// # Panics
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn derived_seeds_differ_across_indices_and_domains() {
        let mut seen = HashSet::new();
        for domain in 0..4 {
            for i in 0..1000 {
                assert!(seen.insert(derive(7, domain, i)));
            }
        }
    }

    #[test]
    fn guard_flags_a_reused_seed() {
        let mut checks = Checks::default();
        let mut guard = SeedGuard::default();
        guard.claim(1, &mut checks);
        guard.claim(2, &mut checks);
        assert!(checks.problems.is_empty());
        guard.claim(1, &mut checks);
        assert_eq!(checks.problems.len(), 1);
    }
}
