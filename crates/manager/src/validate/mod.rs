//! Trace validation: a registry of named, independently toggleable
//! invariant checkers. Property tests run random workloads through
//! every policy and validate the traces; golden tests validate the
//! paper examples; the `vopr` fuzz binary drives long seeded campaigns
//! through the same registry and reports per-checker fired/violation
//! counters.
//!
//! Each invariant lives in exactly one [`Checker`] (implementations
//! in the private `checkers` submodule, built via
//! [`standard_checkers`]):
//!
//! * `arrival-order` — graph executions are sequential and in arrival
//!   order, never before the job's arrival, and every started graph
//!   ends.
//! * `port-lanes` — demand *and* speculative reconfigurations are
//!   serialised on the single port; demand loads and completed
//!   prefetches take exactly the device latency, and a cancelled
//!   prefetch is aborted inside its write interval.
//! * `ru-intervals` — per RU, load and execution intervals never
//!   overlap, and a speculative load never targets an RU whose
//!   resident is claimed (placed but not yet finished) or executing.
//! * `task-lifecycle` — a task executes exactly once, after its
//!   configuration was loaded into or reused on its RU, for exactly
//!   its design-time execution time.
//! * `precedence` — a task starts only after all its predecessors
//!   finished.
//! * `reuse-residency` — a reuse claim only happens when the same
//!   configuration was left on that RU by a previous load (demand or
//!   completed speculative) with no intervening overwrite, and every
//!   placement/skip/stall belongs to the current graph.
//! * `prefetch-guard` — a speculative load never evicts a resident
//!   configuration whose next request comes strictly before the
//!   fetched configuration's, checked against the *entire* remaining
//!   request stream.
//! * `ledger` — every [`RunStats`] field the trace determines
//!   re-derives from it, compared field by field: the event, prefetch,
//!   traffic, QoS and fault counters, port busy time, makespan, lost
//!   work, degraded-pool time, the completion/arrival vectors and the
//!   per-class rows. Without stats it still asserts the trace-only
//!   identities (issued = completed + cancelled, per-class fault
//!   injections sum to the total, quarantines = give-ups + hard
//!   faults, heals ≤ quarantines, resumes = preemptions).
//! * `prefetch-off-invisible` — with depth 0 the trace records no
//!   speculative events and all prefetch counters are zero.
//! * `no-lost-work` — by each graph's completion every node finished
//!   exactly once, and every kill/checkpoint revocation was paid for
//!   with exactly one extra execution start.
//! * `preemption-order` — a preemptor's lane priority is strictly
//!   above its victim's, the suspended stack is LIFO with priorities
//!   increasing toward the top, and every suspension resumes.
//! * `fault-retry-bounded` — every corrupt load completion resolves at
//!   the same instant into a retry or a give-up; attempts count up by
//!   one, never exceed the fault plan's budget, retried writes honour
//!   the exponential-backoff schedule, and every give-up quarantines
//!   its unit.
//! * `quarantine-isolation` — no load, reuse, execution, retry or
//!   further fault targets a quarantined RU; quarantines and heals
//!   pair up.
//! * `corrupt-never-reused` — an upset resident never satisfies a
//!   reuse claim or backs an execution start before a rewrite (or the
//!   unit's quarantine) clears it.
//! * `pooled-identity` — the run is bit-exact with a reference
//!   [`SimulationOutcome`] (stats and trace): a second run of the same
//!   case checks determinism, and a dedicated engine on a fleet
//!   device's routed jobs checks that pooling devices is invisible.
//! * `tenant-isolation` — admission control rejects only over-quota
//!   submissions: a below-quota tenant is always admitted, no matter
//!   how far another tenant overdrew its own quota.
//! * `placement-residency` — every recorded placement score existed
//!   at decision time (replayed through a fresh residency model), and
//!   `ReuseAffinity` never routed below the best-overlap candidate.
//! * `fleet-accounting` — the [`FleetStats`](crate::fleet::FleetStats)
//!   roll-up equals the sum of the per-device [`RunStats`] ledgers,
//!   per-tenant rows sum to the totals, and the admission event stream
//!   re-derives the submitted/admitted/rejected counters.
//!
//! [`validate_trace`] and [`assert_valid`] keep the original one-call
//! interface: they run every checker of the standard registry and
//! flatten the violations.

mod checkers;

pub use checkers::standard_checkers;

use crate::config::FaultPlan;
use crate::fleet::FleetCheckInfo;
use crate::job::JobSpec;
use crate::manager::SimulationOutcome;
use crate::stats::RunStats;
use crate::trace::Trace;
use rtr_sim::SimDuration;
use std::fmt;

/// A violated invariant, with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace invariant violated: {}", self.0)
    }
}

/// Everything a [`Checker`] may inspect about one run.
///
/// `trace`, `jobs` and `latency` are always present; the optional
/// fields widen the checkable surface: `stats` arms the `ledger`
/// field comparisons, `reference` arms `pooled-identity`, and
/// `prefetch_depth` arms `prefetch-off-invisible` (when it is
/// `Some(0)`).
#[derive(Debug, Clone, Copy)]
pub struct CheckContext<'a> {
    /// The recorded schedule under validation.
    pub trace: &'a Trace,
    /// The job specs that produced it (graph, arrival, annotations).
    pub jobs: &'a [JobSpec],
    /// The device's per-load reconfiguration latency.
    pub latency: SimDuration,
    /// Run statistics, when counter checks should run.
    pub stats: Option<&'a RunStats>,
    /// A reference outcome the run must be bit-exact with (the
    /// determinism and fleet-device contract).
    pub reference: Option<&'a SimulationOutcome>,
    /// The prefetch depth the run was configured with, when known.
    pub prefetch_depth: Option<usize>,
    /// The fault plan the run was configured with, when known —
    /// tightens `fault-retry-bounded` to the plan's exact retry budget.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Fleet-run context (placement decisions, admission events,
    /// aggregate stats) — arms the three fleet checkers. `None` on
    /// single-device runs, where they pass vacuously.
    pub fleet: Option<&'a FleetCheckInfo<'a>>,
}

impl<'a> CheckContext<'a> {
    /// Context over a trace, its jobs and optional run statistics.
    pub fn new(
        trace: &'a Trace,
        jobs: &'a [JobSpec],
        latency: SimDuration,
        stats: Option<&'a RunStats>,
    ) -> Self {
        Self {
            trace,
            jobs,
            latency,
            stats,
            reference: None,
            prefetch_depth: None,
            fault_plan: None,
            fleet: None,
        }
    }

    /// Arms `pooled-identity`: the run must be bit-exact with `r`.
    pub fn with_reference(mut self, r: &'a SimulationOutcome) -> Self {
        self.reference = Some(r);
        self
    }

    /// Records the configured prefetch depth (0 arms
    /// `prefetch-off-invisible`).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = Some(depth);
        self
    }

    /// Records the run's fault plan, tightening `fault-retry-bounded`
    /// to the plan's exact retry budget.
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches fleet-run context, arming the `tenant-isolation`,
    /// `placement-residency` and `fleet-accounting` checkers.
    pub fn with_fleet(mut self, fleet: &'a FleetCheckInfo<'a>) -> Self {
        self.fleet = Some(fleet);
        self
    }
}

/// Accumulates one checker's activity: how many assertions it actually
/// evaluated (`fired`) and which of them failed. A checker that never
/// fires on a whole campaign is a silent hole — the anti-vacuity test
/// and the `vopr` coverage summary both assert `fired > 0`.
#[derive(Debug, Default)]
pub struct CheckOutput {
    fired: u64,
    violations: Vec<Violation>,
}

impl CheckOutput {
    /// Evaluates one assertion: bumps `fired`, records a violation
    /// with `msg()`'s text when `cond` is false.
    pub fn probe<F: FnOnce() -> String>(&mut self, cond: bool, msg: F) {
        self.fired += 1;
        if !cond {
            self.violations.push(Violation(msg()));
        }
    }

    /// Records an unconditional violation (a malformed event the
    /// checker could not even pair up).
    pub fn fail(&mut self, msg: String) {
        self.fired += 1;
        self.violations.push(Violation(msg));
    }

    /// Assertions evaluated so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// One named invariant. Implementations walk the trace with their own
/// local state, so each checker can be enabled, disabled and counted
/// independently.
pub trait Checker: Send + Sync {
    /// Stable kebab-case name (CLI flag / coverage key).
    fn name(&self) -> &'static str;
    /// One-line human description for `vopr --list`.
    fn description(&self) -> &'static str;
    /// Walks `cx.trace` and records probes/violations in `out`.
    fn check(&self, cx: &CheckContext<'_>, out: &mut CheckOutput);
}

/// One checker's result for one validated run.
#[derive(Debug)]
pub struct CheckerOutcome {
    /// The checker's registered name.
    pub name: &'static str,
    /// Assertions the checker evaluated on this run.
    pub fired: u64,
    /// Violations it found.
    pub violations: Vec<Violation>,
}

/// The per-checker results of one [`CheckerRegistry::run`], in
/// registration order (deterministic — reports render byte-stably).
#[derive(Debug, Default)]
pub struct RegistryReport {
    /// One outcome per enabled checker, in registration order.
    pub outcomes: Vec<CheckerOutcome>,
}

impl RegistryReport {
    /// True when no enabled checker found a violation.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.violations.is_empty())
    }

    /// Total violations across all checkers.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// The outcome of one checker, if it was enabled.
    pub fn outcome(&self, name: &str) -> Option<&CheckerOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// Names of the checkers that found violations.
    pub fn failing(&self) -> Vec<&'static str> {
        self.outcomes
            .iter()
            .filter(|o| !o.violations.is_empty())
            .map(|o| o.name)
            .collect()
    }

    /// Flattens into the legacy violation list (checker order).
    pub fn into_violations(self) -> Vec<Violation> {
        self.outcomes
            .into_iter()
            .flat_map(|o| o.violations)
            .collect()
    }

    /// Renders a stable per-checker report: one line per checker with
    /// its fired/violation counts, then one indented line per
    /// violation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for o in &self.outcomes {
            s.push_str(&format!(
                "checker {}: fired={} violations={}\n",
                o.name,
                o.fired,
                o.violations.len()
            ));
            for v in &o.violations {
                s.push_str(&format!("  - {v}\n"));
            }
        }
        s
    }
}

/// Error for [`CheckerRegistry::set_enabled`] with a name nobody
/// registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownChecker(pub String);

impl fmt::Display for UnknownChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown checker '{}'", self.0)
    }
}

impl std::error::Error for UnknownChecker {}

/// An ordered set of named checkers with per-checker enable flags.
pub struct CheckerRegistry {
    entries: Vec<(Box<dyn Checker>, bool)>,
}

impl CheckerRegistry {
    /// An empty registry, for a caller that registers its own checkers.
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The full standard registry: every invariant this crate knows,
    /// all enabled.
    pub fn standard() -> Self {
        let mut r = Self::empty();
        for c in standard_checkers() {
            r.register(c);
        }
        r
    }

    /// Appends a checker (enabled). Panics on a duplicate name —
    /// names are CLI flags and coverage keys, so they must be unique.
    pub fn register(&mut self, c: Box<dyn Checker>) {
        assert!(
            self.entries.iter().all(|(e, _)| e.name() != c.name()),
            "duplicate checker name '{}'",
            c.name()
        );
        self.entries.push((c, true));
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(c, _)| c.name()).collect()
    }

    /// `(name, description, enabled)` rows for `vopr --list`.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, bool)> {
        self.entries
            .iter()
            .map(|(c, on)| (c.name(), c.description(), *on))
            .collect()
    }

    /// Enables or disables one checker by name.
    pub fn set_enabled(&mut self, name: &str, on: bool) -> Result<(), UnknownChecker> {
        match self.entries.iter_mut().find(|(c, _)| c.name() == name) {
            Some(entry) => {
                entry.1 = on;
                Ok(())
            }
            None => Err(UnknownChecker(name.to_string())),
        }
    }

    /// Runs every enabled checker over `cx`.
    pub fn run(&self, cx: &CheckContext<'_>) -> RegistryReport {
        let mut report = RegistryReport::default();
        for (checker, enabled) in &self.entries {
            if !enabled {
                continue;
            }
            let mut out = CheckOutput::default();
            checker.check(cx, &mut out);
            report.outcomes.push(CheckerOutcome {
                name: checker.name(),
                fired: out.fired,
                violations: out.violations,
            });
        }
        report
    }
}

/// Validates `trace` (produced by simulating `jobs`) against all
/// standard invariants; returns every violation found.
pub fn validate_trace(
    trace: &Trace,
    jobs: &[JobSpec],
    latency: SimDuration,
    stats: Option<&RunStats>,
) -> Vec<Violation> {
    CheckerRegistry::standard()
        .run(&CheckContext::new(trace, jobs, latency, stats))
        .into_violations()
}

/// Panics with a readable report if [`validate_trace`] finds
/// violations.
pub fn assert_valid(
    trace: &Trace,
    jobs: &[JobSpec],
    latency: SimDuration,
    stats: Option<&RunStats>,
) {
    let violations = validate_trace(trace, jobs, latency, stats);
    if !violations.is_empty() {
        let mut report = String::from("schedule trace violates invariants:\n");
        for violation in &violations {
            report.push_str(&format!("  - {violation}\n"));
        }
        panic!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ManagerConfig;
    use crate::manager::simulate;
    use crate::policy::FirstCandidatePolicy;
    use crate::trace::TraceEvent;
    use rtr_taskgraph::benchmarks;
    use std::sync::Arc;

    fn jobs() -> Vec<JobSpec> {
        let jpeg = Arc::new(benchmarks::jpeg());
        let mpeg = Arc::new(benchmarks::mpeg1());
        vec![
            JobSpec::new(Arc::clone(&jpeg)),
            JobSpec::new(mpeg),
            JobSpec::new(jpeg),
        ]
    }

    #[test]
    fn valid_run_passes() {
        let cfg = ManagerConfig::paper_default();
        let jobs = jobs();
        let out = simulate(&cfg, &jobs, &mut FirstCandidatePolicy).unwrap();
        assert_valid(
            &out.trace,
            &jobs,
            cfg.device.reconfig_latency,
            Some(&out.stats),
        );
    }

    #[test]
    fn detects_corrupted_trace() {
        let cfg = ManagerConfig::paper_default();
        let jobs = jobs();
        let mut out = simulate(&cfg, &jobs, &mut FirstCandidatePolicy).unwrap();
        // Remove an exec-end event: lifecycle checks must fire.
        let idx = out
            .trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::ExecEnd { .. }))
            .unwrap();
        out.trace.events.remove(idx);
        let violations = validate_trace(&out.trace, &jobs, cfg.device.reconfig_latency, None);
        assert!(!violations.is_empty());
    }

    #[test]
    fn disabled_checker_does_not_run() {
        let cfg = ManagerConfig::paper_default();
        let jobs = jobs();
        let out = simulate(&cfg, &jobs, &mut FirstCandidatePolicy).unwrap();
        let mut bad = out.stats.clone();
        bad.reuses += 1;
        let cx = CheckContext::new(&out.trace, &jobs, cfg.device.reconfig_latency, Some(&bad));
        let mut registry = CheckerRegistry::standard();
        assert!(!registry.run(&cx).is_clean());
        registry.set_enabled("ledger", false).unwrap();
        let report = registry.run(&cx);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.outcome("ledger").is_none());
    }

    #[test]
    fn unknown_checker_name_errors() {
        let mut registry = CheckerRegistry::standard();
        assert_eq!(
            registry.set_enabled("no-such-checker", false),
            Err(UnknownChecker("no-such-checker".into()))
        );
    }

    #[test]
    fn report_attributes_violations_to_checkers() {
        let cfg = ManagerConfig::paper_default();
        let jobs = jobs();
        let out = simulate(&cfg, &jobs, &mut FirstCandidatePolicy).unwrap();
        let mut bad = out.stats.clone();
        bad.reuses += 1;
        let cx = CheckContext::new(&out.trace, &jobs, cfg.device.reconfig_latency, Some(&bad));
        let report = CheckerRegistry::standard().run(&cx);
        assert_eq!(report.failing(), vec!["ledger"]);
        assert!(report.render().contains("checker ledger"));
    }
}
