//! Declarative experiment scenarios.
//!
//! A [`Scenario`] is a serialisable description of a complete
//! experiment: workload shape, system parameters and the policy grid.
//! Scenarios round-trip through JSON so experiment configurations can
//! be versioned next to their results.

use crate::arrivals::ArrivalProcess;
use crate::experiments::sweep;
use crate::policies::PolicyKind;
use crate::qos::QosSpec;
use crate::runner::CellConfig;
use crate::sequence::SequenceModel;
use crate::table::{fmt_f, Table};
use rtr_hw::{DeviceSpec, RuPool};
use rtr_manager::fleet::simulate_fleet;
use rtr_manager::{FaultPlan, FleetSpec, JobSpec, PreemptionMode, SimError, TenantId};
use rtr_taskgraph::serialize::GraphSpec;
use rtr_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Salt decorrelating the arrival-time RNG stream from the
/// application-sequence stream drawn with the same scenario seed.
const ARRIVAL_SEED_SALT: u64 = 0xA881_17A1;

/// A complete, serialisable experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in output tables).
    pub name: String,
    /// Graph templates (validated on load).
    pub templates: Vec<GraphSpec>,
    /// How the application sequence is drawn.
    pub model: SequenceModel,
    /// How job arrival instants are drawn ([`ArrivalProcess::Batch`]
    /// reproduces the paper's fixed-sequence setting).
    pub arrivals: ArrivalProcess,
    /// Number of applications.
    pub apps: usize,
    /// RNG seed for the sequence (the arrival stream derives from it).
    pub seed: u64,
    /// RU count.
    pub rus: usize,
    /// Device parameters.
    pub device: DeviceSpec,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Preemption policy for every cell (`Off`, the pre-QoS engine,
    /// when absent from the file).
    pub preemption: PreemptionMode,
    /// QoS class assignment over the generated sequence (uniform
    /// best-effort when absent from the file).
    pub qos: QosSpec,
    /// Runtime fault plan injected into every cell (off — the exact
    /// pre-fault engine — when absent from the file).
    pub faults: FaultPlan,
    /// Optional fleet section: pooled devices behind the placement
    /// front-end, with jobs spread across `tenants` round-robin.
    /// Absent (`None`) runs the classic single-device path,
    /// byte-identical to pre-fleet files.
    pub fleet: Option<FleetSpec>,
}

impl Scenario {
    /// The paper's §VI experiment as a scenario.
    pub fn paper_fig9(rus: usize, apps: usize, seed: u64) -> Self {
        Scenario {
            name: format!("fig9-{rus}rus"),
            templates: rtr_taskgraph::benchmarks::multimedia_suite()
                .iter()
                .map(GraphSpec::from)
                .collect(),
            model: SequenceModel::UniformRandom,
            arrivals: ArrivalProcess::Batch,
            apps,
            seed,
            rus,
            device: DeviceSpec::paper_default(),
            policies: PolicyKind::fig9a_set(),
            preemption: PreemptionMode::Off,
            qos: QosSpec::UNIFORM,
            faults: FaultPlan::off(),
            fleet: None,
        }
    }

    /// A streaming variant of the paper's workload: same templates and
    /// sequence model, jobs arriving through `arrivals`.
    pub fn streaming(rus: usize, apps: usize, seed: u64, arrivals: ArrivalProcess) -> Self {
        Scenario {
            name: format!("stream-{}-{rus}rus", arrivals.label()),
            arrivals,
            ..Scenario::paper_fig9(rus, apps, seed)
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialisation is total")
    }

    /// Parses a scenario from JSON and [validates](Scenario::validate)
    /// it.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let scenario: Scenario = serde_json::from_str(json).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Rejects every input a run would otherwise panic on inside a
    /// sweep worker: invalid or missing templates, a sequence model
    /// that does not fit them, a degenerate arrival process, zero RUs
    /// or more than [`RuPool::MAX_RUS`], a zero reconfiguration
    /// latency, per-mille fault rates above 1000, and a retry budget
    /// whose worst-case backoff overflows simulated time.
    pub fn validate(&self) -> Result<(), String> {
        for spec in &self.templates {
            TaskGraph::try_from(spec.clone()).map_err(|e| e.to_string())?;
        }
        self.model.validate(self.templates.len())?;
        self.arrivals.validate().map_err(|e| e.to_string())?;
        if !(1..=RuPool::MAX_RUS).contains(&self.rus) {
            return Err(format!(
                "need at least one RU and at most {} (the RU id range), got {}",
                RuPool::MAX_RUS,
                self.rus
            ));
        }
        let latency = self.device.reconfig_latency;
        if latency.is_zero() {
            return Err("device.reconfig_latency must be positive".into());
        }
        let f = &self.faults;
        for (name, pm) in [
            ("load_fault_pm", f.load_fault_pm),
            ("upset_pm", f.upset_pm),
            ("ru_fault_pm", f.ru_fault_pm),
        ] {
            if pm > 1000 {
                return Err(format!("faults.{name} is {pm} per mille, above 1000"));
            }
        }
        // Retry k backs off `latency × 2^(k−1)`, so a budget of n waits
        // `latency × (2^n − 1)` in all; past 65 retries that exceeds
        // u64 for any positive latency.
        let backoff_us = u128::from(latency.as_us()) * ((1u128 << f.max_retries.min(65)) - 1);
        if backoff_us > u128::from(u64::MAX) {
            return Err(format!(
                "faults.max_retries {} backs off past the simulated-time range at {latency}",
                f.max_retries
            ));
        }
        Ok(())
    }

    /// Materialised template set.
    pub fn template_graphs(&self) -> Vec<Arc<TaskGraph>> {
        self.templates
            .iter()
            .map(|s| Arc::new(TaskGraph::try_from(s.clone()).expect("validated on load")))
            .collect()
    }

    /// Runs every policy of the scenario sequentially and tabulates the
    /// outcome. Equivalent to [`Scenario::run_with_workers`]`(1)`.
    pub fn run(&self) -> Result<Table, SimError> {
        self.run_with_workers(1)
    }

    /// Runs the scenario's policy cells on up to `workers` threads.
    /// Each cell is internally deterministic and results are collected
    /// in policy order, so the table is identical to a sequential run.
    /// Scenarios carrying a `fleet` section route through the pooled
    /// devices instead; everything else takes the exact pre-fleet
    /// single-device path.
    ///
    /// A loaded scenario can still fail to simulate, for instance when
    /// its fault plan quarantines RUs it never repairs; the first
    /// failing policy cell's [`SimError`] is returned.
    pub fn run_with_workers(&self, workers: usize) -> Result<Table, SimError> {
        if let Some(spec) = &self.fleet {
            return self.run_fleet_with_workers(spec, workers);
        }
        let templates = self.template_graphs();
        let sequence = self.model.generate(&templates, self.apps, self.seed);
        let arrivals = self
            .arrivals
            .generate(self.apps, self.seed ^ ARRIVAL_SEED_SALT);
        let mut t = Table::new(
            format!(
                "Scenario {} ({} apps, {} arrivals, {} RUs)",
                self.name,
                self.apps,
                self.arrivals.label(),
                self.rus
            ),
            &[
                "Policy",
                "Reuse (%)",
                "Overhead (ms)",
                "Remaining (%)",
                "Mean sojourn (ms)",
                "Loads",
            ],
        );
        let qos = self.qos.assign(&sequence, &arrivals, self.rus);
        let rows = sweep(self.policies.clone(), workers, |runner, policy| {
            let out = runner.run_with_arrivals_qos(
                &sequence,
                Some(&arrivals),
                qos.as_deref(),
                &self.cell(policy),
            )?;
            Ok(vec![
                policy.label(),
                fmt_f(out.stats.reuse_rate_pct(), 2),
                fmt_f(out.stats.total_overhead().as_ms_f64(), 1),
                fmt_f(out.stats.remaining_overhead_pct(), 2),
                fmt_f(out.stats.mean_sojourn_ms(), 1),
                out.stats.loads.to_string(),
            ])
        })?;
        for row in rows {
            t.push_row(row);
        }
        Ok(t)
    }

    /// The cell one policy of this scenario runs on.
    fn cell(&self, policy: PolicyKind) -> CellConfig {
        CellConfig {
            device: self.device.clone(),
            preemption: self.preemption,
            faults: self.faults,
            ..CellConfig::new(policy, self.rus)
        }
    }

    /// The fleet path of [`Scenario::run_with_workers`]: the same
    /// generated workload, tenant-stamped round-robin over
    /// `spec.tenants`, submitted to the pooled devices with one fresh
    /// policy instance per device.
    fn run_fleet_with_workers(&self, spec: &FleetSpec, workers: usize) -> Result<Table, SimError> {
        let templates = self.template_graphs();
        let sequence = self.model.generate(&templates, self.apps, self.seed);
        let arrivals = self
            .arrivals
            .generate(self.apps, self.seed ^ ARRIVAL_SEED_SALT);
        let qos = self.qos.assign(&sequence, &arrivals, self.rus);
        let jobs: Vec<JobSpec> = sequence
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut job = JobSpec::new(Arc::clone(g))
                    .with_arrival(arrivals[i])
                    .with_tenant(TenantId((i % spec.tenants) as u32));
                if let Some(classes) = &qos {
                    job = job.with_qos(classes[i]);
                }
                job
            })
            .collect();
        let mut t = Table::new(
            format!(
                "Scenario {} ({} apps, {} arrivals, {} devices, {} placement, {} tenants)",
                self.name,
                self.apps,
                self.arrivals.label(),
                spec.devices.len(),
                spec.placement.label(),
                spec.tenants
            ),
            &[
                "Policy",
                "Reuse (%)",
                "Admitted",
                "Rejected",
                "Fairness",
                "Makespan (ms)",
            ],
        );
        let rows = sweep(self.policies.clone(), workers, |_runner, policy| {
            let fleet_cfg = spec.to_config(&self.cell(policy).manager_config());
            let s = simulate_fleet(&fleet_cfg, &jobs, || policy.build())?.stats;
            Ok(vec![
                policy.label(),
                fmt_f(s.cross_device_reuse_rate_pct(), 2),
                s.admitted.to_string(),
                s.rejected.to_string(),
                fmt_f(s.fairness_index(), 3),
                fmt_f(s.makespan.as_ms_f64(), 1),
            ])
        })?;
        for row in rows {
            t.push_row(row);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let s = Scenario::paper_fig9(4, 50, 7);
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn qos_scenario_round_trips() {
        let mut s = Scenario::paper_fig9(4, 40, 9);
        s.preemption = PreemptionMode::Checkpoint;
        s.qos = QosSpec::strided(4, 5, 150);
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.preemption, PreemptionMode::Checkpoint);
        assert_eq!(back.qos, QosSpec::strided(4, 5, 150));
    }

    #[test]
    fn fault_scenario_round_trips() {
        let mut s = Scenario::paper_fig9(4, 30, 17);
        s.faults = FaultPlan::low(0xFA17);
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.faults, FaultPlan::low(0xFA17));
    }

    #[test]
    fn pre_fault_files_load_with_faults_off() {
        // A file written before the fault model existed has no `faults`
        // key; it must load as the fault-free scenario it always
        // described and run bit-identically.
        let s = Scenario::paper_fig9(4, 25, 3);
        let mut v: serde::Value = serde_json::from_str(&s.to_json()).unwrap();
        if let serde::Value::Object(m) = &mut v {
            assert!(m.remove("faults").is_some());
        } else {
            panic!("scenario serialises to an object");
        }
        let legacy = serde_json::to_string(&v).unwrap();
        assert!(!legacy.contains("faults"), "field really removed");
        let back = Scenario::from_json(&legacy).expect("legacy file loads");
        assert!(back.faults.is_off());
        assert_eq!(back, s, "defaults equal the freshly built scenario");
        assert_eq!(s.run().unwrap().to_csv(), back.run().unwrap().to_csv());
    }

    #[test]
    fn fault_scenario_runs_to_a_table() {
        let mut s = Scenario::paper_fig9(4, 24, 21);
        s.faults = FaultPlan::low(99);
        let t = s.run().unwrap();
        assert_eq!(t.len(), s.policies.len());
    }

    #[test]
    fn unrepaired_ru_faults_return_an_error() {
        // A valid plan can still leave the run unable to finish: every
        // load hard-faults its RU and nothing is ever repaired. The run
        // must report that as an error, not panic inside a worker.
        let mut s = Scenario::paper_fig9(2, 10, 1);
        s.faults = FaultPlan::off().with_seed(9).with_ru_faults(1000, None);
        let loaded = Scenario::from_json(&s.to_json()).expect("the plan is valid");
        assert!(loaded.run().is_err());
        assert!(loaded.run_with_workers(2).is_err());
    }

    #[test]
    fn pre_qos_files_load_with_default_class() {
        // A file written before the QoS fields existed has neither
        // `preemption` nor `qos` keys; it must load as the uniform
        // best-effort, preemption-off scenario it always described.
        let s = Scenario::paper_fig9(4, 25, 3);
        let mut v: serde::Value = serde_json::from_str(&s.to_json()).unwrap();
        if let serde::Value::Object(m) = &mut v {
            assert!(m.remove("preemption").is_some());
            assert!(m.remove("qos").is_some());
        } else {
            panic!("scenario serialises to an object");
        }
        let legacy = serde_json::to_string(&v).unwrap();
        assert!(!legacy.contains("preemption"), "field really removed");
        let back = Scenario::from_json(&legacy).expect("legacy file loads");
        assert_eq!(back.preemption, PreemptionMode::Off);
        assert_eq!(back.qos, QosSpec::UNIFORM);
        assert_eq!(back, s, "defaults equal the freshly built scenario");
        // And the loaded scenario still runs bit-identically.
        assert_eq!(s.run().unwrap().to_csv(), back.run().unwrap().to_csv());
    }

    #[test]
    fn qos_scenario_runs_to_a_table() {
        let mut s = Scenario::streaming(
            4,
            24,
            13,
            ArrivalProcess::Poisson {
                mean_gap_us: 30_000,
            },
        );
        s.preemption = PreemptionMode::Checkpoint;
        s.qos = QosSpec::strided(3, 5, 130);
        let t = s.run().unwrap();
        assert_eq!(t.len(), s.policies.len());
    }

    #[test]
    fn fleet_scenario_round_trips() {
        use rtr_manager::PlacementKind;
        let mut s = Scenario::paper_fig9(4, 40, 23);
        s.fleet = Some(FleetSpec {
            devices: vec![2, 4, 6],
            placement: PlacementKind::ReuseAffinity,
            quota: Some(8),
            tenants: 3,
        });
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fleet.as_ref().unwrap().devices, vec![2, 4, 6]);
    }

    #[test]
    fn pre_fleet_files_load_single_device() {
        // A file written before the fleet layer existed has no `fleet`
        // key; it must load as the single-device scenario it always
        // described and run bit-identically.
        let s = Scenario::paper_fig9(4, 25, 3);
        let mut v: serde::Value = serde_json::from_str(&s.to_json()).unwrap();
        if let serde::Value::Object(m) = &mut v {
            assert!(m.remove("fleet").is_some());
        } else {
            panic!("scenario serialises to an object");
        }
        let legacy = serde_json::to_string(&v).unwrap();
        assert!(!legacy.contains("fleet"), "field really removed");
        let back = Scenario::from_json(&legacy).expect("legacy file loads");
        assert!(back.fleet.is_none());
        assert_eq!(back, s, "defaults equal the freshly built scenario");
        assert_eq!(s.run().unwrap().to_csv(), back.run().unwrap().to_csv());
    }

    #[test]
    fn fleet_scenario_runs_to_a_table() {
        use rtr_manager::PlacementKind;
        let mut s = Scenario::streaming(
            4,
            30,
            19,
            ArrivalProcess::Poisson {
                mean_gap_us: 40_000,
            },
        );
        s.fleet = Some(FleetSpec {
            devices: vec![2, 4],
            placement: PlacementKind::ReuseAffinity,
            quota: None,
            tenants: 3,
        });
        let t = s.run_with_workers(2).unwrap();
        assert_eq!(t.len(), s.policies.len());
        assert!(t.to_markdown().contains("2 devices"));
        assert!(t.to_markdown().contains("reuse-affinity"));
        // The fleet path is deterministic across worker counts.
        assert_eq!(t.to_csv(), s.run().unwrap().to_csv());
    }

    #[test]
    fn rejects_degenerate_arrivals_at_load() {
        let mut s = Scenario::paper_fig9(4, 10, 1);
        s.arrivals = ArrivalProcess::Bursty {
            size: 0,
            mean_gap_us: 1,
        };
        let err = Scenario::from_json(&s.to_json()).unwrap_err();
        assert!(err.contains("at least one job per burst"), "{err}");
        s.arrivals = ArrivalProcess::Poisson { mean_gap_us: 0 };
        let err = Scenario::from_json(&s.to_json()).unwrap_err();
        assert!(err.contains("batch setting"), "{err}");
    }

    #[test]
    fn rejects_inputs_that_would_panic_in_a_sweep_worker() {
        type Edit = fn(&mut Scenario);
        let cases: [(&str, Edit, &str); 11] = [
            ("zero RUs", |s| s.rus = 0, "at least one RU"),
            (
                "RUs beyond the RU id range",
                |s| s.rus = 70_000,
                "RU id range",
            ),
            (
                "no templates",
                |s| s.templates.clear(),
                "at least one template",
            ),
            (
                "weight count differs from template count",
                |s| s.model = SequenceModel::Weighted(vec![1.0, 1.0]),
                "one weight per template",
            ),
            (
                "negative weight",
                |s| s.model = SequenceModel::Weighted(vec![1.0, -1.0, 1.0]),
                "non-negative",
            ),
            (
                "all-zero weights",
                |s| s.model = SequenceModel::Weighted(vec![0.0; 3]),
                "positive, finite sum",
            ),
            (
                "repeat_prob above 1",
                |s| s.model = SequenceModel::Bursty { repeat_prob: 1.5 },
                "probability",
            ),
            (
                "negative repeat_prob",
                |s| s.model = SequenceModel::Bursty { repeat_prob: -0.1 },
                "probability",
            ),
            (
                "zero reconfiguration latency",
                |s| s.device.reconfig_latency = rtr_sim::SimDuration::ZERO,
                "reconfig_latency must be positive",
            ),
            (
                "per-mille rate above 1000",
                |s| s.faults.upset_pm = 1001,
                "above 1000",
            ),
            (
                "retry backoff overflows simulated time",
                |s| {
                    s.faults.load_fault_pm = 1000;
                    s.faults.max_retries = 60;
                },
                "max_retries 60",
            ),
        ];
        for (what, edit, expected) in cases {
            let mut s = Scenario::paper_fig9(4, 10, 1);
            s.faults = FaultPlan::low(5);
            edit(&mut s);
            let err = Scenario::from_json(&s.to_json())
                .expect_err(&format!("{what}: loaded, but a run panics"));
            assert!(err.contains(expected), "{what}: {err}");
        }
        // The edges of the accepted ranges still load.
        let mut s = Scenario::paper_fig9(4, 10, 1);
        s.rus = RuPool::MAX_RUS;
        s.model = SequenceModel::Bursty { repeat_prob: 1.0 };
        s.faults.load_fault_pm = 1000;
        s.faults.max_retries = 20;
        assert_eq!(Scenario::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn rejects_corrupt_templates() {
        let mut s = Scenario::paper_fig9(4, 10, 1);
        // Introduce a cycle.
        s.templates[0].edges.push((1, 0));
        s.templates[0].edges.push((0, 1));
        let json = s.to_json();
        assert!(Scenario::from_json(&json).is_err());
    }

    #[test]
    fn runs_to_a_table() {
        let s = Scenario::paper_fig9(5, 30, 3);
        let t = s.run().unwrap();
        assert_eq!(t.len(), s.policies.len());
        assert!(t.to_markdown().contains("LFD"));
    }

    #[test]
    fn arrivals_round_trip_preserves_run_output() {
        // The `arrivals` field (added with the streaming engine) must
        // survive serialisation *semantically*: a scenario run before
        // JSON round-tripping and the deserialised copy run afterwards
        // produce the identical table, arrival instants included.
        for arrivals in [
            ArrivalProcess::Batch,
            ArrivalProcess::Poisson {
                mean_gap_us: 50_000,
            },
            ArrivalProcess::Bursty {
                size: 4,
                mean_gap_us: 300_000,
            },
        ] {
            let s = Scenario::streaming(4, 25, 11, arrivals);
            let back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
            assert_eq!(
                s.run().unwrap().to_csv(),
                back.run().unwrap().to_csv(),
                "round-tripped scenario diverged under {:?}",
                s.arrivals
            );
        }
    }

    #[test]
    fn streaming_scenario_round_trips_and_runs() {
        let s = Scenario::streaming(
            4,
            20,
            5,
            ArrivalProcess::Poisson {
                mean_gap_us: 80_000,
            },
        );
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        let t = s.run().unwrap();
        assert_eq!(t.len(), s.policies.len());
        assert!(t.to_markdown().contains("poisson(80ms)"));
    }
}
