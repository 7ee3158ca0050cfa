//! Declarative QoS assignment for scenario and experiment workloads.
//!
//! A [`QosSpec`] describes how a generated application sequence is
//! split into service classes: every `stride`-th job is promoted to a
//! high-priority lane, optionally with a deadline derived from the
//! graph's ideal makespan (`arrival + ideal × stretch / 100`). The
//! default spec promotes nobody — exactly the pre-QoS uniform
//! best-effort workload — and deserializes from JSON `null` (and
//! therefore from an *absent* field), so pre-QoS scenario files keep
//! loading unchanged.

use rtr_manager::ideal::ideal_graph_makespan;
use rtr_manager::QosClass;
use rtr_sim::{FxHashMap, SimDuration, SimTime};
use rtr_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a workload's jobs are split into QoS classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosSpec {
    /// Every `stride`-th job (1-based: jobs `stride-1, 2·stride-1, …`)
    /// is promoted; `0` promotes nobody (the pre-QoS workload).
    pub stride: usize,
    /// Lane priority of promoted jobs (best-effort jobs stay at 0).
    pub priority: u8,
    /// Deadline slack of promoted jobs, as a percentage of the graph's
    /// ideal makespan: `deadline = arrival + ideal × pct / 100`.
    /// `None` promotes without deadlines (lanes only).
    pub deadline_stretch_pct: Option<u64>,
}

impl QosSpec {
    /// The pre-QoS workload: one best-effort lane, no deadlines.
    pub const UNIFORM: QosSpec = QosSpec {
        stride: 0,
        priority: 0,
        deadline_stretch_pct: None,
    };

    /// Promotes every `stride`-th job to `priority` with a deadline of
    /// `stretch_pct`% of its ideal makespan after arrival.
    pub const fn strided(stride: usize, priority: u8, stretch_pct: u64) -> Self {
        QosSpec {
            stride,
            priority,
            deadline_stretch_pct: Some(stretch_pct),
        }
    }

    /// True when this spec leaves the workload uniform best-effort.
    pub fn is_uniform(&self) -> bool {
        self.stride == 0 || (self.priority == 0 && self.deadline_stretch_pct.is_none())
    }

    /// Materialises per-job classes for `sequence` arriving at
    /// `arrivals` on an `rus`-wide device. Returns `None` for a
    /// uniform spec so callers keep the engine's zero-overhead
    /// default-QoS path.
    pub fn assign(
        &self,
        sequence: &[Arc<TaskGraph>],
        arrivals: &[SimTime],
        rus: usize,
    ) -> Option<Vec<QosClass>> {
        if self.is_uniform() {
            return None;
        }
        debug_assert_eq!(sequence.len(), arrivals.len());
        // One ideal makespan per template: `sequence` keeps every graph
        // alive for this call, so an address identifies its graph.
        let mut ideals: FxHashMap<*const TaskGraph, SimDuration> = FxHashMap::default();
        Some(
            sequence
                .iter()
                .zip(arrivals)
                .enumerate()
                .map(|(i, (g, &arrival))| {
                    if (i + 1) % self.stride != 0 {
                        return QosClass::default();
                    }
                    let mut q = QosClass::priority(self.priority);
                    if let Some(pct) = self.deadline_stretch_pct {
                        let ideal = *ideals
                            .entry(Arc::as_ptr(g))
                            .or_insert_with(|| ideal_graph_makespan(g, rus));
                        let slack_us = ideal.as_us().saturating_mul(pct) / 100;
                        q = q.with_deadline(arrival + SimDuration::from_us(slack_us));
                    }
                    q
                })
                .collect(),
        )
    }
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec::UNIFORM
    }
}

impl Serialize for QosSpec {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("stride".to_string(), Serialize::serialize(&self.stride));
        m.insert("priority".to_string(), Serialize::serialize(&self.priority));
        m.insert(
            "deadline_stretch_pct".to_string(),
            Serialize::serialize(&self.deadline_stretch_pct),
        );
        serde::Value::Object(m)
    }
}

impl Deserialize for QosSpec {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        // `null` / absent field → the uniform pre-QoS workload.
        if matches!(v, serde::Value::Null) {
            return Ok(QosSpec::default());
        }
        let m = serde::as_object(v)?;
        Ok(QosSpec {
            stride: serde::field(m, "stride")?,
            priority: serde::field(m, "priority")?,
            deadline_stretch_pct: serde::field(m, "deadline_stretch_pct")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_taskgraph::benchmarks;

    #[test]
    fn uniform_spec_assigns_nothing() {
        let seq: Vec<Arc<TaskGraph>> = vec![Arc::new(benchmarks::jpeg())];
        assert_eq!(QosSpec::UNIFORM.assign(&seq, &[SimTime::ZERO], 4), None);
        assert!(QosSpec::default().is_uniform());
    }

    #[test]
    fn strided_spec_promotes_every_kth_job() {
        let seq: Vec<Arc<TaskGraph>> = (0..6).map(|_| Arc::new(benchmarks::jpeg())).collect();
        let arrivals: Vec<SimTime> = (0..6).map(|i| SimTime::from_ms(10 * i)).collect();
        let spec = QosSpec::strided(3, 7, 150);
        let classes = spec.assign(&seq, &arrivals, 4).expect("non-uniform");
        assert_eq!(classes.len(), 6);
        for (i, c) in classes.iter().enumerate() {
            if (i + 1) % 3 == 0 {
                assert_eq!(c.priority, 7);
                // jpeg ideal on 4 RUs is 79 ms; 150% = 118.5 ms slack.
                let expected = arrivals[i] + SimDuration::from_us(118_500);
                assert_eq!(c.deadline, Some(expected));
            } else {
                assert!(c.is_default());
            }
        }
        // Stride 1 over interleaved templates: each deadline comes from
        // its own graph's ideal makespan, not from another template's.
        let jpeg = Arc::new(benchmarks::jpeg());
        let mpeg1 = Arc::new(benchmarks::mpeg1());
        assert_ne!(
            ideal_graph_makespan(&jpeg, 4),
            ideal_graph_makespan(&mpeg1, 4)
        );
        let mixed: Vec<Arc<TaskGraph>> = (0..6)
            .map(|i| Arc::clone(if i % 2 == 0 { &jpeg } else { &mpeg1 }))
            .collect();
        let classes = QosSpec::strided(1, 7, 150)
            .assign(&mixed, &arrivals, 4)
            .expect("non-uniform");
        for ((g, c), &at) in mixed.iter().zip(&classes).zip(&arrivals) {
            let slack_us = ideal_graph_makespan(g, 4).as_us() * 150 / 100;
            assert_eq!(c.priority, 7);
            assert_eq!(c.deadline, Some(at + SimDuration::from_us(slack_us)));
        }
    }

    #[test]
    fn round_trips_and_defaults_from_null() {
        let spec = QosSpec::strided(4, 3, 120);
        let back = QosSpec::deserialize(&spec.serialize()).unwrap();
        assert_eq!(back, spec);
        let legacy = QosSpec::deserialize(&serde::Value::Null).unwrap();
        assert_eq!(legacy, QosSpec::UNIFORM);
    }
}
