//! Quality-of-service classes and the preemption policy knob.
//!
//! A [`QosClass`] attaches a scheduling priority and an optional
//! absolute deadline to a job. Priorities order the backlog into lanes
//! (higher first; equal priorities keep strict arrival order, which is
//! exactly the pre-QoS FIFO). Deadlines are measured, never scheduled
//! by: they feed only the run's miss and tardiness counts.
//!
//! [`PreemptionMode`] gates the engine's preemption machinery. `Off`
//! (the default) takes the exact pre-QoS code path and is asserted
//! bit-exact against the golden figure/table runs; `Kill` and
//! `Checkpoint` allow a strictly-higher-priority arrival to suspend the
//! running graph, differing only in what happens to its in-flight
//! tasks (replay from scratch vs. resume the remaining work plus a
//! restore penalty of one reconfiguration latency).
//!
//! Both types deserialize from JSON `null` (and therefore from an
//! *absent* field) as their defaults, so pre-QoS scenario files keep
//! loading unchanged.

use rtr_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Scheduling class of one job: lane priority plus an optional
/// absolute completion deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QosClass {
    /// Lane priority: higher values outrank lower ones. The default
    /// class is priority 0, so a workload that never mentions QoS
    /// degenerates to one FIFO lane.
    pub priority: u8,
    /// Absolute deadline for the job's completion, if any. Missing the
    /// deadline is recorded (`deadline_misses`, `tardiness_total`), not
    /// enforced — jobs always run to completion.
    pub deadline: Option<SimTime>,
}

impl QosClass {
    /// The default best-effort class: priority 0, no deadline.
    pub const BEST_EFFORT: QosClass = QosClass {
        priority: 0,
        deadline: None,
    };

    /// A class with the given priority and no deadline.
    pub fn priority(priority: u8) -> Self {
        QosClass {
            priority,
            deadline: None,
        }
    }

    /// Builder-style deadline attachment.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when this is the default best-effort class.
    pub fn is_default(&self) -> bool {
        *self == QosClass::BEST_EFFORT
    }
}

impl Default for QosClass {
    fn default() -> Self {
        QosClass::BEST_EFFORT
    }
}

impl Serialize for QosClass {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("priority".to_string(), Serialize::serialize(&self.priority));
        m.insert("deadline".to_string(), Serialize::serialize(&self.deadline));
        serde::Value::Object(m)
    }
}

impl Deserialize for QosClass {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        // `null` (and an absent field, which the shim reads as `null`)
        // is the default class — pre-QoS files stay loadable.
        if matches!(v, serde::Value::Null) {
            return Ok(QosClass::default());
        }
        let m = serde::as_object(v)?;
        Ok(QosClass {
            priority: serde::field(m, "priority")?,
            deadline: serde::field(m, "deadline")?,
        })
    }
}

/// What the engine may do to the running graph when a
/// strictly-higher-priority job arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreemptionMode {
    /// No preemption: arrivals wait for the running graph, exactly the
    /// pre-QoS engine (bit-exact, asserted by the golden paths).
    #[default]
    Off,
    /// In-flight tasks of the preempted graph are killed: the work done
    /// so far is lost (`lost_work_cycles`) and each killed node is
    /// replayed from scratch when its graph resumes.
    Kill,
    /// In-flight tasks are checkpointed: the remaining execution time
    /// is preserved, and resuming a checkpointed node pays a restore
    /// penalty of one reconfiguration latency on top of the remainder.
    Checkpoint,
}

impl PreemptionMode {
    /// All modes, in sweep order.
    pub const ALL: [PreemptionMode; 3] = [
        PreemptionMode::Off,
        PreemptionMode::Kill,
        PreemptionMode::Checkpoint,
    ];

    /// Stable lowercase label (CSV column / CLI value).
    pub fn label(&self) -> &'static str {
        match self {
            PreemptionMode::Off => "off",
            PreemptionMode::Kill => "kill",
            PreemptionMode::Checkpoint => "checkpoint",
        }
    }

    /// True when arrivals may suspend the running graph.
    pub fn enabled(&self) -> bool {
        !matches!(self, PreemptionMode::Off)
    }
}

impl Serialize for PreemptionMode {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for PreemptionMode {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            // Absent fields arrive as `null`: default to `Off` so
            // pre-QoS configuration files keep loading.
            serde::Value::Null => Ok(PreemptionMode::Off),
            serde::Value::String(s) => match s.as_str() {
                "off" | "Off" => Ok(PreemptionMode::Off),
                "kill" | "Kill" => Ok(PreemptionMode::Kill),
                "checkpoint" | "Checkpoint" => Ok(PreemptionMode::Checkpoint),
                other => Err(serde::Error::msg(format!(
                    "unknown PreemptionMode `{other}`"
                ))),
            },
            other => Err(serde::Error::expected("preemption mode string", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_class_is_best_effort() {
        let q = QosClass::default();
        assert_eq!(q.priority, 0);
        assert_eq!(q.deadline, None);
        assert!(q.is_default());
        assert!(!QosClass::priority(3).is_default());
        assert!(!QosClass::BEST_EFFORT
            .with_deadline(SimTime::from_ms(5))
            .is_default());
    }

    #[test]
    fn qos_round_trips_and_defaults_from_null() {
        let q = QosClass::priority(2).with_deadline(SimTime::from_ms(120));
        let back = QosClass::deserialize(&q.serialize()).unwrap();
        assert_eq!(back, q);
        // Absent / null → default class (backward compatibility).
        let legacy = QosClass::deserialize(&serde::Value::Null).unwrap();
        assert_eq!(legacy, QosClass::default());
    }

    #[test]
    fn preemption_mode_round_trips_and_defaults_from_null() {
        for mode in PreemptionMode::ALL {
            let back = PreemptionMode::deserialize(&mode.serialize()).unwrap();
            assert_eq!(back, mode);
        }
        let legacy = PreemptionMode::deserialize(&serde::Value::Null).unwrap();
        assert_eq!(legacy, PreemptionMode::Off);
        assert!(PreemptionMode::deserialize(&serde::Value::String("frob".into())).is_err());
        assert!(!PreemptionMode::Off.enabled());
        assert!(PreemptionMode::Kill.enabled());
        assert!(PreemptionMode::Checkpoint.enabled());
    }
}
