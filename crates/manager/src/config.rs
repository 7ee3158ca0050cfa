//! Manager configuration.

use crate::qos::PreemptionMode;
use rtr_hw::DeviceSpec;
use rtr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How much of the future application sequence the replacement module
/// can see — the paper's *Dynamic List* (DL).
///
/// The remaining reconfiguration sequence of the *current* graph is
/// always visible (the manager owns it); the lookahead governs how many
/// *future* task graphs are exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lookahead {
    /// No future knowledge beyond the current graph (what a pure
    /// history-based policy such as LRU effectively uses).
    None,
    /// The next `n` enqueued task graphs — "Local LFD (n)" in the paper.
    Graphs(usize),
    /// The entire remaining sequence — the clairvoyant LFD oracle.
    All,
}

impl Lookahead {
    /// Number of future graphs visible given `remaining` enqueued ones.
    pub fn visible_graphs(self, remaining: usize) -> usize {
        match self {
            Lookahead::None => 0,
            Lookahead::Graphs(n) => n.min(remaining),
            Lookahead::All => remaining,
        }
    }
}

/// Configuration-prefetching knobs.
///
/// When the single reconfiguration port is idle and the demand path has
/// nothing to load, the engine's prefetch planner
/// (`crates/manager/src/engine/prefetch.rs`) may speculatively load
/// upcoming configurations (the nearest next uses in the visible
/// window, current graph tail + arrived backlog) into RUs whose
/// residents have *farther* next uses — never evicting a configuration
/// with a strictly nearer next use than the one being fetched (the
/// Fig. 3 hazard), and always yielding the port to demand (an in-flight
/// speculative load is cancelled the moment a demand load needs it).
///
/// `depth == 0` (the default) disables prefetching entirely: the engine
/// takes the exact pre-prefetch code path and reproduces the golden
/// figures bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Maximum number of distinct upcoming configurations the planner
    /// considers per idle-port planning round (nearest next use first).
    /// `0` disables prefetching.
    pub depth: usize,
}

impl PrefetchConfig {
    /// Prefetching disabled (the default; bit-exact with the
    /// pre-prefetch engine).
    pub fn off() -> Self {
        PrefetchConfig { depth: 0 }
    }

    /// Prefetching enabled with the given planning depth.
    pub fn with_depth(depth: usize) -> Self {
        PrefetchConfig { depth }
    }

    /// True when the planner may issue speculative loads.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig::off()
    }
}

/// Deterministic fault-injection plan.
///
/// A seeded schedule of three hardware fault classes, drawn from a
/// dedicated SplitMix64 stream advanced only at fixed engine dispatch
/// points (so a given `(plan, workload, config)` triple always injects
/// the same faults — replays and subject/reference comparisons stay
/// deterministic):
///
/// * **Transient load failures** (`load_fault_pm`): a demand or
///   speculative reconfiguration completes corrupt (detected by the
///   port's integrity check) and is retried with exponential backoff
///   up to `max_retries` times; exhausting the budget quarantines the
///   faulty unit.
/// * **Resident-config upsets** (`upset_pm`): an SEU silently
///   invalidates a resident, unclaimed bitstream; it stops counting as
///   reusable and is repaired by the next (re)load of that RU.
/// * **RU hard faults** (`ru_fault_pm`): a unit dies — in-flight work
///   is revoked and replayed elsewhere, the RU is quarantined, and
///   (when `repair_latency` is set) heals back into the pool later.
///
/// All rates are per-mille probabilities evaluated per dispatch point.
/// The default plan is **off**: every rate zero, in which case the
/// engine takes the exact pre-fault code path and reproduces the
/// golden figures bit for bit (same contract as [`PrefetchConfig`] and
/// `PreemptionMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault-decision stream (independent of workload
    /// seeds; same plan + same run ⇒ same faults).
    pub seed: u64,
    /// Per-mille chance that a completing (pre)load arrives corrupt.
    pub load_fault_pm: u16,
    /// Bounded retry budget for corrupt loads; attempt `k` backs off
    /// `latency × 2^(k-1)` before re-occupying the port.
    pub max_retries: u8,
    /// Per-mille chance (per execution-end event) that a resident,
    /// unclaimed configuration suffers an upset.
    pub upset_pm: u16,
    /// Per-mille chance (per execution-end event) that some RU
    /// hard-faults and is quarantined.
    pub ru_fault_pm: u16,
    /// Time a quarantined RU takes to heal back to `Empty`; `None`
    /// means hard faults are permanent for the rest of the run.
    pub repair_latency: Option<SimDuration>,
}

impl FaultPlan {
    /// No faults (the default; bit-exact with the pre-fault engine).
    pub fn off() -> Self {
        FaultPlan {
            seed: 0,
            load_fault_pm: 0,
            max_retries: 0,
            upset_pm: 0,
            ru_fault_pm: 0,
            repair_latency: None,
        }
    }

    /// Mild fault environment: occasional transient load corruption,
    /// rare upsets and hard faults, units heal after 20 ms.
    pub fn low(seed: u64) -> Self {
        FaultPlan {
            seed,
            load_fault_pm: 20,
            max_retries: 3,
            upset_pm: 10,
            ru_fault_pm: 4,
            repair_latency: Some(SimDuration::from_ms(20)),
        }
    }

    /// Hostile fault environment: frequent corruption with a tighter
    /// retry budget, units heal after 40 ms.
    pub fn high(seed: u64) -> Self {
        FaultPlan {
            seed,
            load_fault_pm: 120,
            max_retries: 2,
            upset_pm: 60,
            ru_fault_pm: 25,
            repair_latency: Some(SimDuration::from_ms(40)),
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style transient-load fault knobs.
    pub fn with_load_faults(mut self, per_mille: u16, max_retries: u8) -> Self {
        self.load_fault_pm = per_mille;
        self.max_retries = max_retries;
        self
    }

    /// Builder-style resident-upset rate.
    pub fn with_upsets(mut self, per_mille: u16) -> Self {
        self.upset_pm = per_mille;
        self
    }

    /// Builder-style RU hard-fault knobs.
    pub fn with_ru_faults(mut self, per_mille: u16, repair: Option<SimDuration>) -> Self {
        self.ru_fault_pm = per_mille;
        self.repair_latency = repair;
        self
    }

    /// True when no fault class can ever fire — the engine then runs
    /// the exact pre-fault code path.
    pub fn is_off(&self) -> bool {
        self.load_fault_pm == 0 && self.upset_pm == 0 && self.ru_fault_pm == 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::off()
    }
}

impl Serialize for FaultPlan {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("seed".to_string(), Serialize::serialize(&self.seed));
        m.insert(
            "load_fault_pm".to_string(),
            Serialize::serialize(&self.load_fault_pm),
        );
        m.insert(
            "max_retries".to_string(),
            Serialize::serialize(&self.max_retries),
        );
        m.insert("upset_pm".to_string(), Serialize::serialize(&self.upset_pm));
        m.insert(
            "ru_fault_pm".to_string(),
            Serialize::serialize(&self.ru_fault_pm),
        );
        m.insert(
            "repair_latency".to_string(),
            Serialize::serialize(&self.repair_latency),
        );
        serde::Value::Object(m)
    }
}

impl Deserialize for FaultPlan {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        // `null` (and an absent field, which the shim reads as `null`)
        // is the off plan — pre-fault files stay loadable.
        if matches!(v, serde::Value::Null) {
            return Ok(FaultPlan::off());
        }
        let m = serde::as_object(v)?;
        Ok(FaultPlan {
            seed: serde::field(m, "seed")?,
            load_fault_pm: serde::field(m, "load_fault_pm")?,
            max_retries: serde::field(m, "max_retries")?,
            upset_pm: serde::field(m, "upset_pm")?,
            ru_fault_pm: serde::field(m, "ru_fault_pm")?,
            repair_latency: serde::field(m, "repair_latency")?,
        })
    }
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManagerConfig {
    /// Number of reconfigurable units.
    pub rus: usize,
    /// Device parameters (reconfiguration latency, bitstream size,
    /// energy per load).
    pub device: DeviceSpec,
    /// Dynamic-List visibility for the replacement module.
    pub lookahead: Lookahead,
    /// Enables the run-time Skip Events feature (requires jobs carrying
    /// mobility annotations to have any effect).
    pub skip_events: bool,
    /// Record a full schedule trace (disable for large parameter sweeps).
    pub record_trace: bool,
    /// Speculative configuration prefetching (off by default — the
    /// paper's manager only loads on demand).
    pub prefetch: PrefetchConfig,
    /// Preemption policy for higher-priority arrivals (off by default —
    /// the pre-QoS run-to-completion engine, bit-exact).
    pub preemption: PreemptionMode,
    /// Deterministic fault-injection plan (off by default — the
    /// pre-fault fault-free engine, bit-exact).
    pub faults: FaultPlan,
}

impl ManagerConfig {
    /// The paper's default experimental setup: 4 RUs, 4 ms latency,
    /// skip off, DL = 1 graph.
    pub fn paper_default() -> Self {
        ManagerConfig {
            rus: 4,
            device: DeviceSpec::paper_default(),
            lookahead: Lookahead::Graphs(1),
            skip_events: false,
            record_trace: true,
            prefetch: PrefetchConfig::off(),
            preemption: PreemptionMode::Off,
            faults: FaultPlan::off(),
        }
    }

    /// Builder-style RU count override.
    pub fn with_rus(mut self, rus: usize) -> Self {
        self.rus = rus;
        self
    }

    /// Builder-style lookahead override.
    pub fn with_lookahead(mut self, lookahead: Lookahead) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// Builder-style Skip Events toggle.
    pub fn with_skip_events(mut self, on: bool) -> Self {
        self.skip_events = on;
        self
    }

    /// Builder-style trace-recording toggle.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Builder-style prefetch override.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Builder-style preemption-mode override.
    pub fn with_preemption(mut self, mode: PreemptionMode) -> Self {
        self.preemption = mode;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visible_graphs_clamps_to_remaining() {
        assert_eq!(Lookahead::None.visible_graphs(10), 0);
        assert_eq!(Lookahead::Graphs(4).visible_graphs(2), 2);
        assert_eq!(Lookahead::Graphs(4).visible_graphs(9), 4);
        assert_eq!(Lookahead::All.visible_graphs(7), 7);
    }

    #[test]
    fn builder_chain() {
        let c = ManagerConfig::paper_default()
            .with_rus(6)
            .with_lookahead(Lookahead::All)
            .with_skip_events(true)
            .with_trace(false)
            .with_prefetch(PrefetchConfig::with_depth(3))
            .with_preemption(PreemptionMode::Checkpoint);
        assert_eq!(c.rus, 6);
        assert_eq!(c.preemption, PreemptionMode::Checkpoint);
        assert_eq!(c.lookahead, Lookahead::All);
        assert!(c.skip_events);
        assert!(!c.record_trace);
        assert_eq!(c.prefetch.depth, 3);
        assert!(c.prefetch.enabled());
    }

    #[test]
    fn preemption_defaults_off_and_legacy_json_loads() {
        assert_eq!(
            ManagerConfig::paper_default().preemption,
            PreemptionMode::Off
        );
        // A pre-QoS serialized config (no `preemption` key) still
        // deserializes, defaulting the mode to Off.
        let mut v = Serialize::serialize(&ManagerConfig::paper_default());
        if let serde::Value::Object(m) = &mut v {
            m.remove("preemption");
        }
        let back = <ManagerConfig as Deserialize>::deserialize(&v).unwrap();
        assert_eq!(back, ManagerConfig::paper_default());
    }

    #[test]
    fn faults_default_off_and_legacy_json_loads() {
        assert!(ManagerConfig::paper_default().faults.is_off());
        assert_eq!(FaultPlan::default(), FaultPlan::off());
        assert!(!FaultPlan::low(1).is_off());
        assert!(!FaultPlan::high(1).is_off());
        // A pre-fault serialized config (no `faults` key) still
        // deserializes, defaulting the plan to off.
        let mut v = Serialize::serialize(&ManagerConfig::paper_default());
        if let serde::Value::Object(m) = &mut v {
            m.remove("faults");
        }
        let back = <ManagerConfig as Deserialize>::deserialize(&v).unwrap();
        assert_eq!(back, ManagerConfig::paper_default());
    }

    #[test]
    fn fault_plan_builders() {
        let p = FaultPlan::off()
            .with_seed(7)
            .with_load_faults(50, 4)
            .with_upsets(9)
            .with_ru_faults(3, Some(SimDuration::from_ms(10)));
        assert_eq!(p.seed, 7);
        assert_eq!(p.load_fault_pm, 50);
        assert_eq!(p.max_retries, 4);
        assert_eq!(p.upset_pm, 9);
        assert_eq!(p.ru_fault_pm, 3);
        assert_eq!(p.repair_latency, Some(SimDuration::from_ms(10)));
        assert!(!p.is_off());
    }

    #[test]
    fn prefetch_defaults_off() {
        assert!(!ManagerConfig::paper_default().prefetch.enabled());
        assert_eq!(PrefetchConfig::default(), PrefetchConfig::off());
        assert!(!PrefetchConfig::off().enabled());
        assert!(PrefetchConfig::with_depth(1).enabled());
    }
}
