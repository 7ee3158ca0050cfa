//! Energy and bus-traffic accounting.
//!
//! §VI of the paper: "higher reuse rates reduce the system energy
//! consumption, since a reconfiguration process consumes a large amount
//! of energy. In addition, higher reuse rates also reduce the pressure
//! over the external memory and the system bus, since the
//! reconfigurations involve moving large amounts of data from an
//! external memory to the FPGA." This module turns that argument into
//! measurable quantities: every *performed* load adds one bitstream of
//! bus traffic and one load's worth of energy; every *reuse* adds
//! nothing.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Accumulated reconfiguration cost statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Demand reconfigurations actually performed.
    pub loads: u64,
    /// Loads avoided through reuse.
    pub reuses: u64,
    /// Speculative (prefetch) reconfigurations that ran to completion.
    /// Cancelled prefetches are not charged here — the bitstream write
    /// was aborted (the port time they held is tracked by the
    /// controller's busy time).
    pub prefetch_loads: u64,
    /// Bytes moved from external memory to the device (demand and
    /// completed speculative loads alike).
    pub bytes_moved: u64,
    /// Energy spent on reconfigurations, in microjoules.
    pub energy_uj: u64,
}

/// Converts load/reuse counts into energy and traffic for a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyModel {
    device: DeviceSpec,
    stats: TrafficStats,
}

impl EnergyModel {
    /// Model for `device`, with zeroed counters.
    pub fn new(device: DeviceSpec) -> Self {
        EnergyModel {
            device,
            stats: TrafficStats::default(),
        }
    }

    /// Records one performed reconfiguration.
    pub fn record_load(&mut self) {
        self.stats.loads += 1;
        self.stats.bytes_moved += self.device.bitstream_bytes;
        self.stats.energy_uj += self.device.energy_per_load_uj;
    }

    /// Records one reuse (no traffic, no energy).
    pub fn record_reuse(&mut self) {
        self.stats.reuses += 1;
    }

    /// Records one *completed* speculative load: a full bitstream moved
    /// and a full load's energy spent, accounted in the prefetch lane.
    pub fn record_prefetch(&mut self) {
        self.stats.prefetch_loads += 1;
        self.stats.bytes_moved += self.device.bitstream_bytes;
        self.stats.energy_uj += self.device.energy_per_load_uj;
    }

    /// Zeroes the counters, optionally retargeting the device — the
    /// pooled engine's reset hook.
    pub fn reset(&mut self, device: DeviceSpec) {
        self.device = device;
        self.stats = TrafficStats::default();
    }

    /// Current counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// The device this model accounts for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Energy that *would* have been spent had every reuse claim been a
    /// demand load — the savings headline the paper argues for. Gross
    /// of speculation: claims of prefetched configurations count here
    /// while their speculative write is charged in
    /// [`TrafficStats::prefetch_loads`]/`energy_uj`; net savings are
    /// the difference.
    pub fn energy_saved_uj(&self) -> u64 {
        self.stats.reuses * self.device.energy_per_load_uj
    }

    /// Bus traffic avoided through reuse claims, in bytes (gross of
    /// speculative traffic, like [`Self::energy_saved_uj`]).
    pub fn bytes_saved(&self) -> u64 {
        self.stats.reuses * self.device.bitstream_bytes
    }
}

impl TrafficStats {
    /// Fraction of load requests satisfied by reuse, in `[0, 1]`.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.loads + self.reuses;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_accumulate_energy_and_traffic() {
        let mut m = EnergyModel::new(DeviceSpec::paper_default());
        m.record_load();
        m.record_load();
        let s = m.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.bytes_moved, 2 * 350 * 1024);
        assert_eq!(s.energy_uj, 40_000);
    }

    #[test]
    fn reuses_cost_nothing_but_count_savings() {
        let mut m = EnergyModel::new(DeviceSpec::paper_default());
        m.record_load();
        m.record_reuse();
        m.record_reuse();
        let s = m.stats();
        assert_eq!(s.reuses, 2);
        assert_eq!(s.energy_uj, 20_000);
        assert_eq!(m.energy_saved_uj(), 40_000);
        assert_eq!(m.bytes_saved(), 2 * 350 * 1024);
    }

    #[test]
    fn prefetch_loads_charge_traffic_in_their_own_lane() {
        let mut m = EnergyModel::new(DeviceSpec::paper_default());
        m.record_load();
        m.record_prefetch();
        let s = m.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.prefetch_loads, 1);
        assert_eq!(s.bytes_moved, 2 * 350 * 1024);
        assert_eq!(s.energy_uj, 40_000);
    }

    #[test]
    fn reuse_ratio() {
        let mut s = TrafficStats::default();
        assert_eq!(s.reuse_ratio(), 0.0);
        s.loads = 3;
        s.reuses = 1;
        assert!((s.reuse_ratio() - 0.25).abs() < 1e-12);
    }
}
