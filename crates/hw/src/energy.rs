//! Energy and bus-traffic accounting.
//!
//! §VI of the paper: "higher reuse rates reduce the system energy
//! consumption, since a reconfiguration process consumes a large amount
//! of energy. In addition, higher reuse rates also reduce the pressure
//! over the external memory and the system bus, since the
//! reconfigurations involve moving large amounts of data from an
//! external memory to the FPGA." This module turns that argument into
//! measurable quantities: every bitstream *written* adds one bitstream
//! of bus traffic and one load's worth of energy; every *reuse* adds
//! nothing.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Reconfiguration cost statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Bitstreams written on the demand lane: demand loads plus their
    /// fault retries (each retry rewrites the full bitstream).
    pub loads: u64,
    /// Loads avoided through reuse.
    pub reuses: u64,
    /// Bitstreams written on the speculative lane: completed prefetches
    /// plus speculative transfers that completed corrupt. Cancelled
    /// prefetches are not charged here — the bitstream write was
    /// aborted (the port time they held is tracked by the controller's
    /// busy time).
    pub prefetch_loads: u64,
    /// Bytes moved from external memory to the device (demand and
    /// speculative writes alike).
    pub bytes_moved: u64,
    /// Energy spent on reconfigurations, in microjoules.
    pub energy_uj: u64,
}

impl TrafficStats {
    /// The traffic of a run that wrote `demand_writes` bitstreams on the
    /// demand lane and `speculative_writes` on the speculative lane, and
    /// claimed `reuses` resident configurations, on `device`: every
    /// write moves one bitstream and costs one load's energy.
    pub fn from_writes(
        device: &DeviceSpec,
        demand_writes: u64,
        speculative_writes: u64,
        reuses: u64,
    ) -> Self {
        let writes = demand_writes + speculative_writes;
        TrafficStats {
            loads: demand_writes,
            reuses,
            prefetch_loads: speculative_writes,
            bytes_moved: writes * device.bitstream_bytes,
            energy_uj: writes * device.energy_per_load_uj,
        }
    }

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
    fn writes_accumulate_energy_and_traffic() {
        let s = TrafficStats::from_writes(&DeviceSpec::paper_default(), 2, 0, 0);
        assert_eq!(s.loads, 2);
        assert_eq!(s.bytes_moved, 2 * 350 * 1024);
        assert_eq!(s.energy_uj, 40_000);
    }

    #[test]
    fn reuses_cost_nothing() {
        let s = TrafficStats::from_writes(&DeviceSpec::paper_default(), 1, 0, 2);
        assert_eq!(s.reuses, 2);
        assert_eq!(s.bytes_moved, 350 * 1024);
        assert_eq!(s.energy_uj, 20_000);
    }

    #[test]
    fn speculative_writes_charge_traffic_in_their_own_lane() {
        let s = TrafficStats::from_writes(&DeviceSpec::paper_default(), 1, 1, 0);
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
