//! Device presets.
//!
//! A [`DeviceSpec`] bundles the hardware parameters the simulator needs:
//! reconfiguration latency, per-RU bitstream size and the energy cost of
//! one reconfiguration. The default's figures are representative of the
//! paper's measurement platform (Virtex-II Pro XC2VP30) — the
//! *experiments* only depend on the latency, which the paper fixes at
//! 4 ms in every example.

use rtr_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of a reconfigurable device partitioned into equal RUs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Latency of one RU reconfiguration.
    pub reconfig_latency: SimDuration,
    /// Size of one RU's partial bitstream in bytes (drives bus-traffic
    /// accounting).
    pub bitstream_bytes: u64,
    /// Energy of one reconfiguration, in microjoules (drives the energy
    /// accounting; the paper's ref.&nbsp;4 reports tens of mJ per load).
    pub energy_per_load_uj: u64,
}

impl DeviceSpec {
    /// The configuration used throughout the paper's examples and
    /// experiments: 4 ms per reconfiguration.
    pub fn paper_default() -> Self {
        DeviceSpec {
            name: "paper-default (4ms)".to_string(),
            reconfig_latency: SimDuration::from_ms(4),
            // ~1/4 of a XC2VP30 full bitstream (~1.4 MB) per RU.
            bitstream_bytes: 350 * 1024,
            // ~20 mJ per partial reconfiguration.
            energy_per_load_uj: 20_000,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_4ms() {
        assert_eq!(
            DeviceSpec::paper_default().reconfig_latency,
            SimDuration::from_ms(4)
        );
    }

    #[test]
    fn serde_round_trip() {
        let d = DeviceSpec {
            reconfig_latency: SimDuration::from_ms(2),
            ..DeviceSpec::paper_default()
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: DeviceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
