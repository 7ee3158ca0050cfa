//! Hardware model of the multi-RU reconfigurable system.
//!
//! The paper targets "a reconfigurable multitasking system that is
//! composed of a set of equal-sized reconfigurable units (RUs)" (its
//! refs [7, 8]) with a single reconfiguration circuitry: only one
//! configuration can be loading at any time, each load taking a fixed
//! latency (4 ms in all of the paper's examples).
//!
//! This crate models exactly that:
//!
//! * [`RuPool`] — the RUs with a checked state machine per unit
//!   (`Empty → Loading → Loaded ⇄ Executing`), including the *claim*
//!   notion the replacement semantics need (a loaded-but-not-yet-run
//!   task must not be evicted; a task that finished its execution is an
//!   eviction candidate even while its graph is still running).
//! * [`ReconfigController`] — the single reconfiguration port, with a
//!   demand and a speculative lane. Its [`InFlight`] record is the
//!   manager's only record of the pending reconfiguration, and its one
//!   `start` serves first loads and backoff retries on both lanes.
//! * [`device`] — named device presets (latency, bitstream size, energy
//!   per load) with the paper's 4 ms setup as the default.
//! * [`energy`] — energy/bus-traffic accounting: the paper argues that
//!   raising reuse cuts energy and memory pressure because every
//!   reconfiguration moves a full bitstream from external memory.
//!   [`TrafficStats`] derives a run's bytes and energy from its
//!   bitstream-write counts.

pub mod controller;
pub mod device;
pub mod energy;
pub mod ru;

pub use controller::{InFlight, LoadLane, ReconfigController};
pub use device::DeviceSpec;
pub use energy::TrafficStats;
pub use ru::{RuId, RuPool, RuState};
