//! The single-port reconfiguration controller.
//!
//! FPGAs expose one configuration interface (e.g. the ICAP port on
//! Xilinx devices): reconfigurations are strictly serialised. The
//! controller tracks the in-flight operation and enforces that
//! exclusivity; the manager polls [`ReconfigController::is_idle`] at
//! every event, exactly like the `reconfiguration_circuitry_idle()`
//! checks in the paper's Fig. 4 pseudo-code. The port's [`InFlight`]
//! record is the engine's only record of the pending reconfiguration:
//! its `completes` instant is when the manager's
//! `end_of_reconfiguration` event fires, and its lane says how the
//! landed load is used.
//!
//! The port carries two *lanes* sharing the one physical interface:
//!
//! * [`LoadLane::Demand`] — a load the current graph's reconfiguration
//!   sequence requires now, for the node it names. Demand loads always
//!   run to completion.
//! * [`LoadLane::Speculative`] — a prefetch issued while the port was
//!   otherwise idle. A speculative load is *cancellable*: when the
//!   demand path needs the port mid-write, [`cancel`] aborts the write
//!   (the partially written target RU is discarded) so demand is never
//!   delayed by speculation.
//!
//! Both lanes start through the one [`start`], which also re-arms the
//! backoff retry of a corrupt transfer.
//!
//! [`cancel`]: ReconfigController::cancel
//! [`start`]: ReconfigController::start

use crate::ru::RuId;
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{ConfigId, NodeId};

/// Which lane an in-flight reconfiguration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLane {
    /// A load the current graph demands now for the given node; runs to
    /// completion.
    Demand(NodeId),
    /// A speculative prefetch; cancellable when demand needs the port.
    Speculative,
}

/// An in-flight reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Destination RU.
    pub ru: RuId,
    /// Configuration being written.
    pub config: ConfigId,
    /// When the write starts: the start call's instant, or the end of a
    /// retry's backoff wait.
    pub started: SimTime,
    /// When the write completes.
    pub completes: SimTime,
    /// Demand load or speculative prefetch.
    pub lane: LoadLane,
}

/// The reconfiguration circuitry: at most one load at a time, each
/// taking a fixed latency.
#[derive(Debug, Clone)]
pub struct ReconfigController {
    latency: SimDuration,
    in_flight: Option<InFlight>,
    busy_time: SimDuration,
}

impl ReconfigController {
    /// Creates an idle controller with the given per-load latency.
    ///
    /// # Panics
    /// Panics on a zero latency — use the manager's ideal-baseline mode
    /// for zero-latency experiments instead, so the event semantics stay
    /// well defined.
    pub fn new(latency: SimDuration) -> Self {
        assert!(
            !latency.is_zero(),
            "reconfiguration latency must be positive (the ideal baseline \
             is simulated separately)"
        );
        ReconfigController {
            latency,
            in_flight: None,
            busy_time: SimDuration::ZERO,
        }
    }

    /// The fixed per-load latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// True when no reconfiguration is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none()
    }

    /// The in-flight operation, if any.
    pub fn in_flight(&self) -> Option<InFlight> {
        self.in_flight
    }

    /// Starts loading `config` into `ru` on `lane`; returns the
    /// completion time. The port is held from the call on, but the
    /// write itself occupies `[writes_from, writes_from + latency]` and
    /// only that window is accounted as busy time. A first attempt
    /// writes from `now`; a backoff retry of a corrupt load passes
    /// `now + backoff` and keeps its lane, so a speculative retry stays
    /// cancellable by demand (for free during the backoff wait).
    ///
    /// # Panics
    /// Panics if the controller is busy — callers must check
    /// [`Self::is_idle`] first (the manager does, mirroring Fig. 4),
    /// cancelling any speculative occupant before claiming the port.
    pub fn start(
        &mut self,
        ru: RuId,
        config: ConfigId,
        lane: LoadLane,
        writes_from: SimTime,
    ) -> SimTime {
        assert!(
            self.in_flight.is_none(),
            "reconfiguration controller is single-ported: start() while busy"
        );
        let completes = writes_from + self.latency;
        self.in_flight = Some(InFlight {
            ru,
            config,
            started: writes_from,
            completes,
            lane,
        });
        completes
    }

    /// Completes the in-flight operation; `now` must match the promised
    /// completion time.
    pub fn complete(&mut self, now: SimTime) -> InFlight {
        let op = self
            .in_flight
            .take()
            .expect("complete() called with no reconfiguration in flight");
        assert_eq!(
            op.completes, now,
            "reconfiguration completion fired at the wrong time"
        );
        self.busy_time += op.completes.since(op.started);
        op
    }

    /// Aborts the in-flight *speculative* load at time `now` (demand
    /// needs the port). The port time actually spent writing is still
    /// accounted as busy; the caller discards the partially written RU.
    ///
    /// # Panics
    /// Panics if nothing is in flight, if the in-flight operation is a
    /// demand load (demand loads always complete), or if `now` lies
    /// after the operation's completion. Cancellation *before*
    /// `started` is legal — it aborts a backoff retry that has not
    /// begun rewriting yet, and charges no port time.
    pub fn cancel(&mut self, now: SimTime) -> InFlight {
        let op = self
            .in_flight
            .take()
            .expect("cancel() called with no reconfiguration in flight");
        assert_eq!(
            op.lane,
            LoadLane::Speculative,
            "only speculative loads are cancellable"
        );
        assert!(
            now <= op.completes,
            "cancellation at {now} after the write completed at {}",
            op.completes
        );
        self.busy_time += now.saturating_since(op.started);
        op
    }

    /// Total time the port spent writing bitstreams (demand loads,
    /// completed prefetches, and the written part of cancelled ones).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMAND: LoadLane = LoadLane::Demand(NodeId(0));
    const SPEC: LoadLane = LoadLane::Speculative;

    fn ctl() -> ReconfigController {
        ReconfigController::new(SimDuration::from_ms(4))
    }

    #[test]
    fn starts_idle_and_tracks_in_flight() {
        let mut c = ctl();
        assert!(c.is_idle());
        let done = c.start(RuId(0), ConfigId(1), DEMAND, SimTime::from_ms(10));
        assert_eq!(done, SimTime::from_ms(14));
        assert!(!c.is_idle());
        assert_eq!(c.in_flight().unwrap().config, ConfigId(1));
        assert_eq!(c.in_flight().unwrap().lane, DEMAND);
    }

    #[test]
    fn complete_updates_stats() {
        let mut c = ctl();
        c.start(RuId(1), ConfigId(2), DEMAND, SimTime::ZERO);
        let op = c.complete(SimTime::from_ms(4));
        assert_eq!(op.ru, RuId(1));
        assert!(c.is_idle());
        assert_eq!(c.busy_time(), SimDuration::from_ms(4));
    }

    #[test]
    #[should_panic(expected = "single-ported")]
    fn concurrent_loads_rejected() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(1), DEMAND, SimTime::ZERO);
        c.start(RuId(1), ConfigId(2), DEMAND, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "single-ported")]
    fn speculative_respects_exclusivity() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(1), SPEC, SimTime::ZERO);
        c.start(RuId(1), ConfigId(2), DEMAND, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "wrong time")]
    fn completion_time_is_checked() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(1), DEMAND, SimTime::ZERO);
        c.complete(SimTime::from_ms(3));
    }

    #[test]
    #[should_panic]
    fn zero_latency_rejected() {
        let _ = ReconfigController::new(SimDuration::ZERO);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(1), DEMAND, SimTime::ZERO);
        c.complete(SimTime::from_ms(4));
        c.start(RuId(1), ConfigId(2), DEMAND, SimTime::from_ms(10));
        c.complete(SimTime::from_ms(14));
        assert_eq!(c.busy_time(), SimDuration::from_ms(8));
    }

    #[test]
    fn speculative_completion_counts_in_its_lane() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(9), SPEC, SimTime::ZERO);
        let op = c.complete(SimTime::from_ms(4));
        assert_eq!(op.lane, SPEC);
        assert_eq!(c.busy_time(), SimDuration::from_ms(4));
    }

    #[test]
    fn cancel_frees_the_port_and_charges_partial_time() {
        let mut c = ctl();
        c.start(RuId(2), ConfigId(7), SPEC, SimTime::from_ms(10));
        let op = c.cancel(SimTime::from_ms(13));
        assert_eq!(op.ru, RuId(2));
        assert!(c.is_idle());
        assert_eq!(c.busy_time(), SimDuration::from_ms(3));
        // The port is immediately available for a demand load.
        let done = c.start(RuId(0), ConfigId(1), DEMAND, SimTime::from_ms(13));
        assert_eq!(done, SimTime::from_ms(17));
    }

    #[test]
    #[should_panic(expected = "only speculative")]
    fn demand_loads_are_not_cancellable() {
        let mut c = ctl();
        c.start(RuId(0), ConfigId(1), DEMAND, SimTime::ZERO);
        c.cancel(SimTime::from_ms(1));
    }

    #[test]
    fn retry_delays_the_write_window() {
        let mut c = ctl();
        // Backoff 8 ms from t = 10: the rewrite occupies [18, 22].
        let done = c.start(RuId(0), ConfigId(1), DEMAND, SimTime::from_ms(18));
        assert_eq!(done, SimTime::from_ms(22));
        assert!(!c.is_idle());
        let op = c.complete(SimTime::from_ms(22));
        assert_eq!(op.started, SimTime::from_ms(18));
        // Only the write itself is port-busy, not the backoff wait.
        assert_eq!(c.busy_time(), SimDuration::from_ms(4));
    }

    #[test]
    fn cancel_during_backoff_charges_nothing() {
        let mut c = ctl();
        // Backoff 8 ms from t = 10: the rewrite would begin at t = 18.
        c.start(RuId(0), ConfigId(1), SPEC, SimTime::from_ms(18));
        // Demand claims the port at t = 12, before the rewrite begins:
        // no port time was spent.
        let op = c.cancel(SimTime::from_ms(12));
        assert_eq!(op.lane, SPEC);
        assert!(c.is_idle());
        assert_eq!(c.busy_time(), SimDuration::ZERO);
    }
}
