//! The event vocabulary of the discrete-event core.
//!
//! Everything the simulation does at a point in model time is one of
//! these variants, scheduled on a [`SimClock`](crate::clock::SimClock)
//! and handled by the [`Engine`](crate::engine::Engine) event loop (or by
//! the fault driver's loop in `fault/driver.rs`, which adds [`Event::Fault`]
//! handling). The old inline driver collapsed all of these into
//! synchronous calls; the event core makes each one a first-class,
//! timestamped occurrence so non-uniform latencies, overlapping
//! admissions, and fault timing become schedule properties instead of
//! code paths.

use crate::net::HitClass;

/// One scheduled occurrence on the simulation clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// Request `index` of `proxy`'s trace arrives at the proxy cluster.
    ///
    /// Arrivals self-schedule: handling request `index` schedules request
    /// `index + 1` one arrival period later, which reproduces the classic
    /// round-robin interleave exactly (see `clock.rs` module docs).
    Arrival {
        /// Proxy cluster the request arrives at.
        proxy: usize,
        /// Index into that proxy's trace.
        index: usize,
    },
    /// A served request's response reaches the client.
    ///
    /// In [`ClockMode::Event`](crate::clock::ClockMode::Event) this is
    /// where the request's latency is recorded; in compat mode the
    /// completion is implicit in the analytic price charged at arrival.
    Completion {
        /// Proxy cluster that served the request.
        proxy: usize,
        /// Where the request was served from.
        class: HitClass,
        /// End-to-end latency in model units (queue wait + service).
        latency: f64,
    },
    /// A stalled protocol interaction (lost/duplicated/reordered
    /// transport messages) resolves after `units` detection-timeout
    /// periods of silence.
    Timeout {
        /// Proxy cluster whose cluster-internal messages stalled.
        proxy: usize,
        /// Timeout units the stall consumed (`units × t_timeout` model
        /// time).
        units: u64,
    },
    /// Entry `index` of the fault plan fires (crash / depart / rejoin /
    /// slow / partition / heal). Only the fault driver schedules these.
    Fault {
        /// Index into the plan's event list.
        index: usize,
    },
}

impl Event {
    /// Short label for traces and diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Event::Arrival { .. } => "arrival",
            Event::Completion { .. } => "completion",
            Event::Timeout { .. } => "timeout",
            Event::Fault { .. } => "fault",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Event::Arrival { proxy: 0, index: 0 }.kind_label(), "arrival");
        assert_eq!(
            Event::Completion { proxy: 1, class: HitClass::Server, latency: 1.0 }.kind_label(),
            "completion"
        );
        assert_eq!(Event::Timeout { proxy: 0, units: 2 }.kind_label(), "timeout");
        assert_eq!(Event::Fault { index: 3 }.kind_label(), "fault");
    }
}
