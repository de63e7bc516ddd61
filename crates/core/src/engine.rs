//! The simulation engine: one event-loop entrypoint for every scheme.
//!
//! Every caching scheme implements [`SchemeEngine`]; the [`Engine`]
//! drives it from a [`SimClock`]. Request handling is split into an
//! *admission* (the synchronous cache-state mutation, returning an
//! [`Admission`]) and a *completion continuation* (the priced response
//! reaching the client, an [`Event::Completion`] on the clock).
//!
//! Two clock modes share this loop:
//!
//! * [`ClockMode::Compat`] executes the dense round-robin schedule the
//!   old inline driver used — arrivals one round apart, priced
//!   analytically at admission — and is byte-identical to it (DESIGN.md
//!   sketches the ordering proof). The schedule is executed directly
//!   rather than through the clock's queue: it is statically known, and
//!   the hot path stays as fast as the pre-event-core driver.
//! * [`ClockMode::Event`] materializes the schedule on the clock:
//!   arrivals self-schedule, a request occupies its proxy until its
//!   completion fires (so overlapping admissions queue behind each
//!   other), transport stalls lengthen the service time and so become
//!   genuine backlog, and latency is measured as wait + service at
//!   completion.

use crate::clock::{ticks_of, ClockMode, SimClock, TICKS_PER_ROUND, TICKS_PER_UNIT};
use crate::event::Event;
use crate::metrics::RunMetrics;
use crate::net::{HitClass, LatencyModel};
use crate::recorder::Recorder;
use webcache_workload::{Request, Trace};

/// The synchronous half of serving a request: where it was served from,
/// plus how many detection-timeout units of transport stalling the
/// admission incurred (lost/duplicated/reordered cluster messages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Where the request was served from.
    pub class: HitClass,
    /// Detection-timeout units spent on stalled protocol messages while
    /// admitting. Zero for fault-free engines.
    pub stalls: u64,
}

/// A caching scheme under simulation.
pub trait SchemeEngine {
    /// Serves one request arriving at `proxy`'s cluster; returns where it
    /// was served from. The engine applies all cache-state side effects.
    fn serve(&mut self, proxy: usize, request: &Request) -> HitClass;

    /// Admission half of the request path: applies all cache-state side
    /// effects and reports the hit class plus any transport stalls the
    /// admission incurred. The default wraps [`SchemeEngine::serve`]
    /// with zero stalls; engines with an unreliable transport (Hier-GD)
    /// override this to surface their stall count to the event loop.
    fn admit(&mut self, proxy: usize, request: &Request) -> Admission {
        Admission { class: self.serve(proxy, request), stalls: 0 }
    }

    /// End-to-end latency of a request served from `class`. The default
    /// is the paper's proxy-architecture path model; engines with a
    /// different architecture (e.g. the proxy-less Squirrel baseline)
    /// override it.
    fn latency_of(&self, model: &dyn LatencyModel, class: HitClass) -> f64 {
        model.latency(class)
    }

    /// Full analytic price of an admission: the class latency plus one
    /// detection timeout per stall unit. This is the completion
    /// continuation's service time; engines should override
    /// [`SchemeEngine::latency_of`] rather than this.
    fn price(&self, model: &dyn LatencyModel, admission: &Admission) -> f64 {
        let base = self.latency_of(model, admission.class);
        if admission.stalls == 0 {
            // Skipping `+ 0.0 * t` is bit-identical for the positive
            // latencies the models produce, and keeps the fault-free hot
            // path to a single model call.
            base
        } else {
            base + admission.stalls as f64 * model.t_timeout()
        }
    }

    /// Inert shim: nothing in the simulator calls or overrides it. It was
    /// the hook through which Hier-GD pre-resolved a wave's DHT routes
    /// before serving it; routes are now resolved inline. It remains only
    /// because the frozen `benchmark/` crate calls it, and goes once that
    /// crate drops `hiergd.prepare_wave_ns_per_req`.
    fn prepare_wave(&mut self, _proxy: usize, _wave: &[Request]) {}

    /// Called once after the trace is exhausted, e.g. to merge message
    /// ledgers into the metrics.
    fn finish(&mut self, _metrics: &mut RunMetrics) {}

    /// Scheme label for reports.
    fn name(&self) -> &'static str;
}

/// The event-loop driver: a scheme, its traces, and a latency model,
/// run from a [`SimClock`]. This is the single entrypoint that replaced
/// the `run_engine` / `run_engine_recorded` twins — pass
/// [`NoopRecorder`](crate::recorder::NoopRecorder) when nothing observes
/// the run.
pub struct Engine<'a, E: SchemeEngine + ?Sized> {
    scheme: &'a mut E,
    traces: &'a [Trace],
    model: &'a dyn LatencyModel,
}

impl<'a, E: SchemeEngine + ?Sized> Engine<'a, E> {
    /// Couples `scheme` to one trace per proxy and a latency model.
    ///
    /// # Panics
    /// Panics if `traces` is empty.
    pub fn new(scheme: &'a mut E, traces: &'a [Trace], model: &'a dyn LatencyModel) -> Self {
        assert!(!traces.is_empty(), "need at least one proxy trace");
        Engine { scheme, traces, model }
    }

    /// Runs the full schedule on `clock`, reporting every served request
    /// to `recorder`, and returns the aggregated metrics.
    pub fn run<R: Recorder>(&mut self, clock: &mut SimClock, recorder: &R) -> RunMetrics {
        let mut metrics = RunMetrics::default();
        match clock.mode() {
            ClockMode::Compat => self.run_compat(clock, recorder, &mut metrics),
            ClockMode::Event => self.run_event(clock, recorder, &mut metrics),
        }
        self.scheme.finish(&mut metrics);
        metrics
    }

    /// Compat mode: the dense round-robin schedule, executed directly.
    /// Identical to the event schedule (arrivals seeded in proxy order at
    /// tick 0, each rescheduling its successor one round later, FIFO
    /// within a tick) — see the ordering proof sketch in DESIGN.md.
    fn run_compat<R: Recorder>(
        &mut self,
        clock: &mut SimClock,
        recorder: &R,
        metrics: &mut RunMetrics,
    ) {
        let mut cursors = vec![0usize; self.traces.len()];
        // Proxies with requests left after the current round.
        let mut live = self.traces.len();
        let mut round = 0u64;
        while live > 0 {
            live = 0;
            clock.advance_to(round * TICKS_PER_ROUND);
            round += 1;
            for (p, trace) in self.traces.iter().enumerate() {
                if let Some(req) = trace.requests.get(cursors[p]) {
                    cursors[p] += 1;
                    if cursors[p] < trace.requests.len() {
                        live += 1;
                    }
                    let admission = self.scheme.admit(p, req);
                    // Bypass the `price` hop for stall-free admissions —
                    // the overwhelmingly common case, and bit-identical
                    // (stalls contribute exactly `stalls * t_timeout`).
                    let latency = if admission.stalls == 0 {
                        self.scheme.latency_of(self.model, admission.class)
                    } else {
                        self.scheme.price(self.model, &admission)
                    };
                    metrics.record(admission.class, latency);
                    if R::ENABLED {
                        recorder.request(p, admission.class, latency);
                    }
                }
            }
        }
        // Arrival + completion per request, accounted in one shot rather
        // than per request — nothing observes the counters mid-run.
        let served: usize = cursors.iter().sum();
        clock.account_virtual(2 * served as u64);
    }

    /// Event mode: the same schedule materialized on the clock, with
    /// per-proxy occupancy. Admissions still happen at arrival (cache
    /// dynamics — and therefore hit classes and message ledgers — are
    /// identical to compat mode); latency is measured at completion as
    /// queue wait plus service.
    fn run_event<R: Recorder>(
        &mut self,
        clock: &mut SimClock,
        recorder: &R,
        metrics: &mut RunMetrics,
    ) {
        for (p, trace) in self.traces.iter().enumerate() {
            if !trace.requests.is_empty() {
                clock.schedule_at(0, Event::Arrival { proxy: p, index: 0 });
            }
        }
        let mut next_free = vec![0u64; self.traces.len()];
        while let Some(event) = clock.pop() {
            match event {
                Event::Arrival { proxy, index } => {
                    let trace = &self.traces[proxy];
                    let req = &trace.requests[index];
                    if index + 1 < trace.requests.len() {
                        clock.schedule_in(
                            TICKS_PER_ROUND,
                            Event::Arrival { proxy, index: index + 1 },
                        );
                    }
                    let admission = self.scheme.admit(proxy, req);
                    let price = self.scheme.price(self.model, &admission);
                    let start = clock.now().max(next_free[proxy]);
                    (next_free[proxy], _) = complete(clock, proxy, start, admission.class, price);
                }
                Event::Completion { proxy, class, latency } => {
                    metrics.record(class, latency);
                    if R::ENABLED {
                        recorder.request(proxy, class, latency);
                    }
                }
                // Fault events are scheduled (and handled) only by the
                // fault driver's loop in `fault/driver.rs`.
                Event::Fault { .. } => {}
            }
        }
    }
}

/// The completion step of the event clock, shared by [`Engine::run`] and
/// the fault driver: the request admitted at the current tick is served
/// from `start` for its priced service time, stalls included. Schedules
/// the [`Event::Completion`] that records it; returns the tick it is done
/// at and the latency the client measures (queue wait plus service).
pub(crate) fn complete(
    clock: &mut SimClock,
    proxy: usize,
    start: u64,
    class: HitClass,
    price: f64,
) -> (u64, f64) {
    let done = start + ticks_of(price).max(1);
    let measured = (done - clock.now()) as f64 / TICKS_PER_UNIT as f64;
    clock.schedule_at(done, Event::Completion { proxy, class, latency: measured });
    (done, measured)
}

/// A do-nothing engine: every request goes to the server. Used by tests
/// as the floor any real scheme must beat.
pub struct NoCacheEngine;

impl SchemeEngine for NoCacheEngine {
    fn serve(&mut self, _proxy: usize, _request: &Request) -> HitClass {
        HitClass::Server
    }

    fn name(&self) -> &'static str {
        "no-cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkModel;
    use crate::recorder::{EventLogRecorder, NoopRecorder, SimEventKind};
    use webcache_workload::Request;

    fn trace(objects: &[u32]) -> Trace {
        Trace::new(objects.iter().map(|&o| Request { client: 0, object: o, size: 1 }).collect())
    }

    fn run_compat<E: SchemeEngine + ?Sized>(
        engine: &mut E,
        traces: &[Trace],
        net: &NetworkModel,
    ) -> RunMetrics {
        Engine::new(engine, traces, net).run(&mut SimClock::compat(), &NoopRecorder)
    }

    /// Records the (proxy, object) order it is driven in.
    struct Probe(Vec<(usize, u32)>);

    impl SchemeEngine for Probe {
        fn serve(&mut self, proxy: usize, request: &Request) -> HitClass {
            self.0.push((proxy, request.object));
            HitClass::Server
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    #[test]
    fn all_requests_served_exactly_once() {
        let traces = vec![trace(&[1, 2, 3]), trace(&[4, 5])];
        let mut e = Probe(Vec::new());
        let m = run_compat(&mut e, &traces, &NetworkModel::default());
        assert_eq!(m.requests, 5);
        assert_eq!(e.0.len(), 5);
        // Round-robin interleave: p0,p1,p0,p1,p0.
        assert_eq!(e.0, vec![(0, 1), (1, 4), (0, 2), (1, 5), (0, 3)]);
    }

    #[test]
    fn event_mode_preserves_the_interleave() {
        let traces = vec![trace(&[1, 2, 3]), trace(&[4, 5])];
        let mut e = Probe(Vec::new());
        let m = Engine::new(&mut e, &traces, &NetworkModel::default())
            .run(&mut SimClock::event(), &NoopRecorder);
        assert_eq!(m.requests, 5);
        assert_eq!(e.0, vec![(0, 1), (1, 4), (0, 2), (1, 5), (0, 3)]);
    }

    #[test]
    fn uneven_traces_drain_fully() {
        let traces = vec![trace(&[1]), trace(&[2, 3, 4, 5])];
        let m = run_compat(&mut Probe(Vec::new()), &traces, &NetworkModel::default());
        assert_eq!(m.requests, 5);
    }

    #[test]
    fn empty_trace_is_fine() {
        let traces = vec![trace(&[]), trace(&[1])];
        let m = run_compat(&mut Probe(Vec::new()), &traces, &NetworkModel::default());
        assert_eq!(m.requests, 1);
    }

    #[test]
    fn recorded_run_sees_every_request() {
        use crate::recorder::StatsRecorder;
        let traces = vec![trace(&[1, 2, 3]), trace(&[4, 5])];
        let rec = StatsRecorder::new();
        let m = Engine::new(&mut Probe(Vec::new()), &traces, &NetworkModel::default())
            .run(&mut SimClock::compat(), &rec);
        let snap = rec.snapshot();
        assert_eq!(snap.total_requests(), m.requests);
        assert_eq!(snap.count(HitClass::Server), m.count(HitClass::Server));
        assert!((snap.avg_latency() - m.avg_latency()).abs() < 1e-3);
    }

    #[test]
    fn no_cache_engine_latency() {
        let net = NetworkModel::default();
        let traces = vec![trace(&[1, 1, 1])];
        let m = run_compat(&mut NoCacheEngine, &traces, &net);
        assert!((m.avg_latency() - net.latency(HitClass::Server)).abs() < 1e-12);
        assert_eq!(m.hit_ratio(), 0.0);
    }

    #[test]
    fn event_mode_serializes_a_busy_proxy() {
        // One proxy, back-to-back server fetches: service (11 units =
        // 352 ticks) far exceeds the 32-tick arrival period, so request
        // n waits behind n-1 and measured latency grows by one service
        // time minus one arrival period per request.
        let net = NetworkModel::default();
        let traces = vec![trace(&[1, 2, 3])];
        let m = Engine::new(&mut NoCacheEngine, &traces, &net)
            .run(&mut SimClock::event(), &NoopRecorder);
        let service = net.latency(HitClass::Server);
        let round = TICKS_PER_ROUND as f64 / TICKS_PER_UNIT as f64;
        let expect = (service) + (2.0 * service - round) + (3.0 * service - 2.0 * round);
        assert!(
            (m.total_latency - expect).abs() < 1e-9,
            "queueing must accumulate: {} vs {expect}",
            m.total_latency
        );
    }

    #[test]
    fn compat_and_event_agree_on_hit_classes() {
        let traces = vec![trace(&[1, 2, 1, 3, 1]), trace(&[2, 2, 4])];
        let compat = run_compat(&mut Probe(Vec::new()), &traces, &NetworkModel::default());
        let event = Engine::new(&mut Probe(Vec::new()), &traces, &NetworkModel::default())
            .run(&mut SimClock::event(), &NoopRecorder);
        assert_eq!(compat.requests, event.requests);
        for class in HitClass::ALL {
            assert_eq!(compat.count(class), event.count(class));
        }
    }

    #[test]
    fn stalled_admissions_price_timeouts_in_both_clocks() {
        /// Every admission reports one stall unit.
        struct Stalled;
        impl SchemeEngine for Stalled {
            fn serve(&mut self, _p: usize, _r: &Request) -> HitClass {
                HitClass::LocalProxy
            }
            fn admit(&mut self, proxy: usize, request: &Request) -> Admission {
                Admission { class: self.serve(proxy, request), stalls: 1 }
            }
            fn name(&self) -> &'static str {
                "stalled"
            }
        }
        let net = NetworkModel::default();
        let traces = vec![trace(&[1, 2])];
        let m = run_compat(&mut Stalled, &traces, &net);
        let expect = 2.0 * (net.latency(HitClass::LocalProxy) + net.t_timeout);
        assert!((m.total_latency - expect).abs() < 1e-12);

        let mut clock = SimClock::event();
        let log = EventLogRecorder::new(16);
        let me = Engine::new(&mut Stalled, &traces, &net).run(&mut clock, &log);
        assert_eq!(me.requests, 2);
        // 2 arrivals + 2 completions: the stall is in the service time.
        assert_eq!(clock.delivered(), 4);
        // Event-mode latencies are whole ticks: the floor is quantized too.
        let floor = ticks_of(net.latency(HitClass::LocalProxy) + net.t_timeout) as f64
            / TICKS_PER_UNIT as f64;
        let latencies: Vec<f64> = log
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                SimEventKind::Request { latency, .. } => Some(latency),
                SimEventKind::P2p(_) => None,
            })
            .collect();
        assert_eq!(latencies.len(), 2);
        for latency in latencies {
            assert!(latency >= floor, "stall not priced: {latency} < {floor}");
        }
    }
}
