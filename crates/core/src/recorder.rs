//! The observability layer: pluggable recorders for the request path.
//!
//! Every diagnostic the paper's §5.2 claims rest on — hit classes, Pastry
//! hop counts (claim 11), piggyback destage connections (claim 12),
//! directory stale lookups (claim 13) — flows through the [`Recorder`]
//! trait. The simulation loop reports one [`Recorder::request`] per served
//! request; the Hier-GD engine forwards the P2P layer's structured
//! [`P2pEvent`]s through [`Recorder::p2p_event`].
//!
//! Recorders are **statically monomorphized**: engines are generic over
//! `R: Recorder`, every emission site is guarded by the associated
//! constant `R::ENABLED`, and the default [`NoopRecorder`] sets it to
//! `false`, so the disabled path compiles to exactly the un-instrumented
//! code — the hot loop pays nothing (golden metrics stay bit-for-bit
//! identical, throughput stays within noise of the PR 1 baseline).
//!
//! Two concrete recorders ship:
//!
//! * [`StatsRecorder`] — lock-free aggregate counters and log₂-bucketed
//!   histograms, one relaxed `AtomicU64` per counter plus
//!   [`Log2Histogram`]s, so one instance can be shared across the
//!   parallel `sweep()` grid points;
//! * [`EventLogRecorder`] — a bounded ring buffer of structured events
//!   with CSV export for offline analysis (`target/figures/`).

use crate::error::SimError;
use crate::net::HitClass;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use webcache_p2p::P2pEvent;
use webcache_primitives::{Log2Histogram, Log2Snapshot};

/// Scale factor between model latency units and the integer "milli-units"
/// recorded into the latency histogram (`Tl = 1.0` → 1000).
pub const LATENCY_MILLI_SCALE: f64 = 1000.0;

/// Observer of the simulation's request path.
///
/// Methods take `&self` (recorders use interior mutability / atomics) so
/// a single recorder can be shared by the parallel sweep workers; `Sync`
/// is part of the contract for the same reason.
pub trait Recorder: Sync {
    /// Whether this recorder observes anything. Emission sites are guarded
    /// by this constant, so `false` deletes them during monomorphization.
    const ENABLED: bool = true;

    /// One request served at `proxy` from `class` with end-to-end model
    /// `latency`.
    fn request(&self, proxy: usize, class: HitClass, latency: f64);

    /// One structured P2P-layer event at `proxy`'s cluster.
    fn p2p_event(&self, proxy: usize, event: P2pEvent);
}

/// The default recorder: statically disabled, zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn request(&self, _proxy: usize, _class: HitClass, _latency: f64) {}

    #[inline(always)]
    fn p2p_event(&self, _proxy: usize, _event: P2pEvent) {}
}

impl<R: Recorder + ?Sized> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn request(&self, proxy: usize, class: HitClass, latency: f64) {
        (**self).request(proxy, class, latency);
    }

    #[inline]
    fn p2p_event(&self, proxy: usize, event: P2pEvent) {
        (**self).p2p_event(proxy, event);
    }
}

impl<R: Recorder + ?Sized + Send> Recorder for Arc<R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn request(&self, proxy: usize, class: HitClass, latency: f64) {
        (**self).request(proxy, class, latency);
    }

    #[inline]
    fn p2p_event(&self, proxy: usize, event: P2pEvent) {
        (**self).p2p_event(proxy, event);
    }
}

/// Fan-out to two recorders (e.g. stats + event log in one run).
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn request(&self, proxy: usize, class: HitClass, latency: f64) {
        if A::ENABLED {
            self.0.request(proxy, class, latency);
        }
        if B::ENABLED {
            self.1.request(proxy, class, latency);
        }
    }

    #[inline]
    fn p2p_event(&self, proxy: usize, event: P2pEvent) {
        if A::ENABLED {
            self.0.p2p_event(proxy, event);
        }
        if B::ENABLED {
            self.1.p2p_event(proxy, event);
        }
    }
}

/// Declares every scalar counter once. Each entry below — a doc comment
/// and a name — becomes an `AtomicU64` cell of [`StatsRecorder`], the
/// public `u64` field of [`StatsSnapshot`] that `snapshot()` copies it
/// into, and one `(name, value)` row of the JSON and table renderings, in
/// declaration order: the list is the counter schema. A new counter is one
/// entry here plus the arm of `StatsRecorder::p2p_event` that bumps it.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lock-free aggregate statistics: per-class request counters, a
        /// latency histogram, hop distributions, and every P2P message
        /// class the paper's claims 11–13 reference.
        ///
        /// All cells are relaxed atomics (counters and histograms), so a
        /// single `Arc<StatsRecorder>` can be shared across the parallel
        /// `sweep()` without locks. Not `Clone` — share via `Arc` (or
        /// borrow).
        #[derive(Debug, Default)]
        pub struct StatsRecorder {
            /// Requests per [`HitClass`] (indexed by [`HitClass::index`]).
            requests: [AtomicU64; HitClass::ALL.len()],
            /// End-to-end latency in milli-units (`latency × 1000`, log₂ buckets).
            latency_milli: Log2Histogram,
            /// Overlay hops per routed lookup (claim 11's hop distribution).
            lookup_hops: Log2Histogram,
            /// Overlay hops per destage message.
            destage_hops: Log2Histogram,
            $($name: AtomicU64,)*
        }

        impl StatsRecorder {
            /// A plain-data copy of the current counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    requests_by_class: std::array::from_fn(|i| {
                        self.requests[i].load(Ordering::Relaxed)
                    }),
                    latency_milli: self.latency_milli.snapshot(),
                    lookup_hops: self.lookup_hops.snapshot(),
                    destage_hops: self.destage_hops.snapshot(),
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        /// Plain-data snapshot of a [`StatsRecorder`].
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            /// Requests per class, indexed by [`HitClass::index`].
            pub requests_by_class: [u64; HitClass::ALL.len()],
            /// End-to-end latency histogram in milli-units (latency × 1000).
            pub latency_milli: Log2Snapshot,
            /// Hop distribution of routed lookups (claim 11).
            pub lookup_hops: Log2Snapshot,
            /// Hop distribution of destage messages.
            pub destage_hops: Log2Snapshot,
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StatsSnapshot {
            /// The scalar counters as stable `(name, value)` rows.
            fn counter_rows(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

counters! {
    /// Total destages (proxy evictions passed down, Fig. 1).
    destages,
    /// Destages that rode HTTP responses (§4.4).
    piggybacked_destages,
    /// Dedicated connections opened for destaging (claim 12: zero when
    /// piggybacking is on).
    direct_destage_connections,
    /// Destages diverted to a leaf-set neighbor (§4.3).
    diverted_destages,
    /// Destages refreshing an already-resident object.
    refreshed_destages,
    /// Routed lookups into a client cluster.
    lookups,
    /// Lookups whose object was gone (claim 13: Bloom false positives /
    /// churn staleness).
    stale_lookups,
    /// Successful push-protocol fetches (§4.5).
    pushes,
    /// Serve-path consultations of the own-cluster lookup directory.
    directory_probes,
    /// Probes that answered "present".
    directory_probe_hits,
    /// Client-cache evictions (destage replacement + join migration).
    evictions,
    /// Evictions that invalidated a diversion pointer.
    pointer_invalidations,
    /// Silent crashes detected and reclaimed (one per corpse).
    node_failures,
    /// Objects lost to failures.
    objects_lost,
    /// Client machines joined mid-run.
    node_joins,
    /// Objects migrated to newcomers.
    objects_migrated,
    /// Client machines crashed silently (unannounced, lazily detected).
    node_crashes,
    /// Primary copies at risk at crash time (before replica rescue).
    objects_at_risk,
    /// Client machines departed gracefully.
    node_departures,
    /// Objects handed off to new roots by graceful departures.
    objects_handed_off,
    /// Timeout-equivalent stalls (dead-node detection, message loss,
    /// slow nodes).
    timeouts,
    /// Timeouts that exposed a crashed node (lazy failure detection).
    dead_node_timeouts,
    /// Directory-approved lookups whose primary died with a crash.
    stale_directory_hits,
    /// Stale directory hits rescued by a leaf-set replica.
    stale_hits_replica_served,
    /// Replica promotions that restored the replication factor.
    rereplications,
    /// Fresh replica copies created by re-replications.
    replica_copies,
    /// Protocol messages that needed at least one retransmission through
    /// the unreliable transport.
    message_retries,
    /// Duplicate deliveries discarded by a receiver's dedup window.
    message_dedups,
    /// Delivery attempts rejected by the XXH64 payload checksum.
    checksum_failures,
    /// Network partitions that split the overlay into islands.
    partitions_started,
    /// Partitions healed by the anti-entropy reconciliation sweep.
    partitions_healed,
    /// Directory entries merged during reconciliation (epoch winners).
    entries_reconciled,
    /// Split-brain primaries demoted to replicas or collected on heal.
    primaries_demoted,
    /// Possession challenges issued against store-receipt senders.
    audits_challenged,
    /// Audit strikes recorded: possession challenges the audited node
    /// could not answer, plus garbled fetch payloads caught by checksum
    /// while the defense is armed.
    audits_failed,
    /// Store receipts exposed as forged by a failed audit.
    forged_receipts,
    /// Nodes quarantined after exhausting their audit strikes.
    quarantines,
    /// Sends that fail-fasted on an open circuit breaker (overload
    /// defense): one detection timeout instead of a full backoff ladder.
    breaker_fast_fails,
    /// Retry ladders abandoned because the per-node retry budget ran dry
    /// (overload defense): the work degraded to the origin server.
    retry_budget_denials,
    /// Objects permanently lost with no surviving copy — the
    /// no-silent-loss guarantee ledgers each exactly once
    /// ([`P2pEvent::ObjectLost`]). Distinct from `objects_lost`, which
    /// aggregates the per-failure loss counts announced at crash time.
    objects_lost_permanent,
    /// Entries the background repair scheduler restored to the replica
    /// floor before a request tripped over them.
    proactive_repairs,
    /// Fresh replica copies created by proactive repairs.
    proactive_repair_copies,
}

impl StatsRecorder {
    /// Creates a zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Adds `n` to one counter; `Relaxed`, as a counter publishes no other data.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl Recorder for StatsRecorder {
    fn request(&self, _proxy: usize, class: HitClass, latency: f64) {
        bump(&self.requests[class.index()], 1);
        self.latency_milli.record((latency * LATENCY_MILLI_SCALE).round().max(0.0) as u64);
    }

    fn p2p_event(&self, _proxy: usize, event: P2pEvent) {
        match event {
            P2pEvent::Destage { hops, piggybacked, diverted, refreshed, evicted } => {
                bump(&self.destages, 1);
                self.destage_hops.record(u64::from(hops));
                if piggybacked {
                    bump(&self.piggybacked_destages, 1);
                } else {
                    bump(&self.direct_destage_connections, 1);
                }
                if diverted {
                    bump(&self.diverted_destages, 1);
                }
                if refreshed {
                    bump(&self.refreshed_destages, 1);
                }
                // The eviction itself arrives as a separate
                // `P2pEvent::Eviction`; `evicted` is only a flag here.
                let _ = evicted;
            }
            P2pEvent::Lookup { hops, stale } => {
                bump(&self.lookups, 1);
                self.lookup_hops.record(u64::from(hops));
                if stale {
                    bump(&self.stale_lookups, 1);
                }
            }
            P2pEvent::Push { .. } => bump(&self.pushes, 1),
            P2pEvent::DirectoryProbe { hit } => {
                bump(&self.directory_probes, 1);
                if hit {
                    bump(&self.directory_probe_hits, 1);
                }
            }
            P2pEvent::Eviction { pointer_invalidated } => {
                bump(&self.evictions, 1);
                if pointer_invalidated {
                    bump(&self.pointer_invalidations, 1);
                }
            }
            P2pEvent::NodeFailed { objects_lost } => {
                bump(&self.node_failures, 1);
                bump(&self.objects_lost, u64::from(objects_lost));
            }
            P2pEvent::NodeJoined { objects_migrated } => {
                bump(&self.node_joins, 1);
                bump(&self.objects_migrated, u64::from(objects_migrated));
            }
            P2pEvent::NodeCrashed { objects_at_risk } => {
                bump(&self.node_crashes, 1);
                bump(&self.objects_at_risk, u64::from(objects_at_risk));
            }
            P2pEvent::NodeDeparted { objects_handed_off } => {
                bump(&self.node_departures, 1);
                bump(&self.objects_handed_off, u64::from(objects_handed_off));
            }
            P2pEvent::TimeoutDetected { dead_node } => {
                bump(&self.timeouts, 1);
                if dead_node {
                    bump(&self.dead_node_timeouts, 1);
                }
            }
            P2pEvent::StaleDirectoryHit { replica_served } => {
                bump(&self.stale_directory_hits, 1);
                if replica_served {
                    bump(&self.stale_hits_replica_served, 1);
                }
            }
            P2pEvent::Rereplicated { copies } => {
                bump(&self.rereplications, 1);
                bump(&self.replica_copies, u64::from(copies));
            }
            P2pEvent::MessageRetried { .. } => bump(&self.message_retries, 1),
            P2pEvent::MessageDeduped { .. } => bump(&self.message_dedups, 1),
            P2pEvent::ChecksumFailed { .. } => bump(&self.checksum_failures, 1),
            P2pEvent::PartitionStarted { .. } => bump(&self.partitions_started, 1),
            // `PartitionHealed` carries sweep totals, but each merged entry
            // and demoted primary also arrives as its own event — count
            // those individually to avoid double-counting.
            P2pEvent::PartitionHealed { .. } => bump(&self.partitions_healed, 1),
            P2pEvent::EntryReconciled { .. } => bump(&self.entries_reconciled, 1),
            P2pEvent::PrimaryDemoted { .. } => bump(&self.primaries_demoted, 1),
            P2pEvent::AuditChallenged { .. } => bump(&self.audits_challenged, 1),
            P2pEvent::AuditFailed { .. } => bump(&self.audits_failed, 1),
            P2pEvent::ForgedReceiptDetected { .. } => bump(&self.forged_receipts, 1),
            P2pEvent::NodeQuarantined { .. } => bump(&self.quarantines, 1),
            P2pEvent::BreakerFastFailed { .. } => bump(&self.breaker_fast_fails, 1),
            P2pEvent::RetryBudgetExhausted { .. } => bump(&self.retry_budget_denials, 1),
            P2pEvent::ObjectLost { .. } => bump(&self.objects_lost_permanent, 1),
            P2pEvent::ProactiveRepair { copies } => {
                bump(&self.proactive_repairs, 1);
                bump(&self.proactive_repair_copies, u64::from(copies));
            }
        }
    }
}

/// Renders per-class counts (indexed by [`HitClass::index`]) as the JSON
/// object `{"proxy": n, …}` every report pastes under its own key.
pub(crate) fn class_counts_json(counts: &[u64; HitClass::ALL.len()]) -> String {
    let pairs: Vec<String> =
        HitClass::ALL.iter().map(|c| format!("\"{}\": {}", c.label(), counts[c.index()])).collect();
    format!("{{{}}}", pairs.join(", "))
}

impl StatsSnapshot {
    /// Requests served from `class`.
    pub fn count(&self, class: HitClass) -> u64 {
        self.requests_by_class[class.index()]
    }

    /// Total requests across all classes.
    pub fn total_requests(&self) -> u64 {
        self.requests_by_class.iter().sum()
    }

    /// Mean end-to-end latency in model units, recovered from the
    /// milli-unit histogram's exact sum.
    pub fn avg_latency(&self) -> f64 {
        self.latency_milli.mean() / LATENCY_MILLI_SCALE
    }

    /// Stale fraction of routed lookups (0 when there were none).
    pub fn stale_lookup_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.stale_lookups as f64 / self.lookups as f64
        }
    }

    /// Renders the snapshot as a JSON document (hand-rolled: the offline
    /// build has no JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ =
            writeln!(s, "  \"requests_by_class\": {},", class_counts_json(&self.requests_by_class));
        let _ = writeln!(s, "  \"total_requests\": {},", self.total_requests());
        let _ = writeln!(s, "  \"avg_latency\": {:.6},", self.avg_latency());
        for (name, hist) in [
            ("latency_milli", &self.latency_milli),
            ("lookup_hops", &self.lookup_hops),
            ("destage_hops", &self.destage_hops),
        ] {
            let _ = write!(
                s,
                "  \"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                hist.count, hist.sum, hist.max
            );
            for (i, (lo, hi, c)) in hist.nonzero_buckets().iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}",
                    if i == 0 { "" } else { ", " }
                );
            }
            s.push_str("]},\n");
        }
        let counters = self.counter_rows();
        for (i, (name, value)) in counters.iter().enumerate() {
            let _ = writeln!(
                s,
                "  \"{name}\": {value}{}",
                if i + 1 == counters.len() { "" } else { "," }
            );
        }
        s.push_str("}\n");
        s
    }

    /// Renders an aligned text table of every counter, for terminals.
    pub fn to_table(&self) -> String {
        let total = self.total_requests();
        let mut s = String::new();
        let _ = writeln!(s, "{:<14} {:>12} {:>8}", "hit class", "requests", "share");
        for class in HitClass::ALL {
            let n = self.count(class);
            let share = if total == 0 { 0.0 } else { n as f64 / total as f64 * 100.0 };
            let _ = writeln!(s, "{:<14} {:>12} {:>7.2}%", class.label(), n, share);
        }
        let _ = writeln!(s, "{:<14} {:>12}", "total", total);
        let _ = writeln!(s);
        for (name, value) in self.counter_rows() {
            let _ = writeln!(s, "{name:<28} {value:>12}");
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "lookup hops: mean {:.2}, p99 <= {}, max {}",
            self.lookup_hops.mean(),
            self.lookup_hops.quantile(0.99),
            self.lookup_hops.max
        );
        let _ = writeln!(
            s,
            "destage hops: mean {:.2}, p99 <= {}, max {}",
            self.destage_hops.mean(),
            self.destage_hops.quantile(0.99),
            self.destage_hops.max
        );
        s
    }
}

/// One entry in an [`EventLogRecorder`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimEvent {
    /// Monotone sequence number (global across proxies; gaps only at the
    /// ring's trimmed head).
    pub seq: u64,
    /// Proxy whose cluster produced the event.
    pub proxy: usize,
    /// The event payload.
    pub kind: SimEventKind,
}

/// Payload of a [`SimEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEventKind {
    /// One served request.
    Request {
        /// Where it was served from.
        class: HitClass,
        /// End-to-end model latency.
        latency: f64,
    },
    /// A structured P2P-layer event.
    P2p(P2pEvent),
}

impl SimEventKind {
    /// Stable label for the CSV `kind` column.
    pub fn kind_label(&self) -> &'static str {
        match self {
            SimEventKind::Request { .. } => "request",
            SimEventKind::P2p(e) => e.kind_label(),
        }
    }
}

/// A bounded ring buffer of structured simulation events.
///
/// Keeps the most recent `capacity` events; older events are dropped (and
/// counted — see [`dropped`](Self::dropped)). The buffer is behind a
/// mutex, so this recorder is for diagnosis runs, not throughput
/// measurement; pair it with [`StatsRecorder`] via the `(A, B)` recorder
/// when both are wanted.
#[derive(Debug)]
pub struct EventLogRecorder {
    capacity: usize,
    inner: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    seq: u64,
    buf: VecDeque<SimEvent>,
}

impl EventLogRecorder {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventLogRecorder { capacity: capacity.max(1), inner: Mutex::new(Ring::default()) }
    }

    fn push(&self, proxy: usize, kind: SimEventKind) {
        let mut ring = self.inner.lock().expect("event ring poisoned");
        let seq = ring.seq;
        ring.seq += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(SimEvent { seq, proxy, kind });
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event ring poisoned").buf.len()
    }

    /// True if nothing has been recorded (or everything was dropped —
    /// impossible given capacity ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including dropped ones.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").seq
    }

    /// Events dropped off the head of the ring.
    pub fn dropped(&self) -> u64 {
        let ring = self.inner.lock().expect("event ring poisoned");
        ring.seq - ring.buf.len() as u64
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<SimEvent> {
        self.inner.lock().expect("event ring poisoned").buf.iter().copied().collect()
    }

    /// Renders the retained events as CSV
    /// (`seq,proxy,kind,class,latency,hops,detail`), columns empty where
    /// they do not apply.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("seq,proxy,kind,class,latency,hops,detail\n");
        for e in self.events() {
            let _ = write!(s, "{},{},{},", e.seq, e.proxy, e.kind.kind_label());
            let _ = match e.kind {
                SimEventKind::Request { class, latency } => {
                    writeln!(s, "{},{latency:.4},,", class.label())
                }
                SimEventKind::P2p(event) => {
                    let (hops, detail) = event.detail();
                    writeln!(s, ",,{},{detail}", hops.map_or(String::new(), |h| h.to_string()))
                }
            };
        }
        s
    }

    /// Writes [`to_csv`](Self::to_csv) to `path`.
    pub fn write_csv(&self, path: &Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_csv())?;
        Ok(())
    }
}

impl Recorder for EventLogRecorder {
    fn request(&self, proxy: usize, class: HitClass, latency: f64) {
        self.push(proxy, SimEventKind::Request { class, latency });
    }

    fn p2p_event(&self, proxy: usize, event: P2pEvent) {
        self.push(proxy, SimEventKind::P2p(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the contract
    fn noop_is_statically_disabled() {
        assert!(!NoopRecorder::ENABLED);
        assert!(!<&NoopRecorder as Recorder>::ENABLED);
        assert!(!<Arc<NoopRecorder> as Recorder>::ENABLED);
        assert!(!<(NoopRecorder, NoopRecorder) as Recorder>::ENABLED);
        assert!(<(NoopRecorder, StatsRecorder) as Recorder>::ENABLED);
    }

    #[test]
    fn stats_recorder_counts_requests_and_latency() {
        let r = StatsRecorder::new();
        r.request(0, HitClass::LocalProxy, 1.0);
        r.request(0, HitClass::LocalProxy, 1.0);
        r.request(1, HitClass::Server, 21.0);
        let s = r.snapshot();
        assert_eq!(s.count(HitClass::LocalProxy), 2);
        assert_eq!(s.count(HitClass::Server), 1);
        assert_eq!(s.total_requests(), 3);
        assert!((s.avg_latency() - 23.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.latency_milli.max, 21_000);
    }

    /// A sample of every [`P2pEvent`] variant — both polarities of every
    /// flag, every amount non-zero. Each arm names the sample that follows
    /// the one it matches, so the `match` has no wildcard: a new variant
    /// does not compile until it is sampled here.
    fn samples() -> Vec<P2pEvent> {
        use P2pEvent::*;
        fn next(after: P2pEvent) -> Option<P2pEvent> {
            Some(match after {
                Destage { piggybacked: true, .. } => Destage {
                    hops: 3,
                    piggybacked: false,
                    diverted: false,
                    refreshed: false,
                    evicted: false,
                },
                Destage { piggybacked: false, .. } => Lookup { hops: 1, stale: false },
                Lookup { stale: false, .. } => Lookup { hops: 4, stale: true },
                Lookup { stale: true, .. } => Push { hops: 4 },
                Push { .. } => DirectoryProbe { hit: true },
                DirectoryProbe { hit: true } => DirectoryProbe { hit: false },
                DirectoryProbe { hit: false } => Eviction { pointer_invalidated: true },
                Eviction { pointer_invalidated: true } => Eviction { pointer_invalidated: false },
                Eviction { pointer_invalidated: false } => NodeFailed { objects_lost: 7 },
                NodeFailed { .. } => NodeJoined { objects_migrated: 3 },
                NodeJoined { .. } => NodeCrashed { objects_at_risk: 5 },
                NodeCrashed { .. } => NodeDeparted { objects_handed_off: 4 },
                NodeDeparted { .. } => TimeoutDetected { dead_node: true },
                TimeoutDetected { dead_node: true } => TimeoutDetected { dead_node: false },
                TimeoutDetected { dead_node: false } => StaleDirectoryHit { replica_served: true },
                StaleDirectoryHit { replica_served: true } => {
                    StaleDirectoryHit { replica_served: false }
                }
                StaleDirectoryHit { replica_served: false } => Rereplicated { copies: 2 },
                Rereplicated { .. } => MessageRetried { class: "destage", attempts: 3 },
                MessageRetried { .. } => MessageDeduped { class: "push" },
                MessageDeduped { .. } => ChecksumFailed { class: "fetch" },
                ChecksumFailed { .. } => PartitionStarted { island_a: 5, island_b: 3 },
                PartitionStarted { .. } => PartitionHealed { reconciled: 2, demoted: 1 },
                PartitionHealed { .. } => EntryReconciled { epoch: 9 },
                EntryReconciled { .. } => PrimaryDemoted { garbage_collected: true },
                PrimaryDemoted { garbage_collected: true } => {
                    PrimaryDemoted { garbage_collected: false }
                }
                PrimaryDemoted { garbage_collected: false } => AuditChallenged { passed: true },
                AuditChallenged { passed: true } => AuditChallenged { passed: false },
                AuditChallenged { passed: false } => AuditFailed { strikes: 2 },
                AuditFailed { .. } => ForgedReceiptDetected { entry_purged: true },
                ForgedReceiptDetected { entry_purged: true } => {
                    ForgedReceiptDetected { entry_purged: false }
                }
                ForgedReceiptDetected { entry_purged: false } => {
                    NodeQuarantined { entries_purged: 6, residents_parked: 8 }
                }
                NodeQuarantined { .. } => BreakerFastFailed { class: "destage" },
                BreakerFastFailed { .. } => RetryBudgetExhausted { class: "push" },
                RetryBudgetExhausted { .. } => ObjectLost { had_replicas: true },
                ObjectLost { had_replicas: true } => ObjectLost { had_replicas: false },
                ObjectLost { had_replicas: false } => ProactiveRepair { copies: 11 },
                ProactiveRepair { .. } => return None,
            })
        }
        let first =
            Destage { hops: 2, piggybacked: true, diverted: true, refreshed: true, evicted: true };
        std::iter::successors(Some(first), |&event| next(event)).collect()
    }

    #[test]
    fn counter_table_is_closed_under_the_events() {
        let all = StatsRecorder::new();
        for event in samples() {
            let alone = StatsRecorder::new();
            alone.p2p_event(0, event);
            let counted = alone.snapshot() != StatsSnapshot::default();
            assert!(counted, "{} moves no counter and no histogram", event.kind_label());
            all.p2p_event(0, event);
        }
        let idle: Vec<&str> = all
            .snapshot()
            .counter_rows()
            .into_iter()
            .filter_map(|(name, value)| (value == 0).then_some(name))
            .collect();
        assert!(idle.is_empty(), "declared counters no event moves: {idle:?}");
    }

    #[test]
    fn stats_recorder_classifies_p2p_events() {
        let r = StatsRecorder::new();
        for event in samples() {
            r.p2p_event(0, event);
        }
        let s = r.snapshot();
        let rows: Vec<String> =
            s.counter_rows().iter().map(|(name, value)| format!("{name}={value}")).collect();
        let expected = "\
             destages=2 piggybacked_destages=1 direct_destage_connections=1 \
             diverted_destages=1 refreshed_destages=1 lookups=2 stale_lookups=1 \
             pushes=1 directory_probes=2 directory_probe_hits=1 evictions=2 \
             pointer_invalidations=1 node_failures=1 objects_lost=7 node_joins=1 \
             objects_migrated=3 node_crashes=1 objects_at_risk=5 node_departures=1 \
             objects_handed_off=4 timeouts=2 dead_node_timeouts=1 \
             stale_directory_hits=2 stale_hits_replica_served=1 rereplications=1 \
             replica_copies=2 message_retries=1 message_dedups=1 checksum_failures=1 \
             partitions_started=1 partitions_healed=1 entries_reconciled=1 \
             primaries_demoted=2 audits_challenged=2 audits_failed=1 \
             forged_receipts=2 quarantines=1 breaker_fast_fails=1 \
             retry_budget_denials=1 objects_lost_permanent=2 proactive_repairs=1 \
             proactive_repair_copies=11";
        assert_eq!(rows.join(" "), expected);
        assert!((s.stale_lookup_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.lookup_hops.count, 2);
        assert_eq!(s.lookup_hops.max, 4);
        assert_eq!(s.destage_hops.count, 2);
    }

    #[test]
    fn stats_snapshot_renders() {
        let r = StatsRecorder::new();
        r.request(0, HitClass::OwnP2p, 2.4);
        r.p2p_event(0, P2pEvent::Lookup { hops: 2, stale: false });
        let s = r.snapshot();
        let json = s.to_json();
        assert!(json.contains("\"own-p2p\": 1"));
        assert!(json.contains("\"stale_lookups\": 0"));
        assert!(json.contains("\"lookup_hops\""));
        assert!(json.ends_with("}\n"));
        let table = s.to_table();
        assert!(table.contains("own-p2p"));
        assert!(table.contains("stale_lookups"));
        assert!(table.contains("lookup hops"));
    }

    #[test]
    fn stats_recorder_is_thread_safe() {
        let r = StatsRecorder::new();
        std::thread::scope(|sc| {
            for p in 0..4 {
                let r = &r;
                sc.spawn(move || {
                    for _ in 0..5_000 {
                        r.request(p, HitClass::Server, 21.0);
                        r.p2p_event(p, P2pEvent::Lookup { hops: 2, stale: false });
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.total_requests(), 20_000);
        assert_eq!(s.lookups, 20_000);
    }

    #[test]
    fn event_log_ring_is_bounded() {
        let log = EventLogRecorder::new(4);
        for i in 0..10 {
            log.request(0, HitClass::Server, i as f64);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.dropped(), 6);
        let events = log.events();
        assert_eq!(events.first().unwrap().seq, 6, "oldest retained is #6");
        assert_eq!(events.last().unwrap().seq, 9);
    }

    #[test]
    fn event_log_exports() {
        let log = EventLogRecorder::new(64);
        log.request(0, HitClass::LocalProxy, 1.0);
        for event in samples() {
            log.p2p_event(1, event);
        }
        let expected = "\
seq,proxy,kind,class,latency,hops,detail
0,0,request,proxy,1.0000,,
1,1,destage,,,2,piggybacked|diverted|refreshed|evicted
2,1,destage,,,3,
3,1,lookup,,,1,
4,1,lookup,,,4,stale
5,1,push,,,4,
6,1,directory_probe,,,,hit
7,1,directory_probe,,,,miss
8,1,eviction,,,,pointer_invalidated
9,1,eviction,,,,
10,1,node_failed,,,,objects_lost=7
11,1,node_joined,,,,objects_migrated=3
12,1,node_crashed,,,,objects_at_risk=5
13,1,node_departed,,,,objects_handed_off=4
14,1,timeout_detected,,,,dead_node
15,1,timeout_detected,,,,transient
16,1,stale_directory_hit,,,,replica_served
17,1,stale_directory_hit,,,,server_fallback
18,1,rereplicated,,,,copies=2
19,1,message_retried,,,,class=destage|attempts=3
20,1,message_deduped,,,,class=push
21,1,checksum_failed,,,,class=fetch
22,1,partition_started,,,,island_a=5|island_b=3
23,1,partition_healed,,,,reconciled=2|demoted=1
24,1,entry_reconciled,,,,epoch=9
25,1,primary_demoted,,,,garbage_collected
26,1,primary_demoted,,,,kept_as_replica
27,1,audit_challenged,,,,passed
28,1,audit_challenged,,,,failed
29,1,audit_failed,,,,strikes=2
30,1,forged_receipt_detected,,,,entry_purged
31,1,forged_receipt_detected,,,,entry_already_gone
32,1,node_quarantined,,,,entries_purged=6|residents_parked=8
33,1,breaker_fast_failed,,,,class=destage
34,1,retry_budget_exhausted,,,,class=push
35,1,object_lost,,,,replicas_died_too
36,1,object_lost,,,,never_replicated
37,1,proactive_repair,,,,copies=11
";
        assert_eq!(log.to_csv(), expected);
    }

    #[test]
    fn pair_recorder_fans_out() {
        let pair = (StatsRecorder::new(), EventLogRecorder::new(8));
        pair.request(0, HitClass::Server, 21.0);
        pair.p2p_event(0, P2pEvent::Push { hops: 1 });
        assert_eq!(pair.0.snapshot().total_requests(), 1);
        assert_eq!(pair.0.snapshot().pushes, 1);
        assert_eq!(pair.1.len(), 2);
    }
}
