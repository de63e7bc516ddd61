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
//!   histograms, built on [`ShardedCounter`]/[`Log2Histogram`] so one
//!   instance can be shared across the rayon-parallel `sweep()` workers;
//! * [`EventLogRecorder`] — a bounded ring buffer of structured events
//!   with CSV/JSON export for offline analysis (`target/figures/`).

use crate::error::SimError;
use crate::net::HitClass;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use webcache_p2p::P2pEvent;
use webcache_primitives::{Log2Histogram, Log2Snapshot, ShardedCounter};

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

/// Lock-free aggregate statistics: per-class request counters, a latency
/// histogram, hop distributions, and every P2P message class the paper's
/// claims 11–13 reference.
///
/// All cells are sharded counters or atomic histograms, so a single
/// `Arc<StatsRecorder>` can be shared across the rayon-parallel `sweep()`
/// without locks. Not `Clone` — share via `Arc` (or borrow).
#[derive(Debug, Default)]
pub struct StatsRecorder {
    /// Requests per [`HitClass`] (indexed by [`HitClass::index`]).
    requests: [ShardedCounter; HitClass::ALL.len()],
    /// End-to-end latency in milli-units (`latency × 1000`, log₂ buckets).
    latency_milli: Log2Histogram,
    /// Overlay hops per routed lookup (claim 11's hop distribution).
    lookup_hops: Log2Histogram,
    /// Overlay hops per destage message.
    destage_hops: Log2Histogram,
    destages: ShardedCounter,
    piggybacked_destages: ShardedCounter,
    direct_destage_connections: ShardedCounter,
    diverted_destages: ShardedCounter,
    refreshed_destages: ShardedCounter,
    lookups: ShardedCounter,
    stale_lookups: ShardedCounter,
    pushes: ShardedCounter,
    directory_probes: ShardedCounter,
    directory_probe_hits: ShardedCounter,
    evictions: ShardedCounter,
    pointer_invalidations: ShardedCounter,
    node_failures: ShardedCounter,
    objects_lost: ShardedCounter,
    node_joins: ShardedCounter,
    objects_migrated: ShardedCounter,
    node_crashes: ShardedCounter,
    objects_at_risk: ShardedCounter,
    node_departures: ShardedCounter,
    objects_handed_off: ShardedCounter,
    timeouts: ShardedCounter,
    dead_node_timeouts: ShardedCounter,
    stale_directory_hits: ShardedCounter,
    stale_hits_replica_served: ShardedCounter,
    rereplications: ShardedCounter,
    replica_copies: ShardedCounter,
    message_retries: ShardedCounter,
    message_dedups: ShardedCounter,
    checksum_failures: ShardedCounter,
    partitions_started: ShardedCounter,
    partitions_healed: ShardedCounter,
    entries_reconciled: ShardedCounter,
    primaries_demoted: ShardedCounter,
    audits_challenged: ShardedCounter,
    audits_failed: ShardedCounter,
    forged_receipts: ShardedCounter,
    quarantines: ShardedCounter,
    breaker_fast_fails: ShardedCounter,
    retry_budget_denials: ShardedCounter,
    objects_lost_permanent: ShardedCounter,
    proactive_repairs: ShardedCounter,
    proactive_repair_copies: ShardedCounter,
}

impl StatsRecorder {
    /// Creates a zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plain-data copy of the current counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests_by_class: std::array::from_fn(|i| self.requests[i].get()),
            latency_milli: self.latency_milli.snapshot(),
            lookup_hops: self.lookup_hops.snapshot(),
            destage_hops: self.destage_hops.snapshot(),
            destages: self.destages.get(),
            piggybacked_destages: self.piggybacked_destages.get(),
            direct_destage_connections: self.direct_destage_connections.get(),
            diverted_destages: self.diverted_destages.get(),
            refreshed_destages: self.refreshed_destages.get(),
            lookups: self.lookups.get(),
            stale_lookups: self.stale_lookups.get(),
            pushes: self.pushes.get(),
            directory_probes: self.directory_probes.get(),
            directory_probe_hits: self.directory_probe_hits.get(),
            evictions: self.evictions.get(),
            pointer_invalidations: self.pointer_invalidations.get(),
            node_failures: self.node_failures.get(),
            objects_lost: self.objects_lost.get(),
            node_joins: self.node_joins.get(),
            objects_migrated: self.objects_migrated.get(),
            node_crashes: self.node_crashes.get(),
            objects_at_risk: self.objects_at_risk.get(),
            node_departures: self.node_departures.get(),
            objects_handed_off: self.objects_handed_off.get(),
            timeouts: self.timeouts.get(),
            dead_node_timeouts: self.dead_node_timeouts.get(),
            stale_directory_hits: self.stale_directory_hits.get(),
            stale_hits_replica_served: self.stale_hits_replica_served.get(),
            rereplications: self.rereplications.get(),
            replica_copies: self.replica_copies.get(),
            message_retries: self.message_retries.get(),
            message_dedups: self.message_dedups.get(),
            checksum_failures: self.checksum_failures.get(),
            partitions_started: self.partitions_started.get(),
            partitions_healed: self.partitions_healed.get(),
            entries_reconciled: self.entries_reconciled.get(),
            primaries_demoted: self.primaries_demoted.get(),
            audits_challenged: self.audits_challenged.get(),
            audits_failed: self.audits_failed.get(),
            forged_receipts: self.forged_receipts.get(),
            quarantines: self.quarantines.get(),
            breaker_fast_fails: self.breaker_fast_fails.get(),
            retry_budget_denials: self.retry_budget_denials.get(),
            objects_lost_permanent: self.objects_lost_permanent.get(),
            proactive_repairs: self.proactive_repairs.get(),
            proactive_repair_copies: self.proactive_repair_copies.get(),
        }
    }
}

impl Recorder for StatsRecorder {
    fn request(&self, _proxy: usize, class: HitClass, latency: f64) {
        self.requests[class.index()].incr();
        self.latency_milli.record((latency * LATENCY_MILLI_SCALE).round().max(0.0) as u64);
    }

    fn p2p_event(&self, _proxy: usize, event: P2pEvent) {
        match event {
            P2pEvent::Destage { hops, piggybacked, diverted, refreshed, evicted } => {
                self.destages.incr();
                self.destage_hops.record(u64::from(hops));
                if piggybacked {
                    self.piggybacked_destages.incr();
                } else {
                    self.direct_destage_connections.incr();
                }
                if diverted {
                    self.diverted_destages.incr();
                }
                if refreshed {
                    self.refreshed_destages.incr();
                }
                // The eviction itself arrives as a separate
                // `P2pEvent::Eviction`; `evicted` is only a flag here.
                let _ = evicted;
            }
            P2pEvent::Lookup { hops, stale } => {
                self.lookups.incr();
                self.lookup_hops.record(u64::from(hops));
                if stale {
                    self.stale_lookups.incr();
                }
            }
            P2pEvent::Push { .. } => self.pushes.incr(),
            P2pEvent::DirectoryProbe { hit } => {
                self.directory_probes.incr();
                if hit {
                    self.directory_probe_hits.incr();
                }
            }
            P2pEvent::Eviction { pointer_invalidated } => {
                self.evictions.incr();
                if pointer_invalidated {
                    self.pointer_invalidations.incr();
                }
            }
            P2pEvent::NodeFailed { objects_lost } => {
                self.node_failures.incr();
                self.objects_lost.add(u64::from(objects_lost));
            }
            P2pEvent::NodeJoined { objects_migrated } => {
                self.node_joins.incr();
                self.objects_migrated.add(u64::from(objects_migrated));
            }
            P2pEvent::NodeCrashed { objects_at_risk } => {
                self.node_crashes.incr();
                self.objects_at_risk.add(u64::from(objects_at_risk));
            }
            P2pEvent::NodeDeparted { objects_handed_off } => {
                self.node_departures.incr();
                self.objects_handed_off.add(u64::from(objects_handed_off));
            }
            P2pEvent::TimeoutDetected { dead_node } => {
                self.timeouts.incr();
                if dead_node {
                    self.dead_node_timeouts.incr();
                }
            }
            P2pEvent::StaleDirectoryHit { replica_served } => {
                self.stale_directory_hits.incr();
                if replica_served {
                    self.stale_hits_replica_served.incr();
                }
            }
            P2pEvent::Rereplicated { copies } => {
                self.rereplications.incr();
                self.replica_copies.add(u64::from(copies));
            }
            P2pEvent::MessageRetried { .. } => self.message_retries.incr(),
            P2pEvent::MessageDeduped { .. } => self.message_dedups.incr(),
            P2pEvent::ChecksumFailed { .. } => self.checksum_failures.incr(),
            P2pEvent::PartitionStarted { .. } => self.partitions_started.incr(),
            // `PartitionHealed` carries sweep totals, but each merged entry
            // and demoted primary also arrives as its own event — count
            // those individually to avoid double-counting.
            P2pEvent::PartitionHealed { .. } => self.partitions_healed.incr(),
            P2pEvent::EntryReconciled { .. } => self.entries_reconciled.incr(),
            P2pEvent::PrimaryDemoted { .. } => self.primaries_demoted.incr(),
            P2pEvent::AuditChallenged { .. } => self.audits_challenged.incr(),
            P2pEvent::AuditFailed { .. } => self.audits_failed.incr(),
            P2pEvent::ForgedReceiptDetected { .. } => self.forged_receipts.incr(),
            P2pEvent::NodeQuarantined { .. } => self.quarantines.incr(),
            P2pEvent::BreakerFastFailed { .. } => self.breaker_fast_fails.incr(),
            P2pEvent::RetryBudgetExhausted { .. } => self.retry_budget_denials.incr(),
            P2pEvent::ObjectLost { .. } => self.objects_lost_permanent.incr(),
            P2pEvent::ProactiveRepair { copies } => {
                self.proactive_repairs.incr();
                self.proactive_repair_copies.add(u64::from(copies));
            }
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
    /// Total destages (proxy evictions passed down, Fig. 1).
    pub destages: u64,
    /// Destages that rode HTTP responses (§4.4).
    pub piggybacked_destages: u64,
    /// Dedicated connections opened for destaging (claim 12: zero when
    /// piggybacking is on).
    pub direct_destage_connections: u64,
    /// Destages diverted to a leaf-set neighbor (§4.3).
    pub diverted_destages: u64,
    /// Destages refreshing an already-resident object.
    pub refreshed_destages: u64,
    /// Routed lookups into a client cluster.
    pub lookups: u64,
    /// Lookups whose object was gone (claim 13: Bloom false positives /
    /// churn staleness).
    pub stale_lookups: u64,
    /// Successful push-protocol fetches (§4.5).
    pub pushes: u64,
    /// Serve-path consultations of the own-cluster lookup directory.
    pub directory_probes: u64,
    /// Probes that answered "present".
    pub directory_probe_hits: u64,
    /// Client-cache evictions (destage replacement + join migration).
    pub evictions: u64,
    /// Evictions that invalidated a diversion pointer.
    pub pointer_invalidations: u64,
    /// Client machines failed.
    pub node_failures: u64,
    /// Objects lost to failures.
    pub objects_lost: u64,
    /// Client machines joined mid-run.
    pub node_joins: u64,
    /// Objects migrated to newcomers.
    pub objects_migrated: u64,
    /// Client machines crashed silently (unannounced, lazily detected).
    pub node_crashes: u64,
    /// Primary copies at risk at crash time (before replica rescue).
    pub objects_at_risk: u64,
    /// Client machines departed gracefully.
    pub node_departures: u64,
    /// Objects handed off to new roots by graceful departures.
    pub objects_handed_off: u64,
    /// Timeout-equivalent stalls (dead-node detection, message loss,
    /// slow nodes).
    pub timeouts: u64,
    /// Timeouts that exposed a crashed node (lazy failure detection).
    pub dead_node_timeouts: u64,
    /// Directory-approved lookups whose primary died with a crash.
    pub stale_directory_hits: u64,
    /// Stale directory hits rescued by a leaf-set replica.
    pub stale_hits_replica_served: u64,
    /// Replica promotions that restored the replication factor.
    pub rereplications: u64,
    /// Fresh replica copies created by re-replications.
    pub replica_copies: u64,
    /// Protocol messages that needed at least one retransmission through
    /// the unreliable transport.
    pub message_retries: u64,
    /// Duplicate deliveries discarded by a receiver's dedup window.
    pub message_dedups: u64,
    /// Delivery attempts rejected by the XXH64 payload checksum.
    pub checksum_failures: u64,
    /// Network partitions that split the overlay into islands.
    pub partitions_started: u64,
    /// Partitions healed by the anti-entropy reconciliation sweep.
    pub partitions_healed: u64,
    /// Directory entries merged during reconciliation (epoch winners).
    pub entries_reconciled: u64,
    /// Split-brain primaries demoted to replicas or collected on heal.
    pub primaries_demoted: u64,
    /// Possession challenges issued against store-receipt senders.
    pub audits_challenged: u64,
    /// Audit strikes recorded: possession challenges the audited node
    /// could not answer, plus garbled fetch payloads caught by checksum
    /// while the defense is armed.
    pub audits_failed: u64,
    /// Store receipts exposed as forged by a failed audit.
    pub forged_receipts: u64,
    /// Nodes quarantined after exhausting their audit strikes.
    pub quarantines: u64,
    /// Sends that fail-fasted on an open circuit breaker (overload
    /// defense): one detection timeout instead of a full backoff ladder.
    pub breaker_fast_fails: u64,
    /// Retry ladders abandoned because the per-node retry budget ran dry
    /// (overload defense): the work degraded to the origin server.
    pub retry_budget_denials: u64,
    /// Objects permanently lost with no surviving copy — the
    /// no-silent-loss guarantee ledgers each exactly once
    /// ([`P2pEvent::ObjectLost`]). Distinct from `objects_lost`, which
    /// aggregates the per-failure loss counts announced at crash time.
    pub objects_lost_permanent: u64,
    /// Entries the background repair scheduler restored to the replica
    /// floor before a request tripped over them.
    pub proactive_repairs: u64,
    /// Fresh replica copies created by proactive repairs.
    pub proactive_repair_copies: u64,
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
    /// build has no serde_json).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"requests_by_class\": {");
        for (i, class) in HitClass::ALL.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                class.label(),
                self.count(*class)
            );
        }
        s.push_str("},\n");
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

    /// The scalar counters as stable `(name, value)` rows.
    fn counter_rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("destages", self.destages),
            ("piggybacked_destages", self.piggybacked_destages),
            ("direct_destage_connections", self.direct_destage_connections),
            ("diverted_destages", self.diverted_destages),
            ("refreshed_destages", self.refreshed_destages),
            ("lookups", self.lookups),
            ("stale_lookups", self.stale_lookups),
            ("pushes", self.pushes),
            ("directory_probes", self.directory_probes),
            ("directory_probe_hits", self.directory_probe_hits),
            ("evictions", self.evictions),
            ("pointer_invalidations", self.pointer_invalidations),
            ("node_failures", self.node_failures),
            ("objects_lost", self.objects_lost),
            ("node_joins", self.node_joins),
            ("objects_migrated", self.objects_migrated),
            ("node_crashes", self.node_crashes),
            ("objects_at_risk", self.objects_at_risk),
            ("node_departures", self.node_departures),
            ("objects_handed_off", self.objects_handed_off),
            ("timeouts", self.timeouts),
            ("dead_node_timeouts", self.dead_node_timeouts),
            ("stale_directory_hits", self.stale_directory_hits),
            ("stale_hits_replica_served", self.stale_hits_replica_served),
            ("rereplications", self.rereplications),
            ("replica_copies", self.replica_copies),
            ("message_retries", self.message_retries),
            ("message_dedups", self.message_dedups),
            ("checksum_failures", self.checksum_failures),
            ("partitions_started", self.partitions_started),
            ("partitions_healed", self.partitions_healed),
            ("entries_reconciled", self.entries_reconciled),
            ("primaries_demoted", self.primaries_demoted),
            ("audits_challenged", self.audits_challenged),
            ("audits_failed", self.audits_failed),
            ("forged_receipts", self.forged_receipts),
            ("quarantines", self.quarantines),
            ("breaker_fast_fails", self.breaker_fast_fails),
            ("retry_budget_denials", self.retry_budget_denials),
            ("objects_lost_permanent", self.objects_lost_permanent),
            ("proactive_repairs", self.proactive_repairs),
            ("proactive_repair_copies", self.proactive_repair_copies),
        ]
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
    /// (`seq,proxy,kind,class,latency,hops,detail`).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("seq,proxy,kind,class,latency,hops,detail\n");
        for e in self.events() {
            let (class, latency, hops, detail) = describe(&e.kind);
            let _ = writeln!(
                s,
                "{},{},{},{class},{latency},{hops},{detail}",
                e.seq,
                e.proxy,
                e.kind.kind_label()
            );
        }
        s
    }

    /// Renders the retained events as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        let events = self.events();
        for (i, e) in events.iter().enumerate() {
            let (class, latency, hops, detail) = describe(&e.kind);
            let _ = write!(
                s,
                "  {{\"seq\": {}, \"proxy\": {}, \"kind\": \"{}\"",
                e.seq,
                e.proxy,
                e.kind.kind_label()
            );
            if !class.is_empty() {
                let _ = write!(s, ", \"class\": \"{class}\"");
            }
            if !latency.is_empty() {
                let _ = write!(s, ", \"latency\": {latency}");
            }
            if !hops.is_empty() {
                let _ = write!(s, ", \"hops\": {hops}");
            }
            if !detail.is_empty() {
                let _ = write!(s, ", \"detail\": \"{detail}\"");
            }
            let _ = writeln!(s, "}}{}", if i + 1 == events.len() { "" } else { "," });
        }
        s.push_str("]\n");
        s
    }

    /// Writes [`to_csv`](Self::to_csv) to `path`.
    pub fn write_csv(&self, path: &Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_csv())?;
        Ok(())
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    pub fn write_json(&self, path: &Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

/// Flattens an event into the shared CSV/JSON columns:
/// `(class, latency, hops, detail)`, empty strings where not applicable.
fn describe(kind: &SimEventKind) -> (String, String, String, String) {
    match kind {
        SimEventKind::Request { class, latency } => {
            (class.label().to_string(), format!("{latency:.4}"), String::new(), String::new())
        }
        SimEventKind::P2p(e) => {
            let mut hops = String::new();
            let mut flags: Vec<String> = Vec::new();
            match *e {
                P2pEvent::Destage { hops: h, piggybacked, diverted, refreshed, evicted } => {
                    hops = h.to_string();
                    if piggybacked {
                        flags.push("piggybacked".into());
                    }
                    if diverted {
                        flags.push("diverted".into());
                    }
                    if refreshed {
                        flags.push("refreshed".into());
                    }
                    if evicted {
                        flags.push("evicted".into());
                    }
                }
                P2pEvent::Lookup { hops: h, stale } => {
                    hops = h.to_string();
                    if stale {
                        flags.push("stale".into());
                    }
                }
                P2pEvent::Push { hops: h } => hops = h.to_string(),
                P2pEvent::DirectoryProbe { hit } => {
                    flags.push(if hit { "hit" } else { "miss" }.into());
                }
                P2pEvent::Eviction { pointer_invalidated } => {
                    if pointer_invalidated {
                        flags.push("pointer_invalidated".into());
                    }
                }
                P2pEvent::NodeFailed { objects_lost } => {
                    flags.push(format!("objects_lost={objects_lost}"));
                }
                P2pEvent::NodeJoined { objects_migrated } => {
                    flags.push(format!("objects_migrated={objects_migrated}"));
                }
                P2pEvent::NodeCrashed { objects_at_risk } => {
                    flags.push(format!("objects_at_risk={objects_at_risk}"));
                }
                P2pEvent::NodeDeparted { objects_handed_off } => {
                    flags.push(format!("objects_handed_off={objects_handed_off}"));
                }
                P2pEvent::TimeoutDetected { dead_node } => {
                    flags.push(if dead_node { "dead_node" } else { "transient" }.into());
                }
                P2pEvent::StaleDirectoryHit { replica_served } => {
                    flags.push(
                        if replica_served { "replica_served" } else { "server_fallback" }.into(),
                    );
                }
                P2pEvent::Rereplicated { copies } => {
                    flags.push(format!("copies={copies}"));
                }
                P2pEvent::MessageRetried { class, attempts } => {
                    flags.push(format!("class={class}"));
                    flags.push(format!("attempts={attempts}"));
                }
                P2pEvent::MessageDeduped { class } => {
                    flags.push(format!("class={class}"));
                }
                P2pEvent::ChecksumFailed { class } => {
                    flags.push(format!("class={class}"));
                }
                P2pEvent::PartitionStarted { island_a, island_b } => {
                    flags.push(format!("island_a={island_a}"));
                    flags.push(format!("island_b={island_b}"));
                }
                P2pEvent::PartitionHealed { reconciled, demoted } => {
                    flags.push(format!("reconciled={reconciled}"));
                    flags.push(format!("demoted={demoted}"));
                }
                P2pEvent::EntryReconciled { epoch } => {
                    flags.push(format!("epoch={epoch}"));
                }
                P2pEvent::PrimaryDemoted { garbage_collected } => {
                    flags.push(
                        if garbage_collected { "garbage_collected" } else { "kept_as_replica" }
                            .into(),
                    );
                }
                P2pEvent::AuditChallenged { passed } => {
                    flags.push(if passed { "passed" } else { "failed" }.into());
                }
                P2pEvent::AuditFailed { strikes } => {
                    flags.push(format!("strikes={strikes}"));
                }
                P2pEvent::ForgedReceiptDetected { entry_purged } => {
                    flags.push(
                        if entry_purged { "entry_purged" } else { "entry_already_gone" }.into(),
                    );
                }
                P2pEvent::NodeQuarantined { entries_purged, residents_parked } => {
                    flags.push(format!("entries_purged={entries_purged}"));
                    flags.push(format!("residents_parked={residents_parked}"));
                }
                P2pEvent::BreakerFastFailed { class } => {
                    flags.push(format!("class={class}"));
                }
                P2pEvent::RetryBudgetExhausted { class } => {
                    flags.push(format!("class={class}"));
                }
                P2pEvent::ObjectLost { had_replicas } => {
                    flags.push(
                        if had_replicas { "replicas_died_too" } else { "never_replicated" }.into(),
                    );
                }
                P2pEvent::ProactiveRepair { copies } => {
                    flags.push(format!("copies={copies}"));
                }
            }
            (String::new(), String::new(), hops, flags.join("|"))
        }
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

    #[test]
    fn stats_recorder_classifies_p2p_events() {
        let r = StatsRecorder::new();
        r.p2p_event(
            0,
            P2pEvent::Destage {
                hops: 2,
                piggybacked: true,
                diverted: true,
                refreshed: false,
                evicted: false,
            },
        );
        r.p2p_event(
            0,
            P2pEvent::Destage {
                hops: 3,
                piggybacked: false,
                diverted: false,
                refreshed: true,
                evicted: true,
            },
        );
        r.p2p_event(0, P2pEvent::Eviction { pointer_invalidated: true });
        r.p2p_event(0, P2pEvent::Lookup { hops: 1, stale: false });
        r.p2p_event(0, P2pEvent::Lookup { hops: 4, stale: true });
        r.p2p_event(0, P2pEvent::Push { hops: 4 });
        r.p2p_event(0, P2pEvent::DirectoryProbe { hit: true });
        r.p2p_event(0, P2pEvent::DirectoryProbe { hit: false });
        r.p2p_event(0, P2pEvent::NodeFailed { objects_lost: 7 });
        r.p2p_event(0, P2pEvent::NodeJoined { objects_migrated: 3 });
        r.p2p_event(0, P2pEvent::NodeCrashed { objects_at_risk: 5 });
        r.p2p_event(0, P2pEvent::NodeDeparted { objects_handed_off: 4 });
        r.p2p_event(0, P2pEvent::TimeoutDetected { dead_node: true });
        r.p2p_event(0, P2pEvent::TimeoutDetected { dead_node: false });
        r.p2p_event(0, P2pEvent::StaleDirectoryHit { replica_served: true });
        r.p2p_event(0, P2pEvent::StaleDirectoryHit { replica_served: false });
        r.p2p_event(0, P2pEvent::Rereplicated { copies: 2 });
        r.p2p_event(0, P2pEvent::PartitionStarted { island_a: 5, island_b: 3 });
        r.p2p_event(0, P2pEvent::EntryReconciled { epoch: 2 });
        r.p2p_event(0, P2pEvent::EntryReconciled { epoch: 3 });
        r.p2p_event(0, P2pEvent::PrimaryDemoted { garbage_collected: false });
        r.p2p_event(0, P2pEvent::PartitionHealed { reconciled: 2, demoted: 1 });
        let s = r.snapshot();
        assert_eq!(s.destages, 2);
        assert_eq!(s.piggybacked_destages, 1);
        assert_eq!(s.direct_destage_connections, 1);
        assert_eq!(s.diverted_destages, 1);
        assert_eq!(s.refreshed_destages, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.stale_lookups, 1);
        assert!((s.stale_lookup_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.pushes, 1);
        assert_eq!(s.directory_probes, 2);
        assert_eq!(s.directory_probe_hits, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.pointer_invalidations, 1);
        assert_eq!(s.node_failures, 1);
        assert_eq!(s.objects_lost, 7);
        assert_eq!(s.node_joins, 1);
        assert_eq!(s.objects_migrated, 3);
        assert_eq!(s.node_crashes, 1);
        assert_eq!(s.objects_at_risk, 5);
        assert_eq!(s.node_departures, 1);
        assert_eq!(s.objects_handed_off, 4);
        assert_eq!(s.timeouts, 2);
        assert_eq!(s.dead_node_timeouts, 1);
        assert_eq!(s.stale_directory_hits, 2);
        assert_eq!(s.stale_hits_replica_served, 1);
        assert_eq!(s.rereplications, 1);
        assert_eq!(s.replica_copies, 2);
        assert_eq!(s.partitions_started, 1);
        assert_eq!(s.partitions_healed, 1);
        assert_eq!(s.entries_reconciled, 2);
        assert_eq!(s.primaries_demoted, 1);
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
        let log = EventLogRecorder::new(16);
        log.request(0, HitClass::LocalProxy, 1.0);
        log.p2p_event(
            1,
            P2pEvent::Destage {
                hops: 2,
                piggybacked: true,
                diverted: false,
                refreshed: false,
                evicted: true,
            },
        );
        log.p2p_event(1, P2pEvent::Lookup { hops: 3, stale: true });
        let csv = log.to_csv();
        assert!(csv.starts_with("seq,proxy,kind,class,latency,hops,detail\n"));
        assert!(csv.contains("0,0,request,proxy,1.0000,,"));
        assert!(csv.contains("1,1,destage,,,2,piggybacked|evicted"));
        assert!(csv.contains("2,1,lookup,,,3,stale"));
        let json = log.to_json();
        assert!(json.contains("\"kind\": \"destage\""));
        assert!(json.contains("\"detail\": \"stale\""));
        assert!(json.trim_end().ends_with(']'));
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
