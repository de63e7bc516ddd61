//! **Hier-GD**: the cooperative hierarchical greedy-dual algorithm (§3–4).
//!
//! Each proxy runs Young's greedy-dual over its own cache; every object the
//! proxy evicts is *passed down* into its P2P client cache (the real,
//! Pastry-federated one from `webcache-p2p`, not the unified upper-bound
//! model): the objectId is SHA-1-derived from the URL and routed to the
//! numerically closest client cache, with object diversion inside the leaf
//! set (Fig. 1). The proxy keeps a lookup directory synchronized through
//! store receipts; destaged objects piggyback on HTTP responses (§4.4);
//! cooperating proxies reach each other's client caches through the push
//! protocol (§4.5).
//!
//! Request path at proxy `p` (miss cascade):
//!
//! 1. `p`'s greedy-dual cache — hit at `Tl`;
//! 2. `p`'s lookup directory → own P2P client cache — hit at `Tl + Tp2p`
//!    (the proxy redirects the request; the object is *not* promoted back
//!    into the proxy by default, matching §4.2's redirect semantics —
//!    [`HierGdOptions::promote_on_p2p_hit`] flips this for the ablation);
//! 3. each cooperating proxy's cache — hit at `Tl + Tc`;
//! 4. each cooperating proxy's P2P client cache via push — `Tl+Tc+Tp2p`;
//! 5. the origin server — `Tl + Ts`.
//!
//! Greedy-dual costs are the paper's retrieval latencies: an object is
//! charged what re-fetching it *now* would cost (`Tc` if a cooperating
//! proxy holds it, `Tc+Tp2p` if only a remote client cache does, `Ts`
//! otherwise), which is precisely the cost structure that gives greedy-dual
//! its implicit inter-cache coordination (Korupolu & Dahlin \[10\]).

use crate::engine::{Admission, SchemeEngine};
use crate::metrics::RunMetrics;
use crate::net::{HitClass, NetworkModel};
use crate::recorder::{NoopRecorder, Recorder};
use webcache_p2p::{DirectoryKind, P2PClientCache, P2PClientCacheConfig, P2pEvent, P2pSink};
use webcache_pastry::PastryConfig;
use webcache_policy::{BoundedCache, DenseIndex, GreedyDualCache};
use webcache_workload::{ObjectId, Request, Trace};

/// Tunable design choices of Hier-GD (§4), exposed for ablation benches.
#[derive(Clone, Copy, Debug)]
pub struct HierGdOptions {
    /// Lookup directory representation (§4.2).
    pub directory: DirectoryKind,
    /// Piggyback destaged objects on HTTP responses (§4.4) instead of
    /// opening dedicated proxy→client connections.
    pub piggyback: bool,
    /// Promote an object back into the proxy cache on an own-P2P hit.
    pub promote_on_p2p_hit: bool,
    /// Object diversion within leaf sets (§4.3).
    pub diversion: bool,
    /// Leaf-set replication factor `k`: copies kept per destaged object
    /// (1 = primary only, the fault-free default; churn runs raise it so
    /// crashes can be rescued from replicas).
    pub replication: usize,
    /// Pastry parameters for the client-cache overlay.
    pub pastry: PastryConfig,
}

impl Default for HierGdOptions {
    fn default() -> Self {
        HierGdOptions {
            directory: DirectoryKind::Exact,
            piggyback: true,
            promote_on_p2p_hit: false,
            diversion: true,
            replication: 1,
            pastry: PastryConfig::default(),
        }
    }
}

struct GdProxy {
    /// ObjectIds are dense trace indices, so the greedy-dual's position
    /// index is a flat table instead of a hash map.
    cache: GreedyDualCache<ObjectId, DenseIndex>,
    p2p: P2PClientCache,
}

/// Forwards [`P2pEvent`]s from one proxy's P2P cache to the engine's
/// [`Recorder`], tagging them with the proxy index. Borrowing only the
/// recorder keeps the adapter disjoint from the `&mut` borrow of the
/// cache it observes. Handed out by [`HierGdEngine::cluster_mut`].
pub struct Tap<'a, R> {
    recorder: &'a R,
    proxy: usize,
}

impl<R: Recorder> P2pSink for Tap<'_, R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn event(&mut self, event: P2pEvent) {
        self.recorder.p2p_event(self.proxy, event);
    }
}

/// The Hier-GD engine: one greedy-dual proxy + one Pastry P2P client cache
/// per cluster.
///
/// Generic over the observability [`Recorder`]; the default
/// [`NoopRecorder`] statically disables every event tap, so the plain
/// `HierGdEngine` is exactly the un-instrumented engine.
pub struct HierGdEngine<R: Recorder = NoopRecorder> {
    proxies: Vec<GdProxy>,
    /// Dense object id → 128-bit Pastry objectId (SHA-1 of the URL, §4.1).
    object_ids: Vec<u128>,
    net: NetworkModel,
    opts: HierGdOptions,
    recorder: R,
    /// True once any fault/membership hook has run; gates the per-request
    /// fault-penalty drain, which can only ever see zeros before then.
    faults_touched: bool,
}

impl HierGdEngine {
    /// Builds the engine (no observability, zero recorder cost).
    ///
    /// * `proxy_capacity` — objects per proxy cache;
    /// * `clients_per_cluster` — client caches in each proxy's cluster
    ///   (paper default 100, Figure 5(c) sweeps to 1000);
    /// * `client_cache_capacity` — objects per client cache (paper: 0.1%
    ///   of the infinite cache size);
    /// * `num_objects` — dense-id universe bound (from the traces).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_proxies: usize,
        proxy_capacity: usize,
        clients_per_cluster: usize,
        client_cache_capacity: usize,
        num_objects: u32,
        net: NetworkModel,
        opts: HierGdOptions,
    ) -> Self {
        HierGdEngine::with_recorder(
            num_proxies,
            proxy_capacity,
            clients_per_cluster,
            client_cache_capacity,
            num_objects,
            net,
            opts,
            NoopRecorder,
        )
    }
}

impl<R: Recorder> HierGdEngine<R> {
    /// [`HierGdEngine::new`] with an observability recorder: every
    /// destage, lookup, push, directory probe, and eviction cascade is
    /// reported to `recorder` (tagged with its proxy index), alongside
    /// the per-request events emitted by the run loop.
    #[allow(clippy::too_many_arguments)]
    pub fn with_recorder(
        num_proxies: usize,
        proxy_capacity: usize,
        clients_per_cluster: usize,
        client_cache_capacity: usize,
        num_objects: u32,
        net: NetworkModel,
        opts: HierGdOptions,
        recorder: R,
    ) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        let object_ids: Vec<u128> =
            (0..num_objects).map(|o| webcache_p2p::object_id_for_url(&Trace::url_of(o))).collect();
        let proxies: Vec<GdProxy> = (0..num_proxies)
            .map(|p| GdProxy {
                cache: GreedyDualCache::new(proxy_capacity.max(1)),
                p2p: P2PClientCache::new(P2PClientCacheConfig {
                    pastry: opts.pastry,
                    num_nodes: clients_per_cluster,
                    node_capacity: client_cache_capacity.max(1),
                    directory: opts.directory,
                    diversion: opts.diversion,
                    replication: opts.replication,
                    seed: 0x1E_AF00 + p as u64,
                }),
            })
            .collect();
        HierGdEngine { proxies, object_ids, net, opts, recorder, faults_touched: false }
    }

    fn oid(&self, object: ObjectId) -> u128 {
        self.object_ids[object as usize]
    }

    /// What re-fetching `object` would cost proxy `p` right now — the
    /// greedy-dual cost (§3 via [10]): cheapest available source wins.
    fn refetch_cost(&self, p: usize, object: ObjectId) -> f64 {
        let oid = self.oid(object);
        if self.proxies[p].p2p.directory_contains(oid) {
            return self.net.fetch_cost(HitClass::OwnP2p);
        }
        for (q, proxy) in self.proxies.iter().enumerate() {
            if q != p && proxy.cache.contains(object) {
                return self.net.fetch_cost(HitClass::CoopProxy);
            }
        }
        for (q, proxy) in self.proxies.iter().enumerate() {
            if q != p && proxy.p2p.directory_contains(oid) {
                return self.net.fetch_cost(HitClass::CoopP2p);
            }
        }
        self.net.fetch_cost(HitClass::Server)
    }

    /// Inserts a fetched object into proxy `p`'s cache and destages the
    /// eviction victim into the P2P client cache (Fig. 1), piggybacked on
    /// the response to `client` when enabled (§4.4).
    fn cache_fetched(&mut self, p: usize, object: ObjectId, fetch_cost: f64, client: u32) {
        let evicted = self.proxies[p].cache.insert_with_cost(object, fetch_cost, 1.0);
        if let Some(victim) = evicted {
            // The victim's credit in the client cache restarts at its
            // current re-fetch cost, exactly as the proxy's greedy-dual
            // would charge it.
            let cost = self.refetch_cost(p, victim);
            let oid = self.oid(victim);
            let via = self.opts.piggyback.then_some(client);
            // Under churn the destage can fail outright (empty cluster);
            // the victim is then simply not cached below — lossy but safe.
            let _ = self.proxies[p].p2p.destage_tap(
                oid,
                cost,
                via,
                &mut Tap { recorder: &self.recorder, proxy: p },
            );
        }
    }

    /// Immutable view of a proxy's P2P cache (tests, benches).
    pub fn p2p(&self, proxy: usize) -> &P2PClientCache {
        &self.proxies[proxy].p2p
    }

    /// Mutable access to `proxy`'s client cluster, for every fault and
    /// membership operation of [`P2PClientCache`] (`crash_node_tap`,
    /// `join_node_tap`, `set_faults`, `partition_nodes`, …), together
    /// with the tap that reports what the operation does to this
    /// engine's recorder, tagged with the proxy index. Marks the engine
    /// fault-touched: from here on every request drains the clusters'
    /// timeout penalties (which can only be zero before any such call).
    /// Read-only questions go through [`p2p`](Self::p2p).
    pub fn cluster_mut(&mut self, proxy: usize) -> (&mut P2PClientCache, Tap<'_, R>) {
        self.faults_touched = true;
        (&mut self.proxies[proxy].p2p, Tap { recorder: &self.recorder, proxy })
    }

    /// Routes every protocol message in `proxy`'s cluster through an
    /// [`UnreliableTransport`](webcache_p2p::UnreliableTransport) with the
    /// given loss/duplication/reorder/corruption probabilities:
    /// `cluster_mut(proxy).0.set_transport(faults)`. Kept, like the
    /// `prepare_wave` shim, only because the frozen `benchmark/` crate
    /// calls it.
    pub fn set_client_transport(&mut self, proxy: usize, faults: webcache_p2p::TransportFaults) {
        self.cluster_mut(proxy).0.set_transport(faults);
    }

    /// The recorder observing this engine.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The five-level miss cascade (module docs); split from
    /// [`SchemeEngine::admit`] so the caller can drain fault penalties
    /// once, after whatever subset of clusters the cascade touched.
    fn serve_cascade(&mut self, p: usize, request: &Request) -> HitClass {
        let object = request.object;
        // 1. Local proxy cache.
        if self.proxies[p].cache.contains(object) {
            let cost = self.refetch_cost(p, object);
            self.proxies[p].cache.touch_with_cost(object, cost, 1.0);
            return HitClass::LocalProxy;
        }
        let oid = self.oid(object);
        // 2. Own P2P client cache, gated by the lookup directory (§4.2).
        // Only this serve-path gate is reported as a directory probe;
        // `refetch_cost`'s internal directory reads are pricing queries,
        // not protocol messages.
        let in_directory = self.proxies[p].p2p.directory_contains(oid);
        if R::ENABLED {
            self.recorder.p2p_event(p, P2pEvent::DirectoryProbe { hit: in_directory });
        }
        if in_directory {
            // The hit refreshes the client cache's greedy-dual credit at
            // the cost of the next-best source.
            let cost = self.net.fetch_cost(HitClass::CoopProxy);
            let served = self.proxies[p]
                .p2p
                .fetch_tap(
                    request.client,
                    oid,
                    cost,
                    &mut Tap { recorder: &self.recorder, proxy: p },
                )
                .is_some();
            if served {
                if self.opts.promote_on_p2p_hit {
                    let fetch = self.net.fetch_cost(HitClass::OwnP2p);
                    self.cache_fetched(p, object, fetch, request.client);
                }
                return HitClass::OwnP2p;
            }
            // Directory false positive / staleness: fall through.
        }
        // 3. Cooperating proxies' caches.
        let coop = (0..self.proxies.len())
            .filter(|&q| q != p)
            .find(|&q| self.proxies[q].cache.contains(object));
        if let Some(q) = coop {
            let remote_cost = self.refetch_cost(q, object);
            self.proxies[q].cache.touch_with_cost(object, remote_cost, 1.0);
            let fetch = self.net.fetch_cost(HitClass::CoopProxy);
            self.cache_fetched(p, object, fetch, request.client);
            return HitClass::CoopProxy;
        }
        // 4. Cooperating proxies' P2P client caches via push (§4.5).
        let coop_p2p = (0..self.proxies.len())
            .filter(|&q| q != p)
            .find(|&q| self.proxies[q].p2p.directory_contains(oid));
        if let Some(q) = coop_p2p {
            let cost = self.net.fetch_cost(HitClass::CoopProxy);
            let pushed = self.proxies[q]
                .p2p
                .push_fetch_tap(oid, cost, &mut Tap { recorder: &self.recorder, proxy: q })
                .is_some();
            if pushed {
                let fetch = self.net.fetch_cost(HitClass::CoopP2p);
                self.cache_fetched(p, object, fetch, request.client);
                return HitClass::CoopP2p;
            }
        }
        // 5. Origin server.
        let fetch = self.net.fetch_cost(HitClass::Server);
        self.cache_fetched(p, object, fetch, request.client);
        HitClass::Server
    }
}

impl<R: Recorder> SchemeEngine for HierGdEngine<R> {
    /// The hit class of [`admit`](SchemeEngine::admit); its transport
    /// stalls are drained and dropped, so nothing prices them.
    fn serve(&mut self, p: usize, request: &Request) -> HitClass {
        self.admit(p, request).class
    }

    /// The cascade, then the timeout stalls it accrued anywhere it went
    /// (own cluster, cooperating clusters via push), drained into the
    /// [`Admission`]: the event loop schedules them as timeout events and
    /// the default `price` charges `t_timeout` each. Zero on fault-free
    /// runs, and the drain is skipped entirely until a fault hook has run.
    fn admit(&mut self, p: usize, request: &Request) -> Admission {
        let class = self.serve_cascade(p, request);
        let mut stalls = 0u64;
        if self.faults_touched {
            for proxy in &mut self.proxies {
                stalls += proxy.p2p.take_fault_penalties();
            }
        }
        Admission { class, stalls }
    }

    fn finish(&mut self, metrics: &mut RunMetrics) {
        for proxy in &self.proxies {
            metrics.messages.merge(proxy.p2p.ledger());
        }
    }

    fn name(&self) -> &'static str {
        "Hier-GD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::engine::Engine;
    use crate::lfu_schemes::LfuFamilyEngine;
    use crate::metrics::latency_gain_percent;
    use webcache_p2p::TransportFaults;
    use webcache_workload::{ProWGen, ProWGenConfig};

    fn run<E: SchemeEngine + ?Sized>(e: &mut E, ts: &[Trace], net: &NetworkModel) -> RunMetrics {
        Engine::new(e, ts, net).run(&mut SimClock::compat(), &NoopRecorder)
    }

    fn traces(n: usize, requests: usize, objects: usize) -> Vec<Trace> {
        (0..n)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests,
                    distinct_objects: objects,
                    num_clients: 20,
                    seed: 11 + p as u64,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    fn engine(
        proxies: usize,
        cap: usize,
        clients: usize,
        node_cap: usize,
        objects: u32,
    ) -> HierGdEngine {
        HierGdEngine::new(
            proxies,
            cap,
            clients,
            node_cap,
            objects,
            NetworkModel::default(),
            HierGdOptions::default(),
        )
    }

    #[test]
    fn serves_from_every_level() {
        let ts = traces(2, 20_000, 500);
        let mut e = engine(2, 25, 20, 3, 500);
        let m = run(&mut e, &ts, &NetworkModel::default());
        assert!(m.count(HitClass::LocalProxy) > 0, "proxy hits");
        assert!(m.count(HitClass::OwnP2p) > 0, "own P2P hits");
        assert!(m.count(HitClass::CoopProxy) > 0, "coop proxy hits");
        assert!(m.count(HitClass::Server) > 0, "server fetches");
        assert_eq!(m.requests, 40_000);
    }

    #[test]
    fn beats_nc_and_sc_at_small_proxy_sizes() {
        let ts = traces(2, 30_000, 1_000);
        let net = NetworkModel::default();
        // ~5% of the infinite cache size.
        let cap = 25;
        let nc = run(&mut LfuFamilyEngine::nc(2, cap), &ts, &net);
        let sc = run(&mut LfuFamilyEngine::new(2, cap, 0, true), &ts, &net);
        // P2P cache = 10% of U (100 clients x 0.1%).
        let mut hg = engine(2, cap, 20, 3, 1_000);
        let h = run(&mut hg, &ts, &net);
        let h_gain = latency_gain_percent(&nc, &h);
        let sc_gain = latency_gain_percent(&nc, &sc);
        assert!(h_gain > 0.0, "Hier-GD gain {h_gain}");
        assert!(h_gain > sc_gain, "Hier-GD {h_gain} vs SC {sc_gain}");
    }

    #[test]
    fn destage_populates_client_caches() {
        let ts = traces(1, 10_000, 500);
        let mut e = engine(1, 10, 10, 4, 500);
        let _ = run(&mut e, &ts, &NetworkModel::default());
        assert!(!e.p2p(0).is_empty(), "evictions must land in the P2P cache");
        assert!(e.p2p(0).ledger().piggybacked_objects > 0);
        assert_eq!(e.p2p(0).ledger().direct_destages, 0, "piggyback is on by default");
        let problems = e.p2p(0).check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn piggyback_off_opens_connections() {
        let ts = traces(1, 5_000, 500);
        let opts = HierGdOptions { piggyback: false, ..HierGdOptions::default() };
        let mut e = HierGdEngine::new(1, 10, 10, 4, 500, NetworkModel::default(), opts);
        let _ = run(&mut e, &ts, &NetworkModel::default());
        let ledger = e.p2p(0).ledger();
        assert!(ledger.direct_destages > 0);
        assert_eq!(ledger.piggybacked_objects, 0);
        assert!(ledger.new_connections >= ledger.direct_destages);
    }

    #[test]
    fn exact_directory_has_no_stale_lookups() {
        let ts = traces(2, 15_000, 500);
        let mut e = engine(2, 20, 10, 4, 500);
        let m = run(&mut e, &ts, &NetworkModel::default());
        assert_eq!(m.messages.stale_lookups, 0, "exact directory must be exact");
    }

    #[test]
    fn bloom_directory_false_positives_are_survivable() {
        let ts = traces(1, 15_000, 500);
        // Deliberately tiny filter to force false positives.
        let opts = HierGdOptions {
            directory: DirectoryKind::Bloom { counters_per_key: 2.0, expected_entries: 64 },
            ..HierGdOptions::default()
        };
        let mut e = HierGdEngine::new(1, 20, 10, 4, 500, NetworkModel::default(), opts);
        let m = run(&mut e, &ts, &NetworkModel::default());
        assert_eq!(m.requests, 15_000, "false positives must not lose requests");
        assert!(m.messages.stale_lookups > 0, "tiny bloom should false-positive");
    }

    #[test]
    fn larger_client_cluster_reduces_latency() {
        let ts = traces(2, 20_000, 1_000);
        let net = NetworkModel::default();
        let mut small = engine(2, 30, 10, 3, 1_000);
        let mut large = engine(2, 30, 60, 3, 1_000);
        let ms = run(&mut small, &ts, &net);
        let ml = run(&mut large, &ts, &net);
        assert!(
            ml.avg_latency() < ms.avg_latency(),
            "60 clients {} vs 10 clients {}",
            ml.avg_latency(),
            ms.avg_latency()
        );
    }

    #[test]
    fn promotion_ablation_runs() {
        let ts = traces(1, 10_000, 500);
        let opts = HierGdOptions { promote_on_p2p_hit: true, ..HierGdOptions::default() };
        let mut e = HierGdEngine::new(1, 15, 10, 4, 500, NetworkModel::default(), opts);
        let m = run(&mut e, &ts, &NetworkModel::default());
        assert_eq!(m.requests, 10_000);
        assert!(m.count(HitClass::OwnP2p) > 0);
    }

    #[test]
    fn stalls_of_served_requests_never_reach_a_later_admission() {
        // Two engines behind the same seeded lossy transport: one serves
        // all but the last request, the other admits them all. The state
        // is the same either way, so the last admission must report the
        // same stalls — its own, none banked by the earlier `serve`s.
        let ts = traces(1, 3_000, 500);
        let lossy = || {
            let mut e = engine(1, 10, 10, 4, 500);
            e.cluster_mut(0).0.set_transport(TransportFaults {
                loss: 0.3,
                seed: 0x5_7A11,
                ..TransportFaults::none()
            });
            e
        };
        let (mut served, mut admitted) = (lossy(), lossy());
        let (last, rest) = ts[0].requests.split_last().unwrap();
        let mut earlier_stalls = 0;
        for r in rest {
            served.serve(0, r);
            earlier_stalls += admitted.admit(0, r).stalls;
        }
        assert!(earlier_stalls > 0, "the lossy transport must stall earlier requests");
        assert_eq!(served.admit(0, last), admitted.admit(0, last));
    }
}
