//! The LFU-family caching schemes: NC, NC-EC, SC, SC-EC (§2).
//!
//! One engine covers all four, controlled by two switches that mirror the
//! paper's taxonomy:
//!
//! * **cooperation** — whether proxies serve each other's misses (the
//!   SC/SC-EC column; NC/NC-EC proxies never talk to each other);
//! * **client caches** — whether each proxy is backed by the unified P2P
//!   client-cache tier (the *-EC row; modeled as one cache of the
//!   aggregate client-cache size, the paper's §5.1 upper-bound
//!   simplification).
//!
//! All four run LFU replacement, "to minimize access latency" (§2). SC
//! proxies cache a local copy of every object fetched from a cooperating
//! proxy ("Once a proxy fetches an object from another proxy, it caches
//! the object locally") and do not coordinate replacement.

use crate::engine::SchemeEngine;
use crate::net::HitClass;
use crate::site::{SiteTier, TwoTierLfuSite};
use webcache_workload::Request;

/// NC / NC-EC / SC / SC-EC engine.
#[derive(Clone, Debug)]
pub struct LfuFamilyEngine {
    sites: Vec<TwoTierLfuSite>,
    cooperate: bool,
    name: &'static str,
}

impl LfuFamilyEngine {
    /// Builds an engine for `num_proxies` proxies with `proxy_capacity`
    /// objects each; `p2p_capacity > 0` enables the unified client-cache
    /// tier (the *-EC schemes), `cooperate` enables inter-proxy sharing
    /// (the SC schemes).
    pub fn new(
        num_proxies: usize,
        proxy_capacity: usize,
        p2p_capacity: usize,
        cooperate: bool,
    ) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        let name = match (cooperate, p2p_capacity > 0) {
            (false, false) => "NC",
            (false, true) => "NC-EC",
            (true, false) => "SC",
            (true, true) => "SC-EC",
        };
        LfuFamilyEngine {
            sites: (0..num_proxies)
                .map(|_| TwoTierLfuSite::new(proxy_capacity, p2p_capacity))
                .collect(),
            cooperate,
            name,
        }
    }

    /// The NC baseline at a given proxy capacity (single tier, no
    /// cooperation) — every figure's denominator.
    pub fn nc(num_proxies: usize, proxy_capacity: usize) -> Self {
        Self::new(num_proxies, proxy_capacity, 0, false)
    }

    /// Immutable access to a proxy's site (tests).
    pub fn site(&self, proxy: usize) -> &TwoTierLfuSite {
        &self.sites[proxy]
    }
}

impl SchemeEngine for LfuFamilyEngine {
    fn serve(&mut self, proxy: usize, request: &Request) -> HitClass {
        let object = request.object;
        // Local site: proxy cache, then own P2P client cache.
        if let Some(tier) = self.sites[proxy].lookup(object) {
            return match tier {
                SiteTier::Proxy => HitClass::LocalProxy,
                SiteTier::P2p => HitClass::OwnP2p,
            };
        }
        // Cooperating proxies (SC): first hit wins; the serving site
        // registers the access; the local site caches a copy.
        if self.cooperate {
            let remote = (0..self.sites.len())
                .filter(|&q| q != proxy)
                .find_map(|q| self.sites[q].tier_of(object).map(|t| (q, t)));
            if let Some((q, tier)) = remote {
                self.sites[q].remote_touch(object);
                self.sites[proxy].admit(object);
                return match tier {
                    SiteTier::Proxy => HitClass::CoopProxy,
                    // Served out of the remote P2P cache via the push
                    // protocol (§4.5).
                    SiteTier::P2p => HitClass::CoopP2p,
                };
            }
        }
        // Origin server.
        self.sites[proxy].admit(object);
        HitClass::Server
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::engine::Engine;
    use crate::metrics::latency_gain_percent;
    use crate::net::NetworkModel;
    use crate::recorder::NoopRecorder;
    use webcache_workload::{ProWGen, ProWGenConfig, Trace};

    fn traces(n: usize, requests: usize) -> Vec<Trace> {
        (0..n)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests,
                    distinct_objects: 1_000,
                    seed: 42 + p as u64,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    fn run(engine: &mut LfuFamilyEngine, traces: &[Trace]) -> crate::metrics::RunMetrics {
        Engine::new(engine, traces, &NetworkModel::default())
            .run(&mut SimClock::compat(), &NoopRecorder)
    }

    #[test]
    fn names() {
        assert_eq!(LfuFamilyEngine::new(2, 10, 0, false).name(), "NC");
        assert_eq!(LfuFamilyEngine::new(2, 10, 5, false).name(), "NC-EC");
        assert_eq!(LfuFamilyEngine::new(2, 10, 0, true).name(), "SC");
        assert_eq!(LfuFamilyEngine::new(2, 10, 5, true).name(), "SC-EC");
    }

    #[test]
    fn nc_never_reports_cooperative_hits() {
        let ts = traces(2, 20_000);
        let m = run(&mut LfuFamilyEngine::nc(2, 50), &ts);
        assert_eq!(m.count(HitClass::CoopProxy), 0);
        assert_eq!(m.count(HitClass::CoopP2p), 0);
        assert_eq!(m.count(HitClass::OwnP2p), 0);
        assert!(m.count(HitClass::LocalProxy) > 0);
    }

    #[test]
    fn sc_beats_nc() {
        let ts = traces(2, 30_000);
        let nc = run(&mut LfuFamilyEngine::new(2, 40, 0, false), &ts);
        let sc = run(&mut LfuFamilyEngine::new(2, 40, 0, true), &ts);
        assert!(sc.count(HitClass::CoopProxy) > 0, "SC must use cooperation");
        let gain = latency_gain_percent(&nc, &sc);
        assert!(gain > 0.0, "SC gain {gain}");
    }

    #[test]
    fn ec_beats_plain_when_proxy_small() {
        let ts = traces(2, 30_000);
        let nc = run(&mut LfuFamilyEngine::new(2, 30, 0, false), &ts);
        let nc_ec = run(&mut LfuFamilyEngine::new(2, 30, 60, false), &ts);
        assert!(nc_ec.count(HitClass::OwnP2p) > 0);
        let gain = latency_gain_percent(&nc, &nc_ec);
        assert!(gain > 0.0, "NC-EC gain {gain}");
        let sc = run(&mut LfuFamilyEngine::new(2, 30, 0, true), &ts);
        let sc_ec = run(&mut LfuFamilyEngine::new(2, 30, 60, true), &ts);
        assert!(
            sc_ec.avg_latency() < sc.avg_latency(),
            "SC-EC {} vs SC {}",
            sc_ec.avg_latency(),
            sc.avg_latency()
        );
    }

    #[test]
    fn sc_ec_serves_from_remote_p2p() {
        let ts = traces(2, 30_000);
        let m = run(&mut LfuFamilyEngine::new(2, 20, 100, true), &ts);
        assert!(m.count(HitClass::CoopP2p) > 0, "push-protocol hits expected");
    }

    #[test]
    fn single_proxy_sc_equals_nc() {
        // With one proxy there is nobody to cooperate with.
        let ts = traces(1, 15_000);
        let nc = run(&mut LfuFamilyEngine::new(1, 40, 0, false), &ts);
        let sc = run(&mut LfuFamilyEngine::new(1, 40, 0, true), &ts);
        assert_eq!(nc.avg_latency(), sc.avg_latency());
        assert_eq!(nc.by_class, sc.by_class);
    }

    #[test]
    fn bigger_cache_serves_more_locally() {
        let ts = traces(1, 20_000);
        let small = run(&mut LfuFamilyEngine::nc(1, 20), &ts);
        let big = run(&mut LfuFamilyEngine::nc(1, 400), &ts);
        assert!(big.count(HitClass::LocalProxy) > small.count(HitClass::LocalProxy));
        assert!(big.avg_latency() < small.avg_latency());
    }

    #[test]
    fn repeated_object_hits_after_first_fetch() {
        let t = Trace::new(
            (0..10).map(|_| webcache_workload::Request { client: 0, object: 7 }).collect(),
        );
        let m = run(&mut LfuFamilyEngine::nc(1, 4), &[t]);
        assert_eq!(m.count(HitClass::Server), 1);
        assert_eq!(m.count(HitClass::LocalProxy), 9);
    }
}
