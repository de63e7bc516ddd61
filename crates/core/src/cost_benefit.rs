//! FC / FC-EC: fully coordinated cooperative caching (§2, §5.1).
//!
//! "FC and FC-EC employ the cost-benefit based replacement, thereby
//! yielding the upper bound on performance benefit of cooperating proxy
//! caching without and with exploiting client caches" — §5.1. The policy
//! assumes *perfect frequency knowledge* (Lee et al. \[13\]) and coordinates
//! placement so the cluster keeps the set of object **copies** with the
//! highest aggregate latency benefit:
//!
//! * the *first* copy of object `o` anywhere in the cluster saves its home
//!   proxy's clients a server fetch and lets every other proxy fetch at
//!   `Tc` instead of `Ts`:
//!   `v₁(o) = f(o)·[Ts + (P−1)(Ts−Tc)]`;
//! * each *additional* copy only saves its proxy the inter-proxy hop:
//!   `v₊(o) = f(o)·Tc`,
//!
//! with `f(o)` the per-proxy request frequency (clients are statistically
//! identical, so one global frequency table serves all proxies). The
//! engine maintains these marginal values online: when a copy count rises
//! from 1 to 2 the surviving copy's value drops to `v₊`, when it falls
//! back to 1 it is restored to `v₁` — so replacement decisions always
//! compare true marginal benefits. Copies are stored in per-site
//! [`ValueCache`]s and an insertion happens only when it displaces a
//! lower-value copy ([`ValueCache::insert_if_beneficial`]), which is what
//! "coordinating object replacement decisions" means operationally.
//!
//! FC-EC extends each site with the unified P2P tier of §5.1: the proxy
//! tier keeps the site's highest-value copies, evictions demote into the
//! P2P tier, and P2P evictions leave the site. Tier placement only affects
//! *latency* (`Tl` vs `Tl + Tp2p`); the cluster-level value accounting is
//! per-site, matching the paper's model where proxy and client caches
//! "appear as one unified cache".

use crate::engine::SchemeEngine;
use crate::net::{HitClass, NetworkModel};
use crate::site::SiteTier;
use webcache_policy::{BoundedCache, DenseIndex, NotBeneficial, ValueCache};
use webcache_workload::{ObjectId, Request, Trace};

/// One value-ordered tier. Trace object ids are dense (`0..num_objects`),
/// so the key → slot index is a plain array rather than a hash table.
type Tier = ValueCache<ObjectId, DenseIndex>;

/// One proxy's storage in the FC cluster.
#[derive(Clone, Debug)]
struct CbSite {
    proxy: Tier,
    p2p: Option<Tier>,
}

impl CbSite {
    fn new(proxy_capacity: usize, p2p_capacity: usize) -> Self {
        CbSite {
            proxy: Tier::with_index(proxy_capacity.max(1)),
            p2p: (p2p_capacity > 0).then(|| Tier::with_index(p2p_capacity)),
        }
    }

    fn tier_of(&self, object: ObjectId) -> Option<SiteTier> {
        if self.proxy.contains(object) {
            Some(SiteTier::Proxy)
        } else if self.p2p.as_ref().is_some_and(|c| c.contains(object)) {
            Some(SiteTier::P2p)
        } else {
            None
        }
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.tier_of(object).is_some()
    }

    /// Updates the value of a resident copy (after a cluster copy-count
    /// transition).
    fn set_value(&mut self, object: ObjectId, value: f64) {
        if self.proxy.contains(object) {
            self.proxy.set_value(object, value);
        } else if let Some(p2p) = self.p2p.as_mut() {
            if p2p.contains(object) {
                p2p.set_value(object, value);
            }
        }
    }

    /// Attempts to place a copy of `object` at `value`. The proxy tier
    /// keeps the highest-value copies; displaced copies demote into the
    /// P2P tier carrying their value; the lowest-value copy leaves the
    /// site when both tiers are full. Returns `Err(())` if the copy is
    /// not worth any resident slot, else the object that left the site.
    fn insert(&mut self, object: ObjectId, value: f64) -> Result<Option<ObjectId>, NotBeneficial> {
        debug_assert!(!self.contains(object), "insert is for new copies");
        if self.proxy.has_free_space() {
            self.proxy.set_value(object, value);
            return Ok(None);
        }
        let (proxy_min, _) = self.proxy.peek_min().expect("full tier has a minimum");
        if value > proxy_min {
            let demoted = self.proxy.evict().expect("full tier evicts");
            self.proxy.set_value(object, value);
            let Some(p2p) = self.p2p.as_mut() else {
                return Ok(Some(demoted));
            };
            if p2p.has_free_space() {
                p2p.set_value(demoted, proxy_min);
                return Ok(None);
            }
            let (p2p_min, _) = p2p.peek_min().expect("full tier has a minimum");
            if proxy_min > p2p_min {
                let spilled = p2p.evict().expect("full tier evicts");
                p2p.set_value(demoted, proxy_min);
                return Ok(Some(spilled));
            }
            return Ok(Some(demoted));
        }
        // Not valuable enough for the proxy tier: try the P2P tier.
        match self.p2p.as_mut() {
            Some(p2p) => p2p.insert_if_beneficial(object, value),
            None => Err(NotBeneficial),
        }
    }

    fn len(&self) -> usize {
        self.proxy.len() + self.p2p.as_ref().map_or(0, |c| c.len())
    }
}

/// object → proxies currently holding a copy, in the order the copies
/// were placed (a removal moves the last holder into the gap). One flat
/// table indexed by object: row `o` is `[count, holder₀, holder₁, …]`, so
/// a first or last copy neither allocates nor frees.
#[derive(Clone, Debug)]
struct HolderTable {
    /// Row width: one count byte plus one slot per proxy.
    stride: usize,
    rows: Vec<u8>,
}

impl HolderTable {
    fn new(num_objects: usize, num_proxies: usize) -> Self {
        let stride = num_proxies + 1;
        HolderTable { stride, rows: vec![0; num_objects * stride] }
    }

    fn row_mut(&mut self, object: ObjectId) -> &mut [u8] {
        &mut self.rows[object as usize * self.stride..][..self.stride]
    }

    /// The proxies holding `object`, oldest placement first.
    fn get(&self, object: ObjectId) -> &[u8] {
        let row = &self.rows[object as usize * self.stride..];
        &row[1..=row[0] as usize]
    }

    /// Appends `proxy` to `object`'s holders.
    fn push(&mut self, object: ObjectId, proxy: u8) {
        let row = self.row_mut(object);
        debug_assert!(!row[1..=row[0] as usize].contains(&proxy));
        row[0] += 1;
        row[row[0] as usize] = proxy;
    }

    /// Removes `proxy` from `object`'s holders; the last holder takes its
    /// place.
    fn swap_remove(&mut self, object: ObjectId, proxy: u8) {
        let row = self.row_mut(object);
        let n = row[0] as usize;
        let pos = 1 + row[1..=n].iter().position(|&h| h == proxy).expect("holder recorded");
        row[pos] = row[n];
        row[0] -= 1;
    }
}

/// FC / FC-EC engine.
#[derive(Clone, Debug)]
pub struct CostBenefitEngine {
    sites: Vec<CbSite>,
    /// object -> proxies currently holding a copy (either tier).
    holders: HolderTable,
    /// Perfect per-object frequency knowledge (request counts).
    freq: Vec<f64>,
    first_copy_factor: f64,
    extra_copy_factor: f64,
    name: &'static str,
}

impl CostBenefitEngine {
    /// Builds an FC (or, with `p2p_capacity > 0`, FC-EC) engine.
    ///
    /// `traces` supply the perfect frequency knowledge (the whole
    /// workload's per-object request counts).
    pub fn new(
        num_proxies: usize,
        proxy_capacity: usize,
        p2p_capacity: usize,
        net: &NetworkModel,
        traces: &[Trace],
    ) -> Self {
        assert!(num_proxies > 0, "need at least one proxy");
        assert!(num_proxies <= u8::MAX as usize, "copy tracking uses u8 site ids");
        let num_objects = traces.iter().map(|t| t.num_objects).max().unwrap_or(0) as usize;
        let mut freq = vec![0.0f64; num_objects];
        for t in traces {
            for r in &t.requests {
                freq[r.object as usize] += 1.0;
            }
        }
        let p = num_proxies as f64;
        CostBenefitEngine {
            sites: (0..num_proxies).map(|_| CbSite::new(proxy_capacity, p2p_capacity)).collect(),
            holders: HolderTable::new(num_objects, num_proxies),
            freq,
            first_copy_factor: net.ts + (p - 1.0) * (net.ts - net.tc),
            extra_copy_factor: net.tc,
            name: if p2p_capacity > 0 { "FC-EC" } else { "FC" },
        }
    }

    fn value(&self, object: ObjectId, copies_in_cluster: usize) -> f64 {
        let f = self.freq[object as usize];
        if copies_in_cluster <= 1 {
            f * self.first_copy_factor
        } else {
            f * self.extra_copy_factor
        }
    }

    /// Registers that `proxy` now holds a copy; fixes the values of other
    /// copies after the count transition.
    fn add_holder(&mut self, object: ObjectId, proxy: usize) {
        self.holders.push(object, proxy as u8);
        if let [other, _] = *self.holders.get(object) {
            // The previously lone copy is no longer marginal-first.
            let v = self.value(object, 2);
            self.sites[other as usize].set_value(object, v);
        }
    }

    /// Registers that `proxy` dropped its copy; restores the lone
    /// survivor's value if the count fell to one.
    fn remove_holder(&mut self, object: ObjectId, proxy: usize) {
        self.holders.swap_remove(object, proxy as u8);
        if let [survivor] = *self.holders.get(object) {
            let v = self.value(object, 1);
            self.sites[survivor as usize].set_value(object, v);
        }
    }

    /// Attempts to place a new copy at `proxy`, maintaining cluster
    /// bookkeeping.
    fn try_place(&mut self, object: ObjectId, proxy: usize) {
        let existing = self.holders.get(object).len();
        let value = self.value(object, existing + 1);
        if let Ok(displaced) = self.sites[proxy].insert(object, value) {
            self.add_holder(object, proxy);
            if let Some(d) = displaced {
                self.remove_holder(d, proxy);
            }
        }
    }

    /// Total copies resident across the cluster (tests).
    pub fn resident_copies(&self) -> usize {
        self.sites.iter().map(CbSite::len).sum()
    }

    /// Copies of `object` in the cluster (tests).
    pub fn copies_of(&self, object: ObjectId) -> usize {
        self.holders.get(object).len()
    }
}

impl SchemeEngine for CostBenefitEngine {
    fn serve(&mut self, proxy: usize, request: &Request) -> HitClass {
        let object = request.object;
        if let Some(tier) = self.sites[proxy].tier_of(object) {
            return match tier {
                SiteTier::Proxy => HitClass::LocalProxy,
                SiteTier::P2p => HitClass::OwnP2p,
            };
        }
        // A copy elsewhere in the cluster?
        let remote =
            self.holders.get(object).first().and_then(|&q| self.sites[q as usize].tier_of(object));
        if let Some(tier) = remote {
            self.try_place(object, proxy);
            return match tier {
                SiteTier::Proxy => HitClass::CoopProxy,
                SiteTier::P2p => HitClass::CoopP2p,
            };
        }
        // Server fetch; consider keeping the first copy here.
        self.try_place(object, proxy);
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
    use crate::lfu_schemes::LfuFamilyEngine;
    use crate::metrics::{latency_gain_percent, RunMetrics};
    use crate::recorder::NoopRecorder;
    use webcache_workload::{ProWGen, ProWGenConfig};

    fn run<E: SchemeEngine + ?Sized>(e: &mut E, ts: &[Trace], net: &NetworkModel) -> RunMetrics {
        Engine::new(e, ts, net).run(&mut SimClock::compat(), &NoopRecorder)
    }

    fn traces(n: usize, requests: usize) -> Vec<Trace> {
        (0..n)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests,
                    distinct_objects: 1_000,
                    seed: 7 + p as u64,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    #[test]
    fn fc_beats_sc_and_nc() {
        // Cache at ~25% of U: the regime where perfect-frequency
        // placement dominates (at very small caches recency effects can
        // edge it out — see EXPERIMENTS.md).
        let ts = traces(2, 30_000);
        let net = NetworkModel::default();
        let nc = run(&mut LfuFamilyEngine::new(2, 120, 0, false), &ts, &net);
        let sc = run(&mut LfuFamilyEngine::new(2, 120, 0, true), &ts, &net);
        let mut fce = CostBenefitEngine::new(2, 120, 0, &net, &ts);
        let fc = run(&mut fce, &ts, &net);
        let sc_gain = latency_gain_percent(&nc, &sc);
        let fc_gain = latency_gain_percent(&nc, &fc);
        assert!(fc_gain > 0.0, "FC gain {fc_gain}");
        assert!(fc_gain >= sc_gain, "FC {fc_gain} vs SC {sc_gain}");
    }

    #[test]
    fn fc_ec_beats_fc() {
        let ts = traces(2, 30_000);
        let net = NetworkModel::default();
        let fc = run(&mut CostBenefitEngine::new(2, 30, 0, &net, &ts), &ts, &net);
        let fc_ec = run(&mut CostBenefitEngine::new(2, 30, 100, &net, &ts), &ts, &net);
        assert!(
            fc_ec.avg_latency() < fc.avg_latency(),
            "FC-EC {} vs FC {}",
            fc_ec.avg_latency(),
            fc.avg_latency()
        );
        assert!(fc_ec.count(HitClass::OwnP2p) > 0);
    }

    #[test]
    fn coordination_avoids_useless_duplicates() {
        // With tiny caches, FC should hold mostly distinct objects across
        // the cluster (duplicates only for the hottest), unlike SC which
        // duplicates everything it fetches remotely.
        let ts = traces(2, 20_000);
        let net = NetworkModel::default();
        let mut fce = CostBenefitEngine::new(2, 25, 0, &net, &ts);
        let _ = run(&mut fce, &ts, &net);
        let held = |min: usize| (0..1_000).filter(|&o| fce.copies_of(o) >= min).count();
        let (dup, total) = (held(2), held(1));
        assert!(total > 0);
        assert!((dup as f64) < 0.5 * total as f64, "{dup}/{total} objects duplicated");
    }

    #[test]
    fn copy_count_values_transition() {
        let ts = traces(2, 5_000);
        let net = NetworkModel::default();
        let mut e = CostBenefitEngine::new(2, 10, 0, &net, &ts);
        let obj = 0u32; // most popular object
                        // Serve at proxy 0: first copy placed.
        e.serve(0, &Request { client: 0, object: obj });
        assert_eq!(e.copies_of(obj), 1);
        // Serve at proxy 1: remote hit, extra copy beneficial for the
        // hottest object.
        e.serve(1, &Request { client: 0, object: obj });
        assert_eq!(e.copies_of(obj), 2);
        // Both copies now carry the extra-copy value.
        let v0 = e.sites[0].proxy.value(obj).unwrap();
        let v1 = e.sites[1].proxy.value(obj).unwrap();
        assert!((v0 - v1).abs() < 1e-9);
        assert!((v0 - e.freq[0] * e.extra_copy_factor).abs() < 1e-9);
    }

    #[test]
    fn single_proxy_fc_is_perfect_lfu_like() {
        // With P=1 every value is f(o)·Ts: FC keeps the globally most
        // frequent objects, an upper bound on in-cache LFU.
        let ts = traces(1, 20_000);
        let net = NetworkModel::default();
        let nc = run(&mut LfuFamilyEngine::nc(1, 150), &ts, &net);
        let fc = run(&mut CostBenefitEngine::new(1, 150, 0, &net, &ts), &ts, &net);
        assert!(
            fc.avg_latency() <= nc.avg_latency() * 1.02,
            "FC {} should not lose to in-cache LFU {}",
            fc.avg_latency(),
            nc.avg_latency()
        );
    }

    #[test]
    fn resident_copies_bounded_by_capacity() {
        let ts = traces(3, 10_000);
        let net = NetworkModel::default();
        let mut e = CostBenefitEngine::new(3, 20, 10, &net, &ts);
        let _ = run(&mut e, &ts, &net);
        assert!(e.resident_copies() <= 3 * 30);
        // holders bookkeeping matches the sites.
        let tracked: usize = (0..1_000).map(|o| e.copies_of(o)).sum();
        assert_eq!(tracked, e.resident_copies());
    }

    #[test]
    fn holder_table_tracks_the_sites_in_placement_order() {
        // Reference: the `Vec` of holders per object the table replaced,
        // fed only by what the sites show. A serve changes membership at
        // the serving proxy alone: at most one copy placed, then at most
        // one displaced — the order `try_place` books them in.
        let ts = traces(3, 10_000);
        let net = NetworkModel::default();
        let mut e = CostBenefitEngine::new(3, 40, 20, &net, &ts);
        let keys = |site: &CbSite| -> Vec<ObjectId> {
            let p2p = site.p2p.iter().flat_map(|c| c.keys_by_value());
            site.proxy.keys_by_value().chain(p2p).collect()
        };
        let mut model: Vec<Vec<u8>> = vec![Vec::new(); 1_000];
        let (mut removals, mut reordered) = (0, 0);
        for i in 0..10_000 {
            for (proxy, t) in ts.iter().enumerate() {
                let request = t.requests[i];
                let before = keys(&e.sites[proxy]);
                e.serve(proxy, &request);
                let after = keys(&e.sites[proxy]);
                for &o in after.iter().filter(|o| !before.contains(o)) {
                    model[o as usize].push(proxy as u8);
                }
                for &o in before.iter().filter(|o| !after.contains(o)) {
                    let hs = &mut model[o as usize];
                    let pos = hs.iter().position(|&h| h == proxy as u8).expect("was a holder");
                    // `swap_remove` and `remove` differ from here on.
                    reordered += usize::from(pos + 2 < hs.len());
                    hs.swap_remove(pos);
                    removals += 1;
                }
                let o = request.object;
                assert_eq!(e.holders.get(o), model[o as usize], "request {i} at {proxy}");
            }
        }
        for (o, hs) in model.iter().enumerate() {
            assert_eq!(e.holders.get(o as ObjectId), hs, "object {o}");
            for (p, site) in e.sites.iter().enumerate() {
                assert_eq!(hs.contains(&(p as u8)), site.contains(o as ObjectId));
            }
        }
        assert!(removals > 100, "only {removals} removals");
        assert!(reordered > 0, "no removal ever reordered the survivors");
    }
}
