//! A proxy *site*: the proxy cache plus (optionally) its unified P2P
//! client-cache tier.
//!
//! For the NC-EC/SC-EC upper-bound schemes the paper "simulate\[s\] a P2P
//! client cache as one single cache whose size is the sum of all client
//! cache sizes in a client cluster" (§5.1), coordinated with the proxy so
//! the pair "appear as one unified cache" (§2). [`TwoTierLfuSite`] realizes
//! that: an exclusive two-level LFU hierarchy where frequency counts
//! survive tier transfers — evictions from the proxy tier demote into the
//! P2P tier, P2P-tier hits promote back — so membership of the combined
//! cache is exactly what a single LFU of the combined size would hold,
//! while the *tier* an object occupies determines its access latency.

use webcache_policy::{BoundedCache, DenseIndex, LfuCache};
use webcache_workload::ObjectId;

/// One LFU tier. Trace object ids are dense (`0..num_objects`), so the
/// key → slot index is a plain array rather than a hash table.
type Tier = LfuCache<ObjectId, DenseIndex>;

/// Which tier of a site holds an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteTier {
    /// The proxy cache itself (latency `Tl`).
    Proxy,
    /// The unified P2P client cache (latency `Tl + Tp2p` locally).
    P2p,
}

/// Movement counters between a site's tiers, for observability: how much
/// churn the exclusive two-level hierarchy generates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierTraffic {
    /// P2P-tier hits that earned the object a proxy-tier slot.
    pub promotions: u64,
    /// Proxy-tier victims demoted into the P2P tier.
    pub demotions: u64,
    /// Objects pushed out of the site entirely (both tiers full).
    pub spills: u64,
}

/// Proxy cache plus optional unified P2P tier, LFU-managed.
#[derive(Clone, Debug)]
pub struct TwoTierLfuSite {
    proxy: Tier,
    p2p: Option<Tier>,
    traffic: TierTraffic,
}

impl TwoTierLfuSite {
    /// A site with a `proxy_capacity`-object proxy cache and, when
    /// `p2p_capacity > 0`, a unified P2P tier of that size.
    pub fn new(proxy_capacity: usize, p2p_capacity: usize) -> Self {
        TwoTierLfuSite {
            proxy: Tier::with_index(proxy_capacity.max(1)),
            p2p: (p2p_capacity > 0).then(|| Tier::with_index(p2p_capacity)),
            traffic: TierTraffic::default(),
        }
    }

    /// Tier-movement counters accumulated so far.
    pub fn traffic(&self) -> TierTraffic {
        self.traffic
    }

    /// Where `object` is resident, if anywhere (no side effects).
    pub fn tier_of(&self, object: ObjectId) -> Option<SiteTier> {
        if self.proxy.contains(object) {
            Some(SiteTier::Proxy)
        } else if self.p2p.as_ref().is_some_and(|c| c.contains(object)) {
            Some(SiteTier::P2p)
        } else {
            None
        }
    }

    /// Serves a *local* request: registers the access and, when the
    /// object's updated frequency earns a proxy-tier slot, promotes it
    /// (demoting the proxy victim into the P2P tier) — keeping the proxy
    /// tier the top of the unified LFU ranking. Returns the tier that
    /// served the request, or `None` on a miss.
    pub fn lookup(&mut self, object: ObjectId) -> Option<SiteTier> {
        if self.proxy.touch(object) {
            return Some(SiteTier::Proxy);
        }
        let p2p = self.p2p.as_mut()?;
        let freq = p2p.frequency(object)?.saturating_add(1);
        // Promote when the object now outranks the proxy tier's victim
        // (ties go to the newer access, as within one LFU frequency).
        let deserves_proxy = self.proxy.len() < self.proxy.capacity()
            || freq >= self.proxy.min_frequency().unwrap_or(u64::MAX);
        if deserves_proxy {
            p2p.remove(object);
            self.traffic.promotions += 1;
            if let Some((victim, vf)) = self.proxy.insert_with_frequency(object, freq) {
                // Demotion cannot overflow: the P2P tier just lost `object`.
                let spilled =
                    self.p2p.as_mut().expect("p2p tier exists").insert_with_frequency(victim, vf);
                debug_assert!(spilled.is_none());
                self.traffic.demotions += 1;
            }
        } else {
            p2p.touch(object);
        }
        Some(SiteTier::P2p)
    }

    /// Registers an access from a *cooperating proxy* (SC/SC-EC remote
    /// hit): the serving cache sees the reference, but no promotion
    /// happens — the object was not requested by this site's clients.
    pub fn remote_touch(&mut self, object: ObjectId) {
        if !self.proxy.touch(object) {
            if let Some(p2p) = self.p2p.as_mut() {
                p2p.touch(object);
            }
        }
    }

    /// Admits a freshly fetched object into the site at LFU frequency 1,
    /// placing it by rank: into the proxy tier when there is room or the
    /// proxy victim is also at frequency 1 (the newer access outranks
    /// it), otherwise directly into the P2P tier. Demotions cascade; the
    /// object that left the site entirely, if any, is returned.
    pub fn admit(&mut self, object: ObjectId) -> Option<ObjectId> {
        debug_assert!(self.tier_of(object).is_none(), "admit is for misses");
        let Some(p2p) = self.p2p.as_mut() else {
            let spilled = self.proxy.insert_with_frequency(object, 1).map(|(k, _)| k);
            self.traffic.spills += spilled.is_some() as u64;
            return spilled;
        };
        let proxy_has_room = self.proxy.len() < self.proxy.capacity();
        let spilled = if proxy_has_room || self.proxy.min_frequency() <= Some(1) {
            let demoted = self.proxy.insert_with_frequency(object, 1)?;
            self.traffic.demotions += 1;
            p2p.insert_with_frequency(demoted.0, demoted.1).map(|(k, _)| k)
        } else {
            // Every proxy-tier resident outranks a fresh object; it joins
            // the P2P tier directly.
            p2p.insert_with_frequency(object, 1).map(|(k, _)| k)
        };
        self.traffic.spills += spilled.is_some() as u64;
        spilled
    }

    /// Objects resident in the proxy tier.
    pub fn proxy_len(&self) -> usize {
        self.proxy.len()
    }

    /// Objects resident in the P2P tier (0 without one).
    pub fn p2p_len(&self) -> usize {
        self.p2p.as_ref().map_or(0, Tier::len)
    }

    /// Combined resident count.
    pub fn len(&self) -> usize {
        self.proxy_len() + self.p2p_len()
    }

    /// True if the site caches nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_only_site() {
        let mut s = TwoTierLfuSite::new(2, 0);
        assert_eq!(s.admit(1), None);
        assert_eq!(s.admit(2), None);
        assert_eq!(s.lookup(1), Some(SiteTier::Proxy));
        // Full: admitting displaces the LFU victim out of the site.
        let out = s.admit(3);
        assert_eq!(out, Some(2));
        assert_eq!(s.tier_of(2), None);
    }

    #[test]
    fn eviction_demotes_into_p2p_tier() {
        let mut s = TwoTierLfuSite::new(1, 2);
        s.admit(1);
        s.admit(2); // 1 demoted to p2p
        assert_eq!(s.tier_of(2), Some(SiteTier::Proxy));
        assert_eq!(s.tier_of(1), Some(SiteTier::P2p));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn p2p_hit_promotes_and_keeps_frequency() {
        let mut s = TwoTierLfuSite::new(1, 2);
        s.admit(1); // proxy{1:f1}
        s.lookup(1); // f2
                     // A fresh object cannot outrank the f2 resident: straight to P2P.
        s.admit(2);
        assert_eq!(s.tier_of(1), Some(SiteTier::Proxy));
        assert_eq!(s.tier_of(2), Some(SiteTier::P2p));
        // Second access to 2 brings it to f2 — ties promote the newer.
        assert_eq!(s.lookup(2), Some(SiteTier::P2p));
        assert_eq!(s.tier_of(2), Some(SiteTier::Proxy));
        assert_eq!(s.tier_of(1), Some(SiteTier::P2p), "demoted with f2 intact");
        // 1 hits again (f3 > f2): promoted back, 2 demoted.
        assert_eq!(s.lookup(1), Some(SiteTier::P2p));
        assert_eq!(s.tier_of(1), Some(SiteTier::Proxy));
        // A cold admit never displaces the hot proxy resident.
        s.admit(3);
        assert_eq!(s.tier_of(1), Some(SiteTier::Proxy));
        assert_eq!(s.tier_of(3), Some(SiteTier::P2p));
    }

    #[test]
    fn cold_admits_do_not_thrash_hot_proxy_tier() {
        let mut s = TwoTierLfuSite::new(2, 4);
        s.admit(1);
        s.admit(2);
        for _ in 0..3 {
            s.lookup(1);
            s.lookup(2);
        }
        for cold in 10..30 {
            s.admit(cold);
            assert_eq!(s.tier_of(1), Some(SiteTier::Proxy), "after cold admit {cold}");
            assert_eq!(s.tier_of(2), Some(SiteTier::Proxy), "after cold admit {cold}");
        }
    }

    proptest::proptest! {
        #[test]
        fn combined_membership_matches_unified_lfu(
            proxy in 1usize..5,
            p2p in 0usize..6,
            stream in proptest::collection::vec(0u32..12, 0..301)
        ) {
            // A site and a single LFU of the combined size, driven by the
            // same access stream, must hold the same objects.
            let mut site = TwoTierLfuSite::new(proxy, p2p);
            let mut unified = LfuCache::new(proxy + p2p);
            for (i, &o) in stream.iter().enumerate() {
                if site.lookup(o).is_none() {
                    site.admit(o);
                }
                if !unified.touch(o) {
                    unified.insert(o);
                }
                for k in 0..12u32 {
                    proptest::prop_assert_eq!(
                        site.tier_of(k).is_some(),
                        unified.contains(k),
                        "object {} after request {}",
                        k,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn a_p2p_hit_at_the_top_frequency_saturates() {
        let mut s = TwoTierLfuSite::new(1, 1);
        s.admit(1);
        s.admit(2); // 1 demoted into the P2P tier
        let p2p = s.p2p.as_mut().expect("p2p tier exists");
        p2p.insert_with_frequency(1, u64::MAX);
        // Outranks the proxy resident without wrapping to zero.
        assert_eq!(s.lookup(1), Some(SiteTier::P2p));
        assert_eq!(s.tier_of(1), Some(SiteTier::Proxy));
        assert_eq!(s.proxy.frequency(1), Some(u64::MAX));
    }

    #[test]
    fn spill_leaves_site_when_both_tiers_full() {
        let mut s = TwoTierLfuSite::new(1, 1);
        s.admit(1);
        s.admit(2);
        let out = s.admit(3);
        assert!(out.is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remote_touch_bumps_without_promotion() {
        let mut s = TwoTierLfuSite::new(1, 2);
        s.admit(1);
        s.admit(2); // 1 in p2p
        s.remote_touch(1);
        assert_eq!(s.tier_of(1), Some(SiteTier::P2p), "remote touch must not promote");
    }

    #[test]
    fn lookup_miss_is_none() {
        let mut s = TwoTierLfuSite::new(2, 2);
        assert_eq!(s.lookup(42), None);
        assert!(s.is_empty());
    }

    #[test]
    fn traffic_counts_tier_movements() {
        let mut s = TwoTierLfuSite::new(1, 1);
        assert_eq!(s.traffic(), TierTraffic::default());
        s.admit(1); // proxy has room: no movement
        s.admit(2); // 1 demoted into p2p
        assert_eq!(s.traffic(), TierTraffic { promotions: 0, demotions: 1, spills: 0 });
        s.admit(3); // demotes 2, spills 1 out of the site
        assert_eq!(s.traffic(), TierTraffic { promotions: 0, demotions: 2, spills: 1 });
        s.lookup(1); // miss: nothing
        let before = s.traffic();
        // A p2p hit that promotes bumps promotions (and demotes the proxy victim).
        s.lookup(2);
        let after = s.traffic();
        assert_eq!(after.promotions, before.promotions + 1);
        assert_eq!(after.demotions, before.demotions + 1);
    }

    #[test]
    fn proxy_only_spills_are_counted() {
        let mut s = TwoTierLfuSite::new(2, 0);
        s.admit(1);
        s.admit(2);
        s.admit(3);
        assert_eq!(s.traffic(), TierTraffic { promotions: 0, demotions: 0, spills: 1 });
    }
}
