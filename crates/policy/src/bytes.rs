//! Byte-bounded, size-aware caches: GreedyDual-Size and byte-LRU.
//!
//! The paper assumes unit-size objects (§5.1 assumption 1), but its
//! workload generator (ProWGen) models realistic sizes — lognormal body,
//! Pareto tail — precisely so that size-aware policies can be studied.
//! This module lifts that restriction for the `ablation_gds` bench:
//!
//! * [`GreedyDualSizeCache`] — GreedyDual-Size (Cao & Irani, USITS'97),
//!   the size-aware generalization of the greedy-dual algorithm Hier-GD
//!   uses: credit `H = L + cost/size`, capacity counted in **bytes**, and
//!   eviction of minimum-credit objects until the incoming object fits.
//! * [`ByteLruCache`] — plain LRU with a byte budget, the baseline.
//!
//! Both refuse objects larger than the whole cache (served but never
//! stored — standard proxy behaviour).

use crate::fifo::{Fifo, FifoSlab, HashIndex};
use std::collections::BTreeSet;
use std::hash::Hash;
use webcache_primitives::FxHashMap;

/// Total-ordered f64 wrapper (no NaNs are ever produced by the policies).
#[derive(Clone, Copy, Debug, PartialEq)]
struct H(f64);

impl Eq for H {}

impl PartialOrd for H {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for H {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Byte-bounded GreedyDual-Size cache.
#[derive(Clone, Debug)]
pub struct GreedyDualSizeCache<K: Ord + Copy = u64> {
    capacity_bytes: u64,
    used_bytes: u64,
    /// key -> (H, stamp, size)
    entries: FxHashMap<K, (f64, u64, u32)>,
    /// (H, stamp, key): first element is the victim.
    order: BTreeSet<(H, u64, K)>,
    inflation: f64,
    clock: u64,
}

impl<K: Copy + Eq + Hash + Ord> GreedyDualSizeCache<K> {
    /// Creates a cache with a byte budget.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        GreedyDualSizeCache {
            capacity_bytes,
            used_bytes: 0,
            entries: FxHashMap::default(),
            order: BTreeSet::new(),
            inflation: 0.0,
            clock: 0,
        }
    }

    /// Byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `key` is resident.
    pub fn contains(&self, key: K) -> bool {
        self.entries.contains_key(&key)
    }

    /// Current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    fn set_h(&mut self, key: K, h: f64, size: u32) {
        self.clock += 1;
        if let Some(&(old, stamp, old_size)) = self.entries.get(&key) {
            self.order.remove(&(H(old), stamp, key));
            self.used_bytes -= u64::from(old_size);
        }
        self.entries.insert(key, (h, self.clock, size));
        self.order.insert((H(h), self.clock, key));
        self.used_bytes += u64::from(size);
    }

    /// Records a hit: `H = L + cost/size`. Returns false on a miss.
    pub fn touch(&mut self, key: K, cost: f64) -> bool {
        let Some(&(_, _, size)) = self.entries.get(&key) else {
            return false;
        };
        let h = self.inflation + cost / f64::from(size.max(1));
        self.set_h(key, h, size);
        true
    }

    /// Inserts a fetched object, evicting minimum-credit objects until it
    /// fits. Returns the evicted keys. Objects larger than the whole cache
    /// are refused (empty eviction list, object not stored).
    pub fn insert(&mut self, key: K, cost: f64, size: u32) -> Vec<K> {
        assert!(cost >= 0.0 && cost.is_finite(), "cost must be finite and non-negative");
        assert!(size > 0, "size must be positive");
        if self.touch(key, cost) {
            return Vec::new();
        }
        if u64::from(size) > self.capacity_bytes {
            return Vec::new(); // uncacheable: pass through
        }
        let mut evicted = Vec::new();
        while self.used_bytes + u64::from(size) > self.capacity_bytes {
            let victim = self.evict().expect("used > 0 while over budget");
            evicted.push(victim);
        }
        let h = self.inflation + cost / f64::from(size);
        self.set_h(key, h, size);
        evicted
    }

    /// Evicts the minimum-credit object, advancing `L`.
    pub fn evict(&mut self) -> Option<K> {
        let &(H(h), stamp, key) = self.order.iter().next()?;
        self.order.remove(&(H(h), stamp, key));
        let (_, _, size) = self.entries.remove(&key).expect("ordered entry is resident");
        self.used_bytes -= u64::from(size);
        debug_assert!(h >= self.inflation);
        self.inflation = h;
        Some(key)
    }

    /// Removes `key`; returns true if it was resident.
    pub fn remove(&mut self, key: K) -> bool {
        if let Some((h, stamp, size)) = self.entries.remove(&key) {
            self.order.remove(&(H(h), stamp, key));
            self.used_bytes -= u64::from(size);
            true
        } else {
            false
        }
    }
}

/// Byte-bounded LRU cache: one FIFO in last-use order, as
/// [`LruCache`](crate::LruCache), with each entry's size beside its key.
#[derive(Clone, Debug)]
pub struct ByteLruCache<K: Copy = u64> {
    capacity_bytes: u64,
    used_bytes: u64,
    /// The resident keys and their sizes.
    slab: FifoSlab<K, u32, HashIndex<K>>,
    /// Least recently used at the head.
    order: Fifo,
}

impl<K: Copy + Eq + Hash> ByteLruCache<K> {
    /// Creates a cache with a byte budget.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        ByteLruCache {
            capacity_bytes,
            used_bytes: 0,
            slab: FifoSlab::with_capacity(0),
            order: Fifo::EMPTY,
        }
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `key` is resident.
    pub fn contains(&self, key: K) -> bool {
        self.slab.get(&key).is_some()
    }

    /// Records a hit; returns false on a miss.
    pub fn touch(&mut self, key: K) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        self.slab.unlink(&mut self.order, node);
        self.slab.push_back(&mut self.order, node, 0);
        true
    }

    /// Inserts an object, evicting LRU objects until it fits; returns the
    /// evicted keys. Oversized objects are refused.
    pub fn insert(&mut self, key: K, size: u32) -> Vec<K> {
        assert!(size > 0, "size must be positive");
        if self.touch(key) {
            return Vec::new();
        }
        if u64::from(size) > self.capacity_bytes {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used_bytes + u64::from(size) > self.capacity_bytes {
            let node = self.order.front().expect("over budget implies non-empty");
            let (victim, vsize) = self.slab.release(&mut self.order, node);
            self.used_bytes -= u64::from(vsize);
            evicted.push(victim);
        }
        let node = self.slab.alloc(key, size);
        self.slab.push_back(&mut self.order, node, 0);
        self.used_bytes += u64::from(size);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gds_prefers_small_and_expensive() {
        let mut c = GreedyDualSizeCache::new(100);
        // H = cost/size: big cheap object has tiny credit.
        c.insert(1u64, 1.0, 80); // H = 0.0125
        c.insert(2, 10.0, 10); // H = 1.0
                               // Inserting a 50-byte object must evict the big cheap one only.
        let evicted = c.insert(3, 5.0, 50);
        assert_eq!(evicted, vec![1]);
        assert!(c.contains(2) && c.contains(3));
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn gds_evicts_multiple_until_fit() {
        let mut c = GreedyDualSizeCache::new(100);
        for k in 0u64..10 {
            c.insert(k, 1.0, 10);
        }
        assert_eq!(c.used_bytes(), 100);
        let evicted = c.insert(100, 1.0, 55);
        assert_eq!(evicted.len(), 6, "needs 55 bytes: evict six 10-byte objects");
        assert_eq!(c.used_bytes(), 95);
    }

    #[test]
    fn gds_refuses_oversized() {
        let mut c = GreedyDualSizeCache::new(100);
        c.insert(1u64, 1.0, 50);
        let evicted = c.insert(2, 99.0, 200);
        assert!(evicted.is_empty());
        assert!(!c.contains(2));
        assert!(c.contains(1), "oversized insert must not disturb residents");
    }

    #[test]
    fn gds_hit_refreshes_credit() {
        let mut c = GreedyDualSizeCache::new(30);
        c.insert(1u64, 1.0, 10);
        c.insert(2, 1.0, 10);
        c.insert(3, 1.0, 10);
        assert!(c.touch(1, 1.0));
        // 2 is now the oldest minimum-credit entry.
        let evicted = c.insert(4, 1.0, 10);
        assert_eq!(evicted, vec![2]);
    }

    #[test]
    fn gds_inflation_monotone_and_bytes_consistent() {
        let mut c = GreedyDualSizeCache::new(500);
        let mut last_l = 0.0;
        for k in 0u64..200 {
            c.insert(k, ((k % 5) + 1) as f64, ((k % 7) + 1) as u32 * 10);
            assert!(c.inflation() >= last_l, "inflation must never decrease");
            last_l = c.inflation();
            assert!(c.used_bytes() <= 500);
            let sum: u64 = c.entries.values().map(|&(_, _, s)| u64::from(s)).sum();
            assert_eq!(sum, c.used_bytes(), "byte accounting drift");
        }
    }

    #[test]
    fn gds_remove() {
        let mut c = GreedyDualSizeCache::new(100);
        c.insert(1u64, 1.0, 40);
        assert!(c.remove(1));
        assert_eq!(c.used_bytes(), 0);
        assert!(!c.remove(1));
        assert!(c.is_empty());
    }

    #[test]
    fn byte_lru_evicts_oldest_until_fit() {
        let mut c = ByteLruCache::new(100);
        c.insert(1u64, 40);
        c.insert(2, 40);
        c.touch(1);
        let evicted = c.insert(3, 50); // must evict 2 (older), keep 1
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1) && c.contains(3));
        assert_eq!(c.used_bytes(), 90);
    }

    #[test]
    fn byte_lru_refuses_oversized() {
        let mut c = ByteLruCache::new(100);
        c.insert(1u64, 99);
        assert!(c.insert(2, 101).is_empty());
        assert!(c.contains(1));
    }

    proptest::proptest! {
        #[test]
        fn byte_lru_matches_a_naive_model(
            cap in 1u64..120,
            ops in proptest::collection::vec((0u8..2, 0u64..24, 1u32..60), 1..400)
        ) {
            let mut c = ByteLruCache::new(cap);
            // The model: resident (key, stamp, size) triples, searched
            // linearly; the victim is the minimum stamp.
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            for (stamp, (op, key, size)) in ops.into_iter().enumerate() {
                let stamp = stamp as u64;
                let at = model.iter().position(|e| e.0 == key);
                let used = |m: &[(u64, u64, u32)]| m.iter().map(|e| u64::from(e.2)).sum::<u64>();
                match (op, at) {
                    (0 | 1, Some(i)) => {
                        model[i].1 = stamp;
                        if op == 0 {
                            proptest::prop_assert_eq!(c.insert(key, size), Vec::<u64>::new());
                        } else {
                            proptest::prop_assert!(c.touch(key));
                        }
                    }
                    (0, None) => {
                        let mut out = Vec::new();
                        if u64::from(size) <= cap {
                            while used(&model) + u64::from(size) > cap {
                                let i = (0..model.len()).min_by_key(|&i| model[i].1).unwrap();
                                out.push(model.swap_remove(i).0);
                            }
                            model.push((key, stamp, size));
                        }
                        proptest::prop_assert_eq!(c.insert(key, size), out);
                    }
                    _ => proptest::prop_assert!(!c.touch(key)),
                }
                proptest::prop_assert_eq!(c.len(), model.len());
                proptest::prop_assert_eq!(c.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(c.used_bytes(), used(&model));
                for k in 0..24 {
                    proptest::prop_assert_eq!(c.contains(k), model.iter().any(|e| e.0 == k));
                }
            }
        }

        #[test]
        fn byte_budgets_never_exceeded(
            ops in proptest::collection::vec((0u64..30, 1u32..40, 1u32..10), 1..300)
        ) {
            let mut gds = GreedyDualSizeCache::new(200);
            let mut lru = ByteLruCache::new(200);
            for (key, size, cost) in ops {
                if !gds.touch(key, cost as f64) {
                    gds.insert(key, cost as f64, size);
                }
                if !lru.touch(key) {
                    lru.insert(key, size);
                }
                proptest::prop_assert!(gds.used_bytes() <= 200);
                proptest::prop_assert!(lru.used_bytes() <= 200);
            }
        }
    }
}
