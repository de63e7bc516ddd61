//! Young's greedy-dual algorithm, "efficient implementation".
//!
//! Greedy-dual (Young, SODA'98 — reference \[21\] of the paper) assigns each
//! cached object a credit `H`. The textbook algorithm subtracts the victim's
//! `H` from *every* resident object on eviction; the efficient
//! implementation the paper alludes to keeps a global **inflation value**
//! `L` instead: new/hit objects get `H = L + cost/size`, and eviction of
//! the minimum-`H` object sets `L = H_min`. Both are equivalent, but the
//! latter is O(log n) per operation.
//!
//! Two properties the paper relies on:
//!
//! * with non-uniform fetch costs, greedy-dual provides *implicit
//!   coordination* between caches (Korupolu & Dahlin): an object cheaply
//!   re-fetchable from a nearby cache gets a small `H` and is evicted
//!   before an object that must come from the origin server;
//! * Hier-GD (§3) runs this algorithm at the proxy *and* in every client
//!   cache, passing the proxy's evictions down into the P2P client cache.
//!
//! Priorities live in a [`MinHeap`] keyed by `(H, stamp)`; the
//! stamp comes from a monotone clock, so `(H, stamp)` is already a total
//! order and the eviction sequence is bit-identical to the earlier
//! `BTreeSet<(H, stamp, key)>` implementation (a proptest below checks
//! this against a retained reference copy) — without the B-tree's
//! per-operation node allocation.

use crate::heap::{HashIndex, HeapIndex, MinHeap};
use crate::BoundedCache;

/// Bounded greedy-dual cache.
///
/// `X` selects how the heap finds a key: the default hash index for
/// arbitrary keys, [`DenseIndex`](crate::DenseIndex) when keys are dense
/// small integers (the Hier-GD proxy caches), or
/// [`LinearScan`](crate::LinearScan) — no index, one allocation — for a
/// store of a few entries (the client caches). The choice never changes
/// what the cache does, [`keys`](Self::keys) order included.
#[derive(Clone, Debug)]
pub struct GreedyDualCache<K: Copy + Eq = u64, X: HeapIndex<K> = HashIndex<K>> {
    capacity: usize,
    /// key -> (H bits, stamp); min is the eviction victim. Stamps are
    /// unique, so the order is total without comparing keys. `H` is
    /// stored as its raw IEEE-754 bits: every credit is non-negative and
    /// finite (costs are, and `L` only advances to evicted credits), and
    /// for such values `f64::total_cmp` order equals unsigned bit order —
    /// so the heap compares plain integers instead of running the
    /// total_cmp bit-twiddle a dozen times per sift.
    heap: MinHeap<(u64, u64), K, X::Locator>,
    inflation: f64,
    clock: u64,
}

impl<K: Copy + Eq, X: HeapIndex<K>> GreedyDualCache<K, X> {
    /// Creates a cache holding at most `capacity` unit-size objects.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        GreedyDualCache {
            capacity,
            heap: MinHeap::with_capacity(capacity),
            inflation: 0.0,
            clock: 0,
        }
    }

    /// Current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Resident credit of `key` (the raw `H`, including inflation).
    pub fn h_value(&self, key: K) -> Option<f64> {
        self.heap.priority(key).map(|(bits, _)| f64::from_bits(bits))
    }

    /// Inserts `key` (known absent) at credit `h` with a fresh stamp.
    fn set_h_new(&mut self, key: K, h: f64) {
        debug_assert!(h.is_finite() && h >= 0.0 && h.is_sign_positive());
        self.clock += 1;
        self.heap.insert_new(key, (h.to_bits(), self.clock));
    }

    /// Records a hit: `H = L + cost/size`.
    /// Returns false if `key` is not resident.
    pub fn touch_with_cost(&mut self, key: K, cost: f64, size: f64) -> bool {
        let h = self.inflation + cost / size;
        debug_assert!(h.is_finite() && h >= 0.0 && h.is_sign_positive());
        // Single lookup: `update` both tests residency and re-stamps.
        if self.heap.update(key, (h.to_bits(), self.clock + 1)) {
            self.clock += 1;
            true
        } else {
            false
        }
    }

    /// Inserts a fetched object with the given fetch `cost` and `size`,
    /// evicting the minimum-credit object if full. Returns the eviction
    /// victim. Inserting a resident key behaves like a hit.
    pub fn insert_with_cost(&mut self, key: K, cost: f64, size: f64) -> Option<K> {
        assert!(cost >= 0.0 && cost.is_finite(), "cost must be finite and non-negative");
        assert!(size > 0.0 && size.is_finite(), "size must be finite and positive");
        if self.touch_with_cost(key, cost, size) {
            return None;
        }
        let evicted = if self.heap.len() >= self.capacity { self.evict() } else { None };
        let h = self.inflation + cost / size;
        self.set_h_new(key, h);
        evicted
    }

    /// Evicts the minimum-credit object, advancing `L` to its credit.
    pub fn evict(&mut self) -> Option<K> {
        let ((bits, _), key) = self.heap.pop_min()?;
        let h = f64::from_bits(bits);
        // Inflation is monotone: every resident H >= L by construction.
        debug_assert!(h >= self.inflation);
        self.inflation = h;
        Some(key)
    }

    /// The would-be victim without evicting.
    pub fn peek_victim(&self) -> Option<K> {
        self.heap.peek_min().map(|(_, k)| k)
    }

    /// Iterates over resident keys in eviction (ascending credit) order.
    ///
    /// Builds a sorted snapshot (O(n log n)) — inspection use only. Hot
    /// paths that don't need ordering should use [`keys`](Self::keys).
    pub fn keys_by_credit(&self) -> impl Iterator<Item = K> {
        self.heap.sorted_snapshot().into_iter().map(|(_, k)| k)
    }

    /// Iterates over resident keys in heap-array order, without
    /// allocating. The order is a function of the operations applied and
    /// is the same for every `X`; the P2P membership paths hand objects
    /// off in it.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.heap.iter().map(|(_, k)| k)
    }

    /// True if the cache has spare capacity.
    pub fn has_free_space(&self) -> bool {
        self.heap.len() < self.capacity
    }
}

impl<K: Copy + Eq + std::hash::Hash, X: HeapIndex<K>> BoundedCache<K> for GreedyDualCache<K, X> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn contains(&self, key: K) -> bool {
        self.heap.contains(key)
    }

    fn touch(&mut self, key: K) -> bool {
        self.touch_with_cost(key, 1.0, 1.0)
    }

    fn insert(&mut self, key: K) -> Option<K> {
        self.insert_with_cost(key, 1.0, 1.0)
    }

    fn remove(&mut self, key: K) -> bool {
        self.heap.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_objects_evicted_before_expensive() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, 1.0, 1.0); // cheap (nearby copy)
        c.insert_with_cost(2, 10.0, 1.0); // expensive (origin server)
        assert_eq!(c.insert_with_cost(3, 5.0, 1.0), Some(1));
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn inflation_advances_on_eviction() {
        let mut c: GreedyDualCache = GreedyDualCache::new(1);
        c.insert_with_cost(1u64, 4.0, 1.0);
        assert_eq!(c.inflation(), 0.0);
        c.insert_with_cost(2, 4.0, 1.0); // evicts 1 at H=4
        assert_eq!(c.inflation(), 4.0);
        assert_eq!(c.h_value(2), Some(8.0)); // L(4) + 4
    }

    #[test]
    fn inflation_gives_recency_effect() {
        // An old expensive object eventually loses to repeatedly-missed
        // cheap objects — greedy-dual's aging at work.
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(100u64, 5.0, 1.0); // H = 5
        c.insert_with_cost(0, 1.0, 1.0); // H = 1
                                         // Each round evicts the cheap slot at rising H; once L exceeds 4,
                                         // a new cheap insert outranks the stale expensive object.
        for next in 1u64..=8 {
            c.insert_with_cost(next, 1.0, 1.0);
        }
        assert!(
            !c.contains(100),
            "expensive-but-stale object should age out (L={})",
            c.inflation()
        );
    }

    #[test]
    fn hit_refreshes_credit() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, 2.0, 1.0);
        c.insert_with_cost(2, 2.0, 1.0);
        assert!(c.touch_with_cost(1, 2.0, 1.0));
        // 2 is now the victim despite equal cost (older stamp at same H).
        assert_eq!(c.peek_victim(), Some(2));
    }

    #[test]
    fn size_divides_credit() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, 10.0, 10.0); // credit 1
        c.insert_with_cost(2, 10.0, 2.0); // credit 5
        assert_eq!(c.insert_with_cost(3, 10.0, 5.0), Some(1));
    }

    #[test]
    fn uniform_costs_behave_fifo_without_hits() {
        let mut c: GreedyDualCache = GreedyDualCache::new(3);
        for k in 0u64..3 {
            c.insert(k);
        }
        for k in 3u64..8 {
            assert_eq!(c.insert(k), Some(k - 3));
        }
    }

    #[test]
    fn resident_reinsert_is_hit() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, 1.0, 1.0);
        assert_eq!(c.insert_with_cost(1, 9.0, 1.0), None);
        assert_eq!(c.h_value(1), Some(9.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_clears_order() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, 1.0, 1.0);
        assert!(c.remove(1));
        assert_eq!(c.peek_victim(), None);
        assert!(!c.remove(1));
        assert!(c.has_free_space());
    }

    #[test]
    fn credits_monotone_with_inflation() {
        let mut c: GreedyDualCache = GreedyDualCache::new(4);
        for k in 0u64..100 {
            c.insert_with_cost(k, ((k % 7) + 1) as f64, 1.0);
            // Every resident credit must be >= L.
            let l = c.inflation();
            for key in c.keys_by_credit() {
                assert!(c.h_value(key).unwrap() >= l);
            }
        }
    }

    #[test]
    fn keys_by_credit_ascending() {
        let mut c: GreedyDualCache = GreedyDualCache::new(4);
        c.insert_with_cost(1u64, 3.0, 1.0);
        c.insert_with_cost(2, 1.0, 1.0);
        c.insert_with_cost(3, 2.0, 1.0);
        let order: Vec<u64> = c.keys_by_credit().collect();
        assert_eq!(order, vec![2, 3, 1]);
        // Unordered iteration sees the same key set.
        let mut all: Vec<u64> = c.keys().collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn rejects_negative_cost() {
        let mut c: GreedyDualCache = GreedyDualCache::new(2);
        c.insert_with_cost(1u64, -1.0, 1.0);
    }

    proptest::proptest! {
        #[test]
        fn never_exceeds_capacity_and_victim_is_min(
            ops in proptest::collection::vec((0u64..30, 1u32..20), 1..300)
        ) {
            let mut c: GreedyDualCache = GreedyDualCache::new(6);
            for (key, cost) in ops {
                let victim_pred = if c.len() == 6 && !c.contains(key) { c.peek_victim() } else { None };
                let evicted = c.insert_with_cost(key, cost as f64, 1.0);
                if let Some(v) = victim_pred {
                    proptest::prop_assert_eq!(evicted, Some(v));
                }
                proptest::prop_assert!(c.len() <= 6);
            }
        }
    }

    /// The pre-heap implementation, retained verbatim as the oracle for
    /// the eviction-sequence equivalence proptest below.
    mod reference {
        use crate::BoundedCache;
        use std::collections::{BTreeSet, HashMap};
        use std::hash::Hash;

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

        #[derive(Clone, Debug)]
        pub struct BTreeGreedyDualCache<K: Ord + Copy = u64> {
            capacity: usize,
            entries: HashMap<K, (f64, u64)>,
            order: BTreeSet<(H, u64, K)>,
            inflation: f64,
            clock: u64,
        }

        impl<K: Copy + Eq + Hash + Ord> BTreeGreedyDualCache<K> {
            pub fn new(capacity: usize) -> Self {
                assert!(capacity > 0);
                BTreeGreedyDualCache {
                    capacity,
                    entries: HashMap::new(),
                    order: BTreeSet::new(),
                    inflation: 0.0,
                    clock: 0,
                }
            }

            pub fn inflation(&self) -> f64 {
                self.inflation
            }

            pub fn h_value(&self, key: K) -> Option<f64> {
                self.entries.get(&key).map(|&(h, _)| h)
            }

            fn set_h(&mut self, key: K, h: f64) {
                self.clock += 1;
                if let Some(&(old, stamp)) = self.entries.get(&key) {
                    self.order.remove(&(H(old), stamp, key));
                }
                self.entries.insert(key, (h, self.clock));
                self.order.insert((H(h), self.clock, key));
            }

            pub fn touch_with_cost(&mut self, key: K, cost: f64, size: f64) -> bool {
                if !self.entries.contains_key(&key) {
                    return false;
                }
                let h = self.inflation + cost / size;
                self.set_h(key, h);
                true
            }

            pub fn insert_with_cost(&mut self, key: K, cost: f64, size: f64) -> Option<K> {
                if self.touch_with_cost(key, cost, size) {
                    return None;
                }
                let evicted = if self.entries.len() >= self.capacity { self.evict() } else { None };
                let h = self.inflation + cost / size;
                self.set_h(key, h);
                evicted
            }

            pub fn evict(&mut self) -> Option<K> {
                let &(H(h), stamp, key) = self.order.iter().next()?;
                self.order.remove(&(H(h), stamp, key));
                self.entries.remove(&key);
                self.inflation = h;
                Some(key)
            }

            pub fn peek_victim(&self) -> Option<K> {
                self.order.iter().next().map(|&(_, _, k)| k)
            }

            pub fn keys_by_credit(&self) -> impl Iterator<Item = K> + '_ {
                self.order.iter().map(|&(_, _, k)| k)
            }
        }

        impl<K: Copy + Eq + Hash + Ord> BoundedCache<K> for BTreeGreedyDualCache<K> {
            fn capacity(&self) -> usize {
                self.capacity
            }
            fn len(&self) -> usize {
                self.entries.len()
            }
            fn contains(&self, key: K) -> bool {
                self.entries.contains_key(&key)
            }
            fn touch(&mut self, key: K) -> bool {
                self.touch_with_cost(key, 1.0, 1.0)
            }
            fn insert(&mut self, key: K) -> Option<K> {
                self.insert_with_cost(key, 1.0, 1.0)
            }
            fn remove(&mut self, key: K) -> bool {
                if let Some((h, stamp)) = self.entries.remove(&key) {
                    self.order.remove(&(H(h), stamp, key));
                    true
                } else {
                    false
                }
            }
        }
    }

    proptest::proptest! {
        /// The heap-backed cache must replay the reference BTreeSet
        /// implementation *exactly*: same eviction victims in the same
        /// order, same inflation trajectory, same credits, same victim
        /// prediction, same ascending-credit iteration.
        #[test]
        fn heap_matches_btreeset_reference(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..25, 1u32..16, 1u32..4), 1..400
            )
        ) {
            let mut heap_gd: GreedyDualCache = GreedyDualCache::new(5);
            let mut ref_gd = reference::BTreeGreedyDualCache::new(5);
            for (op, key, cost, size) in ops {
                let (cost, size) = (cost as f64, size as f64);
                match op {
                    0 => {
                        let a = heap_gd.insert_with_cost(key, cost, size);
                        let b = ref_gd.insert_with_cost(key, cost, size);
                        proptest::prop_assert_eq!(a, b, "eviction victims diverged");
                    }
                    1 => {
                        proptest::prop_assert_eq!(
                            heap_gd.touch_with_cost(key, cost, size),
                            ref_gd.touch_with_cost(key, cost, size)
                        );
                    }
                    2 => {
                        proptest::prop_assert_eq!(heap_gd.remove(key), ref_gd.remove(key));
                    }
                    _ => {
                        proptest::prop_assert_eq!(heap_gd.evict(), ref_gd.evict());
                    }
                }
                proptest::prop_assert_eq!(heap_gd.len(), ref_gd.len());
                proptest::prop_assert_eq!(
                    heap_gd.inflation().to_bits(),
                    ref_gd.inflation().to_bits(),
                    "inflation diverged"
                );
                proptest::prop_assert_eq!(heap_gd.peek_victim(), ref_gd.peek_victim());
                proptest::prop_assert_eq!(heap_gd.h_value(key), ref_gd.h_value(key));
                let a: Vec<u64> = heap_gd.keys_by_credit().collect();
                let b: Vec<u64> = ref_gd.keys_by_credit().collect();
                proptest::prop_assert_eq!(a, b, "credit order diverged");
            }
        }

        /// A client cache's store (`LinearScan`) against the same cache
        /// on an index, at every capacity a client cache is given: each
        /// return value, the victim, the credits, the inflation and —
        /// what the P2P membership paths hand objects off in — the
        /// `keys()` order must agree after every operation.
        #[test]
        fn linear_scan_matches_hash_index(
            cap in 1usize..65,
            ops in proptest::collection::vec(
                (0u8..4, 0u64..128, 1u32..16, 1u32..4), 1..400
            )
        ) {
            let mut flat: GreedyDualCache<u128, crate::LinearScan> = GreedyDualCache::new(cap);
            let mut indexed: GreedyDualCache<u128, HashIndex<u128>> = GreedyDualCache::new(cap);
            let universe = 2 * cap as u64;
            for (op, key, cost, size) in ops {
                // Spread the keys over the id space as SHA-derived ids are.
                let key = u128::from(key % universe)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
                let (cost, size) = (f64::from(cost), f64::from(size));
                match op {
                    0 => proptest::prop_assert_eq!(
                        flat.insert_with_cost(key, cost, size),
                        indexed.insert_with_cost(key, cost, size),
                        "eviction victims diverged"
                    ),
                    1 => proptest::prop_assert_eq!(
                        flat.touch_with_cost(key, cost, size),
                        indexed.touch_with_cost(key, cost, size)
                    ),
                    2 => proptest::prop_assert_eq!(flat.remove(key), indexed.remove(key)),
                    _ => proptest::prop_assert_eq!(flat.evict(), indexed.evict()),
                }
                proptest::prop_assert_eq!(flat.len(), indexed.len());
                proptest::prop_assert_eq!(flat.has_free_space(), indexed.has_free_space());
                proptest::prop_assert_eq!(
                    flat.inflation().to_bits(),
                    indexed.inflation().to_bits()
                );
                proptest::prop_assert_eq!(flat.peek_victim(), indexed.peek_victim());
                proptest::prop_assert_eq!(flat.contains(key), indexed.contains(key));
                proptest::prop_assert_eq!(flat.h_value(key), indexed.h_value(key));
                let a: Vec<u128> = flat.keys().collect();
                let b: Vec<u128> = indexed.keys().collect();
                proptest::prop_assert_eq!(a, b, "keys() order diverged");
            }
        }
    }
}
