//! Least-recently-used cache.

use crate::fifo::{Fifo, FifoSlab, HashIndex};
use crate::BoundedCache;
use std::hash::Hash;

/// Bounded LRU cache over arbitrary keys.
///
/// One FIFO in last-use order: a hit or an insert appends the entry at
/// the tail, so the head is the victim, and every operation is O(1). The
/// greedy-dual literature's baseline policy and a useful reference point
/// in tests (greedy-dual with uniform costs must behave LRU-like).
#[derive(Clone, Debug)]
pub struct LruCache<K> {
    capacity: usize,
    slab: FifoSlab<K, (), HashIndex<K>>,
    /// Least recently used at the head.
    order: Fifo,
}

impl<K: Copy + Eq + Hash> LruCache<K> {
    /// Creates a cache holding at most `capacity` objects.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        LruCache { capacity, slab: FifoSlab::with_capacity(0), order: Fifo::EMPTY }
    }

    /// The least-recently-used key, if any.
    pub fn peek_lru(&self) -> Option<K> {
        self.order.front().map(|n| self.slab.key(n))
    }

    /// Evicts and returns the LRU key.
    pub fn evict(&mut self) -> Option<K> {
        let node = self.order.front()?;
        Some(self.slab.release(&mut self.order, node).0)
    }

    /// Iterates over resident keys in LRU→MRU order.
    pub fn keys_lru_order(&self) -> impl Iterator<Item = K> + '_ {
        self.slab.iter(self.order).map(|(k, ())| k)
    }
}

impl<K: Copy + Eq + Hash> BoundedCache<K> for LruCache<K> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.slab.len()
    }

    fn contains(&self, key: K) -> bool {
        self.slab.get(&key).is_some()
    }

    fn touch(&mut self, key: K) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        self.slab.unlink(&mut self.order, node);
        self.slab.push_back(&mut self.order, node, 0);
        true
    }

    fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(key) {
            return None;
        }
        let evicted = if self.slab.len() >= self.capacity { self.evict() } else { None };
        let node = self.slab.alloc(key, ());
        self.slab.push_back(&mut self.order, node, 0);
        evicted
    }

    fn remove(&mut self, key: K) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        self.slab.release(&mut self.order, node);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recent() {
        let mut c = LruCache::new(3);
        c.insert(1u64);
        c.insert(2);
        c.insert(3);
        assert_eq!(c.peek_lru(), Some(1));
        c.touch(1); // 2 is now oldest
        assert_eq!(c.insert(4), Some(2));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn sequential_scan_evicts_in_order() {
        let mut c = LruCache::new(4);
        for k in 0u64..4 {
            assert_eq!(c.insert(k), None);
        }
        for k in 4u64..10 {
            assert_eq!(c.insert(k), Some(k - 4));
        }
    }

    #[test]
    fn touch_miss_is_false_and_harmless() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(9u64));
        c.insert(1);
        assert!(c.touch(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_order_iteration() {
        let mut c = LruCache::new(3);
        c.insert(10u64);
        c.insert(20);
        c.insert(30);
        c.touch(10);
        let order: Vec<u64> = c.keys_lru_order().collect();
        assert_eq!(order, vec![20, 30, 10]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u64>::new(0);
    }

    /// Removes the model's minimum-stamp entry and returns its key.
    fn evict_oldest(model: &mut Vec<(u64, u64)>) -> Option<u64> {
        let i = (0..model.len()).min_by_key(|&i| model[i].1)?;
        Some(model.swap_remove(i).0)
    }

    proptest::proptest! {
        #[test]
        fn matches_a_naive_model(
            cap in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u64..24), 1..400)
        ) {
            let mut c = LruCache::new(cap);
            // The model: resident (key, stamp) pairs, searched linearly;
            // the victim is the minimum stamp.
            let mut model: Vec<(u64, u64)> = Vec::new();
            for (stamp, (op, key)) in ops.into_iter().enumerate() {
                let stamp = stamp as u64;
                let at = model.iter().position(|e| e.0 == key);
                match (op, at) {
                    (0 | 1, Some(i)) => {
                        model[i].1 = stamp;
                        if op == 0 {
                            proptest::prop_assert_eq!(c.insert(key), None);
                        } else {
                            proptest::prop_assert!(c.touch(key));
                        }
                    }
                    (0, None) => {
                        let out = if model.len() >= cap { evict_oldest(&mut model) } else { None };
                        model.push((key, stamp));
                        proptest::prop_assert_eq!(c.insert(key), out);
                    }
                    (1, None) => proptest::prop_assert!(!c.touch(key)),
                    (2, _) => {
                        at.map(|i| model.swap_remove(i));
                        proptest::prop_assert_eq!(c.remove(key), at.is_some());
                    }
                    _ => proptest::prop_assert_eq!(c.evict(), evict_oldest(&mut model)),
                }
                model.sort_unstable_by_key(|e| e.1);
                let order: Vec<u64> = model.iter().map(|e| e.0).collect();
                proptest::prop_assert_eq!(&order, &c.keys_lru_order().collect::<Vec<_>>());
                proptest::prop_assert_eq!(c.len(), model.len());
                proptest::prop_assert_eq!(c.peek_lru(), order.first().copied());
                for k in 0..24 {
                    proptest::prop_assert_eq!(c.contains(k), order.contains(&k));
                }
            }
        }

        #[test]
        fn never_exceeds_capacity(ops in proptest::collection::vec((0u8..3, 0u64..20), 1..200)) {
            let mut c = LruCache::new(5);
            for (op, key) in ops {
                match op {
                    0 => { c.insert(key); }
                    1 => { c.touch(key); }
                    _ => { c.remove(key); }
                }
                proptest::prop_assert!(c.len() <= 5);
            }
        }
    }
}
