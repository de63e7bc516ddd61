//! Value-ordered store backing the cost-benefit policy.
//!
//! FC and FC-EC coordinate replacement across the whole proxy cluster
//! (§2): with perfect frequency knowledge, the cluster keeps the set of
//! object *copies* whose aggregate latency benefit is highest. The cluster
//! engine (in `webcache-sim`) computes each copy's benefit — a function of
//! the object's request frequency and of how many other copies exist in the
//! cluster — and stores the copy in a [`ValueCache`]; replacement evicts
//! the minimum-value copy when a higher-value copy needs the slot.
//!
//! The store is the LFU's sorted FIFO buckets with the value as the bucket
//! key: one FIFO per resident value, the buckets in ascending value. Every
//! write appends at the tail of its value's FIFO, so the FIFO position is
//! the write order and the victim — the lowest bucket's head — is the
//! minimum `(value, last write)`.

use crate::fifo::{HashIndex, PositionIndex};
use crate::lfu::FreqIndex;
use crate::BoundedCache;
use std::hash::Hash;

/// Returned by [`ValueCache::insert_if_beneficial`] when the incoming
/// value does not beat the resident minimum (the copy is not worth a
/// slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotBeneficial;

impl std::fmt::Display for NotBeneficial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("value does not beat the resident minimum")
    }
}

impl std::error::Error for NotBeneficial {}

/// Total-ordered f64 bucket key (the engine never produces NaN values).
/// Equality agrees with the order — both are `total_cmp` — because
/// equality picks a value's bucket: `-0.0` and `0.0` are two buckets,
/// `-0.0` the lower.
#[derive(Clone, Copy, Debug)]
struct V(f64);

impl PartialEq for V {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for V {}

impl PartialOrd for V {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for V {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded store that always evicts the minimum-value entry, the least
/// recently written among equal values.
///
/// `X` selects the key → node index, as for
/// [`LfuCache`](crate::LfuCache); every method probes it at most once.
#[derive(Clone, Debug)]
pub struct ValueCache<K: Copy + Eq = u64, X: PositionIndex<K> = HashIndex<K>> {
    capacity: usize,
    /// One FIFO per resident value; the lowest one's head is the victim.
    index: FreqIndex<K, X, V>,
}

impl<K: Copy + Eq + Hash> ValueCache<K> {
    /// Creates a store holding at most `capacity` entries, on the default
    /// hash index.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_index(capacity)
    }
}

impl<K: Copy + Eq, X: PositionIndex<K>> ValueCache<K, X> {
    /// Creates a store holding at most `capacity` entries on the position
    /// index named by the type.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_index(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ValueCache { capacity, index: FreqIndex::with_capacity(capacity) }
    }

    /// Current value of `key`.
    pub fn value(&self, key: K) -> Option<f64> {
        self.index.freq(key).map(|V(v)| v)
    }

    /// Sets (or updates) `key`'s value without evicting; returns false if
    /// the store is full and `key` is not resident.
    pub fn set_value(&mut self, key: K, value: f64) -> bool {
        debug_assert!(value.is_finite());
        if self.index.update(key, |_| V(value)) {
            return true;
        }
        if self.index.len() >= self.capacity {
            return false;
        }
        self.index.insert_new(key, V(value));
        true
    }

    /// Inserts `key` at `value`, evicting the minimum-value entry if full
    /// **only when the incoming value exceeds the victim's**; otherwise
    /// the insert is refused. Returns `Ok(evicted)` on success.
    pub fn insert_if_beneficial(&mut self, key: K, value: f64) -> Result<Option<K>, NotBeneficial> {
        debug_assert!(value.is_finite());
        if self.index.update(key, |_| V(value)) {
            return Ok(None);
        }
        let evicted = if self.index.len() >= self.capacity {
            let (vmin, _) = self.peek_min().expect("full store has a minimum");
            if value <= vmin {
                return Err(NotBeneficial);
            }
            self.evict()
        } else {
            None
        };
        self.index.insert_new(key, V(value));
        Ok(evicted)
    }

    /// The minimum value and its key.
    pub fn peek_min(&self) -> Option<(f64, K)> {
        self.index.peek_min().map(|(k, V(v))| (v, k))
    }

    /// Evicts and returns the minimum-value key.
    pub fn evict(&mut self) -> Option<K> {
        self.index.pop_min().map(|(k, _)| k)
    }

    /// Iterates over resident keys in eviction order: ascending value,
    /// least recently written first among equal values. An O(n) walk of
    /// the buckets.
    pub fn keys_by_value(&self) -> impl Iterator<Item = K> + '_ {
        self.index.keys()
    }

    /// True if the store has spare capacity.
    pub fn has_free_space(&self) -> bool {
        self.index.len() < self.capacity
    }
}

impl<K: Copy + Eq + Hash, X: PositionIndex<K>> BoundedCache<K> for ValueCache<K, X> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, key: K) -> bool {
        self.index.contains(key)
    }

    fn touch(&mut self, key: K) -> bool {
        self.index.update(key, |v| v)
    }

    fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(key) {
            return None;
        }
        let evicted = if self.index.len() >= self.capacity { self.evict() } else { None };
        self.index.insert_new(key, V(1.0));
        evicted
    }

    fn remove(&mut self, key: K) -> bool {
        self.index.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_minimum_value() {
        let mut c = ValueCache::new(3);
        c.set_value(1u64, 5.0);
        c.set_value(2, 1.0);
        c.set_value(3, 3.0);
        assert_eq!(c.peek_min(), Some((1.0, 2)));
        assert_eq!(c.evict(), Some(2));
        assert_eq!(c.peek_min(), Some((3.0, 3)));
    }

    #[test]
    fn insert_if_beneficial_refuses_low_values() {
        let mut c = ValueCache::new(2);
        c.set_value(1u64, 5.0);
        c.set_value(2, 3.0);
        assert_eq!(c.insert_if_beneficial(3, 2.0), Err(NotBeneficial));
        assert!(!c.contains(3));
        assert_eq!(c.insert_if_beneficial(4, 4.0), Ok(Some(2)));
        assert!(c.contains(4) && c.contains(1));
    }

    #[test]
    fn equal_value_does_not_thrash() {
        let mut c = ValueCache::new(1);
        c.set_value(1u64, 2.0);
        // Equal value must NOT displace (prevents ping-ponging between
        // equal-benefit copies).
        assert_eq!(c.insert_if_beneficial(2, 2.0), Err(NotBeneficial));
        assert!(c.contains(1));
    }

    #[test]
    fn set_value_respects_capacity() {
        let mut c = ValueCache::new(1);
        assert!(c.set_value(1u64, 1.0));
        assert!(!c.set_value(2, 9.0), "set_value must not evict");
        assert!(c.set_value(1, 9.0), "updating resident is fine");
        assert_eq!(c.value(1), Some(9.0));
    }

    #[test]
    fn update_reorders() {
        let mut c = ValueCache::new(3);
        c.set_value(1u64, 1.0);
        c.set_value(2, 2.0);
        c.set_value(1, 10.0);
        assert_eq!(c.peek_min(), Some((2.0, 2)));
        let order: Vec<u64> = c.keys_by_value().collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn resident_insert_if_beneficial_updates() {
        let mut c = ValueCache::new(2);
        c.set_value(7u64, 1.0);
        assert_eq!(c.insert_if_beneficial(7, 8.0), Ok(None));
        assert_eq!(c.value(7), Some(8.0));
    }

    proptest::proptest! {
        #[test]
        fn hash_and_dense_index_match_a_naive_model(
            ops in proptest::collection::vec((0u8..6, 0u32..40, 0u32..50), 1..400)
        ) {
            use crate::DenseIndex;
            const CAP: usize = 6;
            // The dense table starts at `CAP` slots; keys run far beyond
            // it and exercise the grow path.
            let mut hash = ValueCache::<u32>::new(CAP);
            let mut dense = ValueCache::<u32, DenseIndex>::with_index(CAP);
            // The model: resident (key, value, stamp) triples, searched
            // linearly; the victim is the minimum (value, stamp). Values
            // are small integers, exact as f64 and as u32.
            let mut model: Vec<(u32, u32, u64)> = Vec::new();
            let mut clock = 0u64;
            let mut tick = || {
                clock += 1;
                clock
            };
            let evict = |m: &mut Vec<(u32, u32, u64)>| {
                let i = (0..m.len()).min_by_key(|&i| (m[i].1, m[i].2))?;
                Some(m.swap_remove(i).0)
            };
            for (op, key, v) in ops {
                let key = key * 7 + 100;
                let value = f64::from(v);
                let at = model.iter().position(|e| e.0 == key);
                let full = model.len() >= CAP;
                match (op, at) {
                    (0 | 1, Some(i)) => {
                        model[i].2 = tick();
                        if op == 0 {
                            proptest::prop_assert_eq!(hash.insert(key), None);
                            proptest::prop_assert_eq!(dense.insert(key), None);
                        } else {
                            proptest::prop_assert!(hash.touch(key) && dense.touch(key));
                        }
                    }
                    (0, None) => {
                        let out = if full { evict(&mut model) } else { None };
                        model.push((key, 1, tick()));
                        proptest::prop_assert_eq!(hash.insert(key), out);
                        proptest::prop_assert_eq!(dense.insert(key), out);
                    }
                    (1, None) => {
                        proptest::prop_assert!(!hash.touch(key) && !dense.touch(key));
                    }
                    (2 | 3, Some(i)) => {
                        model[i] = (key, v, tick());
                        if op == 2 {
                            proptest::prop_assert!(hash.set_value(key, value));
                            proptest::prop_assert!(dense.set_value(key, value));
                        } else {
                            proptest::prop_assert_eq!(hash.insert_if_beneficial(key, value), Ok(None));
                            proptest::prop_assert_eq!(dense.insert_if_beneficial(key, value), Ok(None));
                        }
                    }
                    (2, None) => {
                        if !full {
                            model.push((key, v, tick()));
                        }
                        proptest::prop_assert_eq!(hash.set_value(key, value), !full);
                        proptest::prop_assert_eq!(dense.set_value(key, value), !full);
                    }
                    (3, None) => {
                        let vmin = model.iter().map(|e| e.1).min();
                        let expect = if full && Some(v) <= vmin {
                            Err(NotBeneficial)
                        } else {
                            let out = if full { evict(&mut model) } else { None };
                            model.push((key, v, tick()));
                            Ok(out)
                        };
                        proptest::prop_assert_eq!(hash.insert_if_beneficial(key, value), expect);
                        proptest::prop_assert_eq!(dense.insert_if_beneficial(key, value), expect);
                    }
                    (4, _) => {
                        at.map(|i| model.swap_remove(i));
                        proptest::prop_assert_eq!(hash.remove(key), at.is_some());
                        proptest::prop_assert_eq!(dense.remove(key), at.is_some());
                    }
                    _ => {
                        let out = evict(&mut model);
                        proptest::prop_assert_eq!(hash.evict(), out);
                        proptest::prop_assert_eq!(dense.evict(), out);
                    }
                }
                model.sort_unstable_by_key(|e| (e.1, e.2));
                let order: Vec<u32> = model.iter().map(|e| e.0).collect();
                proptest::prop_assert_eq!(&order, &hash.keys_by_value().collect::<Vec<_>>());
                proptest::prop_assert_eq!(&order, &dense.keys_by_value().collect::<Vec<_>>());
                proptest::prop_assert_eq!(hash.len(), model.len());
                proptest::prop_assert_eq!(dense.len(), model.len());
                let min = model.first().map(|e| (f64::from(e.1), e.0));
                proptest::prop_assert_eq!(hash.peek_min(), min);
                proptest::prop_assert_eq!(dense.peek_min(), min);
                for &(k, v, _) in &model {
                    proptest::prop_assert_eq!(hash.value(k), Some(f64::from(v)));
                    proptest::prop_assert_eq!(dense.value(k), Some(f64::from(v)));
                }
            }
        }

        #[test]
        fn total_value_never_decreases_on_beneficial_insert(
            ops in proptest::collection::vec((0u64..20, 0u32..100), 1..200)
        ) {
            let mut c = ValueCache::new(5);
            let contents = |c: &ValueCache| -> Vec<(u64, f64)> {
                c.keys_by_value().map(|k| (k, c.value(k).unwrap())).collect()
            };
            for (key, v) in ops {
                let absent = !c.contains(key);
                let before = contents(&c);
                let out = c.insert_if_beneficial(key, f64::from(v));
                let after = contents(&c);
                if out.is_err() {
                    proptest::prop_assert_eq!(&after, &before, "a refused insert changed the store");
                } else if absent {
                    // A new key only ever joins a store with room or
                    // displaces a lower value; a resident update may lower
                    // its own value, so it is not checked.
                    let total = |c: &[(u64, f64)]| c.iter().map(|e| e.1).sum::<f64>();
                    proptest::prop_assert!(total(&after) >= total(&before));
                }
                proptest::prop_assert!(c.len() <= 5);
            }
        }

        /// Signed zeros and equal values side by side: the order is
        /// `total_cmp` (`-0.0` below `0.0`) with the least recently
        /// written first among bit-equal values, and each key reads back
        /// its own zero. Refusal compares numerically (`-0.0 == 0.0`).
        #[test]
        fn signed_zeros_and_ties_follow_total_cmp(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0usize..4), 1..300)
        ) {
            const VALUES: [f64; 4] = [-0.0, 0.0, 1.0, -1.0];
            const CAP: usize = 5;
            let mut c = ValueCache::new(CAP);
            // The model: resident (key, value, stamp), sorted by
            // (`total_cmp` of the value, stamp) after every operation.
            let mut model: Vec<(u64, f64, u64)> = Vec::new();
            for (stamp, (op, key, v)) in ops.into_iter().enumerate() {
                let (stamp, value) = (stamp as u64, VALUES[v]);
                let at = model.iter().position(|e| e.0 == key);
                let full = model.len() >= CAP;
                match (op, at) {
                    (0 | 1, Some(i)) => {
                        model[i] = (key, value, stamp);
                        if op == 0 {
                            proptest::prop_assert!(c.set_value(key, value));
                        } else {
                            proptest::prop_assert_eq!(c.insert_if_beneficial(key, value), Ok(None));
                        }
                    }
                    (0, None) => {
                        if !full {
                            model.push((key, value, stamp));
                        }
                        proptest::prop_assert_eq!(c.set_value(key, value), !full);
                    }
                    (1, None) => {
                        let expect = if full && value <= model[0].1 {
                            Err(NotBeneficial)
                        } else {
                            let out = full.then(|| model.remove(0).0);
                            model.push((key, value, stamp));
                            Ok(out)
                        };
                        proptest::prop_assert_eq!(c.insert_if_beneficial(key, value), expect);
                    }
                    (2, _) => {
                        if let Some(i) = at {
                            model[i].2 = stamp;
                        }
                        proptest::prop_assert_eq!(c.touch(key), at.is_some());
                    }
                    _ => {
                        let out = (!model.is_empty()).then(|| model.remove(0).0);
                        proptest::prop_assert_eq!(c.evict(), out);
                    }
                }
                model.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)));
                let order: Vec<u64> = model.iter().map(|e| e.0).collect();
                proptest::prop_assert_eq!(&order, &c.keys_by_value().collect::<Vec<_>>());
                let min = model.first().map(|e| (e.1.to_bits(), e.0));
                proptest::prop_assert_eq!(c.peek_min().map(|(v, k)| (v.to_bits(), k)), min);
                for &(k, v, _) in &model {
                    proptest::prop_assert_eq!(c.value(k).map(f64::to_bits), Some(v.to_bits()));
                }
            }
        }
    }
}
