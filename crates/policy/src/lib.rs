//! Cache replacement policies used throughout the reproduction.
//!
//! The paper's caching schemes each pin a replacement policy (§2, §5.1).
//! All of them — LFU, cost-benefit, greedy-dual and LRU — are list
//! orders: each evicts the oldest entry of some FIFO, and all their FIFOs
//! live in one slab of linked nodes that a [`PositionIndex`] maps keys
//! into, where every write is an append. Only a client cache's few-entry
//! greedy-dual store keeps a flat heap instead.
//!
//! * **NC, SC, NC-EC, SC-EC** use **LFU** "to minimize access latency".
//!   We provide the classic *in-cache* LFU ([`LfuCache`], frequency counted
//!   only while the object is resident — the form deployed proxies use) and
//!   *perfect* LFU ([`PerfectLfuCache`], frequency survives eviction) so
//!   the difference itself can be measured. Both keep one FIFO per
//!   resident frequency in a list of buckets sorted by frequency (the O(1)
//!   LFU of Shah, Mitra & Matani), so the victim is the lowest bucket's
//!   head; a touch, an insert at frequency 1 and an eviction are O(1), and
//!   a write at any other frequency walks in from both ends of the list.
//! * **FC, FC-EC** use a **cost-benefit** replacement that, "based on the
//!   assumption of the perfect frequency knowledge to each object,
//!   minimizes the aggregate average latency of all the clients in the
//!   proxy cluster". The cluster engine computes per-copy benefit values
//!   and stores them in a [`ValueCache`] (evict the minimum-value copy):
//!   the LFU's sorted buckets with the value as the bucket key, one FIFO
//!   per resident value.
//! * **Hier-GD** runs Young's **greedy-dual** ([`GreedyDualCache`]) at the
//!   proxy and in every client cache, using the "inflation value"
//!   implementation the paper calls "the efficient implementation". An
//!   indexed cache keeps one FIFO per credit increment `cost/size`
//!   ([`CreditFifos`]): entries given one increment are credited in
//!   ascending order because the inflation never falls, so a hit or an
//!   insert is O(1) and an eviction compares the FIFO heads — linear in
//!   the number of distinct increments, four at a Hier-GD proxy. A
//!   client cache's few-entry [`LinearScan`] store keeps an O(log n) flat
//!   heap, whose array order its object hand-offs follow.
//! * [`LruCache`] — one FIFO in last-use order — is included as the
//!   classic baseline the greedy-dual literature (Korupolu & Dahlin)
//!   compares against.
//!
//! All stores are generic over the key type and assume unit-size objects
//! (paper §5.1 assumption 1); greedy-dual retains its `cost/size` form via
//! an explicit size parameter where it matters. The [`bytes`] module lifts
//! that assumption for GreedyDual-Size and a byte-budget LRU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod credit;
mod fifo;
pub mod gd;
pub mod heap;
pub mod lfu;
pub mod lru;
pub mod value;

pub use bytes::{ByteLruCache, GreedyDualSizeCache};
pub use credit::{Credit, CreditFifos, CreditIndex, CreditOrder};
pub use fifo::{DenseIndex, HashIndex, PositionIndex};
pub use gd::GreedyDualCache;
pub use heap::{LinearScan, MinHeap};
pub use lfu::{LfuCache, PerfectLfuCache};
pub use lru::LruCache;
pub use value::{NotBeneficial, ValueCache};

use std::hash::Hash;

/// Minimal interface shared by all bounded caches, for generic tests and
/// benches. Policy-specific information (greedy-dual costs, benefit
/// values) is supplied through each type's inherent methods; the trait
/// methods use each policy's documented defaults.
pub trait BoundedCache<K: Copy + Eq + Hash> {
    /// Maximum number of resident objects.
    fn capacity(&self) -> usize;
    /// Current number of resident objects.
    fn len(&self) -> usize;
    /// True if nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// True if `key` is resident.
    fn contains(&self, key: K) -> bool;
    /// Records a hit on `key`; returns false if it was not resident.
    fn touch(&mut self, key: K) -> bool;
    /// Inserts `key` (treating it as just-fetched), evicting if full;
    /// returns the evicted key, if any. Inserting a resident key counts
    /// as a touch.
    fn insert(&mut self, key: K) -> Option<K>;
    /// Removes `key`; returns true if it was resident.
    fn remove(&mut self, key: K) -> bool;
}

#[cfg(test)]
mod conformance {
    //! Behavioural checks every policy must satisfy.
    use super::*;

    fn check_bounded<C: BoundedCache<u64>>(mut c: C) {
        let cap = c.capacity();
        assert!(cap >= 2, "conformance needs capacity >= 2");
        assert!(c.is_empty());
        for k in 0..(2 * cap as u64) {
            c.insert(k);
            assert!(c.len() <= cap, "len exceeded capacity");
            assert!(c.contains(k), "just-inserted key must be resident");
        }
        assert_eq!(c.len(), cap);
        // Touch misses return false.
        assert!(!c.touch(u64::MAX));
        // Remove works and shrinks.
        let resident = (0..(2 * cap as u64)).find(|&k| c.contains(k)).unwrap();
        assert!(c.remove(resident));
        assert!(!c.contains(resident));
        assert_eq!(c.len(), cap - 1);
        assert!(!c.remove(resident));
    }

    #[test]
    fn all_policies_bounded() {
        check_bounded(LruCache::new(8));
        check_bounded(LfuCache::new(8));
        check_bounded(PerfectLfuCache::new(8));
        check_bounded(GreedyDualCache::<u64>::new(8));
        check_bounded(ValueCache::new(8));
    }

    #[test]
    fn reinserting_resident_key_does_not_grow() {
        let mut c = LruCache::new(4);
        for _ in 0..10 {
            c.insert(1u64);
        }
        assert_eq!(c.len(), 1);
    }
}
