//! Least-frequently-used caches.
//!
//! The paper's NC, SC, NC-EC and SC-EC schemes "employ LFU cache
//! replacement to minimize access latency" (§2). Two variants matter:
//!
//! * [`LfuCache`] — *in-cache* LFU: an object's frequency counter exists
//!   only while it is resident and is lost on eviction. This is what
//!   deployable proxies implement and our schemes' default.
//! * [`PerfectLfuCache`] — frequency counters survive eviction, so the
//!   cache converges to holding the globally most-frequent objects. This
//!   is the idealization closest to the "perfect frequency knowledge"
//!   wording the paper uses for its cost-benefit bound; keeping both lets
//!   the ablation bench quantify the gap.
//!
//! Ties break toward evicting the least-recently-used among the
//! least-frequent, the common implementation choice.
//!
//! The order both keep, one FIFO per resident frequency in a sorted list
//! of buckets, is generic over the bucket key: the
//! [`ValueCache`](crate::ValueCache) keeps one FIFO per resident value on
//! it.

use crate::fifo::{Fifo, FifoSlab, HashIndex, PositionIndex, NIL};
use crate::BoundedCache;
use std::hash::Hash;
use webcache_primitives::FxHashMap;

/// The FIFO of one resident frequency `F`, least recently written at its
/// head, in the list of buckets sorted by frequency.
#[derive(Clone, Debug)]
struct Bucket<F> {
    freq: F,
    fifo: Fifo,
    /// The neighbouring buckets, [`NIL`] past either end. A vacated
    /// bucket chains the free list through `higher`.
    lower: u32,
    higher: u32,
}

/// Shared frequency-ordered store: one FIFO per resident frequency (the
/// O(1) LFU of Shah, Mitra & Matani, 2010), in buckets that form a doubly
/// linked list in ascending frequency. The frequency `F` is any total
/// order: a count for the LFUs, a benefit value for
/// [`ValueCache`](crate::ValueCache).
///
/// Every write appends the entry at its frequency's tail, so a bucket
/// lists its members in last-write order — the recency tie-break — and
/// the victim is the lowest bucket's head. A touch moves an entry to the
/// bucket just above, created there if missing (a lone member with no
/// bucket at its new count renumbers its own bucket in place); a bucket
/// that empties is unlinked and recycled.
///
/// A write at an arbitrary frequency ([`insert_with_frequency`] at a
/// tier transfer, every [`PerfectLfuCache`] write) walks in from both
/// ends of the bucket list at once: O(resident frequencies) at worst,
/// about one step on the benchmark's traces (EXPERIMENTS.md, "Throughput
/// round 9"). Every [`ValueCache`](crate::ValueCache) write is one; the
/// walk lengths are in "Simplification round 12".
///
/// [`insert_with_frequency`]: LfuCache::insert_with_frequency
#[derive(Clone, Debug)]
pub(crate) struct FreqIndex<K, X, F = u64> {
    /// The resident entries; a node's list is its bucket.
    slab: FifoSlab<K, (), X>,
    /// Resident buckets and vacated ones, which `free_bucket` chains.
    buckets: Vec<Bucket<F>>,
    lowest: u32,
    highest: u32,
    free_bucket: u32,
}

impl<K: Copy + Eq, X: PositionIndex<K>, F: Copy + Ord> FreqIndex<K, X, F> {
    /// An empty store with room for `n` entries before growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        FreqIndex {
            slab: FifoSlab::with_capacity(n),
            buckets: Vec::new(),
            lowest: NIL,
            highest: NIL,
            free_bucket: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    pub(crate) fn contains(&self, key: K) -> bool {
        self.slab.get(&key).is_some()
    }

    pub(crate) fn freq(&self, key: K) -> Option<F> {
        self.slab.get(&key).map(|n| self.buckets[self.slab.list(n) as usize].freq)
    }

    /// Sets a resident `key`'s frequency to `freq(its frequency)` and
    /// makes it the most recent at that frequency; false if absent.
    pub(crate) fn update(&mut self, key: K, freq: impl FnOnce(F) -> F) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        let f = freq(self.buckets[self.slab.list(node) as usize].freq);
        self.set(node, f);
        true
    }

    /// Inserts `key`, which the caller knows to be absent, at `freq`.
    pub(crate) fn insert_new(&mut self, key: K, freq: F) {
        let node = self.slab.alloc(key, ());
        let b = self.bucket_of(freq);
        self.append(node, b);
    }

    pub(crate) fn remove(&mut self, key: K) -> Option<F> {
        let node = self.slab.get(&key)?;
        Some(self.release(node).1)
    }

    pub(crate) fn pop_min(&mut self) -> Option<(K, F)> {
        let b = self.buckets.get(self.lowest as usize)?;
        Some(self.release(b.fifo.head))
    }

    pub(crate) fn peek_min(&self) -> Option<(K, F)> {
        let b = self.buckets.get(self.lowest as usize)?;
        Some((self.slab.key(b.fifo.head), b.freq))
    }

    /// Resident keys, lowest frequency first and, within one, least
    /// recently written first.
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        let from = |first: u32| (first != NIL).then_some(first);
        std::iter::successors(from(self.lowest), move |&b| from(self.buckets[b as usize].higher))
            .flat_map(move |b| self.slab.iter(self.buckets[b as usize].fifo))
            .map(|(k, ())| k)
    }

    /// Moves `node` to the tail of `freq`'s FIFO.
    fn set(&mut self, node: u32, freq: F) {
        self.detach(node);
        let b = self.bucket_of(freq);
        self.append(node, b);
    }

    /// Appends the detached `node` to bucket `b`'s FIFO.
    fn append(&mut self, node: u32, b: u32) {
        self.slab.push_back(&mut self.buckets[b as usize].fifo, node, b);
    }

    /// Takes `node` out of its bucket's FIFO, unlinking and recycling the
    /// bucket if that empties it.
    fn detach(&mut self, node: u32) {
        let b = self.slab.list(node);
        self.slab.unlink(&mut self.buckets[b as usize].fifo, node);
        self.drop_if_empty(b);
    }

    /// Detaches and vacates `node`, unmapping its key; returns its key
    /// and frequency.
    fn release(&mut self, node: u32) -> (K, F) {
        let b = self.slab.list(node);
        let freq = self.buckets[b as usize].freq;
        let (key, ()) = self.slab.release(&mut self.buckets[b as usize].fifo, node);
        self.drop_if_empty(b);
        (key, freq)
    }

    /// Unlinks and recycles bucket `b` if its FIFO is empty.
    fn drop_if_empty(&mut self, b: u32) {
        let bucket = &mut self.buckets[b as usize];
        if bucket.fifo.head == NIL {
            let Bucket { lower, higher, .. } = *bucket;
            bucket.higher = self.free_bucket;
            self.free_bucket = b;
            match lower {
                NIL => self.lowest = higher,
                l => self.buckets[l as usize].higher = higher,
            }
            match higher {
                NIL => self.highest = lower,
                h => self.buckets[h as usize].lower = lower,
            }
        }
    }

    /// The bucket of `freq`, linked in empty if there is none: walks in
    /// from both ends of the list at once.
    fn bucket_of(&mut self, freq: F) -> u32 {
        // Every bucket below `lo` is under `freq`, every one above `hi`
        // over it.
        let (mut lo, mut hi) = (self.lowest, self.highest);
        while lo != NIL {
            let l = &self.buckets[lo as usize];
            if l.freq >= freq {
                return if l.freq == freq { lo } else { self.link_bucket(freq, l.lower, lo) };
            }
            let h = &self.buckets[hi as usize];
            if h.freq <= freq {
                return if h.freq == freq { hi } else { self.link_bucket(freq, hi, h.higher) };
            }
            (lo, hi) = (l.higher, h.lower);
        }
        self.link_bucket(freq, NIL, NIL)
    }

    /// Links an empty bucket of `freq` in between the adjacent buckets
    /// `lower` and `higher` (either [`NIL`] past an end).
    fn link_bucket(&mut self, freq: F, lower: u32, higher: u32) -> u32 {
        debug_assert!(
            (lower == NIL || self.buckets[lower as usize].freq < freq)
                && (higher == NIL || freq < self.buckets[higher as usize].freq),
            "bucket linked out of frequency order"
        );
        let bucket = Bucket { freq, fifo: Fifo::EMPTY, lower, higher };
        let b = match self.free_bucket {
            NIL => {
                self.buckets.push(bucket);
                (self.buckets.len() - 1) as u32
            }
            b => {
                self.free_bucket = self.buckets[b as usize].higher;
                self.buckets[b as usize] = bucket;
                b
            }
        };
        match lower {
            NIL => self.lowest = b,
            l => self.buckets[l as usize].higher = b,
        }
        match higher {
            NIL => self.highest = b,
            h => self.buckets[h as usize].lower = b,
        }
        b
    }
}

impl<K: Copy + Eq, X: PositionIndex<K>> FreqIndex<K, X> {
    /// Adds one to a resident `key`'s frequency, saturating at
    /// `u64::MAX`; false if absent.
    fn touch(&mut self, key: K) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        let b = self.slab.list(node);
        let Bucket { freq, fifo, higher, .. } = self.buckets[b as usize];
        let Some(up) = freq.checked_add(1) else {
            self.set(node, freq);
            return true;
        };
        if higher != NIL && self.buckets[higher as usize].freq == up {
            self.detach(node);
            self.append(node, higher);
        } else if fifo.head == fifo.tail {
            // Alone in its bucket, with none at `up`: renumber in place.
            self.buckets[b as usize].freq = up;
        } else {
            let above = self.link_bucket(up, b, higher);
            self.detach(node);
            self.append(node, above);
        }
        true
    }
}

/// Bounded in-cache LFU.
///
/// `X` selects the key → node index, as for
/// [`GreedyDualCache`](crate::GreedyDualCache): the default hash index
/// for arbitrary keys ([`new`](LfuCache::new)), or
/// [`DenseIndex`](crate::DenseIndex) when keys are dense small integers
/// ([`with_index`](Self::with_index); the simulator's sites use it).
#[derive(Clone, Debug)]
pub struct LfuCache<K: Copy + Eq, X: PositionIndex<K> = HashIndex<K>> {
    capacity: usize,
    index: FreqIndex<K, X>,
}

impl<K: Copy + Eq + Hash> LfuCache<K> {
    /// Creates a cache holding at most `capacity` objects, on the default
    /// hash index.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_index(capacity)
    }
}

impl<K: Copy + Eq, X: PositionIndex<K>> LfuCache<K, X> {
    /// Creates a cache holding at most `capacity` objects on the position
    /// index named by the type (`LfuCache::<u32, DenseIndex>::with_index`).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_index(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        LfuCache { capacity, index: FreqIndex::with_capacity(0) }
    }

    /// Resident frequency of `key`.
    pub fn frequency(&self, key: K) -> Option<u64> {
        self.index.freq(key)
    }

    /// The would-be victim (least frequent, LRU tie-break).
    pub fn peek_victim(&self) -> Option<K> {
        self.index.peek_min().map(|(k, _)| k)
    }

    /// Frequency of the would-be victim — the cache's minimum frequency.
    pub fn min_frequency(&self) -> Option<u64> {
        self.index.peek_min().map(|(_, f)| f)
    }

    /// Inserts `key` with an explicit starting frequency, evicting if
    /// full; returns `(evicted_key, its_frequency)`.
    ///
    /// This is how the *-EC schemes move objects between the proxy tier
    /// and the unified P2P tier without losing frequency state — the two
    /// tiers "coordinate replacement so that they appear as one unified
    /// cache" (§2), which requires counts to survive tier transfers.
    pub fn insert_with_frequency(&mut self, key: K, freq: u64) -> Option<(K, u64)> {
        if self.index.update(key, |_| freq) {
            return None;
        }
        let evicted = if self.index.len() >= self.capacity { self.index.pop_min() } else { None };
        self.index.insert_new(key, freq.max(1));
        evicted
    }

    /// Evicts the victim, returning its frequency too.
    pub fn evict_with_frequency(&mut self) -> Option<(K, u64)> {
        self.index.pop_min()
    }

    /// Iterates resident keys in eviction order (least valuable first),
    /// walking the frequency buckets in O(n).
    pub fn keys_by_frequency(&self) -> impl Iterator<Item = K> + '_ {
        self.index.keys()
    }

    /// Evicts and returns the victim.
    pub fn evict(&mut self) -> Option<K> {
        self.index.pop_min().map(|(k, _)| k)
    }
}

impl<K: Copy + Eq + Hash, X: PositionIndex<K>> BoundedCache<K> for LfuCache<K, X> {
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
        self.index.touch(key)
    }

    fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(key) {
            return None;
        }
        let evicted = if self.index.len() >= self.capacity { self.evict() } else { None };
        self.index.insert_new(key, 1);
        evicted
    }

    fn remove(&mut self, key: K) -> bool {
        self.index.remove(key).is_some()
    }
}

/// Bounded LFU with *perfect* (eviction-surviving) frequency counts.
#[derive(Clone, Debug)]
pub struct PerfectLfuCache<K: Copy + Eq + Hash> {
    capacity: usize,
    index: FreqIndex<K, HashIndex<K>>,
    /// Frequencies of every key ever seen, resident or not.
    global: FxHashMap<K, u64>,
}

impl<K: Copy + Eq + Hash> PerfectLfuCache<K> {
    /// Creates a cache holding at most `capacity` objects.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        PerfectLfuCache {
            capacity,
            index: FreqIndex::with_capacity(0),
            global: FxHashMap::default(),
        }
    }

    /// All-time frequency of `key` (resident or not).
    pub fn global_frequency(&self, key: K) -> u64 {
        self.global.get(&key).copied().unwrap_or(0)
    }

    /// Counts an access in the global table and returns the new count.
    fn count(&mut self, key: K) -> u64 {
        let f = self.global.entry(key).or_insert(0);
        *f += 1;
        *f
    }
}

impl<K: Copy + Eq + Hash> BoundedCache<K> for PerfectLfuCache<K> {
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
        let f = self.count(key);
        self.index.update(key, |_| f)
    }

    fn insert(&mut self, key: K) -> Option<K> {
        let f = self.count(key);
        if self.index.update(key, |_| f) {
            return None;
        }
        let evicted = if self.index.len() >= self.capacity { self.index.pop_min() } else { None };
        self.index.insert_new(key, f);
        evicted.map(|(k, _)| k)
    }

    fn remove(&mut self, key: K) -> bool {
        self.index.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(3);
        c.insert(1u64);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        c.touch(1);
        c.touch(2);
        // Frequencies: 1→3, 2→2, 3→1.
        assert_eq!(c.insert(4), Some(3));
        assert!(c.contains(1) && c.contains(2) && c.contains(4));
    }

    #[test]
    fn tie_breaks_toward_lru() {
        let mut c = LfuCache::new(2);
        c.insert(1u64);
        c.insert(2);
        // Both freq 1; 1 is older.
        assert_eq!(c.insert(3), Some(1));
    }

    #[test]
    fn in_cache_lfu_forgets_on_eviction() {
        let mut c = LfuCache::new(2);
        c.insert(1u64);
        for _ in 0..10 {
            c.touch(1);
        }
        c.insert(2);
        c.remove(1);
        // Re-inserted, frequency starts over at 1.
        c.insert(1);
        assert_eq!(c.frequency(1), Some(1));
    }

    #[test]
    fn perfect_lfu_remembers_across_eviction() {
        let mut c = PerfectLfuCache::new(2);
        c.insert(1u64);
        for _ in 0..10 {
            c.touch(1);
        }
        assert_eq!(c.global_frequency(1), 11);
        c.remove(1);
        c.insert(1);
        assert_eq!(c.global_frequency(1), 12);
        // A cold new key cannot displace the hot one.
        c.insert(2);
        c.insert(3);
        assert!(c.contains(1), "hot object displaced by cold insert");
    }

    #[test]
    fn perfect_lfu_counts_misses_too() {
        let mut c = PerfectLfuCache::new(1);
        c.insert(1u64);
        c.insert(2); // evicts 1
        assert!(!c.contains(1));
        c.insert(1); // evicts 2; freq(1) now 2 > freq(2)=1
        c.insert(2); // 2 has global freq 2 == freq(1) 2? then tie-break LRU: evicts 1 (older stamp)
        assert_eq!(c.global_frequency(1), 2);
        assert_eq!(c.global_frequency(2), 2);
    }

    #[test]
    fn frequency_visible() {
        let mut c = LfuCache::new(4);
        c.insert(7u64);
        c.touch(7);
        c.touch(7);
        assert_eq!(c.frequency(7), Some(3));
        assert_eq!(c.frequency(8), None);
    }

    #[test]
    fn frequency_transfer_between_tiers() {
        let mut upper = LfuCache::new(2);
        let mut lower = LfuCache::new(2);
        upper.insert(1u64);
        upper.touch(1);
        upper.touch(1); // freq 3
        upper.insert(2);
        // Demote the victim of an insert into the lower tier with its
        // frequency intact.
        if let Some((k, f)) = upper.insert_with_frequency(3, 1) {
            lower.insert_with_frequency(k, f);
        }
        // Victim was 2 (freq 1), not the hot 1.
        assert!(upper.contains(1) && upper.contains(3));
        assert_eq!(lower.frequency(2), Some(1));
        // Promote 2 back up with accumulated frequency.
        let (k, f) = (2u64, lower.frequency(2).unwrap() + 1);
        lower.remove(2);
        let demoted = upper.insert_with_frequency(k, f);
        assert!(upper.contains(2));
        assert_eq!(demoted.map(|(k, _)| k), Some(3));
    }

    #[test]
    fn keys_by_frequency_order() {
        let mut c = LfuCache::new(3);
        c.insert(1u64);
        c.insert(2);
        c.touch(2);
        c.insert(3);
        c.touch(3);
        c.touch(3);
        let order: Vec<u64> = c.keys_by_frequency().collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_and_evict_agree() {
        let mut c = LfuCache::new(3);
        c.insert(1u64);
        c.insert(2);
        c.touch(2);
        let victim = c.peek_victim().unwrap();
        assert_eq!(c.evict(), Some(victim));
        assert_eq!(victim, 1);
    }

    #[test]
    fn touch_saturates_at_the_top_frequency() {
        let mut c = LfuCache::new(2);
        c.insert_with_frequency(1u64, u64::MAX);
        c.insert(2);
        assert!(c.touch(1));
        assert_eq!(c.frequency(1), Some(u64::MAX));
        assert_eq!(c.peek_victim(), Some(2), "a wrapped count made the hottest key the victim");
    }

    /// Maps a draw from `0..67` onto the frequencies 0–64 and the two
    /// highest, so arbitrary-frequency writes land below, between and
    /// above the resident buckets and at the saturation point.
    fn frequency(draw: u64) -> u64 {
        if draw <= 64 {
            draw
        } else {
            u64::MAX - (66 - draw)
        }
    }

    proptest::proptest! {
        #[test]
        fn hash_and_dense_index_match_a_naive_model(
            ops in proptest::collection::vec((0u8..5, 0u32..40, 0u64..67), 1..400)
        ) {
            use crate::DenseIndex;
            const CAP: usize = 6;
            // The dense table starts empty, so every key (offset well
            // past zero) lies beyond its size and exercises the grow path.
            let mut hash = LfuCache::<u32>::new(CAP);
            let mut dense = LfuCache::<u32, DenseIndex>::with_index(CAP);
            // The model: resident (key, freq, stamp) triples, searched
            // linearly; the victim is the minimum (freq, stamp).
            let mut model: Vec<(u32, u64, u64)> = Vec::new();
            let mut clock = 0u64;
            let mut tick = || {
                clock += 1;
                clock
            };
            let evict = |m: &mut Vec<(u32, u64, u64)>| {
                let i = (0..m.len()).min_by_key(|&i| (m[i].1, m[i].2))?;
                let (k, f, _) = m.swap_remove(i);
                Some((k, f))
            };
            for (op, key, draw) in ops {
                let key = key * 7 + 100;
                let freq = frequency(draw);
                let at = model.iter().position(|e| e.0 == key);
                match (op, at) {
                    (0 | 1, Some(i)) => {
                        model[i] = (key, model[i].1.saturating_add(1), tick());
                        if op == 0 {
                            proptest::prop_assert_eq!(hash.insert(key), None);
                            proptest::prop_assert_eq!(dense.insert(key), None);
                        } else {
                            proptest::prop_assert!(hash.touch(key) && dense.touch(key));
                        }
                    }
                    (1, None) => {
                        proptest::prop_assert!(!hash.touch(key) && !dense.touch(key));
                    }
                    (2, Some(i)) => {
                        model[i] = (key, freq, tick());
                        proptest::prop_assert_eq!(hash.insert_with_frequency(key, freq), None);
                        proptest::prop_assert_eq!(dense.insert_with_frequency(key, freq), None);
                    }
                    (0 | 2, None) => {
                        let out = if model.len() >= CAP { evict(&mut model) } else { None };
                        let freq = if op == 0 { 1 } else { freq.max(1) };
                        model.push((key, freq, tick()));
                        if op == 0 {
                            proptest::prop_assert_eq!(hash.insert(key), out.map(|e| e.0));
                            proptest::prop_assert_eq!(dense.insert(key), out.map(|e| e.0));
                        } else {
                            proptest::prop_assert_eq!(hash.insert_with_frequency(key, freq), out);
                            proptest::prop_assert_eq!(dense.insert_with_frequency(key, freq), out);
                        }
                    }
                    (3, _) => {
                        at.map(|i| model.swap_remove(i));
                        proptest::prop_assert_eq!(hash.remove(key), at.is_some());
                        proptest::prop_assert_eq!(dense.remove(key), at.is_some());
                    }
                    _ => {
                        let out = evict(&mut model);
                        proptest::prop_assert_eq!(hash.evict_with_frequency(), out);
                        proptest::prop_assert_eq!(dense.evict_with_frequency(), out);
                    }
                }
                model.sort_unstable_by_key(|e| (e.1, e.2));
                let order: Vec<u32> = model.iter().map(|e| e.0).collect();
                proptest::prop_assert_eq!(&order, &hash.keys_by_frequency().collect::<Vec<_>>());
                proptest::prop_assert_eq!(&order, &dense.keys_by_frequency().collect::<Vec<_>>());
                proptest::prop_assert_eq!(hash.len(), model.len());
                proptest::prop_assert_eq!(dense.len(), model.len());
                proptest::prop_assert_eq!(hash.peek_victim(), order.first().copied());
                proptest::prop_assert_eq!(dense.min_frequency(), model.first().map(|e| e.1));
                for &(k, f, _) in &model {
                    proptest::prop_assert_eq!(hash.frequency(k), Some(f));
                    proptest::prop_assert_eq!(dense.frequency(k), Some(f));
                }
            }
        }

        #[test]
        fn perfect_lfu_matches_a_naive_model(
            ops in proptest::collection::vec((0u8..3, 0u64..12), 1..400)
        ) {
            const CAP: usize = 4;
            let mut cache = PerfectLfuCache::new(CAP);
            // The model: all-time counts that survive eviction, and the
            // resident (key, freq, stamp) triples, the victim being the
            // minimum (freq, stamp).
            let mut global = [0u64; 12];
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            for (stamp, (op, key)) in ops.into_iter().enumerate() {
                let at = model.iter().position(|e| e.0 == key);
                if op < 2 {
                    global[key as usize] += 1;
                }
                let freq = global[key as usize];
                match (op, at) {
                    (0, Some(i)) => {
                        model[i] = (key, freq, stamp as u64);
                        proptest::prop_assert_eq!(cache.insert(key), None);
                    }
                    (0, None) => {
                        let victim = (0..model.len())
                            .min_by_key(|&i| (model[i].1, model[i].2))
                            .filter(|_| model.len() >= CAP)
                            .map(|i| model.swap_remove(i).0);
                        model.push((key, freq, stamp as u64));
                        proptest::prop_assert_eq!(cache.insert(key), victim);
                    }
                    (1, _) => {
                        if let Some(i) = at {
                            model[i] = (key, freq, stamp as u64);
                        }
                        proptest::prop_assert_eq!(cache.touch(key), at.is_some());
                    }
                    _ => {
                        at.map(|i| model.swap_remove(i));
                        proptest::prop_assert_eq!(cache.remove(key), at.is_some());
                    }
                }
                proptest::prop_assert_eq!(cache.len(), model.len());
                for k in 0..12u64 {
                    proptest::prop_assert_eq!(cache.global_frequency(k), global[k as usize]);
                    proptest::prop_assert_eq!(cache.contains(k), model.iter().any(|e| e.0 == k));
                }
            }
        }

        #[test]
        fn lfu_never_exceeds_capacity(ops in proptest::collection::vec((0u8..3, 0u64..20), 1..200)) {
            let mut c = LfuCache::new(5);
            let mut p = PerfectLfuCache::new(5);
            for (op, key) in ops {
                match op {
                    0 => { c.insert(key); p.insert(key); }
                    1 => { c.touch(key); p.touch(key); }
                    _ => { c.remove(key); p.remove(key); }
                }
                proptest::prop_assert!(c.len() <= 5 && p.len() <= 5);
            }
        }

        #[test]
        fn hot_key_survives_in_both_variants(noise in proptest::collection::vec(1u64..50, 50..150)) {
            let mut c = LfuCache::new(8);
            let mut p = PerfectLfuCache::new(8);
            for chunk in noise.chunks(2) {
                // Interleave hot-key touches with noise so in-cache LFU
                // keeps the hot key's count high while resident.
                c.insert(0);
                c.touch(0);
                p.insert(0);
                p.touch(0);
                for &k in chunk {
                    c.insert(k);
                    p.insert(k);
                }
            }
            proptest::prop_assert!(c.contains(0));
            proptest::prop_assert!(p.contains(0));
        }
    }
}
