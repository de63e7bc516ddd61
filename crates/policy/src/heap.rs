//! Indexed d-ary min-heap: the priority structure behind the policies.
//!
//! The original implementations kept eviction order in a
//! `BTreeSet<(Priority, Stamp, Key)>`: every touch allocated/freed a B-tree
//! node and chased pointers across a dozen cache lines. This heap stores
//! the same (priority, stamp) pairs in a flat `Vec` with a [`FxHashMap`]
//! position index, so update/remove of an arbitrary key stays O(log n)
//! with **zero per-operation allocation** and mostly-contiguous memory
//! traffic.
//!
//! A 4-ary layout is used rather than binary: the tree is half as deep, and
//! the four children of a node share one or two cache lines, which is the
//! standard trade for heaps whose cost is dominated by sift-down during
//! `pop_min` (eviction).
//!
//! Policies that need a *total* order guarantee uniqueness by embedding a
//! monotone stamp in the priority (`(credit, stamp)`), so the heap never
//! has to compare keys — the eviction sequence is exactly the one the old
//! B-tree produced.

use std::hash::Hash;
use webcache_primitives::FxHashMap;

/// Heap arity; 4 keeps siblings within a cache line for small priorities.
const ARITY: usize = 4;

/// Pluggable key → handle index for [`IndexedMinHeap`].
///
/// The heap consults this exactly once per operation; everything else is
/// flat `Vec` traffic. The default [`HashIndex`] works for any hashable
/// key; [`DenseIndex`] replaces the hash probe with a direct array load
/// when keys are small dense integers (the simulator's `ObjectId`s are
/// `0..num_objects`, so the proxy caches — the hottest structures in the
/// whole simulator, probed on every request — qualify).
pub trait PositionIndex<K>: Clone + Default {
    /// An index with room for `n` keys before growing.
    fn with_capacity(n: usize) -> Self;
    /// The handle of `key`, if present.
    fn get(&self, key: &K) -> Option<u32>;
    /// Maps `key` to `handle` (the key must be absent).
    fn insert(&mut self, key: K, handle: u32);
    /// Unmaps `key` (the key must be present).
    fn remove(&mut self, key: &K);
    /// Unmaps everything.
    fn clear(&mut self);
    /// Number of mapped keys.
    fn len(&self) -> usize;
    /// True when no keys are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default [`PositionIndex`]: an `FxHashMap` from key to handle.
#[derive(Clone, Debug)]
pub struct HashIndex<K>(FxHashMap<K, u32>);

impl<K> Default for HashIndex<K> {
    fn default() -> Self {
        HashIndex(FxHashMap::default())
    }
}

impl<K: Copy + Eq + Hash> PositionIndex<K> for HashIndex<K> {
    fn with_capacity(n: usize) -> Self {
        HashIndex(FxHashMap::with_capacity_and_hasher(n, Default::default()))
    }

    #[inline]
    fn get(&self, key: &K) -> Option<u32> {
        self.0.get(key).copied()
    }

    #[inline]
    fn insert(&mut self, key: K, handle: u32) {
        let prev = self.0.insert(key, handle);
        debug_assert!(prev.is_none(), "insert of a mapped key");
    }

    #[inline]
    fn remove(&mut self, key: &K) {
        let prev = self.0.remove(key);
        debug_assert!(prev.is_some(), "remove of an unmapped key");
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A [`PositionIndex`] for dense `u32` keys: `table[key]` holds the
/// handle (`u32::MAX` = absent). One predictable load per probe, no
/// hashing — but memory is proportional to the largest key ever seen, so
/// only use it where keys are known to be dense (e.g. trace object ids).
#[derive(Clone, Debug, Default)]
pub struct DenseIndex {
    table: Vec<u32>,
    len: usize,
}

/// Sentinel for "key absent" in [`DenseIndex`] (handles are table slots,
/// far below u32::MAX).
const ABSENT: u32 = u32::MAX;

impl PositionIndex<u32> for DenseIndex {
    fn with_capacity(n: usize) -> Self {
        DenseIndex { table: vec![ABSENT; n], len: 0 }
    }

    #[inline]
    fn get(&self, key: &u32) -> Option<u32> {
        match self.table.get(*key as usize) {
            Some(&h) if h != ABSENT => Some(h),
            _ => None,
        }
    }

    #[inline]
    fn insert(&mut self, key: u32, handle: u32) {
        let i = key as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, ABSENT);
        }
        debug_assert_eq!(self.table[i], ABSENT, "insert of a mapped key");
        self.table[i] = handle;
        self.len += 1;
    }

    #[inline]
    fn remove(&mut self, key: &u32) {
        debug_assert_ne!(self.table[*key as usize], ABSENT, "remove of an unmapped key");
        self.table[*key as usize] = ABSENT;
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.table.fill(ABSENT);
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A [`PositionIndex`] for 128-bit SHA-derived keys: a hash map with the
/// identity hasher from `webcache_primitives` (the keys are already
/// uniformly distributed digests, so hashing them again is pure waste).
#[derive(Clone, Debug, Default)]
pub struct ShaIndex(webcache_primitives::ShaIdMap<u128, u32>);

impl PositionIndex<u128> for ShaIndex {
    fn with_capacity(n: usize) -> Self {
        ShaIndex(webcache_primitives::ShaIdMap::with_capacity_and_hasher(n, Default::default()))
    }

    #[inline]
    fn get(&self, key: &u128) -> Option<u32> {
        self.0.get(key).copied()
    }

    #[inline]
    fn insert(&mut self, key: u128, handle: u32) {
        let prev = self.0.insert(key, handle);
        debug_assert!(prev.is_none(), "insert of a mapped key");
    }

    #[inline]
    fn remove(&mut self, key: &u128) {
        let prev = self.0.remove(key);
        debug_assert!(prev.is_some(), "remove of an unmapped key");
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A min-heap over `(priority, key)` pairs with an index from key to slot,
/// supporting O(log n) update-by-key and remove-by-key.
///
/// `P` must be a total order (`Ord`); callers that prioritize by `f64`
/// wrap it in a `total_cmp` newtype. Duplicate keys are not stored: a
/// second [`push`](Self::push) of the same key replaces its priority.
///
/// Keys are interned behind small integer *handles* so that sifting never
/// touches the hash map: heap entries carry `(priority, handle)`, and a
/// flat `slot[handle]` table tracks where each handle currently lives.
/// Restoring the heap property after an update is then pure `Vec` traffic
/// — the profile showed the earlier design spending more time re-inserting
/// positions into the hash map (one insert per sift level) than comparing
/// priorities. The map is consulted exactly once per operation, to resolve
/// the key to its handle.
#[derive(Clone, Debug, Default)]
pub struct IndexedMinHeap<P, K, X = HashIndex<K>> {
    /// Implicit d-ary tree: children of slot `i` are `ARITY*i + 1 ..= ARITY*i + ARITY`.
    /// Entries are `(priority, handle)`.
    heap: Vec<(P, u32)>,
    /// handle -> key (interning table; slots are recycled via `free`).
    keys: Vec<K>,
    /// handle -> current index in `heap`.
    slot: Vec<u32>,
    /// Recycled handles of removed keys.
    free: Vec<u32>,
    /// key -> handle.
    pos: X,
}

impl<P: Ord + Copy, K: Copy + Eq, X: PositionIndex<K>> IndexedMinHeap<P, K, X> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        IndexedMinHeap {
            heap: Vec::new(),
            keys: Vec::new(),
            slot: Vec::new(),
            free: Vec::new(),
            pos: X::default(),
        }
    }

    /// Creates an empty heap with room for `n` entries before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        IndexedMinHeap {
            heap: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            slot: Vec::with_capacity(n),
            free: Vec::new(),
            pos: X::with_capacity(n),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True if `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.pos.get(&key).is_some()
    }

    /// Current priority of `key`.
    pub fn priority(&self, key: K) -> Option<P> {
        self.pos.get(&key).map(|h| self.heap[self.slot[h as usize] as usize].0)
    }

    /// Updates `key`'s priority if present, returning whether it was.
    /// One position probe — the hit path's alternative to
    /// [`push`](Self::push), which would probe again on insert.
    pub fn update(&mut self, key: K, priority: P) -> bool {
        self.update_with(key, |_| priority).is_some()
    }

    /// Re-prioritises `key` from its current priority: `f` maps the old
    /// priority to the new one. Returns the old priority, or `None`
    /// (without calling `f`) when `key` is absent. Read-modify-write on
    /// one position probe, where [`priority`](Self::priority) followed by
    /// [`update`](Self::update) would probe twice.
    pub fn update_with(&mut self, key: K, f: impl FnOnce(P) -> P) -> Option<P> {
        let h = self.pos.get(&key)?;
        let i = self.slot[h as usize] as usize;
        let old = self.heap[i].0;
        let priority = f(old);
        self.heap[i].0 = priority;
        if priority < old {
            self.sift_up(i);
        } else if old < priority {
            self.sift_down(i);
        }
        Some(old)
    }

    /// Inserts `key` at `priority`, or updates its priority if present.
    pub fn push(&mut self, key: K, priority: P) {
        if !self.update(key, priority) {
            self.insert_new(key, priority);
        }
    }

    /// Inserts `key`, which the caller guarantees is absent. Skips the
    /// presence probe that [`push`](Self::push) pays; the `pos.insert`
    /// below would catch (and debug-assert against) a duplicate.
    pub(crate) fn insert_new(&mut self, key: K, priority: P) {
        debug_assert!(self.pos.get(&key).is_none());
        let h = match self.free.pop() {
            Some(h) => {
                self.keys[h as usize] = key;
                h
            }
            None => {
                let h = self.keys.len() as u32;
                self.keys.push(key);
                self.slot.push(0);
                h
            }
        };
        let i = self.heap.len();
        self.heap.push((priority, h));
        self.slot[h as usize] = i as u32;
        self.pos.insert(key, h);
        self.sift_up(i);
    }

    /// The minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(P, K)> {
        self.heap.first().map(|&(p, h)| (p, self.keys[h as usize]))
    }

    /// Removes and returns the minimum entry.
    pub fn pop_min(&mut self) -> Option<(P, K)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.remove_slot(0))
    }

    /// Removes `key`, returning its priority if it was present.
    pub fn remove(&mut self, key: K) -> Option<P> {
        let h = self.pos.get(&key)?;
        Some(self.remove_slot(self.slot[h as usize] as usize).0)
    }

    /// Iterates entries in arbitrary (heap) order, without allocating.
    pub fn iter(&self) -> impl Iterator<Item = (P, K)> + '_ {
        self.heap.iter().map(|&(p, h)| (p, self.keys[h as usize]))
    }

    /// Keys in ascending priority order, as a fresh sorted snapshot.
    ///
    /// O(n log n) and allocates — meant for inspection and cold paths; hot
    /// paths should use [`iter`](Self::iter) or drain via
    /// [`pop_min`](Self::pop_min).
    pub fn sorted_snapshot(&self) -> Vec<(P, K)> {
        let mut v: Vec<(P, K)> = self.iter().collect();
        v.sort_unstable_by_key(|a| a.0);
        v
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.keys.clear();
        self.slot.clear();
        self.free.clear();
        self.pos.clear();
    }

    /// Removes the entry at slot `i`, restoring the heap property.
    fn remove_slot(&mut self, i: usize) -> (P, K) {
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        let (p, h) = self.heap.pop().expect("slot exists");
        let key = self.keys[h as usize];
        self.pos.remove(&key);
        self.free.push(h);
        if i < self.heap.len() {
            self.slot[self.heap[i].1 as usize] = i as u32;
            // The element moved into `i` came from the bottom; it may need
            // to travel either direction relative to `i`'s neighborhood.
            self.sift_up(i);
            self.sift_down(i);
        }
        (p, key)
    }

    // Both sifts move a *hole* instead of swapping: the displaced entry is
    // held in a register and written exactly once at its final slot, so each
    // level costs one entry move + one slot fix rather than a three-write
    // swap. Same comparisons, same final layout.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if e.0 < self.heap[parent].0 {
                self.heap[i] = self.heap[parent];
                self.slot[self.heap[i].1 as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = e;
        self.slot[e.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let e = self.heap[i];
        loop {
            let first_child = ARITY * i + 1;
            if first_child >= len {
                break;
            }
            let end = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            let mut min_p = self.heap[first_child].0;
            for c in (first_child + 1)..end {
                let p = self.heap[c].0;
                if p < min_p {
                    min_child = c;
                    min_p = p;
                }
            }
            if min_p < e.0 {
                self.heap[i] = self.heap[min_child];
                self.slot[self.heap[i].1 as usize] = i as u32;
                i = min_child;
            } else {
                break;
            }
        }
        self.heap[i] = e;
        self.slot[e.1 as usize] = i as u32;
    }

    /// Debug check: heap property and handle-table consistency.
    #[cfg(test)]
    fn check_invariants(&self) {
        assert_eq!(self.heap.len(), self.pos.len());
        // (`PositionIndex::len` tracks insert/remove pairing.)
        for (i, &(p, h)) in self.heap.iter().enumerate() {
            let key = self.keys[h as usize];
            assert_eq!(self.pos.get(&key), Some(h), "pos map out of sync");
            assert_eq!(self.slot[h as usize] as usize, i, "slot table out of sync");
            if i > 0 {
                let parent = (i - 1) / ARITY;
                assert!(self.heap[parent].0 <= p, "heap property violated at {i}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_sorted() {
        let mut h: IndexedMinHeap<u64, u64> = IndexedMinHeap::new();
        for (i, p) in [5u64, 3, 8, 1, 9, 2, 7, 4, 6, 0].into_iter().enumerate() {
            h.push(i as u64, p);
            h.check_invariants();
        }
        let mut out = Vec::new();
        while let Some((p, _)) = h.pop_min() {
            h.check_invariants();
            out.push(p);
        }
        assert_eq!(out, (0u64..10).collect::<Vec<_>>());
    }

    #[test]
    fn push_updates_priority_both_directions() {
        let mut h: IndexedMinHeap<u64, u64> = IndexedMinHeap::new();
        h.push(1u64, 10u64);
        h.push(2, 20);
        h.push(3, 30);
        h.push(3, 5); // decrease
        assert_eq!(h.peek_min(), Some((5, 3)));
        h.push(3, 40); // increase
        assert_eq!(h.peek_min(), Some((10, 1)));
        assert_eq!(h.priority(3), Some(40));
        assert_eq!(h.len(), 3);
        h.check_invariants();
    }

    #[test]
    fn update_with_reads_and_rewrites_on_one_probe() {
        let mut h: IndexedMinHeap<u64, u32, DenseIndex> = IndexedMinHeap::new();
        for k in 0u32..40 {
            h.push(k, u64::from(k * 7 % 40));
        }
        // Absent key: `f` is not called, nothing moves.
        assert_eq!(h.update_with(99, |_| unreachable!("absent key")), None);
        for k in 0u32..40 {
            let before = h.priority(k).unwrap();
            // Alternate increases, decreases and no-ops.
            let after = match k % 3 {
                0 => before + 50,
                1 => before / 2,
                _ => before,
            };
            let seen = h.update_with(k, |old| if k % 3 == 1 { old / 2 } else { after });
            assert_eq!(seen, Some(before));
            assert_eq!(h.priority(k), Some(after));
            assert_eq!(h.len(), 40);
            h.check_invariants();
        }
        let mut prev = 0;
        while let Some((p, _)) = h.pop_min() {
            assert!(prev <= p);
            prev = p;
            h.check_invariants();
        }
    }

    #[test]
    fn remove_arbitrary_keys() {
        let mut h: IndexedMinHeap<u64, u64> = IndexedMinHeap::new();
        for k in 0u64..50 {
            h.push(k, (k * 37) % 50);
        }
        assert_eq!(h.remove(10), Some((10 * 37) % 50));
        assert_eq!(h.remove(10), None);
        assert!(!h.contains(10));
        h.check_invariants();
        let mut prev = None;
        while let Some((p, _)) = h.pop_min() {
            if let Some(q) = prev {
                assert!(q <= p);
            }
            prev = Some(p);
        }
    }

    #[test]
    fn sorted_snapshot_matches_pop_order() {
        let mut h: IndexedMinHeap<(u64, u64), u64> = IndexedMinHeap::new();
        for k in 0u64..30 {
            h.push(k, ((k * 13) % 30, k)); // unique composite priorities
        }
        let snap: Vec<u64> = h.sorted_snapshot().into_iter().map(|(_, k)| k).collect();
        let mut popped = Vec::new();
        while let Some((_, k)) = h.pop_min() {
            popped.push(k);
        }
        assert_eq!(snap, popped);
    }

    #[test]
    fn empty_heap_edge_cases() {
        let mut h: IndexedMinHeap<u64, u64> = IndexedMinHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
        assert_eq!(h.peek_min(), None);
        assert_eq!(h.remove(1), None);
        h.push(1, 1);
        h.clear();
        assert!(h.is_empty() && !h.contains(1));
    }

    proptest::proptest! {
        #[test]
        fn behaves_like_btreeset_reference(
            ops in proptest::collection::vec((0u8..3, 0u64..40, 0u64..1000), 1..400)
        ) {
            use std::collections::{BTreeSet, HashMap};
            let mut h: IndexedMinHeap<(u64, u64), u64> = IndexedMinHeap::new();
            // Reference: BTreeSet of (priority, stamp, key) + entries map,
            // exactly the structure the policies used before the heap.
            let mut set: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
            let mut entries: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut clock = 0u64;
            for (op, key, prio) in ops {
                match op {
                    0 => {
                        clock += 1;
                        if let Some(&(p, s)) = entries.get(&key) {
                            set.remove(&(p, s, key));
                        }
                        entries.insert(key, (prio, clock));
                        set.insert((prio, clock, key));
                        h.push(key, (prio, clock));
                    }
                    1 => {
                        let expect = entries.remove(&key).map(|(p, s)| {
                            set.remove(&(p, s, key));
                            (p, s)
                        });
                        proptest::prop_assert_eq!(h.remove(key), expect);
                    }
                    _ => {
                        let expect = set.iter().next().copied();
                        if let Some((p, s, k)) = expect {
                            set.remove(&(p, s, k));
                            entries.remove(&k);
                            proptest::prop_assert_eq!(h.pop_min(), Some(((p, s), k)));
                        } else {
                            proptest::prop_assert_eq!(h.pop_min(), None);
                        }
                    }
                }
                proptest::prop_assert_eq!(h.len(), entries.len());
            }
        }
    }
}
