//! Keyed d-ary min-heap: the priority structure behind FC/FC-EC's value
//! store ([`ValueCache`](crate::ValueCache)) and the client caches'
//! few-entry greedy-dual stores. The LFU caches and the indexed
//! greedy-dual caches keep FIFOs over a node slab instead, whose writes
//! need no reordering.
//!
//! The original implementations kept eviction order in a
//! `BTreeSet<(Priority, Stamp, Key)>`: every touch allocated/freed a B-tree
//! node and chased pointers across a dozen cache lines. This heap stores
//! the same (priority, stamp) pairs in a flat `Vec` with a [`FxHashMap`]
//! position index, so update/remove of an arbitrary key stays O(log n)
//! with **zero per-operation allocation** and mostly-contiguous memory
//! traffic.
//!
//! How a key is resolved to its entry is the heap's [`KeyLocator`]:
//! [`Handles`] (a [`PositionIndex`] plus handle tables — the value
//! store's [`IndexedMinHeap`]) or [`LinearScan`] (nothing beside
//! the entry array — the client caches' [`FlatMinHeap`]). The tree
//! itself, and so the order [`MinHeap::iter`] yields, is the same under
//! both.
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

use std::fmt::Debug;
use std::hash::Hash;
use webcache_primitives::FxHashMap;

/// Heap arity; 4 keeps siblings within a cache line for small priorities.
const ARITY: usize = 4;

/// Pluggable key → handle index for [`IndexedMinHeap`] and for the node
/// slabs under [`CreditFifos`](crate::CreditFifos) and
/// [`LfuCache`](crate::LfuCache).
///
/// Either consults this exactly once per operation; everything else is
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

/// How a [`MinHeap`] resolves a key to its entry, and what an entry
/// carries beside its priority so the key can be read back.
///
/// The heap reports every entry it moves ([`moved`](Self::moved)), so a
/// locator may track positions ([`Handles`]) or ignore the reports and
/// search the entry array instead ([`LinearScan`]).
pub trait KeyLocator<K>: Clone {
    /// The non-priority half of a heap entry.
    type Tag: Copy + Debug;
    /// A locator with room for `n` keys before growing.
    fn with_capacity(n: usize) -> Self;
    /// The slot of `key`'s entry in `heap`, if present.
    fn find<P>(&self, heap: &[(P, Self::Tag)], key: &K) -> Option<usize>;
    /// True if `key` has an entry in `heap`.
    fn contains<P>(&self, heap: &[(P, Self::Tag)], key: &K) -> bool {
        self.find(heap, key).is_some()
    }
    /// The key behind `tag`.
    fn key(&self, tag: Self::Tag) -> K;
    /// Registers `key` (which must be absent), returning its entry's tag.
    fn admit(&mut self, key: K) -> Self::Tag;
    /// The entry carrying `tag` now lives at `slot`.
    fn moved(&mut self, tag: Self::Tag, slot: usize);
    /// The entry carrying `tag` left the heap; returns its key.
    fn retire(&mut self, tag: Self::Tag) -> K;
    /// Forgets every key.
    fn clear(&mut self);
}

/// The [`KeyLocator`] of an [`IndexedMinHeap`]: keys are interned behind
/// small integer *handles* so that sifting never touches the
/// [`PositionIndex`] — heap entries carry `(priority, handle)`, and a flat
/// `slot[handle]` table tracks where each handle currently lives.
/// Restoring the heap property after an update is then pure `Vec` traffic
/// — the profile showed the earlier design spending more time re-inserting
/// positions into the hash map (one insert per sift level) than comparing
/// priorities. The index is consulted exactly once per operation, to
/// resolve the key to its handle.
#[derive(Clone, Debug)]
pub struct Handles<K, X = HashIndex<K>> {
    /// handle -> key (interning table; slots are recycled via `free`).
    keys: Vec<K>,
    /// handle -> current index in the heap.
    slot: Vec<u32>,
    /// Recycled handles of removed keys.
    free: Vec<u32>,
    /// key -> handle.
    pos: X,
}

impl<K: Copy + Eq, X: PositionIndex<K>> KeyLocator<K> for Handles<K, X> {
    type Tag = u32;

    fn with_capacity(n: usize) -> Self {
        Handles {
            keys: Vec::with_capacity(n),
            slot: Vec::with_capacity(n),
            free: Vec::new(),
            pos: X::with_capacity(n),
        }
    }

    #[inline]
    fn find<P>(&self, _heap: &[(P, u32)], key: &K) -> Option<usize> {
        self.pos.get(key).map(|h| self.slot[h as usize] as usize)
    }

    #[inline]
    fn contains<P>(&self, _heap: &[(P, u32)], key: &K) -> bool {
        self.pos.get(key).is_some()
    }

    #[inline]
    fn key(&self, h: u32) -> K {
        self.keys[h as usize]
    }

    #[inline]
    fn admit(&mut self, key: K) -> u32 {
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
        self.pos.insert(key, h);
        h
    }

    #[inline]
    fn moved(&mut self, h: u32, slot: usize) {
        self.slot[h as usize] = slot as u32;
    }

    #[inline]
    fn retire(&mut self, h: u32) -> K {
        let key = self.keys[h as usize];
        self.pos.remove(&key);
        self.free.push(h);
        key
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.slot.clear();
        self.free.clear();
        self.pos.clear();
    }
}

/// The [`KeyLocator`] of a [`FlatMinHeap`]: entries carry the key itself
/// and a lookup scans the entry array, so the heap is one allocation and a
/// lookup reads consecutive memory. For stores of a few entries — the
/// client caches hold 0.1 % of the infinite cache size, five objects at
/// the benchmark's scale — that beats any index; EXPERIMENTS.md
/// ("Throughput round 5") has the measured crossover.
#[derive(Clone, Copy, Debug)]
pub struct LinearScan;

impl<K: Copy + Eq + Debug> KeyLocator<K> for LinearScan {
    type Tag = K;

    fn with_capacity(_n: usize) -> Self {
        LinearScan
    }

    #[inline]
    fn find<P>(&self, heap: &[(P, K)], key: &K) -> Option<usize> {
        heap.iter().position(|(_, k)| k == key)
    }

    #[inline]
    fn key(&self, key: K) -> K {
        key
    }

    #[inline]
    fn admit(&mut self, key: K) -> K {
        key
    }

    #[inline]
    fn moved(&mut self, _key: K, _slot: usize) {}

    #[inline]
    fn retire(&mut self, key: K) -> K {
        key
    }

    fn clear(&mut self) {}
}

/// A min-heap over `(priority, key)` pairs that finds a key's entry
/// through its [`KeyLocator`] `L`, supporting update-by-key and
/// remove-by-key in O(log n) after the lookup.
///
/// `P` must be a total order (`Ord`); callers that prioritize by `f64`
/// wrap it in a `total_cmp` newtype. Duplicate keys are not stored: a
/// second [`push`](Self::push) of the same key replaces its priority.
#[derive(Clone, Debug)]
pub struct MinHeap<P, K, L: KeyLocator<K>> {
    /// Implicit d-ary tree: children of slot `i` are `ARITY*i + 1 ..= ARITY*i + ARITY`.
    heap: Vec<(P, L::Tag)>,
    loc: L,
}

/// A [`MinHeap`] whose keys are found through the [`PositionIndex`] `X`
/// (O(1) lookup, five allocations).
pub type IndexedMinHeap<P, K, X = HashIndex<K>> = MinHeap<P, K, Handles<K, X>>;

/// A [`MinHeap`] whose keys are found by scanning the entries (O(n)
/// lookup, one allocation).
pub type FlatMinHeap<P, K> = MinHeap<P, K, LinearScan>;

impl<P: Ord + Copy, K: Copy + Eq, L: KeyLocator<K>> Default for MinHeap<P, K, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Ord + Copy, K: Copy + Eq, L: KeyLocator<K>> MinHeap<P, K, L> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty heap with room for `n` entries before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        MinHeap { heap: Vec::with_capacity(n), loc: L::with_capacity(n) }
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
        self.loc.contains(&self.heap, &key)
    }

    /// Current priority of `key`.
    pub fn priority(&self, key: K) -> Option<P> {
        self.loc.find(&self.heap, &key).map(|i| self.heap[i].0)
    }

    /// Updates `key`'s priority if present, returning whether it was.
    /// One lookup — the hit path's alternative to [`push`](Self::push),
    /// which would look up again on insert.
    pub fn update(&mut self, key: K, priority: P) -> bool {
        self.update_with(key, |_| priority).is_some()
    }

    /// Re-prioritises `key` from its current priority: `f` maps the old
    /// priority to the new one. Returns the old priority, or `None`
    /// (without calling `f`) when `key` is absent. Read-modify-write on
    /// one lookup, where [`priority`](Self::priority) followed by
    /// [`update`](Self::update) would look up twice.
    pub fn update_with(&mut self, key: K, f: impl FnOnce(P) -> P) -> Option<P> {
        let i = self.loc.find(&self.heap, &key)?;
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
    /// presence lookup that [`push`](Self::push) pays.
    pub(crate) fn insert_new(&mut self, key: K, priority: P) {
        debug_assert!(!self.contains(key));
        let i = self.heap.len();
        let tag = self.loc.admit(key);
        self.heap.push((priority, tag));
        self.sift_up(i);
    }

    /// The minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(P, K)> {
        self.heap.first().map(|&(p, tag)| (p, self.loc.key(tag)))
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
        let i = self.loc.find(&self.heap, &key)?;
        Some(self.remove_slot(i).0)
    }

    /// Iterates entries in heap-array order, without allocating. The
    /// order depends only on the sequence of operations, never on the
    /// locator.
    pub fn iter(&self) -> impl Iterator<Item = (P, K)> + '_ {
        self.heap.iter().map(|&(p, tag)| (p, self.loc.key(tag)))
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
        self.loc.clear();
    }

    /// Removes the entry at slot `i`, restoring the heap property.
    fn remove_slot(&mut self, i: usize) -> (P, K) {
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        let (p, tag) = self.heap.pop().expect("slot exists");
        let key = self.loc.retire(tag);
        if i < self.heap.len() {
            self.loc.moved(self.heap[i].1, i);
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
                self.loc.moved(self.heap[i].1, i);
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = e;
        self.loc.moved(e.1, i);
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
                self.loc.moved(self.heap[i].1, i);
                i = min_child;
            } else {
                break;
            }
        }
        self.heap[i] = e;
        self.loc.moved(e.1, i);
    }

    /// Debug check: heap property and locator consistency.
    #[cfg(test)]
    fn check_tree(&self) {
        for (i, &(p, tag)) in self.heap.iter().enumerate() {
            let key = self.loc.key(tag);
            assert_eq!(self.loc.find(&self.heap, &key), Some(i), "locator out of sync");
            assert!(self.loc.contains(&self.heap, &key));
            if i > 0 {
                let parent = (i - 1) / ARITY;
                assert!(self.heap[parent].0 <= p, "heap property violated at {i}");
            }
        }
    }
}

#[cfg(test)]
impl<P: Ord + Copy, K: Copy + Eq, X: PositionIndex<K>> IndexedMinHeap<P, K, X> {
    /// [`check_tree`](MinHeap::check_tree), and the index maps exactly
    /// the heap's keys (`PositionIndex::len` tracks insert/remove pairing).
    fn check_invariants(&self) {
        self.check_tree();
        assert_eq!(self.heap.len(), self.loc.pos.len());
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

        /// The two locators are two views of one tree: driven in lockstep
        /// as a bounded store of every size a client cache is given, the
        /// flat and the indexed heap return the same values and hold the
        /// same entries in the same slots after every operation — so
        /// `iter()` order, which the P2P hand-off paths expose, cannot
        /// tell them apart. Priorities repeat, so ties are covered too.
        #[test]
        fn flat_and_indexed_heaps_move_in_lockstep(
            cap in 1usize..65,
            ops in proptest::collection::vec((0u8..5, 0u64..128, 0u64..24), 1..400)
        ) {
            let mut flat: FlatMinHeap<u64, u64> = FlatMinHeap::with_capacity(cap);
            let mut indexed: IndexedMinHeap<u64, u64> = IndexedMinHeap::with_capacity(cap);
            let universe = 2 * cap as u64;
            for (op, key, prio) in ops {
                let key = key % universe;
                match op {
                    0 => {
                        // Insert (evicting the minimum when full) or update.
                        if !flat.contains(key) && flat.len() == cap {
                            proptest::prop_assert_eq!(flat.pop_min(), indexed.pop_min());
                        }
                        flat.push(key, prio);
                        indexed.push(key, prio);
                    }
                    1 => {
                        // Update upwards from wherever the key sits.
                        let f = |old: u64| old + prio;
                        proptest::prop_assert_eq!(
                            flat.update_with(key, f),
                            indexed.update_with(key, f)
                        );
                    }
                    2 => {
                        // Update downwards.
                        let f = |old: u64| old.saturating_sub(prio);
                        proptest::prop_assert_eq!(
                            flat.update_with(key, f),
                            indexed.update_with(key, f)
                        );
                    }
                    3 => proptest::prop_assert_eq!(flat.remove(key), indexed.remove(key)),
                    _ => proptest::prop_assert_eq!(flat.pop_min(), indexed.pop_min()),
                }
                flat.check_tree();
                indexed.check_invariants();
                let (a, b): (Vec<_>, Vec<_>) = (flat.iter().collect(), indexed.iter().collect());
                proptest::prop_assert_eq!(a, b, "iter() order diverged");
                proptest::prop_assert_eq!(flat.peek_min(), indexed.peek_min());
                for k in 0..universe {
                    proptest::prop_assert_eq!(flat.contains(k), indexed.contains(k));
                    proptest::prop_assert_eq!(flat.priority(k), indexed.priority(k));
                }
            }
        }
    }
}
