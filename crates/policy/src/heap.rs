//! Flat d-ary min-heap: the order of the client caches' few-entry
//! greedy-dual stores, `GreedyDualCache<u128, LinearScan>`. Every other
//! policy keeps FIFOs over one node slab instead (the `fifo` module),
//! whose writes need no reordering.
//!
//! The heap keeps its `(priority, key)` pairs in one flat `Vec` and finds
//! a key by scanning it, so a store is one allocation and a lookup reads
//! consecutive memory; update/remove of a found key is O(log n) with
//! **zero per-operation allocation**. Its array order, which
//! [`MinHeap::iter`] yields, is what the P2P membership paths hand a
//! client cache's objects off in.
//!
//! A 4-ary layout is used rather than binary: the tree is half as deep, and
//! the four children of a node share one or two cache lines, which is the
//! standard trade for heaps whose cost is dominated by sift-down during
//! `pop_min` (eviction).
//!
//! Greedy-dual embeds a monotone stamp in the priority (`(H, stamp)`),
//! so the order is total and the heap never compares keys.

/// Heap arity; 4 keeps siblings within a cache line for small priorities.
const ARITY: usize = 4;

/// Names the [`MinHeap`] as a [`GreedyDualCache`](crate::GreedyDualCache)'s
/// order ([`CreditIndex`](crate::CreditIndex)): no index, entries carry
/// the key itself and a lookup scans the entry array. For stores of a few
/// entries — the client caches hold 0.1 % of the infinite cache size,
/// five objects at the benchmark's scale — that beats any index;
/// EXPERIMENTS.md ("Throughput round 5") has the measured crossover.
#[derive(Clone, Copy, Debug)]
pub struct LinearScan;

/// A min-heap over `(priority, key)` pairs that finds a key's entry by
/// scanning, supporting update-by-key and remove-by-key in O(log n) after
/// the lookup.
///
/// `P` must be a total order (`Ord`); callers that prioritize by `f64`
/// wrap it in a `total_cmp` newtype. Keys are unique: the caller inserts
/// only absent keys.
#[derive(Clone, Debug)]
pub struct MinHeap<P, K> {
    /// Implicit d-ary tree: children of slot `i` are `ARITY*i + 1 ..= ARITY*i + ARITY`.
    heap: Vec<(P, K)>,
}

impl<P: Ord + Copy, K: Copy + Eq> MinHeap<P, K> {
    /// Creates an empty heap with room for `n` entries before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        MinHeap { heap: Vec::with_capacity(n) }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Bytes the entry array holds on the heap, from its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<(P, K)>()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The slot of `key`'s entry, if present.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        self.heap.iter().position(|&(_, k)| k == key)
    }

    /// True if `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// Current priority of `key`.
    pub fn priority(&self, key: K) -> Option<P> {
        self.find(key).map(|i| self.heap[i].0)
    }

    /// Updates `key`'s priority if present, returning whether it was.
    pub fn update(&mut self, key: K, priority: P) -> bool {
        let Some(i) = self.find(key) else { return false };
        let old = self.heap[i].0;
        self.heap[i].0 = priority;
        if priority < old {
            self.sift_up(i);
        } else if old < priority {
            self.sift_down(i);
        }
        true
    }

    /// Inserts `key`, which the caller guarantees is absent, at
    /// `priority`.
    pub(crate) fn insert_new(&mut self, key: K, priority: P) {
        debug_assert!(!self.contains(key));
        let i = self.heap.len();
        self.heap.push((priority, key));
        self.sift_up(i);
    }

    /// The minimum entry without removing it.
    pub fn peek_min(&self) -> Option<(P, K)> {
        self.heap.first().copied()
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
        let i = self.find(key)?;
        Some(self.remove_slot(i).0)
    }

    /// Iterates entries in heap-array order, without allocating. The
    /// order depends only on the sequence of operations.
    pub fn iter(&self) -> impl Iterator<Item = (P, K)> + '_ {
        self.heap.iter().copied()
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

    /// Removes the entry at slot `i`, restoring the heap property.
    fn remove_slot(&mut self, i: usize) -> (P, K) {
        let last = self.heap.len() - 1;
        self.heap.swap(i, last);
        let entry = self.heap.pop().expect("slot exists");
        if i < self.heap.len() {
            // The element moved into `i` came from the bottom; it may need
            // to travel either direction relative to `i`'s neighborhood.
            self.sift_up(i);
            self.sift_down(i);
        }
        entry
    }

    // Both sifts move a *hole* instead of swapping: the displaced entry is
    // held in a register and written exactly once at its final slot, so each
    // level costs one entry move rather than a three-write swap. Same
    // comparisons, same final layout.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if e.0 < self.heap[parent].0 {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = e;
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
                i = min_child;
            } else {
                break;
            }
        }
        self.heap[i] = e;
    }

    /// Debug check: heap property, and every key found at its own slot
    /// (so no key is stored twice).
    #[cfg(test)]
    fn check_tree(&self) {
        for (i, &(p, key)) in self.heap.iter().enumerate() {
            assert_eq!(self.find(key), Some(i), "key stored twice");
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
        let mut h: MinHeap<u64, u64> = MinHeap::with_capacity(0);
        for (i, p) in [5u64, 3, 8, 1, 9, 2, 7, 4, 6, 0].into_iter().enumerate() {
            h.insert_new(i as u64, p);
            h.check_tree();
        }
        let mut out = Vec::new();
        while let Some((p, _)) = h.pop_min() {
            h.check_tree();
            out.push(p);
        }
        assert_eq!(out, (0u64..10).collect::<Vec<_>>());
    }

    #[test]
    fn update_moves_priority_both_directions() {
        let mut h: MinHeap<u64, u64> = MinHeap::with_capacity(0);
        h.insert_new(1u64, 10u64);
        h.insert_new(2, 20);
        h.insert_new(3, 30);
        assert!(h.update(3, 5)); // decrease
        assert_eq!(h.peek_min(), Some((5, 3)));
        assert!(h.update(3, 40)); // increase
        assert_eq!(h.peek_min(), Some((10, 1)));
        assert_eq!(h.priority(3), Some(40));
        assert_eq!(h.len(), 3);
        h.check_tree();
    }

    #[test]
    fn update_rewrites_in_place_and_keeps_the_heap() {
        let mut h: MinHeap<u64, u32> = MinHeap::with_capacity(0);
        for k in 0u32..40 {
            h.insert_new(k, u64::from(k * 7 % 40));
        }
        // Absent key: nothing moves.
        assert!(!h.update(99, 0));
        for k in 0u32..40 {
            let before = h.priority(k).unwrap();
            // Alternate increases, decreases and no-ops.
            let after = match k % 3 {
                0 => before + 50,
                1 => before / 2,
                _ => before,
            };
            assert!(h.update(k, after));
            assert_eq!(h.priority(k), Some(after));
            assert_eq!(h.len(), 40);
            h.check_tree();
        }
        let mut prev = 0;
        while let Some((p, _)) = h.pop_min() {
            assert!(prev <= p);
            prev = p;
            h.check_tree();
        }
    }

    #[test]
    fn remove_arbitrary_keys() {
        let mut h: MinHeap<u64, u64> = MinHeap::with_capacity(0);
        for k in 0u64..50 {
            h.insert_new(k, (k * 37) % 50);
        }
        assert_eq!(h.remove(10), Some((10 * 37) % 50));
        assert_eq!(h.remove(10), None);
        assert!(!h.contains(10));
        h.check_tree();
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
        let mut h: MinHeap<(u64, u64), u64> = MinHeap::with_capacity(0);
        for k in 0u64..30 {
            h.insert_new(k, ((k * 13) % 30, k)); // unique composite priorities
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
        let mut h: MinHeap<u64, u64> = MinHeap::with_capacity(0);
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
        assert_eq!(h.peek_min(), None);
        assert_eq!(h.remove(1), None);
        h.insert_new(1, 1);
        assert_eq!(h.pop_min(), Some((1, 1)));
        assert!(h.is_empty() && !h.contains(1));
    }

    proptest::proptest! {
        #[test]
        fn behaves_like_btreeset_reference(
            ops in proptest::collection::vec((0u8..3, 0u64..40, 0u64..1000), 1..400)
        ) {
            use std::collections::{BTreeSet, HashMap};
            let mut h: MinHeap<(u64, u64), u64> = MinHeap::with_capacity(0);
            // Reference: BTreeSet of (priority, stamp, key) + entries map,
            // exactly the structure the policies used before the heap.
            let mut set: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
            let mut entries: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut clock = 0u64;
            for (op, key, prio) in ops {
                match op {
                    0 => {
                        clock += 1;
                        let resident = entries.insert(key, (prio, clock));
                        if let Some((p, s)) = resident {
                            set.remove(&(p, s, key));
                        }
                        set.insert((prio, clock, key));
                        proptest::prop_assert_eq!(h.update(key, (prio, clock)), resident.is_some());
                        if resident.is_none() {
                            h.insert_new(key, (prio, clock));
                        }
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
                h.check_tree();
                proptest::prop_assert_eq!(h.len(), entries.len());
                for (&k, &p) in &entries {
                    proptest::prop_assert_eq!(h.priority(k), Some(p));
                }
            }
        }
    }
}
