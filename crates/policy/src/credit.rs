//! The eviction order behind [`GreedyDualCache`](crate::GreedyDualCache):
//! one FIFO per credit increment, or a flat heap for a store of a few
//! entries.
//!
//! Greedy-dual gives an entry the credit `H = fl(L + d)`, where
//! `d = cost / size` is the entry's *increment* and `L` the inflation
//! value, and ties break on a stamp from a monotone clock. `L` never
//! decreases and rounding to nearest is monotone, so of two entries given
//! the same increment, the one credited later has an `H` no smaller and a
//! larger stamp. Kept in the order their credits were set, one
//! increment's entries are therefore already sorted by `(H, stamp)`:
//! [`CreditFifos`] keeps one FIFO per distinct increment over the crate's
//! FIFO slab, appends on every credit, and finds the victim — the
//! smallest `(H, stamp)` overall — among the FIFO heads. Every operation
//! is O(1) except that lookup, which is linear in the number of distinct
//! increments seen: four for a Hier-GD proxy, whose costs are the network
//! model's four re-fetch costs at size 1. A debug build re-checks the
//! sortedness on every append.
//!
//! Which structure a cache uses follows its index ([`CreditIndex`]):
//! every [`PositionIndex`] takes the FIFOs; [`LinearScan`] keeps the flat
//! heap ([`MinHeap`]), whose array order its
//! [`keys`](CreditOrder::keys) yields — the order the P2P membership
//! paths hand client-cache objects off in.

use std::fmt::Debug;

use crate::fifo::{Fifo, FifoSlab, PositionIndex, NIL};
use crate::heap::{LinearScan, MinHeap};

/// A resident entry's `(H bits, stamp)`. Every credit is non-negative and
/// finite, so unsigned order on the raw IEEE-754 bits is numeric order.
pub type Credit = (u64, u64);

/// The eviction order of a [`GreedyDualCache`](crate::GreedyDualCache):
/// resident keys with their credits, the minimum credit first.
pub trait CreditOrder<K>: Clone + Debug {
    /// An empty order with room for `n` entries.
    fn with_capacity(n: usize) -> Self;
    /// Number of resident keys.
    fn len(&self) -> usize;
    /// True if no key is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// True if `key` is resident.
    fn contains(&self, key: K) -> bool;
    /// `key`'s credit, if resident.
    fn credit(&self, key: K) -> Option<Credit>;
    /// Re-credits `key` at `credit`, given with increment bits
    /// `increment`, if resident; returns whether it was.
    fn update(&mut self, key: K, credit: Credit, increment: u64) -> bool;
    /// Adds `key`, which must be absent, at `credit` with increment bits
    /// `increment`.
    fn insert_new(&mut self, key: K, credit: Credit, increment: u64);
    /// The minimum-credit key without removing it.
    fn peek_min(&self) -> Option<K>;
    /// Removes and returns the minimum-credit key with its credit.
    fn pop_min(&mut self) -> Option<(Credit, K)>;
    /// Removes `key`; returns whether it was resident.
    fn remove(&mut self, key: K) -> bool;
    /// Resident keys, in an order fixed by the operations applied.
    fn keys(&self) -> impl Iterator<Item = K> + '_;
    /// Every resident entry, sorted by credit (allocates).
    fn sorted(&self) -> Vec<(Credit, K)>;
}

/// Names the [`CreditOrder`] a [`GreedyDualCache`](crate::GreedyDualCache)
/// keeps: any [`PositionIndex`] stands for [`CreditFifos`] over it,
/// [`LinearScan`] for a flat [`MinHeap`].
pub trait CreditIndex<K> {
    /// The order behind this choice.
    type Order: CreditOrder<K>;
}

impl<K: Copy + Eq + Debug, X: PositionIndex<K> + Debug> CreditIndex<K> for X {
    type Order = CreditFifos<K, X>;
}

impl<K: Copy + Eq + Debug> CreditIndex<K> for LinearScan {
    type Order = MinHeap<Credit, K>;
}

impl<K: Copy + Eq + Debug> CreditOrder<K> for MinHeap<Credit, K> {
    fn with_capacity(n: usize) -> Self {
        MinHeap::with_capacity(n)
    }

    fn len(&self) -> usize {
        MinHeap::len(self)
    }

    fn contains(&self, key: K) -> bool {
        MinHeap::contains(self, key)
    }

    fn credit(&self, key: K) -> Option<Credit> {
        self.priority(key)
    }

    fn update(&mut self, key: K, credit: Credit, _increment: u64) -> bool {
        MinHeap::update(self, key, credit)
    }

    fn insert_new(&mut self, key: K, credit: Credit, _increment: u64) {
        MinHeap::insert_new(self, key, credit);
    }

    fn peek_min(&self) -> Option<K> {
        MinHeap::peek_min(self).map(|(_, k)| k)
    }

    fn pop_min(&mut self) -> Option<(Credit, K)> {
        MinHeap::pop_min(self)
    }

    fn remove(&mut self, key: K) -> bool {
        MinHeap::remove(self, key).is_some()
    }

    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(_, k)| k)
    }

    fn sorted(&self) -> Vec<(Credit, K)> {
        self.sorted_snapshot()
    }
}

/// The FIFO of one increment, oldest credit at its head.
#[derive(Clone, Debug)]
struct Class {
    /// Bits of the increment `cost / size` every member was credited with.
    increment: u64,
    fifo: Fifo,
}

/// One FIFO per credit increment (module docs): the order of every
/// [`PositionIndex`]-located greedy-dual cache. Its slab never holds more
/// nodes than the cache's capacity, and nothing beside the index is kept
/// per key ever seen.
#[derive(Clone, Debug)]
pub struct CreditFifos<K, X> {
    /// The resident entries and their credits; a node's list is its
    /// class.
    slab: FifoSlab<K, Credit, X>,
    /// One per distinct increment seen, in first-seen order; a class that
    /// empties stays, to be refilled.
    classes: Vec<Class>,
}

impl<K: Copy + Eq, X: PositionIndex<K>> CreditFifos<K, X> {
    /// The class of `increment`, created empty if new.
    fn class_of(&mut self, increment: u64) -> u32 {
        match self.classes.iter().position(|c| c.increment == increment) {
            Some(c) => c as u32,
            None => {
                self.classes.push(Class { increment, fifo: Fifo::EMPTY });
                (self.classes.len() - 1) as u32
            }
        }
    }

    /// Credits `node`, in no FIFO, at `credit` and appends it to the FIFO
    /// of `increment`.
    fn append(&mut self, node: u32, credit: Credit, increment: u64) {
        let c = self.class_of(increment);
        let fifo = &mut self.classes[c as usize].fifo;
        // The exactness argument (module docs): a FIFO stays sorted.
        debug_assert!(
            fifo.tail == NIL || self.slab.val(fifo.tail) < credit,
            "FIFO out of credit order"
        );
        self.slab.set_val(node, credit);
        self.slab.push_back(fifo, node, c);
    }

    /// The node holding the minimum credit: the least of the FIFO heads.
    fn min_node(&self) -> Option<u32> {
        self.classes.iter().filter_map(|c| c.fifo.front()).min_by_key(|&n| self.slab.val(n))
    }

    /// The resident entries, FIFO by FIFO.
    fn resident(&self) -> impl Iterator<Item = (K, Credit)> + '_ {
        self.classes.iter().flat_map(move |c| self.slab.iter(c.fifo))
    }

    /// Unlinks and vacates `node`, unmapping its key; returns the entry.
    fn release(&mut self, node: u32) -> (Credit, K) {
        let c = self.slab.list(node);
        let (key, credit) = self.slab.release(&mut self.classes[c as usize].fifo, node);
        (credit, key)
    }
}

impl<K: Copy + Eq + Debug, X: PositionIndex<K> + Debug> CreditOrder<K> for CreditFifos<K, X> {
    fn with_capacity(n: usize) -> Self {
        CreditFifos { slab: FifoSlab::with_capacity(n), classes: Vec::new() }
    }

    fn len(&self) -> usize {
        self.slab.len()
    }

    #[inline]
    fn contains(&self, key: K) -> bool {
        self.slab.get(&key).is_some()
    }

    fn credit(&self, key: K) -> Option<Credit> {
        self.slab.get(&key).map(|n| self.slab.val(n))
    }

    #[inline]
    fn update(&mut self, key: K, credit: Credit, increment: u64) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        let c = self.slab.list(node);
        self.slab.unlink(&mut self.classes[c as usize].fifo, node);
        self.append(node, credit, increment);
        true
    }

    fn insert_new(&mut self, key: K, credit: Credit, increment: u64) {
        debug_assert!(!self.contains(key), "insert_new of a resident key");
        let node = self.slab.alloc(key, credit);
        self.append(node, credit, increment);
    }

    fn peek_min(&self) -> Option<K> {
        self.min_node().map(|n| self.slab.key(n))
    }

    fn pop_min(&mut self) -> Option<(Credit, K)> {
        let node = self.min_node()?;
        Some(self.release(node))
    }

    fn remove(&mut self, key: K) -> bool {
        let Some(node) = self.slab.get(&key) else { return false };
        self.release(node);
        true
    }

    /// Class by class in first-seen order, each oldest credit first.
    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.resident().map(|(k, _)| k)
    }

    fn sorted(&self) -> Vec<(Credit, K)> {
        let mut v: Vec<(Credit, K)> = self.resident().map(|(k, c)| (c, k)).collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }
}
