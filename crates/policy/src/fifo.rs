//! FIFOs over one slab of nodes: the order of every list-ordered policy,
//! and the [`PositionIndex`] the slab finds keys through.
//!
//! LRU, LFU, the value store and greedy-dual each evict the oldest entry
//! of some FIFO: the LRU caches keep one, the LFU caches one per resident
//! frequency, the value store one per resident value, an indexed
//! greedy-dual cache one per credit increment. A policy keeps its
//! [`Fifo`]s where it likes (a bucket or class holds its own inline) and
//! numbers them; its nodes live in one [`FifoSlab`]. Every write appends
//! at a tail, so a FIFO lists its members in last-write order, with no
//! stamp clock.

use std::hash::Hash;
use webcache_primitives::FxHashMap;

/// Pluggable key → node index for the FIFO node slab under
/// [`CreditFifos`](crate::CreditFifos), [`LfuCache`](crate::LfuCache),
/// [`PerfectLfuCache`](crate::PerfectLfuCache),
/// [`ValueCache`](crate::ValueCache), [`LruCache`](crate::LruCache) and
/// [`ByteLruCache`](crate::ByteLruCache).
///
/// Each consults this at most once per operation; everything else is
/// flat `Vec` traffic. The default [`HashIndex`] works for any hashable
/// key; [`DenseIndex`] replaces the hash probe with a direct array load
/// when keys are small dense integers (the simulator's `ObjectId`s are
/// `0..num_objects`, so the proxy caches — the hottest structures in the
/// whole simulator, probed on every request — qualify).
/// `Default` is a supertrait only so that no crate can make the
/// non-`Default` [`LinearScan`](crate::LinearScan) a `PositionIndex`,
/// which lets [`CreditIndex`](crate::CreditIndex) be implemented for
/// both.
pub trait PositionIndex<K>: Clone + Default {
    /// An index with room for `n` keys before growing.
    fn with_capacity(n: usize) -> Self;
    /// The node of `key`, if present.
    fn get(&self, key: &K) -> Option<u32>;
    /// Maps `key` to `node` (the key must be absent).
    fn insert(&mut self, key: K, node: u32);
    /// Unmaps `key` (the key must be present).
    fn remove(&mut self, key: &K);
    /// Number of mapped keys.
    fn len(&self) -> usize;
    /// True when no keys are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default [`PositionIndex`]: an `FxHashMap` from key to node.
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
    fn insert(&mut self, key: K, node: u32) {
        let prev = self.0.insert(key, node);
        debug_assert!(prev.is_none(), "insert of a mapped key");
    }

    #[inline]
    fn remove(&mut self, key: &K) {
        let prev = self.0.remove(key);
        debug_assert!(prev.is_some(), "remove of an unmapped key");
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A [`PositionIndex`] for dense `u32` keys: `table[key]` holds the
/// node (`u32::MAX` = absent). One predictable load per probe, no
/// hashing — but memory is proportional to the largest key ever seen, so
/// only use it where keys are known to be dense (e.g. trace object ids).
#[derive(Clone, Debug, Default)]
pub struct DenseIndex {
    table: Vec<u32>,
    len: usize,
}

/// Sentinel for "key absent" in [`DenseIndex`] (nodes are slab slots,
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
    fn insert(&mut self, key: u32, node: u32) {
        let i = key as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, ABSENT);
        }
        debug_assert_eq!(self.table[i], ABSENT, "insert of a mapped key");
        self.table[i] = node;
        self.len += 1;
    }

    #[inline]
    fn remove(&mut self, key: &u32) {
        debug_assert_ne!(self.table[*key as usize], ABSENT, "remove of an unmapped key");
        self.table[*key as usize] = ABSENT;
        self.len -= 1;
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// "No node": the ends of a FIFO, of the free chain and of the LFU
/// bucket list.
pub(crate) const NIL: u32 = u32::MAX;

/// A doubly linked FIFO of slab nodes, the oldest at `head`; both ends
/// are [`NIL`] when it is empty.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fifo {
    pub(crate) head: u32,
    pub(crate) tail: u32,
}

impl Fifo {
    /// A FIFO with no nodes.
    pub(crate) const EMPTY: Fifo = Fifo { head: NIL, tail: NIL };

    /// The oldest node, if any.
    #[inline]
    pub(crate) fn front(self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }
}

/// An entry, linked into the FIFO numbered `list`. Vacated nodes are
/// chained through `next`.
#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    val: V,
    prev: u32,
    next: u32,
    list: u32,
}

/// The nodes of every FIFO of one cache, and the index `X` from a key to
/// its node. A vacated node is reused by the next insert, so the slab
/// never holds more nodes than the cache has held entries at once.
#[derive(Clone, Debug)]
pub(crate) struct FifoSlab<K, V, X> {
    /// key -> node.
    index: X,
    nodes: Vec<Node<K, V>>,
    /// Head of the chain of vacated nodes.
    free: u32,
}

impl<K: Copy + Eq, V: Copy, X: PositionIndex<K>> FifoSlab<K, V, X> {
    /// An empty slab with room for `n` nodes and keys before growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        FifoSlab { index: X::with_capacity(n), nodes: Vec::with_capacity(n), free: NIL }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The node of `key`, if resident.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<u32> {
        self.index.get(key)
    }

    #[inline]
    pub(crate) fn key(&self, node: u32) -> K {
        self.nodes[node as usize].key
    }

    #[inline]
    pub(crate) fn val(&self, node: u32) -> V {
        self.nodes[node as usize].val
    }

    #[inline]
    pub(crate) fn set_val(&mut self, node: u32, val: V) {
        self.nodes[node as usize].val = val;
    }

    /// The list `node` was last appended to.
    #[inline]
    pub(crate) fn list(&self, node: u32) -> u32 {
        self.nodes[node as usize].list
    }

    /// Maps `key`, which must be absent, to a vacated or new node holding
    /// `val`, which is in no FIFO until appended.
    pub(crate) fn alloc(&mut self, key: K, val: V) -> u32 {
        let node = match self.free {
            NIL => {
                self.nodes.push(Node { key, val, prev: NIL, next: NIL, list: NIL });
                (self.nodes.len() - 1) as u32
            }
            n => {
                let node = &mut self.nodes[n as usize];
                self.free = node.next;
                node.key = key;
                node.val = val;
                n
            }
        };
        self.index.insert(key, node);
        node
    }

    /// Appends `node`, in no FIFO, at the tail of `fifo`, the list the
    /// caller numbers `list`.
    #[inline]
    pub(crate) fn push_back(&mut self, fifo: &mut Fifo, node: u32, list: u32) {
        let tail = fifo.tail;
        fifo.tail = node;
        match tail {
            NIL => fifo.head = node,
            t => {
                let t = &mut self.nodes[t as usize];
                debug_assert!(t.list == list && t.next == NIL, "FIFO tail out of place");
                t.next = node;
            }
        }
        let n = &mut self.nodes[node as usize];
        n.prev = tail;
        n.next = NIL;
        n.list = list;
    }

    /// Takes `node` out of `fifo`, the FIFO it is in.
    #[inline]
    pub(crate) fn unlink(&mut self, fifo: &mut Fifo, node: u32) {
        let Node { prev, next, .. } = self.nodes[node as usize];
        match prev {
            NIL => fifo.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => fifo.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Unlinks `node` from `fifo` and vacates it, unmapping its key;
    /// returns the entry.
    pub(crate) fn release(&mut self, fifo: &mut Fifo, node: u32) -> (K, V) {
        self.unlink(fifo, node);
        let n = &mut self.nodes[node as usize];
        n.next = self.free;
        self.free = node;
        self.index.remove(&n.key);
        (n.key, n.val)
    }

    /// The entries of `fifo`, oldest first.
    pub(crate) fn iter(&self, fifo: Fifo) -> impl Iterator<Item = (K, V)> + '_ {
        std::iter::successors(fifo.front(), move |&n| {
            let next = self.nodes[n as usize].next;
            (next != NIL).then_some(next)
        })
        .map(move |n| (self.nodes[n as usize].key, self.nodes[n as usize].val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Credit;
    use std::mem::size_of;

    #[test]
    fn nodes_are_as_small_as_the_structures_they_replaced() {
        // LFU at dense `u32` ids, and a Hier-GD proxy's greedy-dual.
        assert_eq!(size_of::<Node<u32, ()>>(), 16);
        assert_eq!(size_of::<Node<u32, Credit>>(), 32);
        // The same on the default hash index over `u64` keys.
        assert_eq!(size_of::<Node<u64, ()>>(), 24);
        assert_eq!(size_of::<Node<u64, Credit>>(), 40);
    }
}
