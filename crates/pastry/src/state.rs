//! Per-node Pastry routing state: leaf set and prefix routing table.

use crate::id::NodeId;
use std::fmt;

/// Overlay configuration.
///
/// `b` is Pastry's digit width (the paper quotes hop counts for `b = 4`,
/// i.e. base-16 digits) and `leaf_set_size` is `l`, "a configuration
/// parameter in Pastry with typical value 16" (§4.3).
#[derive(Clone, Copy, Debug)]
pub struct PastryConfig {
    /// Digit width in bits; must divide 128 (1, 2, 4 or 8).
    pub b: u32,
    /// Total leaf-set size `l` (split evenly between the clockwise and
    /// counter-clockwise sides); must be even and positive.
    pub leaf_set_size: usize,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig { b: 4, leaf_set_size: 16 }
    }
}

impl PastryConfig {
    /// Number of digits in an id (`128 / b`).
    pub fn digits(&self) -> usize {
        (128 / self.b) as usize
    }

    /// Number of columns per routing-table row (`2^b`).
    pub fn cols(&self) -> usize {
        1usize << self.b
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.b == 0 || 128 % self.b != 0 || self.b > 8 {
            return Err(format!("b must be one of 1,2,4,8 (got {})", self.b));
        }
        if self.leaf_set_size == 0 || !self.leaf_set_size.is_multiple_of(2) {
            return Err("leaf_set_size must be positive and even".into());
        }
        Ok(())
    }
}

/// What [`Overlay`](crate::Overlay) reads and writes of one node's
/// routing state. [`NodeState`] is the implementation every overlay
/// runs; the trait is the seam that lets the crate's lockstep test run
/// the same overlay over the previous layout and compare the two.
pub trait RoutingState: Clone + fmt::Debug {
    /// Fresh state for node `id`.
    fn new(id: NodeId, cfg: PastryConfig) -> Self;
    /// This node's id.
    fn id(&self) -> NodeId;
    /// The routing-table slot a peer belongs in; `None` for self.
    fn slot_for(&self, peer: NodeId) -> Option<(usize, usize)>;
    /// Records `peer` in its table slot if that slot is empty.
    fn consider_for_table(&mut self, peer: NodeId) -> bool;
    /// Considers `peer` for both leaf-set sides.
    fn consider_for_leaf(&mut self, peer: NodeId) -> bool;
    /// Forgets a failed peer (leaf set and table).
    fn purge(&mut self, dead: NodeId) -> bool;
    /// Forgets every peer matching `pred` (leaf set and table).
    fn purge_where(&mut self, pred: impl FnMut(NodeId) -> bool) -> bool;
    /// Clockwise leaf side, nearest first.
    fn leaf_cw(&self) -> &[NodeId];
    /// Counter-clockwise leaf side, nearest first.
    fn leaf_ccw(&self) -> impl Iterator<Item = NodeId> + '_;
    /// Distinct leaf members: clockwise side, then the rest of the
    /// counter-clockwise side.
    fn leaf_iter(&self) -> impl Iterator<Item = NodeId> + '_;
    /// [`leaf_iter`](Self::leaf_iter), collected.
    fn leaf_members(&self) -> Vec<NodeId>;
    /// True if the leaf set's arc covers `key`.
    fn leaf_covers(&self, key: NodeId) -> bool;
    /// The closest leaf member (or self) when the leaf set covers `key`.
    fn leaf_route(&self, key: NodeId) -> Option<NodeId>;
    /// Routing-table entry at (`row`, `col`).
    fn table_entry(&self, row: usize, col: usize) -> Option<NodeId>;
    /// Row `row`'s populated slots as `(col, peer)`, in column order.
    fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, NodeId)> + '_;
    /// Every known peer, leaf sides first, then the table row-major; may
    /// repeat a peer.
    fn known_iter(&self) -> impl Iterator<Item = NodeId> + '_;
    /// [`known_iter`](Self::known_iter)'s first occurrences.
    fn known_nodes(&self) -> Vec<NodeId>;
}

/// Routing state of a single Pastry node.
///
/// Everything the node knows sits in one exact-size block, `known`, and
/// the routing table's shape in a bitmap, `slots`. At 1,000 nodes
/// (b = 4, l = 16) a node holds 16 leaf members and about 32 table
/// entries: 48 ids, 768 B, plus an 8–16 B bitmap and this 96 B struct,
/// which sits inline in the overlay's id map. With the map's and the
/// allocator's overhead that is 1.37 KB per node (the RSS grown by
/// building a 1,000-node overlay, divided by 1,000). The previous layout
/// cost 3.77 KB on the same probe: a 176 B struct, one 16-slot vector
/// of 32 B `Option<NodeId>` per populated row (about 1.6 KB), a sorted
/// copy of the leaf set with each member's position (32 B per entry, its
/// capacity doubled to 32 entries: 1 KB) and two leaf vectors.
#[derive(Clone, Debug)]
pub struct NodeState {
    id: NodeId,
    /// `[clockwise side | counter-clockwise side | table entries]`, a
    /// boxed slice, so there is never spare capacity. The clockwise side
    /// runs nearest first and the counter-clockwise side farthest first,
    /// so whenever the sides do not overlap (more than `l` nodes) the
    /// leaf region ascends in clockwise position from `id`: it is the
    /// ring arc around the node, which delivery binary-searches in place.
    /// The table entries follow in row-major slot order, so
    /// [`known_iter`](Self::known_iter) walks three contiguous runs.
    known: Box<[NodeId]>,
    /// One bit per routing-table slot, bit `row · 2^b + col`, packed in
    /// words; words past the last occupied slot are not stored. Slot `p`'s
    /// entry is `known[leaves + rank(p)]`, where `rank` counts the set
    /// bits below `p`. Only about `log_2^b N` of the `digits()` rows ever
    /// hold an entry, so this is one or two words where a dense table of
    /// `Option<NodeId>` would be 16 KB.
    slots: Box<[u64]>,
    /// Length of the clockwise side.
    cw: u32,
    /// Length of the counter-clockwise side.
    ccw: u32,
    /// `l/2`, the most either side holds.
    half: u32,
    /// Digit width in bits.
    b: u8,
    /// [`leaf_covers`](Self::leaf_covers) operands, derived from the two
    /// far ends of the leaf set by `refresh_cover`: `key` is covered iff
    /// `(key − id) + cover_add ≤ cover_rhs` in wrapping arithmetic, and
    /// `(0, u128::MAX)` covers the whole ring. Every routing hop asks
    /// this first; kept here, a hop that forwards reads no leaf member.
    cover_add: u128,
    cover_rhs: u128,
}

impl NodeState {
    /// Fresh state for node `id`.
    ///
    /// # Panics
    /// Panics if `b` does not fit in a `u8` or `l/2` in a `u32`.
    pub fn new(id: NodeId, cfg: PastryConfig) -> Self {
        NodeState {
            id,
            known: Box::default(),
            slots: Box::default(),
            cw: 0,
            ccw: 0,
            half: u32::try_from(cfg.leaf_set_size / 2).expect("l/2 fits in a u32"),
            b: u8::try_from(cfg.b).expect("b fits in a u8"),
            cover_add: 0,
            cover_rhs: u128::MAX,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> PastryConfig {
        PastryConfig { b: u32::from(self.b), leaf_set_size: 2 * self.half as usize }
    }

    /// Number of leaf-set entries, both sides counted.
    fn leaves(&self) -> usize {
        (self.cw + self.ccw) as usize
    }

    /// The routing-table entries, row-major.
    fn table(&self) -> &[NodeId] {
        &self.known[self.leaves()..]
    }

    /// Bitmap position of slot (`row`, `col`).
    fn slot_bit(&self, row: usize, col: usize) -> usize {
        row << self.b | col
    }

    /// True if slot bit `p` is occupied.
    fn occupied(&self, p: usize) -> bool {
        self.slots.get(p / 64).is_some_and(|w| w >> (p % 64) & 1 == 1)
    }

    /// Occupied slots below bit `p`: the table index slot `p`'s entry has
    /// or would take.
    fn rank(&self, p: usize) -> usize {
        let (w, bit) = (p / 64, p % 64);
        let whole = self.slots.iter().take(w).map(|x| x.count_ones()).sum::<u32>();
        let part = self.slots.get(w).map_or(0, |x| (x & ((1u64 << bit) - 1)).count_ones());
        (whole + part) as usize
    }

    /// Drops trailing all-empty bitmap words.
    fn trim_slots(&mut self) {
        let keep = self.slots.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if keep < self.slots.len() {
            self.slots = self.slots[..keep].into();
        }
    }

    /// Routing-table entry at (`row`, `col`).
    #[inline]
    pub fn table_entry(&self, row: usize, col: usize) -> Option<NodeId> {
        if col >> self.b != 0 {
            return None;
        }
        let p = self.slot_bit(row, col);
        let word = *self.slots.get(p / 64)?;
        let bit = 1u64 << (p % 64);
        if word & bit == 0 {
            return None;
        }
        // `rank(p)`, with the word already in hand.
        let below = self.slots[..p / 64].iter().map(|w| w.count_ones()).sum::<u32>()
            + (word & (bit - 1)).count_ones();
        Some(self.table()[below as usize])
    }

    /// The routing-table slot a peer belongs in: row = shared prefix
    /// digits, col = the peer's first differing digit. `None` for self.
    pub fn slot_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        if peer == self.id {
            return None;
        }
        let b = u32::from(self.b);
        let row = self.id.shared_prefix_digits(peer, b);
        let col = peer.digit(row, b) as usize;
        Some((row, col))
    }

    /// Records `peer` in the routing table if its slot is empty.
    /// Returns true if the table changed.
    pub fn consider_for_table(&mut self, peer: NodeId) -> bool {
        let Some((row, col)) = self.slot_for(peer) else {
            return false;
        };
        let p = self.slot_bit(row, col);
        if self.occupied(p) {
            return false;
        }
        let at = self.leaves() + self.rank(p);
        if self.slots.len() <= p / 64 {
            let mut words = std::mem::take(&mut self.slots).into_vec();
            words.resize(p / 64 + 1, 0);
            self.slots = words.into_boxed_slice();
        }
        self.slots[p / 64] |= 1 << (p % 64);
        let mut known = std::mem::take(&mut self.known).into_vec();
        known.reserve_exact(1);
        known.insert(at, peer);
        self.known = known.into_boxed_slice();
        true
    }

    /// Removes `peer` from the routing table (it can only sit in its own
    /// slot); returns true if it was there.
    pub fn remove_from_table(&mut self, peer: NodeId) -> bool {
        let Some((row, col)) = self.slot_for(peer) else {
            return false;
        };
        if self.table_entry(row, col) != Some(peer) {
            return false;
        }
        let p = self.slot_bit(row, col);
        let at = self.leaves() + self.rank(p);
        self.slots[p / 64] &= !(1 << (p % 64));
        self.trim_slots();
        let mut known = std::mem::take(&mut self.known).into_vec();
        known.remove(at);
        self.known = known.into_boxed_slice();
        true
    }

    /// Considers `peer` for the leaf set, keeping each side at `l/2`
    /// nearest-first. Returns true if the leaf set changed.
    pub fn consider_for_leaf(&mut self, peer: NodeId) -> bool {
        if peer == self.id {
            return false;
        }
        // Leaf sets take the l/2 successors and the l/2 predecessors, so
        // a peer is a candidate for both sides, each judged by its own
        // walking direction; on a ring of at most l nodes the same peer
        // sits on both.
        let (me, half) = (self.id, self.half as usize);
        let d = me.clockwise_distance(peer);
        // Nearer members on each side: where the peer would go, counted
        // from the near end.
        let cw_at = (!self.leaf_cw().contains(&peer))
            .then(|| self.leaf_cw().partition_point(|&n| me.clockwise_distance(n) < d))
            .filter(|&at| at < half);
        let ccw_far = self.ccw_side().partition_point(|&n| me.clockwise_distance(n) < d);
        let ccw_at = (!self.ccw_side().contains(&peer))
            .then(|| self.ccw as usize - ccw_far)
            .filter(|&at| at < half);
        if cw_at.is_none() && ccw_at.is_none() {
            return false;
        }
        let grows = [(cw_at, self.cw), (ccw_at, self.ccw)]
            .into_iter()
            .filter(|&(at, len)| at.is_some() && (len as usize) < half)
            .count();
        let mut known = std::mem::take(&mut self.known).into_vec();
        known.reserve_exact(grows);
        // The counter-clockwise side first: it sits above the clockwise
        // one, so changing it leaves the clockwise indices valid. Stored
        // farthest first, it drops its farthest member from the front.
        if ccw_at.is_some() {
            let mut at = self.cw as usize + ccw_far;
            if self.ccw as usize == half {
                known.remove(self.cw as usize);
                at -= 1;
            } else {
                self.ccw += 1;
            }
            known.insert(at, peer);
        }
        if let Some(at) = cw_at {
            if self.cw as usize == half {
                known.remove(half - 1);
            } else {
                self.cw += 1;
            }
            known.insert(at, peer);
        }
        self.known = known.into_boxed_slice();
        self.refresh_cover();
        true
    }

    /// Forgets a failed peer entirely (leaf set and routing table) — the
    /// per-node half of failure repair. Returns true if any state changed,
    /// which is what decides whether this node would gossip the repair.
    pub fn purge(&mut self, dead: NodeId) -> bool {
        let in_leaf = self.remove_from_leaf(dead);
        let in_table = self.remove_from_table(dead);
        in_leaf || in_table
    }

    /// Forgets every peer matching `pred` (leaf set and routing table) —
    /// the per-node half of an island cut: when a partition splits the
    /// ring, each node drops every reference that crosses the cut in one
    /// sweep, exactly as if it had timed out on each of them. Returns
    /// true if any state changed. `pred` sees the clockwise side, the
    /// counter-clockwise side, then the table row-major.
    pub fn purge_where(&mut self, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        let leaves = self.leaves();
        // `pred` sees the counter-clockwise side nearest first, so that
        // side is walked from its far end of storage backwards.
        let kept_cw: Vec<NodeId> = self.leaf_cw().iter().copied().filter(|&n| !pred(n)).collect();
        let mut kept_ccw: Vec<NodeId> = self.leaf_ccw().filter(|&n| !pred(n)).collect();
        kept_ccw.reverse();
        let mut kept = Vec::with_capacity(self.known.len());
        kept.extend_from_slice(&kept_cw);
        kept.extend_from_slice(&kept_ccw);
        // Table entries pair with the set bits in ascending order.
        let mut entries = self.known[leaves..].iter();
        for word in self.slots.iter_mut() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let &n = entries.next().expect("one entry per occupied slot");
                if pred(n) {
                    *word ^= bit;
                } else {
                    kept.push(n);
                }
            }
        }
        if kept.len() == self.known.len() {
            return false;
        }
        self.cw = kept_cw.len() as u32;
        self.ccw = kept_ccw.len() as u32;
        self.known = kept.into_boxed_slice();
        self.refresh_cover();
        self.trim_slots();
        true
    }

    /// Removes `peer` from the leaf set; returns true if present.
    pub fn remove_from_leaf(&mut self, peer: NodeId) -> bool {
        let cw_at = self.leaf_cw().iter().position(|&n| n == peer);
        let ccw_at = self.ccw_side().iter().position(|&n| n == peer);
        if cw_at.is_none() && ccw_at.is_none() {
            return false;
        }
        let mut known = std::mem::take(&mut self.known).into_vec();
        if let Some(at) = ccw_at {
            known.remove(self.cw as usize + at);
            self.ccw -= 1;
        }
        if let Some(at) = cw_at {
            known.remove(at);
            self.cw -= 1;
        }
        self.known = known.into_boxed_slice();
        self.refresh_cover();
        true
    }

    /// True if the leaf set (either side) contains `peer`.
    pub fn leaf_contains(&self, peer: NodeId) -> bool {
        self.known[..self.leaves()].contains(&peer)
    }

    /// All distinct leaf-set members.
    pub fn leaf_members(&self) -> Vec<NodeId> {
        self.leaf_iter().collect()
    }

    /// All distinct leaf-set members, without allocating: clockwise side
    /// first (nearest first), then counter-clockwise members not already
    /// seen — the same order as [`leaf_members`](Self::leaf_members).
    pub fn leaf_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Each side holds distinct ids, so deduplication only needs to
        // check ccw members against the cw side.
        let cw = self.leaf_cw();
        cw.iter().copied().chain(self.leaf_ccw().filter(|n| !cw.contains(n)))
    }

    /// Clockwise side of the leaf set, nearest first.
    pub fn leaf_cw(&self) -> &[NodeId] {
        &self.known[..self.cw as usize]
    }

    /// Counter-clockwise side of the leaf set, nearest first (it is
    /// stored farthest first, so this walks it backwards).
    pub fn leaf_ccw(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.ccw_side().iter().rev().copied()
    }

    /// Counter-clockwise side as stored: farthest first, so ascending in
    /// clockwise position.
    fn ccw_side(&self) -> &[NodeId] {
        &self.known[self.cw as usize..self.leaves()]
    }

    /// Re-derives `cover_add` and `cover_rhs` after a leaf mutation. With
    /// `from` the farthest counter-clockwise member and `to` the farthest
    /// clockwise one — neighbours in `known` — they are `from`'s
    /// clockwise distance to self and to `to`, so `key` is covered iff
    /// `key.in_arc(from, to)`. A side holding fewer than `l/2` members
    /// (only possible in tiny overlays) covers the whole ring.
    fn refresh_cover(&mut self) {
        (self.cover_add, self.cover_rhs) = if self.cw < self.half || self.ccw < self.half {
            (0, u128::MAX)
        } else {
            let to = self.known[self.cw as usize - 1];
            let from = self.known[self.cw as usize];
            (from.clockwise_distance(self.id), from.clockwise_distance(to))
        };
    }

    /// True if `key` falls inside the arc covered by the leaf set
    /// (between the farthest counter-clockwise and farthest clockwise
    /// members, inclusive). With an undersized leaf set (fewer members
    /// than `l/2` on a side — only possible in tiny overlays) the whole
    /// ring is covered.
    #[inline]
    pub fn leaf_covers(&self, key: NodeId) -> bool {
        self.id.clockwise_distance(key).wrapping_add(self.cover_add) <= self.cover_rhs
    }

    /// Coverage test and delivery target fused into one probe: returns
    /// the closest leaf member (or self) if the leaf set covers `key`,
    /// `None` otherwise. Equivalent to
    /// `leaf_covers(key).then(|| closest_in_leaf(key))`, but computes the
    /// key's clockwise position once for both questions — this is the
    /// first thing every routing hop asks.
    #[inline]
    pub fn leaf_route(&self, key: NodeId) -> Option<NodeId> {
        let kp = self.id.clockwise_distance(key);
        if kp.wrapping_add(self.cover_add) > self.cover_rhs {
            return None;
        }
        Some(self.closest_at(kp, key))
    }

    /// The leaf-set member (or self) numerically closest to `key`, by
    /// [`NodeId::nearest`], the rule ownership is decided by. This is the
    /// hottest call in routing: every delivery hop lands here.
    pub fn closest_in_leaf(&self, key: NodeId) -> NodeId {
        self.closest_at(self.id.clockwise_distance(key), key)
    }

    /// [`closest_in_leaf`](Self::closest_in_leaf) with the key's
    /// clockwise position `kp` already in hand.
    ///
    /// The numerically closest member is `key`'s circular predecessor or
    /// successor among self and the members, by clockwise position from
    /// self: every other member is strictly farther than the neighbour
    /// on its side of the key. Self, at position 0, closes the ring. Each
    /// side is sorted by position, so one binary search per side finds
    /// its neighbours of `kp`; when the sides do not overlap the whole
    /// leaf region is sorted and one search does.
    #[inline]
    fn closest_at(&self, kp: u128, key: NodeId) -> NodeId {
        let me = self.id;
        let pos = |n: &NodeId| me.clockwise_distance(*n);
        let (cw, ccw) = (self.leaf_cw(), self.ccw_side());
        let leaves = &self.known[..self.leaves()];
        if cw.last().zip(ccw.first()).is_none_or(|(to, from)| pos(to) < pos(from)) {
            let i = leaves.partition_point(|n| pos(n) < kp);
            let pred = if i > 0 { leaves[i - 1] } else { me };
            let succ = leaves.get(i).copied().unwrap_or(me);
            return key.nearest([pred, succ]).expect("two candidates");
        }
        let i = cw.partition_point(|n| pos(n) < kp);
        let j = ccw.partition_point(|n| pos(n) < kp);
        let near = [cw.get(i.wrapping_sub(1)), cw.get(i), ccw.get(j.wrapping_sub(1)), ccw.get(j)];
        key.nearest(std::iter::once(me).chain(near.into_iter().flatten().copied()))
            .expect("self is a candidate")
    }

    /// All nodes this state knows about (leaf set + routing table).
    pub fn known_nodes(&self) -> Vec<NodeId> {
        let mut v = self.leaf_members();
        for e in self.table() {
            if !v.contains(e) {
                v.push(*e);
            }
        }
        v
    }

    /// All nodes this state knows about, without allocating: the
    /// clockwise side, the counter-clockwise side (each nearest first),
    /// then the table row-major. Unlike
    /// [`known_nodes`](Self::known_nodes) this may yield a node more than
    /// once, but each node's *first* occurrence appears in the same
    /// relative order, so first-wins reductions (`find`, `min_by_key`)
    /// produce identical results.
    pub fn known_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_cw().iter().copied().chain(self.leaf_ccw()).chain(self.table().iter().copied())
    }

    /// Routing-table row `row`'s populated slots as `(col, peer)`, in
    /// column order; a row that never held an entry yields nothing.
    pub fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        let start = self.slot_bit(row, 0);
        let first = self.rank(start).min(self.table().len());
        (0..1usize << self.b)
            .filter(move |&col| self.occupied(start + col))
            .zip(self.table()[first..].iter().copied())
    }

    /// Number of populated routing-table entries.
    pub fn table_population(&self) -> usize {
        self.table().len()
    }
}

impl RoutingState for NodeState {
    fn new(id: NodeId, cfg: PastryConfig) -> Self {
        NodeState::new(id, cfg)
    }
    fn id(&self) -> NodeId {
        self.id
    }
    fn slot_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        self.slot_for(peer)
    }
    fn consider_for_table(&mut self, peer: NodeId) -> bool {
        self.consider_for_table(peer)
    }
    fn consider_for_leaf(&mut self, peer: NodeId) -> bool {
        self.consider_for_leaf(peer)
    }
    fn purge(&mut self, dead: NodeId) -> bool {
        self.purge(dead)
    }
    fn purge_where(&mut self, pred: impl FnMut(NodeId) -> bool) -> bool {
        self.purge_where(pred)
    }
    fn leaf_cw(&self) -> &[NodeId] {
        self.leaf_cw()
    }
    fn leaf_ccw(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_ccw()
    }
    fn leaf_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_iter()
    }
    fn leaf_members(&self) -> Vec<NodeId> {
        self.leaf_members()
    }
    #[inline]
    fn leaf_covers(&self, key: NodeId) -> bool {
        self.leaf_covers(key)
    }
    #[inline]
    fn leaf_route(&self, key: NodeId) -> Option<NodeId> {
        self.leaf_route(key)
    }
    #[inline]
    fn table_entry(&self, row: usize, col: usize) -> Option<NodeId> {
        self.table_entry(row, col)
    }
    fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.table_row(row)
    }
    #[inline]
    fn known_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.known_iter()
    }
    fn known_nodes(&self) -> Vec<NodeId> {
        self.known_nodes()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> NodeId {
        NodeId(v)
    }

    fn cfg() -> PastryConfig {
        PastryConfig { b: 4, leaf_set_size: 4 }
    }

    /// The exhaustive scan [`NodeState::closest_in_leaf`]'s binary
    /// searches must agree with.
    fn closest_in_leaf_scan(s: &NodeState, key: NodeId) -> NodeId {
        let mut best = s.id();
        let mut best_d = best.distance(key);
        for n in s.leaf_cw().iter().copied().chain(s.leaf_ccw()) {
            let d = n.distance(key);
            if d < best_d || (d == best_d && n.0 < best.0) {
                best = n;
                best_d = d;
            }
        }
        best
    }

    /// [`NodeState::leaf_covers`] recomputed from the leaf sides with
    /// [`NodeId::in_arc`].
    fn leaf_covers_scan(s: &NodeState, key: NodeId) -> bool {
        let half = s.config().leaf_set_size / 2;
        if s.leaf_cw().len() < half || s.leaf_ccw().len() < half {
            return true;
        }
        let from = s.leaf_ccw().last().expect("non-empty side");
        let to = *s.leaf_cw().last().expect("non-empty side");
        key.in_arc(from, to)
    }

    #[test]
    fn config_validation() {
        assert!(PastryConfig::default().validate().is_ok());
        assert!(PastryConfig { b: 3, leaf_set_size: 16 }.validate().is_err());
        assert!(PastryConfig { b: 0, leaf_set_size: 16 }.validate().is_err());
        assert!(PastryConfig { b: 4, leaf_set_size: 3 }.validate().is_err());
        assert!(PastryConfig { b: 4, leaf_set_size: 0 }.validate().is_err());
        assert_eq!(PastryConfig::default().digits(), 32);
        assert_eq!(PastryConfig::default().cols(), 16);
    }

    #[test]
    fn table_slots_by_prefix() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = NodeState::new(me, cfg());
        let peer = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        // Shares 1 digit (0xA), differs at digit 1 with value 0xC.
        assert_eq!(s.slot_for(peer), Some((1, 0xC)));
        assert!(s.consider_for_table(peer));
        assert_eq!(s.table_entry(1, 0xC), Some(peer));
        // Second candidate for the same slot is not taken.
        let peer2 = id(0xAC10_0000_0000_0000_0000_0000_0000_0000);
        assert!(!s.consider_for_table(peer2));
        assert_eq!(s.table_entry(1, 0xC), Some(peer));
        // Self never goes in the table.
        assert!(!s.consider_for_table(me));
        assert_eq!(s.table_population(), 1);
        s.remove_from_table(peer);
        assert_eq!(s.table_entry(1, 0xC), None);
    }

    #[test]
    fn leaf_set_keeps_nearest_per_side() {
        let me = id(1000);
        let mut s = NodeState::new(me, cfg()); // half = 2
        for v in [1010u128, 1020, 1030, 990, 980, 970] {
            s.consider_for_leaf(id(v));
        }
        assert_eq!(s.leaf_cw(), &[id(1010), id(1020)]);
        assert_eq!(s.leaf_ccw().collect::<Vec<_>>(), [id(990), id(980)]);
        // A closer clockwise node displaces the farther one.
        assert!(s.consider_for_leaf(id(1005)));
        assert_eq!(s.leaf_cw(), &[id(1005), id(1010)]);
        // Duplicates are ignored.
        assert!(!s.consider_for_leaf(id(1005)));
    }

    #[test]
    fn leaf_set_wraps_around_ring() {
        let me = id(u128::MAX - 10);
        let mut s = NodeState::new(me, cfg());
        s.consider_for_leaf(id(5)); // clockwise across the wrap
        s.consider_for_leaf(id(u128::MAX - 20)); // counter-clockwise
                                                 // A 3-node ring: both peers appear on both sides, ordered by the
                                                 // walking distance on that side. Clockwise from MAX-10: 5 (16
                                                 // steps) then MAX-20 (all the way around).
        assert_eq!(s.leaf_cw(), &[id(5), id(u128::MAX - 20)]);
        assert_eq!(s.leaf_ccw().collect::<Vec<_>>(), [id(u128::MAX - 20), id(5)]);
    }

    #[test]
    fn tiny_ring_node_on_both_sides() {
        // With two nodes, the other node is both successor and predecessor.
        let me = id(100);
        let mut s = NodeState::new(me, cfg());
        s.consider_for_leaf(id(200));
        assert!(s.leaf_cw().contains(&id(200)));
        assert!(s.leaf_ccw().any(|n| n == id(200)));
        assert_eq!(s.leaf_members(), vec![id(200)]);
    }

    #[test]
    fn leaf_covers_and_closest() {
        let me = id(1000);
        let mut s = NodeState::new(me, cfg());
        for v in [1010u128, 1020, 990, 980] {
            s.consider_for_leaf(id(v));
        }
        assert!(s.leaf_covers(id(1000)));
        assert!(s.leaf_covers(id(985)));
        assert!(s.leaf_covers(id(1020)));
        assert!(s.leaf_covers(id(980)));
        assert!(!s.leaf_covers(id(2000)));
        assert!(!s.leaf_covers(id(100)));
        assert_eq!(s.closest_in_leaf(id(1001)), id(1000));
        assert_eq!(s.closest_in_leaf(id(1012)), id(1010));
        assert_eq!(s.closest_in_leaf(id(984)), id(980));
        // Tie at 985 between 980 and 990: smaller id wins.
        assert_eq!(s.closest_in_leaf(id(985)), id(980));
    }

    #[test]
    fn undersized_leaf_covers_everything() {
        let me = id(1000);
        let mut s = NodeState::new(me, cfg());
        s.consider_for_leaf(id(2000));
        assert!(s.leaf_covers(id(5)));
        assert!(s.leaf_covers(id(u128::MAX)));
    }

    #[test]
    fn remove_from_leaf() {
        let me = id(1000);
        let mut s = NodeState::new(me, cfg());
        s.consider_for_leaf(id(1010));
        assert!(s.leaf_contains(id(1010)));
        assert!(s.remove_from_leaf(id(1010)));
        assert!(!s.leaf_contains(id(1010)));
        assert!(!s.remove_from_leaf(id(1010)));
    }

    #[test]
    fn purge_where_sweeps_leaf_and_table() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = NodeState::new(me, cfg());
        let far = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        let near = id(me.0 + 10);
        let keep = id(me.0 + 20);
        s.consider_for_table(far);
        s.consider_for_leaf(near);
        s.consider_for_leaf(keep);
        assert!(s.purge_where(|n| n == far || n == near));
        assert!(!s.leaf_contains(near));
        assert!(s.leaf_contains(keep));
        assert_eq!(s.table_population(), 0);
        assert!(!s.purge_where(|n| n == far), "second sweep finds nothing");
    }

    /// A peer sharing exactly `row` digits (b = 4) with `me`: digit `row`
    /// is flipped by `flip` (1..16) and everything below comes from `low`.
    fn peer_in_row(me: NodeId, row: usize, flip: u8, low: u128) -> NodeId {
        let shift = 124 - 4 * row as u32;
        let below = (1u128 << shift) - 1;
        id(((me.0 ^ (u128::from(flip) << shift)) & !below) | (low & below))
    }

    #[test]
    fn sparse_rows_read_empty_and_survive_insert_remove_purge() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = NodeState::new(me, cfg());
        let (deep, shallow) = (peer_in_row(me, 6, 2, 1), peer_in_row(me, 0, 9, 2));
        // Nothing allocated yet: every row reads as `cols()` empty slots
        // and removals find nothing.
        assert_eq!(s.table_row(31).count(), 0);
        assert_eq!(
            NodeState::new(me, PastryConfig { b: 8, leaf_set_size: 4 }).table_row(15).count(),
            0
        );
        assert_eq!((s.table_entry(6, 2), s.table_population()), (None, 0));
        assert!(!s.remove_from_table(deep) && !s.purge(deep) && !s.purge_where(|_| true));
        // An insert into row 6 leaves the rows around it unallocated.
        assert!(s.consider_for_table(deep) && s.consider_for_table(shallow));
        assert_eq!(s.table_row(6).collect::<Vec<_>>(), vec![(2, deep)]);
        assert_eq!(s.table_row(3).count(), 0);
        assert_eq!(s.known_nodes(), vec![shallow, deep], "row-major order");
        // Only the slot's occupant can be removed, and only once.
        let rival = peer_in_row(me, 6, 2, 99);
        assert!(!s.remove_from_table(rival));
        assert!(s.remove_from_table(deep) && !s.remove_from_table(deep));
        assert!(s.consider_for_table(rival), "the emptied row takes a new entry");
        assert!(s.purge_where(|n| n == rival || n == shallow));
        assert!(s.table_population() == 0 && !s.purge_where(|_| true));
    }

    proptest::proptest! {
        /// The binary-search `closest_in_leaf` agrees with the exhaustive
        /// scan for every leaf-set shape, including overlapping sides on
        /// sparse rings and keys outside the covered arc.
        #[test]
        fn closest_in_leaf_matches_scan(
            peers in proptest::collection::vec(proptest::prelude::any::<u128>(), 0..24),
            removals in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..6),
            me in proptest::prelude::any::<u128>(),
            keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..16),
        ) {
            let mut s = NodeState::new(id(me), cfg());
            for &p in &peers {
                s.consider_for_leaf(id(p));
            }
            for &r in &removals {
                if !peers.is_empty() {
                    s.remove_from_leaf(id(peers[r % peers.len()]));
                }
            }
            for &k in &keys {
                proptest::prop_assert_eq!(s.closest_in_leaf(id(k)), closest_in_leaf_scan(&s, id(k)));
                // The fused probe agrees with the two-call composition,
                // and the precomputed cover spans agree with recomputing
                // the arc ends from the leaf sides directly.
                proptest::prop_assert_eq!(s.leaf_covers(id(k)), leaf_covers_scan(&s, id(k)));
                let expect = if s.leaf_covers(id(k)) { Some(s.closest_in_leaf(id(k))) } else { None };
                proptest::prop_assert_eq!(s.leaf_route(id(k)), expect);
            }
        }

        /// The sparse table against a dense `digits × cols` model under
        /// random inserts, removals and sweeps: every slot, every row,
        /// the population and the row-major walk agree.
        #[test]
        fn sparse_table_matches_a_dense_model(
            me in proptest::prelude::any::<u128>(),
            leaf in proptest::collection::vec(proptest::prelude::any::<u128>(), 0..6),
            // (op, row, flip, low): op 0..4 inserts, 4 removes, 5 sweeps.
            ops in proptest::collection::vec(
                (0u8..6, 0usize..32, 1u8..16, proptest::prelude::any::<u128>()),
                0..48,
            ),
        ) {
            let me = id(me);
            let mut s = NodeState::new(me, cfg());
            let mut dense: Vec<Option<NodeId>> = vec![None; 32 * 16];
            for &p in &leaf {
                s.consider_for_leaf(id(p));
            }
            for &(op, row, flip, low) in &ops {
                let peer = peer_in_row(me, row, flip, low);
                let (r, c) = s.slot_for(peer).expect("never self");
                proptest::prop_assert_eq!(r, row);
                let slot = &mut dense[r * 16 + c];
                match op {
                    0..=3 => {
                        let took = slot.is_none();
                        if took {
                            *slot = Some(peer);
                        }
                        proptest::prop_assert_eq!(s.consider_for_table(peer), took);
                    }
                    4 => {
                        let held = *slot == Some(peer);
                        if held {
                            *slot = None;
                        }
                        proptest::prop_assert_eq!(s.remove_from_table(peer), held);
                    }
                    _ => {
                        // Sweep a third of the id space out of both halves.
                        let doomed = |n: NodeId| n.0 % 3 == low % 3;
                        let mut hit = false;
                        for e in dense.iter_mut().filter(|e| e.is_some_and(doomed)) {
                            *e = None;
                            hit = true;
                        }
                        hit |= s.leaf_members().into_iter().any(doomed);
                        proptest::prop_assert_eq!(s.purge_where(doomed), hit);
                    }
                }
            }
            for r in 0..32 {
                let row: Vec<(usize, NodeId)> = dense[r * 16..(r + 1) * 16]
                    .iter()
                    .enumerate()
                    .filter_map(|(c, e)| e.map(|n| (c, n)))
                    .collect();
                proptest::prop_assert_eq!(s.table_row(r).collect::<Vec<_>>(), row);
                for c in 0..16 {
                    proptest::prop_assert_eq!(s.table_entry(r, c), dense[r * 16 + c]);
                }
            }
            proptest::prop_assert_eq!(s.table_population(), dense.iter().flatten().count());
            // The row-major walk yields exactly the model's entries.
            let walked: Vec<NodeId> = s.known_iter().skip(s.leaf_cw().len() + s.leaf_ccw().len()).collect();
            proptest::prop_assert_eq!(walked, dense.iter().flatten().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn known_nodes_union() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = NodeState::new(me, cfg());
        let a = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        let b = id(me.0 + 10);
        s.consider_for_table(a);
        s.consider_for_leaf(b);
        let known = s.known_nodes();
        assert!(known.contains(&a));
        assert!(known.contains(&b));
        assert!(!known.contains(&me));
    }
}
