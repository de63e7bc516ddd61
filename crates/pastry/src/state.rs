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

/// A node's index in its overlay's slab of node states, and the way one
/// node's routing state names another. A Pastry routing-table entry is
/// only a reference to a peer, so 4 bytes do where the peer's 128-bit id
/// took 16; whoever holds the states resolves a slot to its id through
/// the overlay's `ids` column, passed to the methods that need it.
pub type Slot = u32;

/// The candidate whose id is nearest `key`, by [`NodeId::nearest`]'s
/// rule (ties to the smaller id; a repeated candidate is one node).
#[inline]
pub(crate) fn nearest(
    key: NodeId,
    ids: &[NodeId],
    candidates: impl IntoIterator<Item = Slot>,
) -> Option<Slot> {
    candidates.into_iter().min_by_key(|&n| {
        let id = ids[n as usize];
        (id.distance(key), id.0)
    })
}

/// What [`Overlay`](crate::Overlay) reads and writes of one node's
/// routing state. [`NodeState`] is the implementation every overlay
/// runs; the trait is the seam that lets the crate's lockstep test run
/// the same overlay over the previous layout and compare the two.
///
/// Peers are [`Slot`]s. A method that orders or places peers by id takes
/// `ids`, the overlay's slot → id column, in which `ids[slot()]` is
/// [`id`](Self::id).
pub trait RoutingState: Clone + fmt::Debug {
    /// Fresh state for node `id`, which sits at slot `me`.
    fn new(id: NodeId, me: Slot, cfg: PastryConfig) -> Self;
    /// This node's id.
    fn id(&self) -> NodeId;
    /// This node's slot.
    fn slot(&self) -> Slot;
    /// The routing-table cell `(row, col)` a peer with id `peer` belongs
    /// in; `None` for self.
    fn cell_for(&self, peer: NodeId) -> Option<(usize, usize)>;
    /// Records `peer` in its table cell if that cell is empty.
    fn consider_for_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool;
    /// Considers `peer` for both leaf-set sides.
    fn consider_for_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool;
    /// Forgets a failed peer (leaf set and table).
    fn purge(&mut self, dead: Slot, ids: &[NodeId]) -> bool;
    /// Forgets every peer matching `pred` (leaf set and table).
    fn purge_where(&mut self, ids: &[NodeId], pred: impl FnMut(Slot) -> bool) -> bool;
    /// Clockwise leaf side, nearest first.
    fn leaf_cw(&self) -> &[Slot];
    /// Counter-clockwise leaf side, nearest first.
    fn leaf_ccw(&self) -> impl Iterator<Item = Slot> + '_;
    /// Distinct leaf members: clockwise side, then the rest of the
    /// counter-clockwise side.
    fn leaf_iter(&self) -> impl Iterator<Item = Slot> + '_;
    /// [`leaf_iter`](Self::leaf_iter), collected.
    fn leaf_members(&self) -> Vec<Slot> {
        self.leaf_iter().collect()
    }
    /// True if the leaf set's arc covers `key`.
    fn leaf_covers(&self, key: NodeId) -> bool;
    /// The closest leaf member (or self) when the leaf set covers `key`.
    fn leaf_route(&self, key: NodeId, ids: &[NodeId]) -> Option<Slot>;
    /// Routing-table entry at (`row`, `col`).
    fn table_entry(&self, row: usize, col: usize) -> Option<Slot>;
    /// Row `row`'s populated cells as `(col, peer)`, in column order.
    fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, Slot)> + '_;
    /// Every known peer, leaf sides first, then the table row-major; may
    /// repeat a peer.
    fn known_iter(&self) -> impl Iterator<Item = Slot> + '_;
    /// [`known_iter`](Self::known_iter)'s first occurrences.
    fn known_nodes(&self) -> Vec<Slot> {
        let mut v: Vec<Slot> = Vec::new();
        for n in self.known_iter() {
            if !v.contains(&n) {
                v.push(n);
            }
        }
        v
    }
    /// Bytes this state holds on the heap, counted from capacities.
    fn heap_bytes(&self) -> usize;
}

/// Routing state of a single Pastry node.
///
/// A node names its peers by [`Slot`], and everything it knows sits in
/// two exact-size blocks: `leaves` and `table`, the routing table's shape
/// bitmap followed by its entries. At 1,000 nodes (b = 4, l = 16) a node
/// holds 16 leaf members and about 32 table entries: 64 B of leaves and
/// about 136 B of table, plus this 96 B struct in the overlay's slab —
/// about 0.4 KB per node with the overlay's id column and id → slot map
/// ([`Overlay::heap_bytes`](crate::Overlay::heap_bytes), pinned by a
/// test). The previous layout, one block of 16-byte peer ids per state
/// and the states in an id-keyed map, counted 1,028 B per node; the one
/// before it,
/// with a dense `Option<NodeId>` row per populated table row and a sorted
/// copy of the leaf set, cost 3.77 KB of RSS per node.
#[derive(Clone, Debug)]
pub struct NodeState {
    id: NodeId,
    /// [`leaf_covers`](Self::leaf_covers) operands, derived from the two
    /// far ends of the leaf set by `refresh_cover`: `key` is covered iff
    /// `(key − id) + cover_add ≤ cover_rhs` in wrapping arithmetic, and
    /// `(0, u128::MAX)` covers the whole ring. Every routing hop asks
    /// this first; kept here, a hop that forwards reads no leaf member.
    cover_add: u128,
    cover_rhs: u128,
    /// `[clockwise side | counter-clockwise side]`, a boxed slice, so
    /// there is never spare capacity. The clockwise side runs nearest
    /// first and the counter-clockwise side farthest first, so whenever
    /// the sides do not overlap (more than `l` nodes) the block ascends
    /// in clockwise position from `id`: it is the ring arc around the
    /// node, which delivery binary-searches in place.
    leaves: Box<[Slot]>,
    /// `[bitmap | entries]`. The first `words` words hold one bit per
    /// routing-table cell, bit `row · 2^b + col`; words past the last
    /// occupied cell are not stored. Cell `p`'s entry is
    /// `entries[rank(p)]`, where `rank` counts the set bits below `p`, so
    /// the entries run in row-major cell order. Only about `log_2^b N` of
    /// the `digits()` rows ever hold an entry, so the bitmap is two to
    /// four words where a dense table of `Option<Slot>` would be 4 KB.
    table: Box<[u32]>,
    /// This node's slot.
    me: Slot,
    /// Length of the clockwise side.
    cw: u16,
    /// Length of the counter-clockwise side.
    ccw: u16,
    /// `l/2`, the most either side holds.
    half: u16,
    /// Bitmap words at the front of `table`.
    words: u8,
    /// Digit width in bits.
    b: u8,
}

impl NodeState {
    /// Fresh state for node `id` at slot `me`.
    ///
    /// # Panics
    /// Panics if `b` does not fit in a `u8` or `l/2` in a `u16`.
    pub fn new(id: NodeId, me: Slot, cfg: PastryConfig) -> Self {
        NodeState {
            id,
            cover_add: 0,
            cover_rhs: u128::MAX,
            leaves: Box::default(),
            table: Box::default(),
            me,
            cw: 0,
            ccw: 0,
            half: u16::try_from(cfg.leaf_set_size / 2).expect("l/2 fits in a u16"),
            words: 0,
            b: u8::try_from(cfg.b).expect("b fits in a u8"),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's slot.
    pub fn slot(&self) -> Slot {
        self.me
    }

    /// The configuration.
    pub fn config(&self) -> PastryConfig {
        PastryConfig { b: u32::from(self.b), leaf_set_size: 2 * usize::from(self.half) }
    }

    /// Number of leaf-set entries, both sides counted.
    fn leaves(&self) -> usize {
        usize::from(self.cw + self.ccw)
    }

    /// The occupancy bitmap.
    fn bitmap(&self) -> &[u32] {
        &self.table[..usize::from(self.words)]
    }

    /// The routing-table entries, row-major.
    fn entries(&self) -> &[Slot] {
        &self.table[usize::from(self.words)..]
    }

    /// Bitmap position of cell (`row`, `col`).
    fn cell_bit(&self, row: usize, col: usize) -> usize {
        row << self.b | col
    }

    /// True if cell bit `p` is occupied.
    fn occupied(&self, p: usize) -> bool {
        self.bitmap().get(p / 32).is_some_and(|w| w >> (p % 32) & 1 == 1)
    }

    /// Occupied cells below bit `p`: the entry index cell `p`'s entry has
    /// or would take.
    fn rank(&self, p: usize) -> usize {
        let (words, w, bit) = (self.bitmap(), p / 32, p % 32);
        let whole = words.iter().take(w).map(|x| x.count_ones()).sum::<u32>();
        let part = words.get(w).map_or(0, |x| (x & ((1u32 << bit) - 1)).count_ones());
        (whole + part) as usize
    }

    /// Routing-table entry at (`row`, `col`).
    #[inline]
    pub fn table_entry(&self, row: usize, col: usize) -> Option<Slot> {
        if col >> self.b != 0 {
            return None;
        }
        let p = self.cell_bit(row, col);
        let words = self.bitmap();
        let word = *words.get(p / 32)?;
        let bit = 1u32 << (p % 32);
        if word & bit == 0 {
            return None;
        }
        // `rank(p)`, with the word already in hand.
        let below = words[..p / 32].iter().map(|w| w.count_ones()).sum::<u32>()
            + (word & (bit - 1)).count_ones();
        Some(self.entries()[below as usize])
    }

    /// The routing-table cell a peer with id `peer` belongs in: row =
    /// shared prefix digits, col = the peer's first differing digit.
    /// `None` for self.
    pub fn cell_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        if peer == self.id {
            return None;
        }
        let b = u32::from(self.b);
        let row = self.id.shared_prefix_digits(peer, b);
        let col = peer.digit(row, b) as usize;
        Some((row, col))
    }

    /// Records `peer` in the routing table if its cell is empty. Returns
    /// true if the table changed.
    pub fn consider_for_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        let Some((row, col)) = self.cell_for(ids[peer as usize]) else {
            return false;
        };
        let p = self.cell_bit(row, col);
        if self.occupied(p) {
            return false;
        }
        let at = self.rank(p);
        let words = usize::from(self.words);
        let grow = (p / 32 + 1).saturating_sub(words);
        let mut table = std::mem::take(&mut self.table).into_vec();
        table.reserve_exact(grow + 1);
        table.splice(words..words, std::iter::repeat_n(0, grow));
        self.words = u8::try_from(words + grow).expect("at most 128 bitmap words");
        table[p / 32] |= 1 << (p % 32);
        table.insert(usize::from(self.words) + at, peer);
        self.table = table.into_boxed_slice();
        true
    }

    /// Removes `peer` from the routing table (it can only sit in its own
    /// cell); returns true if it was there.
    pub fn remove_from_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        let Some((row, col)) = self.cell_for(ids[peer as usize]) else {
            return false;
        };
        if self.table_entry(row, col) != Some(peer) {
            return false;
        }
        let p = self.cell_bit(row, col);
        let words = usize::from(self.words);
        let at = words + self.rank(p);
        let mut table = std::mem::take(&mut self.table).into_vec();
        table[p / 32] &= !(1 << (p % 32));
        table.remove(at);
        self.table = self.trimmed(table);
        true
    }

    /// `table` with the bitmap's trailing all-empty words dropped.
    fn trimmed(&mut self, mut table: Vec<u32>) -> Box<[u32]> {
        let words = usize::from(self.words);
        let keep = table[..words].iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        table.drain(keep..words);
        self.words = keep as u8;
        table.into_boxed_slice()
    }

    /// Considers `peer` for the leaf set, keeping each side at `l/2`
    /// nearest-first. Returns true if the leaf set changed.
    pub fn consider_for_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        if peer == self.me {
            return false;
        }
        // Leaf sets take the l/2 successors and the l/2 predecessors, so
        // a peer is a candidate for both sides, each judged by its own
        // walking direction; on a ring of at most l nodes the same peer
        // sits on both.
        let (me, half) = (self.id, usize::from(self.half));
        let pos = |n: &Slot| me.clockwise_distance(ids[*n as usize]);
        let d = pos(&peer);
        // Nearer members on each side: where the peer would go, counted
        // from the near end.
        let cw_at = (!self.leaf_cw().contains(&peer))
            .then(|| self.leaf_cw().partition_point(|n| pos(n) < d))
            .filter(|&at| at < half);
        let ccw_far = self.ccw_side().partition_point(|n| pos(n) < d);
        let ccw_at = (!self.ccw_side().contains(&peer))
            .then(|| usize::from(self.ccw) - ccw_far)
            .filter(|&at| at < half);
        if cw_at.is_none() && ccw_at.is_none() {
            return false;
        }
        let grows = [(cw_at, self.cw), (ccw_at, self.ccw)]
            .into_iter()
            .filter(|&(at, len)| at.is_some() && usize::from(len) < half)
            .count();
        let mut leaves = std::mem::take(&mut self.leaves).into_vec();
        leaves.reserve_exact(grows);
        // The counter-clockwise side first: it sits above the clockwise
        // one, so changing it leaves the clockwise indices valid. Stored
        // farthest first, it drops its farthest member from the front.
        if ccw_at.is_some() {
            let mut at = usize::from(self.cw) + ccw_far;
            if usize::from(self.ccw) == half {
                leaves.remove(usize::from(self.cw));
                at -= 1;
            } else {
                self.ccw += 1;
            }
            leaves.insert(at, peer);
        }
        if let Some(at) = cw_at {
            if usize::from(self.cw) == half {
                leaves.remove(half - 1);
            } else {
                self.cw += 1;
            }
            leaves.insert(at, peer);
        }
        self.leaves = leaves.into_boxed_slice();
        self.refresh_cover(ids);
        true
    }

    /// Forgets a failed peer entirely (leaf set and routing table) — the
    /// per-node half of failure repair. Returns true if any state changed,
    /// which is what decides whether this node would gossip the repair.
    pub fn purge(&mut self, dead: Slot, ids: &[NodeId]) -> bool {
        let in_leaf = self.remove_from_leaf(dead, ids);
        let in_table = self.remove_from_table(dead, ids);
        in_leaf || in_table
    }

    /// Forgets every peer matching `pred` (leaf set and routing table) —
    /// the per-node half of an island cut: when a partition splits the
    /// ring, each node drops every reference that crosses the cut in one
    /// sweep, exactly as if it had timed out on each of them. Returns
    /// true if any state changed. `pred` sees the clockwise side, the
    /// counter-clockwise side, then the table row-major.
    pub fn purge_where(&mut self, ids: &[NodeId], mut pred: impl FnMut(Slot) -> bool) -> bool {
        // `pred` sees the counter-clockwise side nearest first, so that
        // side is walked from its far end of storage backwards.
        let kept_cw: Vec<Slot> = self.leaf_cw().iter().copied().filter(|&n| !pred(n)).collect();
        let mut kept_ccw: Vec<Slot> = self.leaf_ccw().filter(|&n| !pred(n)).collect();
        kept_ccw.reverse();
        let mut table = self.bitmap().to_vec();
        let (words, entries) = (table.len(), self.entries());
        // Entries pair with the set bits in ascending order.
        let mut walk = entries.iter();
        for w in 0..words {
            let mut bits = table[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let &n = walk.next().expect("one entry per occupied cell");
                if pred(n) {
                    table[w] ^= bit;
                } else {
                    table.push(n);
                }
            }
        }
        let table_changed = table.len() - words != entries.len();
        let leaf_changed = kept_cw.len() + kept_ccw.len() != self.leaves();
        if leaf_changed {
            self.cw = kept_cw.len() as u16;
            self.ccw = kept_ccw.len() as u16;
            let mut leaves = kept_cw;
            leaves.extend_from_slice(&kept_ccw);
            self.leaves = leaves.into_boxed_slice();
            self.refresh_cover(ids);
        }
        if table_changed {
            self.table = self.trimmed(table);
        }
        leaf_changed || table_changed
    }

    /// Removes `peer` from the leaf set; returns true if present.
    pub fn remove_from_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        let cw_at = self.leaf_cw().iter().position(|&n| n == peer);
        let ccw_at = self.ccw_side().iter().position(|&n| n == peer);
        if cw_at.is_none() && ccw_at.is_none() {
            return false;
        }
        let mut leaves = std::mem::take(&mut self.leaves).into_vec();
        if let Some(at) = ccw_at {
            leaves.remove(usize::from(self.cw) + at);
            self.ccw -= 1;
        }
        if let Some(at) = cw_at {
            leaves.remove(at);
            self.cw -= 1;
        }
        self.leaves = leaves.into_boxed_slice();
        self.refresh_cover(ids);
        true
    }

    /// All distinct leaf-set members.
    pub fn leaf_members(&self) -> Vec<Slot> {
        self.leaf_iter().collect()
    }

    /// All distinct leaf-set members, without allocating: clockwise side
    /// first (nearest first), then counter-clockwise members not already
    /// seen — the same order as [`leaf_members`](Self::leaf_members).
    pub fn leaf_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        // Each side holds distinct peers, so deduplication only needs to
        // check ccw members against the cw side.
        let cw = self.leaf_cw();
        cw.iter().copied().chain(self.leaf_ccw().filter(|n| !cw.contains(n)))
    }

    /// Clockwise side of the leaf set, nearest first.
    pub fn leaf_cw(&self) -> &[Slot] {
        &self.leaves[..usize::from(self.cw)]
    }

    /// Counter-clockwise side of the leaf set, nearest first (it is
    /// stored farthest first, so this walks it backwards).
    pub fn leaf_ccw(&self) -> impl DoubleEndedIterator<Item = Slot> + ExactSizeIterator + '_ {
        self.ccw_side().iter().rev().copied()
    }

    /// Counter-clockwise side as stored: farthest first, so ascending in
    /// clockwise position.
    fn ccw_side(&self) -> &[Slot] {
        &self.leaves[usize::from(self.cw)..]
    }

    /// Re-derives `cover_add` and `cover_rhs` after a leaf mutation. With
    /// `from` the farthest counter-clockwise member and `to` the farthest
    /// clockwise one — neighbours in `leaves` — they are `from`'s
    /// clockwise distance to self and to `to`, so `key` is covered iff
    /// `key.in_arc(from, to)`. A side holding fewer than `l/2` members
    /// (only possible in tiny overlays) covers the whole ring.
    fn refresh_cover(&mut self, ids: &[NodeId]) {
        (self.cover_add, self.cover_rhs) = if self.cw < self.half || self.ccw < self.half {
            (0, u128::MAX)
        } else {
            let to = ids[self.leaves[usize::from(self.cw) - 1] as usize];
            let from = ids[self.leaves[usize::from(self.cw)] as usize];
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
    /// `leaf_covers(key).then(|| closest_in_leaf(key, ids))`, but
    /// computes the key's clockwise position once for both questions —
    /// this is the first thing every routing hop asks.
    #[inline]
    pub fn leaf_route(&self, key: NodeId, ids: &[NodeId]) -> Option<Slot> {
        let kp = self.id.clockwise_distance(key);
        if kp.wrapping_add(self.cover_add) > self.cover_rhs {
            return None;
        }
        Some(self.closest_at(kp, key, ids))
    }

    /// The leaf-set member (or self) numerically closest to `key`, by
    /// [`NodeId::nearest`], the rule ownership is decided by. This is the
    /// hottest call in routing: every delivery hop lands here.
    pub fn closest_in_leaf(&self, key: NodeId, ids: &[NodeId]) -> Slot {
        self.closest_at(self.id.clockwise_distance(key), key, ids)
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
    fn closest_at(&self, kp: u128, key: NodeId, ids: &[NodeId]) -> Slot {
        let me = self.id;
        let pos = |n: &Slot| me.clockwise_distance(ids[*n as usize]);
        let (cw, ccw) = (self.leaf_cw(), self.ccw_side());
        if cw.last().zip(ccw.first()).is_none_or(|(to, from)| pos(to) < pos(from)) {
            let leaves = &self.leaves[..];
            let i = leaves.partition_point(|n| pos(n) < kp);
            let pred = if i > 0 { leaves[i - 1] } else { self.me };
            let succ = leaves.get(i).copied().unwrap_or(self.me);
            return nearest(key, ids, [pred, succ]).expect("two candidates");
        }
        let i = cw.partition_point(|n| pos(n) < kp);
        let j = ccw.partition_point(|n| pos(n) < kp);
        let near = [cw.get(i.wrapping_sub(1)), cw.get(i), ccw.get(j.wrapping_sub(1)), ccw.get(j)];
        nearest(key, ids, std::iter::once(self.me).chain(near.into_iter().flatten().copied()))
            .expect("self is a candidate")
    }

    /// All peers this state knows about (leaf set + routing table),
    /// first occurrences in [`known_iter`](Self::known_iter) order.
    pub fn known_nodes(&self) -> Vec<Slot> {
        RoutingState::known_nodes(self)
    }

    /// All peers this state knows about, without allocating: the
    /// clockwise side, the counter-clockwise side (each nearest first),
    /// then the table row-major. Unlike
    /// [`known_nodes`](Self::known_nodes) this may yield a peer more than
    /// once, but each peer's *first* occurrence appears in the same
    /// relative order, so first-wins reductions (`find`, `min_by_key`)
    /// produce identical results.
    pub fn known_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_cw().iter().copied().chain(self.leaf_ccw()).chain(self.entries().iter().copied())
    }

    /// Routing-table row `row`'s populated cells as `(col, peer)`, in
    /// column order; a row that never held an entry yields nothing.
    pub fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, Slot)> + '_ {
        let start = self.cell_bit(row, 0);
        let entries = self.entries();
        let first = self.rank(start).min(entries.len());
        (0..1usize << self.b)
            .filter(move |&col| self.occupied(start + col))
            .zip(entries[first..].iter().copied())
    }

    /// Number of populated routing-table entries.
    pub fn table_population(&self) -> usize {
        self.entries().len()
    }

    /// Bytes held on the heap: the two blocks, which are exact-size.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.leaves) + std::mem::size_of_val(&*self.table)
    }
}

impl RoutingState for NodeState {
    fn new(id: NodeId, me: Slot, cfg: PastryConfig) -> Self {
        NodeState::new(id, me, cfg)
    }
    fn id(&self) -> NodeId {
        self.id
    }
    fn slot(&self) -> Slot {
        self.me
    }
    fn cell_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        self.cell_for(peer)
    }
    fn consider_for_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        self.consider_for_table(peer, ids)
    }
    fn consider_for_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        self.consider_for_leaf(peer, ids)
    }
    fn purge(&mut self, dead: Slot, ids: &[NodeId]) -> bool {
        self.purge(dead, ids)
    }
    fn purge_where(&mut self, ids: &[NodeId], pred: impl FnMut(Slot) -> bool) -> bool {
        self.purge_where(ids, pred)
    }
    fn leaf_cw(&self) -> &[Slot] {
        self.leaf_cw()
    }
    fn leaf_ccw(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_ccw()
    }
    fn leaf_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_iter()
    }
    #[inline]
    fn leaf_covers(&self, key: NodeId) -> bool {
        self.leaf_covers(key)
    }
    #[inline]
    fn leaf_route(&self, key: NodeId, ids: &[NodeId]) -> Option<Slot> {
        self.leaf_route(key, ids)
    }
    #[inline]
    fn table_entry(&self, row: usize, col: usize) -> Option<Slot> {
        self.table_entry(row, col)
    }
    fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, Slot)> + '_ {
        self.table_row(row)
    }
    #[inline]
    fn known_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.known_iter()
    }
    fn heap_bytes(&self) -> usize {
        self.heap_bytes()
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

    /// A standalone state at slot 0 and the id column its peers resolve
    /// through: each new peer id takes the next slot. The helpers speak
    /// ids, so the tests read as they would against an id layout.
    struct Node {
        s: NodeState,
        ids: Vec<NodeId>,
    }

    impl Node {
        fn new(me: NodeId, cfg: PastryConfig) -> Self {
            Node { s: NodeState::new(me, 0, cfg), ids: vec![me] }
        }
        fn slot(&mut self, peer: NodeId) -> Slot {
            match self.ids.iter().position(|&n| n == peer) {
                Some(i) => i as Slot,
                None => {
                    self.ids.push(peer);
                    (self.ids.len() - 1) as Slot
                }
            }
        }
        fn id_of(&self, n: Slot) -> NodeId {
            self.ids[n as usize]
        }
        fn table(&mut self, peer: NodeId) -> bool {
            let p = self.slot(peer);
            self.s.consider_for_table(p, &self.ids)
        }
        fn leaf(&mut self, peer: NodeId) -> bool {
            let p = self.slot(peer);
            self.s.consider_for_leaf(p, &self.ids)
        }
        fn remove_table(&mut self, peer: NodeId) -> bool {
            let p = self.slot(peer);
            self.s.remove_from_table(p, &self.ids)
        }
        fn remove_leaf(&mut self, peer: NodeId) -> bool {
            let p = self.slot(peer);
            self.s.remove_from_leaf(p, &self.ids)
        }
        fn purge(&mut self, peer: NodeId) -> bool {
            let p = self.slot(peer);
            self.s.purge(p, &self.ids)
        }
        fn purge_where(&mut self, mut pred: impl FnMut(NodeId) -> bool) -> bool {
            let ids = &self.ids;
            self.s.purge_where(ids, |n| pred(ids[n as usize]))
        }
        fn contains(&self, peer: NodeId) -> bool {
            self.s.leaf_iter().any(|n| self.id_of(n) == peer)
        }
        fn cw(&self) -> Vec<NodeId> {
            self.s.leaf_cw().iter().map(|&n| self.id_of(n)).collect()
        }
        fn ccw(&self) -> Vec<NodeId> {
            self.s.leaf_ccw().map(|n| self.id_of(n)).collect()
        }
        fn members(&self) -> Vec<NodeId> {
            self.s.leaf_members().into_iter().map(|n| self.id_of(n)).collect()
        }
        fn known(&self) -> Vec<NodeId> {
            self.s.known_nodes().into_iter().map(|n| self.id_of(n)).collect()
        }
        fn entry(&self, row: usize, col: usize) -> Option<NodeId> {
            self.s.table_entry(row, col).map(|n| self.id_of(n))
        }
        fn row(&self, row: usize) -> Vec<(usize, NodeId)> {
            self.s.table_row(row).map(|(c, n)| (c, self.id_of(n))).collect()
        }
        fn closest(&self, key: NodeId) -> NodeId {
            self.id_of(self.s.closest_in_leaf(key, &self.ids))
        }
        fn route(&self, key: NodeId) -> Option<NodeId> {
            self.s.leaf_route(key, &self.ids).map(|n| self.id_of(n))
        }
    }

    /// The exhaustive scan [`NodeState::closest_in_leaf`]'s binary
    /// searches must agree with.
    fn closest_in_leaf_scan(n: &Node, key: NodeId) -> NodeId {
        let mut best = n.s.id();
        let mut best_d = best.distance(key);
        for m in n.cw().into_iter().chain(n.ccw()) {
            let d = m.distance(key);
            if d < best_d || (d == best_d && m.0 < best.0) {
                best = m;
                best_d = d;
            }
        }
        best
    }

    /// [`NodeState::leaf_covers`] recomputed from the leaf sides with
    /// [`NodeId::in_arc`].
    fn leaf_covers_scan(n: &Node, key: NodeId) -> bool {
        let half = n.s.config().leaf_set_size / 2;
        let (cw, ccw) = (n.cw(), n.ccw());
        if cw.len() < half || ccw.len() < half {
            return true;
        }
        key.in_arc(*ccw.last().expect("non-empty side"), *cw.last().expect("non-empty side"))
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
    fn table_cells_by_prefix() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = Node::new(me, cfg());
        let peer = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        // Shares 1 digit (0xA), differs at digit 1 with value 0xC.
        assert_eq!(s.s.cell_for(peer), Some((1, 0xC)));
        assert!(s.table(peer));
        assert_eq!(s.entry(1, 0xC), Some(peer));
        // Second candidate for the same cell is not taken.
        let peer2 = id(0xAC10_0000_0000_0000_0000_0000_0000_0000);
        assert!(!s.table(peer2));
        assert_eq!(s.entry(1, 0xC), Some(peer));
        // Self never goes in the table.
        assert!(!s.table(me));
        assert_eq!(s.s.table_population(), 1);
        s.remove_table(peer);
        assert_eq!(s.entry(1, 0xC), None);
    }

    #[test]
    fn leaf_set_keeps_nearest_per_side() {
        let me = id(1000);
        let mut s = Node::new(me, cfg()); // half = 2
        for v in [1010u128, 1020, 1030, 990, 980, 970] {
            s.leaf(id(v));
        }
        assert_eq!(s.cw(), [id(1010), id(1020)]);
        assert_eq!(s.ccw(), [id(990), id(980)]);
        // A closer clockwise node displaces the farther one.
        assert!(s.leaf(id(1005)));
        assert_eq!(s.cw(), [id(1005), id(1010)]);
        // Duplicates are ignored.
        assert!(!s.leaf(id(1005)));
    }

    #[test]
    fn leaf_set_wraps_around_ring() {
        let me = id(u128::MAX - 10);
        let mut s = Node::new(me, cfg());
        s.leaf(id(5)); // clockwise across the wrap
        s.leaf(id(u128::MAX - 20)); // counter-clockwise
                                    // A 3-node ring: both peers appear on both sides, ordered by the
                                    // walking distance on that side. Clockwise from MAX-10: 5 (16
                                    // steps) then MAX-20 (all the way around).
        assert_eq!(s.cw(), [id(5), id(u128::MAX - 20)]);
        assert_eq!(s.ccw(), [id(u128::MAX - 20), id(5)]);
    }

    #[test]
    fn tiny_ring_node_on_both_sides() {
        // With two nodes, the other node is both successor and predecessor.
        let me = id(100);
        let mut s = Node::new(me, cfg());
        s.leaf(id(200));
        assert!(s.cw().contains(&id(200)));
        assert!(s.ccw().contains(&id(200)));
        assert_eq!(s.members(), vec![id(200)]);
    }

    #[test]
    fn leaf_covers_and_closest() {
        let me = id(1000);
        let mut s = Node::new(me, cfg());
        for v in [1010u128, 1020, 990, 980] {
            s.leaf(id(v));
        }
        assert!(s.s.leaf_covers(id(1000)));
        assert!(s.s.leaf_covers(id(985)));
        assert!(s.s.leaf_covers(id(1020)));
        assert!(s.s.leaf_covers(id(980)));
        assert!(!s.s.leaf_covers(id(2000)));
        assert!(!s.s.leaf_covers(id(100)));
        assert_eq!(s.closest(id(1001)), id(1000));
        assert_eq!(s.closest(id(1012)), id(1010));
        assert_eq!(s.closest(id(984)), id(980));
        // Tie at 985 between 980 and 990: smaller id wins.
        assert_eq!(s.closest(id(985)), id(980));
    }

    #[test]
    fn undersized_leaf_covers_everything() {
        let me = id(1000);
        let mut s = Node::new(me, cfg());
        s.leaf(id(2000));
        assert!(s.s.leaf_covers(id(5)));
        assert!(s.s.leaf_covers(id(u128::MAX)));
    }

    #[test]
    fn remove_from_leaf() {
        let me = id(1000);
        let mut s = Node::new(me, cfg());
        s.leaf(id(1010));
        assert!(s.contains(id(1010)));
        assert!(s.remove_leaf(id(1010)));
        assert!(!s.contains(id(1010)));
        assert!(!s.remove_leaf(id(1010)));
    }

    #[test]
    fn purge_where_sweeps_leaf_and_table() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = Node::new(me, cfg());
        let far = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        let near = id(me.0 + 10);
        let keep = id(me.0 + 20);
        s.table(far);
        s.leaf(near);
        s.leaf(keep);
        assert!(s.purge_where(|n| n == far || n == near));
        assert!(!s.contains(near));
        assert!(s.contains(keep));
        assert_eq!(s.s.table_population(), 0);
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
        let mut s = Node::new(me, cfg());
        let (deep, shallow) = (peer_in_row(me, 6, 2, 1), peer_in_row(me, 0, 9, 2));
        // Nothing allocated yet: every row reads as `cols()` empty cells
        // and removals find nothing.
        assert_eq!(s.s.table_row(31).count(), 0);
        assert_eq!(
            NodeState::new(me, 0, PastryConfig { b: 8, leaf_set_size: 4 }).table_row(15).count(),
            0
        );
        assert_eq!((s.entry(6, 2), s.s.table_population(), s.s.heap_bytes()), (None, 0, 0));
        assert!(!s.remove_table(deep) && !s.purge(deep) && !s.purge_where(|_| true));
        // An insert into row 6 leaves the rows around it unallocated: the
        // bitmap grows to the word holding cell (6, 2) and no further.
        assert!(s.table(deep) && s.table(shallow));
        assert_eq!(s.row(6), vec![(2, deep)]);
        assert_eq!(s.s.table_row(3).count(), 0);
        assert_eq!(s.known(), vec![shallow, deep], "row-major order");
        assert_eq!(s.s.heap_bytes(), 4 * (4 + 2), "four bitmap words, two entries");
        // Only the cell's occupant can be removed, and only once.
        let rival = peer_in_row(me, 6, 2, 99);
        assert!(!s.remove_table(rival));
        assert!(s.remove_table(deep) && !s.remove_table(deep));
        assert_eq!(s.s.heap_bytes(), 4 * (1 + 1), "the bitmap shrinks back to row 0's word");
        assert!(s.table(rival), "the emptied row takes a new entry");
        assert!(s.purge_where(|n| n == rival || n == shallow));
        assert!(s.s.table_population() == 0 && !s.purge_where(|_| true));
        assert_eq!(s.s.heap_bytes(), 0);
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
            let mut s = Node::new(id(me), cfg());
            for &p in &peers {
                s.leaf(id(p));
            }
            for &r in &removals {
                if !peers.is_empty() {
                    s.remove_leaf(id(peers[r % peers.len()]));
                }
            }
            for &k in &keys {
                proptest::prop_assert_eq!(s.closest(id(k)), closest_in_leaf_scan(&s, id(k)));
                // The fused probe agrees with the two-call composition,
                // and the precomputed cover spans agree with recomputing
                // the arc ends from the leaf sides directly.
                proptest::prop_assert_eq!(s.s.leaf_covers(id(k)), leaf_covers_scan(&s, id(k)));
                let expect = if s.s.leaf_covers(id(k)) { Some(s.closest(id(k))) } else { None };
                proptest::prop_assert_eq!(s.route(id(k)), expect);
            }
        }

        /// The sparse table against a dense `digits × cols` model under
        /// random inserts, removals and sweeps: every cell, every row,
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
            let mut s = Node::new(me, cfg());
            let mut dense: Vec<Option<NodeId>> = vec![None; 32 * 16];
            for &p in &leaf {
                s.leaf(id(p));
            }
            for &(op, row, flip, low) in &ops {
                let peer = peer_in_row(me, row, flip, low);
                let (r, c) = s.s.cell_for(peer).expect("never self");
                proptest::prop_assert_eq!(r, row);
                let cell = &mut dense[r * 16 + c];
                match op {
                    0..=3 => {
                        let took = cell.is_none();
                        if took {
                            *cell = Some(peer);
                        }
                        proptest::prop_assert_eq!(s.table(peer), took);
                    }
                    4 => {
                        let held = *cell == Some(peer);
                        if held {
                            *cell = None;
                        }
                        proptest::prop_assert_eq!(s.remove_table(peer), held);
                    }
                    _ => {
                        // Sweep a third of the id space out of both halves.
                        let doomed = |n: NodeId| n.0 % 3 == low % 3;
                        let mut hit = false;
                        for e in dense.iter_mut().filter(|e| e.is_some_and(doomed)) {
                            *e = None;
                            hit = true;
                        }
                        hit |= s.members().into_iter().any(doomed);
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
                proptest::prop_assert_eq!(s.row(r), row);
                for c in 0..16 {
                    proptest::prop_assert_eq!(s.entry(r, c), dense[r * 16 + c]);
                }
            }
            proptest::prop_assert_eq!(s.s.table_population(), dense.iter().flatten().count());
            // The row-major walk yields exactly the model's entries.
            let leaves = s.s.leaf_cw().len() + s.s.leaf_ccw().len();
            let walked: Vec<NodeId> = s.s.known_iter().skip(leaves).map(|n| s.id_of(n)).collect();
            proptest::prop_assert_eq!(walked, dense.iter().flatten().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn known_nodes_union() {
        let me = id(0xAB00_0000_0000_0000_0000_0000_0000_0000);
        let mut s = Node::new(me, cfg());
        let a = id(0xAC00_0000_0000_0000_0000_0000_0000_0000);
        let b = id(me.0 + 10);
        s.table(a);
        s.leaf(b);
        let known = s.known();
        assert!(known.contains(&a));
        assert!(known.contains(&b));
        assert!(!known.contains(&me));
    }
}
