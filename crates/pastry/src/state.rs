//! Per-node Pastry routing state: leaf set and prefix routing table.

use crate::id::NodeId;

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

/// What [`NodeState::table_row`] hands out for a row that never held an
/// entry; `validate` caps `cols()` at 2^8.
static EMPTY_ROW: [Option<NodeId>; 256] = [None; 256];

/// Routing state of a single Pastry node.
#[derive(Clone, Debug)]
pub struct NodeState {
    id: NodeId,
    /// Up to `l/2` nearest nodes clockwise (increasing id, wrapping),
    /// ordered nearest-first.
    leaf_cw: Vec<NodeId>,
    /// Up to `l/2` nearest nodes counter-clockwise, ordered nearest-first.
    leaf_ccw: Vec<NodeId>,
    /// `rows[r][c]` holds a node sharing `r` digits of prefix with `id`
    /// whose digit `r` is `c`. A row is allocated (`cols()` wide) by the
    /// first insert into it — until then it is empty or past the end —
    /// because only about `log_2^b N` of the `digits()` rows ever hold an
    /// entry: ~1.5 KB per node at 1,000 nodes instead of a dense 16 KB.
    rows: Vec<Vec<Option<NodeId>>>,
    /// The distinct leaf-set members plus self, sorted by clockwise
    /// position from `id` — rebuilt eagerly on every leaf mutation
    /// (join/churn time) so the per-hop [`closest_in_leaf`] probe is a
    /// pure binary search over a contiguous slice.
    ///
    /// [`closest_in_leaf`]: Self::closest_in_leaf
    arc: Vec<(u128, NodeId)>,
    /// Precomputed [`leaf_covers`](Self::leaf_covers) operands, refreshed
    /// with `arc`: `covers_all` (undersized leaf set ⇒ whole ring),
    /// `cover_add` (clockwise span from the farthest ccw member to self)
    /// and `cover_rhs` (span from the farthest ccw to the farthest cw
    /// member). `key` is covered iff
    /// `(key − self) + cover_add ≤ cover_rhs` in wrapping arithmetic —
    /// the same test `in_arc` performs, with the key-independent halves
    /// hoisted out of the per-hop path.
    covers_all: bool,
    cover_add: u128,
    cover_rhs: u128,
    cfg: PastryConfig,
}

impl NodeState {
    /// Fresh state for node `id`.
    pub fn new(id: NodeId, cfg: PastryConfig) -> Self {
        NodeState {
            id,
            leaf_cw: Vec::with_capacity(cfg.leaf_set_size / 2),
            leaf_ccw: Vec::with_capacity(cfg.leaf_set_size / 2),
            rows: Vec::new(),
            arc: vec![(0, id)],
            covers_all: true,
            cover_add: 0,
            cover_rhs: 0,
            cfg,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.cfg
    }

    /// Routing-table entry at (`row`, `col`).
    pub fn table_entry(&self, row: usize, col: usize) -> Option<NodeId> {
        *self.rows.get(row)?.get(col)?
    }

    /// The routing-table slot a peer belongs in: row = shared prefix
    /// digits, col = the peer's first differing digit. `None` for self.
    pub fn slot_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        if peer == self.id {
            return None;
        }
        let row = self.id.shared_prefix_digits(peer, self.cfg.b);
        let col = peer.digit(row, self.cfg.b) as usize;
        Some((row, col))
    }

    /// Records `peer` in the routing table if its slot is empty.
    /// Returns true if the table changed.
    pub fn consider_for_table(&mut self, peer: NodeId) -> bool {
        let Some((row, col)) = self.slot_for(peer) else {
            return false;
        };
        if self.table_entry(row, col).is_some() {
            return false;
        }
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        // Allocates the row on its first insert; a no-op afterwards.
        self.rows[row].resize(self.cfg.cols(), None);
        self.rows[row][col] = Some(peer);
        true
    }

    /// Removes `peer` from the routing table (it can only sit in its own
    /// slot); returns true if it was there.
    pub fn remove_from_table(&mut self, peer: NodeId) -> bool {
        match self.slot_for(peer) {
            Some((row, col)) if self.table_entry(row, col) == Some(peer) => {
                self.rows[row][col] = None;
                true
            }
            _ => false,
        }
    }

    /// Considers `peer` for the leaf set, keeping each side at `l/2`
    /// nearest-first. Returns true if the leaf set changed.
    pub fn consider_for_leaf(&mut self, peer: NodeId) -> bool {
        if peer == self.id {
            return false;
        }
        let half = self.cfg.leaf_set_size / 2;
        let me = self.id;
        let insert = |list: &mut Vec<NodeId>, key: &dyn Fn(NodeId) -> u128| -> bool {
            if list.contains(&peer) {
                return false;
            }
            let pos = list.partition_point(|&n| key(n) < key(peer));
            if pos < half {
                list.insert(pos, peer);
                list.truncate(half);
                true
            } else {
                false
            }
        };
        // A peer is strictly on one side of the ring relative to `me`
        // (clockwise if its clockwise distance is the shorter arc… no —
        // leaf sets take the l/2 *successors* and l/2 *predecessors*, so a
        // peer is a candidate for both sides; on a sparsely populated ring
        // the same node can legitimately appear as both a near successor
        // and a near predecessor).
        let cw = insert(&mut self.leaf_cw, &|n| me.clockwise_distance(n));
        let ccw = insert(&mut self.leaf_ccw, &|n| n.clockwise_distance(me));
        if cw || ccw {
            self.rebuild_arc();
        }
        cw || ccw
    }

    /// Re-derives the sorted position arc from the leaf sides; a node
    /// appearing on both sides (sparse ring) collapses to one entry.
    fn rebuild_arc(&mut self) {
        self.arc.clear();
        self.arc.push((0, self.id));
        for &n in self.leaf_cw.iter().chain(&self.leaf_ccw) {
            let p = self.id.clockwise_distance(n);
            if let Err(i) = self.arc.binary_search_by_key(&p, |e| e.0) {
                self.arc.insert(i, (p, n));
            }
        }
        let half = self.cfg.leaf_set_size / 2;
        self.covers_all = self.leaf_cw.len() < half || self.leaf_ccw.len() < half;
        if self.covers_all {
            self.cover_add = 0;
            self.cover_rhs = 0;
        } else {
            let from = *self.leaf_ccw.last().expect("non-empty side");
            let to = *self.leaf_cw.last().expect("non-empty side");
            self.cover_add = from.clockwise_distance(self.id);
            self.cover_rhs = from.clockwise_distance(to);
        }
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
    /// true if any state changed.
    pub fn purge_where(&mut self, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        let before = self.leaf_cw.len() + self.leaf_ccw.len();
        self.leaf_cw.retain(|&n| !pred(n));
        self.leaf_ccw.retain(|&n| !pred(n));
        let leaf_changed = before != self.leaf_cw.len() + self.leaf_ccw.len();
        if leaf_changed {
            self.rebuild_arc();
        }
        let mut changed = leaf_changed;
        for e in self.rows.iter_mut().flatten() {
            if let Some(peer) = *e {
                if pred(peer) {
                    *e = None;
                    changed = true;
                }
            }
        }
        changed
    }

    /// Removes `peer` from the leaf set; returns true if present.
    pub fn remove_from_leaf(&mut self, peer: NodeId) -> bool {
        let a = self.leaf_cw.iter().position(|&n| n == peer).map(|i| self.leaf_cw.remove(i));
        let b = self.leaf_ccw.iter().position(|&n| n == peer).map(|i| self.leaf_ccw.remove(i));
        if a.is_some() || b.is_some() {
            self.rebuild_arc();
            return true;
        }
        false
    }

    /// True if the leaf set (either side) contains `peer`.
    pub fn leaf_contains(&self, peer: NodeId) -> bool {
        self.leaf_cw.contains(&peer) || self.leaf_ccw.contains(&peer)
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
        self.leaf_cw
            .iter()
            .copied()
            .chain(self.leaf_ccw.iter().copied().filter(|n| !self.leaf_cw.contains(n)))
    }

    /// Clockwise side of the leaf set, nearest first.
    pub fn leaf_cw(&self) -> &[NodeId] {
        &self.leaf_cw
    }

    /// Counter-clockwise side of the leaf set, nearest first.
    pub fn leaf_ccw(&self) -> &[NodeId] {
        &self.leaf_ccw
    }

    /// True if `key` falls inside the arc covered by the leaf set
    /// (between the farthest counter-clockwise and farthest clockwise
    /// members, inclusive). With an undersized leaf set (fewer members
    /// than `l/2` on a side — only possible in tiny overlays) the whole
    /// ring is covered.
    #[inline]
    pub fn leaf_covers(&self, key: NodeId) -> bool {
        self.covers_all
            || self.id.clockwise_distance(key).wrapping_add(self.cover_add) <= self.cover_rhs
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
        if !self.covers_all && kp.wrapping_add(self.cover_add) > self.cover_rhs {
            return None;
        }
        Some(self.closest_at(kp, key))
    }

    /// The leaf-set member (or self) numerically closest to `key`, by
    /// [`NodeId::nearest`], the rule ownership is decided by.
    ///
    /// The cached [`arc`](#structfield.arc) holds self plus every member
    /// in clockwise-position order around the full ring, so this is a
    /// binary search for `key`'s position followed by an exact check of
    /// only the circular neighbors — the numerically closest member must
    /// be `key`'s predecessor or successor in ring order. This is the
    /// hottest call in routing: every delivery hop lands here.
    pub fn closest_in_leaf(&self, key: NodeId) -> NodeId {
        self.closest_at(self.id.clockwise_distance(key), key)
    }

    /// [`closest_in_leaf`](Self::closest_in_leaf) with the key's
    /// clockwise position `kp` already in hand.
    #[inline]
    fn closest_at(&self, kp: u128, key: NodeId) -> NodeId {
        let arc = &self.arc;
        let len = arc.len();
        let i = arc.partition_point(|e| e.0 < kp);
        // `key`'s circular predecessor and successor in the arc: any
        // other member is strictly farther than the one of the two on
        // its side of the key.
        let near = [if i > 0 { i - 1 } else { len - 1 }, if i < len { i } else { 0 }];
        key.nearest(near.map(|j| arc[j].1)).expect("the arc holds self")
    }

    /// Reference implementation of [`leaf_covers`](Self::leaf_covers):
    /// recomputes the arc ends from the leaf sides on every call, the way
    /// the method originally did. Property-test oracle for the
    /// precomputed `cover_*` fields.
    #[cfg(test)]
    fn leaf_covers_scan(&self, key: NodeId) -> bool {
        let half = self.cfg.leaf_set_size / 2;
        if self.leaf_cw.len() < half || self.leaf_ccw.len() < half {
            return true;
        }
        let from = *self.leaf_ccw.last().expect("non-empty side");
        let to = *self.leaf_cw.last().expect("non-empty side");
        key.in_arc(from, to)
    }

    /// Reference implementation of [`closest_in_leaf`](Self::closest_in_leaf):
    /// the exhaustive scan the binary search must agree with, kept as the
    /// property-test oracle.
    #[cfg(test)]
    fn closest_in_leaf_scan(&self, key: NodeId) -> NodeId {
        let mut best = self.id;
        let mut best_d = self.id.distance(key);
        for &n in self.leaf_cw.iter().chain(&self.leaf_ccw) {
            let d = n.distance(key);
            if d < best_d || (d == best_d && n.0 < best.0) {
                best = n;
                best_d = d;
            }
        }
        best
    }

    /// All nodes this state knows about (leaf set + routing table).
    pub fn known_nodes(&self) -> Vec<NodeId> {
        let mut v = self.leaf_members();
        for e in self.rows.iter().flatten().flatten() {
            if !v.contains(e) {
                v.push(*e);
            }
        }
        v
    }

    /// All nodes this state knows about, without allocating. Unlike
    /// [`known_nodes`](Self::known_nodes) this may yield a node more than
    /// once, but each node's *first* occurrence appears in the same
    /// relative order, so first-wins reductions (`find`, `min_by_key`)
    /// produce identical results.
    pub fn known_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_cw
            .iter()
            .chain(self.leaf_ccw.iter())
            .copied()
            .chain(self.rows.iter().flatten().filter_map(|e| *e))
    }

    /// Routing-table row `row` as a slice of `cols()` options; a row
    /// that never held an entry reads as a shared all-`None` slice.
    pub fn table_row(&self, row: usize) -> &[Option<NodeId>] {
        match self.rows.get(row) {
            Some(r) if !r.is_empty() => r,
            _ => &EMPTY_ROW[..self.cfg.cols()],
        }
    }

    /// Number of populated routing-table entries.
    pub fn table_population(&self) -> usize {
        self.rows.iter().flatten().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> NodeId {
        NodeId(v)
    }

    fn cfg() -> PastryConfig {
        PastryConfig { b: 4, leaf_set_size: 4 }
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
        assert_eq!(s.leaf_ccw(), &[id(990), id(980)]);
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
        assert_eq!(s.leaf_ccw(), &[id(u128::MAX - 20), id(5)]);
    }

    #[test]
    fn tiny_ring_node_on_both_sides() {
        // With two nodes, the other node is both successor and predecessor.
        let me = id(100);
        let mut s = NodeState::new(me, cfg());
        s.consider_for_leaf(id(200));
        assert!(s.leaf_cw().contains(&id(200)));
        assert!(s.leaf_ccw().contains(&id(200)));
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
        assert_eq!(s.table_row(31), vec![None; 16].as_slice());
        assert_eq!(
            NodeState::new(me, PastryConfig { b: 8, leaf_set_size: 4 }).table_row(15).len(),
            256
        );
        assert_eq!((s.table_entry(6, 2), s.table_population()), (None, 0));
        assert!(!s.remove_from_table(deep) && !s.purge(deep) && !s.purge_where(|_| true));
        // An insert into row 6 leaves the rows around it unallocated.
        assert!(s.consider_for_table(deep) && s.consider_for_table(shallow));
        assert_eq!(s.table_row(6)[2], Some(deep));
        assert_eq!(s.table_row(3), vec![None; 16].as_slice());
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
                proptest::prop_assert_eq!(s.closest_in_leaf(id(k)), s.closest_in_leaf_scan(id(k)));
                // The fused probe agrees with the two-call composition,
                // and the precomputed cover spans agree with recomputing
                // the arc ends from the leaf sides directly.
                proptest::prop_assert_eq!(s.leaf_covers(id(k)), s.leaf_covers_scan(id(k)));
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
                proptest::prop_assert_eq!(s.table_row(r), &dense[r * 16..(r + 1) * 16]);
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
