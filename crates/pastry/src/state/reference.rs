//! The previous layout of a node's routing state, kept as the lockstep
//! reference for [`super::NodeState`]: two leaf vectors, one
//! `Option<Slot>` vector per populated table row, and a sorted arc of
//! the leaf set that delivery binary-searches. The overlay runs over
//! either through [`RoutingState`]; the lockstep tests below drive both
//! through the same membership history and compare them.

use super::{nearest, PastryConfig, RoutingState, Slot};
use crate::id::NodeId;

/// Routing state of a single Pastry node, as laid out before the
/// compact blocks.
#[derive(Clone, Debug)]
pub struct NodeState {
    id: NodeId,
    me: Slot,
    /// Up to `l/2` nearest nodes clockwise, nearest first.
    leaf_cw: Vec<Slot>,
    /// Up to `l/2` nearest nodes counter-clockwise, nearest first.
    leaf_ccw: Vec<Slot>,
    /// `rows[r][c]` holds a node sharing `r` digits of prefix with `id`
    /// whose digit `r` is `c`; a row is allocated `cols()` wide by its
    /// first insert.
    rows: Vec<Vec<Option<Slot>>>,
    /// The distinct leaf-set members plus self, sorted by clockwise
    /// position from `id`, rebuilt on every leaf mutation.
    arc: Vec<(u128, Slot)>,
    /// `leaf_covers` operands, refreshed with `arc`.
    covers_all: bool,
    cover_add: u128,
    cover_rhs: u128,
    cfg: PastryConfig,
}

impl NodeState {
    fn table_entry(&self, row: usize, col: usize) -> Option<Slot> {
        *self.rows.get(row)?.get(col)?
    }

    fn remove_from_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        match self.cell_for(ids[peer as usize]) {
            Some((row, col)) if self.table_entry(row, col) == Some(peer) => {
                self.rows[row][col] = None;
                true
            }
            _ => false,
        }
    }

    fn remove_from_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        let a = self.leaf_cw.iter().position(|&n| n == peer).map(|i| self.leaf_cw.remove(i));
        let b = self.leaf_ccw.iter().position(|&n| n == peer).map(|i| self.leaf_ccw.remove(i));
        if a.is_some() || b.is_some() {
            self.rebuild_arc(ids);
            return true;
        }
        false
    }

    fn rebuild_arc(&mut self, ids: &[NodeId]) {
        self.arc.clear();
        self.arc.push((0, self.me));
        for &n in self.leaf_cw.iter().chain(&self.leaf_ccw) {
            let p = self.id.clockwise_distance(ids[n as usize]);
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
            let from = ids[*self.leaf_ccw.last().expect("non-empty side") as usize];
            let to = ids[*self.leaf_cw.last().expect("non-empty side") as usize];
            self.cover_add = from.clockwise_distance(self.id);
            self.cover_rhs = from.clockwise_distance(to);
        }
    }

    fn closest_at(&self, kp: u128, key: NodeId, ids: &[NodeId]) -> Slot {
        let arc = &self.arc;
        let len = arc.len();
        let i = arc.partition_point(|e| e.0 < kp);
        let near = [if i > 0 { i - 1 } else { len - 1 }, if i < len { i } else { 0 }];
        nearest(key, ids, near.map(|j| arc[j].1)).expect("the arc holds self")
    }

    /// The sorted position arc: self and the distinct leaf members.
    pub fn arc(&self) -> &[(u128, Slot)] {
        &self.arc
    }

    /// Number of populated routing-table entries.
    pub fn table_population(&self) -> usize {
        self.rows.iter().flatten().flatten().count()
    }
}

impl RoutingState for NodeState {
    fn new(id: NodeId, me: Slot, cfg: PastryConfig) -> Self {
        NodeState {
            id,
            me,
            leaf_cw: Vec::with_capacity(cfg.leaf_set_size / 2),
            leaf_ccw: Vec::with_capacity(cfg.leaf_set_size / 2),
            rows: Vec::new(),
            arc: vec![(0, me)],
            covers_all: true,
            cover_add: 0,
            cover_rhs: 0,
            cfg,
        }
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn slot(&self) -> Slot {
        self.me
    }

    fn cell_for(&self, peer: NodeId) -> Option<(usize, usize)> {
        if peer == self.id {
            return None;
        }
        let row = self.id.shared_prefix_digits(peer, self.cfg.b);
        let col = peer.digit(row, self.cfg.b) as usize;
        Some((row, col))
    }

    fn consider_for_table(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        let Some((row, col)) = self.cell_for(ids[peer as usize]) else {
            return false;
        };
        if self.table_entry(row, col).is_some() {
            return false;
        }
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        self.rows[row].resize(self.cfg.cols(), None);
        self.rows[row][col] = Some(peer);
        true
    }

    fn consider_for_leaf(&mut self, peer: Slot, ids: &[NodeId]) -> bool {
        if peer == self.me {
            return false;
        }
        let half = self.cfg.leaf_set_size / 2;
        let me = self.id;
        let insert = |list: &mut Vec<Slot>, key: &dyn Fn(Slot) -> u128| -> bool {
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
        let cw = insert(&mut self.leaf_cw, &|n| me.clockwise_distance(ids[n as usize]));
        let ccw = insert(&mut self.leaf_ccw, &|n| ids[n as usize].clockwise_distance(me));
        if cw || ccw {
            self.rebuild_arc(ids);
        }
        cw || ccw
    }

    fn purge(&mut self, dead: Slot, ids: &[NodeId]) -> bool {
        let in_leaf = self.remove_from_leaf(dead, ids);
        let in_table = self.remove_from_table(dead, ids);
        in_leaf || in_table
    }

    fn purge_where(&mut self, ids: &[NodeId], mut pred: impl FnMut(Slot) -> bool) -> bool {
        let before = self.leaf_cw.len() + self.leaf_ccw.len();
        self.leaf_cw.retain(|&n| !pred(n));
        self.leaf_ccw.retain(|&n| !pred(n));
        let leaf_changed = before != self.leaf_cw.len() + self.leaf_ccw.len();
        if leaf_changed {
            self.rebuild_arc(ids);
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

    fn leaf_cw(&self) -> &[Slot] {
        &self.leaf_cw
    }

    fn leaf_ccw(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_ccw.iter().copied()
    }

    fn leaf_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_cw
            .iter()
            .copied()
            .chain(self.leaf_ccw.iter().copied().filter(|n| !self.leaf_cw.contains(n)))
    }

    fn leaf_covers(&self, key: NodeId) -> bool {
        self.covers_all
            || self.id.clockwise_distance(key).wrapping_add(self.cover_add) <= self.cover_rhs
    }

    fn leaf_route(&self, key: NodeId, ids: &[NodeId]) -> Option<Slot> {
        let kp = self.id.clockwise_distance(key);
        if !self.covers_all && kp.wrapping_add(self.cover_add) > self.cover_rhs {
            return None;
        }
        Some(self.closest_at(kp, key, ids))
    }

    fn table_entry(&self, row: usize, col: usize) -> Option<Slot> {
        NodeState::table_entry(self, row, col)
    }

    fn table_row(&self, row: usize) -> impl Iterator<Item = (usize, Slot)> + '_ {
        let cells = self.rows.get(row).map_or(&[][..], Vec::as_slice);
        cells.iter().enumerate().filter_map(|(col, e)| e.map(|n| (col, n)))
    }

    fn known_iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.leaf_cw
            .iter()
            .chain(self.leaf_ccw.iter())
            .copied()
            .chain(self.rows.iter().flatten().filter_map(|e| *e))
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.leaf_cw.capacity() + self.leaf_ccw.capacity()) * size_of::<Slot>()
            + self.rows.capacity() * size_of::<Vec<Option<Slot>>>()
            + self.rows.iter().map(|r| r.capacity() * size_of::<Option<Slot>>()).sum::<usize>()
            + self.arc.capacity() * size_of::<(u128, Slot)>()
    }
}

/// The lockstep check: one membership history driven through an overlay
/// over [`super::NodeState`] and one over the reference, compared node
/// by node after every operation.
mod lockstep {
    use super::NodeState as Reference;
    use crate::state::{RoutingState, Slot};
    use crate::{NodeId, NodeState, Overlay, PastryConfig};
    use proptest::prelude::{any, ProptestConfig, TestCaseError};
    use proptest::{prop_assert, prop_assert_eq};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Every node's state, and routes between `routes` sampled pairs,
    /// agree. Peers are compared by slot: both overlays hand slots out in
    /// the same order, which the per-node slot check pins, so equal slots
    /// name equal ids.
    fn assert_same(
        new: &Overlay,
        old: &Overlay<Reference>,
        rng: &mut SmallRng,
        routes: usize,
        step: &str,
    ) -> Result<(), TestCaseError> {
        let ids: Vec<NodeId> = new.node_ids().collect();
        prop_assert_eq!(&ids, &old.node_ids().collect::<Vec<_>>(), "live set after {}", step);
        prop_assert_eq!(
            new.crashed_ids().collect::<Vec<_>>(),
            old.crashed_ids().collect::<Vec<_>>()
        );
        prop_assert_eq!(new.island_sizes(), old.island_sizes());
        prop_assert_eq!(new.check_invariants(), old.check_invariants(), "after {}", step);
        let digits = new.config().digits();
        for &id in &ids {
            prop_assert_eq!(new.slot_of(id), old.slot_of(id), "node {} after {}", id, step);
            let (a, b): (&NodeState, &Reference) = (new.state(id).unwrap(), old.state(id).unwrap());
            for row in 0..digits {
                prop_assert_eq!(
                    a.table_row(row).collect::<Vec<_>>(),
                    RoutingState::table_row(b, row).collect::<Vec<_>>(),
                    "node {} row {} after {}",
                    id,
                    row,
                    step
                );
            }
            prop_assert_eq!(a.table_population(), b.table_population());
            prop_assert_eq!(a.leaf_cw(), RoutingState::leaf_cw(b), "node {} after {}", id, step);
            prop_assert_eq!(
                a.leaf_ccw().collect::<Vec<_>>(),
                RoutingState::leaf_ccw(b).collect::<Vec<_>>()
            );
            // The arc: self and the distinct members by clockwise
            // position. Stored leaf order is that arc whenever the two
            // sides do not overlap.
            let pos = |n: Slot| id.clockwise_distance(new.id_of(n));
            let mut arc: Vec<(u128, Slot)> = a.leaf_iter().map(|n| (pos(n), n)).collect();
            arc.push((0, a.slot()));
            arc.sort_unstable();
            prop_assert_eq!(arc.as_slice(), b.arc());
            let stored: Vec<Slot> = a.leaf_cw().iter().copied().chain(a.leaf_ccw().rev()).collect();
            if !a.leaf_cw().iter().any(|n| a.leaf_ccw().any(|m| m == *n)) {
                prop_assert!(stored.windows(2).all(|w| pos(w[0]) < pos(w[1])), "node {}", id);
            }
            prop_assert_eq!(
                a.known_iter().collect::<Vec<_>>(),
                RoutingState::known_iter(b).collect::<Vec<_>>(),
                "node {} after {}",
                id,
                step
            );
            prop_assert_eq!(a.known_nodes(), RoutingState::known_nodes(b));
            prop_assert_eq!(
                a.leaf_iter().collect::<Vec<_>>(),
                RoutingState::leaf_iter(b).collect::<Vec<_>>()
            );
            for _ in 0..4 {
                let key = NodeId(rng.random());
                prop_assert_eq!(a.leaf_covers(key), RoutingState::leaf_covers(b, key));
                prop_assert_eq!(
                    a.leaf_route(key, new.ids()),
                    RoutingState::leaf_route(b, key, old.ids())
                );
            }
        }
        for _ in 0..routes.min(ids.len()) {
            let from = ids[rng.random_range(0..ids.len())];
            let key = NodeId(rng.random());
            prop_assert_eq!(
                new.route(from, key).map(|r| r.path),
                old.route(from, key).map(|r| r.path),
                "route {} from {} after {}",
                key,
                from,
                step
            );
            prop_assert_eq!(new.route_hops(from, key), old.route_hops(from, key));
        }
        Ok(())
    }

    /// A fresh id neither overlay has seen live.
    fn fresh(new: &Overlay, rng: &mut SmallRng) -> NodeId {
        loop {
            let id = NodeId(rng.random());
            if !new.contains(id) && !new.is_crashed(id) {
                return id;
            }
        }
    }

    /// `n` distinct random ids.
    fn distinct_ids(n: usize, rng: &mut SmallRng) -> Vec<NodeId> {
        let mut ids = Vec::new();
        while ids.len() < n {
            let id = NodeId(rng.random());
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The compact layout against the previous one through joins,
        /// announced failures, silent crashes with every way of
        /// reclaiming them (a detecting route, an oracle announcement, a
        /// rejoin of the same id), partitions and heals, at every digit
        /// width and leaf-set size the configuration allows.
        #[test]
        fn compact_state_matches_the_reference_layout(
            b_log in 0u32..4,
            l_log in 1u32..6,
            n in 1usize..200,
            seed in any::<u64>(),
            // 0 join, 1 announced fail, 2 crash, 3 detecting route,
            // 4 reclaim by announcement, 5 rejoin of a crashed id,
            // 6 partition, 7 heal.
            ops in proptest::collection::vec(0u8..8, 1..10),
        ) {
            // b in {1, 2, 4, 8}; l in {2, 4, 16, 32} (8 stands in for 4).
            let l = match 1usize << l_log { 8 => 4, l => l };
            let cfg = PastryConfig { b: 1 << b_log, leaf_set_size: l };
            let mut rng = SmallRng::seed_from_u64(seed);
            let ids = distinct_ids(n, &mut rng);
            let mut new = Overlay::with_nodes(cfg, ids.iter().copied());
            let mut old = Overlay::<Reference>::joined(cfg, ids.iter().copied());
            assert_same(&new, &old, &mut rng, 8, "build")?;
            for op in ops {
                let live: Vec<NodeId> = new.node_ids().collect();
                let crashed: Vec<NodeId> = new.crashed_ids().collect();
                let pick = |v: &[NodeId], rng: &mut SmallRng| v[rng.random_range(0..v.len())];
                let step = match op {
                    0 => {
                        let id = fresh(&new, &mut rng);
                        prop_assert_eq!(new.join(id), old.join(id));
                        "join"
                    }
                    1 | 2 if live.len() > 1 => {
                        let victim = pick(&live, &mut rng);
                        if op == 1 {
                            prop_assert_eq!(new.fail(victim), old.fail(victim));
                            "fail"
                        } else {
                            prop_assert_eq!(new.crash(victim), old.crash(victim));
                            "crash"
                        }
                    }
                    3 if !live.is_empty() => {
                        let (from, key) = (pick(&live, &mut rng), NodeId(rng.random()));
                        let (x, y) = (new.route_detecting(from, key, || false), old.route_detecting(from, key, || false));
                        prop_assert_eq!(x.map(|r| (r.destination, r.hops, r.detected)), y.map(|r| (r.destination, r.hops, r.detected)));
                        "detecting route"
                    }
                    4 | 5 if !crashed.is_empty() => {
                        let corpse = pick(&crashed, &mut rng);
                        if op == 4 {
                            prop_assert_eq!(new.fail(corpse), old.fail(corpse));
                            "reclaim"
                        } else {
                            prop_assert_eq!(new.join(corpse), old.join(corpse));
                            "rejoin"
                        }
                    }
                    6 => {
                        let a: Vec<NodeId> = live.iter().copied().filter(|_| rng.random_bool(0.5)).collect();
                        prop_assert_eq!(new.start_partition(a.clone()), old.start_partition(a));
                        "partition"
                    }
                    7 => {
                        prop_assert_eq!(new.heal_partition(), old.heal_partition());
                        "heal"
                    }
                    _ => continue,
                };
                assert_same(&new, &old, &mut rng, 8, step)?;
            }
        }
    }

    /// The two layouts through one history at the scale the benchmark's
    /// large cluster runs (1,000 nodes, b = 4, l = 16): silent crashes,
    /// each detected by a route, an oracle announcement or a rejoin of
    /// the same id; a departure; joins that reuse the freed slots; a
    /// 70/30 partition with churn on both sides of it; and the heal.
    #[test]
    fn thousand_node_history_matches_the_reference() -> Result<(), TestCaseError> {
        let cfg = PastryConfig::default();
        let mut rng = SmallRng::seed_from_u64(0x5107);
        let ids = distinct_ids(1000, &mut rng);
        let mut new = Overlay::with_nodes(cfg, ids.iter().copied());
        let mut old = Overlay::<Reference>::joined(cfg, ids.iter().copied());
        assert_same(&new, &old, &mut rng, 64, "build")?;
        let victims: Vec<NodeId> = ids.iter().copied().step_by(97).collect();
        for &v in &victims {
            prop_assert_eq!(new.crash(v), old.crash(v));
        }
        assert_same(&new, &old, &mut rng, 64, "crashes")?;
        // Routes aimed at the corpses detect some of them.
        let from = ids[1];
        for &v in &victims[..6] {
            let (x, y) =
                (new.route_detecting(from, v, || false), old.route_detecting(from, v, || false));
            prop_assert_eq!(
                x.map(|r| (r.destination, r.hops, r.timeouts, r.detected)),
                y.map(|r| (r.destination, r.hops, r.timeouts, r.detected))
            );
        }
        prop_assert!(new.crashed_len() < victims.len(), "the routes detected a crash");
        assert_same(&new, &old, &mut rng, 64, "detections")?;
        let left: Vec<NodeId> = new.crashed_ids().collect();
        prop_assert_eq!(new.fail(left[0]), old.fail(left[0]));
        prop_assert_eq!(new.join(left[1]), old.join(left[1]));
        prop_assert_eq!(new.fail(ids[500]), old.fail(ids[500]));
        for _ in 0..8 {
            let id = fresh(&new, &mut rng);
            prop_assert_eq!(new.join(id), old.join(id));
        }
        assert_same(&new, &old, &mut rng, 64, "reclaim, rejoin, departure and joins")?;
        let live: Vec<NodeId> = new.node_ids().collect();
        let a: Vec<NodeId> = live.iter().copied().filter(|_| rng.random_bool(0.7)).collect();
        prop_assert!(new.start_partition(a.clone()) && old.start_partition(a));
        let (island_a, island_b) = new.island_sizes();
        prop_assert!(island_a > 2 * island_b, "a 70/30 cut: {} and {}", island_a, island_b);
        assert_same(&new, &old, &mut rng, 64, "partition")?;
        let live: Vec<NodeId> = new.node_ids().collect();
        let (b_side, a_side) = (
            live.iter().copied().find(|&n| !new.in_island_a(n)).unwrap(),
            live.iter().copied().find(|&n| new.in_island_a(n)).unwrap(),
        );
        prop_assert_eq!(new.crash(b_side), old.crash(b_side));
        prop_assert_eq!(new.fail(a_side), old.fail(a_side));
        let id = fresh(&new, &mut rng);
        prop_assert_eq!(new.join(id), old.join(id));
        assert_same(&new, &old, &mut rng, 64, "churn mid-partition")?;
        prop_assert!(new.heal_partition() && old.heal_partition());
        assert_same(&new, &old, &mut rng, 64, "heal")?;
        Ok(())
    }
}
