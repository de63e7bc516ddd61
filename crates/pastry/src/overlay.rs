//! The simulated overlay: membership, join/failure protocols and routing.

use crate::id::NodeId;
use crate::state::{NodeState, PastryConfig};
use std::collections::BTreeSet;
use std::fmt;
use webcache_primitives::ShaIdMap;

/// Result of routing a key from a starting node.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Nodes visited, starting node first, destination last.
    pub path: Vec<NodeId>,
    /// The node the message was delivered to.
    pub destination: NodeId,
}

impl RouteOutcome {
    /// Overlay hops taken (`path` transitions).
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Typed membership error returned by [`Overlay::fail`] and
/// [`Overlay::crash`] instead of panicking: churn drivers routinely race
/// a scheduled failure against a node that already left, and the caller
/// — not the overlay — knows whether that is a bug or an ignorable
/// duplicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// The id is neither live nor crashed — it never joined or was
    /// already removed.
    UnknownNode(NodeId),
    /// The id already crashed silently and has not been reclaimed.
    AlreadyCrashed(NodeId),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::UnknownNode(id) => write!(f, "node {id} is not a member"),
            OverlayError::AlreadyCrashed(id) => write!(f, "node {id} already crashed"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// Result of a liveness-aware routing walk ([`Overlay::route_detecting`]).
///
/// `hops` counts messages that reached a live node; `timeouts` counts
/// messages that died (sent to a crashed node, or lost and retransmitted)
/// — each one costs the sender a full timeout. `detected` lists crashed
/// nodes this walk discovered and repaired, in discovery order.
#[derive(Clone, Debug)]
pub struct ChurnRoute {
    /// The live node the message was delivered to.
    pub destination: NodeId,
    /// Messages that arrived (path transitions plus retransmissions).
    pub hops: usize,
    /// Timed-out messages (dead next hop or simulated loss).
    pub timeouts: usize,
    /// Crashed nodes detected (and lazily repaired) during the walk.
    pub detected: Vec<NodeId>,
}

/// One step of the shared routing decision.
enum Hop {
    /// The current node owns the key.
    Arrived,
    /// Final leaf-set hop to the numerically closest member.
    Deliver(NodeId),
    /// Intermediate prefix/greedy forwarding hop.
    Forward(NodeId),
}

/// A deterministic, in-process Pastry overlay.
///
/// The overlay owns every node's [`NodeState`] and simulates the message
/// exchanges of the join/failure/routing protocols directly. Nothing ever
/// consults global knowledge during *routing* — messages only follow
/// per-node state, so hop counts and delivery correctness are real
/// measurements; global knowledge is used only where the real protocol
/// would use the physical network (choosing a join seed, enumerating the
/// nodes that must be notified of a failure they would detect by timeout).
#[derive(Clone, Debug)]
pub struct Overlay {
    cfg: PastryConfig,
    nodes: ShaIdMap<u128, NodeState>,
    /// Live node ids in ascending order — the hash map's sorted mirror.
    /// Routing does one state lookup per hop, which a hash map serves in
    /// O(1); everything that needs id order or a range scan (ownership,
    /// join seeds, deterministic repair sweeps) reads the ring.
    ring: Vec<u128>,
    /// Nodes that crashed *silently*: other nodes' leaf sets and routing
    /// tables still reference them until a route times out on them and
    /// triggers lazy repair ([`route_detecting`](Self::route_detecting)).
    crashed: BTreeSet<u128>,
    /// Active network partition: the ids on the **A** side of the cut
    /// (the side the proxy stays connected to). `None` means the overlay
    /// is whole. While a partition is active each island runs an
    /// independent membership view — every cross-cut reference was purged
    /// by [`start_partition`](Self::start_partition), and joins, repairs,
    /// and routes stay island-local until
    /// [`heal_partition`](Self::heal_partition) merges the views again.
    partition: Option<BTreeSet<u128>>,
}

impl Overlay {
    /// An empty overlay.
    ///
    /// # Panics
    /// Panics on an invalid [`PastryConfig`].
    pub fn new(cfg: PastryConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid PastryConfig: {e}");
        }
        Overlay {
            cfg,
            nodes: ShaIdMap::default(),
            ring: Vec::new(),
            crashed: BTreeSet::new(),
            partition: None,
        }
    }

    /// Builds an overlay by joining `ids` one at a time.
    pub fn with_nodes(cfg: PastryConfig, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut o = Self::new(cfg);
        for id in ids {
            o.join(id);
        }
        o
    }

    /// The configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.cfg
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `id` is a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id.0)
    }

    /// True if `id` crashed silently and has not yet been detected.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed.contains(&id.0)
    }

    /// Crashed-but-undetected node ids, in id order.
    pub fn crashed_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().map(|&k| NodeId(k))
    }

    /// Number of crashed-but-undetected nodes.
    pub fn crashed_len(&self) -> usize {
        self.crashed.len()
    }

    /// Iterates over live node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ring.iter().map(|&k| NodeId(k))
    }

    /// Inserts `k` into the sorted ring mirror (no-op if present).
    fn ring_insert(&mut self, k: u128) {
        if let Err(i) = self.ring.binary_search(&k) {
            self.ring.insert(i, k);
        }
    }

    /// Removes `k` from the sorted ring mirror (no-op if absent).
    fn ring_remove(&mut self, k: u128) {
        if let Ok(i) = self.ring.binary_search(&k) {
            self.ring.remove(i);
        }
    }

    /// Borrows a node's state.
    pub fn state(&self, id: NodeId) -> Option<&NodeState> {
        self.nodes.get(&id.0)
    }

    /// Ground truth: the live node numerically closest to `key` (ties to
    /// the smaller id). This is where the DHT *should* place `key`.
    pub fn owner_of(&self, key: NodeId) -> Option<NodeId> {
        if self.ring.is_empty() {
            return None;
        }
        let mut best: Option<(u128, NodeId)> = None;
        // Only the nearest id below and above (with wraparound) can win.
        let i = self.ring.partition_point(|&k| k < key.0);
        let above = Some(NodeId(if i == self.ring.len() { self.ring[0] } else { self.ring[i] }));
        let j = self.ring.partition_point(|&k| k <= key.0);
        let below = Some(NodeId(if j == 0 {
            *self.ring.last().expect("non-empty")
        } else {
            self.ring[j - 1]
        }));
        for cand in [above, below].into_iter().flatten() {
            let d = cand.distance(key);
            let better = match best {
                None => true,
                Some((bd, bid)) => d < bd || (d == bd && cand.0 < bid.0),
            };
            if better {
                best = Some((d, cand));
            }
        }
        best.map(|(_, id)| id)
    }

    // ------------------------------------------------------------------
    // Network partitions: split-brain islands and healing.
    // ------------------------------------------------------------------

    /// True while a partition is active.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True if `id` sits on the A side of the active cut (the side the
    /// proxy stays connected to). Without a partition every node counts
    /// as A-side.
    pub fn in_island_a(&self, id: NodeId) -> bool {
        self.partition.as_ref().is_none_or(|p| p.contains(&id.0))
    }

    /// True when `a` and `b` can exchange messages: no active cut, or
    /// both on the same side of it.
    pub fn same_island(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(p) => p.contains(&a.0) == p.contains(&b.0),
        }
    }

    /// Live ids on the A side of the cut, in id order (every live id
    /// when no partition is active).
    pub fn island_a_ids(&self) -> Vec<NodeId> {
        self.ring
            .iter()
            .filter(|k| self.partition.as_ref().is_none_or(|p| p.contains(k)))
            .map(|&k| NodeId(k))
            .collect()
    }

    /// Live ids on the B side of the cut, in id order (empty when no
    /// partition is active).
    pub fn island_b_ids(&self) -> Vec<NodeId> {
        match &self.partition {
            None => Vec::new(),
            Some(p) => self.ring.iter().filter(|k| !p.contains(k)).map(|&k| NodeId(k)).collect(),
        }
    }

    /// Ground truth restricted to one side of the cut: the live island
    /// member numerically closest to `key` (ties to the smaller id).
    /// `None` when that island has no live members. A linear scan — this
    /// only runs on partition fault paths, never in steady state.
    pub fn owner_in_island(&self, key: NodeId, island_a: bool) -> Option<NodeId> {
        let mut best: Option<(u128, NodeId)> = None;
        for &k in self.ring.iter() {
            let in_a = self.partition.as_ref().is_none_or(|p| p.contains(&k));
            if in_a != island_a {
                continue;
            }
            let cand = NodeId(k);
            let d = cand.distance(key);
            let better = match best {
                None => true,
                Some((bd, bid)) => d < bd || (d == bd && cand.0 < bid.0),
            };
            if better {
                best = Some((d, cand));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Cuts the overlay into two islands: `island_a` (intersected with
    /// the live set) on one side, everything else on the other. Every
    /// node drops every reference crossing the cut — the same sweep each
    /// side's failure detectors would converge to once every cross-cut
    /// message times out — and then each island independently repairs to
    /// its own ground truth, producing two self-consistent membership
    /// views that know nothing of each other.
    ///
    /// Returns false (a no-op) when a partition is already active or the
    /// cut would leave either side without live members.
    pub fn start_partition(&mut self, island_a: impl IntoIterator<Item = NodeId>) -> bool {
        if self.partition.is_some() {
            return false;
        }
        let a: BTreeSet<u128> =
            island_a.into_iter().map(|n| n.0).filter(|k| self.nodes.contains_key(k)).collect();
        if a.is_empty() || a.len() == self.nodes.len() {
            return false;
        }
        for s in self.nodes.values_mut() {
            let me_in_a = a.contains(&s.id().0);
            s.purge_where(|peer| a.contains(&peer.0) != me_in_a);
        }
        self.partition = Some(a);
        self.rebuild_views();
        true
    }

    /// Heals the active cut: the partition is cleared and the island
    /// views merge — every node considers every live node again, which
    /// is the fixpoint the gossip repair converges to once cross-cut
    /// traffic flows. Returns false when no partition was active.
    pub fn heal_partition(&mut self) -> bool {
        if self.partition.take().is_none() {
            return false;
        }
        self.rebuild_views();
        true
    }

    /// Re-derives every live node's view as the repair-protocol fixpoint
    /// over the peers it can currently reach: each node considers every
    /// same-island live peer for its leaf set and routing table. Runs
    /// after a cut (per island) and after a heal (whole overlay).
    fn rebuild_views(&mut self) {
        let ids: Vec<u128> = self.ring.clone();
        for &y in &ids {
            let me = NodeId(y);
            let mut st = self.nodes.remove(&y).expect("live node");
            for &k in &ids {
                if k != y && self.same_island(me, NodeId(k)) {
                    st.consider_for_leaf(NodeId(k));
                    st.consider_for_table(NodeId(k));
                }
            }
            self.nodes.insert(y, st);
        }
    }

    /// The transitive closure of `from`'s membership view over live
    /// nodes: everything a message starting at `from` could ever reach
    /// by following leaf-set and routing-table references. Two nodes
    /// with equal reachable sets agree on the membership; after a heal
    /// every live node's set must equal the full live set — the
    /// convergence property the partition proptest pins.
    pub fn reachable_set(&self, from: NodeId) -> BTreeSet<u128> {
        let mut seen = BTreeSet::new();
        if !self.contains(from) {
            return seen;
        }
        seen.insert(from.0);
        let mut stack = vec![from.0];
        while let Some(k) = stack.pop() {
            for peer in self.nodes[&k].known_nodes() {
                if self.nodes.contains_key(&peer.0) && seen.insert(peer.0) {
                    stack.push(peer.0);
                }
            }
        }
        seen
    }

    /// Joins a new node, building its state through the join protocol:
    /// route a join message from a seed to `new_id`, copy the routing-table
    /// rows of the nodes along the path and the leaf set of the closest
    /// existing node, then announce the new node to everyone it learned of.
    ///
    /// Returns the join route's hop count (0 for the first node).
    ///
    /// A join can reuse the id of a node that crashed silently and was
    /// never detected — the same machine rebooting. The rejoin counts as
    /// the detection: the stale incarnation is reclaimed (purged from
    /// every peer's state, leaf sets repaired) before the newcomer joins
    /// with fresh, empty state.
    ///
    /// # Panics
    /// Panics if `new_id` is already a *live* member.
    pub fn join(&mut self, new_id: NodeId) -> usize {
        assert!(!self.contains(new_id), "node {new_id} already joined");
        if self.is_crashed(new_id) {
            self.reclaim(new_id);
        }
        // Seed: the real protocol uses any nearby live node; we pick the
        // deterministic first node in id order. A mid-partition join
        // lands on the A side (the proxy's side of the cut): the
        // newcomer can only reach island-A members, so its seed, its
        // copied state, and its announcements all stay island-local.
        let seed = match &self.partition {
            Some(p) => p.iter().next().map(|&k| NodeId(k)),
            None => self.ring.first().map(|&k| NodeId(k)),
        };
        if let Some(p) = &mut self.partition {
            p.insert(new_id.0);
        }
        let Some(seed) = seed else {
            self.nodes.insert(new_id.0, NodeState::new(new_id, self.cfg));
            self.ring_insert(new_id.0);
            return 0;
        };
        let route = self.route(seed, new_id).expect("routing in a live overlay");
        let mut x = NodeState::new(new_id, self.cfg);
        // Copy state from the path: node i contributes the row matching
        // its shared prefix with the new node (prefixes grow along the
        // path), and every path node is itself a candidate.
        for &p in &route.path {
            let ps = &self.nodes[&p.0];
            let row = new_id.shared_prefix_digits(p, self.cfg.b).min(self.cfg.digits() - 1);
            for entry in ps.table_row(row).iter().flatten() {
                if *entry != new_id && !self.is_crashed(*entry) {
                    x.consider_for_table(*entry);
                }
            }
            x.consider_for_table(p);
            x.consider_for_leaf(p);
        }
        // The destination is the numerically closest node: copy its leaf
        // set, and exchange routing state with those leaf members (the
        // join-time state exchange of the protocol) to densify tables.
        let z = route.destination;
        for m in self.nodes[&z.0].leaf_members() {
            if m != new_id && !self.is_crashed(m) {
                x.consider_for_leaf(m);
                x.consider_for_table(m);
            }
        }
        for m in x.leaf_members() {
            if let Some(ms) = self.nodes.get(&m.0) {
                // Repeats are harmless: `consider_for_table` is first-wins
                // and first occurrences come in `known_nodes` order.
                for peer in ms.known_iter() {
                    if peer != new_id && !self.is_crashed(peer) {
                        x.consider_for_table(peer);
                    }
                }
            }
        }
        // Announce: every node the new node learned about gets to consider
        // it for its own state (this reaches all of X's true ring
        // neighbors, because they are all in Z's leaf set).
        let known = x.known_nodes();
        self.nodes.insert(new_id.0, x);
        self.ring_insert(new_id.0);
        for k in known {
            if let Some(ks) = self.nodes.get_mut(&k.0) {
                ks.consider_for_leaf(new_id);
                ks.consider_for_table(new_id);
            }
        }
        route.hops()
    }

    /// Removes a node as an *announced* failure and runs the leaf-set
    /// repair protocol: every node that held the failed node drops it and
    /// then gossips with its remaining leaf-set members until leaf sets
    /// reach a fixpoint.
    ///
    /// Also accepts a crashed-but-undetected id (reclaiming it —
    /// detection by an oracle). Returns [`OverlayError::UnknownNode`]
    /// instead of panicking when `id` was never a member or already
    /// removed, so duplicate failure announcements from a churn driver
    /// are a typed, ignorable error rather than a crash of the simulator.
    pub fn fail(&mut self, id: NodeId) -> Result<(), OverlayError> {
        let was_live = self.nodes.remove(&id.0).is_some();
        if was_live {
            self.ring_remove(id.0);
        }
        let was_crashed = self.crashed.remove(&id.0);
        if !was_live && !was_crashed {
            return Err(OverlayError::UnknownNode(id));
        }
        if let Some(p) = &mut self.partition {
            p.remove(&id.0);
        }
        for s in self.nodes.values_mut() {
            s.purge(id);
        }
        self.repair_leaf_sets();
        Ok(())
    }

    /// Crashes a node *silently*: the node stops answering, but nobody is
    /// told — every other node's leaf sets and routing tables keep the
    /// stale reference until a message to the dead node times out
    /// ([`route_detecting`](Self::route_detecting)), which triggers the
    /// same lazy repair the real protocol runs on failure detection.
    pub fn crash(&mut self, id: NodeId) -> Result<(), OverlayError> {
        if self.nodes.remove(&id.0).is_some() {
            self.ring_remove(id.0);
            if let Some(p) = &mut self.partition {
                p.remove(&id.0);
            }
            self.crashed.insert(id.0);
            Ok(())
        } else if self.crashed.contains(&id.0) {
            Err(OverlayError::AlreadyCrashed(id))
        } else {
            Err(OverlayError::UnknownNode(id))
        }
    }

    /// Detection aftermath for one crashed node: forget it everywhere and
    /// repair leaf sets, exactly as [`fail`](Self::fail) does for an
    /// announced failure.
    fn reclaim(&mut self, id: NodeId) {
        self.crashed.remove(&id.0);
        if let Some(p) = &mut self.partition {
            p.remove(&id.0);
        }
        for s in self.nodes.values_mut() {
            s.purge(id);
        }
        self.repair_leaf_sets();
    }

    /// Gossip leaf-set repair: each node offers its leaf set to its leaf
    /// members, rounds repeating until nothing changes. This is the steady
    /// state the real lazy repair protocol converges to.
    fn repair_leaf_sets(&mut self) {
        loop {
            let mut changed = false;
            let ids: Vec<u128> = self.ring.clone();
            for &y in &ids {
                // Collect the candidates first (a gossip "pull" from the
                // node's current leaf members), then apply.
                let members = self.nodes[&y].leaf_members();
                let mut candidates: Vec<NodeId> = Vec::new();
                for m in &members {
                    if let Some(ms) = self.nodes.get(&m.0) {
                        candidates.extend(ms.leaf_members());
                    }
                }
                let ys = self.nodes.get_mut(&y).expect("live node");
                for c in candidates {
                    if c.0 != y {
                        changed |= ys.consider_for_leaf(c);
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Routes `key` from node `from` following per-node state only.
    ///
    /// Returns `None` if `from` is not a live node. The returned path
    /// starts at `from` and ends at the delivering node.
    pub fn route(&self, from: NodeId, key: NodeId) -> Option<RouteOutcome> {
        let mut path = Vec::new();
        let (destination, _hops) = self.route_steps(from, key, |n| path.push(n))?;
        Some(RouteOutcome { path, destination })
    }

    /// Like [`route`](Self::route), but returns only the delivering node
    /// and the hop count, without materializing the path — the hot-path
    /// variant for callers that charge hops to a ledger and never inspect
    /// intermediate nodes.
    pub fn route_hops(&self, from: NodeId, key: NodeId) -> Option<(NodeId, usize)> {
        self.route_steps(from, key, |_| {})
    }

    /// The routing walk shared by [`route`](Self::route) and
    /// [`route_hops`](Self::route_hops): `visit` sees every node on the
    /// path (starting node first, destination last); the return value is
    /// `(destination, hops)` where `hops` counts path transitions.
    fn route_steps(
        &self,
        from: NodeId,
        key: NodeId,
        mut visit: impl FnMut(NodeId),
    ) -> Option<(NodeId, usize)> {
        // One lookup both answers "is `from` live" and yields the state
        // the first decision reads.
        let mut state = self.nodes.get(&from.0)?;
        let mut current = from;
        let mut hops = 0usize;
        visit(current);
        // Once prefix routing dead-ends (empty slot, no prefix-preserving
        // closer node) the route switches permanently to greedy
        // closest-known-node forwarding, which strictly decreases the
        // circular distance each hop — with correct leaf sets a strictly
        // closer known node always exists until the owner is reached, so
        // greedy mode both terminates and delivers correctly.
        let mut greedy_mode = false;
        // Termination is structural (prefix growth, then strict distance
        // decrease); the budget is a tripwire for protocol bugs.
        let budget = 4 * self.cfg.digits() + self.cfg.leaf_set_size + 4;
        for _ in 0..budget {
            // Stale references to silently crashed nodes are routed
            // *around* here (the join protocol and announced-churn paths
            // must stay correct mid-staleness); only `route_detecting`
            // deliberately walks into them to model timeout detection.
            match self.hop_decision(state, current, key, &mut greedy_mode, true) {
                Hop::Arrived => return Some((current, hops)),
                Hop::Deliver(n) => {
                    debug_assert!(
                        self.nodes.contains_key(&n.0),
                        "routing state references dead node {n}"
                    );
                    visit(n);
                    return Some((n, hops + 1));
                }
                Hop::Forward(n) => {
                    debug_assert!(
                        self.nodes.contains_key(&n.0),
                        "routing state references dead node {n}"
                    );
                    state = &self.nodes[&n.0];
                    current = n;
                    visit(current);
                    hops += 1;
                }
            }
        }
        panic!(
            "routing from {from} to {key} exceeded the hop budget ({budget}); \
             overlay state is inconsistent"
        );
    }

    /// One routing decision at `current`, whose state is `s`; shared by
    /// the pure walk ([`route_steps`](Self::route_steps)) and the
    /// liveness-aware walk ([`route_detecting`](Self::route_detecting)).
    ///
    /// With `avoid_crashed` the decision silently skips
    /// crashed-but-undetected candidates (free detection avoidance —
    /// appropriate for protocol-internal routes such as joins); without
    /// it the decision is oblivious to liveness, so the caller observes
    /// exactly the stale choice a real node would make.
    fn hop_decision(
        &self,
        s: &NodeState,
        current: NodeId,
        key: NodeId,
        greedy_mode: &mut bool,
        avoid_crashed: bool,
    ) -> Hop {
        // `avoid` is false on every path until a crash is injected, so
        // the liveness filters below fold to no-ops in steady state.
        let avoid = avoid_crashed && !self.crashed.is_empty();
        if current == key {
            return Hop::Arrived;
        }
        // Pastry's delivery rule: when the key falls inside the
        // leaf-set range, the message is forwarded to the leaf
        // member numerically closest to the key as its FINAL hop.
        // Continuing to route from there would mix the prefix and
        // numeric-distance metrics and can bounce between two
        // nodes with inconsistent partial views (e.g. mid-join).
        if avoid {
            if s.leaf_covers(key) {
                let mut best = current;
                let mut best_d = current.distance(key);
                for n in s.leaf_iter().filter(|n| !self.is_crashed(*n)) {
                    let d = n.distance(key);
                    if d < best_d || (d == best_d && n.0 < best.0) {
                        best = n;
                        best_d = d;
                    }
                }
                return if best == current { Hop::Arrived } else { Hop::Deliver(best) };
            }
        } else if let Some(closest) = s.leaf_route(key) {
            return if closest == current { Hop::Arrived } else { Hop::Deliver(closest) };
        }
        let my_d = current.distance(key);
        if !*greedy_mode {
            let row = current.shared_prefix_digits(key, self.cfg.b);
            let col = key.digit(row, self.cfg.b) as usize;
            if let Some(n) = s.table_entry(row, col).filter(|n| !(avoid && self.is_crashed(*n))) {
                return Hop::Forward(n);
            }
            // Pastry's rare case: any known node strictly closer to the
            // key sharing at least as long a prefix. The greedy fallback
            // needs the same walk minus the prefix filter, so one fused
            // pass tracks both minima (last-wins on distance ties, the
            // same element `min_by_key` over `known_iter` would return).
            let mut rare: Option<(u128, NodeId)> = None;
            let mut any: Option<(u128, NodeId)> = None;
            for n in s.known_iter() {
                if avoid && self.is_crashed(n) {
                    continue;
                }
                let d = n.distance(key);
                if d < my_d {
                    if n.shared_prefix_digits(key, self.cfg.b) >= row
                        && rare.is_none_or(|(bd, _)| d <= bd)
                    {
                        rare = Some((d, n));
                    }
                    if any.is_none_or(|(bd, _)| d <= bd) {
                        any = Some((d, n));
                    }
                }
            }
            if let Some((_, n)) = rare {
                return Hop::Forward(n);
            }
            *greedy_mode = true;
            return match any {
                Some((_, n)) => Hop::Forward(n),
                // No known node closer than us: with consistent
                // leaf sets this means we are the owner.
                None => Hop::Arrived,
            };
        }
        let mut best: Option<(u128, NodeId)> = None;
        for n in s.known_iter() {
            if avoid && self.is_crashed(n) {
                continue;
            }
            let d = n.distance(key);
            if d < my_d && best.is_none_or(|(bd, _)| d <= bd) {
                best = Some((d, n));
            }
        }
        match best {
            Some((_, n)) => Hop::Forward(n),
            None => Hop::Arrived,
        }
    }

    /// Routes `key` from `from` the way a real node under churn would:
    /// oblivious to silent crashes until a message to a dead node times
    /// out, at which point the crash is *detected*, the dead node is
    /// reclaimed (stripped from every routing table and leaf set, leaf
    /// sets gossip-repaired) and the walk resumes from the same node with
    /// repaired state. Each message additionally passes through `lose`:
    /// returning `true` simulates message loss, costing one timeout and
    /// one retransmission.
    ///
    /// Returns `None` when `from` is not a live node (callers handle a
    /// crashed entry node themselves — the entry machine, not a route,
    /// is what is dead there).
    pub fn route_detecting(
        &mut self,
        from: NodeId,
        key: NodeId,
        mut lose: impl FnMut() -> bool,
    ) -> Option<ChurnRoute> {
        if !self.contains(from) {
            return None;
        }
        let mut current = from;
        let mut hops = 0usize;
        let mut timeouts = 0usize;
        let mut detected = Vec::new();
        let mut greedy_mode = false;
        let budget = 4 * self.cfg.digits() + self.cfg.leaf_set_size + 4;
        // Each detection restarts the decision from repaired state and
        // each loss costs one retransmission, so the structural budget is
        // scaled by the worst-case number of restarts.
        let mut fuel = budget * (2 + self.crashed.len());
        loop {
            assert!(
                fuel > 0,
                "detecting route from {from} to {key} exceeded its budget; \
                 overlay state is inconsistent"
            );
            fuel -= 1;
            let state = &self.nodes[&current.0];
            match self.hop_decision(state, current, key, &mut greedy_mode, false) {
                Hop::Arrived => {
                    return Some(ChurnRoute { destination: current, hops, timeouts, detected });
                }
                Hop::Deliver(n) | Hop::Forward(n) if self.is_crashed(n) => {
                    // The message to `n` times out; `current` detects the
                    // crash and the repair protocol runs. Re-decide from
                    // scratch: the repaired state may now deliver.
                    timeouts += 1;
                    detected.push(n);
                    self.reclaim(n);
                    greedy_mode = false;
                }
                Hop::Deliver(n) => {
                    if lose() {
                        // Lost in transit: timeout, then retransmit (the
                        // wasted message still crossed the wire once).
                        timeouts += 1;
                        hops += 1;
                        continue;
                    }
                    return Some(ChurnRoute { destination: n, hops: hops + 1, timeouts, detected });
                }
                Hop::Forward(n) => {
                    if lose() {
                        timeouts += 1;
                        hops += 1;
                        continue;
                    }
                    current = n;
                    hops += 1;
                }
            }
        }
    }

    /// Routes from `from` and asserts (in tests) nothing: convenience that
    /// returns the delivering node only.
    pub fn lookup(&self, from: NodeId, key: NodeId) -> Option<NodeId> {
        self.route(from, key).map(|r| r.destination)
    }

    /// Checks structural invariants against ground truth; returns a list
    /// of violations (empty = consistent). Used by tests and after churn.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // During a partition each island is its own ring: ground truth
        // (expected neighbors, legal table entries) is island-local.
        let all: Vec<u128> = self.ring.clone();
        let islands: Vec<Vec<u128>> = match &self.partition {
            None => vec![all],
            Some(p) => {
                let (a, b): (Vec<u128>, Vec<u128>) = all.into_iter().partition(|k| p.contains(k));
                vec![a, b]
            }
        };
        let half = self.cfg.leaf_set_size / 2;
        for ids in &islands {
            let n = ids.len();
            if n == 0 {
                continue;
            }
            for (i, &id) in ids.iter().enumerate() {
                let s = &self.nodes[&id];
                // Expected ring neighbors from ground truth.
                let expect_cw: Vec<NodeId> =
                    (1..=half.min(n - 1)).map(|k| NodeId(ids[(i + k) % n])).collect();
                let expect_ccw: Vec<NodeId> =
                    (1..=half.min(n - 1)).map(|k| NodeId(ids[(i + n - k) % n])).collect();
                if s.leaf_cw() != expect_cw.as_slice() {
                    problems.push(format!(
                        "node {id:032x}: cw leaf set {:?} != expected {:?}",
                        s.leaf_cw(),
                        expect_cw
                    ));
                }
                if s.leaf_ccw() != expect_ccw.as_slice() {
                    problems.push(format!(
                        "node {id:032x}: ccw leaf set {:?} != expected {:?}",
                        s.leaf_ccw(),
                        expect_ccw
                    ));
                }
                // Routing-table entries must be live, on this side of any
                // cut, and in the right slot.
                for row in 0..self.cfg.digits() {
                    for (col, e) in s.table_row(row).iter().enumerate() {
                        if let Some(peer) = e {
                            if !self.contains(*peer) {
                                problems.push(format!(
                                    "node {id:032x}: table[{row}][{col}] references dead {peer}"
                                ));
                            } else if !self.same_island(NodeId(id), *peer) {
                                problems.push(format!(
                                    "node {id:032x}: table[{row}][{col}] crosses the cut to {peer}"
                                ));
                            } else if s.slot_for(*peer) != Some((row, col)) {
                                problems.push(format!(
                                    "node {id:032x}: table[{row}][{col}] holds misplaced {peer}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rand_ids(n: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut v = Vec::with_capacity(n);
        while v.len() < n {
            let id: u128 = rng.random();
            if seen.insert(id) {
                v.push(NodeId(id));
            }
        }
        v
    }

    fn build(n: usize, seed: u64) -> Overlay {
        Overlay::with_nodes(PastryConfig::default(), rand_ids(n, seed))
    }

    #[test]
    fn empty_and_single() {
        let mut o = Overlay::new(PastryConfig::default());
        assert!(o.is_empty());
        assert!(o.owner_of(NodeId(42)).is_none());
        o.join(NodeId(7));
        assert_eq!(o.len(), 1);
        assert_eq!(o.owner_of(NodeId(u128::MAX)), Some(NodeId(7)));
        let r = o.route(NodeId(7), NodeId(999)).unwrap();
        assert_eq!(r.destination, NodeId(7));
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let o = Overlay::with_nodes(
            PastryConfig::default(),
            [NodeId(100), NodeId(200), NodeId(u128::MAX - 50)],
        );
        assert_eq!(o.owner_of(NodeId(120)), Some(NodeId(100)));
        assert_eq!(o.owner_of(NodeId(160)), Some(NodeId(200)));
        assert_eq!(o.owner_of(NodeId(150)), Some(NodeId(100))); // tie -> smaller
        assert_eq!(o.owner_of(NodeId(u128::MAX - 10)), Some(NodeId(u128::MAX - 50)));
        // Wraparound: 10 is closer to MAX-50 (distance 61) than to 100 (90).
        assert_eq!(o.owner_of(NodeId(10)), Some(NodeId(u128::MAX - 50)));
    }

    #[test]
    fn invariants_after_sequential_joins() {
        let o = build(64, 1);
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn routing_delivers_to_owner_from_every_node() {
        let o = build(50, 2);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let key = NodeId(rng.random());
            let owner = o.owner_of(key).unwrap();
            for from in o.node_ids().step_by(7) {
                let got = o.lookup(from, key).unwrap();
                assert_eq!(got, owner, "key {key} from {from}");
            }
        }
    }

    #[test]
    fn hop_bound_log2b_n() {
        // §4.1: routing takes ⌈log_2^b N⌉ hops in expectation; the paper
        // grants itself +1 for the final leaf-set hop ("3 < log16(1024)+1
        // < 4"). That is a claim about the *average*: at these small sizes
        // routing-table rows below the first are sparsely populated, so an
        // individual route can need one extra greedy leaf-set detour. Assert
        // the mean stays within the analytic bound and cap the worst route
        // at one detour beyond it.
        for n in [16usize, 64, 256] {
            let o = build(n, 3);
            let bound = (n as f64).log(16.0).ceil() as usize + 1;
            let mut rng = SmallRng::seed_from_u64(5);
            let froms: Vec<NodeId> = o.node_ids().collect();
            let mut max_hops = 0;
            let mut total_hops = 0usize;
            for _ in 0..300 {
                let key = NodeId(rng.random());
                let from = froms[rng.random_range(0..froms.len())];
                let r = o.route(from, key).unwrap();
                max_hops = max_hops.max(r.hops());
                total_hops += r.hops();
            }
            let mean = total_hops as f64 / 300.0;
            assert!(mean <= bound as f64, "n={n}: mean {mean:.2} > bound {bound}");
            assert!(max_hops <= bound + 1, "n={n}: max {max_hops} > bound+1 {}", bound + 1);
        }
    }

    #[test]
    fn failure_repairs_leaf_sets() {
        let mut o = build(40, 4);
        let victims: Vec<NodeId> = o.node_ids().step_by(5).collect();
        for v in victims {
            o.fail(v).unwrap();
        }
        assert_eq!(o.len(), 32);
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn routing_correct_after_churn() {
        let mut o = build(48, 6);
        let mut rng = SmallRng::seed_from_u64(7);
        // Interleave failures and joins.
        for round in 0..6 {
            let victim = o.node_ids().nth(round * 3 % o.len()).unwrap();
            o.fail(victim).unwrap();
            o.join(NodeId(rng.random()));
        }
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        for _ in 0..100 {
            let key = NodeId(rng.random());
            let owner = o.owner_of(key).unwrap();
            let from = o.node_ids().next().unwrap();
            assert_eq!(o.lookup(from, key), Some(owner));
        }
    }

    #[test]
    fn shrink_to_tiny_overlay() {
        let mut o = build(8, 8);
        let ids: Vec<NodeId> = o.node_ids().collect();
        for &id in &ids[..6] {
            o.fail(id).unwrap();
        }
        assert_eq!(o.len(), 2);
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        let key = NodeId(12345);
        let owner = o.owner_of(key).unwrap();
        for from in o.node_ids() {
            assert_eq!(o.lookup(from, key), Some(owner));
        }
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn double_join_panics() {
        let mut o = Overlay::new(PastryConfig::default());
        o.join(NodeId(1));
        o.join(NodeId(1));
    }

    #[test]
    fn failing_unknown_is_typed_error() {
        let mut o = Overlay::new(PastryConfig::default());
        assert_eq!(o.fail(NodeId(1)), Err(OverlayError::UnknownNode(NodeId(1))));
        // Failing twice is a typed error, not a panic.
        o.join(NodeId(1));
        assert_eq!(o.fail(NodeId(1)), Ok(()));
        assert_eq!(o.fail(NodeId(1)), Err(OverlayError::UnknownNode(NodeId(1))));
        assert!(o.is_empty());
    }

    #[test]
    fn failing_last_node_empties_overlay() {
        let mut o = Overlay::new(PastryConfig::default());
        o.join(NodeId(7));
        assert_eq!(o.fail(NodeId(7)), Ok(()));
        assert!(o.is_empty());
        assert!(o.owner_of(NodeId(42)).is_none());
        assert!(o.route(NodeId(7), NodeId(42)).is_none());
        assert!(o.check_invariants().is_empty());
    }

    #[test]
    fn silent_crash_leaves_stale_state_until_detected() {
        let mut o = build(32, 21);
        let victim = o.node_ids().nth(10).unwrap();
        o.crash(victim).unwrap();
        assert!(o.is_crashed(victim));
        assert!(!o.contains(victim));
        assert_eq!(o.crashed_len(), 1);
        // Nobody was told: some live node still references the victim.
        let stale = o.check_invariants();
        assert!(!stale.is_empty(), "crash must leave stale references");
        // Double crash and crash-of-unknown are typed errors.
        assert_eq!(o.crash(victim), Err(OverlayError::AlreadyCrashed(victim)));
        assert_eq!(o.crash(NodeId(0xBAD)), Err(OverlayError::UnknownNode(NodeId(0xBAD))));
        // Routing *at* the victim's key space times out, detects, repairs.
        let from = o.node_ids().next().unwrap();
        let r = o.route_detecting(from, victim, || false).unwrap();
        assert!(r.timeouts >= 1, "walking into a dead node must cost a timeout");
        assert!(r.detected.contains(&victim));
        assert_ne!(r.destination, victim);
        assert!(!o.is_crashed(victim));
        // Post-detection the overlay is fully repaired.
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(o.owner_of(victim), Some(r.destination));
    }

    #[test]
    fn detecting_route_matches_plain_route_without_faults() {
        let mut o = build(24, 33);
        let nodes: Vec<NodeId> = o.node_ids().collect();
        for (i, &from) in nodes.iter().enumerate() {
            let key = NodeId(0x5851_F42Du128.wrapping_mul(i as u128 + 1));
            let plain = o.route_hops(from, key).unwrap();
            let full = o.route(from, key).unwrap();
            assert_eq!((full.destination, full.hops()), plain);
            let det = o.route_detecting(from, key, || false).unwrap();
            assert_eq!((det.destination, det.hops), plain);
            assert_eq!(det.timeouts, 0);
            assert!(det.detected.is_empty());
        }
    }

    #[test]
    fn message_loss_costs_timeouts_but_still_delivers() {
        let mut o = build(24, 44);
        let from = o.node_ids().next().unwrap();
        let key = NodeId(0xFEED_FACE);
        let clean = o.route_detecting(from, key, || false).unwrap();
        // Lose every other message.
        let mut flip = false;
        let lossy = o
            .route_detecting(from, key, || {
                flip = !flip;
                flip
            })
            .unwrap();
        assert_eq!(lossy.destination, clean.destination);
        assert!(lossy.timeouts >= 1);
        assert!(lossy.hops > clean.hops, "retransmissions cost extra messages");
    }

    #[test]
    fn announced_fail_reclaims_a_crashed_node() {
        let mut o = build(16, 55);
        let victim = o.node_ids().nth(5).unwrap();
        o.crash(victim).unwrap();
        // An oracle announcement (e.g. the churn driver) reclaims it.
        assert_eq!(o.fail(victim), Ok(()));
        assert_eq!(o.crashed_len(), 0);
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn joins_avoid_crashed_nodes() {
        let mut o = build(20, 66);
        let victims: Vec<NodeId> = o.node_ids().step_by(7).collect();
        for v in &victims {
            o.crash(*v).unwrap();
        }
        // Joining while crashes are undetected must neither panic nor
        // seed the newcomer's state with dead references.
        let newcomer = NodeId(0x1234_5678_9ABC_DEF0);
        o.join(newcomer);
        let s = o.state(newcomer).unwrap();
        for n in s.known_nodes() {
            assert!(!o.is_crashed(n), "newcomer learned crashed node {n}");
        }
    }

    #[test]
    fn join_hops_reported() {
        let mut o = Overlay::new(PastryConfig::default());
        assert_eq!(o.join(NodeId(1)), 0);
        // Subsequent joins route through the overlay; hop counts are small
        // but path length is at least 0.
        for id in rand_ids(20, 11) {
            let _ = o.join(id);
        }
        assert_eq!(o.len(), 21);
    }

    #[test]
    fn rejoin_of_crashed_id_reclaims_the_corpse() {
        // A machine crashes silently (undetected) and the same machine
        // reboots and rejoins: the join must reclaim the stale
        // incarnation instead of panicking, and the overlay must be
        // consistent afterwards.
        let mut o = build(24, 5);
        let victim = o.node_ids().next().unwrap();
        o.crash(victim).unwrap();
        assert!(o.is_crashed(victim));
        let _ = o.join(victim);
        assert!(!o.is_crashed(victim), "the rejoin is the detection");
        assert!(o.contains(victim));
        assert_eq!(o.crashed_len(), 0);
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn thousand_node_tables_stay_sparse() {
        // Only about log16(N) rows can hold an entry, which is what makes
        // allocating rows on first insert pay (measured: mean 3.2, max 5).
        let o = build(1000, 31);
        let populated = |id| {
            let s: &NodeState = o.state(id).expect("live node");
            (0..32).filter(|&r| s.table_row(r).iter().any(Option::is_some)).count()
        };
        let rows: Vec<usize> = o.node_ids().map(populated).collect();
        assert!(rows.iter().sum::<usize>() <= 4 * rows.len(), "mean above 4 populated rows");
        assert!(
            rows.iter().all(|&n| n <= 6),
            "a node holds {:?} populated rows",
            rows.iter().max()
        );
    }

    #[test]
    fn route_from_unknown_node_is_none() {
        let o = build(4, 12);
        assert!(o.route(NodeId(0xDEAD), NodeId(1)).is_none() || o.contains(NodeId(0xDEAD)));
    }

    #[test]
    fn partition_splits_views_and_heal_merges_them() {
        let mut o = build(40, 9);
        let all: Vec<NodeId> = o.node_ids().collect();
        let island_a: Vec<NodeId> = all[..24].to_vec();
        assert!(o.start_partition(island_a.iter().copied()));
        assert!(o.is_partitioned());
        assert_eq!(o.island_a_ids(), island_a);
        assert_eq!(o.island_b_ids(), all[24..].to_vec());
        // Each island is a self-consistent ring of its own.
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // Views are island-closed: reachability stops at the cut.
        let a_set: BTreeSet<u128> = island_a.iter().map(|n| n.0).collect();
        let b_set: BTreeSet<u128> = all[24..].iter().map(|n| n.0).collect();
        assert_eq!(o.reachable_set(island_a[0]), a_set);
        assert_eq!(o.reachable_set(all[30]), b_set);
        // Routing from an island delivers to that island's owner.
        let key = NodeId(0xFEED_F00D);
        let a_owner = o.owner_in_island(key, true).unwrap();
        let b_owner = o.owner_in_island(key, false).unwrap();
        assert!(a_set.contains(&a_owner.0) && b_set.contains(&b_owner.0));
        assert_eq!(o.lookup(island_a[0], key), Some(a_owner));
        assert_eq!(o.lookup(all[30], key), Some(b_owner));
        // Heal: one view again, fully converged.
        assert!(o.heal_partition());
        assert!(!o.is_partitioned());
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        let live: BTreeSet<u128> = all.iter().map(|n| n.0).collect();
        for from in o.node_ids() {
            assert_eq!(o.reachable_set(from), live);
        }
        assert_eq!(o.owner_of(key), o.owner_in_island(key, true));
    }

    #[test]
    fn degenerate_cuts_are_rejected() {
        let mut o = build(8, 13);
        let all: Vec<NodeId> = o.node_ids().collect();
        assert!(!o.start_partition(Vec::new()), "empty A side is not a cut");
        assert!(!o.start_partition(all.clone()), "everything on one side is not a cut");
        assert!(!o.heal_partition(), "nothing to heal");
        assert!(o.start_partition(all[..4].iter().copied()));
        assert!(!o.start_partition(all[..2].iter().copied()), "one cut at a time");
        assert!(o.heal_partition());
        assert!(o.check_invariants().is_empty());
    }

    #[test]
    fn mid_partition_churn_stays_island_local() {
        let mut o = build(20, 17);
        let all: Vec<NodeId> = o.node_ids().collect();
        assert!(o.start_partition(all[..12].iter().copied()));
        // A newcomer lands on the A side and learns only A members.
        let newcomer = NodeId(0x0123_4567_89AB_CDEF);
        o.join(newcomer);
        assert!(o.in_island_a(newcomer));
        for known in o.state(newcomer).unwrap().known_nodes() {
            assert!(o.in_island_a(known), "newcomer learned B-side node {known}");
        }
        // An announced failure repairs within its island only.
        let victim = all[2];
        o.fail(victim).unwrap();
        let problems = o.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // A silent crash leaves the island's partition bookkeeping sound.
        o.crash(all[3]).unwrap();
        assert!(!o.in_island_a(all[3]), "a crashed node is no longer island bookkeeping");
        let _ = o.join(NodeId(0xFEDC_BA98_7654_3210));
        assert!(o.heal_partition());
        assert_eq!(o.crashed_len(), 1, "the silent crash stays undetected through the heal");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn random_churn_schedules_preserve_invariants(
            seed in 0u64..500,
            // Each step: true = join a random node, false = fail one.
            schedule in proptest::collection::vec(proptest::prelude::any::<bool>(), 4..24),
        ) {
            let mut o = build(12, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x417);
            for join in schedule {
                if join {
                    let mut id = NodeId(rng.random());
                    while o.contains(id) {
                        id = NodeId(rng.random());
                    }
                    o.join(id);
                } else if o.len() > 2 {
                    let victim = o.node_ids().nth(rng.random_range(0..o.len())).expect("non-empty");
                    o.fail(victim).unwrap();
                }
                let problems = o.check_invariants();
                proptest::prop_assert!(problems.is_empty(), "{:?}", problems.first());
                // Routing stays correct after every membership change.
                let key = NodeId(rng.random());
                let from = o.node_ids().next().expect("non-empty");
                proptest::prop_assert_eq!(o.lookup(from, key), o.owner_of(key));
            }
        }

        #[test]
        fn membership_views_reconverge_after_partition_churn(
            seed in 0u64..500,
            // Each step: 0 = join, 1 = fail, 2 = depart (announced removal),
            // 3 = start a partition, 4 = heal.
            schedule in proptest::collection::vec(0u8..5, 4..20),
        ) {
            let mut o = build(16, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37);
            for step in schedule {
                match step {
                    0 => {
                        let mut id = NodeId(rng.random());
                        while o.contains(id) {
                            id = NodeId(rng.random());
                        }
                        o.join(id);
                    }
                    1 | 2 => {
                        if o.len() > 3 {
                            let victim =
                                o.node_ids().nth(rng.random_range(0..o.len())).expect("non-empty");
                            o.fail(victim).unwrap();
                        }
                    }
                    3 => {
                        if o.len() >= 4 && !o.is_partitioned() {
                            let cut = rng.random_range(1..o.len());
                            let a: Vec<NodeId> = o.node_ids().take(cut).collect();
                            o.start_partition(a);
                        }
                    }
                    _ => {
                        o.heal_partition();
                    }
                }
                let problems = o.check_invariants();
                proptest::prop_assert!(problems.is_empty(), "{:?}", problems.first());
                // While cut, views stay island-closed; reachability never
                // crosses the partition.
                if o.is_partitioned() {
                    let a: BTreeSet<u128> = o.island_a_ids().iter().map(|n| n.0).collect();
                    if let Some(&first) = a.iter().next() {
                        proptest::prop_assert_eq!(o.reachable_set(NodeId(first)), a);
                    }
                }
            }
            // After the final heal every node sees the same, complete view.
            o.heal_partition();
            let live: BTreeSet<u128> = o.node_ids().map(|n| n.0).collect();
            for from in o.node_ids() {
                proptest::prop_assert_eq!(o.reachable_set(from), live.clone());
            }
        }

        #[test]
        fn random_overlays_route_correctly(seed in 0u64..500, n in 2usize..40) {
            let o = build(n, seed);
            let problems = o.check_invariants();
            proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
            // The allocation-free walk the join and the routes use sees
            // what the deduplicated list sees, in the same order.
            for s in o.node_ids().map(|id| o.state(id).expect("live node")) {
                let mut firsts: Vec<NodeId> = Vec::new();
                for n in s.known_iter() {
                    if !firsts.contains(&n) {
                        firsts.push(n);
                    }
                }
                proptest::prop_assert_eq!(firsts, s.known_nodes());
                let by_row: usize = (0..32).map(|r| s.table_row(r).iter().flatten().count()).sum();
                proptest::prop_assert_eq!(s.table_population(), by_row);
            }
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
            let froms: Vec<NodeId> = o.node_ids().collect();
            for _ in 0..20 {
                let key = NodeId(rng.random());
                let owner = o.owner_of(key).unwrap();
                let from = froms[rng.random_range(0..froms.len())];
                proptest::prop_assert_eq!(o.lookup(from, key), Some(owner));
            }
        }
    }
}
