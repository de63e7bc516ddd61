//! The simulated overlay: membership, join/failure protocols and routing.

use crate::id::NodeId;
use crate::state::{nearest, NodeState, PastryConfig, RoutingState, Slot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use webcache_primitives::{map_heap_bytes, ShaIdMap};

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
    Deliver(Slot),
    /// Intermediate prefix/greedy forwarding hop.
    Forward(Slot),
}

/// A deterministic, in-process Pastry overlay.
///
/// The overlay owns every node's state — a [`NodeState`] unless a test
/// runs it over another [`RoutingState`] — and simulates the message
/// exchanges of the join/failure/routing protocols directly. Nothing ever
/// consults global knowledge during *routing* — messages only follow
/// per-node state, so hop counts and delivery correctness are real
/// measurements; global knowledge is used only where the real protocol
/// would use the physical network (choosing a join seed, enumerating the
/// nodes that must be notified of a failure they would detect by timeout).
///
/// The states sit in one slab indexed by [`Slot`], and a state names its
/// peers by slot, so a routing hop indexes the slab instead of probing a
/// map. A joining node takes the most recently freed slot, or a new one.
/// A crashed node keeps its slot, and its id in the `ids` column, until
/// reclaim has purged every reference to it; only then is the slot free.
/// So a slot names one node for as long as any state names it, and every
/// decision reads exactly what an id-keyed layout would. At 1,000 nodes
/// (b = 4, l = 16) the overlay holds about 0.4 KB per node, where the
/// id-keyed layout held 1,028 B (see [`heap_bytes`](Self::heap_bytes)).
#[derive(Clone, Debug)]
pub struct Overlay<S = NodeState> {
    cfg: PastryConfig,
    /// Node states by slot: live nodes' states, and empty states in the
    /// slots of crashed and free nodes.
    slab: Vec<S>,
    /// Node ids by slot: what a peer's slot resolves to.
    ids: Vec<NodeId>,
    /// Live node id → slot.
    live: ShaIdMap<u128, Slot>,
    /// Slots reclaim has freed, reused last-freed first.
    free: Vec<Slot>,
    /// Live node ids in ascending order — the id map's sorted mirror.
    /// Everything that needs id order or a range scan (ownership, join
    /// seeds, deterministic repair sweeps) reads the ring.
    ring: Vec<u128>,
    /// Nodes that crashed *silently*, with the slots they keep: other
    /// nodes' leaf sets and routing tables still reference them until a
    /// route times out on them and triggers lazy repair
    /// ([`route_detecting`](Self::route_detecting)).
    crashed: BTreeMap<u128, Slot>,
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
        Self::empty(cfg)
    }

    /// Builds an overlay by joining `ids` one at a time.
    pub fn with_nodes(cfg: PastryConfig, ids: impl IntoIterator<Item = NodeId>) -> Self {
        Self::joined(cfg, ids)
    }
}

impl<S: RoutingState> Overlay<S> {
    /// [`Overlay::new`] over any state layout.
    pub(crate) fn empty(cfg: PastryConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid PastryConfig: {e}");
        }
        Overlay {
            cfg,
            slab: Vec::new(),
            ids: Vec::new(),
            live: ShaIdMap::default(),
            free: Vec::new(),
            ring: Vec::new(),
            crashed: BTreeMap::new(),
            partition: None,
        }
    }

    /// [`Overlay::with_nodes`] over any state layout.
    pub(crate) fn joined(cfg: PastryConfig, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut o = Self::empty(cfg);
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
        self.live.len()
    }

    /// True if no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// True if `id` is a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.live.contains_key(&id.0)
    }

    /// True if `id` crashed silently and has not yet been detected.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed.contains_key(&id.0)
    }

    /// Crashed-but-undetected node ids, in id order.
    pub fn crashed_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.keys().map(|&k| NodeId(k))
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

    /// The id a slot resolves to.
    pub(crate) fn id_of(&self, slot: Slot) -> NodeId {
        self.ids[slot as usize]
    }

    /// The id column: node ids by slot.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The slot a live node sits in.
    pub(crate) fn slot_of(&self, id: NodeId) -> Option<Slot> {
        self.live.get(&id.0).copied()
    }

    /// Takes a slot for `id` (the most recently freed one, or a new one)
    /// and puts an empty state for it there.
    fn alloc(&mut self, id: NodeId) -> Slot {
        match self.free.pop() {
            Some(slot) => {
                self.ids[slot as usize] = id;
                self.slab[slot as usize] = S::new(id, slot, self.cfg);
                slot
            }
            None => {
                let slot = Slot::try_from(self.slab.len()).expect("fewer than 2^32 slots");
                self.ids.push(id);
                self.slab.push(S::new(id, slot, self.cfg));
                slot
            }
        }
    }

    /// Borrows a node's state. It names its peers by slot;
    /// [`leaf_iter`](Self::leaf_iter) and
    /// [`known_nodes`](Self::known_nodes) resolve them to ids.
    pub fn state(&self, id: NodeId) -> Option<&S> {
        self.slot_of(id).map(|s| &self.slab[s as usize])
    }

    /// A live node's distinct leaf-set members, clockwise side first
    /// (each side nearest first).
    pub fn leaf_iter(&self, id: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        Some(self.state(id)?.leaf_iter().map(|n| self.id_of(n)))
    }

    /// Every peer a live node knows (leaf set, then routing table
    /// row-major, each once); empty for a node that is not live.
    pub fn known_nodes(&self, id: NodeId) -> Vec<NodeId> {
        self.state(id)
            .map_or_else(Vec::new, |s| s.known_nodes().into_iter().map(|n| self.id_of(n)).collect())
    }

    /// Bytes the overlay holds on the heap, counted from capacities: the
    /// slab and each state's blocks, the id column, the id → slot map,
    /// the free list and the ring; the crashed and partition sets count
    /// their entries only. At 1,000 nodes (b = 4, l = 16) this is about
    /// 0.4 KB per node (pinned by the root package's
    /// `tests/memory_budget.rs`).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<S>()
            + self.slab.iter().map(S::heap_bytes).sum::<usize>()
            + self.ids.capacity() * size_of::<NodeId>()
            + map_heap_bytes(&self.live)
            + self.free.capacity() * size_of::<Slot>()
            + self.ring.capacity() * size_of::<u128>()
            + self.crashed.len() * size_of::<(u128, Slot)>()
            + self.partition.as_ref().map_or(0, |p| p.len() * size_of::<u128>())
    }

    /// Ground truth: the live node numerically closest to `key` (ties to
    /// the smaller id). This is where the DHT *should* place `key`.
    pub fn owner_of(&self, key: NodeId) -> Option<NodeId> {
        let (first, last) = (*self.ring.first()?, *self.ring.last()?);
        // Only the nearest id below and above (with wraparound) can win.
        let i = self.ring.partition_point(|&k| k < key.0);
        let above = self.ring.get(i).copied().unwrap_or(first);
        let j = self.ring.partition_point(|&k| k <= key.0);
        let below = if j == 0 { last } else { self.ring[j - 1] };
        key.nearest([NodeId(above), NodeId(below)])
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

    /// Live members on each side of the cut, `(A, B)`; every live node
    /// counts as A-side when no partition is active.
    pub fn island_sizes(&self) -> (usize, usize) {
        let a = self.node_ids().filter(|n| self.in_island_a(*n)).count();
        (a, self.ring.len() - a)
    }

    /// Ground truth restricted to one side of the cut: the live island
    /// member numerically closest to `key` (ties to the smaller id).
    /// `None` when that island has no live members. A linear scan — this
    /// only runs on partition fault paths, never in steady state.
    pub fn owner_in_island(&self, key: NodeId, island_a: bool) -> Option<NodeId> {
        key.nearest(self.node_ids().filter(|n| self.in_island_a(*n) == island_a))
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
            island_a.into_iter().map(|n| n.0).filter(|k| self.live.contains_key(k)).collect();
        if a.is_empty() || a.len() == self.live.len() {
            return false;
        }
        // Crashed and free slots hold empty states, which the sweep
        // leaves as they are.
        let ids = &self.ids;
        for s in &mut self.slab {
            let me_in_a = a.contains(&s.id().0);
            s.purge_where(ids, |peer| a.contains(&ids[peer as usize].0) != me_in_a);
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

    /// The live nodes' slots in ring (id) order.
    fn ring_slots(&self) -> Vec<Slot> {
        self.ring.iter().map(|k| self.live[k]).collect()
    }

    /// Re-derives every live node's view as the repair-protocol fixpoint
    /// over the peers it can currently reach: each node considers every
    /// same-island live peer for its leaf set and routing table. Runs
    /// after a cut (per island) and after a heal (whole overlay).
    fn rebuild_views(&mut self) {
        let slots = self.ring_slots();
        for &y in &slots {
            let me = self.id_of(y);
            for &k in &slots {
                if k != y && self.same_island(me, self.id_of(k)) {
                    let st = &mut self.slab[y as usize];
                    st.consider_for_leaf(k, &self.ids);
                    st.consider_for_table(k, &self.ids);
                }
            }
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
        let Some(start) = self.slot_of(from) else {
            return seen;
        };
        seen.insert(from.0);
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            for peer in self.slab[s as usize].known_nodes() {
                let id = self.id_of(peer);
                if self.contains(id) && seen.insert(id.0) {
                    stack.push(peer);
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
        if let Some(&corpse) = self.crashed.get(&new_id.0) {
            self.reclaim(new_id, corpse);
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
        let me = self.alloc(new_id);
        let Some(seed) = seed else {
            self.live.insert(new_id.0, me);
            self.ring_insert(new_id.0);
            return 0;
        };
        let mut path: Vec<Slot> = Vec::new();
        let (z, hops) =
            self.route_steps(seed, new_id, |n| path.push(n)).expect("routing in a live overlay");
        let mut x = S::new(new_id, me, self.cfg);
        let ids = &self.ids;
        // Copy state from the path: node i contributes the row matching
        // its shared prefix with the new node (prefixes grow along the
        // path), and every path node is itself a candidate.
        for &p in &path {
            let ps = &self.slab[p as usize];
            let row = new_id.shared_prefix_digits(ps.id(), self.cfg.b).min(self.cfg.digits() - 1);
            for (_, entry) in ps.table_row(row) {
                if entry != me && !self.is_crashed(ids[entry as usize]) {
                    x.consider_for_table(entry, ids);
                }
            }
            x.consider_for_table(p, ids);
            x.consider_for_leaf(p, ids);
        }
        // The destination is the numerically closest node: copy its leaf
        // set, and exchange routing state with those leaf members (the
        // join-time state exchange of the protocol) to densify tables.
        for m in self.slab[z as usize].leaf_iter() {
            if m != me && !self.is_crashed(ids[m as usize]) {
                x.consider_for_leaf(m, ids);
                x.consider_for_table(m, ids);
            }
        }
        // Every member came from the path or from the destination's live
        // leaf members, so each is live.
        for m in x.leaf_members() {
            debug_assert!(self.live.get(&ids[m as usize].0) == Some(&m), "leaf member is live");
            // Repeats are harmless: `consider_for_table` is first-wins
            // and first occurrences come in `known_nodes` order.
            for peer in self.slab[m as usize].known_iter() {
                if peer != me && !self.is_crashed(ids[peer as usize]) {
                    x.consider_for_table(peer, ids);
                }
            }
        }
        // Announce: every node the new node learned about gets to consider
        // it for its own state (this reaches all of X's true ring
        // neighbors, because they are all in Z's leaf set).
        let known = x.known_nodes();
        self.slab[me as usize] = x;
        self.live.insert(new_id.0, me);
        self.ring_insert(new_id.0);
        for k in known {
            debug_assert!(self.live.get(&self.id_of(k).0) == Some(&k), "announce to a live node");
            let ks = &mut self.slab[k as usize];
            ks.consider_for_leaf(me, &self.ids);
            ks.consider_for_table(me, &self.ids);
        }
        hops
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
        let slot = if let Some(slot) = self.live.remove(&id.0) {
            self.ring_remove(id.0);
            self.slab[slot as usize] = S::new(id, slot, self.cfg);
            slot
        } else if let Some(&slot) = self.crashed.get(&id.0) {
            slot
        } else {
            return Err(OverlayError::UnknownNode(id));
        };
        self.reclaim(id, slot);
        Ok(())
    }

    /// Crashes a node *silently*: the node stops answering, but nobody is
    /// told — every other node's leaf sets and routing tables keep the
    /// stale reference until a message to the dead node times out
    /// ([`route_detecting`](Self::route_detecting)), which triggers the
    /// same lazy repair the real protocol runs on failure detection.
    pub fn crash(&mut self, id: NodeId) -> Result<(), OverlayError> {
        if let Some(slot) = self.live.remove(&id.0) {
            self.ring_remove(id.0);
            if let Some(p) = &mut self.partition {
                p.remove(&id.0);
            }
            // The machine's state is gone; its slot stays, so the stale
            // references still name it.
            self.slab[slot as usize] = S::new(id, slot, self.cfg);
            self.crashed.insert(id.0, slot);
            Ok(())
        } else if self.crashed.contains_key(&id.0) {
            Err(OverlayError::AlreadyCrashed(id))
        } else {
            Err(OverlayError::UnknownNode(id))
        }
    }

    /// Detection aftermath for one removed or crashed node at `slot`:
    /// forget it everywhere, repair leaf sets, then free the slot, which
    /// nothing names any more. [`fail`](Self::fail) runs it for an
    /// announced failure too, once the node is out of the ring.
    fn reclaim(&mut self, id: NodeId, slot: Slot) {
        self.crashed.remove(&id.0);
        if let Some(p) = &mut self.partition {
            p.remove(&id.0);
        }
        let ids = &self.ids;
        for s in &mut self.slab {
            s.purge(slot, ids);
        }
        self.repair_leaf_sets();
        self.free.push(slot);
    }

    /// Gossip leaf-set repair: each node offers its leaf set to its leaf
    /// members, rounds repeating until nothing changes. This is the steady
    /// state the real lazy repair protocol converges to.
    fn repair_leaf_sets(&mut self) {
        let slots = self.ring_slots();
        let mut candidates: Vec<Slot> = Vec::new();
        loop {
            let mut changed = false;
            for &y in &slots {
                // Collect the candidates first (a gossip "pull" from the
                // node's current leaf members), then apply. A crashed
                // member's slot holds an empty state: it offers nothing.
                candidates.clear();
                for m in self.slab[y as usize].leaf_iter() {
                    candidates.extend(self.slab[m as usize].leaf_iter());
                }
                let ys = &mut self.slab[y as usize];
                for &c in &candidates {
                    if c != y {
                        changed |= ys.consider_for_leaf(c, &self.ids);
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
        let (destination, _hops) = self.route_steps(from, key, |n| path.push(self.id_of(n)))?;
        Some(RouteOutcome { path, destination: self.id_of(destination) })
    }

    /// Like [`route`](Self::route), but returns only the delivering node
    /// and the hop count, without materializing the path — the hot-path
    /// variant for callers that charge hops to a ledger and never inspect
    /// intermediate nodes.
    pub fn route_hops(&self, from: NodeId, key: NodeId) -> Option<(NodeId, usize)> {
        self.route_steps(from, key, |_| {}).map(|(n, hops)| (self.id_of(n), hops))
    }

    /// The routing walk shared by [`route`](Self::route),
    /// [`route_hops`](Self::route_hops) and [`join`](Self::join): `visit`
    /// sees the slot of every node on the path (starting node first,
    /// destination last); the return value is `(destination, hops)`
    /// where `hops` counts path transitions.
    fn route_steps(
        &self,
        from: NodeId,
        key: NodeId,
        mut visit: impl FnMut(Slot),
    ) -> Option<(Slot, usize)> {
        let mut state = &self.slab[self.slot_of(from)? as usize];
        let mut hops = 0usize;
        visit(state.slot());
        // Once prefix routing dead-ends (empty cell, no prefix-preserving
        // closer node) the route switches permanently to greedy
        // closest-known-node forwarding, which strictly decreases
        // `(distance, id)` each hop — with correct leaf sets a nearer
        // known node always exists until the owner is reached, so greedy
        // mode both terminates and delivers correctly.
        let mut greedy_mode = false;
        // Termination is structural (prefix growth, then strict
        // `(distance, id)` decrease); the budget is a tripwire for
        // protocol bugs.
        let budget = 4 * self.cfg.digits() + self.cfg.leaf_set_size + 4;
        for _ in 0..budget {
            // Stale references to silently crashed nodes are routed
            // *around* here (the join protocol and announced-churn paths
            // must stay correct mid-staleness); only `route_detecting`
            // deliberately walks into them to model timeout detection.
            match self.hop_decision(state, key, &mut greedy_mode, true) {
                Hop::Arrived => return Some((state.slot(), hops)),
                Hop::Deliver(n) => {
                    debug_assert!(
                        self.slot_of(self.id_of(n)) == Some(n),
                        "routing state references dead node {}",
                        self.id_of(n)
                    );
                    visit(n);
                    return Some((n, hops + 1));
                }
                Hop::Forward(n) => {
                    debug_assert!(
                        self.slot_of(self.id_of(n)) == Some(n),
                        "routing state references dead node {}",
                        self.id_of(n)
                    );
                    state = &self.slab[n as usize];
                    visit(n);
                    hops += 1;
                }
            }
        }
        panic!(
            "routing from {from} to {key} exceeded the hop budget ({budget}); \
             overlay state is inconsistent"
        );
    }

    /// One routing decision at the node whose state is `s`; shared by
    /// the pure walk ([`route_steps`](Self::route_steps)) and the
    /// liveness-aware walk ([`route_detecting`](Self::route_detecting)).
    ///
    /// With `avoid_crashed` the decision silently skips
    /// crashed-but-undetected candidates (free detection avoidance —
    /// appropriate for protocol-internal routes such as joins); without
    /// it the decision is oblivious to liveness, so the caller observes
    /// exactly the stale choice a real node would make.
    fn hop_decision(&self, s: &S, key: NodeId, greedy_mode: &mut bool, avoid_crashed: bool) -> Hop {
        let (current, here) = (s.slot(), s.id());
        // `avoid` is false on every path until a crash is injected, so
        // the liveness filters below fold to no-ops in steady state.
        let avoid = avoid_crashed && !self.crashed.is_empty();
        let live = |n: &Slot| !(avoid && self.is_crashed(self.id_of(*n)));
        if here == key {
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
                let leaf = std::iter::once(current).chain(s.leaf_iter().filter(live));
                let best = nearest(key, &self.ids, leaf).expect("current is a candidate");
                return if best == current { Hop::Arrived } else { Hop::Deliver(best) };
            }
        } else if let Some(closest) = s.leaf_route(key, &self.ids) {
            return if closest == current { Hop::Arrived } else { Hop::Deliver(closest) };
        }
        if !*greedy_mode {
            let row = here.shared_prefix_digits(key, self.cfg.b);
            let col = key.digit(row, self.cfg.b) as usize;
            if let Some(n) = s.table_entry(row, col).filter(live) {
                return Hop::Forward(n);
            }
            // Pastry's rare case: the nearest known node strictly closer
            // to the key that shares at least as long a prefix.
            let my_d = here.distance(key);
            let rare = s.known_iter().filter(live).filter(|&n| {
                let id = self.id_of(n);
                id.distance(key) < my_d && id.shared_prefix_digits(key, self.cfg.b) >= row
            });
            if let Some(n) = nearest(key, &self.ids, rare) {
                return Hop::Forward(n);
            }
            *greedy_mode = true;
        }
        // Greedy: on to the known node nearest the key by the placement
        // rule, so a node exactly as close with a smaller id wins the
        // tie. When no known node is nearer than this one, with
        // consistent leaf sets this node is the owner.
        let known = std::iter::once(current).chain(s.known_iter().filter(live));
        match nearest(key, &self.ids, known) {
            Some(n) if n != current => Hop::Forward(n),
            _ => Hop::Arrived,
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
        let mut current = self.slot_of(from)?;
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
            let state = &self.slab[current as usize];
            match self.hop_decision(state, key, &mut greedy_mode, false) {
                Hop::Arrived => {
                    let destination = self.id_of(current);
                    return Some(ChurnRoute { destination, hops, timeouts, detected });
                }
                Hop::Deliver(n) | Hop::Forward(n) if self.is_crashed(self.id_of(n)) => {
                    // The message to `n` times out; `current` detects the
                    // crash and the repair protocol runs. Re-decide from
                    // scratch: the repaired state may now deliver.
                    let dead = self.id_of(n);
                    timeouts += 1;
                    detected.push(dead);
                    self.reclaim(dead, n);
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
                    let destination = self.id_of(n);
                    return Some(ChurnRoute { destination, hops: hops + 1, timeouts, detected });
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
        let resolve = |v: &mut dyn Iterator<Item = Slot>| -> Vec<NodeId> {
            v.map(|n| self.id_of(n)).collect()
        };
        for ids in &islands {
            let n = ids.len();
            if n == 0 {
                continue;
            }
            for (i, &id) in ids.iter().enumerate() {
                let s = &self.slab[self.live[&id] as usize];
                // Expected ring neighbors from ground truth.
                let expect_cw: Vec<NodeId> =
                    (1..=half.min(n - 1)).map(|k| NodeId(ids[(i + k) % n])).collect();
                let expect_ccw: Vec<NodeId> =
                    (1..=half.min(n - 1)).map(|k| NodeId(ids[(i + n - k) % n])).collect();
                let cw = resolve(&mut s.leaf_cw().iter().copied());
                if cw != expect_cw {
                    problems.push(format!(
                        "node {id:032x}: cw leaf set {cw:?} != expected {expect_cw:?}"
                    ));
                }
                let ccw = resolve(&mut s.leaf_ccw());
                if ccw != expect_ccw {
                    problems.push(format!(
                        "node {id:032x}: ccw leaf set {ccw:?} != expected {expect_ccw:?}"
                    ));
                }
                // Routing-table entries must be live, on this side of any
                // cut, and in the right cell.
                for row in 0..self.cfg.digits() {
                    for (col, entry) in s.table_row(row) {
                        let peer = self.id_of(entry);
                        if !self.contains(peer) {
                            problems.push(format!(
                                "node {id:032x}: table[{row}][{col}] references dead {peer}"
                            ));
                        } else if !self.same_island(NodeId(id), peer) {
                            problems.push(format!(
                                "node {id:032x}: table[{row}][{col}] crosses the cut to {peer}"
                            ));
                        } else if s.cell_for(peer) != Some((row, col)) {
                            problems.push(format!(
                                "node {id:032x}: table[{row}][{col}] holds misplaced {peer}"
                            ));
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

    /// The placement rule written out over every live id: the oracle for
    /// `NodeId::nearest` wherever ownership is decided.
    fn owner_scan(o: &Overlay, key: NodeId) -> Option<NodeId> {
        let mut best: Option<(u128, NodeId)> = None;
        for n in o.node_ids() {
            let d = n.distance(key);
            if best.is_none_or(|(bd, b)| d < bd || (d == bd && n.0 < b.0)) {
                best = Some((d, n));
            }
        }
        best.map(|(_, n)| n)
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
                let got = o.route(from, key).map(|r| r.destination).unwrap();
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
            assert_eq!(o.route(from, key).map(|r| r.destination), Some(owner));
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
            assert_eq!(o.route(from, key).map(|r| r.destination), Some(owner));
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
    fn crash_avoiding_delivery_breaks_ties_toward_the_smaller_id() {
        // A key exactly halfway between two planted nodes, and a corpse
        // on the far side of the ring: every route runs the
        // crash-avoiding decision, and the tie goes to the smaller id.
        let key = 0x8000_0000_0000_0000_0000_0000_0000_0000u128;
        let (low, high) = (NodeId(key - 1_000), NodeId(key + 1_000));
        let mut ids = rand_ids(40, 77);
        ids.extend([low, high]);
        let mut o = Overlay::with_nodes(PastryConfig::default(), ids);
        let far = o.node_ids().max_by_key(|n| n.distance(NodeId(key))).unwrap();
        o.crash(far).unwrap();
        for from in o.node_ids() {
            assert_eq!(o.route(from, NodeId(key)).unwrap().destination, low, "from {from}");
        }
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
        for n in o.known_nodes(newcomer) {
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
            (0..32).filter(|&r| s.table_row(r).next().is_some()).count()
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
    fn early_joiners_keep_fillable_row_zero_slots_empty() {
        // ROADMAP item 1(c), "routing tables that never fill": a join
        // copies rows from its join route and announces itself only to
        // the nodes it learned of, and no row maintenance runs after it,
        // so early joiners keep row-0 slots empty that a live node could
        // fill. Among the first 75 of these 100 joiners, 50 keep 82 such
        // slots; the count stays 82 as the overlay grows to 1,000. This
        // pins today's number: Pastry's row maintenance would lower it
        // and move hops.
        let ids: Vec<NodeId> = (0..100).map(|i| NodeId::from_url(&format!("node-{i}"))).collect();
        let o = Overlay::with_nodes(PastryConfig::default(), ids.iter().copied());
        let empty = |me: NodeId| {
            let s = o.state(me).expect("live node");
            (0..16usize)
                .filter(|&col| col != me.digit(0, 4) as usize)
                .filter(|&col| ids.iter().any(|n| n.digit(0, 4) as usize == col))
                .filter(|&col| s.table_entry(0, col).is_none())
                .count()
        };
        let per_node: Vec<usize> = ids.iter().map(|&me| empty(me)).collect();
        let early = &per_node[..75];
        assert_eq!(early.iter().sum::<usize>(), 82);
        assert_eq!(early.iter().filter(|&&e| e > 0).count(), 50);
        assert_eq!(per_node.iter().sum::<usize>(), 82, "later joiners fill row 0");
    }

    /// Every slot some live node's leaf set or routing table names.
    fn named_slots(o: &Overlay) -> BTreeSet<Slot> {
        o.node_ids().flat_map(|n| o.state(n).expect("live node").known_iter()).collect()
    }

    #[test]
    fn reclaimed_slots_are_reused_only_once_nothing_names_them() {
        let mut o = build(64, 71);
        let all: Vec<NodeId> = o.node_ids().collect();
        let (victim, departed) = (all[10], all[40]);
        let corpse = o.slot_of(victim).expect("live node");
        o.crash(victim).unwrap();
        assert!(named_slots(&o).contains(&corpse), "the crash leaves stale references");
        // While any state names the corpse's slot, joins take new slots.
        let newcomer = NodeId(0x0F0F_0F0F);
        o.join(newcomer);
        assert_eq!(o.slot_of(newcomer), Some(64), "a fresh slot, not the corpse's");
        assert_eq!(o.id_of(corpse), victim, "the stale references still resolve to the corpse");
        // Detection purges every reference; only then is the slot free.
        let r = o.route_detecting(all[0], victim, || false).unwrap();
        assert_eq!(r.detected, vec![victim]);
        assert!(!named_slots(&o).contains(&corpse));
        assert_eq!(o.free, vec![corpse]);
        // An announced departure frees its slot once purged too, and
        // joins reuse the most recently freed slot first.
        let gone = o.slot_of(departed).expect("live node");
        o.fail(departed).unwrap();
        assert!(!named_slots(&o).contains(&gone));
        let (first, second) = (NodeId(0xA1), NodeId(0xA2));
        o.join(first);
        o.join(second);
        assert_eq!((o.slot_of(first), o.slot_of(second)), (Some(gone), Some(corpse)));
        assert_eq!(o.slab.len(), 65, "no slot was added for the two joins");
        assert!(o.check_invariants().is_empty());
        // A rejoin of a crashed id reclaims the corpse first, so the
        // machine comes back in its own, now unnamed, slot.
        let again = o.slot_of(all[20]).expect("live node");
        o.crash(all[20]).unwrap();
        o.join(all[20]);
        assert_eq!(o.slot_of(all[20]), Some(again));
        assert!(o.check_invariants().is_empty());
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
        assert_eq!(o.island_sizes(), (24, 16));
        assert!(all.iter().all(|n| o.in_island_a(*n) == island_a.contains(n)));
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
        assert_eq!(o.route(island_a[0], key).map(|r| r.destination), Some(a_owner));
        assert_eq!(o.route(all[30], key).map(|r| r.destination), Some(b_owner));
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
        for known in o.known_nodes(newcomer) {
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
                proptest::prop_assert_eq!(o.route(from, key).map(|r| r.destination), o.owner_of(key));
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
                    let a: BTreeSet<u128> =
                        o.node_ids().filter(|n| o.in_island_a(*n)).map(|n| n.0).collect();
                    proptest::prop_assert_eq!(o.island_sizes(), (a.len(), o.len() - a.len()));
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
                let mut firsts: Vec<Slot> = Vec::new();
                for n in s.known_iter() {
                    if !firsts.contains(&n) {
                        firsts.push(n);
                    }
                }
                proptest::prop_assert_eq!(firsts, s.known_nodes());
                let by_row: usize = (0..32).map(|r| s.table_row(r).count()).sum();
                proptest::prop_assert_eq!(s.table_population(), by_row);
            }
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
            let froms: Vec<NodeId> = o.node_ids().collect();
            for _ in 0..20 {
                let key = NodeId(rng.random());
                let owner = o.owner_of(key).unwrap();
                let from = froms[rng.random_range(0..froms.len())];
                proptest::prop_assert_eq!(o.route(from, key).map(|r| r.destination), Some(owner));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// Keys planted exactly halfway between two nodes (some pairs
        /// straddling the wrap point) are owned by the smaller id in all
        /// three places ownership is decided: the ring search, the island
        /// scan and the routing walk (leaf-set delivery, or the greedy
        /// fallback where the leaf set does not cover the key).
        #[test]
        fn ownership_ties_go_to_the_smaller_id(
            seed in 0u64..500,
            n in 0usize..24,
            pairs in proptest::collection::vec(
                (proptest::prelude::any::<u128>(), 1u128..1 << 20, proptest::prelude::any::<bool>()),
                1..6,
            ),
        ) {
            let mut ids = rand_ids(n, seed);
            let mut keys = Vec::new();
            for &(k, d, wrap) in &pairs {
                // Half of the keys sit within `d` of zero, so the pair
                // straddles the wrap point.
                let k = if wrap { k % d } else { k };
                keys.push(NodeId(k));
                for id in [k.wrapping_sub(d), k.wrapping_add(d)] {
                    if !ids.contains(&NodeId(id)) {
                        ids.push(NodeId(id));
                    }
                }
            }
            let o = Overlay::with_nodes(PastryConfig::default(), ids);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7135);
            keys.extend((0..8).map(|_| NodeId(rng.random())));
            for key in keys {
                let expect = owner_scan(&o, key);
                proptest::prop_assert!(expect.is_some());
                proptest::prop_assert_eq!(o.owner_of(key), expect, "owner_of {}", key);
                proptest::prop_assert_eq!(o.owner_in_island(key, true), expect, "island {}", key);
                for from in o.node_ids() {
                    let got = o.route(from, key).map(|r| r.destination);
                    proptest::prop_assert_eq!(got, expect, "route {} from {}", key, from);
                }
            }
        }
    }
}
