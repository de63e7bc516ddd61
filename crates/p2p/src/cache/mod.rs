//! The P2P client cache: Pastry-federated client browser caches (§4).
//!
//! The cooperative halves of all client browser caches in one client
//! cluster form a single logical cache:
//!
//! * each client cache is an overlay node ([`ClientCacheNode`]) running the
//!   local greedy-dual algorithm over its own store (§3);
//! * objects evicted by the proxy are *destaged* into the P2P cache: the
//!   objectId (SHA-1 of the URL, §4.1) is routed to the node with the
//!   numerically closest cacheId, with **object diversion** into the leaf
//!   set when the root node is full but a neighbor has free space (§4.3 /
//!   Fig. 1);
//! * the proxy keeps a [`crate::directory::LookupDirectory`]
//!   synchronized through store receipts (§4.2);
//! * destaging rides HTTP responses (**piggybacking**, §4.4) or dedicated
//!   connections, and cooperating proxies reach the cache through the
//!   **push** protocol (§4.5) because firewalls block inbound connections.
//!
//! # Module map
//!
//! One `impl P2PClientCache` per layer; this file holds the state they
//! share (configuration, the node struct, the cache struct and its
//! accessors, fault-state installation and the transport tap).
//!
//! * `serve` — the request path, Fig. 1 written once: destage, fetch and
//!   push, each one body generic over `const ARMED: bool`;
//! * `replicas` — placement primitives (diversion pointers, replica
//!   sets, failure domains), limbo, promotion and the loss ledger;
//! * `membership` — join, silent crash and its lazy detection, graceful
//!   departure;
//! * `partition` — split-brain islands and the heal-time anti-entropy
//!   sweep;
//! * `adversary` — misbehaving participants and the audit defense;
//! * `repair` — the paced background repair scheduler;
//! * `invariants` — `check_invariants` (one function per layer above,
//!   concatenated) and the canonical contents snapshot.
//!
//! # The `ARMED` rule
//!
//! Every request dispatches once on `fault_mode()`. The `ARMED = false`
//! instantiation is the paper's algorithm and nothing else: a plain
//! overlay walk with no liveness, transport, adversary or limbo check —
//! each of those sits behind `if ARMED` and is compiled out, so an
//! extension that is not installed is inert by construction. The
//! `ARMED = true` instantiation is the same source with those checks on.
//! Both skip the search for free space once the cluster is full
//! (`space_anywhere`, read off the resident count, nothing cached).
//! With everything installed but nothing failing the two agree to the
//! bit, with one exception by design: at k > 1 a stale lookup (a Bloom
//! false positive) makes the armed path probe the root's leaf set for an
//! orphaned replica (`replica_rescue`), which costs overlay messages the
//! unarmed path never sends.

mod adversary;
mod invariants;
mod membership;
mod partition;
mod repair;
mod replicas;
mod serve;

pub use adversary::Behavior;
pub use repair::RepairOutcome;

use crate::directory::{DirectoryKind, LookupDirectory};
use crate::events::{P2pEvent, P2pSink};
use crate::faults::NetFaults;
use crate::ledger::MessageLedger;
use crate::transport::{MessageClass, OverloadDefense, TransportFaults, UnreliableTransport};
use adversary::AdversaryState;
use partition::SplitState;
use repair::RepairState;
use replicas::DomainState;
use std::collections::BTreeSet;
use std::mem::size_of;
use webcache_pastry::{NodeId, Overlay, PastryConfig};
use webcache_policy::{BoundedCache, GreedyDualCache, LinearScan};
use webcache_primitives::{map_heap_bytes, FxBuildHasher, FxHashMap, ShaIdBuildHasher, ShaIdMap};

/// Configuration for a [`P2PClientCache`].
#[derive(Clone, Debug)]
pub struct P2PClientCacheConfig {
    /// Overlay parameters (b, leaf-set size l).
    pub pastry: PastryConfig,
    /// Client caches in the cluster (paper default: 100; Figure 5(c)
    /// sweeps up to 1000).
    pub num_nodes: usize,
    /// Capacity of each client cache's cooperative half, in unit-size
    /// objects (paper: 0.1% of the infinite cache size).
    pub node_capacity: usize,
    /// Directory representation the proxy keeps (§4.2).
    pub directory: DirectoryKind,
    /// Whether object diversion (§4.3) is enabled — an ablation knob; the
    /// paper's algorithm has it on.
    pub diversion: bool,
    /// Replication factor `k`: total copies kept per object (one primary
    /// plus up to `k - 1` leaf-set replicas). `1` reproduces the paper's
    /// replica-free baseline bit for bit; higher values trade LAN messages
    /// for availability under unannounced crashes.
    pub replication: usize,
    /// Seed for cacheId assignment.
    pub seed: u64,
}

impl Default for P2PClientCacheConfig {
    fn default() -> Self {
        P2PClientCacheConfig {
            pastry: PastryConfig::default(),
            num_nodes: 100,
            node_capacity: 8,
            directory: DirectoryKind::Exact,
            diversion: true,
            replication: 1,
            seed: 0x00C1_1E17,
        }
    }
}

/// One client cache (the cooperative half of a browser cache).
#[derive(Clone, Debug)]
pub struct ClientCacheNode {
    id: NodeId,
    /// Local greedy-dual store over objectIds. Holds both objects this
    /// node is the DHT root for and objects it hosts for leaf-set
    /// neighbors that diverted them here.
    /// A client cache holds a handful of objects (0.1 % of the infinite
    /// cache size), so the heap finds a key by scanning its entries: one
    /// allocation per node and no index to keep in step.
    store: GreedyDualCache<u128, LinearScan>,
    /// The node's links to other nodes, allocated by the first insert
    /// ([`links_mut`](Self::links_mut)) and kept from then on, so each
    /// map grows and iterates exactly as an inline one would. Most nodes
    /// never divert, host or replicate anything, and an empty map is 32
    /// bytes: boxed, the four cost such a node 8.
    links: Option<Box<Links>>,
}

/// A client cache's links to other nodes: its diversion pointers and
/// replica books.
#[derive(Clone, Debug, Default)]
struct Links {
    /// Objects this node is the root for but which live at a neighbor:
    /// the diversion table of §4.3 ("enters an entry for d1 in its table
    /// with a pointer to B").
    diverted_to: ShaIdMap<u128, NodeId>,
    /// Reverse index for objects hosted here on behalf of another root,
    /// so evicting one can invalidate the root's pointer.
    hosted_for: FxHashMap<u128, NodeId>,
    /// Replica copies hosted here (object → greedy-dual credit carried
    /// from the primary, plus the root tracking the replica set). Kept
    /// outside the greedy-dual store: replicas are insurance, not cache
    /// contents, and must not compete for eviction with primaries.
    replicas: FxHashMap<u128, (f64, NodeId)>,
    /// For objects this node roots: the leaf-set members holding replica
    /// copies (populated only when the replication factor k > 1).
    replicated_to: FxHashMap<u128, Vec<NodeId>>,
}

/// What a node that never linked anything reads.
static NO_LINKS: Links = Links {
    diverted_to: ShaIdMap::with_hasher(ShaIdBuildHasher::new()),
    hosted_for: FxHashMap::with_hasher(FxBuildHasher::new()),
    replicas: FxHashMap::with_hasher(FxBuildHasher::new()),
    replicated_to: FxHashMap::with_hasher(FxBuildHasher::new()),
};

impl Links {
    /// Bytes the four maps' tables and the replica sets hold.
    fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.diverted_to)
            + map_heap_bytes(&self.hosted_for)
            + map_heap_bytes(&self.replicas)
            + map_heap_bytes(&self.replicated_to)
            + self.replicated_to.values().map(|v| v.capacity() * size_of::<NodeId>()).sum::<usize>()
    }
}

impl ClientCacheNode {
    fn new(id: NodeId, capacity: usize) -> Self {
        ClientCacheNode { id, store: GreedyDualCache::new(capacity), links: None }
    }

    /// The node's links, read-only; a node that never linked anything
    /// reads empty maps.
    fn links(&self) -> &Links {
        self.links.as_deref().unwrap_or(&NO_LINKS)
    }

    /// The node's links, allocated on first use: for inserts.
    fn links_mut(&mut self) -> &mut Links {
        self.links.get_or_insert_default()
    }

    /// The node's links if it ever held one: removals and sweeps, which
    /// have nothing to do on a node without any, go through this and
    /// allocate nothing.
    fn links_if_any(&mut self) -> Option<&mut Links> {
        self.links.as_deref_mut()
    }

    /// The node's cacheId.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Objects resident in this node's store.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// True if the store has spare capacity.
    pub fn has_free_space(&self) -> bool {
        self.store.has_free_space()
    }

    /// Number of live outbound diversion pointers.
    pub fn diversions_out(&self) -> usize {
        self.links().diverted_to.len()
    }

    /// Objects resident in this node's store (unordered, no allocation).
    pub fn objects(&self) -> impl Iterator<Item = u128> + '_ {
        self.store.keys()
    }

    /// Replica copies hosted here for other roots (k > 1 only).
    pub fn replica_count(&self) -> usize {
        self.links().replicas.len()
    }
}

/// Where a fetched object was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Node actually holding the object.
    pub holder: NodeId,
    /// Overlay hops from the requesting node to the holder (including the
    /// diversion-pointer hop if the root diverted the object).
    pub hops: usize,
}

/// What happened to a destaged object (Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DestageOutcome {
    /// The DHT root for the object.
    pub root: NodeId,
    /// Node the object ended up at (== root unless diverted).
    pub stored_at: NodeId,
    /// Object evicted from the storing node to make room, already removed
    /// from the proxy directory (Fig. 1 step 14).
    pub evicted: Option<u128>,
    /// Overlay hops the destage message traveled.
    pub hops: usize,
    /// True if the object was already present (refreshed instead of
    /// stored again).
    pub refreshed: bool,
}

impl DestageOutcome {
    /// A fresh store at `stored_at` that displaced nothing; the refresh
    /// and replacement outcomes override the one field that differs.
    fn stored(root: NodeId, stored_at: NodeId, hops: usize) -> Self {
        DestageOutcome { root, stored_at, evicted: None, hops, refreshed: false }
    }
}

/// The destination id the cache's internal transport path uses for
/// messages addressed to the proxy end of the client↔proxy
/// channel (directory updates/invalidates, push responses). Node-bound
/// messages use the node's overlay id, so with the overload defenses
/// armed each client machine — and the proxy — gets its own circuit
/// breaker. No cacheId can collide with it: SHA-1-derived ids are
/// astronomically unlikely to be all-ones, and the constant is only a
/// breaker-map key.
pub const PROXY_DEST: u128 = u128::MAX;

/// The federated client cache for one client cluster.
#[derive(Clone, Debug)]
pub struct P2PClientCache {
    cfg: P2PClientCacheConfig,
    overlay: Overlay,
    nodes: ShaIdMap<u128, ClientCacheNode>,
    /// Client index (0-based) → overlay node, for piggyback entry points.
    node_of_client: Vec<NodeId>,
    directory: LookupDirectory,
    ledger: MessageLedger,
    resident: usize,
    /// Message-level fault state (loss, slow nodes). `None` keeps every
    /// path bit-identical to the fault-free simulator.
    faults: Option<NetFaults>,
    /// Timeout-equivalent latency penalties accrued since the engine last
    /// drained them ([`take_fault_penalties`](Self::take_fault_penalties)).
    fault_penalties: u64,
    /// Objects whose primary died with a *detected* crash, keyed to their
    /// surviving replica hosts. Repair is lazy: the stale directory entry
    /// stays until the next fetch walks into it, pays the timeout, and
    /// promotes a replica (or flushes the entry and falls back to the
    /// server). Empty in fault-free runs.
    limbo: FxHashMap<u128, Vec<NodeId>>,
    /// Message-level unreliable transport (loss, duplication, reordering,
    /// corruption with retry/backoff). `None` keeps every path
    /// bit-identical to the fault-free simulator.
    transport: Option<UnreliableTransport>,
    /// Active network-partition bookkeeping ([`partition_nodes`]
    /// (Self::partition_nodes)). `None` keeps every path bit-identical
    /// to the partition-free simulator.
    split: Option<SplitState>,
    /// Misbehavior subsystem (free-riders, receipt forgers, garblers)
    /// and the spot-check audit defense. `None` keeps every path
    /// bit-identical to the adversary-free simulator.
    adversary: Option<AdversaryState>,
    /// Correlated-failure domain assignment and domain-aware placement.
    /// `None` keeps every path bit-identical to the domain-free
    /// simulator.
    domains: Option<DomainState>,
    /// Paced background repair scheduler state. `None` until the first
    /// [`repair_step`](Self::repair_step) call.
    repair: Option<RepairState>,
    /// Objects ledgered as permanently lost, for exactly-once loss
    /// accounting: [`note_lost`](Self::note_lost) dedupes through this
    /// set and a fresh genuine copy re-arms it. Empty in fault-free runs.
    lost: BTreeSet<u128>,
}

impl P2PClientCache {
    /// Builds the overlay and joins `num_nodes` client caches.
    ///
    /// # Panics
    /// Panics on a zero node count, capacity, or replication factor.
    pub fn new(cfg: P2PClientCacheConfig) -> Self {
        assert!(cfg.num_nodes > 0, "need at least one client cache");
        assert!(cfg.node_capacity > 0, "client caches need capacity");
        assert!(cfg.replication >= 1, "replication factor counts the primary, so k >= 1");
        let mut overlay = Overlay::new(cfg.pastry);
        let mut nodes = ShaIdMap::with_capacity_and_hasher(cfg.num_nodes, Default::default());
        let mut node_of_client = Vec::with_capacity(cfg.num_nodes);
        for i in 0..cfg.num_nodes {
            // cacheId assignment per §4.1: hash the client's identity.
            let id = NodeId::from_bytes(format!("cache-node-{}-{}", cfg.seed, i).as_bytes());
            overlay.join(id);
            nodes.insert(id.0, ClientCacheNode::new(id, cfg.node_capacity));
            node_of_client.push(id);
        }
        let directory = LookupDirectory::new(cfg.directory);
        P2PClientCache {
            cfg,
            overlay,
            nodes,
            node_of_client,
            directory,
            ledger: MessageLedger::default(),
            resident: 0,
            faults: None,
            fault_penalties: 0,
            limbo: FxHashMap::default(),
            transport: None,
            split: None,
            adversary: None,
            domains: None,
            repair: None,
            lost: BTreeSet::new(),
        }
    }

    /// Installs message-level fault state (loss probability, slow nodes).
    /// Once installed, fetches and destages take the liveness-aware slow
    /// path even before any crash happens.
    pub fn set_faults(&mut self, faults: NetFaults) {
        self.faults = Some(faults);
    }

    /// The installed fault state, if any.
    pub fn faults(&self) -> Option<&NetFaults> {
        self.faults.as_ref()
    }

    /// Installs the unreliable message transport: every protocol message
    /// class (destage, push, diversion, directory update/invalidate,
    /// replica re-home) now flows through seeded loss / duplication /
    /// reordering / corruption injection with at-least-once retries (see
    /// [`crate::transport`]). Once installed, request paths take the
    /// liveness-aware slow path even before any crash happens.
    pub fn set_transport(&mut self, faults: TransportFaults) {
        self.transport = Some(UnreliableTransport::new(faults));
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<&UnreliableTransport> {
        self.transport.as_ref()
    }

    /// Arms the transport's overload defenses (per-destination circuit
    /// breakers and the per-node retry budget; see
    /// [`crate::transport`]'s module docs). Installs a fault-free
    /// transport first when none is present — a zero-fault transport is
    /// behaviorally inert, so arming defenses on a clean network changes
    /// nothing until faults appear. An all-off `defense` is a no-op.
    pub fn arm_overload_defense(&mut self, defense: OverloadDefense) {
        if defense.is_none() {
            return;
        }
        let t =
            self.transport.get_or_insert_with(|| UnreliableTransport::new(TransportFaults::none()));
        t.arm_overload(defense);
    }

    /// Marks a node slow (requires [`set_faults`](Self::set_faults) first;
    /// a no-op otherwise).
    pub fn mark_slow(&mut self, id: NodeId) {
        if let Some(f) = self.faults.as_mut() {
            f.mark_slow(id);
        }
    }

    /// Drains the timeout-equivalent latency penalties accrued since the
    /// last call. The simulation engine converts each unit into one
    /// `t_timeout` charge on the request being served.
    pub fn take_fault_penalties(&mut self) -> u64 {
        std::mem::take(&mut self.fault_penalties)
    }

    /// Nodes that crashed silently and have not been detected yet.
    pub fn crashed_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.overlay.crashed_ids()
    }

    /// Number of crashed-but-undetected nodes.
    pub fn crashed_len(&self) -> usize {
        self.overlay.crashed_len()
    }

    /// The configured replication factor `k`.
    pub fn replication(&self) -> usize {
        self.cfg.replication
    }

    /// True when any fault machinery is active: installed fault state,
    /// undetected crashes, or crash damage still awaiting lazy repair.
    /// Read only by [`request_is_armed`](Self::request_is_armed).
    fn fault_mode(&self) -> bool {
        self.faults.is_some()
            || self.transport.is_some()
            || self.overlay.crashed_len() > 0
            || !self.limbo.is_empty()
            || self.split.is_some()
            || self.adversary.is_some()
    }

    /// The one dispatch of a request onto an instantiation of the request
    /// path (see the module docs, "The `ARMED` rule"): `true` selects the
    /// liveness-aware body; `false` selects the paper's plain body, which
    /// relies on every member being live, reachable and honest.
    fn request_is_armed(&self) -> bool {
        if self.fault_mode() {
            return true;
        }
        // Checked against the overlay's own books rather than the flags
        // `fault_mode` just read, so a layer that forgets to register
        // its state there still trips this.
        debug_assert!(
            !self.overlay.is_partitioned() && self.nodes.len() == self.overlay.len(),
            "unarmed request path entered with live fault state"
        );
        false
    }

    /// True while some node's store has spare capacity. Every store holds
    /// `node_capacity` objects, so wherever the store layer's invariant
    /// `resident == Σ store.len()` holds (`check_store_layer` checks it)
    /// this is exactly `nodes.values().any(has_free_space)`, in O(1). A
    /// full cluster is the steady state, and there the destage skips the
    /// root's free-space check and the diversion scan, which could only
    /// come up empty.
    fn space_anywhere(&self) -> bool {
        self.resident < self.nodes.len() * self.cfg.node_capacity
    }

    /// Pushes one protocol message through the unreliable transport (a
    /// no-op returning `true` when none is installed). Charges the send's
    /// cost — one [`note_timeout`](Self::note_timeout) per failed
    /// attempt, plus backoff waits and the reorder stall as latency
    /// penalties — counts retries in the ledger, and emits each retry,
    /// dedup, checksum failure and overload decision as an event. `dest`
    /// is the receiver the message is addressed to (a node's overlay id,
    /// or [`PROXY_DEST`] for the proxy end of the client↔proxy channel);
    /// with the overload defenses armed it selects the per-destination
    /// circuit breaker.
    /// Returns whether the payload was delivered; `false` (lost,
    /// quarantined, fast-failed by an open breaker, or abandoned by an
    /// exhausted retry budget) only ever happens for droppable payload
    /// classes, and the caller degrades safely.
    fn transport_send<S: P2pSink>(
        &mut self,
        class: MessageClass,
        dest: u128,
        payload: u128,
        sink: &mut S,
    ) -> bool {
        let Some(t) = self.transport.as_mut() else { return true };
        let out = t.send_to(class, dest, payload);
        for _ in 0..out.timeouts {
            self.note_timeout(false, sink);
        }
        self.fault_penalties += out.backoff_units + u64::from(out.reordered);
        if out.attempts > 1 {
            self.ledger.retries += 1;
            if S::ENABLED {
                sink.event(P2pEvent::MessageRetried {
                    class: class.label(),
                    attempts: out.attempts.min(u32::from(u16::MAX)) as u16,
                });
            }
        }
        if S::ENABLED {
            let class = class.label();
            if out.deduped {
                sink.event(P2pEvent::MessageDeduped { class });
            }
            if out.checksum_failures > 0 {
                sink.event(P2pEvent::ChecksumFailed { class });
            }
            if out.breaker_fast_fail {
                sink.event(P2pEvent::BreakerFastFailed { class });
            }
            if out.budget_denied {
                sink.event(P2pEvent::RetryBudgetExhausted { class });
            }
        }
        out.delivered
    }

    /// A timed-out message: one latency penalty for the request in flight,
    /// one ledger tick, one event.
    fn note_timeout<S: P2pSink>(&mut self, dead_node: bool, sink: &mut S) {
        self.ledger.timeouts += 1;
        self.fault_penalties += 1;
        if S::ENABLED {
            sink.event(P2pEvent::TimeoutDetected { dead_node });
        }
    }

    /// The overlay entry node for `client`, or `None` once the cluster
    /// has no members left.
    fn entry_for_client(&self, client: u32) -> Option<NodeId> {
        if self.node_of_client.is_empty() {
            None
        } else {
            Some(self.node_of_client[client as usize % self.node_of_client.len()])
        }
    }

    /// The overlay node serving client `client` (clients map round-robin
    /// onto cluster nodes when there are more clients than caches).
    ///
    /// # Panics
    /// Panics if every node has failed; request paths use the degrading
    /// internal resolver instead.
    pub fn node_for_client(&self, client: u32) -> NodeId {
        self.node_of_client[client as usize % self.node_of_client.len()]
    }

    /// Aggregate capacity: the sum over the nodes that are live now, so
    /// failures, crashes and quarantines shrink it and joins grow it.
    pub fn capacity(&self) -> usize {
        self.overlay.len() * self.cfg.node_capacity
    }

    /// Objects currently resident across all nodes.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Proxy-side membership test against the lookup directory (§4.2).
    pub fn directory_contains(&self, object: u128) -> bool {
        self.directory.contains(object)
    }

    /// Inert shim: does nothing and does not read `wave`. It used to
    /// pre-resolve a request wave's overlay routes into a route memo;
    /// [`fetch`](Self::fetch) now walks the overlay inline. It remains
    /// only because the frozen `benchmark/` crate calls it, and goes once
    /// that crate drops `p2p.warm_routes_ns_per_key`.
    pub fn warm_routes(&mut self, _wave: impl IntoIterator<Item = (u32, u128)>) {}

    /// Immutable access to the lookup directory (for memory accounting).
    pub fn directory(&self) -> &LookupDirectory {
        &self.directory
    }

    /// Bytes the cluster's books hold on the heap, counted from
    /// capacities: the overlay ([`Overlay::heap_bytes`]), the node map,
    /// each node's store and boxed links, the client → node table and
    /// the limbo map; the `lost` set counts its entries only. Not
    /// included: the fault layers' state (transport, partition,
    /// adversary, failure domains, repair), and the proxy-side lookup
    /// directory, which reports its own model size
    /// ([`LookupDirectory::size_bytes`]). A freshly built 1,000-node cluster holds about 0.9 KB
    /// per node and a full one about 1.5 KB (pinned by the root package's
    /// `tests/memory_budget.rs`).
    pub fn heap_bytes(&self) -> usize {
        let node_books: usize = self
            .nodes
            .values()
            .map(|n| {
                n.store.heap_bytes()
                    + n.links.as_ref().map_or(0, |l| size_of::<Links>() + l.heap_bytes())
            })
            .sum();
        let limbo: usize =
            self.limbo.values().map(|hosts| hosts.capacity() * size_of::<NodeId>()).sum();
        self.overlay.heap_bytes()
            + map_heap_bytes(&self.nodes)
            + node_books
            + self.node_of_client.capacity() * size_of::<NodeId>()
            + map_heap_bytes(&self.limbo)
            + limbo
            + self.lost.len() * size_of::<u128>()
    }

    /// Cumulative message counters.
    pub fn ledger(&self) -> &MessageLedger {
        &self.ledger
    }

    /// Immutable access to a node (tests, stats).
    pub fn node(&self, id: NodeId) -> Option<&ClientCacheNode> {
        self.nodes.get(&id.0)
    }

    /// Iterates over the cluster's node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.overlay.node_ids()
    }
}

/// ObjectIds are routed as overlay keys.
fn object_key(object: u128) -> NodeId {
    NodeId(object)
}

/// Hashes an object URL to its 128-bit objectId (§4.1).
pub fn object_id_for_url(url: &str) -> u128 {
    NodeId::from_url(url).0
}

#[cfg(test)]
mod tests;
