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

use crate::directory::{DirectoryKind, LookupDirectory};
use crate::events::{NoSink, P2pEvent, P2pSink};
use crate::faults::{NetFaults, P2pError};
use crate::ledger::MessageLedger;
use crate::transport::{MessageClass, OverloadDefense, TransportFaults, UnreliableTransport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use webcache_pastry::{NodeId, Overlay, PastryConfig};
use webcache_policy::{BoundedCache, GreedyDualCache, ShaIndex};
use webcache_primitives::seed::SeedStream;
use webcache_primitives::{FxHashMap, ShaIdMap};

/// Configuration for a [`P2PClientCache`].
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    #[serde(default)]
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
    /// Keys are SHA-derived objectIds, so the GD heap's position index
    /// skips rehashing them.
    store: GreedyDualCache<u128, ShaIndex>,
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

impl ClientCacheNode {
    fn new(id: NodeId, capacity: usize) -> Self {
        ClientCacheNode {
            id,
            store: GreedyDualCache::new(capacity),
            diverted_to: ShaIdMap::default(),
            hosted_for: FxHashMap::default(),
            replicas: FxHashMap::default(),
            replicated_to: FxHashMap::default(),
        }
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
        self.diverted_to.len()
    }

    /// Objects resident in this node's store (unordered, no allocation).
    pub fn objects(&self) -> impl Iterator<Item = u128> + '_ {
        self.store.keys()
    }

    /// Replica copies hosted here for other roots (k > 1 only).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
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

/// Cluster-side bookkeeping for an active network partition.
///
/// The overlay tracks the membership cut ([`Overlay::start_partition`]);
/// this records what the *islanded* side did with its copies. The proxy
/// sits on island A, so the lookup directory keeps describing island A
/// only; island B runs its own independent "directory" here — the
/// split-brain state the heal-time reconciliation sweep must merge.
#[derive(Clone, Debug, Default)]
struct SplitState {
    /// Island B's view of its primaries: object → the B node holding it.
    /// Populated at cut time (B keeps every primary it held and promotes
    /// replicas of primaries stranded on island A) and by nothing else —
    /// no request traffic reaches island B while the cut is up.
    b_index: FxHashMap<u128, NodeId>,
    /// Island B's entry epochs, mirroring the directory's: bumped when
    /// B's "repair" moved an object's authority. Compared against the
    /// A-side epoch at heal time; higher epoch wins.
    b_epochs: FxHashMap<u128, u64>,
    /// Metadata messages island B addressed to the proxy while the cut
    /// was up (store receipts for its promotions). Queued at the cut and
    /// drained through the transport's retry/dedup machinery on heal.
    pending_cut: Vec<(MessageClass, u128)>,
}

/// How one client machine behaves toward the cooperative cache. The
/// proxy does not control client machines (§2: "the clients ... are not
/// under the proxy's administrative control"), so a participant can lie;
/// the chaos/churn fault plans drive these through the `freeride@i`,
/// `forge@i:rate`, and `garble@i:rate` grammar keys.
///
/// Misbehavior rates are stored per-mille (`u16` in `0..=1000`) so the
/// variant stays `Copy + Eq` and round-trips through the plan grammar
/// exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Behavior {
    /// Plays by the protocol (the default for every node).
    Honest,
    /// Accepts destages and sends the store receipt, then silently
    /// discards the object — and refuses to host diversions for
    /// neighbors. It consumes the cluster's service while contributing
    /// no storage, poisoning the directory with entries it never backs.
    FreeRider,
    /// Sends store receipts for objects it never held: whenever a
    /// directory entry is dropped in its sight, it re-claims the object
    /// with probability `rate_pm`/1000, poisoning the lookup directory.
    Forger {
        /// Per-opportunity forge probability, in per-mille.
        rate_pm: u16,
    },
    /// Acks fetches normally but serves garbage with probability
    /// `rate_pm`/1000 — caught by the existing xxhash payload checksums,
    /// costing the requester a timeout and a server fallback.
    Garbler {
        /// Per-fetch garble probability, in per-mille.
        rate_pm: u16,
    },
}

impl Behavior {
    /// True for anything other than [`Behavior::Honest`].
    pub fn is_misbehaving(&self) -> bool {
        !matches!(self, Behavior::Honest)
    }
}

/// The misbehavior subsystem: per-node behaviors, the seeded draw stream
/// for every misbehavior/audit coin, the spot-check audit defense's
/// strike ledger, and the phantom-entry attribution that makes poisoned
/// directory entries auditable. `None` on the cache keeps every path
/// bit-identical to the adversary-free simulator.
#[derive(Clone, Debug)]
struct AdversaryState {
    /// Per-node behavior overrides, keyed by cacheId. A `BTreeMap` so
    /// forger iteration (who gets to re-claim a dropped entry first) is
    /// deterministic.
    behaviors: BTreeMap<u128, Behavior>,
    /// One shared stream for every misbehavior and audit draw — forge
    /// coins, garble coins, audit sampling — so a plan replays bit for
    /// bit from its seed.
    draws: SeedStream,
    /// Probability the proxy audits a store receipt with a possession
    /// challenge. Zero disables the defense: receipts are taken on
    /// faith and no strikes ever accrue.
    audit_rate: f64,
    /// Failed audits before a node is quarantined.
    strike_limit: u32,
    /// Failed-audit strikes per node.
    strikes: FxHashMap<u128, u32>,
    /// Nodes quarantined after exhausting their strikes.
    quarantined: BTreeSet<u128>,
    /// Directory entries with no backing copy, attributed to the node
    /// whose forged receipt created them: object → misbehaving node.
    /// Purged on stale fetches (existing negative feedback), failed
    /// audits, quarantine, or a genuine copy superseding the lie.
    phantoms: FxHashMap<u128, NodeId>,
}

impl AdversaryState {
    fn new(seed: u64, audit_rate: f64, strike_limit: u32) -> Self {
        AdversaryState {
            behaviors: BTreeMap::new(),
            draws: SeedStream::new(seed),
            audit_rate: audit_rate.clamp(0.0, 1.0),
            strike_limit: strike_limit.max(1),
            strikes: FxHashMap::default(),
            quarantined: BTreeSet::new(),
            phantoms: FxHashMap::default(),
        }
    }

    /// The effective behavior of `id`: quarantined nodes are out of the
    /// overlay entirely, so only live overrides matter.
    fn behavior_of(&self, id: NodeId) -> Behavior {
        self.behaviors.get(&id.0).copied().unwrap_or(Behavior::Honest)
    }
}

/// Correlated-failure domain assignment: every node belongs to one
/// failure domain (a campus subnet, a rack, an ISP segment) and whole
/// domains can fail together (`domainfail@N:D` in the fault grammar).
/// `None` on the cache keeps every path bit-identical to the
/// domain-free simulator.
#[derive(Clone, Debug)]
struct DomainState {
    /// cacheId → domain id in `0..count`.
    of: FxHashMap<u128, u32>,
    /// Number of failure domains.
    count: u32,
    /// Domain-aware replica spread on: replica targets prefer domains
    /// not already covered by the primary or earlier copies. `false`
    /// models blind placement — domains exist for fault injection but
    /// placement ignores them (the durability harness's baseline).
    spread: bool,
    /// Seeded stream for domain draws; late joiners draw from it too, so
    /// a plan replays bit for bit.
    draws: SeedStream,
}

/// Incremental state of the paced background repair scheduler
/// ([`P2PClientCache::repair_step`]): the scan revolution's remaining
/// queue and the at-risk gauge it maintains.
#[derive(Clone, Debug, Default)]
struct RepairState {
    /// Primaries still to examine this revolution, reverse-sorted so
    /// popping from the end ascends the object space deterministically.
    queue: Vec<u128>,
    /// Primaries found below the replica floor (and not immediately
    /// repairable) so far this revolution.
    seen_under_floor: u64,
    /// Published gauge: under-floor primaries counted by the last
    /// completed revolution. Lags by at most one revolution.
    under_floor: u64,
}

/// What one paced step of the background repair scheduler accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Entries examined this step (bounded by the scan budget) — each is
    /// real work the event clock prices.
    pub scanned: u32,
    /// Entries restored toward the replica floor (limbo promotions plus
    /// replica top-ups).
    pub repaired: u32,
    /// Losses discovered and ledgered (limbo entries with no survivor).
    pub lost: u32,
    /// The at-risk gauge after this step ([`P2PClientCache::at_risk_gauge`]).
    pub at_risk: u64,
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
    /// Cached count of nodes with free store space, or `None` when it
    /// must be recounted. In steady state stores only fill up, so once
    /// this reaches zero the destage path skips the root free-space check
    /// and the whole leaf-set diversion scan — the scan can only fail.
    /// Every membership/fault entry point invalidates the hint (those
    /// paths move objects and nodes arbitrarily); [`destage_inner`]
    /// (Self::destage_inner) keeps it exact across its own inserts.
    space_hint: Option<usize>,
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
            space_hint: None,
        }
    }

    /// Recounts the free-space hint from the node stores.
    fn recount_space(&mut self) -> usize {
        let n = self.nodes.values().filter(|n| n.has_free_space()).count();
        self.space_hint = Some(n);
        n
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

    /// Installs the misbehavior subsystem: per-node [`Behavior`]
    /// overrides (set with [`set_behavior`](Self::set_behavior)) plus
    /// the spot-check audit defense. Every misbehavior and audit coin
    /// comes from one [`SeedStream`] derived from `seed`, so a plan
    /// replays bit for bit. `audit_rate` is the per-receipt probability
    /// of a possession challenge (zero disables the defense entirely —
    /// no draws, no strikes); `strike_limit` is the failed audits before
    /// quarantine. Once installed, request paths take the
    /// liveness-aware slow path even before any node misbehaves.
    pub fn enable_adversary(&mut self, seed: u64, audit_rate: f64, strike_limit: u32) {
        self.adversary = Some(AdversaryState::new(seed, audit_rate, strike_limit));
    }

    /// Installs the correlated-failure domain subsystem: every current
    /// node draws a domain id in `0..count` from one [`SeedStream`]
    /// derived from `seed` (late joiners draw from the same stream), so
    /// an assignment replays bit for bit. With `spread` on, replica
    /// placement prefers leaf-set members whose domains are not already
    /// covered by the primary or earlier copies — whole-domain failures
    /// then take at most one copy of any object. `spread == false`
    /// models blind placement (domains drive fault injection only).
    ///
    /// # Panics
    /// Panics on a zero domain count.
    pub fn assign_domains(&mut self, count: u32, seed: u64, spread: bool) {
        assert!(count >= 1, "need at least one failure domain");
        let mut draws = SeedStream::new(seed);
        let mut ids: Vec<u128> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        let mut of = FxHashMap::default();
        for id in ids {
            of.insert(id, draws.pick(count as usize) as u32);
        }
        self.domains = Some(DomainState { of, count, spread, draws });
    }

    /// The failure domain of `id`, when the subsystem is installed and
    /// the node has an assignment.
    pub fn domain_of(&self, id: NodeId) -> Option<u32> {
        self.domains.as_ref().and_then(|d| d.of.get(&id.0).copied())
    }

    /// Number of failure domains (0 when the subsystem is off).
    pub fn domain_count(&self) -> u32 {
        self.domains.as_ref().map_or(0, |d| d.count)
    }

    /// Live (non-crashed) members of failure domain `domain`, in cacheId
    /// order — the `domainfail@N:D` verb's victim list.
    pub fn live_ids_in_domain(&self, domain: u32) -> Vec<NodeId> {
        let Some(d) = self.domains.as_ref() else { return Vec::new() };
        let mut out: Vec<NodeId> =
            self.overlay.node_ids().filter(|n| d.of.get(&n.0) == Some(&domain)).collect();
        out.sort_unstable_by_key(|n| n.0);
        out
    }

    /// Entries currently known to be below the replica floor: crash
    /// casualties parked in limbo plus the under-floor primaries counted
    /// by the repair scheduler's last completed scan revolution (the
    /// second term lags by at most one revolution, and is zero until a
    /// revolution completes or when repair never runs).
    pub fn at_risk_gauge(&self) -> u64 {
        self.limbo.len() as u64 + self.repair.as_ref().map_or(0, |r| r.under_floor)
    }

    /// [`repair_step_tap`](Self::repair_step_tap) without observability.
    pub fn repair_step(&mut self, budget: u32) -> RepairOutcome {
        self.repair_step_tap(budget, &mut NoSink)
    }

    /// One round of the paced background repair scheduler: spends up to
    /// `budget` scan units restoring entries to the replica floor
    /// *before* the next failure (or the next request) trips over them.
    /// Each unit is real work — the caller prices the round's `scanned`
    /// count as busy time in event-clock mode.
    ///
    /// Priority order per round:
    /// 1. one unit probing the first (by cacheId) crashed-but-undetected
    ///    node — the sweep finds corpses before requests do, paying the
    ///    same detection timeout a request would;
    /// 2. drain limbo (crash casualties with parked replica sets),
    ///    smallest objectId first: promote a surviving replica back to
    ///    primary, or — when none survives — ledger the loss and flush
    ///    the stale directory entry instead of leaving it to ambush a
    ///    request;
    /// 3. a budget-paced revolution over all live primaries (k > 1
    ///    only), topping under-floor entries back up. The `under_floor`
    ///    gauge term publishes at each completed revolution.
    ///
    /// Restored entries count as `proactive_repairs` in the ledger and
    /// emit [`P2pEvent::ProactiveRepair`]; every scanned unit counts as
    /// `repair_scans`. Returns the round's outcome plus the at-risk
    /// gauge after it.
    pub fn repair_step_tap<S: P2pSink>(&mut self, budget: u32, sink: &mut S) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        if self.repair.is_none() {
            self.repair = Some(RepairState::default());
        }
        let mut budget = budget;
        if budget == 0 || self.nodes.is_empty() {
            out.at_risk = self.at_risk_gauge();
            return out;
        }
        // Phase 1: detect one silent corpse per round (cheapest-first
        // deterministic order), parking its objects in limbo for phase 2.
        let corpse = {
            let mut crashed: Vec<NodeId> =
                self.overlay.crashed_ids().filter(|n| self.nodes.contains_key(&n.0)).collect();
            crashed.sort_unstable_by_key(|n| n.0);
            crashed.first().copied()
        };
        if let Some(c) = corpse {
            budget -= 1;
            out.scanned += 1;
            self.ledger.repair_scans += 1;
            self.note_timeout(true, sink);
            self.detect_crash(c, sink);
            self.space_hint = None;
        }
        // Phase 2: drain limbo, smallest objectId first.
        while budget > 0 {
            let Some(obj) = self.limbo.keys().min().copied() else { break };
            budget -= 1;
            out.scanned += 1;
            self.ledger.repair_scans += 1;
            let hosts = self.limbo.remove(&obj).expect("key just observed");
            let had_replicas = !hosts.is_empty();
            match self.promote_or_lose(obj, hosts, sink) {
                Some((_holder, copies)) => {
                    self.resident += 1;
                    out.repaired += 1;
                    self.ledger.proactive_repairs += 1;
                    self.space_hint = None;
                    if S::ENABLED {
                        sink.event(P2pEvent::ProactiveRepair { copies });
                    }
                }
                None => {
                    // No survivor: ledger the loss and flush the stale
                    // directory entry now, sparing a request the ambush.
                    out.lost += 1;
                    self.note_lost(obj, had_replicas, sink);
                    if self.directory.contains(obj) {
                        self.transport_send(
                            MessageClass::DirectoryInvalidate,
                            PROXY_DEST,
                            obj,
                            sink,
                        );
                        self.directory.remove(obj);
                    }
                    if let Some(adv) = self.adversary.as_mut() {
                        adv.phantoms.remove(&obj);
                    }
                }
            }
        }
        // Phase 3: revolve over live primaries topping up to the floor.
        if self.cfg.replication > 1 {
            while budget > 0 {
                if self.repair.as_ref().expect("installed above").queue.is_empty() {
                    // Revolution complete: publish the gauge term and
                    // rebuild the queue (descending, so pop() walks the
                    // id space ascending).
                    let mut q: Vec<u128> = Vec::new();
                    for n in self.nodes.values() {
                        if self.overlay.is_crashed(n.id) {
                            continue;
                        }
                        for obj in n.store.keys() {
                            q.push(obj);
                        }
                    }
                    q.sort_unstable_by(|a, b| b.cmp(a));
                    let r = self.repair.as_mut().expect("installed above");
                    r.under_floor = r.seen_under_floor;
                    r.seen_under_floor = 0;
                    if q.is_empty() {
                        break;
                    }
                    r.queue = q;
                }
                let obj =
                    self.repair.as_mut().expect("installed above").queue.pop().expect("nonempty");
                budget -= 1;
                out.scanned += 1;
                self.ledger.repair_scans += 1;
                // Re-validate: the entry may have moved or died since the
                // queue was built.
                let Some(root) = self.root_of(obj) else { continue };
                let Some(holder) = self.holder_of(root, obj) else { continue };
                if self.overlay.is_crashed(holder) {
                    continue;
                }
                let floor = self.cfg.replication.min(self.nodes.len());
                let live_copies = 1 + self
                    .nodes
                    .get(&root.0)
                    .and_then(|rn| rn.replicated_to.get(&obj))
                    .map_or(0, |hs| {
                        hs.iter()
                            .filter(|h| {
                                !self.overlay.is_crashed(**h) && self.nodes.contains_key(&h.0)
                            })
                            .count()
                    });
                if live_copies >= floor {
                    continue;
                }
                let credit =
                    self.nodes.get(&holder.0).and_then(|hn| hn.store.h_value(obj)).unwrap_or(1.0);
                let made = self.top_up_replicas(obj, root, holder, credit);
                if made > 0 {
                    out.repaired += 1;
                    self.ledger.proactive_repairs += 1;
                    self.space_hint = None;
                    if S::ENABLED {
                        sink.event(P2pEvent::ProactiveRepair { copies: made });
                    }
                }
                if live_copies + (made as usize) < floor {
                    // Still short after the top-up (not enough distinct
                    // live targets): this entry stays at risk until the
                    // next revolution publishes the gauge.
                    self.repair.as_mut().expect("installed above").seen_under_floor += 1;
                }
            }
        }
        out.at_risk = self.at_risk_gauge();
        out
    }

    /// The no-silent-loss audit (chaos oracle 9): every object that is
    /// unrecoverable *right now* — parked in limbo with no surviving
    /// live replica copy — must already be ledgered in the lost set.
    /// Returns human-readable violations (empty = conserved).
    pub fn silent_loss_audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (obj, hosts) in &self.limbo {
            let survivor = hosts.iter().any(|h| {
                !self.overlay.is_crashed(*h)
                    && self.nodes.get(&h.0).is_some_and(|hn| hn.replicas.contains_key(obj))
            });
            if !survivor && !self.lost.contains(obj) {
                problems.push(format!(
                    "object {obj:#x}: unrecoverable (limbo, no live replica) but never ledgered lost"
                ));
            }
        }
        if (self.lost.len() as u64) > self.ledger.objects_lost {
            problems.push(format!(
                "lost-set size {} exceeds ledgered objects_lost {}",
                self.lost.len(),
                self.ledger.objects_lost
            ));
        }
        problems.sort();
        problems
    }

    /// Overrides the behavior of one node (requires
    /// [`enable_adversary`](Self::enable_adversary) first; a no-op
    /// otherwise, mirroring [`mark_slow`](Self::mark_slow)).
    pub fn set_behavior(&mut self, id: NodeId, behavior: Behavior) {
        if let Some(adv) = self.adversary.as_mut() {
            if behavior == Behavior::Honest {
                adv.behaviors.remove(&id.0);
            } else {
                adv.behaviors.insert(id.0, behavior);
            }
        }
    }

    /// The effective behavior of `id` ([`Behavior::Honest`] when the
    /// subsystem is off or no override is set).
    pub fn behavior_of(&self, id: NodeId) -> Behavior {
        self.adversary.as_ref().map_or(Behavior::Honest, |adv| adv.behavior_of(id))
    }

    /// True when the misbehavior subsystem is installed.
    pub fn adversary_enabled(&self) -> bool {
        self.adversary.is_some()
    }

    /// Nodes quarantined by the audit defense, in cacheId order.
    pub fn quarantined_ids(&self) -> Vec<NodeId> {
        self.adversary
            .as_ref()
            .map_or_else(Vec::new, |adv| adv.quarantined.iter().map(|&k| NodeId(k)).collect())
    }

    /// Number of nodes quarantined by the audit defense.
    pub fn quarantined_len(&self) -> usize {
        self.adversary.as_ref().map_or(0, |adv| adv.quarantined.len())
    }

    /// True when `id` has been quarantined by the audit defense.
    pub fn is_quarantined(&self, id: NodeId) -> bool {
        self.adversary.as_ref().is_some_and(|adv| adv.quarantined.contains(&id.0))
    }

    /// Failed-audit strikes currently held against `id`.
    pub fn strikes_of(&self, id: NodeId) -> u32 {
        self.adversary.as_ref().and_then(|adv| adv.strikes.get(&id.0).copied()).unwrap_or(0)
    }

    /// Directory entries currently known to be phantom (forged receipts
    /// whose lie has not yet been purged).
    pub fn phantom_entries(&self) -> usize {
        self.adversary.as_ref().map_or(0, |adv| adv.phantoms.len())
    }

    /// True when `id` is a live (non-quarantined) node with the given
    /// misbehavior class still active.
    fn is_freerider(&self, id: NodeId) -> bool {
        self.adversary.as_ref().is_some_and(|adv| adv.behavior_of(id) == Behavior::FreeRider)
    }

    /// A genuine copy of `object` is now backing its directory entry:
    /// any phantom attribution is superseded, and a historical loss
    /// ledgering is re-armed (an object lost, refetched from the origin,
    /// and lost again counts twice).
    fn note_genuine_copy(&mut self, object: u128) {
        if let Some(adv) = self.adversary.as_mut() {
            adv.phantoms.remove(&object);
        }
        if !self.lost.is_empty() {
            self.lost.remove(&object);
        }
    }

    /// Ledgers a permanent loss exactly once per object — the
    /// no-silent-loss guarantee: every path that makes an object
    /// unrecoverable funnels through here, incrementing
    /// `ledger.objects_lost` and emitting [`P2pEvent::ObjectLost`].
    /// Double-ledgering (an empty-handed crash reclaim followed by the
    /// limbo entry resolving empty) is deduped through the `lost` set.
    fn note_lost<S: P2pSink>(&mut self, object: u128, had_replicas: bool, sink: &mut S) {
        if !self.lost.insert(object) {
            return;
        }
        self.ledger.objects_lost += 1;
        if S::ENABLED {
            sink.event(P2pEvent::ObjectLost { had_replicas });
        }
    }

    /// The last machine is leaving: every crash casualty still parked in
    /// limbo dies with the cluster. Ledger each (in object order) before
    /// the caller clears the map wholesale — a wipe must not be a silent
    /// loss.
    fn ledger_cluster_wipe<S: P2pSink>(&mut self, sink: &mut S) {
        if self.limbo.is_empty() {
            return;
        }
        let mut parked: Vec<(u128, bool)> =
            self.limbo.iter().map(|(o, h)| (*o, !h.is_empty())).collect();
        parked.sort_unstable_by_key(|e| e.0);
        for (obj, had) in parked {
            self.note_lost(obj, had, sink);
        }
    }

    /// True when a live primary copy of `obj` is still reachable through
    /// the proxy's side of the ring: the route lands on a root whose
    /// holder (itself or a diversion target) is live and actually stores
    /// the object.
    fn has_live_primary(&self, obj: u128) -> bool {
        self.root_of(obj)
            .and_then(|r| self.holder_of(r, obj))
            .filter(|h| !self.overlay.is_crashed(*h))
            .and_then(|h| self.nodes.get(&h.0))
            .is_some_and(|hn| hn.store.contains(obj))
    }

    /// Sweeps limbo after a membership change: any parked entry whose
    /// last live replica copy just vanished is ledgered lost *now*
    /// (exactly once, through the `lost` set) — a casualty of a second
    /// crash or departure must not wait for a fetch or a repair scan to
    /// be counted.
    fn ledger_newly_unrecoverable<S: P2pSink>(&mut self, sink: &mut S) {
        let doomed: Vec<(u128, bool)> = self
            .limbo
            .iter()
            .filter(|(obj, hosts)| {
                !self.lost.contains(obj)
                    && !hosts.iter().any(|h| {
                        !self.overlay.is_crashed(*h)
                            && self.nodes.get(&h.0).is_some_and(|hn| hn.replicas.contains_key(obj))
                    })
            })
            .map(|(obj, hosts)| (*obj, !hosts.is_empty()))
            .collect();
        for (obj, had) in doomed {
            self.note_lost(obj, had, sink);
        }
    }

    /// Records a store receipt from `from` for `object` and runs the
    /// spot-check audit defense over it. `genuine` says whether the
    /// sender really holds the object (phantom receipts from free-riders
    /// and forgers pass `false`). With the defense on (`audit_rate > 0`)
    /// the proxy challenges the sender with probability `audit_rate`: a
    /// possession challenge (object checksum echo) priced as real
    /// traffic — two overlay messages plus the metadata send through the
    /// transport. A failed challenge purges the poisoned entry, strikes
    /// the sender, and quarantines it at the strike limit.
    fn audit_receipt<S: P2pSink>(
        &mut self,
        object: u128,
        from: NodeId,
        genuine: bool,
        sink: &mut S,
    ) {
        let Some(adv) = self.adversary.as_mut() else { return };
        if adv.audit_rate <= 0.0 {
            return;
        }
        if adv.draws.unit() >= adv.audit_rate {
            return;
        }
        self.ledger.audits_challenged += 1;
        self.ledger.overlay_messages += 2; // challenge + echo round trip
        self.transport_send(MessageClass::AuditChallenge, from.0, object, sink);
        if S::ENABLED {
            sink.event(P2pEvent::AuditChallenged { passed: genuine });
        }
        if genuine {
            return;
        }
        // The sender cannot echo the checksum of an object it never
        // held: the challenge times out, the lie is exposed, and the
        // poisoned entry is purged on the spot.
        self.ledger.audits_failed += 1;
        self.ledger.forged_receipts += 1;
        self.note_timeout(false, sink);
        let adv = self.adversary.as_mut().expect("checked above");
        let entry_purged = adv.phantoms.remove(&object).is_some();
        if entry_purged {
            self.directory.remove(object);
        }
        if S::ENABLED {
            sink.event(P2pEvent::ForgedReceiptDetected { entry_purged });
        }
        let adv = self.adversary.as_mut().expect("checked above");
        let strikes = adv.strikes.entry(from.0).or_insert(0);
        *strikes += 1;
        let strikes = *strikes;
        let limit = adv.strike_limit;
        if S::ENABLED {
            sink.event(P2pEvent::AuditFailed { strikes });
        }
        if strikes >= limit {
            self.quarantine_node(from, sink);
        }
    }

    /// Quarantines `from`: the node is expelled from the overlay like a
    /// detected crash — its poisoned directory entries are purged, its
    /// genuine residents park in limbo and re-home through the existing
    /// stale-directory repair path, and it never participates again.
    fn quarantine_node<S: P2pSink>(&mut self, from: NodeId, sink: &mut S) {
        // Never expel island A's last machine while the cut is up — the
        // proxy's clients are anchored on the A side, the same rule the
        // churn driver applies to scheduled crashes and departures. The
        // strike ledger keeps growing, so the next failed audit after
        // the heal (or after a fresh join) completes the expulsion.
        if self.overlay.is_partitioned()
            && self.overlay.in_island_a(from)
            && self.overlay.island_a_ids().len() <= 1
        {
            return;
        }
        let adv = self.adversary.as_mut().expect("quarantine implies adversary mode");
        if !adv.quarantined.insert(from.0) {
            return;
        }
        // Purge every phantom entry attributed to the node, in object
        // order for determinism.
        let mut poisoned: Vec<u128> =
            adv.phantoms.iter().filter(|(_, n)| **n == from).map(|(o, _)| *o).collect();
        poisoned.sort_unstable();
        let entries_purged = poisoned.len().min(u32::MAX as usize) as u32;
        for obj in poisoned {
            adv.phantoms.remove(&obj);
            self.directory.remove(obj);
        }
        self.ledger.quarantines += 1;
        let residents_parked =
            self.nodes.get(&from.0).map_or(0, |n| n.store.len().min(u32::MAX as usize) as u32);
        // Expel through the crash machinery: residents park in limbo
        // with their replica sets and repair lazily, exactly like a
        // detected crash.
        self.space_hint = None;
        if !self.overlay.is_crashed(from) {
            let _ = self.overlay.fail(from);
        }
        self.detect_crash(from, sink);
        if S::ENABLED {
            sink.event(P2pEvent::NodeQuarantined { entries_purged, residents_parked });
        }
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
    /// Gates the slow liveness-aware request paths so the fault-free
    /// simulator stays bit-identical.
    fn fault_mode(&self) -> bool {
        self.faults.is_some()
            || self.transport.is_some()
            || self.overlay.crashed_len() > 0
            || !self.limbo.is_empty()
            || self.split.is_some()
            || self.adversary.is_some()
    }

    /// True while a network partition is up
    /// ([`partition_nodes`](Self::partition_nodes)).
    pub fn is_partitioned(&self) -> bool {
        self.split.is_some()
    }

    /// True when `id` is on the proxy's side of the cut (island A).
    /// Always true while no partition is active.
    pub fn in_island_a(&self, id: NodeId) -> bool {
        self.overlay.in_island_a(id)
    }

    /// Pushes one protocol message through the unreliable transport (a
    /// no-op returning `true` when none is installed). Charges the send's
    /// cost — one [`note_timeout`](Self::note_timeout) per failed
    /// attempt, plus backoff waits and the reorder stall as latency
    /// penalties — and records retries, dedups, and checksum failures in
    /// the ledger and the event stream. `dest` is the receiver the
    /// message is addressed to (a node's overlay id, or [`PROXY_DEST`]
    /// for the proxy end of the client↔proxy channel); with the overload
    /// defenses armed it selects the per-destination circuit breaker.
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
        if out.deduped {
            self.ledger.dedups += 1;
            if S::ENABLED {
                sink.event(P2pEvent::MessageDeduped { class: class.label() });
            }
        }
        if out.checksum_failures > 0 {
            self.ledger.checksum_failures += u64::from(out.checksum_failures);
            if S::ENABLED {
                sink.event(P2pEvent::ChecksumFailed { class: class.label() });
            }
        }
        if out.breaker_fast_fail {
            self.ledger.breaker_fast_fails += 1;
            if S::ENABLED {
                sink.event(P2pEvent::BreakerFastFailed { class: class.label() });
            }
        }
        if out.budget_denied {
            self.ledger.retry_budget_denials += 1;
            if S::ENABLED {
                sink.event(P2pEvent::RetryBudgetExhausted { class: class.label() });
            }
        }
        out.delivered
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

    /// Routes from `entry` to the DHT root of `object`, charging the hop
    /// count to the ledger.
    fn route_to_root(&mut self, entry: NodeId, object: u128) -> (NodeId, usize) {
        let (root, hops) =
            self.overlay.route_hops(entry, object_key(object)).expect("entry node is live");
        self.ledger.overlay_messages += hops as u64;
        (root, hops)
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

    /// Registers the engine's dense object universe with the directory so
    /// hot membership reads can use a bitset mirror (exact directories
    /// only; see [`LookupDirectory::enable_dense_mirror`]).
    pub fn enable_dense_directory(&mut self, universe: &[u128]) {
        self.directory.enable_dense_mirror(universe);
    }

    /// [`directory_contains`](Self::directory_contains) for callers that
    /// also know the object's dense universe index: answered from the
    /// mirror bitset when available, identical fallback otherwise.
    #[inline]
    pub fn directory_contains_dense(&self, idx: usize, object: u128) -> bool {
        self.directory.contains_dense(idx).unwrap_or_else(|| self.directory.contains(object))
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

    /// Destages an object evicted by the proxy into the P2P cache —
    /// the Hier-GD passdown of Fig. 1.
    ///
    /// `via_client` is the client whose HTTP response piggybacked the
    /// object (§4.4); `None` means the proxy opened a dedicated
    /// connection (the ablation baseline). `cost` is the greedy-dual
    /// fetch cost the client cache charges the object on insertion.
    ///
    /// Returns `None` only when the cluster has no members left — the
    /// destage degrades to a miss instead of panicking.
    pub fn destage(
        &mut self,
        object: u128,
        cost: f64,
        via_client: Option<u32>,
    ) -> Option<DestageOutcome> {
        self.destage_tap(object, cost, via_client, &mut NoSink)
    }

    /// [`destage`](Self::destage) with an observability sink: emits one
    /// [`P2pEvent::Destage`] (plus an [`P2pEvent::Eviction`] when storing
    /// displaced another object). With a disabled sink ([`NoSink`]) the
    /// emission code folds away and this is exactly `destage`.
    pub fn destage_tap<S: P2pSink>(
        &mut self,
        object: u128,
        cost: f64,
        via_client: Option<u32>,
        sink: &mut S,
    ) -> Option<DestageOutcome> {
        let out = if self.fault_mode() {
            self.space_hint = None;
            self.destage_churn(object, cost, via_client, sink)?
        } else {
            self.destage_inner(object, cost, via_client, sink)?
        };
        if S::ENABLED {
            sink.event(P2pEvent::Destage {
                hops: out.hops.min(u16::MAX as usize) as u16,
                piggybacked: via_client.is_some(),
                diverted: out.stored_at != out.root,
                refreshed: out.refreshed,
                evicted: out.evicted.is_some(),
            });
        }
        Some(out)
    }

    fn destage_inner<S: P2pSink>(
        &mut self,
        object: u128,
        cost: f64,
        via_client: Option<u32>,
        sink: &mut S,
    ) -> Option<DestageOutcome> {
        // A dedicated destage still enters the overlay somewhere; the
        // proxy hands the object to an arbitrary (first) client cache
        // which then routes it.
        let entry = self.entry_for_client(via_client.unwrap_or(0))?;
        match via_client {
            Some(_) => self.ledger.piggybacked_objects += 1,
            None => {
                self.ledger.direct_destages += 1;
                self.ledger.new_connections += 1;
            }
        }
        let (root, hops) = self.route_to_root(entry, object);
        let free_nodes = match self.space_hint {
            Some(n) => n,
            None => self.recount_space(),
        };

        // Already present at the root (or via its diversion pointer)?
        // Refresh the greedy-dual credit instead of storing a duplicate.
        // One borrow of the root serves the holder check, the free-space
        // check, and the free-space insert.
        let rn = self.nodes.get_mut(&root.0).expect("root is live");
        if rn.store.contains(object) {
            rn.store.touch_with_cost(object, cost, 1.0);
            return Some(DestageOutcome {
                root,
                stored_at: root,
                evicted: None,
                hops,
                refreshed: true,
            });
        }
        if let Some(&holder) = rn.diverted_to.get(&object) {
            let node = self.nodes.get_mut(&holder.0).expect("holder is live");
            node.store.touch_with_cost(object, cost, 1.0);
            return Some(DestageOutcome {
                root,
                stored_at: holder,
                evicted: None,
                hops,
                refreshed: true,
            });
        }

        // Fig. 1 step 3: root has free space.
        if free_nodes > 0 && rn.has_free_space() {
            let evicted = rn.store.insert_with_cost(object, cost, 1.0);
            debug_assert!(evicted.is_none());
            if !rn.has_free_space() {
                self.space_hint = Some(free_nodes - 1);
            }
            self.resident += 1;
            self.directory.insert(object);
            self.note_genuine_copy(object);
            self.ledger.store_receipts += 1;
            self.make_replicas(object, root, root, cost);
            return Some(DestageOutcome {
                root,
                stored_at: root,
                evicted: None,
                hops,
                refreshed: false,
            });
        }

        // Fig. 1 step 7: divert to a leaf-set neighbor with free space.
        // Skipped outright once no store in the cluster has space left —
        // the scan could only come up empty.
        if self.cfg.diversion && free_nodes > 0 {
            let diversion_target = self
                .overlay
                .state(root)
                .expect("root is live")
                .leaf_iter()
                .find(|n| self.nodes.get(&n.0).is_some_and(ClientCacheNode::has_free_space));
            if let Some(b) = diversion_target {
                let bn = self.nodes.get_mut(&b.0).expect("leaf member is live");
                let evicted = bn.store.insert_with_cost(object, cost, 1.0);
                debug_assert!(evicted.is_none());
                bn.hosted_for.insert(object, root);
                if !bn.has_free_space() {
                    self.space_hint = Some(free_nodes - 1);
                }
                let rn = self.nodes.get_mut(&root.0).expect("root is live");
                rn.diverted_to.insert(object, b);
                self.resident += 1;
                self.directory.insert(object);
                self.note_genuine_copy(object);
                self.ledger.diversions += 1;
                self.ledger.store_receipts += 1;
                self.ledger.overlay_messages += 2; // A→B transfer + ack
                self.make_replicas(object, root, b, cost);
                return Some(DestageOutcome {
                    root,
                    stored_at: b,
                    evicted: None,
                    hops,
                    refreshed: false,
                });
            }
        }

        // Fig. 1 step 12: root replaces its minimum-credit object.
        let rn = self.nodes.get_mut(&root.0).expect("root is live");
        let evicted = rn.store.insert_with_cost(object, cost, 1.0);
        let evicted = evicted.expect("full store must evict");
        self.on_node_eviction(root, evicted, sink);
        self.resident += 1;
        self.directory.insert(object);
        self.note_genuine_copy(object);
        self.directory.remove(evicted);
        self.ledger.store_receipts += 1;
        self.make_replicas(object, root, root, cost);
        Some(DestageOutcome {
            root,
            stored_at: root,
            evicted: Some(evicted),
            hops,
            refreshed: false,
        })
    }

    /// Book-keeping when `node` evicts `object` from its store: fix up
    /// diversion pointers and the resident count, reporting the eviction
    /// to `sink`. (Directory updates are the caller's responsibility
    /// since receipts batch them.)
    fn on_node_eviction<S: P2pSink>(&mut self, node: NodeId, object: u128, sink: &mut S) {
        self.resident -= 1;
        let owner = self.nodes.get_mut(&node.0).expect("live node").hosted_for.remove(&object);
        if let Some(owner) = owner {
            // The evicted object was hosted for another root; tell that
            // root to drop its pointer (one overlay message).
            if let Some(on) = self.nodes.get_mut(&owner.0) {
                on.diverted_to.remove(&object);
            }
            self.ledger.overlay_messages += 1;
        }
        // An evicted primary takes its replica set with it (k > 1 only;
        // the maps are empty otherwise).
        let root = owner.unwrap_or(node);
        self.drop_replicas(root, object);
        if S::ENABLED {
            sink.event(P2pEvent::Eviction { pointer_invalidated: owner.is_some() });
        }
    }

    /// Removes every replica copy of `object`, whose replica set is
    /// tracked at `root`. No-op when none exist.
    fn drop_replicas(&mut self, root: NodeId, object: u128) {
        if self.cfg.replication <= 1 {
            // Replica sets only ever come out of `make_replicas`, which is
            // a no-op at k = 1 — skip the two map probes per eviction.
            return;
        }
        let hosts = self.nodes.get_mut(&root.0).and_then(|rn| rn.replicated_to.remove(&object));
        if let Some(hosts) = hosts {
            for h in hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(&object);
                }
            }
        }
    }

    /// Picks up to `want` live leaf-set members of `root` (excluding the
    /// `primary` holder and anything in `exclude`) to host replica
    /// copies. Without domain-spread placement this is exactly the
    /// leaf-set-order walk the cache has always done; with it, nodes
    /// whose failure domain is already covered (by the primary, by
    /// `exclude`, or by an earlier pick) are deferred and only used to
    /// fill leftover slots — so whenever the leaf set offers ≥ k
    /// distinct domains the k copies land in k distinct domains, and
    /// placement degrades gracefully to the plain walk otherwise.
    fn replica_targets(
        &self,
        root: NodeId,
        primary: NodeId,
        want: usize,
        exclude: &[NodeId],
    ) -> Vec<NodeId> {
        let Some(rs) = self.overlay.state(root) else {
            return Vec::new();
        };
        let live = |n: &NodeId| {
            *n != primary
                && !self.overlay.is_crashed(*n)
                && self.nodes.contains_key(&n.0)
                && !exclude.contains(n)
        };
        let spread = self.domains.as_ref().filter(|d| d.spread);
        let Some(dom) = spread else {
            return rs.leaf_iter().filter(live).take(want).collect();
        };
        let mut used: Vec<u32> = Vec::new();
        let note = |d: Option<u32>, used: &mut Vec<u32>| {
            if let Some(d) = d {
                if !used.contains(&d) {
                    used.push(d);
                }
            }
        };
        note(dom.of.get(&primary.0).copied(), &mut used);
        for e in exclude {
            note(dom.of.get(&e.0).copied(), &mut used);
        }
        let mut targets: Vec<NodeId> = Vec::with_capacity(want);
        let mut deferred: Vec<NodeId> = Vec::new();
        for n in rs.leaf_iter().filter(live) {
            if targets.len() >= want {
                break;
            }
            match dom.of.get(&n.0).copied() {
                Some(d) if !used.contains(&d) => {
                    used.push(d);
                    targets.push(n);
                }
                _ => deferred.push(n),
            }
        }
        // Fewer distinct domains than slots: fill from the deferred
        // leaf-set walk in its original order.
        for n in deferred {
            if targets.len() >= want {
                break;
            }
            targets.push(n);
        }
        targets
    }

    /// Stores up to `k - 1` replica copies of `object` at live leaf-set
    /// members of `root` (excluding the `primary` holder), recording the
    /// replica set at `root`. Returns the number of copies made. A strict
    /// no-op when the replication factor is 1.
    fn make_replicas(&mut self, object: u128, root: NodeId, primary: NodeId, credit: f64) -> u32 {
        if self.cfg.replication <= 1 {
            return 0;
        }
        let want = self.cfg.replication - 1;
        let targets = self.replica_targets(root, primary, want, &[]);
        if targets.is_empty() {
            return 0;
        }
        for t in &targets {
            let tn = self.nodes.get_mut(&t.0).expect("target checked live");
            tn.replicas.insert(object, (credit, root));
            self.ledger.overlay_messages += 1; // replica transfer
        }
        let made = targets.len().min(u32::MAX as usize) as u32;
        let prev = self
            .nodes
            .get_mut(&root.0)
            .expect("root is live")
            .replicated_to
            .insert(object, targets);
        debug_assert!(prev.is_none(), "replica set created twice for the same object");
        made
    }

    /// Tops an under-replicated entry back up to the replica floor:
    /// makes fresh copies on live leaf-set members not already holding
    /// one, extending the tracked replica set at `root`. Returns the
    /// number of copies made (0 when already at floor or no targets).
    fn top_up_replicas(&mut self, object: u128, root: NodeId, primary: NodeId, credit: f64) -> u32 {
        if self.cfg.replication <= 1 {
            return 0;
        }
        let existing: Vec<NodeId> = self
            .nodes
            .get(&root.0)
            .and_then(|rn| rn.replicated_to.get(&object))
            .cloned()
            .unwrap_or_default();
        let have = existing.iter().filter(|h| !self.overlay.is_crashed(**h)).count();
        let want = (self.cfg.replication - 1).saturating_sub(have);
        if want == 0 {
            return 0;
        }
        let mut targets = self.replica_targets(root, primary, want, &existing);
        if targets.len() < want
            && root != primary
            && !self.overlay.is_crashed(root)
            && !existing.contains(&root)
            && !targets.contains(&root)
            && self
                .nodes
                .get(&root.0)
                .is_some_and(|rn| !rn.store.contains(object) && !rn.replicas.contains_key(&object))
        {
            // Tiny-cluster last resort: an object diverted away from its
            // root can only reach the floor if the tracking root itself
            // hosts a copy (the root is never in its own leaf set).
            targets.push(root);
        }
        if targets.is_empty() {
            return 0;
        }
        for t in &targets {
            let tn = self.nodes.get_mut(&t.0).expect("target checked live");
            tn.replicas.insert(object, (credit, root));
            self.ledger.overlay_messages += 1; // replica transfer
        }
        let made = targets.len().min(u32::MAX as usize) as u32;
        self.nodes
            .get_mut(&root.0)
            .expect("root is live")
            .replicated_to
            .entry(object)
            .or_default()
            .extend(targets);
        made
    }

    /// Resolves which node actually holds `object`, given its DHT root:
    /// the root itself, or the neighbor its diversion table points at.
    fn holder_of(&self, root: NodeId, object: u128) -> Option<NodeId> {
        let rn = self.nodes.get(&root.0)?;
        if rn.store.contains(object) {
            return Some(root);
        }
        rn.diverted_to.get(&object).copied()
    }

    /// The DHT root `object` would route to — the live node numerically
    /// closest to its objectId, or `None` once the cluster is empty.
    /// Read-only: no routing messages are simulated and no state changes,
    /// so tests and diagnostics can group objects by root without cloning
    /// the whole cache and probing it with [`destage`](Self::destage).
    pub fn root_of(&self, object: u128) -> Option<NodeId> {
        if self.overlay.is_partitioned() {
            // The proxy and its request traffic sit on island A: while
            // the cut is up, "the" root is the island-A owner.
            self.overlay.owner_in_island(object_key(object), true)
        } else {
            self.overlay.owner_of(object_key(object))
        }
    }

    /// Fetches `object` for local client `client`: the proxy redirected
    /// the request into the P2P cache, the client routes to the root and
    /// the holder serves it. Returns `None` when the object is not there
    /// (directory false positive / staleness) — the caller then falls
    /// back to cooperating proxies or the server. `hit_cost` is the
    /// greedy-dual credit refresh applied on a hit.
    pub fn fetch(&mut self, client: u32, object: u128, hit_cost: f64) -> Option<FetchOutcome> {
        self.fetch_tap(client, object, hit_cost, &mut NoSink)
    }

    /// [`fetch`](Self::fetch) with an observability sink: emits one
    /// [`P2pEvent::Lookup`] carrying the hop count and staleness (claim
    /// 13 diagnostics). With [`NoSink`] this is exactly `fetch`.
    pub fn fetch_tap<S: P2pSink>(
        &mut self,
        client: u32,
        object: u128,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<FetchOutcome> {
        self.ledger.lookups += 1;
        if self.fault_mode() {
            self.space_hint = None;
            return self.fetch_churn(client, object, hit_cost, sink);
        }
        let from = self.entry_for_client(client)?;
        let (root, hops) = self.route_to_root(from, object);
        match self.holder_of(root, object) {
            Some(holder) => {
                let extra = usize::from(holder != root);
                self.ledger.overlay_messages += extra as u64;
                let hn = self.nodes.get_mut(&holder.0).expect("holder is live");
                hn.store.touch_with_cost(object, hit_cost, 1.0);
                let hops = hops + extra;
                if S::ENABLED {
                    sink.event(P2pEvent::Lookup {
                        hops: hops.min(u16::MAX as usize) as u16,
                        stale: false,
                    });
                }
                Some(FetchOutcome { holder, hops })
            }
            None => {
                self.stale_miss(object, hops, sink);
                None
            }
        }
    }

    /// The shared stale-lookup tail: the directory approved the fetch but
    /// nothing could serve it. Charges the ledger, removes the entry
    /// (negative feedback keeps an exact directory exact), and emits the
    /// stale [`P2pEvent::Lookup`].
    fn stale_miss<S: P2pSink>(&mut self, object: u128, hops: usize, sink: &mut S) {
        self.ledger.stale_lookups += 1;
        // The invalidation is metadata: retries priced, always delivered
        // (a dropped one would leave the exact directory permanently
        // oversized).
        self.transport_send(MessageClass::DirectoryInvalidate, PROXY_DEST, object, sink);
        self.directory.remove(object);
        // A phantom entry dies with the stale fetch that exposed it —
        // the existing negative feedback is the undefended cluster's
        // only (reactive, after-the-damage) cleanup of forged receipts.
        if let Some(adv) = self.adversary.as_mut() {
            adv.phantoms.remove(&object);
        }
        if S::ENABLED {
            sink.event(P2pEvent::Lookup { hops: hops.min(u16::MAX as usize) as u16, stale: true });
        }
    }

    /// Push-protocol fetch on behalf of a cooperating proxy (§4.5): the
    /// local proxy routes a push *request* to the holder, which opens (or
    /// reuses) a connection to the local proxy and pushes the object; the
    /// local proxy forwards it to the requesting proxy.
    pub fn push_fetch(&mut self, object: u128, hit_cost: f64) -> Option<FetchOutcome> {
        self.push_fetch_tap(object, hit_cost, &mut NoSink)
    }

    /// [`push_fetch`](Self::push_fetch) with an observability sink: the
    /// underlying lookup emits its [`P2pEvent::Lookup`], and a successful
    /// push additionally emits [`P2pEvent::Push`].
    pub fn push_fetch_tap<S: P2pSink>(
        &mut self,
        object: u128,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<FetchOutcome> {
        // The push request enters the overlay at the proxy's designated
        // first client cache.
        let outcome = self.fetch_tap(0, object, hit_cost, sink)?;
        // The holder's push response carries the object body; when it
        // never arrives intact, the cooperating proxy falls back to the
        // server (the holder's greedy-dual touch above stands — it did
        // serve the request, the transfer died afterwards).
        if !self.transport_send(MessageClass::Push, PROXY_DEST, object, sink) {
            return None;
        }
        self.ledger.pushes += 1;
        self.ledger.new_connections += 1; // holder → proxy push channel
        if S::ENABLED {
            sink.event(P2pEvent::Push { hops: outcome.hops.min(u16::MAX as usize) as u16 });
        }
        Some(outcome)
    }

    // ------------------------------------------------------------------
    // Fault-injection machinery: silent crashes, lazy detection, replica
    // promotion, and the liveness-aware request paths.
    // ------------------------------------------------------------------

    /// Crashes a node *silently*: the machine vanishes but nothing is
    /// announced. Peers' leaf sets, the proxy's lookup directory, and the
    /// p2p bookkeeping all keep stale references until some message walks
    /// into the corpse and times out ([`P2pEvent::TimeoutDetected`]).
    pub fn crash_node(&mut self, id: NodeId) -> Result<(), P2pError> {
        self.crash_node_tap(id, &mut NoSink)
    }

    /// [`crash_node`](Self::crash_node) with an observability sink: emits
    /// one [`P2pEvent::NodeCrashed`].
    pub fn crash_node_tap<S: P2pSink>(&mut self, id: NodeId, sink: &mut S) -> Result<(), P2pError> {
        self.space_hint = None;
        self.overlay.crash(id)?;
        if S::ENABLED {
            let at_risk =
                self.nodes.get(&id.0).map_or(0, |n| n.store.len().min(u32::MAX as usize) as u32);
            sink.event(P2pEvent::NodeCrashed { objects_at_risk: at_risk });
        }
        // The machine may have hosted the last live replica copy backing
        // a parked limbo entry. Detection of *this* crash is still lazy,
        // but the ledger is the simulator's ground truth: count the loss
        // at the moment it becomes unrecoverable, not when (or whether)
        // traffic later stumbles into the corpse.
        self.ledger_newly_unrecoverable(sink);
        Ok(())
    }

    /// A node leaves *gracefully*: it announces its departure, hands every
    /// resident object to its new root (carrying the greedy-dual credit),
    /// rewires diversion pointers for objects it rooted elsewhere, and
    /// only then disconnects. Nothing is lost unless the cluster empties.
    pub fn depart_node(&mut self, id: NodeId) -> Result<(), P2pError> {
        self.depart_node_tap(id, &mut NoSink)
    }

    /// [`depart_node`](Self::depart_node) with an observability sink:
    /// emits one [`P2pEvent::NodeDeparted`] carrying the hand-off count.
    pub fn depart_node_tap<S: P2pSink>(
        &mut self,
        id: NodeId,
        sink: &mut S,
    ) -> Result<(), P2pError> {
        self.space_hint = None;
        if self.overlay.is_crashed(id) {
            return Err(P2pError::AlreadyCrashed(id));
        }
        let Some(node) = self.nodes.remove(&id.0) else {
            return Err(P2pError::UnknownNode(id));
        };
        self.overlay.fail(id).expect("overlay membership mirrors the node map");
        if let Some(f) = self.faults.as_mut() {
            f.clear_slow(id);
        }
        self.remap_clients_away_from(id);
        // Replica copies hosted on the departing node: unlink from roots.
        self.unlink_replicas_hosted_by(&node);
        // Objects the departing node rooted but had diverted elsewhere:
        // the primaries survive at their hosts; rewire the pointers. This
        // must happen *before* the hand-off loop below — a hand-off
        // insertion can evict one of those diverted objects from its
        // host, and the eviction bookkeeping needs the pointer to name a
        // live owner (the departing node is already out of the map, so a
        // stale pointer would orphan the replica set and resurrect the
        // directory entry).
        self.rehome_diverted(&node, sink);
        // Hand every primary to its post-departure root.
        let mut handed = 0u32;
        for obj in node.store.keys() {
            let credit = node.store.h_value(obj).expect("key is resident");
            let owner = node.hosted_for.get(&obj).copied();
            if let Some(o) = owner {
                if let Some(on) = self.nodes.get_mut(&o.0) {
                    on.diverted_to.remove(&obj);
                }
            }
            // Hand-off re-replicates fresh at the new root, so consume the
            // old copies.
            let hosts = self.take_replica_set(&node, owner, obj);
            let had_replicas = !hosts.is_empty();
            for h in hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(&obj);
                }
            }
            match self.root_of(obj) {
                None => {
                    // Every remaining node is crashed or gone.
                    self.resident -= 1;
                    self.directory.remove(obj);
                    self.note_lost(obj, had_replicas, sink);
                }
                Some(nr) => {
                    self.ledger.overlay_messages += 1; // hand-off transfer
                    let evicted = {
                        let nn = self.nodes.get_mut(&nr.0).expect("new root is live");
                        nn.store.insert_with_cost(obj, credit, 1.0)
                    };
                    if let Some(ev) = evicted {
                        self.on_node_eviction(nr, ev, sink);
                        self.directory.remove(ev);
                    }
                    handed += 1;
                    self.make_replicas(obj, nr, nr, credit);
                }
            }
        }
        // The departure may have taken the last replica copy of a crash
        // casualty with it: ledger those second-order losses now.
        self.ledger_newly_unrecoverable(sink);
        if self.nodes.is_empty() {
            self.ledger_cluster_wipe(sink);
            self.directory.clear();
            self.limbo.clear();
            if let Some(adv) = self.adversary.as_mut() {
                adv.phantoms.clear();
            }
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeDeparted { objects_handed_off: handed });
        }
        Ok(())
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

    /// A crashed node has been detected: repair the overlay (if the walk
    /// that found it has not already) and reclaim the p2p bookkeeping.
    fn detect_crash<S: P2pSink>(&mut self, dead: NodeId, sink: &mut S) {
        if self.overlay.is_crashed(dead) {
            let _ = self.overlay.fail(dead);
        }
        self.reclaim_node_state(dead, sink);
    }

    /// Reclaims the *membership* state of a detected crash — and only
    /// that, eagerly: the corpse leaves the node map, routes are
    /// invalidated, its clients are remapped, pointers it rooted are
    /// rewired. Its resident objects park in [`limbo`](Self::limbo) with
    /// their surviving replica sets; each is repaired lazily by the first
    /// fetch that walks into its stale directory entry
    /// ([`resolve_limbo`](Self::resolve_limbo)). Objects with no
    /// surviving copy are counted lost now (they cannot come back), but
    /// the proxy only learns when it next asks. Emits
    /// [`P2pEvent::NodeFailed`] with that lost count.
    fn reclaim_node_state<S: P2pSink>(&mut self, dead: NodeId, sink: &mut S) {
        let Some(node) = self.nodes.remove(&dead.0) else {
            // Already reclaimed (two walks can detect the same crash).
            return;
        };
        if let Some(f) = self.faults.as_mut() {
            f.clear_slow(dead);
        }
        let mut objects_lost = 0u32;
        // Primaries stored on the corpse: park in limbo. The root that
        // detected the crash drops its pointer; the directory entry
        // deliberately stays stale (nobody told the proxy).
        for obj in node.store.keys() {
            let owner = node.hosted_for.get(&obj).copied();
            if let Some(o) = owner {
                if let Some(on) = self.nodes.get_mut(&o.0) {
                    on.diverted_to.remove(&obj);
                }
            }
            let hosts = self.take_replica_set(&node, owner, obj);
            self.resident -= 1;
            // Split-brain duplicate: the proxy's side of the ring still
            // reaches a live primary (the corpse held the other island's
            // copy). Nothing is at risk — consume the dead copy's replica
            // bookkeeping instead of parking a limbo entry no heal-time
            // branch would ever clear.
            if self.has_live_primary(obj) {
                self.consume_replicas(&hosts, obj);
                continue;
            }
            if hosts.is_empty() {
                objects_lost += 1;
                self.note_lost(obj, false, sink);
            }
            self.limbo.insert(obj, hosts);
        }
        // Replica copies the corpse hosted: unlink from their roots.
        self.unlink_replicas_hosted_by(&node);
        // Objects the corpse rooted but had diverted to other hosts.
        objects_lost += self.rehome_diverted(&node, sink);
        self.remap_clients_away_from(dead);
        // The corpse may have hosted the last replica copy of an older
        // crash casualty: ledger those second-order losses now.
        self.ledger_newly_unrecoverable(sink);
        if self.nodes.is_empty() {
            self.ledger_cluster_wipe(sink);
            self.directory.clear();
            self.limbo.clear();
            if let Some(adv) = self.adversary.as_mut() {
                adv.phantoms.clear();
            }
            debug_assert_eq!(self.resident, 0);
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeFailed { objects_lost });
        }
    }

    /// Takes the replica set for `obj` whose primary sat on the removed
    /// `node`: tracked on `node` itself when it was the root, or on the
    /// (possibly still-live) `owner` root when the object was diverted in.
    fn take_replica_set(
        &mut self,
        node: &ClientCacheNode,
        owner: Option<NodeId>,
        obj: u128,
    ) -> Vec<NodeId> {
        match owner {
            None => node.replicated_to.get(&obj).cloned().unwrap_or_default(),
            Some(o) => self
                .nodes
                .get_mut(&o.0)
                .and_then(|on| on.replicated_to.remove(&obj))
                .unwrap_or_default(),
        }
    }

    /// Unlinks every replica copy hosted by the removed `node` from the
    /// roots that tracked it.
    fn unlink_replicas_hosted_by(&mut self, node: &ClientCacheNode) {
        for (obj, (_credit, root)) in &node.replicas {
            if let Some(rn) = self.nodes.get_mut(&root.0) {
                if let Some(hs) = rn.replicated_to.get_mut(obj) {
                    hs.retain(|h| *h != node.id);
                    if hs.is_empty() {
                        rn.replicated_to.remove(obj);
                    }
                }
            }
        }
    }

    /// For each object the removed `node` rooted but had diverted to a
    /// host: if the host still lives the primary survives — rewire the
    /// pointer to the object's new root and keep the replica tracking; if
    /// the host is gone too, promote a replica or lose the object.
    /// Returns the number of objects lost.
    fn rehome_diverted<S: P2pSink>(&mut self, node: &ClientCacheNode, sink: &mut S) -> u32 {
        let mut objects_lost = 0u32;
        for (obj, host) in &node.diverted_to {
            let hosts = node.replicated_to.get(obj).cloned().unwrap_or_default();
            let host_live = !self.overlay.is_crashed(*host) && self.nodes.contains_key(&host.0);
            if host_live {
                let nr = self.root_of(*obj).expect("host is live, so the overlay is non-empty");
                if nr == *host {
                    self.nodes.get_mut(&host.0).expect("live").hosted_for.remove(obj);
                } else {
                    self.nodes.get_mut(&host.0).expect("live").hosted_for.insert(*obj, nr);
                    self.nodes.get_mut(&nr.0).expect("live").diverted_to.insert(*obj, *host);
                    self.ledger.overlay_messages += 1; // pointer repair
                }
                // A stale fetch between the crash and this detection may
                // have flushed the directory entry.
                if !self.directory.contains(*obj) {
                    self.directory.insert(*obj);
                }
                self.note_genuine_copy(*obj);
                if !hosts.is_empty() {
                    // Move the replica tracking to the new root and retag
                    // each copy.
                    for h in &hosts {
                        if let Some(hn) = self.nodes.get_mut(&h.0) {
                            if let Some(e) = hn.replicas.get_mut(obj) {
                                e.1 = nr;
                            }
                        }
                    }
                    self.nodes.get_mut(&nr.0).expect("live").replicated_to.insert(*obj, hosts);
                }
            } else {
                // The primary died with its (also crashed / gone) host.
                let had_primary = match self.nodes.get_mut(&host.0) {
                    Some(hn) => {
                        let removed = hn.store.remove(*obj);
                        hn.hosted_for.remove(obj);
                        removed
                    }
                    // Host already reclaimed: the object was fully handled
                    // (promoted or lost) when the host went.
                    None => continue,
                };
                if had_primary {
                    // The primary died with its (also crashed) host: park
                    // in limbo like any other crash casualty — the stale
                    // directory entry waits for the next fetch.
                    self.resident -= 1;
                    if self.has_live_primary(*obj) {
                        // Split-brain duplicate (see reclaim_node_state):
                        // a live primary still serves the entry.
                        self.consume_replicas(&hosts, *obj);
                        continue;
                    }
                    if hosts.is_empty() {
                        objects_lost += 1;
                        self.note_lost(*obj, false, sink);
                    }
                    self.limbo.insert(*obj, hosts);
                } else {
                    // Dangling pointer (should not happen): just consume
                    // any replica bookkeeping.
                    for h in hosts {
                        if let Some(hn) = self.nodes.get_mut(&h.0) {
                            hn.replicas.remove(obj);
                        }
                    }
                    self.directory.remove(*obj);
                }
            }
        }
        objects_lost
    }

    /// Promotes the first live replica of `object` to a primary, rewires
    /// the diversion pointer from its new root, and restores the
    /// replication factor ([`P2pEvent::Rereplicated`]). All old replica
    /// entries are consumed. Returns the promoted holder and the number
    /// of fresh replica copies made, or `None` when no live replica
    /// exists — the caller then accounts the object as lost.
    fn promote_or_lose<S: P2pSink>(
        &mut self,
        object: u128,
        hosts: Vec<NodeId>,
        sink: &mut S,
    ) -> Option<(NodeId, u32)> {
        let mut chosen: Option<(NodeId, f64)> = None;
        for h in hosts {
            let crashed = self.overlay.is_crashed(h);
            let Some(hn) = self.nodes.get_mut(&h.0) else { continue };
            let Some((credit, _root)) = hn.replicas.remove(&object) else { continue };
            if !crashed && chosen.is_none() {
                chosen = Some((h, credit));
            }
        }
        let (h, credit) = chosen?;
        // The promotion re-home is metadata riding the repair protocol:
        // retries are priced, but it always lands — dropping it would
        // strand the promoted replica outside the root's bookkeeping.
        self.transport_send(MessageClass::ReplicaRehome, h.0, object, sink);
        let evicted = {
            let hn = self.nodes.get_mut(&h.0).expect("chosen host is live");
            hn.store.insert_with_cost(object, credit, 1.0)
        };
        if let Some(ev) = evicted {
            self.on_node_eviction(h, ev, sink);
            self.directory.remove(ev);
        }
        let new_root = self.root_of(object).unwrap_or(h);
        if new_root != h {
            self.nodes.get_mut(&new_root.0).expect("root is live").diverted_to.insert(object, h);
            self.nodes.get_mut(&h.0).expect("live").hosted_for.insert(object, new_root);
            self.ledger.overlay_messages += 1; // pointer update
        }
        self.ledger.overlay_messages += 1; // promotion transfer
                                           // A stale fetch between the crash and this detection may have
                                           // flushed the directory entry; the object is reachable again.
        if !self.directory.contains(object) {
            self.directory.insert(object);
        }
        self.note_genuine_copy(object);
        // The promotion moved the object's authority: stamp the entry.
        self.directory.bump_epoch(object);
        let copies = self.make_replicas(object, new_root, h, credit);
        self.ledger.rereplications += 1;
        if S::ENABLED {
            sink.event(P2pEvent::Rereplicated { copies });
        }
        Some((h, copies))
    }

    /// Remaps clients whose entry node is `dead` to some surviving node
    /// (preferring live ones; a crashed-but-undetected fallback will be
    /// detected on first use). Clears the mapping when nobody is left.
    fn remap_clients_away_from(&mut self, dead: NodeId) {
        if self.node_of_client.iter().all(|s| *s != dead) {
            return;
        }
        let fallback = self.overlay.node_ids().next().or_else(|| self.overlay.crashed_ids().next());
        match fallback {
            Some(f) => {
                for slot in &mut self.node_of_client {
                    if *slot == dead {
                        *slot = f;
                    }
                }
            }
            None => self.node_of_client.clear(),
        }
    }

    /// Resolves a live entry node for `client`, paying a timeout (and
    /// triggering detection) for every crashed entry found on the way.
    /// `None` once the cluster is exhausted.
    fn live_entry<S: P2pSink>(&mut self, client: u32, sink: &mut S) -> Option<NodeId> {
        loop {
            let e = self.entry_for_client(client)?;
            if self.overlay.is_crashed(e) {
                // The client's own cache machine is dead: the proxy times
                // out on it, detection kicks in, and the client is remapped.
                self.note_timeout(true, sink);
                self.detect_crash(e, sink);
                continue;
            }
            if !self.overlay.contains(e) {
                // Mapping points at a node that vanished entirely
                // (defensive); remap without a timeout.
                self.remap_clients_away_from(e);
                if self.entry_for_client(client) == Some(e) {
                    return None;
                }
                continue;
            }
            return Some(e);
        }
    }

    /// Walks the overlay with liveness detection and message loss,
    /// charging hops, timeouts, and detections, and reclaiming whatever
    /// the walk discovered. Returns the surviving destination root and
    /// the hop count.
    fn route_churn<S: P2pSink>(
        &mut self,
        entry: NodeId,
        object: u128,
        sink: &mut S,
    ) -> (NodeId, usize) {
        let cr = {
            let mut lose_src = self.faults.as_mut();
            self.overlay.route_detecting(entry, object_key(object), move || {
                lose_src.as_deref_mut().is_some_and(NetFaults::lose)
            })
        }
        .expect("entry node is live");
        self.ledger.overlay_messages += cr.hops as u64;
        let detections = cr.detected.len();
        for _ in 0..detections {
            self.note_timeout(true, sink);
        }
        for _ in 0..cr.timeouts.saturating_sub(detections) {
            self.note_timeout(false, sink);
        }
        for d in &cr.detected {
            self.detect_crash(*d, sink);
        }
        (cr.destination, cr.hops)
    }

    /// The liveness-aware fetch path (fault mode): routes with detection,
    /// survives stale diversion pointers via replica promotion, and
    /// degrades to `None` (proxy → server fallback) when the object is
    /// truly gone.
    fn fetch_churn<S: P2pSink>(
        &mut self,
        client: u32,
        object: u128,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<FetchOutcome> {
        let entry = self.live_entry(client, sink)?;
        let (root, hops) = self.route_churn(entry, object, sink);
        match self.holder_of(root, object) {
            Some(holder) if !self.overlay.is_crashed(holder) => {
                self.serve_from(holder, root, hops, object, hit_cost, sink)
            }
            Some(holder) => {
                // The root's diversion pointer targets a silently dead
                // host. Detection parks the corpse's objects in limbo;
                // the limbo retry pays the stale-hit timeout and promotes
                // this object's replica (or gives up and degrades).
                self.detect_crash(holder, sink);
                match self.resolve_limbo(root, object, hops, hit_cost, sink) {
                    Some(outcome) => outcome,
                    None => {
                        // Defensive: the pointer dangled with no limbo
                        // entry (corpse reclaimed out from under it).
                        self.stale_miss(object, hops, sink);
                        None
                    }
                }
            }
            None => match self.resolve_limbo(root, object, hops, hit_cost, sink) {
                Some(outcome) => outcome,
                None => {
                    // The root knows nothing — either a plain stale
                    // lookup, or an orphaned replica survives in the
                    // leaf set.
                    if let Some(rescued) = self.replica_rescue(root, object, sink) {
                        self.ledger.stale_hits += 1;
                        if S::ENABLED {
                            sink.event(P2pEvent::StaleDirectoryHit { replica_served: true });
                        }
                        self.serve_from(rescued, root, hops, object, hit_cost, sink)
                    } else {
                        self.stale_miss(object, hops, sink);
                        None
                    }
                }
            },
        }
    }

    /// The stale-directory retry path: `object`'s primary died with an
    /// already-detected crash and is parked in limbo. The directory (and
    /// the root's records) still named the dead holder, so the contact
    /// times out — the cost of lazy repair — then the leaf-set replicas
    /// are tried in order. A surviving copy is promoted back to primary,
    /// restoring the replication factor; with none left the stale entry
    /// is flushed and the caller degrades to the proxy → server path.
    /// Outer `None` means `object` was not in limbo at all.
    fn resolve_limbo<S: P2pSink>(
        &mut self,
        root: NodeId,
        object: u128,
        hops: usize,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<Option<FetchOutcome>> {
        let hosts = self.limbo.remove(&object)?;
        let had_replicas = !hosts.is_empty();
        self.note_timeout(true, sink);
        self.ledger.stale_hits += 1;
        match self.promote_or_lose(object, hosts, sink) {
            Some((holder, _copies)) => {
                self.resident += 1; // the object is reachable again
                if S::ENABLED {
                    sink.event(P2pEvent::StaleDirectoryHit { replica_served: true });
                }
                Some(self.serve_from(holder, root, hops, object, hit_cost, sink))
            }
            None => {
                self.note_lost(object, had_replicas, sink);
                if S::ENABLED {
                    sink.event(P2pEvent::StaleDirectoryHit { replica_served: false });
                }
                self.stale_miss(object, hops, sink);
                Some(None)
            }
        }
    }

    /// A fresh copy of `object` is entering the cluster: any limbo state
    /// a crash left behind is superseded — drop the parked replica set
    /// and the copies it names.
    fn forget_limbo(&mut self, object: u128) {
        if let Some(hosts) = self.limbo.remove(&object) {
            for h in hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(&object);
                }
            }
        }
    }

    /// Serves `object` from `holder`, charging the diversion-pointer hop
    /// and a slow-node stall when applicable. Returns `None` when the
    /// holder refuses the fetch (free-rider / forger) or is a garbler
    /// whose response failed its payload checksum — the requester pays a
    /// timeout and degrades to the server, but the directory entry
    /// stands (the object really is resident there).
    fn serve_from<S: P2pSink>(
        &mut self,
        holder: NodeId,
        root: NodeId,
        base_hops: usize,
        object: u128,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<FetchOutcome> {
        let extra = usize::from(holder != root);
        self.ledger.overlay_messages += extra as u64;
        // A free-rider or forger ignores the fetch outright: it spends
        // no upstream bandwidth serving neighbors (and a forger may not
        // even hold what its receipts claim). The requester times out
        // and degrades to the server; the copy stays resident and the
        // directory entry stands, so every future fetch pays again —
        // unless the armed defense treats the refusal as a failed
        // possession challenge and strikes the node toward quarantine.
        let refused = self.adversary.as_ref().is_some_and(|adv| {
            matches!(adv.behavior_of(holder), Behavior::FreeRider | Behavior::Forger { .. })
        });
        if refused {
            self.note_timeout(false, sink);
            if self.adversary.as_ref().is_some_and(|adv| adv.audit_rate > 0.0) {
                self.ledger.audits_failed += 1;
                let adv = self.adversary.as_mut().expect("refusal implies adversary mode");
                let strikes = adv.strikes.entry(holder.0).or_insert(0);
                *strikes += 1;
                let strikes = *strikes;
                let limit = adv.strike_limit;
                if S::ENABLED {
                    sink.event(P2pEvent::AuditFailed { strikes });
                }
                if strikes >= limit {
                    self.quarantine_node(holder, sink);
                }
            }
            return None;
        }
        // A garbler acks the fetch, then sends garbage: the XXH64
        // payload checksum catches it, the requester times out waiting
        // for a clean copy that never comes, and — with the defense on —
        // the caught lie is a strike, same ledger as a failed audit.
        let garbled = match self.adversary.as_mut() {
            Some(adv) => match adv.behavior_of(holder) {
                Behavior::Garbler { rate_pm } => adv.draws.unit() < f64::from(rate_pm) / 1000.0,
                _ => false,
            },
            None => false,
        };
        if garbled {
            self.ledger.checksum_failures += 1;
            if S::ENABLED {
                sink.event(P2pEvent::ChecksumFailed { class: "fetch_response" });
            }
            self.note_timeout(false, sink);
            if self.adversary.as_ref().is_some_and(|adv| adv.audit_rate > 0.0) {
                self.ledger.audits_failed += 1;
            }
            let adv = self.adversary.as_mut().expect("garbled implies adversary mode");
            if adv.audit_rate > 0.0 {
                let strikes = adv.strikes.entry(holder.0).or_insert(0);
                *strikes += 1;
                let strikes = *strikes;
                let limit = adv.strike_limit;
                if S::ENABLED {
                    sink.event(P2pEvent::AuditFailed { strikes });
                }
                if strikes >= limit {
                    self.quarantine_node(holder, sink);
                }
            }
            return None;
        }
        let hn = self.nodes.get_mut(&holder.0).expect("holder is live");
        hn.store.touch_with_cost(object, hit_cost, 1.0);
        if self.faults.as_ref().is_some_and(|f| f.is_slow(holder)) {
            self.note_timeout(false, sink);
        }
        let hops = base_hops + extra;
        if S::ENABLED {
            sink.event(P2pEvent::Lookup { hops: hops.min(u16::MAX as usize) as u16, stale: false });
        }
        Some(FetchOutcome { holder, hops })
    }

    /// Last-resort probe of the root's leaf set for a surviving replica
    /// (or stray primary) of `object` — the belt-and-braces path for
    /// copies whose tracking is buried on a crashed-but-undetected old
    /// root. Probing a crashed member times out and triggers detection
    /// (whose reclaim promotes tracked replicas properly); a true orphan
    /// is promoted directly under `root`. Only meaningful when k > 1.
    fn replica_rescue<S: P2pSink>(
        &mut self,
        root: NodeId,
        object: u128,
        sink: &mut S,
    ) -> Option<NodeId> {
        if self.cfg.replication <= 1 {
            return None;
        }
        let members: Vec<NodeId> = self.overlay.state(root)?.leaf_iter().collect();
        for m in members {
            if self.overlay.is_crashed(m) {
                self.note_timeout(true, sink);
                self.detect_crash(m, sink);
                // Detection may have promoted the object straight back
                // under its root.
                if let Some(h) = self.holder_of(root, object) {
                    if !self.overlay.is_crashed(h) {
                        return Some(h);
                    }
                }
                continue;
            }
            let Some(mn) = self.nodes.get(&m.0) else { continue };
            self.ledger.overlay_messages += 1; // probe
            if mn.store.contains(object) {
                // A stray primary whose old root died before detection:
                // rewire the pointer from the current root.
                self.nodes.get_mut(&m.0).expect("live").hosted_for.insert(object, root);
                self.nodes.get_mut(&root.0).expect("live").diverted_to.insert(object, m);
                if !self.directory.contains(object) {
                    self.directory.insert(object);
                }
                self.note_genuine_copy(object);
                self.ledger.overlay_messages += 1;
                return Some(m);
            }
            let Some(&(credit, r)) = mn.replicas.get(&object) else { continue };
            if self.nodes.contains_key(&r.0) {
                // The tracking root still has state. It must have crashed
                // (a live root would have answered the routed lookup);
                // detect it and let the reclaim promote the replica with
                // full bookkeeping.
                if self.overlay.is_crashed(r) {
                    self.note_timeout(true, sink);
                    self.detect_crash(r, sink);
                    if let Some(h) = self.holder_of(root, object) {
                        if !self.overlay.is_crashed(h) {
                            return Some(h);
                        }
                    }
                }
                continue;
            }
            // True orphan: the tracking died with its root, and the object
            // was accounted lost. Promote this copy under `root`.
            self.nodes.get_mut(&m.0).expect("live").replicas.remove(&object);
            let evicted = {
                let mn = self.nodes.get_mut(&m.0).expect("live");
                mn.store.insert_with_cost(object, credit, 1.0)
            };
            if let Some(ev) = evicted {
                self.on_node_eviction(m, ev, sink);
                self.directory.remove(ev);
            }
            self.resident += 1; // the object is reachable again
            self.nodes.get_mut(&root.0).expect("live").diverted_to.insert(object, m);
            self.nodes.get_mut(&m.0).expect("live").hosted_for.insert(object, root);
            if !self.directory.contains(object) {
                self.directory.insert(object);
            }
            self.note_genuine_copy(object);
            // The orphan promotion moved the object's authority.
            self.directory.bump_epoch(object);
            self.ledger.overlay_messages += 1;
            self.ledger.rereplications += 1;
            if S::ENABLED {
                sink.event(P2pEvent::Rereplicated { copies: 0 });
            }
            return Some(m);
        }
        None
    }

    /// The liveness-aware destage path (fault mode): mirrors
    /// [`destage_inner`](Self::destage_inner) but routes with detection
    /// and never hands an object to a dead node.
    fn destage_churn<S: P2pSink>(
        &mut self,
        object: u128,
        cost: f64,
        via_client: Option<u32>,
        sink: &mut S,
    ) -> Option<DestageOutcome> {
        let entry = self.live_entry(via_client.unwrap_or(0), sink)?;
        // The destage payload crosses the wire first. A copy that never
        // arrives intact (lost, or quarantined after failing its checksum
        // every attempt) simply is not cached — lossy but safe: nothing
        // was mutated, the proxy's eviction stands, and the next request
        // for the object is an ordinary miss.
        if !self.transport_send(MessageClass::Destage, entry.0, object, sink) {
            return None;
        }
        match via_client {
            Some(_) => self.ledger.piggybacked_objects += 1,
            None => {
                self.ledger.direct_destages += 1;
                self.ledger.new_connections += 1;
            }
        }
        let (root, hops) = self.route_churn(entry, object, sink);

        // Refresh path, surviving a stale pointer to a dead holder.
        match self.holder_of(root, object) {
            Some(h) if !self.overlay.is_crashed(h) => {
                self.nodes
                    .get_mut(&h.0)
                    .expect("holder is live")
                    .store
                    .touch_with_cost(object, cost, 1.0);
                return Some(DestageOutcome {
                    root,
                    stored_at: h,
                    evicted: None,
                    hops,
                    refreshed: true,
                });
            }
            Some(h) => {
                self.note_timeout(true, sink);
                self.detect_crash(h, sink);
                // Fall through to a fresh store: the incoming copy
                // supersedes whatever the corpse held (limbo state is
                // dropped just below).
            }
            None => {}
        }

        // The fresh copy supersedes any limbo state a crash left behind
        // (either pre-existing or created by the detection just above).
        self.forget_limbo(object);

        // A free-riding or forging root accepts the destage and sends
        // the store receipt like everyone else — then silently discards
        // the object (a forger never holds what it claims; a free-rider
        // keeps its space for itself). The proxy's directory gains a
        // phantom entry the node will never back; only a stale fetch
        // (negative feedback), a failed possession audit, or quarantine
        // ever cleans it up.
        let fakes_receipt = self.adversary.as_ref().is_some_and(|adv| {
            matches!(adv.behavior_of(root), Behavior::FreeRider | Behavior::Forger { .. })
        });
        if fakes_receipt {
            self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, object, sink);
            self.directory.insert(object);
            self.ledger.store_receipts += 1;
            self.adversary
                .as_mut()
                .expect("faked receipt implies adversary mode")
                .phantoms
                .insert(object, root);
            self.audit_receipt(object, root, false, sink);
            return Some(DestageOutcome {
                root,
                stored_at: root,
                evicted: None,
                hops,
                refreshed: false,
            });
        }

        // Fresh store at the root.
        if self.nodes.get(&root.0).expect("root is live").has_free_space() {
            let rn = self.nodes.get_mut(&root.0).expect("root is live");
            let evicted = rn.store.insert_with_cost(object, cost, 1.0);
            debug_assert!(evicted.is_none());
            self.resident += 1;
            // The store receipt (directory update) is metadata on the
            // reliable client↔proxy channel: retries are priced, but it
            // always lands — a dropped receipt would desynchronize the
            // directory from residency.
            self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, object, sink);
            self.directory.insert(object);
            self.ledger.store_receipts += 1;
            self.note_genuine_copy(object);
            self.audit_receipt(object, root, true, sink);
            self.make_replicas(object, root, root, cost);
            return Some(DestageOutcome {
                root,
                stored_at: root,
                evicted: None,
                hops,
                refreshed: false,
            });
        }

        // Diversion — the root's (possibly stale) leaf-set knowledge can
        // pick a crashed neighbor: the transfer times out, detection
        // repairs, and the root retries with fresher knowledge.
        if self.cfg.diversion {
            loop {
                // Free-riders refuse to host diversions for neighbors;
                // the scan skips them outright (asking would just get a
                // "no space" lie back).
                let cand = self.overlay.state(root).expect("root is live").leaf_iter().find(|n| {
                    self.nodes.get(&n.0).is_some_and(ClientCacheNode::has_free_space)
                        && !self.is_freerider(*n)
                });
                let Some(b) = cand else { break };
                if self.overlay.is_crashed(b) {
                    self.note_timeout(true, sink);
                    self.detect_crash(b, sink);
                    continue;
                }
                // The root→neighbor diversion transfer carries the object
                // body; when it never arrives intact, the root gives up
                // on diverting and replaces locally (the fallback below).
                if !self.transport_send(MessageClass::Diversion, b.0, object, sink) {
                    break;
                }
                let bn = self.nodes.get_mut(&b.0).expect("leaf member is live");
                let evicted = bn.store.insert_with_cost(object, cost, 1.0);
                debug_assert!(evicted.is_none());
                bn.hosted_for.insert(object, root);
                let rn = self.nodes.get_mut(&root.0).expect("root is live");
                rn.diverted_to.insert(object, b);
                self.resident += 1;
                self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, object, sink);
                self.directory.insert(object);
                self.ledger.diversions += 1;
                self.ledger.store_receipts += 1;
                self.ledger.overlay_messages += 2; // A→B transfer + ack
                self.note_genuine_copy(object);
                self.audit_receipt(object, b, true, sink);
                self.make_replicas(object, root, b, cost);
                return Some(DestageOutcome {
                    root,
                    stored_at: b,
                    evicted: None,
                    hops,
                    refreshed: false,
                });
            }
        }

        // Replace at the root.
        let rn = self.nodes.get_mut(&root.0).expect("root is live");
        let evicted = rn.store.insert_with_cost(object, cost, 1.0);
        let evicted = evicted.expect("full store must evict");
        self.on_node_eviction(root, evicted, sink);
        self.resident += 1;
        self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, object, sink);
        self.directory.insert(object);
        self.directory.remove(evicted);
        self.ledger.store_receipts += 1;
        self.note_genuine_copy(object);
        self.audit_receipt(object, root, true, sink);
        // A receipt forger watching the replacement traffic can re-claim
        // the dropped entry with a forged receipt of its own.
        self.maybe_forge_reclaim(evicted, sink);
        self.make_replicas(object, root, root, cost);
        Some(DestageOutcome {
            root,
            stored_at: root,
            evicted: Some(evicted),
            hops,
            refreshed: false,
        })
    }

    /// A directory entry for `evicted` was just dropped (Fig. 1 step
    /// 14). Each live receipt forger, in cacheId order, flips its forge
    /// coin; the first success sends a store receipt for the object it
    /// never held, re-poisoning the lookup directory with a phantom
    /// entry attributed to the forger — and runs straight into the audit
    /// defense when it is on.
    fn maybe_forge_reclaim<S: P2pSink>(&mut self, evicted: u128, sink: &mut S) {
        let forgers: Vec<(u128, u16)> = match self.adversary.as_ref() {
            Some(adv) => adv
                .behaviors
                .iter()
                .filter_map(|(id, b)| match b {
                    Behavior::Forger { rate_pm } => Some((*id, *rate_pm)),
                    _ => None,
                })
                .collect(),
            None => return,
        };
        let mut claimant: Option<NodeId> = None;
        for (id, rate_pm) in forgers {
            let n = NodeId(id);
            if !self.nodes.contains_key(&id) || self.overlay.is_crashed(n) {
                continue;
            }
            let adv = self.adversary.as_mut().expect("forgers imply adversary mode");
            if adv.draws.unit() < f64::from(rate_pm) / 1000.0 {
                claimant = Some(n);
                break;
            }
        }
        let Some(forger) = claimant else { return };
        // The forged receipt is indistinguishable from a real one: it
        // rides the same metadata channel and lands in the directory.
        self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, evicted, sink);
        self.directory.insert(evicted);
        self.ledger.store_receipts += 1;
        self.adversary
            .as_mut()
            .expect("forger implies adversary mode")
            .phantoms
            .insert(evicted, forger);
        self.audit_receipt(evicted, forger, false, sink);
    }

    /// Simulates a client machine failing with an *announced* failure:
    /// its cache contents are lost and the overlay repairs immediately.
    /// Directory entries for lost objects are flushed (the proxy learns
    /// of the failure by timeout). Unknown ids return a typed error
    /// instead of panicking, and failing the last node empties the
    /// cluster cleanly.
    pub fn fail_node(&mut self, id: NodeId) -> Result<(), P2pError> {
        self.fail_node_tap(id, &mut NoSink)
    }

    /// [`fail_node`](Self::fail_node) with an observability sink: emits
    /// one [`P2pEvent::NodeFailed`] carrying the number of objects lost.
    pub fn fail_node_tap<S: P2pSink>(&mut self, id: NodeId, sink: &mut S) -> Result<(), P2pError> {
        self.space_hint = None;
        let Some(node) = self.nodes.remove(&id.0) else {
            return Err(P2pError::UnknownNode(id));
        };
        let mut objects_lost = 0u32;
        // Objects stored here are gone (announced failure loses state; it
        // is detection via `crash_node` that rescues replicas). `node` is
        // owned (already removed from the map), so its store can be walked
        // in heap order without snapshotting the keys into a Vec first.
        for obj in node.store.keys() {
            self.resident -= 1;
            objects_lost += 1;
            self.directory.remove(obj);
            let owner = node.hosted_for.get(&obj).copied();
            if let Some(o) = owner {
                if let Some(on) = self.nodes.get_mut(&o.0) {
                    on.diverted_to.remove(&obj);
                }
            }
            // The primary is lost, so its replica copies are dead weight.
            let hosts = self.take_replica_set(&node, owner, obj);
            let had_replicas = !hosts.is_empty();
            for h in hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(&obj);
                }
            }
            self.note_lost(obj, had_replicas, sink);
        }
        // Replica copies this node hosted: unlink from their roots.
        self.unlink_replicas_hosted_by(&node);
        // Objects this node had diverted elsewhere lose their pointers
        // with the node, making them unreachable; drop them from their
        // hosts and the directory.
        for (obj, host) in &node.diverted_to {
            self.directory.remove(*obj);
            let mut dropped = false;
            if let Some(hn) = self.nodes.get_mut(&host.0) {
                if hn.store.remove(*obj) {
                    self.resident -= 1;
                    objects_lost += 1;
                    dropped = true;
                }
                hn.hosted_for.remove(obj);
            }
            let replica_hosts = node.replicated_to.get(obj).cloned().unwrap_or_default();
            let had_replicas = !replica_hosts.is_empty();
            for h in replica_hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(obj);
                }
            }
            if dropped {
                self.note_lost(*obj, had_replicas, sink);
            }
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeFailed { objects_lost });
        }
        // An announced failure also covers a node that had silently
        // crashed earlier (operator removes a corpse): `Overlay::fail`
        // accepts both live and crashed members.
        self.overlay.fail(id).expect("overlay membership mirrors the node map");
        if let Some(f) = self.faults.as_mut() {
            f.clear_slow(id);
        }
        if self.nodes.is_empty() {
            // Last node gone: no entry points remain and exact remove
            // pairing is impossible, so flush wholesale.
            self.ledger_cluster_wipe(sink);
            self.node_of_client.clear();
            self.directory.clear();
            self.limbo.clear();
            if let Some(adv) = self.adversary.as_mut() {
                adv.phantoms.clear();
            }
            debug_assert_eq!(self.resident, 0);
        } else {
            self.remap_clients_away_from(id);
        }
        Ok(())
    }

    /// Joins a new client cache to the cluster mid-run (churn). The new
    /// node becomes an entry point for newly mapped clients, and objects
    /// it is now the numerically closest node for migrate to it eagerly
    /// (PAST-style): without migration, routing-based fetches would miss
    /// objects still resident under their former roots.
    ///
    /// # Panics
    /// Panics if `id` is already a member.
    pub fn join_node(&mut self, id: NodeId) {
        self.join_node_tap(id, &mut NoSink)
    }

    /// [`join_node`](Self::join_node) with an observability sink: emits
    /// one [`P2pEvent::NodeJoined`] carrying the migration count, plus
    /// [`P2pEvent::Eviction`]s for objects displaced by the migration.
    pub fn join_node_tap<S: P2pSink>(&mut self, id: NodeId, sink: &mut S) {
        self.space_hint = None;
        // A rejoining machine can reuse the id of a node that crashed
        // silently and was never detected (same host, rebooted). The
        // reboot announcement *is* the detection: reclaim the corpse's
        // state first so the newcomer starts clean instead of tripping
        // the membership assert or inheriting stale bookkeeping.
        if self.overlay.is_crashed(id) {
            self.detect_crash(id, sink);
            // The old incarnation's replica copies died with it; scrub it
            // from any parked replica-host lists so lazy repair does not
            // chase the fresh, empty cache.
            for hosts in self.limbo.values_mut() {
                hosts.retain(|h| *h != id);
            }
        }
        assert!(!self.nodes.contains_key(&id.0), "node {id} already joined");
        // A rejoining machine is a fresh incarnation: whatever the old
        // one did — strikes, quarantine, a misbehavior assignment — died
        // with it. (Phantom entries it forged keep their attribution
        // until the usual cleanup paths flush them.)
        if let Some(adv) = self.adversary.as_mut() {
            adv.behaviors.remove(&id.0);
            adv.strikes.remove(&id.0);
            adv.quarantined.remove(&id.0);
        }
        let msgs = self.overlay.join(id);
        self.ledger.overlay_messages += msgs as u64;
        self.nodes.insert(id.0, ClientCacheNode::new(id, self.cfg.node_capacity));
        // Newcomers draw a failure domain from the dedicated stream (a
        // rejoining machine keeps whatever domain its id already has —
        // same rack, same subnet).
        if let Some(dom) = self.domains.as_mut() {
            if !dom.of.contains_key(&id.0) {
                let d = dom.draws.pick(dom.count as usize) as u32;
                dom.of.insert(id.0, d);
            }
        }
        self.node_of_client.push(id);

        // Re-home keys whose closest node is now the newcomer, carrying
        // their greedy-dual credit along as the insertion cost.
        let mut moves: Vec<(NodeId, u128, f64)> = Vec::new();
        for node in self.nodes.values() {
            // Crashed-but-undetected nodes cannot take part in migration:
            // their contents surface (or die) at detection time. Nodes
            // across an active partition cut are unreachable outright.
            if node.id == id
                || self.overlay.is_crashed(node.id)
                || !self.overlay.same_island(node.id, id)
            {
                continue;
            }
            for obj in node.store.keys() {
                if self.root_of(obj) == Some(id) {
                    let credit = node.store.h_value(obj).expect("key is resident");
                    moves.push((node.id, obj, credit));
                }
            }
        }
        let objects_migrated = moves.len().min(u32::MAX as usize) as u32;
        for (holder, obj, credit) in moves {
            let hn = self.nodes.get_mut(&holder.0).expect("holder is live");
            hn.store.remove(obj);
            let owner = hn.hosted_for.remove(&obj);
            if let Some(owner) = owner {
                // The object was hosted on a diversion; drop the stale
                // pointer at its former root.
                if let Some(on) = self.nodes.get_mut(&owner.0) {
                    on.diverted_to.remove(&obj);
                }
            }
            // The migrated primary gets a fresh replica set at the new
            // root; consume the old copies.
            let root_old = owner.unwrap_or(holder);
            let hosts = self
                .nodes
                .get_mut(&root_old.0)
                .and_then(|rn| rn.replicated_to.remove(&obj))
                .unwrap_or_default();
            for h in hosts {
                if let Some(hn) = self.nodes.get_mut(&h.0) {
                    hn.replicas.remove(&obj);
                }
            }
            self.resident -= 1;
            self.ledger.overlay_messages += 1; // hand-off to the new root
            let nn = self.nodes.get_mut(&id.0).expect("newcomer is live");
            if let Some(evicted) = nn.store.insert_with_cost(obj, credit, 1.0) {
                self.on_node_eviction(id, evicted, sink);
                self.directory.remove(evicted);
            }
            self.resident += 1;
            self.make_replicas(obj, id, id, credit);
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeJoined { objects_migrated });
        }
    }

    // ------------------------------------------------------------------
    // Network partitions: split-brain overlay islands, epoch-stamped
    // authority, and the heal-time anti-entropy reconciliation sweep.
    // ------------------------------------------------------------------

    /// Every primary copy in the cluster, in object order: object →
    /// (holder, the root it is linked under, greedy-dual credit). Only
    /// meaningful while each object has a single primary (pre-split).
    fn primary_placements(&self) -> BTreeMap<u128, (NodeId, NodeId, f64)> {
        let mut out = BTreeMap::new();
        for node in self.nodes.values() {
            for obj in node.store.keys() {
                let root = node.hosted_for.get(&obj).copied().unwrap_or(node.id);
                let credit = node.store.h_value(obj).expect("key is resident");
                out.insert(obj, (node.id, root, credit));
            }
        }
        out
    }

    /// Drops the replica copies of `obj` held at `hosts` (tracking is
    /// the caller's problem — it has usually been taken already).
    fn consume_replicas(&mut self, hosts: &[NodeId], obj: u128) {
        for h in hosts {
            if let Some(hn) = self.nodes.get_mut(&h.0) {
                hn.replicas.remove(&obj);
            }
        }
    }

    /// Island A's eager repair of a primary stranded across the cut:
    /// consume every island-A replica copy and promote the first live
    /// one with free space, linking it under island A's owner. Returns
    /// the promoted holder and its credit, or `None` when no copy could
    /// be promoted (the caller then flushes the directory entry).
    fn promote_on_island_a<S: P2pSink>(
        &mut self,
        obj: u128,
        hosts: &[NodeId],
        sink: &mut S,
    ) -> Option<(NodeId, f64)> {
        let mut chosen: Option<(NodeId, f64)> = None;
        for &h in hosts {
            let crashed = self.overlay.is_crashed(h);
            let Some(hn) = self.nodes.get_mut(&h.0) else { continue };
            let Some((credit, _root)) = hn.replicas.remove(&obj) else { continue };
            if !crashed && chosen.is_none() && hn.store.has_free_space() {
                chosen = Some((h, credit));
            }
        }
        let (h, credit) = chosen?;
        // The promotion re-home is metadata on island A's side of the
        // cut: retries are priced, but it always lands.
        self.transport_send(MessageClass::ReplicaRehome, h.0, obj, sink);
        let hn = self.nodes.get_mut(&h.0).expect("chosen host is live");
        let evicted = hn.store.insert_with_cost(obj, credit, 1.0);
        debug_assert!(evicted.is_none(), "free space was checked");
        self.resident += 1;
        self.ledger.overlay_messages += 1; // promotion transfer
        let root = self.root_of(obj).expect("island A is non-empty");
        if root != h {
            self.nodes.get_mut(&root.0).expect("root is live").diverted_to.insert(obj, h);
            self.nodes.get_mut(&h.0).expect("live").hosted_for.insert(obj, root);
            self.ledger.overlay_messages += 1; // pointer update
        }
        Some((h, credit))
    }

    /// Island B's independent repair of a primary stranded across the
    /// cut: consume every island-B replica copy and promote the first
    /// live one with free space to a split-brain primary of B's own,
    /// one epoch ahead of the entry it diverged from. B's payload
    /// announcement to the proxy is eaten by the cut (B pays the
    /// timeout); the metadata receipt queues for the heal-time drain.
    fn island_b_promotes<S: P2pSink>(
        &mut self,
        obj: u128,
        hosts: &[NodeId],
        e0: u64,
        split: &mut SplitState,
        sink: &mut S,
    ) {
        let mut chosen: Option<(NodeId, f64)> = None;
        for &h in hosts {
            let crashed = self.overlay.is_crashed(h);
            let Some(hn) = self.nodes.get_mut(&h.0) else { continue };
            let Some((credit, _root)) = hn.replicas.remove(&obj) else { continue };
            if !crashed && chosen.is_none() && hn.store.has_free_space() {
                chosen = Some((h, credit));
            }
        }
        let Some((h, credit)) = chosen else { return };
        let hn = self.nodes.get_mut(&h.0).expect("chosen host is live");
        let evicted = hn.store.insert_with_cost(obj, credit, 1.0);
        debug_assert!(evicted.is_none(), "free space was checked");
        self.resident += 1;
        split.b_index.insert(obj, h);
        split.b_epochs.insert(obj, e0 + 1);
        self.ledger.cut_drops += 1;
        self.note_timeout(false, sink);
        split.pending_cut.push((MessageClass::DirectoryUpdate, obj));
    }

    /// Splits the cluster into two overlay islands, keeping `percent_a`
    /// percent of the live nodes (lowest cacheIds) on the proxy's side
    /// (island A). Each island immediately runs its own repair, exactly
    /// as it would after detecting the other side's "failure": island A
    /// re-homes or replica-promotes primaries stranded on B (bumping
    /// their epochs) or flushes their directory entries; island B keeps
    /// its primaries and promotes its replicas of A-stranded primaries —
    /// deliberately producing split-brain duplicate primaries with
    /// diverging epochs that only the heal-time sweep resolves. Returns
    /// `false` (and changes nothing) when a cut is already up or fewer
    /// than two live nodes remain.
    pub fn partition_nodes<S: P2pSink>(&mut self, percent_a: u8, sink: &mut S) -> bool {
        self.space_hint = None;
        if self.split.is_some() {
            return false;
        }
        // A partition is a membership event: carving the islands walks
        // every member, so corpses nothing has stumbled into yet are
        // detected now. A crashed machine belongs to neither island —
        // classifying its primaries as "stranded on island B" below
        // would hand authority to a machine that no longer exists.
        let mut corpses: Vec<u128> =
            self.nodes.keys().copied().filter(|&k| self.overlay.is_crashed(NodeId(k))).collect();
        corpses.sort_unstable();
        for dead in corpses {
            self.detect_crash(NodeId(dead), sink);
        }
        let mut live: Vec<u128> = self.overlay.node_ids().map(|n| n.0).collect();
        live.sort_unstable();
        let n = live.len();
        if n < 2 {
            return false;
        }
        let pct = usize::from(percent_a.clamp(1, 99));
        let cut = (n * pct / 100).clamp(1, n - 1);
        if !self.overlay.start_partition(live[..cut].iter().map(|&k| NodeId(k))) {
            return false;
        }
        // Clients reach the cluster through the proxy, which sits on
        // island A: remap every entry point stranded across the cut.
        let anchor = NodeId(live[0]);
        for slot in &mut self.node_of_client {
            if !self.overlay.in_island_a(*slot) {
                *slot = anchor;
            }
        }

        let mut split = SplitState::default();
        // Classify every primary once, in object order, then repair both
        // islands' views deterministically.
        for (obj, (holder, root, credit)) in self.primary_placements() {
            let e0 = self.directory.epoch_of(obj);
            let holder_a = self.overlay.in_island_a(holder);
            let root_a = self.overlay.in_island_a(root);
            // Take the replica tracking once; each island rebuilds its
            // own below.
            let hosts = self
                .nodes
                .get_mut(&root.0)
                .and_then(|rn| rn.replicated_to.remove(&obj))
                .unwrap_or_default();
            let (a_hosts, b_hosts): (Vec<NodeId>, Vec<NodeId>) =
                hosts.into_iter().partition(|h| self.overlay.in_island_a(*h));
            match (holder_a, root_a) {
                (true, true) => {
                    if b_hosts.is_empty() {
                        // Untouched by the cut: put the tracking back.
                        if !a_hosts.is_empty() {
                            self.nodes
                                .get_mut(&root.0)
                                .expect("root is live")
                                .replicated_to
                                .insert(obj, a_hosts);
                        }
                        continue;
                    }
                    // Cross-cut replica copies are unreachable: island B
                    // promotes one, island A restores its floor.
                    self.consume_replicas(&a_hosts, obj);
                    self.island_b_promotes(obj, &b_hosts, e0, &mut split, sink);
                    let made = self.make_replicas(obj, root, holder, credit);
                    self.directory.bump_epoch(obj);
                    self.ledger.rereplications += 1;
                    if S::ENABLED {
                        sink.event(P2pEvent::Rereplicated { copies: made });
                    }
                }
                (true, false) => {
                    // Primary on A, rooted across the cut: island A
                    // re-homes it under its own owner (an authority
                    // move); island B promotes a replica if it has one.
                    self.nodes.get_mut(&holder.0).expect("holder is live").hosted_for.remove(&obj);
                    if let Some(rn) = self.nodes.get_mut(&root.0) {
                        rn.diverted_to.remove(&obj);
                    }
                    let new_root = self.root_of(obj).expect("island A is non-empty");
                    if new_root != holder {
                        self.nodes
                            .get_mut(&new_root.0)
                            .expect("root is live")
                            .diverted_to
                            .insert(obj, holder);
                        self.nodes
                            .get_mut(&holder.0)
                            .expect("holder is live")
                            .hosted_for
                            .insert(obj, new_root);
                        self.ledger.overlay_messages += 1; // pointer repair
                    }
                    self.consume_replicas(&a_hosts, obj);
                    self.island_b_promotes(obj, &b_hosts, e0, &mut split, sink);
                    let made = self.make_replicas(obj, new_root, holder, credit);
                    self.directory.bump_epoch(obj);
                    self.ledger.rereplications += 1;
                    if S::ENABLED {
                        sink.event(P2pEvent::Rereplicated { copies: made });
                    }
                }
                (false, _) => {
                    // Primary stranded on island B. B keeps serving it
                    // under its own authority; A promotes a surviving
                    // replica or flushes the directory entry.
                    self.nodes.get_mut(&holder.0).expect("holder is live").hosted_for.remove(&obj);
                    if let Some(rn) = self.nodes.get_mut(&root.0) {
                        rn.diverted_to.remove(&obj);
                    }
                    split.b_index.insert(obj, holder);
                    if e0 > 0 {
                        split.b_epochs.insert(obj, e0);
                    }
                    self.consume_replicas(&b_hosts, obj);
                    if let Some((pa, credit)) = self.promote_on_island_a(obj, &a_hosts, sink) {
                        let new_root = self.root_of(obj).expect("island A is non-empty");
                        let made = self.make_replicas(obj, new_root, pa, credit);
                        self.directory.bump_epoch(obj);
                        self.ledger.rereplications += 1;
                        if S::ENABLED {
                            sink.event(P2pEvent::Rereplicated { copies: made });
                        }
                    } else {
                        // Island A lost every copy; its repair flushed
                        // the entry (the proxy's view stays exact).
                        self.directory.remove(obj);
                    }
                }
            }
        }

        // Crash casualties parked in limbo: island B promotes any
        // replica copies it holds (more split-brain); the island-A
        // hosts stay parked for lazy repair.
        let mut limbo_objs: Vec<u128> = self.limbo.keys().copied().collect();
        limbo_objs.sort_unstable();
        for obj in limbo_objs {
            let hosts = self.limbo.remove(&obj).expect("key was just listed");
            let (a_hosts, b_hosts): (Vec<NodeId>, Vec<NodeId>) =
                hosts.into_iter().partition(|h| self.overlay.in_island_a(*h));
            let e0 = self.directory.epoch_of(obj);
            self.island_b_promotes(obj, &b_hosts, e0, &mut split, sink);
            self.limbo.insert(obj, a_hosts);
        }
        // The cut (and island B's replica consumption above) may have
        // left a parked entry with no live replica on the proxy's side:
        // ledger it now. A heal-time island-B survivor re-arms the entry
        // through note_genuine_copy.
        self.ledger_newly_unrecoverable(sink);

        if S::ENABLED {
            let island_a = self.overlay.island_a_ids().len().min(u32::MAX as usize) as u32;
            let island_b = self.overlay.island_b_ids().len().min(u32::MAX as usize) as u32;
            sink.event(P2pEvent::PartitionStarted { island_a, island_b });
        }
        self.split = Some(split);
        true
    }

    /// Heals an active partition and runs the anti-entropy
    /// reconciliation sweep: per contested object the copy with the
    /// higher epoch wins authority (ties go to island A, whose proxy
    /// served requests throughout), losing split-brain primaries are
    /// demoted to replicas or garbage-collected, island-B-only
    /// survivors re-enter the proxy's directory, every replica floor is
    /// re-established against the merged ring, and the metadata island
    /// B queued at the cut drains through the transport's retry/dedup
    /// machinery. Returns `false` when no partition is active.
    pub fn heal_nodes<S: P2pSink>(&mut self, sink: &mut S) -> bool {
        self.space_hint = None;
        let Some(split) = self.split.take() else { return false };
        let SplitState { b_index: _, b_epochs, pending_cut } = split;
        // Snapshot both islands' placements before the views merge.
        let mut a_place: BTreeMap<u128, (NodeId, f64)> = BTreeMap::new();
        let mut b_place: BTreeMap<u128, (NodeId, f64)> = BTreeMap::new();
        for node in self.nodes.values() {
            if self.overlay.is_crashed(node.id) {
                continue;
            }
            let side = if self.overlay.in_island_a(node.id) { &mut a_place } else { &mut b_place };
            for obj in node.store.keys() {
                let credit = node.store.h_value(obj).expect("key is resident");
                side.insert(obj, (node.id, credit));
            }
        }
        self.overlay.heal_partition();

        // The merged ring invalidates every replica set: scrub them
        // wholesale (crash casualties in limbo keep theirs — lazy
        // repair still owns those) and rebuild each floor below.
        let limbo = &self.limbo;
        for node in self.nodes.values_mut() {
            node.replicas.retain(|obj, _| limbo.contains_key(obj));
            node.replicated_to.clear();
        }

        let mut reconciled = 0u32;
        let mut demoted = 0u32;
        let mut node_ids: Vec<u128> = self.nodes.keys().copied().collect();
        node_ids.sort_unstable();
        let objects: std::collections::BTreeSet<u128> =
            a_place.keys().chain(b_place.keys()).copied().collect();
        for &obj in &objects {
            let a = a_place.get(&obj).copied();
            let b = b_place.get(&obj).copied();
            let a_e = self.directory.epoch_of(obj);
            let b_e = b_epochs.get(&obj).copied().unwrap_or(0);
            let (winner, credit, loser) = match (a, b) {
                (Some((wa, ca)), Some((wb, cb))) => {
                    if b_e > a_e {
                        (wb, cb, Some(wa))
                    } else {
                        (wa, ca, Some(wb))
                    }
                }
                (Some((wa, ca)), None) => (wa, ca, None),
                (None, Some((wb, cb))) => (wb, cb, None),
                (None, None) => unreachable!("object came from a placement map"),
            };
            // Scrub every stale pointer for the object on both islands;
            // the winner is re-linked below.
            for id in &node_ids {
                if let Some(n) = self.nodes.get_mut(id) {
                    n.diverted_to.remove(&obj);
                    n.hosted_for.remove(&obj);
                }
            }
            // The losing split-brain copy gives up its store slot.
            if let Some(l) = loser {
                let ln = self.nodes.get_mut(&l.0).expect("loser held a copy");
                let removed = ln.store.remove(obj);
                debug_assert!(removed, "loser placement was resident");
                self.resident -= 1;
            }
            // Re-link the winner under the merged ring's owner and
            // restore its replica floor. A genuine winner supersedes any
            // phantom attribution a forged receipt left on the entry.
            self.note_genuine_copy(obj);
            self.ledger.overlay_messages += 1; // reconciliation probe
            let root = self.root_of(obj).expect("cluster is non-empty");
            if root != winner {
                self.nodes.get_mut(&root.0).expect("root is live").diverted_to.insert(obj, winner);
                self.nodes.get_mut(&winner.0).expect("winner is live").hosted_for.insert(obj, root);
                self.ledger.overlay_messages += 1; // pointer repair
            }
            self.make_replicas(obj, root, winner, credit);
            if let Some(l) = loser {
                // Demoted to a replica when the floor rebuild picked the
                // loser as a host; garbage-collected outright otherwise.
                let kept = self.nodes.get(&l.0).is_some_and(|ln| ln.replicas.contains_key(&obj));
                demoted += 1;
                self.ledger.primaries_demoted += 1;
                if S::ENABLED {
                    sink.event(P2pEvent::PrimaryDemoted { garbage_collected: !kept });
                }
            }
            if a.is_some() && b.is_some() {
                let e = a_e.max(b_e) + 1;
                self.directory.set_epoch(obj, e);
                reconciled += 1;
                self.ledger.entries_reconciled += 1;
                if S::ENABLED {
                    sink.event(P2pEvent::EntryReconciled { epoch: e });
                }
            } else if b.is_some() {
                // An island-B-only survivor: the proxy learns of it now.
                self.forget_limbo(obj);
                if !self.directory.contains(obj) {
                    self.directory.insert(obj);
                }
                self.directory.set_epoch(obj, b_e);
                reconciled += 1;
                self.ledger.entries_reconciled += 1;
                if S::ENABLED {
                    sink.event(P2pEvent::EntryReconciled { epoch: b_e });
                }
            }
        }

        // Drain the receipts island B queued at the cut through the
        // transport: retries priced, duplicates absorbed by the dedup
        // windows. Their semantic effect was applied by the sweep above.
        for (class, payload) in pending_cut {
            self.transport_send(class, PROXY_DEST, payload, sink);
            self.ledger.cut_drained += 1;
        }
        // The merge-time replica scrub and demotions may have removed
        // the last live copy backing a parked entry: ledger it now.
        self.ledger_newly_unrecoverable(sink);
        if S::ENABLED {
            sink.event(P2pEvent::PartitionHealed { reconciled, demoted });
        }
        true
    }

    /// The convergence oracle's divergence check: once no partition is
    /// active, an exact directory must equal the single-authority
    /// rebuild from ground truth — the set of resident objects plus the
    /// crash casualties still awaiting lazy repair. Returns violations
    /// (empty = converged). Bloom directories cannot be enumerated and
    /// report nothing.
    pub fn directory_divergence(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.is_partitioned() {
            problems.push("partition still active: islands have not merged".to_string());
            return problems;
        }
        let Some(set) = self.directory.exact_entries() else { return problems };
        let mut truth: std::collections::BTreeSet<u128> = self.limbo.keys().copied().collect();
        for node in self.nodes.values() {
            for obj in node.store.keys() {
                truth.insert(obj);
            }
        }
        // Phantom entries are *known* poison: forged receipts the proxy
        // has attributed but not yet purged. They are part of the truth
        // rebuild — a quarantine sweep must have purged its target's
        // phantoms (the quarantine oracle checks that side), and the
        // remaining lies are exactly what the directory still carries.
        if let Some(adv) = self.adversary.as_ref() {
            truth.extend(adv.phantoms.keys().copied());
        }
        for obj in &truth {
            if !set.contains(obj) {
                problems
                    .push(format!("object {obj:032x} resident but absent from the directory view"));
            }
        }
        let mut extras: Vec<u128> = set.iter().filter(|o| !truth.contains(o)).copied().collect();
        extras.sort_unstable();
        for obj in extras {
            problems.push(format!("directory entry {obj:032x} has no backing object after heal"));
        }
        problems
    }

    /// Verifies internal consistency; returns violations (empty = OK).
    ///
    /// With an exact directory, directory contents must equal the set of
    /// resident objects; with a Bloom directory only the no-false-negative
    /// direction can be checked.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut count = 0usize;
        for node in self.nodes.values() {
            let islanded = !self.overlay.in_island_a(node.id);
            for obj in node.store.keys() {
                count += 1;
                if islanded {
                    // Island B runs its own authority while the cut is
                    // up; the proxy's directory describes island A only.
                    if !self.split.as_ref().is_some_and(|s| s.b_index.contains_key(&obj)) {
                        problems
                            .push(format!("islanded object {obj:032x} missing from the B index"));
                    }
                    continue;
                }
                if !self.directory.contains(obj) {
                    problems.push(format!("object {obj:032x} resident but not in directory"));
                }
            }
            for (obj, host) in &node.diverted_to {
                match self.nodes.get(&host.0) {
                    Some(hn) if hn.store.contains(*obj) => {}
                    _ => problems.push(format!("diversion pointer {obj:032x} -> {host} dangles")),
                }
            }
            for (obj, owner) in &node.hosted_for {
                match self.nodes.get(&owner.0) {
                    Some(on) if on.diverted_to.get(obj) == Some(&node.id) => {}
                    _ => problems.push(format!(
                        "hosted object {obj:032x} has no owner pointer from {owner}"
                    )),
                }
            }
            for (obj, hosts) in &node.replicated_to {
                if self.holder_of(node.id, *obj).is_none() {
                    problems.push(format!(
                        "replica set for {obj:032x} tracked at {} but object not resident there",
                        node.id
                    ));
                }
                for h in hosts {
                    match self.nodes.get(&h.0) {
                        Some(hn) if hn.replicas.contains_key(obj) => {}
                        _ => problems.push(format!(
                            "replica of {obj:032x} claimed at {h} but host has no copy"
                        )),
                    }
                }
            }
            for (obj, (_credit, root)) in &node.replicas {
                if self.limbo.contains_key(obj) {
                    // Orphaned copy of a crash casualty awaiting lazy
                    // repair: its tracking root died with the primary.
                    continue;
                }
                match self.nodes.get(&root.0) {
                    Some(rn)
                        if rn.replicated_to.get(obj).is_some_and(|hs| hs.contains(&node.id)) => {}
                    _ => problems.push(format!(
                        "replica of {obj:032x} at {} not tracked by root {root}",
                        node.id
                    )),
                }
            }
        }
        if count != self.resident {
            problems.push(format!("resident count {} != actual {count}", self.resident));
        }
        for obj in self.limbo.keys() {
            // Lazy repair means the stale directory entry must survive
            // until a fetch or fresh destage resolves it; and a limbo
            // object can never be resident at the same time.
            if !self.directory.contains(*obj) {
                problems.push(format!("limbo object {obj:032x} missing its stale entry"));
            }
            if self.root_of(*obj).and_then(|r| self.holder_of(r, *obj)).is_some() {
                problems.push(format!("limbo object {obj:032x} is also resident"));
            }
        }
        if let Some(s) = &self.split {
            // The B index must describe exactly the islanded copies.
            for (obj, host) in &s.b_index {
                match self.nodes.get(&host.0) {
                    Some(hn) if hn.store.contains(*obj) => {}
                    _ => problems.push(format!(
                        "islanded object {obj:032x} not resident at its island-B host"
                    )),
                }
            }
        }
        if let Some(adv) = &self.adversary {
            // Phantom bookkeeping: every attributed phantom must still
            // be a directory entry, must have no backing copy anywhere,
            // and must not double-book with limbo; and a quarantined
            // node must hold no live state and no surviving phantoms.
            for (obj, node) in &adv.phantoms {
                if !self.directory.contains(*obj) {
                    problems.push(format!("phantom {obj:032x} lost its directory entry"));
                }
                if self.root_of(*obj).and_then(|r| self.holder_of(r, *obj)).is_some() {
                    problems.push(format!("phantom {obj:032x} is also genuinely resident"));
                }
                if self.limbo.contains_key(obj) {
                    problems.push(format!("phantom {obj:032x} is also parked in limbo"));
                }
                if adv.quarantined.contains(&node.0) {
                    problems.push(format!(
                        "phantom {obj:032x} survived the quarantine of its forger {node}"
                    ));
                }
            }
            for id in &adv.quarantined {
                if self.nodes.contains_key(id) {
                    problems.push(format!("quarantined node {:032x} still holds state", id));
                }
            }
        }
        if let Some(set) = self.directory.exact_entries() {
            // During a split the proxy's directory covers island A only;
            // island B's copies are carried by the B index instead.
            // Phantom entries (forged receipts not yet purged) are
            // directory entries with deliberately no backing copy.
            let islanded = self.split.as_ref().map_or(0, |s| s.b_index.len());
            let phantoms = self.adversary.as_ref().map_or(0, |adv| adv.phantoms.len());
            if set.len() + islanded != count + self.limbo.len() + phantoms {
                problems.push(format!(
                    "exact directory has {} entries ({islanded} islanded) but {count} objects \
                     resident, {} in limbo, and {phantoms} phantom",
                    set.len(),
                    self.limbo.len()
                ));
            }
        }
        problems
    }

    /// Verifies the replica floor: every resident primary keeps at least
    /// `min(k, live nodes)` total copies (primary + tracked replicas).
    /// Returns violations (empty = OK). Only an invariant while cluster
    /// membership is stable — lazy repair and rejoins legitimately leave
    /// older objects under-replicated until the next touch — so the chaos
    /// oracles apply it to membership-stable plans only. Vacuously OK
    /// when `k == 1`.
    pub fn check_replica_floor(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.cfg.replication <= 1 {
            return problems;
        }
        let floor = self.cfg.replication.min(self.nodes.len());
        for node in self.nodes.values() {
            for obj in node.store.keys() {
                if node.replicas.contains_key(&obj) {
                    continue; // replica copy, not a primary
                }
                let root = node.hosted_for.get(&obj).copied().unwrap_or(node.id);
                let copies = 1 + self
                    .nodes
                    .get(&root.0)
                    .and_then(|rn| rn.replicated_to.get(&obj))
                    .map_or(0, Vec::len);
                if copies < floor {
                    problems.push(format!(
                        "object {obj:032x} has {copies} copies, below the floor of {floor}"
                    ));
                }
            }
        }
        problems
    }

    /// A canonical, deterministic rendering of the cluster's end state:
    /// every node's resident objects and replica copies, the exact
    /// directory contents, and the limbo set, all sorted. Two caches with
    /// byte-identical snapshots hold byte-identical contents — the
    /// idempotency golden test compares a duplication+reordering run
    /// against a fault-free one through this, and the chaos oracles diff
    /// end states with it.
    pub fn contents_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ids: Vec<u128> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let node = &self.nodes[&id];
            let _ = writeln!(out, "node {id:032x}");
            let mut objs: Vec<u128> = node.store.keys().collect();
            objs.sort_unstable();
            for o in objs {
                let _ = writeln!(out, "  store {o:032x}");
            }
            let mut reps: Vec<u128> = node.replicas.keys().copied().collect();
            reps.sort_unstable();
            for o in reps {
                let _ = writeln!(out, "  replica {o:032x}");
            }
        }
        if let Some(set) = self.directory.exact_entries() {
            let mut dir: Vec<u128> = set.iter().copied().collect();
            dir.sort_unstable();
            for o in dir {
                let _ = writeln!(out, "directory {o:032x}");
            }
        }
        let mut limbo: Vec<u128> = self.limbo.keys().copied().collect();
        limbo.sort_unstable();
        for o in limbo {
            let _ = writeln!(out, "limbo {o:032x}");
        }
        // Phantom lines appear only when the misbehavior subsystem is
        // installed, so every committed adversary-free golden keeps its
        // exact bytes.
        if let Some(adv) = &self.adversary {
            let mut ph: Vec<(u128, u128)> = adv.phantoms.iter().map(|(o, n)| (*o, n.0)).collect();
            ph.sort_unstable();
            for (o, n) in ph {
                let _ = writeln!(out, "phantom {o:032x} via {n:032x}");
            }
        }
        out
    }

    /// Test-only sabotage hook for the chaos explorer: plants a
    /// directory entry with no backing object, a real
    /// directory↔residency violation that
    /// [`check_invariants`](Self::check_invariants) must catch and the
    /// shrinker must minimize. Never called by production paths.
    #[doc(hidden)]
    pub fn debug_plant_ghost_entry(&mut self, object: u128) {
        self.space_hint = None;
        self.directory.insert(object);
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
mod tests {
    use super::*;
    use crate::transport::MAX_ATTEMPTS;

    fn small(nodes: usize, cap: usize) -> P2PClientCache {
        P2PClientCache::new(P2PClientCacheConfig {
            num_nodes: nodes,
            node_capacity: cap,
            ..P2PClientCacheConfig::default()
        })
    }

    fn oid(i: u64) -> u128 {
        object_id_for_url(&format!("http://origin.example/obj/{i}"))
    }

    #[test]
    fn destage_then_fetch_roundtrip() {
        let mut c = small(16, 4);
        let o = oid(1);
        let out = c.destage(o, 5.0, Some(3)).unwrap();
        assert!(!out.refreshed);
        assert_eq!(out.stored_at, out.root);
        assert!(c.directory_contains(o));
        assert_eq!(c.len(), 1);
        let f = c.fetch(7, o, 5.0).expect("object must be found");
        assert_eq!(f.holder, out.stored_at);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn refreshed_duplicate_destage() {
        let mut c = small(8, 4);
        let o = oid(2);
        c.destage(o, 1.0, Some(0)).unwrap();
        let again = c.destage(o, 1.0, Some(1)).unwrap();
        assert!(again.refreshed);
        assert_eq!(c.len(), 1);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn fetch_missing_returns_none_and_cleans_directory() {
        let mut c = small(8, 4);
        assert!(c.fetch(0, oid(99), 1.0).is_none());
        assert_eq!(c.ledger().stale_lookups, 1);
    }

    #[test]
    fn diversion_when_root_full() {
        // Tiny capacities so roots fill fast; diversion must kick in and
        // the directory must track objects stored at neighbors.
        let mut c = small(8, 1);
        let mut diverted_seen = false;
        for i in 0..8 {
            let out = c.destage(oid(i as u64), 2.0, Some(i as u32)).unwrap();
            diverted_seen |= out.stored_at != out.root;
            assert!(c.check_invariants().is_empty(), "after destage {i}");
        }
        // Aggregate capacity is 8; everything fits somewhere.
        assert_eq!(c.len(), 8);
        assert!(diverted_seen, "hash skew on 8 ids must fill some root before others");
        assert_eq!(
            c.ledger().diversions,
            c.node_ids().map(|n| c.node(n).unwrap().diversions_out() as u64).sum::<u64>()
        );
    }

    #[test]
    fn replacement_when_cluster_saturated() {
        let mut c = small(4, 2);
        for i in 0..50u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        assert!(c.len() <= 8);
        assert!(c.check_invariants().is_empty());
        // Directory exactly matches residents (exact kind).
        let resident: usize = c.len();
        assert_eq!(c.directory().len(), resident);
    }

    #[test]
    fn diversion_disabled_replaces_at_root() {
        let mut c = P2PClientCache::new(P2PClientCacheConfig {
            num_nodes: 8,
            node_capacity: 1,
            diversion: false,
            ..P2PClientCacheConfig::default()
        });
        for i in 0..30u64 {
            let out = c.destage(oid(i), 1.0, Some(0)).unwrap();
            assert_eq!(out.stored_at, out.root, "no diversion allowed");
        }
        assert_eq!(c.ledger().diversions, 0);
        assert!(c.check_invariants().is_empty());
        // Without diversion, skewed roots thrash while others sit empty.
        assert!(c.len() < 8, "utilization should be imperfect without diversion");
    }

    #[test]
    fn diversion_improves_utilization() {
        let fill = |diversion: bool| {
            let mut c = P2PClientCache::new(P2PClientCacheConfig {
                num_nodes: 8,
                node_capacity: 2,
                diversion,
                ..P2PClientCacheConfig::default()
            });
            for i in 0..16u64 {
                c.destage(oid(i), 1.0, Some(0)).unwrap();
            }
            c.len()
        };
        assert!(fill(true) > fill(false), "diversion must absorb hash skew");
        assert_eq!(fill(true), 16, "16 objects fit the aggregate capacity of 16 exactly");
    }

    #[test]
    fn piggyback_vs_direct_connection_accounting() {
        let mut c = small(8, 4);
        c.destage(oid(1), 1.0, Some(0)).unwrap();
        assert_eq!(c.ledger().new_connections, 0, "piggyback opens no connections");
        c.destage(oid(2), 1.0, None).unwrap();
        assert_eq!(c.ledger().new_connections, 1);
        assert_eq!(c.ledger().piggybacked_objects, 1);
        assert_eq!(c.ledger().direct_destages, 1);
    }

    #[test]
    fn push_fetch_counts_connection() {
        let mut c = small(8, 4);
        let o = oid(3);
        c.destage(o, 1.0, Some(0)).unwrap();
        let before = c.ledger().new_connections;
        assert!(c.push_fetch(o, 1.0).is_some());
        assert_eq!(c.ledger().pushes, 1);
        assert_eq!(c.ledger().new_connections, before + 1);
    }

    #[test]
    fn eviction_of_hosted_object_clears_owner_pointer() {
        // Force diversion then saturate the host so the hosted object is
        // evicted; the owner's pointer must disappear.
        let mut c = small(6, 1);
        for i in 0..40u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after destage {i}: {problems:?}");
        }
    }

    #[test]
    fn node_failure_loses_objects_but_stays_consistent() {
        let mut c = small(10, 3);
        for i in 0..25u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let victim = c.node_ids().next().unwrap();
        let before = c.len();
        c.fail_node(victim).unwrap();
        assert!(c.len() <= before);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // Fetches still resolve for surviving objects; none panic.
        for i in 0..25u64 {
            let _ = c.fetch(1, oid(i), 1.0);
        }
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn gd_semantics_inside_client_cache() {
        // Cheap objects must be evicted before expensive ones within one
        // node: find two objects rooted at the same node.
        let mut c = small(2, 1);
        // Group objects by DHT root via the read-only accessor (the old
        // version cloned the entire cache per probe destage).
        let mut by_root: FxHashMap<NodeId, Vec<u128>> = FxHashMap::default();
        for i in 0..64u64 {
            let o = oid(i);
            by_root.entry(c.root_of(o).unwrap()).or_default().push(o);
        }
        let (root, objs) = by_root.into_iter().find(|(_, v)| v.len() >= 3).expect("skew");
        let cheap = objs[0];
        let dear = objs[1];
        let newer = objs[2];
        c.destage(dear, 10.0, Some(0)).unwrap();
        c.destage(cheap, 1.0, Some(0)).unwrap(); // diverted (root full, neighbor free)
                                                 // Saturate the cluster so the next destage must replace.
        for i in 100..140u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let out = c.destage(newer, 5.0, Some(0)).unwrap();
        if out.root == root && out.evicted.is_some() {
            assert_ne!(out.evicted, Some(dear), "expensive object evicted before cheap");
        }
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn root_of_matches_destage_root() {
        let mut c = small(12, 4);
        for i in 0..32u64 {
            let o = oid(i);
            let predicted = c.root_of(o);
            let out = c.destage(o, 1.0, Some(i as u32)).unwrap();
            assert_eq!(Some(out.root), predicted, "read-only root disagrees with routing");
        }
    }

    #[test]
    fn fetches_charge_the_overlay_walk_and_reroute_after_churn() {
        // A fetch charges the overlay walk from the client's entry node
        // to the object's live owner (plus one hop when a diversion
        // pointer is followed), and a live node serves it.
        fn fetch_checked(c: &mut P2PClientCache, client: u32, o: u128) -> FetchOutcome {
            let key = object_key(o);
            let (root, walk) = c.overlay.route_hops(c.node_for_client(client), key).unwrap();
            assert_eq!(Some(root), c.overlay.owner_of(key), "route ends at the live owner");
            let before = c.ledger().overlay_messages;
            let out = c.fetch(client, o, 1.0).expect("directory-resident object fetchable");
            assert_eq!(out.hops, walk + usize::from(out.holder != root));
            assert_eq!(c.ledger().overlay_messages - before, out.hops as u64);
            assert!(c.node(out.holder).is_some(), "holder must be live");
            out
        }
        let resident = |c: &P2PClientCache| -> Vec<u128> {
            (0..20).map(oid).filter(|&o| c.directory_contains(o)).collect()
        };
        let mut c = small(10, 3);
        for i in 0..20u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let (first, second) = (fetch_checked(&mut c, 1, oid(5)), fetch_checked(&mut c, 1, oid(5)));
        assert_eq!(first, second, "identical fetches, identical outcomes");
        // Membership changes move ownership; routes follow at once.
        let victim = c.node_ids().next().unwrap();
        c.fail_node(victim).unwrap();
        for o in resident(&c) {
            assert_ne!(fetch_checked(&mut c, 2, o).holder, victim, "route led to a failed node");
        }
        c.join_node(NodeId::from_bytes(b"late-joining-cache-node"));
        for o in resident(&c) {
            fetch_checked(&mut c, 3, o);
        }
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn join_node_accepts_traffic() {
        let mut c = small(4, 2);
        for i in 0..8u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let newcomer = NodeId::from_bytes(b"fresh-node");
        c.join_node(newcomer);
        // Eager migration: everything the newcomer holds, it now roots.
        for obj in c.node(newcomer).unwrap().objects() {
            assert_eq!(c.root_of(obj), Some(newcomer), "migrated object not rooted here");
        }
        // Objects whose closest node is now the newcomer land on it.
        let mut landed = false;
        for i in 100..200u64 {
            let o = oid(i);
            if c.root_of(o) == Some(newcomer) {
                let out = c.destage(o, 1.0, Some(0)).unwrap();
                assert_eq!(out.root, newcomer);
                landed = true;
                break;
            }
        }
        assert!(landed, "some object out of 100 should root at the newcomer");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn tap_events_mirror_ledger_counters() {
        struct VecSink(Vec<P2pEvent>);
        impl P2pSink for VecSink {
            fn event(&mut self, e: P2pEvent) {
                self.0.push(e);
            }
        }
        let mut sink = VecSink(Vec::new());
        let mut c = small(6, 1);
        for i in 0..30u64 {
            c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
        }
        for i in 0..30u64 {
            let _ = c.fetch_tap(1, oid(i), 1.0, &mut sink);
        }
        let o = c.node_ids().next().and_then(|n| c.node(n).unwrap().objects().next()).unwrap();
        assert!(c.push_fetch_tap(o, 1.0, &mut sink).is_some());
        let victim = c.node_ids().next().unwrap();
        c.fail_node_tap(victim, &mut sink).unwrap();
        c.join_node_tap(NodeId::from_bytes(b"tap-newcomer"), &mut sink);

        let count = |f: &dyn Fn(&P2pEvent) -> bool| sink.0.iter().filter(|e| f(e)).count() as u64;
        let l = c.ledger();
        assert_eq!(count(&|e| matches!(e, P2pEvent::Destage { .. })), 30);
        assert_eq!(
            count(&|e| matches!(e, P2pEvent::Destage { piggybacked: true, .. })),
            l.piggybacked_objects
        );
        assert_eq!(count(&|e| matches!(e, P2pEvent::Destage { diverted: true, .. })), l.diversions);
        assert_eq!(count(&|e| matches!(e, P2pEvent::Lookup { .. })), l.lookups);
        assert_eq!(count(&|e| matches!(e, P2pEvent::Lookup { stale: true, .. })), l.stale_lookups);
        assert_eq!(count(&|e| matches!(e, P2pEvent::Push { .. })), l.pushes);
        assert_eq!(count(&|e| matches!(e, P2pEvent::NodeFailed { .. })), 1);
        assert_eq!(count(&|e| matches!(e, P2pEvent::NodeJoined { .. })), 1);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn tap_variants_match_untapped_behaviour() {
        // Same operation sequence with and without a sink must produce
        // identical ledgers and identical cache contents.
        let drive = |tapped: bool| {
            let mut c = small(5, 2);
            let mut sink = NoSink;
            struct CountSink(u64);
            impl P2pSink for CountSink {
                fn event(&mut self, _: P2pEvent) {
                    self.0 += 1;
                }
            }
            let mut counting = CountSink(0);
            for i in 0..40u64 {
                if tapped {
                    c.destage_tap(oid(i), 1.0, Some(i as u32), &mut counting).unwrap();
                } else {
                    c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
                }
            }
            for i in 0..40u64 {
                if tapped {
                    let _ = c.fetch_tap(0, oid(i), 1.0, &mut counting);
                } else {
                    let _ = c.fetch_tap(0, oid(i), 1.0, &mut sink);
                }
            }
            (*c.ledger(), c.len())
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn capacity_and_mapping() {
        let c = small(10, 7);
        assert_eq!(c.capacity(), 70);
        assert_eq!(c.node_for_client(0), c.node_for_client(10));
        assert_ne!(c.node_for_client(0), c.node_for_client(1));
    }

    #[test]
    fn capacity_follows_live_membership() {
        let mut c = small(10, 7);
        let victim = c.node_ids().next().unwrap();
        c.fail_node(victim).unwrap();
        c.join_node(NodeId::from_bytes(b"capacity-joiner-1"));
        c.join_node(NodeId::from_bytes(b"capacity-joiner-2"));
        assert_eq!(c.capacity(), 77, "one fail and two joins: 11 live nodes of 7");
        // A silent crash takes the machine's space away, detected or not.
        let corpse = c.node_ids().next().unwrap();
        c.crash_node(corpse).unwrap();
        assert_eq!(c.capacity(), 70);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn directory_exactly_mirrors_contents(
            objects in proptest::collection::vec(0u64..200, 1..150),
            nodes in 2usize..12,
            cap in 1usize..4,
        ) {
            let mut c = small(nodes, cap);
            for (i, o) in objects.iter().enumerate() {
                c.destage(oid(*o), 1.0 + (i % 7) as f64, Some(i as u32)).unwrap();
                let problems = c.check_invariants();
                proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
            }
            // Every fetch answered by the directory must succeed (exact
            // directory ⇒ no stale lookups without churn).
            for o in objects {
                let id = oid(o);
                if c.directory_contains(id) {
                    proptest::prop_assert!(c.fetch(0, id, 1.0).is_some());
                }
            }
            proptest::prop_assert_eq!(c.ledger().stale_lookups, 0);
        }
    }

    fn small_k(nodes: usize, cap: usize, k: usize) -> P2PClientCache {
        P2PClientCache::new(P2PClientCacheConfig {
            num_nodes: nodes,
            node_capacity: cap,
            replication: k,
            ..P2PClientCacheConfig::default()
        })
    }

    #[test]
    fn unknown_and_double_failures_are_typed_errors() {
        let mut c = small(4, 2);
        let ghost = NodeId::from_bytes(b"never-joined");
        assert_eq!(c.fail_node(ghost), Err(P2pError::UnknownNode(ghost)));
        assert_eq!(c.depart_node(ghost), Err(P2pError::UnknownNode(ghost)));
        assert_eq!(c.crash_node(ghost), Err(P2pError::UnknownNode(ghost)));
        let victim = c.node_ids().next().unwrap();
        c.crash_node(victim).unwrap();
        assert_eq!(c.crash_node(victim), Err(P2pError::AlreadyCrashed(victim)));
        assert_eq!(c.depart_node(victim), Err(P2pError::AlreadyCrashed(victim)));
        // An announced failure can still clean up a silent corpse.
        c.fail_node(victim).unwrap();
        assert_eq!(c.fail_node(victim), Err(P2pError::UnknownNode(victim)));
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn silent_crash_is_detected_by_traffic() {
        let mut c = small(10, 4);
        for i in 0..20u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let victim = c.root_of(oid(0)).unwrap();
        c.crash_node(victim).unwrap();
        assert_eq!(c.crashed_len(), 1, "a silent crash announces nothing");
        for i in 0..20u64 {
            let _ = c.fetch(i as u32, oid(i), 1.0);
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
        }
        assert_eq!(c.crashed_len(), 0, "request traffic must detect the crash");
        assert!(c.ledger().timeouts >= 1, "detection costs at least one timeout");
        let timeouts = c.ledger().timeouts;
        assert_eq!(c.take_fault_penalties(), timeouts);
        assert_eq!(c.take_fault_penalties(), 0, "penalties drain");
    }

    #[test]
    fn replica_survives_primary_crash_with_k2() {
        let mut c = small_k(10, 8, 2);
        for i in 0..20u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        assert!(c.check_invariants().is_empty());
        let o = oid(3);
        let root = c.root_of(o).unwrap();
        let holder = c.holder_of(root, o).unwrap();
        c.crash_node(holder).unwrap();
        let rereps = c.ledger().rereplications;
        let f = c.fetch(2, o, 1.0);
        assert!(f.is_some(), "a replica must keep the object reachable");
        assert_ne!(f.unwrap().holder, holder, "the corpse cannot serve");
        assert!(c.ledger().rereplications > rereps, "promotion re-replicates");
        assert_eq!(c.crashed_len(), 0, "the stale hit detects the crash");
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn empty_cluster_degrades_instead_of_panicking() {
        let mut c = small(3, 4);
        for i in 0..6u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let ids: Vec<NodeId> = c.node_ids().collect();
        for id in ids {
            c.fail_node(id).unwrap();
        }
        assert_eq!(c.len(), 0);
        assert!(c.directory().is_empty(), "empty cluster flushes the directory");
        assert!(c.fetch(0, oid(1), 1.0).is_none(), "fetch degrades to a miss");
        assert!(c.destage(oid(9), 1.0, Some(0)).is_none(), "destage degrades to a no-op");
        assert!(c.check_invariants().is_empty());
        // A later join resurrects the cluster.
        c.join_node(NodeId::from_bytes(b"phoenix"));
        assert!(c.destage(oid(9), 1.0, Some(0)).is_some());
        assert!(c.fetch(0, oid(9), 1.0).is_some());
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn departure_hands_objects_off_losslessly() {
        let mut c = small(8, 16);
        for i in 0..16u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let before = c.len();
        let victim = c.root_of(oid(0)).unwrap();
        c.depart_node(victim).unwrap();
        assert_eq!(c.len(), before, "graceful departure hands everything off");
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        for i in 0..16u64 {
            if c.directory_contains(oid(i)) {
                assert!(c.fetch(1, oid(i), 1.0).is_some(), "object {i} lost in hand-off");
            }
        }
        assert_eq!(c.depart_node(victim), Err(P2pError::UnknownNode(victim)));
    }

    #[test]
    fn message_loss_costs_timeouts_not_objects() {
        let mut c = small(8, 8);
        c.set_faults(NetFaults::new(0.4, 11));
        for i in 0..20u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        for i in 0..20u64 {
            if c.directory_contains(oid(i)) {
                assert!(c.fetch(1, oid(i), 1.0).is_some(), "loss must not lose objects");
            }
        }
        assert!(c.ledger().timeouts > 0, "40% loss over dozens of hops must retry");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn slow_holder_stalls_the_request() {
        let mut c = small(6, 8);
        c.set_faults(NetFaults::new(0.0, 1));
        for i in 0..12u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let o = oid(1);
        let root = c.root_of(o).unwrap();
        let holder = c.holder_of(root, o).unwrap();
        c.mark_slow(holder);
        let t0 = c.ledger().timeouts;
        assert!(c.fetch(0, o, 1.0).is_some(), "slow is not dead");
        assert!(c.ledger().timeouts > t0, "a slow holder costs a stall");
        assert_eq!(c.crashed_len(), 0);
    }

    #[test]
    fn churn_events_mirror_fault_counters() {
        struct VecSink(Vec<P2pEvent>);
        impl P2pSink for VecSink {
            fn event(&mut self, e: P2pEvent) {
                self.0.push(e);
            }
        }
        let mut sink = VecSink(Vec::new());
        let mut c = small_k(12, 4, 2);
        c.set_faults(NetFaults::new(0.0, 7));
        for i in 0..30u64 {
            c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
        }
        let victims: Vec<NodeId> = c.node_ids().take(3).collect();
        for v in &victims {
            c.crash_node_tap(*v, &mut sink).unwrap();
        }
        for i in 0..30u64 {
            let _ = c.fetch_tap(i as u32, oid(i), 1.0, &mut sink);
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
        }
        let l = *c.ledger();
        let count = |f: &dyn Fn(&P2pEvent) -> bool| sink.0.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(count(&|e| matches!(e, P2pEvent::NodeCrashed { .. })), 3);
        assert_eq!(count(&|e| matches!(e, P2pEvent::TimeoutDetected { .. })), l.timeouts);
        assert_eq!(count(&|e| matches!(e, P2pEvent::StaleDirectoryHit { .. })), l.stale_hits);
        assert_eq!(count(&|e| matches!(e, P2pEvent::Rereplicated { .. })), l.rereplications);
        assert_eq!(c.crashed_len(), 0, "every node serves some client, so all crashes surface");
        assert!(l.timeouts >= 3, "each detection costs a timeout");
    }

    #[test]
    fn fault_free_churn_mode_is_bit_identical_to_plain() {
        // Installing zero-loss fault state must not change a single
        // counter or byte of cache state versus the plain path.
        let drive = |faulty: bool| {
            let mut c = small(8, 2);
            if faulty {
                c.set_faults(NetFaults::new(0.0, 99));
            }
            for i in 0..60u64 {
                c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32)).unwrap();
            }
            let mut served = 0u32;
            for i in 0..60u64 {
                served += u32::from(c.fetch(i as u32, oid(i), 1.0).is_some());
            }
            (*c.ledger(), c.len(), served)
        };
        let (plain_ledger, plain_len, plain_served) = drive(false);
        let (churn_ledger, churn_len, churn_served) = drive(true);
        assert_eq!(plain_len, churn_len);
        assert_eq!(plain_served, churn_served);
        // Both paths walk the same overlay, so the ledgers must agree
        // exactly.
        assert_eq!(plain_ledger, churn_ledger);
    }

    #[test]
    fn rejoin_of_crashed_undetected_node_reclaims_it() {
        // Regression: a machine crashes silently, nothing detects it, and
        // the same machine reboots and rejoins. This used to trip the
        // membership asserts (the corpse was still in the node map); now
        // the rejoin counts as the detection and the newcomer starts
        // clean.
        let mut c = small_k(10, 4, 2);
        for i in 0..30u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let victim = c.root_of(oid(0)).unwrap();
        c.crash_node(victim).unwrap();
        assert_eq!(c.crashed_len(), 1, "the crash must stay undetected");
        c.join_node(victim);
        assert_eq!(c.crashed_len(), 0, "the reboot is the detection");
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // The rejoined machine serves traffic like any other member.
        for i in 0..30u64 {
            let _ = c.fetch(i as u32, oid(i), 1.0);
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
        }
        assert!(c.destage(oid(99), 1.0, Some(0)).is_some());
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn zero_transport_is_bit_identical_to_plain() {
        // Installing an all-zero transport must not change a single
        // counter or byte of cache state versus the plain path.
        let drive = |transport: bool| {
            let mut c = small(8, 2);
            if transport {
                c.set_transport(TransportFaults { seed: 77, ..TransportFaults::none() });
            }
            for i in 0..60u64 {
                c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32)).unwrap();
            }
            for i in 0..60u64 {
                let _ = c.fetch(i as u32, oid(i), 1.0);
            }
            (*c.ledger(), c.contents_snapshot())
        };
        let (plain_ledger, plain_state) = drive(false);
        let (transport_ledger, transport_state) = drive(true);
        assert_eq!(plain_ledger, transport_ledger);
        assert_eq!(plain_state, transport_state);
    }

    #[test]
    fn duplication_and_reordering_never_change_end_state() {
        // The at-least-once discipline's core promise: a duplicated or
        // reordered delivery costs latency but mutates nothing, so the
        // end state is byte-identical to a fault-free run.
        let drive = |faulty: bool| {
            let mut c = small_k(10, 4, 2);
            if faulty {
                c.set_transport(TransportFaults {
                    duplication: 0.25,
                    reorder: 0.25,
                    seed: 31,
                    ..TransportFaults::none()
                });
            }
            for i in 0..80u64 {
                c.destage(oid(i), 1.0 + (i % 7) as f64, Some(i as u32)).unwrap();
            }
            let mut served = 0u32;
            for i in 0..80u64 {
                served += u32::from(c.fetch(i as u32, oid(i), 1.0).is_some());
            }
            (c.contents_snapshot(), served, c.ledger().dedups)
        };
        let (clean_state, clean_served, clean_dedups) = drive(false);
        let (faulty_state, faulty_served, faulty_dedups) = drive(true);
        assert_eq!(clean_dedups, 0);
        assert!(faulty_dedups > 0, "25% duplication over 160 sends must dedup");
        assert_eq!(clean_served, faulty_served);
        assert_eq!(clean_state, faulty_state, "dup/reorder must be state-idempotent");
    }

    #[test]
    fn lossy_transport_drops_destages_but_keeps_invariants() {
        let mut c = small(8, 4);
        c.set_transport(TransportFaults { loss: 0.6, seed: 5, ..TransportFaults::none() });
        let mut dropped = 0u32;
        for i in 0..60u64 {
            if c.destage(oid(i), 1.0, Some(0)).is_none() {
                dropped += 1;
            }
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after destage {i}: {problems:?}");
        }
        assert!(dropped > 0, "60% per-attempt loss must exhaust some retry budgets");
        assert!(c.ledger().retries > 0);
        assert!(c.ledger().timeouts > 0, "every failed attempt is a timed-out message");
        assert!(c.take_fault_penalties() > 0, "retries and backoff must cost latency");
        for i in 0..60u64 {
            if c.directory_contains(oid(i)) {
                assert!(c.fetch(1, oid(i), 1.0).is_some(), "a stored object must be servable");
            }
        }
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn corrupting_transport_quarantines_instead_of_caching() {
        let mut c = small(8, 4);
        c.set_transport(TransportFaults { corruption: 0.999, seed: 9, ..TransportFaults::none() });
        let mut quarantined = 0u32;
        for i in 0..10u64 {
            quarantined += u32::from(c.destage(oid(i), 1.0, Some(0)).is_none());
        }
        assert!(
            quarantined >= 8,
            "payloads that never verify must be quarantined, not cached ({quarantined}/10)"
        );
        assert_eq!(c.len(), 10 - quarantined as usize);
        assert!(c.ledger().checksum_failures >= u64::from(quarantined * MAX_ATTEMPTS));
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn replica_floor_holds_with_stable_membership() {
        let mut c = small_k(12, 8, 2);
        c.set_transport(TransportFaults {
            duplication: 0.1,
            reorder: 0.1,
            seed: 13,
            ..TransportFaults::none()
        });
        for i in 0..40u64 {
            c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        }
        let problems = c.check_replica_floor();
        assert!(problems.is_empty(), "{problems:?}");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn ghost_entry_hook_plants_a_real_violation() {
        let mut c = small(4, 2);
        c.destage(oid(1), 1.0, Some(0)).unwrap();
        assert!(c.check_invariants().is_empty());
        c.debug_plant_ghost_entry(oid(1000));
        assert!(!c.check_invariants().is_empty(), "the sabotage hook must trip the oracle");
    }

    #[test]
    fn degenerate_partitions_are_noops() {
        let mut c = small(1, 4);
        assert!(!c.partition_nodes(50, &mut NoSink), "one node cannot split");
        assert!(!c.heal_nodes(&mut NoSink), "no cut to heal");
        let mut c = small(8, 4);
        assert!(c.partition_nodes(50, &mut NoSink));
        assert!(c.is_partitioned());
        assert!(!c.partition_nodes(50, &mut NoSink), "a second cut must be rejected");
        assert!(c.heal_nodes(&mut NoSink));
        assert!(!c.is_partitioned());
        assert!(!c.heal_nodes(&mut NoSink), "healing twice is a no-op");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn partition_and_heal_preserve_invariants_and_converge() {
        let mut c = small_k(16, 8, 2);
        for i in 0..60u64 {
            c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        }
        let before_len = c.len();
        assert!(c.partition_nodes(50, &mut NoSink));
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "mid-split: {problems:?}");
        // Requests keep flowing on the proxy's island while the cut is
        // up; every entry point must sit on island A.
        for i in 0..60u64 {
            if c.directory_contains(oid(i)) {
                let f = c.fetch(i as u32, oid(i), 1.0).expect("directory-approved fetch");
                assert!(c.in_island_a(f.holder), "island B must be unreachable");
            }
        }
        assert!(c.check_invariants().is_empty());
        assert!(c.heal_nodes(&mut NoSink));
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "post-heal: {problems:?}");
        let diverged = c.directory_divergence();
        assert!(diverged.is_empty(), "post-heal divergence: {diverged:?}");
        assert!(c.len() <= before_len, "the sweep collects duplicates, never invents copies");
        // Post-heal the cluster is a single authority again: replica
        // floors are re-established against the merged ring.
        let floor = c.check_replica_floor();
        assert!(floor.is_empty(), "{floor:?}");
    }

    #[test]
    fn split_brain_duplicates_are_reconciled_by_epoch() {
        // k = 2 guarantees cross-cut replicas, so both islands promote
        // and at least one object ends up with duplicate primaries.
        let mut c = small_k(12, 16, 2);
        for i in 0..48u64 {
            c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        }
        assert!(c.partition_nodes(50, &mut NoSink));
        let islanded = c.split.as_ref().map_or(0, |s| s.b_index.len());
        assert!(islanded > 0, "island B must keep primaries of its own");
        assert!(c.ledger().cut_drops > 0, "B's announcements die at the cut");
        assert!(c.heal_nodes(&mut NoSink));
        assert!(c.ledger().entries_reconciled > 0, "the sweep must merge entries");
        assert!(c.ledger().cut_drained > 0, "queued receipts drain at the heal");
        let diverged = c.directory_divergence();
        assert!(diverged.is_empty(), "{diverged:?}");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn partition_events_mirror_ledger_counters() {
        struct VecSink(Vec<P2pEvent>);
        impl P2pSink for VecSink {
            fn event(&mut self, e: P2pEvent) {
                self.0.push(e);
            }
        }
        let mut sink = VecSink(Vec::new());
        let mut c = small_k(10, 16, 2);
        for i in 0..30u64 {
            c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        }
        assert!(c.partition_nodes(40, &mut sink));
        assert!(c.heal_nodes(&mut sink));
        let count = |label: &str| sink.0.iter().filter(|e| e.kind_label() == label).count() as u64;
        assert_eq!(count("partition_started"), 1);
        assert_eq!(count("partition_healed"), 1);
        assert_eq!(count("entry_reconciled"), c.ledger().entries_reconciled);
        assert_eq!(count("primary_demoted"), c.ledger().primaries_demoted);
        let started = sink.0.iter().find_map(|e| match e {
            P2pEvent::PartitionStarted { island_a, island_b } => Some((*island_a, *island_b)),
            _ => None,
        });
        assert_eq!(started, Some((4, 6)), "40% of ten nodes stay proxy-side");
    }

    #[test]
    fn fetch_during_split_survives_and_islands_merge_cleanly() {
        let mut c = small_k(12, 8, 2);
        c.set_transport(TransportFaults { loss: 0.05, seed: 99, ..TransportFaults::none() });
        for i in 0..40u64 {
            c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        }
        assert!(c.partition_nodes(60, &mut NoSink));
        // Mid-split churn on the proxy's island only.
        for i in 0..40u64 {
            let _ = c.fetch(i as u32, oid(i), 1.0);
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
        }
        for i in 100..110u64 {
            c.destage(oid(i), 1.0, Some(i as u32));
        }
        assert!(c.check_invariants().is_empty());
        assert!(c.heal_nodes(&mut NoSink));
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "post-heal: {problems:?}");
        assert!(c.directory_divergence().is_empty());
    }

    #[test]
    fn zero_adversary_is_bit_identical_to_plain() {
        // Installing the adversary machinery with every node honest and
        // audits off must not change a single counter or byte of cache
        // state versus the plain path (and consumes zero draws from the
        // adversary stream, so later fault injection stays aligned).
        let drive = |adversarial: bool| {
            let mut c = small(8, 2);
            if adversarial {
                c.enable_adversary(0xDEAD_BEEF, 0.0, 3);
            }
            for i in 0..60u64 {
                c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32)).unwrap();
            }
            for i in 0..60u64 {
                let _ = c.fetch(i as u32, oid(i), 1.0);
            }
            (*c.ledger(), c.contents_snapshot())
        };
        let (plain_ledger, plain_state) = drive(false);
        let (adv_ledger, adv_state) = drive(true);
        assert_eq!(plain_ledger, adv_ledger);
        assert_eq!(plain_state, adv_state);
    }

    #[test]
    fn freerider_poisons_directory_and_stale_fetch_repairs_it() {
        let mut c = small(6, 2);
        c.enable_adversary(7, 0.0, 3);
        let cheat = c.root_of(oid(0)).unwrap();
        c.set_behavior(cheat, Behavior::FreeRider);
        assert_eq!(c.behavior_of(cheat), Behavior::FreeRider);
        let out = c.destage(oid(0), 1.0, Some(0)).unwrap();
        assert_eq!(out.stored_at, cheat, "the receipt claims the free-rider stored it");
        assert_eq!(c.phantom_entries(), 1);
        assert!(c.directory_contains(oid(0)), "the forged receipt poisoned the directory");
        assert!(c.check_invariants().is_empty());
        // The free-rider silently discarded the object, so the entry is
        // a lie: the fetch goes stale and scrubs it (negative feedback).
        assert!(c.fetch(1, oid(0), 1.0).is_none());
        assert_eq!(c.phantom_entries(), 0);
        assert!(!c.directory_contains(oid(0)));
        assert!(c.ledger().stale_lookups >= 1);
        assert!(c.check_invariants().is_empty());
        // Free-riders also refuse diversions, so after heavy traffic the
        // cheat still holds nothing (k = 1: no replicas land there).
        for i in 1..60u64 {
            c.destage(oid(i), 1.0 + i as f64, Some(0)).unwrap();
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after destage {i}: {problems:?}");
        }
        assert_eq!(c.node(cheat).unwrap().objects().count(), 0, "free-riders keep nothing");
    }

    #[test]
    fn audits_of_honest_receipts_always_pass() {
        let mut c = small(6, 2);
        c.enable_adversary(31, 1.0, 1);
        for i in 0..30u64 {
            c.destage(oid(i), 1.0 + (i % 3) as f64, Some(0)).unwrap();
        }
        let l = *c.ledger();
        assert!(l.store_receipts > 0);
        assert_eq!(l.audits_challenged, l.store_receipts, "rate 1.0 audits every receipt");
        assert_eq!(l.audits_failed, 0);
        assert_eq!(l.forged_receipts, 0);
        assert_eq!(l.quarantines, 0);
        assert!(c.quarantined_ids().is_empty());
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn persistent_forger_is_audited_and_quarantined() {
        struct VecSink(Vec<P2pEvent>);
        impl P2pSink for VecSink {
            fn event(&mut self, e: P2pEvent) {
                self.0.push(e);
            }
        }
        let mut sink = VecSink(Vec::new());
        let mut c = small(4, 1);
        c.enable_adversary(11, 1.0, 3);
        let forger = c.node_ids().next().unwrap();
        c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
        // Saturate the cluster, then keep destaging hotter objects so
        // every replacement drops a directory entry the forger
        // re-claims — and every forged receipt is audited at rate 1.0.
        for i in 0..40u64 {
            let _ = c.destage_tap(oid(i), 1.0 + i as f64, Some(0), &mut sink);
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after destage {i}: {problems:?}");
            if c.is_quarantined(forger) {
                break;
            }
        }
        assert!(c.is_quarantined(forger), "a persistent forger must run out of strikes");
        assert_eq!(c.quarantined_ids(), vec![forger]);
        assert_eq!(c.strikes_of(forger), 3, "quarantine lands exactly at the strike limit");
        assert_eq!(c.phantom_entries(), 0, "quarantine purges the forger's phantoms");
        assert!(!c.node_ids().any(|n| n == forger), "quarantine expels the node");
        let l = *c.ledger();
        assert_eq!(l.quarantines, 1);
        assert_eq!(l.audits_failed, 3);
        assert!(l.forged_receipts >= 3);
        assert!(l.audits_challenged > l.audits_failed, "honest receipts were audited too");
        let count = |label: &str| sink.0.iter().filter(|e| e.kind_label() == label).count() as u64;
        assert_eq!(count("node_quarantined"), l.quarantines);
        assert_eq!(count("audit_failed"), l.audits_failed);
        assert_eq!(count("forged_receipt_detected"), l.forged_receipts);
        assert_eq!(count("audit_challenged"), l.audits_challenged);
        // The cluster keeps serving after the expulsion.
        for i in 100..110u64 {
            let _ = c.destage(oid(i), 1.0, Some(0));
        }
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn garbler_fails_checksums_and_quarantine_frees_its_objects() {
        let mut c = small_k(8, 4, 2);
        c.enable_adversary(23, 1.0, 2);
        for i in 0..20u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let o = oid(5);
        let root = c.root_of(o).unwrap();
        let holder = c.holder_of(root, o).unwrap();
        c.set_behavior(holder, Behavior::Garbler { rate_pm: 1000 });
        // Every response from the garbler fails its xxhash check; with
        // audits on, two bad payloads exhaust its strikes.
        assert!(c.fetch(1, o, 1.0).is_none(), "garbage is caught, not served");
        assert!(!c.is_quarantined(holder));
        assert!(c.fetch(1, o, 1.0).is_none());
        assert!(c.is_quarantined(holder), "second bad payload hits the strike limit");
        assert_eq!(c.ledger().checksum_failures, 2);
        assert_eq!(c.ledger().quarantines, 1);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // The expelled garbler's residents park in limbo; the k = 2
        // replica keeps the object reachable through lazy repair.
        let f = c.fetch(2, o, 1.0).expect("replica must rescue the object");
        assert_ne!(f.holder, holder, "the quarantined node cannot serve");
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn undefended_garbler_degrades_but_is_never_quarantined() {
        let mut c = small(6, 2);
        c.enable_adversary(29, 0.0, 1);
        for i in 0..12u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        let o = oid(3);
        let root = c.root_of(o).unwrap();
        let holder = c.holder_of(root, o).unwrap();
        c.set_behavior(holder, Behavior::Garbler { rate_pm: 1000 });
        for _ in 0..10 {
            assert!(c.fetch(1, o, 1.0).is_none(), "every response is garbage");
        }
        assert_eq!(c.ledger().checksum_failures, 10);
        assert!(!c.is_quarantined(holder), "audits off means no strikes accrue");
        assert_eq!(c.ledger().quarantines, 0);
        assert_eq!(c.ledger().audits_challenged, 0);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn quarantined_node_rejoins_with_a_clean_slate() {
        let mut c = small(4, 1);
        c.enable_adversary(13, 1.0, 2);
        let forger = c.node_ids().next().unwrap();
        c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
        for i in 0..30u64 {
            let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
            if c.is_quarantined(forger) {
                break;
            }
        }
        assert!(c.is_quarantined(forger));
        // The machine is reimaged and rejoins: new incarnation, honest
        // until proven otherwise, strikes wiped.
        c.join_node(forger);
        assert!(!c.is_quarantined(forger));
        assert_eq!(c.strikes_of(forger), 0);
        assert_eq!(c.behavior_of(forger), Behavior::Honest);
        assert!(c.node_ids().any(|n| n == forger));
        for i in 30..50u64 {
            let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
            let problems = c.check_invariants();
            assert!(problems.is_empty(), "after destage {i}: {problems:?}");
        }
        assert!(!c.is_quarantined(forger), "an honest incarnation never re-quarantines");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn persistent_forger_always_quarantined_within_bound(
            nodes in 3usize..9,
            strikes in 1u32..4,
            seed in 0u64..1_000,
        ) {
            let mut c = small(nodes, 1);
            c.enable_adversary(seed, 1.0, strikes);
            let forger = c.node_ids().next().unwrap();
            c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
            // Saturate, then every hotter destage evicts an entry the
            // forger re-claims; each claim is audited (rate 1.0) and
            // strikes, so quarantine must land within `strikes` replaces
            // past saturation. Budget is deliberately loose.
            let budget = (nodes as u64 + u64::from(strikes) + 4) * 2;
            for i in 0..budget {
                let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
                let problems = c.check_invariants();
                proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
                if c.is_quarantined(forger) {
                    break;
                }
            }
            proptest::prop_assert!(
                c.is_quarantined(forger),
                "forger survived {} audited destages", budget
            );
            proptest::prop_assert_eq!(c.phantom_entries(), 0);
        }
    }

    /// Distinct failure domains among the live cluster members.
    fn cluster_domains(c: &P2PClientCache) -> usize {
        let mut seen: Vec<u32> = Vec::new();
        for n in c.node_ids() {
            if let Some(d) = c.domain_of(n) {
                if !seen.contains(&d) {
                    seen.push(d);
                }
            }
        }
        seen.len()
    }

    #[test]
    fn blind_or_single_domain_assignment_changes_nothing() {
        let drive = |dom: Option<(u32, bool)>| {
            let mut c = small_k(10, 4, 2);
            if let Some((count, spread)) = dom {
                c.assign_domains(count, 42, spread);
            }
            for i in 0..40u64 {
                let _ = c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32));
            }
            for i in 0..40u64 {
                let _ = c.fetch(i as u32, oid(i), 2.0);
            }
            (format!("{:?}", c.ledger()), c.contents_snapshot())
        };
        let bare = drive(None);
        // Blind placement: domains drive fault injection only.
        assert_eq!(bare, drive(Some((8, false))));
        // Spread with one domain: nothing to spread across.
        assert_eq!(bare, drive(Some((1, true))));
    }

    #[test]
    fn loss_is_ledgered_exactly_once_and_rearmed_by_refetch() {
        let mut c = small(6, 4); // k = 1: no replicas, every crash loses
        let o = oid(7);
        c.destage(o, 2.0, Some(0)).unwrap();
        c.crash_node(c.root_of(o).unwrap()).unwrap();
        assert!(c.fetch(0, o, 1.0).is_none());
        assert_eq!(c.ledger().objects_lost, 1);
        assert!(c.silent_loss_audit().is_empty());
        // A second miss must not double-ledger the same loss.
        assert!(c.fetch(0, o, 1.0).is_none());
        assert_eq!(c.ledger().objects_lost, 1);
        // Origin refetch re-enters the cluster: the loss accounting is
        // re-armed, and losing the object again counts again.
        c.destage(o, 2.0, Some(0)).unwrap();
        c.crash_node(c.root_of(o).unwrap()).unwrap();
        assert!(c.fetch(0, o, 1.0).is_none());
        assert_eq!(c.ledger().objects_lost, 2);
        assert!(c.check_invariants().is_empty());
    }

    #[test]
    fn repair_sweep_heals_before_any_request() {
        let mut c = small_k(10, 16, 2);
        for i in 0..16u64 {
            c.destage(oid(i), 1.0 + i as f64, Some(i as u32)).unwrap();
        }
        let victim = c.root_of(oid(0)).unwrap();
        c.crash_node(victim).unwrap();
        assert_eq!(c.crashed_len(), 1, "a silent crash announces nothing");
        // The first scan unit is the corpse probe: the sweep detects the
        // crash before any request walks into it.
        let first = c.repair_step(1);
        assert_eq!(first.scanned, 1);
        assert_eq!(c.crashed_len(), 0);
        for _ in 0..30 {
            let out = c.repair_step(8);
            if out.at_risk == 0 && c.check_replica_floor().is_empty() {
                break;
            }
        }
        assert!(c.limbo.is_empty(), "repair must drain limbo");
        assert_eq!(c.at_risk_gauge(), 0);
        assert!(c.check_replica_floor().is_empty(), "{:?}", c.check_replica_floor());
        assert!(c.check_invariants().is_empty(), "{:?}", c.check_invariants());
        assert!(c.silent_loss_audit().is_empty());
        assert!(c.ledger().proactive_repairs > 0, "the sweep did the repairs");
        assert_eq!(c.ledger().stale_hits, 0, "no request ever tripped a stale entry");
        assert!(c.ledger().repair_scans >= u64::from(first.scanned));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn spread_placement_spans_distinct_domains(
            nodes in 4usize..12,
            k in 2usize..4,
            dcount in 1u32..8,
            seed in 0u64..1_000,
            objects in proptest::collection::vec(0u64..100, 10..40),
        ) {
            let mut c = small_k(nodes, objects.len().max(4), k.min(nodes));
            c.assign_domains(dcount, seed, true);
            for (i, o) in objects.iter().enumerate() {
                let _ = c.destage(oid(*o), 1.0 + (i % 7) as f64, Some(i as u32));
            }
            let cd = cluster_domains(&c);
            // Every copy set must span min(copies, cluster domains)
            // distinct domains — k distinct whenever the cluster offers
            // ≥ k, graceful degradation otherwise.
            for node in c.nodes.values() {
                for obj in node.store.keys() {
                    if node.replicas.contains_key(&obj) {
                        continue; // replica copy, not a primary
                    }
                    let root = node.hosted_for.get(&obj).copied().unwrap_or(node.id);
                    let hosts = c
                        .nodes
                        .get(&root.0)
                        .and_then(|rn| rn.replicated_to.get(&obj))
                        .cloned()
                        .unwrap_or_default();
                    let mut doms: Vec<u32> = Vec::new();
                    for id in std::iter::once(node.id).chain(hosts.iter().copied()) {
                        if let Some(d) = c.domain_of(id) {
                            if !doms.contains(&d) {
                                doms.push(d);
                            }
                        }
                    }
                    let copies = 1 + hosts.len();
                    proptest::prop_assert_eq!(
                        doms.len(),
                        copies.min(cd),
                        "object {:032x}: {} copies span {} of {} cluster domains",
                        obj, copies, doms.len(), cd
                    );
                }
            }
            let problems = c.check_invariants();
            proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
        }

        #[test]
        fn repair_restores_floor_after_domainfail(
            nodes in 6usize..12,
            dcount in 2u32..5,
            seed in 0u64..1_000,
            domain in 0u32..5,
        ) {
            let total = 20u64;
            let mut c = small_k(nodes, total as usize, 2);
            c.assign_domains(dcount, seed, true);
            for i in 0..total {
                c.destage(oid(i), 1.0 + (i % 7) as f64, Some(i as u32)).unwrap();
            }
            // Correlated burst: every live machine in one domain dies in
            // the same instant, silently.
            let victims = c.live_ids_in_domain(domain % dcount);
            if victims.len() == nodes {
                return Ok(()); // whole-cluster wipe: nothing to repair
            }
            for v in &victims {
                c.crash_node(*v).unwrap();
            }
            // The paced sweep alone (no request traffic) must detect
            // every corpse, drain limbo, and restore the floor within a
            // bounded number of rounds.
            let mut healed = false;
            for _ in 0..60 {
                let out = c.repair_step(8);
                if c.crashed_len() == 0
                    && c.limbo.is_empty()
                    && out.at_risk == 0
                    && c.check_replica_floor().is_empty()
                {
                    healed = true;
                    break;
                }
            }
            proptest::prop_assert!(
                healed,
                "floor not restored after 60 rounds: {} crashed, {} limbo, floor {:?}",
                c.crashed_len(), c.limbo.len(), c.check_replica_floor()
            );
            let problems = c.check_invariants();
            proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
            proptest::prop_assert!(c.silent_loss_audit().is_empty());
            // Conservation: every seeded object is either resident again
            // or explicitly ledgered lost — never silently gone.
            proptest::prop_assert_eq!(
                c.len() as u64 + c.ledger().objects_lost,
                total,
                "resident {} + lost {} != seeded {}",
                c.len(), c.ledger().objects_lost, total
            );
        }
    }
}
