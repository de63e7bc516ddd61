//! The request path — Fig. 1 written once.
//!
//! Destage (the sixteen steps of Fig. 1, §4.3), the directory-gated
//! fetch (§4.2) and the push protocol (§4.5). Each has one body, generic
//! over `const ARMED: bool` and chosen per call by
//! `P2PClientCache::request_is_armed`; the module docs of [`super`]
//! state the rule. Where the steps live:
//!
//! | Fig. 1 step | what happens | function |
//! |---|---|---|
//! | 1 | the evicted object enters the overlay and is routed to its root | `entry`, `route` |
//! | 2 | already held (at the root or its diversion target): refresh | `destage_on` via `holder_of` |
//! | 3–6 | the root has space: store, receipt, directory insert | `store_at` ← `store_receipt` |
//! | 7–11 | a leaf-set neighbor has space: divert, pointer, receipt | `destage_on` scan → `store_at` ← `link` |
//! | 12–16 | replace the root's minimum-credit object; the receipt names the victim and the proxy drops its entry (14) | `store_at` ← `on_node_eviction` |

use super::{
    object_key, ClientCacheNode, DestageOutcome, FetchOutcome, P2PClientCache, PROXY_DEST,
};
use crate::events::{NoSink, P2pEvent, P2pSink};
use crate::faults::NetFaults;
use crate::transport::MessageClass;
use webcache_pastry::NodeId;
use webcache_policy::BoundedCache;

impl P2PClientCache {
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
        let out = if self.request_is_armed() {
            self.destage_on::<true, S>(object, cost, via_client, sink)?
        } else {
            self.destage_on::<false, S>(object, cost, via_client, sink)?
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

    /// Fig. 1. Armed, the walk routes with detection, never hands an
    /// object to a dead node, and every message crosses the transport.
    fn destage_on<const ARMED: bool, S: P2pSink>(
        &mut self,
        object: u128,
        cost: f64,
        via_client: Option<u32>,
        sink: &mut S,
    ) -> Option<DestageOutcome> {
        // A dedicated destage still enters the overlay somewhere; the
        // proxy hands the object to an arbitrary (first) client cache
        // which then routes it.
        let entry = self.entry::<ARMED, S>(via_client.unwrap_or(0), sink)?;
        // The destage payload crosses the wire first. A copy that never
        // arrives intact (lost, or quarantined after failing its checksum
        // every attempt) simply is not cached — lossy but safe: nothing
        // was mutated, the proxy's eviction stands, and the next request
        // for the object is an ordinary miss.
        if ARMED && !self.transport_send(MessageClass::Destage, entry.0, object, sink) {
            return None;
        }
        match via_client {
            Some(_) => self.ledger.piggybacked_objects += 1,
            None => {
                self.ledger.direct_destages += 1;
                self.ledger.new_connections += 1;
            }
        }
        let (root, hops) = self.route::<ARMED, S>(entry, object, sink);

        // Step 2: already present at the root (or via its diversion
        // pointer)? Refresh the greedy-dual credit instead of storing a
        // duplicate.
        match self.holder_of(root, object) {
            Some(h) if !ARMED || !self.overlay.is_crashed(h) => {
                let hn = self.nodes.get_mut(&h.0).expect("holder is live");
                hn.store.touch_with_cost(object, cost, 1.0);
                return Some(DestageOutcome {
                    refreshed: true,
                    ..DestageOutcome::stored(root, h, hops)
                });
            }
            Some(h) => {
                // A stale pointer to a dead holder. Fall through to a
                // fresh store: the incoming copy supersedes whatever the
                // corpse held (limbo state is dropped just below).
                self.note_timeout(true, sink);
                self.detect_crash(h, sink);
            }
            None => {}
        }
        if ARMED {
            // The fresh copy supersedes any limbo state a crash left
            // behind (either pre-existing or created by the detection
            // just above).
            self.forget_limbo(object);
            // A free-riding or forging root accepts the destage and sends
            // the store receipt like everyone else — then silently
            // discards the object (a forger never holds what it claims; a
            // free-rider keeps its space for itself). The proxy's
            // directory gains a phantom entry the node will never back;
            // only a stale fetch (negative feedback), a failed possession
            // audit, or quarantine ever cleans it up.
            if self.freeloads(root) {
                self.forge_receipt(object, root, sink);
                return Some(DestageOutcome::stored(root, root, hops));
            }
        }

        // Step 3: root has free space.
        if self.space_anywhere() && self.nodes[&root.0].has_free_space() {
            return Some(self.store_at::<ARMED, S>(object, cost, root, root, hops, sink));
        }

        // Step 7: divert to a leaf-set neighbor with free space. Skipped
        // outright once no store in the cluster has space left — the scan
        // could only come up empty. Armed, the root's (possibly stale)
        // leaf-set knowledge can pick a crashed neighbor: the transfer
        // times out, detection repairs, and the root retries with fresher
        // knowledge.
        while self.cfg.diversion && self.space_anywhere() {
            // Free-riders refuse to host diversions for neighbors; the
            // scan skips them outright (asking would just get a "no
            // space" lie back).
            let cand = self.overlay.leaf_iter(root).expect("root is live").find(|n| {
                self.nodes.get(&n.0).is_some_and(ClientCacheNode::has_free_space)
                    && !(ARMED && self.is_freerider(*n))
            });
            let Some(b) = cand else { break };
            if ARMED {
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
            }
            return Some(self.store_at::<ARMED, S>(object, cost, root, b, hops, sink));
        }

        // Step 12: root replaces its minimum-credit object.
        let out = self.store_at::<ARMED, S>(object, cost, root, root, hops, sink);
        assert!(out.evicted.is_some(), "full store must evict");
        Some(out)
    }

    /// The store half of Fig. 1, shared by its three outcomes: `holder`
    /// (the root itself, or the leaf-set neighbor the root diverts to)
    /// inserts the object — displacing its minimum-credit resident when
    /// full (step 12) — records the diversion pointer (step 9), sends the
    /// store receipt (steps 5/10/14) that enters the object in, and drops
    /// the victim from, the proxy's directory, and places the replica
    /// copies.
    fn store_at<const ARMED: bool, S: P2pSink>(
        &mut self,
        object: u128,
        cost: f64,
        root: NodeId,
        holder: NodeId,
        hops: usize,
        sink: &mut S,
    ) -> DestageOutcome {
        let hn = self.nodes.get_mut(&holder.0).expect("holder is live");
        let had_space = hn.has_free_space();
        let evicted = hn.store.insert_with_cost(object, cost, 1.0);
        debug_assert_eq!(evicted.is_none(), had_space);
        if self.link(holder, root, object) {
            self.ledger.diversions += 1;
            self.ledger.overlay_messages += 2; // A→B transfer + ack
        }
        if let Some(victim) = evicted {
            self.on_node_eviction(holder, victim, sink);
        }
        self.resident += 1;
        self.store_receipt::<ARMED, S>(object, sink);
        if let Some(victim) = evicted {
            self.directory.remove(victim);
        }
        self.note_genuine_copy(object);
        if ARMED {
            self.audit_receipt(object, holder, true, sink);
            if let Some(victim) = evicted {
                // A receipt forger watching the replacement traffic can
                // re-claim the dropped entry with a forged receipt of
                // its own.
                self.maybe_forge_reclaim(victim, sink);
            }
        }
        self.make_replicas(object, root, holder, cost);
        DestageOutcome { evicted, ..DestageOutcome::stored(root, holder, hops) }
    }

    /// Fig. 1 steps 5–6 (and 10–11, 14): a store receipt reaches the
    /// proxy, which enters `object` in its lookup directory. The receipt
    /// is metadata on the reliable client↔proxy channel: retries are
    /// priced, but it always lands — a dropped receipt would
    /// desynchronize the directory from residency.
    pub(super) fn store_receipt<const ARMED: bool, S: P2pSink>(
        &mut self,
        object: u128,
        sink: &mut S,
    ) {
        if ARMED {
            self.transport_send(MessageClass::DirectoryUpdate, PROXY_DEST, object, sink);
        }
        self.directory.insert(object);
        self.ledger.store_receipts += 1;
    }

    /// Book-keeping when `node` evicts `object` from its store: fix up
    /// diversion pointers and the resident count, reporting the eviction
    /// to `sink`. (Directory updates are the caller's responsibility
    /// since receipts batch them.)
    pub(super) fn on_node_eviction<S: P2pSink>(
        &mut self,
        node: NodeId,
        object: u128,
        sink: &mut S,
    ) {
        self.resident -= 1;
        // An evicted primary takes its replica set with it.
        let (owner, hosts) = self.unlink_primary(node, object);
        if owner.is_some() {
            // The evicted object was hosted for another root; telling
            // that root to drop its pointer is one overlay message.
            self.ledger.overlay_messages += 1;
        }
        self.consume_replicas(&hosts, object);
        if S::ENABLED {
            sink.event(P2pEvent::Eviction { pointer_invalidated: owner.is_some() });
        }
    }

    /// Resolves which node actually holds `object`, given its DHT root:
    /// the root itself, or the neighbor its diversion table points at.
    pub(super) fn holder_of(&self, root: NodeId, object: u128) -> Option<NodeId> {
        let rn = self.nodes.get(&root.0)?;
        if rn.store.contains(object) {
            return Some(root);
        }
        rn.links().diverted_to.get(&object).copied()
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

    /// The root `object` routes to and the node holding it under that
    /// root, when some node does.
    pub(super) fn locate(&self, object: u128) -> Option<(NodeId, NodeId)> {
        let root = self.root_of(object)?;
        Some((root, self.holder_of(root, object)?))
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
        if self.request_is_armed() {
            self.fetch_on::<true, S>(client, object, hit_cost, sink)
        } else {
            self.fetch_on::<false, S>(client, object, hit_cost, sink)
        }
    }

    /// The lookup of §4.2: route to the root, follow its diversion
    /// pointer, serve. Armed, it routes with detection, survives stale
    /// pointers and dead primaries via replica promotion, and degrades
    /// to `None` (proxy → server fallback) when the object is truly gone.
    fn fetch_on<const ARMED: bool, S: P2pSink>(
        &mut self,
        client: u32,
        object: u128,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<FetchOutcome> {
        let entry = self.entry::<ARMED, S>(client, sink)?;
        let (root, hops) = self.route::<ARMED, S>(entry, object, sink);
        let pointer = self.holder_of(root, object);
        if let Some(holder) = pointer.filter(|h| !ARMED || !self.overlay.is_crashed(*h)) {
            return self.serve_from::<ARMED, S>(holder, root, hops, object, hit_cost, sink);
        }
        if ARMED {
            if let Some(corpse) = pointer {
                // The root's diversion pointer targets a silently dead
                // host. Detection parks the corpse's objects in limbo;
                // the limbo retry pays the stale-hit timeout and promotes
                // this object's replica (or gives up and degrades).
                self.detect_crash(corpse, sink);
            }
            if let Some(outcome) = self.resolve_limbo(root, object, hops, hit_cost, sink) {
                return outcome;
            }
            // Not in limbo. A pointer that dangled with no limbo entry
            // (corpse reclaimed out from under it) is a plain stale
            // lookup; a root that knows nothing may still have an
            // orphaned replica surviving in its leaf set.
            if pointer.is_none() {
                if let Some(rescued) = self.replica_rescue(root, object, sink) {
                    if S::ENABLED {
                        sink.event(P2pEvent::StaleDirectoryHit { replica_served: true });
                    }
                    return self
                        .serve_from::<ARMED, S>(rescued, root, hops, object, hit_cost, sink);
                }
            }
        }
        self.stale_miss(object, hops, sink);
        None
    }

    /// The overlay node `client`'s traffic enters through. Armed, it
    /// must be live: every crashed entry found on the way costs a
    /// timeout and triggers detection. `None` once the cluster is
    /// exhausted.
    fn entry<const ARMED: bool, S: P2pSink>(
        &mut self,
        client: u32,
        sink: &mut S,
    ) -> Option<NodeId> {
        loop {
            let e = self.entry_for_client(client)?;
            if !ARMED {
                return Some(e);
            }
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

    /// Routes from `entry` to the DHT root of `object`, charging the hop
    /// count to the ledger. Armed, the walk runs with liveness detection
    /// and message loss — charging timeouts and detections too, and
    /// reclaiming whatever it discovered — and returns the surviving
    /// destination.
    fn route<const ARMED: bool, S: P2pSink>(
        &mut self,
        entry: NodeId,
        object: u128,
        sink: &mut S,
    ) -> (NodeId, usize) {
        if !ARMED {
            let (root, hops) =
                self.overlay.route_hops(entry, object_key(object)).expect("entry node is live");
            self.ledger.overlay_messages += hops as u64;
            return (root, hops);
        }
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

    /// Serves `object` from `holder`, charging the diversion-pointer hop
    /// and, armed, a slow-node stall when applicable. Armed, returns
    /// `None` when the holder refuses the fetch (free-rider / forger) or
    /// is a garbler whose response failed its payload checksum — the
    /// requester pays a timeout and degrades to the server, but the
    /// directory entry stands (the object really is resident there).
    pub(super) fn serve_from<const ARMED: bool, S: P2pSink>(
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
        if ARMED && self.spoils_fetch(holder, sink) {
            return None;
        }
        let hn = self.nodes.get_mut(&holder.0).expect("holder is live");
        hn.store.touch_with_cost(object, hit_cost, 1.0);
        if ARMED && self.faults.as_ref().is_some_and(|f| f.is_slow(holder)) {
            self.note_timeout(false, sink);
        }
        let hops = base_hops + extra;
        if S::ENABLED {
            sink.event(P2pEvent::Lookup { hops: hops.min(u16::MAX as usize) as u16, stale: false });
        }
        Some(FetchOutcome { holder, hops })
    }

    /// The shared stale-lookup tail: the directory approved the fetch but
    /// nothing could serve it. Charges the ledger, invalidates the entry
    /// (negative feedback keeps an exact directory exact, and leaves a
    /// Bloom directory's counters to the evictions they counted), and
    /// emits the stale [`P2pEvent::Lookup`].
    pub(super) fn stale_miss<S: P2pSink>(&mut self, object: u128, hops: usize, sink: &mut S) {
        self.ledger.stale_lookups += 1;
        // The invalidation is metadata: retries priced, always delivered
        // (a dropped one would leave the exact directory permanently
        // oversized).
        self.transport_send(MessageClass::DirectoryInvalidate, PROXY_DEST, object, sink);
        self.directory.invalidate(object);
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
}
