//! Cluster membership: joins, silent crashes with lazy detection, and
//! graceful departures.
//!
//! The two ways a machine leaves — [`depart_node`] and a detected
//! [`crash_node`] (`reclaim_node_state`) — walk the same per-node books
//! through the primitives of the `replicas` layer, but each keeps its
//! own operation *order*: which loss is ledgered first and which pointer
//! is rewired before which hand-off is observable in the event stream
//! and the goldens.
//!
//! [`depart_node`]: P2PClientCache::depart_node
//! [`crash_node`]: P2PClientCache::crash_node

use super::{ClientCacheNode, P2PClientCache};
use crate::events::{NoSink, P2pEvent, P2pSink};
use crate::faults::P2pError;
use webcache_pastry::NodeId;
use webcache_policy::BoundedCache;

impl P2PClientCache {
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
        self.overlay.crash(id)?;
        self.books_changed();
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
        if self.overlay.is_crashed(id) {
            return Err(P2pError::AlreadyCrashed(id));
        }
        let Some(node) = self.nodes.remove(&id.0) else {
            return Err(P2pError::UnknownNode(id));
        };
        self.overlay.fail(id).expect("overlay membership mirrors the node map");
        self.books_changed();
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
            // Hand-off re-replicates fresh at the new root, so consume the
            // old copies.
            let (_owner, hosts) = self.unlink_removed_primary(&node, obj);
            self.consume_replicas(&hosts, obj);
            self.resident -= 1; // the copy leaves with the machine
            match self.root_of(obj) {
                None => {
                    // Every remaining node is crashed or gone.
                    self.directory.remove(obj);
                    self.note_lost(obj, !hosts.is_empty(), sink);
                }
                Some(nr) => {
                    self.ledger.overlay_messages += 1; // hand-off transfer
                    self.adopt(nr, obj, credit, sink);
                    handed += 1;
                    self.make_replicas(obj, nr, nr, credit);
                }
            }
        }
        // The departure may have taken the last replica copy of a crash
        // casualty with it: ledger those second-order losses now.
        self.ledger_newly_unrecoverable(sink);
        if self.nodes.is_empty() {
            self.cluster_emptied(sink);
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeDeparted { objects_handed_off: handed });
        }
        Ok(())
    }

    /// A crashed node has been detected: repair the overlay (if the walk
    /// that found it has not already) and reclaim the p2p bookkeeping.
    pub(super) fn detect_crash<S: P2pSink>(&mut self, dead: NodeId, sink: &mut S) {
        self.books_changed();
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
            let (_owner, hosts) = self.unlink_removed_primary(&node, obj);
            objects_lost += self.park_casualty(obj, hosts, sink);
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
            self.cluster_emptied(sink);
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeFailed { objects_lost });
        }
    }

    /// The primary of `obj` died with a detected crash; `hosts` is its
    /// replica set, already out of its root's books. Parks the object in
    /// limbo for lazy repair — the stale directory entry waits for the
    /// next fetch — and returns 1 when it had no replica at all (ledgered
    /// lost on the spot), else 0.
    fn park_casualty<S: P2pSink>(&mut self, obj: u128, hosts: Vec<NodeId>, sink: &mut S) -> u32 {
        self.resident -= 1;
        // Split-brain duplicate: the proxy's side of the ring still
        // reaches a live primary (the corpse held the other island's
        // copy). Nothing is at risk — consume the dead copy's replica
        // bookkeeping instead of parking a limbo entry no heal-time
        // branch would ever clear.
        if self.has_live_primary(obj) {
            self.consume_replicas(&hosts, obj);
            return 0;
        }
        let unreplicated = hosts.is_empty();
        if unreplicated {
            self.note_lost(obj, false, sink);
        }
        self.limbo.insert(obj, hosts);
        u32::from(unreplicated)
    }

    /// For each object the removed `node` rooted but had diverted to a
    /// host: if the host still lives the primary survives — rewire the
    /// pointer to the object's new root and keep the replica tracking; if
    /// the host is gone too, promote a replica or lose the object.
    /// Returns the number of objects lost.
    fn rehome_diverted<S: P2pSink>(&mut self, node: &ClientCacheNode, sink: &mut S) -> u32 {
        let mut objects_lost = 0u32;
        for (obj, host) in &node.links().diverted_to {
            let hosts = node.links().replicated_to.get(obj).cloned().unwrap_or_default();
            let host_live = !self.overlay.is_crashed(*host) && self.nodes.contains_key(&host.0);
            if host_live {
                let nr = self.root_of(*obj).expect("host is live, so the overlay is non-empty");
                self.nodes
                    .get_mut(&host.0)
                    .expect("live")
                    .links_if_any()
                    .and_then(|l| l.hosted_for.remove(obj));
                if self.link(*host, nr, *obj) {
                    self.ledger.overlay_messages += 1; // pointer repair
                }
                self.readvertise(*obj);
                if !hosts.is_empty() {
                    // Move the replica tracking to the new root and retag
                    // each copy.
                    for h in &hosts {
                        if let Some(hn) = self.nodes.get_mut(&h.0) {
                            if let Some(e) = hn.links_if_any().and_then(|l| l.replicas.get_mut(obj))
                            {
                                e.1 = nr;
                            }
                        }
                    }
                    self.nodes
                        .get_mut(&nr.0)
                        .expect("live")
                        .links_mut()
                        .replicated_to
                        .insert(*obj, hosts);
                }
            } else {
                // The primary died with its (also crashed / gone) host.
                let had_primary = match self.nodes.get_mut(&host.0) {
                    Some(hn) => {
                        let removed = hn.store.remove(*obj);
                        hn.links_if_any().and_then(|l| l.hosted_for.remove(obj));
                        removed
                    }
                    // Host already reclaimed: the object was fully handled
                    // (promoted or lost) when the host went.
                    None => continue,
                };
                if had_primary {
                    objects_lost += self.park_casualty(*obj, hosts, sink);
                } else {
                    // Dangling pointer (should not happen): just consume
                    // any replica bookkeeping.
                    self.consume_replicas(&hosts, *obj);
                    self.directory.remove(*obj);
                }
            }
        }
        objects_lost
    }

    /// Remaps clients whose entry node is `dead` to some surviving node
    /// (preferring live ones; a crashed-but-undetected fallback will be
    /// detected on first use). Clears the mapping when nobody is left.
    pub(super) fn remap_clients_away_from(&mut self, dead: NodeId) {
        if self.node_of_client.iter().all(|s| *s != dead) {
            return;
        }
        // While a cut is up the proxy only reaches island A, whose
        // members need not be the lowest ids once one has joined late.
        let candidates = || self.overlay.node_ids().chain(self.overlay.crashed_ids());
        let fallback =
            candidates().find(|n| self.overlay.in_island_a(*n)).or_else(|| candidates().next());
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

    /// The last machine just left: no entry points remain and exact
    /// remove pairing is impossible, so the proxy's view is flushed
    /// wholesale. Every crash casualty still parked in limbo dies with
    /// the cluster and is ledgered (in object order) *before* the wipe —
    /// a wipe must not be a silent loss.
    fn cluster_emptied<S: P2pSink>(&mut self, sink: &mut S) {
        let mut parked: Vec<(u128, bool)> =
            self.limbo.drain().map(|(o, h)| (o, !h.is_empty())).collect();
        parked.sort_unstable_by_key(|e| e.0);
        for (obj, had) in parked {
            self.note_lost(obj, had, sink);
        }
        self.node_of_client.clear();
        self.directory.clear();
        if let Some(adv) = self.adversary.as_mut() {
            adv.phantoms.clear();
        }
        debug_assert_eq!(self.resident, 0);
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
        if let Some(adv) = self.adversary.as_mut() {
            adv.admit(id);
        }
        let msgs = self.overlay.join(id);
        self.books_changed();
        self.ledger.overlay_messages += msgs as u64;
        self.nodes.insert(id.0, ClientCacheNode::new(id, self.cfg.node_capacity));
        if let Some(dom) = self.domains.as_mut() {
            dom.admit(id);
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
            self.nodes.get_mut(&holder.0).expect("holder is live").store.remove(obj);
            // The object may have been hosted on a diversion: drop the
            // stale pointer at its former root. The migrated primary gets
            // a fresh replica set at the new root; consume the old copies.
            let (_owner, hosts) = self.unlink_primary(holder, obj);
            self.consume_replicas(&hosts, obj);
            self.resident -= 1;
            self.ledger.overlay_messages += 1; // hand-off to the new root
            self.adopt(id, obj, credit, sink);
            self.make_replicas(obj, id, id, credit);
        }
        if S::ENABLED {
            sink.event(P2pEvent::NodeJoined { objects_migrated });
        }
    }
}
