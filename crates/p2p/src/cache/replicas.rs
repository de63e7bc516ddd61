//! Placement primitives and the replica layer.
//!
//! Where a copy sits and who knows about it: the diversion pointer pair
//! of §4.3 ([`link`](P2PClientCache::link) and its inverses), the
//! replica sets of the k > 1 extension with their failure-domain spread,
//! limbo (crash casualties awaiting lazy repair), promotion of a
//! surviving replica, and the exactly-once loss ledger. Every other
//! layer — the request path, membership, partitions, repair — moves
//! copies through these and nothing else.

use super::{ClientCacheNode, P2PClientCache};
use crate::events::{P2pEvent, P2pSink};
use crate::transport::MessageClass;
use webcache_pastry::NodeId;
use webcache_policy::BoundedCache;
use webcache_primitives::seed::SeedStream;
use webcache_primitives::FxHashMap;

/// Correlated-failure domain assignment: every node belongs to one
/// failure domain (a campus subnet, a rack, an ISP segment) and whole
/// domains can fail together (`domainfail@N:D` in the fault grammar).
/// `None` on the cache keeps every path bit-identical to the
/// domain-free simulator.
#[derive(Clone, Debug)]
pub(super) struct DomainState {
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

impl DomainState {
    /// Newcomers draw a failure domain from the dedicated stream (a
    /// rejoining machine keeps whatever domain its id already has —
    /// same rack, same subnet).
    pub(super) fn admit(&mut self, id: NodeId) {
        if !self.of.contains_key(&id.0) {
            let d = self.draws.pick(self.count as usize) as u32;
            self.of.insert(id.0, d);
        }
    }
}

impl P2PClientCache {
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

    // ------------------------------------------------------------------
    // Pointer and tracking primitives.
    // ------------------------------------------------------------------

    /// Records that `holder` stores `obj` on behalf of `root`: the root's
    /// diversion-table entry (§4.3, "a pointer to B") and the holder's
    /// reverse index. A holder that *is* the root needs neither and gets
    /// neither; returns whether a pointer was written, so callers charge
    /// the pointer message only when one was sent.
    pub(super) fn link(&mut self, holder: NodeId, root: NodeId, obj: u128) -> bool {
        if holder == root {
            return false;
        }
        self.nodes.get_mut(&root.0).expect("root is live").diverted_to.insert(obj, holder);
        self.nodes.get_mut(&holder.0).expect("holder is live").hosted_for.insert(obj, root);
        true
    }

    /// The inverse of [`link`](Self::link): forgets that the live node
    /// `holder` hosts `obj` for another root and drops that root's
    /// pointer. Returns the root it was hosted for, if any.
    pub(super) fn unlink(&mut self, holder: NodeId, obj: u128) -> Option<NodeId> {
        let owner = self.nodes.get_mut(&holder.0).expect("live node").hosted_for.remove(&obj)?;
        self.drop_pointer(owner, obj);
        Some(owner)
    }

    /// Drops `owner`'s diversion pointer for `obj` (the owner itself may
    /// already be gone).
    fn drop_pointer(&mut self, owner: NodeId, obj: u128) {
        if let Some(on) = self.nodes.get_mut(&owner.0) {
            on.diverted_to.remove(&obj);
        }
    }

    /// Takes the replica set of `obj` out of the books of `root`. The
    /// copies it names are the caller's to consume, re-tag or park.
    pub(super) fn take_tracking(&mut self, root: NodeId, obj: u128) -> Vec<NodeId> {
        if self.cfg.replication <= 1 {
            // Replica sets only ever come out of `make_replicas`, which is
            // a no-op at k = 1 — skip the map probe per eviction.
            return Vec::new();
        }
        self.nodes.get_mut(&root.0).and_then(|rn| rn.replicated_to.remove(&obj)).unwrap_or_default()
    }

    /// Detaches the primary of `obj` stored on the live node `holder`
    /// from its root's books: [`unlink`](Self::unlink) plus the replica
    /// set tracked at that root (or at `holder` when it is the root).
    /// Returns `(the root it was hosted for, the replica hosts)`.
    pub(super) fn unlink_primary(
        &mut self,
        holder: NodeId,
        obj: u128,
    ) -> (Option<NodeId>, Vec<NodeId>) {
        let owner = self.unlink(holder, obj);
        (owner, self.take_tracking(owner.unwrap_or(holder), obj))
    }

    /// [`unlink_primary`](Self::unlink_primary) for a primary that sat
    /// on the removed `node` (already out of the node map): its replica
    /// set is tracked on `node` itself when it was the root, or on the
    /// (possibly still-live) owner when the object was diverted in.
    pub(super) fn unlink_removed_primary(
        &mut self,
        node: &ClientCacheNode,
        obj: u128,
    ) -> (Option<NodeId>, Vec<NodeId>) {
        let owner = node.hosted_for.get(&obj).copied();
        let hosts = match owner {
            None => node.replicated_to.get(&obj).cloned().unwrap_or_default(),
            Some(o) => {
                self.drop_pointer(o, obj);
                self.take_tracking(o, obj)
            }
        };
        (owner, hosts)
    }

    /// Drops the replica copies of `obj` held at `hosts` (tracking is
    /// the caller's problem — it has usually been taken already).
    pub(super) fn consume_replicas(&mut self, hosts: &[NodeId], obj: u128) {
        for h in hosts {
            if let Some(hn) = self.nodes.get_mut(&h.0) {
                hn.replicas.remove(&obj);
            }
        }
    }

    /// Unlinks every replica copy hosted by the removed `node` from the
    /// roots that tracked it.
    pub(super) fn unlink_replicas_hosted_by(&mut self, node: &ClientCacheNode) {
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

    /// `node` takes `obj` into its store at the greedy-dual `credit` the
    /// copy carried — a hand-off, migration or promotion rather than a
    /// destage, so no receipt is sent. A resident it displaces is
    /// book-kept as an eviction and loses its directory entry.
    pub(super) fn adopt<S: P2pSink>(&mut self, node: NodeId, obj: u128, credit: f64, sink: &mut S) {
        let nn = self.nodes.get_mut(&node.0).expect("adopter is live");
        if let Some(evicted) = nn.store.insert_with_cost(obj, credit, 1.0) {
            self.on_node_eviction(node, evicted, sink);
            self.directory.remove(evicted);
        }
        self.resident += 1;
    }

    // ------------------------------------------------------------------
    // Replica placement.
    // ------------------------------------------------------------------

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

    /// Ships a replica copy of `object`, tracked at `root`, to each of
    /// `targets`. Returns the number of copies made; recording them in
    /// the root's replica set is the caller's.
    fn place_copies(&mut self, object: u128, root: NodeId, targets: &[NodeId], credit: f64) -> u32 {
        for t in targets {
            let tn = self.nodes.get_mut(&t.0).expect("target checked live");
            tn.replicas.insert(object, (credit, root));
            self.ledger.overlay_messages += 1; // replica transfer
        }
        targets.len().min(u32::MAX as usize) as u32
    }

    /// Stores up to `k - 1` replica copies of `object` at live leaf-set
    /// members of `root` (excluding the `primary` holder), recording the
    /// replica set at `root`. Returns the number of copies made. A strict
    /// no-op when the replication factor is 1.
    pub(super) fn make_replicas(
        &mut self,
        object: u128,
        root: NodeId,
        primary: NodeId,
        credit: f64,
    ) -> u32 {
        if self.cfg.replication <= 1 {
            return 0;
        }
        let targets = self.replica_targets(root, primary, self.cfg.replication - 1, &[]);
        let made = self.place_copies(object, root, &targets, credit);
        if made > 0 {
            let rn = self.nodes.get_mut(&root.0).expect("root is live");
            let prev = rn.replicated_to.insert(object, targets);
            debug_assert!(prev.is_none(), "replica set created twice for the same object");
        }
        made
    }

    /// Tops an under-replicated entry back up to the replica floor:
    /// makes fresh copies on live leaf-set members not already holding
    /// one, extending the tracked replica set at `root`. Returns the
    /// number of copies made (0 when already at floor or no targets).
    pub(super) fn top_up_replicas(
        &mut self,
        object: u128,
        root: NodeId,
        primary: NodeId,
        credit: f64,
    ) -> u32 {
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
        let made = self.place_copies(object, root, &targets, credit);
        if made > 0 {
            let rn = self.nodes.get_mut(&root.0).expect("root is live");
            rn.replicated_to.entry(object).or_default().extend(targets);
        }
        made
    }

    // ------------------------------------------------------------------
    // Promotion and limbo.
    // ------------------------------------------------------------------

    /// First live replica wins: consumes *every* copy of `obj` named by
    /// `hosts` and returns the first live host that had one, with the
    /// credit its copy carried. With `need_space`, a host whose store is
    /// full is passed over — the partition-time promotions never evict.
    pub(super) fn pick_replica(
        &mut self,
        hosts: &[NodeId],
        obj: u128,
        need_space: bool,
    ) -> Option<(NodeId, f64)> {
        let mut chosen: Option<(NodeId, f64)> = None;
        for &h in hosts {
            let crashed = self.overlay.is_crashed(h);
            let Some(hn) = self.nodes.get_mut(&h.0) else { continue };
            let Some((credit, _root)) = hn.replicas.remove(&obj) else { continue };
            if !crashed && chosen.is_none() && (!need_space || hn.store.has_free_space()) {
                chosen = Some((h, credit));
            }
        }
        chosen
    }

    /// Promotes the first live replica of `object` to a primary
    /// ([`pick_replica`](Self::pick_replica)), rewires the diversion
    /// pointer from its new root, and restores the replication factor
    /// ([`P2pEvent::Rereplicated`]). All old replica entries are
    /// consumed. Returns the promoted holder and the number of fresh
    /// replica copies made, or `None` when no live replica exists — the
    /// caller then accounts the object as lost.
    pub(super) fn promote_or_lose<S: P2pSink>(
        &mut self,
        object: u128,
        hosts: &[NodeId],
        need_space: bool,
        sink: &mut S,
    ) -> Option<(NodeId, u32)> {
        let (h, credit) = self.pick_replica(hosts, object, need_space)?;
        // The promotion re-home is metadata riding the repair protocol:
        // retries are priced, but it always lands — dropping it would
        // strand the promoted replica outside the root's bookkeeping.
        self.transport_send(MessageClass::ReplicaRehome, h.0, object, sink);
        self.adopt(h, object, credit, sink); // the object is reachable again
        let new_root = self.root_of(object).unwrap_or(h);
        if self.link(h, new_root, object) {
            self.ledger.overlay_messages += 1; // pointer update
        }
        self.ledger.overlay_messages += 1; // promotion transfer
        self.readvertise(object);
        let copies = self.make_replicas(object, new_root, h, credit);
        self.rereplicated(object, copies, sink);
        Some((h, copies))
    }

    /// A genuine copy of `obj` is reachable through the ring (again):
    /// a stale fetch between the crash and its repair may have flushed
    /// the directory entry, so re-enter it if the directory forgot it,
    /// and supersede any phantom or loss record.
    pub(super) fn readvertise(&mut self, obj: u128) {
        if !self.directory.contains(obj) {
            self.directory.insert(obj);
        }
        self.note_genuine_copy(obj);
    }

    /// `obj`'s authority moved to a new primary whose replica floor was
    /// rebuilt with `copies` fresh copies: stamp the directory entry's
    /// epoch and account the re-replication.
    pub(super) fn rereplicated<S: P2pSink>(&mut self, obj: u128, copies: u32, sink: &mut S) {
        self.directory.bump_epoch(obj);
        self.ledger.rereplications += 1;
        if S::ENABLED {
            sink.event(P2pEvent::Rereplicated { copies });
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
    pub(super) fn resolve_limbo<S: P2pSink>(
        &mut self,
        root: NodeId,
        object: u128,
        hops: usize,
        hit_cost: f64,
        sink: &mut S,
    ) -> Option<Option<super::FetchOutcome>> {
        let hosts = self.limbo.remove(&object)?;
        self.note_timeout(true, sink);
        self.ledger.stale_hits += 1;
        match self.promote_or_lose(object, &hosts, false, sink) {
            Some((holder, _copies)) => {
                if S::ENABLED {
                    sink.event(P2pEvent::StaleDirectoryHit { replica_served: true });
                }
                Some(self.serve_from::<true, S>(holder, root, hops, object, hit_cost, sink))
            }
            None => {
                self.note_lost(object, !hosts.is_empty(), sink);
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
    pub(super) fn forget_limbo(&mut self, object: u128) {
        if let Some(hosts) = self.limbo.remove(&object) {
            self.consume_replicas(&hosts, object);
        }
    }

    /// [`holder_of`](Self::holder_of), unless that holder crashed.
    fn live_holder_of(&self, root: NodeId, object: u128) -> Option<NodeId> {
        self.holder_of(root, object).filter(|h| !self.overlay.is_crashed(*h))
    }

    /// Last-resort probe of the root's leaf set for a surviving replica
    /// (or stray primary) of `object` — the belt-and-braces path for
    /// copies whose tracking is buried on a crashed-but-undetected old
    /// root. Probing a crashed member times out and triggers detection
    /// (whose reclaim promotes tracked replicas properly); a true orphan
    /// is promoted directly under `root`. Only meaningful when k > 1.
    pub(super) fn replica_rescue<S: P2pSink>(
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
                if let Some(h) = self.live_holder_of(root, object) {
                    return Some(h);
                }
                continue;
            }
            let Some(mn) = self.nodes.get(&m.0) else { continue };
            self.ledger.overlay_messages += 1; // probe
            if mn.store.contains(object) {
                // A stray primary whose old root died before detection:
                // rewire the pointer from the current root.
                self.link(m, root, object);
                self.readvertise(object);
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
                    if let Some(h) = self.live_holder_of(root, object) {
                        return Some(h);
                    }
                }
                continue;
            }
            // True orphan: the tracking died with its root, and the object
            // was accounted lost. Promote this copy under `root`.
            self.nodes.get_mut(&m.0).expect("live").replicas.remove(&object);
            self.adopt(m, object, credit, sink); // the object is reachable again
            self.link(m, root, object);
            self.readvertise(object);
            self.ledger.overlay_messages += 1;
            // The orphan promotion moved the object's authority.
            self.rereplicated(object, 0, sink);
            return Some(m);
        }
        None
    }

    // ------------------------------------------------------------------
    // The loss ledger.
    // ------------------------------------------------------------------

    /// A genuine copy of `object` is now backing its directory entry:
    /// any phantom attribution is superseded, and a historical loss
    /// ledgering is re-armed (an object lost, refetched from the origin,
    /// and lost again counts twice).
    pub(super) fn note_genuine_copy(&mut self, object: u128) {
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
    pub(super) fn note_lost<S: P2pSink>(&mut self, object: u128, had_replicas: bool, sink: &mut S) {
        if !self.lost.insert(object) {
            return;
        }
        self.ledger.objects_lost += 1;
        if S::ENABLED {
            sink.event(P2pEvent::ObjectLost { had_replicas });
        }
    }

    /// True when some live node named by `hosts` still holds a replica
    /// copy of `obj`.
    fn has_live_replica(&self, obj: u128, hosts: &[NodeId]) -> bool {
        hosts.iter().any(|h| {
            !self.overlay.is_crashed(*h)
                && self.nodes.get(&h.0).is_some_and(|hn| hn.replicas.contains_key(&obj))
        })
    }

    /// True when a live primary copy of `obj` is still reachable through
    /// the proxy's side of the ring: the route lands on a root whose
    /// holder (itself or a diversion target) is live and actually stores
    /// the object.
    pub(super) fn has_live_primary(&self, obj: u128) -> bool {
        self.locate(obj)
            .filter(|(_root, h)| !self.overlay.is_crashed(*h))
            .and_then(|(_root, h)| self.nodes.get(&h.0))
            .is_some_and(|hn| hn.store.contains(obj))
    }

    /// Sweeps limbo after a membership change: any parked entry whose
    /// last live replica copy just vanished is ledgered lost *now*
    /// (exactly once, through the `lost` set) — a casualty of a second
    /// crash or departure must not wait for a fetch or a repair scan to
    /// be counted.
    pub(super) fn ledger_newly_unrecoverable<S: P2pSink>(&mut self, sink: &mut S) {
        let doomed: Vec<(u128, bool)> = self
            .limbo
            .iter()
            .filter(|(obj, hosts)| !self.lost.contains(obj) && !self.has_live_replica(**obj, hosts))
            .map(|(obj, hosts)| (*obj, !hosts.is_empty()))
            .collect();
        for (obj, had) in doomed {
            self.note_lost(obj, had, sink);
        }
    }

    /// The no-silent-loss audit (chaos oracle 9): every object that is
    /// unrecoverable *right now* — parked in limbo with no surviving
    /// live replica copy — must already be ledgered in the lost set.
    /// Returns human-readable violations (empty = conserved).
    pub fn silent_loss_audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (obj, hosts) in &self.limbo {
            if !self.has_live_replica(*obj, hosts) && !self.lost.contains(obj) {
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

    // ------------------------------------------------------------------
    // Invariants of this layer.
    // ------------------------------------------------------------------

    /// Replica sets and limbo: every tracked set names an object its
    /// root still holds and hosts that still have the copy, every copy
    /// is tracked by its root (or orphaned by a crash and parked), and a
    /// limbo entry keeps its stale directory entry and is never resident.
    pub(super) fn check_replica_layer(&self, problems: &mut Vec<String>) {
        for node in self.nodes.values() {
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
        for obj in self.limbo.keys() {
            // Lazy repair means the stale directory entry must survive
            // until a fetch or fresh destage resolves it; and a limbo
            // object can never be resident at the same time.
            if !self.directory.contains(*obj) {
                problems.push(format!("limbo object {obj:032x} missing its stale entry"));
            }
            if self.locate(*obj).is_some() {
                problems.push(format!("limbo object {obj:032x} is also resident"));
            }
        }
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
}
