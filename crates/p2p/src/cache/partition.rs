//! Network partitions: split-brain overlay islands, epoch-stamped
//! authority, and the heal-time anti-entropy reconciliation sweep.

use super::{P2PClientCache, PROXY_DEST};
use crate::events::{P2pEvent, P2pSink};
use crate::transport::MessageClass;
use std::collections::{BTreeMap, BTreeSet};
use webcache_pastry::NodeId;
use webcache_policy::BoundedCache;
use webcache_primitives::FxHashMap;

/// Cluster-side bookkeeping for an active network partition.
///
/// The overlay tracks the membership cut ([`Overlay::start_partition`]);
/// this records what the *islanded* side did with its copies. The proxy
/// sits on island A, so the lookup directory keeps describing island A
/// only; island B runs its own independent "directory" here — the
/// split-brain state the heal-time reconciliation sweep must merge.
///
/// [`Overlay::start_partition`]: webcache_pastry::Overlay::start_partition
#[derive(Clone, Debug, Default)]
pub(super) struct SplitState {
    /// Island B's view of its primaries: object → the B node holding it.
    /// Populated at cut time (B keeps every primary it held and promotes
    /// replicas of primaries stranded on island A) and by nothing else —
    /// no request traffic reaches island B while the cut is up.
    pub(super) b_index: FxHashMap<u128, NodeId>,
    /// Island B's entry epochs, mirroring the directory's: bumped when
    /// B's "repair" moved an object's authority. Compared against the
    /// A-side epoch at heal time; higher epoch wins.
    b_epochs: FxHashMap<u128, u64>,
    /// Metadata messages island B addressed to the proxy while the cut
    /// was up (store receipts for its promotions). Queued at the cut and
    /// drained through the transport's retry/dedup machinery on heal.
    pending_cut: Vec<(MessageClass, u128)>,
}

impl P2PClientCache {
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
        let Some((h, credit)) = self.pick_replica(hosts, obj, true) else { return };
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
            let root_a = self.overlay.in_island_a(root);
            // Take the replica tracking once; each island rebuilds its
            // own below.
            let (a_hosts, b_hosts): (Vec<NodeId>, Vec<NodeId>) = self
                .take_tracking(root, obj)
                .into_iter()
                .partition(|h| self.overlay.in_island_a(*h));
            if !self.overlay.in_island_a(holder) {
                // Primary stranded on island B. B keeps serving it
                // under its own authority; A promotes a surviving
                // replica or flushes the directory entry.
                self.unlink(holder, obj);
                split.b_index.insert(obj, holder);
                if e0 > 0 {
                    split.b_epochs.insert(obj, e0);
                }
                self.consume_replicas(&b_hosts, obj);
                if self.promote_or_lose(obj, &a_hosts, true, sink).is_none() {
                    // Island A lost every copy; its repair flushed
                    // the entry (the proxy's view stays exact).
                    self.directory.remove(obj);
                }
                continue;
            }
            if root_a && b_hosts.is_empty() {
                // Untouched by the cut: put the tracking back.
                if !a_hosts.is_empty() {
                    let rn = self.nodes.get_mut(&root.0).expect("root is live");
                    rn.replicated_to.insert(obj, a_hosts);
                }
                continue;
            }
            let mut new_root = root;
            if !root_a {
                // Primary on A, rooted across the cut: island A
                // re-homes it under its own owner (an authority
                // move); island B promotes a replica if it has one.
                self.unlink(holder, obj);
                new_root = self.root_of(obj).expect("island A is non-empty");
                if self.link(holder, new_root, obj) {
                    self.ledger.overlay_messages += 1; // pointer repair
                }
            }
            // Cross-cut replica copies are unreachable: island B
            // promotes one, island A restores its floor.
            self.consume_replicas(&a_hosts, obj);
            self.island_b_promotes(obj, &b_hosts, e0, &mut split, sink);
            let made = self.make_replicas(obj, new_root, holder, credit);
            self.rereplicated(obj, made, sink);
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
        let objects: BTreeSet<u128> = a_place.keys().chain(b_place.keys()).copied().collect();
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
            if self.link(winner, root, obj) {
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
            // A contested entry is stamped past both islands' epochs; an
            // island-B-only survivor — the proxy learns of it now —
            // re-enters the directory at B's; an island-A-only entry was
            // never in doubt.
            let epoch = match (a, b) {
                (Some(_), Some(_)) => a_e.max(b_e) + 1,
                (None, Some(_)) => {
                    self.forget_limbo(obj);
                    self.readvertise(obj);
                    b_e
                }
                _ => continue,
            };
            self.directory.set_epoch(obj, epoch);
            reconciled += 1;
            self.ledger.entries_reconciled += 1;
            if S::ENABLED {
                sink.event(P2pEvent::EntryReconciled { epoch });
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
        let mut truth: BTreeSet<u128> = self.limbo.keys().copied().collect();
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

    /// While the cut is up island B runs its own authority and the
    /// proxy's directory describes island A only: the B index must
    /// describe exactly the islanded copies.
    pub(super) fn check_partition_layer(&self, problems: &mut Vec<String>) {
        for node in self.nodes.values().filter(|n| !self.overlay.in_island_a(n.id)) {
            for obj in node.store.keys() {
                if !self.split.as_ref().is_some_and(|s| s.b_index.contains_key(&obj)) {
                    problems.push(format!("islanded object {obj:032x} missing from the B index"));
                }
            }
        }
        for (obj, host) in self.split.iter().flat_map(|s| &s.b_index) {
            match self.nodes.get(&host.0) {
                Some(hn) if hn.store.contains(*obj) => {}
                _ => problems
                    .push(format!("islanded object {obj:032x} not resident at its island-B host")),
            }
        }
    }
}
