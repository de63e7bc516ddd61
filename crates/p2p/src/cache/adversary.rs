//! Misbehaving participants and the spot-check audit defense.
//!
//! The request path consults this layer only from its armed
//! instantiation: a root that fakes receipts
//! ([`freeloads`](P2PClientCache::freeloads)), a holder that spoils a
//! fetch, the audit of each store receipt, and a forger re-claiming a
//! dropped entry.

use super::P2PClientCache;
use crate::events::{P2pEvent, P2pSink};
use crate::transport::MessageClass;
use std::collections::{BTreeMap, BTreeSet};
use webcache_pastry::NodeId;
use webcache_policy::BoundedCache;
use webcache_primitives::seed::SeedStream;
use webcache_primitives::FxHashMap;

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
pub(super) struct AdversaryState {
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
    pub(super) phantoms: FxHashMap<u128, NodeId>,
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

    /// A rejoining machine is a fresh incarnation: whatever the old one
    /// did — strikes, quarantine, a misbehavior assignment — died with
    /// it. (Phantom entries it forged keep their attribution until the
    /// usual cleanup paths flush them.)
    pub(super) fn admit(&mut self, id: NodeId) {
        self.behaviors.remove(&id.0);
        self.strikes.remove(&id.0);
        self.quarantined.remove(&id.0);
    }
}

impl P2PClientCache {
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

    /// True when `id` is a live (non-quarantined) free-rider.
    pub(super) fn is_freerider(&self, id: NodeId) -> bool {
        self.behavior_of(id) == Behavior::FreeRider
    }

    /// True when `id` takes the cluster's service without giving any: a
    /// free-rider or a forger. As a root it sends store receipts for
    /// objects it silently discards; as a holder it ignores fetches.
    pub(super) fn freeloads(&self, id: NodeId) -> bool {
        matches!(self.behavior_of(id), Behavior::FreeRider | Behavior::Forger { .. })
    }

    /// `from` sends a store receipt for an `object` it does not hold.
    /// The forged receipt is indistinguishable from a real one: it rides
    /// the same metadata channel and lands in the directory, which gains
    /// a phantom entry attributed to the sender — and runs straight into
    /// the audit defense when it is on.
    pub(super) fn forge_receipt<S: P2pSink>(&mut self, object: u128, from: NodeId, sink: &mut S) {
        self.store_receipt::<true, S>(object, sink);
        let adv = self.adversary.as_mut().expect("a forged receipt implies adversary mode");
        adv.phantoms.insert(object, from);
        self.audit_receipt(object, from, false, sink);
    }

    /// Runs the spot-check audit defense over the store receipt `from`
    /// just sent for `object`. `genuine` says whether the sender really
    /// holds the object (phantom receipts from free-riders and forgers
    /// pass `false`). With the defense on (`audit_rate > 0`) the proxy
    /// challenges the sender with probability `audit_rate`: a
    /// possession challenge (object checksum echo) priced as real
    /// traffic — two overlay messages plus the metadata send through the
    /// transport. A failed challenge purges the poisoned entry, strikes
    /// the sender, and quarantines it at the strike limit.
    pub(super) fn audit_receipt<S: P2pSink>(
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
        self.strike(from, sink);
    }

    /// One audit strike against `node` — a possession challenge it could
    /// not answer, a fetch it refused, or a payload that failed its
    /// checksum — quarantining it at the strike limit.
    fn strike<S: P2pSink>(&mut self, node: NodeId, sink: &mut S) {
        self.ledger.audits_failed += 1;
        let adv = self.adversary.as_mut().expect("a strike implies adversary mode");
        let strikes = adv.strikes.entry(node.0).or_insert(0);
        *strikes += 1;
        let (strikes, limit) = (*strikes, adv.strike_limit);
        if S::ENABLED {
            sink.event(P2pEvent::AuditFailed { strikes });
        }
        if strikes >= limit {
            self.quarantine_node(node, sink);
        }
    }

    /// Whether `holder` spoils the fetch it was just asked to serve.
    ///
    /// A free-rider or forger ignores the fetch outright: it spends no
    /// upstream bandwidth serving neighbors (and a forger may not even
    /// hold what its receipts claim). A garbler acks the fetch, then —
    /// at its rate — sends garbage: the XXH64 payload checksum catches
    /// it. Either way the requester times out waiting for a clean copy
    /// that never comes and degrades to the server; the copy stays
    /// resident and the directory entry stands, so every future fetch
    /// pays again — unless the armed defense treats the refusal or the
    /// caught lie as a failed possession challenge and strikes the node
    /// toward quarantine.
    pub(super) fn spoils_fetch<S: P2pSink>(&mut self, holder: NodeId, sink: &mut S) -> bool {
        let Some(adv) = self.adversary.as_mut() else { return false };
        match adv.behavior_of(holder) {
            Behavior::Honest => return false,
            Behavior::FreeRider | Behavior::Forger { .. } => {}
            Behavior::Garbler { rate_pm } => {
                if adv.draws.unit() >= f64::from(rate_pm) / 1000.0 {
                    return false;
                }
                self.ledger.checksum_failures += 1;
                if S::ENABLED {
                    sink.event(P2pEvent::ChecksumFailed { class: "fetch_response" });
                }
            }
        }
        self.note_timeout(false, sink);
        if self.adversary.as_ref().is_some_and(|adv| adv.audit_rate > 0.0) {
            self.strike(holder, sink);
        }
        true
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
            && self.overlay.node_ids().filter(|n| self.overlay.in_island_a(*n)).take(2).count() <= 1
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

    /// A directory entry for `evicted` was just dropped (Fig. 1 step
    /// 14). Each live receipt forger, in cacheId order, flips its forge
    /// coin; the first success re-claims the object with a forged
    /// receipt of its own ([`forge_receipt`](Self::forge_receipt)).
    pub(super) fn maybe_forge_reclaim<S: P2pSink>(&mut self, evicted: u128, sink: &mut S) {
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
        for (id, rate_pm) in forgers {
            let n = NodeId(id);
            if !self.nodes.contains_key(&id) || self.overlay.is_crashed(n) {
                continue;
            }
            let adv = self.adversary.as_mut().expect("forgers imply adversary mode");
            if adv.draws.unit() < f64::from(rate_pm) / 1000.0 {
                self.forge_receipt(evicted, n, sink);
                return;
            }
        }
    }

    /// Phantom bookkeeping: every attributed phantom must still be a
    /// directory entry, must have no backing copy anywhere, and must not
    /// double-book with limbo; and a quarantined node must hold no live
    /// state and no surviving phantoms.
    pub(super) fn check_adversary_layer(&self, problems: &mut Vec<String>) {
        let Some(adv) = &self.adversary else { return };
        for (obj, node) in &adv.phantoms {
            if !self.directory.contains(*obj) {
                problems.push(format!("phantom {obj:032x} lost its directory entry"));
            }
            if self.locate(*obj).is_some() {
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
}
