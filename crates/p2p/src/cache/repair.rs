//! The paced background repair scheduler: finds corpses, drains limbo
//! and tops replica sets back up *before* a request trips over them.

use super::{P2PClientCache, PROXY_DEST};
use crate::events::{NoSink, P2pEvent, P2pSink};
use crate::transport::MessageClass;

/// Incremental state of the paced background repair scheduler
/// ([`P2PClientCache::repair_step`]): the scan revolution's remaining
/// queue and the at-risk gauge it maintains.
#[derive(Clone, Debug, Default)]
pub(super) struct RepairState {
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

impl P2PClientCache {
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
    /// Restored entries emit [`P2pEvent::ProactiveRepair`]; every scanned
    /// unit counts as `repair_scans` in the ledger. Returns the round's
    /// outcome plus the at-risk gauge after it.
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
        // deterministic order: the overlay lists them by cacheId),
        // parking its objects in limbo for phase 2.
        let corpse = self.overlay.crashed_ids().find(|n| self.nodes.contains_key(&n.0));
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
            match self.promote_or_lose(obj, &hosts, false, sink) {
                Some((_holder, copies)) => self.proactive_repair(&mut out, copies, sink),
                None => {
                    // No survivor: ledger the loss and flush the stale
                    // directory entry now, sparing a request the ambush.
                    out.lost += 1;
                    self.note_lost(obj, !hosts.is_empty(), sink);
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
        while budget > 0 && self.cfg.replication > 1 {
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
            let obj = self.repair.as_mut().expect("installed above").queue.pop().expect("nonempty");
            budget -= 1;
            out.scanned += 1;
            self.ledger.repair_scans += 1;
            // Re-validate: the entry may have moved or died since the
            // queue was built.
            let Some((root, holder)) = self.locate(obj) else { continue };
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
                        .filter(|h| !self.overlay.is_crashed(**h) && self.nodes.contains_key(&h.0))
                        .count()
                });
            if live_copies >= floor {
                continue;
            }
            // `root_of` skips crashed-but-undetected machines, so `root`
            // may be standing in for a dead root the object is still
            // linked under — and `holder_of` answers "stores it" for a
            // node that only *hosts* the object for that root. A top-up
            // here would start a second replica set the linked root's
            // books (and a later eviction) know nothing of; detection
            // re-homes the entry, and a later revolution tops it up.
            let hn = self.nodes.get(&holder.0);
            if hn.and_then(|hn| hn.hosted_for.get(&obj)).is_some_and(|linked| *linked != root) {
                continue;
            }
            let credit = hn.and_then(|hn| hn.store.h_value(obj)).unwrap_or(1.0);
            let made = self.top_up_replicas(obj, root, holder, credit);
            if made > 0 {
                self.proactive_repair(&mut out, made, sink);
            }
            if live_copies + (made as usize) < floor {
                // Still short after the top-up (not enough distinct
                // live targets): this entry stays at risk until the
                // next revolution publishes the gauge.
                self.repair.as_mut().expect("installed above").seen_under_floor += 1;
            }
        }
        out.at_risk = self.at_risk_gauge();
        out
    }

    /// The sweep restored one entry toward the replica floor with
    /// `copies` fresh replica copies.
    fn proactive_repair<S: P2pSink>(&mut self, out: &mut RepairOutcome, copies: u32, sink: &mut S) {
        out.repaired += 1;
        self.space_hint = None;
        if S::ENABLED {
            sink.event(P2pEvent::ProactiveRepair { copies });
        }
    }
}
