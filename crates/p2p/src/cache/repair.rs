//! The paced background repair scheduler: finds corpses, drains limbo
//! and tops replica sets back up *before* a request trips over them.
//!
//! # Clean revolutions
//!
//! On a healthy cluster almost every unit of the phase-3 revolution ends
//! "at floor", so the scheduler keeps a books epoch and skips the proof
//! when nothing could have changed its answer. The epoch is bumped
//! ([`books_changed`](P2PClientCache::books_changed)) by every event that
//! can push a primary below the replica floor: each overlay membership
//! change (crash, detection, departure, join, quarantine, partition,
//! heal), a replica set created with fewer than k − 1 copies, and a host
//! dropped from a set whose primary stays. A revolution is *clean* when
//! it started at the current epoch with no crashed node and an empty
//! limbo, and none of its units fell below the floor. While the epoch
//! still equals the last clean revolution's, every primary is provably
//! at floor, so phase 3 advances by count alone: the same units are
//! counted as scanned, nothing else happens, and a mid-revolution bump
//! hands the rest back to the per-entry check in its usual order.

use super::{P2PClientCache, PROXY_DEST};
use crate::events::{NoSink, P2pEvent, P2pSink};
use crate::transport::MessageClass;
use webcache_pastry::NodeId;

/// Incremental state of the paced background repair scheduler
/// ([`P2PClientCache::repair_step`]): the scan revolution's remaining
/// queue, the at-risk gauge it maintains, and the books epoch of the
/// clean-revolution rule (module docs).
#[derive(Clone, Debug, Default)]
pub(super) struct RepairState {
    /// Primaries still to examine this revolution, reverse-sorted so
    /// popping from the end ascends the object space deterministically
    /// — unless `unsorted` is set.
    queue: Vec<u128>,
    /// `Some(n)` while `queue` is the unsorted snapshot of a revolution
    /// the count-only path walks: its `n` smallest entries are scanned.
    /// Sorted, with those entries dropped, only when an epoch bump hands
    /// the rest back to the per-entry check.
    unsorted: Option<usize>,
    /// Primaries found below the replica floor (and not immediately
    /// repairable) so far this revolution.
    seen_under_floor: u64,
    /// Published gauge: under-floor primaries counted by the last
    /// completed revolution. Lags by at most one revolution.
    under_floor: u64,
    /// The books epoch: bumped by every event that can push a primary
    /// below the replica floor.
    epoch: u64,
    /// The epoch this revolution started at, while it can still prove
    /// the cluster replica-complete: `None` when it started with a
    /// crashed node or a non-empty limbo, or once a unit fell below the
    /// floor.
    revolution: Option<u64>,
    /// The epoch the last completed revolution proved replica-complete.
    clean: Option<u64>,
}

impl RepairState {
    /// The books have not changed since a clean revolution.
    fn trusted(&self) -> bool {
        self.clean == Some(self.epoch)
    }

    /// Every unit of this revolution has been scanned.
    fn revolution_done(&self) -> bool {
        self.queue.len() == self.unsorted.unwrap_or(0)
    }
}

/// What one paced step of the background repair scheduler accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Scan units spent this step (bounded by the scan budget), each
    /// also counted in the ledger's `repair_scans`. Scanning is
    /// bookkeeping: the churn driver prices only `repaired` as
    /// event-clock busy time.
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

    /// Something that can push a primary below the replica floor just
    /// happened: bump the books epoch, so the repair scheduler re-checks
    /// every unit until a clean revolution proves the floor again
    /// (module docs). A no-op until the scheduler first runs.
    pub(super) fn books_changed(&mut self) {
        if let Some(r) = self.repair.as_mut() {
            r.epoch += 1;
        }
    }

    /// [`repair_step_tap`](Self::repair_step_tap) without observability.
    pub fn repair_step(&mut self, budget: u32) -> RepairOutcome {
        self.repair_step_tap(budget, &mut NoSink)
    }

    /// One round of the paced background repair scheduler: spends up to
    /// `budget` scan units restoring entries to the replica floor
    /// *before* the next failure (or the next request) trips over them.
    /// Every unit counts in `scanned` and in the ledger's
    /// `repair_scans`; the churn driver prices only the `repaired`
    /// entries as event-clock busy time.
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
    ///    gauge term publishes at each completed revolution. While the
    ///    books are unchanged since a clean revolution (module docs) the
    ///    units are counted without being examined.
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
            if self.repair.as_ref().expect("installed above").revolution_done() {
                // Revolution complete: publish the gauge term, certify
                // the books if it was clean, and snapshot the next one.
                let mut q: Vec<u128> = Vec::new();
                for n in self.nodes.values() {
                    if self.overlay.is_crashed(n.id) {
                        continue;
                    }
                    for obj in n.store.keys() {
                        q.push(obj);
                    }
                }
                let complete = self.overlay.crashed_len() == 0 && self.limbo.is_empty();
                let r = self.repair.as_mut().expect("installed above");
                r.under_floor = r.seen_under_floor;
                r.seen_under_floor = 0;
                r.clean = r.revolution.filter(|&e| e == r.epoch);
                r.revolution = complete.then_some(r.epoch);
                if q.is_empty() {
                    break;
                }
                // Descending, so pop() walks the id space ascending. A
                // trusted revolution is counted, not walked, and sorts
                // only if an epoch bump hands it back (debug builds sort
                // anyway: the count-only path checks what it skips).
                let trusted = r.trusted();
                if !trusted || cfg!(debug_assertions) {
                    q.sort_unstable_by(|a, b| b.cmp(a));
                }
                r.queue = q;
                r.unsorted = trusted.then_some(0);
            }
            let r = self.repair.as_mut().expect("installed above");
            if let Some(done) = r.unsorted.filter(|_| r.trusted()) {
                // Every primary is provably at floor: advance by count.
                let n = (r.queue.len() - done).min(budget as usize);
                r.unsorted = Some(done + n);
                #[cfg(debug_assertions)]
                {
                    let q = &self.repair.as_ref().expect("installed above").queue;
                    let end = q.len() - done;
                    for &obj in q[end - n..end].iter().rev() {
                        debug_assert!(
                            self.below_floor(obj).is_none(),
                            "clean-revolution rule broken: {obj:032x} is below the floor"
                        );
                    }
                }
                budget -= n as u32;
                out.scanned += n as u32;
                self.ledger.repair_scans += n as u64;
                continue;
            }
            if let Some(done) = r.unsorted.take() {
                // The books changed mid-revolution: the rest of it takes
                // the per-entry check, in the order it always walks.
                r.queue.sort_unstable_by(|a, b| b.cmp(a));
                r.queue.truncate(r.queue.len() - done);
            }
            let obj = r.queue.pop().expect("nonempty");
            budget -= 1;
            out.scanned += 1;
            self.ledger.repair_scans += 1;
            let Some((root, holder, missing)) = self.below_floor(obj) else { continue };
            self.repair.as_mut().expect("installed above").revolution = None;
            // `root_of` skips crashed-but-undetected machines, so `root`
            // may be standing in for a dead root the object is still
            // linked under — and `holder_of` answers "stores it" for a
            // node that only *hosts* the object for that root. A top-up
            // here would start a second replica set the linked root's
            // books (and a later eviction) know nothing of; detection
            // re-homes the entry, and a later revolution tops it up.
            let hn = self.nodes.get(&holder.0);
            if hn
                .and_then(|hn| hn.links().hosted_for.get(&obj))
                .is_some_and(|linked| *linked != root)
            {
                continue;
            }
            let credit = hn.and_then(|hn| hn.store.h_value(obj)).unwrap_or(1.0);
            let made = self.top_up_replicas(obj, root, holder, credit);
            if made > 0 {
                self.proactive_repair(&mut out, made, sink);
            }
            if (made as usize) < missing {
                // Still short after the top-up (not enough distinct
                // live targets): this entry stays at risk until the
                // next revolution publishes the gauge.
                self.repair.as_mut().expect("installed above").seen_under_floor += 1;
            }
        }
        out.at_risk = self.at_risk_gauge();
        out
    }

    /// The per-entry check of one scan unit. Re-validates first — the
    /// entry may have moved or died since the queue was built — and
    /// returns the root, the holder and the number of copies missing
    /// when the primary the proxy's side of the ring reaches is live but
    /// holds fewer than `min(k, nodes)` live copies.
    fn below_floor(&self, obj: u128) -> Option<(NodeId, NodeId, usize)> {
        let (root, holder) = self.locate(obj)?;
        if self.overlay.is_crashed(holder) {
            return None;
        }
        let floor = self.cfg.replication.min(self.nodes.len());
        let live_copies = 1 + self
            .nodes
            .get(&root.0)
            .and_then(|rn| rn.links().replicated_to.get(&obj))
            .map_or(0, |hs| {
                hs.iter()
                    .filter(|h| !self.overlay.is_crashed(**h) && self.nodes.contains_key(&h.0))
                    .count()
            });
        (live_copies < floor).then(|| (root, holder, floor - live_copies))
    }

    /// The sweep restored one entry toward the replica floor with
    /// `copies` fresh replica copies.
    fn proactive_repair<S: P2pSink>(&mut self, out: &mut RepairOutcome, copies: u32, sink: &mut S) {
        out.repaired += 1;
        if S::ENABLED {
            sink.event(P2pEvent::ProactiveRepair { copies });
        }
    }
}

#[cfg(test)]
impl P2PClientCache {
    /// True while the repair scheduler's count-only path is on: the
    /// books have not changed since a clean revolution.
    pub(super) fn repair_trusted(&self) -> bool {
        self.repair.as_ref().is_some_and(RepairState::trusted)
    }

    /// The scheduler without the clean-revolution rule: every phase-3
    /// unit takes the per-entry check. The lockstep proptest in
    /// `tests/repair.rs` drives it against
    /// [`repair_step_tap`](Self::repair_step_tap) on a clone.
    pub(super) fn repair_step_reference<S: P2pSink>(
        &mut self,
        budget: u32,
        sink: &mut S,
    ) -> RepairOutcome {
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
                .and_then(|rn| rn.links().replicated_to.get(&obj))
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
            if hn
                .and_then(|hn| hn.links().hosted_for.get(&obj))
                .is_some_and(|linked| *linked != root)
            {
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
}
