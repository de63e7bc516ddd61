//! Structured observability events emitted by the P2P client cache.
//!
//! The simulator core threads a recorder through the whole request path;
//! this crate cannot see that trait (it lives upstream in `webcache-sim`),
//! so the cache reports through the minimal [`P2pSink`] abstraction
//! defined here and the core adapts it to its recorder. [`NoSink`] is the
//! zero-cost default: its `ENABLED` flag is `false`, every emission site
//! is guarded by that associated constant, and monomorphization deletes
//! the disabled branches entirely — the instrumented hot path compiles to
//! the same code it had before the events existed.

/// One observability event from the P2P client cache layer (§4 machinery:
/// destages, lookups, pushes, diversions, churn).
///
/// Hop counts are `u16`: the Pastry routing budget is a few dozen hops
/// even for degenerate configurations, far below the 65 535 ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum P2pEvent {
    /// The proxy destaged an evicted object into the client cluster
    /// (Fig. 1).
    Destage {
        /// Overlay hops the destage message traveled.
        hops: u16,
        /// Object rode an HTTP response (§4.4) instead of a dedicated
        /// connection.
        piggybacked: bool,
        /// Object was diverted to a leaf-set neighbor (§4.3).
        diverted: bool,
        /// Object was already resident; its greedy-dual credit was
        /// refreshed instead of storing a duplicate.
        refreshed: bool,
        /// Storing the object evicted another object from the cluster.
        evicted: bool,
    },
    /// A routed lookup into the cluster (local fetch or push-protocol
    /// fetch).
    Lookup {
        /// Overlay hops from the entry node to the holder (or to the
        /// root that reported a miss).
        hops: u16,
        /// The directory said "present" but the object was gone — a
        /// Bloom false positive or churn staleness (claim 13).
        stale: bool,
    },
    /// A successful push-protocol fetch for a cooperating proxy (§4.5):
    /// the holder opened a push channel to the proxy.
    Push {
        /// Overlay hops of the underlying lookup.
        hops: u16,
    },
    /// The proxy consulted its lookup directory on the serve path (§4.2).
    DirectoryProbe {
        /// The directory answered "present".
        hit: bool,
    },
    /// A client cache evicted an object to make room (destage replacement
    /// or join-migration overflow).
    Eviction {
        /// The evicted object was hosted for another root, whose
        /// diversion pointer had to be invalidated (one overlay message).
        pointer_invalidated: bool,
    },
    /// A silent crash was detected and the corpse's state reclaimed: its
    /// primaries park in limbo for lazy repair from their replicas.
    NodeFailed {
        /// Objects with no surviving copy (stored on the corpse, or
        /// stranded behind its diversion pointers, without a replica).
        objects_lost: u32,
    },
    /// A client machine joined mid-run; keys it now roots migrated to it.
    NodeJoined {
        /// Objects eagerly migrated to the newcomer (PAST-style).
        objects_migrated: u32,
    },
    /// A client machine crashed *silently*: no announcement, no repair.
    /// Every other node (and the proxy's lookup directory) keeps stale
    /// references until some message walks into the corpse.
    NodeCrashed {
        /// Resident objects whose only primary copy sat on the machine
        /// at crash time (replicas may still rescue them).
        objects_at_risk: u32,
    },
    /// A client machine left gracefully, handing its residents to their
    /// new roots before disconnecting.
    NodeDeparted {
        /// Objects successfully re-homed to other nodes.
        objects_handed_off: u32,
    },
    /// A message timed out — either it was addressed to a dead node
    /// (detection) or it was lost on the wire and retransmitted.
    TimeoutDetected {
        /// True when the timeout exposed a crashed node (lazy failure
        /// detection); false for message loss or a slow node.
        dead_node: bool,
    },
    /// The proxy's directory approved a lookup whose primary copy died
    /// with a crashed node (churn staleness, not a Bloom artifact).
    StaleDirectoryHit {
        /// A leaf-set replica was promoted and served the request;
        /// false means the request fell through to the origin server.
        replica_served: bool,
    },
    /// A crashed primary was rebuilt from a leaf-set replica and the
    /// replication factor restored (re-replication on repair).
    Rereplicated {
        /// Fresh replica copies created after promoting the survivor.
        copies: u32,
    },
    /// A protocol message needed retransmission through the unreliable
    /// transport (loss or corruption ate earlier attempts).
    MessageRetried {
        /// Protocol message class label (`MessageClass::label`).
        class: &'static str,
        /// Total attempts made for the logical message.
        attempts: u16,
    },
    /// A duplicated delivery was recognized by the receiver's
    /// sequence-number window and discarded without touching state.
    MessageDeduped {
        /// Protocol message class label (`MessageClass::label`).
        class: &'static str,
    },
    /// A delivery attempt failed its XXH64 payload checksum (in-flight
    /// corruption caught before the object could be cached).
    ChecksumFailed {
        /// Protocol message class label (`MessageClass::label`).
        class: &'static str,
    },
    /// The network split: the overlay fractured into two islands, each
    /// running an independent membership view until the heal.
    PartitionStarted {
        /// Live machines on the proxy's side of the cut.
        island_a: u32,
        /// Live machines islanded away from the proxy.
        island_b: u32,
    },
    /// The cut healed and the anti-entropy reconciliation sweep merged
    /// the two islands' divergent state back into one authority.
    PartitionHealed {
        /// Directory entries merged by the sweep (B-side survivors and
        /// contested duplicates).
        reconciled: u32,
        /// Split-brain primaries demoted to replicas or collected.
        demoted: u32,
    },
    /// One directory entry was merged during reconciliation: the copy
    /// with the higher epoch won authority.
    EntryReconciled {
        /// The entry's epoch after the merge.
        epoch: u64,
    },
    /// A losing split-brain primary was stripped of its authority.
    PrimaryDemoted {
        /// True when the copy was dropped outright (replica floor was
        /// already met); false when it was demoted to a replica.
        garbage_collected: bool,
    },
    /// The proxy spot-checked a store receipt with a possession challenge
    /// (object checksum echo) against the node that sent it.
    AuditChallenged {
        /// The node echoed the correct checksum — it really holds the
        /// object it claimed to store.
        passed: bool,
    },
    /// A possession challenge went unanswered (or answered wrong): the
    /// audited node could not prove it holds the object its receipt
    /// claimed. One strike on the per-node ledger.
    AuditFailed {
        /// The node's strike count after this failure.
        strikes: u32,
    },
    /// A failed audit exposed a store receipt for an object the sender
    /// never held — a poisoned lookup-directory entry, now purged.
    ForgedReceiptDetected {
        /// The poisoned directory entry was still present and was
        /// removed; false means a stale fetch had already flushed it.
        entry_purged: bool,
    },
    /// A node crossed the strike threshold and was quarantined: its
    /// poisoned directory entries are purged and its genuine residents
    /// re-home through the stale-directory repair path.
    NodeQuarantined {
        /// Poisoned (phantom) directory entries purged with the node.
        entries_purged: u32,
        /// Genuine residents parked for lazy repair (stale-directory
        /// path promotes replicas or falls back to the server).
        residents_parked: u32,
    },
    /// A send fail-fasted on an open circuit breaker: the destination
    /// has been failing consistently, so the message was not attempted
    /// and the whole send cost one detection timeout.
    BreakerFastFailed {
        /// Protocol message class label (`MessageClass::label`).
        class: &'static str,
    },
    /// The per-node retry budget ran dry mid-ladder: retransmission was
    /// abandoned and the caller degraded the work (origin fetch, object
    /// not cached) instead of feeding a retry storm.
    RetryBudgetExhausted {
        /// Protocol message class label (`MessageClass::label`).
        class: &'static str,
    },
    /// An object is permanently gone — no live copy survives anywhere in
    /// the cluster. Emitted exactly once per loss (the no-silent-loss
    /// guarantee: every disappearance is ledgered and announced).
    ObjectLost {
        /// The object once had replica copies, all of which died before
        /// repair could promote one; false means it was never replicated
        /// (or its whole replica set died with the same failure).
        had_replicas: bool,
    },
    /// The background repair scheduler restored an entry to the replica
    /// floor before any request tripped over it (proactive repair, as
    /// opposed to the lazy stale-hit path).
    ProactiveRepair {
        /// Fresh copies created (promotion re-replication or floor
        /// top-up).
        copies: u32,
    },
}

impl P2pEvent {
    /// A short stable label for the event variant (CSV/report column).
    pub fn kind_label(&self) -> &'static str {
        match self {
            P2pEvent::Destage { .. } => "destage",
            P2pEvent::Lookup { .. } => "lookup",
            P2pEvent::Push { .. } => "push",
            P2pEvent::DirectoryProbe { .. } => "directory_probe",
            P2pEvent::Eviction { .. } => "eviction",
            P2pEvent::NodeFailed { .. } => "node_failed",
            P2pEvent::NodeJoined { .. } => "node_joined",
            P2pEvent::NodeCrashed { .. } => "node_crashed",
            P2pEvent::NodeDeparted { .. } => "node_departed",
            P2pEvent::TimeoutDetected { .. } => "timeout_detected",
            P2pEvent::StaleDirectoryHit { .. } => "stale_directory_hit",
            P2pEvent::Rereplicated { .. } => "rereplicated",
            P2pEvent::MessageRetried { .. } => "message_retried",
            P2pEvent::MessageDeduped { .. } => "message_deduped",
            P2pEvent::ChecksumFailed { .. } => "checksum_failed",
            P2pEvent::PartitionStarted { .. } => "partition_started",
            P2pEvent::PartitionHealed { .. } => "partition_healed",
            P2pEvent::EntryReconciled { .. } => "entry_reconciled",
            P2pEvent::PrimaryDemoted { .. } => "primary_demoted",
            P2pEvent::AuditChallenged { .. } => "audit_challenged",
            P2pEvent::AuditFailed { .. } => "audit_failed",
            P2pEvent::ForgedReceiptDetected { .. } => "forged_receipt_detected",
            P2pEvent::NodeQuarantined { .. } => "node_quarantined",
            P2pEvent::BreakerFastFailed { .. } => "breaker_fast_failed",
            P2pEvent::RetryBudgetExhausted { .. } => "retry_budget_exhausted",
            P2pEvent::ObjectLost { .. } => "object_lost",
            P2pEvent::ProactiveRepair { .. } => "proactive_repair",
        }
    }

    /// The event's payload as the two columns it fills in an event log:
    /// the overlay hops of a routed message (`None` for every other
    /// event) and a `key=value|flag` detail string.
    pub fn detail(&self) -> (Option<u16>, String) {
        // `kv!(a, b)` renders the named bindings as `a=1|b=2`.
        macro_rules! kv {
            ($($field:ident),+) => {
                [$(format!(concat!(stringify!($field), "={}"), $field)),+].join("|")
            };
        }
        // `set!(a, b)` names the bindings that are true, as `a|b`.
        macro_rules! set {
            ($($flag:ident),+) => {
                [$(($flag, stringify!($flag))),+]
                    .iter()
                    .filter_map(|&(on, name)| on.then_some(name))
                    .collect::<Vec<_>>()
                    .join("|")
            };
        }
        let either = |flag: bool, yes: &str, no: &str| if flag { yes } else { no }.to_string();
        match *self {
            P2pEvent::Destage { hops, piggybacked, diverted, refreshed, evicted } => {
                (Some(hops), set!(piggybacked, diverted, refreshed, evicted))
            }
            P2pEvent::Lookup { hops, stale } => (Some(hops), set!(stale)),
            P2pEvent::Push { hops } => (Some(hops), String::new()),
            P2pEvent::DirectoryProbe { hit } => (None, either(hit, "hit", "miss")),
            P2pEvent::Eviction { pointer_invalidated } => (None, set!(pointer_invalidated)),
            P2pEvent::NodeFailed { objects_lost } => (None, kv!(objects_lost)),
            P2pEvent::NodeJoined { objects_migrated } => (None, kv!(objects_migrated)),
            P2pEvent::NodeCrashed { objects_at_risk } => (None, kv!(objects_at_risk)),
            P2pEvent::NodeDeparted { objects_handed_off } => (None, kv!(objects_handed_off)),
            P2pEvent::TimeoutDetected { dead_node } => {
                (None, either(dead_node, "dead_node", "transient"))
            }
            P2pEvent::StaleDirectoryHit { replica_served } => {
                (None, either(replica_served, "replica_served", "server_fallback"))
            }
            P2pEvent::Rereplicated { copies } => (None, kv!(copies)),
            P2pEvent::MessageRetried { class, attempts } => (None, kv!(class, attempts)),
            P2pEvent::MessageDeduped { class } => (None, kv!(class)),
            P2pEvent::ChecksumFailed { class } => (None, kv!(class)),
            P2pEvent::PartitionStarted { island_a, island_b } => (None, kv!(island_a, island_b)),
            P2pEvent::PartitionHealed { reconciled, demoted } => (None, kv!(reconciled, demoted)),
            P2pEvent::EntryReconciled { epoch } => (None, kv!(epoch)),
            P2pEvent::PrimaryDemoted { garbage_collected } => {
                (None, either(garbage_collected, "garbage_collected", "kept_as_replica"))
            }
            P2pEvent::AuditChallenged { passed } => (None, either(passed, "passed", "failed")),
            P2pEvent::AuditFailed { strikes } => (None, kv!(strikes)),
            P2pEvent::ForgedReceiptDetected { entry_purged } => {
                (None, either(entry_purged, "entry_purged", "entry_already_gone"))
            }
            P2pEvent::NodeQuarantined { entries_purged, residents_parked } => {
                (None, kv!(entries_purged, residents_parked))
            }
            P2pEvent::BreakerFastFailed { class } => (None, kv!(class)),
            P2pEvent::RetryBudgetExhausted { class } => (None, kv!(class)),
            P2pEvent::ObjectLost { had_replicas } => {
                (None, either(had_replicas, "replicas_died_too", "never_replicated"))
            }
            P2pEvent::ProactiveRepair { copies } => (None, kv!(copies)),
        }
    }
}

/// Receiver for [`P2pEvent`]s, threaded through the cache's mutating
/// operations (`*_tap` variants).
///
/// Implementors with `ENABLED = false` promise their `event` body is a
/// no-op; emission sites check `S::ENABLED` so the disabled path folds
/// away at compile time.
pub trait P2pSink {
    /// Whether this sink observes events. Emission sites are guarded by
    /// this constant; `false` deletes them during monomorphization.
    const ENABLED: bool = true;

    /// Receives one event.
    fn event(&mut self, event: P2pEvent);
}

/// The do-nothing sink: statically disabled, zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoSink;

impl P2pSink for NoSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: P2pEvent) {}
}

impl<S: P2pSink + ?Sized> P2pSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn event(&mut self, event: P2pEvent) {
        (**self).event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        let e = P2pEvent::Destage {
            hops: 3,
            piggybacked: true,
            diverted: false,
            refreshed: false,
            evicted: false,
        };
        assert_eq!(e.kind_label(), "destage");
        assert_eq!(P2pEvent::DirectoryProbe { hit: true }.kind_label(), "directory_probe");
        assert_eq!(P2pEvent::NodeFailed { objects_lost: 2 }.kind_label(), "node_failed");
        assert_eq!(P2pEvent::NodeCrashed { objects_at_risk: 1 }.kind_label(), "node_crashed");
        assert_eq!(P2pEvent::NodeDeparted { objects_handed_off: 1 }.kind_label(), "node_departed");
        assert_eq!(P2pEvent::TimeoutDetected { dead_node: true }.kind_label(), "timeout_detected");
        assert_eq!(
            P2pEvent::StaleDirectoryHit { replica_served: false }.kind_label(),
            "stale_directory_hit"
        );
        assert_eq!(P2pEvent::Rereplicated { copies: 2 }.kind_label(), "rereplicated");
        assert_eq!(
            P2pEvent::MessageRetried { class: "destage", attempts: 2 }.kind_label(),
            "message_retried"
        );
        assert_eq!(P2pEvent::MessageDeduped { class: "push" }.kind_label(), "message_deduped");
        assert_eq!(P2pEvent::ChecksumFailed { class: "destage" }.kind_label(), "checksum_failed");
        assert_eq!(
            P2pEvent::PartitionStarted { island_a: 5, island_b: 3 }.kind_label(),
            "partition_started"
        );
        assert_eq!(
            P2pEvent::PartitionHealed { reconciled: 2, demoted: 1 }.kind_label(),
            "partition_healed"
        );
        assert_eq!(P2pEvent::EntryReconciled { epoch: 3 }.kind_label(), "entry_reconciled");
        assert_eq!(
            P2pEvent::PrimaryDemoted { garbage_collected: true }.kind_label(),
            "primary_demoted"
        );
        assert_eq!(P2pEvent::AuditChallenged { passed: true }.kind_label(), "audit_challenged");
        assert_eq!(P2pEvent::AuditFailed { strikes: 2 }.kind_label(), "audit_failed");
        assert_eq!(
            P2pEvent::ForgedReceiptDetected { entry_purged: true }.kind_label(),
            "forged_receipt_detected"
        );
        assert_eq!(
            P2pEvent::NodeQuarantined { entries_purged: 3, residents_parked: 1 }.kind_label(),
            "node_quarantined"
        );
        assert_eq!(
            P2pEvent::BreakerFastFailed { class: "destage" }.kind_label(),
            "breaker_fast_failed"
        );
        assert_eq!(
            P2pEvent::RetryBudgetExhausted { class: "push" }.kind_label(),
            "retry_budget_exhausted"
        );
        assert_eq!(P2pEvent::ObjectLost { had_replicas: true }.kind_label(), "object_lost");
        assert_eq!(P2pEvent::ProactiveRepair { copies: 2 }.kind_label(), "proactive_repair");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the contract
    fn no_sink_is_statically_disabled() {
        assert!(!NoSink::ENABLED);
        // The forwarding impl preserves the flag.
        assert!(!<&mut NoSink as P2pSink>::ENABLED);
        let mut s = NoSink;
        s.event(P2pEvent::Push { hops: 1 });
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the contract
    fn vec_sink_collects() {
        struct VecSink(Vec<P2pEvent>);
        impl P2pSink for VecSink {
            fn event(&mut self, e: P2pEvent) {
                self.0.push(e);
            }
        }
        let mut s = VecSink(Vec::new());
        s.event(P2pEvent::Lookup { hops: 2, stale: false });
        (&mut &mut s).event(P2pEvent::Push { hops: 2 });
        assert_eq!(s.0.len(), 2);
        assert!(<VecSink as P2pSink>::ENABLED);
    }
}
