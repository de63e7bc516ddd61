//! Message and connection accounting.
//!
//! The paper argues two mechanisms keep the P2P client cache cheap to run:
//! piggybacking evicted objects onto HTTP responses (§4.4, "no new
//! connections need to be made") and the push protocol for firewall-safe
//! sharing with cooperating proxies (§4.5). The ledger counts the traffic
//! each mechanism generates so the `ablation_piggyback` bench can quantify
//! the claim.
//!
//! The ledger holds traffic, plus the two values the safety oracles and
//! reports read back: `objects_lost` (the no-silent-loss audit) and
//! `repair_scans` (the repair scheduler's paced work). Every other fact —
//! audits, quarantines, reconciliation, re-replication, repair, breaker
//! and budget decisions, dedups, checksum failures, stale hits — is a
//! [`P2pEvent`](crate::P2pEvent) that a recorder counts once.

/// Declares [`MessageLedger`] from one list of counters — each a doc
/// comment and a name — so the public field and its line in
/// [`MessageLedger::merge`] cannot drift apart.
macro_rules! message_ledger {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Cumulative message/connection counters for one P2P client cache.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MessageLedger {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl MessageLedger {
            /// Adds another ledger's counts into this one.
            pub fn merge(&mut self, other: &MessageLedger) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

message_ledger! {
    /// Individual Pastry hop messages (routing traffic on the LAN).
    overlay_messages,
    /// New connections opened between the proxy and client caches
    /// (piggybacking exists to keep this at zero for destaging).
    new_connections,
    /// Evicted objects destaged by piggybacking on an HTTP response.
    piggybacked_objects,
    /// Evicted objects destaged over a dedicated proxy→client connection.
    direct_destages,
    /// Store receipts sent from client caches to the proxy (Fig. 1 steps
    /// 5/10/14) — these ride the existing client↔proxy channel.
    store_receipts,
    /// Objects diverted to a leaf-set neighbor (§4.3).
    diversions,
    /// Lookup redirects into the P2P cache.
    lookups,
    /// Lookups the directory approved but the cache could not serve
    /// (Bloom false positives, or post-churn staleness).
    stale_lookups,
    /// Push-protocol fetches on behalf of cooperating proxies (§4.5).
    pushes,
    /// Messages that timed out: contacts with dead nodes (lazy failure
    /// detection), lost-and-retransmitted messages, and slow-node stalls.
    timeouts,
    /// Protocol messages that needed at least one retransmission through
    /// the unreliable transport (loss or corruption).
    retries,
    /// Payload messages dropped because they crossed an active partition
    /// cut (the network ate them; the sender paid a timeout).
    cut_drops,
    /// Metadata messages queued at the cut and drained through the
    /// transport's retry/dedup machinery when the partition healed.
    cut_drained,
    /// Objects permanently lost — no live copy survives anywhere. The
    /// no-silent-loss guarantee: every loss path increments this exactly
    /// once per object (and emits `P2pEvent::ObjectLost`).
    objects_lost,
    /// Directory entries examined by the background repair scheduler's
    /// paced scan (bookkeeping: only the entries it restores are priced,
    /// by the event clock).
    repair_scans,
}

impl MessageLedger {
    /// Total destaged objects by either mechanism.
    pub fn destages(&self) -> u64 {
        self.piggybacked_objects + self.direct_destages
    }

    /// Fraction of approved lookups that could not be served.
    pub fn stale_lookup_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.stale_lookups as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MessageLedger { overlay_messages: 1, pushes: 2, ..Default::default() };
        let b = MessageLedger { overlay_messages: 10, lookups: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.overlay_messages, 11);
        assert_eq!(a.pushes, 2);
        assert_eq!(a.lookups, 5);
    }

    #[test]
    fn derived_rates() {
        let l = MessageLedger {
            piggybacked_objects: 3,
            direct_destages: 2,
            lookups: 10,
            stale_lookups: 1,
            ..Default::default()
        };
        assert_eq!(l.destages(), 5);
        assert!((l.stale_lookup_rate() - 0.1).abs() < 1e-12);
        assert_eq!(MessageLedger::default().stale_lookup_rate(), 0.0);
    }
}
