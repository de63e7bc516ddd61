//! Golden-output and property tests for the adversary sweep harness.
//!
//! The sweep report is the committed artifact behind the misbehaving-
//! participants figure, so a small config of it is pinned byte for byte
//! — once per clock mode, because audit traffic is priced as real
//! messages in compat mode and as real events in event mode and both
//! pricings must stay stable. The two configs are rows of the figure
//! registry, `adversary_smoke` and `adversary_smoke_event`, committed as
//! `tests/golden/adversary_report{,_event}.{json,csv}`; see
//! `common::compare` for how to adopt an intentional change.

mod common;

use webcache::sim::{run_churn, ChurnConfig};

#[test]
fn compat_adversary_report_matches_golden() {
    common::check_named(&["adversary_smoke"]);
}

#[test]
fn event_adversary_report_matches_golden() {
    common::check_named(&["adversary_smoke_event"]);
}

/// The two pinned reports must agree on everything the clock does not
/// price: the attack lands identically and the defense catches the same
/// forgers in both modes; only the latency columns may differ.
#[test]
fn clock_modes_agree_on_attack_and_defense_counts() {
    let compat = common::cells("adversary_smoke");
    let event = common::cells("adversary_smoke_event");
    assert_eq!(compat.cells.len(), event.cells.len());
    for (c, e) in compat.cells.iter().zip(&event.cells) {
        for count in [
            "attackers",
            "audits_challenged",
            "audits_failed",
            "forged_receipts",
            "quarantines",
            "stale_lookups",
        ] {
            assert_eq!(c.u(count), e.u(count), "{count}");
        }
        assert_eq!(c.f("hit_ratio_percent").to_bits(), e.f("hit_ratio_percent").to_bits());
    }
}

proptest::proptest! {
    // Each case is a full churn drive; keep the count modest.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// A persistent forger (forges every receipt) under a certain audit
    /// (every receipt challenged) is always quarantined within a bounded
    /// number of audited requests: the strike ledger needs exactly
    /// `strikes` failed audits, so with thousands of requests after the
    /// conversion the quarantine must have fired — for any seed and any
    /// conversion point in the first third of the trace.
    #[test]
    fn persistent_forger_is_always_quarantined(
        seed in 0u64..500,
        at in 50u64..1_000,
    ) {
        let plan = format!("forge@{at}:1.0,seed={seed}")
            .parse()
            .expect("spec is valid");
        let cfg = ChurnConfig {
            requests: 3_000,
            distinct_objects: 300,
            trace_clients: 16,
            clients_per_cluster: 16,
            client_cache_capacity: 2,
            audit_rate: 1.0,
            audit_strikes: 2,
            plan,
            ..ChurnConfig::default()
        };
        let report = run_churn(&cfg).expect("drill runs");
        proptest::prop_assert_eq!(report.forges, 1, "the forge event must land");
        proptest::prop_assert!(
            report.quarantines >= 1,
            "a persistent forger survived {} audits ({} failed)",
            report.audits_challenged,
            report.audits_failed
        );
        // Every quarantine costs exactly `audit_strikes` failed audits.
        proptest::prop_assert!(report.audits_failed >= report.quarantines * 2);
        proptest::prop_assert_eq!(report.invariant_violations, 0);
    }
}
