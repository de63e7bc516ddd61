//! Golden-output and property tests for the adversary sweep harness.
//!
//! The sweep report is the committed artifact behind the misbehaving-
//! participants figure, so it is pinned byte for byte — once per clock
//! mode, because audit traffic is priced as real messages in compat mode
//! and as real events in event mode and both pricings must stay stable.
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDEN=1 cargo test --release --test adversary_golden`.

mod common;

use webcache::sim::{run_adversary, run_churn, AdversaryConfig, ChurnConfig, ClockMode};

const GOLDEN_COMPAT: &str = "tests/golden/adversary_report.json";
const GOLDEN_EVENT: &str = "tests/golden/adversary_report_event.json";

/// A sweep small enough for the test suite but big enough that forgers
/// poison a measurable slice of the directory: one fraction, undefended
/// vs a 25% spot-check rate.
fn pinned_config(clock: ClockMode) -> AdversaryConfig {
    AdversaryConfig {
        base: ChurnConfig {
            requests: 6_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 20,
            proxy_capacity: 20,
            client_cache_capacity: 4,
            clock,
            ..ChurnConfig::default()
        },
        attacker_fracs: vec![0.10],
        audit_rates: vec![0.0, 0.25],
        forge_rate: 0.5,
        strikes: 3,
        seed: 0x00AD_5E11,
    }
}

fn check_golden(clock: ClockMode, golden_path: &str) {
    let cfg = pinned_config(clock);
    let report = run_adversary(&cfg).expect("sweep runs");
    let again = run_adversary(&cfg).expect("sweep runs twice");
    assert_eq!(report, again, "same config must reproduce the report");
    let rendered = report.to_json();

    common::assert_golden(golden_path, &rendered);
}

#[test]
fn compat_adversary_report_matches_golden() {
    check_golden(ClockMode::Compat, GOLDEN_COMPAT);
}

#[test]
fn event_adversary_report_matches_golden() {
    check_golden(ClockMode::Event, GOLDEN_EVENT);
}

/// The two pinned reports must agree on everything the clock does not
/// price: the attack lands identically and the defense catches the same
/// forgers in both modes; only the latency columns may differ.
#[test]
fn clock_modes_agree_on_attack_and_defense_counts() {
    let compat = run_adversary(&pinned_config(ClockMode::Compat)).expect("sweep runs");
    let event = run_adversary(&pinned_config(ClockMode::Event)).expect("sweep runs");
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
