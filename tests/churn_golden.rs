//! Golden-output regression tests for the fault-injection subsystem: the
//! same seed and the same fault plan must produce a bit-identical churn
//! report, JSON byte for byte.
//!
//! The report rounds latencies to integer milli-units and renders floats
//! with fixed precision specifically so this file can be compared as raw
//! bytes across platforms and optimization levels. The drills are rows
//! of the figure registry (`churn_plan`, `churn_1000`,
//! `churn_1000_event`), committed as `tests/golden/churn*_report*.json`;
//! see `common::compare` for how to adopt an intentional change.

mod common;

use webcache::sim::run_churn;

/// The audit defense must be free when no adversary is present: arming
/// the knobs (audit on every receipt, a single strike) on an
/// adversary-free plan may not consume a single extra seed draw, so the
/// report stays byte-identical to the committed golden.
#[test]
fn audit_knobs_consume_no_draws_without_an_adversary() {
    let mut cfg = common::churn_config("churn_plan");
    cfg.audit_rate = 1.0;
    cfg.audit_strikes = 1;
    let rendered = run_churn(&cfg).expect("armed drill runs").to_json();
    let golden = &common::row("churn_plan").files()[0];
    common::compare(golden, &rendered).unwrap_or_else(|e| {
        panic!("armed-but-unused audit defense perturbed a fault-free run: {e}")
    });
}

/// An explicit plan of crashes, a departure, a rejoin and a slow node.
#[test]
fn churn_report_matches_golden() {
    common::check_named(&["churn_plan"]);
}

/// The drill at the paper's largest cluster, 1,000 clients: silent
/// crashes, a departure and a rejoin, a 70/30 partition and its heal, in
/// both clock modes, side by side.
#[test]
fn thousand_client_drill_matches_golden() {
    common::check_named(&["churn_1000", "churn_1000_event"]);
}
