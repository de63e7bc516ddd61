//! Golden-output regression test for the fault-injection subsystem: the
//! same seed and the same fault plan must produce a bit-identical churn
//! report, JSON byte for byte.
//!
//! The report rounds latencies to integer milli-units and renders floats
//! with fixed precision specifically so this file can be compared as raw
//! bytes across platforms and optimization levels.
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDEN=1 cargo test --release --test churn_golden`.

mod common;

use webcache::sim::{run_churn, ChurnConfig, FaultPlan};

const GOLDEN_PATH: &str = "tests/golden/churn_report.json";

fn drill_config() -> ChurnConfig {
    let plan: FaultPlan =
        "crash@900,crash@2100,depart@3300,crash@4500,rejoin@5400,slow@6300,crash@7200,\
         loss=0.01,seed=53710"
            .parse()
            .expect("spec is valid");
    ChurnConfig {
        requests: 9_000,
        distinct_objects: 1_200,
        trace_clients: 40,
        clients_per_cluster: 32,
        trace_seed: 0xBEEF,
        plan,
        ..ChurnConfig::default()
    }
}

/// The audit defense must be free when no adversary is present: arming
/// the knobs (audit on every receipt, a single strike) on an
/// adversary-free plan may not consume a single extra seed draw, so the
/// report stays byte-identical to the committed golden.
#[test]
fn audit_knobs_consume_no_draws_without_an_adversary() {
    let mut cfg = drill_config();
    cfg.audit_rate = 1.0;
    cfg.audit_strikes = 1;
    let rendered = run_churn(&cfg).expect("armed drill runs").to_json();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(rendered, golden, "armed-but-unused audit defense perturbed a fault-free run");
}

#[test]
fn churn_report_matches_golden() {
    let report = run_churn(&drill_config()).expect("drill runs");
    // Determinism within the process first: a second identical run must
    // agree before we compare against the committed bytes.
    let again = run_churn(&drill_config()).expect("drill runs twice");
    assert_eq!(report, again, "same seed + same plan must reproduce the report");
    let rendered = report.to_json();
    assert_eq!(rendered, again.to_json());

    common::assert_golden(GOLDEN_PATH, &rendered);
}
