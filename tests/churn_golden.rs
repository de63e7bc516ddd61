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

use webcache::sim::{run_churn, ChurnConfig, ClockMode, FaultPlan};

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

/// The fault plan of the 1,000-client drill below.
const THOUSAND_CLIENT_PLAN: &str = "crash@20000,depart@50000,rejoin@80000,\
    partition@100000{70|30},crash@120000,heal@150000,crash@170000,seed=7";

/// The drill at the paper's largest cluster, 1,000 clients: silent
/// crashes, a departure and a rejoin, a 70/30 partition and its heal, in
/// both clock modes — the only golden whose overlay joins, fails and
/// splits at that size. The CLI wrote both files:
///
/// ```text
/// webcache churn --clients 1000 --requests 200000 --objects 5000 --replication 2 \
///   --plan '<THOUSAND_CLIENT_PLAN>' --clock compat|event --report-out <golden>
/// ```
#[test]
fn thousand_client_drill_matches_golden() {
    for (clock, golden) in [
        (ClockMode::Compat, "tests/golden/churn_1000_report.json"),
        (ClockMode::Event, "tests/golden/churn_1000_report_event.json"),
    ] {
        let cfg = ChurnConfig {
            requests: 200_000,
            distinct_objects: 5_000,
            clients_per_cluster: 1_000,
            replication: 2,
            clock,
            plan: THOUSAND_CLIENT_PLAN.parse().expect("spec is valid"),
            ..ChurnConfig::default()
        };
        common::assert_golden(golden, &run_churn(&cfg).expect("drill runs").to_json());
    }
}
