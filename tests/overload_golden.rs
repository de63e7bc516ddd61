//! Golden-output tests for the overload sweep harness.
//!
//! The sweep report is the committed artifact behind the flash-crowd
//! resilience figure, so it is pinned byte for byte — once per clock
//! mode, because only the event clock has a queue to overload (the
//! compat report documents that the analytic pricing never leaves
//! baseline, and its bytes must stay stable too).
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDEN=1 cargo test --release --test overload_golden`.

mod common;

use webcache::sim::{run_overload, ChurnConfig, ClockMode, NetworkModel, OverloadConfig};

const GOLDEN_COMPAT: &str = "tests/golden/overload_report.json";
const GOLDEN_EVENT: &str = "tests/golden/overload_report_event.json";

/// A sweep small enough for the test suite but big enough that the 8×
/// spike drives the event-clock proxy into overload: the latency model
/// is scaled down 16× so the baseline has service headroom and the
/// spike — not the steady state — is what saturates the queue.
fn pinned_config(clock: ClockMode) -> OverloadConfig {
    OverloadConfig {
        base: ChurnConfig {
            requests: 8_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 20,
            client_cache_capacity: 2,
            clock,
            net: NetworkModel::default().scaled(1.0 / 16.0),
            ..ChurnConfig::default()
        },
        intensities: vec![8],
        spike_at: 1_000,
        spike_span: 3_000,
        ..OverloadConfig::default()
    }
}

fn check_golden(clock: ClockMode, golden_path: &str) {
    let cfg = pinned_config(clock);
    let report = run_overload(&cfg).expect("sweep runs");
    let again = run_overload(&cfg).expect("sweep runs twice");
    assert_eq!(report, again, "same config must reproduce the report");
    let rendered = report.to_json();

    common::assert_golden(golden_path, &rendered);
}

#[test]
fn event_overload_report_matches_golden() {
    check_golden(ClockMode::Event, GOLDEN_EVENT);
}

#[test]
fn compat_overload_report_matches_golden() {
    check_golden(ClockMode::Compat, GOLDEN_COMPAT);
}

/// The naive run must never consume a defense: the defended and naive
/// cells replay the identical trace and spike, so everything upstream of
/// the defense stack — the spike span, the request count — agrees, and
/// the naive cell shows zero shed/degraded/fast-fail activity in both
/// clock modes. This is the committed-golden face of the determinism
/// invariant: defenses off means zero draws from the defense stream.
#[test]
fn naive_cells_never_touch_the_defense_stack() {
    for clock in [ClockMode::Compat, ClockMode::Event] {
        let report = run_overload(&pinned_config(clock)).expect("sweep runs");
        let naive = &report.cells[0];
        assert!(!naive.b("defended"));
        assert_eq!(naive.f("shed_percent"), 0.0, "{clock:?}");
        assert_eq!(naive.f("degraded_percent"), 0.0, "{clock:?}");
        assert_eq!(naive.u("breaker_fast_fails"), 0, "{clock:?}");
        assert_eq!(naive.u("retry_budget_denials"), 0, "{clock:?}");
        assert!(!naive.b("end_shedding"), "{clock:?}");
    }
}
