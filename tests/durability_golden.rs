//! Golden-output tests for the correlated-failure durability sweep.
//!
//! The sweep report is the committed artifact behind the durability
//! figure, so it is pinned byte for byte — once per clock mode, because
//! the event clock prices the proactive repair transfers as real proxy
//! work while the compat clock documents the loss accounting alone.
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDEN=1 cargo test --release --test durability_golden`.

mod common;

use webcache::sim::{run_durability, ChurnConfig, ClockMode, DurabilityConfig, NetworkModel};

const GOLDEN_COMPAT: &str = "tests/golden/durability_report.json";
const GOLDEN_EVENT: &str = "tests/golden/durability_report_event.json";

/// A sweep small enough for the test suite but big enough that an
/// 8-machine domain failure in a 32-machine cluster genuinely destroys
/// blindly-placed replica sets: one quarter of the overlay dies at
/// request 2,000, with the latency model scaled down 16× so the
/// event-clock repair pricing has service headroom to show up in.
fn pinned_config(clock: ClockMode) -> DurabilityConfig {
    DurabilityConfig {
        base: ChurnConfig {
            requests: 8_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 32,
            client_cache_capacity: 4,
            clock,
            net: NetworkModel::default().scaled(1.0 / 16.0),
            ..ChurnConfig::default()
        },
        bursts: vec![8],
        ks: vec![2],
        burst_at: 2_000,
        ..DurabilityConfig::default()
    }
}

fn check_golden(clock: ClockMode, golden_path: &str) {
    let cfg = pinned_config(clock);
    let report = run_durability(&cfg).expect("sweep runs");
    let again = run_durability(&cfg).expect("sweep runs twice");
    assert_eq!(report, again, "same config must reproduce the report");
    let rendered = report.to_json();

    common::assert_golden(golden_path, &rendered);
}

#[test]
fn event_durability_report_matches_golden() {
    check_golden(ClockMode::Event, GOLDEN_EVENT);
}

#[test]
fn compat_durability_report_matches_golden() {
    check_golden(ClockMode::Compat, GOLDEN_COMPAT);
}

/// Reactive cells must never consume a repair draw: only the plan's
/// `repair` budget differs between the reactive and proactive columns,
/// so the reactive cells show zero scans and zero proactive repairs in
/// both clock modes. This is the committed-golden face of the
/// determinism invariant: repair off means zero draws from the repair
/// scheduler.
#[test]
fn reactive_cells_never_touch_the_repair_scheduler() {
    for clock in [ClockMode::Compat, ClockMode::Event] {
        let report = run_durability(&pinned_config(clock)).expect("sweep runs");
        for cell in report.cells.iter().filter(|c| !c.b("proactive")) {
            assert_eq!(cell.u("repair_scans"), 0, "{clock:?} spread={}", cell.b("spread"));
            assert_eq!(cell.u("proactive_repairs"), 0, "{clock:?} spread={}", cell.b("spread"));
        }
    }
}

/// The fault-free baseline inside the sweep must conserve every object:
/// with no plan armed, nothing is ever at risk and nothing is lost —
/// the domain/repair knobs being *present* in the config costs nothing
/// until a plan actually uses them.
#[test]
fn baseline_stays_fault_free_in_both_clock_modes() {
    for clock in [ClockMode::Compat, ClockMode::Event] {
        let report = run_durability(&pinned_config(clock)).expect("sweep runs");
        assert_eq!(report.header.u("baseline_objects_lost"), 0, "{clock:?}");
    }
}
