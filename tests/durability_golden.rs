//! Golden-output tests for the correlated-failure durability sweep.
//!
//! The sweep report is the committed artifact behind the durability
//! figure, so a small config of it is pinned byte for byte — once per
//! clock mode, because the event clock prices the proactive repair
//! transfers as real proxy work while the compat clock documents the
//! loss accounting alone. The two configs are rows of the figure
//! registry, `durability_smoke` and `durability_smoke_event`, committed
//! as `tests/golden/durability_report{,_event}.{json,csv}`; see
//! `common::compare` for how to adopt an intentional change.

mod common;

/// The two smoke rows, compat then event.
const ROWS: [&str; 2] = ["durability_smoke", "durability_smoke_event"];

#[test]
fn event_durability_report_matches_golden() {
    common::check_named(&["durability_smoke_event"]);
}

#[test]
fn compat_durability_report_matches_golden() {
    common::check_named(&["durability_smoke"]);
}

/// Reactive cells must never consume a repair draw: only the plan's
/// `repair` budget differs between the reactive and proactive columns,
/// so the reactive cells show zero scans and zero proactive repairs in
/// both clock modes. This is the committed-golden face of the
/// determinism invariant: repair off means zero draws from the repair
/// scheduler.
#[test]
fn reactive_cells_never_touch_the_repair_scheduler() {
    for row in ROWS {
        let report = common::cells(row);
        for cell in report.cells.iter().filter(|c| !c.b("proactive")) {
            assert_eq!(cell.u("repair_scans"), 0, "{row} spread={}", cell.b("spread"));
            assert_eq!(cell.u("proactive_repairs"), 0, "{row} spread={}", cell.b("spread"));
        }
    }
}

/// The fault-free baseline inside the sweep must conserve every object:
/// with no plan armed, nothing is ever at risk and nothing is lost —
/// the domain/repair knobs being *present* in the config costs nothing
/// until a plan actually uses them.
#[test]
fn baseline_stays_fault_free_in_both_clock_modes() {
    for row in ROWS {
        assert_eq!(common::cells(row).header.u("baseline_objects_lost"), 0, "{row}");
    }
}
