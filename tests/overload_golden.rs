//! Golden-output tests for the overload sweep harness.
//!
//! The sweep report is the committed artifact behind the flash-crowd
//! resilience figure, so a small config of it is pinned byte for byte —
//! once per clock mode, because only the event clock has a queue to
//! overload (the compat report documents that the analytic pricing never
//! leaves baseline, and its bytes must stay stable too). The two configs
//! are rows of the figure registry, `overload_smoke` and
//! `overload_smoke_event`, committed as
//! `tests/golden/overload_report{,_event}.{json,csv}`; see
//! `common::compare` for how to adopt an intentional change.

mod common;

#[test]
fn event_overload_report_matches_golden() {
    common::check_named(&["overload_smoke_event"]);
}

#[test]
fn compat_overload_report_matches_golden() {
    common::check_named(&["overload_smoke"]);
}

/// The naive run must never consume a defense: the defended and naive
/// cells replay the identical trace and spike, so everything upstream of
/// the defense stack — the spike span, the request count — agrees, and
/// the naive cell shows zero shed/degraded/fast-fail activity in both
/// clock modes. This is the committed-golden face of the determinism
/// invariant: defenses off means zero draws from the defense stream.
#[test]
fn naive_cells_never_touch_the_defense_stack() {
    for row in ["overload_smoke", "overload_smoke_event"] {
        let report = common::cells(row);
        let naive = &report.cells[0];
        assert!(!naive.b("defended"));
        assert_eq!(naive.f("shed_percent"), 0.0, "{row}");
        assert_eq!(naive.f("degraded_percent"), 0.0, "{row}");
        assert_eq!(naive.u("breaker_fast_fails"), 0, "{row}");
        assert_eq!(naive.u("retry_budget_denials"), 0, "{row}");
        assert!(!naive.b("end_shedding"), "{row}");
    }
}
