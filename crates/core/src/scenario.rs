//! What the scenario sweeps share: the trace, the fault-free twin, the
//! axes and the report.
//!
//! The paper's evaluation is one experiment shape repeated — replay the
//! same trace, vary one thing, compare against a baseline run (§5,
//! Figs. 2–5) — and the robustness sweeps ([`crate::adversary`],
//! [`crate::overload`], [`crate::durability`]) are that shape again. This
//! module owns the parts that do not depend on *what* is varied:
//!
//! * `ChurnConfig::trace` — the one ProWGen trace every run of a
//!   configuration replays (`run_churn` builds its trace here too);
//! * `Twin` — that trace plus the fault-free baseline drive every cell
//!   is measured against;
//! * `axis` — a swept axis, sorted and deduplicated;
//! * [`ScenarioReport`] — the report as *data*: ordered `(name, value)`
//!   rows and one JSON/CSV renderer, so a new scenario adds columns, not
//!   a serializer.
//!
//! A scenario module keeps only what is its own: its config and
//! `validate`, its plan builder, its per-cell measurement, its
//! naive-vs-defended summary row, its figure `gate` and its terminal
//! `table`. EXPERIMENTS.md ("Adding a scenario") walks through one.

use crate::error::SimError;
use crate::fault::{drive, ChurnConfig, DriveOutcome, FaultPlan};
use crate::hiergd::HierGdEngine;
use crate::recorder::StatsRecorder;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use webcache_workload::{ProWGen, ProWGenConfig, Trace};

/// The engine a drill hands back for end-state interrogation.
type DrillEngine = HierGdEngine<Arc<StatsRecorder>>;

impl ChurnConfig {
    /// The synthetic trace every run of this configuration replays.
    pub(crate) fn trace(&self) -> Trace {
        ProWGen::new(ProWGenConfig {
            requests: self.requests,
            distinct_objects: self.distinct_objects,
            num_clients: self.trace_clients.max(1) as u32,
            seed: self.trace_seed,
            ..ProWGenConfig::default()
        })
        .generate()
    }
}

impl DriveOutcome {
    /// Mean end-to-end latency in integer milli-units.
    pub(crate) fn avg_latency_milli(&self) -> u64 {
        (self.metrics.avg_latency() * 1000.0).round() as u64
    }

    /// Mean rounds from a loss-capable fault to the at-risk gauge
    /// draining to zero (0 when it never drained).
    pub(crate) fn mean_time_to_repair(&self) -> f64 {
        if self.repair_rounds.is_empty() {
            return 0.0;
        }
        self.repair_rounds.iter().sum::<u64>() as f64 / self.repair_rounds.len() as f64
    }
}

/// The fault-free twin of a sweep: the trace and the baseline drive that
/// every cell is compared against. Cells replay `trace` through
/// [`Twin::drive`], so a cell and the baseline differ only in the plan
/// and the config knobs the cell overrides.
pub(crate) struct Twin {
    trace: Trace,
    /// What the fault-free run measured.
    pub(crate) baseline: DriveOutcome,
    /// The fault-free run's end state.
    pub(crate) engine: DrillEngine,
}

impl Twin {
    /// Generates `base`'s trace and drives it with no fault armed, over
    /// the request window of `base.plan` — so a windowed plan (a shrunk
    /// chaos reproducer) is compared against a twin that served the same
    /// requests.
    pub(crate) fn new(base: &ChurnConfig) -> Result<Twin, SimError> {
        let trace = base.trace();
        let fault_free = FaultPlan { window: base.plan.window, ..FaultPlan::none() };
        let (baseline, engine) = drive(base, &trace, &fault_free)?;
        Ok(Twin { trace, baseline, engine })
    }

    /// Drives one cell over the twin's trace.
    pub(crate) fn drive(
        &self,
        cfg: &ChurnConfig,
        plan: &FaultPlan,
    ) -> Result<(DriveOutcome, DrillEngine), SimError> {
        drive(cfg, &self.trace, plan)
    }
}

/// A swept axis: the configured values sorted ascending, duplicates
/// folded. Callers validate the values first, so they are comparable.
pub(crate) fn axis<T: Copy + PartialOrd>(values: &[T]) -> Vec<T> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("validated axis values are comparable"));
    v.dedup();
    v
}

/// One report value. The variant fixes the rendering, so every report
/// prints a count, a ratio, a flag or a label the same way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Field {
    /// A count or an integer parameter, rendered as is.
    U(u64),
    /// A measurement, rendered with four decimals (bit-stable bytes).
    F(f64),
    /// A flag, rendered `true`/`false`.
    B(bool),
    /// A label, quoted in JSON.
    S(&'static str),
}

impl fmt::Display for Field {
    /// The CSV rendering; JSON differs only in quoting labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U(v) => write!(f, "{v}"),
            Field::F(v) => write!(f, "{v:.4}"),
            Field::B(v) => write!(f, "{v}"),
            Field::S(v) => f.write_str(v),
        }
    }
}

/// An ordered list of named values: a report header, one cell, or one
/// summary row. The order is the rendering order.
#[derive(Clone, Debug, PartialEq)]
pub struct Row(pub Vec<(&'static str, Field)>);

impl Row {
    fn get(&self, name: &str) -> Field {
        match self.0.iter().find(|(n, _)| *n == name) {
            Some((_, value)) => *value,
            None => panic!("row has no column '{name}'"),
        }
    }

    /// The count in column `name`.
    ///
    /// # Panics
    /// Panics when the row has no such column or it is not a [`Field::U`]
    /// (a typo in the caller, not a runtime condition).
    pub fn u(&self, name: &str) -> u64 {
        match self.get(name) {
            Field::U(v) => v,
            other => panic!("column '{name}' holds {other:?}, not a count"),
        }
    }

    /// The measurement in column `name` (panics like [`Row::u`]).
    pub fn f(&self, name: &str) -> f64 {
        match self.get(name) {
            Field::F(v) => v,
            other => panic!("column '{name}' holds {other:?}, not a measurement"),
        }
    }

    /// The flag in column `name` (panics like [`Row::u`]).
    pub fn b(&self, name: &str) -> bool {
        match self.get(name) {
            Field::B(v) => v,
            other => panic!("column '{name}' holds {other:?}, not a flag"),
        }
    }
}

/// `"name": value`, labels quoted.
fn json_field((name, value): &(&'static str, Field)) -> String {
    match value {
        Field::S(label) => format!("\"{name}\": \"{label}\""),
        other => format!("\"{name}\": {other}"),
    }
}

/// Everything a scenario sweep measured, as data. Bit-stable for a fixed
/// config: the golden tests pin the JSON in both clock modes and
/// `tests/figures.rs` pins the committed `FIGURE_*` files.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// The sweep's parameters and the fault-free baseline's numbers.
    pub header: Row,
    /// One row per driven cell, in sweep order.
    pub cells: Vec<Row>,
    /// JSON key of the summary array (`defense`, `resilience`, `rows`).
    pub summary_key: &'static str,
    /// One naive-vs-defended row per grid point.
    pub summary: Vec<Row>,
    /// Cell columns the CSV figure leaves out.
    pub csv_omit: &'static [&'static str],
}

impl ScenarioReport {
    /// Renders the report as a JSON document: header fields in order,
    /// then the `cells` and summary arrays, one inline object per row
    /// (hand-rolled: the offline build has no JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for field in &self.header.0 {
            let _ = writeln!(s, "  {},", json_field(field));
        }
        let arrays = [("cells", &self.cells, ","), (self.summary_key, &self.summary, "")];
        for (key, rows, comma) in arrays {
            let _ = writeln!(s, "  \"{key}\": [");
            for (i, row) in rows.iter().enumerate() {
                let sep = if i + 1 < rows.len() { "," } else { "" };
                let body: Vec<String> = row.0.iter().map(json_field).collect();
                let _ = writeln!(s, "    {{{}}}{sep}", body.join(", "));
            }
            let _ = writeln!(s, "  ]{comma}");
        }
        s.push_str("}\n");
        s
    }

    /// Renders the per-cell rows as CSV (the committed figure format),
    /// minus the `csv_omit` columns.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let kept: Vec<_> =
                cell.0.iter().filter(|(name, _)| !self.csv_omit.contains(name)).collect();
            if i == 0 {
                let names: Vec<&str> = kept.iter().map(|(name, _)| *name).collect();
                let _ = writeln!(s, "{}", names.join(","));
            }
            let values: Vec<String> = kept.iter().map(|(_, value)| value.to_string()).collect();
            let _ = writeln!(s, "{}", values.join(","));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::Field::{B, F, S, U};
    use super::*;

    fn report() -> ScenarioReport {
        ScenarioReport {
            header: Row(vec![("requests", U(10)), ("clock", S("event")), ("rate", F(0.5))]),
            cells: vec![
                Row(vec![("x", U(1)), ("on", B(false)), ("hidden", B(true)), ("y", F(1.0 / 3.0))]),
                Row(vec![("x", U(2)), ("on", B(true)), ("hidden", B(false)), ("y", F(-2.0))]),
            ],
            summary_key: "rows",
            summary: vec![Row(vec![("x", U(1)), ("factor", F(61.5))])],
            csv_omit: &["hidden"],
        }
    }

    #[test]
    fn json_layout_is_header_then_two_inline_arrays() {
        let expected = "{\n  \"requests\": 10,\n  \"clock\": \"event\",\n  \"rate\": 0.5000,\n  \
            \"cells\": [\n    {\"x\": 1, \"on\": false, \"hidden\": true, \"y\": 0.3333},\n    \
            {\"x\": 2, \"on\": true, \"hidden\": false, \"y\": -2.0000}\n  ],\n  \
            \"rows\": [\n    {\"x\": 1, \"factor\": 61.5000}\n  ]\n}\n";
        assert_eq!(report().to_json(), expected);
    }

    #[test]
    fn empty_arrays_still_render() {
        let mut r = report();
        r.cells.clear();
        r.summary.clear();
        assert!(r.to_json().ends_with("  \"cells\": [\n  ],\n  \"rows\": [\n  ]\n}\n"));
        assert_eq!(r.to_csv(), "");
    }

    #[test]
    fn csv_drops_the_omitted_columns() {
        assert_eq!(report().to_csv(), "x,on,y\n1,false,0.3333\n2,true,-2.0000\n");
    }

    #[test]
    fn accessors_read_by_name_and_type() {
        let r = report();
        assert_eq!(r.cells[1].u("x"), 2);
        assert!(r.cells[1].b("on"));
        assert_eq!(r.summary[0].f("factor"), 61.5);
    }

    #[test]
    #[should_panic(expected = "no column 'nope'")]
    fn a_misspelt_column_panics() {
        report().header.u("nope");
    }

    #[test]
    fn axis_sorts_and_folds_duplicates() {
        assert_eq!(axis(&[8u16, 4, 8, 16]), vec![4, 8, 16]);
        assert_eq!(axis(&[0.25, 0.0, 0.25]), vec![0.0, 0.25]);
    }
}
