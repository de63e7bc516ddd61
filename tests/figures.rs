//! Pins the committed figures: the three scenario sweeps and the nine
//! drills of `webcache figure` at their default (committed-figure)
//! configs must reproduce `FIGURE_<name>.{json,csv}` byte for byte, and
//! each one's `gate` — the threshold the figure is committed to
//! demonstrate — must pass on the report.
//!
//! On a mismatch the fresh files are written under `target/figures/`
//! (CI uploads them). To adopt an *intentional* change, copy them over
//! the committed files — or rerun the sweep: `webcache <scenario>
//! --report-out FIGURE_<scenario>.json --csv-out FIGURE_<scenario>.csv`,
//! or `webcache figure <drill>` with the same two flags.

use std::path::Path;
use webcache::sim::figures::drills::DRILLS;
use webcache::sim::{adversary, durability, overload, ScenarioReport};
use webcache::sim::{run_adversary, run_durability, run_overload};

fn check_figure(name: &str, report: &ScenarioReport, gate: Result<(), String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut moved = Vec::new();
    for (ext, fresh) in [("json", report.to_json()), ("csv", report.to_csv())] {
        let file = format!("FIGURE_{name}.{ext}");
        let committed = std::fs::read_to_string(root.join(&file))
            .unwrap_or_else(|e| panic!("missing committed figure {file}: {e}"));
        if fresh != committed {
            let dir = root.join("target/figures");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&file), fresh).unwrap();
            moved.push(file);
        }
    }
    assert!(moved.is_empty(), "{moved:?} no longer reproduce; fresh copies are in target/figures/");
    assert_eq!(gate, Ok(()), "the committed {name} figure fails its gate");
}

#[test]
fn adversary_figure_reproduces_and_passes_its_gate() {
    let report = run_adversary(&Default::default()).expect("the default sweep is valid");
    check_figure("adversary", &report, adversary::gate(&report));
}

#[test]
fn overload_figure_reproduces_and_passes_its_gate() {
    let report = run_overload(&Default::default()).expect("the default sweep is valid");
    check_figure("overload", &report, overload::gate(&report));
}

#[test]
fn durability_figure_reproduces_and_passes_its_gate() {
    let report = run_durability(&Default::default()).expect("the default sweep is valid");
    check_figure("durability", &report, durability::gate(&report));
}

#[test]
fn drill_figures_reproduce_and_pass_their_gates() {
    for drill in &DRILLS {
        let report = (drill.run)(false).expect("the default drill runs");
        check_figure(drill.name, &report, (drill.gate)(&report));
    }
}

/// EXPERIMENTS.md's replacement-policy table, the evidence for deviation
/// D1, prints `FIGURE_ablation_lfu.csv` row for row at three decimals.
#[test]
fn experiments_replacement_policy_table_prints_the_committed_figure() {
    let doc = include_str!("../EXPERIMENTS.md");
    let header = "| cache (% of U) | LRU | in-cache LFU | perfect LFU | greedy-dual |";
    let table = &doc[doc.find(header).expect("EXPERIMENTS.md has the table")..];
    let cells = |line: &str| -> Vec<f64> {
        line.trim().trim_matches('|').split('|').map(|v| v.trim().parse().unwrap()).collect()
    };
    let printed: Vec<Vec<f64>> =
        table.lines().skip(2).take_while(|l| l.trim().starts_with('|')).map(cells).collect();
    let committed = include_str!("../FIGURE_ablation_lfu.csv").lines().skip(1);
    let committed: Vec<Vec<f64>> =
        committed.map(|l| l.split(',').map(|v| v.parse().unwrap()).collect()).collect();
    assert_eq!(printed.len(), committed.len(), "one table row per cache size");
    for (doc_row, csv_row) in printed.iter().zip(&committed) {
        assert_eq!(doc_row[0], csv_row[0], "cache sizes in the CSV's order");
        for (d, c) in doc_row[1..].iter().zip(&csv_row[1..]) {
            assert!((d - c).abs() <= 5e-4 + 1e-9, "{d} is not {c} at 3 dp ({doc_row:?})");
        }
    }
}
