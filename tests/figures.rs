//! Pins the committed outputs, every row of `webcache figure`'s registry
//! (`FIGURES`) but the paper's eight figures: each must reproduce its
//! committed files byte for byte at its committed config, and a gated
//! row's `gate` — the threshold the figure is committed to demonstrate —
//! must pass on the report. The nine drills run here on one worker per
//! core; the three scenario sweeps have a test each below, and the smoke
//! rows under `tests/golden/` one in their harness
//! (`{adversary,overload,durability,churn}_golden.rs`,
//! `clock_compat_golden.rs`), all through `common::check_rows`. The
//! paper's figures have no gate yet; CI's "Scenario sweeps" step pins
//! their files.
//!
//! On a mismatch the fresh files are written under `target/figures/`
//! (CI uploads them). To adopt an *intentional* change, copy them over
//! the committed files (`cp -r target/figures/. .`), or rerun the row:
//! `webcache figure <name> --report-out <path>.json --csv-out <path>.csv`
//! (`webcache figure --list true` prints every name and its files).

mod common;

use std::path::Path;
use webcache::sim::figures::FIGURES;

/// The scenario sweeps, each checked by a test of its own below; every
/// other gated row is a drill. The smoke rows are ungated.
const SWEEPS: [&str; 3] = ["adversary", "overload", "durability"];

#[test]
fn adversary_figure_reproduces_and_passes_its_gate() {
    common::check_named(&["adversary"]);
}

#[test]
fn overload_figure_reproduces_and_passes_its_gate() {
    common::check_named(&["overload"]);
}

#[test]
fn durability_figure_reproduces_and_passes_its_gate() {
    common::check_named(&["durability"]);
}

/// Every gated row of the registry that is not a sweep, on one worker
/// per core.
#[test]
fn drill_figures_reproduce_and_pass_their_gates() {
    common::check_rows(FIGURES.iter().filter(|r| r.gate.is_some() && !SWEEPS.contains(&r.name)));
}

/// The registry and the committed files agree: every `FIGURE_*` file
/// and every `tests/golden/*_report*` file belongs to a row, and every
/// row has all of its files.
#[test]
fn every_committed_figure_is_a_row_of_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = |dir: &str, keep: fn(&str) -> bool| -> Vec<String> {
        let names = std::fs::read_dir(root.join(dir)).unwrap();
        let names = names.map(|f| f.unwrap().file_name().into_string().unwrap());
        names.filter(|f| keep(f)).map(|f| Path::new(dir).join(f).display().to_string()).collect()
    };
    let mut committed = files("", |f| f.starts_with("FIGURE_"));
    committed.extend(files("tests/golden", |f| f.contains("_report")));
    committed.sort();
    let mut claimed: Vec<String> = FIGURES.iter().flat_map(|row| row.files()).collect();
    claimed.sort();
    let unclaimed: Vec<_> = committed.iter().filter(|f| !claimed.contains(f)).collect();
    let missing: Vec<_> = claimed.iter().filter(|f| !committed.contains(f)).collect();
    assert!(unclaimed.is_empty(), "no row of FIGURES claims {unclaimed:?}");
    assert!(missing.is_empty(), "rows of FIGURES without their files: {missing:?}");
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
