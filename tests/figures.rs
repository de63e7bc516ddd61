//! Pins the committed figures, every row of `webcache figure`'s registry
//! (`FIGURES`): each gated row — the nine drills (one test) and the three
//! scenario sweeps (a test each) — must reproduce
//! `FIGURE_<stem>.{json,csv}` byte for byte at its committed config, and
//! its `gate` — the threshold the figure is committed to demonstrate —
//! must pass on the report. The paper's eight
//! figures have no gate yet; CI's "Scenario sweeps" step pins their files.
//!
//! On a mismatch the fresh files are written under `target/figures/`
//! (CI uploads them). To adopt an *intentional* change, copy them over
//! the committed files, or rerun the row: `webcache figure <name>
//! --report-out FIGURE_<stem>.json --csv-out FIGURE_<stem>.csv`
//! (`webcache figure --list true` prints every name and stem).

use std::path::Path;
use std::sync::Mutex;
use webcache::sim::figures::{entry, Entry, FIGURES};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `row` and returns what is wrong with it: the committed files it
/// no longer reproduces (fresh copies go to `target/figures/`), or its
/// gate's complaint.
fn check(row: &Entry) -> Result<(), String> {
    let report = (row.run)(false).map_err(|e| format!("{} does not run: {e}", row.name))?;
    let mut moved = Vec::new();
    for (ext, fresh) in [("json", report.to_json()), ("csv", report.to_csv())] {
        let file = format!("FIGURE_{}.{ext}", row.stem);
        let committed = std::fs::read_to_string(root().join(&file))
            .map_err(|e| format!("missing committed figure {file}: {e}"))?;
        if fresh != committed {
            let dir = root().join("target/figures");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&file), fresh).unwrap();
            moved.push(file);
        }
    }
    if !moved.is_empty() {
        return Err(format!("{moved:?} no longer reproduce; fresh copies are in target/figures/"));
    }
    let gate = row.gate.expect("only gated rows are checked here");
    gate(&report).map_err(|e| format!("the committed {} figure fails its gate: {e}", row.name))
}

/// The scenario sweeps, each checked by a test of its own below; every
/// other gated row is a drill.
const SWEEPS: [&str; 3] = ["adversary", "overload", "durability"];

/// Checks the row of the registry called `name`.
fn check_row(name: &str) {
    let row = entry(name).unwrap_or_else(|| panic!("FIGURES has no row {name}"));
    check(row).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn adversary_figure_reproduces_and_passes_its_gate() {
    check_row("adversary");
}

#[test]
fn overload_figure_reproduces_and_passes_its_gate() {
    check_row("overload");
}

#[test]
fn durability_figure_reproduces_and_passes_its_gate() {
    check_row("durability");
}

/// Every gated row of the registry that is not a sweep, on one worker
/// per core.
#[test]
fn drill_figures_reproduce_and_pass_their_gates() {
    let drills = FIGURES.iter().filter(|row| row.gate.is_some() && !SWEEPS.contains(&row.name));
    let queue = Mutex::new(drills);
    let next = || queue.lock().unwrap().next();
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let failures: Vec<String> = std::thread::scope(|s| {
        let work =
            || std::iter::from_fn(next).filter_map(|row| check(row).err()).collect::<Vec<_>>();
        let workers: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        workers.into_iter().flat_map(|w| w.join().expect("a row panicked")).collect()
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The registry and the committed files agree: every `FIGURE_*` file
/// belongs to a row, and every row has both of its files.
#[test]
fn every_committed_figure_is_a_row_of_the_registry() {
    let mut committed: Vec<String> = std::fs::read_dir(root())
        .unwrap()
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("FIGURE_"))
        .collect();
    committed.sort();
    let mut claimed: Vec<String> = FIGURES
        .iter()
        .flat_map(|row| ["csv", "json"].map(|ext| format!("FIGURE_{}.{ext}", row.stem)))
        .collect();
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
