//! Shared by the tests that pin committed files (`mod common;`). Each
//! test binary uses part of it.
#![allow(dead_code)]

use std::path::Path;
use std::sync::Mutex;
use webcache::sim::figures::{entry, Entry, Report, Run};
use webcache::sim::{ChurnConfig, ScenarioReport};

/// Compares `fresh` with the committed file at `path` (from the
/// repository root). On a mismatch it writes `fresh` to
/// `target/figures/<path>` and names the first line that moved. To adopt
/// an *intentional* change, copy the fresh files over the committed ones
/// (`cp -r target/figures/. .`), or rerun `webcache figure <name>` with
/// `--report-out` (and `--csv-out`) for a row of the registry.
pub fn compare(path: &str, fresh: &str) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(root.join(path))
        .map_err(|e| format!("missing committed file {path}: {e}"))?;
    if fresh == committed {
        return Ok(());
    }
    let copy = root.join("target/figures").join(path);
    std::fs::create_dir_all(copy.parent().unwrap()).unwrap();
    std::fs::write(&copy, fresh).unwrap();
    // The first line that differs, or the one past the shorter file.
    let (fresh_lines, committed_lines) = (fresh.split('\n'), committed.split('\n'));
    let moved = fresh_lines.clone().zip(committed_lines.clone()).position(|(f, c)| f != c);
    let line = 1 + moved.unwrap_or(fresh_lines.count().min(committed_lines.count()));
    Err(format!("{path} moved at line {line}; the fresh copy is {}", copy.display()))
}

/// Runs `row` and returns what is wrong with it: the committed files it
/// no longer reproduces, or its gate's complaint.
fn check(row: &Entry) -> Result<(), String> {
    let report = row.report(false).map_err(|e| format!("{} does not run: {e}", row.name))?;
    let bodies = [Some(report.to_json()), report.to_csv()].into_iter().flatten();
    let moved: Vec<String> = row
        .files()
        .iter()
        .zip(bodies)
        .filter_map(|(path, body)| compare(path, &body).err())
        .collect();
    if !moved.is_empty() {
        return Err(moved.join("\n"));
    }
    row.check(&report).map_err(|e| format!("the committed {} fails its gate: {e}", row.name))
}

/// Checks every row of `rows` on one worker per core, taking them in
/// order: each must reproduce its committed files byte for byte and pass
/// its gate.
pub fn check_rows<'a>(rows: impl Iterator<Item = &'a Entry> + Send) {
    let queue = Mutex::new(rows);
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

/// The row of the registry called `name`.
pub fn row(name: &str) -> &'static Entry {
    entry(name).unwrap_or_else(|| panic!("FIGURES has no row {name}"))
}

/// Checks the rows called `names`, as [`check_rows`] does.
pub fn check_named(names: &[&str]) {
    check_rows(names.iter().map(|name| row(name)));
}

/// The report of the row `name`, a report of cells.
pub fn cells(name: &str) -> ScenarioReport {
    match row(name).report(false) {
        Ok(Report::Cells(report)) => report,
        other => panic!("{name} reports no cells: {other:?}"),
    }
}

/// The config of the row `name`, a churn drill.
pub fn churn_config(name: &str) -> ChurnConfig {
    match row(name).run {
        Run::Churn(config) => config(),
        Run::Cells(_) => panic!("{name} is not a churn drill"),
    }
}
