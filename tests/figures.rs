//! Pins the committed figures: the three scenario sweeps at their
//! default (committed-figure) configs must reproduce
//! `FIGURE_{adversary,overload,durability}.{json,csv}` byte for byte, and
//! each scenario's `gate` — the threshold the figure is committed to
//! demonstrate — must pass on the report.
//!
//! On a mismatch the fresh files are written under `target/figures/`
//! (CI uploads them). To adopt an *intentional* change, copy them over
//! the committed files — or rerun the sweep: `webcache <scenario>
//! --report-out FIGURE_<scenario>.json --csv-out FIGURE_<scenario>.csv`.

use std::path::Path;
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
