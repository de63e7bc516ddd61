//! Shared plumbing for the ablation, comparison and fault-drill
//! harnesses in `benches/`. The paper's own figures are `webcache figure
//! <name>` (`webcache_sim::figures`); these targets measure what the
//! paper does not plot.
//!
//! Each harness builds its workloads at a laptop-friendly default scale
//! (pass `-- --full` for the paper's 1M-request scale), prints its rows
//! and writes `target/figures/<name>.csv` for plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use webcache_sim::figures::Scale;

/// The scale the command line asks for: `--full` selects the paper's,
/// anything else `requests` per trace over the paper's 10 k objects.
pub fn scale_or_full(requests: usize) -> Scale {
    let scale = Scale::new(std::env::args().any(|a| a == "--full"));
    if scale.full {
        scale
    } else {
        Scale { requests, ..scale }
    }
}

/// Where harness CSVs land: `<workspace>/target/figures`.
///
/// `cargo bench` runs bench binaries with the *package* directory as cwd,
/// so a bare relative `target/` would scatter outputs under
/// `crates/bench/target/`; anchor on the workspace root instead
/// (`CARGO_TARGET_DIR` wins if set).
pub fn figures_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| {
        // crates/bench -> workspace root.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("target")
    });
    let dir = target.join("figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}
