//! Shared plumbing for the figure-regeneration harnesses.
//!
//! Every table/figure of the paper's §5 has a `harness = false` bench
//! target in `benches/`; `cargo bench --workspace` therefore regenerates
//! the whole evaluation. Each harness:
//!
//! 1. builds its workloads at a laptop-friendly default scale (pass
//!    `-- --full` for the paper's 1M-request scale),
//! 2. runs the (scheme × cache-size) sweep,
//! 3. prints the figure's series as aligned rows, and
//! 4. writes `target/figures/<name>.csv` for plotting.
//!
//! Reduced scale keeps every *ratio* the paper fixes (one-timer fraction,
//! α, per-client cache = 0.1% of `U`, cluster sizes); only the request
//! count and, for the UCB substitute, the universe shrink — the gain
//! curves' shape is preserved, which is what EXPERIMENTS.md compares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use webcache_sim::sweep::{gain_table, SweepResult};
use webcache_sim::SchemeKind;
use webcache_workload::{ProWGen, ProWGenConfig, Trace};

/// Workload scale for a harness run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests per proxy trace.
    pub requests: usize,
    /// Distinct objects per trace.
    pub distinct_objects: usize,
    /// True when running at the paper's full scale.
    pub full: bool,
}

impl Scale {
    /// Reduced default: 250k requests over the paper's 10k objects.
    pub fn default_scale() -> Self {
        Scale { requests: 250_000, distinct_objects: 10_000, full: false }
    }

    /// The paper's scale: 1M requests, 10k objects.
    pub fn paper_scale() -> Self {
        Scale { requests: 1_000_000, distinct_objects: 10_000, full: true }
    }

    /// Picks the scale from the command line: `--full` selects the
    /// paper's.
    pub fn from_env() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Self::paper_scale()
        } else {
            Self::default_scale()
        }
    }
}

/// Generates the paper's default synthetic workload (§5.1) for
/// `num_proxies` statistically identical clusters, with `mutate` applied
/// to the base ProWGen config (α sweeps, stack sweeps, …).
pub fn synthetic_traces(
    num_proxies: usize,
    scale: Scale,
    mutate: impl Fn(&mut ProWGenConfig),
) -> Vec<Trace> {
    (0..num_proxies)
        .map(|p| {
            let mut cfg = ProWGenConfig {
                requests: scale.requests,
                distinct_objects: scale.distinct_objects,
                ..ProWGenConfig::default()
            };
            mutate(&mut cfg);
            cfg.seed = webcache_primitives::seed::derive_indexed(cfg.seed, "proxy-trace", p as u64);
            ProWGen::new(cfg).generate()
        })
        .collect()
}

/// Where figure CSVs land: `<workspace>/target/figures`.
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

/// Writes sweep results as CSV
/// (`scheme,cache_pct,gain_pct,avg_latency,hit_ratio,wall_secs`).
///
/// The trailing wall-clock column is diagnostic (how long each grid
/// point's simulation took on this machine/thread count) — plot scripts
/// should ignore it when comparing figures across runs.
pub fn write_csv(name: &str, results: &[SweepResult]) -> PathBuf {
    let path = figures_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "scheme,cache_pct,gain_pct,avg_latency,hit_ratio,wall_secs").expect("write csv");
    for r in results {
        writeln!(
            f,
            "{},{:.0},{:.3},{:.4},{:.4},{:.4}",
            r.scheme.label(),
            r.cache_frac * 100.0,
            r.gain_percent,
            r.metrics.avg_latency(),
            r.metrics.hit_ratio(),
            r.wall_secs,
        )
        .expect("write csv");
    }
    path
}

/// Prints one figure panel ([`gain_table`]) with a row per cache size
/// in `results`, smallest first.
pub fn print_panel(title: &str, results: &[SweepResult], schemes: &[SchemeKind]) {
    println!("\n=== {title} ===");
    let mut fracs: Vec<f64> = results.iter().map(|r| r.cache_frac).collect();
    fracs.sort_by(|a, b| a.total_cmp(b));
    fracs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    print!("{}", gain_table(results, schemes, &fracs));
}

/// Prints labeled gain curves (for sweeps whose series are not schemes,
/// e.g. α values or cluster sizes).
pub fn print_labeled_curves(title: &str, x_label: &str, curves: &[(String, Vec<(f64, f64)>)]) {
    println!("\n=== {title} ===");
    print!("{x_label:>10}");
    for (label, _) in curves {
        print!("{label:>14}");
    }
    println!();
    if curves.is_empty() {
        return;
    }
    let xs: Vec<f64> = curves[0].1.iter().map(|p| p.0).collect();
    for (i, x) in xs.iter().enumerate() {
        print!("{:>10.0}", x * 100.0);
        for (_, pts) in curves {
            match pts.get(i) {
                Some(&(_, y)) => print!("{y:>14.1}"),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}

/// Writes labeled curves as CSV (`x,label,gain_pct`).
pub fn write_labeled_csv(name: &str, curves: &[(String, Vec<(f64, f64)>)]) -> PathBuf {
    let path = figures_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "cache_pct,series,gain_pct").expect("write csv");
    for (label, pts) in curves {
        for &(x, y) in pts {
            writeln!(f, "{:.0},{label},{y:.3}", x * 100.0).expect("write csv");
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        let d = Scale::default_scale();
        assert!(!d.full);
        let p = Scale::paper_scale();
        assert_eq!(p.requests, 1_000_000);
        assert_eq!(p.distinct_objects, 10_000);
    }

    #[test]
    fn synthetic_traces_are_per_proxy_distinct_but_same_shape() {
        let scale = Scale { requests: 5_000, distinct_objects: 400, full: false };
        let ts = synthetic_traces(2, scale, |_| {});
        assert_eq!(ts.len(), 2);
        assert_ne!(ts[0].requests, ts[1].requests, "independent streams");
        let s0 = ts[0].stats();
        let s1 = ts[1].stats();
        assert_eq!(s0.distinct_objects, s1.distinct_objects);
        assert_eq!(s0.one_timers, s1.one_timers);
    }

    #[test]
    fn mutator_applies() {
        let scale = Scale { requests: 5_000, distinct_objects: 400, full: false };
        let ts = synthetic_traces(1, scale, |c| c.num_clients = 3);
        assert_eq!(ts[0].num_clients, 3);
    }
}
