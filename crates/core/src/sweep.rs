//! Parallel (scheme × cache-size) sweeps — the shape of every figure.
//!
//! Each figure in the paper plots latency gain against proxy cache size
//! (10%–100% of the infinite cache size) for a set of schemes. A sweep
//! runs every (scheme, size) point plus the NC baseline per size, in
//! parallel with Rayon (points are independent simulations), and reports
//! gains.

use crate::config::{run_experiment_recorded, ExperimentConfig, SchemeKind};
use crate::error::SimError;
use crate::metrics::{latency_gain_percent, RunMetrics};
use crate::recorder::{NoopRecorder, Recorder};
use rayon::prelude::*;
use std::fmt::Write as _;
use webcache_workload::Trace;

/// The paper's x-axis: 10%..=100% in steps of 10%.
pub const PAPER_CACHE_FRACS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// One sweep point's result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Scheme simulated.
    pub scheme: SchemeKind,
    /// Proxy cache size as a fraction of `U`.
    pub cache_frac: f64,
    /// Raw metrics.
    pub metrics: RunMetrics,
    /// Latency gain vs the NC baseline at the same size, percent.
    pub gain_percent: f64,
    /// Wall-clock seconds this point's simulation took (NC points report
    /// their shared baseline run's time). Diagnostic only — noisy across
    /// machines and thread counts, never part of golden comparisons.
    pub wall_secs: f64,
}

/// Runs `schemes` at every size in `fracs` over `traces`, computing gains
/// against an NC baseline at the same size. `base` supplies everything but
/// the scheme and size.
pub fn sweep(
    schemes: &[SchemeKind],
    fracs: &[f64],
    traces: &[Trace],
    base: &ExperimentConfig,
) -> Result<Vec<SweepResult>, SimError> {
    sweep_recorded(schemes, fracs, traces, base, NoopRecorder)
}

/// [`sweep`] with a shared [`Recorder`] observing every grid point.
///
/// The recorder handle is cloned per simulation (pass e.g.
/// `Arc<StatsRecorder>`), so its counters aggregate across all points —
/// per-point attribution needs one sweep call per point.
///
/// Every grid config is validated *before* the parallel region, so the
/// Rayon closures below are infallible.
pub fn sweep_recorded<R: Recorder + Clone + Send + 'static>(
    schemes: &[SchemeKind],
    fracs: &[f64],
    traces: &[Trace],
    base: &ExperimentConfig,
    recorder: R,
) -> Result<Vec<SweepResult>, SimError> {
    for &f in fracs {
        base.at(SchemeKind::Nc, f).validate()?;
        for &s in schemes {
            let cfg = base.at(s, f);
            cfg.validate()?;
            if traces.len() != cfg.num_proxies {
                return Err(SimError::TraceCountMismatch {
                    traces: traces.len(),
                    proxies: cfg.num_proxies,
                });
            }
        }
    }

    // NC baselines, one per size (shared by every scheme at that size).
    let baselines: Vec<(RunMetrics, f64)> = fracs
        .par_iter()
        .map(|&f| {
            let start = std::time::Instant::now();
            let m = run_experiment_recorded(&base.at(SchemeKind::Nc, f), traces, recorder.clone())
                .expect("validated above");
            (m, start.elapsed().as_secs_f64())
        })
        .collect();

    let points: Vec<(SchemeKind, usize)> =
        schemes.iter().flat_map(|&s| (0..fracs.len()).map(move |i| (s, i))).collect();

    Ok(points
        .into_par_iter()
        .map(|(scheme, i)| {
            let cache_frac = fracs[i];
            let (metrics, wall_secs) = if scheme == SchemeKind::Nc {
                baselines[i].clone()
            } else {
                let start = std::time::Instant::now();
                let m =
                    run_experiment_recorded(&base.at(scheme, cache_frac), traces, recorder.clone())
                        .expect("validated above");
                (m, start.elapsed().as_secs_f64())
            };
            let gain_percent = latency_gain_percent(&baselines[i].0, &metrics);
            SweepResult { scheme, cache_frac, metrics, gain_percent, wall_secs }
        })
        .collect())
}

/// Extracts one scheme's gain curve (ordered by cache size) from sweep
/// results.
pub fn gain_curve(results: &[SweepResult], scheme: SchemeKind) -> Vec<(f64, f64)> {
    let mut curve: Vec<(f64, f64)> = results
        .iter()
        .filter(|r| r.scheme == scheme)
        .map(|r| (r.cache_frac, r.gain_percent))
        .collect();
    curve.sort_by(|a, b| a.0.total_cmp(&b.0));
    curve
}

/// Renders one figure panel as text: a row per size in `fracs` (in the
/// order given), a column per scheme, cells = latency gain (%) — the
/// series the paper plots. A grid point missing from `results` prints
/// as `-`.
pub fn gain_table(results: &[SweepResult], schemes: &[SchemeKind], fracs: &[f64]) -> String {
    let mut out = format!("{:>10}", "cache(%)");
    for s in schemes {
        let _ = write!(out, "{:>10}", s.label());
    }
    out.push('\n');
    for &frac in fracs {
        let _ = write!(out, "{:>10.0}", frac * 100.0);
        for &s in schemes {
            let cell = results
                .iter()
                .find(|r| r.scheme == s && (r.cache_frac - frac).abs() < 1e-9)
                .map_or_else(|| "-".to_string(), |r| format!("{:.1}", r.gain_percent));
            let _ = write!(out, "{cell:>10}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_workload::{ProWGen, ProWGenConfig};

    fn traces() -> Vec<Trace> {
        (0..2)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests: 8_000,
                    distinct_objects: 600,
                    num_clients: 8,
                    seed: 55 + p,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    #[test]
    fn sweep_covers_grid_and_nc_gain_is_zero() {
        let ts = traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 8;
        let results = sweep(&[SchemeKind::Nc, SchemeKind::Sc], &[0.1, 0.5], &ts, &base).unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            if r.scheme == SchemeKind::Nc {
                assert!(r.gain_percent.abs() < 1e-9, "NC vs itself must be 0");
            }
            assert_eq!(r.metrics.requests, 16_000);
        }
    }

    #[test]
    fn gain_curve_sorted() {
        let ts = traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 8;
        let results = sweep(&[SchemeKind::Sc], &[0.5, 0.1, 0.3], &ts, &base).unwrap();
        let curve = gain_curve(&results, SchemeKind::Sc);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn recorded_sweep_aggregates_every_point() {
        use crate::recorder::StatsRecorder;
        use std::sync::Arc;
        let ts = traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 8;
        let rec = Arc::new(StatsRecorder::new());
        let results =
            sweep_recorded(&[SchemeKind::Nc, SchemeKind::Sc], &[0.1, 0.5], &ts, &base, rec.clone())
                .unwrap();
        let simulated: u64 = results.iter().map(|r| r.metrics.requests).sum();
        // The shared recorder saw the two NC baselines plus the non-NC
        // points (NC points reuse the baseline metrics, not a re-run).
        let expected = simulated; // 2 baselines + 2 SC runs = 4 × 16k; NC points reuse.
        assert_eq!(rec.snapshot().total_requests(), expected);
    }

    #[test]
    fn sweep_rejects_bad_grid_upfront() {
        let ts = traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 0; // invalid for client-cache schemes
        assert!(sweep(&[SchemeKind::ScEc], &[0.1], &ts, &base).is_err());
    }

    #[test]
    fn gain_table_pins_the_layout_and_marks_missing_points() {
        let point = |scheme, cache_frac, gain_percent| SweepResult {
            scheme,
            cache_frac,
            metrics: RunMetrics::default(),
            gain_percent,
            wall_secs: 0.0,
        };
        let results = [
            point(SchemeKind::Sc, 0.1, 12.34),
            point(SchemeKind::HierGd, 0.1, -3.0),
            point(SchemeKind::Sc, 0.5, 7.0),
        ];
        let table = gain_table(&results, &[SchemeKind::Sc, SchemeKind::HierGd], &[0.1, 0.5]);
        assert_eq!(
            table,
            "  cache(%)        SC   Hier-GD\n\
             \x20       10      12.3      -3.0\n\
             \x20       50       7.0         -\n"
        );
    }

    #[test]
    fn paper_fracs_are_the_figure_axis() {
        assert_eq!(PAPER_CACHE_FRACS.len(), 10);
        assert!((PAPER_CACHE_FRACS[0] - 0.1).abs() < 1e-12);
        assert!((PAPER_CACHE_FRACS[9] - 1.0).abs() < 1e-12);
    }
}
