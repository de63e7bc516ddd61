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
}

/// Runs `schemes` at every size in `fracs` over `traces`, computing gains
/// against an NC baseline at the same size. `base` supplies everything but
/// the scheme and size. Results come scheme by scheme, each in `fracs`
/// order.
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
    let baselines: Vec<RunMetrics> = fracs
        .par_iter()
        .map(|&f| {
            run_experiment_recorded(&base.at(SchemeKind::Nc, f), traces, recorder.clone())
                .expect("validated above")
        })
        .collect();

    let points: Vec<(SchemeKind, usize)> =
        schemes.iter().flat_map(|&s| (0..fracs.len()).map(move |i| (s, i))).collect();

    Ok(points
        .into_par_iter()
        .map(|(scheme, i)| {
            let cache_frac = fracs[i];
            let metrics = if scheme == SchemeKind::Nc {
                baselines[i].clone()
            } else {
                run_experiment_recorded(&base.at(scheme, cache_frac), traces, recorder.clone())
                    .expect("validated above")
            };
            let gain_percent = latency_gain_percent(&baselines[i], &metrics);
            SweepResult { scheme, cache_frac, metrics, gain_percent }
        })
        .collect())
}

/// Renders one figure panel as text: a row per cache size in `fracs`, a
/// column per labelled curve of gains (%) in `fracs` order — the series
/// the paper plots. A column is two wider than its label, at least 10; a
/// curve shorter than `fracs` prints `-` for the missing sizes.
pub fn gain_table(fracs: &[f64], curves: &[(&str, Vec<f64>)]) -> String {
    let widths: Vec<usize> = curves.iter().map(|(label, _)| (label.len() + 2).max(10)).collect();
    let mut out = format!("{:>10}", "cache(%)");
    for ((label, _), w) in curves.iter().zip(&widths) {
        let _ = write!(out, "{label:>w$}");
    }
    out.push('\n');
    for (i, &frac) in fracs.iter().enumerate() {
        let _ = write!(out, "{:>10.0}", frac * 100.0);
        for ((_, gains), w) in curves.iter().zip(&widths) {
            let cell = gains.get(i).map_or_else(|| "-".to_string(), |g| format!("{g:.1}"));
            let _ = write!(out, "{cell:>w$}");
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
        let curves = [("SC", vec![12.34, 7.0]), ("Hier-GD", vec![-3.0]), ("Hier-GD(1000)", vec![])];
        assert_eq!(
            gain_table(&[0.1, 0.5], &curves),
            "  cache(%)        SC   Hier-GD  Hier-GD(1000)\n\
             \x20       10      12.3      -3.0              -\n\
             \x20       50       7.0         -              -\n"
        );
    }

    #[test]
    fn paper_fracs_are_the_figure_axis() {
        assert_eq!(PAPER_CACHE_FRACS.len(), 10);
        assert!((PAPER_CACHE_FRACS[0] - 0.1).abs() < 1e-12);
        assert!((PAPER_CACHE_FRACS[9] - 1.0).abs() < 1e-12);
    }
}
