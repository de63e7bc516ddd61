//! Simulator throughput measurement: requests/sec per scheme.
//!
//! The ROADMAP's north star is a simulator that runs "as fast as the
//! hardware allows"; every figure sweep is bound by `serve()` throughput.
//! This harness times [`run_experiment`](crate::config::run_experiment) per
//! scheme over a fixed workload
//! and reports requests per second, so each PR leaves a perf trajectory
//! (`BENCH_throughput.json`) behind.
//!
//! Timing uses the *fastest* of `repeats` runs per scheme — the minimum is
//! the standard noise-robust estimator for deterministic workloads.
//!
//! Two accounting views are reported per scheme:
//!
//! * `requests_per_sec` — the serve path alone: engines are built
//!   *outside* the timed region (construction is identical setup work for
//!   every scheme and PR, and the figures sweep amortizes it over ten
//!   grid points per engine shape), so this number tracks single-thread
//!   `serve()` wins and nothing else.
//! * `requests_per_sec_per_core` — all `repeats` runs (builds included)
//!   divided by the batch wall-clock and by the pool's thread count. On
//!   one thread this is a slightly conservative echo of the first number;
//!   on N threads it shows how much of the serve-path speed parallelism
//!   actually delivers per core. A perf PR must improve the first number
//!   to claim a single-thread win; moving only the second is a
//!   parallelism win.
//!
//! When the global pool (see `vendor/rayon`) has more than one thread,
//! the repeats themselves run in parallel — each repeat builds its own
//! engine from the same config, so outputs stay byte-identical.

use crate::clock::SimClock;
use crate::config::{build_engine, ExperimentConfig, SchemeKind};
use crate::engine::Engine;
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::recorder::NoopRecorder;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;
use webcache_workload::Trace;

/// One scheme's timing result.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Scheme measured.
    pub scheme: SchemeKind,
    /// Requests simulated per run (all traces interleaved).
    pub requests: u64,
    /// Wall-clock seconds of the fastest serve run (engine construction
    /// excluded — see the module docs).
    pub elapsed_secs: f64,
    /// `requests / elapsed_secs` of the fastest serve run.
    pub requests_per_sec: f64,
    /// Wall-clock seconds for all `repeats` runs, engine builds included
    /// (the repeats run in parallel when the pool has >1 thread).
    pub batch_secs: f64,
    /// `requests * repeats / batch_secs / threads`: end-to-end throughput
    /// normalized by the cores used.
    pub requests_per_sec_per_core: f64,
    /// Mean end-to-end latency of the simulated scheme (model time, not
    /// wall clock) — carried along so a perf regression that accidentally
    /// changes simulation output is visible right in the report.
    pub avg_latency: f64,
    /// Overall hit ratio of the simulated scheme.
    pub hit_ratio: f64,
}

/// A full throughput report: configuration + one point per scheme.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Configuration shared by every point (scheme field is ignored).
    pub base: ExperimentConfig,
    /// Requests per trace and trace count, for the record.
    pub trace_requests: usize,
    /// Number of proxy traces.
    pub num_traces: usize,
    /// Timed runs per scheme (fastest wins).
    pub repeats: usize,
    /// Worker threads in the global pool during the measurement
    /// (`WEBCACHE_THREADS` or the core count; 1 means fully serial).
    pub threads: usize,
    /// Per-scheme results, in measurement order.
    pub points: Vec<ThroughputPoint>,
}

/// Times `run_experiment` for each scheme in `schemes` over `traces`.
///
/// Every scheme runs `repeats` times (minimum 1); the fastest run is
/// reported. The simulation itself is deterministic, so metrics are taken
/// from the first run.
pub fn measure_throughput(
    schemes: &[SchemeKind],
    base: &ExperimentConfig,
    traces: &[Trace],
    repeats: usize,
) -> Result<ThroughputReport, SimError> {
    let repeats = repeats.max(1);
    let threads = rayon::current_num_threads();
    let mut points = Vec::with_capacity(schemes.len());
    for &scheme in schemes {
        let cfg = base.at(scheme, base.cache_frac);
        // Surface every error the per-repeat closures could hit *before*
        // the (possibly parallel) region, so they are infallible inside.
        cfg.validate()?;
        if traces.len() != cfg.num_proxies {
            return Err(SimError::TraceCountMismatch {
                traces: traces.len(),
                proxies: cfg.num_proxies,
            });
        }
        // One repeat: build a pristine engine (untimed — the serve path
        // is what is being measured), then time the run alone.
        let one_repeat = |_r: usize| -> (f64, RunMetrics) {
            let mut engine = build_engine(&cfg, traces).expect("validated above");
            // The clock is built outside the timed region: it is identical
            // setup work for every scheme, and the serve path is what is
            // being measured.
            let mut clock = SimClock::new(cfg.clock);
            let start = Instant::now();
            let m = Engine::new(engine.as_mut(), traces, &cfg.net).run(&mut clock, &NoopRecorder);
            (start.elapsed().as_secs_f64(), m)
        };
        let batch_start = Instant::now();
        let runs: Vec<(f64, RunMetrics)> = if threads > 1 && repeats > 1 {
            (0..repeats).collect::<Vec<_>>().into_par_iter().map(one_repeat).collect()
        } else {
            (0..repeats).map(one_repeat).collect()
        };
        let batch_secs = batch_start.elapsed().as_secs_f64();
        let best = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        // The simulation is deterministic: every repeat produced the same
        // metrics, so take the first.
        let m = runs.into_iter().next().expect("repeats >= 1").1;
        let total = m.requests as f64 * repeats as f64;
        points.push(ThroughputPoint {
            scheme,
            requests: m.requests,
            elapsed_secs: best,
            requests_per_sec: if best > 0.0 { m.requests as f64 / best } else { f64::INFINITY },
            batch_secs,
            requests_per_sec_per_core: if batch_secs > 0.0 {
                total / batch_secs / threads as f64
            } else {
                f64::INFINITY
            },
            avg_latency: m.avg_latency(),
            hit_ratio: m.hit_ratio(),
        });
    }
    Ok(ThroughputReport {
        base: *base,
        trace_requests: traces.first().map_or(0, |t| t.len()),
        num_traces: traces.len(),
        repeats,
        threads,
        points,
    })
}

impl ThroughputReport {
    /// Renders the report as the `BENCH_throughput.json` document.
    ///
    /// Hand-rolled JSON: the offline build environment has no JSON crate,
    /// and the format is small and fixed.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        writeln!(
            s,
            "  \"config\": {{\"num_proxies\": {}, \"cache_frac\": {}, \
             \"clients_per_cluster\": {}, \"per_client_frac\": {}, \
             \"trace_requests\": {}, \"num_traces\": {}, \"repeats\": {}, \
             \"threads\": {}}},",
            self.base.num_proxies,
            self.base.cache_frac,
            self.base.clients_per_cluster,
            self.base.per_client_frac,
            self.trace_requests,
            self.num_traces,
            self.repeats,
            self.threads
        )
        .unwrap();
        s.push_str("  \"schemes\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            writeln!(
                s,
                "    {{\"scheme\": \"{}\", \"requests\": {}, \"elapsed_secs\": {:.6}, \
                 \"requests_per_sec\": {:.0}, \"batch_secs\": {:.6}, \
                 \"requests_per_sec_per_core\": {:.0}, \
                 \"avg_latency\": {:.4}, \"hit_ratio\": {:.4}}}{}",
                p.scheme.label(),
                p.requests,
                p.elapsed_secs,
                p.requests_per_sec,
                p.batch_secs,
                p.requests_per_sec_per_core,
                p.avg_latency,
                p.hit_ratio,
                if i + 1 == self.points.len() { "" } else { "," }
            )
            .unwrap();
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders an aligned text table for terminals.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>14} {:>14} {:>12} {:>10}",
            "scheme", "requests", "elapsed(s)", "req/s", "req/s/core", "avg-latency", "hit-ratio"
        )
        .unwrap();
        for p in &self.points {
            writeln!(
                s,
                "{:<8} {:>12} {:>12.4} {:>14.0} {:>14.0} {:>12.4} {:>10.4}",
                p.scheme.label(),
                p.requests,
                p.elapsed_secs,
                p.requests_per_sec,
                p.requests_per_sec_per_core,
                p.avg_latency,
                p.hit_ratio
            )
            .unwrap();
        }
        writeln!(
            s,
            "({} thread{} in pool)",
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )
        .unwrap();
        s
    }

    /// The point for `scheme`, if measured.
    pub fn point(&self, scheme: SchemeKind) -> Option<&ThroughputPoint> {
        self.points.iter().find(|p| p.scheme == scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_workload::{ProWGen, ProWGenConfig};

    fn tiny_traces() -> Vec<Trace> {
        (0..2)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests: 2_000,
                    distinct_objects: 200,
                    num_clients: 10,
                    seed: 9 + p,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    #[test]
    fn measures_all_requested_schemes() {
        let ts = tiny_traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 10;
        let report =
            measure_throughput(&[SchemeKind::Nc, SchemeKind::HierGd], &base, &ts, 1).unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(report.threads >= 1);
        for p in &report.points {
            assert_eq!(p.requests, 4_000);
            assert!(p.requests_per_sec > 0.0);
            assert!(p.requests_per_sec_per_core > 0.0);
            assert!(p.elapsed_secs >= 0.0);
            assert!(p.batch_secs >= p.elapsed_secs);
            assert!((0.0..=1.0).contains(&p.hit_ratio));
        }
        assert!(report.point(SchemeKind::HierGd).is_some());
        assert!(report.point(SchemeKind::Fc).is_none());
    }

    #[test]
    fn json_and_table_render() {
        let ts = tiny_traces();
        let mut base = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        base.clients_per_cluster = 10;
        let report = measure_throughput(&[SchemeKind::Nc], &base, &ts, 2).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"schemes\": ["));
        assert!(json.contains("\"scheme\": \"NC\""));
        assert!(json.contains("\"requests_per_sec\""));
        assert!(json.contains("\"requests_per_sec_per_core\""));
        assert!(json.contains("\"threads\""));
        assert!(json.ends_with("}\n"));
        let table = report.to_table();
        assert!(table.contains("req/s"));
        assert!(table.contains("NC"));
    }
}
