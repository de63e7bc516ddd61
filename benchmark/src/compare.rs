//! `compare A.json B.json`: judge the runs in B against the runs in A.
//!
//! Both files come from `run --out`. Each (workload, metric) pair gets
//! one row with both medians, the change relative to A's median, and a
//! verdict. The tool serves the repeatability check (two sets of runs of
//! one commit must agree within the bounds) and parent-versus-change runs.

use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::stats::{median, quartile_spread};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B beats every run of A, by more than the bound.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so neither "unchanged" nor
    /// "worse" can be told from noise.
    Unresolved,
    /// A per-layer metric: it explains, it is not judged.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// B's gain over A as a share of A's median: positive is better.
fn gain(better: Better, base: f64, new: f64) -> f64 {
    let diff = match better {
        Better::Lower => base - new,
        Better::Higher => new - base,
    };
    if diff == 0.0 {
        0.0
    } else {
        diff / base.abs()
    }
}

/// Verdict and gain for one metric, from the runs of each side.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let change = gain(metric.better, median(a), median(b));
    let Some(bound) = metric.bound else {
        return (Verdict::Unbounded, change);
    };
    // Does every run of `x` beat every run of `y`?
    let dominates = |x: &[f64], y: &[f64]| {
        x.iter().all(|&xv| y.iter().all(|&yv| gain(metric.better, yv, xv) > 0.0))
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if change < -bound {
        if spread > bound && !dominates(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if change > bound && dominates(b, a) {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (verdict, change)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    let values: Vec<f64> = runs.items().iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "change", "bound"
    );
    let (mut worse, mut missing) = (0, 0);
    for (workload, _) in spec::WORKLOADS {
        for metric in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let (Some(va), Some(vb)) =
                (values(&a, workload, metric.name), values(&b, workload, metric.name))
            else {
                // Per-layer metrics are absent from runs made without
                // --traced; an end-to-end metric must be in both files.
                if metric.bound.is_some() {
                    println!("{workload:<20} {:<34} missing from one of the files", metric.name);
                    missing += 1;
                }
                continue;
            };
            let (verdict, change) = judge(metric, &va, &vb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<20} {:<34} {:>14.6} {:>14.6} {:>+8.2}% {:>6}  {} ({} is better; {}+{} runs)",
                metric.name,
                median(&va),
                median(&vb),
                100.0 * change,
                metric.bound.map_or("-".to_string(), |b| format!("{}%", 100.0 * b)),
                verdict.label(),
                metric.better.label(),
                va.len(),
                vb.len(),
            );
        }
    }
    println!("change = B's gain over A as a share of A's median; positive is better");
    if worse + missing > 0 {
        eprintln!("error: {worse} metric(s) worse than their bound allows, {missing} missing");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: Metric =
        Metric { name: "rate", unit: "1/s", better: Better::Higher, bound: Some(0.08) };
    const COST: Metric =
        Metric { name: "cost", unit: "s", better: Better::Lower, bound: Some(0.05) };
    const LAYER: Metric = Metric { name: "layer", unit: "ns", better: Better::Lower, bound: None };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Higher is better: -5% is inside an 8% bound, -10% is not.
        assert_eq!(judge(&RATE, &[100.0], &[95.0]).0, Verdict::WithinBound);
        assert_eq!(judge(&RATE, &[100.0], &[90.0]).0, Verdict::Worse);
        assert_eq!(judge(&RATE, &[100.0], &[120.0]).0, Verdict::Better);
        // Lower is better: the same numbers flip.
        assert_eq!(judge(&COST, &[100.0], &[90.0]).0, Verdict::Better);
        assert_eq!(judge(&COST, &[100.0], &[104.0]).0, Verdict::WithinBound);
        let (verdict, change) = judge(&COST, &[100.0], &[110.0]);
        assert_eq!(verdict, Verdict::Worse);
        assert!((change + 0.10).abs() < 1e-12);
        assert_eq!(judge(&COST, &[100.0], &[100.0]), (Verdict::WithinBound, 0.0));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        // A spreads by far more than 8%; B's median is 15% lower but its
        // runs overlap A's, so "worse" cannot be told from noise.
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&RATE, &a, &[85.0, 85.0, 100.0, 70.0, 85.0]).0, Verdict::Unresolved);
        // Every run of B is below every run of A: worse despite the spread.
        assert_eq!(judge(&RATE, &a, &[60.0, 70.0, 75.0]).0, Verdict::Worse);
        // Same median, wide spread: not "unchanged" either.
        assert_eq!(judge(&RATE, &a, &[100.0, 130.0, 70.0, 100.0]).0, Verdict::Unresolved);
        // A gain only counts when every run of B beats every run of A.
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[120.0, 100.5, 121.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&RATE, &[100.0, 101.0, 99.0], &[120.0, 119.0, 121.0]).0, Verdict::Better);
    }

    #[test]
    fn per_layer_metrics_are_reported_not_judged() {
        assert_eq!(judge(&LAYER, &[10.0], &[100.0]).0, Verdict::Unbounded);
    }
}
