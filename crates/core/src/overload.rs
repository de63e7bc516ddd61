//! Overload sweep harness: flash-crowd intensity × defense config.
//!
//! A flash crowd compresses the arrival schedule (see
//! [`FaultAction::Spike`]); under the event clock the proxy's backlog
//! then grows faster than it drains, latency climbs without bound, and
//! — the metastable failure mode — the backlog can outlive the spike
//! itself. The overload defenses bound that regime: per-destination
//! circuit breakers and retry budgets stop timeout-priced retry storms
//! at the transport, and watermark load shedding degrades background
//! work to the origin until the backlog drains (see
//! [`FaultPlan::overload_defense`] and the plan's `shed=HI:LO`
//! watermarks, which the fault driver's loop in `fault/driver.rs` applies).
//!
//! [`run_overload`] drives one fault-free baseline plus two runs per
//! swept intensity — defenses off ("naive") and defenses on — over the
//! same trace and the same spike, so each pair differs **only** in the
//! defense. The [`ScenarioReport`] carries goodput, mean and p99
//! latency, shed/degrade fractions and the recovery time back to 95% of
//! baseline goodput after the spike ends, plus a per-intensity
//! `resilience` row comparing the naive and defended runs ([`gate`],
//! the committed figure's threshold, wants the defended run to recover
//! and the naive run to be ≥ 2× worse on recovery time or goodput).
//! Everything is seeded and renders to bit-stable JSON/CSV (the overload
//! golden test pins both clock modes).
//!
//! **Goodput** here is latency-discounted useful service: a window of
//! `OVERLOAD_WINDOW` (512) requests contributes its non-degraded requests
//! scaled by `min(1, baseline_mean / window_mean)` — service at
//! baseline speed counts in full, service at 4× baseline latency counts
//! a quarter. Degraded-to-origin requests never count: they were shed.

use crate::clock::ClockMode;
use crate::error::SimError;
use crate::fault::{ChurnConfig, DriveOutcome, FaultAction, FaultPlan, OVERLOAD_WINDOW};
use crate::net::NetworkModel;
use crate::scenario::Field::{B, F, S, U};
use crate::scenario::{axis, Row, ScenarioReport, Twin};
use std::fmt::Write as _;
use webcache_primitives::seed::derive;

/// Configuration of one overload sweep.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Topology, workload, latency model and clock mode for every cell.
    /// The `plan` field is overwritten per cell and may be left at its
    /// default.
    pub base: ChurnConfig,
    /// Flash-crowd intensities to sweep (arrival-rate multipliers, each
    /// ≥ 2).
    pub intensities: Vec<u16>,
    /// Request index where every cell's spike starts.
    pub spike_at: u64,
    /// Spike length in requests.
    pub spike_span: u32,
    /// Defended cells: breaker trip threshold (consecutive
    /// timeout-priced failures).
    pub breaker: u32,
    /// Defended cells: retry budget as a fraction of successful traffic,
    /// in (0, 1].
    pub budget: f64,
    /// Defended cells: shedding engages at this backlog (rounds).
    pub shed_high: u64,
    /// Defended cells: shedding disengages at this backlog (rounds).
    pub shed_low: u64,
    /// Master seed for the sweep's fault plans (label-separated from the
    /// trace seed and every other stream).
    pub seed: u64,
}

impl Default for OverloadConfig {
    /// The committed-figure sweep: 4×/8×/16× flash crowds over a
    /// quarter of the trace, naive vs the full defense stack, under the
    /// event clock (the analytic clock has no queue to overload — the
    /// golden test still pins its bytes). The latency model is the
    /// paper's scaled down 16× (see [`NetworkModel::scaled`]): ratios
    /// are preserved, but the proxy gains the service headroom that
    /// makes "overload" a spike-induced state rather than the baseline.
    fn default() -> Self {
        OverloadConfig {
            base: ChurnConfig {
                clock: ClockMode::Event,
                net: NetworkModel::default().scaled(1.0 / 16.0),
                ..ChurnConfig::default()
            },
            intensities: vec![4, 8, 16],
            spike_at: 10_000,
            spike_span: 8_000,
            breaker: 3,
            budget: 0.1,
            shed_high: 32,
            shed_low: 8,
            seed: 0x0F1A_5A11,
        }
    }
}

impl OverloadConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        if self.intensities.is_empty() {
            return Err(SimError::InvalidConfig("intensities must be non-empty".into()));
        }
        for t in &self.intensities {
            if *t < 2 {
                return Err(SimError::InvalidConfig(format!(
                    "spike intensity must be at least 2x, got {t}"
                )));
            }
        }
        if self.spike_span == 0 {
            return Err(SimError::InvalidConfig("spike_span must be positive".into()));
        }
        let spike_end = self.spike_at + u64::from(self.spike_span);
        if spike_end >= self.base.requests as u64 {
            return Err(SimError::InvalidConfig(format!(
                "the spike must end before the trace does (spike ends at {spike_end}, \
                 trace has {} requests) — recovery needs a post-spike tail",
                self.base.requests
            )));
        }
        if self.breaker == 0 && self.budget <= 0.0 && self.shed_high == 0 {
            return Err(SimError::InvalidConfig(
                "defended cells need at least one defense knob (breaker, budget or shed)".into(),
            ));
        }
        if self.budget < 0.0 || self.budget > 1.0 {
            return Err(SimError::InvalidConfig(format!(
                "budget ratio must be in [0, 1], got {}",
                self.budget
            )));
        }
        if self.shed_high > 0 && self.shed_low >= self.shed_high {
            return Err(SimError::InvalidConfig(
                "shed low watermark must sit below the high watermark".into(),
            ));
        }
        Ok(())
    }

    /// The fault plan for one cell. Naive and defended plans share the
    /// identical spike; only the defense knobs differ.
    fn plan_for(&self, times: u16, defended: bool) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.seed = derive(self.seed, "overload-sweep");
        plan.push(self.spike_at, FaultAction::Spike { span: self.spike_span, times });
        if defended {
            plan.breaker = self.breaker;
            plan.budget = self.budget;
            plan.shed_high = self.shed_high;
            plan.shed_low = self.shed_low;
        }
        plan
    }
}

/// Pooled mean window latency in milli-units (0 when empty).
fn pooled_mean_milli(out: &DriveOutcome) -> f64 {
    let reqs: u64 = out.windows.iter().map(|w| w.requests).sum();
    if reqs == 0 {
        return 0.0;
    }
    let lat: u64 = out.windows.iter().map(|w| w.latency_milli_sum).sum();
    lat as f64 / reqs as f64
}

/// 99th-percentile end-to-end latency in milli-units.
fn p99_milli(out: &DriveOutcome) -> u64 {
    out.measured_milli.snapshot().quantile(0.99)
}

/// Latency-discounted goodput in percent of `issued` (module docs).
fn goodput_percent(out: &DriveOutcome, issued: u64, base_mean: f64) -> f64 {
    if issued == 0 {
        return 0.0;
    }
    let mut good = 0.0f64;
    for w in &out.windows {
        if w.requests == 0 {
            continue;
        }
        let mean = w.latency_milli_sum as f64 / w.requests as f64;
        let speed = if mean <= base_mean || mean <= 0.0 { 1.0 } else { base_mean / mean };
        good += (w.requests - w.degraded) as f64 * speed;
    }
    good / issued as f64 * 100.0
}

/// First post-spike window back at ≥ 95% of baseline goodput: returns
/// `(recovered, requests from spike end to that window's close)`,
/// censored at the trace end when no window qualifies.
fn recovery(
    out: &DriveOutcome,
    spike_end: u64,
    issued: u64,
    base_mean: f64,
    base_good_frac: f64,
) -> (bool, u64) {
    let win = OVERLOAD_WINDOW as u64;
    let target = 0.95 * base_good_frac;
    for (k, w) in out.windows.iter().enumerate() {
        let start = k as u64 * win;
        if start < spike_end || w.requests == 0 {
            continue;
        }
        let mean = w.latency_milli_sum as f64 / w.requests as f64;
        let speed = if mean <= base_mean || mean <= 0.0 { 1.0 } else { base_mean / mean };
        let good = (w.requests - w.degraded) as f64 * speed / w.requests as f64;
        if good >= target {
            return (true, (start + w.requests).saturating_sub(spike_end));
        }
    }
    (false, issued.saturating_sub(spike_end))
}

/// Runs the sweep: one fault-free baseline, then a naive and a defended
/// drive per intensity (naive row first), all over the same trace. The
/// summary (`resilience`) carries one row per intensity.
pub fn run_overload(cfg: &OverloadConfig) -> Result<ScenarioReport, SimError> {
    cfg.validate()?;
    let twin = Twin::new(&cfg.base)?;
    let issued = cfg.base.requests as u64;
    let spike_end = cfg.spike_at + u64::from(cfg.spike_span);
    let base_mean = pooled_mean_milli(&twin.baseline);
    let base_good = goodput_percent(&twin.baseline, issued, base_mean);

    let mut cells = Vec::new();
    let mut summary = Vec::new();
    for times in axis(&cfg.intensities) {
        for defended in [false, true] {
            let (out, _) = twin.drive(&cfg.base, &cfg.plan_for(times, defended))?;
            let (recovered, recovery_requests) =
                recovery(&out, spike_end, issued, base_mean, base_good / 100.0);
            cells.push(Row(vec![
                ("intensity", U(u64::from(times))),
                ("defended", B(defended)),
                ("goodput_percent", F(goodput_percent(&out, issued, base_mean))),
                // Queueing included under the event clock.
                ("avg_latency_milli", U(out.avg_latency_milli())),
                ("p99_latency_milli", U(p99_milli(&out))),
                // Background work skipped / requests sent straight to origin.
                ("shed_percent", F(out.shed_background as f64 / issued as f64 * 100.0)),
                ("degraded_percent", F(out.degraded as f64 / issued as f64 * 100.0)),
                ("breaker_fast_fails", U(out.snapshot.breaker_fast_fails)),
                ("retry_budget_denials", U(out.snapshot.retry_budget_denials)),
                ("end_shedding", B(out.end_shedding)),
                // Requests from spike end until a window got back to 95% of
                // baseline goodput (censored at the trace end when none did).
                ("recovered", B(recovered)),
                ("recovery_requests", U(recovery_requests)),
            ]));
        }
        let (naive, defended) = (&cells[cells.len() - 2], &cells[cells.len() - 1]);
        let (naive_good, defended_good) =
            (naive.f("goodput_percent"), defended.f("goodput_percent"));
        let (naive_rec, defended_rec) =
            (naive.u("recovery_requests"), defended.u("recovery_requests"));
        // How much worse the naive run is: the larger of the recovery-time
        // ratio and the goodput-deficit ratio (denominators clamped so the
        // ratio stays finite).
        let recovery_ratio = naive_rec as f64 / defended_rec.max(1) as f64;
        let deficit_ratio =
            (base_good - naive_good).max(0.0) / (base_good - defended_good).max(0.01);
        summary.push(Row(vec![
            ("intensity", U(u64::from(times))),
            ("naive_goodput_percent", F(naive_good)),
            ("defended_goodput_percent", F(defended_good)),
            ("naive_recovery_requests", U(naive_rec)),
            ("defended_recovery_requests", U(defended_rec)),
            ("defended_recovered", B(defended.b("recovered"))),
            ("factor", F(recovery_ratio.max(deficit_ratio))),
        ]));
    }

    Ok(ScenarioReport {
        header: Row(vec![
            ("requests", U(issued)),
            ("cluster", U(cfg.base.clients_per_cluster as u64)),
            ("clock", S(cfg.base.clock.label())),
            ("seed", U(cfg.seed)),
            ("spike_at", U(cfg.spike_at)),
            ("spike_span", U(u64::from(cfg.spike_span))),
            ("breaker", U(u64::from(cfg.breaker))),
            ("budget", F(cfg.budget)),
            ("shed_high", U(cfg.shed_high)),
            ("shed_low", U(cfg.shed_low)),
            ("baseline_goodput_percent", F(base_good)),
            ("baseline_avg_latency_milli", U(twin.baseline.avg_latency_milli())),
            ("baseline_p99_latency_milli", U(p99_milli(&twin.baseline))),
        ]),
        cells,
        summary_key: "resilience",
        summary,
        csv_omit: &["end_shedding"],
    })
}

/// The committed-figure gate: every defended run must recover to 95% of
/// baseline goodput and every naive run must be at least 2x worse.
pub fn gate(report: &ScenarioReport) -> Result<(), String> {
    if report.summary.is_empty() {
        return Err("no resilience rows".into());
    }
    for r in &report.summary {
        if !r.b("defended_recovered") || r.f("factor") < 2.0 {
            return Err(format!(
                "at {}x: defended recovered = {}, naive only {:.4}x worse (want recovery and 2x)",
                r.u("intensity"),
                r.b("defended_recovered"),
                r.f("factor")
            ));
        }
    }
    Ok(())
}

/// Renders an aligned text summary for terminals.
pub fn table(report: &ScenarioReport) -> String {
    let h = &report.header;
    let units = |row: &Row, name: &str| row.u(name) as f64 / 1000.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "overload sweep: {} requests, {} client machines, spike at {} for {} requests\n",
        h.u("requests"),
        h.u("cluster"),
        h.u("spike_at"),
        h.u("spike_span")
    );
    let _ = writeln!(
        s,
        "baseline: goodput {:.2}%, avg latency {:.3}, p99 {:.3}",
        h.f("baseline_goodput_percent"),
        units(h, "baseline_avg_latency_milli"),
        units(h, "baseline_p99_latency_milli")
    );
    let _ = writeln!(
        s,
        "{:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9}",
        "spike", "defense", "goodput%", "latency", "p99", "shed%", "orig%", "recovery"
    );
    for c in &report.cells {
        let censored = if c.b("recovered") { "" } else { ">" };
        let _ = writeln!(
            s,
            "{:>8}x {:>9} {:>9.2} {:>9.3} {:>9.3} {:>7.2} {:>7.2} {:>9}",
            c.u("intensity"),
            if c.b("defended") { "on" } else { "off" },
            c.f("goodput_percent"),
            units(c, "avg_latency_milli"),
            units(c, "p99_latency_milli"),
            c.f("shed_percent"),
            c.f("degraded_percent"),
            format!("{censored}{}", c.u("recovery_requests")),
        );
    }
    for r in &report.summary {
        let _ = writeln!(
            s,
            "resilience at {:>2}x: naive {:.2}% vs defended {:.2}% goodput, \
             recovery {} vs {} requests ({:.1}x)",
            r.u("intensity"),
            r.f("naive_goodput_percent"),
            r.f("defended_goodput_percent"),
            r.u("naive_recovery_requests"),
            r.u("defended_recovery_requests"),
            r.f("factor"),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> OverloadConfig {
        OverloadConfig {
            base: ChurnConfig {
                requests: 8_000,
                distinct_objects: 400,
                trace_clients: 20,
                clients_per_cluster: 20,
                client_cache_capacity: 2,
                clock: ClockMode::Event,
                net: NetworkModel::default().scaled(1.0 / 16.0),
                ..ChurnConfig::default()
            },
            intensities: vec![8],
            spike_at: 1_000,
            spike_span: 3_000,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_shaped() {
        let cfg = quick_cfg();
        let a = run_overload(&cfg).expect("sweep runs");
        let b = run_overload(&cfg).expect("sweep runs");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.cells.len(), 2, "one intensity, naive + defended");
        assert_eq!(a.summary.len(), 1);
        assert!(!a.cells[0].b("defended") && a.cells[1].b("defended"), "naive row first");
    }

    #[test]
    fn defense_bounds_the_flash_crowd() {
        let report = run_overload(&quick_cfg()).expect("sweep runs");
        let naive = &report.cells[0];
        let defended = &report.cells[1];
        // Nothing sheds or degrades with the defenses off.
        assert_eq!(naive.f("shed_percent"), 0.0);
        assert_eq!(naive.f("degraded_percent"), 0.0);
        assert_eq!(naive.u("breaker_fast_fails") + naive.u("retry_budget_denials"), 0);
        // The armed defense sheds under the spike and buys back goodput
        // and tail latency.
        assert!(defended.f("shed_percent") > 0.0, "the spike must engage shedding");
        assert!(
            defended.f("goodput_percent") > naive.f("goodput_percent"),
            "defended goodput {:.2}% must beat naive {:.2}%",
            defended.f("goodput_percent"),
            naive.f("goodput_percent")
        );
        assert!(
            defended.u("avg_latency_milli") < naive.u("avg_latency_milli"),
            "defended latency {} must undercut naive {}",
            defended.u("avg_latency_milli"),
            naive.u("avg_latency_milli")
        );
        assert!(defended.b("recovered"), "the defended run must return to baseline goodput");
        assert_eq!(gate(&report), Ok(()), "naive must be >= 2x worse");
    }

    #[test]
    fn compat_clock_has_no_queue_to_overload() {
        let mut cfg = quick_cfg();
        cfg.base.clock = ClockMode::Compat;
        let report = run_overload(&cfg).expect("sweep runs");
        for c in &report.cells {
            assert_eq!(c.f("shed_percent"), 0.0, "no backlog, no shedding");
            assert!(c.b("recovered"), "analytic latencies never leave baseline");
        }
    }

    #[test]
    fn renders_json_csv_and_table() {
        let report = run_overload(&quick_cfg()).expect("sweep runs");
        let json = report.to_json();
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"resilience\": ["));
        assert!(json.contains("\"baseline_goodput_percent\""));
        let csv = report.to_csv();
        assert!(csv.starts_with("intensity,defended,"));
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        assert!(table(&report).contains("resilience at"));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.intensities = vec![];
        assert!(run_overload(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.intensities = vec![1];
        assert!(run_overload(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.spike_span = 0;
        assert!(run_overload(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.spike_at = 7_999;
        assert!(run_overload(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.breaker = 0;
        cfg.budget = 0.0;
        cfg.shed_high = 0;
        assert!(run_overload(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.shed_low = cfg.shed_high;
        assert!(run_overload(&cfg).is_err());
    }
}
