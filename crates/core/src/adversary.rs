//! Adversary sweep harness: attacker fraction × audit rate.
//!
//! The lookup directory of §4.2 is built from **store receipts** — a
//! client machine's word that it now holds an object. The paper trusts
//! that word. This harness measures what the federation loses when a
//! fraction of machines stops being trustworthy (receipt forgers that
//! poison the directory with entries for objects they never held) and
//! how much of that loss the spot-check audit defense buys back: the
//! proxy challenges a seeded fraction of receipt senders to echo the
//! object checksum, strikes those that cannot, and quarantines repeat
//! offenders (see [`FaultAction::Forge`] and `ChurnConfig::audit_rate`).
//!
//! [`run_adversary`] drives one fault-free baseline plus one run per
//! (attacker fraction, audit rate) cell — same trace, same topology,
//! same attack schedule per fraction, so defended and undefended cells
//! differ **only** in the defense. The [`ScenarioReport`] carries hit
//! ratio, availability, mean latency and diversion rate per cell, each
//! cell's degradation against the baseline, and a per-fraction defense
//! factor (undefended ÷ defended hit-ratio degradation). Everything is
//! seeded and renders to bit-stable JSON/CSV (the adversary golden test
//! pins both clock modes; [`gate`] is the committed figure's threshold).

use crate::error::SimError;
use crate::fault::{ChurnConfig, DriveOutcome, FaultAction, FaultPlan};
use crate::net::HitClass;
use crate::scenario::Field::{F, S, U};
use crate::scenario::{axis, Row, ScenarioReport, Twin};
use std::fmt::Write as _;
use webcache_primitives::seed::derive;

/// Configuration of one adversary sweep.
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Topology, workload, latency model and clock mode for every cell.
    /// The `plan`, `audit_rate` and `audit_strikes` fields are
    /// overwritten per cell and may be left at their defaults.
    pub base: ChurnConfig,
    /// Attacker fractions to sweep (fraction of the cluster turned into
    /// receipt forgers; 0 entries are folded into the baseline row).
    pub attacker_fracs: Vec<f64>,
    /// Audit rates to sweep (0 = undefended).
    pub audit_rates: Vec<f64>,
    /// Per-opportunity forge probability of each attacker, in (0, 1].
    pub forge_rate: f64,
    /// Failed audits before a node is quarantined.
    pub strikes: u32,
    /// Master seed for the attack schedule (label-separated from the
    /// trace seed and every other stream).
    pub seed: u64,
}

impl Default for AdversaryConfig {
    /// The committed-figure sweep: 5%/10%/20% forgers, undefended vs a
    /// 25% spot-check rate, in the paper's small-proxy regime (§5.2 —
    /// the federated client tier carries most of the hits, so its
    /// integrity is what the attack threatens).
    fn default() -> Self {
        AdversaryConfig {
            base: ChurnConfig {
                proxy_capacity: 20,
                client_cache_capacity: 8,
                ..ChurnConfig::default()
            },
            attacker_fracs: vec![0.05, 0.10, 0.20],
            audit_rates: vec![0.0, 0.25],
            forge_rate: 0.25,
            strikes: 3,
            seed: 0x00AD_5E11,
        }
    }
}

impl AdversaryConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        if !self.attacker_fracs.iter().any(|f| *f > 0.0) {
            return Err(SimError::InvalidConfig(
                "attacker_fracs needs at least one fraction above 0 (0 is the baseline)".into(),
            ));
        }
        for f in &self.attacker_fracs {
            if !(0.0..1.0).contains(f) {
                return Err(SimError::InvalidConfig(format!(
                    "attacker fraction must be in [0, 1), got {f}"
                )));
            }
        }
        if self.audit_rates.is_empty() {
            return Err(SimError::InvalidConfig("audit_rates must be non-empty".into()));
        }
        for r in &self.audit_rates {
            if !(0.0..=1.0).contains(r) {
                return Err(SimError::InvalidConfig(format!(
                    "audit rate must be in [0, 1], got {r}"
                )));
            }
        }
        if !(self.forge_rate > 0.0 && self.forge_rate <= 1.0) {
            return Err(SimError::InvalidConfig(format!(
                "forge_rate must be in (0, 1], got {}",
                self.forge_rate
            )));
        }
        if self.strikes == 0 {
            return Err(SimError::InvalidConfig("strikes must be >= 1".into()));
        }
        Ok(())
    }

    /// The attack schedule for one fraction: `round(frac × cluster)`
    /// forge events spread through the first quarter of the trace, so
    /// the directory poison accumulates while most requests are still
    /// to come. The plan depends only on the fraction — every audit
    /// rate faces the identical attack.
    fn plan_for(&self, frac: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.seed = derive(self.seed, "adversary-sweep");
        let cluster = self.base.clients_per_cluster;
        let n = ((frac * cluster as f64).round() as usize).min(cluster.saturating_sub(1));
        let span = (self.base.requests as u64 / 4).max(1);
        let pm = ((self.forge_rate * 1000.0).round() as u16).max(1);
        for i in 0..n {
            let at = (i as u64 + 1) * span / (n as u64 + 1);
            plan.push(at, FaultAction::Forge(pm));
        }
        plan
    }
}

fn hit_ratio_percent(out: &DriveOutcome) -> f64 {
    if out.metrics.requests == 0 {
        return 0.0;
    }
    let misses = out.metrics.count(HitClass::Server);
    (out.metrics.requests - misses) as f64 / out.metrics.requests as f64 * 100.0
}

fn diverted_percent(out: &DriveOutcome) -> f64 {
    if out.snapshot.destages == 0 {
        return 0.0;
    }
    out.snapshot.diverted_destages as f64 / out.snapshot.destages as f64 * 100.0
}

/// Runs the sweep: one fault-free baseline, then one drive per cell
/// (fractions outer, rates inner). The summary (`defense`) carries one
/// row per fraction when both an undefended and a defended cell ran.
pub fn run_adversary(cfg: &AdversaryConfig) -> Result<ScenarioReport, SimError> {
    cfg.validate()?;
    // The baseline is adversary-free, so the audit knobs are irrelevant
    // to it (audits only ever chase receipts in adversarial runs): one
    // drive serves as the yardstick for every cell.
    let twin = Twin::new(&cfg.base)?;
    let base_hit = hit_ratio_percent(&twin.baseline);
    let base_latency = twin.baseline.avg_latency_milli();
    let base_diverted = diverted_percent(&twin.baseline);
    let issued = cfg.base.requests as u64;

    let rates = axis(&cfg.audit_rates);
    let mut cells = Vec::new();
    let mut summary = Vec::new();
    for frac in axis(&cfg.attacker_fracs).into_iter().filter(|f| *f > 0.0) {
        let plan = cfg.plan_for(frac);
        for &rate in &rates {
            let churn =
                ChurnConfig { audit_rate: rate, audit_strikes: cfg.strikes, ..cfg.base.clone() };
            let (out, _) = twin.drive(&churn, &plan)?;
            let hit = hit_ratio_percent(&out);
            let latency = out.avg_latency_milli();
            let diverted = diverted_percent(&out);
            let latency_delta = if base_latency == 0 {
                0.0
            } else {
                (latency as f64 / base_latency as f64 - 1.0) * 100.0
            };
            cells.push(Row(vec![
                ("attacker_frac", F(frac)),
                ("audit_rate", F(rate)),
                // Machines actually converted (live targets existed).
                ("attackers", U(out.forges)),
                ("hit_ratio_percent", F(hit)),
                ("availability_percent", F(out.metrics.requests as f64 / issued as f64 * 100.0)),
                ("avg_latency_milli", U(latency)),
                // Forger quarantines shrink the usable leaf sets.
                ("diverted_destage_percent", F(diverted)),
                // Directory poison lands here: routed lookups whose object was gone.
                ("stale_lookups", U(out.snapshot.stale_lookups)),
                ("audits_challenged", U(out.snapshot.audits_challenged)),
                ("audits_failed", U(out.snapshot.audits_failed)),
                ("forged_receipts", U(out.snapshot.forged_receipts)),
                ("quarantines", U(out.snapshot.quarantines)),
                ("hit_degradation_pts", F(base_hit - hit)),
                ("latency_delta_percent", F(latency_delta)),
                ("diversion_delta_pts", F(diverted - base_diverted)),
            ]));
        }
        // Undefended (rate 0, first on the sorted axis) vs the highest
        // swept audit rate (last).
        let (first, last) = (&cells[cells.len() - rates.len()], &cells[cells.len() - 1]);
        if first.f("audit_rate") == 0.0 && last.f("audit_rate") > 0.0 {
            let undefended = first.f("hit_degradation_pts");
            let defended = last.f("hit_degradation_pts");
            summary.push(Row(vec![
                ("attacker_frac", F(frac)),
                ("undefended_degradation_pts", F(undefended)),
                ("defended_degradation_pts", F(defended)),
                // Defended degradations below 0.01 points are clamped to
                // 0.01 so the ratio stays finite.
                ("factor", F(undefended.max(0.0) / defended.max(0.01))),
            ]));
        }
    }

    Ok(ScenarioReport {
        header: Row(vec![
            ("requests", U(issued)),
            ("cluster", U(cfg.base.clients_per_cluster as u64)),
            ("forge_rate", F(cfg.forge_rate)),
            ("strikes", U(u64::from(cfg.strikes))),
            ("clock", S(cfg.base.clock.label())),
            ("seed", U(cfg.seed)),
            ("baseline_hit_ratio_percent", F(base_hit)),
            ("baseline_avg_latency_milli", U(base_latency)),
        ]),
        cells,
        summary_key: "defense",
        summary,
        csv_omit: &[],
    })
}

/// The committed-figure gate: at 10% forgers the audit defense must cut
/// the hit-ratio degradation at least 2x.
pub fn gate(report: &ScenarioReport) -> Result<(), String> {
    let row = report
        .summary
        .iter()
        .find(|d| d.f("attacker_frac") == 0.1)
        .ok_or("no defense row at 10% forgers")?;
    if row.f("factor") < 2.0 {
        return Err(format!("defense factor {:.4} at 10% forgers is below 2x", row.f("factor")));
    }
    Ok(())
}

/// Renders an aligned text summary for terminals.
pub fn table(report: &ScenarioReport) -> String {
    let h = &report.header;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "adversary sweep: {} requests, {} client machines, forge rate {}, {} strikes\n",
        h.u("requests"),
        h.u("cluster"),
        h.f("forge_rate"),
        h.u("strikes")
    );
    let _ = writeln!(
        s,
        "baseline: hit ratio {:.2}%, avg latency {:.3}",
        h.f("baseline_hit_ratio_percent"),
        h.u("baseline_avg_latency_milli") as f64 / 1000.0
    );
    let _ = writeln!(
        s,
        "{:>9} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6}",
        "forgers", "audit", "hit%", "deg.pts", "latency", "audits", "caught", "quar"
    );
    for c in &report.cells {
        let _ = writeln!(
            s,
            "{:>8.0}% {:>6.2} {:>9.2} {:>9.2} {:>9.3} {:>7} {:>7} {:>6}",
            c.f("attacker_frac") * 100.0,
            c.f("audit_rate"),
            c.f("hit_ratio_percent"),
            c.f("hit_degradation_pts"),
            c.u("avg_latency_milli") as f64 / 1000.0,
            c.u("audits_challenged"),
            c.u("forged_receipts"),
            c.u("quarantines"),
        );
    }
    for d in &report.summary {
        let _ = writeln!(
            s,
            "defense at {:>2.0}% forgers: {:.2} pts undefended vs {:.2} defended ({:.1}x)",
            d.f("attacker_frac") * 100.0,
            d.f("undefended_degradation_pts"),
            d.f("defended_degradation_pts"),
            d.f("factor"),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AdversaryConfig {
        AdversaryConfig {
            base: ChurnConfig {
                requests: 6_000,
                distinct_objects: 400,
                trace_clients: 20,
                clients_per_cluster: 20,
                client_cache_capacity: 2,
                ..ChurnConfig::default()
            },
            attacker_fracs: vec![0.0, 0.2],
            audit_rates: vec![0.0, 1.0],
            forge_rate: 1.0,
            strikes: 2,
            seed: 99,
        }
    }

    #[test]
    fn sweep_is_deterministic_and_shaped() {
        let cfg = quick_cfg();
        let a = run_adversary(&cfg).expect("sweep runs");
        let b = run_adversary(&cfg).expect("sweep runs");
        assert_eq!(a.to_json(), b.to_json());
        // Zero fractions fold into the baseline: one fraction × two rates.
        assert_eq!(a.cells.len(), 2);
        assert_eq!(a.summary.len(), 1);
        for c in &a.cells {
            assert!((c.f("availability_percent") - 100.0).abs() < 1e-9, "cascade always serves");
        }
    }

    #[test]
    fn defense_audits_catch_forgers_and_undefended_runs_stay_blind() {
        let report = run_adversary(&quick_cfg()).expect("sweep runs");
        let undefended = &report.cells[0];
        let defended = &report.cells[1];
        assert_eq!(undefended.f("audit_rate"), 0.0);
        assert_eq!(undefended.u("audits_challenged"), 0);
        assert_eq!(undefended.u("quarantines"), 0);
        assert!(defended.u("audits_challenged") > 0, "audits must fire at rate 1");
        assert!(defended.u("forged_receipts") > 0, "a persistent forger must be caught");
        assert!(defended.u("quarantines") > 0, "a caught forger must be quarantined");
        assert!(
            defended.f("hit_degradation_pts") <= undefended.f("hit_degradation_pts"),
            "the defense must not make the attack better: {:.3} vs {:.3}",
            defended.f("hit_degradation_pts"),
            undefended.f("hit_degradation_pts")
        );
    }

    #[test]
    fn renders_json_csv_and_table() {
        let report = run_adversary(&quick_cfg()).expect("sweep runs");
        let json = report.to_json();
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"defense\": ["));
        assert!(json.contains("\"baseline_hit_ratio_percent\""));
        let csv = report.to_csv();
        assert!(csv.starts_with("attacker_frac,audit_rate,"));
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        assert!(table(&report).contains("defense at"));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.attacker_fracs = vec![];
        assert!(run_adversary(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.attacker_fracs = vec![0.0]; // the baseline alone is not a sweep
        assert!(run_adversary(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.attacker_fracs = vec![1.0];
        assert!(run_adversary(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.audit_rates = vec![1.5];
        assert!(run_adversary(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.forge_rate = 0.0;
        assert!(run_adversary(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.strikes = 0;
        assert!(run_adversary(&cfg).is_err());
    }
}
