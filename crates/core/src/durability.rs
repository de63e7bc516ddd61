//! Durability sweep harness: correlated burst size × replica `k` ×
//! placement × repair pace.
//!
//! A cluster of client caches does not fail one machine at a time: a
//! switch dies, a rack loses power, a building's uplink drops — and
//! every machine behind it goes down together. [`run_durability`]
//! models that with failure domains (see [`FaultPlan`]'s `domains=` key
//! and the `domainfail@N:D` verb): the cluster is carved into
//! `cluster / burst` seeded domains and one whole domain crashes at
//! `burst_at`, taking an expected `burst` machines at once.
//!
//! Per (burst, k) the sweep drives four cells over the **same trace and
//! the same failure schedule**, differing only in the defenses:
//!
//! * **blind + reactive** — replicas placed with no regard for domains,
//!   repair only on demand (the naive cell);
//! * **blind + proactive** — the paced background repair scheduler is
//!   armed, placement still blind;
//! * **spread + reactive** — replicas spread across distinct failure
//!   domains, repair on demand;
//! * **spread + proactive** — both defenses (the defended cell).
//!
//! Spread placement bounds the *blast radius*: a whole-domain failure
//! takes at most one copy of any object, so `k ≥ 2` survives it.
//! Proactive repair bounds the *vulnerability window*: the at-risk
//! gauge (objects below their replication floor) is driven back to
//! zero by the paced scanner instead of waiting for a fetch to trip
//! over each stale entry. The [`ScenarioReport`] carries objects
//! lost, the at-risk window area (gauge summed over rounds), the mean
//! time-to-repair, and a per-(burst, k) summary row comparing the
//! naive and defended cells — [`gate`], the committed figure's
//! threshold, wants the naive cell to lose ≥ 10× more objects at its
//! worst burst and the defended cell to lose none. A fault-free baseline run
//! anchors the latency reference and demonstrates conservation
//! (nothing is ever lost without a fault). Everything is seeded and
//! renders to bit-stable JSON/CSV (the durability golden test pins
//! both clock modes).

use crate::clock::ClockMode;
use crate::error::SimError;
use crate::fault::{ChurnConfig, FaultAction, FaultPlan};
use crate::net::NetworkModel;
use crate::scenario::Field::{B, F, S, U};
use crate::scenario::{axis, Row, ScenarioReport, Twin};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use webcache_primitives::seed::derive;

/// Configuration of one durability sweep.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Topology, workload, latency model and clock mode for every cell.
    /// The `plan`, `replication` and `blind_placement` fields are
    /// overwritten per cell and may be left at their defaults.
    pub base: ChurnConfig,
    /// Correlated burst sizes to sweep: each is the expected number of
    /// machines that die together (the cluster is carved into
    /// `cluster / burst` failure domains and one whole domain fails).
    pub bursts: Vec<u32>,
    /// Replication factors `k` to sweep (each ≥ 2 — with a single copy
    /// there is nothing for placement or repair to defend).
    pub ks: Vec<usize>,
    /// Request index where the domain fails in every cell.
    pub burst_at: u64,
    /// Proactive cells: directory entries the background repair
    /// scheduler may scan per round (priced as real work under the
    /// event clock).
    pub repair: u32,
    /// Master seed for the sweep's fault plans (label-separated from
    /// the trace seed and every other stream).
    pub seed: u64,
}

impl Default for DurabilityConfig {
    /// The committed-figure sweep: bursts of 4, 8 and 16 machines out
    /// of a 64-machine cluster at `k = 2` and `k = 3`, under the event
    /// clock with the latency model scaled down 16× (see
    /// [`NetworkModel::scaled`]) so repair pacing is priced against a
    /// proxy with service headroom.
    fn default() -> Self {
        DurabilityConfig {
            base: ChurnConfig {
                clock: ClockMode::Event,
                net: NetworkModel::default().scaled(1.0 / 16.0),
                ..ChurnConfig::default()
            },
            bursts: vec![4, 8, 16],
            ks: vec![2, 3],
            burst_at: 10_000,
            repair: 8,
            seed: 0xD07A_B111,
        }
    }
}

impl DurabilityConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        if self.bursts.is_empty() {
            return Err(SimError::InvalidConfig("bursts must be non-empty".into()));
        }
        let cluster = self.base.clients_per_cluster as u32;
        for b in &self.bursts {
            if *b < 2 {
                return Err(SimError::InvalidConfig(format!(
                    "a correlated burst must take at least 2 machines, got {b}"
                )));
            }
            if *b > cluster / 2 {
                return Err(SimError::InvalidConfig(format!(
                    "burst {b} needs at least two failure domains in a \
                     {cluster}-machine cluster (max {})",
                    cluster / 2
                )));
            }
        }
        if self.ks.is_empty() {
            return Err(SimError::InvalidConfig("ks must be non-empty".into()));
        }
        for k in &self.ks {
            if *k < 2 {
                return Err(SimError::InvalidConfig(format!(
                    "replication k must be at least 2 for durability to measure, got {k}"
                )));
            }
            if *k >= self.base.clients_per_cluster {
                return Err(SimError::InvalidConfig(format!(
                    "replication k = {k} cannot exceed the cluster size {}",
                    self.base.clients_per_cluster
                )));
            }
        }
        if self.repair == 0 {
            return Err(SimError::InvalidConfig(
                "repair pace must be at least 1 scan per round".into(),
            ));
        }
        if self.burst_at >= self.base.requests as u64 {
            return Err(SimError::InvalidConfig(format!(
                "the burst must land inside the trace (burst at {}, {} requests)",
                self.burst_at, self.base.requests
            )));
        }
        Ok(())
    }

    /// Failure domains for one burst size: enough that one domain holds
    /// an expected `burst` machines.
    fn domains_for(&self, burst: u32) -> u32 {
        (self.base.clients_per_cluster as u32 / burst).max(2)
    }

    /// The fault plan for one cell. All four cells of a (burst, k) grid
    /// point share the identical failure schedule; only the repair key
    /// differs (placement is a config flag, not a plan key).
    fn plan_for(&self, burst: u32, proactive: bool) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.seed = derive(self.seed, "durability-sweep");
        plan.domains = self.domains_for(burst);
        plan.push(self.burst_at, FaultAction::DomainFail(0));
        if proactive {
            plan.repair = self.repair;
        }
        plan
    }
}

/// Runs the sweep: one fault-free baseline, then four placement/repair
/// cells per (burst, k) grid point — blind+reactive (naive) first,
/// spread+proactive (defended) last — all over the same trace. The
/// summary (`rows`) carries one row per grid point.
pub fn run_durability(cfg: &DurabilityConfig) -> Result<ScenarioReport, SimError> {
    cfg.validate()?;
    let twin = Twin::new(&cfg.base)?;

    let mut cells = Vec::new();
    let mut summary = Vec::new();
    for k in axis(&cfg.ks) {
        for burst in axis(&cfg.bursts) {
            for (spread, proactive) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let churn =
                    ChurnConfig { replication: k, blind_placement: !spread, ..cfg.base.clone() };
                let (out, engine) = twin.drive(&churn, &cfg.plan_for(burst, proactive))?;
                cells.push(Row(vec![
                    ("burst", U(u64::from(burst))),
                    ("replication", U(k as u64)),
                    ("spread", B(spread)),
                    ("proactive", B(proactive)),
                    ("machines_lost", U(out.crashes)),
                    // Every one ledgered — the no-silent-loss guarantee.
                    ("objects_lost", U(out.snapshot.objects_lost_permanent)),
                    // Objects below their replication floor: worst round, and
                    // summed over all rounds (the window a second failure
                    // could exploit).
                    ("at_risk_peak", U(out.at_risk_peak)),
                    ("at_risk_area", U(out.risk_area)),
                    ("mean_time_to_repair", F(out.mean_time_to_repair())),
                    // Whether the at-risk gauge got back to zero in time.
                    ("repair_completed", B(!out.repair_rounds.is_empty())),
                    ("proactive_repairs", U(out.snapshot.proactive_repairs)),
                    ("repair_scans", U(engine.p2p(0).ledger().repair_scans)),
                    // Repair work is priced into the queue under the event clock.
                    ("avg_latency_milli", U(out.avg_latency_milli())),
                ]));
            }
            let (naive, defended) = (&cells[cells.len() - 4], &cells[cells.len() - 1]);
            let (naive_lost, defended_lost) = (naive.u("objects_lost"), defended.u("objects_lost"));
            summary.push(Row(vec![
                ("burst", U(u64::from(burst))),
                ("replication", U(k as u64)),
                ("naive_objects_lost", U(naive_lost)),
                ("defended_objects_lost", U(defended_lost)),
                ("naive_at_risk_area", U(naive.u("at_risk_area"))),
                ("defended_at_risk_area", U(defended.u("at_risk_area"))),
                // Denominator clamped to 1 so a flawless defended cell
                // stays finite.
                ("factor", F(naive_lost as f64 / defended_lost.max(1) as f64)),
            ]));
        }
    }

    Ok(ScenarioReport {
        header: Row(vec![
            ("requests", U(cfg.base.requests as u64)),
            ("cluster", U(cfg.base.clients_per_cluster as u64)),
            ("clock", S(cfg.base.clock.label())),
            ("seed", U(cfg.seed)),
            ("burst_at", U(cfg.burst_at)),
            ("repair", U(u64::from(cfg.repair))),
            ("baseline_avg_latency_milli", U(twin.baseline.avg_latency_milli())),
            // Conservation demands 0: nothing is lost without a fault.
            ("baseline_objects_lost", U(twin.engine.p2p(0).ledger().objects_lost)),
        ]),
        cells,
        summary_key: "rows",
        summary,
        csv_omit: &[],
    })
}

/// The committed-figure gate: the baseline conserves every object, no
/// defended cell loses one, and for every `k` the naive cell loses at
/// least 10x more at its worst burst.
pub fn gate(report: &ScenarioReport) -> Result<(), String> {
    if report.header.u("baseline_objects_lost") != 0 {
        return Err("the fault-free baseline lost objects".into());
    }
    if report.summary.is_empty() {
        return Err("no durability rows".into());
    }
    let mut best: BTreeMap<u64, f64> = BTreeMap::new();
    for r in &report.summary {
        if r.u("defended_objects_lost") != 0 {
            return Err(format!(
                "defended cell at burst {}, k={} lost {} objects",
                r.u("burst"),
                r.u("replication"),
                r.u("defended_objects_lost")
            ));
        }
        let factor = best.entry(r.u("replication")).or_insert(0.0);
        *factor = factor.max(r.f("factor"));
    }
    match best.iter().find(|(_, factor)| **factor < 10.0) {
        Some((k, factor)) => Err(format!("best loss factor {factor:.4} at k={k} is below 10x")),
        None => Ok(()),
    }
}

/// Renders an aligned text summary for terminals.
pub fn table(report: &ScenarioReport) -> String {
    let h = &report.header;
    let on_off = |flag: bool| if flag { "on" } else { "off" };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "durability sweep: {} requests, {} client machines, domain failure at {}\n",
        h.u("requests"),
        h.u("cluster"),
        h.u("burst_at")
    );
    let _ = writeln!(
        s,
        "baseline: avg latency {:.3}, objects lost {}",
        h.u("baseline_avg_latency_milli") as f64 / 1000.0,
        h.u("baseline_objects_lost")
    );
    let _ = writeln!(
        s,
        "{:>6} {:>3} {:>7} {:>9} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8}",
        "burst",
        "k",
        "spread",
        "proactive",
        "crashed",
        "lost",
        "risk-peak",
        "risk-area",
        "mttr",
        "latency"
    );
    for c in &report.cells {
        let mttr = if c.b("repair_completed") {
            format!("{:.1}", c.f("mean_time_to_repair"))
        } else {
            "never".to_string()
        };
        let _ = writeln!(
            s,
            "{:>6} {:>3} {:>7} {:>9} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8.3}",
            c.u("burst"),
            c.u("replication"),
            on_off(c.b("spread")),
            on_off(c.b("proactive")),
            c.u("machines_lost"),
            c.u("objects_lost"),
            c.u("at_risk_peak"),
            c.u("at_risk_area"),
            mttr,
            c.u("avg_latency_milli") as f64 / 1000.0,
        );
    }
    for r in &report.summary {
        let _ = writeln!(
            s,
            "durability at burst {:>2}, k={}: blind+reactive lost {} vs spread+proactive \
             lost {} ({:.1}x), at-risk area {} vs {}",
            r.u("burst"),
            r.u("replication"),
            r.u("naive_objects_lost"),
            r.u("defended_objects_lost"),
            r.f("factor"),
            r.u("naive_at_risk_area"),
            r.u("defended_at_risk_area"),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> DurabilityConfig {
        DurabilityConfig {
            base: ChurnConfig {
                requests: 8_000,
                distinct_objects: 400,
                trace_clients: 20,
                clients_per_cluster: 32,
                client_cache_capacity: 4,
                clock: ClockMode::Event,
                net: NetworkModel::default().scaled(1.0 / 16.0),
                ..ChurnConfig::default()
            },
            bursts: vec![8],
            ks: vec![2],
            burst_at: 2_000,
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_shaped() {
        let cfg = quick_cfg();
        let a = run_durability(&cfg).expect("sweep runs");
        let b = run_durability(&cfg).expect("sweep runs");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.cells.len(), 4, "one grid point, four placement/repair cells");
        assert_eq!(a.summary.len(), 1);
        let naive = &a.cells[0];
        let defended = &a.cells[3];
        assert!(!naive.b("spread") && !naive.b("proactive"), "naive row first");
        assert!(defended.b("spread") && defended.b("proactive"), "defended row last");
    }

    #[test]
    fn baseline_conserves_every_object() {
        let report = run_durability(&quick_cfg()).expect("sweep runs");
        assert_eq!(report.header.u("baseline_objects_lost"), 0, "no fault, no loss");
    }

    #[test]
    fn defenses_cut_losses_and_close_the_risk_window() {
        let report = run_durability(&quick_cfg()).expect("sweep runs");
        let naive = &report.cells[0];
        let defended = &report.cells[3];
        // Every cell saw the same correlated failure.
        assert!(naive.u("machines_lost") >= 2, "the domain failure must take machines");
        assert_eq!(naive.u("machines_lost"), defended.u("machines_lost"), "same failure schedule");
        // Reactive cells never touch the repair scheduler.
        assert_eq!(naive.u("repair_scans"), 0);
        assert_eq!(naive.u("proactive_repairs"), 0);
        // Spread placement survives the whole-domain failure outright.
        assert_eq!(defended.u("objects_lost"), 0, "k copies in k domains survive one domainfail");
        assert!(
            defended.u("objects_lost") <= naive.u("objects_lost"),
            "defended {} must not exceed naive {}",
            defended.u("objects_lost"),
            naive.u("objects_lost")
        );
        // The paced scheduler did real work and closed the window.
        assert!(defended.u("repair_scans") > 0, "the proactive cell must scan");
        assert!(defended.b("repair_completed"), "the at-risk gauge must drain to zero");
        assert!(
            defended.u("at_risk_area") <= naive.u("at_risk_area"),
            "proactive repair must not widen the vulnerability window \
             (defended {} vs naive {})",
            defended.u("at_risk_area"),
            naive.u("at_risk_area")
        );
    }

    #[test]
    fn renders_json_csv_and_table() {
        let report = run_durability(&quick_cfg()).expect("sweep runs");
        let json = report.to_json();
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"rows\": ["));
        assert!(json.contains("\"baseline_objects_lost\""));
        let csv = report.to_csv();
        assert!(csv.starts_with("burst,replication,"));
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        assert!(table(&report).contains("durability at burst"));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.bursts = vec![];
        assert!(run_durability(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.bursts = vec![1];
        assert!(run_durability(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.bursts = vec![17]; // > cluster / 2
        assert!(run_durability(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.ks = vec![1];
        assert!(run_durability(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.repair = 0;
        assert!(run_durability(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.burst_at = 8_000;
        assert!(run_durability(&cfg).is_err());
    }
}
