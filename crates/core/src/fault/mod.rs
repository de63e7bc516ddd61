//! Deterministic fault injection: plans, the churn harness, its report.
//!
//! The paper's simulations (§5) assume a stable client population; §4.1
//! only gestures at Pastry's self-organization. This module measures what
//! actually happens when that assumption breaks. A [`FaultPlan`] schedules
//! **unannounced crashes** (nobody is told — detection is lazy, paid for
//! in timeouts), graceful departures, rejoins, slow nodes, and a
//! message-loss probability at fixed request indices; [`run_churn`]
//! drives a Hier-GD engine through the plan twice — once faulty, once
//! fault-free on the same trace — and reports detection latency, stale
//! directory hits, re-replications, availability, and the latency delta
//! in a [`ChurnReport`].
//!
//! Everything is seeded: the same plan, trace seed and topology reproduce
//! the same report bit for bit (the golden churn test pins this).
//!
//! The drill runs through the discrete-event clock in **both** modes:
//! faults are genuine scheduled events on the clock, arrivals
//! self-schedule one round apart. [`ClockMode::Compat`] prices requests
//! analytically at arrival (byte-identical to the pre-clock harness);
//! [`ClockMode::Event`] serializes requests through the proxy's busy
//! period, so a slow node becomes queuing delay instead of an additive
//! penalty.
//!
//! Every detection in this module — dead-node probes, slow-node stalls,
//! breaker trips — is priced in units of the single timeout constant:
//! `t_timeout = TIMEOUT_RTT_MULTIPLE · Tp2p` (see
//! [`webcache_primitives::TIMEOUT_RTT_MULTIPLE`], the one source of
//! truth the transport and the network model both derive from).
//!
//! **Overload.** `spike@N:SPAN:X` compresses the arrival schedule into a
//! flash crowd; under the event clock the backlog can then outlive the
//! spike — the metastable failure mode. The defense keys (`breaker=K`,
//! `budget=F`, `shed=HI:LO`) arm per-destination circuit breakers and
//! retry budgets on the transport and watermark load shedding in the
//! drive loop. All defense randomness draws from `derive(seed,
//! "overload")`: with the defenses disarmed that stream is never
//! touched, so every pre-overload golden stays byte-identical.
//!
//! Three files share the work: `plan` owns the vocabulary — the verb
//! and key tables, the parser, the printer and the range rules; `driver`
//! owns the loop that walks one engine through one plan; `report` owns
//! what a drill measured and how it is rendered. This file holds the
//! drill's configuration and [`run_churn`].

mod driver;
mod plan;
mod report;

pub(crate) use driver::{drive, DriveOutcome, OVERLOAD_WINDOW};
pub use plan::{
    FaultAction, FaultEvent, FaultPlan, DEFAULT_BREAKER_QUIET, DEFAULT_RETRY_BUDGET_CAP,
};
pub use report::ChurnReport;

use crate::clock::ClockMode;
use crate::error::SimError;
use crate::net::NetworkModel;
use crate::scenario::drive_fault_free;

/// Configuration of one churn drill: topology, workload, and the plan.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Requests to serve.
    pub requests: usize,
    /// Distinct objects in the synthetic workload.
    pub distinct_objects: usize,
    /// Clients issuing requests in the trace.
    pub trace_clients: usize,
    /// Client cache machines in the cluster (overlay size).
    pub clients_per_cluster: usize,
    /// Proxy cache capacity in objects.
    pub proxy_capacity: usize,
    /// One client cache's capacity in objects.
    pub client_cache_capacity: usize,
    /// Leaf-set replication factor `k` (1 = primary only).
    pub replication: usize,
    /// Workload generator seed.
    pub trace_seed: u64,
    /// Latency model (including the `t_timeout` penalty).
    pub net: NetworkModel,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Clock mode driving the drill (see the module docs).
    pub clock: ClockMode,
    /// Probability that the proxy audits a store receipt with a
    /// possession challenge (the spot-check defense; 0 = undefended).
    /// Only takes effect when the plan schedules at least one adversary.
    pub audit_rate: f64,
    /// Failed audits before a node is quarantined (min 1).
    pub audit_strikes: u32,
    /// Ignore failure domains when placing replicas (the undefended
    /// placement cell of the durability sweep). A config-level flag
    /// rather than a plan key so a defended/naive pair can share one
    /// plan spec — identical failure injection, different placement.
    /// No effect unless the plan sets `domains=`.
    pub blind_placement: bool,
}

impl Default for ChurnConfig {
    /// A mid-size drill: 40 000 requests over a 64-machine cluster with
    /// `k = 2` replication — large enough for crashes to land on loaded
    /// nodes, small enough for CI.
    fn default() -> Self {
        ChurnConfig {
            requests: 40_000,
            distinct_objects: 2_000,
            trace_clients: 50,
            clients_per_cluster: 64,
            proxy_capacity: 100,
            client_cache_capacity: 4,
            replication: 2,
            trace_seed: 0xC0FFEE,
            net: NetworkModel::default(),
            plan: FaultPlan::none(),
            clock: ClockMode::default(),
            audit_rate: 0.0,
            audit_strikes: 3,
            blind_placement: false,
        }
    }
}

impl ChurnConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.requests == 0 {
            return Err(SimError::InvalidConfig("requests must be positive".into()));
        }
        if self.clients_per_cluster == 0 {
            return Err(SimError::InvalidConfig("clients_per_cluster must be positive".into()));
        }
        if self.replication == 0 {
            return Err(SimError::InvalidConfig("replication factor must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.audit_rate) {
            return Err(SimError::InvalidConfig(format!(
                "audit_rate must be in [0, 1], got {}",
                self.audit_rate
            )));
        }
        if self.audit_strikes == 0 {
            return Err(SimError::InvalidConfig("audit_strikes must be >= 1".into()));
        }
        // A plan built in code never met the parser, so it is held to
        // the parser's range rules here.
        self.plan.validate()?;
        self.net.validate()
    }
}

/// Runs the full churn drill: a fault-free twin on the same trace and
/// request window for the latency delta, then the faulty run. Only the
/// twin's outcome is kept, so its engine is freed before the faulty
/// drive builds one.
pub fn run_churn(cfg: &ChurnConfig) -> Result<ChurnReport, SimError> {
    cfg.validate()?;
    let trace = cfg.trace();
    let (baseline, _) = drive_fault_free(cfg, &trace)?;
    let (faulty, _) = drive(cfg, &trace, &cfg.plan)?;
    Ok(ChurnReport::new(cfg, &faulty, &baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_backs_up_the_event_clock_and_shedding_relieves_it() {
        let spike = "spike@1000:2000:16, seed=5";
        let mut naive_cfg = small_cfg(spike.parse().unwrap());
        naive_cfg.clock = ClockMode::Event;
        let naive = run_churn(&naive_cfg).unwrap();
        assert_eq!(naive.spikes, 1);
        assert_eq!(naive.degraded_to_origin, 0);
        assert!(naive.overloaded);

        let mut defended_cfg = small_cfg(format!("{spike}, shed=16:4").parse().unwrap());
        defended_cfg.clock = ClockMode::Event;
        let defended = run_churn(&defended_cfg).unwrap();
        assert!(defended.degraded_to_origin > 0, "shedding never engaged");
        assert!(
            defended.avg_latency_milli < naive.avg_latency_milli,
            "shedding must relieve the flash crowd: defended {} vs naive {}",
            defended.avg_latency_milli,
            naive.avg_latency_milli
        );
    }

    #[test]
    fn defense_keys_without_faults_change_nothing() {
        // Breakers and budgets only matter when the transport actually
        // fails; on a fault-free run the armed defense must not shift a
        // single counter (it draws nothing until a breaker trips).
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let mut plain_cfg = small_cfg(FaultPlan::none());
            plain_cfg.clock = clock;
            let plain = run_churn(&plain_cfg).unwrap();
            let mut armed_cfg = small_cfg("breaker=3, budget=0.1".parse().unwrap());
            armed_cfg.clock = clock;
            let armed = run_churn(&armed_cfg).unwrap();
            assert_eq!(armed.avg_latency_milli, plain.avg_latency_milli, "{clock:?}");
            assert_eq!(armed.served_by_class, plain.served_by_class, "{clock:?}");
            assert_eq!(armed.breaker_fast_fails, 0, "{clock:?}");
            assert_eq!(armed.retry_budget_denials, 0, "{clock:?}");
            assert!(armed.overloaded && !plain.overloaded, "{clock:?}");
        }
    }

    #[test]
    fn domainfail_crashes_the_domain_and_repair_restores_the_floor() {
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let plan: FaultPlan = "domainfail@500:1, domains=4, repair=8, seed=19".parse().unwrap();
            let mut cfg = small_cfg(plan);
            cfg.clock = clock;
            let report = run_churn(&cfg).unwrap();
            assert!(report.fully_available(), "{clock:?}");
            assert_eq!(report.domainfails, 1, "{clock:?}");
            assert!(report.crashes >= 1, "{clock:?}");
            assert!(report.durability, "{clock:?}");
            assert!(report.repair_scans > 0, "{clock:?}");
            assert!(report.at_risk_peak > 0, "the crash must register as risk, {clock:?}");
            assert!(report.proactive_repairs > 0, "{clock:?}");
            assert_eq!(report.invariant_violations, 0, "{clock:?}");
            let json = report.to_json();
            assert!(json.contains("\"at_risk_area\""), "{json}");
            assert!(report.to_table().contains("mean time to repair"));
        }
    }

    #[test]
    fn burst_crashes_k_machines_at_once() {
        let plan: FaultPlan = "burst@500:3, repair=8, seed=23".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(report.bursts, 1);
        assert_eq!(report.crashes, 3);
        assert!(report.fully_available());
        assert_eq!(report.invariant_violations, 0);
    }

    #[test]
    fn repair_key_without_faults_changes_nothing() {
        // A healthy cluster gives the repair scheduler nothing to do:
        // the scan runs (and is counted) but repairs nothing, loses
        // nothing, and — under the compat clock, where background work
        // is not priced — shifts no latency.
        let plain = run_churn(&small_cfg(FaultPlan::none())).unwrap();
        let armed = run_churn(&small_cfg("repair=6".parse().unwrap())).unwrap();
        assert_eq!(armed.avg_latency_milli, plain.avg_latency_milli);
        assert_eq!(armed.served_by_class, plain.served_by_class);
        assert_eq!(armed.objects_lost_permanent, 0);
        assert_eq!(armed.proactive_repairs, 0);
        assert!(armed.repair_scans > 0);
        assert_eq!(armed.at_risk_peak, 0);
        assert!(armed.durability && !plain.durability);
        assert!(!plain.to_json().contains("objects_lost_permanent"));
    }

    fn small_cfg(plan: FaultPlan) -> ChurnConfig {
        ChurnConfig {
            requests: 4_000,
            distinct_objects: 400,
            trace_clients: 10,
            clients_per_cluster: 16,
            proxy_capacity: 20,
            client_cache_capacity: 4,
            replication: 2,
            trace_seed: 7,
            plan,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn churn_run_serves_everything_and_reconciles() {
        let plan: FaultPlan =
            "crash@500, crash@900, depart@1500, rejoin@2000, slow@2500, loss=0.005, seed=3"
                .parse()
                .unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(report.requests, 4_000);
        assert!(report.fully_available(), "availability {}", report.availability_percent);
        assert_eq!(report.crashes, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.rejoins, 1);
        assert_eq!(report.slows, 1);
        assert_eq!(report.detected_crashes + report.undetected_crashes, report.crashes);
        assert_eq!(report.invariant_violations, 0);
        assert!(report.timeouts >= report.dead_node_timeouts);
        assert!(report.stale_hits >= report.stale_hits_replica_served);
    }

    #[test]
    fn adversarial_churn_defended_run_quarantines_and_stays_available() {
        let plan: FaultPlan =
            "freeride@200, forge@400:0.5, garble@600:0.5, seed=17".parse().unwrap();
        let defended = ChurnConfig { audit_rate: 0.4, audit_strikes: 2, ..small_cfg(plan.clone()) };
        let report = run_churn(&defended).unwrap();
        assert!(report.fully_available(), "availability {}", report.availability_percent);
        assert_eq!(report.freerides, 1);
        assert_eq!(report.forges, 1);
        assert_eq!(report.garbles, 1);
        assert!(report.audits_challenged > 0, "the defense must issue challenges");
        assert!(report.audits_failed > 0, "persistent cheats must fail audits");
        assert!(report.quarantines >= 1, "the forger or free-rider must be quarantined");
        assert_eq!(report.invariant_violations, 0);
        assert!(report.adversarial);
        let json = report.to_json();
        assert!(json.contains("\"quarantines\""), "{json}");

        // The undefended twin never audits and never quarantines.
        let undefended = ChurnConfig { audit_rate: 0.0, ..defended };
        let report = run_churn(&undefended).unwrap();
        assert_eq!(report.audits_challenged, 0);
        assert_eq!(report.quarantines, 0);
        assert_eq!(report.invariant_violations, 0);
    }

    #[test]
    fn adversary_free_reports_hide_the_adversary_block() {
        let plan: FaultPlan = "crash@500, seed=2".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert!(!report.adversarial);
        assert!(!report.to_json().contains("audits_challenged"));
    }

    #[test]
    fn churn_reports_are_deterministic() {
        let plan: FaultPlan = "crash@300, crash@700, loss=0.01, seed=11".parse().unwrap();
        let a = run_churn(&small_cfg(plan.clone())).unwrap();
        let b = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn empty_plan_matches_fault_free_twin() {
        let report = run_churn(&small_cfg(FaultPlan::none())).unwrap();
        assert_eq!(report.avg_latency_milli, report.fault_free_avg_latency_milli);
        assert_eq!(report.latency_delta_percent, 0.0);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.stale_hits, 0);
    }

    #[test]
    fn faults_cost_latency_not_requests() {
        let plan: FaultPlan = "crash@100, crash@200, crash@300, loss=0.01, seed=5".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert!(report.fully_available());
        assert!(
            report.avg_latency_milli >= report.fault_free_avg_latency_milli,
            "faults cannot make the run faster: {} vs {}",
            report.avg_latency_milli,
            report.fault_free_avg_latency_milli
        );
    }

    #[test]
    fn report_renders_json_and_table() {
        let plan: FaultPlan = "crash@500, seed=2".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"availability_percent\": 100.0000"));
        assert!(json.contains("\"plan_spec\": \"crash@500,seed=2\""));
        let table = report.to_table();
        assert!(table.contains("availability"));
        assert!(table.contains("stale directory hits"));
    }

    /// The error of a drill whose plan schedules `action` at request 10.
    fn rejection(action: FaultAction, domains: u32) -> String {
        let mut plan = FaultPlan { domains, ..FaultPlan::none() };
        plan.push(10, action);
        run_churn(&small_cfg(plan)).unwrap_err().to_string()
    }

    // A plan built in code never met the parser. Three ways that used to
    // go wrong, each rejected now with an error naming the event:

    #[test]
    fn a_spike_of_intensity_zero_is_rejected_not_divided_by() {
        let err = rejection(FaultAction::Spike { span: 64, times: 0 }, 0);
        assert!(err.contains("spike intensity in spike@10"), "{err}");
    }

    #[test]
    fn a_partition_past_100_percent_is_rejected_not_printed_with_overflow() {
        let err = rejection(FaultAction::Partition(150), 0);
        assert!(err.contains("partition island in partition@10"), "{err}");
    }

    #[test]
    fn payloads_whose_spec_would_not_parse_are_rejected() {
        for (action, needle) in [
            (FaultAction::Forge(0), "forge rate in forge@10"),
            (FaultAction::Garble(2_000), "garble rate in garble@10"),
            (FaultAction::Burst(1), "burst size in burst@10"),
        ] {
            let err = rejection(action, 0);
            assert!(err.contains(needle), "{action:?} -> {err}");
        }
    }

    #[test]
    fn every_other_range_of_the_grammar_holds_for_plans_built_in_code() {
        for (action, domains, needle) in [
            (FaultAction::Spike { span: 0, times: 4 }, 0, "spike span in spike@10"),
            (FaultAction::DomainFail(4), 4, "domainfail domain in domainfail@10"),
            (FaultAction::DomainFail(0), 0, "domainfail in domainfail@10"),
        ] {
            let err = rejection(action, domains);
            assert!(err.contains(needle), "{action:?} -> {err}");
        }
        for plan in [
            FaultPlan { mloss: 1.0, ..FaultPlan::none() },
            FaultPlan { budget: 1.5, ..FaultPlan::none() },
            FaultPlan { shed_high: 4, shed_low: 4, ..FaultPlan::none() },
            FaultPlan { shed_low: 4, ..FaultPlan::none() },
        ] {
            let err = run_churn(&small_cfg(plan.clone())).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{plan:?} -> {err}");
        }
    }

    #[test]
    fn config_validation() {
        let mut cfg = ChurnConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.requests = 0;
        assert!(cfg.validate().is_err());
        let cfg = ChurnConfig { replication: 0, ..ChurnConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
