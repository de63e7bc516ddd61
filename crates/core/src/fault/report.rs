//! What a churn drill measured: the [`ChurnReport`] and its renderings.

use super::driver::DriveOutcome;
use super::ChurnConfig;
use crate::net::HitClass;
use crate::recorder::class_counts_json;
use std::fmt::Write as _;

/// What a churn drill measured. All latency fields are integer
/// milli-units so the JSON rendering is bit-stable across platforms.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnReport {
    /// Requests served (every request is served — the cascade degrades
    /// to proxy → server, it never fails).
    pub requests: u64,
    /// Requests per hit class, in `HitClass::ALL` order.
    pub served_by_class: [u64; HitClass::ALL.len()],
    /// Served / issued, in percent (structurally 100).
    pub availability_percent: f64,
    /// Silent crashes injected.
    pub crashes: u64,
    /// Graceful departures injected.
    pub departures: u64,
    /// Rejoins injected.
    pub rejoins: u64,
    /// Slow-node marks injected.
    pub slows: u64,
    /// Network partitions injected (overlay cut into two islands).
    pub partitions: u64,
    /// Heal sweeps run. Every cut is healed — at its scheduled `heal@`
    /// event, or implicitly at end of run — so this always equals
    /// `partitions`.
    pub heals: u64,
    /// Directory entries merged by anti-entropy reconciliation on heal.
    pub entries_reconciled: u64,
    /// Split-brain primaries demoted (or garbage-collected) on heal.
    pub primaries_demoted: u64,
    /// Scheduled actions skipped because no live node was left to target
    /// (or a cut/heal found the overlay already in that state).
    pub skipped_actions: u64,
    /// Machines turned into free-riders.
    pub freerides: u64,
    /// Machines turned into receipt forgers.
    pub forges: u64,
    /// Machines turned into garbage responders.
    pub garbles: u64,
    /// Possession challenges the proxy issued (audit defense traffic).
    pub audits_challenged: u64,
    /// Possession challenges the audited node could not answer.
    pub audits_failed: u64,
    /// Store receipts exposed as forged by a failed audit.
    pub forged_receipts: u64,
    /// Nodes quarantined after exhausting their audit strikes.
    pub quarantines: u64,
    /// Fresh machines joined to replace quarantined ones (the expelled
    /// machine is reimaged; the overlay back-fills its capacity).
    pub quarantine_replacements: u64,
    /// True when the plan scheduled at least one adversary (gates the
    /// adversary block of the JSON rendering, keeping pre-adversary
    /// goldens byte-identical).
    pub adversarial: bool,
    /// Flash-crowd windows fired.
    pub spikes: u64,
    /// Cache-fabric admissions skipped by watermark shedding: while the
    /// proxy is above its high watermark the request generates no
    /// destage/diversion background work at all.
    pub shed_background: u64,
    /// Client fetches degraded straight to the origin server by
    /// watermark shedding (same requests as `shed_background`: a shed
    /// request both skips its background work and goes to origin).
    pub degraded_to_origin: u64,
    /// Sends that fail-fasted on an open circuit breaker.
    pub breaker_fast_fails: u64,
    /// Retry ladders abandoned by an exhausted retry budget.
    pub retry_budget_denials: u64,
    /// True when the plan scheduled a spike or configured a defense
    /// (gates the overload block of the JSON rendering, keeping
    /// pre-overload goldens byte-identical).
    pub overloaded: bool,
    /// Correlated domain failures injected.
    pub domainfails: u64,
    /// Simultaneous-crash bursts injected.
    pub bursts: u64,
    /// Objects permanently lost with the no-silent-loss ledger armed:
    /// every loss path increments this exactly once per object (distinct
    /// from the legacy `objects_lost`, which counts crash-reclaim drops
    /// at node granularity).
    pub objects_lost_permanent: u64,
    /// Entries restored to the replica floor by the background repair
    /// scheduler before any request tripped over them.
    pub proactive_repairs: u64,
    /// Directory entries examined by the paced repair scan.
    pub repair_scans: u64,
    /// Worst single-round at-risk gauge (limbo objects plus below-floor
    /// entries seen by the last completed scan cycle).
    pub at_risk_peak: u64,
    /// Sum of the at-risk gauge over all rounds — the area under the
    /// vulnerability curve (gauge × rounds). Smaller is safer.
    pub at_risk_area: u64,
    /// Mean rounds from a loss-capable fault to the at-risk gauge
    /// returning to zero (0 when nothing was ever at risk or the run
    /// ended still exposed).
    pub mean_time_to_repair: f64,
    /// True when the plan exercises durability (gates the durability
    /// block of the JSON rendering, keeping pre-durability goldens
    /// byte-identical).
    pub durability: bool,
    /// Crashes detected by traffic before the trace ended.
    pub detected_crashes: u64,
    /// Crashes still undetected at end of run (no message walked in).
    pub undetected_crashes: u64,
    /// Mean requests between a crash and its detection.
    pub detection_latency_avg: f64,
    /// Worst-case requests between a crash and its detection.
    pub detection_latency_max: u64,
    /// Timeout-equivalent stalls paid (dead nodes, loss, slow nodes).
    pub timeouts: u64,
    /// Timeouts that exposed a crashed node.
    pub dead_node_timeouts: u64,
    /// Directory-approved lookups whose primary died with a crash.
    pub stale_hits: u64,
    /// Stale hits rescued by a leaf-set replica.
    pub stale_hits_replica_served: u64,
    /// Replica promotions that restored the replication factor.
    pub rereplications: u64,
    /// Fresh replica copies created by re-replications.
    pub replica_copies: u64,
    /// Objects lost for good (crash reclaimed with no surviving copy).
    pub objects_lost: u64,
    /// Mean end-to-end latency of the faulty run, in milli-units.
    pub avg_latency_milli: u64,
    /// Mean end-to-end latency of the fault-free twin run, milli-units.
    pub fault_free_avg_latency_milli: u64,
    /// Relative latency degradation vs the fault-free twin, in percent
    /// (the latency-gain delta: how much of the paper's win churn eats).
    pub latency_delta_percent: f64,
    /// `check_invariants` findings at detection points (must be 0).
    pub invariant_violations: u64,
    /// The plan that ran, in spec grammar.
    pub plan_spec: String,
}

impl ChurnReport {
    /// Assembles the report of one drill: the `faulty` drive of
    /// `cfg.plan` and the fault-free `baseline` drive of the same
    /// request window.
    pub(crate) fn new(
        cfg: &ChurnConfig,
        faulty: &DriveOutcome,
        baseline: &DriveOutcome,
    ) -> ChurnReport {
        let served: u64 = faulty.metrics.requests;
        let issued = cfg.plan.served(cfg.requests as u64);
        let avg_milli = faulty.avg_latency_milli();
        let base_milli = baseline.avg_latency_milli();
        let delta = if base_milli == 0 {
            0.0
        } else {
            (avg_milli as f64 / base_milli as f64 - 1.0) * 100.0
        };
        let detected = faulty.detections.len() as u64;
        let detection_latency_avg = if faulty.detections.is_empty() {
            0.0
        } else {
            faulty.detections.iter().sum::<u64>() as f64 / detected as f64
        };
        let mut served_by_class = [0u64; HitClass::ALL.len()];
        for (class, n) in faulty.metrics.by_class.iter() {
            served_by_class[class.index()] = n;
        }

        ChurnReport {
            requests: served,
            served_by_class,
            availability_percent: served as f64 / issued as f64 * 100.0,
            crashes: faulty.snapshot.node_crashes,
            departures: faulty.snapshot.node_departures,
            rejoins: faulty.rejoins,
            slows: faulty.slows,
            partitions: faulty.snapshot.partitions_started,
            heals: faulty.snapshot.partitions_healed,
            entries_reconciled: faulty.snapshot.entries_reconciled,
            primaries_demoted: faulty.snapshot.primaries_demoted,
            skipped_actions: faulty.skipped,
            freerides: faulty.freerides,
            forges: faulty.forges,
            garbles: faulty.garbles,
            audits_challenged: faulty.snapshot.audits_challenged,
            audits_failed: faulty.snapshot.audits_failed,
            forged_receipts: faulty.snapshot.forged_receipts,
            quarantines: faulty.snapshot.quarantines,
            quarantine_replacements: faulty.quarantine_replacements,
            adversarial: cfg.plan.has_adversary(),
            spikes: faulty.spikes,
            shed_background: faulty.shed_background,
            degraded_to_origin: faulty.shed_background,
            breaker_fast_fails: faulty.snapshot.breaker_fast_fails,
            retry_budget_denials: faulty.snapshot.retry_budget_denials,
            overloaded: cfg.plan.has_spike() || cfg.plan.has_overload_defense(),
            domainfails: faulty.domainfails,
            bursts: faulty.bursts,
            objects_lost_permanent: faulty.snapshot.objects_lost_permanent,
            proactive_repairs: faulty.snapshot.proactive_repairs,
            repair_scans: faulty.metrics.messages.repair_scans,
            at_risk_peak: faulty.at_risk_peak,
            at_risk_area: faulty.risk_area,
            mean_time_to_repair: faulty.mean_time_to_repair(),
            durability: cfg.plan.has_durability(),
            detected_crashes: detected,
            undetected_crashes: faulty.undetected,
            detection_latency_avg,
            detection_latency_max: faulty.detections.iter().copied().max().unwrap_or(0),
            timeouts: faulty.snapshot.timeouts,
            dead_node_timeouts: faulty.snapshot.dead_node_timeouts,
            stale_hits: faulty.snapshot.stale_directory_hits,
            stale_hits_replica_served: faulty.snapshot.stale_hits_replica_served,
            rereplications: faulty.snapshot.rereplications,
            replica_copies: faulty.snapshot.replica_copies,
            objects_lost: faulty.snapshot.objects_lost,
            avg_latency_milli: avg_milli,
            fault_free_avg_latency_milli: base_milli,
            latency_delta_percent: delta,
            invariant_violations: faulty.invariant_violations,
            plan_spec: cfg.plan.to_spec(),
        }
    }

    /// True when every issued request was served.
    pub fn fully_available(&self) -> bool {
        (self.availability_percent - 100.0).abs() < 1e-9
    }

    /// Renders the report as a JSON document with a fixed field order
    /// (hand-rolled: the offline build has no JSON crate). Bit-stable
    /// for a fixed seed + plan — the golden churn test diffs it.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(s, "  \"served_by_class\": {},", class_counts_json(&self.served_by_class));
        let _ = writeln!(s, "  \"availability_percent\": {:.4},", self.availability_percent);
        for (name, v) in [
            ("crashes", self.crashes),
            ("departures", self.departures),
            ("rejoins", self.rejoins),
            ("slows", self.slows),
            ("partitions", self.partitions),
            ("heals", self.heals),
            ("entries_reconciled", self.entries_reconciled),
            ("primaries_demoted", self.primaries_demoted),
            ("skipped_actions", self.skipped_actions),
            ("detected_crashes", self.detected_crashes),
            ("undetected_crashes", self.undetected_crashes),
        ] {
            let _ = writeln!(s, "  \"{name}\": {v},");
        }
        if self.adversarial {
            // Adversary counters appear only for adversarial plans, so
            // every pre-adversary golden stays byte-identical.
            for (name, v) in [
                ("freerides", self.freerides),
                ("forges", self.forges),
                ("garbles", self.garbles),
                ("audits_challenged", self.audits_challenged),
                ("audits_failed", self.audits_failed),
                ("forged_receipts", self.forged_receipts),
                ("quarantines", self.quarantines),
                ("quarantine_replacements", self.quarantine_replacements),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
        }
        if self.overloaded {
            // Overload counters appear only for spiked/defended plans,
            // so every pre-overload golden stays byte-identical.
            for (name, v) in [
                ("spikes", self.spikes),
                ("shed_background", self.shed_background),
                ("degraded_to_origin", self.degraded_to_origin),
                ("breaker_fast_fails", self.breaker_fast_fails),
                ("retry_budget_denials", self.retry_budget_denials),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
        }
        if self.durability {
            // Durability counters appear only for domain/repair plans,
            // so every pre-durability golden stays byte-identical.
            for (name, v) in [
                ("domainfails", self.domainfails),
                ("bursts", self.bursts),
                ("objects_lost_permanent", self.objects_lost_permanent),
                ("proactive_repairs", self.proactive_repairs),
                ("repair_scans", self.repair_scans),
                ("at_risk_peak", self.at_risk_peak),
                ("at_risk_area", self.at_risk_area),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
            let _ = writeln!(s, "  \"mean_time_to_repair\": {:.4},", self.mean_time_to_repair);
        }
        let _ = writeln!(s, "  \"detection_latency_avg\": {:.4},", self.detection_latency_avg);
        for (name, v) in [
            ("detection_latency_max", self.detection_latency_max),
            ("timeouts", self.timeouts),
            ("dead_node_timeouts", self.dead_node_timeouts),
            ("stale_hits", self.stale_hits),
            ("stale_hits_replica_served", self.stale_hits_replica_served),
            ("rereplications", self.rereplications),
            ("replica_copies", self.replica_copies),
            ("objects_lost", self.objects_lost),
            ("avg_latency_milli", self.avg_latency_milli),
            ("fault_free_avg_latency_milli", self.fault_free_avg_latency_milli),
        ] {
            let _ = writeln!(s, "  \"{name}\": {v},");
        }
        let _ = writeln!(s, "  \"latency_delta_percent\": {:.4},", self.latency_delta_percent);
        let _ = writeln!(s, "  \"invariant_violations\": {},", self.invariant_violations);
        let _ = writeln!(s, "  \"plan_spec\": \"{}\"", self.plan_spec);
        s.push_str("}\n");
        s
    }

    /// Renders an aligned text summary for terminals.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<28} {:>12}", "requests", self.requests);
        let _ = writeln!(s, "{:<28} {:>11.2}%", "availability", self.availability_percent);
        for (name, v) in [
            ("crashes", self.crashes),
            ("departures", self.departures),
            ("rejoins", self.rejoins),
            ("slows", self.slows),
            ("partitions", self.partitions),
            ("heal sweeps", self.heals),
            ("entries reconciled", self.entries_reconciled),
            ("primaries demoted", self.primaries_demoted),
            ("free-riders", self.freerides),
            ("receipt forgers", self.forges),
            ("garbage responders", self.garbles),
            ("audits challenged", self.audits_challenged),
            ("audits failed", self.audits_failed),
            ("forged receipts caught", self.forged_receipts),
            ("nodes quarantined", self.quarantines),
            ("quarantine replacements", self.quarantine_replacements),
            ("detected crashes", self.detected_crashes),
            ("undetected crashes", self.undetected_crashes),
            ("detection latency max", self.detection_latency_max),
            ("timeouts", self.timeouts),
            ("dead-node timeouts", self.dead_node_timeouts),
            ("stale directory hits", self.stale_hits),
            ("  rescued by replica", self.stale_hits_replica_served),
            ("re-replications", self.rereplications),
            ("objects lost", self.objects_lost),
            ("invariant violations", self.invariant_violations),
        ] {
            let _ = writeln!(s, "{name:<28} {v:>12}");
        }
        if self.overloaded {
            for (name, v) in [
                ("flash-crowd spikes", self.spikes),
                ("background shed", self.shed_background),
                ("degraded to origin", self.degraded_to_origin),
                ("breaker fast-fails", self.breaker_fast_fails),
                ("retry-budget denials", self.retry_budget_denials),
            ] {
                let _ = writeln!(s, "{name:<28} {v:>12}");
            }
        }
        if self.durability {
            for (name, v) in [
                ("domain failures", self.domainfails),
                ("crash bursts", self.bursts),
                ("objects lost (ledgered)", self.objects_lost_permanent),
                ("proactive repairs", self.proactive_repairs),
                ("repair scans", self.repair_scans),
                ("at-risk peak", self.at_risk_peak),
                ("at-risk area", self.at_risk_area),
            ] {
                let _ = writeln!(s, "{name:<28} {v:>12}");
            }
            let _ = writeln!(s, "{:<28} {:>12.4}", "mean time to repair", self.mean_time_to_repair);
        }
        let _ = writeln!(s, "{:<28} {:>12.4}", "detection latency avg", self.detection_latency_avg);
        let _ = writeln!(
            s,
            "{:<28} {:>9.3} vs {:.3} fault-free ({:+.2}%)",
            "avg latency",
            self.avg_latency_milli as f64 / 1000.0,
            self.fault_free_avg_latency_milli as f64 / 1000.0,
            self.latency_delta_percent
        );
        s
    }
}
