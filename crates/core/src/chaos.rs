//! Seeded chaos explorer: random fault plans, invariant oracles, and a
//! shrinker that minimizes failing plans to replayable reproducers.
//!
//! FoundationDB-style simulation testing for the P2P client cache: the
//! explorer generates hundreds of random — but fully seeded — fault
//! plans (crashes, departures, rejoins, slow nodes, network partitions
//! with their heals, plus message-level loss/duplication/reordering/
//! corruption through the unreliable transport), drives the Hier-GD
//! engine through each, and audits the end state with nine oracles:
//!
//! 1. **Structure** — [`check_invariants`]: the lookup directory, the
//!    resident stores, diversion pointers and replica tracking must
//!    reconcile exactly.
//! 2. **No duplicate entries** — no object is held as a *primary* copy
//!    by two machines at once (replica copies are tracked separately).
//! 3. **Replica floor** — with membership-stable plans, every primary
//!    keeps at least `min(k, live)` copies ([`check_replica_floor`];
//!    skipped under churn, where lazy repair legitimately lags).
//! 4. **Counter conservation** — per-class serve counts sum to the
//!    requests issued, detected + undetected crashes equal the crashes
//!    injected, stale lookups never exceed lookups, and dead-node
//!    timeouts never exceed total timeouts.
//! 5. **Availability** — every issued request was served (the cascade
//!    degrades to proxy → server; it never refuses).
//! 6. **Convergence** — after every cut has healed, the reconciled
//!    lookup directory must equal a single-authority rebuild from the
//!    stores ([`directory_divergence`]): no split-brain survivor may
//!    leak a ghost entry or shadow a resident object.
//! 7. **Quarantine soundness** — the spot-check audit defense may only
//!    expel machines that actually misbehaved (free-riders, receipt
//!    forgers, garbage responders scheduled by the plan's adversary
//!    verbs), every expelled machine must be fully out of the overlay,
//!    and without adversaries no audit traffic may exist at all.
//! 8. **Overload stability** — after a flash crowd ends, the system
//!    must return to its pre-spike operating point: watermark shedding
//!    may not still be engaged at the end of the run, and for defended
//!    plans with enough post-spike trace left, the tail window's mean
//!    latency must sit back at the pre-spike baseline. A run that stays
//!    degraded long after the load is gone is metastable — the classic
//!    overload failure mode the defenses exist to rule out.
//! 9. **No silent loss** — every object the cluster can no longer
//!    recover must be ledgered exactly once (`objects_lost` plus an
//!    `ObjectLost` event): an unrecoverable limbo entry that was never
//!    ledgered is a silent loss, and the event stream must agree with
//!    the ledger ([`silent_loss_audit`]). Correlated `domainfail@N:D`
//!    failures and `burst@N:K` simultaneous crashes exist precisely to
//!    pressure this guarantee.
//!
//! When an oracle fires, the explorer **shrinks** the failing plan:
//! repeatedly try dropping each scheduled event, zeroing then halving
//! each fault probability, narrowing each partition's span (pulling the
//! heal toward its cut), halving adversary rates, narrowing each flash
//! crowd (halving its span, then its intensity), disarming each
//! overload-defense knob, softening correlated failures (halving burst
//! sizes, doubling the domain count to shrink the doomed domain's blast
//! radius, disarming the repair pacer), and narrowing the request window
//! to just past the last event — keeping any candidate that still fails
//! — until a
//! fixed point or the run budget is reached. The result is a minimal
//! deterministic reproducer in the [`FaultPlan`] spec grammar, ready for
//! `webcache churn --plan '<spec>'` or a regression test.
//!
//! Everything keys off one master seed: plan `i` draws from
//! `derive_indexed(seed, "chaos-plan", i)`, so a failing index can be
//! regenerated without storing the plan.
//!
//! [`check_invariants`]: webcache_p2p::P2PClientCache::check_invariants
//! [`check_replica_floor`]: webcache_p2p::P2PClientCache::check_replica_floor
//! [`directory_divergence`]: webcache_p2p::P2PClientCache::directory_divergence
//! [`silent_loss_audit`]: webcache_p2p::P2PClientCache::silent_loss_audit

use crate::clock::ClockMode;
use crate::error::SimError;
use crate::fault::{drive, ChurnConfig, FaultAction, FaultPlan, OVERLOAD_WINDOW};
use crate::net::NetworkModel;
use std::fmt::Write as _;
use webcache_primitives::seed::{derive_indexed, SeedStream};
use webcache_workload::Trace;

/// Configuration of one chaos exploration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Random plans to generate and run.
    pub plans: usize,
    /// Master seed; plan `i` derives its own stream from it.
    pub seed: u64,
    /// Requests per plan (kept small — each plan is a full drive).
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
    /// Leaf-set replication factor `k`.
    pub replication: usize,
    /// Upper bound on scheduled events per generated plan.
    pub max_events: usize,
    /// Probability that a plan schedules a partition/heal pair (1.0
    /// forces one into every plan — the CI partition smoke uses that).
    pub partition_prob: f64,
    /// Probability that a plan turns machines hostile (free-riders,
    /// receipt forgers, garbage responders; 1.0 forces adversaries into
    /// every plan — the CI adversary smoke uses that).
    pub adversary_prob: f64,
    /// Store-receipt audit probability for adversarial plans (the
    /// spot-check defense the quarantine oracle audits).
    pub audit_rate: f64,
    /// Probability that a plan schedules a flash-crowd spike (1.0 forces
    /// one into every plan — the CI overload smoke uses that). About
    /// half of flash plans also arm the overload defenses, so the
    /// stability oracle walks both sides of the metastability boundary.
    pub flash_prob: f64,
    /// Probability that a plan schedules a correlated failure — a
    /// `domainfail@N:D` over freshly carved failure domains, or a
    /// `burst@N:K` of simultaneous crashes (1.0 forces one into every
    /// plan — the CI durability smoke uses that). About half of burst
    /// plans also arm the proactive repair pacer, so the no-silent-loss
    /// oracle walks both reactive and proactive recovery.
    pub burst_prob: f64,
    /// Latency model.
    pub net: NetworkModel,
    /// Clock mode every plan's drive runs under.
    pub clock: ClockMode,
    /// Test-only: plant a ghost directory entry in every plan that
    /// schedules a crash, so the oracles *must* fire and the shrinker
    /// *must* reduce the plan — the explorer validating itself.
    pub sabotage: bool,
}

impl Default for ChaosConfig {
    /// Small per-plan drives so hundreds of plans fit in a CI smoke run.
    fn default() -> Self {
        ChaosConfig {
            plans: 200,
            seed: 42,
            requests: 2_500,
            distinct_objects: 400,
            trace_clients: 16,
            clients_per_cluster: 16,
            proxy_capacity: 50,
            client_cache_capacity: 4,
            replication: 2,
            max_events: 6,
            partition_prob: 0.5,
            adversary_prob: 0.25,
            audit_rate: 0.3,
            flash_prob: 0.25,
            burst_prob: 0.25,
            net: NetworkModel::default(),
            clock: ClockMode::default(),
            sabotage: false,
        }
    }
}

impl ChaosConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.plans == 0 {
            return Err(SimError::InvalidConfig("plans must be positive".into()));
        }
        for (name, p) in [
            ("partition_prob", self.partition_prob),
            ("adversary_prob", self.adversary_prob),
            ("flash_prob", self.flash_prob),
            ("burst_prob", self.burst_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidConfig(format!("{name} must be in [0, 1]")));
            }
        }
        // Everything a drill needs of this configuration — sizes,
        // replication, audit rate, latency model — is the drill's to check.
        self.churn(&FaultPlan::none()).validate()
    }

    /// The churn-drill view of this configuration with `plan` installed.
    fn churn(&self, plan: &FaultPlan) -> ChurnConfig {
        ChurnConfig {
            requests: self.requests,
            distinct_objects: self.distinct_objects,
            trace_clients: self.trace_clients,
            clients_per_cluster: self.clients_per_cluster,
            proxy_capacity: self.proxy_capacity,
            client_cache_capacity: self.client_cache_capacity,
            replication: self.replication,
            trace_seed: derive_indexed(self.seed, "chaos-trace", 0),
            net: self.net,
            plan: plan.clone(),
            clock: self.clock,
            audit_rate: self.audit_rate,
            audit_strikes: 3,
            blind_placement: false,
        }
    }
}

/// One failing plan: what fired, and what it shrank to.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosFailure {
    /// Index of the generated plan (regenerable from the master seed).
    pub plan_index: u64,
    /// The original failing plan, in spec grammar.
    pub spec: String,
    /// Oracle findings on the original plan.
    pub violations: Vec<String>,
    /// The minimal reproducer the shrinker reached, in spec grammar.
    pub shrunk_spec: String,
    /// Oracle findings on the shrunk plan (still non-empty by
    /// construction).
    pub shrunk_violations: Vec<String>,
    /// Candidate runs the shrinker spent.
    pub shrink_runs: u64,
}

/// What a chaos exploration found.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// Plans generated and run.
    pub plans: u64,
    /// Master seed.
    pub seed: u64,
    /// Plans whose oracles all passed.
    pub passed: u64,
    /// Failing plans, each with its shrunk reproducer.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// True when every plan passed every oracle.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as a JSON document (hand-rolled: the offline
    /// build has no JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"plans\": {},", self.plans);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"passed\": {},", self.passed);
        let _ = writeln!(s, "  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"plan_index\": {},", f.plan_index);
            let _ = writeln!(s, "      \"spec\": \"{}\",", f.spec);
            let _ = writeln!(s, "      \"shrunk_spec\": \"{}\",", f.shrunk_spec);
            let _ = writeln!(s, "      \"shrink_runs\": {},", f.shrink_runs);
            s.push_str("      \"violations\": [");
            for (j, v) in f.violations.iter().enumerate() {
                let _ = write!(s, "{}\"{}\"", if j == 0 { "" } else { ", " }, v.replace('"', "'"));
            }
            s.push_str("]\n");
            let _ = writeln!(s, "    }}{}", if i + 1 == self.failures.len() { "" } else { "," });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders an aligned text summary for terminals.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<16} {:>8}", "plans", self.plans);
        let _ = writeln!(s, "{:<16} {:>8}", "passed", self.passed);
        let _ = writeln!(s, "{:<16} {:>8}", "failures", self.failures.len());
        for f in &self.failures {
            let _ = writeln!(s);
            let _ = writeln!(s, "plan #{} FAILED: {}", f.plan_index, f.spec);
            for v in &f.violations {
                let _ = writeln!(s, "  - {v}");
            }
            let _ = writeln!(s, "  shrunk ({} runs) to: {}", f.shrink_runs, f.shrunk_spec);
        }
        s
    }
}

/// Generates plan `i` of the exploration — pure function of the master
/// seed, so any failing index can be regenerated without storage.
pub fn generate_plan(cfg: &ChaosConfig, index: u64) -> FaultPlan {
    let mut draws = SeedStream::new(derive_indexed(cfg.seed, "chaos-plan", index));
    let mut plan = FaultPlan::none();
    plan.seed = draws.next_u64();

    let n_events = (draws.next_u64() as usize) % (cfg.max_events + 1);
    for _ in 0..n_events {
        let action = match draws.next_u64() % 4 {
            0 => FaultAction::Crash,
            1 => FaultAction::Depart,
            2 => FaultAction::Rejoin,
            _ => FaultAction::Slow,
        };
        let at = draws.next_u64() % cfg.requests.max(1) as u64;
        plan.push(at, action);
    }
    // Each fault dimension switches on independently (~40%), with a
    // magnitude low enough that most plans finish their drive in normal
    // operating range and high enough to exercise retry exhaustion.
    for p in [&mut plan.loss, &mut plan.mloss, &mut plan.dup, &mut plan.reorder, &mut plan.corrupt]
    {
        if draws.unit() < 0.4 {
            *p = draws.unit() * 0.3;
        }
    }
    // A partition/heal pair, in `partition_prob` of plans. These draws
    // come after everything above, so a pre-partition exploration at the
    // same master seed regenerates its plans bit-identically. The cut
    // lands in the first half of the trace and the heal a bounded span
    // later: most plans also exercise post-heal traffic.
    if draws.unit() < cfg.partition_prob {
        let half = (cfg.requests as u64 / 2).max(1);
        let cut_at = draws.next_u64() % half;
        let span = 1 + draws.next_u64() % half;
        let pct = 10 + (draws.next_u64() % 81) as u8;
        let heal_at = (cut_at + span).clamp(cut_at + 1, cfg.requests as u64);
        plan.push(cut_at, FaultAction::Partition(pct));
        plan.push(heal_at, FaultAction::Heal);
    }
    // Adversaries, in `adversary_prob` of plans. These draws come after
    // everything above (the partition pair included), so pre-adversary
    // explorations at the same master seed regenerate their plans
    // bit-identically. Up to three machines turn hostile, each early
    // enough in the trace to see real traffic afterwards.
    if draws.unit() < cfg.adversary_prob {
        let n = 1 + (draws.next_u64() as usize) % 3;
        let half = (cfg.requests as u64 / 2).max(1);
        for _ in 0..n {
            let kind = draws.next_u64() % 3;
            let at = draws.next_u64() % half;
            let action = match kind {
                0 => FaultAction::FreeRide,
                1 => FaultAction::Forge(1 + (draws.next_u64() % 1000) as u16),
                _ => FaultAction::Garble(1 + (draws.next_u64() % 1000) as u16),
            };
            plan.push(at, action);
        }
    }
    // Flash crowds, in `flash_prob` of plans. These draws come strictly
    // after everything above (the adversary batch included), so
    // pre-overload explorations at the same master seed regenerate their
    // plans bit-identically. The spike lands in the first half so most
    // plans also exercise post-spike recovery; about half of flash plans
    // arm the overload defenses, walking both sides of the metastability
    // boundary.
    if draws.unit() < cfg.flash_prob {
        let half = (cfg.requests as u64 / 2).max(1);
        let at = draws.next_u64() % half;
        let span = (1 + draws.next_u64() % half) as u32;
        let times = 2 + (draws.next_u64() % 15) as u16;
        plan.push(at, FaultAction::Spike { span, times });
        if draws.coin() == 1 {
            plan.shed_high = 8 + draws.next_u64() % 57;
            plan.shed_low = plan.shed_high / 4;
            plan.breaker = 2 + (draws.next_u64() % 6) as u32;
            plan.budget = 0.05 + draws.unit() * 0.45;
        }
    }
    // Correlated failures, in `burst_prob` of plans. These draws come
    // strictly after everything above (the flash block included), so
    // pre-durability explorations at the same master seed regenerate
    // their plans bit-identically. The failure lands in the first half
    // so most plans also exercise post-loss recovery; about half of
    // burst plans arm the proactive repair pacer, walking both reactive
    // and proactive recovery past the no-silent-loss oracle.
    if draws.unit() < cfg.burst_prob {
        let half = (cfg.requests as u64 / 2).max(1);
        let at = draws.next_u64() % half;
        if draws.coin() == 1 {
            plan.domains = 2 + (draws.next_u64() % 7) as u32;
            let doomed = (draws.next_u64() % u64::from(plan.domains)) as u32;
            plan.push(at, FaultAction::DomainFail(doomed));
        } else {
            let k = 2 + (draws.next_u64() % 4) as u32;
            plan.push(at, FaultAction::Burst(k));
        }
        if draws.coin() == 1 {
            plan.repair = 2 + (draws.next_u64() % 15) as u32;
        }
    }
    plan
}

/// Runs the nine oracles against one driven plan. Returns findings
/// (empty = all green).
fn run_oracles(
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    trace: &Trace,
) -> Result<Vec<String>, SimError> {
    let churn = cfg.churn(plan);
    churn.validate()?;
    let (out, mut engine) = drive(&churn, trace, plan)?;
    if cfg.sabotage && plan.count(FaultAction::Crash) > 0 {
        // The planted bug: a directory entry with no backing copy, only
        // in plans that schedule a crash — so the minimal reproducer is
        // a single crash event.
        engine.cluster_mut(0).0.debug_plant_ghost_entry(0xBAD_C0DE);
    }
    let p2p = engine.p2p(0);
    let mut violations = Vec::new();

    // Oracle 1: structural reconciliation.
    for v in p2p.check_invariants() {
        violations.push(format!("structure: {v}"));
    }

    // Oracle 2: no object held as a primary by two machines at once
    // (a replica copy is listed as both `store` and `replica` at its
    // host, so primaries = store − replicas per node block).
    fn flush<'a>(
        store: &mut Vec<&'a str>,
        replicas: &mut std::collections::HashSet<&'a str>,
        primaries: &mut std::collections::HashMap<&'a str, u32>,
    ) {
        for obj in store.drain(..) {
            if !replicas.contains(obj) {
                *primaries.entry(obj).or_insert(0) += 1;
            }
        }
        replicas.clear();
    }
    let snapshot = p2p.contents_snapshot();
    let mut primaries: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    let mut store: Vec<&str> = Vec::new();
    let mut replicas: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for line in snapshot.lines() {
        if let Some(obj) = line.strip_prefix("  store ") {
            store.push(obj);
        } else if let Some(obj) = line.strip_prefix("  replica ") {
            replicas.insert(obj);
        } else {
            flush(&mut store, &mut replicas, &mut primaries);
        }
    }
    flush(&mut store, &mut replicas, &mut primaries);
    for (obj, n) in primaries {
        if n > 1 {
            violations.push(format!("duplicate: object {obj} is a primary on {n} machines"));
        }
    }

    // Oracle 3: replica floor, only meaningful while membership held
    // still (lazy repair legitimately lags under churn). Partition/heal
    // pairs count as stable: the heal sweep rebuilds every floor fresh
    // against the merged ring.
    // Adversary plans are non-stable too: a quarantine expels the node
    // mid-run, and lazy repair legitimately lags behind the expulsion.
    let stable = plan.events.iter().all(|e| {
        matches!(e.action, FaultAction::Slow | FaultAction::Partition(_) | FaultAction::Heal)
    });
    if stable {
        for v in p2p.check_replica_floor() {
            violations.push(format!("replica_floor: {v}"));
        }
    }

    // Oracle 4: counter conservation.
    let issued = plan.served(cfg.requests as u64);
    let by_class: u64 = crate::net::HitClass::ALL.iter().map(|c| out.metrics.count(*c)).sum();
    if by_class != out.metrics.requests {
        violations.push(format!(
            "conservation: per-class serves sum to {by_class} but {} requests recorded",
            out.metrics.requests
        ));
    }
    if out.detections.len() as u64 + out.undetected != out.crashes {
        violations.push(format!(
            "conservation: {} detected + {} undetected != {} crashes",
            out.detections.len(),
            out.undetected,
            out.crashes
        ));
    }
    if out.snapshot.stale_lookups > out.snapshot.lookups {
        violations.push(format!(
            "conservation: {} stale lookups exceed {} lookups",
            out.snapshot.stale_lookups, out.snapshot.lookups
        ));
    }
    if out.snapshot.dead_node_timeouts > out.snapshot.timeouts {
        violations.push(format!(
            "conservation: {} dead-node timeouts exceed {} timeouts",
            out.snapshot.dead_node_timeouts, out.snapshot.timeouts
        ));
    }

    // Oracle 5: total availability.
    if out.metrics.requests != issued {
        violations.push(format!(
            "availability: served {} of {issued} issued requests",
            out.metrics.requests
        ));
    }

    // Oracle 6: post-heal convergence — the drive auto-heals any open
    // cut, so by now the reconciled directory must equal a single-
    // authority rebuild from the resident stores.
    for v in p2p.directory_divergence() {
        violations.push(format!("convergence: {v}"));
    }

    // Oracle 7: quarantine soundness. The audit defense may only expel
    // machines that actually misbehaved, and an expelled machine must
    // be fully out of the overlay (its directory poison purged — the
    // structure and convergence oracles cover the entries themselves).
    // Without adversaries there must be no audit traffic at all.
    if plan.has_adversary() {
        for q in p2p.quarantined_ids() {
            if !p2p.behavior_of(q).is_misbehaving() {
                violations.push(format!("quarantine: honest node {q} was quarantined"));
            }
            if p2p.node_ids().any(|n| n == q) {
                violations.push(format!("quarantine: expelled node {q} is still a member"));
            }
        }
        if out.snapshot.quarantines == 0 && !p2p.quarantined_ids().is_empty() {
            violations.push(
                "quarantine: nodes are quarantined but no quarantine event was recorded".into(),
            );
        }
    } else if out.snapshot.audits_challenged != 0 || out.snapshot.quarantines != 0 {
        violations.push(format!(
            "quarantine: adversary-free plan produced {} audits and {} quarantines",
            out.snapshot.audits_challenged, out.snapshot.quarantines
        ));
    }

    // Oracle 8: overload stability. After a flash crowd ends the system
    // must return to its pre-spike operating point — a run that stays
    // degraded once the load is gone is metastable, the classic
    // overload failure mode the defenses exist to rule out.
    if plan.has_spike() {
        // Both checks apply only when bounded recovery is actually the
        // contract: the plan's scheduled events are spikes alone (a
        // crash, slow mark or adversary legitimately elevates the tail
        // or keeps the system saturated forever) and a shed defense is
        // armed (an undefended plan has no bounded-recovery contract —
        // that gap is exactly what `webcache overload` measures).
        let only_spikes = plan.events.iter().all(|e| matches!(e.action, FaultAction::Spike { .. }));
        let first_at = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Spike { .. }))
            .map(|e| e.at)
            .min()
            .unwrap_or(0);
        let spike_end = plan
            .events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Spike { span, .. } => Some(e.at + u64::from(span)),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let win = OVERLOAD_WINDOW as u64;
        // (a) On a transport-fault-free plan the post-spike offered
        //     load is structurally serviceable: with arrivals back to
        //     one per round and no retry stalls, the backlog drains,
        //     so shed hysteresis still engaged at the end of the run
        //     means the defense itself got stuck in the degraded
        //     regime. Transport faults exempt the check — sustained
        //     retry stalls can legitimately hold service time above
        //     the arrival gap with no spike at all.
        if plan.shed_high > 0
            && only_spikes
            && !plan.has_transport()
            && plan.loss <= 0.0
            && spike_end + win / 2 <= issued
            && out.end_shedding
        {
            violations.push(
                "stability: load shedding still engaged at end of run (post-spike \
                 operation never returned to baseline)"
                    .into(),
            );
        }
        // (b) Windowed recovery, where the trace leaves room to judge
        //     it: a shed defense bounds the backlog, so once the spike
        //     is well past, the tail window's mean latency must sit
        //     back at the pre-spike baseline. Stationary transport
        //     faults are fine here — they elevate baseline and tail
        //     alike.
        let baseline_windows = ((first_at / win) as usize).min(out.windows.len());
        let full = (issued / win) as usize;
        if plan.shed_high > 0 && only_spikes && baseline_windows >= 1 && full >= 1 {
            let tail_start = (full as u64 - 1) * win;
            if tail_start >= spike_end + win / 2 && full <= out.windows.len() {
                let base = &out.windows[..baseline_windows];
                let base_reqs: u64 = base.iter().map(|w| w.requests).sum();
                let base_lat: u64 = base.iter().map(|w| w.latency_milli_sum).sum();
                let baseline = base_lat.checked_div(base_reqs).unwrap_or(0);
                let tail = &out.windows[full - 1];
                let tail_mean = tail.latency_milli_sum.checked_div(tail.requests).unwrap_or(0);
                let bound = baseline + baseline / 4 + 250;
                if baseline > 0 && tail_mean > bound {
                    violations.push(format!(
                        "stability: tail window mean latency {tail_mean} milli never \
                         recovered to the pre-spike baseline {baseline} milli (bound \
                         {bound}) after the flash crowd ended at request {spike_end}"
                    ));
                }
            }
        }
    }

    // Oracle 9: no silent loss. Runs unconditionally — the guarantee is
    // not gated on the durability knobs. Every object the cluster can no
    // longer recover must have been ledgered (`objects_lost` plus an
    // `ObjectLost` event) exactly once, and the event stream the
    // recorder saw must agree with the cache's own ledger. End-state
    // conservation in one line: nothing vanishes off the books.
    for v in p2p.silent_loss_audit() {
        violations.push(format!("silent_loss: {v}"));
    }
    let ledger_lost = p2p.ledger().objects_lost;
    if out.snapshot.objects_lost_permanent != ledger_lost {
        violations.push(format!(
            "silent_loss: recorder saw {} ObjectLost events but the ledger counts {}",
            out.snapshot.objects_lost_permanent, ledger_lost
        ));
    }

    Ok(violations)
}

/// Candidate-run budget per shrink (the shrinker stops improving once
/// spent; each candidate is a full drive).
const SHRINK_BUDGET: u64 = 128;

/// One shrink pass: `candidates(best, position, requests)` lists the
/// simpler plans to try at `position` of the pass's walk (no candidates:
/// nothing to simplify there), or `None` once the walk is over.
struct Pass {
    /// After adopting a candidate, try the same position again — it now
    /// holds something new (the next event, or the same event ready to
    /// be softened once more) — instead of moving on.
    stay: bool,
    candidates: fn(&FaultPlan, usize, u64) -> Option<Vec<FaultPlan>>,
}

/// The passes, in the order each round of [`shrink`] runs them.
const PASSES: [Pass; 8] = [
    Pass { stay: true, candidates: drop_event },
    Pass { stay: false, candidates: weaken_probability },
    Pass { stay: true, candidates: narrow_partition },
    Pass { stay: true, candidates: |best, i, _| soften_event(best, i, halve_rate) },
    Pass { stay: true, candidates: |best, i, _| soften_event(best, i, narrow_spike) },
    Pass { stay: false, candidates: disarm_defense },
    Pass { stay: true, candidates: |best, i, _| soften_event(best, i, halve_burst) },
    Pass { stay: false, candidates: relax_durability_and_window },
];

/// `best` after `edit`.
fn edited(best: &FaultPlan, edit: impl FnOnce(&mut FaultPlan)) -> FaultPlan {
    let mut candidate = best.clone();
    edit(&mut candidate);
    candidate
}

/// Drop each scheduled event in turn.
fn drop_event(best: &FaultPlan, i: usize, _: u64) -> Option<Vec<FaultPlan>> {
    (i < best.events.len()).then(|| {
        vec![edited(best, |c| {
            c.events.remove(i);
        })]
    })
}

/// Zero, then halve, each fault probability.
fn weaken_probability(best: &FaultPlan, i: usize, _: u64) -> Option<Vec<FaultPlan>> {
    let p = *best.keys_only().probability(i)?;
    let with = |v: f64| edited(best, |c| *c.probability(i).expect("read just above") = v);
    Some(if p > 0.0 { vec![with(0.0), with(p / 2.0)] } else { Vec::new() })
}

/// Narrow each partition's span — pull the heal halfway toward its cut.
/// A shorter split that still fails is a strictly simpler reproducer
/// (less divergence to wade through).
fn narrow_partition(best: &FaultPlan, i: usize, _: u64) -> Option<Vec<FaultPlan>> {
    let cut = best.events.get(i)?;
    let heal = best.events.iter().position(|e| e.action == FaultAction::Heal && e.at > cut.at + 1);
    let (FaultAction::Partition(_), Some(heal)) = (cut.action, heal) else {
        return Some(Vec::new());
    };
    Some(vec![edited(best, |c| {
        c.events[heal].at = cut.at + (best.events[heal].at - cut.at) / 2;
        c.events.sort_by_key(|e| e.at);
    })])
}

/// The candidate of a per-event pass: event `i` softened, if `soften`
/// has anything left to take from it.
fn soften_event(
    best: &FaultPlan,
    i: usize,
    soften: fn(FaultAction) -> Option<FaultAction>,
) -> Option<Vec<FaultPlan>> {
    let softer = soften(best.events.get(i)?.action);
    Some(softer.map(|action| edited(best, |c| c.events[i].action = action)).into_iter().collect())
}

/// Halve adversary rates — a weaker forger or garbler that still trips
/// the oracles is a strictly simpler reproducer (fewer hostile acts to
/// wade through in the event log).
fn halve_rate(action: FaultAction) -> Option<FaultAction> {
    match action {
        FaultAction::Forge(pm) if pm > 1 => Some(FaultAction::Forge(pm / 2)),
        FaultAction::Garble(pm) if pm > 1 => Some(FaultAction::Garble(pm / 2)),
        _ => None,
    }
}

/// Narrow flash crowds — halve each spike's span, then its intensity
/// (floored at the grammar's 2× minimum). A shorter or gentler crowd
/// that still trips the oracles is a strictly simpler metastability
/// reproducer.
fn narrow_spike(action: FaultAction) -> Option<FaultAction> {
    match action {
        FaultAction::Spike { span, times } if span > 1 => {
            Some(FaultAction::Spike { span: span / 2, times })
        }
        FaultAction::Spike { span, times } if times > 2 => {
            Some(FaultAction::Spike { span, times: (times / 2).max(2) })
        }
        _ => None,
    }
}

/// Disarm each overload-defense knob in turn — a failure that survives
/// without the defense was never about the defense.
fn disarm_defense(best: &FaultPlan, knob: usize, _: u64) -> Option<Vec<FaultPlan>> {
    let candidate = match knob {
        0 => (best.breaker > 0).then(|| edited(best, |c| c.breaker = 0)),
        1 => (best.budget > 0.0).then(|| edited(best, |c| c.budget = 0.0)),
        2 => (best.shed_high > 0).then(|| edited(best, |c| (c.shed_high, c.shed_low) = (0, 0))),
        _ => return None,
    };
    Some(candidate.into_iter().collect())
}

/// Soften correlated failures — halve each burst's size (floored at the
/// grammar's 2 minimum). A smaller blast radius that still trips the
/// oracles is a strictly simpler reproducer.
fn halve_burst(action: FaultAction) -> Option<FaultAction> {
    match action {
        FaultAction::Burst(k) if k > 2 => Some(FaultAction::Burst((k / 2).max(2))),
        _ => None,
    }
}

/// The rest of the correlated-failure softening — double the domain
/// count (shrinking the doomed domain's share of the cluster), disarm
/// the repair pacer, drop a dangling `domains=` key once no domainfail
/// remains — and last, narrow the request window to just past the last
/// event.
fn relax_durability_and_window(
    best: &FaultPlan,
    step: usize,
    requests: u64,
) -> Option<Vec<FaultPlan>> {
    let has_domainfail = best.events.iter().any(|e| matches!(e.action, FaultAction::DomainFail(_)));
    let candidate = match step {
        0 => (has_domainfail && best.domains > 0 && best.domains <= 32)
            .then(|| edited(best, |c| c.domains *= 2)),
        1 => (best.repair > 0).then(|| edited(best, |c| c.repair = 0)),
        2 => (!has_domainfail && best.domains > 0).then(|| edited(best, |c| c.domains = 0)),
        3 => {
            let narrowed = best.events.iter().map(|e| e.at).max().map(|last_at| last_at + 64);
            narrowed.filter(|&n| n < best.served(requests)).map(|n| edited(best, |c| c.window = n))
        }
        _ => return None,
    };
    Some(candidate.into_iter().collect())
}

/// Minimizes a failing plan: round after round of the `PASSES`, adopting
/// any candidate that still fails, until a round improves nothing or the
/// budget runs out. Returns the shrunk plan, its findings, and the runs
/// spent.
pub fn shrink(
    cfg: &ChaosConfig,
    trace: &Trace,
    failing: &FaultPlan,
) -> Result<(FaultPlan, Vec<String>, u64), SimError> {
    let mut best = failing.clone();
    let mut best_violations = run_oracles(cfg, &best, trace)?;
    debug_assert!(!best_violations.is_empty(), "shrink() needs a failing plan");
    let mut runs = 0u64;
    let mut improved = true;
    while improved && runs < SHRINK_BUDGET {
        improved = false;
        for pass in &PASSES {
            let mut position = 0;
            while let Some(candidates) = (pass.candidates)(&best, position, cfg.requests as u64) {
                let mut adopted = false;
                for candidate in candidates {
                    if runs >= SHRINK_BUDGET {
                        break;
                    }
                    runs += 1;
                    let violations = run_oracles(cfg, &candidate, trace)?;
                    if !violations.is_empty() {
                        (best, best_violations) = (candidate, violations);
                        adopted = true;
                        break;
                    }
                }
                improved |= adopted;
                if !(adopted && pass.stay) {
                    position += 1;
                }
            }
        }
    }
    Ok((best, best_violations, runs))
}

/// Runs the full exploration: generate `cfg.plans` seeded plans, drive
/// each, audit with the oracles, and shrink every failure to a minimal
/// replayable spec.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, SimError> {
    cfg.validate()?;
    let trace = cfg.churn(&FaultPlan::none()).trace();

    let mut report =
        ChaosReport { plans: cfg.plans as u64, seed: cfg.seed, passed: 0, failures: Vec::new() };
    for index in 0..cfg.plans as u64 {
        let plan = generate_plan(cfg, index);
        let violations = run_oracles(cfg, &plan, &trace)?;
        if violations.is_empty() {
            report.passed += 1;
            continue;
        }
        let (shrunk, shrunk_violations, shrink_runs) = shrink(cfg, &trace, &plan)?;
        report.failures.push(ChaosFailure {
            plan_index: index,
            spec: plan.to_spec(),
            violations,
            shrunk_spec: shrunk.to_spec(),
            shrunk_violations,
            shrink_runs,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ChaosConfig {
        // Tiny drives: the unit tests exercise the machinery, not scale.
        ChaosConfig {
            plans: 12,
            requests: 600,
            distinct_objects: 120,
            clients_per_cluster: 12,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn plan_generation_is_deterministic_and_varied() {
        let cfg = quick_cfg();
        let a: Vec<FaultPlan> = (0..8).map(|i| generate_plan(&cfg, i)).collect();
        let b: Vec<FaultPlan> = (0..8).map(|i| generate_plan(&cfg, i)).collect();
        assert_eq!(a, b);
        // Not all plans identical, and events land inside the trace.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
        for plan in &a {
            // A partition pair (+2), an adversary batch (+3), a flash
            // crowd (+1) and a correlated failure (+1) ride on top of
            // the base event budget.
            assert!(plan.events.len() <= cfg.max_events + 7);
            for e in &plan.events {
                assert!(e.at < cfg.requests as u64);
            }
            for p in [plan.loss, plan.mloss, plan.dup, plan.reorder, plan.corrupt] {
                assert!((0.0..1.0).contains(&p));
            }
        }
    }

    #[test]
    fn generated_plans_round_trip_their_spec() {
        let cfg = quick_cfg();
        for i in 0..8 {
            let plan = generate_plan(&cfg, i);
            let reparsed: FaultPlan = plan.to_spec().parse().expect("generated spec parses");
            assert_eq!(reparsed.events, plan.events, "plan {i}");
            assert_eq!(reparsed.seed, plan.seed, "plan {i}");
        }
    }

    #[test]
    fn healthy_exploration_is_all_green() {
        let report = run_chaos(&quick_cfg()).expect("chaos runs");
        assert!(report.all_green(), "unexpected failures: {:#?}", report.failures);
        assert_eq!(report.passed, report.plans);
    }

    #[test]
    fn forced_partitions_pair_every_plan_and_stay_green() {
        let cfg = ChaosConfig { partition_prob: 1.0, ..quick_cfg() };
        for i in 0..cfg.plans as u64 {
            let plan = generate_plan(&cfg, i);
            assert!(plan.has_partition(), "plan {i} must schedule a cut");
            let cut_at = plan
                .events
                .iter()
                .find(|e| matches!(e.action, FaultAction::Partition(_)))
                .map(|e| e.at)
                .unwrap();
            assert!(
                plan.events.iter().any(|e| e.action == FaultAction::Heal && e.at > cut_at),
                "plan {i} must schedule a heal after its cut: {}",
                plan.to_spec()
            );
        }
        let report = run_chaos(&cfg).expect("chaos runs");
        assert!(report.all_green(), "unexpected failures: {:#?}", report.failures);
    }

    #[test]
    fn zero_partition_prob_generates_no_cuts() {
        let cfg = ChaosConfig { partition_prob: 0.0, ..quick_cfg() };
        for i in 0..32 {
            assert!(!generate_plan(&cfg, i).has_partition());
        }
    }

    #[test]
    fn forced_adversaries_infest_every_plan_and_stay_green() {
        let cfg = ChaosConfig { adversary_prob: 1.0, ..quick_cfg() };
        for i in 0..cfg.plans as u64 {
            let plan = generate_plan(&cfg, i);
            assert!(plan.has_adversary(), "plan {i} must schedule an adversary");
            // Forge/garble rates must survive the spec round trip.
            let reparsed: FaultPlan = plan.to_spec().parse().expect("adversary spec parses");
            assert_eq!(reparsed.events, plan.events, "plan {i}: {}", plan.to_spec());
        }
        let report = run_chaos(&cfg).expect("chaos runs");
        assert!(report.all_green(), "unexpected failures: {:#?}", report.failures);
    }

    #[test]
    fn zero_adversary_prob_generates_no_adversaries() {
        let cfg = ChaosConfig { adversary_prob: 0.0, ..quick_cfg() };
        for i in 0..32 {
            assert!(!generate_plan(&cfg, i).has_adversary());
        }
    }

    #[test]
    fn forced_flash_crowds_spike_every_plan_and_stay_green() {
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let cfg = ChaosConfig { flash_prob: 1.0, clock, ..quick_cfg() };
            for i in 0..cfg.plans as u64 {
                let plan = generate_plan(&cfg, i);
                assert!(plan.has_spike(), "plan {i} must schedule a spike");
                // Spike spans and defense keys must survive the round trip.
                let reparsed: FaultPlan = plan.to_spec().parse().expect("flash spec parses");
                assert_eq!(reparsed, plan, "plan {i}: {}", plan.to_spec());
            }
            let report = run_chaos(&cfg).expect("chaos runs");
            assert!(report.all_green(), "unexpected {clock:?} failures: {:#?}", report.failures);
        }
    }

    #[test]
    fn zero_flash_prob_generates_no_spikes_or_defenses() {
        let cfg = ChaosConfig { flash_prob: 0.0, ..quick_cfg() };
        for i in 0..32 {
            let plan = generate_plan(&cfg, i);
            assert!(!plan.has_spike());
            assert!(!plan.has_overload_defense());
        }
    }

    #[test]
    fn forced_bursts_hit_every_plan_and_stay_green() {
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let cfg = ChaosConfig { burst_prob: 1.0, clock, ..quick_cfg() };
            for i in 0..cfg.plans as u64 {
                let plan = generate_plan(&cfg, i);
                assert!(plan.has_durability(), "plan {i} must schedule a correlated failure");
                assert!(
                    plan.events.iter().any(|e| matches!(
                        e.action,
                        FaultAction::DomainFail(_) | FaultAction::Burst(_)
                    )),
                    "plan {i}: {}",
                    plan.to_spec()
                );
                // Domain counts, burst sizes and the repair knob must
                // survive the spec round trip.
                let reparsed: FaultPlan = plan.to_spec().parse().expect("burst spec parses");
                assert_eq!(reparsed, plan, "plan {i}: {}", plan.to_spec());
            }
            let report = run_chaos(&cfg).expect("chaos runs");
            assert!(report.all_green(), "unexpected {clock:?} failures: {:#?}", report.failures);
        }
    }

    #[test]
    fn zero_burst_prob_generates_no_correlated_failures() {
        let cfg = ChaosConfig { burst_prob: 0.0, ..quick_cfg() };
        for i in 0..32 {
            let plan = generate_plan(&cfg, i);
            assert_eq!(plan.domains, 0);
            assert_eq!(plan.repair, 0);
            assert!(!plan
                .events
                .iter()
                .any(|e| matches!(e.action, FaultAction::DomainFail(_) | FaultAction::Burst(_))));
        }
    }

    #[test]
    fn sabotage_is_caught_and_shrinks_to_a_minimal_crash_plan() {
        let cfg = ChaosConfig { sabotage: true, ..quick_cfg() };
        let report = run_chaos(&cfg).expect("chaos runs");
        assert!(!report.all_green(), "sabotage must trip the structure oracle");
        for f in &report.failures {
            // The planted ghost entry fires only with a crash scheduled,
            // so the minimal reproducer is exactly one crash and no
            // fault probabilities.
            let shrunk: FaultPlan = f.shrunk_spec.parse().expect("shrunk spec replays");
            assert_eq!(shrunk.count(FaultAction::Crash), 1, "shrunk: {}", f.shrunk_spec);
            assert_eq!(shrunk.events.len(), 1, "shrunk: {}", f.shrunk_spec);
            assert_eq!(shrunk.loss, 0.0);
            assert_eq!(shrunk.mloss, 0.0);
            assert!(!f.shrunk_violations.is_empty());
            assert!(f.shrink_runs > 0 && f.shrink_runs <= SHRINK_BUDGET);
            assert!(f.violations.iter().any(|v| v.starts_with("structure:")));
        }
    }

    #[test]
    fn shrunk_spec_replays_to_the_same_violation() {
        let cfg = ChaosConfig { sabotage: true, ..quick_cfg() };
        let report = run_chaos(&cfg).expect("chaos runs");
        let failure = report.failures.first().expect("sabotage produced a failure");
        let trace = cfg.churn(&FaultPlan::none()).trace();
        let shrunk: FaultPlan = failure.shrunk_spec.parse().expect("spec parses");
        let replayed = run_oracles(&cfg, &shrunk, &trace).expect("replay runs");
        assert_eq!(replayed, failure.shrunk_violations, "replay must be deterministic");
    }

    #[test]
    fn report_renders_json_and_table() {
        let cfg = ChaosConfig { sabotage: true, plans: 6, ..quick_cfg() };
        let report = run_chaos(&cfg).expect("chaos runs");
        let json = report.to_json();
        assert!(json.contains("\"plans\": 6"));
        assert!(json.contains("\"failures\": ["));
        assert!(json.contains("\"shrunk_spec\""));
        let table = report.to_table();
        assert!(table.contains("failures"));
        assert!(table.contains("shrunk"));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = quick_cfg();
        cfg.plans = 0;
        assert!(run_chaos(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.replication = 0;
        assert!(run_chaos(&cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.partition_prob = 1.5;
        assert!(run_chaos(&cfg).is_err());
    }
}

/// Regression corpus: shrunk specs from real explorer finds, replayed
/// against the default chaos configuration. Each entry is the minimal
/// plan the shrinker produced for a bug that has since been fixed —
/// exactly the workflow the explorer exists for.
#[cfg(test)]
mod regressions {
    use super::*;
    use std::str::FromStr;

    /// Found by `webcache chaos --plans 200 --seed 42` (plan #126).
    /// A graceful departure handed its primaries off *before* rewiring
    /// the objects it had diverted to neighbor hosts; when a hand-off
    /// insertion evicted one of those diverted objects, the eviction
    /// bookkeeping could not reach the departed owner, so the late
    /// rewire resurrected the directory entry and re-tracked a replica
    /// set for an object no longer resident anywhere. Needs message
    /// loss to line the stores up — exactly the kind of state only a
    /// seeded explorer walks into.
    #[test]
    fn depart_handoff_eviction_of_diverted_object() {
        let cfg = ChaosConfig::default();
        let trace = cfg.churn(&FaultPlan::none()).trace();
        let plan = FaultPlan::from_str(concat!(
            "depart@765,rejoin@984,slow@1080,crash@1484,depart@2096,",
            "mloss=0.28660599939080533,window=2160,seed=6367027891551064294",
        ))
        .unwrap();
        let violations = run_oracles(&cfg, &plan, &trace).unwrap();
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    /// Found by the forced-adversary explorer test (adversary_prob 1.0,
    /// quick config). A garbler on the two-machine A side of a cut
    /// collected its third audit strike mid-partition; the quarantine
    /// expelled island A's last machine, so the next proxy destage
    /// routed across the cut and landed an object on an island-B store
    /// the B index had never seen. Quarantine now defers while the
    /// expulsion would empty island A, mirroring the crash/depart rule.
    #[test]
    fn quarantine_never_empties_island_a() {
        let cfg = ChaosConfig {
            plans: 1,
            requests: 600,
            distinct_objects: 120,
            clients_per_cluster: 12,
            ..ChaosConfig::default()
        };
        let trace = cfg.churn(&FaultPlan::none()).trace();
        let plan = FaultPlan::from_str(
            "garble@48:0.988,crash@85,partition@274{17|83},window=338,seed=8897274319915659806",
        )
        .unwrap();
        let violations = run_oracles(&cfg, &plan, &trace).unwrap();
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    /// Found by the repository benchmark's `fault_drill` checks (the
    /// `domain_repair` plan over other trace seeds). The repair scan
    /// resolved an entry's root with `root_of`, which skips crashed but
    /// undetected machines, and found the object "held" by a live node
    /// that only hosted it for such a dead root. The top-up then started
    /// a second replica set at the host; when the host evicted the
    /// object, only the dead root's set was dropped and the host's
    /// tracking outlived the object. A domain failure under a fast scan
    /// (`repair=64`) lines that up within a few thousand requests.
    #[test]
    fn repair_scan_leaves_entries_linked_under_an_undetected_corpse() {
        let cfg = ChaosConfig {
            plans: 1,
            requests: 40_000,
            distinct_objects: 5_000,
            trace_clients: 50,
            clients_per_cluster: 128,
            proxy_capacity: 100,
            ..ChaosConfig::default()
        };
        let trace = ChurnConfig { trace_seed: 3, ..cfg.churn(&FaultPlan::none()) }.trace();
        let plan =
            FaultPlan::from_str("domainfail@10000:3,domains=8,repair=64,seed=103,window=12000")
                .unwrap();
        let violations = run_oracles(&cfg, &plan, &trace).unwrap();
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    /// Found by `webcache chaos --plans 200 --seed 42 --adversary-prob 1`
    /// (plan #128; #151 under the event clock and `--partition-prob 1`
    /// #174 are the same bug). A 10|90 cut leaves one machine — the
    /// lowest cacheId — on the proxy's side; a fresh machine joins
    /// island A with an id above some of island B's; the original
    /// machine is then quarantined. Its clients were remapped to "the
    /// first live node", which is only on island A while A's members
    /// are the lowest ids: here it was an island-B machine, so proxy
    /// traffic entered across the cut and stored objects the B index
    /// had never seen.
    #[test]
    fn entry_points_stay_on_island_a_once_its_first_members_are_gone() {
        let cfg = ChaosConfig::default();
        let trace = cfg.churn(&FaultPlan::none()).trace();
        let plan = FaultPlan::from_str(concat!(
            "partition@131{10|90},freeride@586,rejoin@634,",
            "window=698,seed=15695897328332889789",
        ))
        .unwrap();
        let violations = run_oracles(&cfg, &plan, &trace).unwrap();
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }
}
