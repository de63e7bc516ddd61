//! The drive loop both clocks share: one engine, one trace, one plan.
//!
//! Faults are scheduled events on the time wheel, arrivals self-schedule
//! one round apart (closer inside a `spike@`), and every scheduled action
//! is applied to the cluster through
//! [`HierGdEngine::cluster_mut`] — the `P2PClientCache` operations
//! themselves, with the engine's recorder tap.

use super::{ChurnConfig, FaultAction, FaultEvent, FaultPlan};
use crate::clock::{ticks_of, ClockMode, SimClock, TICKS_PER_ROUND};
use crate::engine::{complete, Admission, SchemeEngine};
use crate::error::SimError;
use crate::event::Event;
use crate::hiergd::{HierGdEngine, HierGdOptions};
use crate::metrics::RunMetrics;
use crate::net::HitClass;
use crate::recorder::{Recorder, StatsRecorder, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use webcache_p2p::{Behavior, NetFaults, P2PClientCache};
use webcache_pastry::NodeId;
use webcache_primitives::seed::{derive, SeedStream};
use webcache_primitives::Log2Histogram;
use webcache_workload::Trace;

/// Requests per latency window in [`DriveOutcome::windows`]. Windows
/// bucket the trace by request index, so the overload harness can turn
/// one drive into a goodput/recovery curve without re-running it.
pub(crate) const OVERLOAD_WINDOW: usize = 512;

/// Per-window latency aggregates over the request-index axis.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WindowStat {
    /// Requests recorded into this window.
    pub(crate) requests: u64,
    /// Sum of end-to-end latencies in integer milli-units.
    pub(crate) latency_milli_sum: u64,
    /// Requests this window degraded straight to origin by shedding.
    pub(crate) degraded: u64,
}

/// Everything one driven run produced.
#[derive(Default)]
pub(crate) struct DriveOutcome {
    pub(crate) metrics: RunMetrics,
    pub(crate) snapshot: StatsSnapshot,
    pub(crate) crashes: u64,
    pub(crate) departures: u64,
    pub(crate) rejoins: u64,
    pub(crate) slows: u64,
    pub(crate) partitions: u64,
    pub(crate) heals: u64,
    pub(crate) freerides: u64,
    pub(crate) forges: u64,
    pub(crate) garbles: u64,
    pub(crate) quarantine_replacements: u64,
    pub(crate) skipped: u64,
    pub(crate) detections: Vec<u64>,
    pub(crate) undetected: u64,
    pub(crate) invariant_violations: u64,
    pub(crate) spikes: u64,
    pub(crate) shed_background: u64,
    pub(crate) degraded: u64,
    pub(crate) domainfails: u64,
    pub(crate) bursts: u64,
    /// Worst single-round at-risk gauge over the run.
    pub(crate) at_risk_peak: u64,
    /// Sum of the at-risk gauge over all rounds (vulnerability area).
    pub(crate) risk_area: u64,
    /// Rounds from each loss-capable fault to the gauge draining to 0.
    pub(crate) repair_rounds: Vec<u64>,
    /// True when the watermark hysteresis was still engaged at the end
    /// of the run — the stability oracle's stuck-degraded signal.
    pub(crate) end_shedding: bool,
    pub(crate) windows: Vec<WindowStat>,
    /// Per-request end-to-end latency in integer milli-units, as each
    /// request experienced it: the analytic price under the compat
    /// clock, wait + service under the event clock. The overload sweep
    /// reads its p99 — the recorder's own latency histogram prices at
    /// admission time and never sees queueing delay.
    pub(crate) measured_milli: Log2Histogram,
}

/// Debug aid for bisecting chaos failures down from an end-state oracle
/// to the first request (or fault action) that broke the structure: set
/// `CHAOS_DEBUG_INVARIANTS=1` and the drive panics at the first
/// violation instead of reporting it at the end. Checked once; the
/// per-request cost when unset is a single atomic load.
fn debug_invariants<R: Recorder>(engine: &HierGdEngine<R>, when: std::fmt::Arguments<'_>) {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *ON.get_or_init(|| std::env::var_os("CHAOS_DEBUG_INVARIANTS").is_some()) {
        let v = engine.p2p(0).check_invariants();
        assert!(v.is_empty(), "first violation {when}: {v:#?}");
    }
}

/// Drives one engine through the trace under `plan`, returning both what
/// it measured and the engine itself — the chaos explorer interrogates
/// the end state (invariants, replica floor, contents snapshot) after
/// the drive.
pub(crate) fn drive(
    cfg: &ChurnConfig,
    trace: &Trace,
    plan: &FaultPlan,
) -> Result<(DriveOutcome, HierGdEngine<Arc<StatsRecorder>>), SimError> {
    let recorder = Arc::new(StatsRecorder::new());
    let opts = HierGdOptions { replication: cfg.replication, ..HierGdOptions::default() };
    let mut engine = HierGdEngine::with_recorder(
        1,
        cfg.proxy_capacity.max(1),
        cfg.clients_per_cluster,
        cfg.client_cache_capacity.max(1),
        trace.num_objects,
        cfg.net,
        opts,
        Arc::clone(&recorder),
    );
    if plan.loss > 0.0 || !plan.events.is_empty() {
        engine.cluster_mut(0).0.set_faults(NetFaults::new(plan.loss, plan.seed));
    }
    if plan.has_transport() {
        engine.cluster_mut(0).0.set_transport(plan.transport_faults());
    }
    let adversarial = plan.has_adversary();
    if adversarial {
        // The adversary stream is label-separated from target selection,
        // per-hop loss and the transport, so arming the defense never
        // reshuffles which machines the other faults hit.
        let seed = derive(plan.seed, "adversary");
        engine.cluster_mut(0).0.enable_adversary(seed, cfg.audit_rate, cfg.audit_strikes);
    }
    if plan.breaker > 0 || plan.budget > 0.0 {
        // Breakers and budgets live in the transport; shedding is pure
        // drive-loop state. The defense stream is label-separated, so a
        // defended plan hits the same machines as its undefended twin.
        engine.cluster_mut(0).0.arm_overload_defense(plan.overload_defense());
    }
    if plan.domains > 0 {
        // The domain stream is label-separated from everything else, so
        // carving the cluster into domains never reshuffles which
        // machines the other faults hit — and the defended/naive pair of
        // a sweep differs only in the spread flag, not the assignment.
        let seed = derive(plan.seed, "domains");
        engine.cluster_mut(0).0.assign_domains(plan.domains, seed, !cfg.blind_placement);
    }
    let durability = plan.has_durability();

    // Target selection stream, decoupled from the loss stream so adding
    // loss never reshuffles which machines crash.
    let mut picks = SeedStream::new(plan.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut outstanding: BTreeMap<u128, u64> = BTreeMap::new();
    let mut out = DriveOutcome::default();

    let limit = plan.served(trace.requests.len() as u64) as usize;

    // Faults go on the time wheel up front: a fault at index `n` lands on
    // the same tick as arrival `n` but with a lower FIFO rank (it was
    // scheduled first), so it still fires *before* the request it gates —
    // exactly the pre-clock "apply before serving request `at`" order.
    let mut clock = SimClock::new(cfg.clock);
    for (n, ev) in plan.events.iter().enumerate() {
        if ev.at < limit as u64 {
            clock.schedule_at(ev.at * TICKS_PER_ROUND, Event::Fault { index: n });
        }
    }
    if limit > 0 {
        clock.schedule_at(0, Event::Arrival { proxy: 0, index: 0 });
    }
    // Event mode only: the proxy is busy until this tick.
    let mut next_free = 0u64;
    // Flash-crowd state: while the arrival index sits below `spike_until`
    // the next arrival self-schedules `spike_times`× closer than the
    // nominal one-round gap. Fault events keep their uncompressed tick
    // mapping (`at * TICKS_PER_ROUND`), so a second event scheduled
    // inside a compressed region fires at a later request index than its
    // nominal `at` — deterministic, and exactly what a flash crowd does
    // to a wall-clock schedule.
    let mut spike_until = 0u64;
    let mut spike_times = 1u64;
    // Watermark hysteresis: set above the high watermark, cleared below
    // the low one.
    let mut shedding = false;
    // Durability bookkeeping: the round of the last loss-capable fault
    // still awaiting the at-risk gauge draining to zero (MTTR sampling).
    let mut pending_repair_from: Option<u64> = None;

    while let Some(event) = clock.pop() {
        match event {
            Event::Fault { index } => {
                let FaultEvent { at, action } = plan.events[index];
                if let FaultAction::Spike { span, times } = action {
                    // Pure arrival-schedule state — overlapping spikes
                    // extend the window and the newest intensity wins.
                    spike_until = spike_until.max(at + u64::from(span));
                    spike_times = u64::from(times);
                    out.spikes += 1;
                } else {
                    apply_action(&mut engine, action, &mut picks, at, &mut outstanding, &mut out)?;
                    if durability
                        && matches!(
                            action,
                            FaultAction::Crash
                                | FaultAction::Depart
                                | FaultAction::DomainFail(_)
                                | FaultAction::Burst(_)
                        )
                    {
                        // MTTR measures from the *last* loss-capable
                        // fault: a fresh failure mid-repair restarts the
                        // exposure window.
                        pending_repair_from = Some(at);
                    }
                    debug_invariants(&engine, format_args!("after {action:?} at request {at}"));
                }
            }
            Event::Arrival { proxy: _, index: i } => {
                if i + 1 < limit {
                    let gap = if (i as u64) < spike_until {
                        (TICKS_PER_ROUND / spike_times).max(1)
                    } else {
                        TICKS_PER_ROUND
                    };
                    clock.schedule_in(gap, Event::Arrival { proxy: 0, index: i + 1 });
                }
                let req = &trace.requests[i];
                // Watermark load shedding: above `shed_high` rounds of
                // backlog the proxy stops admitting into the cache
                // fabric — the request generates no background work and
                // degrades straight to the origin server, without
                // occupying the proxy — until the backlog drains below
                // `shed_low`. Backlog only exists in event mode, so the
                // check is a no-op under the analytic clock.
                if plan.shed_high > 0 {
                    let backlog = next_free.saturating_sub(clock.now());
                    if backlog >= plan.shed_high * TICKS_PER_ROUND {
                        shedding = true;
                    } else if backlog <= plan.shed_low * TICKS_PER_ROUND {
                        shedding = false;
                    }
                }
                let admission = if shedding {
                    out.shed_background += 1;
                    out.degraded += 1;
                    Admission { class: HitClass::Server, stalls: 0 }
                } else {
                    engine.admit(0, req)
                };
                let latency = engine.price(&cfg.net, &admission);
                let recorded = match clock.mode() {
                    ClockMode::Compat => {
                        out.metrics.record(admission.class, latency);
                        latency
                    }
                    ClockMode::Event => {
                        // A shed request goes to the origin at once: it
                        // neither waits for the proxy nor occupies it.
                        let start = if shedding { clock.now() } else { clock.now().max(next_free) };
                        let (done, measured) =
                            complete(&mut clock, &cfg.net, 0, start, &admission, latency);
                        if !shedding {
                            next_free = done;
                        }
                        measured
                    }
                };
                let milli = (recorded * 1000.0).round() as u64;
                out.measured_milli.record(milli);
                let wi = i / OVERLOAD_WINDOW;
                if out.windows.len() <= wi {
                    out.windows.resize(wi + 1, WindowStat::default());
                }
                let w = &mut out.windows[wi];
                w.requests += 1;
                w.latency_milli_sum += milli;
                if shedding {
                    w.degraded += 1;
                    continue;
                }

                debug_invariants(&engine, format_args!("at request {i} ({:032x})", req.object));

                // Proactive repair: one paced scheduler step per round.
                // Scanning is a local read of the proxy's own directory
                // and costs nothing, but each entry the step actually
                // *restored* moved an object copy over the LAN — under
                // the event clock that is real proxy work, one LAN round
                // trip of busy time per restored entry, so a repair storm
                // after a big burst buys safety with latency, exactly the
                // trade the durability sweep measures. Under the compat
                // clock the step is a fixed quota (analytic pricing has
                // no backlog to extend).
                if plan.repair > 0 {
                    let (p2p, mut tap) = engine.cluster_mut(0);
                    let o = p2p.repair_step_tap(plan.repair, &mut tap);
                    if clock.mode() == ClockMode::Event && o.repaired > 0 {
                        let busy = ticks_of(f64::from(o.repaired) * cfg.net.tp2p).max(1);
                        next_free = next_free.max(clock.now()) + busy;
                    }
                }
                if durability {
                    let gauge = engine.p2p(0).at_risk_gauge();
                    out.risk_area += gauge;
                    out.at_risk_peak = out.at_risk_peak.max(gauge);
                    if gauge == 0 {
                        if let Some(from) = pending_repair_from.take() {
                            out.repair_rounds.push((i as u64).saturating_sub(from));
                        }
                    }
                }

                // Lazy detection bookkeeping: a crash leaves `crashed_ids`
                // only when traffic walked into the corpse and repair ran.
                // Detection latency stays in request-index units in both
                // modes (cache dynamics are identical at admission time).
                // Every crash enters `outstanding` as it enters the
                // overlay's crashed set (`crash` is the only path to
                // either), so equal sizes mean nothing was detected this
                // round — the common case, decided without a scan.
                let p2p = engine.p2p(0);
                if outstanding.len() != p2p.crashed_len() {
                    outstanding.retain(|&key, &mut crashed_at| {
                        if p2p.crashed_ids().any(|n| n.0 == key) {
                            return true;
                        }
                        out.detections.push(i as u64 - crashed_at);
                        // Acceptance criterion: the structure must be clean
                        // at every detection point.
                        out.invariant_violations += p2p.check_invariants().len() as u64;
                        false
                    });
                }

                // Quarantine replacement: an expelled machine gets
                // reimaged by the organization and a clean cache daemon
                // joins in its place on the next request, so the defense
                // costs a transient, not a permanent capacity hole. The
                // fresh ids come from the same picks stream as scheduled
                // rejoins; adversary-free plans never quarantine, so
                // their draw sequences are untouched.
                if adversarial {
                    let q = engine.p2p(0).quarantined_len() as u64;
                    while out.quarantine_replacements < q {
                        join_fresh(&mut engine, &mut picks);
                        out.quarantine_replacements += 1;
                    }
                }
            }
            Event::Completion { class, latency, .. } => out.metrics.record(class, latency),
            Event::Timeout { .. } => {}
        }
    }
    // A plan may leave the cut open past its last request. Heal before
    // the final accounting so the end state is always a single authority
    // — the convergence oracle interrogates the post-heal quiescent
    // state, and "the network never came back" is not a state this
    // simulation distinguishes from "about to come back".
    if engine.p2p(0).is_partitioned() {
        let (p2p, mut tap) = engine.cluster_mut(0);
        if p2p.heal_nodes(&mut tap) {
            out.heals += 1;
        }
    }
    out.undetected = outstanding.len() as u64;
    out.end_shedding = shedding;
    engine.finish(&mut out.metrics);
    out.snapshot = recorder.snapshot();
    Ok((out, engine))
}

/// Island A's live machines — the ones the proxy can reach while a cut
/// is up (all of them when the overlay is whole).
fn island_a(p2p: &P2PClientCache) -> Vec<NodeId> {
    p2p.node_ids().filter(|&n| p2p.in_island_a(n)).collect()
}

/// The machines a crash or departure may take: island A's, or none when
/// that would remove its last machine while the cut is up — the proxy's
/// clients are anchored on the A side, and losing it would silently
/// re-home them across a cut no message may legally cross.
fn removable(p2p: &P2PClientCache) -> Vec<NodeId> {
    let live = island_a(p2p);
    if p2p.is_partitioned() && live.len() <= 1 {
        return Vec::new();
    }
    live
}

/// One seeded draw from `live`, or a skipped action when nobody is.
fn draw(live: Vec<NodeId>, picks: &mut SeedStream, out: &mut DriveOutcome) -> Option<NodeId> {
    if live.is_empty() {
        out.skipped += 1;
        return None;
    }
    Some(live[picks.pick(live.len())])
}

/// Crashes `target` silently — `crash@`, `burst@` and `domainfail@` all
/// kill through here — and books it as outstanding until traffic walks
/// into the corpse.
fn crash<R: Recorder>(
    engine: &mut HierGdEngine<R>,
    target: NodeId,
    at: u64,
    outstanding: &mut BTreeMap<u128, u64>,
    out: &mut DriveOutcome,
) -> Result<(), SimError> {
    let (p2p, mut tap) = engine.cluster_mut(0);
    p2p.crash_node_tap(target, &mut tap)?;
    outstanding.insert(target.0, at);
    out.crashes += 1;
    Ok(())
}

/// Turns one honest island-A machine hostile; returns how many it
/// turned (0 books a skipped action: nobody honest was left).
fn corrupt<R: Recorder>(
    engine: &mut HierGdEngine<R>,
    picks: &mut SeedStream,
    out: &mut DriveOutcome,
    behavior: Behavior,
) -> u64 {
    let p2p = engine.p2p(0);
    let mut honest = island_a(p2p);
    // Adversary actions corrupt a currently honest machine; flipping an
    // already-hostile one would silently drop the injection.
    honest.retain(|&n| p2p.behavior_of(n) == Behavior::Honest);
    let Some(target) = draw(honest, picks, out) else { return 0 };
    engine.cluster_mut(0).0.set_behavior(target, behavior);
    1
}

/// Books an action under its own counter when it took effect, and as
/// skipped when it found nothing to act on (no live target, a cut or
/// heal that found the overlay already in that state).
fn tally(happened: bool, counter: &mut u64, skipped: &mut u64) {
    if happened {
        *counter += 1;
    } else {
        *skipped += 1;
    }
}

/// Applies one scheduled action; targets are drawn from live membership.
/// While a partition is active, targets come from island A only — the
/// proxy cannot reach island B, so it has nobody to crash, depart or
/// slow over there (B-side state is frozen until the heal).
fn apply_action<R: Recorder>(
    engine: &mut HierGdEngine<R>,
    action: FaultAction,
    picks: &mut SeedStream,
    at: u64,
    outstanding: &mut BTreeMap<u128, u64>,
    out: &mut DriveOutcome,
) -> Result<(), SimError> {
    match action {
        FaultAction::Rejoin => {
            join_fresh(engine, picks);
            out.rejoins += 1;
        }
        // Cut and heal consume no target draw, so adding a partition
        // pair to a plan never reshuffles which machines its other
        // events hit.
        FaultAction::Partition(pct) => {
            let (p2p, mut tap) = engine.cluster_mut(0);
            let cut = p2p.partition_nodes(pct, &mut tap);
            tally(cut, &mut out.partitions, &mut out.skipped);
        }
        FaultAction::Heal => {
            let (p2p, mut tap) = engine.cluster_mut(0);
            let healed = p2p.heal_nodes(&mut tap);
            tally(healed, &mut out.heals, &mut out.skipped);
        }
        FaultAction::Spike { .. } => {
            unreachable!("spike events are intercepted by the drive loop")
        }
        FaultAction::Crash => {
            if let Some(target) = draw(removable(engine.p2p(0)), picks, out) {
                crash(engine, target, at, outstanding, out)?;
            }
        }
        FaultAction::DomainFail(d) => {
            // Targets are fully determined by the domain assignment —
            // the action consumes no picks draws, so adding a domainfail
            // to a plan never reshuffles what its other events hit.
            let p2p = engine.p2p(0);
            let mut targets = p2p.live_ids_in_domain(d);
            targets.retain(|&n| p2p.in_island_a(n));
            let before = out.crashes;
            for target in targets {
                // The last-machine guard is re-checked per kill: the
                // doomed domain may be all that's left of island A.
                if removable(engine.p2p(0)).is_empty() {
                    out.skipped += 1;
                    continue;
                }
                crash(engine, target, at, outstanding, out)?;
            }
            tally(out.crashes > before, &mut out.domainfails, &mut out.skipped);
        }
        FaultAction::Burst(k) => {
            // K simultaneous seeded crashes: each target comes from the
            // same picks stream as a scheduled crash, re-collecting the
            // live membership between draws.
            let before = out.crashes;
            for _ in 0..k {
                let Some(target) = draw(removable(engine.p2p(0)), picks, out) else { break };
                crash(engine, target, at, outstanding, out)?;
            }
            tally(out.crashes > before, &mut out.bursts, &mut out.skipped);
        }
        FaultAction::Depart => {
            let Some(target) = draw(removable(engine.p2p(0)), picks, out) else { return Ok(()) };
            let (p2p, mut tap) = engine.cluster_mut(0);
            p2p.depart_node_tap(target, &mut tap)?;
            out.departures += 1;
        }
        FaultAction::Slow => {
            let Some(target) = draw(island_a(engine.p2p(0)), picks, out) else { return Ok(()) };
            engine.cluster_mut(0).0.mark_slow(target);
            out.slows += 1;
        }
        FaultAction::FreeRide => {
            out.freerides += corrupt(engine, picks, out, Behavior::FreeRider);
        }
        FaultAction::Forge(pm) => {
            out.forges += corrupt(engine, picks, out, Behavior::Forger { rate_pm: pm });
        }
        FaultAction::Garble(pm) => {
            out.garbles += corrupt(engine, picks, out, Behavior::Garbler { rate_pm: pm });
        }
    }
    Ok(())
}

/// Joins a machine under a fresh node id — one not currently in the
/// cluster, live or crashed-undetected.
fn join_fresh<R: Recorder>(engine: &mut HierGdEngine<R>, picks: &mut SeedStream) {
    let id = loop {
        let hi = picks.next_u64() as u128;
        let lo = picks.next_u64() as u128;
        let id = NodeId((hi << 64) | lo);
        let p2p = engine.p2p(0);
        if !p2p.node_ids().any(|n| n == id) && !p2p.crashed_ids().any(|n| n == id) {
            break id;
        }
    };
    let (p2p, mut tap) = engine.cluster_mut(0);
    p2p.join_node_tap(id, &mut tap);
}
