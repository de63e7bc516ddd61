//! The traced run (`--trace 1`): per-layer metrics and the ledger.
//!
//! Three kinds of number, all taken outside the timed end-to-end runs:
//!
//! * **counts** come from a `StatsRecorder` (or message-ledger) run of the
//!   workload itself and are exact: a workload that bypasses a layer
//!   reports zeros for it;
//! * **times** come from driving a stand-alone instance of each layer —
//!   sized like the workload's Hier-GD configuration, over keys taken
//!   from the workload's own traces — in homogeneous batches, so no timer
//!   sits between two operations;
//! * **spans** wrap the calls into the simulator's public functions: the
//!   set-up, then the Hier-GD engine driven wave by wave through
//!   `SchemeEngine` in the engine loop's round-robin order, then one
//!   `layer.<name>` span per replay.
//!
//! The ledger multiplies the counts by the times and compares the sum
//! with the measured cost of a request.

use crate::check::{invariant_problem, same_classes, same_metrics, Checker};
use crate::endtoend::drill_problem;
use crate::span::SpanRecorder;
use crate::stats::{median, percentile};
use crate::workloads::{
    drill_trace, drills, experiment, full_traces, other_clock, parse_plan, Drill, HierGdSpec, Kind,
    Workload, PLANS, UNIFIED_SCHEMES, WAVE,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use webcache_p2p::{
    object_id_for_url, DirectoryKind, LookupDirectory, MessageClass, P2PClientCache,
    P2PClientCacheConfig, TransportFaults, UnreliableTransport,
};
use webcache_pastry::{NodeId, Overlay};
use webcache_policy::{BoundedCache, DenseIndex, GreedyDualCache, LfuCache};
use webcache_primitives::seed::derive_indexed;
use webcache_sim::{
    build_engine, run_adversary, run_chaos, run_churn, run_durability, run_overload,
    AdversaryConfig, ChaosConfig, ClockMode, DurabilityConfig, Engine, Event, EventLogRecorder,
    HitClass, LatencyModel, NetworkModel, NoCacheEngine, NoopRecorder, OverloadConfig, Recorder,
    RunMetrics, SchemeEngine, SchemeKind, SimClock, StatsRecorder, StatsSnapshot, TICKS_PER_ROUND,
};
use webcache_workload::{ObjectId, Trace};

pub struct LayerReport {
    /// `(metric name, value)` in `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub text: String,
}

/// Values collected so far, by metric name.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(crate::spec::metric(name).is_some(), "{name} is not in the spec");
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn of(&self, name: &str) -> f64 {
        self.get(name).unwrap_or_else(|| panic!("{name} read before it was measured"))
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nanoseconds per item of a batch that took `elapsed`; 0 for no items.
fn ns_per(elapsed: std::time::Duration, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / items as f64
    }
}

/// Everything the replays share: the traces, the Hier-GD sizing, and the
/// 128-bit ids of the dense object universe.
struct Ctx<'a> {
    seed: u64,
    traces: &'a [Trace],
    spec: HierGdSpec,
    /// `object_id_for_url(url_of(o))` for every dense object id.
    oids: Vec<u128>,
    requests: u64,
}

impl Ctx<'_> {
    fn first(&self) -> &Trace {
        &self.traces[0]
    }

    fn p2p_config(&self) -> P2PClientCacheConfig {
        P2PClientCacheConfig {
            pastry: self.spec.opts.pastry,
            num_nodes: self.spec.clients,
            node_capacity: self.spec.client_capacity,
            directory: self.spec.opts.directory,
            diversion: self.spec.opts.diversion,
            replication: self.spec.opts.replication,
            seed: 0x1E_AF00,
        }
    }

    fn server_cost(&self) -> f64 {
        self.spec.net.fetch_cost(HitClass::Server)
    }
}

/// One `Engine::run` of a Hier-GD engine built from `spec`: wall
/// seconds, metrics, and events the clock delivered.
fn hiergd_run<R: Recorder + Clone>(
    spec: &HierGdSpec,
    traces: &[Trace],
    recorder: R,
) -> (f64, RunMetrics, u64) {
    let mut engine = spec.build_recorded(recorder.clone());
    let mut clock = SimClock::new(spec.clock);
    let start = Instant::now();
    let m = Engine::new(&mut engine, traces, &spec.net).run(&mut clock, &recorder);
    (start.elapsed().as_secs_f64(), m, clock.delivered())
}

/// Requests per `hiergd.admit_wave` span: a 1,024-request wave where that
/// leaves a thousand spans or more (p99 needs ten samples beyond it),
/// an eighth of one on the short drill trace.
fn admit_chunk(total_requests: u64) -> usize {
    if total_requests / WAVE as u64 >= 1000 {
        WAVE
    } else {
        WAVE / 8
    }
}

/// Drives `engine` through `SchemeEngine` as the engine loop does — one
/// `prepare_wave` per proxy every 1,024 rounds, then the rounds — with a
/// span around each call group. Returns the metrics and the ns per
/// request of every `hiergd.admit_wave` span.
fn traced_hiergd_run(
    engine: &mut dyn SchemeEngine,
    traces: &[Trace],
    net: &NetworkModel,
    chunk_requests: usize,
    rec: &mut SpanRecorder,
) -> (RunMetrics, Vec<f64>) {
    let model: &dyn LatencyModel = net;
    let rounds = traces.iter().map(Trace::len).max().unwrap_or(0);
    let chunk_rounds = (chunk_requests / traces.len()).max(1);
    let mut metrics = RunMetrics::default();
    let mut admit_ns_per_req = Vec::new();
    let run = rec.enter("run", None);
    for (wave, base) in (0..rounds).step_by(WAVE).enumerate() {
        let wave_id = Some(wave as u64);
        let wave_span = rec.enter("wave", wave_id);
        let end = (base + WAVE).min(rounds);
        // `prepare_wave` is a pure warm-up, so hoisting every proxy's
        // call ahead of the wave's first admit must not change a count;
        // the caller checks the metrics against an `Engine::run`.
        let prepare = rec.enter("hiergd.prepare_wave", wave_id);
        for (p, trace) in traces.iter().enumerate() {
            if base < trace.len() {
                engine.prepare_wave(p, &trace.requests[base..end.min(trace.len())]);
            }
        }
        rec.exit(prepare);
        for chunk in (base..end).step_by(chunk_rounds) {
            let admit = rec.enter("hiergd.admit_wave", wave_id);
            let mut served = 0usize;
            for round in chunk..(chunk + chunk_rounds).min(end) {
                for (p, trace) in traces.iter().enumerate() {
                    if let Some(req) = trace.requests.get(round) {
                        let admission = engine.admit(p, req);
                        let latency = if admission.stalls == 0 {
                            engine.latency_of(model, admission.class)
                        } else {
                            engine.price(model, &admission)
                        };
                        metrics.record(admission.class, latency);
                        served += 1;
                    }
                }
            }
            let ns = rec.exit(admit);
            admit_ns_per_req.push(ns as f64 / served.max(1) as f64);
        }
        rec.exit(wave_span);
    }
    let finish = rec.enter("engine.finish", None);
    engine.finish(&mut metrics);
    rec.exit(finish);
    rec.exit(run);
    (metrics, admit_ns_per_req)
}

pub fn measure(w: &Workload, seed: u64, checker: &mut Checker) -> LayerReport {
    let mut rec = SpanRecorder::new();
    let mut v = Values::default();

    // ---- set-up -------------------------------------------------------
    let setup = rec.enter("setup", None);
    let all_drills = drills(seed);
    let (traces, gen_ns) = rec.scope("workload.generate", |_| match w.kind {
        Kind::FaultDrill => vec![drill_trace(&all_drills[0].cfg)],
        Kind::HierGd(_) | Kind::Unified => full_traces(seed),
    });
    let spec = match w.kind {
        Kind::FaultDrill => HierGdSpec::of_drill(&all_drills[0].cfg, &traces[0]),
        _ => {
            HierGdSpec::of_experiment(&experiment(&w.shape(), SchemeKind::HierGd, &traces), &traces)
        }
    };
    let (mut traced_engine, build_ns) = rec.scope("engine.build", |_| spec.build());
    rec.exit(setup);
    let requests: u64 = traces.iter().map(|t| t.len() as u64).sum();
    v.set("workload.gen_ns_per_req", gen_ns as f64 / requests as f64);
    v.set("hiergd.build_s", build_ns as f64 / 1e9);

    // ---- the Hier-GD engine, untraced and traced -----------------------
    // Untraced reference: the faster of two plain runs.
    let (wall_a, reference, delivered) = hiergd_run(&spec, &traces, NoopRecorder);
    let (wall_b, again, _) = hiergd_run(&spec, &traces, NoopRecorder);
    let untraced = wall_a.min(wall_b);
    checker.metrics("hier-gd untraced", requests, &reference, None);
    checker.metrics(
        "hier-gd untraced, again",
        requests,
        &again,
        (!same_metrics(&reference, &again)).then(|| "two runs disagree on RunMetrics".into()),
    );

    let chunk = admit_chunk(requests);
    let traced_start = Instant::now();
    let (traced, admit_samples) =
        traced_hiergd_run(&mut traced_engine, &traces, &spec.net, chunk, &mut rec);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    // The wave-driven run prices analytically, as the compat loop does:
    // it must match a compat run to the bit, an event run on hit classes.
    let matches = match spec.clock {
        ClockMode::Compat => same_metrics(&reference, &traced),
        ClockMode::Event => same_classes(&reference, &traced),
    };
    let unsound = invariant_problem((0..spec.proxies).map(|p| traced_engine.p2p(p)), spec.bloom());
    checker.metrics(
        "hier-gd driven wave by wave",
        requests,
        &traced,
        (!matches).then(|| "differs from Engine::run on the same inputs".to_string()).or(unsound),
    );
    drop(traced_engine);
    v.set("ledger.trace_overhead_ratio", traced_wall / untraced);
    let totals = rec.totals();
    let span_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    v.set("hiergd.prepare_wave_ns_per_req", span_ns("hiergd.prepare_wave") / requests as f64);
    v.set("hiergd.admit_ns_p50", median(&admit_samples));
    v.set(
        "hiergd.admit_ns_p99",
        percentile(&admit_samples, 0.99).expect("admit_chunk leaves ten samples beyond p99"),
    );
    let admit_mean_ns = span_ns("hiergd.admit_wave") / requests as f64;

    // The other clock mode: event deliveries per request, and the same
    // hit classes.
    let event_delivered = match spec.clock {
        ClockMode::Event => delivered,
        ClockMode::Compat => {
            let twin = spec.with_clock(other_clock(spec.clock));
            let (_, m, d) = hiergd_run(&twin, &traces, NoopRecorder);
            checker.metrics(
                "hier-gd under the event clock",
                requests,
                &m,
                (!same_classes(&reference, &m))
                    .then(|| "hit-class counts differ between the clock modes".into()),
            );
            d
        }
    };
    v.set("clock.events_per_req", event_delivered as f64 / requests as f64);

    // ---- recorders ----------------------------------------------------
    let recorder_span = rec.enter("layer.recorder", None);
    let stats = Arc::new(StatsRecorder::new());
    let (stats_wall, stats_metrics, _) = hiergd_run(&spec, &traces, Arc::clone(&stats));
    let spec_counts = stats.snapshot();
    let log = Arc::new(EventLogRecorder::new(1 << 16));
    let (log_wall, log_metrics, _) = hiergd_run(&spec, &traces, Arc::clone(&log));
    rec.exit(recorder_span);
    for (label, m) in [
        ("hier-gd with StatsRecorder", &stats_metrics),
        ("hier-gd with EventLogRecorder", &log_metrics),
    ] {
        let changed =
            (!same_metrics(&reference, m)).then(|| "a recorder changed the run".to_string());
        checker.metrics(label, requests, m, changed);
    }
    let recorded: u64 = spec_counts.requests_by_class.iter().sum();
    checker.run("StatsRecorder request counters", requests, recorded, None);
    v.set("recorder.stats_ns_per_req", (stats_wall - untraced) * 1e9 / requests as f64);
    v.set("recorder.eventlog_ns_per_req", (log_wall - untraced) * 1e9 / requests as f64);
    v.set("recorder.events_per_req", log.total_recorded() as f64 / requests as f64);

    let mut ctx = Ctx { seed, traces: &traces, spec, oids: Vec::new(), requests };
    rec.scope("layer.primitives", |_| primitives_layer(&mut ctx, &mut v));
    rec.scope("layer.workload", |_| workload_layer(&ctx, &mut v, checker));
    rec.scope("layer.engine", |_| engine_layer(&ctx, &mut v, checker));
    rec.scope("layer.clock", |_| clock_layer(&mut v));
    rec.scope("layer.policy", |_| policy_layer(&ctx, &mut v, checker));
    rec.scope("layer.directory", |_| directory_layer(&ctx, &mut v));
    rec.scope("layer.pastry", |_| pastry_layer(&ctx, &mut v));
    rec.scope("layer.p2p", |_| p2p_layer(&ctx, &mut v, checker));
    rec.scope("layer.transport", |_| transport_layer(&ctx, &mut v));
    let site_counts = rec.scope("layer.site", |_| site_layer(&ctx, w, &mut v, checker)).0;
    rec.scope("layer.fault", |rec| fault_layer(&ctx, w, &all_drills, &mut v, checker, rec));
    rec.scope("layer.harness", |_| harness_layer(&mut v, checker));

    // ---- counts: from the workload's own recorded run -------------------
    // Hier-GD workloads and the drill replay Hier-GD, so the recorded run
    // above is theirs; the unified schemes' counts come from their own
    // recorded runs, where every P2P-side counter must read zero.
    let counts = site_counts.as_ref().unwrap_or(&spec_counts);
    let counted: u64 = counts.requests_by_class.iter().sum();
    v.set("directory.probes_per_req", ratio(counts.directory_probes, counted));
    v.set("directory.probe_hit_ratio", ratio(counts.directory_probe_hits, counts.directory_probes));
    v.set("directory.stale_ratio", ratio(counts.stale_lookups, counts.lookups));
    v.set("pastry.routes_per_req", ratio(counts.lookups + counts.destages, counted));
    v.set("p2p.destages_per_req", ratio(counts.destages, counted));
    v.set("p2p.lookups_per_req", ratio(counts.lookups, counted));
    v.set("p2p.pushes_per_req", ratio(counts.pushes, counted));
    v.set("p2p.evictions_per_req", ratio(counts.evictions, counted));
    v.set("p2p.diverted_ratio", ratio(counts.diverted_destages, counts.destages));

    // ---- the ledger: counts x times against the measured request --------
    let c = &spec_counts;
    let measured_ns = untraced * 1e9 / requests as f64;
    let local_share = ratio(c.requests_by_class[HitClass::LocalProxy.index()], requests);
    let loop_metric = match ctx.spec.clock {
        ClockMode::Compat => "engine.compat_loop_ns_per_req",
        ClockMode::Event => "engine.event_loop_ns_per_req",
    };
    let probe_metric =
        if ctx.spec.bloom() { "directory.bloom_probe_ns" } else { "directory.exact_probe_ns" };
    let own_lookups = c.lookups.saturating_sub(c.pushes);
    // (row, operations per request, ns per operation, inside `admit`?)
    let rows: Vec<(String, f64, f64, bool)> = vec![
        (loop_metric.into(), 1.0, v.of(loop_metric), false),
        (
            "hiergd.prepare_wave_ns_per_req".into(),
            1.0,
            v.of("hiergd.prepare_wave_ns_per_req"),
            false,
        ),
        ("policy.gd_hit_ns".into(), local_share, v.of("policy.gd_hit_ns"), true),
        ("policy.gd_miss_ns".into(), 1.0 - local_share, v.of("policy.gd_miss_ns"), true),
        (probe_metric.into(), ratio(c.directory_probes, requests), v.of(probe_metric), true),
        ("p2p.destage_ns".into(), ratio(c.destages, requests), v.of("p2p.destage_ns"), true),
        ("p2p.fetch_ns".into(), ratio(own_lookups, requests), v.of("p2p.fetch_ns"), true),
        ("p2p.push_fetch_ns".into(), ratio(c.pushes, requests), v.of("p2p.push_fetch_ns"), true),
    ];
    let explained: f64 = rows.iter().map(|r| r.1 * r.2).sum();
    let inside_admit: f64 = rows.iter().filter(|r| r.3).map(|r| r.1 * r.2).sum();
    v.set("ledger.coverage", explained / measured_ns);
    v.set("hiergd.glue_ns_per_req", admit_mean_ns - inside_admit);

    // ---- report ---------------------------------------------------------
    let mut text = String::new();
    let metrics: Vec<(&'static str, f64)> =
        crate::spec::PER_LAYER.iter().map(|m| (m.name, v.of(m.name))).collect();
    for (m, (_, value)) in crate::spec::PER_LAYER.iter().zip(&metrics) {
        writeln!(text, "  {:<34} {value:>16.6} {}", m.name, m.unit).unwrap();
    }
    writeln!(
        text,
        "  hier-gd replay: {} proxies x {} clients, proxy capacity {}, client capacity {}, {} directory, {} clock",
        ctx.spec.proxies,
        ctx.spec.clients,
        ctx.spec.proxy_capacity,
        ctx.spec.client_capacity,
        if ctx.spec.bloom() { "Bloom" } else { "exact" },
        ctx.spec.clock.label()
    )
    .unwrap();
    writeln!(
        text,
        "  hiergd.admit_ns percentiles over {} spans of {chunk} requests; untraced run {untraced:.4} s, traced {traced_wall:.4} s",
        admit_samples.len()
    )
    .unwrap();
    writeln!(text, "  ledger: measured {measured_ns:.1} ns per request (untraced Engine::run of the Hier-GD replay)").unwrap();
    writeln!(
        text,
        "    {:<34} {:>10} {:>12} {:>12} {:>7}",
        "row", "ops/req", "ns/op", "ns/req", "share"
    )
    .unwrap();
    for (name, per_req, ns, _) in &rows {
        let cost = per_req * ns;
        writeln!(
            text,
            "    {name:<34} {per_req:>10.4} {ns:>12.1} {cost:>12.1} {:>6.1}%",
            100.0 * cost / measured_ns
        )
        .unwrap();
    }
    writeln!(
        text,
        "    {:<34} {:>10} {:>12} {:>12.1} {:>6.1}%  (ledger.coverage)",
        "explained",
        "",
        "",
        explained,
        100.0 * explained / measured_ns
    )
    .unwrap();
    writeln!(
        text,
        "    admit span mean {admit_mean_ns:.1} ns per request - {inside_admit:.1} ns of layer estimates inside it = hiergd.glue_ns_per_req"
    )
    .unwrap();
    writeln!(text, "  spans: {:<24} {:>8} {:>14} {:>14}", "name", "count", "total ms", "self ms")
        .unwrap();
    for (name, t) in rec.totals() {
        writeln!(
            text,
            "         {name:<24} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
        .unwrap();
    }
    match write_spans(w.name, &rec) {
        Ok(path) => writeln!(text, "  wrote {} spans to {path}", rec.spans().len()).unwrap(),
        Err(e) => writeln!(text, "  could not write the span file: {e}").unwrap(),
    }
    LayerReport { metrics, text }
}

fn write_spans(workload: &str, rec: &SpanRecorder) -> std::io::Result<String> {
    // The benchmark is always built in the checkout it measures.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, rec.to_json().compact())?;
    Ok(path.display().to_string())
}

fn primitives_layer(ctx: &mut Ctx, v: &mut Values) {
    // SHA-1 of every object URL: what engine construction pays per id.
    const ROUNDS: usize = 20;
    let n = ctx.spec.num_objects;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        ctx.oids = (0..n).map(|o| object_id_for_url(black_box(&Trace::url_of(o)))).collect();
    }
    v.set("primitives.sha1_ns_per_id", ns_per(start.elapsed(), ROUNDS * n as usize));
}

fn workload_layer(ctx: &Ctx, v: &mut Values, checker: &mut Checker) {
    let trace = ctx.first();
    let mut bytes = Vec::new();
    trace.write_binary(&mut bytes).expect("writing to memory cannot fail");
    let start = Instant::now();
    let decoded = Trace::read_binary(&mut bytes.as_slice());
    v.set("workload.decode_ns_per_req", ns_per(start.elapsed(), trace.len()));
    let same = decoded
        .map_or(0, |d| d.requests.iter().zip(&trace.requests).filter(|(a, b)| a == b).count());
    checker.run("trace binary round trip", trace.len() as u64, same as u64, None);
}

fn engine_layer(ctx: &Ctx, v: &mut Values, checker: &mut Checker) {
    // The bare loop: every request goes to the origin server. The event
    // run needs latencies under one arrival period (1/32 of the default,
    // where an all-miss stream still drains) or its queue — and the
    // wheel — would deepen without bound and stop being the loop's cost.
    let modes = [
        ("engine.compat_loop_ns_per_req", ClockMode::Compat, NetworkModel::default()),
        (
            "engine.event_loop_ns_per_req",
            ClockMode::Event,
            NetworkModel::default().scaled(1.0 / 32.0),
        ),
    ];
    for (name, mode, net) in modes {
        let mut walls = Vec::new();
        for _ in 0..3 {
            let mut clock = SimClock::new(mode);
            let start = Instant::now();
            let m =
                Engine::new(&mut NoCacheEngine, ctx.traces, &net).run(&mut clock, &NoopRecorder);
            walls.push(start.elapsed().as_secs_f64());
            let elsewhere = m.requests - m.count(HitClass::Server);
            checker.metrics(
                name,
                ctx.requests,
                &m,
                (elsewhere > 0).then(|| "NoCacheEngine served a hit".into()),
            );
        }
        v.set(name, median(&walls) * 1e9 / ctx.requests as f64);
    }
}

/// Pops the wheel through an engine-shaped schedule — two proxies whose
/// arrivals re-schedule themselves one round on and schedule a completion
/// `completion_delay(index)` ticks out — until `horizon` ticks have
/// passed. Returns ns per delivered event.
fn wheel_replay(prefill: u64, horizon: u64, completion_delay: impl Fn(usize) -> u64) -> f64 {
    let mut clock = SimClock::event();
    let completion = Event::Completion { proxy: 0, class: HitClass::Server, latency: 1.0 };
    for i in 0..prefill {
        clock.schedule_at(1 + i * horizon / prefill, completion);
    }
    for proxy in 0..2 {
        clock.schedule_at(0, Event::Arrival { proxy, index: 0 });
    }
    let start = Instant::now();
    let mut delivered = 0usize;
    while clock.now() < horizon {
        let Some(event) = clock.pop() else { break };
        delivered += 1;
        if let Event::Arrival { proxy, index } = event {
            clock.schedule_in(TICKS_PER_ROUND, Event::Arrival { proxy, index: index + 1 });
            clock.schedule_in(completion_delay(index), completion);
        }
        black_box(&event);
    }
    ns_per(start.elapsed(), delivered)
}

fn clock_layer(v: &mut Values) {
    // Shallow: completions land within about one round, a few events
    // pending — the scaled-network regime every event workload runs in.
    let rounds = 500_000;
    v.set(
        "clock.wheel_ns_per_event_shallow",
        wheel_replay(0, rounds * TICKS_PER_ROUND, |i| 1 + (i as u64 * 7) % 40),
    );
    // Deep: about a million events pending throughout — the unscaled
    // network, where every request queues behind its proxy.
    let horizon = 250_000 * TICKS_PER_ROUND;
    v.set("clock.wheel_ns_per_event_deep", wheel_replay(1_000_000, horizon, |_| horizon));
}

type ProxyGd = GreedyDualCache<ObjectId, DenseIndex>;

fn policy_layer(ctx: &Ctx, v: &mut Values, checker: &mut Checker) {
    let trace = ctx.first();
    let (cap, cost) = (ctx.spec.proxy_capacity, ctx.server_cost());
    // Counts: the proxy's greedy-dual alone over the first proxy's trace.
    let mut gd = ProxyGd::new(cap);
    let (mut hits, mut evictions) = (0u64, 0u64);
    for r in &trace.requests {
        if gd.touch_with_cost(r.object, cost, 1.0) {
            hits += 1;
        } else if gd.insert_with_cost(r.object, cost, 1.0).is_some() {
            evictions += 1;
        }
    }
    v.set("policy.gd_hit_ratio", ratio(hits, trace.len() as u64));
    v.set("policy.gd_evictions_per_req", ratio(evictions, trace.len() as u64));

    // Hits: the trace's requests for objects resident at the end, against
    // that full cache — a touch never evicts, so every one is a hit.
    let mut resident = vec![false; ctx.spec.num_objects as usize];
    gd.keys().for_each(|k| resident[k as usize] = true);
    let hit_stream: Vec<ObjectId> =
        trace.requests.iter().map(|r| r.object).filter(|&o| resident[o as usize]).collect();
    let start = Instant::now();
    let touched = hit_stream.iter().filter(|&&o| gd.touch_with_cost(o, cost, 1.0)).count();
    v.set("policy.gd_hit_ns", ns_per(start.elapsed(), hit_stream.len()));
    checker.run("greedy-dual hit batch", hit_stream.len() as u64, touched as u64, None);

    // Misses: sweep the object universe cyclically. With uniform costs
    // greedy-dual evicts oldest-first, so an object is long gone when
    // the sweep returns to it: every insert is a miss plus an eviction.
    let universe = ctx.spec.num_objects;
    let sweep = |gd: &mut ProxyGd, n: usize| {
        (0..n).filter(|&k| gd.insert_with_cost(k as u32 % universe, cost, 1.0).is_some()).count()
    };
    sweep(&mut gd, universe as usize);
    let n = trace.len().min(500_000);
    let start = Instant::now();
    let evicting = sweep(&mut gd, n);
    v.set("policy.gd_miss_ns", ns_per(start.elapsed(), n));
    checker.run("greedy-dual miss batch", n as u64, evicting as u64, None);

    let mut lfu = LfuCache::<ObjectId>::new(cap);
    let start = Instant::now();
    for r in &trace.requests {
        if !lfu.touch(r.object) {
            lfu.insert(r.object);
        }
    }
    v.set("policy.lfu_ns_per_op", ns_per(start.elapsed(), trace.len()));
    black_box(lfu.len());
}

fn directory_layer(ctx: &Ctx, v: &mut Values) {
    let trace = ctx.first();
    let p2p_capacity = ctx.spec.clients * ctx.spec.client_capacity;
    // Resident: the first `p2p_capacity` distinct objects of the trace.
    let mut seen = vec![false; ctx.spec.num_objects as usize];
    let resident: Vec<ObjectId> = trace
        .requests
        .iter()
        .map(|r| r.object)
        .filter(|&o| !std::mem::replace(&mut seen[o as usize], true))
        .take(p2p_capacity)
        .collect();
    let mut is_resident = vec![false; ctx.spec.num_objects as usize];
    resident.iter().for_each(|&o| is_resident[o as usize] = true);
    let absent: Vec<u128> = (0..ctx.spec.num_objects as usize)
        .filter(|&o| !is_resident[o])
        .map(|o| ctx.oids[o])
        .collect();
    let probes: Vec<ObjectId> = trace.requests.iter().take(500_000).map(|r| r.object).collect();

    let mut exact = LookupDirectory::new(DirectoryKind::Exact);
    // Hier-GD registers its dense universe, so the serve path's probe of
    // an exact directory is the bitset mirror's.
    exact.enable_dense_mirror(&ctx.oids);
    let mut bloom = LookupDirectory::new(DirectoryKind::Bloom {
        counters_per_key: 8.0,
        expected_entries: p2p_capacity,
    });
    for &o in &resident {
        exact.insert(ctx.oids[o as usize]);
        bloom.insert(ctx.oids[o as usize]);
    }
    let start = Instant::now();
    let hits = probes
        .iter()
        .filter(|&&o| {
            exact.contains_dense(o as usize).unwrap_or_else(|| exact.contains(ctx.oids[o as usize]))
        })
        .count();
    v.set("directory.exact_probe_ns", ns_per(start.elapsed(), probes.len()));
    black_box(hits);
    let start = Instant::now();
    let hits = probes.iter().filter(|&&o| bloom.contains(ctx.oids[o as usize])).count();
    v.set("directory.bloom_probe_ns", ns_per(start.elapsed(), probes.len()));
    black_box(hits);

    // Updates, on the kind the workload uses: insert then remove an
    // object that is not resident, as a destage and its eviction do.
    let dir = if ctx.spec.bloom() { &mut bloom } else { &mut exact };
    let updates = 100_000.min(absent.len() * 50);
    let start = Instant::now();
    for i in 0..updates {
        let oid = absent[i % absent.len()];
        dir.insert(oid);
        dir.remove(oid);
    }
    v.set("directory.update_ns", ns_per(start.elapsed(), 2 * updates));
    black_box(dir.len());
}

/// The `i`-th 128-bit node id of the `label` stream.
fn node_id(seed: u64, label: &str, i: usize) -> NodeId {
    let word = |half: u64| u128::from(derive_indexed(seed, label, 2 * i as u64 + half));
    NodeId(word(0) << 64 | word(1))
}

fn pastry_layer(ctx: &Ctx, v: &mut Values) {
    let trace = ctx.first();
    let n = ctx.spec.clients;
    let id = |i: usize| node_id(ctx.seed, "node", i);
    // Most nodes come up at once; the last few join a loaded overlay.
    let joiners = (n / 4).clamp(1, 64);
    let mut overlay = Overlay::with_nodes(ctx.spec.opts.pastry, (0..n - joiners).map(id));
    let start = Instant::now();
    for i in n - joiners..n {
        overlay.join(id(i));
    }
    v.set("pastry.join_ns_per_node", ns_per(start.elapsed(), joiners));

    let routes: Vec<(NodeId, NodeId)> = trace
        .requests
        .iter()
        .take(200_000)
        .map(|r| (id(r.client as usize % n), NodeId(ctx.oids[r.object as usize])))
        .collect();
    let start = Instant::now();
    let hops: Vec<f64> = routes
        .iter()
        .map(|&(from, key)| {
            overlay.route_hops(from, key).expect("every entry node is live").1 as f64
        })
        .collect();
    v.set("pastry.route_ns", ns_per(start.elapsed(), routes.len()));
    v.set("pastry.hops_mean", hops.iter().sum::<f64>() / hops.len() as f64);
    v.set("pastry.hops_p99", percentile(&hops, 0.99).expect("200,000 routes resolve p99"));
}

fn p2p_layer(ctx: &Ctx, v: &mut Values, checker: &mut Checker) {
    let trace = ctx.first();
    let (cost, hit_cost) = (ctx.server_cost(), ctx.spec.net.fetch_cost(HitClass::OwnP2p));
    let start = Instant::now();
    let mut p2p = P2PClientCache::new(ctx.p2p_config());
    v.set("p2p.build_s", start.elapsed().as_secs_f64());

    // One proxy's cascade — greedy-dual in front, the P2P cache behind —
    // warms the cache over the first half of the trace and then logs
    // what the second half would ask of it.
    let mut gd = ProxyGd::new(ctx.spec.proxy_capacity);
    let mut destages: Vec<(u128, u32)> = Vec::new();
    let mut lookups: Vec<(u32, u128)> = Vec::new();
    let mut warm = None;
    let half = trace.len() / 2;
    for (i, r) in trace.requests.iter().enumerate() {
        if i == half {
            warm = Some(p2p.clone());
        }
        if gd.touch_with_cost(r.object, cost, 1.0) {
            continue;
        }
        let oid = ctx.oids[r.object as usize];
        if p2p.directory_contains(oid) {
            if i >= half {
                lookups.push((r.client, oid));
            }
            p2p.fetch(r.client, oid, hit_cost);
        }
        if let Some(victim) = gd.insert_with_cost(r.object, cost, 1.0) {
            let victim = ctx.oids[victim as usize];
            if i >= half {
                destages.push((victim, r.client));
            }
            p2p.destage(victim, cost, Some(r.client));
        }
    }
    drop(p2p);
    let warm = warm.expect("the trace is not empty");
    // A fetch leaves the object in place, so every logged lookup whose
    // object the warm cache already holds can be replayed against it.
    lookups.retain(|&(_, oid)| warm.directory_contains(oid));
    lookups.truncate(200_000);
    destages.truncate(200_000);

    let mut cache = warm.clone();
    let start = Instant::now();
    let stored = destages
        .iter()
        .filter(|&&(oid, client)| cache.destage(oid, cost, Some(client)).is_some())
        .count();
    v.set("p2p.destage_ns", ns_per(start.elapsed(), destages.len()));
    checker.run("p2p destage batch", destages.len() as u64, stored as u64, None);
    let after_destages = cache;

    // Fetches go wave by wave behind an untimed `warm_routes`, as the
    // engine's `prepare_wave` puts it ahead of every wave: the routing is
    // `hiergd.prepare_wave`'s row of the ledger, not this one's.
    let mut cache = warm.clone();
    let mut fetching = std::time::Duration::ZERO;
    let mut found = 0usize;
    for wave in lookups.chunks(WAVE) {
        cache.warm_routes(wave.iter().copied());
        let start = Instant::now();
        found += wave
            .iter()
            .filter(|&&(client, oid)| cache.fetch(client, oid, hit_cost).is_some())
            .count();
        fetching += start.elapsed();
    }
    v.set("p2p.fetch_ns", ns_per(fetching, lookups.len()));
    black_box(found);

    let mut cache = warm.clone();
    let start = Instant::now();
    let pushed =
        lookups.iter().filter(|&&(_, oid)| cache.push_fetch(oid, hit_cost).is_some()).count();
    v.set("p2p.push_fetch_ns", ns_per(start.elapsed(), lookups.len()));
    black_box(pushed);

    let mut cache = warm.clone();
    let keys: Vec<(u32, u128)> = trace.requests[half..]
        .iter()
        .take(100 * WAVE)
        .map(|r| (r.client, ctx.oids[r.object as usize]))
        .collect();
    let start = Instant::now();
    for wave in keys.chunks(WAVE) {
        cache.warm_routes(wave.iter().copied());
    }
    v.set("p2p.warm_routes_ns_per_key", ns_per(start.elapsed(), keys.len()));

    // Membership writes on the loaded cache: crash a machine, join a new
    // one, sixteen times over.
    let mut cache = warm;
    let victims: Vec<NodeId> = cache.node_ids().take(16).collect();
    let start = Instant::now();
    for (i, &victim) in victims.iter().enumerate() {
        cache.crash_node(victim).expect("the victim is a live member");
        cache.join_node(node_id(ctx.seed, "joiner", i));
    }
    v.set("p2p.membership_op_ns", ns_per(start.elapsed(), 2 * victims.len()));

    for (label, cache) in
        [("p2p after the destage batch", &after_destages), ("p2p after membership writes", &cache)]
    {
        let objects = cache.len() as u64;
        checker.run(label, objects, objects, invariant_problem([cache], ctx.spec.bloom()));
    }
}

fn transport_layer(ctx: &Ctx, v: &mut Values) {
    const SENDS: usize = 500_000;
    let faults = |loss| TransportFaults { loss, seed: ctx.seed, ..TransportFaults::none() };
    for (name, loss) in [("transport.send_clean_ns", 0.0), ("transport.send_lossy_ns", 0.05)] {
        let mut transport = UnreliableTransport::new(faults(loss));
        let start = Instant::now();
        let retried = (0..SENDS)
            .filter(|&i| {
                let oid = ctx.oids[i % ctx.oids.len()];
                transport.send_to(MessageClass::Destage, oid, oid).attempts > 1
            })
            .count();
        v.set(name, ns_per(start.elapsed(), SENDS));
        if loss > 0.0 {
            v.set("transport.retries_per_send", retried as f64 / SENDS as f64);
        }
    }
}

/// NC, SC-EC and FC-EC over the traces, at the workload's proxy size.
/// For the unified workload these are its own runs, and the snapshot of a
/// second, recorded pass is returned: its counts are the workload's.
fn site_layer(
    ctx: &Ctx,
    w: &Workload,
    v: &mut Values,
    checker: &mut Checker,
) -> Option<StatsSnapshot> {
    let names = ["site.nc_ns_per_req", "site.scec_ns_per_req", "site.fcec_ns_per_req"];
    let stats = Arc::new(StatsRecorder::new());
    for (name, scheme) in names.into_iter().zip(UNIFIED_SCHEMES) {
        let mut cfg = experiment(&w.shape(), scheme, ctx.traces);
        cfg.num_proxies = ctx.traces.len();
        let start = Instant::now();
        let mut engine = build_engine(&cfg, ctx.traces).expect("valid configuration");
        if scheme == SchemeKind::FcEc {
            v.set("site.fc_build_s", start.elapsed().as_secs_f64());
        }
        let mut clock = SimClock::new(cfg.clock);
        let start = Instant::now();
        let m = Engine::new(engine.as_mut(), ctx.traces, &cfg.net).run(&mut clock, &NoopRecorder);
        v.set(name, start.elapsed().as_secs_f64() * 1e9 / ctx.requests as f64);
        checker.metrics(name, ctx.requests, &m, None);
        if matches!(w.kind, Kind::Unified) {
            let mut engine = build_engine(&cfg, ctx.traces).expect("valid configuration");
            let recorded = Engine::new(engine.as_mut(), ctx.traces, &cfg.net)
                .run(&mut SimClock::new(cfg.clock), &stats);
            let changed =
                (!same_metrics(&m, &recorded)).then(|| "a recorder changed the run".to_string());
            checker.metrics(
                &format!("{} with StatsRecorder", scheme.label()),
                ctx.requests,
                &recorded,
                changed,
            );
        }
    }
    matches!(w.kind, Kind::Unified).then(|| stats.snapshot())
}

fn fault_layer(
    ctx: &Ctx,
    w: &Workload,
    all_drills: &[Drill],
    v: &mut Values,
    checker: &mut Checker,
    rec: &mut SpanRecorder,
) {
    const PARSES: usize = 2_000;
    let start = Instant::now();
    for _ in 0..PARSES {
        for (_, spec) in PLANS {
            black_box(parse_plan(black_box(spec)));
        }
    }
    v.set("fault.plan_parse_ns", ns_per(start.elapsed(), PARSES * PLANS.len()));

    // The drill probe: every drill for the fault workload, the first one
    // elsewhere — enough to price the fault path beside any workload.
    let probed = if matches!(w.kind, Kind::FaultDrill) { all_drills } else { &all_drills[..1] };
    let (mut wall_ns, mut served, mut timeouts, mut events) = (0u64, 0u64, 0u64, 0u64);
    for drill in probed {
        let span = rec.enter("fault.drill", None);
        let report = run_churn(&drill.cfg).expect("valid drill configuration");
        wall_ns += rec.exit(span);
        served += report.requests;
        timeouts += report.timeouts;
        events += report.crashes
            + report.departures
            + report.rejoins
            + report.slows
            + report.partitions
            + report.heals
            + report.freerides
            + report.forges
            + report.garbles
            + report.spikes
            + report.domainfails
            + report.bursts;
        checker.run(
            &drill.label,
            drill.cfg.requests as u64,
            report.requests,
            drill_problem(&report),
        );
    }
    v.set("fault.drill_ns_per_req", wall_ns as f64 / served as f64);
    v.set("fault.timeouts_per_req", ratio(timeouts, served));
    v.set("fault.events_applied", events as f64);

    // What the armed transport adds per request: the drill's engine with
    // the first plan's transport faults and nothing else, so the message
    // ledger isolates sends and retransmissions.
    let drill = &all_drills[0];
    let generated;
    let trace = match w.kind {
        Kind::FaultDrill => ctx.first(),
        _ => {
            generated = drill_trace(&drill.cfg);
            &generated
        }
    };
    let mut engine = HierGdSpec::of_drill(&drill.cfg, trace).build();
    engine.set_client_transport(0, drill.cfg.plan.transport_faults());
    let traces = std::slice::from_ref(trace);
    let m = Engine::new(&mut engine, traces, &drill.cfg.net)
        .run(&mut SimClock::new(drill.cfg.clock), &NoopRecorder);
    checker.metrics("hier-gd with an armed transport", trace.len() as u64, &m, None);
    let l = &m.messages;
    let sends =
        l.piggybacked_objects + l.direct_destages + l.store_receipts + l.diversions + l.pushes;
    v.set("fault.retries_per_req", ratio(l.retries, m.requests));
    v.set("transport.sends_per_req", ratio(sends, m.requests));
}

fn harness_layer(v: &mut Values, checker: &mut Checker) {
    for (name, clock) in
        [("chaos.plans_per_s", ClockMode::Compat), ("chaos.plans_per_s_event", ClockMode::Event)]
    {
        let cfg = ChaosConfig { clock, ..ChaosConfig::default() };
        let start = Instant::now();
        let report = run_chaos(&cfg).expect("the default chaos configuration is valid");
        v.set(name, report.plans as f64 / start.elapsed().as_secs_f64());
        let offered = report.plans * cfg.requests as u64;
        let red = report
            .failures
            .first()
            .map(|f| format!("{} plans failed, first: {}", report.failures.len(), f.shrunk_spec));
        checker.run(name, offered, offered, red);
    }
    let start = Instant::now();
    black_box(run_adversary(&AdversaryConfig::default()).expect("the default sweep is valid"));
    v.set("adversary.sweep_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    black_box(run_overload(&OverloadConfig::default()).expect("the default sweep is valid"));
    v.set("overload.sweep_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    black_box(run_durability(&DurabilityConfig::default()).expect("the default sweep is valid"));
    v.set("durability.sweep_s", start.elapsed().as_secs_f64());
}
