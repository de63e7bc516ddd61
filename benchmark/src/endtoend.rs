//! The end-to-end measurement (`--trace 0`): set-up time, replay rate,
//! peak memory and the simulated statistics of one workload.
//!
//! It is a batch replay — there is no host-clock arrival schedule — on
//! one thread, with the benchmark's tracing off and `NoopRecorder`, so
//! nothing but the simulator runs inside a timed region.

use crate::check::{invariant_problem, same_classes, same_metrics, sim_rows, Checker, SimStats};
use crate::stats::{median, quartile_spread};
use crate::workloads::{
    drill_trace, drills, experiment, full_traces, net_for, other_clock, Drill, HierGdSpec, Kind,
    Shape, Workload, EVENT_NET_SCALE, UNIFIED_SCHEMES,
};
use std::time::{Duration, Instant};
use webcache_sim::{
    build_engine, run_churn, ChurnReport, ClockMode, Engine, ExperimentConfig, HitClass,
    NoopRecorder, RunMetrics, SchemeEngine, SchemeKind, SimClock,
};
use webcache_workload::Trace;

/// Full set-ups per run, at least: `setup_s` is their median (a single
/// set-up spreads by ~17% from run to run). Set-ups that take
/// milliseconds are repeated until [`SETUP_SECONDS`] have been spent.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// Passes over the workload's timed calls that run even when `--seconds`
/// is shorter than they take.
const MIN_PASSES: usize = 3;

/// Timing samples of one timed call (an `Engine::run` of one scheme, or
/// one `run_churn` drill), repeated once per pass.
pub struct Timed {
    pub label: String,
    pub requests: u64,
    pub seconds: Vec<f64>,
}

pub struct EndToEnd {
    /// `(metric name, value)` in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub setup_seconds: Vec<f64>,
    pub timed: Vec<Timed>,
    pub sim: SimStats,
}

/// Runs `pass` over `calls` timed calls until `seconds` have gone by
/// (checked before each call, so the overshoot is at most one call), but
/// for no fewer than [`MIN_PASSES`] whole passes.
fn measure_for(seconds: f64, calls: usize, mut call: impl FnMut(usize, usize)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for pass in 0.. {
        for i in 0..calls {
            if pass >= MIN_PASSES && Instant::now() >= deadline {
                return;
            }
            call(pass, i);
        }
    }
}

/// Times `setup` at least [`MIN_SETUPS`] times and returns the samples
/// with what the last set-up built.
fn time_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let begin = Instant::now();
    let mut samples = Vec::new();
    loop {
        let start = Instant::now();
        let built = setup();
        samples.push(start.elapsed().as_secs_f64());
        if samples.len() >= MIN_SETUPS && begin.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (samples, built);
        }
        // Dropped before the next set-up starts, so peak memory is that
        // of one set-up.
        drop(built);
    }
}

/// `VmHWM` of this process in MB: the workload's peak resident set.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn finish(
    setup_seconds: Vec<f64>,
    timed: Vec<Timed>,
    rss: f64,
    avg_latency: f64,
    hit_ratio: f64,
    sim: SimStats,
) -> EndToEnd {
    let requests: u64 = timed.iter().map(|t| t.requests).sum();
    let wall: f64 = timed.iter().map(|t| median(&t.seconds)).sum();
    let metrics = vec![
        ("setup_s", median(&setup_seconds)),
        ("req_per_s", requests as f64 / wall),
        ("peak_rss_mb", rss),
        ("sim_avg_latency", avg_latency),
        ("sim_hit_ratio", hit_ratio),
    ];
    EndToEnd { metrics, setup_seconds, timed, sim }
}

pub fn measure(w: &Workload, seed: u64, seconds: f64, checker: &mut Checker) -> EndToEnd {
    let schemes: &[SchemeKind] = match w.kind {
        Kind::HierGd(_) => &[SchemeKind::HierGd],
        Kind::Unified => &UNIFIED_SCHEMES,
        Kind::FaultDrill => return drill_workload(seed, seconds, checker),
    };
    engine_workload(&w.shape(), schemes, seed, seconds, checker)
}

fn run_boxed(
    engine: &mut dyn SchemeEngine,
    cfg: &ExperimentConfig,
    traces: &[Trace],
) -> (f64, RunMetrics) {
    // The clock is built outside the timed region, as the throughput
    // harness does: the serve path is what is measured.
    let mut clock = SimClock::new(cfg.clock);
    let start = Instant::now();
    let m = Engine::new(engine, traces, &cfg.net).run(&mut clock, &NoopRecorder);
    (start.elapsed().as_secs_f64(), m)
}

fn engine_workload(
    shape: &Shape,
    schemes: &[SchemeKind],
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
) -> EndToEnd {
    // Set-up: everything before the first timed request.
    let (setup_seconds, (traces, first_engines)) = time_setups(|| {
        let traces = full_traces(seed);
        let engines: Vec<_> = schemes
            .iter()
            .map(|&s| {
                build_engine(&experiment(shape, s, &traces), &traces).expect("valid configuration")
            })
            .collect();
        (traces, engines)
    });
    let mut first_engines: Vec<Option<_>> = first_engines.into_iter().map(Some).collect();
    let configs: Vec<ExperimentConfig> =
        schemes.iter().map(|&s| experiment(shape, s, &traces)).collect();
    let offered: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let mut timed: Vec<Timed> = schemes
        .iter()
        .map(|s| Timed { label: s.label().to_string(), requests: offered, seconds: Vec::new() })
        .collect();
    let mut reference: Vec<Option<RunMetrics>> = vec![None; schemes.len()];
    measure_for(seconds, schemes.len(), |pass, i| {
        // A run consumes its engine; later passes rebuild it untimed.
        let mut engine = first_engines[i]
            .take()
            .unwrap_or_else(|| build_engine(&configs[i], &traces).expect("valid configuration"));
        let (secs, m) = run_boxed(engine.as_mut(), &configs[i], &traces);
        timed[i].seconds.push(secs);
        let disagrees = reference[i]
            .as_ref()
            .is_some_and(|r| !same_metrics(r, &m))
            .then(|| format!("pass {pass} disagrees with pass 0 on RunMetrics"));
        checker.metrics(&timed[i].label, offered, &m, disagrees);
        reference[i].get_or_insert(m);
    });
    let rss = peak_rss_mb();
    let reference: Vec<RunMetrics> =
        reference.into_iter().map(|r| r.expect("MIN_PASSES > 0")).collect();

    // The other clock mode must serve every request from the same place,
    // and a Hier-GD run must leave its P2P caches structurally sound.
    for (cfg, primary) in configs.iter().zip(&reference) {
        let mut twin_cfg = *cfg;
        twin_cfg.clock = other_clock(cfg.clock);
        twin_cfg.net = net_for(twin_cfg.clock);
        let label = format!("{} under the {} clock", cfg.scheme.label(), twin_cfg.clock.label());
        let (m, mut problem) = if cfg.scheme == SchemeKind::HierGd {
            let mut engine = HierGdSpec::of_experiment(&twin_cfg, &traces).build();
            let (_, m) = run_boxed(&mut engine, &twin_cfg, &traces);
            let caches = (0..twin_cfg.num_proxies).map(|p| engine.p2p(p));
            (m, invariant_problem(caches, shape.bloom))
        } else {
            let mut engine = build_engine(&twin_cfg, &traces).expect("valid configuration");
            (run_boxed(engine.as_mut(), &twin_cfg, &traces).1, None)
        };
        if problem.is_none() && !same_classes(primary, &m) {
            problem = Some("hit-class counts differ between the clock modes".into());
        }
        checker.metrics(&label, offered, &m, problem);
    }

    let total: u64 = reference.iter().map(|m| m.requests).sum();
    let latency = reference.iter().map(|m| m.total_latency).sum::<f64>() / total as f64;
    let server: u64 = reference.iter().map(|m| m.count(HitClass::Server)).sum();
    let mut sim = SimStats::new();
    for (scheme, m) in schemes.iter().zip(&reference) {
        let prefix =
            if schemes.len() == 1 { String::new() } else { format!("{}.", scheme.label()) };
        sim.extend(sim_rows(&prefix, m));
    }
    finish(setup_seconds, timed, rss, latency, 1.0 - server as f64 / total as f64, sim)
}

/// Why a drill's report condemns its run, if it does.
pub fn drill_problem(report: &ChurnReport) -> Option<String> {
    if !report.fully_available() {
        Some(format!("availability {}%", report.availability_percent))
    } else if report.invariant_violations > 0 {
        Some(format!("{} invariant violations", report.invariant_violations))
    } else {
        None
    }
}

/// Mean latency of a drill in the compat run's units: event drills run
/// on a network scaled by [`EVENT_NET_SCALE`] and are multiplied back.
fn drill_latency(drill: &Drill, report: &ChurnReport) -> f64 {
    let latency = report.avg_latency_milli as f64 / 1000.0;
    match drill.cfg.clock {
        ClockMode::Compat => latency,
        ClockMode::Event => latency / EVENT_NET_SCALE,
    }
}

fn drill_workload(seed: u64, seconds: f64, checker: &mut Checker) -> EndToEnd {
    // `run_churn` generates its trace and builds its engine inside the
    // timed call, so set-up is measured on the same steps done here:
    // parse the plans, generate the drill trace, build the drill engine.
    let (setup_seconds, all) = time_setups(|| {
        let all = drills(seed);
        let trace = drill_trace(&all[0].cfg);
        drop(HierGdSpec::of_drill(&all[0].cfg, &trace).build());
        all
    });

    let mut timed: Vec<Timed> = all
        .iter()
        .map(|d| Timed {
            label: d.label.clone(),
            requests: d.cfg.requests as u64,
            seconds: Vec::new(),
        })
        .collect();
    let mut reference: Vec<Option<ChurnReport>> = vec![None; all.len()];
    measure_for(seconds, all.len(), |pass, i| {
        let start = Instant::now();
        let report = run_churn(&all[i].cfg).expect("valid drill configuration");
        timed[i].seconds.push(start.elapsed().as_secs_f64());
        let problem = drill_problem(&report).or_else(|| {
            reference[i]
                .as_ref()
                .is_some_and(|r| *r != report)
                .then(|| format!("pass {pass} disagrees with pass 0 on the churn report"))
        });
        let served: u64 = report.served_by_class.iter().sum();
        checker.run(&all[i].label, timed[i].requests, served.min(report.requests), problem);
        reference[i].get_or_insert(report);
    });
    let rss = peak_rss_mb();

    let mut sim = SimStats::new();
    let (mut total, mut server, mut latency_sum) = (0u64, 0u64, 0.0);
    for (drill, report) in all.iter().zip(&reference) {
        let report = report.as_ref().expect("MIN_PASSES > 0");
        total += report.requests;
        server += report.served_by_class[HitClass::Server.index()];
        latency_sum += drill_latency(drill, report) * report.requests as f64;
        for class in HitClass::ALL {
            sim.push((
                format!("{}.class.{}", drill.label, class.label()),
                report.served_by_class[class.index()] as f64,
            ));
        }
        sim.push((format!("{}.avg_latency_milli", drill.label), report.avg_latency_milli as f64));
        sim.push((format!("{}.timeouts", drill.label), report.timeouts as f64));
    }
    finish(
        setup_seconds,
        timed,
        rss,
        latency_sum / total as f64,
        1.0 - server as f64 / total as f64,
        sim,
    )
}

/// Human-readable account of one end-to-end measurement.
pub fn describe(e: &EndToEnd) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (name, value) in &e.metrics {
        let unit = crate::spec::metric(name).map_or("", |m| m.unit);
        writeln!(s, "  {name:<18} {value:>16.6} {unit}").unwrap();
    }
    writeln!(
        s,
        "  set-up: median of {} full set-ups, quartile spread {:.1}%",
        e.setup_seconds.len(),
        100.0 * quartile_spread(&e.setup_seconds)
    )
    .unwrap();
    for t in &e.timed {
        writeln!(
            s,
            "  timed {:<28} {:>8} requests x {:>3} repeats  median {:.4} s  fastest {:.4} s  quartile spread {:.1}%",
            t.label,
            t.requests,
            t.seconds.len(),
            median(&t.seconds),
            t.seconds.iter().copied().fold(f64::INFINITY, f64::min),
            100.0 * quartile_spread(&t.seconds)
        )
        .unwrap();
    }
    s
}
