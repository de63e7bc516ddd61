//! Clock-mode pinning tests for the discrete-event core.
//!
//! Compat mode's contract is *byte identity*: replaying the analytic
//! pricing through the event clock must not move a single bit of any
//! report the repo pins — the fault-free run metrics, the churn report,
//! and the split-brain drill. Event mode's contract is *conservation*:
//! the cache dynamics are decided at admission time in both modes, so
//! per-class hit counts (and every recorder counter derived from them)
//! must agree with compat even though measured latencies differ; and the
//! wheel itself must deliver timestamps monotonically (enforced by an
//! assert inside `SimClock::pop`, so any violation aborts these tests).

use webcache::sim::{
    run_churn, run_experiment, ChurnConfig, ClockMode, Engine, ExperimentConfig, FaultPlan,
    HitClass, NetworkModel, NoopRecorder, RunMetrics, SchemeEngine, SchemeKind, SimClock,
    StatsRecorder,
};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

fn traces(n: usize, requests: usize, seed: u64) -> Vec<Trace> {
    (0..n)
        .map(|p| {
            ProWGen::new(ProWGenConfig {
                requests,
                distinct_objects: 1_200,
                num_clients: 25,
                seed: seed + p as u64,
                ..ProWGenConfig::default()
            })
            .generate()
        })
        .collect()
}

/// The pre-clock reference semantics, reconstructed inline: serve each
/// request round-robin and price it analytically on the spot. Compat
/// mode must reproduce this bit for bit — this is the equivalence the
/// DESIGN.md proof sketch argues, checked mechanically.
fn analytic_reference<E: SchemeEngine + ?Sized>(
    engine: &mut E,
    traces: &[Trace],
    net: &NetworkModel,
) -> RunMetrics {
    let mut metrics = RunMetrics::default();
    let mut cursors = vec![0usize; traces.len()];
    loop {
        let mut live = 0;
        for (p, t) in traces.iter().enumerate() {
            let Some(req) = t.requests.get(cursors[p]) else { continue };
            cursors[p] += 1;
            live += 1;
            let admission = engine.admit(p, req);
            let latency = engine.price(net, &admission);
            metrics.record(admission.class, latency);
        }
        if live == 0 {
            break;
        }
    }
    engine.finish(&mut metrics);
    metrics
}

#[test]
fn compat_mode_is_bit_identical_to_the_analytic_reference() {
    let ts = traces(2, 25_000, 901);
    let net = NetworkModel::default();
    for scheme in [SchemeKind::ScEc, SchemeKind::HierGd, SchemeKind::Fc] {
        let mut cfg = ExperimentConfig::new(scheme, 0.2);
        cfg.clients_per_cluster = 25;
        cfg.clock = ClockMode::Compat;
        let via_clock = run_experiment(&cfg, &ts).unwrap();

        let mut reference = webcache::sim::config::build_engine(&cfg, &ts).unwrap();
        let expected = analytic_reference(reference.as_mut(), &ts, &net);

        assert_eq!(
            via_clock.total_latency.to_bits(),
            expected.total_latency.to_bits(),
            "{scheme:?}: compat pricing moved a bit of total latency"
        );
        assert_eq!(via_clock.by_class, expected.by_class, "{scheme:?}");
        assert_eq!(via_clock.requests, expected.requests, "{scheme:?}");
        assert_eq!(via_clock.messages, expected.messages, "{scheme:?}");
    }
}

#[test]
fn compat_churn_report_matches_the_committed_golden() {
    // The same drill the churn golden pins, with the clock mode named
    // explicitly: routing the fault plan through the event wheel must
    // leave the committed bytes untouched.
    let plan: FaultPlan =
        "crash@900,crash@2100,depart@3300,crash@4500,rejoin@5400,slow@6300,crash@7200,\
         loss=0.01,seed=53710"
            .parse()
            .expect("spec is valid");
    let cfg = ChurnConfig {
        requests: 9_000,
        distinct_objects: 1_200,
        trace_clients: 40,
        clients_per_cluster: 32,
        trace_seed: 0xBEEF,
        plan,
        clock: ClockMode::Compat,
        ..ChurnConfig::default()
    };
    let rendered = run_churn(&cfg).expect("drill runs").to_json();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/churn_report.json");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    if rendered != golden {
        for (r, g) in rendered.lines().zip(golden.lines()) {
            assert_eq!(r, g, "compat churn report diverged from the committed golden");
        }
        assert_eq!(rendered.len(), golden.len(), "golden output length changed");
    }
}

#[test]
fn compat_splitbrain_drill_is_byte_stable_and_clean() {
    let plan: FaultPlan =
        "crash@400,partition@900{60|40},crash@1400,heal@2000,rejoin@2400,seed=4242"
            .parse()
            .expect("spec is valid");
    let cfg = ChurnConfig {
        requests: 4_000,
        distinct_objects: 500,
        trace_clients: 20,
        clients_per_cluster: 24,
        plan,
        clock: ClockMode::Compat,
        ..ChurnConfig::default()
    };
    let a = run_churn(&cfg).expect("drill runs");
    let b = run_churn(&cfg).expect("drill runs twice");
    assert_eq!(a.to_json(), b.to_json(), "split-brain drill must be byte-stable");
    assert_eq!(a.partitions, 1);
    assert_eq!(a.heals, 1);
    assert!(a.fully_available());
    assert_eq!(a.invariant_violations, 0);
}

#[test]
fn event_mode_churn_conserves_counts_and_stays_clean() {
    let plan: FaultPlan = "crash@500,partition@1000{60|40},slow@1500,heal@2200,rejoin@2600,seed=77"
        .parse()
        .expect("spec is valid");
    let base = ChurnConfig {
        requests: 4_000,
        distinct_objects: 500,
        trace_clients: 20,
        clients_per_cluster: 24,
        plan,
        ..ChurnConfig::default()
    };
    let compat = run_churn(&ChurnConfig { clock: ClockMode::Compat, ..base.clone() }).unwrap();
    let event = run_churn(&ChurnConfig { clock: ClockMode::Event, ..base }).unwrap();
    // Admissions (and therefore every cache/fault counter) are identical;
    // only the latency accounting changes with the clock mode.
    assert_eq!(event.served_by_class, compat.served_by_class);
    assert_eq!(event.requests, compat.requests);
    assert_eq!(event.crashes, compat.crashes);
    assert_eq!(event.partitions, compat.partitions);
    assert_eq!(event.heals, compat.heals);
    assert_eq!(event.timeouts, compat.timeouts);
    assert_eq!(event.stale_hits, compat.stale_hits);
    assert_eq!(event.invariant_violations, 0);
    assert!(event.fully_available());
    // Serialization through a busy proxy can only add waiting time.
    assert!(
        event.avg_latency_milli >= compat.avg_latency_milli,
        "queuing delay cannot make the run faster: {} vs {}",
        event.avg_latency_milli,
        compat.avg_latency_milli
    );
}

proptest::proptest! {
    // Keep the case count modest: each case is a full pair of engine runs.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Event-mode conservation, fuzzed over workload shape and seed: the
    /// per-class hit counts match compat bit for bit, the recorder sees
    /// every request exactly once, and the wheel's ledger balances
    /// (scheduled == delivered, queue drained). Timestamp monotonicity is
    /// asserted inside `SimClock::pop` itself, so merely completing a run
    /// proves delivery order never went backwards.
    #[test]
    fn event_mode_conserves_admissions(
        seed in 0u64..1_000,
        requests in 200usize..2_000,
        proxies in 1usize..3,
    ) {
        let ts: Vec<Trace> = (0..proxies)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests,
                    distinct_objects: (requests / 4).max(20),
                    num_clients: 10,
                    seed: seed + p as u64,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect();
        let net = NetworkModel::default();
        let run = |mode: ClockMode| {
            let mut engine =
                webcache::sim::lfu_schemes::LfuFamilyEngine::new(proxies, 40, 80, true);
            let recorder = StatsRecorder::new();
            let mut clock = SimClock::new(mode);
            let m = Engine::new(&mut engine, &ts, &net).run(&mut clock, &recorder);
            (m, recorder.snapshot(), clock)
        };
        let (mc, sc, _) = run(ClockMode::Compat);
        let (me, se, clock) = run(ClockMode::Event);
        proptest::prop_assert_eq!(mc.by_class, me.by_class);
        proptest::prop_assert_eq!(mc.requests, me.requests);
        proptest::prop_assert_eq!(me.requests, (proxies * requests) as u64);
        for class in HitClass::ALL {
            proptest::prop_assert_eq!(sc.count(class), se.count(class));
        }
        proptest::prop_assert_eq!(se.total_requests(), me.requests);
        proptest::prop_assert_eq!(clock.scheduled(), clock.delivered());
        proptest::prop_assert!(clock.is_empty());
        // Event mode measures waiting + service; it can never beat the
        // analytic lower bound.
        proptest::prop_assert!(me.total_latency >= mc.total_latency - 1e-9);
    }
}

/// Event mode with a `NoopRecorder` still conserves everything the
/// metrics see — the recorder is orthogonal to the clock.
#[test]
fn event_mode_noop_recorder_smoke() {
    let ts = traces(2, 5_000, 31);
    let net = NetworkModel::default();
    let mut engine = webcache::sim::lfu_schemes::LfuFamilyEngine::new(2, 40, 80, true);
    let mut clock = SimClock::event();
    let m = Engine::new(&mut engine, &ts, &net).run(&mut clock, &NoopRecorder);
    assert_eq!(m.requests, 10_000);
    assert!(clock.now() > 0);
    assert!(clock.is_empty());
}
