//! End-to-end Hier-GD system tests: the full §3–4 machinery driven by a
//! real workload, with structural invariants checked afterwards.

use webcache::p2p::DirectoryKind;
use webcache::sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache::sim::{
    latency_gain_percent, run_experiment, Engine, ExperimentConfig, NetworkModel, NoopRecorder,
    RunMetrics, SchemeKind, SimClock,
};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

fn run_engine(e: &mut HierGdEngine, ts: &[Trace], net: &NetworkModel) -> RunMetrics {
    Engine::new(e, ts, net).run(&mut SimClock::compat(), &NoopRecorder)
}

fn traces(n: usize) -> Vec<Trace> {
    (0..n)
        .map(|p| {
            ProWGen::new(ProWGenConfig {
                requests: 60_000,
                distinct_objects: 3_000,
                num_clients: 40,
                seed: 4000 + p as u64,
                ..ProWGenConfig::default()
            })
            .generate()
        })
        .collect()
}

fn engine(opts: HierGdOptions, clients: usize) -> HierGdEngine {
    HierGdEngine::new(2, 150, clients, 4, 3_000, NetworkModel::default(), opts)
}

#[test]
fn full_run_preserves_p2p_invariants() {
    let ts = traces(2);
    let mut e = engine(HierGdOptions::default(), 40);
    let m = run_engine(&mut e, &ts, &NetworkModel::default());
    assert_eq!(m.requests, 120_000);
    for p in 0..2 {
        let problems = e.p2p(p).check_invariants();
        assert!(problems.is_empty(), "proxy {p}: {problems:?}");
        // Destaging actually filled the client caches.
        assert!(!e.p2p(p).is_empty());
        // Exact directory mirrors content exactly.
        assert_eq!(e.p2p(p).directory().len(), e.p2p(p).len());
    }
    assert_eq!(m.messages.stale_lookups, 0);
    assert!(m.messages.piggybacked_objects > 0);
    assert_eq!(m.messages.new_connections, m.messages.pushes);
}

#[test]
fn bloom_directory_tradeoff_more_memory_fewer_stale_lookups() {
    let ts = traces(1);
    let run_with = |cpk: f64| {
        let opts = HierGdOptions {
            directory: DirectoryKind::Bloom { counters_per_key: cpk, expected_entries: 160 },
            ..HierGdOptions::default()
        };
        let mut e = HierGdEngine::new(1, 150, 40, 4, 3_000, NetworkModel::default(), opts);
        let m = run_engine(&mut e, &ts, &NetworkModel::default());
        // A stale lookup must not make the filter forget what it counted:
        // every resident object still reads present at the end.
        let problems = e.p2p(0).check_invariants();
        assert!(
            problems.is_empty(),
            "{cpk} counters/key: {} violations, first {:?}",
            problems.len(),
            problems.first()
        );
        m.messages.stale_lookups
    };
    let [tight, _, _, roomy] = [1.0, 2.0, 8.0, 16.0].map(run_with);
    assert!(
        tight > roomy,
        "1 counter/key stale lookups {tight} should exceed 16 counters/key {roomy}"
    );
}

#[test]
fn hiergd_latency_insensitive_to_directory_false_positive_overheads() {
    // A false positive costs a wasted P2P lookup but the request is still
    // served; total latency differs only through second-order effects.
    let ts = traces(2);
    let exact = run_experiment(&ExperimentConfig::new(SchemeKind::HierGd, 0.2), &ts).unwrap();
    let mut cfg = ExperimentConfig::new(SchemeKind::HierGd, 0.2);
    cfg.hiergd.directory = DirectoryKind::Bloom { counters_per_key: 8.0, expected_entries: 500 };
    let bloom = run_experiment(&cfg, &ts).unwrap();
    let rel = (exact.avg_latency() - bloom.avg_latency()).abs() / exact.avg_latency();
    assert!(rel < 0.05, "directory kind changed latency by {:.1}%", rel * 100.0);
}

#[test]
fn figure5c_larger_client_cluster_larger_gain() {
    let ts = traces(2);
    let gain_with = |clients: usize| {
        let mut cfg = ExperimentConfig::new(SchemeKind::Nc, 0.1);
        let nc = run_experiment(&cfg, &ts).unwrap();
        cfg.scheme = SchemeKind::HierGd;
        cfg.clients_per_cluster = clients;
        latency_gain_percent(&nc, &run_experiment(&cfg, &ts).unwrap())
    };
    let g40 = gain_with(40);
    let g160 = gain_with(160);
    assert!(g160 > g40, "160-client cluster gain {g160:.1} should exceed 40-client gain {g40:.1}");
}

#[test]
fn push_protocol_serves_remote_clusters() {
    let ts = traces(2);
    let mut e = engine(HierGdOptions::default(), 40);
    let m = run_engine(&mut e, &ts, &NetworkModel::default());
    // Some requests must have been served out of the *other* proxy's P2P
    // cache, which is only reachable through the push protocol.
    assert!(
        m.count(webcache::sim::HitClass::CoopP2p) > 0,
        "expected push-protocol hits: {:?}",
        m.by_class
    );
    assert!(m.messages.pushes > 0);
}

#[test]
fn deterministic_across_runs() {
    let ts = traces(2);
    let run = || {
        let mut e = engine(HierGdOptions::default(), 40);
        run_engine(&mut e, &ts, &NetworkModel::default())
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_latency, b.total_latency);
    assert_eq!(a.by_class, b.by_class);
    assert_eq!(a.messages, b.messages);
}
