//! Integration tests for the recorder observability layer: the stats it
//! reports must agree with the engine's own `RunMetrics`/message ledger,
//! attaching it must not perturb the simulation, and the `explain`-style
//! diagnostics must reproduce the claim-12/13 probes of
//! `tests/hiergd_system.rs`.

use std::sync::Arc;
use webcache::sim::{
    run_experiment, run_experiment_recorded, EventLogRecorder, ExperimentConfig, HitClass,
    SchemeKind, SimError, StatsRecorder,
};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

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

fn hiergd_cfg() -> ExperimentConfig {
    let cfg = ExperimentConfig {
        clients_per_cluster: 40,
        ..ExperimentConfig::new(SchemeKind::HierGd, 0.2)
    };
    cfg.validate().expect("valid config");
    cfg
}

#[test]
fn stats_recorder_agrees_with_run_metrics_and_ledger() {
    let ts = traces(2);
    let cfg = hiergd_cfg();
    let rec = Arc::new(StatsRecorder::new());
    let m = run_experiment_recorded(&cfg, &ts, rec.clone()).unwrap();
    let snap = rec.snapshot();

    // Per-request view: every request counted, in the right class.
    assert_eq!(snap.total_requests(), m.requests);
    for class in HitClass::ALL {
        assert_eq!(snap.count(class), m.count(class), "{}", class.label());
    }
    // Latency is milli-quantized in the histogram; the mean must agree to
    // well under the quantum.
    assert!((snap.avg_latency() - m.avg_latency()).abs() < 1e-3);

    // P2P protocol view: the recorder's event counts equal the message
    // ledger the engine merges in finish().
    assert_eq!(snap.piggybacked_destages, m.messages.piggybacked_objects);
    assert_eq!(snap.direct_destage_connections, m.messages.direct_destages);
    assert_eq!(snap.lookups, m.messages.lookups);
    assert_eq!(snap.stale_lookups, m.messages.stale_lookups);
    assert_eq!(snap.pushes, m.messages.pushes);
    assert_eq!(snap.diverted_destages, m.messages.diversions);
    assert!(snap.destages > 0);
    assert!(snap.directory_probes > 0);
}

#[test]
fn explain_diagnostics_reproduce_hiergd_system_probes() {
    // The same run `tests/hiergd_system.rs` checks through the ledger,
    // seen through the recorder.
    let ts = traces(2);
    let rec = Arc::new(StatsRecorder::new());
    let m = run_experiment_recorded(&hiergd_cfg(), &ts, rec.clone()).unwrap();
    let snap = rec.snapshot();

    // Claim 12: piggybacking means destaging opens no dedicated
    // connections, so all new connections come from pushes.
    assert_eq!(snap.direct_destage_connections, 0);
    assert_eq!(m.messages.new_connections, snap.pushes);
    assert!(snap.piggybacked_destages > 0);

    // Claim 13: the exact directory never produces a stale lookup.
    assert_eq!(snap.stale_lookups, 0);
    assert_eq!(snap.stale_lookup_rate(), 0.0);

    // Claim 11: lookups route in a bounded number of overlay hops
    // (40-node overlay, b = 4 ⇒ ⌈log16 40⌉ + 1 = 3).
    assert!(snap.lookups > 0);
    assert!(snap.lookup_hops.max <= 4, "hops {}", snap.lookup_hops.max);
}

#[test]
fn attaching_a_recorder_does_not_perturb_the_simulation() {
    let ts = traces(2);
    let cfg = hiergd_cfg();
    let plain = run_experiment(&cfg, &ts).unwrap();
    let rec = Arc::new(StatsRecorder::new());
    let observed = run_experiment_recorded(&cfg, &ts, rec).unwrap();
    // Bit-for-bit: same requests, same latency accumulation, same ledger.
    assert_eq!(plain.requests, observed.requests);
    assert_eq!(plain.total_latency.to_bits(), observed.total_latency.to_bits());
    assert_eq!(plain.by_class, observed.by_class);
    assert_eq!(plain.messages, observed.messages);
}

#[test]
fn event_log_mirrors_stats_counts_and_exports() {
    let ts = traces(1);
    let cfg = ExperimentConfig { num_proxies: 1, ..hiergd_cfg() };
    cfg.validate().unwrap();
    let stats = Arc::new(StatsRecorder::new());
    // Large enough to keep every event of the single-proxy run.
    let events = Arc::new(EventLogRecorder::new(2_000_000));
    run_experiment_recorded(&cfg, &ts, (stats.clone(), events.clone())).unwrap();
    assert_eq!(events.dropped(), 0, "capacity must hold the whole run");

    let snap = stats.snapshot();
    let evs = events.events();
    let count_kind =
        |label: &str| evs.iter().filter(|e| e.kind.kind_label() == label).count() as u64;
    assert_eq!(count_kind("request"), snap.total_requests());
    assert_eq!(count_kind("destage"), snap.destages);
    assert_eq!(count_kind("lookup"), snap.lookups);
    assert_eq!(count_kind("push"), snap.pushes);
    assert_eq!(count_kind("directory_probe"), snap.directory_probes);
    assert_eq!(count_kind("eviction"), snap.evictions);

    let dir = std::env::temp_dir().join("webcache-observability-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("events.csv");
    events.write_csv(&csv_path).unwrap();
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("seq,proxy,kind,class,latency,hops,detail"), "{}", &csv[..60]);
    assert_eq!(csv.lines().count() as u64, 1 + events.len() as u64);
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn event_log_ring_is_bounded() {
    let ts = traces(1);
    let cfg = ExperimentConfig { num_proxies: 1, ..hiergd_cfg() };
    cfg.validate().unwrap();
    let events = Arc::new(EventLogRecorder::new(500));
    run_experiment_recorded(&cfg, &ts, events.clone()).unwrap();
    assert_eq!(events.len(), 500);
    assert!(events.dropped() > 0);
    // The ring keeps the *latest* events: sequence numbers are contiguous
    // and end at total_recorded - 1.
    let evs = events.events();
    assert_eq!(evs.last().unwrap().seq, events.total_recorded() - 1);
    assert!(evs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
}

#[test]
fn typed_errors_surface_through_the_experiment_api() {
    let ts = traces(1);
    match run_experiment(&ExperimentConfig::new(SchemeKind::Nc, 0.5), &ts) {
        Err(SimError::TraceCountMismatch { traces: 1, proxies: 2 }) => {}
        other => panic!("expected TraceCountMismatch, got {other:?}"),
    }
    let bad = ExperimentConfig::new(SchemeKind::Nc, 0.0).validate();
    assert!(matches!(bad, Err(SimError::InvalidConfig(_))));
    assert!(matches!("squid".parse::<SchemeKind>(), Err(SimError::UnknownScheme(_))));
}
