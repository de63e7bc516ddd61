//! §4.4 ablation: piggybacked destaging vs dedicated connections.
//!
//! "Due to piggybacking, there are no new connections need to be made
//! between the local proxy and its clients when destaging evicted objects
//! from the proxy." This harness runs Hier-GD twice — piggyback on/off —
//! and reports the connection and message budgets. Latency is identical
//! by construction (the mechanism changes *how* objects travel, not
//! *where* they end up), which the harness asserts.

use std::io::Write as _;
use std::sync::Arc;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_sim::figures::synthetic_traces;
use webcache_sim::{run_experiment_recorded, ExperimentConfig, SchemeKind, StatsRecorder};

fn main() {
    let scale = scale_or_full(100_000);
    eprintln!("ablation_piggyback: {} requests/proxy", scale.requests);
    let traces = synthetic_traces(2, scale, |_| {});
    let mut results = Vec::new();
    for piggyback in [true, false] {
        let mut cfg = ExperimentConfig::new(SchemeKind::HierGd, 0.2);
        cfg.hiergd.piggyback = piggyback;
        let recorder = Arc::new(StatsRecorder::new());
        let m = run_experiment_recorded(&cfg, &traces, recorder.clone()).unwrap();
        let snap = recorder.snapshot();
        // The recorder's per-event counters must agree with the message
        // ledger the engine itself keeps.
        assert_eq!(snap.destages, m.messages.destages(), "recorder vs ledger destages");
        assert_eq!(
            snap.piggybacked_destages, m.messages.piggybacked_objects,
            "recorder vs ledger piggybacked"
        );
        results.push((piggyback, m, snap));
    }
    println!("\n=== §4.4: destage mechanism (Hier-GD, cache = 20% of U) ===");
    println!(
        "{:>12}{:>12}{:>14}{:>14}{:>16}{:>12}",
        "mechanism", "destages", "connections", "piggybacked", "overlay msgs", "avg lat"
    );
    let mut csv = std::fs::File::create(figures_dir().join("ablation_piggyback.csv")).expect("csv");
    writeln!(csv, "mechanism,destages,new_connections,piggybacked,overlay_messages,avg_latency")
        .expect("csv");
    for (piggyback, m, snap) in &results {
        let name = if *piggyback { "piggyback" } else { "direct" };
        println!(
            "{:>12}{:>12}{:>14}{:>14}{:>16}{:>12.3}",
            name,
            snap.destages,
            snap.direct_destage_connections,
            snap.piggybacked_destages,
            m.messages.overlay_messages,
            m.avg_latency()
        );
        writeln!(
            csv,
            "{name},{},{},{},{},{:.4}",
            snap.destages,
            snap.direct_destage_connections,
            snap.piggybacked_destages,
            m.messages.overlay_messages,
            m.avg_latency()
        )
        .expect("csv");
    }
    let (pig, dir) = (&results[0].1, &results[1].1);
    assert!(
        (pig.avg_latency() - dir.avg_latency()).abs() < 1e-9,
        "destage mechanism must not change cache behaviour"
    );
    // Claim 12, straight from the recorder: piggybacking opens zero
    // dedicated destage connections; direct mode opens one per destage.
    let (pig_snap, dir_snap) = (&results[0].2, &results[1].2);
    assert_eq!(pig_snap.direct_destage_connections, 0, "piggybacking must open no connections");
    assert_eq!(dir_snap.direct_destage_connections, dir_snap.destages);
    assert!(pig.messages.new_connections < dir.messages.new_connections);
    eprintln!("wrote {}", figures_dir().join("ablation_piggyback.csv").display());
}
