//! Transport tax: what the unreliable-message layer costs Hier-GD.
//!
//! Sweeps message-loss and duplication/reordering rates through the
//! at-least-once transport and reports the latency surcharge (retries
//! and backoff priced as timeouts), retransmission volume, and the
//! idempotency check — dup/reorder rates must leave the hit breakdown
//! untouched. There is no paper figure for this; it quantifies the cost
//! of the robustness machinery the paper assumes away.

use std::io::Write as _;
use std::sync::Arc;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_p2p::TransportFaults;
use webcache_primitives::seed::derive;
use webcache_sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache_sim::{Engine, NetworkModel, SimClock, StatsRecorder};
use webcache_workload::{ProWGen, ProWGenConfig};

fn main() {
    let scale = scale_or_full(60_000);
    eprintln!("transport_tax: {} requests", scale.requests);
    let trace = ProWGen::new(ProWGenConfig {
        requests: scale.requests,
        distinct_objects: (scale.requests / 12).max(500),
        num_clients: 50,
        seed: 0x7A_C5,
        ..ProWGenConfig::default()
    })
    .generate();

    println!("\n=== Hier-GD under an unreliable transport ===");
    println!(
        "{:>8}{:>8}{:>12}{:>10}{:>12}{:>12}{:>12}{:>12}",
        "mloss", "dup", "avg lat", "requests", "retries", "dedups", "cksum fail", "timeouts"
    );
    let mut csv = std::fs::File::create(figures_dir().join("transport_tax.csv")).expect("csv");
    writeln!(csv, "mloss,dup_reorder,avg_latency,retries,dedups,checksum_failures,timeouts")
        .expect("csv");

    let mut baseline_by_class = None;
    for (mloss, dup) in
        [(0.0, 0.0), (0.0, 0.05), (0.01, 0.0), (0.05, 0.05), (0.10, 0.10), (0.25, 0.05)]
    {
        let recorder = Arc::new(StatsRecorder::new());
        let mut engine = HierGdEngine::with_recorder(
            1,
            (trace.num_objects / 10).max(10) as usize,
            64,
            4,
            trace.num_objects,
            NetworkModel::default(),
            HierGdOptions { replication: 2, ..HierGdOptions::default() },
            Arc::clone(&recorder),
        );
        if mloss > 0.0 || dup > 0.0 {
            engine.cluster_mut(0).0.set_transport(TransportFaults {
                loss: mloss,
                duplication: dup,
                reorder: dup,
                corruption: mloss / 10.0,
                seed: derive(0x7A_C5, "transport-tax"),
            });
        }
        let net = NetworkModel::default();
        let metrics = Engine::new(&mut engine, std::slice::from_ref(&trace), &net)
            .run(&mut SimClock::compat(), &recorder);
        let snap = recorder.snapshot();
        let avg = metrics.avg_latency();
        let served: u64 = snap.requests_by_class.iter().sum();
        assert_eq!(served, trace.requests.len() as u64, "the recorder saw every request");
        if mloss == 0.0 && dup == 0.0 {
            baseline_by_class = Some(snap.requests_by_class);
        } else if mloss == 0.0 {
            // Idempotency on the record: dup/reorder alone must not move
            // a single request to a different tier.
            assert_eq!(
                baseline_by_class.expect("baseline ran first"),
                snap.requests_by_class,
                "dup/reorder changed the hit breakdown"
            );
        }
        println!(
            "{:>8.2}{:>8.2}{:>12.4}{:>10}{:>12}{:>12}{:>12}{:>12}",
            mloss,
            dup,
            avg,
            served,
            snap.message_retries,
            snap.message_dedups,
            snap.checksum_failures,
            snap.timeouts
        );
        writeln!(
            csv,
            "{mloss},{dup},{avg:.6},{},{},{},{}",
            snap.message_retries, snap.message_dedups, snap.checksum_failures, snap.timeouts
        )
        .expect("csv");
        let problems = engine.p2p(0).check_invariants();
        assert!(problems.is_empty(), "invariants violated at mloss={mloss}: {problems:?}");
    }
    println!("\nwrote {}", figures_dir().join("transport_tax.csv").display());
}
