//! Quickstart: simulate the paper's headline comparison in a few lines.
//!
//! Generates a small ProWGen workload for two cooperating proxies, runs
//! the NC baseline, SC, and Hier-GD, and prints latency gains.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use webcache::sim::{
    latency_gain_percent, run_experiment, run_experiment_recorded, ExperimentConfig, SchemeKind,
    StatsRecorder,
};
use webcache::workload::{ProWGen, ProWGenConfig};

fn main() {
    // One statistically identical client cluster per proxy (§5.1).
    let traces: Vec<_> = (0..2)
        .map(|p| {
            ProWGen::new(ProWGenConfig {
                requests: 100_000,
                distinct_objects: 5_000,
                seed: 2003 + p,
                ..ProWGenConfig::default()
            })
            .generate()
        })
        .collect();
    let u = traces[0].stats().infinite_cache_size;
    println!("workload: 2 proxies x 100k requests, infinite cache size U = {u}");

    // Proxy caches at 20% of U — the regime where client caches shine.
    // Validate once; `at` re-points the same topology.
    let frac = 0.2;
    let base = ExperimentConfig {
        num_proxies: 2,
        clients_per_cluster: 100,
        ..ExperimentConfig::new(SchemeKind::Nc, frac)
    };
    base.validate().expect("paper defaults are valid");
    let nc = run_experiment(&base, &traces).unwrap();
    println!(
        "\n{:<8} avg latency {:.2} (hit ratio {:.1}%)  — the baseline",
        "NC:",
        nc.avg_latency(),
        nc.hit_ratio() * 100.0
    );

    for scheme in [SchemeKind::Sc, SchemeKind::ScEc, SchemeKind::HierGd] {
        let m = run_experiment(&base.at(scheme, frac), &traces).unwrap();
        println!(
            "{:<8} avg latency {:.2} (hit ratio {:.1}%)  → latency gain {:+.1}%",
            format!("{}:", scheme.label()),
            m.avg_latency(),
            m.hit_ratio() * 100.0,
            latency_gain_percent(&nc, &m)
        );
    }

    // Attach a recorder to see *why* Hier-GD wins: where requests were
    // served from and what the P2P protocol did under the hood.
    let recorder = Arc::new(StatsRecorder::new());
    run_experiment_recorded(&base.at(SchemeKind::HierGd, frac), &traces, recorder.clone()).unwrap();
    let snap = recorder.snapshot();
    println!(
        "
Hier-GD internals: {} destages ({} piggybacked), {} P2P lookups          ({} stale), {} pushes",
        snap.destages, snap.piggybacked_destages, snap.lookups, snap.stale_lookups, snap.pushes
    );
    println!(
        "\nHier-GD federates the 100 client caches behind each proxy into a \
         Pastry DHT\nand destages proxy evictions into it — see \
         examples/corporate_network.rs."
    );
}
