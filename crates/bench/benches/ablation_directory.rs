//! §4.2 trade-off: exact directory vs Bloom filters of varying size.
//!
//! "Bloom filters … provide a tradeoff between the memory requirement and
//! the false positive ratio (which induces false indications that the
//! requested objects are in the P2P client cache)." The harness runs
//! Hier-GD with an exact directory and with counting Bloom filters at
//! several counters-per-key budgets, reporting memory, measured
//! false-positive-driven stale lookups, and latency.

use std::io::Write as _;
use std::sync::Arc;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_p2p::DirectoryKind;
use webcache_sim::figures::synthetic_traces;
use webcache_sim::{run_experiment_recorded, ExperimentConfig, SchemeKind, Sizing, StatsRecorder};

fn main() {
    let scale = scale_or_full(100_000);
    eprintln!("ablation_directory: {} requests/proxy", scale.requests);
    let traces = synthetic_traces(2, scale, |_| {});
    let base = ExperimentConfig::new(SchemeKind::HierGd, 0.2);
    let expected = Sizing::derive(&base, &traces).p2p_capacity;

    let mut kinds: Vec<(String, DirectoryKind)> = vec![("exact".into(), DirectoryKind::Exact)];
    for cpk in [2.0f64, 4.0, 8.0, 16.0] {
        kinds.push((
            format!("bloom-{cpk:.0}cpk"),
            DirectoryKind::Bloom { counters_per_key: cpk, expected_entries: expected },
        ));
    }

    println!("\n=== §4.2: lookup directory trade-off (Hier-GD, cache = 20% of U) ===");
    println!(
        "{:>14}{:>12}{:>12}{:>14}{:>12}{:>12}",
        "directory", "mem (B)", "lookups", "stale (FP)", "probe hit%", "avg lat"
    );
    let mut csv = std::fs::File::create(figures_dir().join("ablation_directory.csv")).expect("csv");
    writeln!(
        csv,
        "directory,memory_bytes,lookups,stale_lookups,directory_probes,probe_hit_rate,avg_latency"
    )
    .expect("csv");
    for (name, kind) in kinds {
        let mut cfg = base;
        cfg.hiergd.directory = kind;
        let recorder = Arc::new(StatsRecorder::new());
        let m = run_experiment_recorded(&cfg, &traces, recorder.clone()).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.stale_lookups, m.messages.stale_lookups, "recorder vs ledger");
        // Memory: rebuild a representative directory at capacity.
        let mem = directory_memory(kind, expected);
        let hit_rate = if snap.directory_probes == 0 {
            0.0
        } else {
            snap.directory_probe_hits as f64 / snap.directory_probes as f64
        };
        println!(
            "{name:>14}{mem:>12}{:>12}{:>14}{:>12.2}{:>12.3}",
            snap.lookups,
            snap.stale_lookups,
            hit_rate * 100.0,
            m.avg_latency()
        );
        writeln!(
            csv,
            "{name},{mem},{},{},{},{:.4},{:.4}",
            snap.lookups,
            snap.stale_lookups,
            snap.directory_probes,
            hit_rate,
            m.avg_latency()
        )
        .expect("csv");
    }
    eprintln!("wrote {}", figures_dir().join("ablation_directory.csv").display());
}

fn directory_memory(kind: DirectoryKind, entries: usize) -> usize {
    let mut d = webcache_p2p::LookupDirectory::new(kind);
    for i in 0..entries as u128 {
        d.insert(i * 0x9E37_79B9_7F4A_7C15 + 1);
    }
    d.size_bytes()
}
