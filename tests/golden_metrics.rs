//! Golden-output regression test: every scheme's `RunMetrics` must stay
//! bit-for-bit identical across performance work.
//!
//! The committed golden file was generated from the pre-optimization
//! simulator (BTreeSet-backed greedy-dual, SipHash maps, unmemoized
//! routing). Hot-path optimizations must not change a single bit of
//! simulation output: hit counts per class, the exact total latency
//! (compared via `f64::to_bits`), and every message-ledger counter.
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDEN=1 cargo test --release --test golden_metrics`.

mod common;

use std::fmt::Write as _;
use webcache::sim::{run_experiment, ExperimentConfig, HitClass, SchemeKind};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

const GOLDEN_PATH: &str = "tests/golden/run_metrics.json";

fn traces() -> Vec<Trace> {
    (0..2)
        .map(|p| {
            ProWGen::new(ProWGenConfig {
                requests: 40_000,
                distinct_objects: 3_000,
                num_clients: 50,
                seed: 77 + p,
                ..ProWGenConfig::default()
            })
            .generate()
        })
        .collect()
}

/// Renders one run as a canonical JSON object: keys in fixed order, the
/// latency both as decimal (readable) and as IEEE-754 bits (exact).
fn canonical_entry(scheme: SchemeKind, cache_frac: f64, traces: &[Trace]) -> String {
    let mut cfg = ExperimentConfig::new(scheme, cache_frac);
    cfg.clients_per_cluster = 50;
    let m = run_experiment(&cfg, traces).unwrap();
    let classes = [
        HitClass::LocalProxy,
        HitClass::OwnP2p,
        HitClass::CoopProxy,
        HitClass::CoopP2p,
        HitClass::Server,
    ];
    let mut s = String::new();
    write!(
        s,
        "  {{\"scheme\": \"{}\", \"cache_frac\": {:.1}, \"requests\": {}, \
         \"total_latency\": {:.6}, \"total_latency_bits\": \"{:#018x}\", \"by_class\": {{",
        scheme.label(),
        cache_frac,
        m.requests,
        m.total_latency,
        m.total_latency.to_bits()
    )
    .unwrap();
    for (i, c) in classes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{}\": {}", c.label(), m.count(*c)).unwrap();
    }
    let msg = &m.messages;
    write!(
        s,
        "}}, \"messages\": {{\"overlay_messages\": {}, \"new_connections\": {}, \
         \"piggybacked_objects\": {}, \"direct_destages\": {}, \"store_receipts\": {}, \
         \"diversions\": {}, \"lookups\": {}, \"stale_lookups\": {}, \"pushes\": {}}}}}",
        msg.overlay_messages,
        msg.new_connections,
        msg.piggybacked_objects,
        msg.direct_destages,
        msg.store_receipts,
        msg.diversions,
        msg.lookups,
        msg.stale_lookups,
        msg.pushes
    )
    .unwrap();
    s
}

fn render_all() -> String {
    let ts = traces();
    let mut out = String::from("[\n");
    let mut first = true;
    for &scheme in &SchemeKind::ALL {
        for &frac in &[0.1, 0.5] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&canonical_entry(scheme, frac, &ts));
        }
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn run_metrics_match_golden() {
    let rendered = render_all();
    common::assert_golden(GOLDEN_PATH, &rendered);
}
