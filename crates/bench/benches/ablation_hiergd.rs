//! Hier-GD design-choice ablations (DESIGN.md per-experiment index).
//!
//! Three knobs the paper fixes are varied here to show they matter:
//!
//! * **object diversion** (§4.3) on/off — off wastes client-cache space
//!   under hash skew;
//! * **promote-on-P2P-hit** — §4.2's redirect semantics keep P2P hits in
//!   place; promoting trades P2P traffic for proxy locality;
//! * **proxy replacement policy** — greedy-dual (the paper's choice)
//!   vs what NC-style LFU at the same sizes achieves.

use std::io::Write as _;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_sim::figures::synthetic_traces;
use webcache_sim::{latency_gain_percent, run_experiment, ExperimentConfig, SchemeKind};

fn main() {
    let scale = scale_or_full(100_000);
    eprintln!("ablation_hiergd: {} requests/proxy", scale.requests);
    let traces = synthetic_traces(2, scale, |_| {});
    let frac = 0.2;
    let nc = run_experiment(&ExperimentConfig::new(SchemeKind::Nc, frac), &traces).unwrap();

    let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();
    {
        let cfg = ExperimentConfig::new(SchemeKind::HierGd, frac);
        let m = run_experiment(&cfg, &traces).unwrap();
        rows.push((
            "baseline".into(),
            latency_gain_percent(&nc, &m),
            m.avg_latency(),
            m.messages.diversions,
        ));
    }
    {
        let mut cfg = ExperimentConfig::new(SchemeKind::HierGd, frac);
        cfg.hiergd.diversion = false;
        let m = run_experiment(&cfg, &traces).unwrap();
        rows.push((
            "no-diversion".into(),
            latency_gain_percent(&nc, &m),
            m.avg_latency(),
            m.messages.diversions,
        ));
    }
    {
        let mut cfg = ExperimentConfig::new(SchemeKind::HierGd, frac);
        cfg.hiergd.promote_on_p2p_hit = true;
        let m = run_experiment(&cfg, &traces).unwrap();
        rows.push((
            "promote-on-hit".into(),
            latency_gain_percent(&nc, &m),
            m.avg_latency(),
            m.messages.diversions,
        ));
    }
    {
        // LFU at the proxy with the same client-cache budget: SC-EC is the
        // closest LFU-based counterpart with cooperation and client caches.
        let cfg = ExperimentConfig::new(SchemeKind::ScEc, frac);
        let m = run_experiment(&cfg, &traces).unwrap();
        rows.push(("lfu-scec".into(), latency_gain_percent(&nc, &m), m.avg_latency(), 0));
    }

    println!("\n=== Hier-GD ablations (cache = 20% of U, gain vs NC) ===");
    println!("{:>16}{:>12}{:>12}{:>12}", "variant", "gain (%)", "avg lat", "diversions");
    let mut csv = std::fs::File::create(figures_dir().join("ablation_hiergd.csv")).expect("csv");
    writeln!(csv, "variant,gain_pct,avg_latency,diversions").expect("csv");
    for (name, gain, lat, div) in &rows {
        println!("{name:>16}{gain:>12.1}{lat:>12.3}{div:>12}");
        writeln!(csv, "{name},{gain:.3},{lat:.4},{div}").expect("csv");
    }
    let baseline = rows[0].1;
    let no_div = rows[1].1;
    assert!(
        baseline >= no_div - 1.0,
        "diversion should not hurt: baseline {baseline} vs no-diversion {no_div}"
    );
    eprintln!("wrote {}", figures_dir().join("ablation_hiergd.csv").display());
}
