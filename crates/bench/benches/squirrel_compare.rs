//! §6 comparison: Hier-GD vs Squirrel (Iyer et al., PODC'02).
//!
//! The paper's related-work section argues its proxy-mediated design beats
//! proxy-less browser-cache pooling (Squirrel) because (a) the proxy adds
//! a fast shared tier and (b) firewalls prevent Squirrel organizations
//! from sharing objects with each other, while proxies cooperate freely.
//! This harness measures both effects: one organization (proxy-tier
//! advantage only) and two organizations (cross-org sharing on top).

use std::io::Write as _;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_sim::figures::synthetic_traces;
use webcache_sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache_sim::squirrel::SquirrelEngine;
use webcache_sim::{
    Engine, ExperimentConfig, HitClass, NetworkModel, NoopRecorder, RunMetrics, SchemeEngine,
    SchemeKind, SimClock, Sizing,
};
use webcache_workload::Trace;

fn run_engine<E: SchemeEngine>(e: &mut E, ts: &[Trace], net: &NetworkModel) -> RunMetrics {
    Engine::new(e, ts, net).run(&mut SimClock::compat(), &NoopRecorder)
}

fn main() {
    let scale = scale_or_full(150_000);
    eprintln!("squirrel_compare: {} requests/org", scale.requests);
    let cfg = ExperimentConfig::new(SchemeKind::HierGd, 0.2);

    println!("\n=== Hier-GD vs Squirrel (equal client-cache budgets) ===");
    println!(
        "{:>6}{:>12}{:>10}{:>10}{:>12}{:>12}{:>12}",
        "orgs", "scheme", "avg lat", "hit%", "own-p2p%", "cross-org%", "server%"
    );
    let mut csv = std::fs::File::create(figures_dir().join("squirrel_compare.csv")).expect("csv");
    writeln!(csv, "orgs,scheme,avg_latency,hit_ratio,own_p2p,cross_org,server").expect("csv");

    for orgs in [1usize, 2] {
        let traces: Vec<Trace> = synthetic_traces(orgs, scale, |_| {});
        let sizing = Sizing::derive(&cfg, &traces);
        let num_objects = traces.iter().map(|t| t.num_objects).max().unwrap();

        let mut squirrel = SquirrelEngine::new(
            orgs,
            cfg.clients_per_cluster,
            sizing.client_cache_capacity,
            num_objects,
            cfg.hiergd.pastry,
        );
        let ms = run_engine(&mut squirrel, &traces, &cfg.net);

        let mut hg = HierGdEngine::new(
            orgs,
            sizing.proxy_capacity,
            cfg.clients_per_cluster,
            sizing.client_cache_capacity,
            num_objects,
            cfg.net,
            HierGdOptions::default(),
        );
        let mh = run_engine(&mut hg, &traces, &cfg.net);

        for (name, m) in [("Squirrel", &ms), ("Hier-GD", &mh)] {
            let cross = m.fraction(HitClass::CoopProxy) + m.fraction(HitClass::CoopP2p);
            println!(
                "{orgs:>6}{name:>12}{:>10.3}{:>10.1}{:>12.1}{:>12.1}{:>12.1}",
                m.avg_latency(),
                m.hit_ratio() * 100.0,
                m.fraction(HitClass::OwnP2p) * 100.0,
                cross * 100.0,
                m.fraction(HitClass::Server) * 100.0,
            );
            writeln!(
                csv,
                "{orgs},{name},{:.4},{:.4},{:.4},{cross:.4},{:.4}",
                m.avg_latency(),
                m.hit_ratio(),
                m.fraction(HitClass::OwnP2p),
                m.fraction(HitClass::Server),
            )
            .expect("csv");
        }
    }
    println!(
        "\nNote: Squirrel has no proxy cache, so Hier-GD also carries a proxy tier\n\
         (the architectural point of the paper); the 2-org rows add the firewall\n\
         effect — Squirrel's cross-org column is structurally zero."
    );
    eprintln!("wrote {}", figures_dir().join("squirrel_compare.csv").display());
}
