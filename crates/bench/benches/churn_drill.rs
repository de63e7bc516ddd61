//! Churn drill: Hier-GD under client-machine failures.
//!
//! §4.1 claims the P2P client cache is "fault-resilient, and
//! self-organizing". This harness runs Hier-GD while periodically crashing
//! client machines (losing their cached objects) and reports the latency
//! cost of churn plus post-churn invariant checks. There is no paper
//! figure for this; it backs the claim with a measurement.

use std::io::Write as _;
use std::sync::Arc;
use webcache_bench::{figures_dir, synthetic_traces, Scale};
use webcache_sim::engine::SchemeEngine;
use webcache_sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache_sim::recorder::Recorder as _;
use webcache_sim::{
    run_churn, ChurnConfig, EventLogRecorder, ExperimentConfig, FaultAction, FaultPlan, RunMetrics,
    SchemeKind, Sizing, StatsRecorder,
};

fn main() {
    let mut scale = Scale::from_env();
    if !scale.full {
        scale.requests = 100_000;
    }
    eprintln!("churn_drill: {} requests/proxy", scale.requests);
    let traces = synthetic_traces(2, scale, |_| {});
    let cfg = ExperimentConfig::new(SchemeKind::HierGd, 0.2);
    let sizing = Sizing::derive(&cfg, &traces);

    println!("\n=== Hier-GD under client churn (cache = 20% of U) ===");
    println!(
        "{:>18}{:>12}{:>12}{:>14}{:>14}{:>12}",
        "failures", "avg lat", "hit ratio", "stale lookups", "objects lost", "invariants"
    );
    let mut csv = std::fs::File::create(figures_dir().join("churn_drill.csv")).expect("csv");
    writeln!(
        csv,
        "failures_per_cluster,avg_latency,hit_ratio,stale_lookups,objects_lost,invariants_ok"
    )
    .expect("csv");

    for failures in [0usize, 5, 20] {
        let stats = Arc::new(StatsRecorder::new());
        let events = Arc::new(EventLogRecorder::new(50_000));
        let recorder = (stats.clone(), events.clone());
        let mut engine = HierGdEngine::with_recorder(
            2,
            sizing.proxy_capacity,
            cfg.clients_per_cluster,
            sizing.client_cache_capacity,
            traces.iter().map(|t| t.num_objects).max().unwrap(),
            cfg.net,
            HierGdOptions::default(),
            recorder.clone(),
        );
        // Drive both traces round-robin, injecting failures at evenly
        // spaced points.
        let len = traces[0].len().min(traces[1].len());
        let mut metrics = RunMetrics::default();
        let fail_every = len.checked_div(failures).unwrap_or(usize::MAX);
        let mut failed = 0usize;
        for i in 0..len {
            for (p, t) in traces.iter().enumerate() {
                let class = engine.serve(p, &t.requests[i]);
                let latency = cfg.net.latency(class);
                metrics.record(class, latency);
                recorder.request(p, class, latency);
            }
            if failures > 0 && i % fail_every == fail_every - 1 && failed < failures {
                for p in 0..2 {
                    // Deterministically pick a victim: the (rotating) nth
                    // node id in the cluster.
                    let victim = engine
                        .p2p(p)
                        .node_ids()
                        .nth(failed % cfg.clients_per_cluster)
                        .expect("cluster non-empty");
                    let (p2p, mut tap) = engine.cluster_mut(p);
                    p2p.fail_node_tap(victim, &mut tap).expect("victim is live");
                }
                failed += 1;
            }
        }
        engine.finish(&mut metrics);
        let invariants_ok = (0..2).all(|p| engine.p2p(p).check_invariants().is_empty());
        let snap = stats.snapshot();
        assert_eq!(snap.stale_lookups, metrics.messages.stale_lookups, "recorder vs ledger");
        assert_eq!(snap.node_failures, (failures * 2) as u64, "one failure per cluster per step");
        println!(
            "{:>18}{:>12.3}{:>12.3}{:>14}{:>14}{:>12}",
            failures,
            metrics.avg_latency(),
            metrics.hit_ratio(),
            snap.stale_lookups,
            snap.objects_lost,
            if invariants_ok { "OK" } else { "VIOLATED" }
        );
        writeln!(
            csv,
            "{failures},{:.4},{:.4},{},{},{invariants_ok}",
            metrics.avg_latency(),
            metrics.hit_ratio(),
            snap.stale_lookups,
            snap.objects_lost
        )
        .expect("csv");
        assert!(invariants_ok, "invariants must survive churn");
        // Export the tail of the event stream for the heaviest-churn run.
        if failures == 20 {
            let path = figures_dir().join("churn_drill_events.csv");
            events.write_csv(&path).expect("events csv");
            eprintln!(
                "wrote {} ({} events kept, {} dropped)",
                path.display(),
                events.len(),
                events.dropped()
            );
        }
    }
    eprintln!("wrote {}", figures_dir().join("churn_drill.csv").display());
    fault_plan_drill(scale);
}

/// Second panel: the full fault-injection subsystem (silent crashes,
/// lazy detection, stale-directory retry, message loss) measured against
/// a fault-free twin run at increasing crash counts via [`run_churn`].
fn fault_plan_drill(scale: Scale) {
    println!("\n=== Hier-GD under seeded fault plans (1% loss) ===");
    println!(
        "{:>10}{:>14}{:>12}{:>14}{:>14}{:>14}{:>12}",
        "crashes", "avail %", "stale hits", "replica-srvd", "rereplicated", "det.lat avg", "lat Δ%"
    );
    let mut csv = std::fs::File::create(figures_dir().join("churn_fault_plans.csv")).expect("csv");
    writeln!(
        csv,
        "crashes,availability,stale_hits,stale_hits_replica_served,rereplications,\
         detection_latency_avg,latency_delta_percent"
    )
    .expect("csv");
    let requests = scale.requests.min(100_000);
    for crashes in [0u64, 5, 10, 20] {
        let mut plan = FaultPlan::none();
        let step = (requests as u64 / (crashes + 1)).max(1);
        for c in 1..=crashes {
            plan.push(step * c, FaultAction::Crash);
        }
        plan.loss = if crashes == 0 { 0.0 } else { 0.01 };
        plan.seed = 0x5EED_2003;
        let cfg = ChurnConfig { requests, plan, ..ChurnConfig::default() };
        let r = run_churn(&cfg).expect("drill runs");
        assert!(r.fully_available(), "availability must stay 100%");
        assert_eq!(r.invariant_violations, 0, "invariants must survive churn");
        println!(
            "{:>10}{:>13.2}%{:>12}{:>14}{:>14}{:>14.1}{:>+11.2}%",
            crashes,
            r.availability_percent,
            r.stale_hits,
            r.stale_hits_replica_served,
            r.rereplications,
            r.detection_latency_avg,
            r.latency_delta_percent
        );
        writeln!(
            csv,
            "{crashes},{:.2},{},{},{},{:.2},{:.4}",
            r.availability_percent,
            r.stale_hits,
            r.stale_hits_replica_served,
            r.rereplications,
            r.detection_latency_avg,
            r.latency_delta_percent
        )
        .expect("csv");
    }
    eprintln!("wrote {}", figures_dir().join("churn_fault_plans.csv").display());
}
