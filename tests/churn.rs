//! Client-machine churn during a Hier-GD run: the fault-resilience /
//! self-organization claim of §4.1, end to end.

use webcache::sim::engine::SchemeEngine;
use webcache::sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache::sim::{run_churn, ChurnConfig, FaultAction, FaultPlan, NetworkModel, RunMetrics};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

fn trace() -> Trace {
    ProWGen::new(ProWGenConfig {
        requests: 40_000,
        distinct_objects: 2_000,
        num_clients: 30,
        seed: 0xC4A5,
        ..ProWGenConfig::default()
    })
    .generate()
}

#[test]
fn hiergd_survives_rolling_client_failures() {
    let t = trace();
    let net = NetworkModel::default();
    let mut engine = HierGdEngine::new(1, 100, 30, 5, 2_000, net, HierGdOptions::default());
    let mut metrics = RunMetrics::default();
    for (i, req) in t.requests.iter().enumerate() {
        let class = engine.serve(0, req);
        metrics.record(class, net.latency(class));
        // Crash a machine every 4000 requests (10 failures total).
        if i % 4_000 == 3_999 {
            let victim = engine.p2p(0).node_ids().nth(i / 4_000).expect("cluster non-empty");
            let (p2p, mut tap) = engine.cluster_mut(0);
            p2p.fail_node_tap(victim, &mut tap).expect("victim is live");
            let problems = engine.p2p(0).check_invariants();
            assert!(problems.is_empty(), "after failure at {i}: {problems:?}");
        }
    }
    engine.finish(&mut metrics);
    assert_eq!(metrics.requests, 40_000, "every request must still be served");
    assert!(metrics.hit_ratio() > 0.0);
    // The cluster shrank but kept working.
    assert_eq!(engine.p2p(0).node_ids().count(), 30 - 10);
}

/// The headline robustness acceptance run: ten unannounced crashes plus
/// 1% message loss over the full 40k-request Hier-GD drill. Every request
/// must still be served, every timeout/stale-hit/re-replication must be
/// accounted for by the recorder, and the overlay + directory invariants
/// must hold at every detection point.
#[test]
fn ten_silent_crashes_and_one_percent_loss_stay_fully_available() {
    let mut plan = FaultPlan::none();
    for c in 1..=10u64 {
        plan.push(c * 3_500, FaultAction::Crash);
    }
    plan.loss = 0.01;
    plan.seed = 0xACCE55;
    let cfg = ChurnConfig { plan, ..ChurnConfig::default() };
    assert_eq!(cfg.requests, 40_000, "acceptance run is the default drill length");
    let report = run_churn(&cfg).expect("drill runs");

    // Availability: the cascade degrades to proxy → server, never drops.
    assert!(report.fully_available(), "availability {}%", report.availability_percent);
    assert_eq!(report.requests, 40_000);
    assert_eq!(report.served_by_class.iter().sum::<u64>(), 40_000);

    // Fault bookkeeping reconciles exactly.
    assert_eq!(report.crashes, 10, "all ten crashes applied");
    assert_eq!(report.skipped_actions, 0);
    assert_eq!(
        report.detected_crashes + report.undetected_crashes,
        report.crashes,
        "every crash is either detected or still outstanding at end of run"
    );
    assert!(report.detected_crashes > 0, "traffic must walk into some corpses");
    assert!(
        report.dead_node_timeouts <= report.timeouts,
        "dead-node timeouts are a subset of all timeouts"
    );
    assert!(
        report.stale_hits_replica_served <= report.stale_hits,
        "replica rescues are a subset of stale directory hits"
    );
    assert!(report.stale_hits > 0, "silent crashes must leave stale directory entries");
    // Lazy repair keeps stale hits bounded by the objects a corpse can
    // hold: a crashed machine's entries are purged at its detection.
    assert!(
        report.stale_hits <= report.crashes * cfg.client_cache_capacity as u64,
        "{} stale hits from {} crashes of {}-object machines",
        report.stale_hits,
        report.crashes,
        cfg.client_cache_capacity
    );
    assert!(report.timeouts > 0, "stale hits and dead routes must cost timeouts");

    // Invariants held at every lazy-detection point.
    assert_eq!(report.invariant_violations, 0);

    // Faults cost latency relative to the fault-free twin, never gain.
    assert!(
        report.avg_latency_milli >= report.fault_free_avg_latency_milli,
        "faulty {} < fault-free {}",
        report.avg_latency_milli,
        report.fault_free_avg_latency_milli
    );
}

/// Stale directory hit → leaf-set replica retry → proxy/server fallback:
/// with replication k=2 some stale hits are rescued by a replica; with
/// k=1 there is no second copy, so every stale hit falls through to the
/// proxy/server path — and either way availability stays 100%.
#[test]
fn replicas_rescue_stale_hits_and_k1_falls_back_to_server() {
    let drill = |replication: usize| {
        let mut plan = FaultPlan::none();
        for c in 1..=6u64 {
            plan.push(c * 1_500, FaultAction::Crash);
        }
        plan.seed = 42;
        let cfg = ChurnConfig { requests: 12_000, replication, plan, ..ChurnConfig::default() };
        run_churn(&cfg).expect("drill runs")
    };
    let replicated = drill(2);
    assert!(replicated.fully_available());
    assert!(replicated.stale_hits > 0, "crashes must produce stale hits");
    assert!(
        replicated.stale_hits_replica_served > 0,
        "k=2 must rescue some stale hits from the surviving replica"
    );
    assert!(replicated.rereplications > 0, "repair must restore the replication factor");

    let unreplicated = drill(1);
    assert!(unreplicated.fully_available(), "k=1 still serves everything via the server");
    assert_eq!(
        unreplicated.stale_hits_replica_served, 0,
        "with a single copy there is no replica to rescue a stale hit"
    );
    assert_eq!(unreplicated.invariant_violations, 0);
}

#[test]
fn churn_costs_latency_but_not_correctness() {
    let t = trace();
    let net = NetworkModel::default();
    let run = |failures: usize| {
        let mut engine = HierGdEngine::new(1, 100, 30, 5, 2_000, net, HierGdOptions::default());
        let mut metrics = RunMetrics::default();
        let every = t.len().checked_div(failures).unwrap_or(usize::MAX);
        for (i, req) in t.requests.iter().enumerate() {
            let class = engine.serve(0, req);
            metrics.record(class, net.latency(class));
            if failures > 0 && i % every == every - 1 && i / every < failures {
                let victim = engine.p2p(0).node_ids().next().expect("cluster non-empty");
                let (p2p, mut tap) = engine.cluster_mut(0);
                p2p.fail_node_tap(victim, &mut tap).expect("victim is live");
            }
        }
        engine.finish(&mut metrics);
        metrics
    };
    let calm = run(0);
    let stormy = run(6);
    assert_eq!(calm.requests, stormy.requests);
    // Losing cached objects can only push latency up (allow a whisker of
    // slack: evictions redirect, changing downstream decisions).
    assert!(
        stormy.avg_latency() >= calm.avg_latency() * 0.995,
        "churn should not make the cache better: calm {:.3} vs stormy {:.3}",
        calm.avg_latency(),
        stormy.avg_latency()
    );
}
