//! Churn drill: Hier-GD under client-machine crashes.
//!
//! §4.1 claims the P2P client cache is "fault-resilient, and
//! self-organizing". This harness runs the fault-injection subsystem
//! (silent crashes, lazy detection, stale-directory retry, message loss)
//! through [`run_churn`] at increasing crash counts, each against a
//! fault-free twin, and reports availability, repair and the latency cost
//! of churn. There is no paper figure for this; it backs the claim with a
//! measurement.

use std::io::Write as _;
use webcache_bench::figures_dir;
use webcache_sim::{run_churn, ChurnConfig, FaultAction, FaultPlan};

/// Requests per drill.
const REQUESTS: usize = 100_000;

fn main() {
    eprintln!("churn_drill: {REQUESTS} requests");
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
    for crashes in [0u64, 5, 10, 20] {
        let mut plan = FaultPlan::none();
        let step = (REQUESTS as u64 / (crashes + 1)).max(1);
        for c in 1..=crashes {
            plan.push(step * c, FaultAction::Crash);
        }
        plan.loss = if crashes == 0 { 0.0 } else { 0.01 };
        plan.seed = 0x5EED_2003;
        let cfg = ChurnConfig { requests: REQUESTS, plan, ..ChurnConfig::default() };
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
