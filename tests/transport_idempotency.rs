//! Idempotency golden test for the unreliable transport: with message
//! duplication and reordering at 5% each, the end-state cache contents
//! and lookup directory must be **byte-identical** to a fault-free run
//! on the same trace — duplicate deliveries are absorbed by the
//! receivers' dedup windows and reordering only costs latency, so
//! neither may ever mutate state.
//!
//! The canonical end state is also pinned against a committed golden
//! file, so a protocol change that silently shifts what the cluster
//! holds fails here even if both runs shift together. See
//! `common::compare` for how to adopt an intentional change.

mod common;

use std::sync::Arc;
use webcache::p2p::TransportFaults;
use webcache::primitives::seed::derive;
use webcache::sim::engine::SchemeEngine;
use webcache::sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache::sim::{Engine, NetworkModel, SimClock, StatsRecorder, StatsSnapshot};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

const GOLDEN_PATH: &str = "tests/golden/transport_end_state.txt";

fn trace() -> Trace {
    ProWGen::new(ProWGenConfig {
        requests: 6_000,
        distinct_objects: 500,
        num_clients: 20,
        seed: 0xD0_5EED,
        ..ProWGenConfig::default()
    })
    .generate()
}

/// Drives one Hier-GD engine over the trace through the compat-clock
/// run loop, optionally behind a lossy transport, and returns the
/// canonical end state + counters (per-class request counts included).
fn end_state(trace: &Trace, faults: Option<TransportFaults>) -> (String, StatsSnapshot) {
    let recorder = Arc::new(StatsRecorder::new());
    let mut engine = HierGdEngine::with_recorder(
        1,
        60,
        24,
        4,
        trace.num_objects,
        NetworkModel::default(),
        HierGdOptions { replication: 2, ..HierGdOptions::default() },
        Arc::clone(&recorder),
    );
    if let Some(f) = faults {
        engine.cluster_mut(0).0.set_transport(f);
    }
    let net = NetworkModel::default();
    Engine::new(&mut engine, std::slice::from_ref(trace), &net)
        .run(&mut SimClock::compat(), &recorder);
    (engine.p2p(0).contents_snapshot(), recorder.snapshot())
}

#[test]
fn duplication_and_reordering_leave_end_state_byte_identical() {
    let trace = trace();
    let (clean, clean_stats) = end_state(&trace, None);
    let faults = TransportFaults {
        loss: 0.0,
        duplication: 0.05,
        reorder: 0.05,
        corruption: 0.0,
        seed: derive(0xD0_5EED, "idempotency"),
    };
    let (faulty, faulty_stats) = end_state(&trace, Some(faults));

    // The transport must actually have fired…
    assert!(faulty_stats.message_dedups > 0, "no duplicate deliveries were drawn");
    // …and every request must have been served from the same tier: a
    // dup or reorder draw is priced, never allowed to change routing.
    assert_eq!(clean_stats.requests_by_class.iter().sum::<u64>(), trace.requests.len() as u64);
    assert_eq!(clean_stats.requests_by_class, faulty_stats.requests_by_class);
    // The contract itself: cache contents, replica sets, the lookup
    // directory and the limbo set are byte-identical.
    assert_eq!(clean, faulty, "dup/reorder transport changed the end state");

    // Pin the canonical end state against the committed golden bytes.
    common::compare(GOLDEN_PATH, &clean).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn lossy_transport_may_shed_state_but_never_corrupts_it() {
    let trace = trace();
    let faults = TransportFaults {
        loss: 0.25,
        duplication: 0.0,
        reorder: 0.0,
        corruption: 0.1,
        seed: derive(0xD0_5EED, "lossy"),
    };
    let recorder = Arc::new(StatsRecorder::new());
    let mut engine = HierGdEngine::with_recorder(
        1,
        60,
        24,
        4,
        trace.num_objects,
        NetworkModel::default(),
        HierGdOptions { replication: 2, ..HierGdOptions::default() },
        Arc::clone(&recorder),
    );
    engine.cluster_mut(0).0.set_transport(faults);
    for req in &trace.requests {
        engine.serve(0, req);
    }
    let snap = recorder.snapshot();
    assert!(snap.message_retries > 0, "loss at 25% must force retransmissions");
    assert!(snap.checksum_failures > 0, "corruption at 10% must trip the checksum");
    assert!(snap.timeouts >= snap.message_retries, "every retry is priced as a timeout");
    // Dropped destages shed objects, but the structure stays reconciled.
    let problems = engine.p2p(0).check_invariants();
    assert!(problems.is_empty(), "invariants violated: {problems:?}");
}
