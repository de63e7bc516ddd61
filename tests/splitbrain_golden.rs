//! Golden-output regression test for partition reconciliation: the
//! canonical split-brain scenario — cut the overlay mid-run, keep
//! serving traffic so both islands re-home objects independently, then
//! heal — must converge to a **byte-identical** end state, pinned
//! against a committed golden file.
//!
//! This is the strongest guarantee the anti-entropy sweep offers: not
//! just "the invariants hold after heal" but "the exact merged
//! directory, stores, replica sets and epochs are a deterministic
//! function of the seed". A change to the epoch tie-break, the island
//! sweep order, or the replica-floor rebuild shifts these bytes and
//! fails here even if every invariant still passes.
//! See `common::compare` for how to adopt an intentional change.

mod common;

use std::sync::Arc;
use webcache::sim::engine::SchemeEngine;
use webcache::sim::hiergd::{HierGdEngine, HierGdOptions};
use webcache::sim::{NetworkModel, StatsRecorder};
use webcache::workload::{ProWGen, ProWGenConfig, Trace};

const GOLDEN_PATH: &str = "tests/golden/splitbrain_end_state.txt";

fn trace() -> Trace {
    ProWGen::new(ProWGenConfig {
        requests: 6_000,
        distinct_objects: 500,
        num_clients: 20,
        seed: 0x5911_7B12,
        ..ProWGenConfig::default()
    })
    .generate()
}

/// Drives the canonical split-brain scenario: a third of the run in one
/// piece, a third with the overlay cut 60/40, and the final third after
/// the heal. Returns the driven engine and its recorder.
fn split_brain_run(trace: &Trace) -> (HierGdEngine<Arc<StatsRecorder>>, Arc<StatsRecorder>) {
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
    let cut_at = trace.requests.len() / 3;
    let heal_at = 2 * trace.requests.len() / 3;
    for (i, req) in trace.requests.iter().enumerate() {
        if i == cut_at {
            let (p2p, mut tap) = engine.cluster_mut(0);
            assert!(p2p.partition_nodes(60, &mut tap), "cut must take effect");
        }
        if i == heal_at {
            let (p2p, mut tap) = engine.cluster_mut(0);
            assert!(p2p.heal_nodes(&mut tap), "heal must take effect");
        }
        engine.serve(0, req);
    }
    (engine, recorder)
}

#[test]
fn split_brain_reconciliation_matches_golden() {
    let trace = trace();
    let (engine, recorder) = split_brain_run(&trace);
    let state = engine.p2p(0).contents_snapshot();

    // The scenario must actually have exercised a split brain…
    let stats = recorder.snapshot();
    assert_eq!(stats.partitions_started, 1);
    assert_eq!(stats.partitions_healed, 1);
    assert!(stats.entries_reconciled > 0, "no B-side survivors were merged");
    // …and the merged state must be clean: structurally reconciled, the
    // directory equal to a single-authority rebuild, every replica floor
    // re-established.
    let mut problems = engine.p2p(0).check_invariants();
    problems.extend(engine.p2p(0).directory_divergence());
    problems.extend(engine.p2p(0).check_replica_floor());
    assert!(problems.is_empty(), "post-heal state is not converged: {problems:?}");

    // Pin the reconciled end state against the committed golden bytes.
    common::compare(GOLDEN_PATH, &state).unwrap_or_else(|e| panic!("{e}"));
}
