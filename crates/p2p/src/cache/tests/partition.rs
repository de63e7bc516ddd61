use super::*;

#[test]
fn degenerate_partitions_are_noops() {
    let mut c = small(1, 4);
    assert!(!c.partition_nodes(50, &mut NoSink), "one node cannot split");
    assert!(!c.heal_nodes(&mut NoSink), "no cut to heal");
    let mut c = small(8, 4);
    assert!(c.partition_nodes(50, &mut NoSink));
    assert!(c.is_partitioned());
    assert!(!c.partition_nodes(50, &mut NoSink), "a second cut must be rejected");
    assert!(c.heal_nodes(&mut NoSink));
    assert!(!c.is_partitioned());
    assert!(!c.heal_nodes(&mut NoSink), "healing twice is a no-op");
    assert!(c.check_invariants().is_empty());
}

#[test]
fn partition_and_heal_preserve_invariants_and_converge() {
    let mut c = small_k(16, 8, 2);
    for i in 0..60u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    let before_len = c.len();
    assert!(c.partition_nodes(50, &mut NoSink));
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "mid-split: {problems:?}");
    // Requests keep flowing on the proxy's island while the cut is
    // up; every entry point must sit on island A.
    for i in 0..60u64 {
        if c.directory_contains(oid(i)) {
            let f = c.fetch(i as u32, oid(i), 1.0).expect("directory-approved fetch");
            assert!(c.in_island_a(f.holder), "island B must be unreachable");
        }
    }
    assert!(c.check_invariants().is_empty());
    assert!(c.heal_nodes(&mut NoSink));
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "post-heal: {problems:?}");
    let diverged = c.directory_divergence();
    assert!(diverged.is_empty(), "post-heal divergence: {diverged:?}");
    assert!(c.len() <= before_len, "the sweep collects duplicates, never invents copies");
    // Post-heal the cluster is a single authority again: replica
    // floors are re-established against the merged ring.
    let floor = c.check_replica_floor();
    assert!(floor.is_empty(), "{floor:?}");
}

#[test]
fn split_brain_duplicates_are_reconciled_by_epoch() {
    // k = 2 guarantees cross-cut replicas, so both islands promote
    // and at least one object ends up with duplicate primaries.
    let mut c = small_k(12, 16, 2);
    for i in 0..48u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    assert!(c.partition_nodes(50, &mut NoSink));
    let islanded = c.split.as_ref().map_or(0, |s| s.b_index.len());
    assert!(islanded > 0, "island B must keep primaries of its own");
    assert!(c.ledger().cut_drops > 0, "B's announcements die at the cut");
    let mut sink = VecSink(Vec::new());
    assert!(c.heal_nodes(&mut sink));
    assert!(sink.count_label("entry_reconciled") > 0, "the sweep must merge entries");
    assert!(c.ledger().cut_drained > 0, "queued receipts drain at the heal");
    let diverged = c.directory_divergence();
    assert!(diverged.is_empty(), "{diverged:?}");
    assert!(c.check_invariants().is_empty());
}

#[test]
fn partition_events_report_the_cut_and_the_heal() {
    let mut sink = VecSink(Vec::new());
    let mut c = small_k(10, 16, 2);
    for i in 0..30u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    assert!(c.partition_nodes(40, &mut sink));
    assert!(c.heal_nodes(&mut sink));
    let count = |label: &str| sink.count_label(label);
    assert_eq!(count("partition_started"), 1);
    assert_eq!(count("partition_healed"), 1);
    let started = sink.0.iter().find_map(|e| match e {
        P2pEvent::PartitionStarted { island_a, island_b } => Some((*island_a, *island_b)),
        _ => None,
    });
    assert_eq!(started, Some((4, 6)), "40% of ten nodes stay proxy-side");
}

#[test]
fn fetch_during_split_survives_and_islands_merge_cleanly() {
    let mut c = small_k(12, 8, 2);
    c.set_transport(TransportFaults { loss: 0.05, seed: 99, ..TransportFaults::none() });
    for i in 0..40u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    assert!(c.partition_nodes(60, &mut NoSink));
    // Mid-split churn on the proxy's island only.
    for i in 0..40u64 {
        let _ = c.fetch(i as u32, oid(i), 1.0);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
    }
    for i in 100..110u64 {
        c.destage(oid(i), 1.0, Some(i as u32));
    }
    assert!(c.check_invariants().is_empty());
    assert!(c.heal_nodes(&mut NoSink));
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "post-heal: {problems:?}");
    assert!(c.directory_divergence().is_empty());
}

#[test]
fn clients_of_a_lost_island_a_machine_remap_inside_island_a() {
    let mut c = small(10, 4);
    // A 10|90 cut keeps one machine, the lowest cacheId, proxy-side.
    assert!(c.partition_nodes(10, &mut NoSink));
    let first = c.node_ids().find(|n| c.in_island_a(*n)).unwrap();
    // A late joiner lands on island A whatever its id — here one above
    // every island-B id, so "the first live node" is across the cut.
    let joiner = NodeId(u128::MAX - 7);
    c.join_node(joiner);
    assert!(c.in_island_a(joiner));
    crash_detected(&mut c, first, &mut NoSink);
    for client in 0..20 {
        assert_eq!(c.node_for_client(client), joiner, "client {client} entered across the cut");
    }
    for i in 0..12u64 {
        let out = c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
        assert!(c.in_island_a(out.stored_at));
    }
    assert!(c.check_invariants().is_empty(), "{:?}", c.check_invariants());
}
