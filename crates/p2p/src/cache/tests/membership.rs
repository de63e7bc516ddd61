use super::*;

#[test]
fn node_failure_loses_objects_but_stays_consistent() {
    let mut c = small(10, 3);
    for i in 0..25u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let victim = c.node_ids().next().unwrap();
    let before = c.len();
    c.fail_node(victim).unwrap();
    assert!(c.len() <= before);
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
    // Fetches still resolve for surviving objects; none panic.
    for i in 0..25u64 {
        let _ = c.fetch(1, oid(i), 1.0);
    }
    assert!(c.check_invariants().is_empty());
}

#[test]
fn join_node_accepts_traffic() {
    let mut c = small(4, 2);
    for i in 0..8u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let newcomer = NodeId::from_bytes(b"fresh-node");
    c.join_node(newcomer);
    // Eager migration: everything the newcomer holds, it now roots.
    for obj in c.node(newcomer).unwrap().objects() {
        assert_eq!(c.root_of(obj), Some(newcomer), "migrated object not rooted here");
    }
    // Objects whose closest node is now the newcomer land on it.
    let mut landed = false;
    for i in 100..200u64 {
        let o = oid(i);
        if c.root_of(o) == Some(newcomer) {
            let out = c.destage(o, 1.0, Some(0)).unwrap();
            assert_eq!(out.root, newcomer);
            landed = true;
            break;
        }
    }
    assert!(landed, "some object out of 100 should root at the newcomer");
    assert!(c.check_invariants().is_empty());
}

#[test]
fn capacity_follows_live_membership() {
    let mut c = small(10, 7);
    let victim = c.node_ids().next().unwrap();
    c.fail_node(victim).unwrap();
    c.join_node(NodeId::from_bytes(b"capacity-joiner-1"));
    c.join_node(NodeId::from_bytes(b"capacity-joiner-2"));
    assert_eq!(c.capacity(), 77, "one fail and two joins: 11 live nodes of 7");
    // A silent crash takes the machine's space away, detected or not.
    let corpse = c.node_ids().next().unwrap();
    c.crash_node(corpse).unwrap();
    assert_eq!(c.capacity(), 70);
}

#[test]
fn unknown_and_double_failures_are_typed_errors() {
    let mut c = small(4, 2);
    let ghost = NodeId::from_bytes(b"never-joined");
    assert_eq!(c.fail_node(ghost), Err(P2pError::UnknownNode(ghost)));
    assert_eq!(c.depart_node(ghost), Err(P2pError::UnknownNode(ghost)));
    assert_eq!(c.crash_node(ghost), Err(P2pError::UnknownNode(ghost)));
    let victim = c.node_ids().next().unwrap();
    c.crash_node(victim).unwrap();
    assert_eq!(c.crash_node(victim), Err(P2pError::AlreadyCrashed(victim)));
    assert_eq!(c.depart_node(victim), Err(P2pError::AlreadyCrashed(victim)));
    // An announced failure can still clean up a silent corpse.
    c.fail_node(victim).unwrap();
    assert_eq!(c.fail_node(victim), Err(P2pError::UnknownNode(victim)));
    assert!(c.check_invariants().is_empty());
}

#[test]
fn silent_crash_is_detected_by_traffic() {
    let mut c = small(10, 4);
    for i in 0..20u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let victim = c.root_of(oid(0)).unwrap();
    c.crash_node(victim).unwrap();
    assert_eq!(c.crashed_len(), 1, "a silent crash announces nothing");
    for i in 0..20u64 {
        let _ = c.fetch(i as u32, oid(i), 1.0);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
    }
    assert_eq!(c.crashed_len(), 0, "request traffic must detect the crash");
    assert!(c.ledger().timeouts >= 1, "detection costs at least one timeout");
    let timeouts = c.ledger().timeouts;
    assert_eq!(c.take_fault_penalties(), timeouts);
    assert_eq!(c.take_fault_penalties(), 0, "penalties drain");
}

#[test]
fn empty_cluster_degrades_instead_of_panicking() {
    let mut c = small(3, 4);
    for i in 0..6u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let ids: Vec<NodeId> = c.node_ids().collect();
    for id in ids {
        c.fail_node(id).unwrap();
    }
    assert_eq!(c.len(), 0);
    assert!(c.directory().is_empty(), "empty cluster flushes the directory");
    assert!(c.fetch(0, oid(1), 1.0).is_none(), "fetch degrades to a miss");
    assert!(c.destage(oid(9), 1.0, Some(0)).is_none(), "destage degrades to a no-op");
    assert!(c.check_invariants().is_empty());
    // A later join resurrects the cluster.
    c.join_node(NodeId::from_bytes(b"phoenix"));
    assert!(c.destage(oid(9), 1.0, Some(0)).is_some());
    assert!(c.fetch(0, oid(9), 1.0).is_some());
    assert!(c.check_invariants().is_empty());
}

#[test]
fn departure_hands_objects_off_losslessly() {
    let mut c = small(8, 16);
    for i in 0..16u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let before = c.len();
    let victim = c.root_of(oid(0)).unwrap();
    c.depart_node(victim).unwrap();
    assert_eq!(c.len(), before, "graceful departure hands everything off");
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
    for i in 0..16u64 {
        if c.directory_contains(oid(i)) {
            assert!(c.fetch(1, oid(i), 1.0).is_some(), "object {i} lost in hand-off");
        }
    }
    assert_eq!(c.depart_node(victim), Err(P2pError::UnknownNode(victim)));
}

#[test]
fn churn_events_mirror_fault_counters() {
    let mut sink = VecSink(Vec::new());
    let mut c = small_k(12, 4, 2);
    c.set_faults(NetFaults::new(0.0, 7));
    for i in 0..30u64 {
        c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
    }
    let victims: Vec<NodeId> = c.node_ids().take(3).collect();
    for v in &victims {
        c.crash_node_tap(*v, &mut sink).unwrap();
    }
    for i in 0..30u64 {
        let _ = c.fetch_tap(i as u32, oid(i), 1.0, &mut sink);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
    }
    let l = *c.ledger();
    let count = |f: &dyn Fn(&P2pEvent) -> bool| sink.count(f);
    assert_eq!(count(&|e| matches!(e, P2pEvent::NodeCrashed { .. })), 3);
    assert_eq!(count(&|e| matches!(e, P2pEvent::TimeoutDetected { .. })), l.timeouts);
    assert_eq!(count(&|e| matches!(e, P2pEvent::StaleDirectoryHit { .. })), l.stale_hits);
    assert_eq!(count(&|e| matches!(e, P2pEvent::Rereplicated { .. })), l.rereplications);
    assert_eq!(c.crashed_len(), 0, "every node serves some client, so all crashes surface");
    assert!(l.timeouts >= 3, "each detection costs a timeout");
}

#[test]
fn rejoin_of_crashed_undetected_node_reclaims_it() {
    // Regression: a machine crashes silently, nothing detects it, and
    // the same machine reboots and rejoins. This used to trip the
    // membership asserts (the corpse was still in the node map); now
    // the rejoin counts as the detection and the newcomer starts
    // clean.
    let mut c = small_k(10, 4, 2);
    for i in 0..30u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let victim = c.root_of(oid(0)).unwrap();
    c.crash_node(victim).unwrap();
    assert_eq!(c.crashed_len(), 1, "the crash must stay undetected");
    c.join_node(victim);
    assert_eq!(c.crashed_len(), 0, "the reboot is the detection");
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
    // The rejoined machine serves traffic like any other member.
    for i in 0..30u64 {
        let _ = c.fetch(i as u32, oid(i), 1.0);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after fetch {i}: {problems:?}");
    }
    assert!(c.destage(oid(99), 1.0, Some(0)).is_some());
    assert!(c.check_invariants().is_empty());
}

#[test]
fn emptying_the_cluster_ledgers_limbo_before_the_wipe() {
    let mut sink = VecSink(Vec::new());
    let mut c = small_k(3, 4, 2);
    for i in 0..6u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    // A detected crash parks the corpse's objects in limbo with their
    // replica sets; nothing is lost yet.
    let victim = c.root_of(oid(0)).unwrap();
    c.crash_node(victim).unwrap();
    c.detect_crash(victim, &mut sink);
    let parked = c.limbo.len() as u64;
    assert!(parked > 0, "the corpse held primaries");
    assert_eq!(c.ledger().objects_lost, 0, "every casualty still has a replica");
    // The rest of the cluster leaves: the parked entries die with it and
    // each is ledgered — a wipe must not be a silent loss.
    let rest: Vec<NodeId> = c.node_ids().collect();
    for id in rest {
        c.fail_node_tap(id, &mut sink).unwrap();
    }
    assert!(c.limbo.is_empty() && c.directory().is_empty() && c.is_empty());
    assert!(c.ledger().objects_lost >= parked);
    assert_eq!(sink.count_label("object_lost"), c.ledger().objects_lost);
    assert!(c.silent_loss_audit().is_empty());
    assert!(c.check_invariants().is_empty());
}
