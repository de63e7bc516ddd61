use super::*;

#[test]
fn replica_survives_primary_crash_with_k2() {
    let mut c = small_k(10, 8, 2);
    for i in 0..20u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    assert!(c.check_invariants().is_empty());
    let o = oid(3);
    let root = c.root_of(o).unwrap();
    let holder = c.holder_of(root, o).unwrap();
    c.crash_node(holder).unwrap();
    let mut sink = VecSink(Vec::new());
    let f = c.fetch_tap(2, o, 1.0, &mut sink);
    assert!(f.is_some(), "a replica must keep the object reachable");
    assert_ne!(f.unwrap().holder, holder, "the corpse cannot serve");
    assert!(sink.count_label("rereplicated") > 0, "promotion re-replicates");
    assert_eq!(c.crashed_len(), 0, "the stale hit detects the crash");
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn replica_floor_holds_with_stable_membership() {
    let mut c = small_k(12, 8, 2);
    c.set_transport(TransportFaults {
        duplication: 0.1,
        reorder: 0.1,
        seed: 13,
        ..TransportFaults::none()
    });
    for i in 0..40u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    let problems = c.check_replica_floor();
    assert!(problems.is_empty(), "{problems:?}");
    assert!(c.check_invariants().is_empty());
}

/// Distinct failure domains among the live cluster members.
fn cluster_domains(c: &P2PClientCache) -> usize {
    let mut seen: Vec<u32> = Vec::new();
    for n in c.node_ids() {
        if let Some(d) = c.domain_of(n) {
            if !seen.contains(&d) {
                seen.push(d);
            }
        }
    }
    seen.len()
}

#[test]
fn blind_or_single_domain_assignment_changes_nothing() {
    let drive = |dom: Option<(u32, bool)>| {
        let mut c = small_k(10, 4, 2);
        if let Some((count, spread)) = dom {
            c.assign_domains(count, 42, spread);
        }
        for i in 0..40u64 {
            let _ = c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32));
        }
        for i in 0..40u64 {
            let _ = c.fetch(i as u32, oid(i), 2.0);
        }
        (format!("{:?}", c.ledger()), c.contents_snapshot())
    };
    let bare = drive(None);
    // Blind placement: domains drive fault injection only.
    assert_eq!(bare, drive(Some((8, false))));
    // Spread with one domain: nothing to spread across.
    assert_eq!(bare, drive(Some((1, true))));
}

#[test]
fn loss_is_ledgered_exactly_once_and_rearmed_by_refetch() {
    let mut c = small(6, 4); // k = 1: no replicas, every crash loses
    let o = oid(7);
    c.destage(o, 2.0, Some(0)).unwrap();
    c.crash_node(c.root_of(o).unwrap()).unwrap();
    assert!(c.fetch(0, o, 1.0).is_none());
    assert_eq!(c.ledger().objects_lost, 1);
    assert!(c.silent_loss_audit().is_empty());
    // A second miss must not double-ledger the same loss.
    assert!(c.fetch(0, o, 1.0).is_none());
    assert_eq!(c.ledger().objects_lost, 1);
    // Origin refetch re-enters the cluster: the loss accounting is
    // re-armed, and losing the object again counts again.
    c.destage(o, 2.0, Some(0)).unwrap();
    c.crash_node(c.root_of(o).unwrap()).unwrap();
    assert!(c.fetch(0, o, 1.0).is_none());
    assert_eq!(c.ledger().objects_lost, 2);
    assert!(c.check_invariants().is_empty());
}
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn spread_placement_spans_distinct_domains(
        nodes in 4usize..12,
        k in 2usize..4,
        dcount in 1u32..8,
        seed in 0u64..1_000,
        objects in proptest::collection::vec(0u64..100, 10..40),
    ) {
        let mut c = small_k(nodes, objects.len().max(4), k.min(nodes));
        c.assign_domains(dcount, seed, true);
        for (i, o) in objects.iter().enumerate() {
            let _ = c.destage(oid(*o), 1.0 + (i % 7) as f64, Some(i as u32));
        }
        let cd = cluster_domains(&c);
        // Every copy set must span min(copies, cluster domains)
        // distinct domains — k distinct whenever the cluster offers
        // ≥ k, graceful degradation otherwise.
        for node in c.nodes.values() {
            for obj in node.store.keys() {
                if node.links().replicas.contains_key(&obj) {
                    continue; // replica copy, not a primary
                }
                let root = node.links().hosted_for.get(&obj).copied().unwrap_or(node.id);
                let hosts = c
                    .nodes
                    .get(&root.0)
                    .and_then(|rn| rn.links().replicated_to.get(&obj))
                    .cloned()
                    .unwrap_or_default();
                let mut doms: Vec<u32> = Vec::new();
                for id in std::iter::once(node.id).chain(hosts.iter().copied()) {
                    if let Some(d) = c.domain_of(id) {
                        if !doms.contains(&d) {
                            doms.push(d);
                        }
                    }
                }
                let copies = 1 + hosts.len();
                proptest::prop_assert_eq!(
                    doms.len(),
                    copies.min(cd),
                    "object {:032x}: {} copies span {} of {} cluster domains",
                    obj, copies, doms.len(), cd
                );
            }
        }
        let problems = c.check_invariants();
        proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
    }
}

#[test]
fn link_writes_no_pointer_when_the_holder_is_the_root() {
    let mut c = small(4, 2);
    let (root, other) = {
        let mut ids = c.node_ids();
        (ids.next().unwrap(), ids.next().unwrap())
    };
    // A root storing its own object needs no diversion pointer, and the
    // caller must not be told to charge a pointer message.
    assert!(!c.link(root, root, oid(1)));
    assert_eq!(c.node(root).unwrap().diversions_out(), 0);
    assert!(c.nodes[&root.0].links().hosted_for.is_empty());
    // A diverted object gets both halves, and `unlink` takes both back.
    assert!(c.link(other, root, oid(1)));
    assert_eq!(c.nodes[&root.0].links().diverted_to.get(&oid(1)), Some(&other));
    assert_eq!(c.nodes[&other.0].links().hosted_for.get(&oid(1)), Some(&root));
    assert_eq!(c.unlink(other, oid(1)), Some(root));
    assert_eq!(c.node(root).unwrap().diversions_out(), 0);
    assert_eq!(c.unlink(other, oid(1)), None);
}

#[test]
fn pick_replica_consumes_every_copy_and_returns_the_first_live_one() {
    let mut c = small_k(8, 1, 3);
    let o = oid(5);
    let root = c.destage(o, 3.0, Some(0)).unwrap().root;
    let hosts = c.take_tracking(root, o);
    assert_eq!(hosts.len(), 2, "k = 3 keeps two replica copies");
    // The first host dies silently: it cannot be promoted, yet its copy
    // is consumed along with the winner's.
    c.crash_node(hosts[0]).unwrap();
    assert_eq!(c.pick_replica(&hosts, o, false), Some((hosts[1], 3.0)));
    assert!(hosts.iter().all(|h| c.node(*h).unwrap().replica_count() == 0));
    assert_eq!(c.pick_replica(&hosts, o, false), None, "nothing left to pick");
    // `need_space` passes over a host whose store is full.
    let o2 = oid(6);
    let root2 = c.destage(o2, 1.0, Some(0)).unwrap().root;
    let hosts2 = c.take_tracking(root2, o2);
    let first = c.nodes.get_mut(&hosts2[0].0).unwrap();
    while first.has_free_space() {
        first.store.insert_with_cost(oid(100 + first.len() as u64), 1.0, 1.0);
    }
    assert_eq!(c.pick_replica(&hosts2, o2, true).map(|(h, _)| h), Some(hosts2[1]));
}
