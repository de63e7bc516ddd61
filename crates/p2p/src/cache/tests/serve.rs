use super::*;

#[test]
fn destage_then_fetch_roundtrip() {
    let mut c = small(16, 4);
    let o = oid(1);
    let out = c.destage(o, 5.0, Some(3)).unwrap();
    assert!(!out.refreshed);
    assert_eq!(out.stored_at, out.root);
    assert!(c.directory_contains(o));
    assert_eq!(c.len(), 1);
    let f = c.fetch(7, o, 5.0).expect("object must be found");
    assert_eq!(f.holder, out.stored_at);
    assert!(c.check_invariants().is_empty());
}

#[test]
fn refreshed_duplicate_destage() {
    let mut c = small(8, 4);
    let o = oid(2);
    c.destage(o, 1.0, Some(0)).unwrap();
    let again = c.destage(o, 1.0, Some(1)).unwrap();
    assert!(again.refreshed);
    assert_eq!(c.len(), 1);
    assert!(c.check_invariants().is_empty());
}

#[test]
fn fetch_missing_returns_none_and_cleans_directory() {
    let mut c = small(8, 4);
    assert!(c.fetch(0, oid(99), 1.0).is_none());
    assert_eq!(c.ledger().stale_lookups, 1);
}

#[test]
fn diversion_when_root_full() {
    // Tiny capacities so roots fill fast; diversion must kick in and
    // the directory must track objects stored at neighbors.
    let mut c = small(8, 1);
    let mut diverted_seen = false;
    for i in 0..8 {
        let out = c.destage(oid(i as u64), 2.0, Some(i as u32)).unwrap();
        diverted_seen |= out.stored_at != out.root;
        assert!(c.check_invariants().is_empty(), "after destage {i}");
    }
    // Aggregate capacity is 8; everything fits somewhere.
    assert_eq!(c.len(), 8);
    assert!(diverted_seen, "hash skew on 8 ids must fill some root before others");
    assert_eq!(
        c.ledger().diversions,
        c.node_ids().map(|n| c.node(n).unwrap().diversions_out() as u64).sum::<u64>()
    );
}

#[test]
fn replacement_when_cluster_saturated() {
    let mut c = small(4, 2);
    for i in 0..50u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    assert!(c.len() <= 8);
    assert!(c.check_invariants().is_empty());
    // Directory exactly matches residents (exact kind).
    let resident: usize = c.len();
    assert_eq!(c.directory().len(), resident);
}

#[test]
fn diversion_disabled_replaces_at_root() {
    let mut c = P2PClientCache::new(P2PClientCacheConfig {
        num_nodes: 8,
        node_capacity: 1,
        diversion: false,
        ..P2PClientCacheConfig::default()
    });
    for i in 0..30u64 {
        let out = c.destage(oid(i), 1.0, Some(0)).unwrap();
        assert_eq!(out.stored_at, out.root, "no diversion allowed");
    }
    assert_eq!(c.ledger().diversions, 0);
    assert!(c.check_invariants().is_empty());
    // Without diversion, skewed roots thrash while others sit empty.
    assert!(c.len() < 8, "utilization should be imperfect without diversion");
}

#[test]
fn diversion_improves_utilization() {
    let fill = |diversion: bool| {
        let mut c = P2PClientCache::new(P2PClientCacheConfig {
            num_nodes: 8,
            node_capacity: 2,
            diversion,
            ..P2PClientCacheConfig::default()
        });
        for i in 0..16u64 {
            c.destage(oid(i), 1.0, Some(0)).unwrap();
        }
        c.len()
    };
    assert!(fill(true) > fill(false), "diversion must absorb hash skew");
    assert_eq!(fill(true), 16, "16 objects fit the aggregate capacity of 16 exactly");
}

#[test]
fn piggyback_vs_direct_connection_accounting() {
    let mut c = small(8, 4);
    c.destage(oid(1), 1.0, Some(0)).unwrap();
    assert_eq!(c.ledger().new_connections, 0, "piggyback opens no connections");
    c.destage(oid(2), 1.0, None).unwrap();
    assert_eq!(c.ledger().new_connections, 1);
    assert_eq!(c.ledger().piggybacked_objects, 1);
    assert_eq!(c.ledger().direct_destages, 1);
}

#[test]
fn push_fetch_counts_connection() {
    let mut c = small(8, 4);
    let o = oid(3);
    c.destage(o, 1.0, Some(0)).unwrap();
    let before = c.ledger().new_connections;
    assert!(c.push_fetch(o, 1.0).is_some());
    assert_eq!(c.ledger().pushes, 1);
    assert_eq!(c.ledger().new_connections, before + 1);
}

#[test]
fn eviction_of_hosted_object_clears_owner_pointer() {
    // Force diversion then saturate the host so the hosted object is
    // evicted; the owner's pointer must disappear.
    let mut c = small(6, 1);
    for i in 0..40u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after destage {i}: {problems:?}");
    }
}

#[test]
fn gd_semantics_inside_client_cache() {
    // Cheap objects must be evicted before expensive ones within one
    // node: find two objects rooted at the same node.
    let mut c = small(2, 1);
    // Group objects by DHT root via the read-only accessor (the old
    // version cloned the entire cache per probe destage).
    let mut by_root: FxHashMap<NodeId, Vec<u128>> = FxHashMap::default();
    for i in 0..64u64 {
        let o = oid(i);
        by_root.entry(c.root_of(o).unwrap()).or_default().push(o);
    }
    let (root, objs) = by_root.into_iter().find(|(_, v)| v.len() >= 3).expect("skew");
    let cheap = objs[0];
    let dear = objs[1];
    let newer = objs[2];
    c.destage(dear, 10.0, Some(0)).unwrap();
    c.destage(cheap, 1.0, Some(0)).unwrap(); // diverted (root full, neighbor free)
                                             // Saturate the cluster so the next destage must replace.
    for i in 100..140u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let out = c.destage(newer, 5.0, Some(0)).unwrap();
    if out.root == root && out.evicted.is_some() {
        assert_ne!(out.evicted, Some(dear), "expensive object evicted before cheap");
    }
    assert!(c.check_invariants().is_empty());
}

#[test]
fn root_of_matches_destage_root() {
    let mut c = small(12, 4);
    for i in 0..32u64 {
        let o = oid(i);
        let predicted = c.root_of(o);
        let out = c.destage(o, 1.0, Some(i as u32)).unwrap();
        assert_eq!(Some(out.root), predicted, "read-only root disagrees with routing");
    }
}

#[test]
fn fetches_charge_the_overlay_walk_and_reroute_after_churn() {
    // A fetch charges the overlay walk from the client's entry node
    // to the object's live owner (plus one hop when a diversion
    // pointer is followed), and a live node serves it.
    fn fetch_checked(c: &mut P2PClientCache, client: u32, o: u128) -> FetchOutcome {
        let key = object_key(o);
        let (root, walk) = c.overlay.route_hops(c.node_for_client(client), key).unwrap();
        assert_eq!(Some(root), c.overlay.owner_of(key), "route ends at the live owner");
        let before = c.ledger().overlay_messages;
        let out = c.fetch(client, o, 1.0).expect("directory-resident object fetchable");
        assert_eq!(out.hops, walk + usize::from(out.holder != root));
        assert_eq!(c.ledger().overlay_messages - before, out.hops as u64);
        assert!(c.node(out.holder).is_some(), "holder must be live");
        out
    }
    let resident = |c: &P2PClientCache| -> Vec<u128> {
        (0..20).map(oid).filter(|&o| c.directory_contains(o)).collect()
    };
    let mut c = small(10, 3);
    for i in 0..20u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let (first, second) = (fetch_checked(&mut c, 1, oid(5)), fetch_checked(&mut c, 1, oid(5)));
    assert_eq!(first, second, "identical fetches, identical outcomes");
    // Membership changes move ownership; routes follow at once.
    let victim = c.node_ids().next().unwrap();
    c.depart_node(victim).unwrap();
    for o in resident(&c) {
        assert_ne!(fetch_checked(&mut c, 2, o).holder, victim, "route led to a departed node");
    }
    c.join_node(NodeId::from_bytes(b"late-joining-cache-node"));
    for o in resident(&c) {
        fetch_checked(&mut c, 3, o);
    }
    assert!(c.check_invariants().is_empty());
}

#[test]
fn tap_events_mirror_ledger_counters() {
    let mut sink = VecSink(Vec::new());
    let mut c = small(6, 1);
    for i in 0..30u64 {
        c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
    }
    for i in 0..30u64 {
        let _ = c.fetch_tap(1, oid(i), 1.0, &mut sink);
    }
    let o = c.node_ids().next().and_then(|n| c.node(n).unwrap().objects().next()).unwrap();
    assert!(c.push_fetch_tap(o, 1.0, &mut sink).is_some());
    let victim = c.node_ids().next().unwrap();
    crash_detected(&mut c, victim, &mut sink);
    c.join_node_tap(NodeId::from_bytes(b"tap-newcomer"), &mut sink);

    let count = |f: &dyn Fn(&P2pEvent) -> bool| sink.count(f);
    let l = c.ledger();
    assert_eq!(count(&|e| matches!(e, P2pEvent::Destage { .. })), 30);
    assert_eq!(
        count(&|e| matches!(e, P2pEvent::Destage { piggybacked: true, .. })),
        l.piggybacked_objects
    );
    assert_eq!(count(&|e| matches!(e, P2pEvent::Destage { diverted: true, .. })), l.diversions);
    assert_eq!(count(&|e| matches!(e, P2pEvent::Lookup { .. })), l.lookups);
    assert_eq!(count(&|e| matches!(e, P2pEvent::Lookup { stale: true, .. })), l.stale_lookups);
    assert_eq!(count(&|e| matches!(e, P2pEvent::Push { .. })), l.pushes);
    assert_eq!(count(&|e| matches!(e, P2pEvent::NodeFailed { .. })), 1);
    assert_eq!(count(&|e| matches!(e, P2pEvent::NodeJoined { .. })), 1);
    assert!(c.check_invariants().is_empty());
}

#[test]
fn tap_variants_match_untapped_behaviour() {
    // Same operation sequence with and without a sink must produce
    // identical ledgers and identical cache contents.
    let drive = |tapped: bool| {
        let mut c = small(5, 2);
        let mut sink = NoSink;
        struct CountSink(u64);
        impl P2pSink for CountSink {
            fn event(&mut self, _: P2pEvent) {
                self.0 += 1;
            }
        }
        let mut counting = CountSink(0);
        for i in 0..40u64 {
            if tapped {
                c.destage_tap(oid(i), 1.0, Some(i as u32), &mut counting).unwrap();
            } else {
                c.destage_tap(oid(i), 1.0, Some(i as u32), &mut sink).unwrap();
            }
        }
        for i in 0..40u64 {
            if tapped {
                let _ = c.fetch_tap(0, oid(i), 1.0, &mut counting);
            } else {
                let _ = c.fetch_tap(0, oid(i), 1.0, &mut sink);
            }
        }
        (*c.ledger(), c.len())
    };
    assert_eq!(drive(true), drive(false));
}

#[test]
fn capacity_and_mapping() {
    let c = small(10, 7);
    assert_eq!(c.capacity(), 70);
    assert_eq!(c.node_for_client(0), c.node_for_client(10));
    assert_ne!(c.node_for_client(0), c.node_for_client(1));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
    #[test]
    fn directory_exactly_mirrors_contents(
        objects in proptest::collection::vec(0u64..200, 1..150),
        nodes in 2usize..12,
        cap in 1usize..4,
    ) {
        let mut c = small(nodes, cap);
        for (i, o) in objects.iter().enumerate() {
            c.destage(oid(*o), 1.0 + (i % 7) as f64, Some(i as u32)).unwrap();
            let problems = c.check_invariants();
            proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
        }
        // Every fetch answered by the directory must succeed (exact
        // directory ⇒ no stale lookups without churn).
        for o in objects {
            let id = oid(o);
            if c.directory_contains(id) {
                proptest::prop_assert!(c.fetch(0, id, 1.0).is_some());
            }
        }
        proptest::prop_assert_eq!(c.ledger().stale_lookups, 0);
    }
}

#[test]
fn message_loss_costs_timeouts_not_objects() {
    let mut c = small(8, 8);
    c.set_faults(NetFaults::new(0.4, 11));
    for i in 0..20u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    for i in 0..20u64 {
        if c.directory_contains(oid(i)) {
            assert!(c.fetch(1, oid(i), 1.0).is_some(), "loss must not lose objects");
        }
    }
    assert!(c.ledger().timeouts > 0, "40% loss over dozens of hops must retry");
    assert!(c.check_invariants().is_empty());
}

#[test]
fn slow_holder_stalls_the_request() {
    let mut c = small(6, 8);
    c.set_faults(NetFaults::new(0.0, 1));
    for i in 0..12u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let o = oid(1);
    let root = c.root_of(o).unwrap();
    let holder = c.holder_of(root, o).unwrap();
    c.mark_slow(holder);
    let t0 = c.ledger().timeouts;
    assert!(c.fetch(0, o, 1.0).is_some(), "slow is not dead");
    assert!(c.ledger().timeouts > t0, "a slow holder costs a stall");
    assert_eq!(c.crashed_len(), 0);
}

#[test]
fn zero_transport_is_bit_identical_to_plain() {
    // Installing an all-zero transport must not change a single
    // counter or byte of cache state versus the plain path.
    let drive = |transport: bool| {
        let mut c = small(8, 2);
        if transport {
            c.set_transport(TransportFaults { seed: 77, ..TransportFaults::none() });
        }
        for i in 0..60u64 {
            c.destage(oid(i), 1.0 + (i % 5) as f64, Some(i as u32)).unwrap();
        }
        for i in 0..60u64 {
            let _ = c.fetch(i as u32, oid(i), 1.0);
        }
        (*c.ledger(), c.contents_snapshot())
    };
    let (plain_ledger, plain_state) = drive(false);
    let (transport_ledger, transport_state) = drive(true);
    assert_eq!(plain_ledger, transport_ledger);
    assert_eq!(plain_state, transport_state);
}

#[test]
fn duplication_and_reordering_never_change_end_state() {
    // The at-least-once discipline's core promise: a duplicated or
    // reordered delivery costs latency but mutates nothing, so the
    // end state is byte-identical to a fault-free run.
    let drive = |faulty: bool| {
        let mut sink = VecSink(Vec::new());
        let mut c = small_k(10, 4, 2);
        if faulty {
            c.set_transport(TransportFaults {
                duplication: 0.25,
                reorder: 0.25,
                seed: 31,
                ..TransportFaults::none()
            });
        }
        for i in 0..80u64 {
            c.destage_tap(oid(i), 1.0 + (i % 7) as f64, Some(i as u32), &mut sink).unwrap();
        }
        let mut served = 0u32;
        for i in 0..80u64 {
            served += u32::from(c.fetch_tap(i as u32, oid(i), 1.0, &mut sink).is_some());
        }
        (c.contents_snapshot(), served, sink.count_label("message_deduped"))
    };
    let (clean_state, clean_served, clean_dedups) = drive(false);
    let (faulty_state, faulty_served, faulty_dedups) = drive(true);
    assert_eq!(clean_dedups, 0);
    assert!(faulty_dedups > 0, "25% duplication over 160 sends must dedup");
    assert_eq!(clean_served, faulty_served);
    assert_eq!(clean_state, faulty_state, "dup/reorder must be state-idempotent");
}

#[test]
fn lossy_transport_drops_destages_but_keeps_invariants() {
    let mut c = small(8, 4);
    c.set_transport(TransportFaults { loss: 0.6, seed: 5, ..TransportFaults::none() });
    let mut dropped = 0u32;
    for i in 0..60u64 {
        if c.destage(oid(i), 1.0, Some(0)).is_none() {
            dropped += 1;
        }
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after destage {i}: {problems:?}");
    }
    assert!(dropped > 0, "60% per-attempt loss must exhaust some retry budgets");
    assert!(c.ledger().retries > 0);
    assert!(c.ledger().timeouts > 0, "every failed attempt is a timed-out message");
    assert!(c.take_fault_penalties() > 0, "retries and backoff must cost latency");
    for i in 0..60u64 {
        if c.directory_contains(oid(i)) {
            assert!(c.fetch(1, oid(i), 1.0).is_some(), "a stored object must be servable");
        }
    }
    assert!(c.check_invariants().is_empty());
}

#[test]
fn corrupting_transport_quarantines_instead_of_caching() {
    let mut sink = VecSink(Vec::new());
    let mut c = small(8, 4);
    c.set_transport(TransportFaults { corruption: 0.999, seed: 9, ..TransportFaults::none() });
    let mut quarantined = 0u64;
    for i in 0..10u64 {
        quarantined += u64::from(c.destage_tap(oid(i), 1.0, Some(0), &mut sink).is_none());
    }
    assert!(
        quarantined >= 8,
        "payloads that never verify must be quarantined, not cached ({quarantined}/10)"
    );
    assert_eq!(c.len(), 10 - quarantined as usize);
    // A send whose every attempt failed its checksum emits one event.
    assert!(sink.count_label("checksum_failed") >= quarantined);
    assert!(c.check_invariants().is_empty());
}

/// One cache of the two-instantiation contract below; `armed` installs
/// loss-free fault state under that seed, which arms every request
/// without changing one outcome.
fn contract_twin(
    nodes: usize,
    cap: usize,
    k: usize,
    bloom: bool,
    armed: Option<u64>,
) -> P2PClientCache {
    let directory = if bloom {
        // Two counters per key: false positives are common, so stale
        // lookups are exercised too.
        DirectoryKind::Bloom { counters_per_key: 2.0, expected_entries: nodes * cap }
    } else {
        DirectoryKind::Exact
    };
    let mut c = P2PClientCache::new(P2PClientCacheConfig {
        num_nodes: nodes,
        node_capacity: cap,
        replication: k,
        directory,
        ..P2PClientCacheConfig::default()
    });
    if let Some(seed) = armed {
        c.set_faults(NetFaults::new(0.0, seed));
    }
    c
}

/// Applies one encoded operation; returns what the caller saw of it.
fn contract_step(c: &mut P2PClientCache, (kind, a, b): (u8, u64, u32)) -> String {
    let obj = oid(a);
    match kind {
        0..=6 => {
            let via = (b % 4 != 0).then_some(b);
            format!("{:?}", c.destage(obj, 1.0 + (a % 5) as f64, via))
        }
        // The proxy only redirects a request it found in its directory
        // (§4.2), so lookups are gated the same way.
        7..=11 if c.directory_contains(obj) => format!("{:?}", c.fetch(b, obj, 1.0)),
        12..=13 if c.directory_contains(obj) => format!("{:?}", c.push_fetch(obj, 2.0)),
        14 => {
            let id = NodeId::from_bytes(format!("contract-joiner-{}", a % 6).as_bytes());
            if c.node(id).is_none() {
                c.join_node(id);
            }
            String::new()
        }
        15 if c.node_ids().count() > 2 => {
            let victim = c.node_ids().nth(b as usize % c.node_ids().count()).unwrap();
            format!("{:?}", c.depart_node(victim))
        }
        _ => String::new(),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
    /// The contract of the two instantiations of the request path: a
    /// cache armed with loss-free fault state and an unarmed twin agree
    /// on every outcome, every counter and every byte of cache state,
    /// after every operation.
    #[test]
    fn armed_and_unarmed_instantiations_agree(
        ops in proptest::collection::vec((0u8..16, 0u64..60, 0u32..16), 1..160),
        nodes in 3usize..10,
        cap in 1usize..4,
        shape in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (k, bloom) = [(1, false), (1, true), (2, false)][shape];
        let mut plain = contract_twin(nodes, cap, k, bloom, None);
        let mut armed = contract_twin(nodes, cap, k, bloom, Some(seed));
        for (i, op) in ops.into_iter().enumerate() {
            proptest::prop_assert_eq!(
                contract_step(&mut plain, op), contract_step(&mut armed, op), "op {} {:?}", i, op
            );
            proptest::prop_assert_eq!(plain.ledger(), armed.ledger(), "after op {} {:?}", i, op);
            proptest::prop_assert_eq!(plain.len(), armed.len());
            proptest::prop_assert_eq!(plain.contents_snapshot(), armed.contents_snapshot());
            check_space_gate(&plain);
            check_space_gate(&armed);
        }
        proptest::prop_assert!(armed.check_invariants().is_empty());
    }

    /// k = 2 with a Bloom directory is the one shape where the twins
    /// differ, by design: a Bloom false positive sends a lookup to a root
    /// that knows nothing, and the armed path then probes the root's
    /// leaf set for an orphaned replica (`replica_rescue`) before giving
    /// up. The probes are overlay messages the unarmed path never sends
    /// — and that counter is the only difference.
    #[test]
    fn armed_stale_miss_at_k2_pays_only_the_rescue_probes(
        ops in proptest::collection::vec((0u8..16, 0u64..60, 0u32..16), 1..160),
        nodes in 3usize..10,
        cap in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut plain = contract_twin(nodes, cap, 2, true, None);
        let mut armed = contract_twin(nodes, cap, 2, true, Some(seed));
        for (i, op) in ops.into_iter().enumerate() {
            let (seen_plain, seen_armed) = (contract_step(&mut plain, op), contract_step(&mut armed, op));
            proptest::prop_assert_eq!(seen_plain, seen_armed, "op {} {:?}", i, op);
            let (lp, la) = (*plain.ledger(), *armed.ledger());
            proptest::prop_assert!(la.overlay_messages >= lp.overlay_messages);
            proptest::prop_assert_eq!(
                MessageLedger { overlay_messages: 0, ..lp },
                MessageLedger { overlay_messages: 0, ..la },
                "after op {} {:?}", i, op
            );
            proptest::prop_assert_eq!(plain.len(), armed.len());
            proptest::prop_assert_eq!(plain.contents_snapshot(), armed.contents_snapshot());
        }
        // What a false positive produces, made certain: an ungated
        // lookup for an object nobody ever stored.
        let before = armed.ledger().overlay_messages - plain.ledger().overlay_messages;
        proptest::prop_assert!(plain.fetch(0, oid(1_000), 1.0).is_none());
        proptest::prop_assert!(armed.fetch(0, oid(1_000), 1.0).is_none());
        let after = armed.ledger().overlay_messages - plain.ledger().overlay_messages;
        proptest::prop_assert!(after > before, "the armed stale miss sent no rescue probe");
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "unarmed request path entered with live fault state")]
fn dispatch_refuses_the_unarmed_body_over_an_unregistered_cut() {
    // A cut the overlay knows about but no layer registered with
    // `fault_mode` — the bug class the dispatch assertion exists for.
    let mut c = small(6, 2);
    let half: Vec<NodeId> = c.node_ids().take(3).collect();
    assert!(c.overlay.start_partition(half));
    let _ = c.fetch(0, oid(1), 1.0);
}
