use super::*;

#[test]
fn ghost_entry_hook_plants_a_real_violation() {
    let mut c = small(4, 2);
    c.destage(oid(1), 1.0, Some(0)).unwrap();
    assert!(c.check_invariants().is_empty());
    c.debug_plant_ghost_entry(oid(1000));
    assert!(!c.check_invariants().is_empty(), "the sabotage hook must trip the oracle");
}

/// What each layer's check reports, layer by layer, for a cache in which
/// exactly one layer's books were corrupted.
fn layer_reports(c: &P2PClientCache) -> [Vec<String>; 4] {
    let mut out: [Vec<String>; 4] = Default::default();
    c.check_store_layer(&mut out[0]);
    c.check_replica_layer(&mut out[1]);
    c.check_partition_layer(&mut out[2]);
    c.check_adversary_layer(&mut out[3]);
    out
}

/// A healthy k = 2 cluster mid-partition with the adversary subsystem on:
/// every layer has live books to check.
fn layered() -> P2PClientCache {
    let mut c = small_k(8, 4, 2);
    c.enable_adversary(1, 0.0, 3);
    for i in 0..12u64 {
        c.destage(oid(i), 1.0, Some(i as u32)).unwrap();
    }
    assert!(c.partition_nodes(50, &mut NoSink));
    assert!(c.check_invariants().is_empty());
    c
}

#[test]
fn each_layer_reports_only_its_own_ghost() {
    let ghost = oid(1_000);
    let some_node = |c: &P2PClientCache| c.node_ids().next().unwrap();
    type Plant = fn(&mut P2PClientCache, u128, NodeId);
    let plants: [(usize, &str, Plant); 4] = [
        (0, "diversion pointer", |c, g, n| {
            c.nodes.get_mut(&n.0).unwrap().diverted_to.insert(g, n);
        }),
        (1, "replica of", |c, g, n| {
            c.nodes.get_mut(&n.0).unwrap().replicas.insert(g, (1.0, n));
        }),
        (2, "islanded object", |c, g, n| {
            c.split.as_mut().unwrap().b_index.insert(g, n);
        }),
        (3, "phantom", |c, g, n| {
            c.adversary.as_mut().unwrap().phantoms.insert(g, n);
        }),
    ];
    for (layer, needle, plant) in plants {
        let mut c = layered();
        let n = some_node(&c);
        plant(&mut c, ghost, n);
        for (i, report) in layer_reports(&c).iter().enumerate() {
            if i == layer {
                assert!(report.iter().any(|p| p.contains(needle)), "layer {i}: {report:?}");
            } else {
                assert!(report.is_empty(), "layer {i} reported layer {layer}'s ghost: {report:?}");
            }
        }
        assert!(!c.check_invariants().is_empty());
    }
    // The sabotage hook's ghost directory entry belongs to no layer: only
    // the cross-layer census sees it.
    let mut c = layered();
    c.debug_plant_ghost_entry(ghost);
    assert!(layer_reports(&c).iter().all(Vec::is_empty));
    assert_eq!(c.check_invariants().len(), 1);
}
