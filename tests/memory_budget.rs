//! Bytes per node of a 1,000-client cluster, the size Fig. 5(c) grows
//! to, counted from capacities by `Overlay::heap_bytes` and
//! `P2PClientCache::heap_bytes`. Each ceiling sits just above what the
//! slot-indexed overlay and the boxed client links measure; the layouts
//! they replaced are quoted beside it, counted by the same rules.

use webcache::p2p::{object_id_for_url, P2PClientCache, P2PClientCacheConfig};
use webcache::pastry::{NodeId, Overlay, PastryConfig};

/// The P2P cache's default cacheId seed, so the overlay test builds the
/// cluster's own ids.
const SEED: u64 = 0x00C1_1E17;

fn cluster() -> P2PClientCache {
    P2PClientCache::new(P2PClientCacheConfig {
        num_nodes: 1000,
        node_capacity: 10,
        seed: SEED,
        ..P2PClientCacheConfig::default()
    })
}

#[test]
fn thousand_node_overlay_fits_its_byte_budget() {
    // 399 B per node: the 96 B state in the slab, 64 B of leaf slots,
    // about 137 B of table (bitmap words and 32.3 entries of 4 B), the id
    // column and the id → slot map. The id-keyed layout this replaced
    // counted 1,028 B: about 773 B of 16-byte peer ids (16 leaf members,
    // 32.3 table entries), the 96 B state inline in a 2,048-bucket id map
    // (229 B), the bitmap and the ring.
    let ids = (0..1000).map(|i| NodeId::from_bytes(format!("cache-node-{SEED}-{i}").as_bytes()));
    let o = Overlay::with_nodes(PastryConfig::default(), ids);
    let per_node = o.heap_bytes() / o.len();
    assert!(per_node <= 410, "{per_node} B per node");
}

#[test]
fn thousand_node_cluster_fits_its_byte_budget() {
    // Freshly built, 934 B per node: the overlay's 399 B, 199 B of node
    // map (2,048 buckets of 96 B nodes), 320 B of stores and the client
    // table. The previous layout counted 1,792 B: the overlay's 1,028 B
    // and a node map of 192 B nodes, 128 B of each the four empty inline
    // link maps.
    let mut c = cluster();
    let built = c.heap_bytes() / 1000;
    assert!(built <= 950, "{built} B per node freshly built");
    // Full, diversions have boxed the links of 985 nodes: 1,487 B per
    // node, where the previous layout counted 2,219 B.
    for i in 0..20_000 {
        let object = object_id_for_url(&format!("http://origin.example/obj/{i}"));
        c.destage(object, 1.0, Some(i)).expect("the cluster has members");
    }
    assert_eq!(c.len(), 10_000, "every slot filled");
    let full = c.heap_bytes() / 1000;
    assert!(full <= 1500, "{full} B per node full");
    assert!(c.check_invariants().is_empty());
}
