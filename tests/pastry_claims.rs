//! §4.1's overlay claims at the paper's own example size (N = 1024).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use webcache::pastry::{NodeId, Overlay, PastryConfig};

fn overlay_of(n: usize, seed: u64) -> (Overlay, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id: u128 = rng.random();
        if seen.insert(id) {
            ids.push(NodeId(id));
        }
    }
    (Overlay::with_nodes(PastryConfig::default(), ids.iter().copied()), ids)
}

#[test]
fn n1024_lookups_within_3_to_4_hops() {
    // "3 < log16(N = 1024) + 1 < 4": at b = 4 and N = 1024 the paper
    // expects lookups to take at most ~4 LAN hops.
    let (overlay, ids) = overlay_of(1024, 0x2003);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut max_hops = 0usize;
    let mut sum = 0usize;
    let lookups = 2_000;
    for _ in 0..lookups {
        let from = ids[rng.random_range(0..ids.len())];
        let key = NodeId(rng.random());
        let r = overlay.route(from, key).expect("live node");
        assert_eq!(overlay.owner_of(key), Some(r.destination), "wrong owner");
        max_hops = max_hops.max(r.hops());
        sum += r.hops();
    }
    assert!(max_hops <= 4, "max hops {max_hops} > 4 at N=1024");
    let mean = sum as f64 / lookups as f64;
    assert!(mean < 3.5, "mean hops {mean:.2} unexpectedly high");
}

#[test]
fn overlay_survives_heavy_churn_at_scale() {
    let (mut overlay, ids) = overlay_of(300, 0x2004);
    let mut rng = SmallRng::seed_from_u64(2);
    // Fail 20% of the nodes, then join replacements.
    for &v in ids.iter().step_by(5) {
        overlay.fail(v).expect("victim is live");
    }
    for _ in 0..30 {
        overlay.join(NodeId(rng.random()));
    }
    let problems = overlay.check_invariants();
    assert!(problems.is_empty(), "{} violations, first: {:?}", problems.len(), problems.first());
    for _ in 0..500 {
        let key = NodeId(rng.random());
        let from = overlay.node_ids().next().expect("non-empty");
        assert_eq!(overlay.route(from, key).map(|r| r.destination), overlay.owner_of(key));
    }
}

#[test]
fn hop_count_grows_logarithmically() {
    let mean_hops = |n: usize| {
        let (overlay, ids) = overlay_of(n, 42);
        let mut rng = SmallRng::seed_from_u64(3);
        let lookups = 1_000;
        let total: usize = (0..lookups)
            .map(|_| {
                let from = ids[rng.random_range(0..ids.len())];
                overlay.route(from, NodeId(rng.random())).expect("live").hops()
            })
            .sum();
        total as f64 / lookups as f64
    };
    let h16 = mean_hops(16);
    let h256 = mean_hops(256);
    // 16x more nodes should cost ~1 extra base-16 digit of routing, not
    // 16x the hops.
    assert!(h256 > h16, "more nodes, more hops: {h16:.2} vs {h256:.2}");
    assert!(h256 < h16 + 2.0, "growth should be logarithmic: {h16:.2} vs {h256:.2}");
}
