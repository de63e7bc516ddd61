use super::*;

#[test]
fn repair_sweep_heals_before_any_request() {
    let mut c = small_k(10, 16, 2);
    for i in 0..16u64 {
        c.destage(oid(i), 1.0 + i as f64, Some(i as u32)).unwrap();
    }
    let victim = c.root_of(oid(0)).unwrap();
    c.crash_node(victim).unwrap();
    assert_eq!(c.crashed_len(), 1, "a silent crash announces nothing");
    // The first scan unit is the corpse probe: the sweep detects the
    // crash before any request walks into it.
    let first = c.repair_step(1);
    assert_eq!(first.scanned, 1);
    assert_eq!(c.crashed_len(), 0);
    for _ in 0..30 {
        let out = c.repair_step(8);
        if out.at_risk == 0 && c.check_replica_floor().is_empty() {
            break;
        }
    }
    assert!(c.limbo.is_empty(), "repair must drain limbo");
    assert_eq!(c.at_risk_gauge(), 0);
    assert!(c.check_replica_floor().is_empty(), "{:?}", c.check_replica_floor());
    assert!(c.check_invariants().is_empty(), "{:?}", c.check_invariants());
    assert!(c.silent_loss_audit().is_empty());
    assert!(c.ledger().proactive_repairs > 0, "the sweep did the repairs");
    assert_eq!(c.ledger().stale_hits, 0, "no request ever tripped a stale entry");
    assert!(c.ledger().repair_scans >= u64::from(first.scanned));
}
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn repair_restores_floor_after_domainfail(
        nodes in 6usize..12,
        dcount in 2u32..5,
        seed in 0u64..1_000,
        domain in 0u32..5,
    ) {
        let total = 20u64;
        let mut c = small_k(nodes, total as usize, 2);
        c.assign_domains(dcount, seed, true);
        for i in 0..total {
            c.destage(oid(i), 1.0 + (i % 7) as f64, Some(i as u32)).unwrap();
        }
        // Correlated burst: every live machine in one domain dies in
        // the same instant, silently.
        let victims = c.live_ids_in_domain(domain % dcount);
        if victims.len() == nodes {
            return Ok(()); // whole-cluster wipe: nothing to repair
        }
        for v in &victims {
            c.crash_node(*v).unwrap();
        }
        // The paced sweep alone (no request traffic) must detect
        // every corpse, drain limbo, and restore the floor within a
        // bounded number of rounds.
        let mut healed = false;
        for _ in 0..60 {
            let out = c.repair_step(8);
            if c.crashed_len() == 0
                && c.limbo.is_empty()
                && out.at_risk == 0
                && c.check_replica_floor().is_empty()
            {
                healed = true;
                break;
            }
        }
        proptest::prop_assert!(
            healed,
            "floor not restored after 60 rounds: {} crashed, {} limbo, floor {:?}",
            c.crashed_len(), c.limbo.len(), c.check_replica_floor()
        );
        let problems = c.check_invariants();
        proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
        proptest::prop_assert!(c.silent_loss_audit().is_empty());
        // Conservation: every seeded object is either resident again
        // or explicitly ledgered lost — never silently gone.
        proptest::prop_assert_eq!(
            c.len() as u64 + c.ledger().objects_lost,
            total,
            "resident {} + lost {} != seeded {}",
            c.len(), c.ledger().objects_lost, total
        );
    }
}
