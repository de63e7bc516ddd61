use super::*;

#[test]
fn zero_adversary_is_bit_identical_to_plain() {
    // Installing the adversary machinery with every node honest and
    // audits off must not change a single counter or byte of cache
    // state versus the plain path (and consumes zero draws from the
    // adversary stream, so later fault injection stays aligned).
    let drive = |adversarial: bool| {
        let mut c = small(8, 2);
        if adversarial {
            c.enable_adversary(0xDEAD_BEEF, 0.0, 3);
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
    let (adv_ledger, adv_state) = drive(true);
    assert_eq!(plain_ledger, adv_ledger);
    assert_eq!(plain_state, adv_state);
}

#[test]
fn freerider_poisons_directory_and_stale_fetch_repairs_it() {
    let mut c = small(6, 2);
    c.enable_adversary(7, 0.0, 3);
    let cheat = c.root_of(oid(0)).unwrap();
    c.set_behavior(cheat, Behavior::FreeRider);
    assert_eq!(c.behavior_of(cheat), Behavior::FreeRider);
    let out = c.destage(oid(0), 1.0, Some(0)).unwrap();
    assert_eq!(out.stored_at, cheat, "the receipt claims the free-rider stored it");
    assert_eq!(c.phantom_entries(), 1);
    assert!(c.directory_contains(oid(0)), "the forged receipt poisoned the directory");
    assert!(c.check_invariants().is_empty());
    // The free-rider silently discarded the object, so the entry is
    // a lie: the fetch goes stale and scrubs it (negative feedback).
    assert!(c.fetch(1, oid(0), 1.0).is_none());
    assert_eq!(c.phantom_entries(), 0);
    assert!(!c.directory_contains(oid(0)));
    assert!(c.ledger().stale_lookups >= 1);
    assert!(c.check_invariants().is_empty());
    // Free-riders also refuse diversions, so after heavy traffic the
    // cheat still holds nothing (k = 1: no replicas land there).
    for i in 1..60u64 {
        c.destage(oid(i), 1.0 + i as f64, Some(0)).unwrap();
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after destage {i}: {problems:?}");
    }
    assert_eq!(c.node(cheat).unwrap().objects().count(), 0, "free-riders keep nothing");
}

#[test]
fn audits_of_honest_receipts_always_pass() {
    let mut c = small(6, 2);
    c.enable_adversary(31, 1.0, 1);
    for i in 0..30u64 {
        c.destage(oid(i), 1.0 + (i % 3) as f64, Some(0)).unwrap();
    }
    let l = *c.ledger();
    assert!(l.store_receipts > 0);
    assert_eq!(l.audits_challenged, l.store_receipts, "rate 1.0 audits every receipt");
    assert_eq!(l.audits_failed, 0);
    assert_eq!(l.forged_receipts, 0);
    assert_eq!(l.quarantines, 0);
    assert!(c.quarantined_ids().is_empty());
    assert!(c.check_invariants().is_empty());
}

#[test]
fn persistent_forger_is_audited_and_quarantined() {
    let mut sink = VecSink(Vec::new());
    let mut c = small(4, 1);
    c.enable_adversary(11, 1.0, 3);
    let forger = c.node_ids().next().unwrap();
    c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
    // Saturate the cluster, then keep destaging hotter objects so
    // every replacement drops a directory entry the forger
    // re-claims — and every forged receipt is audited at rate 1.0.
    for i in 0..40u64 {
        let _ = c.destage_tap(oid(i), 1.0 + i as f64, Some(0), &mut sink);
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after destage {i}: {problems:?}");
        if c.is_quarantined(forger) {
            break;
        }
    }
    assert!(c.is_quarantined(forger), "a persistent forger must run out of strikes");
    assert_eq!(c.quarantined_ids(), vec![forger]);
    assert_eq!(c.strikes_of(forger), 3, "quarantine lands exactly at the strike limit");
    assert_eq!(c.phantom_entries(), 0, "quarantine purges the forger's phantoms");
    assert!(!c.node_ids().any(|n| n == forger), "quarantine expels the node");
    let l = *c.ledger();
    assert_eq!(l.quarantines, 1);
    assert_eq!(l.audits_failed, 3);
    assert!(l.forged_receipts >= 3);
    assert!(l.audits_challenged > l.audits_failed, "honest receipts were audited too");
    let count = |label: &str| sink.count_label(label);
    assert_eq!(count("node_quarantined"), l.quarantines);
    assert_eq!(count("audit_failed"), l.audits_failed);
    assert_eq!(count("forged_receipt_detected"), l.forged_receipts);
    assert_eq!(count("audit_challenged"), l.audits_challenged);
    // The cluster keeps serving after the expulsion.
    for i in 100..110u64 {
        let _ = c.destage(oid(i), 1.0, Some(0));
    }
    assert!(c.check_invariants().is_empty());
}

#[test]
fn garbler_fails_checksums_and_quarantine_frees_its_objects() {
    let mut c = small_k(8, 4, 2);
    c.enable_adversary(23, 1.0, 2);
    for i in 0..20u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let o = oid(5);
    let root = c.root_of(o).unwrap();
    let holder = c.holder_of(root, o).unwrap();
    c.set_behavior(holder, Behavior::Garbler { rate_pm: 1000 });
    // Every response from the garbler fails its xxhash check; with
    // audits on, two bad payloads exhaust its strikes.
    assert!(c.fetch(1, o, 1.0).is_none(), "garbage is caught, not served");
    assert!(!c.is_quarantined(holder));
    assert!(c.fetch(1, o, 1.0).is_none());
    assert!(c.is_quarantined(holder), "second bad payload hits the strike limit");
    assert_eq!(c.ledger().checksum_failures, 2);
    assert_eq!(c.ledger().quarantines, 1);
    let problems = c.check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
    // The expelled garbler's residents park in limbo; the k = 2
    // replica keeps the object reachable through lazy repair.
    let f = c.fetch(2, o, 1.0).expect("replica must rescue the object");
    assert_ne!(f.holder, holder, "the quarantined node cannot serve");
    assert!(c.check_invariants().is_empty());
}

#[test]
fn undefended_garbler_degrades_but_is_never_quarantined() {
    let mut c = small(6, 2);
    c.enable_adversary(29, 0.0, 1);
    for i in 0..12u64 {
        c.destage(oid(i), 1.0, Some(0)).unwrap();
    }
    let o = oid(3);
    let root = c.root_of(o).unwrap();
    let holder = c.holder_of(root, o).unwrap();
    c.set_behavior(holder, Behavior::Garbler { rate_pm: 1000 });
    for _ in 0..10 {
        assert!(c.fetch(1, o, 1.0).is_none(), "every response is garbage");
    }
    assert_eq!(c.ledger().checksum_failures, 10);
    assert!(!c.is_quarantined(holder), "audits off means no strikes accrue");
    assert_eq!(c.ledger().quarantines, 0);
    assert_eq!(c.ledger().audits_challenged, 0);
    assert!(c.check_invariants().is_empty());
}

#[test]
fn quarantined_node_rejoins_with_a_clean_slate() {
    let mut c = small(4, 1);
    c.enable_adversary(13, 1.0, 2);
    let forger = c.node_ids().next().unwrap();
    c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
    for i in 0..30u64 {
        let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
        if c.is_quarantined(forger) {
            break;
        }
    }
    assert!(c.is_quarantined(forger));
    // The machine is reimaged and rejoins: new incarnation, honest
    // until proven otherwise, strikes wiped.
    c.join_node(forger);
    assert!(!c.is_quarantined(forger));
    assert_eq!(c.strikes_of(forger), 0);
    assert_eq!(c.behavior_of(forger), Behavior::Honest);
    assert!(c.node_ids().any(|n| n == forger));
    for i in 30..50u64 {
        let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
        let problems = c.check_invariants();
        assert!(problems.is_empty(), "after destage {i}: {problems:?}");
    }
    assert!(!c.is_quarantined(forger), "an honest incarnation never re-quarantines");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn persistent_forger_always_quarantined_within_bound(
        nodes in 3usize..9,
        strikes in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let mut c = small(nodes, 1);
        c.enable_adversary(seed, 1.0, strikes);
        let forger = c.node_ids().next().unwrap();
        c.set_behavior(forger, Behavior::Forger { rate_pm: 1000 });
        // Saturate, then every hotter destage evicts an entry the
        // forger re-claims; each claim is audited (rate 1.0) and
        // strikes, so quarantine must land within `strikes` replaces
        // past saturation. Budget is deliberately loose.
        let budget = (nodes as u64 + u64::from(strikes) + 4) * 2;
        for i in 0..budget {
            let _ = c.destage(oid(i), 1.0 + i as f64, Some(0));
            let problems = c.check_invariants();
            proptest::prop_assert!(problems.is_empty(), "{:?}", problems);
            if c.is_quarantined(forger) {
                break;
            }
        }
        proptest::prop_assert!(
            c.is_quarantined(forger),
            "forger survived {} audited destages", budget
        );
        proptest::prop_assert_eq!(c.phantom_entries(), 0);
    }
}
