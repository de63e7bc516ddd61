use super::*;

#[test]
fn repair_sweep_heals_before_any_request() {
    let mut sink = VecSink(Vec::new());
    let mut c = small_k(10, 16, 2);
    for i in 0..16u64 {
        c.destage_tap(oid(i), 1.0 + i as f64, Some(i as u32), &mut sink).unwrap();
    }
    let victim = c.root_of(oid(0)).unwrap();
    c.crash_node_tap(victim, &mut sink).unwrap();
    assert_eq!(c.crashed_len(), 1, "a silent crash announces nothing");
    // The first scan unit is the corpse probe: the sweep detects the
    // crash before any request walks into it.
    let first = c.repair_step_tap(1, &mut sink);
    assert_eq!(first.scanned, 1);
    assert_eq!(c.crashed_len(), 0);
    for _ in 0..30 {
        let out = c.repair_step_tap(8, &mut sink);
        if out.at_risk == 0 && c.check_replica_floor().is_empty() {
            break;
        }
    }
    assert!(c.limbo.is_empty(), "repair must drain limbo");
    assert_eq!(c.at_risk_gauge(), 0);
    assert!(c.check_replica_floor().is_empty(), "{:?}", c.check_replica_floor());
    assert!(c.check_invariants().is_empty(), "{:?}", c.check_invariants());
    assert!(c.silent_loss_audit().is_empty());
    assert!(sink.count_label("proactive_repair") > 0, "the sweep did the repairs");
    assert_eq!(sink.count_label("stale_directory_hit"), 0, "no request tripped a stale entry");
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

/// One operation of the scheduler's lockstep test, applied to `c`;
/// returns what the caller saw of it. `reference` picks the scheduler
/// without the clean-revolution rule. Crashes and departures take
/// island-A machines only and never its last one (the churn driver's
/// rule), and always leave three live members.
fn lockstep_step(
    c: &mut P2PClientCache,
    (kind, a, b): (u8, u64, u32),
    reference: bool,
    sink: &mut VecSink,
) -> String {
    let obj = oid(a);
    let island_a: Vec<NodeId> = c.node_ids().filter(|n| c.in_island_a(*n)).collect();
    let victim = (island_a.len() > 1 && c.node_ids().count() > 3)
        .then(|| island_a[b as usize % island_a.len()]);
    match kind {
        0..=7 => {
            let via = (b % 4 != 0).then_some(b);
            format!("{:?}", c.destage_tap(obj, 1.0 + (a % 5) as f64, via, sink))
        }
        8..=11 if c.directory_contains(obj) => format!("{:?}", c.fetch_tap(b, obj, 1.0, sink)),
        12 => victim.map_or_else(String::new, |v| format!("{:?}", c.crash_node_tap(v, sink))),
        13 => {
            let dead = c.crashed_ids().nth(b as usize % c.crashed_len().max(1));
            if let Some(dead) = dead {
                c.detect_crash(dead, sink);
            }
            format!("{dead:?}")
        }
        14 => victim.map_or_else(String::new, |v| format!("{:?}", c.depart_node_tap(v, sink))),
        15 => {
            // A small pool of ids, so a crashed joiner can reboot.
            let id = NodeId::from_bytes(format!("lockstep-joiner-{}", a % 6).as_bytes());
            if c.node(id).is_none() || c.crashed_ids().any(|n| n == id) {
                c.join_node_tap(id, sink);
            }
            String::new()
        }
        16 => format!("{}", c.partition_nodes(5 + (b % 90) as u8, sink)),
        17 => format!("{}", c.heal_nodes(sink)),
        18 => {
            c.assign_domains(1 + b % 4, a, a % 2 == 0);
            String::new()
        }
        19.. => {
            let budget = 1 + b % 16;
            let out = if reference {
                c.repair_step_reference(budget, sink)
            } else {
                c.repair_step_tap(budget, sink)
            };
            format!("{out:?}")
        }
        _ => String::new(),
    }
}

/// Drives the scheduler and its reference on two clones of `c` through
/// `ops`, asserting after every op that the outcome, the events, the
/// ledger, the at-risk gauge and the contents are equal. Returns the
/// number of ops after which the count-only path was on.
fn run_lockstep(c: P2PClientCache, ops: &[(u8, u64, u32)]) -> usize {
    let (mut model, mut fast) = (c.clone(), c);
    let (mut model_sink, mut fast_sink) = (VecSink(Vec::new()), VecSink(Vec::new()));
    let mut trusted = 0;
    for (i, &op) in ops.iter().enumerate() {
        let seen_model = lockstep_step(&mut model, op, true, &mut model_sink);
        let seen_fast = lockstep_step(&mut fast, op, false, &mut fast_sink);
        assert_eq!(seen_model, seen_fast, "op {i} {op:?}");
        assert_eq!(
            std::mem::take(&mut model_sink.0),
            std::mem::take(&mut fast_sink.0),
            "events of op {i} {op:?}"
        );
        assert_eq!(model.ledger(), fast.ledger(), "after op {i} {op:?}");
        assert_eq!(model.at_risk_gauge(), fast.at_risk_gauge(), "after op {i} {op:?}");
        assert_eq!(model.contents_snapshot(), fast.contents_snapshot(), "after op {i} {op:?}");
        check_space_gate(&model);
        check_space_gate(&fast);
        trusted += usize::from(fast.repair_trusted());
    }
    trusted
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
    /// The clean-revolution rule changes no scanned unit, repair, gauge
    /// value, event or ledger count: the scheduler and its reference
    /// (every unit checked) agree after every destage, fetch, crash,
    /// detection, departure, join, cut, heal, domain assignment and
    /// repair round, at k = 2 and 3, with and without domains.
    #[test]
    fn repair_scheduler_matches_its_reference(
        ops in proptest::collection::vec((0u8..32, 0u64..60, 0u32..64), 1..300),
        nodes in 4usize..10,
        cap in 1usize..5,
        k in 2usize..4,
        domains in 0u32..4,
        seed in 0u64..1_000,
    ) {
        let mut c = small_k(nodes, cap, k);
        if domains > 0 {
            c.assign_domains(domains, seed, seed % 2 == 0);
        }
        run_lockstep(c, &ops);
    }
}

#[test]
fn clean_revolutions_count_until_the_books_change() {
    let mut c = small_k(12, 4, 2);
    for i in 0..40u64 {
        c.destage(oid(i), 1.0 + (i % 3) as f64, Some(i as u32)).unwrap();
    }
    // Small rounds, so the trusted revolution is mid-walk when a crash
    // hands it back; then the floor is restored and trust returns.
    let mut ops: Vec<(u8, u64, u32)> = vec![(19, 0, 2); 60];
    ops.push((12, 0, 5)); // crash
    ops.extend([(19, 0, 2); 80]);
    ops.push((15, 1, 0)); // join
    ops.extend([(19, 0, 2); 80]);
    let trusted = run_lockstep(c.clone(), &ops);
    assert!(trusted > 60, "the count-only path barely ran: {trusted} of {} ops", ops.len());

    // The toggles themselves: a clean revolution turns the path on, and
    // each membership change turns it off until the next clean one.
    let mut sink = VecSink(Vec::new());
    let mut rounds = 0;
    while !c.repair_trusted() {
        c.repair_step(3);
        rounds += 1;
        assert!(rounds < 100, "no clean revolution");
    }
    let scans = c.ledger().repair_scans;
    assert_eq!(c.repair_step(3).scanned, 3, "counted units are still scanned");
    assert_eq!(c.ledger().repair_scans, scans + 3);
    let victim = c.node_ids().nth(4).unwrap();
    c.crash_node_tap(victim, &mut sink).unwrap();
    assert!(!c.repair_trusted(), "a crash changes the books");
    while !c.repair_trusted() {
        c.repair_step(3);
    }
    c.join_node(NodeId::from_bytes(b"late-joiner"));
    assert!(!c.repair_trusted(), "a join changes the books");
}
