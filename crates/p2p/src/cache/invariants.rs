//! Structural invariants, one function per layer, and the canonical
//! contents snapshot the oracles diff end states with.

use super::P2PClientCache;
use webcache_policy::BoundedCache;

impl P2PClientCache {
    /// Verifies internal consistency; returns violations (empty = OK).
    ///
    /// With an exact directory, directory contents must equal the set of
    /// resident objects; with a Bloom directory only the no-false-negative
    /// direction can be checked.
    ///
    /// Each layer checks the books it owns and reports only those: the
    /// node stores and diversion pointers of Fig. 1 (here), replica sets
    /// and limbo, the island-B index, phantom entries and quarantine —
    /// then the census ties the layers' counts to the directory's size.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let resident = self.check_store_layer(&mut problems);
        self.check_replica_layer(&mut problems);
        self.check_partition_layer(&mut problems);
        self.check_adversary_layer(&mut problems);
        self.check_directory_census(resident, &mut problems);
        problems
    }

    /// The paper's own state: every object resident on the proxy's side
    /// of the ring is in the lookup directory, every diversion pointer
    /// has its object at the other end and every hosted object its
    /// pointer, and the resident counter matches. Returns the number of
    /// objects actually resident.
    pub(super) fn check_store_layer(&self, problems: &mut Vec<String>) -> usize {
        let mut count = 0usize;
        for node in self.nodes.values() {
            // Island B runs its own authority while the cut is up; the
            // proxy's directory describes island A only.
            let islanded = !self.overlay.in_island_a(node.id);
            for obj in node.store.keys() {
                count += 1;
                if !islanded && !self.directory.contains(obj) {
                    problems.push(format!("object {obj:032x} resident but not in directory"));
                }
            }
            for (obj, host) in &node.diverted_to {
                match self.nodes.get(&host.0) {
                    Some(hn) if hn.store.contains(*obj) => {}
                    _ => problems.push(format!("diversion pointer {obj:032x} -> {host} dangles")),
                }
            }
            for (obj, owner) in &node.hosted_for {
                match self.nodes.get(&owner.0) {
                    Some(on) if on.diverted_to.get(obj) == Some(&node.id) => {}
                    _ => problems.push(format!(
                        "hosted object {obj:032x} has no owner pointer from {owner}"
                    )),
                }
            }
        }
        if count != self.resident {
            problems.push(format!("resident count {} != actual {count}", self.resident));
        }
        count
    }

    /// The cross-layer total: an exact directory holds one entry per
    /// resident object on the proxy's side, per limbo entry and per
    /// phantom — no more, no fewer.
    fn check_directory_census(&self, resident: usize, problems: &mut Vec<String>) {
        let Some(set) = self.directory.exact_entries() else { return };
        // During a split the proxy's directory covers island A only;
        // island B's copies are carried by the B index instead.
        // Phantom entries (forged receipts not yet purged) are
        // directory entries with deliberately no backing copy.
        let islanded = self.split.as_ref().map_or(0, |s| s.b_index.len());
        let phantoms = self.phantom_entries();
        if set.len() + islanded != resident + self.limbo.len() + phantoms {
            problems.push(format!(
                "exact directory has {} entries ({islanded} islanded) but {resident} objects \
                 resident, {} in limbo, and {phantoms} phantom",
                set.len(),
                self.limbo.len()
            ));
        }
    }

    /// A canonical, deterministic rendering of the cluster's end state:
    /// every node's resident objects and replica copies, the exact
    /// directory contents, and the limbo set, all sorted. Two caches with
    /// byte-identical snapshots hold byte-identical contents — the
    /// idempotency golden test compares a duplication+reordering run
    /// against a fault-free one through this, and the chaos oracles diff
    /// end states with it.
    pub fn contents_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ids: Vec<u128> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let node = &self.nodes[&id];
            let _ = writeln!(out, "node {id:032x}");
            let mut objs: Vec<u128> = node.store.keys().collect();
            objs.sort_unstable();
            for o in objs {
                let _ = writeln!(out, "  store {o:032x}");
            }
            let mut reps: Vec<u128> = node.replicas.keys().copied().collect();
            reps.sort_unstable();
            for o in reps {
                let _ = writeln!(out, "  replica {o:032x}");
            }
        }
        if let Some(set) = self.directory.exact_entries() {
            let mut dir: Vec<u128> = set.iter().copied().collect();
            dir.sort_unstable();
            for o in dir {
                let _ = writeln!(out, "directory {o:032x}");
            }
        }
        let mut limbo: Vec<u128> = self.limbo.keys().copied().collect();
        limbo.sort_unstable();
        for o in limbo {
            let _ = writeln!(out, "limbo {o:032x}");
        }
        // Phantom lines appear only when the misbehavior subsystem is
        // installed, so every committed adversary-free golden keeps its
        // exact bytes.
        if let Some(adv) = &self.adversary {
            let mut ph: Vec<(u128, u128)> = adv.phantoms.iter().map(|(o, n)| (*o, n.0)).collect();
            ph.sort_unstable();
            for (o, n) in ph {
                let _ = writeln!(out, "phantom {o:032x} via {n:032x}");
            }
        }
        out
    }

    /// Test-only sabotage hook for the chaos explorer: plants a
    /// directory entry with no backing object, a real
    /// directory↔residency violation that
    /// [`check_invariants`](Self::check_invariants) must catch and the
    /// shrinker must minimize. Never called by production paths.
    #[doc(hidden)]
    pub fn debug_plant_ghost_entry(&mut self, object: u128) {
        self.space_hint = None;
        self.directory.insert(object);
    }
}
