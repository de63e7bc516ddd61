//! Unit tests of the P2P client cache, split along the layer modules.

mod adversary;
mod invariants;
mod membership;
mod partition;
mod repair;
mod replicas;
mod serve;

use super::*;
use crate::events::{NoSink, P2pEvent};
use crate::faults::P2pError;

fn small(nodes: usize, cap: usize) -> P2PClientCache {
    small_k(nodes, cap, 1)
}

fn small_k(nodes: usize, cap: usize, k: usize) -> P2PClientCache {
    P2PClientCache::new(P2PClientCacheConfig {
        num_nodes: nodes,
        node_capacity: cap,
        replication: k,
        ..P2PClientCacheConfig::default()
    })
}

/// Crashes `id` silently and detects the corpse at once: the machine
/// leaves with its store, whose primaries park in limbo for lazy repair.
fn crash_detected(c: &mut P2PClientCache, id: NodeId, sink: &mut impl P2pSink) {
    c.crash_node_tap(id, sink).unwrap();
    c.detect_crash(id, sink);
}

/// The destage's O(1) free-space gate agrees with the scan it stands
/// for.
fn check_space_gate(c: &P2PClientCache) {
    let scan = c.nodes.values().any(ClientCacheNode::has_free_space);
    assert_eq!(c.space_anywhere(), scan, "free-space gate disagrees with the node stores");
}

fn oid(i: u64) -> u128 {
    object_id_for_url(&format!("http://origin.example/obj/{i}"))
}

/// A sink that keeps every event, for tests that count what the ledger
/// does not.
struct VecSink(Vec<P2pEvent>);

impl P2pSink for VecSink {
    fn event(&mut self, e: P2pEvent) {
        self.0.push(e);
    }
}

impl VecSink {
    fn count(&self, f: impl Fn(&P2pEvent) -> bool) -> u64 {
        self.0.iter().filter(|e| f(e)).count() as u64
    }

    fn count_label(&self, label: &str) -> u64 {
        self.count(|e| e.kind_label() == label)
    }
}
