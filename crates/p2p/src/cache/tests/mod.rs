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
use crate::transport::MAX_ATTEMPTS;

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

fn oid(i: u64) -> u128 {
    object_id_for_url(&format!("http://origin.example/obj/{i}"))
}

/// A sink that keeps every event, for the "events mirror the ledger"
/// tests.
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
