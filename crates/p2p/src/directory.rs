//! The proxy's lookup directory over its P2P client cache (§4.2).
//!
//! "The local proxy needs to maintain a directory of cached objects in its
//! P2P client cache for lookup." The paper proposes two representations:
//!
//! * **Exact-Directory** — "a hashtable composed of the objectIds of all
//!   the cached objects in a P2P client cache": no false positives, memory
//!   proportional to the number of cached objects (16 bytes per objectId
//!   here, plus table overhead).
//! * **Bloom Filter** — "a tradeoff between the memory requirement and the
//!   false positive ratio (which induces false indications that the
//!   requested objects are in the P2P client cache)". Because client
//!   caches report evictions back to the proxy (Fig. 1 step 14), the
//!   filter must support deletion, so the Bloom variant is a *counting*
//!   Bloom filter.
//!
//! On top of either representation the directory stamps entries with a
//! monotonically increasing **epoch**: 0 at first insertion, bumped every
//! time the entry's authority moves (a re-home after a crash, a
//! re-replication, a split-brain promotion). Epochs are what make healing
//! a network partition well-defined — when two islands each re-homed the
//! same object, the reconciliation sweep keeps the copy with the higher
//! epoch instead of guessing. Entries that never move carry epoch 0 and
//! occupy no epoch storage, so fault-free runs pay nothing.

use webcache_primitives::{CountingBloomFilter, FxHashMap, ShaIdMap, ShaIdSet};

/// Which directory representation the proxy uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirectoryKind {
    /// Exact hashtable of objectIds.
    Exact,
    /// Counting Bloom filter sized at `counters_per_key` 4-bit counters
    /// per expected entry.
    Bloom {
        /// Counters per expected key (memory knob; ~0.5 bytes each).
        counters_per_key: f64,
        /// Expected number of simultaneously cached objects (the P2P
        /// cache's aggregate capacity).
        expected_entries: usize,
    },
}

/// The membership representation behind a [`LookupDirectory`].
#[derive(Clone, Debug)]
enum DirectoryRepr {
    /// Exact hashtable.
    Exact(ShaIdSet<u128>),
    /// Counting Bloom filter.
    Bloom(CountingBloomFilter),
}

/// Simulator-only acceleration for exact directories: a bitset over a
/// dense object universe the driving engine already numbers 0..n. Hot
/// membership reads become one L1 bit test instead of a hash-set probe.
/// This is *not* part of the modeled deployment (a real proxy doesn't
/// know the object universe), so it is excluded from `size_bytes`.
#[derive(Clone, Debug)]
struct DenseMirror {
    /// object id -> dense index in `bits`.
    index: ShaIdMap<u128, u32>,
    /// One bit per universe object; always equal to exact-set membership.
    bits: Vec<u64>,
}

/// A proxy-side lookup directory: a membership structure (exact or
/// counting-Bloom) plus per-entry epochs for partition reconciliation.
#[derive(Clone, Debug)]
pub struct LookupDirectory {
    repr: DirectoryRepr,
    /// Epochs of entries whose authority has moved at least once.
    /// Absent means epoch 0 — the common case; the map only grows under
    /// faults and is pruned on remove, so it stays empty in fault-free
    /// runs and bounded by the resident set otherwise.
    epochs: FxHashMap<u128, u64>,
    /// Dense read accelerator; `Some` only for exact directories whose
    /// driving engine registered its object universe, and dropped on the
    /// first mutation involving an id outside that universe.
    mirror: Option<DenseMirror>,
}

impl LookupDirectory {
    /// Builds the directory described by `kind`.
    pub fn new(kind: DirectoryKind) -> Self {
        let repr = match kind {
            DirectoryKind::Exact => DirectoryRepr::Exact(ShaIdSet::default()),
            DirectoryKind::Bloom { counters_per_key, expected_entries } => DirectoryRepr::Bloom(
                CountingBloomFilter::with_capacity(expected_entries, counters_per_key),
            ),
        };
        LookupDirectory { repr, epochs: FxHashMap::default(), mirror: None }
    }

    /// Registers the engine's dense object universe, turning exact
    /// membership reads into bitset tests (see `DenseMirror`). No-op
    /// for Bloom directories — their probabilistic `contains` must keep
    /// answering, false positives included.
    pub fn enable_dense_mirror(&mut self, universe: &[u128]) {
        let DirectoryRepr::Exact(set) = &self.repr else {
            return;
        };
        let mut index = ShaIdMap::default();
        for (i, &oid) in universe.iter().enumerate() {
            index.insert(oid, i as u32);
        }
        let mut bits = vec![0u64; universe.len().div_ceil(64)];
        for &oid in set.iter() {
            let Some(&i) = index.get(&oid) else {
                // Resident id outside the declared universe: the mirror
                // can't represent it, so don't build one.
                return;
            };
            bits[i as usize / 64] |= 1 << (i % 64);
        }
        self.mirror = Some(DenseMirror { index, bits });
    }

    /// Mirror-accelerated membership: `Some(resident)` when the dense
    /// mirror can answer for universe index `idx`, `None` when the
    /// caller must fall back to [`contains`](Self::contains).
    #[inline]
    pub fn contains_dense(&self, idx: usize) -> Option<bool> {
        let m = self.mirror.as_ref()?;
        Some(m.bits[idx / 64] & (1 << (idx % 64)) != 0)
    }

    /// Updates the mirror for a mutation of `object`; ids outside the
    /// registered universe drop the mirror entirely (permanent fallback
    /// beats a silently wrong bit).
    fn mirror_set(&mut self, object: u128, resident: bool) {
        if let Some(m) = &mut self.mirror {
            match m.index.get(&object) {
                Some(&i) => {
                    let (w, b) = (i as usize / 64, 1u64 << (i % 64));
                    if resident {
                        m.bits[w] |= b;
                    } else {
                        m.bits[w] &= !b;
                    }
                }
                None => self.mirror = None,
            }
        }
    }

    /// Records that `object` is now stored in the P2P client cache.
    pub fn insert(&mut self, object: u128) {
        match &mut self.repr {
            DirectoryRepr::Exact(s) => {
                s.insert(object);
            }
            DirectoryRepr::Bloom(f) => {
                f.insert(object);
                return;
            }
        }
        self.mirror_set(object, true);
    }

    /// Records that `object` left the P2P client cache. The entry's epoch
    /// dies with it: a later re-insertion is a fresh entry at epoch 0.
    pub fn remove(&mut self, object: u128) {
        match &mut self.repr {
            DirectoryRepr::Exact(s) => {
                s.remove(&object);
            }
            DirectoryRepr::Bloom(f) => {
                f.remove(object);
                self.epochs.remove(&object);
                return;
            }
        }
        self.mirror_set(object, false);
        self.epochs.remove(&object);
    }

    /// Membership test ("might be stored in its P2P client cache").
    /// Exact directories never err; Bloom directories may return false
    /// positives, never false negatives.
    pub fn contains(&self, object: u128) -> bool {
        match &self.repr {
            DirectoryRepr::Exact(s) => s.contains(&object),
            DirectoryRepr::Bloom(f) => f.contains(object),
        }
    }

    /// The entry's epoch (0 unless its authority has moved).
    pub fn epoch_of(&self, object: u128) -> u64 {
        self.epochs.get(&object).copied().unwrap_or(0)
    }

    /// Bumps the entry's epoch by one and returns the new value. Called
    /// on every authority move: re-home, re-replication, promotion.
    pub fn bump_epoch(&mut self, object: u128) -> u64 {
        let e = self.epochs.entry(object).or_insert(0);
        *e += 1;
        *e
    }

    /// Pins the entry's epoch to an externally decided value (the
    /// reconciliation sweep merging a losing island's higher epoch).
    /// Epoch 0 is the implicit default and stores nothing.
    pub fn set_epoch(&mut self, object: u128, epoch: u64) {
        if epoch == 0 {
            self.epochs.remove(&object);
        } else {
            self.epochs.insert(object, epoch);
        }
    }

    /// The exact entry set, when this directory is exact. Oracles and
    /// invariant checks use this to diff the directory against ground
    /// truth; Bloom directories cannot be enumerated, so they get `None`.
    pub fn exact_entries(&self) -> Option<&ShaIdSet<u128>> {
        match &self.repr {
            DirectoryRepr::Exact(s) => Some(s),
            DirectoryRepr::Bloom(_) => None,
        }
    }

    /// Entries currently recorded (net inserts minus removes).
    pub fn len(&self) -> usize {
        match &self.repr {
            DirectoryRepr::Exact(s) => s.len(),
            DirectoryRepr::Bloom(f) => f.len() as usize,
        }
    }

    /// True if no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry. Used when the whole client cluster has failed:
    /// pairing removes exactly is impossible once the nodes that held the
    /// objects are gone, so the directory is flushed wholesale.
    pub fn clear(&mut self) {
        match &mut self.repr {
            DirectoryRepr::Exact(s) => s.clear(),
            DirectoryRepr::Bloom(f) => f.clear(),
        }
        if let Some(m) = &mut self.mirror {
            m.bits.fill(0);
        }
        self.epochs.clear();
    }

    /// Approximate memory footprint in bytes — the quantity the §4.2
    /// trade-off is about. Epochs add 24 bytes per *moved* entry; a
    /// fault-free directory carries none.
    pub fn size_bytes(&self) -> usize {
        let repr = match &self.repr {
            // 16 bytes of objectId per entry; hash-set overhead (control
            // bytes + load factor) folded into a conservative 1.2 factor.
            DirectoryRepr::Exact(s) => (s.len() * 16 * 6 / 5).max(16),
            DirectoryRepr::Bloom(f) => f.size_bytes(),
        };
        repr + self.epochs.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize, salt: u128) -> Vec<u128> {
        (0..n as u128).map(|i| i * 0x9E37_79B9_7F4A_7C15 + salt + 1).collect()
    }

    #[test]
    fn exact_roundtrip() {
        let mut d = LookupDirectory::new(DirectoryKind::Exact);
        for &k in &ids(100, 0) {
            d.insert(k);
        }
        assert_eq!(d.len(), 100);
        for &k in &ids(100, 0) {
            assert!(d.contains(k));
        }
        for &k in &ids(100, 10_000) {
            assert!(!d.contains(k), "exact directory must not false-positive");
        }
        for &k in &ids(100, 0) {
            d.remove(k);
        }
        assert!(d.is_empty());
    }

    #[test]
    fn epochs_default_to_zero_and_die_with_their_entry() {
        let mut d = LookupDirectory::new(DirectoryKind::Exact);
        d.insert(7);
        assert_eq!(d.epoch_of(7), 0, "a fresh entry carries epoch 0");
        assert_eq!(d.bump_epoch(7), 1);
        assert_eq!(d.bump_epoch(7), 2);
        assert_eq!(d.epoch_of(7), 2);
        d.remove(7);
        d.insert(7);
        assert_eq!(d.epoch_of(7), 0, "re-insertion starts a fresh entry");
        d.set_epoch(7, 5);
        assert_eq!(d.epoch_of(7), 5);
        d.set_epoch(7, 0);
        assert_eq!(d.epoch_of(7), 0);
        d.bump_epoch(7);
        d.clear();
        assert_eq!(d.epoch_of(7), 0, "clear flushes epochs too");
    }

    #[test]
    fn fault_free_directories_store_no_epochs() {
        let mut d = LookupDirectory::new(DirectoryKind::Exact);
        for &k in &ids(50, 0) {
            d.insert(k);
        }
        let plain = d.size_bytes();
        d.bump_epoch(ids(50, 0)[0]);
        assert_eq!(d.size_bytes(), plain + 24, "only moved entries pay for an epoch");
    }

    #[test]
    fn bloom_no_false_negatives_and_deletes() {
        let kind = DirectoryKind::Bloom { counters_per_key: 12.0, expected_entries: 500 };
        let mut d = LookupDirectory::new(kind);
        let present = ids(500, 1);
        for &k in &present {
            d.insert(k);
        }
        for &k in &present {
            assert!(d.contains(k));
        }
        for &k in &present[..250] {
            d.remove(k);
        }
        for &k in &present[250..] {
            assert!(d.contains(k), "remaining keys must survive unrelated removes");
        }
        assert_eq!(d.len(), 250);
        assert!(d.exact_entries().is_none(), "bloom directories cannot be enumerated");
    }

    #[test]
    fn bloom_smaller_than_exact_at_low_bits() {
        let n = 10_000;
        let mut exact = LookupDirectory::new(DirectoryKind::Exact);
        let mut bloom = LookupDirectory::new(DirectoryKind::Bloom {
            counters_per_key: 8.0,
            expected_entries: n,
        });
        for &k in &ids(n, 2) {
            exact.insert(k);
            bloom.insert(k);
        }
        assert!(
            bloom.size_bytes() < exact.size_bytes(),
            "bloom {} vs exact {}",
            bloom.size_bytes(),
            exact.size_bytes()
        );
    }

    #[test]
    fn bloom_false_positive_rate_reasonable() {
        let n = 2_000;
        let mut d = LookupDirectory::new(DirectoryKind::Bloom {
            counters_per_key: 12.0,
            expected_entries: n,
        });
        for &k in &ids(n, 3) {
            d.insert(k);
        }
        let absent = ids(20_000, 777_777);
        let fp = absent.iter().filter(|&&k| d.contains(k)).count();
        let rate = fp as f64 / absent.len() as f64;
        assert!(rate < 0.02, "false positive rate {rate}");
    }
}
