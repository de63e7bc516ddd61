//! Bloom filters for the proxy's P2P-cache lookup directory.
//!
//! §4.2 of the paper offers two directory representations: an exact hash
//! table of objectIds and a Bloom filter, the latter trading memory for a
//! false-positive ratio (a false positive makes the proxy redirect a request
//! into the P2P client cache for an object that is not there, wasting
//! Tp2p before falling back). The directory must also support *deletion* —
//! the proxy removes entries when a client cache reports an eviction
//! (Fig. 1, step 14) — so a [`CountingBloomFilter`] is provided as well; a
//! plain [`BloomFilter`] is kept for membership-only uses and for the
//! memory-vs-FPR ablation bench.
//!
//! Keys are 128-bit objectIds (SHA-1 prefixes, uniformly distributed), so
//! the k index functions are derived with double hashing from two halves of
//! the key mixed through SplitMix64.
//!
//! Both filters use a *blocked* layout: one hash selects a 64-byte block
//! (one cache line), and all k probes land inside that block, so a
//! membership test costs one memory access instead of k scattered ones.
//! The k probes are then resolved with a fused word test
//! ([`BloomFilter::contains`] / [`CountingBloomFilter::contains`]):
//! required bits are OR-accumulated into per-word masks and checked with
//! one compare per touched word, rather than one branch per probe.
//! Blocking raises the false-positive rate slightly over a flat filter of
//! the same size (block occupancy varies around the mean); the directory
//! ablation sizes filters by counters-per-key, where the penalty is well
//! inside the measured-vs-theory slack.

use crate::seed::splitmix64;

/// Bits per block: 64 bytes, one x86-64 cache line.
const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
const BLOCK_WORDS: usize = 8;
/// 4-bit counters per block (64 bytes).
const BLOCK_COUNTERS: u64 = 128;

fn index_pair(key: u128) -> (u64, u64) {
    let mut lo = key as u64;
    let mut hi = (key >> 64) as u64;
    let h1 = splitmix64(&mut lo);
    let h2 = splitmix64(&mut hi) | 1; // odd so strides cover the block
    (h1, h2)
}

/// The i-th in-block probe offset (double hashing; `h2` is odd, and block
/// sizes are powers of two, so consecutive probes cycle the whole block).
#[inline]
fn probe_offset(h1: u64, h2: u64, i: u64, block_len: u64) -> u64 {
    (h1 >> 32).wrapping_add(i.wrapping_mul(h2)) & (block_len - 1)
}

/// Classic Bloom filter over 128-bit keys, cache-line blocked.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    blocks: u64,
    m: u64,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with (at least) `m_bits` bits and `k` hash
    /// functions. Capacity rounds up to whole 512-bit blocks.
    pub fn new(m_bits: usize, k: u32) -> Self {
        assert!(m_bits > 0 && k > 0);
        let blocks = (m_bits as u64).div_ceil(BLOCK_BITS);
        BloomFilter {
            bits: vec![0; blocks as usize * BLOCK_WORDS],
            blocks,
            m: blocks * BLOCK_BITS,
            k,
            inserted: 0,
        }
    }

    /// Sizes the filter for `expected` keys at `bits_per_key` (k is chosen
    /// as the optimal `ln 2 * bits_per_key`, clamped to at least 1).
    pub fn with_capacity(expected: usize, bits_per_key: f64) -> Self {
        let m = ((expected.max(1) as f64 * bits_per_key).ceil() as usize).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        Self::new(m, k)
    }

    #[inline]
    fn block_base(&self, h1: u64) -> usize {
        (h1 % self.blocks) as usize * BLOCK_WORDS
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u128) {
        let (h1, h2) = index_pair(key);
        let base = self.block_base(h1);
        for i in 0..self.k {
            let off = probe_offset(h1, h2, i as u64, BLOCK_BITS);
            self.bits[base + (off / 64) as usize] |= 1 << (off % 64);
        }
        self.inserted += 1;
    }

    /// Membership test; false positives possible, false negatives not.
    ///
    /// The fused probe: accumulates all k required bits into per-word
    /// masks over the key's block, then verifies each touched word with a
    /// single `AND`/compare — one cache line, no per-probe branches.
    #[inline]
    pub fn contains(&self, key: u128) -> bool {
        let (h1, h2) = index_pair(key);
        let base = self.block_base(h1);
        let mut need = [0u64; BLOCK_WORDS];
        for i in 0..self.k {
            let off = probe_offset(h1, h2, i as u64, BLOCK_BITS);
            need[(off / 64) as usize] |= 1 << (off % 64);
        }
        let block = &self.bits[base..base + BLOCK_WORDS];
        (0..BLOCK_WORDS).all(|w| block[w] & need[w] == need[w])
    }

    /// Number of `insert` calls (not distinct keys).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Filter size in bits (rounded up to whole blocks).
    pub fn bits(&self) -> u64 {
        self.m
    }

    /// Memory footprint of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Theoretical false-positive rate for `n` inserted keys:
    /// `(1 - e^{-kn/m})^k`. (The flat-filter formula; the blocked layout
    /// sits slightly above it because block loads vary around the mean.)
    pub fn theoretical_fpr(&self, n: u64) -> f64 {
        let exponent = -(self.k as f64) * n as f64 / self.m as f64;
        (1.0 - exponent.exp()).powi(self.k as i32)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }
}

/// Counting Bloom filter (4-bit saturating counters) supporting deletion,
/// cache-line blocked like [`BloomFilter`].
///
/// This is the variant the Hier-GD lookup directory uses: client caches
/// report evictions back to the proxy (Fig. 1 step 14), which must remove
/// the corresponding entry.
#[derive(Clone, Debug)]
pub struct CountingBloomFilter {
    /// 4-bit counters, 16 to a word; each key's k counters share a block
    /// of [`BLOCK_COUNTERS`] (one cache line).
    words: Vec<u64>,
    blocks: u64,
    m: u64,
    k: u32,
    len: u64,
}

/// The low bit of every nibble lane in a word.
const NIBBLE_LSB: u64 = 0x1111_1111_1111_1111;

impl CountingBloomFilter {
    /// Creates a filter with (at least) `m` counters and `k` hash
    /// functions. Capacity rounds up to whole 128-counter blocks.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0);
        let blocks = (m as u64).div_ceil(BLOCK_COUNTERS);
        CountingBloomFilter {
            words: vec![0; blocks as usize * BLOCK_WORDS],
            blocks,
            m: blocks * BLOCK_COUNTERS,
            k,
            len: 0,
        }
    }

    /// Sizes the filter for `expected` keys at `counters_per_key` (each
    /// counter costs 4 bits of memory).
    pub fn with_capacity(expected: usize, counters_per_key: f64) -> Self {
        let m = ((expected.max(1) as f64 * counters_per_key).ceil() as usize).max(16);
        let k = ((counters_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        Self::new(m, k)
    }

    #[inline]
    fn block_base(&self, h1: u64) -> usize {
        (h1 % self.blocks) as usize * BLOCK_WORDS
    }

    fn get(&self, idx: usize) -> u8 {
        ((self.words[idx / 16] >> (4 * (idx % 16))) & 0xF) as u8
    }

    fn set(&mut self, idx: usize, v: u8) {
        debug_assert!(v <= 0x0F);
        let w = &mut self.words[idx / 16];
        let shift = 4 * (idx % 16);
        *w = (*w & !(0xFu64 << shift)) | ((v as u64) << shift);
    }

    /// Inserts a key (counters saturate at 15 and then never decrement,
    /// which preserves the no-false-negative guarantee).
    pub fn insert(&mut self, key: u128) {
        let (h1, h2) = index_pair(key);
        let base = self.block_base(h1) * 16;
        for i in 0..self.k {
            let idx = base + probe_offset(h1, h2, i as u64, BLOCK_COUNTERS) as usize;
            let c = self.get(idx);
            if c < 0x0F {
                self.set(idx, c + 1);
            }
        }
        self.len += 1;
    }

    /// Removes a key previously inserted. Removing a key that was never
    /// inserted can introduce false negatives, so callers (the directory)
    /// must pair inserts and removes exactly.
    pub fn remove(&mut self, key: u128) {
        let (h1, h2) = index_pair(key);
        let base = self.block_base(h1) * 16;
        for i in 0..self.k {
            let idx = base + probe_offset(h1, h2, i as u64, BLOCK_COUNTERS) as usize;
            let c = self.get(idx);
            if c > 0 && c < 0x0F {
                self.set(idx, c - 1);
            }
        }
        self.len = self.len.saturating_sub(1);
    }

    /// Membership test; false positives possible.
    ///
    /// The fused probe: collapses each nibble of the key's block to its
    /// "non-zero" bit (`n | n>>1 | n>>2 | n>>3` masked to the lane LSB),
    /// accumulates the k required lanes into per-word masks, and checks
    /// each touched word with one compare — one cache line per probe.
    #[inline]
    pub fn contains(&self, key: u128) -> bool {
        let (h1, h2) = index_pair(key);
        let base = self.block_base(h1);
        let mut need = [0u64; BLOCK_WORDS];
        for i in 0..self.k {
            let off = probe_offset(h1, h2, i as u64, BLOCK_COUNTERS);
            need[(off / 16) as usize] |= 1 << (4 * (off % 16));
        }
        let block = &self.words[base..base + BLOCK_WORDS];
        (0..BLOCK_WORDS).all(|w| {
            let x = block[w];
            let nonzero = (x | (x >> 1) | (x >> 2) | (x >> 3)) & NIBBLE_LSB;
            nonzero & need[w] == need[w]
        })
    }

    /// Number of 4-bit counters (rounded up to whole blocks).
    pub fn counters(&self) -> u64 {
        self.m
    }

    /// Net inserted-minus-removed count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no keys are currently counted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory footprint of the counter array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Resets every counter to zero — used when the structure the filter
    /// summarizes is itself flushed (e.g. the whole client cluster died).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, salt: u128) -> Vec<u128> {
        (0..n as u128).map(|i| crate::sha1::Sha1::digest_id128(&(i ^ salt).to_be_bytes())).collect()
    }

    /// The pre-blocking flat probe scheme, kept as a membership oracle:
    /// k bit positions scattered over the whole table by double hashing.
    struct ClassicBloom {
        bits: Vec<u64>,
        m: u64,
        k: u32,
    }

    impl ClassicBloom {
        fn new(m_bits: usize, k: u32) -> Self {
            ClassicBloom { bits: vec![0; m_bits.div_ceil(64)], m: m_bits as u64, k }
        }

        fn nth(&self, h1: u64, h2: u64, i: u64) -> usize {
            (h1.wrapping_add(i.wrapping_mul(h2)) % self.m) as usize
        }

        fn insert(&mut self, key: u128) {
            let (h1, h2) = index_pair(key);
            for i in 0..self.k {
                let idx = self.nth(h1, h2, i as u64);
                self.bits[idx / 64] |= 1 << (idx % 64);
            }
        }

        fn contains(&self, key: u128) -> bool {
            let (h1, h2) = index_pair(key);
            (0..self.k).all(|i| {
                let idx = self.nth(h1, h2, i as u64);
                self.bits[idx / 64] & (1 << (idx % 64)) != 0
            })
        }
    }

    #[test]
    fn bloom_no_false_negatives() {
        let ks = keys(1000, 0);
        let mut f = BloomFilter::with_capacity(1000, 10.0);
        for &k in &ks {
            f.insert(k);
        }
        for &k in &ks {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn bloom_fpr_close_to_theory() {
        let present = keys(5000, 1);
        let absent = keys(20000, 0xDEAD_BEEF);
        let mut f = BloomFilter::with_capacity(5000, 10.0);
        for &k in &present {
            f.insert(k);
        }
        let fp = absent.iter().filter(|&&k| f.contains(k)).count();
        let measured = fp as f64 / absent.len() as f64;
        let theory = f.theoretical_fpr(5000);
        // ~1% at 10 bits/key; slack covers sampling noise plus the
        // blocked layout's occupancy-variance penalty.
        assert!(measured < theory * 3.0 + 0.005, "measured {measured}, theory {theory}");
    }

    #[test]
    fn bloom_more_bits_fewer_false_positives() {
        let present = keys(2000, 2);
        let absent = keys(20000, 0xFEED);
        let mut fprs = Vec::new();
        for bits_per_key in [4.0, 8.0, 16.0] {
            let mut f = BloomFilter::with_capacity(2000, bits_per_key);
            for &k in &present {
                f.insert(k);
            }
            let fp = absent.iter().filter(|&&k| f.contains(k)).count();
            fprs.push(fp as f64 / absent.len() as f64);
        }
        assert!(fprs[0] > fprs[1], "4bpk {} vs 8bpk {}", fprs[0], fprs[1]);
        assert!(fprs[1] >= fprs[2], "8bpk {} vs 16bpk {}", fprs[1], fprs[2]);
    }

    #[test]
    fn bloom_clear() {
        let mut f = BloomFilter::new(1024, 4);
        f.insert(42);
        assert!(f.contains(42));
        f.clear();
        assert!(!f.contains(42));
        assert_eq!(f.inserted(), 0);
    }

    #[test]
    fn counting_insert_remove_roundtrip() {
        let ks = keys(500, 3);
        let mut f = CountingBloomFilter::with_capacity(500, 16.0);
        for &k in &ks {
            f.insert(k);
        }
        assert_eq!(f.len(), 500);
        for &k in &ks {
            assert!(f.contains(k));
        }
        for &k in &ks[..250] {
            f.remove(k);
        }
        assert_eq!(f.len(), 250);
        // Remaining keys must still be found (no false negatives from
        // removing other keys).
        for &k in &ks[250..] {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn counting_removed_keys_mostly_gone() {
        let ks = keys(500, 4);
        let mut f = CountingBloomFilter::with_capacity(500, 16.0);
        for &k in &ks {
            f.insert(k);
        }
        for &k in &ks {
            f.remove(k);
        }
        assert!(f.is_empty());
        let still = ks.iter().filter(|&&k| f.contains(k)).count();
        // After removing everything only saturated counters could linger;
        // with 16 counters/key there should be none.
        assert_eq!(still, 0);
    }

    #[test]
    fn counting_duplicate_inserts_need_matching_removes() {
        let mut f = CountingBloomFilter::new(1024, 4);
        f.insert(7);
        f.insert(7);
        f.remove(7);
        assert!(f.contains(7), "one copy should remain");
        f.remove(7);
        assert!(!f.contains(7));
    }

    #[test]
    fn counting_nibble_packing() {
        let mut f = CountingBloomFilter::new(10, 1);
        // Exercise nibble lanes across word boundaries directly.
        for idx in 0..40 {
            f.set(idx, (idx % 16) as u8);
        }
        for idx in 0..40 {
            assert_eq!(f.get(idx), (idx % 16) as u8);
        }
    }

    #[test]
    fn blocked_probe_touches_one_cache_line() {
        // Whatever k is, all of a key's probes must land inside one
        // 64-byte block — that is the point of the blocked layout.
        for k in [1u32, 4, 8, 23] {
            let (h1, h2) = index_pair(0xABCD_EF01_2345 + k as u128);
            let offsets: Vec<u64> =
                (0..k).map(|i| probe_offset(h1, h2, i as u64, BLOCK_BITS)).collect();
            assert!(offsets.iter().all(|&o| o < BLOCK_BITS));
            if k >= 4 {
                // Double hashing with an odd stride must not collapse all
                // probes onto one bit.
                let distinct: std::collections::HashSet<u64> = offsets.iter().copied().collect();
                assert!(distinct.len() > 1, "k={k} probes all collided");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bloom_contains_everything_inserted(keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..200)) {
            let mut f = BloomFilter::with_capacity(keys.len(), 8.0);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                proptest::prop_assert!(f.contains(k));
            }
        }

        #[test]
        fn blocked_matches_classic_membership(
            keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..150),
            probes in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..150),
        ) {
            // Same capacity, same k: the blocked filter and the flat
            // classic oracle must agree on every inserted key (both are
            // false-negative-free), and the blocked filter's extra false
            // positives on arbitrary probes must stay within the
            // theoretical bound's slack.
            let blocked = {
                let mut f = BloomFilter::with_capacity(keys.len(), 12.0);
                for &k in &keys { f.insert(k); }
                f
            };
            let classic = {
                let mut f = ClassicBloom::new(blocked.bits() as usize, 8);
                for &k in &keys { f.insert(k); }
                f
            };
            for &k in &keys {
                proptest::prop_assert!(blocked.contains(k));
                proptest::prop_assert!(classic.contains(k));
            }
            let inserted: std::collections::HashSet<u128> = keys.iter().copied().collect();
            let fresh: Vec<u128> = probes.iter().copied().filter(|p| !inserted.contains(p)).collect();
            let fp = fresh.iter().filter(|&&p| blocked.contains(p)).count();
            // At 12 bits/key theory is ~0.03%; even tiny samples should
            // essentially never see 3+ false positives.
            proptest::prop_assert!(
                fp as f64 <= (blocked.theoretical_fpr(keys.len() as u64) * 10.0 * fresh.len() as f64) + 2.0,
                "blocked FPs {} of {}", fp, fresh.len()
            );
        }

        #[test]
        fn counting_fused_probe_no_false_negatives_under_churn(
            keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 2..100)
        ) {
            // Insert everything, remove half: every remaining key must
            // still pass the fused word test.
            let mut f = CountingBloomFilter::with_capacity(keys.len(), 12.0);
            for &k in &keys { f.insert(k); }
            let half = keys.len() / 2;
            for &k in &keys[..half] { f.remove(k); }
            for &k in &keys[half..] {
                proptest::prop_assert!(f.contains(k));
            }
        }

        #[test]
        fn counting_matched_pairs_restore_emptiness(
            keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..100)
        ) {
            let mut f = CountingBloomFilter::with_capacity(keys.len(), 12.0);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                f.remove(k);
            }
            proptest::prop_assert!(f.is_empty());
        }
    }
}
