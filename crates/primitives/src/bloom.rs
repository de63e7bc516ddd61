//! The counting Bloom filter behind the proxy's P2P-cache lookup directory.
//!
//! §4.2 of the paper offers two directory representations: an exact hash
//! table of objectIds and a Bloom filter, the latter trading memory for a
//! false-positive ratio (a false positive makes the proxy redirect a request
//! into the P2P client cache for an object that is not there, wasting
//! Tp2p before falling back). The directory must also support *deletion* —
//! the proxy removes entries when a client cache reports an eviction
//! (Fig. 1, step 14) — so the filter counts: the textbook counting Bloom
//! filter of Fan et al.'s Summary Cache (SIGCOMM '98), one flat array of
//! 4-bit counters, incremented by an insert and decremented only by the
//! removal of a key that was inserted.
//!
//! Keys are 128-bit objectIds (SHA-1 prefixes, uniformly distributed), so
//! the k index functions are derived with double hashing, `h1 + i·h2` over
//! the whole array, from two halves of the key mixed through SplitMix64.
//! The false-positive rate is then the classic `(1 − e^{−kn/m})^k`.

use crate::seed::splitmix64;

fn index_pair(key: u128) -> (u64, u64) {
    let mut lo = key as u64;
    let mut hi = (key >> 64) as u64;
    let h1 = splitmix64(&mut lo);
    let h2 = splitmix64(&mut hi) | 1; // odd, so no stride is zero
    (h1, h2)
}

/// The key's k counter indices: `h1 + i·h2` over all `m` counters.
fn probes(key: u128, m: u64, k: u32) -> impl Iterator<Item = usize> {
    let (h1, h2) = index_pair(key);
    (0..u64::from(k)).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
}

/// Counting Bloom filter (4-bit saturating counters) supporting deletion.
///
/// This is the variant the Hier-GD lookup directory uses: client caches
/// report evictions back to the proxy (Fig. 1 step 14), which must remove
/// the corresponding entry.
#[derive(Clone, Debug)]
pub struct CountingBloomFilter {
    /// 4-bit counters, 16 to a word.
    words: Vec<u64>,
    m: u64,
    k: u32,
    len: u64,
}

impl CountingBloomFilter {
    /// Creates a filter with `m` counters and `k` hash functions.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0);
        CountingBloomFilter { words: vec![0; m.div_ceil(16)], m: m as u64, k, len: 0 }
    }

    /// Sizes the filter for `expected` keys at `counters_per_key` (each
    /// counter costs 4 bits of memory).
    pub fn with_capacity(expected: usize, counters_per_key: f64) -> Self {
        let m = ((expected.max(1) as f64 * counters_per_key).ceil() as usize).max(16);
        let k = ((counters_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        Self::new(m, k)
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
        for idx in probes(key, self.m, self.k) {
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
        for idx in probes(key, self.m, self.k) {
            let c = self.get(idx);
            if c > 0 && c < 0x0F {
                self.set(idx, c - 1);
            }
        }
        self.len = self.len.saturating_sub(1);
    }

    /// Membership test; false positives possible, false negatives not.
    #[inline]
    pub fn contains(&self, key: u128) -> bool {
        probes(key, self.m, self.k).all(|idx| self.get(idx) != 0)
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

    #[test]
    fn false_positive_rate_matches_the_flat_filter_formula() {
        let absent = keys(200_000, 0xDEAD_BEEF << 64);
        for n in [500, 100_000] {
            let present = keys(n, 1);
            for counters_per_key in [8.0, 16.0] {
                let mut f = CountingBloomFilter::with_capacity(n, counters_per_key);
                for &k in &present {
                    f.insert(k);
                }
                let fp = absent.iter().filter(|&&k| f.contains(k)).count();
                let measured = fp as f64 / absent.len() as f64;
                let (k, m) = (f64::from(f.k), f.m as f64);
                let theory = (1.0 - (-k * n as f64 / m).exp()).powf(k);
                assert!(
                    measured <= 1.5 * theory,
                    "n = {n}, {counters_per_key} counters/key: measured {measured}, theory {theory}"
                );
            }
        }
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
        let mut f = CountingBloomFilter::new(40, 1);
        // Exercise nibble lanes across word boundaries directly.
        for idx in 0..40 {
            f.set(idx, (idx % 16) as u8);
        }
        for idx in 0..40 {
            assert_eq!(f.get(idx), (idx % 16) as u8);
        }
    }

    proptest::proptest! {
        #[test]
        fn counting_contains_everything_inserted(keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 1..200)) {
            let mut f = CountingBloomFilter::with_capacity(keys.len(), 8.0);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                proptest::prop_assert!(f.contains(k));
            }
        }

        #[test]
        fn counting_no_false_negatives_under_churn(
            keys in proptest::collection::vec(proptest::prelude::any::<u128>(), 2..100)
        ) {
            // Insert everything, remove half: every remaining key must
            // still be found.
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
