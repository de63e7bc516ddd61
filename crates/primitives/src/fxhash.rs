//! FxHash: the multiply-xor hash used by the Rust compiler and Firefox.
//!
//! The simulator's hot paths hash small integer keys (`u32` object ids,
//! `u64` cache keys, `u128` Pastry node ids) millions of times per run.
//! SipHash — `std`'s default, chosen for HashDoS resistance — costs more
//! than the rest of a cache operation for such keys. These maps hold
//! simulator state keyed by trusted, internally generated ids, so a fast
//! non-cryptographic hash is the right trade. Implemented in-house: the
//! build environment is offline, so `rustc-hash`/`fxhash` cannot be pulled
//! from crates.io.
//!
//! The algorithm folds each word into the state with a rotate, xor, and
//! multiply by a constant derived from the golden ratio (`π ≈ 2^64/φ`),
//! exactly as rustc's `FxHasher` does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from rustc's FxHasher (2^64 / φ, made odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotation applied before each fold; spreads low-entropy input bits.
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher for trusted integer keys: crafted keys
/// can collide at will, so it offers no DoS resistance.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, `Default`-constructible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]. Drop-in for `std::collections::HashMap`
/// on hot paths keyed by trusted integers.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An identity "hasher" for keys that are *already* uniformly random —
/// SHA-1-derived object and node ids. For such keys mixing adds nothing:
/// every bit of the input is independently uniform, so folding the halves
/// with xor preserves full entropy in both the bucket-index (low) and
/// control-byte (high) bits hashbrown consumes. Saves the two multiply
/// rounds FxHash spends per `u128` probe on paths that do several directory
/// and overlay lookups per simulated request.
///
/// Only sound for uniformly distributed keys; sequential or small-integer
/// keys must keep [`FxHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShaIdHasher {
    hash: u64,
}

impl Hasher for ShaIdHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unimplemented!("ShaIdHasher is for u64/u128 id keys only");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = i;
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.hash = (i as u64) ^ ((i >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Bytes `map`'s table holds on the heap, counted from its capacity:
/// hashbrown allocates a power-of-two number of buckets (capacity + 1
/// below eight, otherwise capacity × 8/7), each holding one `(K, V)` and
/// one control byte, plus one 16-byte group of trailing control bytes.
/// An unallocated map holds nothing.
pub fn map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 7 { cap + 1 } else { cap / 7 * 8 };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

/// `BuildHasher` for [`ShaIdHasher`].
pub type ShaIdBuildHasher = BuildHasherDefault<ShaIdHasher>;

/// A `HashMap` keyed by uniformly random (SHA-1-derived) ids.
pub type ShaIdMap<K, V> = HashMap<K, V, ShaIdBuildHasher>;

/// A `HashSet` of uniformly random (SHA-1-derived) ids.
pub type ShaIdSet<T> = HashSet<T, ShaIdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn map_heap_bytes_follows_the_bucket_count() {
        let mut m: ShaIdMap<u128, u32> = ShaIdMap::default();
        assert_eq!(map_heap_bytes(&m), 0, "an empty map has not allocated");
        m.insert(1, 1);
        assert_eq!((m.capacity(), map_heap_bytes(&m)), (3, 4 * 33 + 16));
        for k in 0..1000 {
            m.insert(k, 0);
        }
        // 1,000 entries fit 2,048 buckets (capacity 1,792) of 32-byte
        // slots: a u128 key aligns the pair to 16 bytes.
        assert_eq!((m.capacity(), map_heap_bytes(&m)), (1792, 2048 * 33 + 16));
    }

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of(0u64), hash_of(1u64));
        assert_eq!(hash_of(7u128), hash_of(7u128));
        assert_ne!(hash_of(7u128), hash_of(7u128 << 64));
    }

    #[test]
    fn map_and_set_behave() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u128> = FxHashSet::default();
        for i in 0..1000u128 {
            s.insert(i << 64 | i);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(5u128 << 64 | 5)));
    }

    #[test]
    fn low_entropy_keys_spread() {
        // Sequential keys must not collapse into few buckets: check that the
        // low 8 bits of the hash take many distinct values over 0..256.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(hash_of(i) & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct low bytes", low_bits.len());
    }

    #[test]
    fn byte_stream_hashing_matches_width() {
        // write() must consume arbitrary byte strings (String keys etc.).
        let mut h = FxHasher::default();
        h.write(b"hello world, this spans two chunks");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this spans two chunkT");
        assert_ne!(a, h2.finish());
    }
}
