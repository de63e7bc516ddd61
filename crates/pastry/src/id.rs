//! 128-bit Pastry identifiers.
//!
//! Node and object identifiers live in a circular 128-bit space and are
//! read as a sequence of base-`2^b` digits, most significant first. The
//! paper derives them with SHA-1 (§4.1): `cacheId` from the client's
//! identity, `objectId` from the object URL.

use std::fmt;
use webcache_primitives::Sha1;

/// A 128-bit identifier in Pastry's circular id space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u128);

impl NodeId {
    /// Number of bits in the id space.
    pub const BITS: u32 = 128;

    /// Hashes arbitrary bytes into the id space with SHA-1, exactly as
    /// §4.1 prescribes for URLs and client identities.
    pub fn from_bytes(data: &[u8]) -> Self {
        NodeId(Sha1::digest_id128(data))
    }

    /// The id for an object URL.
    pub fn from_url(url: &str) -> Self {
        Self::from_bytes(url.as_bytes())
    }

    /// The `i`-th base-`2^b` digit, `i = 0` most significant.
    ///
    /// # Panics
    /// Debug-panics if `b` does not divide 128 or `i` is out of range.
    #[inline]
    pub fn digit(&self, i: usize, b: u32) -> u8 {
        debug_assert!(b > 0 && 128 % b == 0);
        debug_assert!(i < (128 / b) as usize);
        let shift = 128 - b * (i as u32 + 1);
        ((self.0 >> shift) & ((1u128 << b) - 1)) as u8
    }

    /// Number of base-`2^b` digits shared as a prefix with `other`
    /// (equals `128/b` when the ids are identical).
    #[inline]
    pub fn shared_prefix_digits(&self, other: NodeId, b: u32) -> usize {
        let x = self.0 ^ other.0;
        if x == 0 {
            return (128 / b) as usize;
        }
        (x.leading_zeros() / b) as usize
    }

    /// Circular distance: the length of the shorter arc between the ids.
    #[inline]
    pub fn distance(&self, other: NodeId) -> u128 {
        let d = self.0.wrapping_sub(other.0);
        d.min(other.0.wrapping_sub(self.0))
    }

    /// Pastry's placement rule (§4.1): the candidate numerically closest
    /// to `self`, ties to the smaller id — the minimum of `(distance,
    /// id)`. That order is total, so the answer does not depend on the
    /// order of `candidates`. `None` when there are none.
    #[inline]
    pub fn nearest(self, candidates: impl IntoIterator<Item = NodeId>) -> Option<NodeId> {
        candidates.into_iter().min_by_key(|n| (n.distance(self), n.0))
    }

    /// Clockwise (increasing-id, wrapping) distance from `self` to `other`.
    #[inline]
    pub fn clockwise_distance(&self, other: NodeId) -> u128 {
        other.0.wrapping_sub(self.0)
    }

    /// True if walking clockwise from `from` to `to` passes through `self`
    /// (inclusive of both endpoints).
    pub fn in_arc(&self, from: NodeId, to: NodeId) -> bool {
        from.clockwise_distance(*self) <= from.clockwise_distance(to)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:032x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl From<u128> for NodeId {
    fn from(v: u128) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_roundtrip() {
        let id = NodeId(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        // b = 4: digits are the hex digits MSB-first.
        let hex = "0123456789abcdef0123456789abcdef";
        for (i, c) in hex.chars().enumerate() {
            assert_eq!(id.digit(i, 4), c.to_digit(16).unwrap() as u8, "digit {i}");
        }
        // b = 8: bytes.
        assert_eq!(id.digit(0, 8), 0x01);
        assert_eq!(id.digit(15, 8), 0xEF);
        // b = 1: bits.
        assert_eq!(id.digit(0, 1), 0);
        assert_eq!(id.digit(7, 1), 1);
    }

    #[test]
    fn shared_prefix() {
        let a = NodeId(0xABCD_0000_0000_0000_0000_0000_0000_0000);
        let b = NodeId(0xABCE_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_digits(b, 4), 3);
        assert_eq!(a.shared_prefix_digits(a, 4), 32);
        assert_eq!(a.shared_prefix_digits(b, 1), 12 + 2); // ABCD^ABCE = 3 -> bits equal until bit 14
        let c = NodeId(0x1000_0000_0000_0000_0000_0000_0000_0000);
        assert_eq!(a.shared_prefix_digits(c, 4), 0);
    }

    #[test]
    fn circular_distance_symmetry_and_wrap() {
        let a = NodeId(5);
        let b = NodeId(u128::MAX - 4); // 10 apart across the wrap
        assert_eq!(a.distance(b), 10);
        assert_eq!(b.distance(a), 10);
        assert_eq!(a.distance(a), 0);
        let far = NodeId(a.0.wrapping_add(1u128 << 127));
        assert_eq!(a.distance(far), 1u128 << 127);
    }

    #[test]
    fn arcs() {
        let a = NodeId(10);
        let b = NodeId(20);
        assert!(NodeId(15).in_arc(a, b));
        assert!(NodeId(10).in_arc(a, b));
        assert!(NodeId(20).in_arc(a, b));
        assert!(!NodeId(25).in_arc(a, b));
        assert!(!NodeId(5).in_arc(a, b));
        // Arc across the wrap point.
        let hi = NodeId(u128::MAX - 5);
        let lo = NodeId(5);
        assert!(NodeId(0).in_arc(hi, lo));
        assert!(NodeId(u128::MAX).in_arc(hi, lo));
        assert!(!NodeId(100).in_arc(hi, lo));
    }

    #[test]
    fn sha1_ids_are_stable_and_distinct() {
        let a = NodeId::from_url("http://origin.example/obj/1");
        let b = NodeId::from_url("http://origin.example/obj/2");
        assert_eq!(a, NodeId::from_url("http://origin.example/obj/1"));
        assert_ne!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn distance_is_metric_like(a in proptest::prelude::any::<u128>(), b in proptest::prelude::any::<u128>()) {
            let (a, b) = (NodeId(a), NodeId(b));
            proptest::prop_assert_eq!(a.distance(b), b.distance(a));
            proptest::prop_assert!(a.distance(b) <= 1u128 << 127);
            proptest::prop_assert_eq!(a.distance(a), 0);
        }

        #[test]
        fn prefix_len_consistent_with_digits(a in proptest::prelude::any::<u128>(), b in proptest::prelude::any::<u128>()) {
            let (x, y) = (NodeId(a), NodeId(b));
            let p = x.shared_prefix_digits(y, 4);
            for i in 0..p {
                proptest::prop_assert_eq!(x.digit(i, 4), y.digit(i, 4));
            }
            if p < 32 {
                proptest::prop_assert_ne!(x.digit(p, 4), y.digit(p, 4));
            }
        }
    }
}
