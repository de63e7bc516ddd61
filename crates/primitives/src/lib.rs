//! Dependency-light building blocks shared by every crate in the
//! `webcache` workspace.
//!
//! The paper ("Exploiting Client Caches", Zhu & Hu, ICPP'03) depends on a
//! handful of classic primitives that we implement from scratch rather than
//! pull in as dependencies, because their exact behaviour is part of the
//! system being reproduced:
//!
//! * [`sha1`] — §4.1 of the paper hashes object URLs with SHA-1 to produce
//!   the 128-bit `objectId` used for Pastry routing.
//! * [`bloom`] — §4.2 proposes a Bloom filter as one of the two lookup
//!   directory representations a proxy keeps for its P2P client cache.
//! * [`sumtree`] — the ProWGen workload model draws each pool reference
//!   in proportion to the objects' remaining reference counts.
//! * [`stats`] — the least-squares fit the workload tests use to validate
//!   trace shape (Zipf slope, locality, …), and the lock-free log₂
//!   histogram behind the simulator's stats recorder.
//! * [`seed`] — deterministic seed derivation (and the shared seeded
//!   [`Bernoulli`] fault coin) so every experiment is reproducible
//!   bit-for-bit.
//! * [`fxhash`] — the rustc/Firefox multiply-xor hash; hot simulator maps
//!   keyed by trusted integer ids use it instead of SipHash.
//! * [`xxhash`] — XXH64 payload checksums for the unreliable-transport
//!   layer's corruption detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// How many P2P round trips a lazy timeout detection is priced at.
///
/// This is the single source of truth for the `t_timeout = 4 · Tp2p` rule
/// used everywhere a lost or unanswered P2P message is charged: the network
/// model's `t_timeout` term, the unreliable transport's retransmission
/// ladder, and the churn drill's stall accounting all derive from this
/// constant. The rationale: a timeout must dwarf a normal P2P round trip
/// (otherwise lazy detection would be free) while staying comparable to a
/// server fetch; 4 × Tp2p = 5.6 Tl sits between Tc and Ts at the paper's
/// default latency ratios.
pub const TIMEOUT_RTT_MULTIPLE: f64 = 4.0;

pub mod bloom;
pub mod fxhash;
pub mod seed;
pub mod sha1;
pub mod stats;
pub mod sumtree;
pub mod xxhash;

pub use bloom::CountingBloomFilter;
pub use fxhash::{
    map_heap_bytes, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, ShaIdBuildHasher, ShaIdMap,
    ShaIdSet,
};
pub use seed::Bernoulli;
pub use sha1::Sha1;
pub use stats::{LinearFit, Log2Histogram, Log2Snapshot};
pub use sumtree::SumTree;
pub use xxhash::xxh64;
