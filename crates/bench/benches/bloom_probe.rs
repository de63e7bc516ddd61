//! Bloom probe micro-benchmark: classic flat layout vs the cache-line
//! blocked layout the lookup directory uses, across hit/miss mixes.
//!
//! The flat baseline scatters its k probes over the whole bit array
//! (k dependent cache lines per membership test); the blocked layout
//! confines them to one 64-byte block and fuses the k bit checks into
//! per-word mask compares. Misses are where blocking pays most: a flat
//! filter usually discovers a miss after a few probes (so pays a few
//! lines), while the blocked filter pays one line either way — and a hit
//! always costs k lines flat vs one line blocked.
//!
//! Writes `target/figures/bloom_probe.csv`
//! (`filter,layout,keys,hit_frac,ns_per_probe,positive_frac`) alongside
//! the table it prints on stdout.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use webcache_bench::figures_dir;
use webcache_primitives::{BloomFilter, CountingBloomFilter, Sha1};

/// Filter scales: cache-resident (the flat layout's best case — every
/// probe hits L2) and DRAM-resident (the directory regime blocking is
/// for: each scattered probe is a fresh cache miss).
const SCALES: [usize; 2] = [100_000, 4_000_000];
/// Filter sizing: bits (or counters) per key, as the directory uses.
const PER_KEY: f64 = 10.0;
/// Timed samples per configuration; the median is reported.
const SAMPLES: usize = 15;

/// The pre-blocking flat probe scheme (same double hashing, positions
/// scattered over the whole table) — the "before" of this comparison.
struct FlatBloom {
    bits: Vec<u64>,
    m: u64,
    k: u32,
}

impl FlatBloom {
    fn with_capacity(expected: usize, bits_per_key: f64) -> Self {
        let m = ((expected as f64 * bits_per_key).ceil() as usize).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).max(1);
        FlatBloom { bits: vec![0; m.div_ceil(64)], m: m as u64, k }
    }

    fn index_pair(key: u128) -> (u64, u64) {
        let mut lo = key as u64;
        let mut hi = (key >> 64) as u64;
        let h1 = webcache_primitives::seed::splitmix64(&mut lo);
        let h2 = webcache_primitives::seed::splitmix64(&mut hi) | 1;
        (h1, h2)
    }

    fn insert(&mut self, key: u128) {
        let (h1, h2) = Self::index_pair(key);
        for i in 0..self.k {
            let idx = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m) as usize;
            self.bits[idx / 64] |= 1 << (idx % 64);
        }
    }

    #[inline]
    fn contains(&self, key: u128) -> bool {
        let (h1, h2) = Self::index_pair(key);
        (0..self.k).all(|i| {
            let idx = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m) as usize;
            self.bits[idx / 64] & (1 << (idx % 64)) != 0
        })
    }
}

fn sha_keys(n: usize, salt: u128) -> Vec<u128> {
    (0..n as u128).map(|i| Sha1::digest_id128(&(i ^ salt).to_be_bytes())).collect()
}

/// A probe stream with roughly `hit_frac` of its keys present in the
/// filter, interleaved deterministically so the branch predictor sees a
/// realistic mix rather than sorted runs.
fn probe_stream(present: &[u128], absent: &[u128], hit_frac: f64) -> Vec<u128> {
    let hits = (present.len() as f64 * hit_frac) as usize;
    (0..present.len())
        .map(|i| {
            // Walk both pools with a large odd stride; index parity-of-mix
            // decides hit vs miss at the requested rate.
            let j = i.wrapping_mul(0x9E37_79B9) % present.len();
            if (i.wrapping_mul(2_654_435_761)) % present.len() < hits {
                present[j]
            } else {
                absent[j]
            }
        })
        .collect()
}

/// Median ns/probe over [`SAMPLES`] timed passes of `f` across `stream`,
/// plus the positive fraction (sanity: tracks the requested hit mix, modulo
/// false positives).
fn measure(stream: &[u128], mut f: impl FnMut(u128) -> bool) -> (f64, f64) {
    let mut positives = 0usize;
    for &k in stream {
        if black_box(f(black_box(k))) {
            positives += 1;
        }
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut found = 0usize;
            for &k in stream {
                found += usize::from(f(black_box(k)));
            }
            black_box(found);
            start.elapsed().as_nanos() as f64 / stream.len() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (ns[ns.len() / 2], positives as f64 / stream.len() as f64)
}

fn main() {
    let mut csv = std::fs::File::create(figures_dir().join("bloom_probe.csv")).expect("csv");
    writeln!(csv, "filter,layout,keys,hit_frac,ns_per_probe,positive_frac").expect("csv");

    for keys in SCALES {
        let present = sha_keys(keys, 0xB100);
        let absent = sha_keys(keys, 0xDEAD_BEEF);

        let mut flat = FlatBloom::with_capacity(keys, PER_KEY);
        let mut blocked = BloomFilter::with_capacity(keys, PER_KEY);
        let mut counting = CountingBloomFilter::with_capacity(keys, PER_KEY);
        for &k in &present {
            flat.insert(k);
            blocked.insert(k);
            counting.insert(k);
        }

        println!(
            "\n=== Bloom probe: flat vs blocked ({keys} keys, {PER_KEY} per key, {} KiB) ===",
            blocked.size_bytes() / 1024
        );
        println!(
            "{:>10}{:>10}{:>10}{:>14}{:>12}",
            "filter", "layout", "hit mix", "ns/probe", "positives"
        );
        for hit_frac in [0.0, 0.5, 1.0] {
            let stream = probe_stream(&present, &absent, hit_frac);
            let rows = [
                ("bloom", "flat", measure(&stream, |k| flat.contains(k))),
                ("bloom", "blocked", measure(&stream, |k| blocked.contains(k))),
                ("counting", "blocked", measure(&stream, |k| counting.contains(k))),
            ];
            for (filter, layout, (ns, pos)) in rows {
                println!("{filter:>10}{layout:>10}{hit_frac:>10.1}{ns:>14.2}{pos:>12.4}");
                writeln!(csv, "{filter},{layout},{keys},{hit_frac},{ns:.2},{pos:.4}").expect("csv");
            }
        }
    }
    eprintln!("\nwrote {}", figures_dir().join("bloom_probe.csv").display());
}
