//! Online statistics used to validate workload shape and report results.
//!
//! The workload generator's tests verify that generated traces actually have
//! the statistical properties the paper assumes (Zipf popularity slope,
//! one-timer fraction, temporal locality); those checks are built on the
//! helpers here. The benchmark harnesses also use [`OnlineStats`] to report
//! mean latencies without storing per-request samples.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Welford online mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Ordinary least-squares fit `y = slope * x + intercept`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Least-squares regression over `(x, y)` pairs.
///
/// Used by workload tests: on a log-log plot, rank-frequency of a Zipf(α)
/// workload is a line with slope ≈ −α, so fitting the log-log scatter
/// recovers the generator's skew parameter.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (slope * p.0 + intercept)).powi(2)).sum();
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    Some(LinearFit { slope, intercept, r2 })
}

/// Fixed-bucket histogram over `[0, bound)` with an overflow bucket.
#[derive(Clone, Debug)]
pub struct Histogram {
    bound: f64,
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// `buckets` equal-width buckets covering `[0, bound)`.
    pub fn new(bound: f64, buckets: usize) -> Self {
        assert!(bound > 0.0 && buckets > 0);
        Histogram { bound, buckets: vec![0; buckets], overflow: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < 0.0 {
            return;
        }
        let idx = (x / self.bound * self.buckets.len() as f64) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Count landing above `bound`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile (`q` in 0..=1) by bucket interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0u64;
        let width = self.bound / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (i as f64 + 0.5) * width;
            }
        }
        self.bound
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Number of independent shards in a [`ShardedCounter`].
///
/// Must be a power of two (shard selection masks the thread index). 16
/// shards comfortably cover the worker counts the vendored rayon stand-in
/// spawns (one per core) while keeping the counter at 1 KiB.
const COUNTER_SHARDS: usize = 16;

/// Returns a small per-thread index used to pick a counter shard.
///
/// Each thread that ever touches a sharded counter gets the next index from
/// a global sequence; masking by `COUNTER_SHARDS - 1` maps it to a shard.
/// Two threads may share a shard — that only costs contention, never
/// correctness, because shards are atomics.
fn thread_shard() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) & (COUNTER_SHARDS - 1)
}

/// One cache-line-sized atomic cell, padded so neighbouring shards never
/// share a line (false sharing is the whole point of sharding).
#[derive(Default)]
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// A monotonically increasing `u64` counter safe for concurrent writers.
///
/// Writers land on a per-thread shard (relaxed `fetch_add`, no cross-core
/// line bouncing under the parallel `sweep()`); readers sum the shards.
/// Reads are monotone but not a consistent snapshot while writers are
/// active — callers read after the parallel region completes.
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the calling thread's shard.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum of all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Folds another counter's shards into this one (parallel reduction).
    pub fn merge(&self, other: &ShardedCounter) {
        for (mine, theirs) in self.shards.iter().zip(&other.shards) {
            mine.0.fetch_add(theirs.0.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCounter").field(&self.get()).finish()
    }
}

/// Number of buckets in a [`Log2Histogram`]: one for zero plus one per
/// possible bit-length of a `u64` value.
pub const LOG2_BUCKETS: usize = 65;

/// A lock-free power-of-two histogram over `u64` samples.
///
/// Bucket `0` holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. All cells are relaxed atomics, so many threads can
/// record concurrently (the parallel `sweep()` shares one recorder across
/// workers). Alongside the buckets it tracks exact `count`, `sum`, and
/// `max`, so means are not quantised by the bucketing.
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into: 0 for 0, else
    /// `64 - leading_zeros` (the value's bit length).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi]` covered by bucket `idx`
    /// (inclusive bounds; bucket 0 is `[0, 0]`).
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        assert!(idx < LOG2_BUCKETS, "bucket index {idx} out of range");
        if idx == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (idx - 1);
            let hi = if idx == 64 { u64::MAX } else { (1u64 << idx) - 1 };
            (lo, hi)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Folds another histogram into this one (parallel reduction).
    pub fn merge(&self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> Log2Snapshot {
        Log2Snapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// Plain-data snapshot of a [`Log2Histogram`] (no atomics, `Clone`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Snapshot {
    /// Per-bucket counts; index `i` covers [`Log2Histogram::bucket_bounds`]`(i)`.
    pub buckets: [u64; LOG2_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample seen (0 if empty).
    pub max: u64,
}

impl Default for Log2Snapshot {
    /// The snapshot of a histogram nothing was recorded into.
    fn default() -> Self {
        Log2Snapshot { buckets: [0; LOG2_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Log2Snapshot {
    /// Exact mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` rows, lowest first.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Log2Histogram::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Approximate quantile (`q` in 0..=1): the inclusive upper bound of
    /// the bucket containing the q-th sample, clamped to the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Log2Histogram::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..317] {
            a.push(x);
        }
        for &x in &data[317..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept + 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn linear_fit_recovers_zipf_slope() {
        // log-log rank-frequency of an ideal Zipf(0.8).
        let pts: Vec<(f64, f64)> =
            (1..=100).map(|i| ((i as f64).ln(), (i as f64).powf(-0.8).ln())).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope + 0.8).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        let med = h.quantile(0.5);
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 90.0).abs() < 2.0, "p90 {p90}");
    }

    #[test]
    fn histogram_overflow_and_negative() {
        let mut h = Histogram::new(10.0, 10);
        h.record(100.0);
        h.record(-5.0); // ignored
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn log2_bucket_of_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(7), 3);
        assert_eq!(Log2Histogram::bucket_of(8), 4);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn log2_bucket_bounds_partition_u64() {
        // Every bucket's bounds must tile the u64 range with no gaps.
        assert_eq!(Log2Histogram::bucket_bounds(0), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lo");
            assert!(hi >= lo);
            // Bounds round-trip through bucket_of.
            assert_eq!(Log2Histogram::bucket_of(lo), i);
            assert_eq!(Log2Histogram::bucket_of(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, LOG2_BUCKETS - 1);
                break;
            }
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn log2_histogram_records_and_snapshots() {
        let h = Log2Histogram::new();
        for v in [0u64, 1, 1, 3, 5, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1019);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1019.0 / 7.0).abs() < 1e-12);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 2); // 1, 1
        assert_eq!(snap.buckets[2], 1); // 3
        assert_eq!(snap.buckets[3], 1); // 5
        assert_eq!(snap.buckets[4], 1); // 9
        assert_eq!(snap.buckets[10], 1); // 1000
        assert_eq!(snap.nonzero_buckets().len(), 6);
        // quantiles: median lands in the [2,3] bucket, p100 is the max.
        assert_eq!(snap.quantile(1.0), 1000);
        assert!(snap.quantile(0.5) <= 3);
    }

    #[test]
    fn log2_histogram_merge_matches_sequential() {
        let a = Log2Histogram::new();
        let b = Log2Histogram::new();
        let whole = Log2Histogram::new();
        for i in 0..500u64 {
            let v = (i * 7919) % 4096;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), whole.snapshot());
    }

    #[test]
    fn sharded_counter_concurrent_adds() {
        let c = ShardedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn sharded_counter_merge() {
        let a = ShardedCounter::new();
        let b = ShardedCounter::new();
        a.add(5);
        b.add(7);
        // Merge from a second thread so the two counters have hot shards
        // at different indices; the merged total must still be exact.
        std::thread::scope(|s| {
            s.spawn(|| b.add(8));
        });
        a.merge(&b);
        assert_eq!(a.get(), 20);
        assert_eq!(b.get(), 15, "merge must not mutate the source");
    }

    #[test]
    fn concurrent_log2_histogram() {
        let h = Log2Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.max(), 3_999);
    }
}
