//! Statistics used to validate workload shape and record results.
//!
//! The workload generator's tests verify that generated traces actually have
//! the statistical properties the paper assumes (Zipf popularity slope,
//! one-timer fraction, temporal locality); those checks are built on
//! [`linear_fit`]. The lock-free [`Log2Histogram`] backs the simulator's
//! stats recorder.

use std::sync::atomic::{AtomicU64, Ordering};

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
