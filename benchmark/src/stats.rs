//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (0 < q < 1) of `samples`, nearest rank.
///
/// Refuses a tail that is not resolved: a percentile is reported only
/// when at least ten samples lie beyond it, so p99 needs 1,000 samples
/// and p90 needs 100. The error names the shortfall.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < 10 {
        return Err(format!("p{} of {n} samples has only {beyond} beyond it (need 10)", q * 100.0));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// a spread computed here matches the one the benchmark's driver computes.
/// `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let len = samples.len();
    if len < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; 0 with fewer than two
/// samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Ok(990.0));
        assert_eq!(percentile(&thousand, 0.5), Ok(500.0));
        // 999 samples leave nine beyond the 99th percentile.
        assert!(percentile(&thousand[..999], 0.99).is_err());
        assert_eq!(percentile(&thousand[..100], 0.9), Ok(90.0));
        assert!(percentile(&thousand[..99], 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some([3.5, 13.5, 31.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 27.5 / 13.5).abs() < 1e-12);
    }
}
