//! File-size models from ProWGen.
//!
//! ProWGen models Web object sizes with a **lognormal body** and a **Pareto
//! (heavy) tail**. The paper's experiments assume unit sizes (§5.1), but the
//! generator keeps the full model so that (a) size-aware policies stay
//! exercised by tests, and (b) the optional size–popularity correlation knob
//! of ProWGen has something to correlate with.

use rand::Rng;

/// Size model configuration.
#[derive(Clone, Copy, Debug)]
pub enum SizeModel {
    /// Every object has the same size — the paper's assumption 1.
    Unit,
    /// ProWGen's hybrid: lognormal body with a Pareto tail.
    LognormalPareto {
        /// Mean of ln(size) for the body (ProWGen default ≈ 7.0 → ~1.1 KB median).
        mu: f64,
        /// Std-dev of ln(size) for the body (ProWGen default ≈ 1.4).
        sigma: f64,
        /// Fraction of objects drawn from the Pareto tail (default ≈ 0.07).
        tail_fraction: f64,
        /// Pareto shape (default ≈ 1.2; < 2 gives the heavy tail).
        tail_shape: f64,
        /// Pareto scale = minimum tail size in bytes (default ≈ 10 KB).
        tail_scale: f64,
    },
}

impl SizeModel {
    /// ProWGen's published defaults.
    pub fn prowgen_default() -> Self {
        SizeModel::LognormalPareto {
            mu: 7.0,
            sigma: 1.4,
            tail_fraction: 0.07,
            tail_shape: 1.2,
            tail_scale: 10_240.0,
        }
    }
}

/// A sampler for the configured size model.
#[derive(Clone, Debug)]
pub struct SizeDistribution {
    model: SizeModel,
}

impl SizeDistribution {
    /// Creates a sampler.
    ///
    /// # Panics
    /// Panics on non-sensical parameters (negative sigma, tail fraction
    /// outside `[0,1]`, non-positive shape/scale).
    pub fn new(model: SizeModel) -> Self {
        if let SizeModel::LognormalPareto { sigma, tail_fraction, tail_shape, tail_scale, .. } =
            model
        {
            assert!(sigma > 0.0, "sigma must be positive");
            assert!((0.0..=1.0).contains(&tail_fraction), "tail_fraction in [0,1]");
            assert!(tail_shape > 0.0 && tail_scale > 0.0, "tail shape/scale must be positive");
        }
        SizeDistribution { model }
    }

    /// Draws one object size in bytes (at least 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self.model {
            SizeModel::Unit => 1,
            SizeModel::LognormalPareto { mu, sigma, tail_fraction, tail_shape, tail_scale } => {
                let size = if rng.random::<f64>() < tail_fraction {
                    // Pareto via inverse CDF: scale / U^(1/shape).
                    let u: f64 = rng.random::<f64>().max(1e-12);
                    tail_scale / u.powf(1.0 / tail_shape)
                } else {
                    // Lognormal via Box–Muller.
                    let u1: f64 = rng.random::<f64>().max(1e-12);
                    let u2: f64 = rng.random();
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    (mu + sigma * z).exp()
                };
                size.clamp(1.0, u32::MAX as f64) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn unit_sizes_are_one() {
        let d = SizeDistribution::new(SizeModel::Unit);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn lognormal_body_median_near_exp_mu() {
        let d = SizeDistribution::new(SizeModel::LognormalPareto {
            mu: 7.0,
            sigma: 1.4,
            tail_fraction: 0.0, // body only
            tail_shape: 1.2,
            tail_scale: 10_240.0,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut samples: Vec<u32> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        let expect = 7.0f64.exp();
        assert!((median / expect - 1.0).abs() < 0.1, "median {median} vs exp(mu) {expect}");
    }

    #[test]
    fn pareto_tail_produces_heavy_tail() {
        let with_tail = SizeDistribution::new(SizeModel::prowgen_default());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let samples: Vec<u32> = (0..50_000).map(|_| with_tail.sample(&mut rng)).collect();
        let huge = samples.iter().filter(|&&s| s > 1_000_000).count();
        // Pareto(1.2, 10KB): P(size > 1MB) ≈ (10240/1048576)^1.2 ≈ 0.39%,
        // times tail fraction 7% ≈ 0.027% — must be non-zero at 50k draws
        // with high probability, and vastly more likely than lognormal alone.
        assert!(huge > 0, "expected at least one multi-MB object");
        let max = *samples.iter().max().unwrap();
        assert!(max > 100_000, "heavy tail missing, max {max}");
    }

    #[test]
    fn sizes_at_least_one() {
        let d = SizeDistribution::new(SizeModel::prowgen_default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!((0..10_000).all(|_| d.sample(&mut rng) >= 1));
    }

    #[test]
    #[should_panic(expected = "tail_fraction")]
    fn rejects_bad_tail_fraction() {
        let _ = SizeDistribution::new(SizeModel::LognormalPareto {
            mu: 7.0,
            sigma: 1.4,
            tail_fraction: 1.5,
            tail_shape: 1.2,
            tail_scale: 10.0,
        });
    }
}
