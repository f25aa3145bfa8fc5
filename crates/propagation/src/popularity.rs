//! Zipf-skewed popularity for reader/ranker traffic.
//!
//! Measured social-news traffic is heavily popularity-skewed: a handful
//! of stories receive most of the reads, ratings and reshares while the
//! tail is barely touched (the rich-get-richer dynamic the
//! Barabási–Albert generator in [`crate::network`] models structurally).
//! [`ZipfSampler`] provides the matching *behavioural* skew for load
//! generation: item `k` (0-based rank) is drawn with probability
//! proportional to `1 / (k + 1)^s`.
//!
//! Sampling is a binary search over a precomputed CDF, so a draw is
//! `O(log n)` and fully deterministic for a given RNG stream — the
//! property the gateway's admission-determinism contract relies on.

use rand::{Rng, RngCore};

/// A deterministic Zipf(s) sampler over ranks `0..n`.
///
/// Rank 0 is the most popular item. `s = 0` degenerates to the uniform
/// distribution; `s ≈ 1` matches classic web/popularity traces; larger
/// `s` concentrates traffic further onto the head.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cdf[k]` = P(rank <= k). The final
    /// entry is exactly 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// When `n == 0` or `s` is negative or non-finite — both are
    /// construction bugs, not data-dependent conditions.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        // Guard the binary search against floating-point shortfall.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank in `0..len()` from `rng`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ZipfSampler {
        /// Number of ranks.
        fn len(&self) -> usize {
            self.cdf.len()
        }

        /// Probability mass of `rank` (0 for out-of-range ranks).
        fn mass(&self, rank: usize) -> f64 {
            match rank {
                0 => self.cdf.first().copied().unwrap_or(0.0),
                k if k < self.cdf.len() => self.cdf[k] - self.cdf[k - 1],
                _ => 0.0,
            }
        }
    }

    #[test]
    fn masses_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(100, 1.1);
        let total: f64 = (0..z.len()).map(|k| z.mass(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        for k in 1..z.len() {
            assert!(
                z.mass(k) <= z.mass(k - 1) + 1e-12,
                "mass must be non-increasing in rank (rank {k})"
            );
        }
    }

    #[test]
    fn skew_concentrates_on_the_head() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        let draws = 20_000;
        for _ in 0..draws {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top 1% of ranks draw ~39% of traffic under Zipf(1) with n=1000.
        let share = head as f64 / draws as f64;
        assert!(share > 0.3, "head share {share} too flat for Zipf(1)");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        for k in 0..4 {
            assert!((z.mass(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = ZipfSampler::new(64, 1.2);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..256).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
