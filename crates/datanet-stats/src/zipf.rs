//! Zipf-distributed sampling over ranks `1..=n`.
//!
//! Sub-dataset popularity (movies, GitHub event types) is heavy-tailed; the
//! workload generators draw the *identity* of each record's sub-dataset from
//! a Zipf law so that a few sub-datasets dominate — the "content clustering"
//! precondition of the paper.
//!
//! Implementation: exact inverse-CDF sampling over a precomputed cumulative
//! table. O(n) setup, O(log n) per sample; n here is the number of distinct
//! sub-datasets (≤ millions), which is fine for a generator that runs once
//! per experiment.

use rand::Rng;

/// Zipf distribution over `{1, …, n}` with exponent `s`:
/// `P(rank = r) ∝ r^{-s}`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, `cdf[r-1] = P(rank ≤ r)`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over `n` ranks with exponent `s ≥ 0`.
    ///
    /// `s = 0` degenerates to the uniform distribution, which is useful for
    /// ablations that remove popularity skew.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be >= 0, got {s}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding: the last entry must be exactly 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Self { cdf }
    }

    /// Draw a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the 0-based
        // index of the first cdf entry ≥ u; +1 converts to a 1-based rank.
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability mass of rank `r` (1-based), read off the sampler's table.
    fn mass(z: &Zipf, r: usize) -> f64 {
        if r == 1 {
            z.cdf[0]
        } else {
            z.cdf[r - 1] - z.cdf[r - 2]
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (1..=100).map(|r| mass(&z, r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_is_decreasing() {
        let z = Zipf::new(50, 0.8);
        for r in 1..50 {
            assert!(mass(&z, r) >= mass(&z, r + 1));
        }
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(10, 0.0);
        for r in 1..=10 {
            assert!((mass(&z, r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!((1..=1000).contains(&r));
            counts[r - 1] += 1;
        }
        // Rank 1 should be sampled far more than rank 100.
        assert!(counts[0] > 10 * counts[99].max(1));
        // Empirical frequency of rank 1 close to its mass.
        let emp = counts[0] as f64 / 100_000.0;
        assert!((emp - mass(&z, 1)).abs() < 0.01, "{emp} vs {}", mass(&z, 1));
    }

    #[test]
    fn single_rank_always_one() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_ranks() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_exponent() {
        Zipf::new(10, -0.5);
    }
}
