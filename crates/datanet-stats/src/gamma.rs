//! The Gamma distribution `Γ(k, θ)` (shape/scale parameterisation, as used by
//! the paper: `X ~ Γ(k, θ)` with `E[X] = kθ`).

use crate::special::{ln_gamma, reg_lower_gamma};
use rand::Rng;

/// A Gamma distribution with shape `k` and scale `θ`.
///
/// The paper models the per-block size of a sub-dataset as `Γ(k=1.2, θ=7)`
/// and the per-node workload over `n/m` blocks as `Γ(nk/m, θ)` (sums of iid
/// Gammas with common scale add their shapes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaDist {
    shape: f64,
    scale: f64,
}

impl GammaDist {
    /// Create a `Γ(shape, scale)` distribution.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "Gamma shape must be positive and finite, got {shape}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "Gamma scale must be positive and finite, got {scale}"
        );
        Self { shape, scale }
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Probability density function (Equation 2 of the paper).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at 0 is 0 for k > 1, θ⁻¹ for k = 1, +∞ for k < 1;
            // return 0 to stay finite (the CDF at 0 is 0 regardless).
            return if (self.shape - 1.0).abs() < f64::EPSILON {
                1.0 / self.scale
            } else {
                0.0
            };
        }
        let k = self.shape;
        let t = self.scale;
        ((k - 1.0) * x.ln() - x / t - ln_gamma(k) - k * t.ln()).exp()
    }

    /// Cumulative distribution function `P(X ≤ x)` (Equation 3).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        reg_lower_gamma(self.shape, x / self.scale)
    }

    /// Draw one sample using Marsaglia–Tsang (2000). For `k < 1` the usual
    /// boosting identity `Γ(k) = Γ(k+1) · U^{1/k}` is applied.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * sample_standard(self.shape, rng)
    }
}

/// Sample from `Γ(k, 1)` via Marsaglia–Tsang squeeze.
fn sample_standard<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Boost: if Y ~ Γ(k+1, 1) and U ~ U(0,1) then Y·U^{1/k} ~ Γ(k, 1).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_standard(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller (kept local so the crate does not
        // depend on rand_distr).
        let (mut x, mut v);
        loop {
            x = box_muller(rng);
            v = 1.0 + c * x;
            if v > 0.0 {
                break;
            }
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        // Squeeze check first (cheap), then the full acceptance test.
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v3;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// One standard-normal deviate via the Box–Muller transform.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments() {
        let g = GammaDist::new(1.2, 7.0);
        assert!((g.mean() - 8.4).abs() < 1e-12);
        assert!((g.shape * g.scale * g.scale - 58.8).abs() < 1e-12);
    }

    #[test]
    fn cdf_limits() {
        let g = GammaDist::new(1.2, 7.0);
        assert_eq!(g.cdf(-1.0), 0.0);
        assert_eq!(g.cdf(0.0), 0.0);
        assert!(g.cdf(1e6) > 1.0 - 1e-12);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // Trapezoid-integrate the pdf and compare with the cdf.
        let g = GammaDist::new(2.5, 3.0);
        let mut acc = 0.0;
        let dx = 1e-3;
        let mut x = 0.0;
        while x < 20.0 {
            acc += 0.5 * (g.pdf(x) + g.pdf(x + dx)) * dx;
            x += dx;
        }
        assert!(
            (acc - g.cdf(20.0)).abs() < 1e-5,
            "integral {acc} vs cdf {}",
            g.cdf(20.0)
        );
    }

    #[test]
    fn exponential_special_case() {
        // Γ(1, θ) is Exponential(θ): cdf = 1 − e^{-x/θ}.
        let g = GammaDist::new(1.0, 2.0);
        for &x in &[0.1, 1.0, 4.0] {
            assert!((g.cdf(x) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_moments() {
        let g = GammaDist::new(1.2, 7.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(
            (mean - g.mean()).abs() < 0.1,
            "sample mean {mean} vs {}",
            g.mean()
        );
        assert!(
            (var - g.shape * g.scale * g.scale).abs() < 2.0,
            "sample var {var} vs {}",
            g.shape * g.scale * g.scale
        );
        assert!(samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn sampling_small_shape() {
        // Exercise the boost branch (k < 1).
        let g = GammaDist::new(0.4, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mean = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.4).abs() < 0.02, "sample mean {mean} vs 0.4");
    }

    #[test]
    fn sampling_ks_against_cdf() {
        // Coarse Kolmogorov–Smirnov check: empirical CDF within 2% of the
        // analytic CDF at a grid of points.
        let g = GammaDist::new(1.2, 7.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[2.0, 5.0, 10.0, 20.0, 40.0] {
            let emp = samples.partition_point(|&s| s <= q) as f64 / n as f64;
            let the = g.cdf(q);
            assert!(
                (emp - the).abs() < 0.02,
                "at {q}: empirical {emp} vs analytic {the}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_shape() {
        GammaDist::new(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_scale() {
        GammaDist::new(1.0, -2.0);
    }
}
