//! Special functions needed by the Gamma distribution: `ln Γ(x)` and the
//! regularized lower incomplete gamma function.
//!
//! Implemented from scratch (no external math crates): the Lanczos
//! approximation for `ln Γ`, the standard power-series expansion of the lower
//! incomplete gamma for `x < a + 1`, and the Lentz continued-fraction
//! evaluation of the upper incomplete gamma otherwise (the split keeps both
//! expansions in their fast-converging regimes).

/// Lanczos coefficients for g = 7, n = 9 (Godfrey's set). Accurate to ~15
/// significant digits over the positive real axis.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the Gamma function for `x > 0`.
///
/// # Panics
/// Panics if `x <= 0` (the reproduction never needs the reflected branch).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the Lanczos series in its accurate range.
        // ln Γ(x) = ln(π / sin(πx)) − ln Γ(1 − x)
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)` for
/// `a > 0, x >= 0`. `P` is the CDF of `Γ(a, 1)`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        lower_series(a, x)
    } else {
        1.0 - upper_continued_fraction(a, x)
    }
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-14;

/// Series expansion of P(a, x), converges quickly for x < a + 1:
/// P(a,x) = x^a e^{-x} / Γ(a) · Σ_{n≥0} x^n / (a (a+1) ⋯ (a+n)).
fn lower_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum.ln() + a * x.ln() - x - ln_gamma(a))
        .exp()
        .clamp(0.0, 1.0)
}

/// Modified Lentz evaluation of the continued fraction for Q(a, x),
/// converges quickly for x ≥ a + 1.
fn upper_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (a * x.ln() - x - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamma(x: f64) -> f64 {
        ln_gamma(x).exp()
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            close(ln_gamma(n as f64), fact.ln(), 1e-10);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π, Γ(3/2) = √π / 2
        let sqrt_pi = std::f64::consts::PI.sqrt();
        close(gamma(0.5), sqrt_pi, 1e-12);
        close(gamma(1.5), sqrt_pi / 2.0, 1e-12);
        close(gamma(2.5), 3.0 * sqrt_pi / 4.0, 1e-12);
    }

    #[test]
    fn gamma_recurrence_holds() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.3, 0.9, 1.7, 3.21, 7.5, 12.0] {
            close(gamma(x + 1.0), x * gamma(x), gamma(x + 1.0) * 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_is_exponential_cdf_for_a_one() {
        // P(1, x) = 1 − e^{-x}
        for &x in &[0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn p_is_monotone_in_x() {
        let a = 1.2;
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.25;
            let p = reg_lower_gamma(a, x);
            assert!(p >= prev - 1e-15, "P(a,x) must be nondecreasing");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn p_known_values() {
        // Reference values computed with high-precision tools:
        // P(1.2, 1.2·7 / 7) = P(1.2, 1.2) — median-ish point of Γ(1.2, 1).
        close(reg_lower_gamma(0.5, 0.5), 0.682_689_492_137_085_9, 1e-10);
        close(reg_lower_gamma(2.0, 2.0), 0.593_994_150_290_161_6, 1e-10);
        close(reg_lower_gamma(5.0, 5.0), 0.559_506_714_934_788, 1e-9);
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    #[should_panic]
    fn reg_lower_rejects_negative_x() {
        reg_lower_gamma(1.0, -1.0);
    }
}
