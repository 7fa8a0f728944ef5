//! Descriptive statistics used throughout the experiment harness
//! (min/avg/max bars in Figures 6, 7 and 10, std-dev in Figure 10).

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample, computed in one pass with Welford's
/// algorithm (numerically stable for the large byte counts we feed it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Summarise a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Add one observation.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "Summary only accepts finite values, got {v}");
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another summary into this one (parallel reduction-friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation.
    ///
    /// # Panics
    /// Panics on an empty summary.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty summary");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    /// Panics on an empty summary.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty summary");
        self.max
    }

    /// max / min, the straggler ratio the paper quotes ("some nodes carry a
    /// workload 4 to 6 times greater than others"). Returns `None` if the
    /// summary is empty or min is zero.
    pub fn spread_ratio(&self) -> Option<f64> {
        if self.count == 0 || self.min <= 0.0 {
            None
        } else {
            Some(self.max / self.min)
        }
    }
}

/// Gini coefficient of a non-negative sample — 0 for perfect equality,
/// →1 for total concentration. A compact scalar for workload-imbalance
/// reporting alongside max/avg (a Gini of 0.25+ across node workloads marks
/// the kind of skew the paper's Figure 1(b) shows).
///
/// # Panics
/// Panics on an empty slice or negative values.
pub fn gini(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gini of empty sample");
    assert!(
        values.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "gini requires non-negative finite values"
    );
    let n = values.len() as f64;
    let total: f64 = values.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // G = (2·Σ i·x_(i) / (n·Σx)) − (n+1)/n, with 1-based ranks.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted / (n * total)) - (n + 1.0) / n
}

/// Sorted-slice percentile (nearest-rank). `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if p == 0.0 {
        return sorted[0];
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.spread_ratio().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.spread_ratio().is_none());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let whole = Summary::of(&data);
        let mut a = Summary::of(&data[..37]);
        let b = Summary::of(&data[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[5.0, 7.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn gini_extremes_and_midpoints() {
        // Perfect equality.
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        // Total concentration on one of n: G = (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!((g - 0.75).abs() < 1e-12, "got {g}");
        // A known hand-computed case: [1,2,3,4] → G = 0.25.
        assert!((gini(&[1.0, 2.0, 3.0, 4.0]) - 0.25).abs() < 1e-12);
        // All-zero workload counts as equal.
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        // Order-invariant.
        assert_eq!(gini(&[4.0, 1.0, 3.0, 2.0]), gini(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    #[should_panic]
    fn gini_rejects_negative() {
        gini(&[1.0, -2.0]);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic]
    fn summary_rejects_nan() {
        let mut s = Summary::new();
        s.push(f64::NAN);
    }
}
