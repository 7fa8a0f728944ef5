//! Fixed-bucket histograms with Fibonacci-width intervals.
//!
//! Same observation as the block scanner's `buckets.rs`: latency and size
//! distributions are heavy-tailed, so "larger values get sparser intervals"
//! captures them in a few dozen integer counters with no per-sample
//! allocation. Bounds follow `0, b, 2b, 3b, 5b, 8b, …` until the next
//! Fibonacci multiple would overflow `u64`.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// For each bit length `L` (1..=64), the largest base-1 bound index `i`
/// with `bounds[i] <= 2^(L-1)` — the jump-in point for
/// [`FibHistogram::observe`]'s fast path. Fibonacci numbers grow by
/// φ ≈ 1.618 per index, so from that start at most two fix-up steps
/// reach any value of the bit length (φ² > 2).
fn fib_start_by_bits() -> &'static [u8; 65] {
    static LUT: OnceLock<[u8; 65]> = OnceLock::new();
    LUT.get_or_init(|| {
        let bounds = FibHistogram::new(1).bounds;
        let mut lut = [0u8; 65];
        for (l, slot) in lut.iter_mut().enumerate().skip(1) {
            let v = 1u64 << (l - 1);
            *slot = (bounds.partition_point(|&b| b <= v) - 1) as u8;
        }
        lut
    })
}

/// A histogram over `u64` samples with Fibonacci-progression bucket bounds.
/// Bucket `i` covers `[bounds[i], bounds[i+1])`; the last bucket is
/// unbounded above.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FibHistogram {
    /// Bucket lower bounds; `bounds[0]` is always 0.
    bounds: Vec<u64>,
    /// Sample count per bucket (same length as `bounds`).
    counts: Vec<u64>,
    /// Total samples observed.
    total: u64,
    /// Saturating sum of all samples (for the mean).
    sum: u64,
}

impl FibHistogram {
    /// Fibonacci bounds scaled by `base`: `0, base, 2·base, 3·base, …`,
    /// extended until the next bound would overflow `u64` (93 buckets at
    /// `base = 1`, fewer for larger bases).
    ///
    /// # Panics
    /// Panics if `base == 0`.
    pub fn new(base: u64) -> Self {
        assert!(base > 0, "histogram base must be positive");
        let mut bounds = vec![0u64];
        let (mut a, mut b) = (1u64, 2u64);
        while let Some(bound) = a.checked_mul(base) {
            bounds.push(bound);
            let Some(next) = a.checked_add(b) else {
                break;
            };
            a = b;
            b = next;
        }
        let counts = vec![0; bounds.len()];
        Self {
            bounds,
            counts,
            total: 0,
            sum: 0,
        }
    }

    /// Microsecond-latency histogram: base 1 µs, covering the full `u64`
    /// range (~93 buckets).
    pub(crate) fn micros() -> Self {
        Self::new(1)
    }

    /// Byte-size histogram: base 1 KiB, matching the paper's scan buckets.
    pub fn bytes() -> Self {
        Self::new(1024)
    }

    /// Record one sample. O(1) for base-1 (microsecond) histograms — the
    /// metrics hot path — via a bit-length jump table; O(log #buckets)
    /// binary search otherwise.
    pub fn observe(&mut self, value: u64) {
        let i = if value == 0 {
            0
        } else if self.bounds[1] == 1 {
            // Base-1 bounds are the full Fibonacci sequence, so the
            // jump table (built from the same sequence) indexes
            // directly into `self.bounds`.
            let bits = (64 - value.leading_zeros()) as usize;
            let mut i = fib_start_by_bits()[bits] as usize;
            while i + 1 < self.bounds.len() && self.bounds[i + 1] <= value {
                i += 1;
            }
            i
        } else {
            self.bounds.partition_point(|&b| b <= value) - 1
        };
        self.counts[i] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Always false — there is at least the `[0, base)` bucket.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lower bound of bucket `i`.
    pub fn lower_bound(&self, i: usize) -> u64 {
        self.bounds[i]
    }

    /// Smallest bucket lower bound `q` of the quantile: the bound below
    /// which at least `q` (0..=1) of the samples fall. Returns 0 when empty.
    pub(crate) fn quantile_bound(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds[i];
            }
        }
        *self.bounds.last().unwrap()
    }

    /// Merge another histogram into this one. Bucket counts add pointwise;
    /// the merged total always equals the sum of the parts' totals.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ — merging histograms with
    /// different scales would silently misplace every sample.
    pub fn merge(&mut self, other: &FibHistogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, for compact
    /// export.
    pub fn sparse(&self) -> Vec<(u64, u64)> {
        self.bounds
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&b, &c)| (b, c))
            .collect()
    }
}

impl Default for FibHistogram {
    fn default() -> Self {
        Self::micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_bounds() {
        let h = FibHistogram::new(10);
        assert_eq!(h.lower_bound(0), 0);
        assert_eq!(h.lower_bound(1), 10);
        assert_eq!(h.lower_bound(2), 20);
        assert_eq!(h.lower_bound(3), 30);
        assert_eq!(h.lower_bound(4), 50);
        assert_eq!(h.lower_bound(5), 80);
        assert_eq!(h.lower_bound(6), 130);
    }

    #[test]
    fn covers_full_u64_range() {
        let mut h = FibHistogram::micros();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.total(), 2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(h.len() - 1), 1);
    }

    #[test]
    fn observe_places_boundaries() {
        let mut h = FibHistogram::new(10);
        h.observe(9); // bucket 0
        h.observe(10); // bucket 1
        h.observe(19); // bucket 1
        h.observe(20); // bucket 2
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.total(), 4);
        assert!((h.mean() - 14.5).abs() < 1e-12);
    }

    /// The base-1 jump-table fast path must agree with the binary search
    /// on every bucket boundary (±1) and across random values.
    #[test]
    fn fast_path_matches_binary_search() {
        let reference = FibHistogram::micros();
        let check = |v: u64| {
            let expect = reference.bounds.partition_point(|&b| b <= v) - 1;
            let mut h = FibHistogram::micros();
            h.observe(v);
            assert_eq!(h.count(expect), 1, "value {v} landed in the wrong bucket");
        };
        for i in 0..reference.len() {
            let b = reference.lower_bound(i);
            check(b);
            check(b.saturating_add(1));
            check(b.saturating_sub(1));
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check(x);
            check(x % 1_000_000);
        }
    }

    #[test]
    fn quantiles() {
        let mut h = FibHistogram::new(10);
        for v in 0..100 {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.0), 0);
        // Half the samples are below 50, the 4th bound.
        assert_eq!(h.quantile_bound(0.5), 30);
        assert_eq!(h.quantile_bound(1.0), 80);
    }

    #[test]
    fn sparse_skips_empty_buckets() {
        let mut h = FibHistogram::new(10);
        h.observe(5);
        h.observe(85);
        assert_eq!(h.sparse(), vec![(0, 1), (80, 1)]);
    }

    /// Property (satellite): for any split of a sample stream across
    /// histograms, merged bucket counts equal the sum of the parts.
    #[test]
    fn merge_counts_equal_sum_of_parts() {
        // Deterministic pseudo-random sample stream.
        let samples: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 1_000_003).collect();
        for parts in [1usize, 2, 3, 7] {
            let mut split: Vec<FibHistogram> = (0..parts).map(|_| FibHistogram::micros()).collect();
            let mut whole = FibHistogram::micros();
            for (i, &s) in samples.iter().enumerate() {
                split[i % parts].observe(s);
                whole.observe(s);
            }
            let mut merged = FibHistogram::micros();
            for p in &split {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "merge of {parts} parts must equal whole");
            assert_eq!(
                merged.total(),
                split.iter().map(FibHistogram::total).sum::<u64>()
            );
        }
    }

    #[test]
    #[should_panic]
    fn merge_rejects_different_bounds() {
        let mut a = FibHistogram::new(1);
        let b = FibHistogram::new(1024);
        a.merge(&b);
    }

    #[test]
    fn serde_roundtrip() {
        let mut h = FibHistogram::bytes();
        h.observe(4096);
        let json = serde_json::to_string(&h).unwrap();
        let back: FibHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
