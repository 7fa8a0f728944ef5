//! The estimator: per-op minimum over R replays, interpolated percentiles
//! over the N per-op estimates, and the seeded generator every op list is
//! drawn from.

/// SplitMix64: the harness's only source of randomness. Op lists are
/// expanded from `--seed` through it, so they never depend on the vendored
/// `rand` stand-in the product uses.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for every
    /// `n` the op lists use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Linearly interpolated percentile (`p` in 0..=1) of an ascending slice:
/// the value at fractional rank `p · (n − 1)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Per-op latency estimate: each op's minimum over its replays.
/// `samples[r][i]` is op `i`'s latency in replay `r`. The R samples of one
/// op are a whole pass apart, so a slow phase of the host hits some replays
/// of every op rather than every replay of some ops, and the minimum
/// discards it.
pub fn min_per_op(samples: &[Vec<f64>]) -> Vec<f64> {
    let n = samples[0].len();
    (0..n)
        .map(|i| samples.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median over ops of `k-th best / best − 1` (`k` 0-based, clamped to the
/// replay count): how far apart an op's good replays sit. Near 0 on a quiet
/// host; large when fewer than `k + 1` replays of an op ran undisturbed.
pub fn rep_spread(samples: &[Vec<f64>], k: usize) -> f64 {
    let n = samples[0].len();
    let k = k.min(samples.len() - 1);
    let per_op: Vec<f64> = (0..n)
        .map(|i| {
            let s = sorted(samples.iter().map(|r| r[i]).collect());
            s[k] / s[0] - 1.0
        })
        .collect();
    median(&per_op)
}

/// The latency summary of one measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    /// Σ of the per-op estimates: the time one undisturbed pass takes.
    pub total: f64,
}

pub fn summarize(per_op: &[f64]) -> Summary {
    let s = sorted(per_op.to_vec());
    Summary {
        p50: percentile(&s, 0.5),
        p90: percentile(&s, 0.9),
        total: per_op.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 30.0);
        assert_eq!(percentile(&s, 1.0), 50.0);
        // rank 0.9 · 4 = 3.6 → 40 + 0.6 · 10
        assert!((percentile(&s, 0.9) - 46.0).abs() < 1e-12);
        // rank 0.125 · 4 = 0.5 → halfway between 10 and 20
        assert!((percentile(&s, 0.125) - 15.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn min_per_op_discards_a_slow_replay() {
        // Replay 1 ran during a slow host phase: every op 3× slower.
        let samples = vec![
            vec![1.0, 2.0, 4.0],
            vec![3.0, 6.0, 12.0],
            vec![1.5, 1.9, 4.5],
        ];
        assert_eq!(min_per_op(&samples), vec![1.0, 1.9, 4.0]);
        let sum = summarize(&min_per_op(&samples));
        assert!((sum.total - 6.9).abs() < 1e-12);
        assert_eq!(sum.p50, 1.9);
    }

    #[test]
    fn rep_spread_is_the_median_gap_to_the_kth_best() {
        let samples = vec![vec![1.0, 10.0], vec![1.1, 12.0], vec![2.0, 11.0]];
        // op 0: sorted 1.0 1.1 2.0 → 2nd-best gap 0.1, 3rd-best gap 1.0
        // op 1: sorted 10 11 12   → 2nd-best gap 0.1, 3rd-best gap 0.2
        assert!((rep_spread(&samples, 1) - 0.1).abs() < 1e-9);
        assert!((rep_spread(&samples, 2) - 0.6).abs() < 1e-9);
        // k beyond the replay count clamps to the worst replay.
        assert!((rep_spread(&samples, 9) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64(7), |g, _| Some(g.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64(7), |g, _| Some(g.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64(8), |g, _| Some(g.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64(1).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<_>>(), "a shuffle permutes");
        assert_ne!(v, w);
    }
}
