//! Dominant sub-dataset separation via Fibonacci-width size buckets
//! (Section III-B).
//!
//! Sorting the `m` sub-datasets of a block by size to pick the dominant
//! ones would cost O(m log m). The paper's observation: because of content
//! clustering, only the *bucket counts* matter — count how many
//! sub-datasets fall in each size interval, then walk buckets from the
//! largest interval down until the hash-map budget is filled. The counts
//! come from the block's write-time size table, one `bucket_of` per
//! distinct sub-dataset ([`crate::ElasticMap::build`]). The intervals
//! follow a Fibonacci progression so that "larger data sizes have sparser
//! intervals":
//!
//! ```text
//! (0,1kb) [1,2) [2,3) [3,5) [5,8) [8,13) [13,21) [21,34) [34kb, ∞)
//! ```

/// A monotone series of bucket lower bounds (bytes). Bucket `i` covers
/// `[bounds[i], bounds[i+1])`; the last bucket is unbounded above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Buckets {
    /// `bounds[0]` is always 0.
    bounds: Vec<u64>,
}

impl Buckets {
    /// Fibonacci progression scaled by `base` bytes: bounds
    /// `0, base, 2·base, 3·base, 5·base, 8·base, …` with `count` finite
    /// buckets plus the unbounded top bucket. A `base` large enough that a
    /// bound would overflow `u64` simply stops the progression early (the
    /// top bucket is unbounded anyway), so no input panics.
    ///
    /// # Panics
    /// Panics if `base == 0` or `count == 0`.
    pub(crate) fn fibonacci(base: u64, count: usize) -> Self {
        assert!(base > 0, "bucket base must be positive");
        assert!(count > 0, "need at least one bucket");
        let mut bounds = vec![0u64];
        let (mut a, mut b) = (1u64, 2u64);
        for _ in 0..count {
            match a.checked_mul(base) {
                Some(bound) if bound > *bounds.last().expect("non-empty") => bounds.push(bound),
                _ => break,
            }
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        Self { bounds }
    }

    /// Number of buckets (including the unbounded top one).
    pub(crate) fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Index of the bucket containing `size`. O(log #buckets); with tens of
    /// buckets this is a handful of comparisons.
    pub(crate) fn bucket_of(&self, size: u64) -> usize {
        // partition_point gives the count of bounds <= size; sizes equal to
        // a bound belong to the bucket starting at that bound.
        self.bounds.partition_point(|&b| b <= size) - 1
    }

    /// Lower bound of bucket `i` in bytes.
    pub(crate) fn lower_bound(&self, i: usize) -> u64 {
        self.bounds[i]
    }

    /// The size threshold that selects approximately the `quota` largest
    /// sub-datasets, given how many fall in each bucket: walk buckets from
    /// the top down, accumulating `counts`; return the lower bound of the
    /// last bucket taken. Everything with size ≥ threshold goes to the hash
    /// map. O(#buckets).
    ///
    /// If `quota == 0` returns `u64::MAX` (nothing dominant); if `quota ≥
    /// Σ counts` returns 0 (everything dominant). Because buckets are taken
    /// whole, the actual number selected may exceed `quota` by up to one
    /// bucket's population — the paper accepts the same slack ("we only need
    /// to know the statistic value on different buckets").
    pub(crate) fn dominance_threshold(&self, counts: &[usize], quota: usize) -> u64 {
        if quota == 0 {
            return u64::MAX;
        }
        let mut taken = 0;
        for i in (0..counts.len()).rev() {
            taken += counts[i];
            if taken >= quota {
                return self.lower_bound(i);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's instance: Fibonacci multiples of 1 kB up to 34 kB
    /// (suited to 64 MB blocks: at most 64M/32k = 2048 sub-datasets can sit
    /// in the top bucket).
    fn paper() -> Buckets {
        Buckets::fibonacci(1024, 9)
    }

    #[test]
    fn paper_bucket_bounds() {
        let b = paper();
        let kb = 1024;
        assert_eq!(b.len(), 10);
        assert_eq!(b.lower_bound(0), 0);
        assert_eq!(b.lower_bound(1), kb);
        assert_eq!(b.lower_bound(2), 2 * kb);
        assert_eq!(b.lower_bound(3), 3 * kb);
        assert_eq!(b.lower_bound(4), 5 * kb);
        assert_eq!(b.lower_bound(5), 8 * kb);
        assert_eq!(b.lower_bound(6), 13 * kb);
        assert_eq!(b.lower_bound(7), 21 * kb);
        assert_eq!(b.lower_bound(8), 34 * kb);
        assert_eq!(b.lower_bound(9), 55 * kb);
    }

    #[test]
    fn bucket_of_boundaries() {
        let b = Buckets {
            bounds: vec![0, 10, 20, 50],
        };
        assert_eq!(b.bucket_of(0), 0);
        assert_eq!(b.bucket_of(9), 0);
        assert_eq!(b.bucket_of(10), 1);
        assert_eq!(b.bucket_of(19), 1);
        assert_eq!(b.bucket_of(20), 2);
        assert_eq!(b.bucket_of(49), 2);
        assert_eq!(b.bucket_of(50), 3);
        assert_eq!(b.bucket_of(u64::MAX), 3);
    }

    /// Per-bucket counts of a size table's sizes, as
    /// `ElasticMap::from_size_table` feeds them to the threshold walk.
    fn counts(b: &Buckets, sizes: &[u64]) -> Vec<usize> {
        let mut counts = vec![0; b.len()];
        for &size in sizes {
            counts[b.bucket_of(size)] += 1;
        }
        counts
    }

    #[test]
    fn threshold_selects_top_buckets() {
        let b = Buckets {
            bounds: vec![0, 10, 100, 1000],
        };
        // 3 small (size 5), 2 medium (50), 1 large (5000).
        let c = counts(&b, &[5, 5, 5, 50, 50, 5000]);
        assert_eq!(c, [3, 2, 0, 1]);
        assert_eq!(b.dominance_threshold(&c, 1), 1000); // just the large one
                                                        // Quota 2: bucket [100,1000) is empty, so the walk continues into
                                                        // [10,100) which holds both mediums — threshold drops to 10.
        assert_eq!(b.dominance_threshold(&c, 2), 10);
        assert_eq!(b.dominance_threshold(&c, 3), 10); // bucket taken whole
        assert_eq!(b.dominance_threshold(&c, 6), 0); // everyone
        assert_eq!(b.dominance_threshold(&c, 0), u64::MAX);
    }

    #[test]
    fn threshold_consistent_with_sort_based_selection() {
        // The bucket walk must select a superset of the top-`quota`
        // sub-datasets chosen by a full sort.
        let b = Buckets::fibonacci(8, 9);
        let sizes: Vec<u64> = (1..=50u64).map(|i| i * i * 3 % 977 + 1).collect();
        let c = counts(&b, &sizes);
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for quota in [1usize, 5, 10, 25, 50] {
            let thr = b.dominance_threshold(&c, quota);
            let selected = sizes.iter().filter(|&&s| s >= thr).count();
            assert!(
                selected >= quota.min(sizes.len()),
                "quota {quota}: only {selected} selected at threshold {thr}"
            );
            // Everything selected must be at least as large as the smallest
            // of the sort-based top-`selected`.
            let kth = sorted[selected - 1];
            assert!(thr <= kth);
        }
    }

    #[test]
    fn bucket_threshold_selects_a_superset_of_top_quota() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(0x5000 + case);
            let len = rng.gen_range(1..300);
            let sizes: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..200_000)).collect();
            let quota_frac = rng.gen_range(0.0f64..1.0);
            let b = paper();
            let quota = (quota_frac * sizes.len() as f64).ceil() as usize;
            let threshold = b.dominance_threshold(&counts(&b, &sizes), quota);
            let selected = sizes.iter().filter(|&&s| s >= threshold).count();
            assert!(
                selected >= quota.min(sizes.len()),
                "case {case}: quota {quota} but only {selected} selected at threshold {threshold}"
            );
        }
    }

    #[test]
    fn fibonacci_edge_sizes_bucket_exactly() {
        // A size exactly on a Fibonacci bound belongs to the bucket that
        // starts there; one byte less stays below.
        let b = Buckets::fibonacci(1024, 9);
        for (i, edge) in [1u64, 2, 3, 5, 8, 13, 21, 34, 55].iter().enumerate() {
            let bound = edge * 1024;
            assert_eq!(b.bucket_of(bound), i + 1, "at bound {bound}");
            assert_eq!(b.bucket_of(bound - 1), i, "below bound {bound}");
        }
        assert_eq!(b.bucket_of(0), 0);
        assert_eq!(b.bucket_of(u64::MAX), 9);
    }

    #[test]
    fn near_u64_max_sizes_bucket_deterministically() {
        // Sizes at the top of the u64 range must neither panic nor wrap.
        let b = Buckets::fibonacci(1024, 9);
        let c = counts(&b, &[u64::MAX - 5, u64::MAX]);
        let top = b.len() - 1;
        assert_eq!(c[top], 2);
        assert_eq!(b.dominance_threshold(&c, 2), 55 * 1024);
    }

    #[test]
    fn huge_bases_truncate_instead_of_overflowing() {
        // A base near u64::MAX cannot represent the later Fibonacci bounds;
        // the progression stops early and stays strictly increasing.
        let b = Buckets::fibonacci(u64::MAX / 2, 9);
        assert!(b.len() >= 3, "0, base and 2·base all fit");
        assert_eq!(b.lower_bound(1), u64::MAX / 2);
        assert_eq!(b.bucket_of(u64::MAX), b.len() - 1);
        let b = Buckets::fibonacci(u64::MAX, 9);
        assert_eq!(b.len(), 2);
        assert_eq!(b.bucket_of(u64::MAX - 1), 0);
        assert_eq!(b.bucket_of(u64::MAX), 1);
    }
}
