//! Dominant sub-dataset separation via Fibonacci-width size buckets
//! (Section III-B).
//!
//! Sorting the `m` sub-datasets of a block by size to pick the dominant
//! ones would cost O(m log m). The paper's observation: because of content
//! clustering, only the *bucket counts* matter — distribute sub-datasets
//! into size intervals during the scan (O(1) per record), then walk buckets
//! from the largest interval down until the hash-map budget is filled. The
//! intervals follow a Fibonacci progression so that "larger data sizes have
//! sparser intervals":
//!
//! ```text
//! (0,1kb) [1,2) [2,3) [3,5) [5,8) [8,13) [13,21) [21,34) [34kb, ∞)
//! ```

use crate::symbol::FastMap;
use datanet_dfs::SubDatasetId;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// A monotone series of bucket lower bounds (bytes). Bucket `i` covers
/// `[bounds[i], bounds[i+1])`; the last bucket is unbounded above.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Buckets {
    /// `bounds[0]` is always 0.
    bounds: Vec<u64>,
}

impl Buckets {
    /// The paper's instance: Fibonacci multiples of 1 kB up to 34 kB
    /// (suited to 64 MB blocks: at most 64M/32k = 2048 sub-datasets can sit
    /// in the top bucket).
    pub fn paper() -> Self {
        Self::fibonacci(1024, 9)
    }

    /// Fibonacci progression scaled by `base` bytes: bounds
    /// `0, base, 2·base, 3·base, 5·base, 8·base, …` with `count` finite
    /// buckets plus the unbounded top bucket. A `base` large enough that a
    /// bound would overflow `u64` simply stops the progression early (the
    /// top bucket is unbounded anyway), so no input panics.
    ///
    /// # Panics
    /// Panics if `base == 0` or `count == 0`.
    pub fn fibonacci(base: u64, count: usize) -> Self {
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

    /// Buckets scaled for a given block size: the paper's 1 kB base is for
    /// 64 MB blocks; smaller experimental blocks scale the base down
    /// proportionally (min 1 byte) so separation behaviour is preserved.
    pub fn for_block_size(block_size: u64) -> Self {
        let base = (block_size / (64 * 1024)).max(1);
        Self::fibonacci(base, 9)
    }

    /// Explicit bounds. `bounds` must start at 0 and increase strictly.
    ///
    /// # Panics
    /// Panics on empty, non-zero-leading or non-increasing bounds.
    pub fn explicit(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "bounds must be non-empty");
        assert_eq!(bounds[0], 0, "first bound must be 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase strictly"
        );
        Self { bounds }
    }

    /// Number of buckets (including the unbounded top one).
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the bucket containing `size`. O(log #buckets); with tens of
    /// buckets this is a handful of comparisons.
    pub fn bucket_of(&self, size: u64) -> usize {
        // partition_point gives the count of bounds <= size; sizes equal to
        // a bound belong to the bucket starting at that bound.
        self.bounds.partition_point(|&b| b <= size) - 1
    }

    /// Lower bound of bucket `i` in bytes.
    pub fn lower_bound(&self, i: usize) -> u64 {
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

/// Streaming bucket statistics for one block: tracks each sub-dataset's
/// running size and the per-bucket membership counts, maintained
/// incrementally as records are scanned (the "adjust the sub-dataset's
/// bucket accordingly" step of Section III-B).
#[derive(Debug, Clone)]
pub struct BucketCounter {
    buckets: Buckets,
    /// Fast-hashed: this map takes one hit per scanned record, the single
    /// hottest line of the metadata build.
    sizes: FastMap<SubDatasetId, u64>,
    counts: Vec<usize>,
}

impl BucketCounter {
    /// Create a counter over the given bucket series.
    pub fn new(buckets: Buckets) -> Self {
        let counts = vec![0; buckets.len()];
        Self {
            buckets,
            sizes: FastMap::default(),
            counts,
        }
    }

    /// Account `bytes` of one record belonging to `id` — O(1) amortised.
    /// Sizes saturate at `u64::MAX` rather than overflow. First insertion
    /// is detected by map vacancy, not by the old size being 0, so repeated
    /// zero-byte records cannot double-count a sub-dataset.
    pub fn record(&mut self, id: SubDatasetId, bytes: u64) {
        match self.sizes.entry(id) {
            Entry::Vacant(e) => {
                e.insert(bytes);
                self.counts[self.buckets.bucket_of(bytes)] += 1;
            }
            Entry::Occupied(mut e) => {
                let old = *e.get();
                let new = old.saturating_add(bytes);
                *e.get_mut() = new;
                let old_bucket = self.buckets.bucket_of(old);
                let new_bucket = self.buckets.bucket_of(new);
                if old_bucket != new_bucket {
                    self.counts[old_bucket] -= 1;
                    self.counts[new_bucket] += 1;
                }
            }
        }
    }

    /// Number of distinct sub-datasets seen.
    pub fn distinct(&self) -> usize {
        self.sizes.len()
    }

    /// Sub-dataset count currently in bucket `i`.
    pub fn count(&self, i: usize) -> usize {
        self.counts[i]
    }

    /// The accumulated exact sizes.
    pub fn sizes(&self) -> &FastMap<SubDatasetId, u64> {
        &self.sizes
    }

    /// The bucket series.
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// The size threshold that selects approximately the `quota` largest
    /// sub-datasets seen so far (see [`Buckets::dominance_threshold`]).
    pub fn dominance_threshold(&self, quota: usize) -> u64 {
        self.buckets.dominance_threshold(&self.counts, quota)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bucket_bounds() {
        let b = Buckets::paper();
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
        let b = Buckets::explicit(vec![0, 10, 20, 50]);
        assert_eq!(b.bucket_of(0), 0);
        assert_eq!(b.bucket_of(9), 0);
        assert_eq!(b.bucket_of(10), 1);
        assert_eq!(b.bucket_of(19), 1);
        assert_eq!(b.bucket_of(20), 2);
        assert_eq!(b.bucket_of(49), 2);
        assert_eq!(b.bucket_of(50), 3);
        assert_eq!(b.bucket_of(u64::MAX), 3);
    }

    #[test]
    fn counter_tracks_moves_between_buckets() {
        let mut c = BucketCounter::new(Buckets::explicit(vec![0, 10, 100]));
        let s = SubDatasetId(1);
        c.record(s, 5); // bucket 0
        assert_eq!(c.count(0), 1);
        c.record(s, 6); // total 11 → bucket 1
        assert_eq!(c.count(0), 0);
        assert_eq!(c.count(1), 1);
        c.record(s, 90); // total 101 → bucket 2
        assert_eq!(c.count(1), 0);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.distinct(), 1);
    }

    #[test]
    fn threshold_selects_top_buckets() {
        let mut c = BucketCounter::new(Buckets::explicit(vec![0, 10, 100, 1000]));
        // 3 small (size 5), 2 medium (50), 1 large (5000).
        for i in 0..3 {
            c.record(SubDatasetId(i), 5);
        }
        for i in 3..5 {
            c.record(SubDatasetId(i), 50);
        }
        c.record(SubDatasetId(5), 5000);
        assert_eq!(c.dominance_threshold(1), 1000); // just the large one
                                                    // Quota 2: bucket [100,1000) is empty, so the walk continues into
                                                    // [10,100) which holds both mediums — threshold drops to 10.
        assert_eq!(c.dominance_threshold(2), 10);
        assert_eq!(c.dominance_threshold(3), 10); // bucket taken whole
        assert_eq!(c.dominance_threshold(6), 0); // everyone
        assert_eq!(c.dominance_threshold(0), u64::MAX);
    }

    #[test]
    fn threshold_consistent_with_sort_based_selection() {
        // The bucket walk must select a superset of the top-`quota`
        // sub-datasets chosen by a full sort.
        let mut c = BucketCounter::new(Buckets::fibonacci(8, 9));
        let sizes: Vec<u64> = (1..=50u64).map(|i| i * i * 3 % 977 + 1).collect();
        for (i, &s) in sizes.iter().enumerate() {
            c.record(SubDatasetId(i as u64), s);
        }
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for quota in [1usize, 5, 10, 25, 50] {
            let thr = c.dominance_threshold(quota);
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
    fn for_block_size_scales_base() {
        let b64mb = Buckets::for_block_size(64 * 1024 * 1024);
        assert_eq!(b64mb.lower_bound(1), 1024);
        let b1mb = Buckets::for_block_size(1024 * 1024);
        assert_eq!(b1mb.lower_bound(1), 16);
        let tiny = Buckets::for_block_size(300);
        assert_eq!(tiny.lower_bound(1), 1);
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
    fn zero_byte_subdatasets_count_once() {
        // Regression: first insertion used to be detected by `old == 0`, so
        // a second zero-byte record for the same id inflated bucket 0.
        let mut c = BucketCounter::new(Buckets::fibonacci(1024, 9));
        for _ in 0..5 {
            c.record(SubDatasetId(1), 0);
            c.record(SubDatasetId(2), 0);
        }
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.count(0), 2, "zero-byte ids double-counted");
        assert_eq!(c.sizes()[&SubDatasetId(1)], 0);
        // A later real record moves it out of bucket 0 exactly once.
        c.record(SubDatasetId(1), 2048);
        assert_eq!(c.count(0), 1);
        assert_eq!(c.count(2), 1);
        assert_eq!(c.dominance_threshold(1), 2 * 1024);
        assert_eq!(c.dominance_threshold(2), 0);
    }

    #[test]
    fn near_u64_max_sizes_bucket_deterministically() {
        // Sizes at the top of the u64 range must neither panic nor wrap.
        let mut c = BucketCounter::new(Buckets::fibonacci(1024, 9));
        c.record(SubDatasetId(0), u64::MAX - 5);
        c.record(SubDatasetId(0), 10); // would overflow; saturates
        c.record(SubDatasetId(1), u64::MAX);
        assert_eq!(c.sizes()[&SubDatasetId(0)], u64::MAX);
        assert_eq!(c.distinct(), 2);
        let top = c.buckets().len() - 1;
        assert_eq!(c.count(top), 2);
        assert_eq!(c.dominance_threshold(2), 55 * 1024);
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

    #[test]
    #[should_panic]
    fn explicit_rejects_nonzero_start() {
        Buckets::explicit(vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn explicit_rejects_decreasing() {
        Buckets::explicit(vec![0, 5, 5]);
    }
}
