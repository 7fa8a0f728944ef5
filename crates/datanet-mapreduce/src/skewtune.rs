//! The runtime-migration baseline (Section V-A-4), and the split primitives
//! it generalises into.
//!
//! SkewTune-style systems fix imbalance *after the fact*: once the selection
//! phase has materialised skewed partitions, they migrate data from
//! overloaded to underloaded nodes. The paper measures that on its movie
//! workload "the overall percentage of data migration is more than 30%" and
//! argues the network cost makes this strictly worse than DataNet's
//! proactive balancing. This module reproduces that comparison.
//!
//! The same fair-share arithmetic, applied *before* the shuffle instead of
//! after it, is what the distribution-aware partitioner in [`crate::shuffle`]
//! builds on: [`split_threshold`] decides when a key range is too heavy for
//! one reducer, [`fragments_needed`] how many reducers it must span, and
//! [`split_even`]/[`apportion`] produce the exact (largest-remainder) byte
//! splits that keep the conservation oracles byte-exact.

use datanet_cluster::{NodeSpec, SimCluster, SimTime};

/// Result of rebalancing skewed partitions by migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationOutcome {
    /// Bytes moved between nodes.
    pub moved_bytes: u64,
    /// Moved bytes / total bytes — the paper's ">30%" metric.
    pub fraction: f64,
    /// Wall-clock seconds the migration takes on the simulated network
    /// (transfers parallelise across disjoint node pairs).
    pub migration_secs: f64,
    /// Post-migration per-node bytes (balanced to within one byte of the
    /// mean, up to integer division).
    pub balanced: Vec<u64>,
    /// Number of nodes that sent or received data.
    pub nodes_touched: usize,
}

/// Rebalance partitions to the mean by greedy pairing of the most
/// overloaded sender with the most underloaded receiver.
///
/// # Panics
/// Panics if `partitions` is empty.
pub fn rebalance(partitions: &[u64], spec: &NodeSpec) -> MigrationOutcome {
    assert!(!partitions.is_empty(), "need at least one partition");
    spec.validate();
    let m = partitions.len();
    let total: u64 = partitions.iter().sum();
    let mean = total / m as u64;

    // Surpluses and deficits relative to the mean.
    let mut balanced: Vec<u64> = partitions.to_vec();
    let mut senders: Vec<(usize, u64)> = Vec::new();
    let mut receivers: Vec<(usize, u64)> = Vec::new();
    for (i, &b) in partitions.iter().enumerate() {
        if b > mean {
            senders.push((i, b - mean));
        } else if b < mean {
            receivers.push((i, mean - b));
        }
    }
    // Largest surplus first, largest deficit first.
    senders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    receivers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut cluster = SimCluster::homogeneous(m, *spec);
    let mut moved = 0u64;
    let mut touched = std::collections::BTreeSet::new();
    let (mut si, mut ri) = (0usize, 0usize);
    let mut end = SimTime::ZERO;
    while si < senders.len() && ri < receivers.len() {
        let (s_node, s_left) = senders[si];
        let (r_node, r_left) = receivers[ri];
        let amount = s_left.min(r_left);
        if amount > 0 {
            // Read from the sender's disk, ship it, write on the receiver.
            let (_, read_end) = cluster.node_mut(s_node).read_disk(SimTime::ZERO, amount);
            let (_, arr) = cluster.transfer(s_node, r_node, read_end, amount);
            let (_, w_end) = cluster.node_mut(r_node).write_disk(arr, amount);
            end = end.max(w_end);
            moved += amount;
            balanced[s_node] -= amount;
            balanced[r_node] += amount;
            touched.insert(s_node);
            touched.insert(r_node);
        }
        senders[si].1 -= amount;
        receivers[ri].1 -= amount;
        if senders[si].1 == 0 {
            si += 1;
        }
        if receivers[ri].1 == 0 {
            ri += 1;
        }
    }

    MigrationOutcome {
        moved_bytes: moved,
        fraction: if total == 0 {
            0.0
        } else {
            moved as f64 / total as f64
        },
        migration_secs: end.as_secs_f64(),
        balanced,
        nodes_touched: touched.len(),
    }
}

/// The split threshold: bytes one reducer is willing to absorb for a single
/// key range before the range must split across reducers. `split_factor`
/// scales the fair share (`total / reducers`): 1.0 splits anything above a
/// perfectly even share, larger values tolerate proportionally more skew
/// before paying the split/merge overhead. Never below one byte, so an
/// empty job still yields a usable threshold.
///
/// # Panics
/// Panics if `reducers == 0` or `split_factor` is not finite and ≥ 1.
pub fn split_threshold(total: u64, reducers: usize, split_factor: f64) -> u64 {
    assert!(reducers > 0, "need at least one reducer");
    assert!(
        split_factor.is_finite() && split_factor >= 1.0,
        "split factor must be a finite value >= 1"
    );
    let fair = total as f64 / reducers as f64;
    ((fair * split_factor).ceil() as u64).max(1)
}

/// Number of fragments a key range of `bytes` splits into under
/// `threshold`: `ceil(bytes / threshold)`, and 1 for an empty range (it
/// still needs a home reducer).
///
/// # Panics
/// Panics if `threshold == 0`.
pub(crate) fn fragments_needed(bytes: u64, threshold: u64) -> usize {
    assert!(threshold > 0, "split threshold must be positive");
    if bytes == 0 {
        1
    } else {
        bytes.div_ceil(threshold) as usize
    }
}

/// Exact even split of `bytes` into `parts` fragments: the first
/// `bytes % parts` fragments carry one extra byte, and the fragments sum to
/// `bytes` exactly.
///
/// # Panics
/// Panics if `parts == 0`.
pub(crate) fn split_even(bytes: u64, parts: usize) -> Vec<u64> {
    assert!(parts > 0, "need at least one fragment");
    let q = bytes / parts as u64;
    let r = (bytes % parts as u64) as usize;
    (0..parts).map(|i| q + u64::from(i < r)).collect()
}

/// Exact largest-remainder apportionment of `total` over integer
/// `weights`: each part is within one byte of its real-valued proportional
/// share and the parts sum to `total` exactly (all-zero weights fall back
/// to `split_even`). This is the integer arithmetic that keeps the
/// engine's shuffle byte-conservation exact instead of drifting by one
/// byte per rounded share.
///
/// # Panics
/// Panics if `weights` is empty.
pub fn apportion(total: u64, weights: &[u64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "need at least one weight");
    let wsum: u64 = weights.iter().sum();
    if wsum == 0 {
        return split_even(total, weights.len());
    }
    // Every `total·w` fits a `u64` when `total·wsum` does.
    let fits = total.checked_mul(wsum).is_some();
    let mut out = Vec::with_capacity(weights.len());
    let mut remainders = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let (q, r) = if fits {
            (total * w / wsum, total * w % wsum)
        } else {
            let num = total as u128 * w as u128;
            ((num / wsum as u128) as u64, (num % wsum as u128) as u64)
        };
        out.push(q);
        remainders.push((r, i));
    }
    // Hand the leftover bytes to the largest fractional remainders,
    // lowest index first on ties, so the split is deterministic. The keys
    // are unique, so selecting the first `left` (< parts) picks what a sort would.
    let left = (total - out.iter().sum::<u64>()) as usize;
    remainders.select_nth_unstable_by(left, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders[..left] {
        out[i] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_balanced_moves_nothing() {
        let out = rebalance(&[100, 100, 100, 100], &NodeSpec::marmot());
        assert_eq!(out.moved_bytes, 0);
        assert_eq!(out.fraction, 0.0);
        assert_eq!(out.migration_secs, 0.0);
        assert_eq!(out.balanced, vec![100, 100, 100, 100]);
        assert_eq!(out.nodes_touched, 0);
    }

    #[test]
    fn skewed_partitions_balance_to_mean() {
        let parts = vec![400u64, 0, 0, 0];
        let out = rebalance(&parts, &NodeSpec::marmot());
        assert_eq!(out.moved_bytes, 300);
        assert!((out.fraction - 0.75).abs() < 1e-12);
        assert_eq!(out.balanced, vec![100, 100, 100, 100]);
        assert!(out.migration_secs > 0.0);
        assert_eq!(out.nodes_touched, 4);
    }

    #[test]
    fn conserves_total_bytes() {
        let parts = vec![931u64, 17, 450, 2, 88, 88, 600, 44];
        let out = rebalance(&parts, &NodeSpec::marmot());
        assert_eq!(out.balanced.iter().sum::<u64>(), parts.iter().sum::<u64>());
        // Every node within one mean-rounding unit of the mean.
        let mean = parts.iter().sum::<u64>() / parts.len() as u64;
        for &b in &out.balanced {
            assert!(b.abs_diff(mean) <= parts.len() as u64);
        }
    }

    #[test]
    fn migration_fraction_grows_with_skew() {
        let mild = rebalance(&[120, 100, 90, 90], &NodeSpec::marmot());
        let harsh = rebalance(&[400, 0, 0, 0], &NodeSpec::marmot());
        assert!(harsh.fraction > mild.fraction);
    }

    #[test]
    fn migration_time_scales_with_moved_bytes() {
        let small = rebalance(&[2_000_000, 0], &NodeSpec::marmot());
        let large = rebalance(&[200_000_000, 0], &NodeSpec::marmot());
        assert!(large.migration_secs > small.migration_secs * 10.0);
    }

    #[test]
    #[should_panic]
    fn empty_partitions_rejected() {
        rebalance(&[], &NodeSpec::marmot());
    }

    // --- Split-threshold edge cases (the arithmetic the shuffle planner
    // generalises this module into).

    #[test]
    fn single_dominant_key_spans_the_whole_cluster() {
        // One key holds every byte: at split_factor 1.0 it must fragment
        // into exactly as many pieces as there are reducers, and the even
        // split hands each reducer the fair share.
        let thr = split_threshold(4_000, 4, 1.0);
        assert_eq!(thr, 1_000);
        assert_eq!(fragments_needed(4_000, thr), 4);
        assert_eq!(split_even(4_000, 4), vec![1_000; 4]);
        // The migration view of the same shape: 3/4 of the data moves —
        // the after-the-fact cost the proactive split avoids.
        let out = rebalance(&[4_000, 0, 0, 0], &NodeSpec::marmot());
        assert!((out.fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn all_equal_keys_never_split() {
        // Keys exactly at the fair share sit on the threshold boundary and
        // must stay whole at every tolerated split factor.
        for factor in [1.0, 1.25, 1.5, 2.0] {
            let thr = split_threshold(4_000, 4, factor);
            for bytes in [1_000u64; 4] {
                assert_eq!(fragments_needed(bytes, thr), 1, "factor {factor}");
            }
        }
        let out = rebalance(&[1_000; 4], &NodeSpec::marmot());
        assert_eq!(out.moved_bytes, 0);
    }

    #[test]
    fn key_heavier_than_one_fair_share_splits() {
        // A key at 2.5× the fair share (1000) needs 3 reducers at factor
        // 1.0 but only 2 once the threshold tolerates 25% overshoot.
        assert_eq!(fragments_needed(2_500, split_threshold(8_000, 8, 1.0)), 3);
        assert_eq!(fragments_needed(2_500, split_threshold(8_000, 8, 1.25)), 2);
        // Just past the threshold still splits; exactly at it does not.
        assert_eq!(fragments_needed(1_001, split_threshold(8_000, 8, 1.0)), 2);
        assert_eq!(fragments_needed(1_000, split_threshold(8_000, 8, 1.0)), 1);
    }

    #[test]
    fn empty_and_degenerate_ranges_stay_usable() {
        // Zero total: the threshold floors at one byte so empty jobs do
        // not divide by zero downstream, and an empty range still gets one
        // (empty) fragment.
        assert_eq!(split_threshold(0, 4, 1.5), 1);
        assert_eq!(fragments_needed(0, 1), 1);
        assert_eq!(split_even(0, 3), vec![0, 0, 0]);
        // A single reducer absorbs everything without splitting.
        let thr = split_threshold(10_000, 1, 1.0);
        assert_eq!(fragments_needed(10_000, thr), 1);
    }

    #[test]
    fn split_even_conserves_and_balances() {
        for (bytes, parts) in [(10u64, 3usize), (7, 7), (1, 4), (1_000_003, 8)] {
            let parts_v = split_even(bytes, parts);
            assert_eq!(parts_v.iter().sum::<u64>(), bytes);
            let max = *parts_v.iter().max().unwrap();
            let min = *parts_v.iter().min().unwrap();
            assert!(max - min <= 1, "{bytes}/{parts}: {parts_v:?}");
        }
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        let weights = [931u64, 17, 450, 2, 0, 88, 600, 44];
        let total = 123_457u64;
        let parts = apportion(total, &weights);
        assert_eq!(parts.iter().sum::<u64>(), total);
        let wsum: u64 = weights.iter().sum();
        for (i, (&p, &w)) in parts.iter().zip(&weights).enumerate() {
            let ideal = total as f64 * w as f64 / wsum as f64;
            assert!((p as f64 - ideal).abs() <= 1.0, "part {i}: {p} vs {ideal}");
        }
        // Zero weights get zero bytes; all-zero weights split evenly.
        assert_eq!(parts[4], 0);
        assert_eq!(apportion(10, &[0, 0, 0, 0]).iter().sum::<u64>(), 10);
    }

    /// [`apportion`] as first written: every product in `u128`, every
    /// remainder sorted.
    fn apportion_u128(total: u64, weights: &[u64]) -> Vec<u64> {
        let wsum: u64 = weights.iter().sum();
        if wsum == 0 {
            return split_even(total, weights.len());
        }
        let mut out = Vec::new();
        let mut remainders = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let num = total as u128 * w as u128;
            out.push((num / wsum as u128) as u64);
            remainders.push((num % wsum as u128, i));
        }
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let left = total - out.iter().sum::<u64>();
        for &(_, i) in remainders.iter().take(left as usize) {
            out[i] += 1;
        }
        out
    }

    #[test]
    fn apportion_matches_a_u128_reference() {
        // u64::MAX = 255 · 72 340 172 838 076 673, and 2^32 · 2^32 is one
        // past it: the last product the u64 path takes and the first it
        // leaves to u128.
        let q = u64::MAX / 255;
        let mut cases: Vec<(u64, Vec<u64>)> = vec![
            (255, vec![q - 2_000, 1_000, 1_000]),
            (255, vec![q]),
            (1 << 32, vec![1 << 31, 1 << 30, (1 << 30) - 1, 1]),
            (u64::MAX, vec![3, 0, 5, 1 << 40]),
            (1_000, vec![0, 7, 0, 13, 0]),
            (9, vec![0, 0, 0]),
            // Every remainder equal: the lowest indices take the leftovers.
            (10, vec![1, 1, 1]),
            (7, vec![2, 2, 2, 2]),
            (0, vec![4, 9]),
        ];
        // Tiny xorshift: the test needs arbitrary, not good, numbers.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2_000 {
            let total = next() >> (next() % 64);
            let len = 1 + (next() % 12) as usize;
            // Below 2^59 each, so twelve weights cannot overflow their sum.
            let weights = (0..len).map(|_| next() >> (5 + next() % 59)).collect();
            cases.push((total, weights));
        }
        let wide = (cases.iter())
            .filter(|(t, w)| t.checked_mul(w.iter().sum()).is_none())
            .count();
        assert!(
            wide > 100 && wide < cases.len() - 100,
            "{wide} of {} wide",
            cases.len()
        );
        for (total, weights) in &cases {
            let parts = apportion(*total, weights);
            assert_eq!(
                parts,
                apportion_u128(*total, weights),
                "{total} over {weights:?}"
            );
        }
        assert_eq!(apportion(10, &[1, 1, 1]), vec![4, 3, 3]);
    }

    #[test]
    #[should_panic]
    fn split_factor_below_one_rejected() {
        split_threshold(1_000, 4, 0.5);
    }
}
