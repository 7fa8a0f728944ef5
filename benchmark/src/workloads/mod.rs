//! The five workloads and what their op lists share.
//!
//! Op lists are drawn so that their *multiset* of ops is the same for every
//! seed and only the order, the pairing and the per-op details change: a
//! seeded shuffle of a fixed band of popularity ranks, and Zipf draws taken
//! at evenly spaced quantiles and then shuffled. Independent draws would
//! let one seed get more hot sub-datasets than another, and the seed-to-seed
//! spread of p90 over ~100 ops would swamp a 10 % bound.

pub mod ingest_stream;
pub mod pipeline_shuffle;
pub mod query_cold;
pub mod query_hot;
pub mod serve_mixed;

use crate::stats::SplitMix64;
use datanet::{Assignment, SubDatasetView};
use datanet_dfs::{BlockId, NodeId};

/// Popularity ranks ops aim at: below the hottest few, whose views span
/// nearly every block and cost several times the rest (a second latency
/// mode), and above the long tail of near-empty sub-datasets. The hot head
/// is exercised by the probe set and the batched companions instead.
pub const BAND: std::ops::RangeInclusive<usize> = 8..=135;

/// `ops × per_op` ranks in `0..n`, Zipf(`exponent`)-distributed, `per_op`
/// to each op. The draws sit at the evenly spaced quantiles
/// `(k + ½) / count`, so the multiset is the same for every seed; sorted,
/// they are cut into `per_op` strata of `ops` draws each, and every op gets
/// one seed-shuffled draw from each stratum. Each op therefore asks for the
/// same mix of hot and cold sub-datasets, and which op gets which member of
/// a stratum is the seed's choice.
pub fn zipf_stratified(
    n: usize,
    exponent: f64,
    ops: usize,
    per_op: usize,
    rng: &mut SplitMix64,
) -> Vec<Vec<usize>> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 1..=n {
        acc += (r as f64).powf(-exponent);
        cdf.push(acc);
    }
    let count = ops * per_op;
    let mut ranks: Vec<usize> = (0..count)
        .map(|k| {
            let u = (k as f64 + 0.5) / count as f64 * acc;
            cdf.partition_point(|&c| c < u).min(n - 1)
        })
        .collect();
    for stratum in ranks.chunks_mut(ops) {
        rng.shuffle(stratum);
    }
    (0..ops)
        .map(|i| (0..per_op).map(|s| ranks[s * ops + i]).collect())
        .collect()
}

/// `count` ranks cycling through [`BAND`], shuffled: the same multiset for
/// every seed.
pub fn band_targets(count: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut ranks: Vec<usize> = BAND.cycle().take(count).collect();
    rng.shuffle(&mut ranks);
    ranks
}

/// Whether `plan` assigns every block of `view` to exactly one node and
/// nothing else. `seen` is scratch of at least the DFS block count.
pub fn assigns_exactly_once(plan: &Assignment, view: &SubDatasetView, seen: &mut [bool]) -> bool {
    seen.fill(false);
    let mut assigned = 0usize;
    for n in 0..plan.node_count() {
        for b in plan.tasks_of(NodeId(n as u32)) {
            if std::mem::replace(&mut seen[b.index()], true) {
                return false;
            }
            assigned += 1;
        }
    }
    assigned == view.block_count() && view.blocks().all(|b| seen[b.index()])
}

/// Equation 6 on one (possibly degraded) view: the estimate `Z` sits within
/// `Σ_{b∈τ₂} |truth_b − δ|` of the true total over the blocks the view
/// knows about — the envelope `datanet-check`'s `eq6-envelope` oracle pins.
pub fn within_eq6_envelope(view: &SubDatasetView, truth: &[u64], unknown: &[BlockId]) -> bool {
    let known_total: i128 = truth
        .iter()
        .enumerate()
        .filter(|(i, _)| !unknown.contains(&BlockId(*i as u32)))
        .map(|(_, &t)| t as i128)
        .sum();
    let delta = view.delta() as i128;
    let envelope: i128 = view
        .bloom()
        .iter()
        .map(|b| (truth[b.index()] as i128 - delta).abs())
        .sum();
    (view.estimated_total() as i128 - known_total).abs() <= envelope
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn stratified_zipf_is_the_same_multiset_for_every_seed() {
        let a = zipf_stratified(8000, 1.1, 100, 7, &mut SplitMix64(1));
        let b = zipf_stratified(8000, 1.1, 100, 7, &mut SplitMix64(2));
        assert_ne!(a, b, "the dealing is seeded");
        let flat = |v: &[Vec<usize>]| sorted(v.iter().flatten().copied().collect());
        assert_eq!(flat(&a), flat(&b));
        // Zipf head: rank 0 holds about 1/6 of the mass at s = 1.1, n = 8000.
        let hot = flat(&a).iter().filter(|&&r| r == 0).count();
        assert!((90..150).contains(&hot), "rank 0 drawn {hot} times");
        // One draw per stratum: every op gets the hottest sub-dataset and a
        // tail one, and strata do not overlap except at their edges.
        for op in &a {
            assert_eq!(op.len(), 7);
            assert_eq!(op[0], 0);
            assert!(op[6] > 100);
            assert!(op.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn band_targets_cover_the_band_evenly() {
        let t = band_targets(200, &mut SplitMix64(9));
        assert_eq!(t.len(), 200);
        assert!(t.iter().all(|r| BAND.contains(r)));
        let band_len = BAND.count();
        for r in BAND {
            let uses = t.iter().filter(|&&x| x == r).count();
            assert!((200 / band_len..=200 / band_len + 1).contains(&uses));
        }
        assert_ne!(t, band_targets(200, &mut SplitMix64(10)));
    }
}
