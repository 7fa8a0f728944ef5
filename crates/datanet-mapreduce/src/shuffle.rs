//! Distribution-aware shuffle: reduce-side partitioning from the key
//! distribution the ElasticMap already holds (ROADMAP item 1).
//!
//! The paper's largest single win (4–5× shuffle speedup, Figure 7) comes
//! from what crosses the network *after* the map side that Algorithm 1
//! balances. This module closes that gap on the reduce side:
//!
//! 1. **Per-key-range pricing.** The intermediate key space is hashed into
//!    a fixed number of ranges ([`key_range_of`]) and Equation 6 is
//!    evaluated *per range*: τ₁ blocks contribute their exact `|s∩b|`
//!    bytes scaled by the block's write-time range profile, τ₂ blocks
//!    contribute `δ` scaled the same way ([`range_matrix_estimate`]). The
//!    result is a per-(node, range) byte matrix — the per-block statistics
//!    argument of *Only Aggressive Elephants are Fast Elephants* applied
//!    to the shuffle.
//! 2. **Locality-first assignment.** [`ShufflePlanner::plan`] walks ranges
//!    heaviest-first (LPT) and parks each one on the node that already
//!    holds most of its bytes — the bipartite graph's node side — subject
//!    to a fair-share load cap, so a range whose bytes are concentrated on
//!    its writer node never crosses the network at all.
//! 3. **Heavy-key splitting.** A range heavier than
//!    [`crate::skewtune::split_threshold`] fragments across reducers
//!    (`crate::skewtune::fragments_needed`) instead of serialising one
//!    reducer — the proactive version of the SkewTune migration this
//!    crate's `crate::skewtune` module models after the fact. The split
//!    is merged back deterministically by the data plane (sequence-number
//!    sort), so answers are byte-identical to an unsplit run.
//!
//! The hash baseline ([`ShufflePlan::hash`]) is the classic
//! `hash(key) % reducers` partitioner: correct, skew-blind, and
//! locality-blind — the plan `tests/shuffle.rs` and the `pipeline_shuffle`
//! benchmark workload measure the planner against.

use crate::skewtune::{apportion, fragments_needed, split_even, split_threshold};
use datanet::SubDatasetView;
pub use datanet_dfs::key_range_of;
use datanet_dfs::{Dfs, NodeId, SubDatasetId};

/// SplitMix64 finalizer — the same deterministic scrambler the record
/// payloads use, applied here to spread keys over ranges and the hash
/// baseline over reducers.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One fragment of a key range: which reducer slot receives it and what
/// fraction of the range's bytes it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    /// Index into [`ShufflePlan::reducers`].
    pub reducer: usize,
    /// Fraction of the range routed to this fragment (fragments of one
    /// range sum to 1).
    pub share: f64,
}

/// A reduce-side partitioning: which node runs each reducer slot and how
/// every key range maps onto those slots — possibly split across several
/// when the range is heavier than the split threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ShufflePlan {
    /// Node hosting each reducer slot.
    pub reducers: Vec<NodeId>,
    /// Per key range: the fragments it splits into (a single full-share
    /// fragment when the range is light).
    pub assignments: Vec<Vec<Fragment>>,
    /// Estimated bytes per key range the plan was built from (zeros for
    /// the hash baseline, which does not look at the distribution).
    pub est_ranges: Vec<u64>,
}

impl ShufflePlan {
    /// The classic hash partitioner: range `g` goes whole to reducer
    /// `scramble(g) % m`. Skew- and locality-blind; the baseline every
    /// aware plan is measured against.
    ///
    /// # Panics
    /// Panics if `reducers` is empty or `ranges == 0`.
    pub fn hash(ranges: usize, reducers: Vec<NodeId>) -> Self {
        assert!(!reducers.is_empty(), "need at least one reducer");
        assert!(ranges > 0, "need at least one key range");
        let m = reducers.len();
        let assignments = (0..ranges)
            .map(|g| {
                vec![Fragment {
                    reducer: (splitmix(g as u64) % m as u64) as usize,
                    share: 1.0,
                }]
            })
            .collect();
        Self {
            reducers,
            assignments,
            est_ranges: vec![0; ranges],
        }
    }

    /// Number of key ranges this plan covers.
    pub fn key_ranges(&self) -> usize {
        self.assignments.len()
    }

    /// Deterministic fragment pick for the `seq`-th emitted pair of a key
    /// range: share-weighted, but a pure function of `(range, seq)`, so
    /// every replay routes identically and the merge step can restore the
    /// exact emission order from the sequence numbers alone.
    ///
    /// Returns the *reducer slot* index.
    pub fn fragment_slot(&self, range: usize, seq: u64) -> usize {
        let frags = &self.assignments[range];
        if frags.len() == 1 {
            return frags[0].reducer;
        }
        let u = splitmix(seq ^ (range as u64).rotate_left(32)) as f64 / u64::MAX as f64;
        let mut acc = 0.0;
        for f in frags {
            acc += f.share;
            if u < acc {
                return f.reducer;
            }
        }
        frags.last().expect("validated non-empty").reducer
    }

    /// Planned bytes per reducer slot when the estimate matrix is exact:
    /// each range's estimate apportioned over its fragment shares
    /// (largest-remainder, so the loads sum to the estimate total).
    pub fn planned_load(&self) -> Vec<u64> {
        let mut load = vec![0u64; self.reducers.len()];
        for (g, frags) in self.assignments.iter().enumerate() {
            let shares: Vec<f64> = frags.iter().map(|f| f.share).collect();
            for (f, bytes) in frags
                .iter()
                .zip(apportion_shares(self.est_ranges[g], &shares))
            {
                load[f.reducer] += bytes;
            }
        }
        load
    }

    /// Structural invariants: aligned lengths, at least one reducer, every
    /// fragment pointing at a real slot, and per-range shares that are
    /// positive and sum to 1.
    ///
    /// # Panics
    /// Panics on violation.
    pub fn validate(&self) {
        assert!(!self.reducers.is_empty(), "plan needs reducers");
        assert!(!self.assignments.is_empty(), "plan needs key ranges");
        assert_eq!(
            self.assignments.len(),
            self.est_ranges.len(),
            "one estimate per key range"
        );
        for (g, frags) in self.assignments.iter().enumerate() {
            assert!(!frags.is_empty(), "range {g} has no fragment");
            let mut sum = 0.0;
            for f in frags {
                assert!(f.reducer < self.reducers.len(), "range {g}: bad slot");
                assert!(
                    f.share.is_finite() && f.share > 0.0,
                    "range {g}: non-positive share"
                );
                sum += f.share;
            }
            assert!((sum - 1.0).abs() < 1e-9, "range {g}: shares sum to {sum}");
        }
    }
}

/// Exact integer split of `total` over f64 `shares` (largest remainder on
/// the share weights scaled to integers). Shares are the validated plan
/// fractions, so a 2^32 fixed-point scaling loses nothing that matters.
pub(crate) fn apportion_shares(total: u64, shares: &[f64]) -> Vec<u64> {
    let weights: Vec<u64> = shares
        .iter()
        .map(|&s| (s * 4_294_967_296.0).round() as u64)
        .collect();
    apportion(total, &weights)
}

/// Builds [`ShufflePlan`]s from a per-(node, key-range) byte matrix.
#[derive(Debug, Clone)]
pub struct ShufflePlanner {
    split_factor: f64,
    /// Disables placement entirely and funnels every range onto slot 0 —
    /// always `false` in production. See
    /// [`ShufflePlanner::plant_reducer_overload`].
    overload: bool,
}

impl ShufflePlanner {
    /// A planner that splits any range heavier than `split_factor` fair
    /// shares.
    ///
    /// # Panics
    /// Panics unless `split_factor` is finite and ≥ 1.
    pub fn new(split_factor: f64) -> Self {
        assert!(
            split_factor.is_finite() && split_factor >= 1.0,
            "split factor must be a finite value >= 1"
        );
        Self {
            split_factor,
            overload: false,
        }
    }

    /// Fault injection for the simulation checker: route *every* key range
    /// to reducer slot 0, ignoring both locality and the load cap — the
    /// reducer-overload bug the `reduce-skew` oracle exists to catch.
    /// Hidden from docs; never set in production code.
    #[doc(hidden)]
    pub fn plant_reducer_overload(&mut self) {
        self.overload = true;
    }

    /// Build a plan from `est`, the per-(node, key-range) byte estimate
    /// matrix (one row per node; [`range_matrix_estimate`] produces it
    /// from the ElasticMap). One reducer slot per node.
    ///
    /// Ranges are walked heaviest-first. A range heavier than the split
    /// threshold fragments into even pieces (at most one per reducer);
    /// each fragment goes to the unused node holding the most of the
    /// range's bytes whose load stays under `fair + threshold`, falling
    /// back to the least-loaded unused node — the standard LPT argument
    /// then bounds every planned load by `fair + max(threshold,
    /// ceil(max_range / m))`, which is exactly what the `reduce-skew`
    /// oracle checks (plus estimation slack).
    ///
    /// # Panics
    /// Panics if `est` is empty, rows are ragged, or there are no ranges.
    pub fn plan(&self, est: &[Vec<u64>]) -> ShufflePlan {
        let m = est.len();
        assert!(m > 0, "need at least one node");
        let ranges = est[0].len();
        assert!(ranges > 0, "need at least one key range");
        assert!(
            est.iter().all(|row| row.len() == ranges),
            "ragged estimate matrix"
        );
        let reducers: Vec<NodeId> = (0..m as u32).map(NodeId).collect();
        let totals: Vec<u64> = (0..ranges)
            .map(|g| est.iter().map(|row| row[g]).sum())
            .collect();

        if self.overload {
            // Planted bug: everything onto slot 0.
            return ShufflePlan {
                reducers,
                assignments: (0..ranges)
                    .map(|_| {
                        vec![Fragment {
                            reducer: 0,
                            share: 1.0,
                        }]
                    })
                    .collect(),
                est_ranges: totals,
            };
        }

        let total: u64 = totals.iter().sum();
        let fair = total / m as u64;
        let threshold = split_threshold(total, m, self.split_factor);
        let cap = fair + threshold;
        let mut load = vec![0u64; m];
        let mut assignments: Vec<Vec<Fragment>> = vec![Vec::new(); ranges];

        let mut order: Vec<usize> = (0..ranges).collect();
        order.sort_by(|&a, &b| totals[b].cmp(&totals[a]).then(a.cmp(&b)));
        for g in order {
            let t = totals[g];
            if t == 0 {
                // Nothing to place; park on the hash slot so empty ranges
                // stay deterministic and load-neutral.
                assignments[g] = vec![Fragment {
                    reducer: (splitmix(g as u64) % m as u64) as usize,
                    share: 1.0,
                }];
                continue;
            }
            let nfrags = fragments_needed(t, threshold).min(m);
            let frag_bytes = split_even(t, nfrags);
            // Nodes ranked by how much of this range they already hold —
            // the node side of the bipartite distribution graph.
            let mut local_order: Vec<usize> = (0..m).collect();
            local_order.sort_by(|&a, &b| est[b][g].cmp(&est[a][g]).then(a.cmp(&b)));
            let mut used = vec![false; m];
            let mut frags = Vec::with_capacity(nfrags);
            for &fb in &frag_bytes {
                // Most-local unused node that still fits under the cap…
                let pick = local_order
                    .iter()
                    .copied()
                    .find(|&n| !used[n] && load[n] + fb <= cap)
                    // …otherwise the least-loaded unused node (exists:
                    // nfrags ≤ m).
                    .unwrap_or_else(|| {
                        (0..m)
                            .filter(|&n| !used[n])
                            .min_by_key(|&n| (load[n], n))
                            .expect("nfrags <= m leaves an unused node")
                    });
                used[pick] = true;
                load[pick] += fb;
                frags.push(Fragment {
                    reducer: pick,
                    share: fb as f64 / t as f64,
                });
            }
            assignments[g] = frags;
        }

        let plan = ShufflePlan {
            reducers,
            assignments,
            est_ranges: totals,
        };
        plan.validate();
        plan
    }
}

/// Equation 6 per key range, from the ElasticMap view: every block's Eq. 6
/// weight (`|s∩b|` for τ₁, `δ` for τ₂) is spread over ranges by the
/// block's write-time range profile ([`Dfs::range_profile`], built once per
/// `ranges` value and extended as blocks are appended) and credited to the
/// block's primary holder. Rows are nodes, columns are key ranges. Touches
/// the view's blocks only, and no record.
pub fn range_matrix_estimate(dfs: &Dfs, view: &SubDatasetView, ranges: usize) -> Vec<Vec<u64>> {
    let nodes = dfs.namenode().node_count();
    let mut matrix = vec![vec![0u64; ranges]; nodes];
    let profile = dfs.range_profile(ranges);
    let bloom = view.bloom().iter().map(|&b| (b, view.delta()));
    for (b, weight) in view.exact().iter().copied().chain(bloom) {
        if weight == 0 {
            continue;
        }
        let home = dfs.replicas(b)[0].index();
        for (g, bytes) in apportion(weight, profile.of(b)).into_iter().enumerate() {
            matrix[home][g] += bytes;
        }
    }
    matrix
}

/// Ground-truth per-(node, key-range) bytes of sub-dataset `s`: every
/// record credited to its block's primary holder and its timestamp's key
/// range. What the simulation engine executes against (the estimate
/// matrix is what the planner sees). Reads through `Block::filter`: only
/// the blocks whose size table lists `s`.
pub fn range_matrix_truth(dfs: &Dfs, s: SubDatasetId, ranges: usize) -> Vec<Vec<u64>> {
    let nodes = dfs.namenode().node_count();
    let mut matrix = vec![vec![0u64; ranges]; nodes];
    for block in dfs.blocks() {
        let home = dfs.replicas(block.id())[0].index();
        for r in block.filter(s) {
            matrix[home][key_range_of(r.timestamp, ranges)] += u64::from(r.size);
        }
    }
    matrix
}

/// The load bound a correct planner guarantees, in the same byte units as
/// `range_totals`: `fair + max(threshold, ceil(max_range / m))`. The
/// second term covers the unavoidable case of a single range heavier than
/// `m` whole thresholds, which even a perfect splitter can only spread
/// over all `m` reducers.
pub fn planned_load_bound(range_totals: &[u64], reducers: usize, split_factor: f64) -> u64 {
    assert!(reducers > 0, "need at least one reducer");
    let total: u64 = range_totals.iter().sum();
    let fair = total / reducers as u64;
    let threshold = split_threshold(total, reducers, split_factor);
    let max_range = range_totals.iter().copied().max().unwrap_or(0);
    let widest = max_range.div_ceil(reducers as u64);
    fair + threshold.max(widest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{DfsConfig, Record, Topology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A DFS whose target sub-dataset is strongly node-clustered: block k
    /// holds records whose timestamps all hash into a range "owned" by
    /// node k % n, so an aware plan can keep almost everything local.
    fn clustered_dfs(nodes: u32, ranges: usize) -> (Dfs, SubDatasetId) {
        let mut rng = StdRng::seed_from_u64(7);
        let target = SubDatasetId(1);
        let mut records = Vec::new();
        // Pre-compute a timestamp per range by rejection.
        let mut ts_for_range = vec![None; ranges];
        let mut ts = 0u64;
        while ts_for_range.iter().any(Option::is_none) {
            let g = key_range_of(ts, ranges);
            if ts_for_range[g].is_none() {
                ts_for_range[g] = Some(ts);
            }
            ts += 1;
        }
        for i in 0..2_000u64 {
            let g = (i % ranges as u64) as usize;
            let ts = ts_for_range[g].unwrap();
            let sub = if rng.gen_bool(0.8) {
                target
            } else {
                SubDatasetId(2)
            };
            records.push(Record::new(sub, ts, 200 + (i % 5) as u32 * 40, i));
        }
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 4_000,
                replication: 2,
                topology: Topology::single_rack(nodes),
                seed: 99,
            },
            records,
        );
        (dfs, target)
    }

    #[test]
    fn key_ranges_cover_and_spread() {
        let ranges = 16;
        let mut hits = vec![0usize; ranges];
        for k in 0..16_000u64 {
            hits[key_range_of(k, ranges)] += 1;
        }
        // SplitMix spreads sequential keys nearly uniformly.
        assert!(hits.iter().all(|&h| h > 600), "{hits:?}");
    }

    #[test]
    fn hash_plan_is_whole_range_and_valid() {
        let plan = ShufflePlan::hash(32, (0..4).map(NodeId).collect());
        plan.validate();
        assert!(plan.assignments.iter().all(|f| f.len() == 1));
        // Every slot gets some range (32 ranges over 4 slots).
        let mut seen = [false; 4];
        for f in &plan.assignments {
            seen[f[0].reducer] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn planner_respects_the_load_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let m = rng.gen_range(2..10usize);
            let ranges = rng.gen_range(4..40usize);
            let est: Vec<Vec<u64>> = (0..m)
                .map(|_| (0..ranges).map(|_| rng.gen_range(0..50_000u64)).collect())
                .collect();
            let factor = rng.gen_range(1.0..1.6);
            let plan = ShufflePlanner::new(factor).plan(&est);
            plan.validate();
            let totals = &plan.est_ranges;
            let bound = planned_load_bound(totals, m, factor);
            let max = plan.planned_load().into_iter().max().unwrap();
            // +ranges for per-range largest-remainder rounding.
            assert!(
                max <= bound + ranges as u64,
                "max load {max} > bound {bound} (m={m}, ranges={ranges})"
            );
        }
    }

    #[test]
    fn heavy_range_splits_across_reducers() {
        // One range dwarfs the rest: it must fragment, and its fragments
        // must land on distinct reducers.
        let m = 4;
        let mut est = vec![vec![100u64; 8]; m];
        est[0][3] = 100_000;
        let plan = ShufflePlanner::new(1.0).plan(&est);
        let frags = &plan.assignments[3];
        assert!(frags.len() >= 2, "heavy range did not split: {frags:?}");
        let mut slots: Vec<usize> = frags.iter().map(|f| f.reducer).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), frags.len(), "fragments share a reducer");
    }

    #[test]
    fn uniform_ranges_stay_whole() {
        let est = vec![vec![1_000u64; 16]; 4];
        let plan = ShufflePlanner::new(1.25).plan(&est);
        assert!(plan.assignments.iter().all(|f| f.len() == 1));
    }

    #[test]
    fn aware_plan_prefers_local_reducers() {
        // Diagonal concentration: node i holds all of range i. The aware
        // plan must put each range's reducer on its holder.
        let m = 6;
        let est: Vec<Vec<u64>> = (0..m)
            .map(|i| (0..m).map(|g| if g == i { 10_000 } else { 0 }).collect())
            .collect();
        let plan = ShufflePlanner::new(1.25).plan(&est);
        for (g, frags) in plan.assignments.iter().enumerate() {
            assert_eq!(frags.len(), 1);
            assert_eq!(frags[0].reducer, g, "range {g} placed off its holder");
        }
    }

    #[test]
    fn planted_overload_funnels_everything_to_slot_zero() {
        let est = vec![vec![1_000u64; 8]; 4];
        let mut planner = ShufflePlanner::new(1.25);
        planner.plant_reducer_overload();
        let plan = planner.plan(&est);
        plan.validate();
        assert!(plan
            .assignments
            .iter()
            .all(|f| f.len() == 1 && f[0].reducer == 0));
        let load = plan.planned_load();
        assert_eq!(load[0], 8 * 4 * 1_000);
        assert!(load[1..].iter().all(|&l| l == 0));
    }

    #[test]
    fn estimate_matrix_tracks_truth_on_clustered_data() {
        let (dfs, target) = clustered_dfs(5, 10);
        let arr = datanet::ElasticMapArray::build(&dfs, &datanet::Separation::Alpha(0.3));
        let view = arr.view(target);
        let est = range_matrix_estimate(&dfs, &view, 10);
        let truth = range_matrix_truth(&dfs, target, 10);
        let est_total: u64 = est.iter().flatten().sum();
        let truth_total: u64 = truth.iter().flatten().sum();
        assert_eq!(est_total, view.estimated_total());
        assert_eq!(truth_total, dfs.subdataset_total(target));
        // Equation 6 keeps the totals close on an α-separated workload.
        let err = (est_total as f64 - truth_total as f64).abs() / truth_total as f64;
        assert!(err < 0.5, "estimate off by {err:.2}");
    }

    #[test]
    fn fragment_slot_is_deterministic_and_share_weighted() {
        let plan = ShufflePlan {
            reducers: (0..4).map(NodeId).collect(),
            assignments: vec![vec![
                Fragment {
                    reducer: 1,
                    share: 0.75,
                },
                Fragment {
                    reducer: 3,
                    share: 0.25,
                },
            ]],
            est_ranges: vec![1_000],
        };
        plan.validate();
        let picks: Vec<usize> = (0..10_000).map(|s| plan.fragment_slot(0, s)).collect();
        assert_eq!(
            picks,
            (0..10_000)
                .map(|s| plan.fragment_slot(0, s))
                .collect::<Vec<_>>()
        );
        let to_one = picks.iter().filter(|&&p| p == 1).count();
        assert!(
            (6_500..8_500).contains(&to_one),
            "share skewed: {to_one}/10000"
        );
        assert!(picks.iter().all(|&p| p == 1 || p == 3));
    }
}
