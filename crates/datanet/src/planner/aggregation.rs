//! Aggregation-traffic planning — the extension the paper sketches and
//! defers ("For applications with aggregation requirements … ElasticMap can
//! also be used to minimize the data transferred with the knowledge of
//! sub-dataset distributions. We leave the optimization of the sub-dataset
//! transfer problem as a future work", Section IV-B).
//!
//! After the map phase each node `i` holds `out_i` bytes of intermediate
//! data. A reducer placed on node `n` with partition share `p` receives
//! `p · Σout` bytes, of which `p · out_n` is already local. Cross-network
//! traffic is therefore
//!
//! ```text
//! traffic = Σ_r share_r · (total − out_{node_r})
//! ```
//!
//! which is minimised by (a) placing reducers on the nodes holding the most
//! intermediate data and (b) skewing partition shares toward
//! data-rich reducers — bounded by a configurable reduce-side imbalance
//! factor so reduce workload stays acceptable.

use datanet_dfs::NodeId;

/// A reducer placement with weighted partition shares.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationPlan {
    /// Chosen reducer nodes (distinct).
    pub reducers: Vec<NodeId>,
    /// Partition share per reducer, aligned with `reducers`; sums to 1.
    pub shares: Vec<f64>,
    /// Estimated bytes crossing the network under this plan.
    pub est_traffic: u64,
}

impl AggregationPlan {
    /// The Hadoop default on an `m`-node cluster: one reducer per node,
    /// uniform partition shares.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn uniform(m: usize) -> Self {
        assert!(m > 0, "need at least one partition");
        Self::uniform_on((0..m as u32).map(NodeId).collect())
    }

    /// Uniform reducers on the survivors of a cluster holding per-node
    /// partitions `filtered`: every node but the `dead` ones. Dead nodes
    /// must hold empty partitions — the fault-tolerant selection rebuilt
    /// their data on survivors — so they contribute no map output and no
    /// shuffle traffic.
    ///
    /// # Panics
    /// Panics if a dead node still holds filtered bytes or no node survives.
    pub fn uniform_over(filtered: &[u64], dead: &[usize]) -> Self {
        for &n in dead {
            let bytes = filtered[n];
            assert!(
                bytes == 0,
                "dead node {n} still credited with {bytes} filtered bytes"
            );
        }
        let reducers: Vec<NodeId> = (0..filtered.len())
            .filter(|n| !dead.contains(n))
            .map(|n| NodeId(n as u32))
            .collect();
        assert!(!reducers.is_empty(), "no surviving node to analyse on");
        Self::uniform_on(reducers)
    }

    fn uniform_on(reducers: Vec<NodeId>) -> Self {
        Self {
            shares: vec![1.0 / reducers.len() as f64; reducers.len()],
            reducers,
            est_traffic: 0,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    /// Panics if shares/reducers are misaligned or shares don't sum to 1.
    pub fn validate(&self) {
        assert_eq!(self.reducers.len(), self.shares.len());
        assert!(!self.reducers.is_empty(), "need at least one reducer");
        let sum: f64 = self.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert!(self.shares.iter().all(|&s| s >= 0.0));
        let mut sorted: Vec<NodeId> = self.reducers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), self.reducers.len(), "duplicate reducers");
    }

    /// Largest share over the uniform share — the reduce-side imbalance
    /// this plan accepts in exchange for lower traffic.
    pub fn reduce_imbalance(&self) -> f64 {
        let max = self.shares.iter().cloned().fold(0.0f64, f64::max);
        max * self.reducers.len() as f64
    }
}

/// Plan reducer placement and shares from per-node map-output volumes.
///
/// * `reducers` — how many reduce tasks to run.
/// * `max_skew` — cap on any reducer's share relative to uniform (1.0 =
///   strictly uniform shares, 2.0 = a reducer may take up to twice the
///   uniform share). The reduce phase's own balance bound.
///
/// # Panics
/// Panics on an empty cluster, `reducers` out of range, or `max_skew < 1`.
pub fn plan_aggregation(map_output: &[u64], reducers: usize, max_skew: f64) -> AggregationPlan {
    assert!(!map_output.is_empty(), "need at least one node");
    assert!(
        reducers > 0 && reducers <= map_output.len(),
        "reducer count {reducers} out of range"
    );
    assert!(max_skew >= 1.0, "max_skew must be >= 1, got {max_skew}");
    let total: u64 = map_output.iter().sum();

    // (a) Place reducers on the data-richest nodes.
    let mut by_output: Vec<usize> = (0..map_output.len()).collect();
    by_output.sort_by(|&a, &b| map_output[b].cmp(&map_output[a]).then(a.cmp(&b)));
    let chosen: Vec<usize> = by_output.into_iter().take(reducers).collect();

    // (b) Skew shares toward reducers with more local data, bounded by
    // max_skew and re-normalised. Proportional-to-local-data with floor and
    // ceiling, solved by clamping + water-filling on the remainder.
    let uniform = 1.0 / reducers as f64;
    let ceiling = uniform * max_skew;
    let floor = uniform / max_skew;
    let local: Vec<f64> = chosen.iter().map(|&n| map_output[n] as f64).collect();
    let local_sum: f64 = local.iter().sum();
    let mut shares: Vec<f64> = if local_sum == 0.0 || total == 0 {
        vec![uniform; reducers]
    } else {
        local
            .iter()
            .map(|&l| (l / local_sum).clamp(floor, ceiling))
            .collect()
    };
    // Normalise while respecting bounds (a couple of passes suffice for
    // our small reducer counts).
    for _ in 0..32 {
        let sum: f64 = shares.iter().sum();
        if (sum - 1.0).abs() < 1e-12 {
            break;
        }
        let scale = 1.0 / sum;
        for s in &mut shares {
            *s = (*s * scale).clamp(floor, ceiling);
        }
    }
    // Final exact normalisation (bounds may round a hair; accept ±ε on the
    // clamp rather than a share sum ≠ 1).
    let sum: f64 = shares.iter().sum();
    for s in &mut shares {
        *s /= sum;
    }

    let est_traffic = chosen
        .iter()
        .zip(&shares)
        .map(|(&n, &p)| (p * (total - map_output[n]) as f64) as u64)
        .sum();

    AggregationPlan {
        reducers: chosen.into_iter().map(|n| NodeId(n as u32)).collect(),
        shares,
        est_traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Cross-network traffic of an arbitrary placement with uniform shares —
    /// the Hadoop default (reducers land wherever slots are free; we charge the
    /// canonical nodes `0..R`).
    fn uniform_baseline_traffic(map_output: &[u64], reducers: usize) -> u64 {
        assert!(reducers > 0 && reducers <= map_output.len());
        let total: u64 = map_output.iter().sum();
        let share = 1.0 / reducers as f64;
        (0..reducers)
            .map(|r| (share * (total - map_output[r]) as f64) as u64)
            .sum()
    }

    #[test]
    fn picks_data_richest_nodes() {
        let out = [10u64, 500, 20, 300, 5, 40];
        let plan = plan_aggregation(&out, 2, 1.0);
        plan.validate();
        assert_eq!(plan.reducers, vec![NodeId(1), NodeId(3)]);
        // Uniform shares at max_skew = 1.
        assert!(plan.shares.iter().all(|&s| (s - 0.5).abs() < 1e-9));
    }

    #[test]
    fn beats_uniform_baseline() {
        let out = [1000u64, 10, 10, 10, 800, 10, 10, 10];
        let naive = uniform_baseline_traffic(&out, 2);
        let plan = plan_aggregation(&out, 2, 1.0);
        assert!(
            plan.est_traffic < naive,
            "planned {} !< naive {naive}",
            plan.est_traffic
        );
    }

    #[test]
    fn skew_reduces_traffic_further() {
        let out = [1000u64, 10, 10, 10, 200, 10, 10, 10];
        let flat = plan_aggregation(&out, 2, 1.0);
        let skewed = plan_aggregation(&out, 2, 2.0);
        skewed.validate();
        assert!(skewed.est_traffic <= flat.est_traffic);
        assert!(skewed.reduce_imbalance() <= 2.0 + 1e-9);
        // The data-rich reducer holds the bigger share.
        assert!(skewed.shares[0] > skewed.shares[1]);
    }

    #[test]
    fn all_nodes_as_reducers_with_uniform_data_is_neutral() {
        let out = [100u64; 4];
        let plan = plan_aggregation(&out, 4, 3.0);
        plan.validate();
        // Uniform data: shares stay uniform and traffic equals baseline.
        assert_eq!(plan.est_traffic, uniform_baseline_traffic(&out, 4));
        assert!((plan.reduce_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_output_degrades_gracefully() {
        let out = [0u64; 4];
        let plan = plan_aggregation(&out, 2, 2.0);
        plan.validate();
        assert_eq!(plan.est_traffic, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_reducers() {
        plan_aggregation(&[1, 2], 0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_skew_below_one() {
        plan_aggregation(&[1, 2], 1, 0.5);
    }

    #[test]
    fn aggregation_plan_is_valid_and_never_worse_than_uniform() {
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xa000 + case);
            let len = rng.gen_range(2..40);
            let outputs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..5_000_000)).collect();
            let reducer_frac = rng.gen_range(0.1f64..1.0);
            let skew = rng.gen_range(1.0f64..4.0);
            let reducers = ((outputs.len() as f64 * reducer_frac) as usize).clamp(1, outputs.len());
            let plan = plan_aggregation(&outputs, reducers, skew);
            plan.validate();
            assert!(plan.reduce_imbalance() <= skew + 1e-6, "case {case}");
            // Placement on the richest nodes can't lose to canonical placement
            // at the same reducer count with uniform shares.
            let naive = uniform_baseline_traffic(&outputs, reducers);
            let placed_uniform = plan_aggregation(&outputs, reducers, 1.0);
            assert!(placed_uniform.est_traffic <= naive, "case {case}");
            // Weighted shares can't exceed the placed-uniform traffic by more
            // than rounding.
            assert!(
                plan.est_traffic <= placed_uniform.est_traffic + reducers as u64,
                "case {case}"
            );
        }
    }
}
