//! Replica placement.
//!
//! HDFS places block replicas without looking at block *content* — the root
//! cause of the paper's problem. The DFS places every block's replicas on
//! distinct nodes chosen uniformly at random, the model of the paper's
//! analysis (Section II-B).

use crate::ids::NodeId;
use crate::topology::Topology;
use rand::seq::SliceRandom;
use rand::Rng;

/// `min(replication, topology.len())` distinct nodes, uniformly at random.
pub(crate) fn place_random<R: Rng + ?Sized>(
    topology: &Topology,
    replication: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = topology.nodes().collect();
    let take = replication.min(topology.len());
    nodes.choose_multiple(rng, take).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn distinct(nodes: &[NodeId]) -> bool {
        nodes.iter().collect::<HashSet<_>>().len() == nodes.len()
    }

    #[test]
    fn random_placement_distinct_and_sized() {
        let t = Topology::single_rack(32);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = place_random(&t, 3, &mut rng);
            assert_eq!(p.len(), 3);
            assert!(distinct(&p));
            assert!(p.iter().all(|n| n.0 < 32));
        }
    }

    #[test]
    fn random_placement_clamps_to_cluster_size() {
        let t = Topology::single_rack(2);
        let mut rng = StdRng::seed_from_u64(1);
        let p = place_random(&t, 3, &mut rng);
        assert_eq!(p.len(), 2);
        assert!(distinct(&p));
    }

    #[test]
    fn random_placement_covers_all_nodes_eventually() {
        let t = Topology::single_rack(8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            for n in place_random(&t, 3, &mut rng) {
                seen.insert(n);
            }
        }
        assert_eq!(seen.len(), 8, "placement should touch every node");
    }

    #[test]
    fn placement_is_deterministic_under_seed() {
        let t = Topology::single_rack(32);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(place_random(&t, 3, &mut a), place_random(&t, 3, &mut b));
        }
    }
}
