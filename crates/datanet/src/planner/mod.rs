//! Distribution-aware task planners (Section IV-B).
//!
//! * [`Algorithm1`] — the paper's greedy, pull-based workload balancer.
//! * [`FordFulkersonPlanner`] — the max-flow-based optimal assignment the
//!   paper recommends for homogeneous clusters.
//!
//! Both produce an [`Assignment`] mapping every in-scope block to exactly
//! one compute node.

mod aggregation;
mod algorithm1;
mod cache;
mod maxflow;

pub use aggregation::{plan_aggregation, uniform_baseline_traffic, AggregationPlan};
pub use algorithm1::{Algorithm1, BalancePolicy};
pub use cache::{EpochKey, PlanCache};
pub use maxflow::FordFulkersonPlanner;

use crate::scan::ElasticMapArray;
use datanet_dfs::{BlockId, Dfs, NodeId, SubDatasetId};
use serde::{Deserialize, Serialize};

/// Plan one [`Algorithm1`] balanced assignment per sub-dataset.
///
/// Resolves all the views in one batched array walk
/// ([`ElasticMapArray::views`] — each id's exact blocks come off its chain
/// of exact entries, and only the other blocks probe a Bloom filter), then
/// runs the greedy planner per view.
/// Output is element-wise identical to calling
/// `Algorithm1::new(dfs, &array.view(id)).plan_balanced()` per id.
pub fn plan_balanced_batch(
    dfs: &Dfs,
    array: &ElasticMapArray,
    ids: &[SubDatasetId],
) -> Vec<Assignment> {
    array
        .views(ids)
        .iter()
        .map(|view| Algorithm1::new(dfs, view).plan_balanced())
        .collect()
}

/// A complete map-task assignment: each block processed by exactly one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `tasks[n]` = blocks assigned to node `n`, in assignment order.
    tasks: Vec<Vec<BlockId>>,
    /// `workloads[n]` = Σ weights of the blocks assigned to node `n`.
    workloads: Vec<u64>,
    /// Assignments whose block was node-local.
    local_hits: usize,
    total: usize,
}

impl Assignment {
    /// An empty assignment over `nodes` compute nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            tasks: vec![Vec::new(); nodes],
            workloads: vec![0; nodes],
            local_hits: 0,
            total: 0,
        }
    }

    /// Record that `node` will process `block` carrying `weight` bytes of
    /// the target sub-dataset; `local` marks data-local assignments.
    pub fn assign(&mut self, node: NodeId, block: BlockId, weight: u64, local: bool) {
        self.tasks[node.index()].push(block);
        self.workloads[node.index()] += weight;
        if local {
            self.local_hits += 1;
        }
        self.total += 1;
    }

    /// Blocks assigned to one node.
    pub fn tasks_of(&self, n: NodeId) -> &[BlockId] {
        &self.tasks[n.index()]
    }

    /// Per-node workloads (bytes of the target sub-dataset).
    pub fn workloads(&self) -> &[u64] {
        &self.workloads
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> usize {
        self.tasks.len()
    }

    /// Total number of assigned blocks.
    pub fn assigned_blocks(&self) -> usize {
        self.total
    }

    /// Fraction of assignments that were data-local.
    pub fn locality_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.local_hits as f64 / self.total as f64
    }

    /// Max-over-mean workload imbalance (1.0 = perfectly balanced). The
    /// lower-bound witness for Figures 1(b)/5(c)/10.
    pub fn imbalance(&self) -> f64 {
        let max = *self.workloads.iter().max().unwrap_or(&0);
        let sum: u64 = self.workloads.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / self.workloads.len() as f64;
        max as f64 / mean
    }

    /// Largest per-node workload (proportional to makespan for
    /// workload-bound jobs).
    pub fn max_workload(&self) -> u64 {
        *self.workloads.iter().max().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bookkeeping() {
        let mut a = Assignment::new(2);
        a.assign(NodeId(0), BlockId(0), 100, true);
        a.assign(NodeId(0), BlockId(1), 50, false);
        a.assign(NodeId(1), BlockId(2), 150, true);
        assert_eq!(a.assigned_blocks(), 3);
        assert_eq!(a.workloads(), &[150, 150]);
        assert_eq!(a.tasks_of(NodeId(0)), &[BlockId(0), BlockId(1)]);
        assert_eq!(a.tasks_of(NodeId(1)), &[BlockId(2)]);
        assert!((a.locality_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_skewed_assignment() {
        let mut a = Assignment::new(2);
        a.assign(NodeId(0), BlockId(0), 300, true);
        a.assign(NodeId(1), BlockId(1), 100, true);
        // mean 200, max 300 → 1.5
        assert!((a.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(a.max_workload(), 300);
    }

    #[test]
    fn empty_assignment_is_balanced() {
        let a = Assignment::new(4);
        assert_eq!(a.imbalance(), 1.0);
        assert_eq!(a.locality_fraction(), 1.0);
        assert_eq!(a.assigned_blocks(), 0);
    }
}
