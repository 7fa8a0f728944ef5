//! The NameNode: block-location metadata.
//!
//! Keeps exactly what HDFS keeps — which nodes hold each block's replicas —
//! and deliberately nothing about sub-dataset content. Both the baseline
//! locality scheduler and DataNet's bipartite graph are built from these
//! mappings.

use crate::ids::{BlockId, NodeId};
use std::sync::Arc;

/// The actual metadata tables, shared immutably between NameNode handles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tables {
    /// `replicas[b]` = nodes holding block `b`. Dense by BlockId.
    replicas: Vec<Vec<NodeId>>,
    /// `local_blocks[n]` = blocks with a replica on node `n`. Dense by NodeId.
    local_blocks: Vec<Vec<BlockId>>,
}

/// Block → replica-locations metadata plus the inverted node → blocks index.
///
/// The tables live behind an [`Arc`]: cloning a NameNode hands out another
/// reference to the same immutable snapshot (a refcount bump, not a
/// per-block deep copy), which is what lets every planner instance carry
/// its own handle for free — the metadata hot path constructs thousands of
/// planners against one cluster. [`NameNode::register`] copies-on-write,
/// so a writer never mutates snapshots other handles are reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameNode {
    tables: Arc<Tables>,
    /// Monotonic mutation counter: bumped exactly once per metadata
    /// mutation ([`NameNode::register`]). Plan caches key on this — two
    /// handles with equal epochs observed the same mutation history, so
    /// any plan computed against one is valid against the other.
    epoch: u64,
}

impl NameNode {
    /// An empty NameNode for a cluster of `nodes` data nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            tables: Arc::new(Tables {
                replicas: Vec::new(),
                local_blocks: vec![Vec::new(); nodes],
            }),
            epoch: 0,
        }
    }

    /// The metadata epoch: how many mutations this handle has observed.
    /// Clones freeze the epoch alongside the snapshot they share, so a
    /// reader can tell whether a writer moved on without comparing tables.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register block `b` with its replica locations. Blocks must be
    /// registered in id order (the writer seals them in order). Copies the
    /// tables first if other handles share this snapshot.
    ///
    /// # Panics
    /// Panics if the block id is out of order, locations are empty, or a
    /// location refers to an unknown node.
    pub fn register(&mut self, b: BlockId, locations: Vec<NodeId>) {
        let tables = Arc::make_mut(&mut self.tables);
        assert_eq!(
            b.index(),
            tables.replicas.len(),
            "blocks must be registered densely in order"
        );
        assert!(!locations.is_empty(), "a block needs at least one replica");
        for &n in &locations {
            assert!(
                n.index() < tables.local_blocks.len(),
                "location {n} outside cluster of {} nodes",
                tables.local_blocks.len()
            );
            tables.local_blocks[n.index()].push(b);
        }
        tables.replicas.push(locations);
        self.epoch += 1;
    }

    /// Number of registered blocks.
    pub fn block_count(&self) -> usize {
        self.tables.replicas.len()
    }

    /// Number of data nodes.
    pub fn node_count(&self) -> usize {
        self.tables.local_blocks.len()
    }

    /// Replica locations of a block.
    pub fn replicas(&self, b: BlockId) -> &[NodeId] {
        &self.tables.replicas[b.index()]
    }

    /// Blocks with a replica on node `n`.
    pub fn blocks_on(&self, n: NodeId) -> &[BlockId] {
        &self.tables.local_blocks[n.index()]
    }

    /// Whether node `n` holds a replica of block `b`.
    pub fn is_local(&self, b: BlockId, n: NodeId) -> bool {
        self.replicas(b).contains(&n)
    }

    /// Iterate `(block, replicas)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[NodeId])> {
        self.tables
            .replicas
            .iter()
            .enumerate()
            .map(|(i, locs)| (BlockId(i as u32), locs.as_slice()))
    }

    /// Replica locations of `b` that are still alive under `alive`
    /// (indexed by node). Replicas on nodes outside the mask count as dead.
    pub fn surviving_replicas(&self, b: BlockId, alive: &[bool]) -> Vec<NodeId> {
        self.replicas(b)
            .iter()
            .copied()
            .filter(|n| alive.get(n.index()).copied().unwrap_or(false))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks with no surviving replica under `alive`: HDFS's "missing
    /// blocks".
    fn lost(nn: &NameNode, alive: &[bool]) -> Vec<BlockId> {
        (nn.iter().map(|(b, _)| b))
            .filter(|&b| nn.surviving_replicas(b, alive).is_empty())
            .collect()
    }

    fn sample() -> NameNode {
        let mut nn = NameNode::new(4);
        nn.register(BlockId(0), vec![NodeId(0), NodeId(1), NodeId(2)]);
        nn.register(BlockId(1), vec![NodeId(1), NodeId(2), NodeId(3)]);
        nn.register(BlockId(2), vec![NodeId(0), NodeId(3)]);
        nn
    }

    #[test]
    fn forward_and_inverted_indexes_agree() {
        let nn = sample();
        assert_eq!(nn.block_count(), 3);
        assert_eq!(nn.node_count(), 4);
        for (b, locs) in nn.iter() {
            for &n in locs {
                assert!(nn.blocks_on(n).contains(&b));
                assert!(nn.is_local(b, n));
            }
        }
        assert_eq!(nn.blocks_on(NodeId(0)), &[BlockId(0), BlockId(2)]);
        assert!(!nn.is_local(BlockId(0), NodeId(3)));
    }

    #[test]
    fn replica_counts() {
        let nn = sample();
        assert_eq!(nn.replicas(BlockId(0)).len(), 3);
        assert_eq!(nn.replicas(BlockId(2)).len(), 2);
    }

    #[test]
    fn surviving_replicas_excludes_dead_nodes() {
        let nn = sample();
        let alive = [true, false, true, false];
        assert_eq!(
            nn.surviving_replicas(BlockId(0), &alive),
            vec![NodeId(0), NodeId(2)]
        );
        assert_eq!(nn.surviving_replicas(BlockId(1), &alive), vec![NodeId(2)]);
        // Block 2 lives on nodes 0 and 3; only 0 survives.
        assert_eq!(nn.surviving_replicas(BlockId(2), &alive), vec![NodeId(0)]);
        assert!(lost(&nn, &alive).is_empty());
    }

    #[test]
    fn lost_blocks_reports_fully_dead_blocks() {
        let nn = sample();
        // Kill nodes 0 and 3: block 2 (replicas on 0, 3) loses everything.
        let alive = [false, true, true, false];
        assert_eq!(lost(&nn, &alive), vec![BlockId(2)]);
        assert!(nn.surviving_replicas(BlockId(2), &alive).is_empty());
        // Nothing survives an all-dead cluster.
        assert_eq!(lost(&nn, &[false; 4]).len(), 3);
    }

    /// Satellite acceptance: every mutation bumps the epoch exactly once,
    /// and the counter is monotonically readable from any handle.
    #[test]
    fn every_mutation_bumps_the_epoch_exactly_once() {
        let mut nn = NameNode::new(4);
        assert_eq!(nn.epoch(), 0);
        let mut last = 0;
        for b in 0..10u32 {
            nn.register(BlockId(b), vec![NodeId(b % 4)]);
            assert_eq!(nn.epoch(), last + 1, "register must bump exactly once");
            last = nn.epoch();
        }
        // Reads never move the counter.
        let _ = nn.block_count();
        let _ = nn.replicas(BlockId(0));
        let _ = nn.surviving_replicas(BlockId(0), &[true; 4]);
        assert_eq!(nn.epoch(), last);
    }

    #[test]
    fn clones_freeze_the_epoch_with_the_snapshot() {
        let nn = sample();
        let frozen = nn.clone();
        let mut writer = nn.clone();
        writer.register(BlockId(3), vec![NodeId(1)]);
        assert_eq!(frozen.epoch(), 3, "reader keeps the epoch it saw");
        assert_eq!(writer.epoch(), 4, "writer moved on");
        assert_ne!(frozen, writer);
    }

    #[test]
    fn register_after_clone_does_not_disturb_the_clone() {
        let nn = sample();
        let mut writer = nn.clone();
        writer.register(BlockId(3), vec![NodeId(1)]);
        assert_eq!(nn.block_count(), 3);
        assert_eq!(writer.block_count(), 4);
    }

    #[test]
    #[should_panic]
    fn out_of_order_registration_panics() {
        let mut nn = NameNode::new(2);
        nn.register(BlockId(1), vec![NodeId(0)]);
    }

    #[test]
    #[should_panic]
    fn empty_locations_panics() {
        let mut nn = NameNode::new(2);
        nn.register(BlockId(0), vec![]);
    }

    #[test]
    #[should_panic]
    fn unknown_node_panics() {
        let mut nn = NameNode::new(2);
        nn.register(BlockId(0), vec![NodeId(7)]);
    }
}
