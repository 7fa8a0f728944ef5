//! Cluster topology: the data-node fleet.
//!
//! The paper's Marmot testbed connects all 128 nodes to one switch, so a
//! topology is just its node count: every node reads every other node's
//! disk at the same NIC rate.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Static description of the data-node fleet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    nodes: u32,
}

impl Topology {
    /// `nodes` data nodes behind one switch (Marmot).
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn single_rack(nodes: u32) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        Self { nodes }
    }

    /// Number of data nodes.
    pub fn len(&self) -> usize {
        self.nodes as usize
    }

    /// Whether the fleet has no node: never for [`Topology::single_rack`],
    /// but a deserialised topology is whatever its bytes say.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_groups_everyone() {
        let t = Topology::single_rack(128);
        assert_eq!(t.len(), 128);
        assert_eq!(t.nodes().count(), 128);
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        Topology::single_rack(0);
    }
}
