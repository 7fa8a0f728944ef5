//! The simulated cluster: a fleet of [`SimNode`]s behind one non-blocking
//! switch (Marmot: "all nodes are connected to the same switch").
//!
//! Transfers serialise on the sender's outbound NIC and the receiver's
//! inbound NIC; the switch fabric itself is non-blocking, which matches a
//! single enterprise GigE switch at this node count.

use crate::node::{NodeSpec, SimNode};
use crate::time::SimTime;

/// A simulated cluster (homogeneous or heterogeneous).
#[derive(Debug, Clone)]
pub struct SimCluster {
    nodes: Vec<SimNode>,
    specs: Vec<NodeSpec>,
}

impl SimCluster {
    /// `n` identical nodes with the given spec.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn homogeneous(n: usize, spec: NodeSpec) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Self::heterogeneous(&vec![spec; n])
    }

    /// One node per spec — a heterogeneous fleet (mixed hardware
    /// generations, the environment Section IV-B's capability-proportional
    /// assignment targets).
    ///
    /// # Panics
    /// Panics on an empty spec list or an invalid spec.
    pub fn heterogeneous(specs: &[NodeSpec]) -> Self {
        assert!(!specs.is_empty(), "cluster needs at least one node");
        for s in specs {
            s.validate();
        }
        Self {
            nodes: specs.iter().map(|&s| SimNode::new(s)).collect(),
            specs: specs.to_vec(),
        }
    }

    /// Marmot-calibrated cluster of `n` nodes.
    pub fn marmot(n: usize) -> Self {
        Self::homogeneous(n, NodeSpec::marmot())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (≥1 node by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The spec shared by every node.
    ///
    /// # Panics
    /// Panics on a heterogeneous cluster — ask each [`SimCluster::node`]
    /// for its [`SimNode::spec`].
    pub fn spec(&self) -> &NodeSpec {
        assert!(
            self.specs.iter().all(|s| s == &self.specs[0]),
            "heterogeneous cluster has no single spec"
        );
        &self.specs[0]
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, i: usize) -> &mut SimNode {
        &mut self.nodes[i]
    }

    /// Read-only access to one node.
    pub fn node(&self, i: usize) -> &SimNode {
        &self.nodes[i]
    }

    /// Transfer `bytes` from node `src` to node `dst`, ready at `ready`.
    /// Returns `(start, end)`. Local "transfers" (src == dst) are free —
    /// the engine models local disk I/O separately.
    pub fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        ready: SimTime,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        if src == dst || bytes == 0 {
            return (ready, ready);
        }
        // A transfer runs at the slower endpoint's NIC rate.
        let rate = self.specs[src].nic_bps.min(self.specs[dst].nic_bps);
        let duration = SimTime::for_bytes(bytes, rate);
        // The transfer needs both NICs simultaneously: start when both are
        // free, then occupy both for the duration.
        let start = ready
            .max(self.nodes[src].nic_out().busy_until())
            .max(self.nodes[dst].nic_in().busy_until());
        let (_, end_out) = self.nodes[src].nic_out().reserve(start, duration);
        let (_, end_in) = self.nodes[dst].nic_in().reserve(start, duration);
        debug_assert_eq!(end_out, end_in);
        (start, end_out)
    }

    /// Reset every node to idle.
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            n.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimCluster {
        SimCluster::homogeneous(
            3,
            NodeSpec {
                disk_bps: 100,
                cpu_bps: 100,
                nic_bps: 100,
            },
        )
    }

    #[test]
    fn transfer_takes_bytes_over_nic_rate() {
        let mut c = tiny();
        let (s, e) = c.transfer(0, 1, SimTime::ZERO, 200);
        assert_eq!(s, SimTime::ZERO);
        assert_eq!(e, SimTime::from_secs(2));
    }

    #[test]
    fn sender_nic_serialises_two_outgoing_transfers() {
        let mut c = tiny();
        c.transfer(0, 1, SimTime::ZERO, 100);
        let (s, e) = c.transfer(0, 2, SimTime::ZERO, 100);
        assert_eq!(s, SimTime::from_secs(1));
        assert_eq!(e, SimTime::from_secs(2));
    }

    #[test]
    fn receiver_nic_serialises_two_incoming_transfers() {
        let mut c = tiny();
        c.transfer(0, 2, SimTime::ZERO, 100);
        let (s, _) = c.transfer(1, 2, SimTime::ZERO, 100);
        assert_eq!(s, SimTime::from_secs(1));
    }

    #[test]
    fn disjoint_pairs_transfer_in_parallel() {
        let mut c = SimCluster::homogeneous(
            4,
            NodeSpec {
                disk_bps: 100,
                cpu_bps: 100,
                nic_bps: 100,
            },
        );
        let (_, e1) = c.transfer(0, 1, SimTime::ZERO, 100);
        let (_, e2) = c.transfer(2, 3, SimTime::ZERO, 100);
        // Non-blocking switch: both finish at t=1.
        assert_eq!(e1, SimTime::from_secs(1));
        assert_eq!(e2, SimTime::from_secs(1));
    }

    #[test]
    fn local_transfer_is_free() {
        let mut c = tiny();
        let (s, e) = c.transfer(1, 1, SimTime::from_secs(5), 1_000_000);
        assert_eq!(s, e);
        assert_eq!(e, SimTime::from_secs(5));
    }

    #[test]
    fn quiescence_tracks_all_nodes() {
        let mut c = tiny();
        c.node_mut(2).read_disk(SimTime::ZERO, 500);
        let busy = |c: &SimCluster| (c.nodes.iter()).map(|n| n.disk().busy_until()).max();
        assert_eq!(busy(&c), Some(SimTime::from_secs(5)));
        c.reset();
        assert_eq!(busy(&c), Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic]
    fn empty_cluster_rejected() {
        SimCluster::homogeneous(0, NodeSpec::marmot());
    }

    #[test]
    fn heterogeneous_transfer_uses_slower_nic() {
        let fast = NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 200,
        };
        let slow = NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 50,
        };
        let mut c = SimCluster::heterogeneous(&[fast, slow]);
        let (_, end) = c.transfer(0, 1, SimTime::ZERO, 100);
        assert_eq!(end, SimTime::from_secs(2), "bounded by the 50 B/s NIC");
        assert_eq!(c.specs[0].nic_bps, 200);
    }

    #[test]
    #[should_panic]
    fn spec_of_heterogeneous_cluster_via_spec_panics() {
        let a = NodeSpec {
            disk_bps: 1,
            cpu_bps: 1,
            nic_bps: 1,
        };
        let b = NodeSpec {
            disk_bps: 2,
            cpu_bps: 2,
            nic_bps: 2,
        };
        let _ = SimCluster::heterogeneous(&[a, b]).spec();
    }
}
