//! Simulated compute/data nodes.
//!
//! A node owns three serial resources — disk, CPU (the task-slot core set)
//! and NIC (one timeline per direction) — plus rate parameters calibrated to
//! the paper's Marmot hardware (dual 1.6 GHz Opterons, 2 TB SATA disk,
//! Gigabit Ethernet).

use crate::resource::Timeline;
use crate::time::SimTime;

/// Static node performance parameters (bytes per second).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Sequential disk bandwidth.
    pub disk_bps: u64,
    /// Baseline CPU processing bandwidth: how many input bytes per second a
    /// map task with `compute_factor == 1.0` digests.
    pub cpu_bps: u64,
    /// NIC bandwidth per direction.
    pub nic_bps: u64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self::marmot()
    }
}

impl NodeSpec {
    /// Marmot-like calibration: 80 MB/s SATA disk, 117 MB/s GigE (after
    /// protocol overhead), 200 MB/s of single-slot scan throughput on the
    /// 1.6 GHz Opterons.
    pub fn marmot() -> Self {
        Self {
            disk_bps: 80_000_000,
            cpu_bps: 200_000_000,
            nic_bps: 117_000_000,
        }
    }

    /// Validate rates.
    ///
    /// # Panics
    /// Panics if any rate is zero.
    pub fn validate(&self) {
        assert!(self.disk_bps > 0, "disk rate must be positive");
        assert!(self.cpu_bps > 0, "cpu rate must be positive");
        assert!(self.nic_bps > 0, "nic rate must be positive");
    }
}

/// Dynamic node state: the resource timelines.
#[derive(Debug, Clone)]
pub struct SimNode {
    spec: NodeSpec,
    disk: Timeline,
    cpu: Timeline,
    nic_out: Timeline,
    nic_in: Timeline,
}

impl SimNode {
    /// A fresh node.
    pub fn new(spec: NodeSpec) -> Self {
        spec.validate();
        Self {
            spec,
            disk: Timeline::new(),
            cpu: Timeline::new(),
            nic_out: Timeline::new(),
            nic_in: Timeline::new(),
        }
    }

    /// The node's rate parameters.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Read `bytes` from local disk, ready at `ready`. Returns `(start,
    /// end)`.
    pub fn read_disk(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.disk
            .reserve(ready, SimTime::for_bytes(bytes, self.spec.disk_bps))
    }

    /// Write `bytes` to local disk.
    pub fn write_disk(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.read_disk(ready, bytes)
    }

    /// Process `bytes` of input on the CPU with a job-specific
    /// `compute_factor` (1.0 = baseline scan; Top-K similarity ≫ 1).
    ///
    /// # Panics
    /// Panics on a non-positive factor.
    pub fn compute(
        &mut self,
        ready: SimTime,
        bytes: u64,
        compute_factor: f64,
    ) -> (SimTime, SimTime) {
        assert!(
            compute_factor.is_finite() && compute_factor > 0.0,
            "compute factor must be positive, got {compute_factor}"
        );
        let effective = (bytes as f64 * compute_factor).ceil() as u64;
        self.cpu
            .reserve(ready, SimTime::for_bytes(effective, self.spec.cpu_bps))
    }

    /// Outbound NIC timeline (used by the cluster's transfer model).
    pub(crate) fn nic_out(&mut self) -> &mut Timeline {
        &mut self.nic_out
    }

    /// Inbound NIC timeline.
    pub(crate) fn nic_in(&mut self) -> &mut Timeline {
        &mut self.nic_in
    }

    /// Disk timeline (read-only view for stats).
    pub fn disk(&self) -> &Timeline {
        &self.disk
    }

    /// CPU timeline (read-only view for stats).
    pub fn cpu(&self) -> &Timeline {
        &self.cpu
    }

    /// Reset all timelines to idle.
    pub fn reset(&mut self) {
        self.disk.reset();
        self.cpu.reset();
        self.nic_out.reset();
        self.nic_in.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// When every resource on the node is idle again.
    fn quiescent_at(n: &SimNode) -> SimTime {
        [&n.disk, &n.cpu, &n.nic_out, &n.nic_in]
            .map(|t| t.busy_until())
            .into_iter()
            .max()
            .unwrap()
    }

    #[test]
    fn disk_read_time_matches_rate() {
        let mut n = SimNode::new(NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 100,
        });
        let (s, e) = n.read_disk(SimTime::ZERO, 200);
        assert_eq!(s, SimTime::ZERO);
        assert_eq!(e, SimTime::from_secs(2));
    }

    #[test]
    fn compute_scales_with_factor() {
        let mut n = SimNode::new(NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 100,
        });
        let (_, e1) = n.compute(SimTime::ZERO, 100, 1.0);
        assert_eq!(e1, SimTime::from_secs(1));
        let mut n2 = SimNode::new(NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 100,
        });
        let (_, e5) = n2.compute(SimTime::ZERO, 100, 5.0);
        assert_eq!(e5, SimTime::from_secs(5));
    }

    #[test]
    fn disk_and_cpu_are_independent_resources() {
        let mut n = SimNode::new(NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 100,
        });
        let (_, de) = n.read_disk(SimTime::ZERO, 100);
        let (cs, _) = n.compute(SimTime::ZERO, 100, 1.0);
        // CPU can start while the disk is busy.
        assert_eq!(cs, SimTime::ZERO);
        assert_eq!(de, SimTime::from_secs(1));
    }

    #[test]
    fn same_resource_serialises() {
        let mut n = SimNode::new(NodeSpec {
            disk_bps: 100,
            cpu_bps: 100,
            nic_bps: 100,
        });
        n.read_disk(SimTime::ZERO, 100);
        let (s2, e2) = n.read_disk(SimTime::ZERO, 100);
        assert_eq!(s2, SimTime::from_secs(1));
        assert_eq!(e2, SimTime::from_secs(2));
        assert_eq!(quiescent_at(&n), SimTime::from_secs(2));
    }

    #[test]
    fn marmot_spec_sanity() {
        let s = NodeSpec::marmot();
        s.validate();
        assert!(s.nic_bps > s.disk_bps, "GigE outpaces one SATA disk");
    }

    #[test]
    fn reset_restores_idle() {
        let mut n = SimNode::new(NodeSpec::marmot());
        n.read_disk(SimTime::ZERO, 1_000_000);
        n.reset();
        assert_eq!(quiescent_at(&n), SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn zero_factor_rejected() {
        SimNode::new(NodeSpec::marmot()).compute(SimTime::ZERO, 10, 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_spec_rejected() {
        SimNode::new(NodeSpec {
            disk_bps: 0,
            cpu_bps: 1,
            nic_bps: 1,
        });
    }
}
