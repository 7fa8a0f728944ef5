//! Algorithm 1 — the paper's distribution-aware balanced scheduler.
//!
//! Pull-based: when a worker on node `cn_i` requests a task,
//!
//! 1. if `d_i` (unassigned blocks local to `cn_i`) is non-empty, pick
//!    `x = argmin_x |W_i + |b_x ∩ s| − W̄|` among the local blocks;
//! 2. otherwise pick the same argmin over *all* remaining blocks;
//! 3. assign, add the block's weight to `W_i`, and remove the block's edges
//!    from the bipartite graph.
//!
//! `W̄ = (Σ_{τ₁}|s∩b| + δ|τ₂|) / m` is the Equation 6 estimate divided by
//! the cluster size (line 5).
//!
//! [`Algorithm1::next_task_for`] exposes the per-request decision so a live
//! scheduler (the MapReduce engine) can drive it from simulated worker
//! requests; [`Algorithm1::plan_balanced`] runs it to completion assuming
//! homogeneous workers (the least-loaded node requests next).

use crate::bipartite::DistributionGraph;
use crate::distribution::SubDatasetView;
use crate::planner::Assignment;
use datanet_dfs::{BlockId, Dfs, NameNode, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How a task request is matched to a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalancePolicy {
    /// The paper's literal line 10: `x = argmin |W_i + |b_x∩s| − W̄|`
    /// against the *terminal* per-node target. Under Hadoop's pull protocol
    /// — where every node keeps requesting at a near-constant cadence until
    /// the block pool drains — this best-fit rule strands heavy blocks
    /// (every node's residual gap shrinks below the heavy weights, which
    /// then land late on whichever node must take them) and overshoots the
    /// target on nodes that reached it early but must keep pulling. Kept
    /// for the ablation study.
    BestFitTerminal,
    /// The default: the same objective ("allow each computation node to
    /// have an equal amount of workload", Section IV-B) paced for
    /// constant-cadence pulls — *largest fit*: a requesting node takes the
    /// heaviest available block that keeps it at or under the target `W̄`,
    /// and only when nothing fits takes the lightest available block
    /// (minimum overshoot), so heavy blocks go first while nodes still have
    /// headroom. On the paper-scale movie dataset it balances better than
    /// [`BalancePolicy::BestFitTerminal`] (the `schedulers` test
    /// `paced_policy_beats_literal_best_fit`), and `datanet repro`'s `fig5`
    /// and `fig10` sections record its balance there. It does not rule out
    /// endgame stranding: on some other draws of the same workload heavy
    /// blocks still strand, and the plan ends at 1.28–1.47× max/avg.
    #[default]
    PacedGreedy,
}

/// Live state of Algorithm 1.
#[derive(Debug, Clone)]
pub struct Algorithm1 {
    graph: DistributionGraph,
    /// `W_i`: workload assigned to node `i` so far.
    workloads: Vec<u64>,
    /// Total weight assigned so far.
    assigned_total: u64,
    /// Per-node workload targets. Homogeneous clusters use the uniform
    /// `W̄ = Z/m`; Section IV-B's "according to the computing capability of
    /// computational nodes, we can calculate the amount of sub-datasets to
    /// be assigned to each node" maps to capability-proportional targets.
    targets: Vec<f64>,
    policy: BalancePolicy,
    /// Capabilities the targets were derived from; kept so targets can be
    /// recomputed over the survivors after a node loss.
    capabilities: Vec<f64>,
    /// Replica metadata snapshot, consulted when re-homing a lost node's
    /// blocks onto surviving replicas.
    namenode: NameNode,
    /// `alive[i]` — node `i` has not been reported lost.
    alive: Vec<bool>,
    /// Extra weight credited per assignment — always 0 in production. See
    /// [`Algorithm1::plant_credit_skew`].
    credit_skew: u64,
}

impl Algorithm1 {
    /// Set up the scheduler for one sub-dataset over a DFS with the default
    /// (paced) policy.
    pub fn new(dfs: &Dfs, view: &SubDatasetView) -> Self {
        Self::with_namenode(dfs.namenode(), view)
    }

    /// Set up from NameNode metadata directly.
    pub(crate) fn with_namenode(namenode: &NameNode, view: &SubDatasetView) -> Self {
        Self::with_policy(namenode, view, BalancePolicy::default())
    }

    /// Set up with an explicit balance policy (homogeneous targets).
    pub fn with_policy(namenode: &NameNode, view: &SubDatasetView, policy: BalancePolicy) -> Self {
        let m = namenode.node_count();
        Self::with_capabilities(namenode, view, policy, &vec![1.0; m])
    }

    /// Set up with per-node computing capabilities: node `i` is targeted
    /// with `Z · cap_i / Σ cap` bytes of the sub-dataset, so a node twice
    /// as fast receives twice the data and all nodes finish together.
    ///
    /// # Panics
    /// Panics if `capabilities.len()` mismatches the cluster size or any
    /// capability is non-positive.
    pub fn with_capabilities(
        namenode: &NameNode,
        view: &SubDatasetView,
        policy: BalancePolicy,
        capabilities: &[f64],
    ) -> Self {
        let graph = DistributionGraph::from_view(namenode, view);
        let m = namenode.node_count();
        assert!(m > 0, "cluster must have at least one node");
        assert_eq!(capabilities.len(), m, "one capability per node");
        assert!(
            capabilities.iter().all(|&c| c.is_finite() && c > 0.0),
            "capabilities must be positive"
        );
        let cap_sum: f64 = capabilities.iter().sum();
        // Line 5 generalised: W̄_i = Z · cap_i / Σcap (uniform caps give
        // exactly Equation 6 over m).
        let total = view.estimated_total() as f64;
        let targets = capabilities.iter().map(|c| total * c / cap_sum).collect();
        Self {
            graph,
            workloads: vec![0; m],
            assigned_total: 0,
            targets,
            policy,
            capabilities: capabilities.to_vec(),
            namenode: namenode.clone(),
            alive: vec![true; m],
            credit_skew: 0,
        }
    }

    /// Test-only fault hook: credit every assignment with `weight + skew`
    /// bytes instead of `weight`. The simulation-check harness plants an
    /// off-by-one here (`skew = 1`) in its self-test to prove the
    /// conservation oracle catches mis-accounting and shrinks the failing
    /// seed — see `datanet-check`. Never call this outside tests.
    #[doc(hidden)]
    pub fn plant_credit_skew(&mut self, skew: u64) {
        self.credit_skew = skew;
    }

    /// React to the fail-stop loss of `node` (the DataNet re-planning hook):
    ///
    /// 1. drop every edge to the dead node — its unassigned local blocks
    ///    stay schedulable, now remote-only;
    /// 2. forget the workload credited to it (its filtered partition died
    ///    with it) and re-enqueue `requeue` — the blocks it had been
    ///    assigned — against their *surviving* replicas;
    /// 3. recompute per-node targets over the survivors so the redistributed
    ///    weight keeps flowing capability-proportionally: each survivor is
    ///    targeted at its current workload plus its capability share of all
    ///    still-unassigned weight.
    ///
    /// # Panics
    /// Panics if a requeued block has no surviving replica (the caller must
    /// triage unrecoverable blocks first) or is still unassigned.
    pub fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        self.alive[node.index()] = false;
        self.graph.remove_node(node);
        self.assigned_total -= self.workloads[node.index()];
        self.workloads[node.index()] = 0;
        for &b in requeue {
            let survivors = self.namenode.surviving_replicas(b, &self.alive);
            assert!(
                !survivors.is_empty(),
                "block {b} has no surviving replica — filter unrecoverable blocks before requeueing"
            );
            self.graph.reinsert(b, survivors);
        }
        let cap_sum: f64 = (0..self.capabilities.len())
            .filter(|&i| self.alive[i])
            .map(|i| self.capabilities[i])
            .sum();
        assert!(cap_sum > 0.0, "every node is dead");
        let unassigned = self.graph.remaining_weight() as f64;
        for i in 0..self.targets.len() {
            self.targets[i] = if self.alive[i] {
                self.workloads[i] as f64 + unassigned * self.capabilities[i] / cap_sum
            } else {
                0.0
            };
        }
    }

    /// Whether `node` has been reported lost.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// The mean per-node target (equals the paper's `W̄` for homogeneous
    /// clusters).
    pub fn target(&self) -> f64 {
        self.targets.iter().sum::<f64>() / self.targets.len() as f64
    }

    /// Current `W_i` values.
    pub fn workloads(&self) -> &[u64] {
        &self.workloads
    }

    /// Remaining unassigned blocks.
    pub fn remaining(&self) -> usize {
        self.graph.remaining()
    }

    /// The policy the scheduler runs with.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// The paper's literal best-fit pick among the `candidates` slots.
    /// Ties break toward the lowest block id (slots are in id order) for
    /// determinism.
    fn pick_best_fit(
        &self,
        node: NodeId,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let wi = self.workloads[node.index()] as f64;
        let target = self.targets[node.index()];
        candidates
            .map(|s| ((wi + self.graph.slot_weight(s) as f64 - target).abs(), s))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("gaps are finite")
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, s)| s)
    }

    /// Serve one task request from `node` (lines 7–20). Returns the chosen
    /// block and whether it was node-local, or `None` when all tasks are
    /// assigned.
    pub fn next_task_for(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        let (slot, local) = self.next_slot_for(node)?;
        Some((self.graph.block(slot), local))
    }

    /// [`Algorithm1::next_task_for`] on graph slots.
    fn next_slot_for(&mut self, node: NodeId) -> Option<(usize, bool)> {
        if self.graph.remaining() == 0 {
            return None;
        }
        let (slot, local) = match self.policy {
            BalancePolicy::BestFitTerminal => {
                match self.pick_best_fit(node, self.graph.local_slots(node)) {
                    Some(s) => (s, true),
                    None => {
                        let s = self
                            .pick_best_fit(node, self.graph.live_slots())
                            .expect("remaining() > 0 guarantees a candidate");
                        (s, false)
                    }
                }
            }
            BalancePolicy::PacedGreedy => {
                // Candidates: the node's local blocks plus the globally
                // heaviest remaining block. Heavy blocks are only local to
                // their replica holders, whose headroom may already be
                // spent; letting every requester bid on the current global
                // heaviest guarantees heavies drain while *somebody* still
                // has headroom instead of stranding to the endgame.
                // A candidate fits when its weight is within the node's
                // remaining headroom `W̄ − W_i`.
                let graph = &mut self.graph;
                let my_headroom = self.targets[node.index()] - self.workloads[node.index()] as f64;
                let room = my_headroom.max(0.0);
                let local_fit = graph.largest_local_fit(node, room);
                let global_fit =
                    (graph.heaviest()).filter(|&g| graph.slot_weight(g) as f64 <= room);
                // Rescue rule: fetch the global heaviest remotely when it
                // fits this node, beats the local option, and every one of
                // its replica holders already has less headroom than this
                // node — i.e. the requester is a strictly better home for
                // the block than anywhere it lives. Heavies drain while the
                // cluster still has headroom; locality stays high because a
                // holder with room keeps priority.
                let rescue = global_fit.filter(|&g| {
                    let beats_local =
                        local_fit.is_none_or(|l| graph.slot_weight(g) > graph.slot_weight(l));
                    beats_local
                        && graph.slot_holders(g).iter().all(|h| {
                            *h != node
                                && self.targets[h.index()] - (self.workloads[h.index()] as f64)
                                    < my_headroom
                        })
                });
                if let Some(s) = rescue.or(local_fit).or(global_fit) {
                    (s, graph.slot_holders(s).contains(&node))
                } else {
                    // Nothing local fits the headroom: minimise overshoot.
                    // Prefer the lightest local block, but fall back to a
                    // non-local one when the local options are much heavier
                    // (Hadoop schedules non-local maps in this situation).
                    let light_local = graph.lightest_local(node);
                    let light_global = graph
                        .lightest()
                        .expect("remaining() > 0 guarantees a candidate");
                    match light_local {
                        Some(l)
                            if graph.slot_weight(l)
                                <= graph.slot_weight(light_global).saturating_mul(4) =>
                        {
                            (l, true)
                        }
                        _ => (light_global, false),
                    }
                }
            }
        };
        let credit = self.graph.slot_weight(slot) + self.credit_skew;
        self.workloads[node.index()] += credit;
        self.assigned_total += credit;
        self.graph.remove_slot(slot);
        Some((slot, local))
    }

    /// `W_i / target_i`, the load [`Algorithm1::plan_balanced`] orders
    /// requests by. Zero targets (empty views) degrade to plain
    /// least-loaded order.
    fn relative_load(&self, i: usize) -> f64 {
        let t = self.targets[i];
        if t > 0.0 {
            self.workloads[i] as f64 / t
        } else {
            self.workloads[i] as f64
        }
    }

    /// Record one served request for [`Assignment::from_picks`].
    fn pick(&self, node: NodeId, slot: usize, local: bool) -> (NodeId, BlockId, u64, bool) {
        (
            node,
            self.graph.block(slot),
            self.graph.slot_weight(slot),
            local,
        )
    }

    /// Run to completion assuming request rate proportional to capability:
    /// the node with the lowest *relative* load (`W_i / target_i`) issues
    /// the next request (ties → lowest id). For homogeneous clusters this
    /// is exactly least-loaded-first.
    pub fn plan_balanced(mut self) -> Assignment {
        let m = self.workloads.len();
        let mut picks = Vec::with_capacity(self.graph.remaining());
        // Loads are finite and ≥ 0, where bits order like numbers; only the
        // served node's load moves, so only the top entry is re-keyed.
        let mut requests: BinaryHeap<_> = (0..m)
            .map(|i| Reverse((self.relative_load(i).to_bits(), i)))
            .collect();
        while self.graph.remaining() > 0 {
            let mut top = requests.peek_mut().expect("one entry per node");
            let Reverse((_, i)) = *top;
            let node = NodeId(i as u32);
            let (slot, local) = self
                .next_slot_for(node)
                .expect("remaining() > 0 guarantees a task");
            *top = Reverse((self.relative_load(i).to_bits(), i));
            picks.push(self.pick(node, slot, local));
        }
        Assignment::from_picks(m, &picks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elasticmap::Separation;
    use crate::scan::ElasticMapArray;
    use datanet_dfs::{DfsConfig, Record, SubDatasetId, Topology};

    /// A clustered dataset: sub-dataset 0's per-block share decays
    /// geometrically (60·0.9^j records in block j), mimicking the release-
    /// time clustering of movie reviews. The varying block weights give a
    /// weight-aware scheduler real room to balance.
    fn clustered_dfs(nodes: u32) -> Dfs {
        let mut recs = Vec::new();
        for i in 0..4000u64 {
            let block = i / 100;
            let within = i % 100;
            let s0_share = (60.0 * 0.9f64.powi(block as i32)) as u64;
            let s = if within < s0_share { 0 } else { 1 + i % 20 };
            recs.push(Record::new(SubDatasetId(s), i, 100, i));
        }
        let cfg = DfsConfig {
            block_size: 10_000, // 40 blocks of 100 records
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 99,
        };
        Dfs::write_random(cfg, recs)
    }

    fn view_for(dfs: &Dfs, s: SubDatasetId) -> SubDatasetView {
        ElasticMapArray::build(dfs, &Separation::All).view(s)
    }

    #[test]
    fn every_block_assigned_exactly_once() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let a = Algorithm1::new(&dfs, &view).plan_balanced();
        assert_eq!(a.assigned_blocks(), view.block_count());
        // No block on two nodes.
        let mut seen = std::collections::HashSet::new();
        for n in 0..a.node_count() {
            for &b in a.tasks_of(NodeId(n as u32)) {
                assert!(seen.insert(b), "block {b} assigned twice");
            }
        }
    }

    #[test]
    fn workload_sums_are_conserved() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let total_view: u64 = view.estimated_total();
        let a = Algorithm1::new(&dfs, &view).plan_balanced();
        let total_assigned: u64 = a.workloads().iter().sum();
        assert_eq!(total_assigned, total_view);
    }

    #[test]
    fn balanced_plan_beats_ignorant_round_robin_on_clustered_data() {
        // Baseline: assign blocks round-robin by id, ignoring weights —
        // a stand-in for block-count-driven scheduling.
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let m = 8;
        let mut naive = Assignment::new(m);
        for (i, b) in view.blocks().enumerate() {
            naive.assign(NodeId((i % m) as u32), b, view.weight(b), false);
        }
        let smart = Algorithm1::new(&dfs, &view).plan_balanced();
        assert!(
            smart.imbalance() < naive.imbalance(),
            "algorithm1 {} vs naive {}",
            smart.imbalance(),
            naive.imbalance()
        );
        // On this clustered distribution the greedy balance should be
        // near-perfect while blind round-robin is visibly skewed.
        assert!(smart.imbalance() < 1.25, "got {}", smart.imbalance());
        assert!(naive.imbalance() > 1.3, "naive got {}", naive.imbalance());
    }

    #[test]
    fn prefers_local_blocks() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let a = Algorithm1::new(&dfs, &view).plan_balanced();
        // With 3-way replication on 8 nodes, most pulls should be local.
        assert!(
            a.locality_fraction() > 0.5,
            "locality {}",
            a.locality_fraction()
        );
    }

    #[test]
    fn next_task_exhausts_and_returns_none() {
        let dfs = clustered_dfs(4);
        let view = view_for(&dfs, SubDatasetId(0));
        let mut alg = Algorithm1::new(&dfs, &view);
        let mut count = 0;
        while alg.next_task_for(NodeId(count % 4)).is_some() {
            count += 1;
        }
        assert_eq!(count as usize, view.block_count());
        assert!(alg.next_task_for(NodeId(0)).is_none());
        assert_eq!(alg.remaining(), 0);
    }

    #[test]
    fn target_is_equation_six_over_m() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let alg = Algorithm1::new(&dfs, &view);
        assert!((alg.target() - view.estimated_total() as f64 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_plans() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let a = Algorithm1::new(&dfs, &view).plan_balanced();
        let b = Algorithm1::new(&dfs, &view).plan_balanced();
        assert_eq!(a, b);
    }

    #[test]
    fn capabilities_shift_workload_proportionally() {
        // A node advertised at 3x capability should receive roughly 3x the
        // bytes of a 1x node.
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let mut caps = vec![1.0f64; 8];
        caps[0] = 3.0;
        let plan = Algorithm1::with_capabilities(
            dfs.namenode(),
            &view,
            crate::planner::BalancePolicy::PacedGreedy,
            &caps,
        )
        .plan_balanced();
        let w = plan.workloads();
        let others = (1..8).map(|i| w[i]).sum::<u64>() as f64 / 7.0;
        let ratio = w[0] as f64 / others.max(1.0);
        assert!(
            (2.0..4.5).contains(&ratio),
            "fast node got {}x the average ({}) instead of ~3x",
            ratio,
            others
        );
    }

    #[test]
    fn uniform_capabilities_match_plain_constructor() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let a = Algorithm1::new(&dfs, &view).plan_balanced();
        let b = Algorithm1::with_capabilities(
            dfs.namenode(),
            &view,
            crate::planner::BalancePolicy::PacedGreedy,
            &[1.0; 8],
        )
        .plan_balanced();
        assert_eq!(a, b);
    }

    #[test]
    fn per_node_targets_sum_to_total() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let caps = [1.0, 2.0, 1.0, 0.5, 1.5, 1.0, 1.0, 1.0];
        let alg = Algorithm1::with_capabilities(
            dfs.namenode(),
            &view,
            crate::planner::BalancePolicy::PacedGreedy,
            &caps,
        );
        let sum: f64 = alg.targets.iter().sum();
        assert!((sum - view.estimated_total() as f64).abs() < 1e-6);
        assert!(alg.targets[1] > alg.targets[3]);
    }

    #[test]
    #[should_panic]
    fn zero_capability_rejected() {
        let dfs = clustered_dfs(4);
        let view = view_for(&dfs, SubDatasetId(0));
        Algorithm1::with_capabilities(
            dfs.namenode(),
            &view,
            crate::planner::BalancePolicy::PacedGreedy,
            &[1.0, 0.0, 1.0, 1.0],
        );
    }

    #[test]
    fn node_lost_requeues_onto_survivors() {
        let dfs = clustered_dfs(8);
        let view = view_for(&dfs, SubDatasetId(0));
        let mut alg = Algorithm1::new(&dfs, &view);
        // Node 2 pulls a few tasks, then dies.
        let mut node2_blocks = Vec::new();
        for _ in 0..4 {
            let (b, _) = alg.next_task_for(NodeId(2)).unwrap();
            node2_blocks.push(b);
        }
        let before_remaining = alg.remaining();
        alg.node_lost(NodeId(2), &node2_blocks);
        assert!(!alg.is_alive(NodeId(2)));
        assert_eq!(alg.remaining(), before_remaining + 4);
        assert_eq!(alg.workloads()[2], 0, "dead node's credit is forgotten");
        assert!(alg.targets[2].abs() < 1e-12);
        // Survivors drain everything, including the requeued blocks.
        let mut assigned = std::collections::HashSet::new();
        let mut i = 0u32;
        loop {
            let n = NodeId(i % 8);
            i += 1;
            if n == NodeId(2) {
                continue;
            }
            match alg.next_task_for(n) {
                Some((b, _)) => assert!(assigned.insert(b), "block {b} assigned twice"),
                None => break,
            }
        }
        for b in node2_blocks {
            assert!(assigned.contains(&b), "requeued block {b} was re-assigned");
        }
        let total: u64 = alg.workloads().iter().sum();
        assert_eq!(total, view.estimated_total(), "no bytes lost or doubled");
    }

    /// The naive reference the indexed [`DistributionGraph`] is checked
    /// against: `heaviest`/`lightest` answered by a full scan over every
    /// block the NameNode knows, per task request.
    struct RescanGraph {
        adj_node: Vec<Vec<BlockId>>,
        holders: Vec<Option<Vec<NodeId>>>,
        weight: Vec<u64>,
        remaining: usize,
    }

    impl RescanGraph {
        fn from_view(dfs: &Dfs, v: &SubDatasetView) -> Self {
            let nn = dfs.namenode();
            let total = nn.block_count();
            let mut holders: Vec<Option<Vec<NodeId>>> = vec![None; total];
            let mut weight = vec![0u64; total];
            let mut adj_node = vec![Vec::new(); nn.node_count()];
            let mut remaining = 0;
            for b in v.blocks() {
                let nodes = nn.replicas(b).to_vec();
                for &n in &nodes {
                    adj_node[n.index()].push(b);
                }
                holders[b.index()] = Some(nodes);
                weight[b.index()] = v.weight(b);
                remaining += 1;
            }
            Self {
                adj_node,
                holders,
                weight,
                remaining,
            }
        }

        fn contains(&self, b: BlockId) -> bool {
            self.holders[b.index()].is_some()
        }

        fn local_blocks(&self, n: NodeId) -> impl Iterator<Item = BlockId> + '_ {
            self.adj_node[n.index()]
                .iter()
                .copied()
                .filter(|&b| self.contains(b))
        }

        fn remaining_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
            self.holders
                .iter()
                .enumerate()
                .filter(|(_, h)| h.is_some())
                .map(|(i, _)| BlockId(i as u32))
        }

        fn remove(&mut self, b: BlockId) {
            self.holders[b.index()] = None;
            self.remaining -= 1;
        }
    }

    /// Algorithm 1 written naively (paced-greedy policy only, no fault
    /// hooks): the same picks as [`Algorithm1::plan_balanced`], but every
    /// global candidate is found by rescanning all blocks.
    fn naive_plan(dfs: &Dfs, v: &SubDatasetView) -> Assignment {
        let mut graph = RescanGraph::from_view(dfs, v);
        let m = dfs.namenode().node_count();
        let target = v.estimated_total() as f64 / m as f64;
        let mut workloads = vec![0u64; m];
        let mut assignment = Assignment::new(m);
        let largest_fit = |g: &RescanGraph,
                           w: &[u64],
                           node: NodeId,
                           cands: &mut dyn Iterator<Item = BlockId>|
         -> Option<BlockId> {
            let headroom = (target - w[node.index()] as f64).max(0.0);
            cands
                .map(|b| (g.weight[b.index()], b))
                .filter(|&(wt, _)| wt as f64 <= headroom)
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .map(|(_, b)| b)
        };
        while graph.remaining > 0 {
            let node = NodeId(
                (0..m)
                    .min_by(|&a, &b| {
                        let rel = |i: usize| {
                            if target > 0.0 {
                                workloads[i] as f64 / target
                            } else {
                                workloads[i] as f64
                            }
                        };
                        rel(a).partial_cmp(&rel(b)).unwrap().then(a.cmp(&b))
                    })
                    .unwrap() as u32,
            );
            let global_heaviest = graph
                .remaining_blocks()
                .map(|b| (graph.weight[b.index()], b))
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .map(|(_, b)| b);
            let local_fit = largest_fit(&graph, &workloads, node, &mut graph.local_blocks(node));
            let global_fit =
                largest_fit(&graph, &workloads, node, &mut global_heaviest.into_iter());
            let my_headroom = target - workloads[node.index()] as f64;
            let rescue =
                global_fit.filter(|&g| {
                    let beats_local =
                        local_fit.is_none_or(|l| graph.weight[g.index()] > graph.weight[l.index()]);
                    beats_local
                        && graph.holders[g.index()].as_ref().unwrap().iter().all(|h| {
                            *h != node && target - (workloads[h.index()] as f64) < my_headroom
                        })
                });
            let (block, local) = if let Some(b) = rescue.or(local_fit).or(global_fit) {
                let local = graph.holders[b.index()].as_ref().unwrap().contains(&node);
                (b, local)
            } else {
                let light = |cands: &mut dyn Iterator<Item = BlockId>| {
                    cands
                        .map(|b| (graph.weight[b.index()], b))
                        .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
                        .map(|(_, b)| b)
                };
                let light_local = light(&mut graph.local_blocks(node));
                let light_global = light(&mut graph.remaining_blocks()).unwrap();
                match light_local {
                    Some(l)
                        if graph.weight[l.index()]
                            <= graph.weight[light_global.index()].saturating_mul(4) =>
                    {
                        (l, true)
                    }
                    _ => (light_global, false),
                }
            };
            let w = graph.weight[block.index()];
            workloads[node.index()] += w;
            graph.remove(block);
            assignment.assign(node, block, w, local);
        }
        assignment
    }

    /// [`Algorithm1::plan_balanced`] as it was written first: every
    /// comparison of the request order divides both nodes' workloads by
    /// their targets again.
    fn plan_balanced_dividing(mut alg: Algorithm1) -> Assignment {
        let m = alg.workloads.len();
        let mut assignment = Assignment::new(m);
        while alg.graph.remaining() > 0 {
            let rel = |i: usize| {
                let t = alg.targets[i];
                if t > 0.0 {
                    alg.workloads[i] as f64 / t
                } else {
                    alg.workloads[i] as f64
                }
            };
            let i = (0..m)
                .min_by(|&a, &b| rel(a).partial_cmp(&rel(b)).unwrap().then(a.cmp(&b)))
                .unwrap();
            let (slot, local) = alg.next_slot_for(NodeId(i as u32)).unwrap();
            let (block, weight) = (alg.graph.block(slot), alg.graph.slot_weight(slot));
            assignment.assign(NodeId(i as u32), block, weight, local);
        }
        assignment
    }

    /// [`Algorithm1::plan_balanced`] before the request heap: the kept
    /// relative loads, scanned in full for their minimum per request.
    fn plan_balanced_linear(mut alg: Algorithm1) -> Assignment {
        let m = alg.workloads.len();
        let mut assignment = Assignment::new(m);
        let mut load: Vec<f64> = (0..m).map(|i| alg.relative_load(i)).collect();
        while alg.graph.remaining() > 0 {
            let i = (0..m)
                .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap().then(a.cmp(&b)))
                .unwrap();
            let (slot, local) = alg.next_slot_for(NodeId(i as u32)).unwrap();
            load[i] = alg.relative_load(i);
            let (block, weight) = (alg.graph.block(slot), alg.graph.slot_weight(slot));
            assignment.assign(NodeId(i as u32), block, weight, local);
        }
        assignment
    }

    /// The request heap, the linear scan over kept loads and the division
    /// per comparison all order requests the same way.
    #[test]
    fn kept_relative_loads_order_requests_like_dividing_per_comparison() {
        let dfs = clustered_dfs(8);
        let caps = [1.0, 2.5, 1.0, 0.5, 1.5, 3.0, 0.75, 1.0];
        let array = ElasticMapArray::build(&dfs, &Separation::Alpha(0.4));
        let mut views: Vec<SubDatasetView> = (0..21).map(|s| array.view(SubDatasetId(s))).collect();
        // Zero targets with work to hand out (every weight is δ = 0), and
        // zero targets with none.
        let every_block = (0..dfs.block_count() as u32).map(BlockId).collect();
        views.push(SubDatasetView::new(
            SubDatasetId(77),
            vec![],
            every_block,
            0,
        ));
        views.push(SubDatasetView::new(
            SubDatasetId(78),
            vec![],
            vec![],
            u64::MAX,
        ));
        for v in &views {
            for policy in [BalancePolicy::PacedGreedy, BalancePolicy::BestFitTerminal] {
                for caps in [&caps[..], &[1.0; 8]] {
                    let alg = Algorithm1::with_capabilities(dfs.namenode(), v, policy, caps);
                    let heap = alg.clone().plan_balanced();
                    let why = format!("sub-dataset {} under {policy:?}, caps {caps:?}", v.id());
                    assert_eq!(heap, plan_balanced_linear(alg.clone()), "{why}");
                    assert_eq!(heap, plan_balanced_dividing(alg), "{why}");
                }
            }
        }
    }

    /// The naive planner and the indexed planner must make identical picks
    /// on identical views — indexing may only save work, never change a
    /// plan.
    #[test]
    fn indexed_planner_plans_identically_to_naive_rescan() {
        let recs =
            (0..6000u64).map(|i| Record::new(SubDatasetId(i % 37), i, 90 + (i % 5) as u32 * 30, i));
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 15_000,
                replication: 3,
                topology: Topology::single_rack(8),
                seed: 9,
            },
            recs,
        );
        let array = ElasticMapArray::build(&dfs, &Separation::Alpha(0.4));
        for s in 0..37u64 {
            let v = array.view(SubDatasetId(s));
            let naive = naive_plan(&dfs, &v);
            let indexed = Algorithm1::new(&dfs, &v).plan_balanced();
            assert_eq!(naive, indexed, "plans diverged for sub-dataset {s}");
        }
    }
}
