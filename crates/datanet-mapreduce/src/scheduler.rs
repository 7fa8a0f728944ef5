//! Pluggable map-task schedulers.
//!
//! The engine drives a demand-driven ("pull") protocol exactly like Hadoop's
//! TaskTracker heartbeats: when a node's task slot frees up, the scheduler
//! is asked for that node's next block.

use datanet::planner::{Algorithm1, Assignment, BalancePolicy};
use datanet::{DegradedView, RungCounts, SubDatasetView};
use datanet_dfs::{BlockId, Dfs, NameNode, NodeId};
use datanet_obs::{Category, Domain, Recorder, SpanCtx};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeSet, VecDeque};

/// Demand-driven map-task source.
pub trait MapScheduler {
    /// Serve a task request from `node`. Returns the block and whether it
    /// is node-local, or `None` when this scheduler has nothing (left) for
    /// that node.
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)>;

    /// Number of blocks not yet handed out.
    fn remaining(&self) -> usize;

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;

    /// Fail-stop notification: `node` crashed and `requeue` is every block
    /// it had been handed (in-flight *and* completed — its filtered
    /// partitions died with it). The scheduler must make those blocks
    /// servable again to the survivors and stop counting on the dead node.
    /// The engine guarantees each requeued block has at least one surviving
    /// replica; blocks with none are triaged as unrecoverable before this
    /// call.
    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]);

    /// Record the re-plan that [`MapScheduler::node_lost`] just performed:
    /// a `replan` instant at `now_us` (simulated clock) attributed to the
    /// dead node, which closes the crash→suspicion→re-plan chain in
    /// traces. The engine calls this right after `node_lost`; overrides add
    /// a scheduler-specific note (what the re-plan actually did) but must
    /// keep the `replan` instant itself.
    fn record_replan(&self, rec: &Recorder, now_us: u64, dead: NodeId, requeued: usize) {
        rec.instant(
            Category::Replan,
            "replan",
            Domain::Sim,
            now_us,
            SpanCtx::default()
                .node(dead.index())
                .note(format!("requeued {requeued}")),
        );
    }
}

/// Hadoop's default block-locality scheduling (the paper's "without
/// DataNet"): serve a node-local unassigned block when one exists, else an
/// arbitrary unassigned block (a remote read). Entirely oblivious to
/// sub-dataset content. Local picks are in an arbitrary (seeded, per-node
/// shuffled) order, matching Hadoop's hash-ordered split lists — a
/// lowest-id rule would accidentally stripe a contiguous hot region evenly
/// across nodes and hide the very imbalance the paper measures.
#[derive(Debug, Clone)]
pub struct LocalityScheduler {
    /// `unassigned[b]` — block `b` is in scope and not handed out.
    unassigned: Vec<bool>,
    /// Number of `true`s in `unassigned`.
    remaining: usize,
    /// `local[n]` = blocks with a replica on node `n`, in serving order.
    local: Vec<Vec<BlockId>>,
    /// `served[n]`: every entry of `local[n]` before it is assigned.
    served: Vec<usize>,
    /// Every block below this id is assigned.
    lowest: usize,
}

impl LocalityScheduler {
    /// Schedule all blocks of the DFS (the baseline cannot skip any block:
    /// it has no idea which ones contain the target sub-dataset).
    pub fn new(dfs: &Dfs) -> Self {
        Self::with_scope(dfs.namenode(), (0..dfs.block_count() as u32).map(BlockId))
    }

    /// Schedule an explicit scope of blocks.
    pub(crate) fn with_scope(
        namenode: &NameNode,
        scope: impl IntoIterator<Item = BlockId>,
    ) -> Self {
        let mut unassigned = vec![false; namenode.block_count()];
        let mut remaining = 0;
        for b in scope {
            if !unassigned[b.index()] {
                unassigned[b.index()] = true;
                remaining += 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(0x10CA_1125_u64 ^ remaining as u64);
        let local: Vec<Vec<BlockId>> = (0..namenode.node_count())
            .map(|n| {
                let mut blocks: Vec<BlockId> = namenode
                    .blocks_on(NodeId(n as u32))
                    .iter()
                    .copied()
                    .filter(|b| unassigned[b.index()])
                    .collect();
                blocks.shuffle(&mut rng);
                blocks
            })
            .collect();
        Self {
            unassigned,
            remaining,
            served: vec![0; local.len()],
            local,
            lowest: 0,
        }
    }

    /// The next unassigned block in the node's (shuffled) local list. The
    /// cursor only moves over assigned entries, so a list is walked once
    /// per [`MapScheduler::node_lost`], not once per request.
    fn next_local(&mut self, node: NodeId) -> Option<BlockId> {
        let (list, served) = (&self.local[node.index()], &mut self.served[node.index()]);
        while let Some(&b) = list.get(*served) {
            if self.unassigned[b.index()] {
                return Some(b);
            }
            *served += 1;
        }
        None
    }
}

impl MapScheduler for LocalityScheduler {
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        let (b, local) = match self.next_local(node) {
            Some(b) => (b, true),
            None => {
                // Fall back to the lowest-id unassigned block (remote read).
                while !*self.unassigned.get(self.lowest)? {
                    self.lowest += 1;
                }
                (BlockId(self.lowest as u32), false)
            }
        };
        self.unassigned[b.index()] = false;
        self.remaining -= 1;
        Some((b, local))
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn name(&self) -> &'static str {
        "locality"
    }

    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        // The dead node stops requesting; drop its local list so the
        // baseline never routes to it again, and put its blocks back in the
        // global pool. Survivors that hold replicas still find them in
        // their own (unchanged, accurate) local lists — from the start:
        // a requeued block may sit before any cursor.
        self.local[node.index()].clear();
        for &b in requeue {
            if !self.unassigned[b.index()] {
                self.unassigned[b.index()] = true;
                self.remaining += 1;
            }
        }
        self.served.fill(0);
        self.lowest = 0;
    }

    fn record_replan(&self, rec: &Recorder, now_us: u64, dead: NodeId, requeued: usize) {
        rec.instant(
            Category::Replan,
            "replan",
            Domain::Sim,
            now_us,
            SpanCtx::default().node(dead.index()).note(format!(
                "locality: requeued {requeued} into pool of {}",
                self.remaining
            )),
        );
    }
}

/// The DataNet scheduler: Algorithm 1 driven live by worker pulls
/// (the paper's "with DataNet"). Scope is the sub-dataset's view, so blocks
/// without target data are skipped entirely.
#[derive(Debug, Clone)]
pub struct DataNetScheduler {
    alg: Algorithm1,
}

impl DataNetScheduler {
    /// Build from the DFS and an ElasticMap view of the target sub-dataset
    /// with the default (paced) balance policy.
    pub fn new(dfs: &Dfs, view: &SubDatasetView) -> Self {
        Self {
            alg: Algorithm1::new(dfs, view),
        }
    }

    /// Build with an explicit balance policy (for ablations).
    pub fn with_policy(dfs: &Dfs, view: &SubDatasetView, policy: BalancePolicy) -> Self {
        Self {
            alg: Algorithm1::with_policy(dfs.namenode(), view, policy),
        }
    }
}

impl MapScheduler for DataNetScheduler {
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        self.alg.next_task_for(node)
    }

    fn remaining(&self) -> usize {
        self.alg.remaining()
    }

    fn name(&self) -> &'static str {
        "datanet"
    }

    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        // DataNet re-plans: Algorithm 1 strips the dead node from the
        // bipartite graph, reinserts the lost blocks against surviving
        // replicas, and recomputes capability-proportional targets over
        // the survivors.
        self.alg.node_lost(node, requeue);
    }

    fn record_replan(&self, rec: &Recorder, now_us: u64, dead: NodeId, requeued: usize) {
        rec.instant(
            Category::Replan,
            "replan",
            Domain::Sim,
            now_us,
            SpanCtx::default().node(dead.index()).note(format!(
                "algorithm1: requeued {requeued}, recomputed survivor targets, {} unassigned",
                self.alg.remaining()
            )),
        );
    }
}

/// The degradation-ladder scheduler: DataNet placement for every block the
/// (possibly degraded) metadata still covers — exact sizes on rung 1, the
/// δ-weighted bloom estimate on rung 2, both inside the wrapped
/// [`Algorithm1`] — plus the locality baseline for rung-3 blocks whose
/// shards were lost beyond repair. Membership there is unknowable, so those
/// blocks cannot be skipped: they are scanned exactly as a metadata-free
/// Hadoop would scan them, and only them.
#[derive(Debug, Clone)]
pub struct ResilientScheduler {
    alg: Algorithm1,
    fallback: LocalityScheduler,
    /// Blocks Algorithm 1 owns (rungs 1–2), for requeue routing.
    view_blocks: BTreeSet<BlockId>,
    rungs: RungCounts,
}

impl ResilientScheduler {
    /// Build from a degraded metadata read. With a healthy view this
    /// degenerates to exactly the [`DataNetScheduler`] behaviour (the
    /// fallback scope is empty).
    pub fn new(dfs: &Dfs, degraded: &DegradedView) -> Self {
        let view = degraded.view();
        Self {
            alg: Algorithm1::new(dfs, view),
            fallback: LocalityScheduler::with_scope(
                dfs.namenode(),
                degraded.unknown_blocks().iter().copied(),
            ),
            view_blocks: view.blocks().collect(),
            rungs: degraded.rung_counts(),
        }
    }

    /// Per-rung block counts of the view this scheduler was built from.
    pub fn rung_counts(&self) -> RungCounts {
        self.rungs
    }
}

impl MapScheduler for ResilientScheduler {
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        // Metadata-informed placement first; rung-3 scanning mops up after
        // — the balanced part of the phase should not wait behind blind
        // scans of possibly-empty blocks.
        self.alg
            .next_task_for(node)
            .or_else(|| self.fallback.next_task(node))
    }

    fn remaining(&self) -> usize {
        self.alg.remaining() + self.fallback.remaining()
    }

    fn name(&self) -> &'static str {
        "datanet-resilient"
    }

    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        // Route each orphan back to whichever rung owned it: Algorithm 1
        // re-plans its own blocks against the survivors and would reject
        // rung-3 strays, which belong to the baseline pool.
        let (planned, unknown): (Vec<BlockId>, Vec<BlockId>) = requeue
            .iter()
            .copied()
            .partition(|b| self.view_blocks.contains(b));
        self.alg.node_lost(node, &planned);
        self.fallback.node_lost(node, &unknown);
    }

    fn record_replan(&self, rec: &Recorder, now_us: u64, dead: NodeId, requeued: usize) {
        rec.instant(
            Category::Replan,
            "replan",
            Domain::Sim,
            now_us,
            SpanCtx::default().node(dead.index()).note(format!(
                "resilient: requeued {requeued} across rungs (planned {}, fallback {})",
                self.alg.remaining(),
                self.fallback.remaining()
            )),
        );
    }
}

/// Serves a precomputed [`Assignment`] (e.g. from the Ford–Fulkerson
/// planner): each node draws from its own planned queue.
#[derive(Debug, Clone)]
pub struct PlannedScheduler {
    /// Per-node planned blocks, each with whether it is local to that node,
    /// consumed front to back.
    queues: Vec<VecDeque<(BlockId, bool)>>,
    remaining: usize,
    /// Replica map, consulted to re-home blocks after a node loss.
    namenode: NameNode,
    /// `alive[n]` — node `n` has not been reported lost.
    alive: Vec<bool>,
}

impl PlannedScheduler {
    /// Wrap an assignment. `namenode` is used to recompute locality flags.
    pub fn new(assignment: &Assignment, namenode: &NameNode) -> Self {
        let queues: Vec<VecDeque<(BlockId, bool)>> = (0..assignment.node_count() as u32)
            .map(|n| {
                let blocks = assignment.tasks_of(NodeId(n)).iter();
                blocks
                    .map(|&b| (b, namenode.is_local(b, NodeId(n))))
                    .collect()
            })
            .collect();
        Self {
            remaining: queues.iter().map(VecDeque::len).sum(),
            queues,
            namenode: namenode.clone(),
            alive: vec![true; assignment.node_count()],
        }
    }
}

impl MapScheduler for PlannedScheduler {
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        let task = self.queues[node.index()].pop_front()?;
        self.remaining -= 1;
        Some(task)
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn name(&self) -> &'static str {
        "planned"
    }

    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        self.alive[node.index()] = false;
        // The dead node's unserved queue and its already-served blocks both
        // need new homes (the plan did not anticipate the crash).
        let orphans: Vec<BlockId> = (self.queues[node.index()].drain(..))
            .map(|(b, _)| b)
            .collect();
        self.remaining += requeue.len(); // orphans were still counted
        for &b in orphans.iter().chain(requeue) {
            // Greedy repair of the static plan: append to the surviving
            // replica holder with the shortest queue (local read), else to
            // the least-loaded survivor (remote read). Ties break toward
            // the lowest node id for determinism.
            let survivors = self.namenode.surviving_replicas(b, &self.alive);
            let target = survivors
                .iter()
                .copied()
                .min_by_key(|n| (self.queues[n.index()].len(), n.index()))
                .unwrap_or_else(|| {
                    (0..self.alive.len())
                        .filter(|&n| self.alive[n])
                        .min_by_key(|&n| (self.queues[n].len(), n))
                        .map(|n| NodeId(n as u32))
                        .expect("at least one survivor")
                });
            self.queues[target.index()].push_back((b, survivors.contains(&target)));
        }
    }

    fn record_replan(&self, rec: &Recorder, now_us: u64, dead: NodeId, requeued: usize) {
        rec.instant(
            Category::Replan,
            "replan",
            Domain::Sim,
            now_us,
            SpanCtx::default().node(dead.index()).note(format!(
                "planned: greedily re-homed {requeued} onto least-loaded survivors"
            )),
        );
    }
}

/// Delay scheduling (Zaharia et al., EuroSys 2010) on top of the locality
/// baseline: a node with no local unassigned block *waits* for up to
/// `max_skips` heartbeats before accepting a remote block, trading a little
/// latency for near-perfect locality. Like plain locality scheduling it is
/// oblivious to sub-dataset content, so it inherits the paper's imbalance —
/// included to show that better *locality* does not fix the *distribution*
/// problem.
#[derive(Debug, Clone)]
pub struct DelayScheduler {
    inner: LocalityScheduler,
    /// Consecutive skips per node.
    skips: Vec<u32>,
    max_skips: u32,
}

impl DelayScheduler {
    /// Wrap the full-DFS locality baseline with a skip budget.
    pub fn new(dfs: &Dfs, max_skips: u32) -> Self {
        let inner = LocalityScheduler::new(dfs);
        let nodes = dfs.config().topology.len();
        Self {
            inner,
            skips: vec![0; nodes],
            max_skips,
        }
    }
}

impl MapScheduler for DelayScheduler {
    fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
        if self.inner.remaining == 0 {
            return None;
        }
        if self.inner.next_local(node).is_none() && self.skips[node.index()] < self.max_skips {
            // Defer: maybe a local block frees up (it cannot here — blocks
            // are not returned — but real Hadoop defers for new splits and
            // speculative re-execution; the waiting cost is what we model).
            self.skips[node.index()] += 1;
            return None;
        }
        self.skips[node.index()] = 0;
        self.inner.next_task(node)
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn name(&self) -> &'static str {
        "delay"
    }

    fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
        self.inner.node_lost(node, requeue);
        // Fresh work just appeared: reset every skip budget so survivors
        // re-evaluate instead of sitting out their delay.
        self.skips.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet::{ElasticMapArray, Separation};
    use datanet_dfs::{DfsConfig, Record, SubDatasetId, Topology};

    fn dfs() -> Dfs {
        let recs = (0..1000u64).map(|i| {
            let s = if i < 300 { 0 } else { 1 + i % 10 };
            Record::new(SubDatasetId(s), i, 100, i)
        });
        Dfs::write_random(
            DfsConfig {
                block_size: 5_000,
                replication: 3,
                topology: Topology::single_rack(4),
                seed: 3,
            },
            recs,
        )
    }

    #[test]
    fn locality_hands_out_every_block_once() {
        let d = dfs();
        let mut s = LocalityScheduler::new(&d);
        assert_eq!(s.remaining(), d.block_count());
        let mut seen = std::collections::HashSet::new();
        let mut node = 0u32;
        while let Some((b, _)) = s.next_task(NodeId(node % 4)) {
            assert!(seen.insert(b), "block {b} issued twice");
            node += 1;
        }
        assert_eq!(seen.len(), d.block_count());
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn locality_prefers_local_blocks() {
        let d = dfs();
        let mut s = LocalityScheduler::new(&d);
        // First request from node 0 must be a local block if node 0 holds
        // any replicas (with 3/4 replication it certainly does).
        let (b, local) = s.next_task(NodeId(0)).unwrap();
        assert!(local);
        assert!(d.namenode().is_local(b, NodeId(0)));
    }

    #[test]
    fn locality_falls_back_to_remote() {
        // Single node holds nothing: 1-node topology means it holds all,
        // so craft a 2-node namenode where node 1 holds nothing.
        let mut nn = NameNode::new(2);
        nn.register(BlockId(0), vec![NodeId(0)]);
        nn.register(BlockId(1), vec![NodeId(0)]);
        let mut s = LocalityScheduler::with_scope(&nn, vec![BlockId(0), BlockId(1)]);
        let (b, local) = s.next_task(NodeId(1)).unwrap();
        assert!(!local);
        assert_eq!(b, BlockId(0));
    }

    #[test]
    fn datanet_scheduler_skips_empty_blocks() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let mut s = DataNetScheduler::new(&d, &view);
        assert_eq!(s.remaining(), view.block_count());
        assert!(view.block_count() < d.block_count(), "scope must shrink");
        let mut count = 0;
        let mut node = 0u32;
        while s.next_task(NodeId(node % 4)).is_some() {
            count += 1;
            node += 1;
        }
        assert_eq!(count, view.block_count());
    }

    #[test]
    fn delay_scheduler_defers_then_serves_remote() {
        // Node 1 holds nothing; with a skip budget of 2 it must return None
        // twice and then hand out a remote block.
        let mut nn = NameNode::new(2);
        nn.register(BlockId(0), vec![NodeId(0)]);
        nn.register(BlockId(1), vec![NodeId(0)]);
        let inner = LocalityScheduler::with_scope(&nn, vec![BlockId(0), BlockId(1)]);
        let mut s = DelayScheduler {
            inner,
            skips: vec![0; 2],
            max_skips: 2,
        };
        assert!(s.next_task(NodeId(1)).is_none());
        assert!(s.next_task(NodeId(1)).is_none());
        let (b, local) = s.next_task(NodeId(1)).expect("budget exhausted");
        assert!(!local);
        assert!(b == BlockId(0) || b == BlockId(1));
        assert_eq!(s.remaining(), 1);
    }

    #[test]
    fn delay_scheduler_never_defers_local_work() {
        let d = dfs();
        let mut s = DelayScheduler::new(&d, 3);
        let (_, local) = s.next_task(NodeId(0)).expect("node 0 has local blocks");
        assert!(local);
    }

    #[test]
    fn delay_scheduler_still_drains_everything() {
        let d = dfs();
        let mut s = DelayScheduler::new(&d, 2);
        let mut served = 0;
        let mut spins = 0;
        while s.remaining() > 0 {
            for n in 0..4u32 {
                if s.next_task(NodeId(n)).is_some() {
                    served += 1;
                }
            }
            spins += 1;
            assert!(spins < 10_000, "scheduler wedged");
        }
        assert_eq!(served, d.block_count());
    }

    #[test]
    fn locality_node_lost_requeues_and_sidelines_node() {
        let d = dfs();
        let mut s = LocalityScheduler::new(&d);
        let (b0, _) = s.next_task(NodeId(1)).unwrap();
        let (b1, _) = s.next_task(NodeId(1)).unwrap();
        let before = s.remaining();
        s.node_lost(NodeId(1), &[b0, b1]);
        assert_eq!(s.remaining(), before + 2);
        // Survivors eventually drain everything, including b0 and b1.
        let mut seen = std::collections::HashSet::new();
        let mut node = 0u32;
        while let Some((b, _)) = s.next_task(NodeId([0, 2, 3][node as usize % 3])) {
            seen.insert(b);
            node += 1;
        }
        assert!(seen.contains(&b0) && seen.contains(&b1));
        assert_eq!(seen.len(), d.block_count());
    }

    #[test]
    fn planned_node_lost_rehomes_queue_and_served_blocks() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let plan = datanet::FordFulkersonPlanner::new(&d, &view).plan();
        let total = plan.assigned_blocks();
        let mut s = PlannedScheduler::new(&plan, d.namenode());
        // Node 2 takes one task and dies with it.
        let served = s.next_task(NodeId(2)).map(|(b, _)| b);
        let requeue: Vec<BlockId> = served.into_iter().collect();
        s.node_lost(NodeId(2), &requeue);
        assert_eq!(s.remaining(), total, "served block is back in a queue");
        assert!(
            s.next_task(NodeId(2)).is_none(),
            "dead node's queue is empty"
        );
        // Survivors drain the full plan, nothing lost or duplicated.
        let mut seen = std::collections::HashSet::new();
        for n in [0u32, 1, 3] {
            while let Some((b, _)) = s.next_task(NodeId(n)) {
                assert!(seen.insert(b), "block {b} served twice");
            }
        }
        assert_eq!(seen.len(), total);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn resilient_with_healthy_view_matches_datanet() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let healthy = datanet::DegradedView::new(view.clone(), vec![], vec![]);
        let mut a = DataNetScheduler::new(&d, &view);
        let mut b = ResilientScheduler::new(&d, &healthy);
        assert_eq!(a.remaining(), b.remaining());
        assert!(!b.rung_counts().any_degraded());
        let mut node = 0u32;
        loop {
            let (x, y) = (a.next_task(NodeId(node % 4)), b.next_task(NodeId(node % 4)));
            assert_eq!(x, y, "identical pull sequence must match");
            if x.is_none() {
                break;
            }
            node += 1;
        }
    }

    #[test]
    fn resilient_scans_unknown_blocks_after_planned_work() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        // Pretend two blocks outside the view lost their metadata shard.
        let in_view: std::collections::HashSet<BlockId> = view.blocks().collect();
        let unknown: Vec<BlockId> = (0..d.block_count() as u32)
            .map(BlockId)
            .filter(|b| !in_view.contains(b))
            .take(2)
            .collect();
        assert_eq!(unknown.len(), 2, "need blocks outside the view");
        let degraded = datanet::DegradedView::new(
            view.clone(),
            unknown.clone(),
            vec![datanet::ShardSource::Lost],
        );
        let mut s = ResilientScheduler::new(&d, &degraded);
        assert_eq!(s.remaining(), view.block_count() + 2);
        assert_eq!(s.rung_counts().fallback, 2);
        let mut seen = std::collections::HashSet::new();
        let mut node = 0u32;
        while let Some((b, _)) = s.next_task(NodeId(node % 4)) {
            assert!(seen.insert(b), "block {b} issued twice");
            node += 1;
        }
        for b in &unknown {
            assert!(seen.contains(b), "rung-3 block {b} must be scanned");
        }
        assert_eq!(seen.len(), view.block_count() + 2);
    }

    #[test]
    fn resilient_node_lost_routes_requeues_to_the_right_rung() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let in_view: std::collections::HashSet<BlockId> = view.blocks().collect();
        let unknown: Vec<BlockId> = (0..d.block_count() as u32)
            .map(BlockId)
            .filter(|b| !in_view.contains(b))
            .collect();
        assert!(!unknown.is_empty());
        let degraded = datanet::DegradedView::new(view.clone(), unknown.clone(), vec![]);
        let mut s = ResilientScheduler::new(&d, &degraded);
        let total = s.remaining();
        // Node 1 draws one planned and (after draining its planned share)
        // rung-3 work too; kill it holding a mixed bag.
        let mut held = Vec::new();
        while held.len() < 3 {
            match s.next_task(NodeId(1)) {
                Some((b, _)) => held.push(b),
                None => break,
            }
        }
        let before = s.remaining();
        s.node_lost(NodeId(1), &held);
        assert_eq!(s.remaining(), before + held.len());
        // Survivors still drain everything exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut node = 0u32;
        while let Some((b, _)) = s.next_task(NodeId([0, 2, 3][node as usize % 3])) {
            assert!(seen.insert(b), "block {b} issued twice");
            node += 1;
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn planned_scheduler_serves_the_plan_exactly() {
        let d = dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let plan = datanet::FordFulkersonPlanner::new(&d, &view).plan();
        let mut s = PlannedScheduler::new(&plan, d.namenode());
        assert_eq!(s.remaining(), plan.assigned_blocks());
        for n in 0..4u32 {
            let expected: Vec<BlockId> = plan.tasks_of(NodeId(n)).to_vec();
            let mut got = Vec::new();
            while let Some((b, local)) = s.next_task(NodeId(n)) {
                assert!(local, "flow plans are all-local");
                got.push(b);
            }
            assert_eq!(got, expected);
        }
        assert_eq!(s.remaining(), 0);
    }

    /// The locality baseline as it was written first, kept as the
    /// reference the cursor-based [`LocalityScheduler`] is checked
    /// against: the unassigned set is a `BTreeSet` and every request
    /// re-walks the node's whole list through it.
    #[derive(Clone)]
    struct RescanLocality {
        remaining: BTreeSet<BlockId>,
        local: Vec<Vec<BlockId>>,
    }

    impl RescanLocality {
        fn with_scope(namenode: &NameNode, scope: impl IntoIterator<Item = BlockId>) -> Self {
            let remaining: BTreeSet<BlockId> = scope.into_iter().collect();
            let mut rng = StdRng::seed_from_u64(0x10CA_1125_u64 ^ remaining.len() as u64);
            let local = (0..namenode.node_count())
                .map(|n| {
                    let mut blocks: Vec<BlockId> = namenode
                        .blocks_on(NodeId(n as u32))
                        .iter()
                        .copied()
                        .filter(|b| remaining.contains(b))
                        .collect();
                    blocks.shuffle(&mut rng);
                    blocks
                })
                .collect();
            Self { remaining, local }
        }

        fn has_local(&self, node: NodeId) -> bool {
            self.local[node.index()]
                .iter()
                .any(|b| self.remaining.contains(b))
        }
    }

    impl MapScheduler for RescanLocality {
        fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
            let local_pick = self.local[node.index()]
                .iter()
                .copied()
                .find(|b| self.remaining.contains(b));
            if let Some(b) = local_pick {
                self.remaining.remove(&b);
                return Some((b, true));
            }
            let b = *self.remaining.iter().next()?;
            self.remaining.remove(&b);
            Some((b, false))
        }

        fn remaining(&self) -> usize {
            self.remaining.len()
        }

        fn name(&self) -> &'static str {
            "locality-rescan"
        }

        fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
            self.local[node.index()].clear();
            self.remaining.extend(requeue.iter().copied());
        }
    }

    /// [`DelayScheduler`] over the reference baseline.
    struct RescanDelay {
        inner: RescanLocality,
        skips: Vec<u32>,
        max_skips: u32,
    }

    impl MapScheduler for RescanDelay {
        fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
            if self.inner.remaining.is_empty() {
                return None;
            }
            if !self.inner.has_local(node) && self.skips[node.index()] < self.max_skips {
                self.skips[node.index()] += 1;
                return None;
            }
            self.skips[node.index()] = 0;
            self.inner.next_task(node)
        }

        fn remaining(&self) -> usize {
            self.inner.remaining()
        }

        fn name(&self) -> &'static str {
            "delay-rescan"
        }

        fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
            self.inner.node_lost(node, requeue);
            self.skips.fill(0);
        }
    }

    /// [`ResilientScheduler`] with the reference baseline as its fallback.
    struct RescanResilient {
        alg: Algorithm1,
        fallback: RescanLocality,
        view_blocks: BTreeSet<BlockId>,
    }

    impl MapScheduler for RescanResilient {
        fn next_task(&mut self, node: NodeId) -> Option<(BlockId, bool)> {
            self.alg
                .next_task_for(node)
                .or_else(|| self.fallback.next_task(node))
        }

        fn remaining(&self) -> usize {
            self.alg.remaining() + self.fallback.remaining()
        }

        fn name(&self) -> &'static str {
            "resilient-rescan"
        }

        fn node_lost(&mut self, node: NodeId, requeue: &[BlockId]) {
            let (planned, unknown): (Vec<BlockId>, Vec<BlockId>) = requeue
                .iter()
                .copied()
                .partition(|b| self.view_blocks.contains(b));
            self.alg.node_lost(node, &planned);
            self.fallback.node_lost(node, &unknown);
        }
    }

    /// 8 nodes, 3 replicas, 80 blocks: two nodes can die and every block
    /// still has a holder. Sub-dataset 0 lives in the first 30 blocks only.
    fn wide_dfs() -> Dfs {
        let recs = (0..4000u64).map(|i| {
            let s = if i < 1500 { i % 5 } else { 5 + i % 18 };
            Record::new(SubDatasetId(s), i, 100, i)
        });
        Dfs::write_random(
            DfsConfig {
                block_size: 5_000,
                replication: 3,
                topology: Topology::single_rack(8),
                seed: 11,
            },
            recs,
        )
    }

    /// Drive both schedulers with one seeded random request order, killing
    /// `losses` nodes along the way (each hands back everything it was
    /// served, as the engine does), and demand the same answer to every
    /// request and the same `remaining()` after every step.
    fn assert_same_decisions(
        fast: &mut dyn MapScheduler,
        slow: &mut dyn MapScheduler,
        nodes: usize,
        losses: usize,
        seed: u64,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alive: Vec<usize> = (0..nodes).collect();
        let mut served: Vec<Vec<BlockId>> = vec![Vec::new(); nodes];
        let total = fast.remaining();
        let mut kills = (0..losses).map(|k| total * (k + 1) / (losses + 2));
        let mut next_kill = kills.next();
        let mut requests = 0usize;
        let mut granted = 0usize;
        while fast.remaining() > 0 {
            requests += 1;
            assert!(requests < 100 * total + 1_000, "seed {seed}: wedged");
            if next_kill == Some(granted) {
                next_kill = kills.next();
                let dead = alive.remove(rng.gen_range(0..alive.len()));
                let requeue = std::mem::take(&mut served[dead]);
                fast.node_lost(NodeId(dead as u32), &requeue);
                slow.node_lost(NodeId(dead as u32), &requeue);
                assert_eq!(
                    fast.remaining(),
                    slow.remaining(),
                    "seed {seed}: after a loss"
                );
            }
            let n = alive[rng.gen_range(0..alive.len())];
            let (a, b) = (
                fast.next_task(NodeId(n as u32)),
                slow.next_task(NodeId(n as u32)),
            );
            assert_eq!(a, b, "seed {seed}: request {requests} from node {n}");
            assert_eq!(fast.remaining(), slow.remaining(), "seed {seed}");
            if let Some((block, _)) = a {
                served[n].push(block);
                granted += 1;
            }
        }
        assert_eq!(slow.remaining(), 0);
        for &n in &alive {
            assert_eq!(fast.next_task(NodeId(n as u32)), None);
            assert_eq!(slow.next_task(NodeId(n as u32)), None);
        }
    }

    #[test]
    fn locality_cursors_decide_like_the_btreeset_walk() {
        let d = wide_dfs();
        let all = || (0..d.block_count() as u32).map(BlockId);
        for seed in 0..30u64 {
            for losses in 0..=2 {
                let mut fast = LocalityScheduler::new(&d);
                let mut slow = RescanLocality::with_scope(d.namenode(), all());
                assert_same_decisions(&mut fast, &mut slow, 8, losses, seed);

                let mut fast = DelayScheduler::new(&d, 1 + seed as u32 % 3);
                let mut slow = RescanDelay {
                    inner: RescanLocality::with_scope(d.namenode(), all()),
                    skips: vec![0; 8],
                    max_skips: 1 + seed as u32 % 3,
                };
                assert_same_decisions(&mut fast, &mut slow, 8, losses, seed);
            }
        }
    }

    #[test]
    fn resilient_fallback_decides_like_the_btreeset_walk() {
        let d = wide_dfs();
        let view = ElasticMapArray::build(&d, &Separation::All).view(SubDatasetId(0));
        let in_view: BTreeSet<BlockId> = view.blocks().collect();
        // Every third block outside the view lost its metadata: a sparse
        // fallback scope, not a prefix.
        let unknown: Vec<BlockId> = (0..d.block_count() as u32)
            .map(BlockId)
            .filter(|b| !in_view.contains(b) && b.0 % 3 != 0)
            .collect();
        assert!(unknown.len() > 10);
        let degraded = datanet::DegradedView::new(view.clone(), unknown.clone(), vec![]);
        for seed in 0..30u64 {
            for losses in 0..=2 {
                let mut fast = ResilientScheduler::new(&d, &degraded);
                let mut slow = RescanResilient {
                    alg: Algorithm1::new(&d, &view),
                    fallback: RescanLocality::with_scope(d.namenode(), unknown.iter().copied()),
                    view_blocks: in_view.clone(),
                };
                assert_same_decisions(&mut fast, &mut slow, 8, losses, seed);
            }
        }
    }
}
