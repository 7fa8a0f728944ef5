//! The mutable world a serve run executes against, and the scripted
//! events that move it.
//!
//! A [`World`] bundles the DFS, its ElasticMap array, the node-liveness
//! mask and the cluster's membership epoch. It evolves **only** through
//! [`World::apply`], and each evolution step is a pure function of the
//! initial state and the event — so any observer (the serve oracles in
//! `datanet-check`) can rebuild the exact world at any epoch by replaying
//! an event prefix against a clone of the initial DFS. That replayability
//! is what lets the cache-coherence oracle recompute a *fresh* plan at a
//! historical epoch and demand it be byte-identical to what the cache
//! served.

use datanet::{
    Algorithm1, Assignment, ElasticMap, ElasticMapArray, FordFulkersonPlanner, Separation,
    SubDatasetView,
};
use datanet_dfs::{BlockId, Dfs, NodeId, Record, SubDatasetId};
use serde::Serialize;
use std::hash::Hasher;

/// A scripted world mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// An ingest batch commits: `blocks` new blocks (records round-robined
    /// over every sub-dataset, so *every* sub-dataset's plan changes) are
    /// appended and their maps pushed onto the metadata array. Bumps the
    /// ingest epoch (and, via block registration, the NameNode epoch).
    IngestCommit {
        /// Blocks appended by this commit (≥ 1).
        blocks: u32,
    },
    /// Fail-stop loss of one node: the liveness mask drops it and the
    /// cluster membership epoch bumps. Ignored if the node is already
    /// down, out of range, or the last one alive.
    NodeLoss {
        /// Dying node index.
        node: u32,
    },
}

/// A [`ServeEvent`] anchored to a stream position: it applies immediately
/// before the arrival with stream index `at_query` is admitted (positions
/// past the end of the stream apply after the last arrival).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedEvent {
    /// Stream position the event fires before.
    pub at_query: u32,
    /// The mutation.
    pub event: ServeEvent,
}

/// Snapshot of every mutation counter a plan depends on. Two equal keys
/// guarantee the worlds they were read from are plan-equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct EpochKey {
    /// `NameNode::epoch()` — bumped per block registration.
    pub namenode: u64,
    /// Ingest epoch — bumped per committed ingest batch.
    pub ingest: u64,
    /// Cluster membership epoch — bumped per node-liveness change.
    pub cluster: u64,
}

/// The serving plane's view of the cluster: DFS + metadata array +
/// liveness, with the three mutation counters an [`EpochKey`] snapshots.
#[derive(Debug, Clone)]
pub struct World {
    dfs: Dfs,
    array: ElasticMapArray,
    alive: Vec<bool>,
    /// How many nodes `alive` has dropped: the cluster membership epoch.
    cluster_epoch: u64,
    /// Sub-dataset id space (ingest round-robins new records over it).
    subdatasets: u64,
    /// Seed for synthetic ingest-commit record content.
    ingest_seed: u64,
    ingest_epoch: u64,
}

impl World {
    /// Wrap a DFS. The metadata array is built up front; all nodes start
    /// alive; every epoch counter starts at its DFS-determined value.
    pub fn new(dfs: Dfs, subdatasets: u64, policy: Separation, ingest_seed: u64) -> Self {
        assert!(subdatasets >= 1, "need at least one sub-dataset");
        let nodes = dfs.config().topology.len();
        let array = ElasticMapArray::build(&dfs, &policy);
        Self {
            dfs,
            array,
            alive: vec![true; nodes],
            cluster_epoch: 0,
            subdatasets,
            ingest_seed,
            ingest_epoch: 0,
        }
    }

    /// The DFS as currently ingested.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The metadata array over the current DFS.
    pub fn array(&self) -> &ElasticMapArray {
        &self.array
    }

    /// Node-liveness mask.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Sub-dataset id space.
    pub fn subdatasets(&self) -> u64 {
        self.subdatasets
    }

    /// Snapshot of every mutation counter a plan depends on. Equal keys ⇒
    /// plan-equivalent worlds.
    pub fn epoch_key(&self) -> EpochKey {
        EpochKey {
            namenode: self.dfs.namenode().epoch(),
            ingest: self.ingest_epoch,
            cluster: self.cluster_epoch,
        }
    }

    /// Apply one scripted event. Deterministic: the post state is a pure
    /// function of the pre state and the event.
    pub fn apply(&mut self, event: &ServeEvent) {
        match *event {
            ServeEvent::IngestCommit { blocks } => {
                let per_block = ((self.dfs.config().block_size / 250).max(1)) as usize;
                for _ in 0..blocks.max(1) {
                    let base = self.dfs.block_count() as u64;
                    let records: Vec<Record> = (0..per_block as u64)
                        .map(|i| {
                            // Round-robin over the whole id space: every
                            // sub-dataset gains bytes, so every cached
                            // plan is genuinely stale after the commit.
                            let s = SubDatasetId((base + i) % self.subdatasets);
                            Record::new(
                                s,
                                base * 1_000 + i,
                                250,
                                self.ingest_seed ^ (base << 16) ^ i,
                            )
                        })
                        .collect();
                    let id = self.dfs.append_block(records);
                    let map = ElasticMap::build(self.dfs.block(id), self.array.policy());
                    self.array.push(map);
                }
                self.ingest_epoch += 1;
            }
            ServeEvent::NodeLoss { node } => {
                let n = node as usize;
                let survivors = self.alive.iter().filter(|&&a| a).count();
                if n < self.alive.len() && self.alive[n] && survivors > 1 {
                    self.alive[n] = false;
                    self.cluster_epoch += 1;
                }
            }
        }
    }

    /// Fresh plans for `subs` at the current epoch: the views resolved in
    /// one batched array walk, each planned (`World::plan_view`) and then
    /// patched for dead nodes (`World::patch_dead`). This **is** the
    /// definition of "the plan at this epoch" — the serve oracles call it to
    /// recompute what the cache should have served, and the server builds
    /// every plan it serves from the same two pieces.
    pub fn plan_batch(&self, subs: &[SubDatasetId], maxflow: bool) -> Vec<Assignment> {
        let views = self.array.views(subs);
        (views.iter())
            .map(|v| {
                let plan = self.plan_view(v, maxflow);
                self.patch_dead(v, &plan).unwrap_or(plan)
            })
            .collect()
    }

    /// The alive-blind plan of one resolved view. It reads the block
    /// locations and the view, never the liveness mask, so it changes only
    /// with the data epoch (NameNode and ingest epochs), not on a node loss.
    pub(crate) fn plan_view(&self, view: &SubDatasetView, maxflow: bool) -> Assignment {
        #[cfg(test)]
        PLANNER_RUNS.with(|runs| runs.set(runs.get() + 1));
        match maxflow {
            true => FordFulkersonPlanner::new(&self.dfs, view).plan(),
            false => Algorithm1::new(&self.dfs, view).plan_balanced(),
        }
    }

    /// `plan` with every task it put on a dead node re-homed, or `None`
    /// while every node is alive and `plan` stands as it is. Survivors keep
    /// their tasks in order; then the dead nodes are taken by id, and each
    /// one's tasks in assignment order, each orphan going to the currently
    /// least-loaded alive node (lowest id on ties).
    pub(crate) fn patch_dead(
        &self,
        view: &SubDatasetView,
        plan: &Assignment,
    ) -> Option<Assignment> {
        if self.alive.iter().all(|&a| a) {
            return None;
        }
        let nn = self.dfs.namenode();
        let n = plan.node_count();
        let mut patched = Assignment::new(n);
        let mut orphans: Vec<BlockId> = Vec::new();
        for i in 0..n {
            let node = NodeId(i as u32);
            if self.alive[i] {
                for &b in plan.tasks_of(node) {
                    patched.assign(node, b, view.weight(b), nn.is_local(b, node));
                }
            } else {
                orphans.extend_from_slice(plan.tasks_of(node));
            }
        }
        for b in orphans {
            let target = (0..n)
                .filter(|&i| self.alive[i])
                .min_by_key(|&i| (patched.workloads()[i], i))
                .expect("at least one alive node");
            let node = NodeId(target as u32);
            patched.assign(node, b, view.weight(b), nn.is_local(b, node));
        }
        Some(patched)
    }
}

/// Stable 64-bit digest of a plan's full serialised form. Two plans share
/// a digest iff their byte-level wire representations match — the unit of
/// the cache-coherence oracle's "byte-identical" claim.
pub fn plan_digest(plan: &Assignment) -> u64 {
    // The compact print `serde_json::to_string` makes, into a buffer sized
    // for the whole of it, so it is allocated once instead of regrown.
    let mut json = String::with_capacity(64 + 12 * plan.assigned_blocks() + 24 * plan.node_count());
    plan.write_json(&mut json);
    let mut h = datanet::FxHasher64::default();
    h.write(json.as_bytes());
    h.finish()
}

#[cfg(test)]
thread_local! {
    /// [`World::plan_view`] calls on this thread: what the server tests pin
    /// planner work with.
    pub(crate) static PLANNER_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{DfsConfig, Topology};

    fn tiny_world() -> World {
        let records: Vec<Record> = (0..60)
            .map(|i| Record::new(SubDatasetId(i % 4), i, 300, i))
            .collect();
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication: 2,
                topology: Topology::single_rack(4),
                seed: 99,
            },
            records,
        );
        World::new(dfs, 4, Separation::Alpha(0.4), 7)
    }

    #[test]
    fn ingest_commit_moves_every_epoch_source_it_touches() {
        let mut w = tiny_world();
        let before = w.epoch_key();
        let blocks = w.dfs().block_count();
        w.apply(&ServeEvent::IngestCommit { blocks: 2 });
        let after = w.epoch_key();
        assert_eq!(w.dfs().block_count(), blocks + 2);
        assert_eq!(after.ingest, before.ingest + 1);
        assert!(after.namenode > before.namenode, "appends register blocks");
        assert_eq!(after.cluster, before.cluster);
    }

    #[test]
    fn node_loss_bumps_cluster_epoch_once_and_ignores_repeats() {
        let mut w = tiny_world();
        let before = w.epoch_key();
        w.apply(&ServeEvent::NodeLoss { node: 2 });
        assert_eq!(w.epoch_key().cluster, before.cluster + 1);
        assert!(!w.alive()[2]);
        // Repeats and out-of-range nodes change nothing.
        w.apply(&ServeEvent::NodeLoss { node: 2 });
        w.apply(&ServeEvent::NodeLoss { node: 99 });
        assert_eq!(w.epoch_key().cluster, before.cluster + 1);
    }

    #[test]
    fn node_loss_never_kills_the_last_node() {
        let mut w = tiny_world();
        for n in 0..4 {
            w.apply(&ServeEvent::NodeLoss { node: n });
        }
        assert_eq!(w.alive().iter().filter(|&&a| a).count(), 1);
    }

    #[test]
    fn replayed_event_prefixes_reproduce_the_world_exactly() {
        let events = [
            ServeEvent::IngestCommit { blocks: 1 },
            ServeEvent::NodeLoss { node: 1 },
            ServeEvent::IngestCommit { blocks: 2 },
        ];
        let mut live = tiny_world();
        for (i, ev) in events.iter().enumerate() {
            live.apply(ev);
            // Rebuild from scratch with the same prefix: identical plans
            // and identical epoch key.
            let mut replay = tiny_world();
            for e in &events[..=i] {
                replay.apply(e);
            }
            assert_eq!(replay.epoch_key(), live.epoch_key());
            let subs = [SubDatasetId(0), SubDatasetId(3)];
            let a = live.plan_batch(&subs, false);
            let b = replay.plan_batch(&subs, false);
            assert_eq!(a, b, "replayed world must plan identically");
            // The array grown by pushed deltas is the from-scratch build.
            let rebuilt = ElasticMapArray::build(live.dfs(), live.array().policy());
            assert_eq!(
                serde_json::to_string(live.array()).unwrap(),
                serde_json::to_string(&rebuilt).unwrap(),
                "delta diverged from rebuild after event {i}"
            );
            assert_eq!(live.array().symbols(), rebuilt.symbols());
        }
    }

    #[test]
    fn dead_node_patch_reassigns_all_orphans_deterministically() {
        let mut w = tiny_world();
        let sub = SubDatasetId(0);
        let before = &w.plan_batch(&[sub], false)[0];
        let total = before.assigned_blocks();
        w.apply(&ServeEvent::NodeLoss { node: 1 });
        let after = &w.plan_batch(&[sub], false)[0];
        assert_eq!(after.assigned_blocks(), total, "no block is dropped");
        assert!(
            after.tasks_of(NodeId(1)).is_empty(),
            "nothing stays on the dead node"
        );
        assert_eq!(
            after,
            &w.plan_batch(&[sub], false)[0],
            "patching is deterministic"
        );
    }

    #[test]
    fn plan_digest_tracks_wire_identity() {
        let mut w = tiny_world();
        let a = w.plan_batch(&[SubDatasetId(0)], false).remove(0);
        let b = w.plan_batch(&[SubDatasetId(0)], false).remove(0);
        assert_eq!(plan_digest(&a), plan_digest(&b));
        // An ingest commit grows the sub-dataset, so the fresh plan (and
        // its digest) must move — this is what makes staleness observable.
        w.apply(&ServeEvent::IngestCommit { blocks: 2 });
        let c = w.plan_batch(&[SubDatasetId(0)], false).remove(0);
        assert_ne!(
            plan_digest(&a),
            plan_digest(&c),
            "distinct plans, distinct digests"
        );
    }

    #[test]
    fn maxflow_batch_also_plans_and_patches() {
        let mut w = tiny_world();
        w.apply(&ServeEvent::NodeLoss { node: 3 });
        let plan = &w.plan_batch(&[SubDatasetId(0)], true)[0];
        assert!(plan.tasks_of(NodeId(3)).is_empty());
        assert!(plan.assigned_blocks() > 0);
    }
}
