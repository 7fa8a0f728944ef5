//! Epoch-keyed planner-result cache.
//!
//! Planning a sub-dataset query is pure: the same metadata (NameNode block
//! locations), the same MetaStore contents, and the same set of alive nodes
//! always produce the same [`Assignment`]. The serving plane exploits that
//! by caching plans keyed on `(sub-dataset, EpochKey)` where the
//! [`EpochKey`] snapshots every mutation counter a plan depends on:
//!
//! * `NameNode::epoch()` — block registrations (copy-on-write mutations),
//! * the ingest epoch — MetaStore commits change sub-dataset contents,
//! * `SimCluster::epoch()` — node deaths invalidate task placements.
//!
//! Any mutation bumps one of the three counters, so a hit is *provably*
//! coherent: the cached plan was computed against byte-identical world
//! state. There is no TTL and no heuristic staleness — coherence is exact.

use super::Assignment;
use crate::symbol::FastMap;
use datanet_dfs::SubDatasetId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Snapshot of every mutation counter a plan depends on. Two equal keys
/// guarantee the worlds they were read from are plan-equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct EpochKey {
    /// `NameNode::epoch()` — bumped per block registration.
    pub namenode: u64,
    /// MetaStore ingest epoch — bumped per committed ingest batch.
    pub ingest: u64,
    /// `SimCluster::epoch()` — bumped per node-liveness change.
    pub cluster: u64,
}

impl EpochKey {
    /// Assemble a key from the three mutation counters.
    pub fn new(namenode: u64, ingest: u64, cluster: u64) -> Self {
        Self {
            namenode,
            ingest,
            cluster,
        }
    }
}

/// Planner-result cache: `(sub-dataset, epoch) → (Assignment, digest)`.
///
/// An entry is the plan with the digest of its wire form, taken once by
/// whoever planned it, behind one reference count: a hit copies a pointer.
/// Entries never expire: a stale epoch simply stops being looked up once
/// the world moves on. Hit/miss counters feed the serving metrics plane.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: FastMap<(SubDatasetId, EpochKey), Arc<(Assignment, u64)>>,
    hits: u64,
    misses: u64,
    /// Planted-bug hook: when set, lookups ignore the epoch component of
    /// the key entirely, serving whatever plan was cached first for the
    /// sub-dataset — exactly the staleness bug the serve cache-coherence
    /// oracle exists to catch. See [`PlanCache::plant_staleness`].
    ignore_epochs: bool,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the plan for `id` at `epoch`. Counts a hit or a miss.
    pub fn get(&mut self, id: SubDatasetId, epoch: EpochKey) -> Option<&Arc<(Assignment, u64)>> {
        let found = if self.ignore_epochs {
            // Planted bug: match on sub-dataset alone, returning the plan
            // from whichever epoch happened to be cached first.
            self.entries
                .iter()
                .find(|((sid, _), _)| *sid == id)
                .map(|(k, _)| *k)
        } else {
            self.entries
                .contains_key(&(id, epoch))
                .then_some((id, epoch))
        };
        match found {
            Some(key) => {
                self.hits += 1;
                self.entries.get(&key)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert the freshly computed plan for `id` at `epoch`, with its digest.
    pub fn insert(&mut self, id: SubDatasetId, epoch: EpochKey, planned: Arc<(Assignment, u64)>) {
        self.entries.insert((id, epoch), planned);
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the planner.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Test-only fault hook: make lookups ignore the epoch component of
    /// the key, so a plan cached before an ingest commit or node death is
    /// served after it — the cache-staleness bug the serve oracles must
    /// catch and shrink (see `datanet-check`). Never call this outside
    /// tests.
    #[doc(hidden)]
    pub fn plant_staleness(&mut self) {
        self.ignore_epochs = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{BlockId, NodeId};

    fn plan(weight: u64) -> Arc<(Assignment, u64)> {
        let mut a = Assignment::new(2);
        a.assign(NodeId(0), BlockId(0), weight, true);
        Arc::new((a, weight))
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let mut c = PlanCache::new();
        let e0 = EpochKey::new(1, 0, 0);
        let e1 = EpochKey::new(2, 0, 0);
        assert!(c.get(SubDatasetId(7), e0).is_none());
        c.insert(SubDatasetId(7), e0, plan(100));
        assert_eq!(c.get(SubDatasetId(7), e0).unwrap().0.max_workload(), 100);
        // Any counter moving invalidates: same sub-dataset, newer epoch.
        assert!(c.get(SubDatasetId(7), e1).is_none());
        assert!(c.get(SubDatasetId(8), e0).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn each_epoch_component_invalidates_independently() {
        let mut c = PlanCache::new();
        let base = EpochKey::new(3, 2, 1);
        c.insert(SubDatasetId(0), base, plan(1));
        assert!(c.get(SubDatasetId(0), base).is_some());
        for moved in [
            EpochKey::new(4, 2, 1),
            EpochKey::new(3, 3, 1),
            EpochKey::new(3, 2, 2),
        ] {
            assert!(c.get(SubDatasetId(0), moved).is_none());
        }
    }

    #[test]
    fn planted_staleness_serves_across_epochs() {
        let mut c = PlanCache::new();
        let old = EpochKey::new(1, 0, 0);
        let new = EpochKey::new(1, 1, 0);
        c.insert(SubDatasetId(5), old, plan(42));
        c.plant_staleness();
        // The bug: a lookup at the post-ingest epoch returns the
        // pre-ingest plan.
        assert_eq!(c.get(SubDatasetId(5), new).unwrap().0.max_workload(), 42);
        // Unknown sub-datasets still miss.
        assert!(c.get(SubDatasetId(6), new).is_none());
    }
}
