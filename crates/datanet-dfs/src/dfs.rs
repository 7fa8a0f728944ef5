//! The distributed file system facade: write path and queries.
//!
//! [`Dfs::write_random`] streams records into fixed-size blocks in arrival
//! order, seals each full block, and places its replicas on random distinct
//! nodes — the full HDFS write pipeline at the granularity the paper cares
//! about. [`Dfs::append_block`] seals one pre-chunked block the same way.

use crate::block::Block;
use crate::ids::{BlockId, NodeId, SubDatasetId};
use crate::namenode::NameNode;
use crate::placement::place_random;
use crate::record::{key_range_of, Record};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Configuration of a DFS instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfsConfig {
    /// Block capacity in bytes. The paper uses 64 MB; experiments here use a
    /// scaled-down default (see DESIGN.md — the simulator's behaviour is
    /// byte-ratio-invariant).
    pub block_size: u64,
    /// Replication factor (paper: 3).
    pub replication: usize,
    /// Data-node fleet.
    pub topology: Topology,
    /// Seed for placement randomness.
    pub seed: u64,
}

impl DfsConfig {
    /// The paper's setup at scale factor 1: 64 MB blocks, 3-way replication,
    /// single-rack cluster of `nodes`.
    pub fn paper(nodes: u32) -> Self {
        Self {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 0xDA7A_0001,
        }
    }
}

/// The write-time range profile at one resolution: every block's bytes
/// per key range, over all its records, keyed by [`key_range_of`] of the
/// record timestamp — the proxy the shuffle planner prices ranges with.
/// Planner metadata, `ranges × 8` bytes per block. A handle is a snapshot:
/// it keeps describing the blocks that existed when it was taken.
#[derive(Debug, Clone)]
pub struct RangeProfile {
    ranges: usize,
    /// Block-major: block `b`'s row is `bytes[b * ranges..][..ranges]`.
    bytes: Arc<Vec<u64>>,
}

impl RangeProfile {
    /// Bytes of block `b` per key range.
    pub fn of(&self, b: BlockId) -> &[u64] {
        &self.bytes[b.index() * self.ranges..][..self.ranges]
    }

    fn push(&mut self, block: &Block) {
        let bytes = Arc::make_mut(&mut self.bytes);
        let row = bytes.len();
        bytes.resize(row + self.ranges, 0);
        for r in block.records() {
            bytes[row + key_range_of(r.timestamp, self.ranges)] += u64::from(r.size);
        }
    }
}

/// An in-memory DFS instance: sealed blocks plus NameNode metadata.
#[derive(Debug)]
pub struct Dfs {
    config: DfsConfig,
    blocks: Vec<Block>,
    namenode: NameNode,
    /// One profile per `ranges` value asked for so far (a range is
    /// `splitmix(ts) % ranges`, so one resolution does not fold into
    /// another): built on first use, extended by every append.
    range_profiles: Mutex<Vec<RangeProfile>>,
}

impl Clone for Dfs {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            blocks: self.blocks.clone(),
            namenode: self.namenode.clone(),
            range_profiles: Mutex::new(self.profiles().clone()),
        }
    }
}

impl Dfs {
    /// Write a dataset: chunk `records` (in stream order) into blocks of
    /// `config.block_size` bytes and place each block's replicas on random
    /// distinct nodes (the paper's model), drawn from one stream seeded by
    /// `config.seed`.
    ///
    /// A record never straddles blocks (HDFS records are line-oriented; the
    /// paper's block boundaries fall between records). A block is sealed
    /// when adding the next record would exceed capacity.
    pub fn write_random(config: DfsConfig, records: impl IntoIterator<Item = Record>) -> Self {
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut namenode = NameNode::new(config.topology.len());
        let mut blocks: Vec<Block> = Vec::new();
        let mut current: Vec<Record> = Vec::new();
        let mut current_bytes = 0u64;

        let seal = |records: &mut Vec<Record>,
                    blocks: &mut Vec<Block>,
                    nn: &mut NameNode,
                    rng: &mut StdRng| {
            if records.is_empty() {
                return;
            }
            let id = BlockId(blocks.len() as u32);
            let block = Block::new(id, std::mem::take(records));
            let locations = place_random(&config.topology, config.replication, rng);
            nn.register(id, locations);
            blocks.push(block);
        };

        for r in records {
            if current_bytes + r.size as u64 > config.block_size && !current.is_empty() {
                seal(&mut current, &mut blocks, &mut namenode, &mut rng);
                current_bytes = 0;
            }
            current_bytes += r.size as u64;
            current.push(r);
        }
        seal(&mut current, &mut blocks, &mut namenode, &mut rng);

        Self {
            config,
            blocks,
            namenode,
            range_profiles: Mutex::default(),
        }
    }

    /// An empty DFS ready for streaming appends via [`Dfs::append_block`].
    pub fn empty(config: DfsConfig) -> Self {
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.replication > 0, "replication must be positive");
        let namenode = NameNode::new(config.topology.len());
        Self {
            config,
            blocks: Vec::new(),
            namenode,
            range_profiles: Mutex::default(),
        }
    }

    /// Append one pre-chunked block: seal `records` as the next block, place
    /// its replicas on random distinct nodes, and register it with the
    /// NameNode (a copy-on-write update — handles cloned earlier keep seeing
    /// the shorter snapshot).
    ///
    /// Placement randomness is drawn from a per-block stream derived from
    /// `config.seed` and the block id, so a block's replica locations do not
    /// depend on how many appends preceded it — two ingest histories that
    /// produce the same blocks produce the same placements.
    ///
    /// # Panics
    /// Panics if `records` is empty (HDFS never seals an empty block).
    pub fn append_block(&mut self, records: Vec<Record>) -> BlockId {
        assert!(!records.is_empty(), "cannot append an empty block");
        let id = BlockId(self.blocks.len() as u32);
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1),
        );
        let locations = place_random(&self.config.topology, self.config.replication, &mut rng);
        self.namenode.register(id, locations);
        let block = Block::new(id, records);
        for profile in self.profiles().iter_mut() {
            profile.push(&block);
        }
        self.blocks.push(block);
        id
    }

    /// The configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// All sealed blocks, id order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// One block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// NameNode metadata.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total payload bytes across all blocks.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.bytes()).sum()
    }

    /// Ground-truth bytes of sub-dataset `s` per block — the Figure 1(a)
    /// series, and the vector the simulated engine executes against. One
    /// [`Block::subdataset_bytes`] lookup per block, no record is read:
    /// O(blocks · log distinct).
    pub fn subdataset_distribution(&self, s: SubDatasetId) -> Vec<u64> {
        self.blocks.iter().map(|b| b.subdataset_bytes(s)).collect()
    }

    /// Ground-truth total bytes of sub-dataset `s`.
    pub fn subdataset_total(&self, s: SubDatasetId) -> u64 {
        self.blocks.iter().map(|b| b.subdataset_bytes(s)).sum()
    }

    /// The per-block range profile at `ranges` key ranges. The first call
    /// for a `ranges` value reads every record once; later calls, and the
    /// rows of blocks appended since, cost nothing here.
    ///
    /// # Panics
    /// Panics if `ranges == 0`.
    pub fn range_profile(&self, ranges: usize) -> RangeProfile {
        assert!(ranges > 0, "need at least one key range");
        let mut profiles = self.profiles();
        if let Some(p) = profiles.iter().find(|p| p.ranges == ranges) {
            return p.clone();
        }
        let mut profile = RangeProfile {
            ranges,
            bytes: Arc::new(Vec::with_capacity(self.blocks.len() * ranges)),
        };
        for block in &self.blocks {
            profile.push(block);
        }
        profiles.push(profile.clone());
        profile
    }

    fn profiles(&self) -> std::sync::MutexGuard<'_, Vec<RangeProfile>> {
        (self.range_profiles.lock()).expect("no holder of the profile lock panics")
    }

    /// Test hook: forget every block's records, keeping what the write
    /// path derived from them (bytes, size tables, the range profiles
    /// already built). Whatever still answers afterwards reads no record —
    /// the property the query path is tested for. Never call this outside
    /// tests.
    #[doc(hidden)]
    pub fn drop_payloads(&mut self) {
        for block in &mut self.blocks {
            block.drop_records();
        }
    }

    /// Nodes holding a replica of `b` (delegates to the NameNode).
    pub fn replicas(&self, b: BlockId) -> &[NodeId] {
        self.namenode.replicas(b)
    }

    /// Blocks with no surviving replica under `alive` (delegates to the
    /// NameNode).
    pub fn lost_blocks(&self, alive: &[bool]) -> Vec<BlockId> {
        self.namenode.lost_blocks(alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize, size: u32) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(SubDatasetId((i % 3) as u64), i as u64, size, i as u64))
            .collect()
    }

    fn tiny_config(block_size: u64) -> DfsConfig {
        DfsConfig {
            block_size,
            replication: 3,
            topology: Topology::single_rack(8),
            seed: 42,
        }
    }

    #[test]
    fn blocks_fill_to_capacity() {
        // 10 records of 100 B into 300 B blocks → 4 blocks (3+3+3+1).
        let dfs = Dfs::write_random(tiny_config(300), records(10, 100));
        assert_eq!(dfs.block_count(), 4);
        assert_eq!(dfs.blocks()[0].len(), 3);
        assert_eq!(dfs.blocks()[3].len(), 1);
        assert_eq!(dfs.total_bytes(), 1000);
    }

    #[test]
    fn oversized_record_gets_own_block() {
        let recs = vec![
            Record::new(SubDatasetId(0), 0, 50, 0),
            Record::new(SubDatasetId(0), 1, 500, 1), // bigger than capacity
            Record::new(SubDatasetId(0), 2, 50, 2),
        ];
        let dfs = Dfs::write_random(tiny_config(100), recs);
        assert_eq!(dfs.block_count(), 3);
        assert_eq!(dfs.blocks()[1].bytes(), 500);
    }

    #[test]
    fn every_block_is_replicated_and_registered() {
        let dfs = Dfs::write_random(tiny_config(250), records(40, 50));
        assert_eq!(dfs.namenode().block_count(), dfs.block_count());
        for b in dfs.blocks() {
            let reps = dfs.replicas(b.id());
            assert_eq!(reps.len(), 3);
            for &n in reps {
                assert!(dfs.namenode().is_local(b.id(), n));
            }
        }
    }

    #[test]
    fn distribution_sums_to_total() {
        let dfs = Dfs::write_random(tiny_config(300), records(30, 100));
        let s = SubDatasetId(1);
        let dist = dfs.subdataset_distribution(s);
        assert_eq!(dist.len(), dfs.block_count());
        assert_eq!(dist.iter().sum::<u64>(), dfs.subdataset_total(s));
        // 10 of the 30 records belong to sub-dataset 1.
        assert_eq!(dfs.subdataset_total(s), 1000);
    }

    #[test]
    fn write_is_deterministic() {
        let a = Dfs::write_random(tiny_config(300), records(30, 100));
        let b = Dfs::write_random(tiny_config(300), records(30, 100));
        assert_eq!(a.namenode(), b.namenode());
    }

    #[test]
    fn chronological_order_preserved_within_and_across_blocks() {
        let dfs = Dfs::write_random(tiny_config(300), records(30, 100));
        let mut last = 0;
        for b in dfs.blocks() {
            for r in b.records() {
                assert!(r.timestamp >= last);
                last = r.timestamp;
            }
        }
    }

    #[test]
    fn paper_config_values() {
        let c = DfsConfig::paper(128);
        assert_eq!(c.block_size, 64 * 1024 * 1024);
        assert_eq!(c.replication, 3);
        assert_eq!(c.topology.len(), 128);
    }

    #[test]
    fn empty_dataset_produces_no_blocks() {
        let dfs = Dfs::write_random(tiny_config(100), Vec::new());
        assert_eq!(dfs.block_count(), 0);
        assert_eq!(dfs.total_bytes(), 0);
    }

    #[test]
    fn append_block_registers_and_places() {
        let mut dfs = Dfs::empty(tiny_config(300));
        let a = dfs.append_block(records(3, 100));
        let b = dfs.append_block(records(2, 100));
        assert_eq!((a, b), (BlockId(0), BlockId(1)));
        assert_eq!(dfs.block_count(), 2);
        assert_eq!(dfs.namenode().block_count(), 2);
        for id in [a, b] {
            assert_eq!(dfs.replicas(id).len(), 3);
        }
        assert_eq!(dfs.total_bytes(), 500);
    }

    #[test]
    fn append_placement_is_history_independent() {
        // Block 1's replica locations are the same whether it arrives
        // second or tenth — the per-block rng stream depends only on
        // (config.seed, block id).
        let mut short = Dfs::empty(tiny_config(300));
        short.append_block(records(3, 100));
        short.append_block(records(2, 100));
        let mut long = Dfs::empty(tiny_config(300));
        for _ in 0..1 {
            long.append_block(records(3, 100));
        }
        long.append_block(records(2, 100));
        assert_eq!(short.replicas(BlockId(1)), long.replicas(BlockId(1)));
    }

    #[test]
    fn append_is_copy_on_write_for_namenode_clones() {
        let mut dfs = Dfs::empty(tiny_config(300));
        dfs.append_block(records(3, 100));
        let snapshot = dfs.namenode().clone();
        dfs.append_block(records(2, 100));
        assert_eq!(snapshot.block_count(), 1, "old handle keeps old snapshot");
        assert_eq!(dfs.namenode().block_count(), 2);
    }

    #[test]
    #[should_panic]
    fn append_empty_block_panics() {
        let mut dfs = Dfs::empty(tiny_config(300));
        dfs.append_block(Vec::new());
    }
}
