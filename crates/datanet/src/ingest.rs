//! Streaming ingest: incremental ElasticMap maintenance as blocks arrive.
//!
//! The batch path ([`crate::scan::ElasticMapArray::build`]) assumes a frozen
//! dataset and rescans everything. This module is the paper's premise taken
//! seriously — per-block summaries are collected **at write time**, HAIL's
//! "index while uploading" piggybacked on the DFS write pipeline:
//!
//! * [`Ingestor::append`] accepts a sealed block as it arrives over the
//!   simulated clock and keeps a handle on the per-sub-dataset size table
//!   the DFS write built for it as a lossless **delta map** (everything
//!   exact — a bloom filter cannot be un-inserted, so the write path never
//!   commits to a separation early).
//! * Periodic **compaction** seals pending deltas through the same bucket
//!   walk the batch build uses ([`ElasticMap`]'s separation policy), builds
//!   their [`BlockSummary`] sidecars, and pushes them onto the sealed
//!   [`ElasticMapArray`] in block order ([`ElasticMapArray::push`]
//!   interns). Sealing is where **re-dominance**
//!   happens: a sub-dataset that was exact in the delta but falls below
//!   the block's dominance threshold is demoted to the bloom tail — it
//!   crossed the dominant/bloom boundary as the block's contents grew
//!   around it ([`IngestStats::redominated`] counts these crossings).
//! * [`Ingestor::commit`] persists an **epoch-stamped snapshot**: complete
//!   shards are written once as the immutable `shard-NNNN.json` files the
//!   batch writer produces, the partial tail goes to a per-epoch
//!   `epoch-NNNN.json`, and a per-epoch manifest (`manifest-eNNNN.json`)
//!   freezes the store as of that epoch so planners can time-travel with
//!   [`crate::MetaStore::open_replicated_at_epoch`]. The live
//!   `manifest.json` is written **last** in the plan, so a crash anywhere
//!   mid-commit leaves the previous epoch durable and intact.
//!
//! The governing invariant — enforced by the `datanet-check` ingest oracles
//! and the ingest integration tests — is that at every prefix of the
//! arrival sequence, [`Ingestor::snapshot`] is byte-identical (serialized)
//! to a from-scratch [`crate::scan::ElasticMapArray::build`] over the same
//! blocks, including across out-of-order arrival, crash, and resume.

use crate::distribution::SubDatasetView;
use crate::elasticmap::{mean_record_buckets, ElasticMap, Separation, SizeInfo};
use crate::scan::ElasticMapArray;
use crate::store::{
    epoch_file, epoch_manifest_file, epoch_summary_file, nothing_durable, push_shard, shard_file,
    summary_file, BlockSummary, Manifest, MetaStore, StoreError, WritePlan, FORMAT_VERSION,
    LIVE_MANIFEST,
};
use datanet_dfs::{Block, BlockId, SubDatasetId};
use datanet_obs::{Category, Domain, FlightKind, Recorder, SpanCtx};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Default compaction batch and blocks per persisted shard.
const SHARD_BLOCKS: usize = 16;

/// Tuning knobs of a streaming [`Ingestor`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Separation policy applied when deltas are sealed (must match the
    /// batch build's policy for snapshot equivalence).
    pub policy: Separation,
    /// Compact once this many contiguous pending blocks have accumulated.
    pub compact_every: usize,
    /// Blocks per persisted shard file (the store layout granularity).
    pub shard_blocks: usize,
}

impl IngestConfig {
    /// Defaults mirroring the batch path: α = 0.3 separation, compaction
    /// every `SHARD_BLOCKS` arrivals, one shard per compaction batch.
    pub fn new(policy: Separation) -> Self {
        Self {
            policy,
            compact_every: SHARD_BLOCKS,
            shard_blocks: SHARD_BLOCKS,
        }
    }
}

/// Running totals of one ingest session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Blocks accepted by [`Ingestor::append`].
    pub appended_blocks: u64,
    /// Records across all appended blocks.
    pub appended_records: u64,
    /// Payload bytes across all appended blocks.
    pub appended_bytes: u64,
    /// Compaction passes that folded at least one delta.
    pub compactions: u64,
    /// Sub-datasets demoted from the (all-exact) delta to the bloom tail at
    /// seal time — boundary crossings of the dominant/bloom separation.
    pub redominated: u64,
    /// Durable epochs committed by this session.
    pub epochs_committed: u64,
    /// Blocks adopted from disk by [`Ingestor::resume`] without
    /// re-summarizing (0 for a fresh ingestor).
    pub resumed_blocks: u64,
    /// Block summaries built at seal time this session.
    pub summaries_built: u64,
}

/// Write-time delta: one block's lossless per-sub-dataset size table —
/// the very allocation the block built when it was written, shared —
/// pending until compaction seals it through the separation policy.
#[derive(Debug, Clone)]
struct DeltaMap {
    block: BlockId,
    sizes: Arc<[(SubDatasetId, u64)]>,
    bytes: u64,
    records: usize,
}

impl DeltaMap {
    fn of(block: &Block) -> Self {
        Self {
            block: block.id(),
            sizes: Arc::clone(block.subdataset_sizes()),
            bytes: block.bytes(),
            records: block.len(),
        }
    }

    /// Distinct sub-datasets in the delta (all exact).
    fn distinct(&self) -> usize {
        self.sizes.len()
    }

    /// Exact size of `s` in this pending block.
    fn query(&self, s: SubDatasetId) -> SizeInfo {
        match self.sizes.binary_search_by_key(&s, |&(id, _)| id) {
            Ok(i) => SizeInfo::Exact(self.sizes[i].1),
            Err(_) => SizeInfo::Absent,
        }
    }

    /// Seal through the separation policy: the same size table through
    /// the same buckets as [`ElasticMap::build`], so the sealed map is
    /// byte-identical to a batch build of the same block.
    fn seal(&self, policy: &Separation) -> ElasticMap {
        ElasticMap::from_size_table(
            self.block,
            &self.sizes,
            policy,
            mean_record_buckets(self.bytes, self.records),
        )
    }
}

/// One durable ingest epoch: the new shard files and the tail, then
/// `manifest-eNNNN.json`, then the live `manifest.json`. A crash after any
/// strict prefix leaves the store opening at the previous epoch.
pub type CommitPlan = WritePlan<Manifest>;

impl CommitPlan {
    /// The epoch this plan commits.
    pub fn epoch(&self) -> u64 {
        self.manifest().epoch
    }
}

/// Streaming-ingest engine: accepts arriving blocks, maintains the
/// ElasticMap array incrementally, and persists epoch-stamped snapshots.
#[derive(Debug)]
pub struct Ingestor {
    cfg: IngestConfig,
    /// Sealed maps: the array a batch build of the same blocks would give.
    sealed: ElasticMapArray,
    /// Bloom-only sidecars, parallel to `sealed`'s maps.
    summaries: Vec<BlockSummary>,
    /// Arrived-but-unsealed deltas, keyed by block id (out-of-order safe).
    pending: BTreeMap<u32, DeltaMap>,
    durable_epoch: u64,
    durable_blocks: usize,
    durable_shard_crc: Vec<u32>,
    durable_summary_crc: Vec<u32>,
    stats: IngestStats,
    rec: Recorder,
}

impl Ingestor {
    /// A fresh ingestor with nothing durable.
    ///
    /// # Panics
    /// Panics on a zero `compact_every` or `shard_blocks`.
    pub fn new(cfg: IngestConfig) -> Self {
        assert!(cfg.compact_every > 0, "compact_every must be positive");
        assert!(cfg.shard_blocks > 0, "shard_blocks must be positive");
        Self {
            sealed: ElasticMapArray::from_maps(Vec::new(), cfg.policy.clone()),
            cfg,
            summaries: Vec::new(),
            pending: BTreeMap::new(),
            durable_epoch: 0,
            durable_blocks: 0,
            durable_shard_crc: Vec::new(),
            durable_summary_crc: Vec::new(),
            stats: IngestStats::default(),
            rec: Recorder::off(),
        }
    }

    /// Reopen a store written by an earlier ingest session and continue
    /// from its last durable epoch. Every durable block's map and summary
    /// is adopted from disk — nothing is re-summarized
    /// ([`IngestStats::summaries_built`] stays 0 until new blocks arrive).
    /// The separation policy and shard size are taken from the manifest so
    /// the resumed session extends exactly the store it found. The caller
    /// re-feeds blocks with ids ≥ [`Ingestor::blocks`] (arrivals the crash
    /// swallowed).
    ///
    /// A store that crashed *before its first commit* has no live manifest
    /// on any replica — nothing was ever durable, so that is a fresh
    /// epoch-0 ingest under the caller's `cfg`, not an error.
    ///
    /// # Errors
    /// Whatever [`MetaStore::open_replicated`] or the shard/summary reads
    /// surface.
    pub fn resume(mut cfg: IngestConfig, dirs: &[&Path]) -> Result<Self, StoreError> {
        if nothing_durable(dirs, LIVE_MANIFEST) {
            return Ok(Self::new(cfg));
        }
        let mut store = MetaStore::open_replicated(dirs, 2)?;
        let manifest = store.manifest().clone();
        cfg.policy = manifest.policy.clone();
        cfg.shard_blocks = manifest.shard_blocks;
        let mut ing = Self::new(cfg);
        for i in 0..manifest.shard_count() {
            for map in store.shard(i)? {
                ing.sealed.push(map.clone());
            }
            ing.summaries.extend(store.summary(i)?);
        }
        ing.stats.resumed_blocks = manifest.blocks as u64;
        ing.durable_epoch = manifest.epoch;
        ing.durable_blocks = manifest.blocks;
        ing.durable_shard_crc = manifest.shard_crc;
        ing.durable_summary_crc = manifest.summary_crc;
        Ok(ing)
    }

    /// Attach an observability recorder: `ingest` spans on the simulated
    /// clock per arrival, `compaction` spans on the wall clock, and
    /// counters for folds, re-dominance demotions, and commits.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The configuration (post-resume it reflects the on-disk store).
    pub fn config(&self) -> &IngestConfig {
        &self.cfg
    }

    /// Session statistics.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Blocks known to this ingestor: sealed base plus pending deltas.
    pub fn blocks(&self) -> usize {
        self.sealed.len() + self.pending.len()
    }

    /// Accept one arriving block at simulated time `now_us`. Out-of-order
    /// arrival is fine — deltas park in an id-ordered pending set and
    /// compaction folds only the contiguous prefix. Auto-compacts once
    /// `compact_every` contiguous blocks are pending.
    ///
    /// # Panics
    /// Panics on an empty block, a block id already ingested, or a
    /// duplicate pending id.
    pub fn append(&mut self, block: &Block, now_us: u64) {
        assert!(!block.is_empty(), "cannot ingest an empty block");
        let id = block.id();
        assert!(
            id.index() >= self.sealed.len(),
            "block {id} was already compacted"
        );
        assert!(
            !self.pending.contains_key(&id.0),
            "block {id} is already pending"
        );
        let span = self.rec.begin(
            Category::Ingest,
            "ingest",
            Domain::Sim,
            now_us,
            SpanCtx::default().block(id.index() as u64),
        );
        let delta = DeltaMap::of(block);
        self.stats.appended_blocks += 1;
        self.stats.appended_records += delta.records as u64;
        self.stats.appended_bytes += delta.bytes;
        self.rec.add("ingest_appended_blocks", 1);
        self.pending.insert(id.0, delta);
        self.rec.end(span, now_us);
        if self.contiguous_pending() >= self.cfg.compact_every {
            self.compact();
        }
    }

    /// Length of the contiguous pending run starting at the base frontier.
    fn contiguous_pending(&self) -> usize {
        (self.sealed.len() as u32..)
            .zip(self.pending.keys())
            .take_while(|(next, &id)| id == *next)
            .count()
    }

    /// Fold the contiguous pending prefix into the sealed array: seal each
    /// delta through the separation policy, build its
    /// summary sidecar, and push the maps in block order. Returns the
    /// number of blocks folded (0 when nothing was contiguous).
    pub fn compact(&mut self) -> usize {
        let run = self.contiguous_pending();
        if run == 0 {
            return 0;
        }
        let span = self.rec.begin(
            Category::Compaction,
            "compaction",
            Domain::Wall,
            self.rec.wall_us(),
            SpanCtx::default().note(format!("{run} blocks")),
        );
        let first = self.sealed.len() as u32;
        let mut redominated = 0u64;
        for id in first..first + run as u32 {
            let delta = self.pending.remove(&id).expect("contiguous run");
            let map = delta.seal(&self.cfg.policy);
            redominated += (delta.distinct() - map.exact_len()) as u64;
            self.summaries.push(BlockSummary::of(&map));
            self.sealed.push(map);
            self.stats.summaries_built += 1;
        }
        self.stats.redominated += redominated;
        self.stats.compactions += 1;
        self.rec.add("ingest_compactions", 1);
        self.rec.add("ingest_redominated", redominated);
        self.rec.end_with_note(
            span,
            self.rec.wall_us(),
            &format!("{run} folded, {redominated} redominated"),
        );
        run
    }

    /// Query one `(block, sub-dataset)` cell. Sealed blocks answer through
    /// their ElasticMap; pending blocks answer from the lossless delta
    /// (always exact — the write path has not separated them yet).
    pub fn query(&self, b: BlockId, s: SubDatasetId) -> SizeInfo {
        if b.index() < self.sealed.len() {
            self.sealed.query(b, s)
        } else if let Some(d) = self.pending.get(&b.0) {
            d.query(s)
        } else {
            SizeInfo::Absent
        }
    }

    /// Distribution view of one sub-dataset over everything ingested so
    /// far — sealed base plus pending deltas (whose answers are exact).
    pub fn view(&self, s: SubDatasetId) -> SubDatasetView {
        let ids = [s];
        let mut fold = self.sealed.fold(&ids);
        for d in self.pending.values() {
            fold.fold_sizes(d.block, &d.sizes);
        }
        (fold.finish().pop()).expect("one view per probe id")
    }

    /// Materialize the current state as an [`ElasticMapArray`]: the sealed
    /// base plus a non-destructive seal of the contiguous pending prefix.
    /// With in-order arrival this is byte-identical (serialized) to
    /// [`ElasticMapArray::build`] over the same blocks — the invariant the
    /// ingest oracles enforce at every arrival prefix.
    pub fn snapshot(&self) -> ElasticMapArray {
        let mut out = self.sealed.clone();
        while let Some(d) = self.pending.get(&(out.len() as u32)) {
            out.push(d.seal(&self.cfg.policy));
        }
        out
    }

    /// Plan the next durable epoch: compact, then serialize everything that
    /// became complete since the last commit. Returns `None` when nothing
    /// new is durable-worthy (no sealed growth since the last commit).
    ///
    /// The plan writes, in order: newly-completed `shard-NNNN.json` files
    /// with their summaries (immutable once written — earlier epochs keep
    /// referencing them), the partial tail as `epoch-NNNN.json` (+ summary),
    /// the immutable `manifest-eNNNN.json`, and finally the live
    /// `manifest.json`.
    pub fn commit_plan(&mut self) -> Option<CommitPlan> {
        self.compact();
        let blocks = self.sealed.len();
        if blocks == self.durable_blocks {
            return None;
        }
        let epoch = self.durable_epoch + 1;
        let sb = self.cfg.shard_blocks;
        let full = blocks / sb;
        let durable_full = self.durable_shard_crc.len();
        let mut shard_crc = self.durable_shard_crc.clone();
        let mut summary_crc = self.durable_summary_crc.clone();
        let mut writes = Vec::new();
        let (sealed, summaries) = (&self.sealed, &self.summaries);
        for i in durable_full..full {
            let span = i * sb..(i + 1) * sb;
            let names = [shard_file(i), summary_file(i)];
            let maps = sealed.maps_in(span.clone());
            let (m, s) = push_shard(&mut writes, names, &maps, &summaries[span]);
            shard_crc.push(m);
            summary_crc.push(s);
        }
        let (tail_crc, tail_summary_crc) = if !blocks.is_multiple_of(sb) {
            let span = full * sb..blocks;
            let names = [epoch_file(epoch), epoch_summary_file(epoch)];
            let maps = sealed.maps_in(span.clone());
            let (m, s) = push_shard(&mut writes, names, &maps, &summaries[span]);
            (Some(m), Some(s))
        } else {
            (None, None)
        };
        let manifest = Manifest {
            blocks,
            shard_blocks: sb,
            policy: self.cfg.policy.clone(),
            version: FORMAT_VERSION,
            shard_crc,
            summary_crc,
            epoch,
            tail_crc,
            tail_summary_crc,
        };
        let immutable = Some(epoch_manifest_file(epoch));
        Some(WritePlan::of(manifest, writes, immutable, LIVE_MANIFEST))
    }

    /// Adopt a fully-applied plan as the new durable state.
    pub fn mark_durable(&mut self, plan: &CommitPlan) {
        let manifest = plan.manifest();
        self.durable_epoch = manifest.epoch;
        self.durable_blocks = manifest.blocks;
        self.durable_shard_crc = manifest.shard_crc.clone();
        self.durable_summary_crc = manifest.summary_crc.clone();
        self.stats.epochs_committed += 1;
        self.rec.add("ingest_epochs", 1);
        self.rec.flight(
            FlightKind::CheckpointCommit,
            Domain::Wall,
            self.rec.wall_us(),
            None,
            format!(
                "ingest epoch {} durable at {} blocks",
                manifest.epoch, manifest.blocks
            ),
        );
    }

    /// Compact and persist the next epoch to every replica directory.
    /// Returns the durable epoch after the call — unchanged when there was
    /// nothing new to commit (no writes happen in that case).
    ///
    /// # Errors
    /// Filesystem failures; durable state is only advanced after every
    /// write of the plan landed on every replica.
    pub fn commit(&mut self, dirs: &[&Path]) -> Result<u64, StoreError> {
        match self.commit_plan() {
            None => Ok(self.durable_epoch),
            Some(plan) => {
                plan.apply(dirs)?;
                self.mark_durable(&plan);
                Ok(plan.epoch())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{Dfs, DfsConfig, Record, Topology};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdirs(tag: &str, k: usize) -> Vec<PathBuf> {
        (0..k)
            .map(|i| {
                let d = std::env::temp_dir()
                    .join(format!("datanet-ingest-{tag}-r{i}-{}", std::process::id()));
                let _ = fs::remove_dir_all(&d);
                d
            })
            .collect()
    }

    fn sample_dfs() -> Dfs {
        let recs = (0..2600u64)
            .map(|i| Record::new(SubDatasetId(i % 37), i, 90 + (i % 11) as u32 * 30, i));
        Dfs::write_random(
            DfsConfig {
                block_size: 9_000,
                replication: 2,
                topology: Topology::single_rack(5),
                seed: 23,
            },
            recs,
        )
    }

    fn cfg() -> IngestConfig {
        IngestConfig {
            policy: Separation::Alpha(0.35),
            compact_every: 3,
            shard_blocks: 4,
        }
    }

    #[test]
    fn snapshot_equals_batch_build_at_every_prefix() {
        let dfs = sample_dfs();
        assert!(dfs.block_count() >= 10, "need a real stream");
        let mut ing = Ingestor::new(cfg());
        let mut live = Dfs::empty(dfs.config().clone());
        for (k, b) in dfs.blocks().iter().enumerate() {
            let id = live.append_block(b.records().to_vec());
            ing.append(live.block(id), k as u64 * 1000);
            let inc = serde_json::to_string(&ing.snapshot()).unwrap();
            let scratch = ElasticMapArray::build(&live, &Separation::Alpha(0.35));
            let batch = serde_json::to_string(&scratch).unwrap();
            assert_eq!(inc, batch, "prefix of {} blocks diverged", k + 1);
            assert_eq!(ing.snapshot().symbols(), scratch.symbols());
        }
        assert!(ing.stats().compactions > 0, "auto-compaction never fired");
        assert!(ing.stats().redominated > 0, "expected demotions under α");
    }

    #[test]
    fn pending_blocks_answer_exactly() {
        let dfs = sample_dfs();
        let mut ing = Ingestor::new(IngestConfig {
            compact_every: 1000, // never auto-compact
            ..cfg()
        });
        let b = &dfs.blocks()[0];
        ing.append(b, 0);
        let s = b.records()[0].subdataset;
        assert_eq!(
            ing.query(b.id(), s),
            SizeInfo::Exact(b.subdataset_bytes(s)),
            "pending delta must be lossless"
        );
        assert_eq!(ing.query(b.id(), SubDatasetId(9_999)), SizeInfo::Absent);
        assert_eq!(ing.pending.len(), 1);
        ing.compact();
        assert_eq!(ing.pending.len(), 0);
    }

    #[test]
    fn out_of_order_arrival_converges() {
        let dfs = sample_dfs();
        let n = dfs.block_count().min(7);
        let mut inorder = Ingestor::new(cfg());
        for b in &dfs.blocks()[..n] {
            inorder.append(b, 0);
        }
        inorder.compact();
        // Reverse arrival: nothing is contiguous until block 0 lands.
        let mut reversed = Ingestor::new(cfg());
        for b in dfs.blocks()[..n].iter().rev() {
            reversed.append(b, 0);
        }
        reversed.compact();
        assert_eq!(reversed.pending.len(), 0);
        assert_eq!(
            serde_json::to_string(&inorder.snapshot()).unwrap(),
            serde_json::to_string(&reversed.snapshot()).unwrap()
        );
    }

    #[test]
    fn commit_roundtrips_through_metastore() {
        let dfs = sample_dfs();
        let dirs = tmpdirs("commit", 2);
        let refs: Vec<&Path> = dirs.iter().map(|p| p.as_path()).collect();
        let mut ing = Ingestor::new(cfg());
        for b in dfs.blocks() {
            ing.append(b, 0);
        }
        let epoch = ing.commit(&refs).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(ing.stats().epochs_committed, 1);
        // No growth → same epoch, no new writes.
        assert_eq!(ing.commit(&refs).unwrap(), 1);

        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        assert_eq!(store.manifest().epoch, 1);
        assert_eq!(store.manifest().blocks, dfs.block_count());
        assert_eq!(store.manifest().version, FORMAT_VERSION);
        let snap = ing.snapshot();
        for s in 0..40u64 {
            assert_eq!(
                store.view(SubDatasetId(s)).unwrap(),
                snap.view(SubDatasetId(s))
            );
        }
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn full_shards_are_byte_identical_to_batch_writer() {
        let dfs = sample_dfs();
        let dirs = tmpdirs("bytes", 1);
        let batch_dirs = tmpdirs("bytes-batch", 1);
        let refs: Vec<&Path> = dirs.iter().map(|p| p.as_path()).collect();
        let mut ing = Ingestor::new(cfg());
        for b in dfs.blocks() {
            ing.append(b, 0);
            // Commit every arrival: maximal epoch churn.
            ing.commit(&refs).unwrap();
        }
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.35));
        MetaStore::save(&arr, &batch_dirs[0], 4).unwrap();
        for i in 0..dfs.block_count() / 4 {
            let a = fs::read(dirs[0].join(shard_file(i))).unwrap();
            let b = fs::read(batch_dirs[0].join(shard_file(i))).unwrap();
            assert_eq!(a, b, "shard {i} bytes diverge from the batch writer");
            let a = fs::read(dirs[0].join(summary_file(i))).unwrap();
            let b = fs::read(batch_dirs[0].join(summary_file(i))).unwrap();
            assert_eq!(a, b, "summary {i} bytes diverge from the batch writer");
        }
        for d in dirs.iter().chain(&batch_dirs) {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn crash_prefix_preserves_previous_epoch_and_resume_continues() {
        let dfs = sample_dfs();
        let dirs = tmpdirs("crash", 2);
        let refs: Vec<&Path> = dirs.iter().map(|p| p.as_path()).collect();
        let half = dfs.block_count() / 2;
        let mut ing = Ingestor::new(cfg());
        for b in &dfs.blocks()[..half] {
            ing.append(b, 0);
        }
        ing.commit(&refs).unwrap();

        // Append the rest, then crash after every possible write prefix of
        // the next commit's plan — the store must always open at epoch 1.
        for b in &dfs.blocks()[half..] {
            ing.append(b, 0);
        }
        let plan = ing.commit_plan().expect("there is growth to commit");
        for n in 0..plan.writes() {
            plan.apply_prefix(&refs, n).unwrap();
            let mut store = MetaStore::open_replicated(&refs, 1).unwrap();
            assert_eq!(store.manifest().epoch, 1, "prefix {n} leaked epoch 2");
            assert_eq!(store.manifest().blocks, half);
            store.view(SubDatasetId(3)).unwrap();
        }

        // Resume from the durable epoch, re-feed the swallowed arrivals.
        let mut resumed = Ingestor::resume(cfg(), &refs).unwrap();
        assert_eq!(resumed.stats().resumed_blocks, half as u64);
        assert_eq!(resumed.stats().summaries_built, 0, "no re-summarizing");
        assert_eq!(resumed.durable_epoch, 1);
        assert_eq!(resumed.blocks(), half);
        for b in &dfs.blocks()[half..] {
            resumed.append(b, 0);
        }
        let epoch = resumed.commit(&refs).unwrap();
        assert_eq!(epoch, 2);
        let batch = ElasticMapArray::build(&dfs, &Separation::Alpha(0.35));
        assert_eq!(
            serde_json::to_string(&resumed.snapshot()).unwrap(),
            serde_json::to_string(&batch).unwrap(),
            "resume lost equivalence with the batch build"
        );
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn resume_before_first_commit_starts_fresh_epoch_zero_ingest() {
        let dfs = sample_dfs();
        let dirs = tmpdirs("resume-e0", 2);
        let refs: Vec<&Path> = dirs.iter().map(|p| p.as_path()).collect();

        // Crash after every strict prefix of the *first* commit's plan: no
        // live manifest ever lands, so resume must hand back a fresh
        // ingestor instead of erroring (regression: it used to surface
        // MetaStore::open_replicated's missing-manifest error).
        let mut ing = Ingestor::new(cfg());
        for b in dfs.blocks() {
            ing.append(b, 0);
        }
        let plan = ing.commit_plan().expect("there is growth to commit");
        for n in 0..plan.writes() {
            plan.apply_prefix(&refs, n).unwrap();
            let resumed = Ingestor::resume(cfg(), &refs).unwrap();
            assert_eq!(resumed.blocks(), 0, "prefix {n}: nothing was durable");
            assert_eq!(resumed.durable_epoch, 0);
            assert_eq!(resumed.stats().resumed_blocks, 0);
        }

        // Entirely empty directories (not even data files) work too, and
        // the fresh ingestor commits a normal epoch-1 snapshot.
        let empty = tmpdirs("resume-e0-empty", 2);
        let erefs: Vec<&Path> = empty.iter().map(|p| p.as_path()).collect();
        let mut fresh = Ingestor::resume(cfg(), &erefs).unwrap();
        for b in dfs.blocks() {
            fresh.append(b, 0);
        }
        assert_eq!(fresh.commit(&erefs).unwrap(), 1);
        let batch = ElasticMapArray::build(&dfs, &Separation::Alpha(0.35));
        assert_eq!(
            serde_json::to_string(&fresh.snapshot()).unwrap(),
            serde_json::to_string(&batch).unwrap(),
        );
        for d in dirs.iter().chain(&empty) {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn epoch_manifests_time_travel() {
        let dfs = sample_dfs();
        let dirs = tmpdirs("epoch", 2);
        let refs: Vec<&Path> = dirs.iter().map(|p| p.as_path()).collect();
        let mut ing = Ingestor::new(cfg());
        let mut at_epoch: Vec<(u64, usize, String)> = Vec::new();
        for (k, b) in dfs.blocks().iter().enumerate() {
            ing.append(b, 0);
            if (k + 1) % 5 == 0 {
                ing.compact();
                let epoch = ing.commit(&refs).unwrap();
                at_epoch.push((
                    epoch,
                    ing.blocks(),
                    serde_json::to_string(&ing.snapshot()).unwrap(),
                ));
            }
        }
        assert!(at_epoch.len() >= 2, "need several epochs");
        for (epoch, blocks, want) in &at_epoch {
            let mut store = MetaStore::open_replicated_at_epoch(&refs, *epoch, 2).unwrap();
            assert_eq!(store.manifest().blocks, *blocks);
            assert_eq!(store.manifest().epoch, *epoch);
            let mut maps = Vec::new();
            for i in 0..store.manifest().shard_count() {
                maps.extend_from_slice(store.shard(i).unwrap());
            }
            let arr = ElasticMapArray::from_maps(maps, store.manifest().policy.clone());
            assert_eq!(
                &serde_json::to_string(&arr).unwrap(),
                want,
                "epoch {epoch} does not replay the snapshot it froze"
            );
        }
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn ingest_spans_and_counters_are_recorded() {
        let dfs = sample_dfs();
        let rec = Recorder::new();
        let mut ing = Ingestor::new(cfg());
        ing.set_recorder(rec.clone());
        for (k, b) in dfs.blocks().iter().enumerate().take(6) {
            ing.append(b, k as u64 * 500);
        }
        ing.compact();
        let data = rec.take();
        assert_eq!(data.unclosed_spans(), 0);
        let ingests = data.spans.iter().filter(|s| s.name == "ingest").count();
        assert_eq!(ingests, 6, "one ingest span per arrival");
        assert!(data.spans.iter().any(|s| s.name == "compaction"));
        assert_eq!(data.counters["ingest_appended_blocks"], 6);
        assert!(data.counters["ingest_compactions"] >= 1);
    }
}
