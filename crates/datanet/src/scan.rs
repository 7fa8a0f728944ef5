//! Single-scan construction of the per-block ElasticMap array
//! (Section III-B: "only a single scan of the raw data is needed for the
//! meta-data construction").
//!
//! The scan is one thread walking the blocks in order: each block's
//! ElasticMap is built and appended through [`ElasticMapArray::push`], the
//! array's only growth primitive. `push` interns dominant ids as it goes,
//! so the table is in block-major first-appearance order whoever produced
//! the maps — the scan, a decoded store, or the streaming ingestor.
//!
//! The read side is just as single: [`ViewFold`] is the one place a
//! per-block answer turns into the Equation 6 view of a sub-dataset.

use crate::distribution::SubDatasetView;
use crate::elasticmap::{ElasticMap, Separation, SizeInfo, BLOOM_EPSILON};
use crate::store::BlockSummary;
use crate::symbol::SymbolTable;
use datanet_dfs::{BlockId, Dfs, SubDatasetId};
use datanet_obs::{Category, Domain, Recorder, SpanCtx};
use serde::{DeError, Deserialize, Serialize, Value};

/// What the meta-data knows about one probed sub-dataset so far.
#[derive(Clone)]
struct Tally {
    /// τ₁: `(block, exact bytes)`, in fold order.
    exact: Vec<(BlockId, u64)>,
    /// τ₂: blocks that only answered "maybe present", in fold order.
    bloom: Vec<BlockId>,
    /// Smallest δ bound among the τ₂ blocks (`u64::MAX` while τ₂ is empty).
    delta: u64,
}

impl Tally {
    #[inline]
    fn put(&mut self, map: &ElasticMap, info: SizeInfo) {
        match info {
            SizeInfo::Exact(size) => self.exact.push((map.block(), size)),
            SizeInfo::Approximate => self.approximate(map.block(), map.bloom_delta_hint()),
            SizeInfo::Absent => {}
        }
    }

    fn approximate(&mut self, block: BlockId, delta: u64) {
        self.bloom.push(block);
        self.delta = self.delta.min(delta);
    }
}

/// Batched accumulator of Equation 6 views: probe ids in, per-block
/// answers folded **in block order**, one [`SubDatasetView`] per input id
/// out (input order, repeats allowed). Every holder of ElasticMaps — the
/// array, the ingestor's live state, the store's shard walk — reads
/// through this fold, so τ₁/τ₂/δ are derived in exactly one place.
pub(crate) struct ViewFold<'a> {
    ids: &'a [SubDatasetId],
    /// The probe ids ascending, so each map answers them in one forward
    /// pass ([`ElasticMap::query_sorted`]).
    sorted: Vec<SubDatasetId>,
    /// `sorted[k]` is `ids[order[k]]`.
    order: Vec<usize>,
    /// One tally per input position.
    tallies: Vec<Tally>,
}

impl<'a> ViewFold<'a> {
    pub(crate) fn new(ids: &'a [SubDatasetId]) -> Self {
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by_key(|&i| ids[i]);
        let empty = Tally {
            exact: Vec::new(),
            bloom: Vec::new(),
            delta: u64::MAX,
        };
        Self {
            ids,
            sorted: order.iter().map(|&i| ids[i]).collect(),
            order,
            tallies: vec![empty; ids.len()],
        }
    }

    /// Fold a run of consecutive blocks' full maps (a whole array, one
    /// shard). It takes the run, not one map, so the one-probe/batch choice
    /// sits outside the per-block loop: made per map it cost the single-id
    /// view 5–14 % (in-process A/B over 1 025 blocks, cache hot and cold).
    pub(crate) fn fold_maps(&mut self, maps: &[ElasticMap]) {
        match self.sorted[..] {
            // One probe: a binary search beats walking the exact side.
            [id] => {
                let tally = &mut self.tallies[0];
                for map in maps {
                    tally.put(map, map.query(id));
                }
            }
            _ => {
                for map in maps {
                    map.query_sorted(&self.sorted, |k, info| {
                        self.tallies[self.order[k]].put(map, info)
                    });
                }
            }
        }
    }

    /// Fold one block's bloom-only summary (its full map is lost):
    /// membership and a δ bound, never a size.
    pub(crate) fn fold_summary(&mut self, summary: &BlockSummary) {
        for (tally, &id) in self.tallies.iter_mut().zip(self.ids) {
            if summary.contains(id) {
                tally.approximate(summary.block(), summary.delta());
            }
        }
    }

    /// Fold one block's lossless size table (a write-time delta the
    /// ingestor has not sealed yet): every answer is exact.
    pub(crate) fn fold_sizes(&mut self, block: BlockId, sizes: &[(SubDatasetId, u64)]) {
        for (tally, id) in self.tallies.iter_mut().zip(self.ids) {
            if let Ok(i) = sizes.binary_search_by_key(id, |&(s, _)| s) {
                tally.exact.push((block, sizes[i].1));
            }
        }
    }

    /// The views, one per input id in input order.
    pub(crate) fn finish(self) -> Vec<SubDatasetView> {
        self.ids
            .iter()
            .zip(self.tallies)
            .map(|(&id, t)| SubDatasetView::new(id, t.exact, t.bloom, t.delta))
            .collect()
    }
}

/// The DataNet meta-data structure over all blocks (the paper's Figure 3:
/// an array with one ElasticMap pointer per block file).
#[derive(Debug, Clone)]
pub struct ElasticMapArray {
    maps: Vec<ElasticMap>,
    policy: Separation,
    /// Every **dominant** (exactly-stored) sub-dataset id, interned in
    /// block-major first-appearance order. Bloom-tail ids are not listed —
    /// a bloom filter cannot be enumerated. Lets planner-side code test
    /// "does this id have exact bytes anywhere?" without touching a map.
    symbols: SymbolTable,
}

impl ElasticMapArray {
    /// Build the array from the DFS blocks' write-time size tables, in
    /// block order (the single scan of the raw data is the DFS write).
    pub fn build(dfs: &Dfs, policy: &Separation) -> Self {
        Self::build_traced(dfs, policy, &Recorder::off())
    }

    /// [`ElasticMapArray::build`] with a [`Recorder`] attached: one
    /// wall-clock `build` span around the whole scan, one `scan` span per
    /// block in block order, and gauges for the resulting meta-data memory
    /// footprint and the bloom design false-positive rate. With a disabled
    /// recorder this is exactly [`ElasticMapArray::build`].
    pub fn build_traced(dfs: &Dfs, policy: &Separation, rec: &Recorder) -> Self {
        let build = rec.begin(
            Category::Build,
            "build",
            Domain::Wall,
            rec.wall_us(),
            SpanCtx::default().note(format!("{} blocks", dfs.block_count())),
        );
        let maps = dfs.blocks().iter().map(|b| {
            let span = rec.begin(
                Category::Scan,
                "scan",
                Domain::Wall,
                rec.wall_us(),
                SpanCtx::default().block(b.id().index() as u64),
            );
            let map = ElasticMap::build(b, policy);
            rec.end(span, rec.wall_us());
            map
        });
        let out = Self::from_maps(maps.collect(), policy.clone());
        rec.end(build, rec.wall_us());
        rec.add("blocks_scanned", out.len() as u64);
        rec.gauge(
            "elasticmap_memory_bytes",
            Domain::Wall,
            rec.wall_us(),
            out.memory_bytes() as f64,
        );
        rec.gauge(
            "bloom_design_fpr",
            Domain::Wall,
            rec.wall_us(),
            BLOOM_EPSILON,
        );
        rec.gauge(
            "symbol_table_len",
            Domain::Wall,
            rec.wall_us(),
            out.symbols.len() as f64,
        );
        out
    }

    /// Assemble an array from already-built per-block maps (block order),
    /// however they were produced: an array assembled from
    /// incrementally-sealed or decoded maps is indistinguishable — bytes
    /// and symbols — from a from-scratch build that produced the same maps.
    ///
    /// # Panics
    /// Panics unless `maps[i]` describes block `i` (see
    /// [`ElasticMapArray::push`]).
    pub fn from_maps(maps: Vec<ElasticMap>, policy: Separation) -> Self {
        let mut out = Self {
            maps: Vec::with_capacity(maps.len()),
            policy,
            symbols: SymbolTable::new(),
        };
        for map in maps {
            out.push(map);
        }
        out
    }

    /// Append the map of the next block — the array's only way to grow,
    /// and the only place dominant ids are interned, so the symbol table
    /// is in block-major first-appearance order by construction.
    ///
    /// # Panics
    /// Panics unless `map` describes block [`ElasticMapArray::len`]: the
    /// array is dense, `map(b)` is an index.
    pub fn push(&mut self, map: ElasticMap) {
        assert_eq!(
            map.block().index(),
            self.maps.len(),
            "maps must arrive in dense block order"
        );
        for (id, _) in map.exact_entries() {
            self.symbols.intern(id);
        }
        self.maps.push(map);
    }

    /// The separation policy the array was built with.
    pub fn policy(&self) -> &Separation {
        &self.policy
    }

    /// The interned dominant-id table (block-major first-appearance order).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of per-block maps.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// The map for one block.
    pub fn map(&self, b: BlockId) -> &ElasticMap {
        &self.maps[b.index()]
    }

    /// All per-block maps in block order.
    pub fn maps(&self) -> &[ElasticMap] {
        &self.maps
    }

    /// Query one `(block, sub-dataset)` cell.
    pub fn query(&self, b: BlockId, s: SubDatasetId) -> SizeInfo {
        self.map(b).query(s)
    }

    /// Batched [`ElasticMapArray::query`] against one block: one answer per
    /// input id, in input order (see [`ElasticMap::query_batch`]).
    pub fn query_batch(&self, b: BlockId, ids: &[SubDatasetId]) -> Vec<SizeInfo> {
        self.map(b).query_batch(ids)
    }

    /// Every map folded for `ids`, not yet finished — so a holder with
    /// more to say about newer blocks (the ingestor's pending deltas) can
    /// keep folding.
    pub(crate) fn fold<'a>(&self, ids: &'a [SubDatasetId]) -> ViewFold<'a> {
        let mut fold = ViewFold::new(ids);
        fold.fold_maps(&self.maps);
        fold
    }

    /// Collect the distribution view of one sub-dataset across all blocks:
    /// τ₁ (exact blocks with sizes), τ₂ (bloom-only blocks) and δ.
    pub fn view(&self, s: SubDatasetId) -> SubDatasetView {
        (self.views(&[s]).pop()).expect("one view per probe id")
    }

    /// Batched [`ElasticMapArray::view`]: one view per input id, in input
    /// order, bit-identical to N single `view` calls. Instead of walking
    /// the whole array once per id, this walks it **once total**, feeding
    /// each block's map the sorted id list so the exact side resolves in
    /// one forward pass — the amortisation the planner batch entry points
    /// rely on.
    pub fn views(&self, ids: &[SubDatasetId]) -> Vec<SubDatasetView> {
        self.fold(ids).finish()
    }

    /// Total measured meta-data bytes across all blocks.
    pub fn memory_bytes(&self) -> usize {
        self.maps.iter().map(|m| m.memory_bytes()).sum()
    }

    /// Raw-data : meta-data ratio measured on the actual structures (the
    /// empirical counterpart of Table II's "representation ratio").
    pub fn representation_ratio(&self, dfs: &Dfs) -> f64 {
        let meta = self.memory_bytes();
        assert!(meta > 0, "meta-data must be non-empty");
        dfs.total_bytes() as f64 / meta as f64
    }

    /// The paper's overall accuracy metric χ (Section V-B): compares the
    /// Equation 6 estimate of *every* sub-dataset (via the union view) with
    /// the raw data size:
    /// `χ = 1 − |Σ_s estimate(s) − raw| / raw`.
    pub fn accuracy(&self, dfs: &Dfs) -> f64 {
        let raw = dfs.total_bytes();
        assert!(raw > 0, "accuracy undefined on an empty dataset");
        // Estimated total = Σ over blocks of (Σ exact entries + δ·bloom_len).
        let est: f64 = self
            .maps
            .iter()
            .map(|m| {
                let exact: u64 = m.exact_entries().map(|(_, s)| s).sum();
                let delta = m.bloom_delta_hint();
                exact as f64 + delta as f64 * m.bloom_len() as f64
            })
            .sum();
        1.0 - (est - raw as f64).abs() / raw as f64
    }
}

// The symbol table is derived data (rebuildable from the maps), so the
// serialized form stays exactly the PR 2 shape — `{maps, policy}` — and
// old stores load without a migration: the table is re-interned on decode.
impl Serialize for ElasticMapArray {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("maps".to_string(), self.maps.to_value()),
            ("policy".to_string(), self.policy.to_value()),
        ])
    }
}

impl Deserialize for ElasticMapArray {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("elastic map array object", v));
        }
        let maps = Vec::<ElasticMap>::from_value(
            v.get("maps")
                .ok_or_else(|| DeError::msg("elastic map array missing field `maps`"))?,
        )?;
        let policy = Separation::from_value(
            v.get("policy")
                .ok_or_else(|| DeError::msg("elastic map array missing field `policy`"))?,
        )?;
        if let Some((i, m)) = (maps.iter().enumerate()).find(|(i, m)| m.block().index() != *i) {
            return Err(DeError::msg(format!(
                "map {i} describes block {}, not block {i}",
                m.block()
            )));
        }
        Ok(Self::from_maps(maps, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::{DfsConfig, Record, Topology};

    /// 12 blocks; sub-dataset 7 is heavily clustered in the first blocks.
    fn clustered_dfs() -> Dfs {
        let mut recs = Vec::new();
        for i in 0..3000u64 {
            // Sub-dataset 7 dominates early timestamps, then tapers off.
            let s = if i % 3 == 0 && i < 900 {
                7
            } else {
                i % 40 + 10
            };
            recs.push(Record::new(SubDatasetId(s), i, 100, i));
        }
        let cfg = DfsConfig {
            block_size: 25_000,
            replication: 3,
            topology: Topology::single_rack(8),
            seed: 5,
        };
        Dfs::write_random(cfg, recs)
    }

    #[test]
    fn symbol_table_lists_exactly_the_dominant_ids() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        // Every exact entry's id is interned; bloom-only ids are not
        // guaranteed to be (and an id exact in no block must not be).
        for m in arr.maps() {
            for (id, _) in m.exact_entries() {
                assert!(arr.symbols().lookup(id).is_some(), "{id} missing");
            }
        }
        assert!(arr.symbols().lookup(SubDatasetId(999_999)).is_none());
        // Serde round-trip re-derives the same table.
        let json = serde_json::to_string(&arr).unwrap();
        let back: ElasticMapArray = serde_json::from_str(&json).unwrap();
        assert_eq!(arr.symbols(), back.symbols());
    }

    #[test]
    fn view_partitions_blocks() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let v = arr.view(SubDatasetId(7));
        // τ1 and τ2 are disjoint and within the block range.
        for (b, _) in v.exact() {
            assert!(!v.bloom().contains(b));
            assert!(b.index() < dfs.block_count());
        }
        // Sub-dataset 7 exists: the view must see it somewhere.
        assert!(!v.exact().is_empty() || !v.bloom().is_empty());
    }

    #[test]
    fn batched_views_match_single_views_bit_for_bit() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        // Unsorted, with duplicates, with absent ids.
        let ids: Vec<SubDatasetId> = [49u64, 7, 10, 999_999, 7, 25, 0]
            .iter()
            .map(|&i| SubDatasetId(i))
            .collect();
        let batch = arr.views(&ids);
        assert_eq!(batch.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            let single = arr.view(id);
            assert_eq!(
                serde_json::to_string(&batch[i]).unwrap(),
                serde_json::to_string(&single).unwrap(),
                "view mismatch for {id}"
            );
        }
        assert!(arr.views(&[]).is_empty());
    }

    #[test]
    fn all_policy_view_matches_ground_truth_exactly() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::All);
        for s in [7u64, 10, 25, 49] {
            let v = arr.view(SubDatasetId(s));
            assert_eq!(v.estimated_total(), dfs.subdataset_total(SubDatasetId(s)));
            assert!(v.bloom().is_empty());
        }
    }

    #[test]
    fn accuracy_is_perfect_under_all_policy() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::All);
        let chi = arr.accuracy(&dfs);
        assert!((chi - 1.0).abs() < 1e-9, "χ = {chi}");
    }

    #[test]
    fn accuracy_degrades_and_ratio_grows_as_alpha_drops() {
        // Table II's two trends, measured on real structures.
        let dfs = clustered_dfs();
        let hi = ElasticMapArray::build(&dfs, &Separation::Alpha(0.51));
        let lo = ElasticMapArray::build(&dfs, &Separation::Alpha(0.21));
        assert!(hi.accuracy(&dfs) >= lo.accuracy(&dfs));
        assert!(hi.representation_ratio(&dfs) <= lo.representation_ratio(&dfs));
        for arr in [&hi, &lo] {
            let chi = arr.accuracy(&dfs);
            assert!((0.0..=1.0 + 1e-9).contains(&chi), "χ = {chi}");
        }
    }

    #[test]
    fn measured_bloom_fpr_stays_within_twice_design_rate() {
        use crate::elasticmap::BLOOM_EPSILON;
        let dfs = clustered_dfs();
        // A low α pushes most sub-datasets into the bloom tail, so truth-0
        // blocks really are bloom probes.
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.21));
        let mut false_positives = 0.0;
        let mut negatives = 0.0;
        // Present ids (10..50) measure FPR over the blocks that miss them;
        // absent ids (1000..1100) are all-negative probes.
        for s in (10..50u64).chain(1000..1100) {
            let truth = dfs.subdataset_distribution(SubDatasetId(s));
            let view = arr.view(SubDatasetId(s));
            let n = truth.iter().filter(|&&t| t == 0).count() as f64;
            if let Some(fpr) = view.measured_bloom_fpr(&truth) {
                false_positives += fpr * n;
                negatives += n;
            }
        }
        assert!(negatives > 500.0, "need a real probe population");
        let measured = false_positives / negatives;
        assert!(
            measured <= 2.0 * BLOOM_EPSILON,
            "measured bloom FPR {measured} exceeds twice the design rate {BLOOM_EPSILON}"
        );
    }

    #[test]
    fn traced_build_matches_untraced_and_records_scans() {
        use datanet_obs::Recorder;
        let dfs = clustered_dfs();
        let rec = Recorder::new();
        let traced = ElasticMapArray::build_traced(&dfs, &Separation::Alpha(0.3), &rec);
        let plain = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        for b in dfs.blocks() {
            for s in 0..60u64 {
                assert_eq!(
                    traced.query(b.id(), SubDatasetId(s)),
                    plain.query(b.id(), SubDatasetId(s))
                );
            }
        }
        let data = rec.take();
        assert_eq!(data.unclosed_spans(), 0);
        let scanned = data.spans.iter().filter(|s| s.name == "scan");
        let scanned: Vec<Option<u64>> = scanned.map(|s| s.ctx.block).collect();
        let in_order: Vec<Option<u64>> = (0..dfs.block_count() as u64).map(Some).collect();
        assert_eq!(scanned, in_order, "one scan span per block, in block order");
        assert_eq!(data.counters["blocks_scanned"], dfs.block_count() as u64);
        assert!(data
            .gauges
            .iter()
            .any(|g| g.name == "elasticmap_memory_bytes" && g.value > 0.0));
        assert!(data
            .gauges
            .iter()
            .any(|g| g.name == "symbol_table_len" && g.value > 0.0));
    }

    #[test]
    fn absent_subdataset_views_empty() {
        let dfs = clustered_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
        let v = arr.view(SubDatasetId(999_999));
        assert!(v.exact().is_empty());
        // Bloom false positives are possible but rare: allow ≤ 2 blocks.
        assert!(v.bloom().len() <= 2);
    }
}
