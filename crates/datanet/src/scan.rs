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
//! The array keeps no `ElasticMap`s. `push` copies each one into a pool
//! per column, and links every exact entry to the same sub-dataset's entry
//! in the next block where it is exact, so a view walks each probed id's
//! chain instead of every block's exact side.
//!
//! The read side is just as single: `ViewFold` is the one place a
//! per-block answer turns into the Equation 6 view of a sub-dataset. It
//! walks the array's chains, and asks any other run of maps (a decoded
//! store shard) one [`ElasticMap::query`] per probe per map.

use crate::bloom::{BloomFilter, BloomShape};
use crate::distribution::SubDatasetView;
use crate::elasticmap::{delta_bound, map_value, ElasticMap, Separation, SizeInfo, BLOOM_EPSILON};
use crate::store::BlockSummary;
use crate::symbol::SymbolTable;
use datanet_dfs::{BlockId, Dfs, SubDatasetId};
use datanet_obs::{Category, Domain, Recorder, SpanCtx};
use serde::{DeError, Deserialize, Serialize, Value};
use std::mem::size_of;
use std::ops::Range;

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
    /// One tally per input position.
    tallies: Vec<Tally>,
}

impl<'a> ViewFold<'a> {
    pub(crate) fn new(ids: &'a [SubDatasetId]) -> Self {
        let empty = Tally {
            exact: Vec::new(),
            bloom: Vec::new(),
            delta: u64::MAX,
        };
        Self {
            ids,
            tallies: vec![empty; ids.len()],
        }
    }

    /// Fold a whole array in one forward pass over its block records. Each
    /// probe id is hashed once and resolved to its chain once; then per
    /// block, a probe whose chain cursor lies in the block's exact span
    /// takes that entry's size and steps to the next link, and any other
    /// probe costs one Bloom probe with the hash it already has. An id with
    /// no symbol is exact nowhere and only ever probes the filters.
    pub(crate) fn fold_array(&mut self, array: &ElasticMapArray) {
        let mut probes: Vec<((u64, u64), u32)> = (self.ids.iter())
            .map(|&id| (BloomFilter::hash_pair(id), array.chain_start(id)))
            .collect();
        for (b, rec) in array.blocks.iter().enumerate() {
            let block = BlockId(b as u32);
            let words = array.words(rec);
            for ((hash, cursor), tally) in probes.iter_mut().zip(&mut self.tallies) {
                if *cursor < rec.exact.end {
                    tally
                        .exact
                        .push((block, array.exact_sizes[*cursor as usize]));
                    *cursor = array.exact_next[*cursor as usize];
                } else if rec.shape.contains(words, *hash) {
                    tally.approximate(block, rec.delta());
                }
            }
        }
    }

    /// Fold a run of consecutive blocks' full maps (one decoded shard, or
    /// a whole array's [`ElasticMapArray::to_maps`] as the reference): per
    /// map, one [`ElasticMap::query`] per probe.
    pub(crate) fn fold_maps(&mut self, maps: &[ElasticMap]) {
        for map in maps {
            for (tally, &id) in self.tallies.iter_mut().zip(self.ids) {
                tally.put(map, map.query(id));
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

/// End of a chain: no later block holds the sub-dataset exactly.
const NONE: u32 = u32::MAX;

/// One block's record: its spans of the array's pools and the scalar
/// fields of its map.
#[derive(Debug, Clone)]
struct BlockRec {
    /// The block's exact entries in the exact pools, in ascending id order.
    exact: Range<u32>,
    /// The block's filter words in `bloom_words`.
    words: Range<usize>,
    shape: BloomShape,
    /// Inserts into the block's filter ([`BloomFilter::items`]).
    filter_items: usize,
    bloom_items: usize,
    threshold: u64,
    bloom_min_bytes: Option<u64>,
}

impl BlockRec {
    /// The block's exact entries as indices into the exact pools.
    fn entries(&self) -> Range<usize> {
        self.exact.start as usize..self.exact.end as usize
    }

    /// The block's `δ` bound, as [`ElasticMap::bloom_delta_hint`].
    fn delta(&self) -> u64 {
        delta_bound(self.bloom_min_bytes, self.threshold)
    }
}

/// The first and last exact entry of one symbol's chain.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u32,
    last: u32,
}

/// The DataNet meta-data structure over all blocks (the paper's Figure 3:
/// an array with one ElasticMap per block file), held as one pool per
/// column: block `b`'s map is [`ElasticMapArray::map`]`(b)`.
#[derive(Debug, Clone)]
pub struct ElasticMapArray {
    policy: Separation,
    /// Every **dominant** (exactly-stored) sub-dataset id, interned in
    /// block-major first-appearance order. Bloom-tail ids are not listed —
    /// a bloom filter cannot be enumerated. Lets planner-side code test
    /// "does this id have exact bytes anywhere?" without touching a map.
    symbols: SymbolTable,
    /// One record per block, in block order.
    blocks: Vec<BlockRec>,
    /// Every block's exact entries, block-major: the entry's symbol …
    exact_syms: Vec<u32>,
    /// … its byte size …
    exact_sizes: Vec<u64>,
    /// … and the same symbol's entry in the next block where it is exact,
    /// or [`NONE`]: each sub-dataset's τ₁, chained across blocks.
    exact_next: Vec<u32>,
    /// `chains[sym]`: that symbol's first and last entry.
    chains: Vec<Chain>,
    /// Every block's Bloom filter words, block-major.
    bloom_words: Vec<u64>,
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
    /// footprint (Equation 5's and the resident one) and the bloom design
    /// false-positive rate. With a disabled recorder this is exactly
    /// [`ElasticMapArray::build`].
    pub fn build_traced(dfs: &Dfs, policy: &Separation, rec: &Recorder) -> Self {
        let build = rec.begin(
            Category::Build,
            "build",
            Domain::Wall,
            rec.wall_us(),
            SpanCtx::default().note(format!("{} blocks", dfs.block_count())),
        );
        // Each map is pushed as soon as it is built, so no block's map
        // outlives its copy into the pools; the pools' growth slack is
        // handed back once the scan is done.
        let mut out = Self::from_maps(Vec::new(), policy.clone());
        for b in dfs.blocks() {
            let span = rec.begin(
                Category::Scan,
                "scan",
                Domain::Wall,
                rec.wall_us(),
                SpanCtx::default().block(b.id().index() as u64),
            );
            let map = ElasticMap::build(b, policy);
            rec.end(span, rec.wall_us());
            out.push(map);
        }
        out.shrink_to_fit();
        rec.end(build, rec.wall_us());
        rec.add("blocks_scanned", out.len() as u64);
        let gauges = [
            ("elasticmap_memory_bytes", out.memory_bytes() as f64),
            ("elasticmap_resident_bytes", out.resident_bytes() as f64),
            ("bloom_design_fpr", BLOOM_EPSILON),
            ("symbol_table_len", out.symbols.len() as f64),
        ];
        for (name, value) in gauges {
            rec.gauge(name, Domain::Wall, rec.wall_us(), value);
        }
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
        let entries = maps.iter().map(ElasticMap::exact_len).sum();
        let words = maps.iter().map(|m| m.bloom().words().len()).sum();
        let mut out = Self {
            policy,
            symbols: SymbolTable::new(),
            blocks: Vec::with_capacity(maps.len()),
            exact_syms: Vec::with_capacity(entries),
            exact_sizes: Vec::with_capacity(entries),
            exact_next: Vec::with_capacity(entries),
            chains: Vec::new(),
            bloom_words: Vec::with_capacity(words),
        };
        for map in maps {
            out.push(map);
        }
        out
    }

    /// Append the map of the next block — the array's only way to grow,
    /// and the only place dominant ids are interned, so the symbol table
    /// is in block-major first-appearance order by construction. Each exact
    /// entry is linked onto the end of its symbol's chain.
    ///
    /// # Panics
    /// Panics unless `map` describes block [`ElasticMapArray::len`] (the
    /// array is dense, `map(b)` is an index), or past `u32::MAX - 1` exact
    /// entries in all.
    pub fn push(&mut self, map: ElasticMap) {
        assert_eq!(
            map.block().index(),
            self.len(),
            "maps must arrive in dense block order"
        );
        let start = self.exact_syms.len() as u32;
        for (id, size) in map.exact_entries() {
            let sym = self.symbols.intern(id);
            let entry = self.exact_syms.len() as u32;
            assert!(entry < NONE, "too many exact entries for u32 links");
            match self.chains.get_mut(sym.0 as usize) {
                Some(chain) => {
                    self.exact_next[chain.last as usize] = entry;
                    chain.last = entry;
                }
                None => self.chains.push(Chain {
                    first: entry,
                    last: entry,
                }),
            }
            self.exact_syms.push(sym.0);
            self.exact_sizes.push(size);
            self.exact_next.push(NONE);
        }
        let bloom = map.bloom();
        let words = self.bloom_words.len()..self.bloom_words.len() + bloom.words().len();
        self.bloom_words.extend_from_slice(bloom.words());
        self.blocks.push(BlockRec {
            exact: start..self.exact_syms.len() as u32,
            words,
            shape: bloom.shape(),
            filter_items: bloom.items(),
            bloom_items: map.bloom_len(),
            threshold: map.threshold(),
            bloom_min_bytes: map.bloom_min_bytes(),
        });
    }

    /// A block's exact entries, `(id, size)` in ascending id order.
    fn exact_entries(&self, rec: &BlockRec) -> impl Iterator<Item = (SubDatasetId, u64)> + '_ {
        let (ids, entries) = (self.symbols.ids(), rec.entries());
        (self.exact_syms[entries.clone()].iter())
            .zip(&self.exact_sizes[entries])
            .map(move |(&sym, &size)| (ids[sym as usize], size))
    }

    /// A block's Bloom filter words.
    fn words(&self, rec: &BlockRec) -> &[u64] {
        &self.bloom_words[rec.words.clone()]
    }

    /// Release every pool's spare capacity.
    fn shrink_to_fit(&mut self) {
        self.blocks.shrink_to_fit();
        self.exact_syms.shrink_to_fit();
        self.exact_sizes.shrink_to_fit();
        self.exact_next.shrink_to_fit();
        self.chains.shrink_to_fit();
        self.bloom_words.shrink_to_fit();
    }

    /// The first exact entry of `id`'s chain, or [`NONE`] when `id` is
    /// exact in no block.
    fn chain_start(&self, id: SubDatasetId) -> u32 {
        (self.symbols.lookup(id)).map_or(NONE, |sym| self.chains[sym.0 as usize].first)
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
        self.blocks.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// A copy of the map for one block, equal to the map pushed for it.
    pub fn map(&self, b: BlockId) -> ElasticMap {
        let rec = &self.blocks[b.index()];
        let words = self.words(rec).to_vec();
        ElasticMap::from_parts(
            b,
            self.exact_entries(rec).unzip(),
            BloomFilter::from_parts(words, rec.shape, rec.filter_items),
            rec.bloom_items,
            rec.threshold,
            rec.bloom_min_bytes,
        )
    }

    /// Copies of all per-block maps, in block order.
    pub fn to_maps(&self) -> Vec<ElasticMap> {
        self.maps_in(0..self.len())
    }

    /// Copies of the maps of the blocks in `span`, in block order.
    pub(crate) fn maps_in(&self, span: Range<usize>) -> Vec<ElasticMap> {
        span.map(|b| self.map(BlockId(b as u32))).collect()
    }

    /// Query one `(block, sub-dataset)` cell.
    pub fn query(&self, b: BlockId, s: SubDatasetId) -> SizeInfo {
        let (rec, ids) = (&self.blocks[b.index()], self.symbols.ids());
        let entries = rec.entries();
        let exact =
            self.exact_syms[entries.clone()].binary_search_by_key(&s, |&sym| ids[sym as usize]);
        if let Ok(i) = exact {
            SizeInfo::Exact(self.exact_sizes[entries.start + i])
        } else if rec
            .shape
            .contains(self.words(rec), BloomFilter::hash_pair(s))
        {
            SizeInfo::Approximate
        } else {
            SizeInfo::Absent
        }
    }

    /// Every block folded for `ids`, not yet finished — so a holder with
    /// more to say about newer blocks (the ingestor's pending deltas) can
    /// keep folding.
    pub(crate) fn fold<'a>(&self, ids: &'a [SubDatasetId]) -> ViewFold<'a> {
        let mut fold = ViewFold::new(ids);
        fold.fold_array(self);
        fold
    }

    /// Collect the distribution view of one sub-dataset across all blocks:
    /// τ₁ (exact blocks with sizes), τ₂ (bloom-only blocks) and δ.
    pub fn view(&self, s: SubDatasetId) -> SubDatasetView {
        (self.views(&[s]).pop()).expect("one view per probe id")
    }

    /// Batched [`ElasticMapArray::view`]: one view per input id, in input
    /// order, bit-identical to N single `view` calls. It walks the block
    /// records **once total**: each id's exact blocks come off its chain,
    /// and only the blocks where it is not exact probe a Bloom filter — the
    /// amortisation the planner batch entry points rely on.
    pub fn views(&self, ids: &[SubDatasetId]) -> Vec<SubDatasetView> {
        self.fold(ids).finish()
    }

    /// Total meta-data bytes across all blocks as Equation 5 models them:
    /// 12 B per exact entry plus the Bloom bit arrays.
    pub fn memory_bytes(&self) -> usize {
        self.exact_syms.len() * 12 + self.bloom_words.len() * 8
    }

    /// Heap bytes the array holds: its pools at capacity (16 B per exact
    /// entry with the chain link), the block records, the chain ends and
    /// the symbol table. What [`ElasticMapArray::memory_bytes`]'s model
    /// leaves out.
    pub(crate) fn resident_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        heap(&self.blocks)
            + heap(&self.exact_syms)
            + heap(&self.exact_sizes)
            + heap(&self.exact_next)
            + heap(&self.chains)
            + heap(&self.bloom_words)
            + self.symbols.memory_bytes()
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
            .blocks
            .iter()
            .map(|rec| {
                let exact: u64 = self.exact_sizes[rec.entries()].iter().sum();
                exact as f64 + rec.delta() as f64 * rec.bloom_items as f64
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
        // Straight from the pools, through the shape `ElasticMap` itself
        // serialises through: no map is copied out.
        let maps = self.blocks.iter().enumerate().map(|(b, rec)| {
            map_value(
                BlockId(b as u32),
                self.exact_entries(rec),
                rec.shape.filter_value(self.words(rec), rec.filter_items),
                rec.bloom_items,
                rec.threshold,
                rec.bloom_min_bytes,
            )
        });
        Value::Object(vec![
            ("maps".to_string(), Value::Array(maps.collect())),
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
        for m in arr.to_maps() {
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

    /// A seeded world: 8–16 blocks whose sub-datasets range from spread
    /// over every block to clustered in a few.
    fn seeded_dfs(seed: u64) -> Dfs {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let recs: Vec<Record> = (0..1200 + next(1200))
            .map(|i| {
                let s = match next(4) {
                    0 => next(5),
                    1 => 10 + i / 150,
                    _ => 20 + next(60),
                };
                Record::new(SubDatasetId(s), i, 40 + next(200) as u32, i)
            })
            .collect();
        let cfg = DfsConfig {
            block_size: 20_000,
            replication: 2,
            topology: Topology::single_rack(5),
            seed,
        };
        Dfs::write_random(cfg, recs)
    }

    /// Unsorted, with repeats, ids exact somewhere, ids only ever in a
    /// Bloom tail (no symbol) and ids in no block at all.
    fn probe_lists(arr: &ElasticMapArray) -> Vec<Vec<SubDatasetId>> {
        let mut every: Vec<SubDatasetId> = (0..90).rev().map(SubDatasetId).collect();
        every.extend([
            SubDatasetId(7),
            SubDatasetId(999_999),
            SubDatasetId(u64::MAX),
        ]);
        let interned: Vec<SubDatasetId> = arr.symbols().ids().iter().rev().copied().collect();
        let no_sym: Vec<SubDatasetId> = every
            .iter()
            .copied()
            .filter(|&id| arr.symbols().lookup(id).is_none())
            .collect();
        let mixed = [interned.first(), no_sym.first(), interned.last()];
        let mut mixed: Vec<SubDatasetId> = mixed.into_iter().flatten().copied().collect();
        mixed.extend_from_slice(&mixed.clone());
        vec![
            every,
            interned,
            no_sym,
            mixed,
            vec![SubDatasetId(3)],
            vec![],
        ]
    }

    /// The chained pools against the block-major fold over the very maps
    /// the array hands back — and those maps against the maps pushed.
    fn assert_pools_match_fold(arr: &ElasticMapArray, pushed: &[ElasticMap]) {
        let maps = arr.to_maps();
        assert_eq!(maps.len(), pushed.len());
        for (got, want) in maps.iter().zip(pushed) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            got.encode(&mut a);
            want.encode(&mut b);
            assert_eq!(a, b, "block {} copied back differently", want.block());
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(want).unwrap()
            );
        }
        for ids in probe_lists(arr) {
            let mut reference = ViewFold::new(&ids);
            reference.fold_maps(&maps);
            assert_eq!(arr.views(&ids), reference.finish(), "probes {ids:?}");
        }
    }

    #[test]
    fn chained_pools_equal_the_block_major_fold() {
        let policies = [
            Separation::Alpha(0.3),
            Separation::Threshold { min_bytes: 600 },
            Separation::All,
            Separation::BloomOnly,
        ];
        for seed in 1..=6u64 {
            let dfs = seeded_dfs(seed);
            for policy in &policies {
                let maps: Vec<ElasticMap> = (dfs.blocks().iter())
                    .map(|b| ElasticMap::build(b, policy))
                    .collect();
                // Built, and grown one push at a time as ingest and
                // `World::apply` grow it, checked after every push.
                assert_pools_match_fold(&ElasticMapArray::build(&dfs, policy), &maps);
                let mut grown = ElasticMapArray::from_maps(Vec::new(), policy.clone());
                for (k, map) in maps.iter().enumerate() {
                    grown.push(map.clone());
                    assert_pools_match_fold(&grown, &maps[..=k]);
                }
                // Flat-layout filters, as written before the blocked layout
                // (no `blocks` field): of explicit sizes, and converted.
                let flat: Vec<ElasticMap> = (maps.iter().enumerate())
                    .map(|(b, map)| {
                        let bits = 61 + 64 * b as u64;
                        let json = format!(
                            "{{\"bits\":{:?},\"num_bits\":{bits},\"num_hashes\":3,\"items\":0}}",
                            vec![0u64; bits.div_ceil(64) as usize]
                        );
                        let mut bloom: BloomFilter = serde_json::from_str(&json).unwrap();
                        let block = dfs.block(map.block());
                        for &(id, _) in block.subdataset_sizes().iter() {
                            if map.exact_size(id).is_none() {
                                bloom.insert(id);
                            }
                        }
                        ElasticMap::from_parts(
                            map.block(),
                            map.exact_entries().unzip(),
                            bloom,
                            map.bloom_len(),
                            map.threshold(),
                            map.bloom_min_bytes(),
                        )
                    })
                    .collect();
                assert_pools_match_fold(
                    &ElasticMapArray::from_maps(flat.clone(), policy.clone()),
                    &flat,
                );
                let legacy: Vec<ElasticMap> = (maps.iter())
                    .map(|map| {
                        let json = serde_json::to_string(map).unwrap();
                        let lines = map.bloom().words().len() / 8;
                        let blocks = format!(",\"blocks\":{lines}");
                        serde_json::from_str(&json.replacen(&blocks, "", 1)).unwrap()
                    })
                    .collect();
                assert!((legacy.iter()).all(|m| serde_json::to_string(m.bloom())
                    .unwrap()
                    .ends_with(",\"blocks\":0}")));
                assert_pools_match_fold(
                    &ElasticMapArray::from_maps(legacy.clone(), policy.clone()),
                    &legacy,
                );
            }
        }
        let empty = ElasticMapArray::from_maps(Vec::new(), Separation::Alpha(0.3));
        assert_pools_match_fold(&empty, &[]);
    }

    #[test]
    fn chained_pools_equal_the_fold_after_a_store_and_an_ingest() {
        use crate::ingest::{IngestConfig, Ingestor};
        use crate::store::MetaStore;
        let dfs = seeded_dfs(9);
        let policy = Separation::Alpha(0.3);
        let arr = ElasticMapArray::build(&dfs, &policy);
        let dir = std::env::temp_dir().join(format!("datanet-scan-pools-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MetaStore::save(&arr, &dir, 3).unwrap();
        let mut store = MetaStore::open(&dir, 1).unwrap();
        let mut decoded = Vec::new();
        for i in 0..store.manifest().shard_count() {
            decoded.extend_from_slice(store.shard(i).unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_pools_match_fold(
            &ElasticMapArray::from_maps(decoded.clone(), policy.clone()),
            &decoded,
        );
        let mut ing = Ingestor::new(IngestConfig {
            policy: policy.clone(),
            compact_every: 3,
            shard_blocks: 4,
        });
        for (k, b) in dfs.blocks().iter().enumerate() {
            ing.append(b, k as u64);
            let snapshot = ing.snapshot();
            assert_pools_match_fold(&snapshot, &decoded[..snapshot.len()]);
        }
    }

    #[test]
    fn a_broken_chain_link_changes_the_views() {
        let arr = ElasticMapArray::build(&seeded_dfs(3), &Separation::Alpha(0.3));
        let linked = (arr.exact_next.iter()).position(|&n| n != NONE).unwrap();
        let id = arr.symbols.ids()[arr.exact_syms[linked] as usize];
        let mut broken = arr.clone();
        broken.exact_next[linked] = NONE;
        let ids = [id];
        let mut reference = ViewFold::new(&ids);
        reference.fold_maps(&arr.to_maps());
        let reference = reference.finish();
        assert_eq!(arr.views(&ids), reference);
        assert_ne!(broken.views(&ids), reference, "{id}'s chain was cut");
    }

    #[test]
    fn resident_bytes_count_the_pools() {
        let arr = ElasticMapArray::build(&clustered_dfs(), &Separation::Alpha(0.3));
        let entries = arr.exact_syms.len();
        // 16 B per exact entry (sym, size, link) and the Bloom words at
        // least; Equation 5's 12 B per entry is the model, not the heap.
        assert!(arr.resident_bytes() >= entries * 16 + arr.bloom_words.len() * 8);
        assert_eq!(arr.memory_bytes(), entries * 12 + arr.bloom_words.len() * 8);
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
            assert_eq!(batch[i], single, "view mismatch for {id}");
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
        let mut false_positives = 0;
        let mut negatives = 0;
        // Present ids (10..50) measure FPR over the blocks that miss them;
        // absent ids (1000..1100) are all-negative probes. Every truth-0
        // block was a bloom probe, and one listed in τ₂ is a false positive.
        for s in (10..50u64).chain(1000..1100) {
            let truth = dfs.subdataset_distribution(SubDatasetId(s));
            let view = arr.view(SubDatasetId(s));
            negatives += truth.iter().filter(|&&t| t == 0).count();
            false_positives += view
                .bloom()
                .iter()
                .filter(|b| truth[b.index()] == 0)
                .count();
        }
        assert!(negatives > 500, "need a real probe population");
        let measured = false_positives as f64 / negatives as f64;
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
        let resident = traced.resident_bytes() as f64;
        assert!(data
            .gauges
            .iter()
            .any(|g| g.name == "elasticmap_resident_bytes" && g.value == resident));
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
