//! Persistent, sharded, **replicated** meta-data storage — the scale-out
//! path the paper defers ("as the problem size becomes extremely large, the
//! meta-data may not be able to reside in memory. In such cases, the
//! meta-data can be stored into a database or distributed among multiple
//! machines", Section V-B-1) made resilient.
//!
//! The ElasticMap array is split into fixed-size **shards** of consecutive
//! blocks. Each shard is serialised twice per replica directory (a simulated
//! datanode):
//!
//! * `shard-NNNN.json` — the full ElasticMaps (exact sizes + tail bloom);
//! * `summary-NNNN.json` — a tiny bloom-only sidecar ([`BlockSummary`]) in
//!   the spirit of HAIL's per-replica heterogeneous indexes: when every full
//!   copy of a shard is lost, the summary still answers *membership* (and a
//!   δ bound), dropping the shard's blocks to rung 2 of the degradation
//!   ladder instead of rung 3 (see [`crate::degrade`]).
//!
//! The [`Manifest`] records a CRC-32 per shard and per summary, so a read
//! distinguishes corruption from absence. A read fails over before it backs
//! off: it tries every replica once and sleeps the (exponential, jittered)
//! back-off only when all of them failed, for a bounded number of rounds;
//! shards with no healthy copy anywhere are **quarantined** (subsequent
//! reads fail fast). A [`MetaStore::scrub`] pass detects bad copies and
//! repairs them from a healthy replica, HDFS-block-scanner style.
//!
//! Queries stream shard-by-shard through a bounded LRU cache, so a dataset
//! whose meta-data exceeds memory can still be scanned for a view.
//!
//! ## Payload encoding
//!
//! Since `FORMAT_VERSION` 4 the four shard-resident payloads (`shard-`,
//! `summary-`, `epoch-NNNN`, `epoch-NNNN-summary`) are **binary**, converted
//! once at write time so that no read re-parses text (HAIL's upload-time
//! layout argument): a shard load is a CRC pass plus a few hundred varint
//! reads instead of a JSON parse of stringified ids and 20-digit bloom
//! words, and a block costs ≈ 660 B on disk instead of ≈ 2.1 kB. The `.json`
//! extension is historical — file names did not change with the encoding.
//! Manifests stay pretty-printed JSON.
//!
//! A reader picks the decoder **per file, by its first four bytes**, not by
//! the manifest's version: an ingest store resumed across the upgrade keeps
//! its immutable JSON shards from old epochs beside new binary ones under
//! one v4 manifest, and v1–v3 stores load unchanged. Checksum verification
//! precedes either decoder and the span/order validation follows both.
//! There is one reader per encoding: a binary payload goes through the
//! types' `decode`, a JSON one through their [`Deserialize`] — nothing
//! writes JSON payloads any more, so the legacy read is kept correct, not
//! fast (≈ 1.8× the hand-written pull decoders it replaced, DESIGN.md §13).
//!
//! `var` is an unsigned LEB128 varint, `u64le` a raw little-endian word;
//! fields appear in this order with no padding and nothing may follow the
//! last entry.
//!
//! | payload        | field                | encoding                               |
//! |----------------|----------------------|----------------------------------------|
//! | every file     | magic                | 4 bytes `89 44 4E 34` (`\x89DN4`)       |
//! |                | entries              | `var` count, then that many entries    |
//! | `ElasticMap`   | block                | `var` (u32)                            |
//! |                | exact entries        | `var` count *n*                        |
//! |                | exact ids            | *n* × `var`: first id, then the gap to |
//! |                |                      | the previous id (≥ 1: strictly rising) |
//! |                | exact sizes          | *n* × `var`                            |
//! |                | bloom                | `BloomFilter`                          |
//! |                | `bloom_items`        | `var`                                  |
//! |                | `threshold`          | `var`                                  |
//! |                | `bloom_min_bytes`    | `var` tag 0 (none) or 1, then `var`    |
//! | `BlockSummary` | block                | `var` (u32)                            |
//! |                | head, tail           | `BloomFilter` each                     |
//! |                | δ                    | `var`                                  |
//! | `BloomFilter`  | `num_bits`           | `var`                                  |
//! |                | `num_hashes`         | `var` (u32)                            |
//! |                | `items`              | `var`                                  |
//! |                | `blocks`             | `var` (0 = flat layout)                |
//! |                | words                | `var` count *w*, then *w* × `u64le`    |
//!
//! Every count is checked against the bytes that remain before anything is
//! reserved for it, and every decoded filter against the shape its probes
//! index by; a payload that fails either counts as a corrupt read, exactly
//! like a checksum mismatch, and takes the same failover → summary → lost
//! ladder.

use crate::bloom::BloomFilter;
use crate::degrade::{DegradedView, MetaHealth, ShardSource};
use crate::distribution::SubDatasetView;
use crate::elasticmap::{ElasticMap, Separation, SizeInfo, BLOOM_EPSILON};
use crate::retry::{backoff_jittered, ATTEMPTS_PER_REPLICA};
use crate::scan::{ElasticMapArray, ViewFold};
use crate::wire::{put_var, Reader};
use datanet_dfs::{BlockId, SubDatasetId};
use datanet_obs::{Category, Domain, FlightKind, Recorder, SpanCtx};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Current on-disk format version. Version 1 (no checksums, no summaries)
/// is still readable: CRC verification is skipped and every shard loss is
/// rung-3 (no sidecar to fall back to). Version 2 (flat bloom layout,
/// hash-map exact sides) also loads unchanged — the per-structure serde
/// keeps both shapes decodable. Version 3 writes cache-line-blocked bloom
/// filters, which pre-3 readers would mis-probe, hence the bump. Version 4
/// writes the shard-resident payloads in the binary encoding of the module
/// doc's table; the bump makes a v3 build answer
/// [`StoreError::FutureVersion`] instead of "corrupt". Readers never consult
/// the version to pick a decoder — each file's first four bytes say which
/// encoding it holds — so one store may mix JSON payloads written before
/// the upgrade with binary ones written after; the `.json` in the file
/// names is historical.
pub(crate) const FORMAT_VERSION: u32 = 4;

/// Typed errors of the metadata store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file exists but its contents are invalid: a truncated or malformed
    /// payload, a checksum mismatch, or fields that fail validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The manifest was written by a newer format version than this build
    /// understands — never a panic, always this typed error.
    FutureVersion {
        /// Version found on disk.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The shard was quarantined by an earlier failed read or scrub pass;
    /// reads fail fast instead of re-probing dead replicas.
    Quarantined {
        /// Quarantined shard index.
        shard: usize,
    },
    /// Every replica of the shard failed verification or I/O.
    AllReplicasFailed {
        /// Affected shard index.
        shard: usize,
        /// Last per-replica failure, for diagnostics.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "metadata i/o error: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt metadata file {}: {detail}", path.display())
            }
            StoreError::FutureVersion { found, supported } => write!(
                f,
                "metadata format version {found} is newer than supported ({supported})"
            ),
            StoreError::Quarantined { shard } => write!(f, "shard {shard} is quarantined"),
            StoreError::AllReplicasFailed { shard, detail } => {
                write!(f, "every replica of shard {shard} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Slice-by-16 lookup tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, so sixteen input bytes
/// fold into the state with sixteen independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, the Ethernet/zip one), table-driven,
/// sixteen bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
        // Byte `j` of word `w` is the chunk's byte `4w + j`, with
        // `15 - 4w - j` bytes after it: table `k - j` below.
        let mut next = 0;
        for (w, x) in [crc ^ word(0), word(4), word(8), word(12)]
            .into_iter()
            .enumerate()
        {
            let k = 15 - 4 * w;
            next ^= t[k][(x & 0xFF) as usize]
                ^ t[k - 1][(x >> 8 & 0xFF) as usize]
                ^ t[k - 2][(x >> 16 & 0xFF) as usize]
                ^ t[k - 3][(x >> 24) as usize];
        }
        crc = next;
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Manifest describing a sharded meta-data directory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Manifest {
    /// Total number of per-block maps.
    pub blocks: usize,
    /// Blocks per shard (last shard may be short).
    pub shard_blocks: usize,
    /// Separation policy the maps were built with.
    pub policy: Separation,
    /// Format version for forward compatibility.
    pub version: u32,
    /// CRC-32 of each `shard-NNNN.json` (empty for v1 stores: verification
    /// skipped).
    pub shard_crc: Vec<u32>,
    /// CRC-32 of each `summary-NNNN.json` (empty for v1 stores).
    pub summary_crc: Vec<u32>,
    /// Ingest epoch this manifest describes. Stores written by one-shot
    /// [`MetaStore::save_replicated`] are epoch 0; streaming-ingest commits
    /// bump it once per durable snapshot.
    pub epoch: u64,
    /// CRC-32 of the per-epoch tail shard (`epoch-NNNN.json`) holding the
    /// blocks past the last complete shard; `None` when the block count is
    /// an exact multiple of `shard_blocks` (every non-ingest store).
    pub tail_crc: Option<u32>,
    /// CRC-32 of the tail's summary sidecar (`epoch-NNNN-summary.json`).
    pub tail_summary_crc: Option<u32>,
}

// Hand-written so that a v1 manifest without checksum fields still loads
// (they default to empty); the vendored serde derive has no
// `#[serde(default)]`. A future version is refused before this runs, by
// `read_manifest`.
impl Deserialize for Manifest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("manifest object", v));
        }
        let field = |name: &str| -> Result<&Value, DeError> {
            v.get(name)
                .ok_or_else(|| DeError::msg(format!("manifest missing field `{name}`")))
        };
        let version = u32::from_value(field("version")?)?;
        let crc_list = |name: &str| -> Result<Vec<u32>, DeError> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(Vec::new()),
                Some(list) => Vec::<u32>::from_value(list),
            }
        };
        let manifest = Self {
            blocks: usize::from_value(field("blocks")?)?,
            shard_blocks: usize::from_value(field("shard_blocks")?)?,
            policy: Separation::from_value(field("policy")?)?,
            version,
            shard_crc: crc_list("shard_crc")?,
            summary_crc: crc_list("summary_crc")?,
            epoch: match v.get("epoch") {
                None | Some(Value::Null) => 0,
                Some(e) => u64::from_value(e)?,
            },
            tail_crc: Option::<u32>::from_value(v.get("tail_crc").unwrap_or(&Value::Null))?,
            tail_summary_crc: Option::<u32>::from_value(
                v.get("tail_summary_crc").unwrap_or(&Value::Null),
            )?,
        };
        manifest.validate().map_err(DeError::msg)?;
        Ok(manifest)
    }
}

impl Manifest {
    /// What every reader of a decoded manifest relies on: shards hold at
    /// least one block (the shard arithmetic divides by it), and a checksum
    /// list is either empty (a v1 store: verification skipped) or has one
    /// entry per shard file — the tail of a streaming-ingest store lives in
    /// its epoch file and is covered by `tail_crc` instead.
    fn validate(&self) -> Result<(), String> {
        if self.shard_blocks == 0 {
            return Err("manifest `shard_blocks` must be at least 1".to_string());
        }
        let most = self.shard_count();
        let least = match self.tail_crc {
            Some(_) => self.blocks / self.shard_blocks,
            None => most,
        };
        for (name, list) in [
            ("shard_crc", &self.shard_crc),
            ("summary_crc", &self.summary_crc),
        ] {
            if !list.is_empty() && !(least..=most).contains(&list.len()) {
                return Err(format!(
                    "manifest `{name}` lists {} checksums, expected {least}..={most}",
                    list.len()
                ));
            }
        }
        Ok(())
    }

    /// Number of shard files.
    pub fn shard_count(&self) -> usize {
        self.blocks.div_ceil(self.shard_blocks)
    }

    /// Whether shard index `i` is the per-epoch tail file rather than a
    /// complete `shard-NNNN.json` (streaming-ingest stores only).
    fn is_tail(&self, i: usize) -> bool {
        self.tail_crc.is_some() && i == self.blocks / self.shard_blocks
    }

    /// File holding the maps of shard `i` (the tail lives in its epoch file).
    fn shard_file_name(&self, i: usize) -> String {
        if self.is_tail(i) {
            epoch_file(self.epoch)
        } else {
            shard_file(i)
        }
    }

    /// File holding the summaries of shard `i`.
    fn summary_file_name(&self, i: usize) -> String {
        if self.is_tail(i) {
            epoch_summary_file(self.epoch)
        } else {
            summary_file(i)
        }
    }

    /// Expected CRC of shard `i`, when the store records checksums.
    fn expected_shard_crc(&self, i: usize) -> Option<u32> {
        if self.is_tail(i) {
            self.tail_crc
        } else {
            self.shard_crc.get(i).copied()
        }
    }

    /// Expected CRC of summary `i`, when the store records checksums.
    fn expected_summary_crc(&self, i: usize) -> Option<u32> {
        if self.is_tail(i) {
            self.tail_summary_crc
        } else {
            self.summary_crc.get(i).copied()
        }
    }
}

/// Bloom-only metadata summary of one block — the sidecar that keeps a
/// block on rung 2 when its full ElasticMap is lost.
///
/// A bloom filter cannot be enumerated, so the summary carries **two**
/// filters: a fresh one over the sub-datasets the full map stored exactly
/// (`head`), plus a copy of the full map's existing tail filter (`tail`).
/// Membership is the union; δ is the smallest known per-sub-dataset size in
/// the block. No sizes survive — that is the point: the summary is a few
/// bytes per sub-dataset, cheap enough to replicate everywhere.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockSummary {
    block: BlockId,
    head: BloomFilter,
    tail: BloomFilter,
    delta: u64,
}

impl BlockSummary {
    /// Summarise a full ElasticMap.
    pub fn of(map: &ElasticMap) -> Self {
        let mut head = BloomFilter::with_rate(map.exact_len().max(1), BLOOM_EPSILON);
        let mut min_exact: Option<u64> = None;
        for (id, size) in map.exact_entries() {
            head.insert(id);
            min_exact = Some(min_exact.map_or(size, |m| m.min(size)));
        }
        let delta = match (min_exact, map.bloom_len()) {
            (Some(e), n) if n > 0 => e.min(map.bloom_delta_hint()),
            (Some(e), _) => e,
            (None, n) if n > 0 => map.bloom_delta_hint(),
            _ => 0,
        };
        Self {
            block: map.block(),
            head,
            tail: map.bloom().clone(),
            delta,
        }
    }

    /// Append the binary form (see the module's layout table).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_var(out, u64::from(self.block.0));
        self.head.encode(out);
        self.tail.encode(out);
        put_var(out, self.delta);
    }

    /// Decode what [`BlockSummary::encode`] wrote.
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Self {
            block: BlockId(r.var()?),
            head: BloomFilter::decode(r)?,
            tail: BloomFilter::decode(r)?,
            delta: r.var()?,
        })
    }

    /// The block this summary describes.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Whether the sub-dataset *may* be present (no false negatives).
    pub fn contains(&self, s: SubDatasetId) -> bool {
        self.head.contains(s) || self.tail.contains(s)
    }

    /// δ bound: smallest known per-sub-dataset size in the block.
    pub fn delta(&self) -> u64 {
        self.delta
    }
}

/// What one scrub pass found and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Shards examined.
    pub scrubbed: usize,
    /// Bad or missing shard copies rewritten from a healthy replica.
    pub repaired: usize,
    /// Bad or missing summary copies rewritten from a healthy replica.
    pub summaries_repaired: usize,
    /// Replica manifests rewritten from the in-memory manifest.
    pub manifests_repaired: usize,
    /// Shards with no healthy full copy anywhere — quarantined.
    pub quarantined: Vec<usize>,
    /// Shards whose summaries are also gone everywhere (rung 3 on loss).
    pub summaries_lost: Vec<usize>,
}

/// Why a single-replica read failed (drives health counters).
enum ReadFail {
    Io(io::Error),
    Corrupt(String),
}

impl ReadFail {
    fn describe(&self) -> String {
        match self {
            ReadFail::Io(e) => e.to_string(),
            ReadFail::Corrupt(d) => d.clone(),
        }
    }
}

/// First bytes of a binary shard payload. No JSON document starts with
/// them, so a reader tells the two encodings apart per file.
const MAGIC: [u8; 4] = *b"\x89DN4";

/// Encode a shard-resident payload — the one writer of `shard-`,
/// `summary-` and `epoch-` files: the magic, the entry count, the entries.
fn encode_blocks<T>(entries: &[T], entry: fn(&T, &mut Vec<u8>)) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    put_var(&mut out, entries.len() as u64);
    for e in entries {
        entry(e, &mut out);
    }
    out
}

/// Encode one shard's maps and summaries as the files `names`, queue both
/// writes and return their CRCs — what a save and an ingest epoch write
/// per shard.
pub(crate) fn push_shard(
    writes: &mut Vec<(String, Vec<u8>)>,
    names: [String; 2],
    maps: &[ElasticMap],
    summaries: &[BlockSummary],
) -> (u32, u32) {
    let maps = encode_blocks(maps, ElasticMap::encode);
    let summaries = encode_blocks(summaries, BlockSummary::encode);
    let crcs = (crc32(&maps), crc32(&summaries));
    writes.extend(names.into_iter().zip([maps, summaries]));
    crcs
}

/// Decode what [`encode_blocks`] wrote after the magic.
fn decode_blocks<T>(
    payload: &[u8],
    entry: fn(&mut Reader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut r = Reader::new(payload);
    let mut out = Vec::new();
    for _ in 0..r.count(1)? {
        out.push(entry(&mut r)?);
    }
    r.done()?;
    Ok(out)
}

/// Decode a shard-resident payload, which must hold one entry per block of
/// the shard's `span`, in block order: entry `k` describes block
/// `span.start + k`. Everything downstream indexes by that position. The
/// file's own first bytes choose the decoder — [`MAGIC`] means the binary
/// payload, anything else the JSON array every earlier version wrote, read
/// through the entries' [`Deserialize`] — so one store may hold both.
fn decode_payload<T: Deserialize>(
    bytes: &[u8],
    span: Range<usize>,
    what: &str,
    decode: fn(&mut Reader<'_>) -> Result<T, String>,
    block_of: fn(&T) -> BlockId,
) -> Result<Vec<T>, String> {
    let out = match bytes.strip_prefix(&MAGIC) {
        Some(payload) => decode_blocks(payload, decode)?,
        None => serde_json::from_slice::<Vec<T>>(bytes).map_err(|e| e.to_string())?,
    };
    if out.len() != span.len() {
        return Err(format!(
            "expected {} {what}, found {}",
            span.len(),
            out.len()
        ));
    }
    for (t, want) in out.iter().zip(span) {
        if block_of(t).index() != want {
            return Err(format!(
                "{what}: entry for block {want} describes block {}",
                block_of(t)
            ));
        }
    }
    Ok(out)
}

/// What one walk over the shards yields: the view of each probed id, the
/// rung-3 unknown pool, and where each shard's answer came from.
type Walk = (Vec<SubDatasetView>, Vec<BlockId>, Vec<ShardSource>);

/// On-disk handle to sharded, replicated meta-data.
#[derive(Debug)]
pub struct MetaStore {
    /// Replica directories in read-preference order.
    dirs: Vec<PathBuf>,
    manifest: Manifest,
    /// Manifest file this handle reads and scrub-repairs: `manifest.json`
    /// for the live store, `manifest-eNNNN.json` when opened at a historical
    /// epoch (so a time-travel handle never clobbers the live manifest).
    manifest_name: String,
    /// LRU cache of decoded shards: back = most recently used.
    cache: VecDeque<(usize, Vec<ElasticMap>)>,
    cache_shards: usize,
    /// Shards with no healthy full copy; reads fail fast.
    quarantined: BTreeSet<usize>,
    /// Running resilience accounting (reads, repairs, quarantines).
    health: MetaHealth,
    /// Observability sink (disabled by default): shard-load and scrub
    /// spans on the wall clock, cache/failover counters.
    rec: Recorder,
}

pub(crate) fn shard_file(i: usize) -> String {
    format!("shard-{i:04}.json")
}

pub(crate) fn summary_file(i: usize) -> String {
    format!("summary-{i:04}.json")
}

/// Per-epoch tail shard: the (< `shard_blocks`) newest maps at epoch `e`.
pub(crate) fn epoch_file(e: u64) -> String {
    format!("epoch-{e:04}.json")
}

/// Summary sidecar of the per-epoch tail shard.
pub(crate) fn epoch_summary_file(e: u64) -> String {
    format!("epoch-{e:04}-summary.json")
}

/// Immutable per-epoch manifest; `manifest.json` always mirrors the newest.
pub(crate) fn epoch_manifest_file(e: u64) -> String {
    format!("manifest-e{e:04}.json")
}

/// The live manifest: the commit point of every save and ingest epoch.
pub(crate) const LIVE_MANIFEST: &str = "manifest.json";

/// One crash-safe, replicated write — a store save, an ingest epoch
/// ([`crate::CommitPlan`]) or a pipeline checkpoint
/// ([`crate::CheckpointPlan`]). The order is the contract: the data files,
/// then the immutable manifest copy if there is one, then the live manifest
/// **last**. Each file lands on every replica before the next is started,
/// so applying any strict prefix (a modelled crash) leaves every replica's
/// live manifest describing the previous commit, whose files no plan
/// rewrites. The manifest is serialised once for both of its copies; `B`
/// is how the data files hold their bytes (owned, or a payload the caller
/// shares, so nothing is copied into the plan).
#[derive(Debug, Clone)]
pub struct WritePlan<M, B = Vec<u8>> {
    manifest: M,
    data: Vec<(String, B)>,
    /// The immutable copy's name, if any, then the live manifest's.
    manifest_files: Vec<String>,
    manifest_bytes: Vec<u8>,
}

impl<M: Serialize, B: AsRef<[u8]>> WritePlan<M, B> {
    /// Plan `data` in order, then `manifest` under `immutable` (if any) and
    /// under `live`.
    pub(crate) fn of(
        manifest: M,
        data: Vec<(String, B)>,
        immutable: Option<String>,
        live: &str,
    ) -> Self {
        let manifest_bytes = serde_json::to_vec_pretty(&manifest).expect("manifests serialise");
        Self {
            manifest,
            data,
            manifest_files: immutable.into_iter().chain([live.to_string()]).collect(),
            manifest_bytes,
        }
    }

    /// The manifest that is live once the plan is fully applied.
    pub fn manifest(&self) -> &M {
        &self.manifest
    }

    /// Number of ordered file writes in the plan.
    pub fn writes(&self) -> usize {
        self.data.len() + self.manifest_files.len()
    }

    /// Apply the full plan to every replica directory.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn apply(&self, dirs: &[&Path]) -> Result<(), StoreError> {
        self.apply_prefix(dirs, self.writes())
    }

    /// Apply only the first `n` writes — the crash-injection hook.
    ///
    /// # Errors
    /// Filesystem failures.
    ///
    /// # Panics
    /// Panics if `n` exceeds the plan length.
    pub fn apply_prefix(&self, dirs: &[&Path], n: usize) -> Result<(), StoreError> {
        assert!(n <= self.writes(), "prefix longer than the plan");
        for dir in dirs {
            fs::create_dir_all(dir)?;
        }
        let data = self.data.iter().map(|(file, bytes)| (file, bytes.as_ref()));
        let manifests = (self.manifest_files.iter()).map(|file| (file, &self.manifest_bytes[..]));
        for (file, bytes) in data.chain(manifests).take(n) {
            for dir in dirs {
                fs::write(dir.join(file), bytes)?;
            }
        }
        Ok(())
    }
}

/// The one manifest reader: parse `path`, refuse a `version` newer than
/// `supported` as [`StoreError::FutureVersion`] before any other field is
/// decoded (a future manifest may hold fields this build cannot parse),
/// then decode.
pub(crate) fn read_manifest<M: Deserialize>(path: &Path, supported: u32) -> Result<M, StoreError> {
    let bytes = fs::read(path)?;
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let value = serde_json::parse_value(&bytes).map_err(|e| corrupt(e.to_string()))?;
    if let Some(v) = value.get("version") {
        let found = u32::from_value(v).map_err(|e| corrupt(e.to_string()))?;
        if found > supported {
            return Err(StoreError::FutureVersion { found, supported });
        }
    }
    M::from_value(&value).map_err(|e| corrupt(e.to_string()))
}

/// Whether no replica holds the live manifest `live`: nothing was ever
/// committed (a crash before the first commit is this too), so a resume
/// starts fresh instead of failing.
pub(crate) fn nothing_durable(dirs: &[&Path], live: &str) -> bool {
    dirs.iter().all(|d| !d.join(live).exists())
}

impl MetaStore {
    /// Persist an [`ElasticMapArray`] into `dir` (created if needed) as
    /// `manifest.json` plus `shard-NNNN.json` / `summary-NNNN.json` files of
    /// `shard_blocks` consecutive blocks each. Single-replica convenience
    /// for [`MetaStore::save_replicated`].
    ///
    /// # Errors
    /// I/O or serialisation failures.
    ///
    /// # Panics
    /// Panics if `shard_blocks == 0`.
    pub fn save(
        array: &ElasticMapArray,
        dir: &Path,
        shard_blocks: usize,
    ) -> Result<(), StoreError> {
        Self::save_replicated(array, &[dir], shard_blocks)
    }

    /// Persist an [`ElasticMapArray`] into every directory of `dirs` — k-way
    /// replication across simulated datanodes — as one [`WritePlan`]: each
    /// shard and its summary, then `manifest.json`. Every replica gets
    /// byte-identical files, so the manifest's CRCs hold for all of them,
    /// and a save that fails part way leaves no replica with a manifest
    /// describing files that never landed.
    ///
    /// # Errors
    /// I/O failures.
    ///
    /// # Panics
    /// Panics if `shard_blocks == 0` or `dirs` is empty.
    pub fn save_replicated(
        array: &ElasticMapArray,
        dirs: &[&Path],
        shard_blocks: usize,
    ) -> Result<(), StoreError> {
        assert!(shard_blocks > 0, "shards must hold at least one block");
        assert!(!dirs.is_empty(), "need at least one replica directory");
        let mut writes = Vec::new();
        let mut shard_crc = Vec::new();
        let mut summary_crc = Vec::new();
        for (i, start) in (0..array.len()).step_by(shard_blocks).enumerate() {
            let chunk = array.maps_in(start..array.len().min(start + shard_blocks));
            let summaries: Vec<BlockSummary> = chunk.iter().map(BlockSummary::of).collect();
            let names = [shard_file(i), summary_file(i)];
            let (m, s) = push_shard(&mut writes, names, &chunk, &summaries);
            shard_crc.push(m);
            summary_crc.push(s);
        }
        let manifest = Manifest {
            blocks: array.len(),
            shard_blocks,
            policy: array.policy().clone(),
            version: FORMAT_VERSION,
            shard_crc,
            summary_crc,
            epoch: 0,
            tail_crc: None,
            tail_summary_crc: None,
        };
        WritePlan::of(manifest, writes, None, LIVE_MANIFEST).apply(dirs)
    }

    /// Open a persisted single-replica store with a cache of `cache_shards`
    /// decoded shards (LRU eviction; 0 disables caching).
    ///
    /// # Errors
    /// Missing/corrupt manifest or an unsupported future format version.
    pub fn open(dir: &Path, cache_shards: usize) -> Result<Self, StoreError> {
        Self::open_replicated(&[dir], cache_shards)
    }

    /// Open a store replicated across `dirs`. The manifest is taken from
    /// the first replica that yields a valid one; shard reads fail over
    /// across all of them.
    ///
    /// # Errors
    /// [`StoreError::FutureVersion`] as soon as any replica's manifest is
    /// newer than this build; otherwise the last per-replica failure when
    /// no replica has a readable manifest.
    ///
    /// # Panics
    /// Panics if `dirs` is empty.
    pub fn open_replicated(dirs: &[&Path], cache_shards: usize) -> Result<Self, StoreError> {
        Self::open_replicated_named(dirs, LIVE_MANIFEST, cache_shards)
    }

    /// Open a replicated store **as of ingest epoch `epoch`** via its
    /// immutable per-epoch manifest (`manifest-eNNNN.json`). Only stores
    /// written by the streaming ingestor carry these; the handle answers
    /// queries exactly as the live store did at that epoch and its scrub
    /// pass repairs the epoch manifest, never `manifest.json`.
    ///
    /// # Errors
    /// Same as [`MetaStore::open_replicated`]; a missing epoch manifest
    /// surfaces as the underlying I/O error.
    pub fn open_replicated_at_epoch(
        dirs: &[&Path],
        epoch: u64,
        cache_shards: usize,
    ) -> Result<Self, StoreError> {
        Self::open_replicated_named(dirs, &epoch_manifest_file(epoch), cache_shards)
    }

    fn open_replicated_named(
        dirs: &[&Path],
        manifest_name: &str,
        cache_shards: usize,
    ) -> Result<Self, StoreError> {
        assert!(!dirs.is_empty(), "need at least one replica directory");
        let mut last_err: Option<StoreError> = None;
        let mut manifest: Option<Manifest> = None;
        for dir in dirs {
            match read_manifest(&dir.join(manifest_name), FORMAT_VERSION) {
                Ok(m) => {
                    manifest = Some(m);
                    break;
                }
                Err(e @ StoreError::FutureVersion { .. }) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        let Some(manifest) = manifest else {
            return Err(last_err.expect("at least one replica was tried"));
        };
        Ok(Self {
            dirs: dirs.iter().map(|d| d.to_path_buf()).collect(),
            manifest,
            manifest_name: manifest_name.to_string(),
            cache: VecDeque::new(),
            cache_shards,
            quarantined: BTreeSet::new(),
            health: MetaHealth::default(),
            rec: Recorder::off(),
        })
    }

    /// The manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Attach an observability recorder: subsequent shard reads emit
    /// wall-clock `shard-load`/`summary-load` spans and cache counters, and
    /// scrub passes emit `scrub` spans. Pass [`Recorder::off`] to detach.
    /// Returns the recorder that was attached before, so a borrower of the
    /// handle can put it back.
    pub fn set_recorder(&mut self, rec: Recorder) -> Recorder {
        std::mem::replace(&mut self.rec, rec)
    }

    /// Resilience accounting accumulated by this handle's reads and scrubs.
    pub fn health(&self) -> &MetaHealth {
        &self.health
    }

    /// Blocks covered by shard `i`.
    fn shard_span(&self, i: usize) -> Range<usize> {
        let start = i * self.manifest.shard_blocks;
        start..(start + self.manifest.shard_blocks).min(self.manifest.blocks)
    }

    /// One verified read attempt of the file at `path`.
    fn try_read(path: &Path, expect_crc: Option<u32>) -> Result<Vec<u8>, ReadFail> {
        let bytes = fs::read(path).map_err(ReadFail::Io)?;
        if let Some(want) = expect_crc {
            let got = crc32(&bytes);
            if got != want {
                return Err(ReadFail::Corrupt(format!(
                    "checksum mismatch: recorded {want:#010x}, computed {got:#010x}"
                )));
            }
        }
        Ok(bytes)
    }

    /// Read `file` from the first replica that yields it, **failing over
    /// before backing off**: every replica is tried once, and only when all
    /// of them failed does the read sleep the back-off and go round again —
    /// [`ATTEMPTS_PER_REPLICA`] rounds, so at most that many reads of each
    /// copy. A checksum mismatch on a fully-read file does not heal by
    /// waiting, while a healthy replica answers now; with one replica this
    /// is plain retry-with-backoff. `decode` validates and parses the
    /// verified bytes.
    fn read_with_failover<T>(
        &mut self,
        shard: usize,
        file: &str,
        expect_crc: Option<u32>,
        decode: impl Fn(&[u8]) -> Result<T, String>,
    ) -> Result<T, StoreError> {
        let mut last = String::from("no replica tried");
        for round in 0..ATTEMPTS_PER_REPLICA {
            if round > 0 {
                self.health.retries += 1;
                self.rec.add("meta_retries", 1);
                self.flight(FlightKind::Retry, || {
                    format!("retry round {round} for {file}: every replica failed")
                });
                // Deterministic per-shard jitter: concurrent readers of
                // different shards never sleep in lockstep.
                let seed = (shard as u64) << 8;
                std::thread::sleep(backoff_jittered(round, seed));
            }
            for d in 0..self.dirs.len() {
                if d > 0 {
                    self.health.failovers += 1;
                    self.rec.add("meta_failovers", 1);
                    self.flight(FlightKind::Retry, || {
                        format!("failover to replica {d} for {file} (round {round})")
                    });
                }
                let path = self.dirs[d].join(file);
                let outcome = Self::try_read(&path, expect_crc)
                    .and_then(|bytes| decode(&bytes).map_err(ReadFail::Corrupt));
                match outcome {
                    Ok(v) => return Ok(v),
                    Err(fail) => {
                        match &fail {
                            ReadFail::Io(_) => self.health.io_failures += 1,
                            ReadFail::Corrupt(_) => self.health.checksum_failures += 1,
                        }
                        last = format!("{}: {}", path.display(), fail.describe());
                    }
                }
            }
        }
        Err(StoreError::AllReplicasFailed {
            shard,
            detail: last,
        })
    }

    /// Push a wall-clock flight event; `detail` is only built when a flight
    /// ring is attached.
    fn flight(&self, kind: FlightKind, detail: impl FnOnce() -> String) {
        if self.rec.has_flight() {
            self.rec
                .flight(kind, Domain::Wall, self.rec.wall_us(), None, detail());
        }
    }

    /// Span context naming `file`; the name is only copied when a trace or
    /// metrics plane will keep it.
    fn file_ctx(&self, file: &str) -> SpanCtx {
        if self.rec.is_enabled() || self.rec.is_metering() {
            SpanCtx::default().note(file)
        } else {
            SpanCtx::default()
        }
    }

    /// Mark a shard irreparable; counts once per shard.
    fn quarantine(&mut self, shard: usize) {
        if self.quarantined.insert(shard) {
            self.health.shards_quarantined += 1;
        }
    }

    /// Load one shard (through the LRU cache), retrying and failing over
    /// across replicas. An exhausted read quarantines the shard.
    ///
    /// # Errors
    /// [`StoreError::Quarantined`] for known-dead shards,
    /// [`StoreError::AllReplicasFailed`] when every replica fails now.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn shard(&mut self, index: usize) -> Result<&[ElasticMap], StoreError> {
        assert!(
            index < self.manifest.shard_count(),
            "shard {index} out of range"
        );
        if let Some(pos) = self.cache.iter().position(|(i, _)| *i == index) {
            // LRU touch-on-hit: move to the back, then return it.
            let entry = self.cache.remove(pos).expect("position is valid");
            self.cache.push_back(entry);
            self.rec.add("shard_cache_hits", 1);
            return Ok(&self.cache.back().expect("just pushed").1);
        }
        if self.quarantined.contains(&index) {
            return Err(StoreError::Quarantined { shard: index });
        }
        self.rec.add("shard_cache_misses", 1);
        let file = self.manifest.shard_file_name(index);
        let span = self.rec.begin(
            Category::ShardLoad,
            "shard-load",
            Domain::Wall,
            self.rec.wall_us(),
            self.file_ctx(&file),
        );
        let blocks = self.shard_span(index);
        let expect = self.manifest.expected_shard_crc(index);
        let maps = match self.read_with_failover(index, &file, expect, |bytes| {
            decode_payload(
                bytes,
                blocks.clone(),
                "block maps",
                ElasticMap::decode,
                ElasticMap::block,
            )
        }) {
            Ok(maps) => {
                self.rec.end(span, self.rec.wall_us());
                maps
            }
            Err(e) => {
                self.quarantine(index);
                self.rec
                    .end_with_note(span, self.rec.wall_us(), "all replicas failed");
                return Err(e);
            }
        };
        if self.cache_shards == 0 {
            // No caching: keep exactly one transient slot.
            self.cache.clear();
            self.cache.push_back((index, maps));
        } else {
            while self.cache.len() >= self.cache_shards {
                self.cache.pop_front();
            }
            self.cache.push_back((index, maps));
        }
        Ok(&self.cache.back().expect("just pushed").1)
    }

    /// Load one shard's bloom-only summary sidecar (uncached — summaries
    /// are a few bytes per block).
    ///
    /// # Errors
    /// Every replica failed, or the store predates summaries (v1).
    pub fn summary(&mut self, index: usize) -> Result<Vec<BlockSummary>, StoreError> {
        assert!(
            index < self.manifest.shard_count(),
            "shard {index} out of range"
        );
        let blocks = self.shard_span(index);
        let expect = self.manifest.expected_summary_crc(index);
        let file = self.manifest.summary_file_name(index);
        let span = self.rec.begin(
            Category::ShardLoad,
            "summary-load",
            Domain::Wall,
            self.rec.wall_us(),
            self.file_ctx(&file),
        );
        let out = self.read_with_failover(index, &file, expect, |bytes| {
            decode_payload(
                bytes,
                blocks.clone(),
                "block summaries",
                BlockSummary::decode,
                BlockSummary::block,
            )
        });
        match &out {
            Ok(_) => self.rec.end(span, self.rec.wall_us()),
            Err(_) => self
                .rec
                .end_with_note(span, self.rec.wall_us(), "all replicas failed"),
        }
        out
    }

    /// Query one `(block, sub-dataset)` cell from disk.
    ///
    /// # Errors
    /// Shard read failures (after retry/failover).
    pub fn query(
        &mut self,
        block: datanet_dfs::BlockId,
        s: SubDatasetId,
    ) -> Result<SizeInfo, StoreError> {
        let shard = block.index() / self.manifest.shard_blocks;
        let offset = block.index() % self.manifest.shard_blocks;
        Ok(self.shard(shard)?[offset].query(s))
    }

    /// Stream all shards to assemble a sub-dataset view — identical result
    /// to [`ElasticMapArray::view`], without holding the full array in
    /// memory. Strict rung-1 semantics: any unreadable shard is an error
    /// (use [`MetaStore::view_degraded`] to keep going).
    ///
    /// # Errors
    /// Shard read failures (after retry/failover).
    pub fn view(&mut self, s: SubDatasetId) -> Result<SubDatasetView, StoreError> {
        Ok((self.views(&[s])?.pop()).expect("one view per probe id"))
    }

    /// Batched [`MetaStore::view`]: one view per input id, in input order,
    /// bit-identical to N single `view` calls — but each shard is decoded
    /// (or fetched from cache) **once** for the whole batch instead of once
    /// per id, and each block answers the sorted probe list in one forward
    /// pass. This is the path scheduling-time multi-query workloads should
    /// use.
    ///
    /// # Errors
    /// Shard read failures (after retry/failover).
    pub fn views(&mut self, ids: &[SubDatasetId]) -> Result<Vec<SubDatasetView>, StoreError> {
        Ok(self.walk(ids, true)?.0)
    }

    /// Assemble a sub-dataset view under metadata failures — the degradation
    /// ladder's read path. Never fails: per shard it tries the full copy
    /// (rung 1/2), then the bloom-only summary (rung 2), and finally gives
    /// the shard's whole block span to the rung-3 unknown pool.
    pub fn view_degraded(&mut self, s: SubDatasetId) -> DegradedView {
        (self.views_degraded(&[s]).pop()).expect("one view per probe id")
    }

    /// Batched [`MetaStore::view_degraded`]: one degraded view per input
    /// id, in input order, element-wise identical to N single calls made
    /// against the same shard health. Shard/summary decode attempts happen
    /// once per shard for the whole batch (so the rung bookkeeping — and
    /// any repair-triggering side effects — fire once, not once per id).
    pub fn views_degraded(&mut self, ids: &[SubDatasetId]) -> Vec<DegradedView> {
        let (views, unknown, sources) = self
            .walk(ids, false)
            .expect("only a strict walk stops at an unreadable shard");
        // Shard health is id-independent: one source row and one unknown
        // pool shared by every view in the batch.
        (views.into_iter())
            .map(|view| DegradedView::new(view, unknown.clone(), sources.clone()))
            .collect()
    }

    /// The store's one read path: fold every shard, in block order, into
    /// the views of `ids`. A `strict` walk returns the first unreadable
    /// shard's error; a lenient one steps down the ladder instead and
    /// cannot fail.
    fn walk(&mut self, ids: &[SubDatasetId], strict: bool) -> Result<Walk, StoreError> {
        let mut fold = ViewFold::new(ids);
        let mut unknown = Vec::new();
        let mut sources = Vec::new();
        for i in 0..self.manifest.shard_count() {
            let unreadable = match self.shard(i) {
                Ok(maps) => {
                    fold.fold_maps(maps);
                    sources.push(ShardSource::Full);
                    continue;
                }
                Err(e) => e,
            };
            if strict {
                return Err(unreadable);
            }
            if let Ok(summaries) = self.summary(i) {
                summaries.iter().for_each(|sum| fold.fold_summary(sum));
                sources.push(ShardSource::Summary);
                self.flight(FlightKind::RungChange, || {
                    format!("shard {i} degraded to summary (rung 2)")
                });
            } else {
                let Range { start, end } = self.shard_span(i);
                unknown.extend((start..end).map(|b| BlockId(b as u32)));
                sources.push(ShardSource::Lost);
                self.flight(FlightKind::RungChange, || {
                    format!("shard {i} lost, blocks {start}..{end} unknown (rung 3)")
                });
            }
        }
        Ok((fold.finish(), unknown, sources))
    }

    /// Background scrub: verify every copy of every shard and summary,
    /// repair bad copies from a healthy replica (HDFS block-scanner style),
    /// quarantine shards with no healthy copy anywhere, and lift the
    /// quarantine of shards that verify again (e.g. after an operator
    /// restored files).
    pub fn scrub(&mut self) -> ScrubReport {
        let span = self.rec.begin(
            Category::Scrub,
            "scrub",
            Domain::Wall,
            self.rec.wall_us(),
            SpanCtx::default(),
        );
        let mut report = ScrubReport {
            scrubbed: self.manifest.shard_count(),
            ..ScrubReport::default()
        };
        self.health.shards_scrubbed += self.manifest.shard_count();

        // Replica manifests first: a healthy shard copy is unreachable on a
        // replica whose manifest is gone.
        let manifest_bytes =
            serde_json::to_vec_pretty(&self.manifest).expect("manifest serialises");
        let manifest_name = self.manifest_name.clone();
        for dir in self.dirs.clone() {
            if read_manifest::<Manifest>(&dir.join(&manifest_name), FORMAT_VERSION).is_err()
                && fs::create_dir_all(&dir).is_ok()
            {
                let _ = fs::write(dir.join(&manifest_name), &manifest_bytes);
                report.manifests_repaired += 1;
            }
        }

        for i in 0..self.manifest.shard_count() {
            let repaired = self.scrub_file(
                &self.manifest.shard_file_name(i),
                self.manifest.expected_shard_crc(i),
            );
            match repaired {
                Some(n) => {
                    report.repaired += n;
                    self.health.shards_repaired += n;
                    if self.quarantined.remove(&i) {
                        // Healthy again: lift the quarantine.
                        self.health.shards_quarantined =
                            self.health.shards_quarantined.saturating_sub(1);
                    }
                }
                None => {
                    self.quarantine(i);
                    report.quarantined.push(i);
                }
            }
            let summaries = self.scrub_file(
                &self.manifest.summary_file_name(i),
                self.manifest.expected_summary_crc(i),
            );
            match summaries {
                Some(n) => {
                    report.summaries_repaired += n;
                    self.health.summaries_repaired += n;
                }
                None => report.summaries_lost.push(i),
            }
        }
        self.rec.end_with_note(
            span,
            self.rec.wall_us(),
            &format!(
                "repaired {}, summaries {}, quarantined {}",
                report.repaired,
                report.summaries_repaired,
                report.quarantined.len()
            ),
        );
        report
    }

    /// Scrub one file across all replicas. Returns the number of bad copies
    /// rewritten from a healthy one, or `None` when no copy verifies.
    fn scrub_file(&mut self, file: &str, expect_crc: Option<u32>) -> Option<usize> {
        let dirs = self.dirs.clone();
        let mut healthy: Option<Vec<u8>> = None;
        let mut bad: Vec<&PathBuf> = Vec::new();
        for dir in &dirs {
            match Self::try_read(&dir.join(file), expect_crc) {
                // Without recorded CRCs (v1), "verifies" = parses as JSON.
                Ok(bytes) if expect_crc.is_some() || serde_json::parse_value(&bytes).is_ok() => {
                    if healthy.is_none() {
                        healthy = Some(bytes);
                    }
                }
                Ok(_) | Err(_) => bad.push(dir),
            }
        }
        let healthy = healthy?;
        let mut repaired = 0;
        for dir in bad {
            if fs::write(dir.join(file), &healthy).is_ok() {
                repaired += 1;
            }
        }
        Some(repaired)
    }

    /// Total serialized bytes on disk in the primary replica directory
    /// (manifest + shards + summaries).
    ///
    /// # Errors
    /// Directory traversal failures.
    pub fn disk_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for entry in fs::read_dir(&self.dirs[0])? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::Rung;
    use crate::{IngestConfig, Ingestor};
    use datanet_dfs::{Block, BlockId, Dfs, DfsConfig, Record, Topology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Indices of the shards decoded in the cache, least recently used
    /// first (the front is the next eviction victim).
    fn cached(store: &MetaStore) -> Vec<usize> {
        store.cache.iter().map(|(i, _)| *i).collect()
    }

    /// Currently quarantined shard indices, ascending.
    fn quarantined(store: &MetaStore) -> Vec<usize> {
        store.quarantined.iter().copied().collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("datanet-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn replica_dirs(tag: &str, k: usize) -> Vec<PathBuf> {
        (0..k).map(|i| tmpdir(&format!("{tag}-r{i}"))).collect()
    }

    fn sample_array() -> (Dfs, ElasticMapArray) {
        let recs = (0..3000u64)
            .map(|i| Record::new(SubDatasetId(i % 50), i, 100 + (i % 7) as u32 * 40, i));
        let dfs = Dfs::write_random(
            DfsConfig {
                block_size: 12_000,
                replication: 2,
                topology: Topology::single_rack(6),
                seed: 11,
            },
            recs,
        );
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.4));
        (dfs, arr)
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The textbook one-table, byte-at-a-time CRC-32 that `crc32` replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    /// What a decoder made of `bytes`, in canonical form: `None` when it
    /// rejected them.
    fn canon<T: Serialize, E>(decoded: Result<Vec<T>, E>) -> Option<String> {
        decoded
            .ok()
            .map(|v| serde_json::to_string(&v).expect("serialise"))
    }

    /// [`decode_payload`] as [`MetaStore::shard`] calls it.
    fn decode_maps(bytes: &[u8], span: Range<usize>) -> Result<Vec<ElasticMap>, String> {
        decode_payload(bytes, span, "maps", ElasticMap::decode, ElasticMap::block)
    }

    /// [`decode_payload`] as [`MetaStore::summary`] calls it.
    fn decode_summaries(bytes: &[u8], span: Range<usize>) -> Result<Vec<BlockSummary>, String> {
        decode_payload(
            bytes,
            span,
            "summaries",
            BlockSummary::decode,
            BlockSummary::block,
        )
    }

    /// Touch a decoded map's filter the way a query would: a decoder that
    /// let an unprobeable shape through panics here.
    fn probe_map(m: &ElasticMap) {
        (0..8).for_each(|id| {
            m.query(SubDatasetId(id));
        });
    }

    /// [`probe_map`] for a summary's two filters.
    fn probe_summary(s: &BlockSummary) {
        (0..8).for_each(|id| {
            s.contains(SubDatasetId(id));
        });
    }

    /// Every truncation of `bytes`, and at every position every single-bit
    /// flip and every structural byte.
    fn for_each_damaged(bytes: &[u8], mut check: impl FnMut(&[u8])) {
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut bad = bytes.to_vec();
        for at in 0..bytes.len() {
            let flips = (0..8).map(|bit| bytes[at] ^ (1 << bit));
            for b in flips.chain(*b"\"\\,:[]{}0-.e n") {
                bad[at] = b;
                check(&bad);
            }
            bad[at] = bytes[at];
        }
    }

    #[test]
    fn json_decode_rejects_damage_without_panicking() {
        let (_dfs, arr) = sample_array();
        let maps = arr.maps_in(0..2);
        let shard = serde_json::to_vec(&maps).unwrap();
        let summaries: Vec<BlockSummary> = maps[..1].iter().map(BlockSummary::of).collect();
        let summary = serde_json::to_vec(&summaries).unwrap();
        assert_eq!(
            canon(decode_maps(&shard, 0..2)).map(String::into_bytes),
            Some(shard.clone())
        );
        assert_eq!(
            canon(decode_summaries(&summary, 0..1)).map(String::into_bytes),
            Some(summary.clone())
        );
        // Damaged text may still decode (the CRC, not the decoder, catches a
        // changed digit) — to something every probe can use.
        for_each_damaged(&shard, |bad| {
            decode_maps(bad, 0..2).iter().flatten().for_each(probe_map);
        });
        for_each_damaged(&summary, |bad| {
            decode_summaries(bad, 0..1)
                .iter()
                .flatten()
                .for_each(probe_summary);
        });
    }

    #[test]
    fn json_decode_keeps_its_accept_set_on_shapes_the_writer_never_emits() {
        let bloom = r#"{"bits":[1,2],"num_bits":128,"num_hashes":3,"items":2}"#;
        let one = |fields: &str| format!("[{{{fields}}}]");
        let full = format!(
            r#""block":4,"exact":{{"10":7,"9":3}},"bloom":{bloom},"bloom_items":2,"threshold":5"#
        );
        // Each shape with the exact side it decodes to; `None` = rejected.
        let written: &[(u64, u64)] = &[(9, 3), (10, 7)];
        let cases = [
            // Pre-blocking bloom, absent `bloom_min_bytes`: still accepted.
            (one(&full), Some(written)),
            (
                one(&format!(
                    r#"{full},"bloom_min_bytes":null,"later":[1,{{"x":2}}]"#
                )),
                Some(written),
            ),
            // Repeated fields: the first occurrence wins, whatever follows.
            (
                one(&format!(r#"{full},"block":"x","exact":5,"bloom":null"#)),
                Some(written),
            ),
            (one(&format!(r#""block":"x",{full}"#)), None),
            // Numbers the decode converts, and ones it refuses.
            (
                one(&full.replace(r#""block":4"#, r#""block":4.0"#)),
                Some(written),
            ),
            (one(&full.replace(r#""block":4"#, r#""block":-4"#)), None),
            (
                one(&full.replace(r#""block":4"#, r#""block":4294967296"#)),
                None,
            ),
            (
                one(&full.replace(r#""10":7"#, r#""10":7e0"#)),
                Some(written),
            ),
            (one(&full.replace(r#""10":7"#, r#""+10":7"#)), Some(written)),
            // Two keys naming one id: a block cannot hold it exactly twice.
            (
                one(&full.replace(r#""10":7"#, r#""+10":7,"1\u0030":8"#)),
                None,
            ),
            (one(&full.replace(r#""10":7"#, r#""ten":7"#)), None),
            (
                one(&full.replace(r#""threshold":5"#, r#""threshold":"5""#)),
                None,
            ),
            // Missing fields and wrong shapes.
            (one(r#""block":4"#), None),
            (
                one(&full.replace(r#""exact":{"10":7,"9":3}"#, r#""exact":[1]"#)),
                None,
            ),
            (one(&full.replace(bloom, "[]")), None),
            (one(&full.replace(r#""bits":[1,2]"#, r#""bits":{}"#)), None),
            (one(&full.replace(r#","items":2"#, "")), None),
            ("[[]]".to_string(), None),
            ("{}".to_string(), None),
            (format!("{} x", one(&full)), None),
        ];
        for (case, want) in &cases {
            let got = decode_maps(case.as_bytes(), 4..5).ok().map(|maps| {
                let mut exact: Vec<(u64, u64)> = (maps[0].exact_entries())
                    .map(|(id, size)| (id.0, size))
                    .collect();
                exact.sort_unstable();
                exact
            });
            assert_eq!(got.as_deref(), *want, "{case}");
        }
        // Summaries, with the δ they decode to.
        for (case, want) in [
            (
                one(&format!(
                    r#""block":1,"head":{bloom},"tail":{bloom},"delta":9,"x":0"#
                )),
                Some(9),
            ),
            (
                one(&format!(r#""block":1,"head":{bloom},"tail":{bloom}"#)),
                None,
            ),
            (
                one(&format!(r#""head":{bloom},"tail":{bloom},"delta":9"#)),
                None,
            ),
            (one(&format!(r#""block":1,"tail":{bloom},"delta":9"#)), None),
            (
                one(&format!(r#""block":1,"head":{bloom},"tail":7,"delta":9"#)),
                None,
            ),
            ("[7]".to_string(), None),
        ] {
            let got = decode_summaries(case.as_bytes(), 1..2).ok();
            assert_eq!(got.map(|s| s[0].delta()), want, "{case}");
        }
    }

    #[test]
    fn json_decode_reads_every_payload_of_the_golden_v2_store() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/meta_v2/r0");
        let mut store = MetaStore::open(&dir, 0).expect("golden v2 fixture present");
        let shards = store.manifest().shard_count();
        assert!(shards >= 2, "fixture holds several shards");
        for i in 0..shards {
            let span = store.shard_span(i);
            for file in [shard_file(i), summary_file(i)] {
                let bytes = fs::read(dir.join(&file)).unwrap();
                assert!(!bytes.starts_with(&MAGIC), "{file} predates the encoding");
            }
            assert_eq!(store.shard(i).expect("shard decodes").len(), span.len());
            assert_eq!(store.summary(i).expect("summary decodes").len(), span.len());
        }
        assert_eq!(store.health().checksum_failures, 0);
    }

    /// Where every varint of a binary payload starts (offsets into the
    /// whole file) and whether it is a count, from decoding it.
    fn varints<T>(
        bytes: &[u8],
        entry: fn(&mut Reader<'_>) -> Result<T, String>,
    ) -> Vec<(usize, bool)> {
        let mut r = Reader::new(bytes.strip_prefix(&MAGIC).expect("binary payload"));
        for _ in 0..r.count(1).unwrap() {
            entry(&mut r).unwrap();
        }
        r.done().unwrap();
        let shift = |&(at, count): &(usize, bool)| (at + MAGIC.len(), count);
        r.vars.iter().map(shift).collect()
    }

    /// `bytes` with the varint at `at` replaced by `with`.
    fn splice_varint(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
        let len = 1 + bytes[at..].iter().take_while(|&&b| b & 0x80 != 0).count();
        [&bytes[..at], with, &bytes[at + len..]].concat()
    }

    fn var_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_var(&mut out, v);
        out
    }

    /// The binary decoder's boundary, for one payload kind: `decode` is the
    /// store's own entry (sniff, decode, span check) and `used` touches every
    /// decoded filter the way a query would.
    fn assert_binary_boundary<T>(
        good: &[u8],
        entry: fn(&mut Reader<'_>) -> Result<T, String>,
        decode: impl Fn(&[u8]) -> Result<Vec<T>, String>,
        used: impl Fn(&T),
    ) {
        assert!(decode(good).is_ok());
        // No prefix of a payload is a payload.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert!(
            decode(&[good, &[0u8][..]].concat()).is_err(),
            "trailing byte"
        );
        // Flipped bits may still decode (the CRC, not the decoder, catches
        // a changed size) — to something every probe can use.
        for_each_damaged(good, |bad| {
            decode(bad).iter().flatten().for_each(&used);
        });
        for (at, is_count) in varints(good, entry) {
            let value: u64 = Reader::new(&good[at..]).var().unwrap();
            assert!(
                decode(&splice_varint(good, at, &[0xFF; 10])).is_err(),
                "overlong varint at {at}"
            );
            for lie in [u64::MAX, value.wrapping_add(1)] {
                let got = decode(&splice_varint(good, at, &var_bytes(lie)));
                assert!(!is_count || got.is_err(), "count {value} at {at} as {lie}");
                got.iter().flatten().for_each(&used);
            }
        }
    }

    #[test]
    fn binary_decode_rejects_damage_without_panicking_or_trusting_counts() {
        let (_dfs, arr) = sample_array();
        let maps = arr.maps_in(0..2);
        let shard = encode_blocks(&maps, ElasticMap::encode);
        let summaries: Vec<BlockSummary> = maps[..1].iter().map(BlockSummary::of).collect();
        let summary = encode_blocks(&summaries, BlockSummary::encode);
        let decode_maps = |b: &[u8]| decode_maps(b, 0..2);
        let decode_summaries = |b: &[u8]| decode_summaries(b, 0..1);
        assert_eq!(
            canon(decode_maps(&shard)),
            Some(serde_json::to_string(&maps).unwrap())
        );
        assert_eq!(
            canon(decode_summaries(&summary)),
            Some(serde_json::to_string(&summaries).unwrap())
        );
        assert_binary_boundary(&shard, ElasticMap::decode, decode_maps, probe_map);
        assert_binary_boundary(
            &summary,
            BlockSummary::decode,
            decode_summaries,
            probe_summary,
        );

        // Field by field: block, exact count, first id, second id's gap…
        let vars = varints(&shard, ElasticMap::decode);
        assert!(maps[0].exact_len() >= 2 && maps[1].bloom_len() > 0);
        let repeat = splice_varint(&shard, vars[4].0, &[0]);
        let err = decode_maps(&repeat).unwrap_err();
        assert!(err.contains("do not ascend"), "{err}");
        let wrap = splice_varint(&shard, vars[4].0, &var_bytes(u64::MAX));
        let err = decode_maps(&wrap).unwrap_err();
        assert!(err.contains("do not ascend"), "{err}");
        // …and, last in a map with a bloom tail, the option tag and its value.
        let tag = vars[vars.len() - 2].0;
        assert_eq!(shard[tag], 1);
        let err = decode_maps(&splice_varint(&shard, tag, &[2])).unwrap_err();
        assert!(err.contains("bad option tag 2"), "{err}");
        let block = splice_varint(&shard, vars[1].0, &var_bytes(1 << 32));
        assert!(decode_maps(&block).unwrap_err().contains("out of range"));
    }

    /// Regression: both filters decoded, then `contains` divided by zero
    /// (no bits) or indexed past `bits` (640 bits, no words).
    #[test]
    fn unprobeable_bloom_filters_are_rejected_by_every_decoder() {
        let literals = [
            r#"{"bits":[],"num_bits":0,"num_hashes":1,"items":0}"#,
            r#"{"bits":[],"num_bits":640,"num_hashes":3,"items":0,"blocks":0}"#,
            // Blocked: too few words; a bit count that is not whole blocks.
            r#"{"bits":[0,0,0,0,0,0,0],"num_bits":512,"num_hashes":3,"items":0,"blocks":1}"#,
            r#"{"bits":[0,0,0,0,0,0,0,0],"num_bits":640,"num_hashes":3,"items":0,"blocks":1}"#,
            r#"{"bits":[0],"num_bits":64,"num_hashes":0,"items":0}"#,
        ];
        let dir = tmpdir("unprobeable");
        fs::create_dir_all(&dir).unwrap();
        // A v1 store: no checksum stands between these bytes and the decoder.
        let v1 = r#"{"blocks": 1, "shard_blocks": 1, "policy": "All", "version": 1}"#;
        fs::write(dir.join("manifest.json"), v1).unwrap();
        for literal in literals {
            // The tree decode, also `ElasticMapArray`'s way in.
            let err = serde_json::from_slice::<BloomFilter>(literal.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("cannot be probed"), "{err}");
            let map = format!(
                r#"[{{"block":0,"exact":{{}},"bloom":{literal},"bloom_items":0,"threshold":0}}]"#
            );
            assert!(serde_json::from_slice::<Vec<ElasticMap>>(map.as_bytes()).is_err());
            // The same decode, through the store.
            fs::write(dir.join(shard_file(0)), &map).unwrap();
            let mut store = MetaStore::open(&dir, 1).unwrap();
            match store.view(SubDatasetId(7)) {
                Err(StoreError::AllReplicasFailed { shard: 0, detail }) => {
                    assert!(detail.contains("cannot be probed"), "{detail}")
                }
                other => panic!("{literal}: expected AllReplicasFailed, got {other:?}"),
            }
            let lost = store.view_degraded(SubDatasetId(7));
            assert_eq!(lost.sources, [ShardSource::Lost]);
        }
        // The binary decode: the same shapes as (bits, hashes, blocks, words).
        for (num_bits, num_hashes, blocks, words) in [
            (0u64, 1u64, 0u64, 0u64),
            (640, 3, 0, 0),
            (512, 3, 1, 7),
            (640, 3, 1, 8),
            (64, 0, 0, 1),
            (u64::MAX, 3, u64::MAX / 512, 8),
        ] {
            let mut bytes = MAGIC.to_vec();
            for v in [1, 0, 0, num_bits, num_hashes, 0, blocks, words] {
                put_var(&mut bytes, v);
            }
            bytes.extend(vec![0; words as usize * 8]);
            [0u64; 3].iter().for_each(|&v| put_var(&mut bytes, v));
            fs::write(dir.join(shard_file(0)), &bytes).unwrap();
            let mut store = MetaStore::open(&dir, 1).unwrap();
            match store.view(SubDatasetId(7)) {
                Err(StoreError::AllReplicasFailed { shard: 0, detail }) => {
                    assert!(detail.contains("cannot be probed"), "{detail}")
                }
                other => panic!("{num_bits} bits: expected AllReplicasFailed, got {other:?}"),
            }
        }
        // One word short of unprobeable is fine.
        let ok = r#"{"bits":[0],"num_bits":64,"num_hashes":1,"items":0}"#;
        let ok: BloomFilter = serde_json::from_str(ok).unwrap();
        assert!(!ok.contains(SubDatasetId(7)));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: the manifest used to be written first, so a save that
    /// died on shard 1 left a store that opened and then failed its reads.
    #[test]
    fn a_failed_save_leaves_no_manifest() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("failed-save");
        fs::create_dir_all(dir.join(shard_file(1))).unwrap();
        assert!(matches!(
            MetaStore::save(&arr, &dir, 7),
            Err(StoreError::Io(_))
        ));
        assert!(!dir.join("manifest.json").exists());
        match MetaStore::open(&dir, 1) {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected a missing-manifest error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_preserves_queries_and_views() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("roundtrip");
        MetaStore::save(&arr, &dir, 7).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        assert_eq!(store.manifest().blocks, arr.len());
        assert_eq!(store.manifest().version, FORMAT_VERSION);
        assert_eq!(
            store.manifest().shard_crc.len(),
            store.manifest().shard_count()
        );
        for b in 0..arr.len() {
            for s in 0..60u64 {
                assert_eq!(
                    store.query(BlockId(b as u32), SubDatasetId(s)).unwrap(),
                    arr.query(BlockId(b as u32), SubDatasetId(s))
                );
            }
        }
        for s in 0..50u64 {
            assert_eq!(
                store.view(SubDatasetId(s)).unwrap(),
                arr.view(SubDatasetId(s))
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_views_match_single_views() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("batchviews");
        MetaStore::save(&arr, &dir, 7).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        // Unsorted, duplicated, and absent ids all answer identically.
        let ids: Vec<SubDatasetId> = [31u64, 2, 999, 2, 0, 49]
            .iter()
            .map(|&i| SubDatasetId(i))
            .collect();
        let batch = store.views(&ids).unwrap();
        assert_eq!(batch.len(), ids.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(batch[i], store.view(id).unwrap(), "view mismatch for {id}");
        }
        assert!(store.views(&[]).unwrap().is_empty());
        let degraded = store.views_degraded(&ids);
        for (i, &id) in ids.iter().enumerate() {
            let single = store.view_degraded(id);
            assert_eq!(degraded[i].view(), single.view());
            assert_eq!(degraded[i].rung_counts(), single.rung_counts());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_covers_all_blocks() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("shards");
        MetaStore::save(&arr, &dir, 4).unwrap();
        let store = MetaStore::open(&dir, 1).unwrap();
        let m = store.manifest();
        assert_eq!(m.shard_count(), arr.len().div_ceil(4));
        assert!(store.disk_bytes().unwrap() > 0);
        // Every shard and summary file exists.
        for i in 0..m.shard_count() {
            assert!(dir.join(shard_file(i)).exists());
            assert!(dir.join(summary_file(i)).exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_eviction_does_not_change_results() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("cache");
        MetaStore::save(&arr, &dir, 3).unwrap();
        // cache_shards = 0 (transient) and 1 (thrash) must agree.
        let mut a = MetaStore::open(&dir, 0).unwrap();
        let mut b = MetaStore::open(&dir, 1).unwrap();
        for s in (0..50u64).rev() {
            assert_eq!(
                a.view(SubDatasetId(s)).unwrap(),
                b.view(SubDatasetId(s)).unwrap()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_evicts_oldest_first_and_refreshes_on_hit() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("evict");
        MetaStore::save(&arr, &dir, 3).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        assert!(store.manifest().shard_count() >= 3, "need >= 3 shards");

        store.shard(0).unwrap();
        store.shard(1).unwrap();
        assert_eq!(cached(&store), vec![0, 1]);
        // A hit moves the shard to the back (most recently used).
        store.shard(0).unwrap();
        assert_eq!(cached(&store), vec![1, 0]);
        // A miss at capacity evicts the front — shard 1, not the re-used 0.
        store.shard(2).unwrap();
        assert_eq!(cached(&store), vec![0, 2]);

        // cache_shards = 0 keeps exactly one transient slot.
        let mut transient = MetaStore::open(&dir, 0).unwrap();
        transient.shard(0).unwrap();
        transient.shard(1).unwrap();
        assert_eq!(cached(&transient), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_hot_shard_survives_eviction_pressure() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("lru-hot");
        MetaStore::save(&arr, &dir, 3).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        let count = store.manifest().shard_count();
        assert!(count >= 4, "need >= 4 shards for real pressure");

        // Sweep every other shard repeatedly while re-touching shard 0
        // between each: under FIFO, shard 0 would be evicted once two other
        // shards had been loaded after it; under LRU the touch keeps it.
        store.shard(0).unwrap();
        for pass in 0..3 {
            for i in 1..count {
                store.shard(i).unwrap();
                store.shard(0).unwrap();
                assert!(
                    cached(&store).contains(&0),
                    "pass {pass}: hot shard evicted under pressure from shard {i}"
                );
            }
        }
        // The hot shard is served from cache even after total disk loss.
        fs::remove_dir_all(&dir).unwrap();
        assert!(store.shard(0).is_ok(), "hot shard must still be cached");
    }

    #[test]
    fn cache_hit_serves_even_after_disk_loss() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("hit");
        MetaStore::save(&arr, &dir, 5).unwrap();
        let mut store = MetaStore::open(&dir, 4).unwrap();
        let want = store.query(BlockId(0), SubDatasetId(3)).unwrap();

        // Shard 0 is cached now; clobber it on disk.
        fs::write(dir.join("shard-0000.json"), b"not json").unwrap();
        assert_eq!(store.query(BlockId(0), SubDatasetId(3)).unwrap(), want);

        // A fresh store must go to disk and hit the corruption.
        let mut fresh = MetaStore::open(&dir, 4).unwrap();
        assert!(fresh.query(BlockId(0), SubDatasetId(3)).is_err());
        assert!(fresh.health().checksum_failures > 0, "CRC caught it");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_missing_shard_is_an_error_and_quarantines() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("corrupt");
        MetaStore::save(&arr, &dir, 6).unwrap();
        let count = {
            let store = MetaStore::open(&dir, 1).unwrap();
            store.manifest().shard_count()
        };
        assert!(count >= 2, "need >= 2 shards");

        // Truncated JSON in the middle of a shard.
        fs::write(dir.join("shard-0001.json"), b"[{\"trunc").unwrap();
        let mut store = MetaStore::open(&dir, 1).unwrap();
        assert!(matches!(
            store.shard(1),
            Err(StoreError::AllReplicasFailed { shard: 1, .. })
        ));
        // The failed shard is quarantined: the next read fails fast.
        assert_eq!(quarantined(&store), vec![1]);
        assert!(matches!(
            store.shard(1),
            Err(StoreError::Quarantined { shard: 1 })
        ));
        // Other shards are unaffected.
        assert!(store.shard(0).is_ok());

        // A deleted shard file surfaces as an I/O failure underneath.
        fs::remove_file(dir.join(shard_file(count - 1))).unwrap();
        assert!(store.shard(count - 1).is_err());
        assert!(store.health().io_failures > 0);
        // Streaming a strict view over the broken directory fails too.
        assert!(store.view(SubDatasetId(0)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("future");
        MetaStore::save(&arr, &dir, 8).unwrap();
        let mut manifest: Manifest =
            serde_json::from_slice(&fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        manifest.version = 999;
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_vec(&manifest).unwrap(),
        )
        .unwrap();
        match MetaStore::open(&dir, 1) {
            Err(StoreError::FutureVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected FutureVersion, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_corrupt_manifest_is_a_typed_error() {
        let dir = tmpdir("trunc-manifest");
        fs::create_dir_all(&dir).unwrap();
        // Truncated mid-object.
        fs::write(dir.join("manifest.json"), b"{\"blocks\": 12, \"shard_b").unwrap();
        assert!(matches!(
            MetaStore::open(&dir, 1),
            Err(StoreError::Corrupt { .. })
        ));
        // Nested far past any stack: still a typed error, not an abort.
        for poison in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            assert!(serde_json::from_slice::<Manifest>(poison.as_bytes()).is_err());
            fs::write(dir.join("manifest.json"), poison).unwrap();
            match MetaStore::open(&dir, 1) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("nesting deeper"), "{detail}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // Valid JSON, wrong shape.
        fs::write(dir.join("manifest.json"), b"[1, 2, 3]").unwrap();
        assert!(matches!(
            MetaStore::open(&dir, 1),
            Err(StoreError::Corrupt { .. })
        ));
        // Valid object, missing required field.
        fs::write(dir.join("manifest.json"), b"{\"version\": 2}").unwrap();
        match MetaStore::open(&dir, 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("missing field"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Every field present, values no reader can work with: 12 blocks in
        // shards of 5 are 3 shard files (regression: `shard_blocks` 0 opened,
        // then divided by zero on the first view).
        for (fields, complaint) in [
            ("\"shard_blocks\": 0", "shard_blocks"),
            (
                "\"shard_blocks\": 5, \"shard_crc\": [1, 2, 3, 4]",
                "shard_crc",
            ),
            (
                "\"shard_blocks\": 5, \"summary_crc\": [1, 2]",
                "summary_crc",
            ),
            (
                "\"shard_blocks\": 5, \"tail_crc\": 9, \"shard_crc\": [1]",
                "shard_crc",
            ),
        ] {
            let json = format!("{{\"blocks\": 12, \"policy\": \"All\", \"version\": 3, {fields}}}");
            assert!(serde_json::from_slice::<Manifest>(json.as_bytes()).is_err());
            fs::write(dir.join("manifest.json"), &json).unwrap();
            match MetaStore::open(&dir, 1) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(complaint), "{json}: {detail}")
                }
                other => panic!("{json}: expected Corrupt, got {other:?}"),
            }
        }
        // The tail of an ingest store is covered by `tail_crc`, not the list.
        let tailed = "{\"blocks\": 12, \"policy\": \"All\", \"version\": 3, \"shard_blocks\": 5, \
                      \"tail_crc\": 9, \"shard_crc\": [1, 2], \"summary_crc\": [1, 2]}";
        assert!(serde_json::from_slice::<Manifest>(tailed.as_bytes()).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrite the store in `dir` as format version 3 wrote it: the same
    /// maps and summaries as JSON arrays under a `version: 3` manifest.
    fn rewrite_as_v3(arr: &ElasticMapArray, dir: &Path) {
        let manifest_path = dir.join("manifest.json");
        let mut manifest: Manifest =
            serde_json::from_slice(&fs::read(&manifest_path).unwrap()).unwrap();
        manifest.version = 3;
        for (i, chunk) in arr.to_maps().chunks(manifest.shard_blocks).enumerate() {
            let summaries: Vec<BlockSummary> = chunk.iter().map(BlockSummary::of).collect();
            let (maps, summaries) = (
                serde_json::to_vec(&chunk).unwrap(),
                serde_json::to_vec(&summaries).unwrap(),
            );
            manifest.shard_crc[i] = crc32(&maps);
            manifest.summary_crc[i] = crc32(&summaries);
            fs::write(dir.join(shard_file(i)), maps).unwrap();
            fs::write(dir.join(summary_file(i)), summaries).unwrap();
        }
        fs::write(manifest_path, serde_json::to_vec_pretty(&manifest).unwrap()).unwrap();
    }

    /// A shard (or summary) whose entries do not describe the blocks of its
    /// span is corrupt, whatever its checksum says: here the payload is
    /// re-encoded with its first entry claiming another block and the
    /// manifest CRC rewritten to match, as a v1 store would accept the bytes
    /// unchecked — once in the binary encoding, once as a v3 store's JSON.
    #[test]
    fn shard_describing_the_wrong_blocks_takes_the_corruption_ladder() {
        let (dfs, arr) = sample_array();
        let mut doctored = arr.maps_in(4..8);
        let far = Block::new(BlockId(999_999), dfs.block(BlockId(4)).records().to_vec());
        doctored[0] = ElasticMap::build(&far, arr.policy());
        let summaries: Vec<BlockSummary> = doctored.iter().map(BlockSummary::of).collect();
        let cases = [
            (
                "binary",
                encode_blocks(&doctored, ElasticMap::encode),
                encode_blocks(&summaries, BlockSummary::encode),
            ),
            (
                "json",
                serde_json::to_vec(&doctored).unwrap(),
                serde_json::to_vec(&summaries).unwrap(),
            ),
        ];
        for (tag, shard, summary) in cases {
            let dir = tmpdir(&format!("wrong-block-{tag}"));
            MetaStore::save(&arr, &dir, 4).unwrap();
            if tag == "json" {
                rewrite_as_v3(&arr, &dir);
            }
            assert_eq!(
                fs::read(dir.join(shard_file(1)))
                    .unwrap()
                    .starts_with(&MAGIC),
                tag == "binary"
            );
            let manifest_path = dir.join("manifest.json");
            let mut manifest: Manifest =
                serde_json::from_slice(&fs::read(&manifest_path).unwrap()).unwrap();
            manifest.shard_crc[1] = crc32(&shard);
            fs::write(dir.join(shard_file(1)), &shard).unwrap();
            fs::write(
                &manifest_path,
                serde_json::to_vec_pretty(&manifest).unwrap(),
            )
            .unwrap();

            let s = SubDatasetId(0);
            let mut store = MetaStore::open(&dir, 2).unwrap();
            match store.view(s) {
                Err(StoreError::AllReplicasFailed { shard: 1, detail }) => {
                    assert!(
                        detail.contains("describes block b999999"),
                        "{tag}: {detail}"
                    )
                }
                other => panic!("{tag}: expected AllReplicasFailed, got {other:?}"),
            }
            assert!(store.health().checksum_failures > 0);
            let rung2 = store.view_degraded(s);
            assert_eq!(rung2.sources[1], ShardSource::Summary, "{tag}");

            manifest.summary_crc[1] = crc32(&summary);
            fs::write(dir.join(summary_file(1)), &summary).unwrap();
            fs::write(
                &manifest_path,
                serde_json::to_vec_pretty(&manifest).unwrap(),
            )
            .unwrap();
            let rung3 = MetaStore::open(&dir, 2).unwrap().view_degraded(s);
            assert_eq!(rung3.sources[1], ShardSource::Lost, "{tag}");
            assert_eq!(
                rung3.unknown_blocks(),
                (4..8).map(BlockId).collect::<Vec<_>>()
            );
            // What the planner indexes the NameNode by stays inside the
            // dataset (regression: `Algorithm1::new` panicked on block
            // b999999).
            for view in [&rung2, &rung3] {
                assert!(view.view().blocks().all(|b| b.index() < dfs.block_count()));
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn v1_manifest_without_checksums_still_opens() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("v1");
        MetaStore::save(&arr, &dir, 7).unwrap();
        // Rewrite the manifest as version 1 without the CRC fields.
        let m: Manifest =
            serde_json::from_slice(&fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        let v1 = format!(
            "{{\"blocks\": {}, \"shard_blocks\": {}, \"policy\": {}, \"version\": 1}}",
            m.blocks,
            m.shard_blocks,
            serde_json::to_string(&m.policy).unwrap()
        );
        fs::write(dir.join("manifest.json"), v1).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        assert_eq!(store.manifest().version, 1);
        assert!(store.manifest().shard_crc.is_empty());
        // Reads work, just without CRC verification.
        assert!(store.view(SubDatasetId(0)).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = tmpdir("missing");
        assert!(MetaStore::open(&dir, 1).is_err());
    }

    #[test]
    fn replicated_read_fails_over_on_corruption() {
        let (_dfs, arr) = sample_array();
        let dirs = replica_dirs("failover", 3);
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, 5).unwrap();

        // Corrupt shard 0 in the primary, delete it in the secondary: the
        // tertiary still serves it, transparently.
        fs::write(dirs[0].join("shard-0000.json"), b"garbage").unwrap();
        fs::remove_file(dirs[1].join("shard-0000.json")).unwrap();
        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        let view = store.view(SubDatasetId(1)).unwrap();
        assert_eq!(view, arr.view(SubDatasetId(1)));
        assert!(store.health().failovers >= 2, "two replicas were skipped");
        assert!(store.health().checksum_failures > 0);
        assert!(store.health().io_failures > 0);
        assert!(quarantined(&store).is_empty());
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    /// Attempt-major order: a healthy replica is reached without a sleep,
    /// and the bound of [`ATTEMPTS_PER_REPLICA`] reads per copy holds.
    #[test]
    fn read_fails_over_before_it_backs_off() {
        let (_dfs, arr) = sample_array();
        let reads = |h: &MetaHealth| (h.checksum_failures, h.retries, h.failovers);

        // Replica 0 corrupt, replica 1 healthy: one failover, no retry
        // round, so no back-off is slept.
        let dirs = replica_dirs("retry-order", 2);
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, 5).unwrap();
        fs::write(dirs[0].join(shard_file(0)), b"garbage").unwrap();
        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        store.shard(0).unwrap();
        let expected = MetaHealth {
            checksum_failures: 1,
            failovers: 1,
            ..MetaHealth::default()
        };
        assert_eq!(store.health(), &expected);

        // Both copies corrupt: round, back-off, round.
        fs::write(dirs[1].join(shard_file(0)), b"garbage").unwrap();
        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        assert!(matches!(
            store.shard(0),
            Err(StoreError::AllReplicasFailed { shard: 0, .. })
        ));
        assert_eq!(reads(store.health()), (4, 1, 2));
        assert_eq!(quarantined(&store), vec![0]);

        // One replica: retry with back-off, as it always was.
        let mut solo = MetaStore::open(&dirs[0], 2).unwrap();
        assert!(solo.shard(0).is_err());
        assert_eq!(reads(solo.health()), (2, 1, 0));
        assert_eq!(solo.health().shards_quarantined, 1);
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn scrub_repairs_bad_copies_from_healthy_replica() {
        let (_dfs, arr) = sample_array();
        let dirs = replica_dirs("scrub", 2);
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, 4).unwrap();
        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        let count = store.manifest().shard_count();
        // Corrupt ~20% of shards (every 5th) in the primary only.
        let victims: Vec<usize> = (0..count).step_by(5).collect();
        for &i in &victims {
            fs::write(dirs[0].join(shard_file(i)), b"bit rot").unwrap();
        }
        let report = store.scrub();
        assert_eq!(report.scrubbed, count);
        assert_eq!(report.repaired, victims.len());
        assert!(report.quarantined.is_empty());
        assert_eq!(store.health().shards_repaired, victims.len());
        // Every repaired copy now verifies against the manifest CRC.
        for &i in &victims {
            let bytes = fs::read(dirs[0].join(shard_file(i))).unwrap();
            assert_eq!(crc32(&bytes), store.manifest().shard_crc[i]);
        }
        // Reads from the primary alone succeed again.
        let mut primary = MetaStore::open(&dirs[0], 1).unwrap();
        assert!(primary.view(SubDatasetId(0)).is_ok());
        assert_eq!(primary.health().checksum_failures, 0);
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn scrub_quarantines_irreparable_shards_and_lifts_on_recovery() {
        let (_dfs, arr) = sample_array();
        let dirs = replica_dirs("quarantine", 2);
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, 4).unwrap();
        let mut store = MetaStore::open_replicated(&refs, 2).unwrap();
        let healthy_bytes = fs::read(dirs[0].join(shard_file(1))).unwrap();
        // Destroy every copy of shard 1.
        for d in &dirs {
            fs::write(d.join(shard_file(1)), b"gone").unwrap();
        }
        let report = store.scrub();
        assert_eq!(report.quarantined, vec![1]);
        assert_eq!(quarantined(&store), vec![1]);
        assert_eq!(store.health().shards_quarantined, 1);
        assert!(matches!(
            store.shard(1),
            Err(StoreError::Quarantined { shard: 1 })
        ));
        // An operator restores one copy; the next scrub lifts the
        // quarantine and repairs the other replica.
        fs::write(dirs[1].join(shard_file(1)), &healthy_bytes).unwrap();
        let report = store.scrub();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.repaired, 1);
        assert!(quarantined(&store).is_empty());
        assert_eq!(store.health().shards_quarantined, 0);
        assert!(store.shard(1).is_ok());
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn scrub_restores_missing_replica_manifest() {
        let (_dfs, arr) = sample_array();
        let dirs = replica_dirs("manifest-heal", 2);
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        MetaStore::save_replicated(&arr, &refs, 6).unwrap();
        let mut store = MetaStore::open_replicated(&refs, 1).unwrap();
        fs::remove_file(dirs[1].join("manifest.json")).unwrap();
        let report = store.scrub();
        assert_eq!(report.manifests_repaired, 1);
        assert!(MetaStore::open(&dirs[1], 1).is_ok());
        for d in &dirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn degraded_view_steps_down_the_ladder() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("ladder");
        MetaStore::save(&arr, &dir, 4).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        let count = store.manifest().shard_count();
        assert!(count >= 3, "need >= 3 shards");
        let s = SubDatasetId(0);
        let healthy = store.view(s).unwrap();

        // Shard 0: full copy lost, summary intact → its blocks drop to
        // bloom-only (rung 2). Shard 1: both lost → unknown (rung 3).
        fs::write(dir.join(shard_file(0)), b"dead").unwrap();
        fs::write(dir.join(shard_file(1)), b"dead").unwrap();
        fs::write(dir.join(summary_file(1)), b"dead").unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        let degraded = store.view_degraded(s);
        assert_eq!(degraded.sources[0], ShardSource::Summary);
        assert_eq!(degraded.sources[1], ShardSource::Lost);
        assert!(degraded.sources[2..]
            .iter()
            .all(|&src| src == ShardSource::Full));
        // Every healthy-view block of shard 0 is still *found*, now on
        // rung 2 (plus possible bloom false positives, never negatives).
        let span0: Vec<BlockId> = (0..4).map(BlockId).collect();
        for b in healthy.blocks().filter(|b| span0.contains(b)) {
            assert_eq!(degraded.rung_of(b), Some(Rung::Bloom), "{b:?}");
        }
        // The whole span of shard 1 is unknown — a correct run must scan it.
        for b in 4..8u32 {
            assert_eq!(degraded.rung_of(BlockId(b)), Some(Rung::Fallback));
        }
        // Healthy shards keep exact sizes.
        assert!(degraded.view().exact().iter().all(|&(b, _)| b.index() >= 8));
        assert!(degraded.rung_counts().any_degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_view_on_healthy_store_matches_strict_view() {
        let (_dfs, arr) = sample_array();
        let dir = tmpdir("healthy-degraded");
        MetaStore::save(&arr, &dir, 5).unwrap();
        let mut store = MetaStore::open(&dir, 2).unwrap();
        for s in 0..10u64 {
            let strict = store.view(SubDatasetId(s)).unwrap();
            let degraded = store.view_degraded(SubDatasetId(s));
            assert!(degraded.is_healthy());
            assert_eq!(degraded.view(), &strict);
            assert!(degraded.unknown_blocks().is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_summary_has_no_false_negatives_and_bounds_delta() {
        let (_dfs, arr) = sample_array();
        for map in &arr.to_maps() {
            let sum = BlockSummary::of(map);
            assert_eq!(sum.block(), map.block());
            for s in 0..60u64 {
                let id = SubDatasetId(s);
                if map.query(id) != SizeInfo::Absent {
                    assert!(sum.contains(id), "summary lost {id} in {:?}", map.block());
                    // δ never exceeds any present sub-dataset's true size
                    // bound known to the map.
                    if let SizeInfo::Exact(sz) = map.query(id) {
                        assert!(sum.delta() <= sz);
                    }
                }
            }
        }
    }

    /// A random tiny DFS.
    fn gen_dfs(rng: &mut StdRng) -> Dfs {
        let record_count = rng.gen_range(20..400);
        let nodes = rng.gen_range(2u32..12);
        let replication = rng.gen_range(1usize..4);
        let seed = rng.gen::<u64>();
        let records: Vec<Record> = (0..record_count)
            .map(|i| {
                Record::new(
                    SubDatasetId(rng.gen_range(0u64..20)),
                    i as u64,
                    rng.gen_range(50u32..500),
                    i as u64,
                )
            })
            .collect();
        Dfs::write_random(
            DfsConfig {
                block_size: 2_000,
                replication,
                topology: Topology::single_rack(nodes),
                seed,
            },
            records,
        )
    }

    #[test]
    fn replicated_store_answers_every_query_like_memory() {
        // save_replicated → open_replicated is a faithful round-trip: the
        // persisted store answers *every* membership and size query — all
        // blocks × all sub-datasets — identically to the in-memory array, and
        // every assembled view is equal too. Replication factor, shard size
        // and cache pressure vary per case; none may change an answer.
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xe000 + case);
            let dfs = gen_dfs(&mut rng);
            let shard = rng.gen_range(1usize..20);
            let replicas = rng.gen_range(1usize..4);
            let cache = rng.gen_range(0usize..4);
            let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
            let base = std::env::temp_dir()
                .join(format!("datanet-repl-prop-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&base);
            let dirs: Vec<std::path::PathBuf> =
                (0..replicas).map(|i| base.join(format!("r{i}"))).collect();
            let refs: Vec<&std::path::Path> = dirs.iter().map(|d| d.as_path()).collect();
            MetaStore::save_replicated(&arr, &refs, shard).expect("save");
            let mut store = MetaStore::open_replicated(&refs, cache).expect("open");
            assert_eq!(store.manifest().blocks, arr.len(), "case {case}");
            for s in 0..20u64 {
                let s = SubDatasetId(s);
                for i in 0..arr.len() {
                    let b = BlockId(i as u32);
                    assert_eq!(
                        store.query(b, s).expect("query"),
                        arr.query(b, s),
                        "case {case}: query({i}, {s:?}) diverged after the round-trip"
                    );
                }
                assert_eq!(store.view(s).expect("view"), arr.view(s), "case {case}");
            }
            // Every holder folds the same views, batched or one at a time:
            // random id batches with repeats and absent ids (≥ 20).
            for _ in 0..4 {
                let ids: Vec<SubDatasetId> = (0..rng.gen_range(0usize..9))
                    .map(|_| SubDatasetId(rng.gen_range(0u64..26)))
                    .collect();
                let single: Vec<SubDatasetView> = ids.iter().map(|&s| arr.view(s)).collect();
                assert_eq!(arr.views(&ids), single, "case {case}: {ids:?}");
                assert_eq!(store.views(&ids).expect("views"), single, "case {case}");
                let degraded = store.views_degraded(&ids);
                assert_eq!(degraded.len(), ids.len());
                for (d, v) in degraded.iter().zip(&single) {
                    assert_eq!(d.view(), v, "case {case}: {ids:?}");
                    assert!(d.unknown_blocks().is_empty());
                    assert_eq!(d.sources.len(), store.manifest().shard_count());
                    assert!(d.sources.iter().all(|&src| src == ShardSource::Full));
                }
            }
            // The store never had to repair, fail over or degrade anything.
            assert!(!store.health().any(), "case {case}: {:?}", store.health());
            std::fs::remove_dir_all(&base).expect("cleanup");

            // The ingestor's live view over the same blocks, one of them held
            // back so later arrivals park as out-of-order deltas: the sealed
            // prefix answers like its snapshot, each pending delta exactly.
            let held = rng.gen_range(0..arr.len());
            let mut ing = Ingestor::new(IngestConfig {
                compact_every: rng.gen_range(1usize..5),
                ..IngestConfig::new(Separation::Alpha(0.3))
            });
            for b in dfs.blocks().iter().filter(|b| b.id().index() != held) {
                ing.append(b, 0);
            }
            ing.compact();
            let sealed = ing.snapshot();
            assert_eq!(
                sealed.len(),
                held,
                "case {case}: nothing past the gap seals"
            );
            assert_eq!(ing.blocks() - sealed.len(), arr.len() - held - 1);
            for s in (0..26u64).map(SubDatasetId) {
                let prefix = sealed.view(s);
                let mut exact = prefix.exact().to_vec();
                for b in &dfs.blocks()[held + 1..] {
                    if b.subdataset_bytes(s) > 0 {
                        exact.push((b.id(), b.subdataset_bytes(s)));
                    }
                }
                let want = SubDatasetView::new(s, exact, prefix.bloom().to_vec(), prefix.delta());
                assert_eq!(
                    ing.view(s),
                    want,
                    "case {case}: {s:?} with block {held} held back"
                );
            }
            ing.append(&dfs.blocks()[held], 0);
            ing.compact();
            let full = ing.snapshot();
            for s in (0..26u64).map(SubDatasetId) {
                assert_eq!(ing.view(s), full.view(s), "case {case}");
                assert_eq!(full.view(s), arr.view(s), "case {case}");
            }
        }
    }

    #[test]
    fn degraded_bloom_estimates_respect_equation6_envelope() {
        // Degradation-ladder rung 2: when a shard's full copy is lost and the
        // bloom-only summary answers instead, the Equation 6 estimate
        // `Z = Σ_{τ₁}|s∩b| + δ·|τ₂|` must stay within the per-block envelope
        // `|Z − T| ≤ Σ_{b∈τ₂} |truth_b − δ|` — the identity that holds whenever
        // τ₁ entries are ground truth and τ₂ has no false negatives.
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xd000 + case);
            // Seeded Zipf workload: skewed sub-dataset popularity, the regime
            // the paper's α-separation is designed for.
            let subdatasets = rng.gen_range(10usize..30);
            let zipf = datanet_stats::Zipf::new(subdatasets, rng.gen_range(0.8f64..1.6));
            let record_count = rng.gen_range(100..500);
            let records: Vec<Record> = (0..record_count)
                .map(|i| {
                    Record::new(
                        SubDatasetId(zipf.sample(&mut rng) as u64 - 1),
                        i as u64,
                        rng.gen_range(50u32..500),
                        i as u64,
                    )
                })
                .collect();
            let dfs = Dfs::write_random(
                DfsConfig {
                    block_size: 2_000,
                    replication: 2,
                    topology: Topology::single_rack(rng.gen_range(2u32..8)),
                    seed: rng.gen::<u64>(),
                },
                records,
            );
            let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
            let dir =
                std::env::temp_dir().join(format!("datanet-rung2-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            MetaStore::save(&arr, &dir, 2).expect("save");
            let mut store = MetaStore::open(&dir, 4).expect("open");
            // Lose every other shard's full copy; summaries stay intact, so
            // those shards answer from rung 2.
            for i in (0..store.manifest().shard_count()).step_by(2) {
                std::fs::write(dir.join(format!("shard-{i:04}.json")), b"corrupt").unwrap();
            }
            for s in 0..subdatasets as u64 {
                let s = SubDatasetId(s);
                let deg = store.view_degraded(s);
                assert!(
                    deg.unknown_blocks().is_empty(),
                    "case {case}: summaries keep every shard off rung 3"
                );
                let truth = dfs.subdataset_distribution(s);
                // No false negatives through the summary path: every block
                // really holding `s` is somewhere in the view.
                for b in dfs.blocks() {
                    if truth[b.id().index()] > 0 {
                        assert!(
                            deg.rung_of(b.id()).is_some(),
                            "case {case}: block {:?} with {} bytes of {s:?} dropped",
                            b.id(),
                            truth[b.id().index()]
                        );
                    }
                }
                // τ₁ must still be ground truth under degradation.
                for &(b, sz) in deg.view().exact() {
                    assert_eq!(sz, truth[b.index()], "case {case}");
                }
                let z = deg.view().estimated_total() as i128;
                let t = dfs.subdataset_total(s) as i128;
                let delta = deg.view().delta() as i128;
                let envelope: i128 = deg
                    .view()
                    .bloom()
                    .iter()
                    .map(|b| (truth[b.index()] as i128 - delta).abs())
                    .sum();
                assert!(
                    (z - t).abs() <= envelope,
                    "case {case}, {s:?}: |Z−T| = {} exceeds Σ|truth−δ| = {envelope}",
                    (z - t).abs()
                );
            }
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}
