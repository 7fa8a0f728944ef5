//! Composable, checkpointed analytics pipelines.
//!
//! A [`Pipeline`] is an ordered `seq` of typed stages over a *working
//! state* (a record set plus its aggregates):
//!
//! * [`StageOp::Filter`] — start the working set from one sub-dataset,
//! * [`StageOp::Append`] — union in another sub-dataset's records,
//! * [`StageOp::Join`] — semi-join: keep records sharing an event time with
//!   another sub-dataset,
//! * [`StageOp::Aggregate`] — run one of the paper's four jobs over the
//!   working set,
//! * [`StageOp::Output`] — finalize and name the result.
//!
//! Every data stage's input sub-dataset is planned **distribution-aware**
//! through the existing schedulers: healthy metadata plans through
//! Algorithm 1 ([`DataNetScheduler`]); unhealthy metadata falls down the
//! degradation ladder to a [`ResilientScheduler`] over the degraded view.
//! Node crashes, slow windows and detector suspicion are priced by the
//! engine's selection loop (`Exec::selection`, with its `node_lost`
//! re-planning and shared retry budget), and each stage stamps its own
//! [`FaultStats`]/[`ObsSummary`] into the report. The *data plane* is
//! computed from DFS ground truth — the simulation prices the stage, it
//! does not corrupt its output — which is what makes resume-equivalence
//! exact.
//!
//! After each stage the working state is committed as a checksummed,
//! epoch-stamped checkpoint ([`datanet::checkpoint`]) under the PR 6
//! crash-safe write order: payload → immutable per-stage manifest (carrying
//! `last_completed_operation`) → live pipeline manifest LAST. A crash after
//! any write prefix leaves the previous stage durable; [`Pipeline::resume`]
//! restores the newest durable state and re-plans only the surviving
//! stages against the surviving cluster.

use crate::jobs::{AggregateHistogram, MovingAverage, RecordJob, TopKSearch, WordCount};
use crate::profiles::{
    histogram_profile, moving_average_profile, top_k_profile, word_count_profile,
};
use datanet::checkpoint::{self, CheckpointPlan, Payload};
use datanet::retry::{backoff_jittered, ATTEMPTS_PER_REPLICA};
use datanet::{AggregationPlan, ElasticMapArray, FastMap, MetaStore, StoreError};
use datanet_dfs::{Dfs, Record, SubDatasetId};
use datanet_mapreduce::{
    key_range_of, range_matrix_truth, AnalysisConfig, DataNetScheduler, Exec, FaultConfig,
    FaultStats, JobProfile, MapScheduler, ResilientScheduler, SelectionConfig, SelectionOutcome,
    ShufflePlan, ShufflePlanner,
};
use datanet_obs::{Category, Domain, FlightKind, ObsSummary, Recorder, SpanCtx};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::path::Path;

/// One of the paper's four Table II jobs, usable as an aggregate stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggJob {
    /// Word count over record payloads.
    WordCount,
    /// Moving average with the given window (seconds).
    MovingAverage(u64),
    /// Aggregate word histogram.
    Histogram,
    /// Top-K similarity search against the default query sequence.
    TopK,
}

impl AggJob {
    /// The engine cost profile pricing this job's analysis phase.
    pub fn profile(&self) -> JobProfile {
        match self {
            AggJob::WordCount => word_count_profile(),
            AggJob::MovingAverage(_) => moving_average_profile(),
            AggJob::Histogram => histogram_profile(),
            AggJob::TopK => top_k_profile(),
        }
    }

    fn job(&self) -> Box<dyn RecordJob> {
        match self {
            AggJob::WordCount => Box::new(WordCount),
            AggJob::MovingAverage(w) => Box::new(MovingAverage { window_secs: *w }),
            AggJob::Histogram => Box::new(AggregateHistogram),
            AggJob::TopK => Box::new(TopKSearch::default()),
        }
    }

    /// Human-readable job name (also stamped into stage labels).
    pub fn label(&self) -> &'static str {
        match self {
            AggJob::WordCount => "word-count",
            AggJob::MovingAverage(_) => "moving-average",
            AggJob::Histogram => "histogram",
            AggJob::TopK => "top-k",
        }
    }

    /// Deterministic map → reduce over the working set: values group by
    /// key in emission order and reduce in ascending key order, so the same
    /// records always produce the same aggregate list, bit for bit.
    pub fn run(&self, records: &[Record]) -> Vec<KeyValue> {
        let job = self.job();
        let mut groups = Groups::default();
        let mut seq = 0u64;
        for r in records {
            job.map(r, &mut |k, v| {
                groups.add(k, seq, v);
                seq += 1;
            });
        }
        groups.reduce(job.as_ref())
    }

    /// Partition this job's map output into per-reducer fragments under a
    /// [`ShufflePlan`]: every emitted pair is stamped with its global
    /// emission sequence number and routed by key range (split ranges pick
    /// a fragment deterministically via [`ShufflePlan::fragment_slot`]).
    /// One fragment per reducer slot, empty slots included.
    pub fn map_fragments(&self, records: &[Record], plan: &ShufflePlan) -> Vec<ShuffleFragment> {
        let job = self.job();
        let mut frags: Vec<ShuffleFragment> = (0..plan.reducers.len())
            .map(|reducer| ShuffleFragment {
                reducer,
                entries: Vec::new(),
            })
            .collect();
        let mut routes = RouteMemo::default();
        let mut seq = 0u64;
        // One record's pairs at a time, so the routing loop below keeps its
        // state in registers rather than behind the map callback.
        let mut pairs: Vec<(u64, f64)> = Vec::new();
        for r in records {
            pairs.clear();
            job.map(r, &mut |k, v| pairs.push((k, v)));
            for &(k, v) in &pairs {
                let slot = match routes.route(k, seq, plan) {
                    Route::Slot(slot) => slot,
                    Route::Split(range) => plan.fragment_slot(range, seq),
                };
                frags[slot].entries.push((k, seq, v));
                seq += 1;
            }
        }
        frags
    }

    /// Deterministic merge of shuffled fragments: values regroup by key and
    /// reduce in emission order, so the output is byte-identical to
    /// [`AggJob::run`] regardless of how the key space was partitioned, how
    /// heavy keys were split, or in which order the fragments arrive.
    pub fn merge_fragments(&self, frags: &[ShuffleFragment]) -> Vec<KeyValue> {
        let job = self.job();
        let mut groups = Groups::default();
        for f in frags {
            for &(k, s, v) in &f.entries {
                groups.add(k, s, v);
            }
        }
        groups.restore_order(frags);
        groups.reduce(job.as_ref())
    }

    /// [`AggJob::run`] routed through `plan`'s partitioning — provably the
    /// same output (the property the `split-merge-equivalence` oracle and
    /// `tests/shuffle.rs` pin down).
    pub fn run_routed(&self, records: &[Record], plan: &ShufflePlan) -> Vec<KeyValue> {
        self.merge_fragments(&self.map_fragments(records, plan))
    }
}

/// Where [`AggJob::map_fragments`] sends a key's pairs.
#[derive(Clone, Copy)]
enum Route {
    /// Every pair to one slot: the key's range is not split.
    Slot(usize),
    /// Each pair by [`ShufflePlan::fragment_slot`] over this split range.
    Split(usize),
}

impl Route {
    fn of(key: u64, plan: &ShufflePlan) -> Self {
        let range = key_range_of(key, plan.key_ranges());
        match plan.assignments[range][..] {
            [whole] => Route::Slot(whole.reducer),
            _ => Route::Split(range),
        }
    }
}

/// Each key's [`Route`] under one plan, resolved at the key's first pair
/// rather than at every pair, for keys below [`DIRECT_KEYS`]. A first sight
/// costs several times what a repeat saves (it is a branch the CPU cannot
/// predict), so while more than one pair in eight (past the first 64 keys)
/// has been a first sight, the keys rarely repeat and each pair resolves
/// its own route instead.
#[derive(Default)]
struct RouteMemo {
    /// `direct[key]`: the key's route, once seen.
    direct: Vec<Option<Route>>,
    first_sights: u64,
}

impl RouteMemo {
    /// The route of `key`, emitted as pair `seq`.
    #[inline]
    fn route(&mut self, key: u64, seq: u64, plan: &ShufflePlan) -> Route {
        if key >= DIRECT_KEYS || self.first_sights > seq / 8 + 64 {
            return Route::of(key, plan);
        }
        match self.direct.get(key as usize) {
            Some(&Some(route)) => route,
            _ => self.first_sight(key, plan),
        }
    }

    #[inline(never)]
    fn first_sight(&mut self, key: u64, plan: &ShufflePlan) -> Route {
        self.first_sights += 1;
        let k = key as usize;
        if k >= self.direct.len() {
            self.direct.resize((k + 1).next_power_of_two(), None);
        }
        *self.direct[k].insert(Route::of(key, plan))
    }
}

/// Keys below this find their entry in a table indexed by the key itself,
/// grown to the largest one seen, instead of through a hash: every key the
/// four jobs emit on the generated logs (a word, a histogram class, a
/// similarity bucket, a day) lies below it.
const DIRECT_KEYS: u64 = 1 << 14;

/// Dense indices for the distinct keys of one map output, in first-seen
/// order: by position for a key below [`DIRECT_KEYS`], through a hash map
/// above.
#[derive(Default)]
struct KeyIndex {
    /// `direct[key]` is the key's index plus one; zero while unseen.
    direct: Vec<u32>,
    /// The same for keys of at least `DIRECT_KEYS`.
    hashed: FastMap<u64, u32>,
    /// The key of each index.
    keys: Vec<u64>,
}

impl KeyIndex {
    /// `key`'s index, and whether this is its first sight.
    #[inline]
    fn index(&mut self, key: u64) -> (usize, bool) {
        match self.direct.get(key as usize) {
            Some(&slot) if slot != 0 => (slot as usize - 1, false),
            _ => self.index_slow(key),
        }
    }

    /// [`KeyIndex::index`] of a key not in the direct table: a new key, or
    /// one of at least `DIRECT_KEYS`.
    #[inline(never)]
    fn index_slow(&mut self, key: u64) -> (usize, bool) {
        let next = self.keys.len();
        let slot = if key < DIRECT_KEYS {
            let k = key as usize;
            if k >= self.direct.len() {
                self.direct.resize((k + 1).next_power_of_two(), 0);
            }
            &mut self.direct[k]
        } else {
            self.hashed.entry(key).or_insert(0)
        };
        if *slot == 0 {
            *slot = u32::try_from(next + 1).expect("fewer than 2^32 distinct keys");
            self.keys.push(key);
            (next, true)
        } else {
            (*slot as usize - 1, false)
        }
    }

    /// Every index, in ascending order of its key: the direct table is
    /// already in key order and every hashed key lies above it, so only
    /// the hashed keys are sorted.
    fn in_key_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (self.direct.iter())
            .filter(|&&slot| slot != 0)
            .map(|&slot| slot as usize - 1)
            .collect();
        let mut hashed: Vec<(u64, u32)> = self.hashed.iter().map(|(&k, &slot)| (k, slot)).collect();
        hashed.sort_unstable();
        order.extend(hashed.into_iter().map(|(_, slot)| slot as usize - 1));
        order
    }
}

/// The grouping body of [`AggJob::run`] and [`AggJob::merge_fragments`].
/// A key reduces from the sum and count of its values
/// ([`RecordJob::reduce`]), so each pair folds into its key's running sum
/// as it arrives: one index lookup per pair and no list per key.
#[derive(Default)]
struct Groups {
    keys: KeyIndex,
    groups: Vec<Group>,
}

/// One key's running reduce state.
struct Group {
    /// Values added in arrival order, from `-0.0`.
    sum: f64,
    count: u64,
    /// Sequence number of the latest pair added.
    last: u64,
    /// A pair arrived after one emitted later: the key's range was split
    /// across fragments that arrived interleaved.
    disordered: bool,
    /// Every value is an integer of magnitude at most 2³¹: with at most
    /// 2²² of them every partial sum is exact, in any order.
    small_ints: bool,
}

impl Group {
    /// Does `sum` depend on an order the pairs did not arrive in?
    fn needs_replay(&self) -> bool {
        self.disordered && !(self.small_ints && self.count <= 1 << 22)
    }
}

impl Groups {
    fn add(&mut self, key: u64, seq: u64, v: f64) {
        let (g, new) = self.keys.index(key);
        if new {
            self.groups.push(Group {
                sum: -0.0,
                count: 0,
                last: seq,
                disordered: false,
                small_ints: true,
            });
        }
        let group = &mut self.groups[g];
        group.sum += v;
        group.count += 1;
        group.disordered |= seq < group.last;
        group.last = seq;
        group.small_ints &= f64::from(v as i32) == v;
    }

    /// Re-add, in sequence order, the sum of every key whose pairs arrived
    /// out of order and whose sum depends on it. Only those keys' pairs are
    /// gathered and sorted; `frags` are the fragments the pairs came from.
    fn restore_order(&mut self, frags: &[ShuffleFragment]) {
        if !self.groups.iter().any(Group::needs_replay) {
            return;
        }
        let mut pairs: Vec<(usize, u64, f64)> = Vec::new();
        for f in frags {
            for &(k, s, v) in &f.entries {
                let (g, _) = self.keys.index(k);
                if self.groups[g].needs_replay() {
                    pairs.push((g, s, v));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(g, s, _)| (g, s));
        for &(g, _, _) in &pairs {
            self.groups[g].sum = -0.0;
        }
        for (g, _, v) in pairs {
            self.groups[g].sum += v;
        }
    }

    fn reduce(self, job: &dyn RecordJob) -> Vec<KeyValue> {
        (self.keys.in_key_order().into_iter())
            .map(|g| {
                let (key, group) = (self.keys.keys[g], &self.groups[g]);
                KeyValue {
                    key,
                    value: job.reduce(key, group.sum, group.count),
                }
            })
            .collect()
    }
}

/// One reducer's slice of a shuffled map output: `(key, emission sequence,
/// value)` triples. The sequence numbers are what make the merge
/// order-insensitive — any arrival permutation of the fragments reduces
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleFragment {
    /// Reducer slot this fragment belongs to.
    pub reducer: usize,
    /// Emitted `(key, seq, value)` triples, in emission order.
    pub entries: Vec<(u64, u64, f64)>,
}

/// One typed pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOp {
    /// Replace the working set with one sub-dataset's records.
    Filter(u64),
    /// Union another sub-dataset's records into the working set.
    Append(u64),
    /// Semi-join: keep working records whose timestamp also occurs in the
    /// given sub-dataset (shared event time ⇒ related activity).
    Join(u64),
    /// Aggregate the working set with one of the four jobs.
    Aggregate(AggJob),
    /// Finalize the result under a name.
    Output(String),
}

impl StageOp {
    /// Human-readable stage label, also stamped into checkpoint manifests.
    pub fn label(&self) -> String {
        match self {
            StageOp::Filter(s) => format!("filter(s={s})"),
            StageOp::Append(s) => format!("append(s={s})"),
            StageOp::Join(s) => format!("join(s={s})"),
            StageOp::Aggregate(j) => format!("aggregate({})", j.label()),
            StageOp::Output(name) => format!("output({name})"),
        }
    }

    /// The sub-dataset this stage reads from the DFS, if any.
    pub fn subdataset(&self) -> Option<SubDatasetId> {
        match self {
            StageOp::Filter(s) | StageOp::Append(s) | StageOp::Join(s) => Some(SubDatasetId(*s)),
            _ => None,
        }
    }
}

/// An ordered stage sequence with a name.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Pipeline name (stamped into every checkpoint manifest; resume
    /// refuses a store written by a differently-named pipeline).
    pub name: String,
    /// The stages, executed in order.
    pub seq: Vec<StageOp>,
}

/// WordCount as a stage graph: filter → aggregate → output.
pub fn word_count_pipeline(s: SubDatasetId) -> PipelineSpec {
    PipelineSpec {
        name: "word-count".into(),
        seq: vec![
            StageOp::Filter(s.0),
            StageOp::Aggregate(AggJob::WordCount),
            StageOp::Output("word-count".into()),
        ],
    }
}

/// Moving Average as a stage graph: filter → aggregate(window) → output.
pub fn moving_average_pipeline(s: SubDatasetId, window_secs: u64) -> PipelineSpec {
    PipelineSpec {
        name: "moving-average".into(),
        seq: vec![
            StageOp::Filter(s.0),
            StageOp::Aggregate(AggJob::MovingAverage(window_secs)),
            StageOp::Output("moving-average".into()),
        ],
    }
}

/// Aggregate Histogram as a stage graph: filter → aggregate → output.
pub fn histogram_pipeline(s: SubDatasetId) -> PipelineSpec {
    PipelineSpec {
        name: "histogram".into(),
        seq: vec![
            StageOp::Filter(s.0),
            StageOp::Aggregate(AggJob::Histogram),
            StageOp::Output("histogram".into()),
        ],
    }
}

/// Top-K Search as a stage graph: filter → aggregate → output.
pub fn top_k_pipeline(s: SubDatasetId) -> PipelineSpec {
    PipelineSpec {
        name: "top-k".into(),
        seq: vec![
            StageOp::Filter(s.0),
            StageOp::Aggregate(AggJob::TopK),
            StageOp::Output("top-k".into()),
        ],
    }
}

/// A multi-stage composite: filter one sub-dataset, join against a second,
/// then count words over the correlated records.
pub fn join_word_count_pipeline(a: SubDatasetId, b: SubDatasetId) -> PipelineSpec {
    PipelineSpec {
        name: "join-word-count".into(),
        seq: vec![
            StageOp::Filter(a.0),
            StageOp::Join(b.0),
            StageOp::Aggregate(AggJob::WordCount),
            StageOp::Output("join-word-count".into()),
        ],
    }
}

/// One reduced key/value pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeyValue {
    /// Intermediate key.
    pub key: u64,
    /// Reduced value.
    pub value: f64,
}

/// The data flowing between stages: the current record set and the latest
/// aggregates. This is exactly what a checkpoint persists.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkingState {
    /// Records in DFS block order (deterministic across runs).
    pub records: Vec<Record>,
    /// Aggregates from the most recent [`StageOp::Aggregate`] stage.
    pub aggregates: Vec<KeyValue>,
}

impl WorkingState {
    fn payload(&self) -> Payload {
        serde_json::to_vec(self)
            .expect("working state serialization is infallible")
            .into()
    }
}

/// Where stage planning reads its metadata from.
pub enum MetaPlane<'a> {
    /// In-memory ElasticMap array: always healthy, rung-1 views.
    Array(&'a ElasticMapArray),
    /// Replicated MetaStore: planning goes through [`MetaStore::view_degraded`]
    /// and falls down the degradation ladder when shards are unhealthy.
    Store(&'a mut MetaStore),
}

impl MetaPlane<'_> {
    /// A scheduler for `s` plus `(unknown_blocks, healthy)` rung info.
    fn scheduler_for(&mut self, dfs: &Dfs, s: SubDatasetId) -> (Box<dyn MapScheduler>, u64, bool) {
        match self {
            MetaPlane::Array(arr) => {
                let view = arr.view(s);
                (Box::new(DataNetScheduler::new(dfs, &view)), 0, true)
            }
            MetaPlane::Store(store) => {
                let deg = store.view_degraded(s);
                let unknown = deg.unknown_blocks().len() as u64;
                if deg.is_healthy() {
                    (Box::new(DataNetScheduler::new(dfs, deg.view())), 0, true)
                } else {
                    (Box::new(ResilientScheduler::new(dfs, &deg)), unknown, false)
                }
            }
        }
    }
}

/// Everything a pipeline run needs besides the spec and the checkpoint
/// directories.
pub struct PipelineEnv<'a> {
    /// The dataset.
    pub dfs: &'a Dfs,
    /// Metadata plane stage planning reads from.
    pub meta: MetaPlane<'a>,
    /// `Some` prices every stage under the scripted fault plan (crashes,
    /// slow windows, detector suspicion — each stage restarts the sim clock
    /// at zero against the same plan).
    pub faults: Option<FaultConfig>,
    /// Selection-phase cost model.
    pub selection: SelectionConfig,
    /// Analysis-phase cost model.
    pub analysis: AnalysisConfig,
    /// Seed for the deterministic backoff jitter of checkpoint retries
    /// (`datanet::retry`).
    pub retry_seed: u64,
    /// `Some` prices every healthy aggregate stage through the
    /// distribution-aware shuffle partitioner (or its hash baseline) and
    /// routes the data plane through the split/merge path — which is
    /// answer-preserving, so the report's `data_fingerprint` is identical
    /// to a `None` run. Faulty stages keep the surviving-uniform layout.
    pub shuffle: Option<ShuffleParams>,
}

/// How aggregate stages shuffle when the distribution-aware partitioner is
/// enabled ([`PipelineEnv::shuffle`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleParams {
    /// Key ranges the intermediate key space is hashed into.
    pub key_ranges: usize,
    /// Fair-share multiplier above which a key range splits across
    /// reducers (≥ 1).
    pub split_factor: f64,
    /// `true` plans from the data distribution; `false` uses the classic
    /// `hash(range) % reducers` baseline — the A/B the CLI exposes.
    pub aware: bool,
}

impl Default for ShuffleParams {
    fn default() -> Self {
        Self {
            key_ranges: 32,
            split_factor: 1.25,
            aware: true,
        }
    }
}

impl<'a> PipelineEnv<'a> {
    /// Defaults: healthy metadata from `arr`, no faults, default cost
    /// models.
    pub fn new(dfs: &'a Dfs, arr: &'a ElasticMapArray) -> Self {
        Self {
            dfs,
            meta: MetaPlane::Array(arr),
            faults: None,
            selection: SelectionConfig::default(),
            analysis: AnalysisConfig::default(),
            retry_seed: 0,
            shuffle: None,
        }
    }
}

/// Per-stage entry of the pipeline report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage index in the spec (also its checkpoint epoch).
    pub index: u64,
    /// Stage label.
    pub label: String,
    /// Records entering the stage.
    pub records_in: u64,
    /// Records leaving the stage.
    pub records_out: u64,
    /// Aggregates leaving the stage.
    pub aggregates_out: u64,
    /// Ground-truth bytes of the stage's input sub-dataset (0 for
    /// aggregate/output stages).
    pub input_bytes: u64,
    /// Blocks planned through the rung-3 locality fallback because the
    /// metadata shards were unhealthy.
    pub unknown_blocks: u64,
    /// Did planning fall down the degradation ladder?
    pub degraded: bool,
    /// Simulated stage duration, seconds.
    pub sim_secs: f64,
    /// CRC-32 of the stage's checkpoint payload.
    pub checkpoint_crc: u32,
    /// Checkpoint write attempts beyond the first.
    pub checkpoint_retries: u32,
    /// Fault accounting for this stage's simulated execution.
    pub faults: FaultStats,
    /// Per-stage observability summary (`None` when the recorder is off).
    pub obs: Option<ObsSummary>,
}

// Hand-written so a recorder-off run serializes without an `obs` key and
// stays byte-identical to pre-observability output (same idiom as
// `ExecutionReport`; the vendored serde derive has no `skip_serializing_if`).
impl Serialize for StageReport {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("index".to_string(), self.index.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("records_in".to_string(), self.records_in.to_value()),
            ("records_out".to_string(), self.records_out.to_value()),
            ("aggregates_out".to_string(), self.aggregates_out.to_value()),
            ("input_bytes".to_string(), self.input_bytes.to_value()),
            ("unknown_blocks".to_string(), self.unknown_blocks.to_value()),
            ("degraded".to_string(), self.degraded.to_value()),
            ("sim_secs".to_string(), self.sim_secs.to_value()),
            ("checkpoint_crc".to_string(), self.checkpoint_crc.to_value()),
            (
                "checkpoint_retries".to_string(),
                self.checkpoint_retries.to_value(),
            ),
            ("faults".to_string(), self.faults.to_value()),
        ];
        if let Some(obs) = &self.obs {
            entries.push(("obs".to_string(), obs.to_value()));
        }
        Value::Object(entries)
    }
}

/// The pipeline's final data product.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineOutput {
    /// Final working-set record count.
    pub records: u64,
    /// Final aggregates.
    pub aggregates: Vec<KeyValue>,
    /// CRC-32 of the canonical serialized final working state, which is
    /// the last stage's [`StageReport::checkpoint_crc`] — the byte-level
    /// identity the resume-equivalence oracle compares.
    pub digest: u32,
}

impl PipelineOutput {
    /// `committed_crc` is the last stage's; only a resume that lands past
    /// the last stage executed none and serialises `state` to know it.
    fn from_state(state: WorkingState, committed_crc: Option<u32>) -> Self {
        Self {
            records: state.records.len() as u64,
            digest: committed_crc.unwrap_or_else(|| state.payload().crc()),
            aggregates: state.aggregates,
        }
    }
}

/// Report of one pipeline run (uninterrupted or resumed).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineReport {
    /// Pipeline name.
    pub pipeline: String,
    /// `Some(k)` when this run resumed after durable stage `k` (its
    /// reports cover only the re-executed stages).
    pub resumed_from: Option<u64>,
    /// Reports for the stages this run executed.
    pub stages: Vec<StageReport>,
    /// The final data product.
    pub output: PipelineOutput,
}

impl PipelineReport {
    /// Canonical JSON of everything that must be byte-identical between an
    /// uninterrupted run and any crash + resume: the pipeline identity and
    /// its data output. Timing, `FaultStats` and `obs` are excluded by
    /// construction; the full per-stage equivalence is checked against the
    /// durable checkpoint ledger ([`checkpoint::ledger`]).
    pub fn data_fingerprint(&self) -> String {
        let v = Value::Object(vec![
            ("pipeline".to_string(), self.pipeline.to_value()),
            ("output".to_string(), self.output.to_value()),
        ]);
        serde_json::to_string(&v).expect("fingerprint serialization is infallible")
    }
}

/// Where a scripted crash strikes: during stage `stage`'s checkpoint
/// commit, after `write_prefix % (writes + 1)` of its ordered writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Stage whose checkpoint the crash interrupts.
    pub stage: usize,
    /// Raw write-prefix selector (taken modulo `writes + 1`).
    pub write_prefix: u64,
}

/// What a scripted crash left behind ([`Pipeline::run_interrupted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptedRun {
    /// Stage the crash interrupted.
    pub crash_stage: usize,
    /// Ordered writes of that stage's checkpoint that landed before the
    /// crash (all of them ⇒ the stage is durable after all).
    pub applied_writes: usize,
    /// Total writes the interrupted checkpoint plan had.
    pub plan_writes: usize,
}

enum RunOutcome {
    Completed(PipelineReport),
    Crashed(InterruptedRun),
}

/// A validated, executable pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    spec: PipelineSpec,
}

impl Pipeline {
    /// Validate and wrap a spec.
    ///
    /// # Panics
    /// Panics if the spec is empty or does not begin with a
    /// [`StageOp::Filter`] (every later stage needs a working set).
    pub fn new(spec: PipelineSpec) -> Self {
        assert!(!spec.seq.is_empty(), "pipeline needs at least one stage");
        assert!(
            matches!(spec.seq[0], StageOp::Filter(_)),
            "pipelines start with a filter stage"
        );
        Self { spec }
    }

    /// The validated spec.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.spec.seq.len()
    }

    /// Never true — `new` rejects empty specs; included for idiom.
    pub fn is_empty(&self) -> bool {
        self.spec.seq.is_empty()
    }

    /// Run every stage from scratch, checkpointing each into `dirs`.
    ///
    /// # Errors
    /// Checkpoint IO failures (after the bounded retries are exhausted).
    pub fn run(
        &self,
        env: &mut PipelineEnv,
        dirs: &[&Path],
        rec: &Recorder,
    ) -> Result<PipelineReport, StoreError> {
        match self.exec(env, dirs, 0, WorkingState::default(), None, None, rec)? {
            RunOutcome::Completed(r) => Ok(r),
            RunOutcome::Crashed(_) => unreachable!("no crash was scripted"),
        }
    }

    /// Resume from the last durable checkpoint in `dirs`: restore its
    /// working state, then execute only the remaining stages against the
    /// *current* cluster and metadata plane. Directories with no durable
    /// checkpoint (crashed before the first commit) start a fresh run.
    ///
    /// # Errors
    /// Corrupt/mismatched checkpoints, or checkpoint IO failures.
    pub fn resume(
        &self,
        env: &mut PipelineEnv,
        dirs: &[&Path],
        rec: &Recorder,
    ) -> Result<PipelineReport, StoreError> {
        let Some((manifest, payload)) = checkpoint::resume(dirs)? else {
            return self.run(env, dirs, rec);
        };
        if manifest.pipeline != self.spec.name {
            return Err(StoreError::Corrupt {
                path: dirs.first().map(|d| d.to_path_buf()).unwrap_or_default(),
                detail: format!(
                    "checkpoint belongs to pipeline `{}`, not `{}`",
                    manifest.pipeline, self.spec.name
                ),
            });
        }
        let last = manifest.last_completed_operation as usize;
        if last >= self.len() {
            return Err(StoreError::Corrupt {
                path: dirs.first().map(|d| d.to_path_buf()).unwrap_or_default(),
                detail: format!(
                    "checkpoint stage {last} is beyond the {}-stage pipeline",
                    self.len()
                ),
            });
        }
        let state: WorkingState =
            serde_json::from_slice(&payload).map_err(|e| StoreError::Corrupt {
                path: dirs.first().map(|d| d.to_path_buf()).unwrap_or_default(),
                detail: format!("checkpoint payload does not decode: {e}"),
            })?;
        match self.exec(env, dirs, last + 1, state, Some(last as u64), None, rec)? {
            RunOutcome::Completed(r) => Ok(r),
            RunOutcome::Crashed(_) => unreachable!("no crash was scripted"),
        }
    }

    /// Run with a scripted crash: stages before `crash.stage` commit
    /// normally; that stage executes but its checkpoint stops after a
    /// prefix of its ordered writes, modeling a node dying mid-commit.
    ///
    /// # Errors
    /// Checkpoint IO failures.
    ///
    /// # Panics
    /// Panics if `crash.stage` is out of range.
    pub fn run_interrupted(
        &self,
        env: &mut PipelineEnv,
        dirs: &[&Path],
        crash: CrashPoint,
        rec: &Recorder,
    ) -> Result<InterruptedRun, StoreError> {
        assert!(crash.stage < self.len(), "crash stage out of range");
        match self.exec(
            env,
            dirs,
            0,
            WorkingState::default(),
            None,
            Some(crash),
            rec,
        )? {
            RunOutcome::Crashed(i) => Ok(i),
            RunOutcome::Completed(_) => unreachable!("crash stage is in range"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        env: &mut PipelineEnv,
        dirs: &[&Path],
        start: usize,
        mut state: WorkingState,
        resumed_from: Option<u64>,
        crash: Option<CrashPoint>,
        rec: &Recorder,
    ) -> Result<RunOutcome, StoreError> {
        let mut stages = Vec::new();
        let mut last_selection: Option<SelectionOutcome> = None;
        let mut last_sub: Option<SubDatasetId> = None;
        // `state`'s serialised form and CRC as the previous stage committed them.
        let mut committed: Option<Payload> = None;
        for (i, op) in self.spec.seq.iter().enumerate().skip(start) {
            let label = op.label();
            // Per-stage recorder: the stage's ObsSummary must cover exactly
            // this stage's spans, so each stage records into its own trace
            // buffer (enabled iff the caller's recorder is) while sharing
            // the run-wide metrics registry, flight ring and query scope.
            let stage_rec = rec.fork_trace();
            let records_in = state.records.len() as u64;
            let mut input_bytes = 0u64;
            let mut unknown_blocks = 0u64;
            let mut degraded = false;
            let mut sim_secs = 0.0f64;
            let mut faults = FaultStats::default();

            match op {
                StageOp::Filter(_) | StageOp::Append(_) | StageOp::Join(_) => {
                    let s = op.subdataset().expect("data stages name a sub-dataset");
                    let outcome = self.plan_data_stage(env, s, &stage_rec);
                    input_bytes = env.dfs.subdataset_total(s);
                    unknown_blocks = outcome.1;
                    degraded = !outcome.2;
                    let outcome = outcome.0;
                    sim_secs = outcome.end.as_secs_f64();
                    faults = outcome.faults.clone();
                    let incoming = subdataset_records(env.dfs, s);
                    match op {
                        StageOp::Filter(_) => state.records = incoming,
                        StageOp::Append(_) => state.records.extend(incoming),
                        StageOp::Join(_) => {
                            let keys: BTreeSet<u64> =
                                incoming.iter().map(|r| r.timestamp).collect();
                            state.records.retain(|r| keys.contains(&r.timestamp));
                        }
                        _ => unreachable!(),
                    }
                    // The record set changed: any previous aggregates
                    // describe a working set that no longer exists.
                    state.aggregates.clear();
                    last_selection = Some(outcome);
                    last_sub = Some(s);
                }
                StageOp::Aggregate(job) => {
                    // Resume may land directly on an aggregate stage; the
                    // partitions its analysis phase prices then come from
                    // re-planning the latest *surviving* data stage against
                    // the current cluster.
                    if last_selection.is_none() {
                        let j = self.spec.seq[..i]
                            .iter()
                            .rposition(|o| o.subdataset().is_some())
                            .expect("specs start with a filter stage");
                        let s = self.spec.seq[j].subdataset().expect("data stage");
                        let replan = self.plan_data_stage(env, s, &stage_rec);
                        unknown_blocks = replan.1;
                        degraded = !replan.2;
                        last_selection = Some(replan.0);
                        last_sub = Some(s);
                    }
                    let sel = last_selection.as_ref().expect("selection planned above");
                    let profile = job.profile();
                    let mut routed: Option<ShufflePlan> = None;
                    let exec = Exec::default().rec(&stage_rec).base(sel.end);
                    // Under a fault plan the stage is priced on survivor-only
                    // uniform reducers; shuffle routing applies to healthy runs.
                    let report = if let Some(p) = env.shuffle.filter(|_| env.faults.is_none()) {
                        // Distribution-aware (or hash-baseline) shuffle:
                        // price the stage on the per-(node, key-range)
                        // matrix of the stage's input sub-dataset and route
                        // the data plane through the same plan. The merge
                        // is answer-preserving, so only placement and bytes
                        // change — never the aggregates.
                        let s = last_sub.expect("aggregate follows a data stage");
                        let matrix = range_matrix_truth(env.dfs, s, p.key_ranges);
                        let plan = if p.aware {
                            ShufflePlanner::new(p.split_factor).plan(&matrix)
                        } else {
                            ShufflePlan::hash(
                                p.key_ranges,
                                (0..matrix.len() as u32).map(datanet_dfs::NodeId).collect(),
                            )
                        };
                        let out = exec.analysis_shuffled(&matrix, &profile, &env.analysis, &plan);
                        routed = Some(plan);
                        out.report
                    } else {
                        let parts = &sel.per_node_bytes;
                        let reducers =
                            AggregationPlan::uniform_over(parts, &sel.faults.crashed_nodes);
                        exec.analysis(parts, &profile, &env.analysis, &reducers, None)
                    };
                    sim_secs = report.makespan_secs;
                    faults = sel.faults.clone();
                    state.aggregates = match &routed {
                        Some(plan) => job.run_routed(&state.records, plan),
                        None => job.run(&state.records),
                    };
                }
                StageOp::Output(_) => {}
            }

            // Commit the checkpoint (crash-safe write order; bounded
            // retries with deterministic jitter). A state is serialised and
            // checksummed once: an output stage leaves it alone and re-commits
            // those bytes under that CRC.
            let payload = match (op, &committed) {
                (StageOp::Output(_), Some(payload)) => payload.clone(),
                _ => state.payload(),
            };
            committed = Some(payload.clone());
            let plan = CheckpointPlan::new(&self.spec.name, i as u64, &label, payload);
            let checkpoint_crc = plan.manifest().payload_crc;
            if let Some(cp) = crash {
                if cp.stage == i {
                    let applied = (cp.write_prefix % (plan.writes() as u64 + 1)) as usize;
                    plan.apply_prefix(dirs, applied)?;
                    return Ok(RunOutcome::Crashed(InterruptedRun {
                        crash_stage: i,
                        applied_writes: applied,
                        plan_writes: plan.writes(),
                    }));
                }
            }
            let span = rec.begin(
                Category::Checkpoint,
                "commit",
                Domain::Wall,
                rec.wall_us(),
                SpanCtx::default().note(label.clone()),
            );
            let mut checkpoint_retries = 0u32;
            loop {
                match plan.apply(dirs) {
                    Ok(()) => break,
                    Err(_) if checkpoint_retries + 1 < ATTEMPTS_PER_REPLICA => {
                        checkpoint_retries += 1;
                        rec.flight(
                            FlightKind::Retry,
                            Domain::Wall,
                            rec.wall_us(),
                            None,
                            format!("checkpoint commit retry {checkpoint_retries} for stage {i} ({label})"),
                        );
                        std::thread::sleep(backoff_jittered(
                            checkpoint_retries,
                            env.retry_seed ^ i as u64,
                        ));
                    }
                    Err(e) => {
                        rec.end_with_note(span, rec.wall_us(), "failed");
                        return Err(e);
                    }
                }
            }
            rec.end(span, rec.wall_us());

            let obs = if stage_rec.is_enabled() {
                Some(stage_rec.take().summary(None))
            } else {
                None
            };
            stages.push(StageReport {
                index: i as u64,
                label,
                records_in,
                records_out: state.records.len() as u64,
                aggregates_out: state.aggregates.len() as u64,
                input_bytes,
                unknown_blocks,
                degraded,
                sim_secs,
                checkpoint_crc,
                checkpoint_retries,
                faults,
                obs,
            });
        }
        let output = PipelineOutput::from_state(state, stages.last().map(|s| s.checkpoint_crc));
        Ok(RunOutcome::Completed(PipelineReport {
            pipeline: self.spec.name.clone(),
            resumed_from,
            stages,
            output,
        }))
    }

    /// Plan one data stage distribution-aware: scheduler from the metadata
    /// plane (down the degradation ladder if unhealthy), priced under the
    /// configured faults, if any. Returns
    /// `(outcome, unknown_blocks, healthy)`.
    fn plan_data_stage(
        &self,
        env: &mut PipelineEnv,
        s: SubDatasetId,
        rec: &Recorder,
    ) -> (SelectionOutcome, u64, bool) {
        let truth = env.dfs.subdataset_distribution(s);
        let (mut sched, unknown, healthy) = env.meta.scheduler_for(env.dfs, s);
        let outcome = Exec::default()
            .rec(rec)
            .faults(env.faults.as_ref())
            .selection(env.dfs, &truth, sched.as_mut(), &env.selection);
        (outcome, unknown, healthy)
    }
}

/// All records of `s` in DFS block order — the canonical record order every
/// run (and every resume) observes.
fn subdataset_records(dfs: &Dfs, s: SubDatasetId) -> Vec<Record> {
    let mut out = Vec::new();
    for b in dfs.blocks() {
        out.extend(b.filter(s).copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::NodeId;
    use datanet_mapreduce::Fragment;
    use std::collections::BTreeMap;

    /// `AggJob::run` as it was before the hash grouping: the reference the
    /// grouped body must equal.
    fn run_by_tree(agg: &AggJob, records: &[Record]) -> Vec<KeyValue> {
        let job = agg.job();
        let mut acc: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in records {
            job.map(r, &mut |k, v| acc.entry(k).or_default().push(v));
        }
        acc.into_iter()
            .map(|(key, vs)| KeyValue {
                key,
                value: job.reduce(key, vs.iter().sum(), vs.len() as u64),
            })
            .collect()
    }

    /// `AggJob::merge_fragments` as it was before the hash grouping.
    fn merge_by_tree(agg: &AggJob, frags: &[ShuffleFragment]) -> Vec<KeyValue> {
        let job = agg.job();
        let mut acc: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new();
        for f in frags {
            for &(k, s, v) in &f.entries {
                acc.entry(k).or_default().push((s, v));
            }
        }
        acc.into_iter()
            .map(|(key, mut vs)| {
                vs.sort_unstable_by_key(|&(s, _)| s);
                let values: Vec<f64> = vs.into_iter().map(|(_, v)| v).collect();
                KeyValue {
                    key,
                    value: job.reduce(key, values.iter().sum(), values.len() as u64),
                }
            })
            .collect()
    }

    /// SplitMix64 step: seeds the records and the arrival permutations.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Four reducers over `ranges` key ranges; every odd range is split
    /// across three of them.
    fn split_plan(ranges: usize) -> ShufflePlan {
        let share = |reducer: usize, share| Fragment {
            reducer: reducer % 4,
            share,
        };
        ShufflePlan {
            reducers: (0..4).map(NodeId).collect(),
            assignments: (0..ranges)
                .map(|g| match g % 2 {
                    0 => vec![share(g, 1.0)],
                    _ => vec![share(g, 0.5), share(g + 1, 0.3), share(g + 2, 0.2)],
                })
                .collect(),
            est_ranges: vec![1; ranges],
        }
    }

    /// The two regimes a reducer sees: many light keys (a vocabulary's word
    /// counts; one moving-average window per record, the timestamps
    /// reaching past the direct key table into the hashed keys) and a few
    /// heavy ones (histogram classes, similarity buckets, hour windows).
    /// Under a plan that splits half the ranges, `merge_fragments` in any
    /// arrival order, `run` and the `BTreeMap` reference agree bit for bit.
    #[test]
    fn merge_equals_run_equals_the_tree_for_many_light_and_few_heavy_keys() {
        let light: Vec<Record> = (0..4_000u64)
            .map(|i| {
                let size = 60 + (mix(i) % 200) as u32;
                Record::new(SubDatasetId(1), i * 37, size, mix(i ^ 0x55))
            })
            .collect();
        let heavy: Vec<Record> = (0..3_000u64)
            .map(|i| {
                let size = 300 + (mix(i) % 300) as u32;
                Record::new(SubDatasetId(1), mix(i) % 12 * 3_600, size, mix(i ^ 0xAA))
            })
            .collect();
        let plan = split_plan(32);
        let regimes = [
            (&light, vec![AggJob::WordCount, AggJob::MovingAverage(1)]),
            (
                &heavy,
                vec![
                    AggJob::Histogram,
                    AggJob::TopK,
                    AggJob::MovingAverage(3_600),
                ],
            ),
        ];
        for (records, jobs) in regimes {
            for agg in jobs {
                let expected = run_by_tree(&agg, records);
                let what = format!("{} over {} keys", agg.label(), expected.len());
                if std::ptr::eq(records, &light) {
                    assert!(expected.len() >= 4_000, "{what}");
                } else {
                    assert!((2..=16).contains(&expected.len()), "{what}");
                }
                assert_eq!(agg.run(records), expected, "{what}");
                let frags = agg.map_fragments(records, &plan);
                assert_eq!(frags.iter().filter(|f| !f.entries.is_empty()).count(), 4);
                for seed in 0..8u64 {
                    let mut arrived = frags.clone();
                    arrived.sort_by_key(|f| mix(seed ^ ((f.reducer as u64) << 8)));
                    assert_eq!(merge_by_tree(&agg, &arrived), expected, "{what}");
                    assert_eq!(
                        agg.merge_fragments(&arrived),
                        expected,
                        "{what}, arrival permutation {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_grouping_equals_the_tree_on_colliding_keys_under_any_arrival_order() {
        // Timestamps that differ only above bit 40: with a one-second window
        // the moving average's keys are those timestamps, which a
        // multiplicative hash sends to buckets agreeing in their low bits —
        // the grouping's worst case. Several records per key, so the mean's
        // float sum depends on the emission order being restored exactly.
        let records: Vec<Record> = (0..600u64)
            .map(|i| {
                let key = mix(i % 37) % 23;
                let size = 30 + (mix(i) % 400) as u32;
                Record::new(SubDatasetId(1), key << 40, size, mix(i ^ 0xABCD))
            })
            .collect();
        // One key range, split three ways: every pair goes through the
        // heavy-range fragment pick.
        let share = |reducer, share| Fragment { reducer, share };
        let plan = ShufflePlan {
            reducers: (0..4).map(NodeId).collect(),
            assignments: vec![vec![share(0, 0.4), share(1, 0.35), share(3, 0.25)]],
            est_ranges: vec![1],
        };
        for agg in [
            AggJob::MovingAverage(1),
            AggJob::WordCount,
            AggJob::Histogram,
            AggJob::TopK,
        ] {
            let expected = run_by_tree(&agg, &records);
            assert!(!expected.is_empty());
            assert!(expected.windows(2).all(|w| w[0].key < w[1].key));
            assert_eq!(agg.run(&records), expected, "{}", agg.label());

            let frags = agg.map_fragments(&records, &plan);
            assert!(
                frags.iter().filter(|f| !f.entries.is_empty()).count() == 3,
                "{}: the hot range must reach all three of its reducers",
                agg.label()
            );
            for seed in 0..20u64 {
                let mut arrived = frags.clone();
                arrived.sort_by_key(|f| mix(seed ^ ((f.reducer as u64) << 8)));
                assert_eq!(merge_by_tree(&agg, &arrived), expected);
                assert_eq!(
                    agg.merge_fragments(&arrived),
                    expected,
                    "{} arrival permutation {seed}",
                    agg.label()
                );
            }
        }
    }
}
