//! `pipeline_shuffle` — the data plane: checkpointed analytics pipelines
//! over mid-popularity sub-datasets, routed through the distribution-aware
//! shuffle.
//!
//! Why: real per-record compute, fragment routing/merge and checkpoint
//! writes dominate and metadata lookups are noise. This is where
//! `datanet-analytics` migrating onto a collapsed engine must hold its
//! numbers.

use super::BAND;
use crate::data;
use crate::harness::{fold, Check, OpOutcome, Workload};
use crate::metrics::Values;
use crate::quality;
use crate::stats::SplitMix64;
use crate::trace::{Layer, Tracer};
use datanet::{checkpoint, CheckpointPlan, ElasticMapArray};
use datanet_analytics::{
    histogram_pipeline, join_word_count_pipeline, moving_average_pipeline, top_k_pipeline,
    word_count_pipeline, AggJob, Pipeline, PipelineEnv, PipelineReport, PipelineSpec,
    ShuffleParams,
};
use datanet_dfs::{Dfs, Record, SubDatasetId};
use datanet_mapreduce::{range_matrix_truth, ShufflePlanner};
use datanet_obs::Recorder;
use std::path::{Path, PathBuf};

pub const BLOCKS: u64 = 257;
pub const NODES: u32 = 16;
pub const OPS: usize = 128;
pub const REPLAYS: usize = 32;
/// Moving-average window: one day of the log.
const WINDOW_SECS: u64 = 86_400;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    WordCount,
    Histogram,
    TopK,
    MovingAverage,
}

const KINDS: [Kind; 4] = [
    Kind::WordCount,
    Kind::Histogram,
    Kind::TopK,
    Kind::MovingAverage,
];

impl Kind {
    fn spec(self, s: SubDatasetId) -> PipelineSpec {
        match self {
            Kind::WordCount => word_count_pipeline(s),
            Kind::Histogram => histogram_pipeline(s),
            Kind::TopK => top_k_pipeline(s),
            Kind::MovingAverage => moving_average_pipeline(s, WINDOW_SECS),
        }
    }
}

pub struct PipelineShuffle {
    records: Vec<Record>,
    ranked: Vec<SubDatasetId>,
    /// (pipeline kind, popularity rank of its sub-dataset)
    ops: Vec<(Kind, usize)>,
}

pub struct Base {
    dfs: Dfs,
    array: ElasticMapArray,
    dirs: [PathBuf; 2],
    out_records: u64,
}

/// Every band rank is used once and every kind equally often. The hottest
/// ranks and the join pipeline are a second latency mode; they stay out of
/// the list and run once in the check. `word_count` reduces to the whole
/// 8192-word vocabulary whatever its input, five times the other kinds'
/// cost on the same sub-dataset, so it takes the band's smallest quarter;
/// the other three interleave over the rest in a seed-drawn rotation, so
/// each sees the whole size range. The seed also draws the order.
pub fn op_list(seed: u64) -> Vec<(Kind, usize)> {
    let mut rng = SplitMix64(seed ^ 0x7069_7065_6C69_6E65);
    let band: Vec<usize> = BAND.collect();
    let (large, small) = band.split_at(band.len() - OPS / 4);
    let mut rotation = [Kind::Histogram, Kind::TopK, Kind::MovingAverage];
    rng.shuffle(&mut rotation);
    let mut ops: Vec<(Kind, usize)> = small.iter().map(|&r| (Kind::WordCount, r)).collect();
    ops.extend(large.iter().enumerate().map(|(j, &r)| (rotation[j % 3], r)));
    rng.shuffle(&mut ops);
    ops
}

fn aware() -> ShuffleParams {
    ShuffleParams::default()
}

impl PipelineShuffle {
    pub fn new(seed: u64, tr: &mut Tracer, v: &mut Values) -> Self {
        let (records, ranked) = data::generate(BLOCKS, tr, v);
        Self {
            records,
            ranked,
            ops: op_list(seed),
        }
    }

    fn run(
        &self,
        b: &Base,
        spec: PipelineSpec,
        shuffle: Option<ShuffleParams>,
        dirs: &[&Path],
        tr: &mut Tracer,
    ) -> Option<PipelineReport> {
        let mut env = PipelineEnv::new(&b.dfs, &b.array);
        env.shuffle = shuffle;
        let pipeline = Pipeline::new(spec);
        tr.call(Layer::Analytics, "analytics.pipeline_run", 1, || {
            pipeline.run(&mut env, dirs, &Recorder::off())
        })
        .ok()
    }
}

impl Workload for PipelineShuffle {
    type Base = Base;

    const NAME: &'static str = "pipeline_shuffle";
    const OPS: usize = OPS;
    const REPLAYS: usize = REPLAYS;

    fn setup(&self, dir: &Path, tr: &mut Tracer) -> Base {
        let (dfs, array) = data::write_and_build(NODES, &self.records, tr);
        Base {
            dfs,
            array,
            dirs: [dir.join("checkpoint-0"), dir.join("checkpoint-1")],
            out_records: 0,
        }
    }

    fn op(&self, b: &mut Base, i: usize, tr: &mut Tracer) -> OpOutcome {
        let (kind, rank) = self.ops[i];
        // Each stage's checkpoint is serialised and checksummed, but lands
        // on no replica: the 18 file writes of a two-replica run cost what
        // the host's filesystem decides (README, flush policy). The check
        // below runs the real two-directory commits.
        let spec = kind.spec(self.ranked[rank]);
        let Some(report) = self.run(b, spec, Some(aware()), &[], tr) else {
            return OpOutcome { ok: false, work: 0 };
        };
        b.out_records += report.output.records;
        OpOutcome {
            ok: report.stages.len() == 3 && report.output.records > 0,
            work: fold(report.output.digest as u64, report.output.records),
        }
    }

    fn finish(&self, b: Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check> {
        v.set("dfs.blocks", b.dfs.block_count() as f64);
        v.set(
            "analytics.records_per_op",
            b.out_records as f64 / OPS as f64,
        );
        let dirs: [&Path; 2] = [&b.dirs[0], &b.dirs[1]];

        // What one op of the list would leave on a replica, had it one.
        let (kind, rank) = self.ops[0];
        let spec = kind.spec(self.ranked[rank]);
        let op_dirs = [dir.join("op-checkpoint-0"), dir.join("op-checkpoint-1")];
        let landed = self
            .run(&b, spec, Some(aware()), &[&op_dirs[0], &op_dirs[1]], tr)
            .is_some();
        let replica_bytes: u64 = std::fs::read_dir(&op_dirs[0])
            .map(|it| {
                it.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        v.set("checkpoint.bytes_per_op", replica_bytes as f64);

        // The shuffle is answer-preserving: aware, hash and off agree byte
        // for byte — on one pipeline of each kind, on the hottest
        // sub-dataset, and on the join pipeline.
        let mid = self.ranked[34];
        let mut specs: Vec<PipelineSpec> = KINDS.iter().map(|k| k.spec(mid)).collect();
        specs.push(word_count_pipeline(self.ranked[0]));
        specs.push(join_word_count_pipeline(self.ranked[0], self.ranked[1]));
        let hash = ShuffleParams {
            aware: false,
            ..aware()
        };
        let same_answers = specs.into_iter().all(|spec| {
            let prints: Vec<Option<String>> = [Some(aware()), Some(hash), None]
                .into_iter()
                .map(|mode| {
                    self.run(&b, spec.clone(), mode, &dirs, &mut Tracer::new(false, 0))
                        .map(|r| r.data_fingerprint())
                })
                .collect();
            prints[0].is_some() && prints[0] == prints[1] && prints[0] == prints[2]
        });

        // What `Pipeline::run` hides, standalone on one band sub-dataset.
        let records: Vec<Record> = b
            .dfs
            .blocks()
            .iter()
            .flat_map(|bl| bl.filter(mid).copied())
            .collect();
        let matrix = range_matrix_truth(&b.dfs, mid, aware().key_ranges);
        let plan = ShufflePlanner::new(aware().split_factor).plan(&matrix);
        for job in [
            AggJob::WordCount,
            AggJob::Histogram,
            AggJob::TopK,
            AggJob::MovingAverage(WINDOW_SECS),
        ] {
            let direct = tr.call(Layer::Analytics, "analytics.agg_run", 1, || {
                job.run(&records)
            });
            let frags = tr.call(Layer::Analytics, "analytics.map_fragments", 1, || {
                job.map_fragments(&records, &plan)
            });
            let merged = tr.call(Layer::Analytics, "analytics.merge_fragments", 1, || {
                job.merge_fragments(&frags)
            });
            assert_eq!(direct, merged, "routing preserves the aggregates");
            let payload = format!("{merged:?}").into_bytes();
            tr.call(Layer::Checkpoint, "checkpoint.commit", 1, || {
                CheckpointPlan::new("probe", 1, job.label(), payload).apply(&dirs)
            })
            .expect("commit the probe checkpoint");
            tr.call(Layer::Checkpoint, "checkpoint.resume", 1, || {
                checkpoint::resume(&dirs)
            })
            .expect("resume the probe checkpoint");
        }

        let ids = quality::probe_ids(&self.ranked);
        let roundtrip = quality::measure(&b.dfs, &b.array, &ids, None, dir, tr, v);
        vec![
            Check {
                name: "a listed pipeline commits its checkpoints to two replicas",
                ok: landed && replica_bytes > 0,
            },
            Check {
                name: "data_fingerprint identical for aware / hash / off shuffles",
                ok: same_answers,
            },
            Check {
                name: "saved store answers the probe views like the array",
                ok: roundtrip,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_a_function_of_the_seed() {
        assert_eq!(op_list(21), op_list(21));
        assert_ne!(op_list(21), op_list(22));
        let ops = op_list(21);
        assert_eq!(ops.len(), OPS);
        for k in KINDS {
            assert_eq!(ops.iter().filter(|(kind, _)| *kind == k).count(), OPS / 4);
        }
        let mut ranks: Vec<usize> = ops.iter().map(|&(_, r)| r).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, BAND.collect::<Vec<_>>(), "every band rank once");
    }
}
