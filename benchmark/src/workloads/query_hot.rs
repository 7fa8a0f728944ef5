//! `query_hot` — the paper's core request on the in-memory map, at the
//! second scale (1024 blocks on 32 nodes, four times the paper's).
//!
//! Why: view/Bloom probes, planner and simulated engine do all the work and
//! the store none. It is the bypass for every store change and the exercise
//! for collapsing the engine's entry points.

use super::{assigns_exactly_once, band_targets, zipf_stratified};
use crate::data;
use crate::harness::{fold, Check, OpOutcome, Workload};
use crate::metrics::Values;
use crate::quality::{self, KEY_RANGES, SPLIT_FACTOR};
use crate::stats::SplitMix64;
use crate::trace::{Layer, Tracer};
use datanet::{plan_balanced_batch, ElasticMapArray, FordFulkersonPlanner};
use datanet_analytics::word_count_profile;
use datanet_dfs::{Dfs, Record, SubDatasetId};
use datanet_mapreduce::{
    range_matrix_estimate, run_analysis_shuffled, run_selection, AnalysisConfig, DataNetScheduler,
    JobProfile, LocalityScheduler, SelectionConfig, ShufflePlanner,
};
use std::path::Path;

pub const BLOCKS: u64 = 1024;
pub const NODES: u32 = 32;
pub const OPS: usize = 128;
pub const REPLAYS: usize = 22;
/// Ids per request: the target plus Zipf-drawn companions planned with it.
pub const IDS_PER_OP: usize = 8;

pub struct QueryHot {
    records: Vec<Record>,
    ranked: Vec<SubDatasetId>,
    ops: Vec<[SubDatasetId; IDS_PER_OP]>,
    job: JobProfile,
}

pub struct Base {
    dfs: Dfs,
    array: ElasticMapArray,
    seen: Vec<bool>,
    tasks: u64,
}

/// The op list: op `i` asks for `ids[0]` (a band rank) together with seven
/// companions drawn from the dataset's own popularity law.
pub fn op_list(seed: u64, ranked: &[SubDatasetId]) -> Vec<[SubDatasetId; IDS_PER_OP]> {
    let mut rng = SplitMix64(seed ^ 0x7175_6572_795F_686F);
    let targets = band_targets(OPS, &mut rng);
    let companions = zipf_stratified(ranked.len(), 1.1, OPS, IDS_PER_OP - 1, &mut rng);
    targets
        .iter()
        .zip(&companions)
        .map(|(&t, c)| std::array::from_fn(|k| ranked[if k == 0 { t } else { c[k - 1] }]))
        .collect()
}

impl QueryHot {
    pub fn new(seed: u64, tr: &mut Tracer, v: &mut Values) -> Self {
        let (records, ranked) = data::generate(BLOCKS, tr, v);
        Self {
            ops: op_list(seed, &ranked),
            records,
            ranked,
            job: word_count_profile(),
        }
    }
}

impl Workload for QueryHot {
    type Base = Base;

    const NAME: &'static str = "query_hot";
    const OPS: usize = OPS;
    const REPLAYS: usize = REPLAYS;

    fn setup(&self, _dir: &Path, tr: &mut Tracer) -> Base {
        let (dfs, array) = data::write_and_build(NODES, &self.records, tr);
        Base {
            seen: vec![false; dfs.block_count()],
            dfs,
            array,
            tasks: 0,
        }
    }

    fn op(&self, b: &mut Base, i: usize, tr: &mut Tracer) -> OpOutcome {
        let ids = &self.ops[i];
        let (dfs, array) = (&b.dfs, &b.array);
        let views = tr.call(Layer::Scan, "scan.views", ids.len() as u64, || {
            array.views(ids)
        });
        let plans = tr.call(Layer::Planner, "planner.batch", ids.len() as u64, || {
            plan_balanced_batch(dfs, array, ids)
        });
        let target = &views[0];
        let optimal = tr.call(Layer::Planner, "planner.maxflow", 1, || {
            FordFulkersonPlanner::new(dfs, target).plan()
        });
        let truth = tr.call(Layer::Dfs, "dfs.subdataset_distribution", 1, || {
            dfs.subdataset_distribution(ids[0])
        });
        let sel_cfg = SelectionConfig::default();
        let sel = tr.call(Layer::Engine, "engine.selection", 1, || {
            run_selection(
                dfs,
                &truth,
                &mut DataNetScheduler::new(dfs, target),
                &sel_cfg,
            )
        });
        let base = tr.call(Layer::Engine, "engine.selection", 1, || {
            run_selection(dfs, &truth, &mut LocalityScheduler::new(dfs), &sel_cfg)
        });
        let matrix = tr.call(Layer::Shuffle, "shuffle.matrix_estimate", 1, || {
            range_matrix_estimate(dfs, target, KEY_RANGES)
        });
        let shuffle = tr.call(Layer::Shuffle, "shuffle.plan", 1, || {
            ShufflePlanner::new(SPLIT_FACTOR).plan(&matrix)
        });
        let job = tr.call(Layer::Engine, "engine.analysis", 1, || {
            run_analysis_shuffled(&matrix, &self.job, &AnalysisConfig::default(), &shuffle)
        });

        let mut ok = assigns_exactly_once(&optimal, target, &mut b.seen);
        let mut work = fold(job.network_bytes, sel.bytes_read ^ base.bytes_read);
        for (plan, view) in plans.iter().zip(&views) {
            ok &= assigns_exactly_once(plan, view, &mut b.seen);
            work = fold(work, plan.max_workload() ^ plan.assigned_blocks() as u64);
        }
        b.tasks += (sel.total_tasks + base.total_tasks) as u64;
        OpOutcome { ok, work }
    }

    fn finish(&self, b: Base, dir: &Path, tr: &mut Tracer, v: &mut Values) -> Vec<Check> {
        v.set("dfs.blocks", b.dfs.block_count() as f64);
        v.set("engine.tasks_per_op", b.tasks as f64 / OPS as f64);
        let ids = quality::probe_ids(&self.ranked);
        let roundtrip = quality::measure(&b.dfs, &b.array, &ids, None, dir, tr, v);
        vec![Check {
            name: "saved store answers the probe views like the array",
            ok: roundtrip,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_a_function_of_the_seed() {
        let ranked: Vec<SubDatasetId> = (0..8000).map(SubDatasetId).collect();
        assert_eq!(op_list(5, &ranked), op_list(5, &ranked));
        assert_ne!(op_list(5, &ranked), op_list(6, &ranked));
        let ops = op_list(5, &ranked);
        assert_eq!(ops.len(), OPS);
        assert!(ops
            .iter()
            .all(|ids| super::super::BAND.contains(&(ids[0].0 as usize))));
    }
}
