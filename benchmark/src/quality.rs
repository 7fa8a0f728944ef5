//! The deterministic end-to-end metrics, measured the same way on every
//! workload over a fixed probe set of sub-datasets.
//!
//! They exist so wall-clock cannot be bought with a worse plan, a lossier
//! map or a fatter format, and they keep the paper's simulated-seconds
//! claims apart from our wall-clock costs: everything here is a pure
//! function of the code and the dataset. The same pass times each layer's
//! public calls standalone, which gives every workload a reading for the
//! layers its ops do not reach.

use crate::metrics::Values;
use crate::trace::{Layer, Tracer};
use datanet::{Algorithm1, ElasticMapArray, FordFulkersonPlanner, MetaStore};
use datanet_analytics::word_count_profile;
use datanet_dfs::{Dfs, NodeId, SubDatasetId};
use datanet_mapreduce::{
    range_matrix_estimate, range_matrix_truth, run_analysis, run_analysis_shuffled, run_selection,
    total_secs, AnalysisConfig, DataNetScheduler, LocalityScheduler, SelectionConfig, ShufflePlan,
    ShufflePlanner,
};
use std::path::Path;

/// Key ranges and split factor of `datanet-analytics`' `ShuffleParams`
/// default, so the probes price what the pipelines run.
pub const KEY_RANGES: usize = 32;
pub const SPLIT_FACTOR: f64 = 1.25;

/// Popularity ranks probed on every workload: the hot head the paper's
/// figures use plus a thinning tail.
pub const PROBE_RANKS: [usize; 12] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];

pub fn probe_ids(ranked: &[SubDatasetId]) -> Vec<SubDatasetId> {
    PROBE_RANKS.iter().map(|&r| ranked[r]).collect()
}

fn mean(sum: f64, n: usize) -> f64 {
    sum / n.max(1) as f64
}

/// Fill the deterministic end-to-end metrics and the per-layer counts that
/// come from the probe set. `own_disk_bytes` is one replica of the
/// workload's own store when it has one; otherwise the array is saved once
/// into `scratch` to read the footprint. Returns whether the saved store
/// answered the probe views exactly as the array did.
pub fn measure(
    dfs: &Dfs,
    array: &ElasticMapArray,
    ids: &[SubDatasetId],
    own_disk_bytes: Option<u64>,
    scratch: &Path,
    tr: &mut Tracer,
    v: &mut Values,
) -> bool {
    let sel_cfg = SelectionConfig::default();
    let ana_cfg = AnalysisConfig::default();
    let job = word_count_profile();
    let nodes = dfs.config().topology.len();
    let n = ids.len();

    let views = tr.call(Layer::Scan, "scan.views", n as u64, || array.views(ids));

    let (mut acc, mut exact, mut claimed, mut wrong) = (0.0, 0usize, 0usize, 0usize);
    let (mut sim_datanet, mut sim_base, mut sim_sel, mut sim_sel_base) = (0.0, 0.0, 0.0, 0.0);
    let (mut blocks, mut imbalance, mut locality, mut over_opt) = (0usize, 0.0, 0.0, 0.0);
    let (mut net_aware, mut net_hash, mut splits) = (0u64, 0u64, 0usize);
    let (mut red_aware, mut red_hash) = (0.0, 0.0);
    for (&s, batched) in ids.iter().zip(&views) {
        let view = tr.call(Layer::Scan, "scan.view", 1, || array.view(s));
        assert_eq!(&view, batched, "batched and single views agree");
        let truth = dfs.subdataset_distribution(s);
        let total: u64 = truth.iter().sum();
        acc += 1.0 - (view.estimated_total() as f64 - total as f64).abs() / total as f64;
        exact += view.exact().len();
        claimed += view.block_count();
        wrong += view.blocks().filter(|b| truth[b.index()] == 0).count();

        let greedy = tr.call(Layer::Planner, "planner.greedy", 1, || {
            Algorithm1::new(dfs, &view).plan_balanced()
        });
        let ff = FordFulkersonPlanner::new(dfs, &view);
        let optimum = ff.fractional_optimum();
        std::hint::black_box(tr.call(Layer::Planner, "planner.maxflow", 1, || ff.plan()));
        blocks += greedy.assigned_blocks();
        imbalance += greedy.imbalance();
        locality += greedy.locality_fraction();
        over_opt += greedy.max_workload() as f64 / optimum.max(1) as f64;

        let sel = tr.call(Layer::Engine, "engine.selection", 1, || {
            run_selection(
                dfs,
                &truth,
                &mut DataNetScheduler::new(dfs, &view),
                &sel_cfg,
            )
        });
        let base = tr.call(Layer::Engine, "engine.selection", 1, || {
            run_selection(dfs, &truth, &mut LocalityScheduler::new(dfs), &sel_cfg)
        });
        let ana = tr.call(Layer::Engine, "engine.analysis", 1, || {
            run_analysis(&sel.per_node_bytes, &job, &ana_cfg)
        });
        let ana_base = tr.call(Layer::Engine, "engine.analysis", 1, || {
            run_analysis(&base.per_node_bytes, &job, &ana_cfg)
        });
        sim_sel += sel.end.as_secs_f64();
        sim_sel_base += base.end.as_secs_f64();
        sim_datanet += total_secs(sel.end, ana.makespan_secs);
        sim_base += total_secs(base.end, ana_base.makespan_secs);

        let est = tr.call(Layer::Shuffle, "shuffle.matrix_estimate", 1, || {
            range_matrix_estimate(dfs, &view, KEY_RANGES)
        });
        let plan = tr.call(Layer::Shuffle, "shuffle.plan", 1, || {
            ShufflePlanner::new(SPLIT_FACTOR).plan(&est)
        });
        // Planned from the Equation 6 estimate, priced on the ground truth.
        let matrix = range_matrix_truth(dfs, s, KEY_RANGES);
        let hash = ShufflePlan::hash(KEY_RANGES, (0..nodes as u32).map(NodeId).collect());
        let aware_out = run_analysis_shuffled(&matrix, &job, &ana_cfg, &plan);
        let hash_out = run_analysis_shuffled(&matrix, &job, &ana_cfg, &hash);
        net_aware += aware_out.network_bytes;
        net_hash += hash_out.network_bytes;
        red_aware += aware_out.reduce_imbalance();
        red_hash += hash_out.reduce_imbalance();
        splits += plan.assignments.iter().filter(|f| f.len() > 1).count();
    }

    v.set("sim_makespan_gain", 1.0 - sim_datanet / sim_base);
    v.set("est_accuracy", mean(acc, n));
    v.set(
        "sim_shuffle_net_gain",
        1.0 - net_aware as f64 / net_hash as f64,
    );
    let per_block = array.memory_bytes() as f64 / dfs.block_count() as f64;
    v.set("meta_bytes_per_block", per_block);
    v.set("scan.memory_bytes_per_block", per_block);
    v.set("scan.exact_frac", exact as f64 / claimed.max(1) as f64);
    v.set(
        "scan.bloom_fpr_measured",
        wrong as f64 / claimed.max(1) as f64,
    );
    v.set("planner.blocks_per_plan", mean(blocks as f64, n));
    v.set("planner.imbalance_mean", mean(imbalance, n));
    v.set("planner.locality_frac_mean", mean(locality, n));
    v.set("planner.greedy_over_optimum", mean(over_opt, n));
    v.set("engine.sim_selection_s_mean", mean(sim_sel, n));
    v.set("engine.sim_baseline_s_mean", mean(sim_sel_base, n));
    v.set("shuffle.split_ranges", mean(splits as f64, n));
    v.set("shuffle.reduce_imbalance_aware", mean(red_aware, n));
    v.set("shuffle.reduce_imbalance_hash", mean(red_hash, n));

    let (disk_bytes, roundtrip) = match own_disk_bytes {
        Some(bytes) => (bytes, true),
        None => {
            let dir = scratch.join("quality-store");
            tr.call(Layer::Store, "store.save", 1, || {
                MetaStore::save(array, &dir, 16)
            })
            .expect("save the array");
            let mut store = tr
                .call(Layer::Store, "store.open", 1, || MetaStore::open(&dir, 4))
                .expect("open the saved store");
            let stored = tr.call(Layer::Store, "store.views", 1, || store.views(ids));
            let bytes = store.disk_bytes().expect("read the store directory");
            (bytes, stored.is_ok_and(|s| s == views))
        }
    };
    v.set("store.disk_bytes", disk_bytes as f64);
    v.set(
        "disk_bytes_per_raw_kb",
        disk_bytes as f64 / (dfs.total_bytes() as f64 / 1024.0),
    );
    roundtrip
}
