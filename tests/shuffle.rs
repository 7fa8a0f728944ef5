//! Distribution-aware shuffle integration: the reduce-side partitioner
//! may change *where* bytes go, never *what* the job answers.
//!
//! Two property tests pin the tentpole down:
//!
//! * **Partitioner ≡ hash partitioning** — over the sim-check corpus
//!   seeds, a pipeline run with aware shuffle routing, one with hash
//!   routing, and one with routing off all produce byte-identical
//!   `data_fingerprint`s; only placement and network bytes may differ.
//! * **Split + merge is order-insensitive** — heavy-key fragments merge
//!   to identical reducer output under shuffled arrival permutations
//!   (the `tests/ingest.rs` arrival-permutation pattern), across ≥ 20
//!   seeds and all four aggregate jobs.
//!
//! Two more tests put numbers on the win: the aware plan beats hash on
//! network bytes on most scenario worlds, and on a synthetic clustered
//! Zipf matrix it holds a pinned byte reduction without costing the
//! uniform case anything.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::{AggJob, Pipeline, PipelineEnv, ShuffleParams};
use datanet_check::Scenario;
use datanet_dfs::{NodeId, Record};
use datanet_integration::testkit::ReplicaDirs;
use datanet_mapreduce::{range_matrix_estimate, range_matrix_truth, ShufflePlan, ShufflePlanner};
use datanet_obs::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Parse `tests/corpus/seeds.txt` (same grammar as `simcheck.rs`).
fn corpus_seeds() -> Vec<u64> {
    include_str!("corpus/seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus lines are u64 seeds"))
        .collect()
}

/// The target sub-dataset's records, in block order — the working set an
/// aggregate stage would see after the leading filter.
fn target_records(sc: &Scenario, dfs: &datanet_dfs::Dfs) -> Vec<Record> {
    dfs.blocks()
        .iter()
        .flat_map(|b| b.filter(sc.target_id()).cloned().collect::<Vec<_>>())
        .collect()
}

/// Satellite 1: aware routing, hash routing and no routing agree on the
/// data product for every corpus seed — same reduced results, bit for
/// bit, proven through the pipeline's own `data_fingerprint`.
#[test]
fn partitioner_matches_hash_partitioning_on_the_corpus() {
    let seeds = corpus_seeds();
    let mut aggregated_seeds = 0usize;
    for &seed in &seeds {
        let sc = Scenario::from_seed(seed);
        let dfs = sc.build_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
        let pipe = Pipeline::new(sc.pipeline_spec());
        if pipe
            .spec()
            .seq
            .iter()
            .any(|op| matches!(op, datanet_analytics::StageOp::Aggregate(_)))
        {
            aggregated_seeds += 1;
        }
        let run = |shuffle: Option<ShuffleParams>| {
            let mut env = PipelineEnv::new(&dfs, &arr);
            env.faults = sc.has_faults().then(|| sc.fault_config());
            env.shuffle = shuffle;
            let dirs = ReplicaDirs::new("shuffle-corpus", 2);
            pipe.run(&mut env, &dirs.paths(), &Recorder::off())
                .expect("pipeline run")
                .data_fingerprint()
        };
        let params = |aware: bool| ShuffleParams {
            key_ranges: sc.shuffle.key_ranges,
            split_factor: sc.shuffle.split_factor,
            aware,
        };
        let plain = run(None);
        assert_eq!(
            run(Some(params(true))),
            plain,
            "seed {seed}: aware shuffle routing changed the data product"
        );
        assert_eq!(
            run(Some(params(false))),
            plain,
            "seed {seed}: hash shuffle routing changed the data product"
        );
    }
    assert!(
        aggregated_seeds >= 20,
        "only {aggregated_seeds} corpus seeds exercise an aggregate stage"
    );
}

/// Satellite 2: heavy-key split + merge is arrival-order-insensitive.
/// For ≥ 20 seeds, partition each aggregate job's map output under both
/// the aware plan (heavy ranges split across reducers) and the hash
/// plan, shuffle the fragment arrival order several times, and require
/// the merge to reproduce the unrouted job's output exactly.
#[test]
fn split_merge_is_arrival_order_insensitive() {
    let mut checked = 0usize;
    let mut spread_seeds = 0usize;
    for seed in 0..24u64 {
        let sc = Scenario::from_seed(seed);
        let dfs = sc.build_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
        let view = arr.view(sc.target_id());
        let ranges = sc.shuffle.key_ranges;
        let est = range_matrix_estimate(&dfs, &view, ranges);
        let truth = range_matrix_truth(&dfs, sc.target_id(), ranges);
        let m = truth.len();
        let aware = ShufflePlanner::new(sc.shuffle.split_factor).plan(&est);
        let hash = ShufflePlan::hash(ranges, (0..m as u32).map(NodeId).collect());

        // The scenario worlds spread keys too evenly to force a split
        // (every range sits under the fair share), so a third plan prices
        // a deliberately skewed matrix: this seed's per-node bytes all
        // concentrated in range 0 of a coarse 3-range key space. The
        // planner MUST split that range across reducers, making the
        // heavy-key fragment path load-bearing in every iteration.
        let skewed: Vec<Vec<u64>> = truth
            .iter()
            .map(|row| vec![row.iter().sum(), 0, 0])
            .collect();
        let split = ShufflePlanner::new(sc.shuffle.split_factor).plan(&skewed);
        assert!(
            split.assignments[0].len() > 1,
            "seed {seed}: a range holding every byte must be split across \
             the {m} reducers"
        );

        let records = target_records(&sc, &dfs);
        assert!(!records.is_empty(), "seed {seed}: target view is empty");
        let mut seed_spread = false;
        let mut rng = StdRng::seed_from_u64(sc.shuffle.permutation_seed);
        for agg in [
            AggJob::WordCount,
            AggJob::MovingAverage(86_400),
            AggJob::Histogram,
            AggJob::TopK,
        ] {
            let baseline = agg.run(&records);
            for (name, plan) in [("aware", &aware), ("hash", &hash), ("split", &split)] {
                let frags = agg.map_fragments(&records, plan);
                // A job with many distinct keys (word count, histogram)
                // lands traffic in the heavy range and spreads it across
                // the split fragments; single-key jobs may miss it, so
                // spread is asserted per seed, not per job.
                if name == "split" && frags.iter().filter(|f| !f.entries.is_empty()).count() > 1 {
                    seed_spread = true;
                }
                for trial in 0..3 {
                    let mut arrived = frags.clone();
                    arrived.shuffle(&mut rng);
                    assert_eq!(
                        agg.merge_fragments(&arrived),
                        baseline,
                        "seed {seed} {} via {name} plan, arrival permutation {trial}: \
                         merge diverged from the unrouted job",
                        agg.label()
                    );
                    checked += 1;
                }
            }
        }
        if seed_spread {
            spread_seeds += 1;
        }
    }
    assert!(checked >= 20 * 4 * 3 * 3, "sweep shrank: {checked} checks");
    assert!(
        spread_seeds >= 20,
        "split-range traffic spread across reducers on only {spread_seeds} seeds"
    );
}

/// The aware planner actually moves bytes off the network relative to
/// hash partitioning on a clustered world — the paper's Section V claim
/// at integration scope (the clustered Zipf test below pins the ratio).
#[test]
fn aware_plan_cuts_network_bytes_on_clustered_data() {
    use datanet_analytics::word_count_profile;
    use datanet_mapreduce::{run_analysis_shuffled, AnalysisConfig};
    let mut wins = 0usize;
    let mut eligible = 0usize;
    for seed in 0..12u64 {
        let sc = Scenario::from_seed(seed);
        let dfs = sc.build_dfs();
        let ranges = sc.shuffle.key_ranges;
        let truth = range_matrix_truth(&dfs, sc.target_id(), ranges);
        let m = truth.len();
        let total: u64 = truth.iter().flatten().sum();
        if total == 0 || m < 3 {
            continue;
        }
        eligible += 1;
        let aware = ShufflePlanner::new(sc.shuffle.split_factor).plan(&truth);
        let hash = ShufflePlan::hash(ranges, (0..m as u32).map(NodeId).collect());
        let job = word_count_profile();
        let cfg = AnalysisConfig::default();
        let a = run_analysis_shuffled(&truth, &job, &cfg, &aware);
        let h = run_analysis_shuffled(&truth, &job, &cfg, &hash);
        if a.network_bytes <= h.network_bytes {
            wins += 1;
        }
    }
    assert!(eligible >= 6, "not enough eligible worlds: {eligible}");
    assert!(
        wins * 4 >= eligible * 3,
        "aware plan beat hash on network bytes in only {wins}/{eligible} worlds"
    );
}

/// The paper's Section V claim on the clustered Zipf matrix of
/// [`datanet_integration::shuffle`] (8 nodes × 64 key ranges, 256 MB,
/// split factor 1.25): under heavy skew the aware plan sends at most half
/// the hash plan's network bytes, splits a heavy range, and holds the
/// reduction measured when this check was written to ±20 %; with no skew
/// it costs neither makespan nor reduce balance. Every number is
/// simulated, so the check is deterministic.
#[test]
fn aware_plan_holds_its_byte_reduction_on_a_clustered_zipf_matrix() {
    use datanet_integration::shuffle::zipf_point;
    /// hash / aware network bytes at s = 1.2.
    const MEASURED_REDUCTION: f64 = 2.3136;
    const TOTAL: u64 = 256 << 20;

    let skew = zipf_point(1.2, TOTAL);
    let reduction = skew.bytes_reduction();
    assert!(reduction >= 2.0, "reduction {reduction:.3}x under 2x");
    assert!(
        (reduction / MEASURED_REDUCTION - 1.0).abs() <= 0.2,
        "reduction {reduction:.4}x drifted more than 20% from {MEASURED_REDUCTION}x"
    );
    assert!(skew.split_ranges > 0, "no heavy range split at s = 1.2");

    let uniform = zipf_point(0.0, TOTAL);
    let (aware, hash) = (&uniform.aware, &uniform.hash);
    assert!(
        aware.report.makespan_secs <= hash.report.makespan_secs,
        "uniform matrix: aware makespan {} > hash {}",
        aware.report.makespan_secs,
        hash.report.makespan_secs
    );
    assert!(
        aware.reduce_imbalance() <= hash.reduce_imbalance(),
        "uniform matrix: aware reduce imbalance {:.3} > hash {:.3}",
        aware.reduce_imbalance(),
        hash.reduce_imbalance()
    );
}
