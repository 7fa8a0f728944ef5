//! End-to-end integration: generate → store → scan → schedule → execute,
//! asserting the paper's comparative claims hold in the reproduction —
//! plus the checkpointed pipeline executor's crash/resume properties.

use datanet::{checkpoint, ElasticMapArray, MetaStore, Separation};
use datanet_analytics::profiles::{
    histogram_profile, moving_average_profile, top_k_profile, word_count_profile,
};
use datanet_analytics::{
    histogram_pipeline, join_word_count_pipeline, moving_average_pipeline, top_k_pipeline,
    word_count_pipeline, CrashPoint, MetaPlane, Pipeline, PipelineEnv, ShuffleParams, StageOp,
    WorkingState,
};
use datanet_check::Scenario;
use datanet_dfs::SubDatasetId;
use datanet_integration::testkit::{expected_resume_from, write_prefixes, ReplicaDirs as TmpDirs};
use datanet_mapreduce::{
    run_analysis, run_selection, AnalysisConfig, DataNetScheduler, LocalityScheduler,
    SelectionConfig,
};
use datanet_obs::Recorder;
use datanet_workloads::{movie_dataset, NODES};

/// Run selection under both schedulers once (shared by several tests).
fn both_selections() -> (
    datanet_mapreduce::SelectionOutcome,
    datanet_mapreduce::SelectionOutcome,
) {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let sel = SelectionConfig::default();
    let mut base = LocalityScheduler::new(&dfs);
    let without = run_selection(&dfs, &truth, &mut base, &sel);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run_selection(&dfs, &truth, &mut dn, &sel);
    (without, with)
}

#[test]
fn datanet_improves_every_job_makespan() {
    let (without, with) = both_selections();
    let ana = AnalysisConfig::default();
    for job in [
        moving_average_profile(),
        word_count_profile(),
        histogram_profile(),
        top_k_profile(),
    ] {
        let jw = run_analysis(&without.per_node_bytes, &job, &ana);
        let jd = run_analysis(&with.per_node_bytes, &job, &ana);
        assert!(
            jd.makespan_secs < jw.makespan_secs,
            "{}: with {} !< without {}",
            job.name,
            jd.makespan_secs,
            jw.makespan_secs
        );
    }
}

#[test]
fn improvement_grows_with_compute_intensity() {
    // Figure 5(a)'s ordering: MovingAverage < WordCount <= Histogram < TopK.
    let (without, with) = both_selections();
    let ana = AnalysisConfig::default();
    let improvement = |job: &datanet_mapreduce::JobProfile| {
        let jw = run_analysis(&without.per_node_bytes, job, &ana);
        let jd = run_analysis(&with.per_node_bytes, job, &ana);
        1.0 - jd.makespan_secs / jw.makespan_secs
    };
    let ma = improvement(&moving_average_profile());
    let wc = improvement(&word_count_profile());
    let tk = improvement(&top_k_profile());
    assert!(ma < wc, "MovingAverage {ma} !< WordCount {wc}");
    assert!(wc < tk, "WordCount {wc} !< TopK {tk}");
    // Magnitudes in the paper's neighbourhood (20%–50%).
    assert!((0.10..0.60).contains(&ma), "MA improvement {ma}");
    assert!((0.25..0.60).contains(&tk), "TopK improvement {tk}");
}

#[test]
fn workload_conservation_across_schedulers() {
    let (without, with) = both_selections();
    assert_eq!(
        without.per_node_bytes.iter().sum::<u64>(),
        with.per_node_bytes.iter().sum::<u64>(),
        "both schedulers must filter exactly the same sub-dataset bytes"
    );
}

#[test]
fn datanet_balances_and_baseline_does_not() {
    let (without, with) = both_selections();
    assert!(
        without.imbalance() > 1.5,
        "clustered data should imbalance the baseline, got {}",
        without.imbalance()
    );
    assert!(
        with.imbalance() < 1.15,
        "DataNet should balance within ~15%, got {}",
        with.imbalance()
    );
}

#[test]
fn datanet_reads_fewer_blocks() {
    // ElasticMap lets the selection skip blocks without target data.
    let (without, with) = both_selections();
    assert!(with.bytes_read <= without.bytes_read);
    assert!(with.total_tasks <= without.total_tasks);
}

#[test]
fn shuffle_gap_shrinks_with_datanet() {
    // Figure 7: without DataNet the shuffle phase takes several times
    // longer because reducers wait for straggler maps.
    let (without, with) = both_selections();
    let ana = AnalysisConfig::default();
    let job = word_count_profile();
    let jw = run_analysis(&without.per_node_bytes, &job, &ana);
    let jd = run_analysis(&with.per_node_bytes, &job, &ana);
    assert!(
        jw.shuffle_summary().max() > 2.0 * jd.shuffle_summary().max(),
        "shuffle without {} vs with {}",
        jw.shuffle_summary().max(),
        jd.shuffle_summary().max()
    );
}

/// Satellite property, integration level: for *every* stage of a
/// multi-stage pipeline and *every* write prefix of that stage's
/// checkpoint plan, a crash at that point leaves the previous stage
/// durable, and `Pipeline::resume` reproduces the uninterrupted run's
/// data product and checkpoint ledger exactly — including under scripted
/// node crashes and degraded-cluster re-planning (seeded fault plans).
#[test]
fn crash_at_every_stage_and_write_prefix_resumes_exactly() {
    for seed in [3u64, 9, 17] {
        let sc = Scenario::from_seed(seed);
        let dfs = sc.build_dfs();
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
        let other = SubDatasetId((sc.target + 1) % sc.subdatasets);
        let pipe = Pipeline::new(join_word_count_pipeline(sc.target_id(), other));
        let mk_env = || {
            let mut env = PipelineEnv::new(&dfs, &arr);
            env.faults = sc.has_faults().then(|| sc.fault_config());
            env
        };

        let baseline_dirs = TmpDirs::new("baseline", 2);
        let baseline = pipe
            .run(&mut mk_env(), &baseline_dirs.paths(), &Recorder::off())
            .expect("uninterrupted run");
        let baseline_ledger = checkpoint::ledger(&baseline_dirs.paths()).expect("baseline ledger");
        assert_eq!(baseline_ledger.len(), pipe.len());

        for stage in 0..pipe.len() {
            // Every checkpoint plan writes payload + stage manifest + live
            // manifest; sweep every prefix including "all of them landed".
            for prefix in write_prefixes(3) {
                let dirs = TmpDirs::new("crash", 2);
                let int = pipe
                    .run_interrupted(
                        &mut mk_env(),
                        &dirs.paths(),
                        CrashPoint {
                            stage,
                            write_prefix: prefix as u64,
                        },
                        &Recorder::off(),
                    )
                    .expect("interrupted run");
                assert_eq!(int.crash_stage, stage);
                assert_eq!(int.applied_writes, prefix);

                let resumed = pipe
                    .resume(&mut mk_env(), &dirs.paths(), &Recorder::off())
                    .expect("resume after crash");
                assert_eq!(
                    resumed.resumed_from,
                    expected_resume_from(stage, int.applied_writes, int.plan_writes),
                    "seed {seed}: crash {prefix}/3 writes into stage {stage}"
                );
                assert_eq!(
                    resumed.data_fingerprint(),
                    baseline.data_fingerprint(),
                    "seed {seed}: crash {prefix}/3 writes into stage {stage} \
                     changed the data product"
                );
                assert_eq!(
                    checkpoint::ledger(&dirs.paths()).expect("resumed ledger"),
                    baseline_ledger,
                    "seed {seed}: crash {prefix}/3 writes into stage {stage} \
                     changed the durable ledger"
                );
            }
        }
    }
}

/// Resume on a store with no durable checkpoint is a fresh run; resume on
/// a fully-durable store re-executes nothing and keeps the output.
#[test]
fn resume_edges_fresh_store_and_complete_store() {
    let sc = Scenario::from_seed(5);
    let dfs = sc.build_dfs();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
    let pipe = Pipeline::new(word_count_pipeline(sc.target_id()));

    let dirs = TmpDirs::new("edges", 2);
    let mut env = PipelineEnv::new(&dfs, &arr);
    let fresh = pipe
        .resume(&mut env, &dirs.paths(), &Recorder::off())
        .expect("resume on empty dirs runs fresh");
    assert_eq!(fresh.resumed_from, None);
    assert_eq!(fresh.stages.len(), pipe.len());

    let again = pipe
        .resume(&mut env, &dirs.paths(), &Recorder::off())
        .expect("resume on a complete store");
    assert_eq!(again.resumed_from, Some(pipe.len() as u64 - 1));
    assert!(again.stages.is_empty(), "nothing left to re-execute");
    assert_eq!(again.output, fresh.output);
}

/// A working state is serialised once and the bytes are the same: for the
/// five stock specs under aware, hash and no shuffle routing, every stage's
/// `checkpoint_crc` is the CRC of the canonical JSON of the state an
/// independent stage-by-stage replay arrives at — also for the output stage,
/// which re-commits the aggregate stage's bytes — every replica holds exactly
/// those bytes under a manifest carrying their CRC, `output.digest` is the last
/// of them, and a resume landing after any stage, the last included, reports
/// the uninterrupted run's output.
#[test]
fn each_state_is_serialised_once_and_every_commit_carries_its_crc() {
    let sc = Scenario::from_seed(5);
    let dfs = sc.build_dfs();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
    let a = sc.target_id();
    let records_of = |s: u64| -> Vec<datanet_dfs::Record> {
        dfs.blocks()
            .iter()
            .flat_map(|blk| blk.filter(SubDatasetId(s)).copied())
            .collect()
    };
    let b = SubDatasetId((sc.target + 1) % sc.subdatasets);
    let routings = [None, Some(true), Some(false)].map(|aware| {
        aware.map(|aware| ShuffleParams {
            aware,
            ..ShuffleParams::default()
        })
    });
    for spec in [
        word_count_pipeline(a),
        histogram_pipeline(a),
        top_k_pipeline(a),
        moving_average_pipeline(a, 3_600),
        join_word_count_pipeline(a, b),
    ] {
        let pipe = Pipeline::new(spec);
        for shuffle in routings {
            let what = format!("{} with shuffle {shuffle:?}", pipe.spec().name);
            let mk_env = || {
                let mut env = PipelineEnv::new(&dfs, &arr);
                env.shuffle = shuffle;
                env
            };
            let dirs = TmpDirs::new("once", 2);
            let run = pipe
                .run(&mut mk_env(), &dirs.paths(), &Recorder::off())
                .expect("uninterrupted run");

            let mut state = WorkingState::default();
            for (op, stage) in pipe.spec().seq.iter().zip(&run.stages) {
                match op {
                    StageOp::Filter(s) => state.records = records_of(*s),
                    StageOp::Append(s) => state.records.extend(records_of(*s)),
                    StageOp::Join(s) => {
                        let times: Vec<u64> = records_of(*s).iter().map(|r| r.timestamp).collect();
                        state.records.retain(|r| times.contains(&r.timestamp));
                    }
                    StageOp::Aggregate(job) => state.aggregates = job.run(&state.records),
                    StageOp::Output(_) => {}
                }
                if op.subdataset().is_some() {
                    state.aggregates.clear();
                }
                let bytes = serde_json::to_vec(&state).expect("state serialises");
                assert_eq!(
                    stage.checkpoint_crc,
                    datanet::store::crc32(&bytes),
                    "{what}: stage {}",
                    stage.label
                );
                // What each replica holds, under the on-disk names: those
                // bytes, under a manifest whose CRC is the file's.
                for dir in dirs.paths() {
                    let where_ = format!("{what}: stage {} in {}", stage.label, dir.display());
                    let file = std::fs::read(dir.join(format!("stage-{:04}.json", stage.index)))
                        .expect("stage file");
                    assert!(file == bytes, "{where_}: stage file differs");
                    let manifest: checkpoint::CheckpointManifest = serde_json::from_slice(
                        &std::fs::read(
                            dir.join(format!("pipeline-manifest-e{:04}.json", stage.index)),
                        )
                        .expect("stage manifest"),
                    )
                    .expect("manifest decodes");
                    assert_eq!(
                        manifest.payload_crc,
                        datanet::store::crc32(&file),
                        "{where_}"
                    );
                }
            }
            assert_eq!(run.stages.len(), pipe.len());
            // (Scenario event times are unique, so the join keeps nothing.)
            let joins = pipe
                .spec()
                .seq
                .iter()
                .any(|op| matches!(op, StageOp::Join(_)));
            assert!(joins || !run.output.aggregates.is_empty(), "{what}");
            assert_eq!(
                run.output.digest,
                run.stages.last().expect("stages ran").checkpoint_crc,
                "{what}"
            );

            for durable in 0..pipe.len() {
                let dirs = TmpDirs::new("once-resume", 2);
                if durable + 1 == pipe.len() {
                    pipe.run(&mut mk_env(), &dirs.paths(), &Recorder::off())
                        .expect("complete run");
                } else {
                    // No write of the next stage's commit lands.
                    let crash = CrashPoint {
                        stage: durable + 1,
                        write_prefix: 0,
                    };
                    pipe.run_interrupted(&mut mk_env(), &dirs.paths(), crash, &Recorder::off())
                        .expect("interrupted run");
                }
                let resumed = pipe
                    .resume(&mut mk_env(), &dirs.paths(), &Recorder::off())
                    .expect("resume");
                assert_eq!(resumed.resumed_from, Some(durable as u64), "{what}");
                assert_eq!(resumed.stages.len(), pipe.len() - 1 - durable, "{what}");
                assert_eq!(
                    resumed.output, run.output,
                    "{what}: resumed after {durable}"
                );
            }
        }
    }
}

/// Planning off a replicated `MetaStore` (`MetaPlane::Store`): a healthy
/// store plans exactly what the in-memory array plans, and a store that
/// lost one shard *and* its summary on every replica steps down the
/// degradation ladder — the lost span is scanned through the rung-3
/// fallback, so the data product does not move.
#[test]
fn store_backed_pipeline_matches_the_array_and_degrades_without_changing_the_answer() {
    let sc = Scenario::from_seed(5);
    let dfs = sc.build_dfs();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
    let pipe = Pipeline::new(word_count_pipeline(sc.target_id()));
    let from_array = pipe
        .run(
            &mut PipelineEnv::new(&dfs, &arr),
            &TmpDirs::new("plane-array", 2).paths(),
            &Recorder::off(),
        )
        .expect("array-planned run");

    let meta = TmpDirs::new("plane-meta", 2);
    MetaStore::save_replicated(&arr, &meta.paths(), 2).expect("save");
    let run_from_store = |tag: &str| {
        let mut store = MetaStore::open_replicated(&meta.paths(), 2).expect("open");
        let mut env = PipelineEnv::new(&dfs, &arr);
        env.meta = MetaPlane::Store(&mut store);
        pipe.run(&mut env, &TmpDirs::new(tag, 2).paths(), &Recorder::off())
            .expect("store-planned run")
    };

    let healthy = run_from_store("plane-healthy");
    assert_eq!(healthy.data_fingerprint(), from_array.data_fingerprint());
    assert_eq!(healthy.stages.len(), from_array.stages.len());
    for (h, a) in healthy.stages.iter().zip(&from_array.stages) {
        assert_eq!(h.sim_secs, a.sim_secs, "stage {}", a.label);
        assert!(!h.degraded, "stage {}", h.label);
        assert_eq!(h.unknown_blocks, 0);
    }

    for dir in meta.paths() {
        std::fs::remove_file(dir.join("shard-0000.json")).expect("shard 0 exists");
        std::fs::remove_file(dir.join("summary-0000.json")).expect("summary 0 exists");
    }
    let degraded = run_from_store("plane-degraded");
    assert!(degraded.stages.iter().any(|s| s.degraded));
    assert!(degraded.stages.iter().any(|s| s.unknown_blocks > 0));
    assert_eq!(degraded.data_fingerprint(), from_array.data_fingerprint());
}

/// A differently-named pipeline refuses another pipeline's checkpoints
/// instead of silently resuming into the wrong computation.
#[test]
fn resume_rejects_a_foreign_pipeline_store() {
    let sc = Scenario::from_seed(5);
    let dfs = sc.build_dfs();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
    let dirs = TmpDirs::new("foreign", 2);
    let mut env = PipelineEnv::new(&dfs, &arr);
    Pipeline::new(word_count_pipeline(sc.target_id()))
        .run(&mut env, &dirs.paths(), &Recorder::off())
        .expect("word-count run");
    let err = Pipeline::new(join_word_count_pipeline(
        sc.target_id(),
        SubDatasetId((sc.target + 1) % sc.subdatasets),
    ))
    .resume(&mut env, &dirs.paths(), &Recorder::off())
    .expect_err("foreign checkpoints must be rejected");
    assert!(format!("{err}").contains("word-count"), "{err}");
}

/// The movie-dataset word count runs as a checkpointed pipeline: the
/// durable ledger is the full stage sequence and the traced run matches
/// the untraced one on the data plane.
#[test]
fn movie_word_count_pipeline_checkpoints_and_traces() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let pipe = Pipeline::new(word_count_pipeline(hot));
    let dirs = TmpDirs::new("movies", 2);
    let mut env = PipelineEnv::new(&dfs, &arr);
    let off = pipe
        .run(&mut env, &dirs.paths(), &Recorder::off())
        .expect("untraced run");
    assert!(off.stages.iter().all(|s| s.obs.is_none()));
    assert!(off.output.aggregates.iter().any(|kv| kv.value > 0.0));

    let ledger = checkpoint::ledger(&dirs.paths()).expect("ledger");
    assert_eq!(ledger.len(), pipe.len());
    for (k, m) in ledger.iter().enumerate() {
        assert_eq!(m.last_completed_operation, k as u64);
        assert_eq!(m.pipeline, "word-count");
    }

    let rec = Recorder::new();
    let dirs2 = TmpDirs::new("movies-traced", 2);
    let on = pipe
        .run(&mut env, &dirs2.paths(), &rec)
        .expect("traced run");
    assert!(on.stages.iter().all(|s| s.obs.is_some()));
    assert_eq!(on.data_fingerprint(), off.data_fingerprint());
    let data = rec.take();
    assert_eq!(data.unclosed_spans(), 0);
    assert!(
        data.spans.iter().any(|s| s.name == "commit"),
        "checkpoint commits must appear on the observability plane"
    );
}

#[test]
fn map_time_spread_mirrors_byte_spread() {
    // Figure 6: per-node map times under the imbalanced selection spread by
    // roughly the byte ratio for compute-bound jobs.
    let (without, _) = both_selections();
    let ana = AnalysisConfig::default();
    let rep = run_analysis(&without.per_node_bytes, &top_k_profile(), &ana);
    let time_ratio = rep.map_summary().max() / rep.map_summary().min();
    assert!(
        time_ratio > 3.0,
        "expected a pronounced straggler, got {time_ratio}"
    );
}
