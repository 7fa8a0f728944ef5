//! Reproducibility: the whole stack — generators, DFS placement, scan,
//! scheduling, simulation — is exactly deterministic under fixed seeds.

use datanet::{ElasticMapArray, MetaStore, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_bench::{github_dataset, movie_dataset, NODES};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_mapreduce::{
    run_pipeline, run_pipeline_faulty, run_pipeline_faulty_traced, run_pipeline_traced,
    run_selection, run_selection_faulty, run_selection_faulty_traced, run_selection_resilient,
    run_selection_resilient_traced, run_selection_traced, AnalysisConfig, DataNetScheduler,
    FaultConfig, LocalityScheduler, SelectionConfig,
};
use datanet_obs::Recorder;

#[test]
fn movie_pipeline_is_bitwise_reproducible() {
    let run = || {
        let (dfs, catalog) = movie_dataset(NODES);
        let hot = catalog.most_reviewed();
        let mut sched = LocalityScheduler::new(&dfs);
        run_pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn datanet_pipeline_is_bitwise_reproducible() {
    let run = || {
        let (dfs, catalog) = movie_dataset(NODES);
        let hot = catalog.most_reviewed();
        let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
        let mut sched = DataNetScheduler::new(&dfs, &view);
        run_pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_scan_is_deterministic() {
    // Rayon parallelism must not leak into results: parallel and sequential
    // builds answer every query identically and occupy the same memory.
    // (HashMap iteration order is instance-specific, so we compare
    // semantics, not serialised bytes.)
    let (dfs, catalog) = movie_dataset(NODES);
    let par = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let seq = ElasticMapArray::build_sequential(&dfs, &Separation::Alpha(0.3));
    assert_eq!(par.len(), seq.len());
    assert_eq!(par.memory_bytes(), seq.memory_bytes());
    for (movie, _) in catalog.by_size_desc().into_iter().take(200) {
        for b in dfs.blocks() {
            assert_eq!(par.query(b.id(), movie), seq.query(b.id(), movie));
        }
        assert_eq!(par.view(movie), seq.view(movie));
    }
}

// ---------------------------------------------------------------------------
// Traced twins: every `*_traced` entry point must be observation-transparent.
// The recorder may watch, but never steer — results are bit-identical whether
// tracing is disabled (`Recorder::off()`), active, or the untraced function
// is called instead; and an active recorder closes every span it opens.

#[test]
fn traced_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let run_untraced = || {
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection(&dfs, &truth, &mut sched, &SelectionConfig::default())
    };
    let run_traced = |rec: &Recorder| {
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection_traced(&dfs, &truth, &mut sched, &SelectionConfig::default(), rec)
    };
    let plain = run_untraced();
    assert_eq!(plain, run_traced(&Recorder::off()));
    let rec = Recorder::new();
    assert_eq!(plain, run_traced(&rec));
    let trace = rec.take();
    assert_eq!(trace.unclosed_spans(), 0);
    assert!(trace.sim_end_us() > 0, "an active recorder saw the run");
}

#[test]
fn traced_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let view = arr.view(hot);
    let run_untraced = || {
        let mut sched = DataNetScheduler::new(&dfs, &view);
        run_pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    };
    let run_traced = |rec: &Recorder| {
        let mut sched = DataNetScheduler::new(&dfs, &view);
        run_pipeline_traced(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
            rec,
        )
    };
    let plain = run_untraced();
    assert_eq!(plain, run_traced(&Recorder::off()));
    let rec = Recorder::new();
    assert_eq!(plain, run_traced(&rec));
    assert_eq!(rec.take().unclosed_spans(), 0);
}

#[test]
fn traced_faulty_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    let faults = || {
        FaultConfig::new(
            FaultPlan::none(NODES as usize)
                .crash(1, SimTime::from_micros(5_000))
                .slow(
                    2,
                    SimTime::from_micros(0),
                    SimTime::from_micros(50_000),
                    3.0,
                ),
        )
    };
    let run_untraced = || {
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection_faulty(
            &dfs,
            &truth,
            &mut sched,
            &SelectionConfig::default(),
            &faults(),
        )
    };
    let run_traced = |rec: &Recorder| {
        let mut sched = LocalityScheduler::new(&dfs);
        run_selection_faulty_traced(
            &dfs,
            &truth,
            &mut sched,
            &SelectionConfig::default(),
            &faults(),
            rec,
        )
    };
    let plain = run_untraced();
    assert_eq!(
        plain.faults.crashed_nodes,
        vec![1],
        "the scripted crash must actually fire"
    );
    assert_eq!(plain, run_traced(&Recorder::off()));
    let rec = Recorder::new();
    assert_eq!(plain, run_traced(&rec));
    assert_eq!(rec.take().unclosed_spans(), 0);
}

#[test]
fn traced_faulty_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let faults =
        || FaultConfig::new(FaultPlan::none(NODES as usize).crash(2, SimTime::from_micros(8_000)));
    let run_untraced = || {
        let mut sched = LocalityScheduler::new(&dfs);
        run_pipeline_faulty(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
            &faults(),
        )
    };
    let run_traced = |rec: &Recorder| {
        let mut sched = LocalityScheduler::new(&dfs);
        run_pipeline_faulty_traced(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
            &faults(),
            rec,
        )
    };
    let plain = run_untraced();
    assert_eq!(plain, run_traced(&Recorder::off()));
    let rec = Recorder::new();
    assert_eq!(plain, run_traced(&rec));
    assert_eq!(rec.take().unclosed_spans(), 0);
}

#[test]
fn traced_resilient_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let base = std::env::temp_dir().join(format!("datanet-det-twin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs = [base.join("a"), base.join("b")];
    let refs: Vec<&std::path::Path> = dirs.iter().map(|d| d.as_path()).collect();
    MetaStore::save_replicated(&arr, &refs, 8).expect("save");
    // Each run opens its own store: reads populate the shard cache, so a
    // shared handle would not be a fair twin comparison.
    let open = || MetaStore::open_replicated(&refs, 2).expect("open");
    let plain = {
        let mut store = open();
        run_selection_resilient(&dfs, hot, &mut store, &SelectionConfig::default(), None)
    };
    let run_traced = |rec: &Recorder| {
        let mut store = open();
        run_selection_resilient_traced(
            &dfs,
            hot,
            &mut store,
            &SelectionConfig::default(),
            None,
            rec,
        )
    };
    assert_eq!(plain, run_traced(&Recorder::off()));
    let rec = Recorder::new();
    assert_eq!(plain, run_traced(&rec));
    assert_eq!(rec.take().unclosed_spans(), 0);
    std::fs::remove_dir_all(&base).expect("cleanup");
}

#[test]
fn github_dataset_is_reproducible() {
    let a = github_dataset(NODES);
    let b = github_dataset(NODES);
    assert_eq!(a.namenode(), b.namenode());
    assert_eq!(a.total_bytes(), b.total_bytes());
    for (ba, bb) in a.blocks().iter().zip(b.blocks()) {
        assert_eq!(ba, bb);
    }
}

// ---------------------------------------------------------------------------
// Engine characterisation: every run form the engine offers, recorder off and
// on, over the whole sim-check corpus, pinned by CRC in
// `fixtures/engine_digests.txt`. A refactor of the engine may change the
// *calls* below; it may not change one digest.

mod engine_digests {
    use datanet::planner::FordFulkersonPlanner;
    use datanet::store::crc32;
    use datanet::{plan_aggregation, ElasticMapArray, MetaStore, Separation};
    use datanet_analytics::profiles::word_count_profile;
    use datanet_check::Scenario;
    use datanet_cluster::{DetectorConfig, FaultPlan, NodeSpec, SimTime};
    use datanet_dfs::NodeId;
    use datanet_integration::testkit::ReplicaDirs;
    use datanet_mapreduce::{
        range_matrix_estimate, range_matrix_truth, run_analysis, run_analysis_aggregated,
        run_analysis_aggregated_traced, run_analysis_hetero, run_analysis_shuffled,
        run_analysis_shuffled_traced, run_analysis_surviving, run_analysis_surviving_traced,
        run_analysis_traced, run_pipeline, run_pipeline_faulty, run_pipeline_faulty_traced,
        run_pipeline_traced, run_selection, run_selection_faulty, run_selection_faulty_traced,
        run_selection_resilient, run_selection_resilient_traced, run_selection_traced,
        AnalysisConfig, DataNetScheduler, DelayScheduler, FaultConfig, LocalityScheduler,
        MapScheduler, PlannedScheduler, SelectionConfig, ShufflePlan, ShufflePlanner,
    };
    use datanet_obs::{Domain, Recorder};
    use std::fmt::{Debug, Write};

    /// What one run looked like from outside: its outcome and, under a
    /// live recorder, everything it recorded that is a function of the
    /// simulation (wall-clock store spans count, but their times do not).
    fn observe<O: Debug>(log: &mut String, out: &O, rec: &Recorder) {
        let t = rec.take();
        assert_eq!(t.unclosed_spans(), 0, "a run left a span open");
        let sim_spans: Vec<_> = t.spans.iter().filter(|s| s.domain == Domain::Sim).collect();
        let sim_instants: Vec<_> = t
            .instants
            .iter()
            .filter(|i| i.domain == Domain::Sim)
            .collect();
        writeln!(
            log,
            "{out:?}|{:?}|{}|{sim_spans:?}|{sim_instants:?}|{:?}",
            t.counters,
            t.spans.len(),
            t.hists
        )
        .expect("write to a String");
    }

    /// The digests of one corpus world, one `group=crc` per family of forms.
    fn digests_of(seed: u64) -> String {
        let sc = Scenario::from_seed(seed);
        let dfs = sc.build_dfs();
        let m = sc.nodes as usize;
        let target = sc.target_id();
        let truth = dfs.subdataset_distribution(target);
        let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha));
        let view = arr.view(target);
        let plan = FordFulkersonPlanner::new(&dfs, &view).plan();
        let sel = SelectionConfig::default();
        let ana = AnalysisConfig::default();
        let job = word_count_profile();
        let schedulers = |i: usize| -> Box<dyn MapScheduler + '_> {
            match i {
                0 => Box::new(LocalityScheduler::new(&dfs)),
                1 => Box::new(DelayScheduler::new(&dfs, 2)),
                2 => Box::new(DataNetScheduler::new(&dfs, &view)),
                _ => Box::new(PlannedScheduler::new(&plan, dfs.namenode())),
            }
        };
        let recorders = || [Recorder::off(), Recorder::new()];
        let mut line = format!("{seed}");
        let mut close = |group: &str, log: &mut String| {
            write!(line, " {group}={:08x}", crc32(log.as_bytes())).expect("write to a String");
            log.clear();
        };
        let mut log = String::new();

        // Healthy selection, all four schedulers.
        for i in 0..4 {
            let out = run_selection(&dfs, &truth, schedulers(i).as_mut(), &sel);
            observe(&mut log, &out, &Recorder::off());
            for rec in recorders() {
                let out = run_selection_traced(&dfs, &truth, schedulers(i).as_mut(), &sel, &rec);
                observe(&mut log, &out, &rec);
            }
        }
        close("healthy", &mut log);

        // Fault plans: empty, one mid-phase crash beside a slow window and
        // a degraded NIC (oracle and detector-driven), and the scenario's own.
        let healthy_end = run_selection(&dfs, &truth, schedulers(0).as_mut(), &sel).end;
        let dead = 1 + (seed % (m as u64 - 1)) as usize;
        let scripted = FaultPlan::none(m)
            .crash(dead, SimTime::from_micros(healthy_end.as_micros() / 2))
            .slow(0, SimTime::ZERO, healthy_end, 2.5)
            .degrade_nic(m - 1, 0.5);
        let mut fault_cfgs = vec![
            FaultConfig::new(FaultPlan::none(m)),
            FaultConfig::new(scripted.clone()),
            FaultConfig::with_detection(scripted.clone(), DetectorConfig::default()),
        ];
        if sc.has_faults() {
            fault_cfgs.push(sc.fault_config());
        }
        for fc in &fault_cfgs {
            for i in 0..4 {
                let out = run_selection_faulty(&dfs, &truth, schedulers(i).as_mut(), &sel, fc);
                observe(&mut log, &out, &Recorder::off());
                for rec in recorders() {
                    let out = run_selection_faulty_traced(
                        &dfs,
                        &truth,
                        schedulers(i).as_mut(),
                        &sel,
                        fc,
                        &rec,
                    );
                    observe(&mut log, &out, &rec);
                }
            }
        }
        close("faulty", &mut log);

        // Resilient selection off a store whose first shard is corrupt on
        // every replica, healthy and under the scripted crash. Each run
        // opens its own handle: reads warm the shard cache.
        let dirs = ReplicaDirs::new("engine-digests", 2);
        MetaStore::save_replicated(&arr, &dirs.paths(), sc.shard_blocks).expect("save");
        for dir in dirs.paths() {
            std::fs::write(dir.join("shard-0000.json"), b"garbage").expect("corrupt");
        }
        let open = || MetaStore::open_replicated(&dirs.paths(), 4).expect("open");
        for fc in [None, Some(&fault_cfgs[1])] {
            let out = run_selection_resilient(&dfs, target, &mut open(), &sel, fc);
            observe(&mut log, &out, &Recorder::off());
            for rec in recorders() {
                let out = run_selection_resilient_traced(&dfs, target, &mut open(), &sel, fc, &rec);
                observe(&mut log, &out, &rec);
            }
        }
        close("resilient", &mut log);

        // Analysis over the partitions the DataNet selection left behind:
        // default, aggregated, surviving, heterogeneous, shuffled.
        let healthy = run_selection(&dfs, &truth, schedulers(2).as_mut(), &sel);
        let crashed =
            run_selection_faulty(&dfs, &truth, schedulers(2).as_mut(), &sel, &fault_cfgs[1]);
        let filtered = &healthy.per_node_bytes;
        let base = healthy.end;
        observe(
            &mut log,
            &run_analysis(filtered, &job, &ana),
            &Recorder::off(),
        );
        for rec in recorders() {
            let out = run_analysis_traced(filtered, &job, &ana, base, &rec);
            observe(&mut log, &out, &rec);
        }
        let map_out: Vec<u64> = filtered.iter().map(|&b| job.map_output_bytes(b)).collect();
        let agg = plan_aggregation(&map_out, (m / 2).max(1), 2.0);
        observe(
            &mut log,
            &run_analysis_aggregated(filtered, &job, &ana, &agg),
            &Recorder::off(),
        );
        for rec in recorders() {
            let out = run_analysis_aggregated_traced(filtered, &job, &ana, &agg, base, &rec);
            observe(&mut log, &out, &rec);
        }
        let alive: Vec<bool> = (0..m)
            .map(|n| !crashed.faults.crashed_nodes.contains(&n))
            .collect();
        observe(
            &mut log,
            &run_analysis_surviving(&crashed.per_node_bytes, &job, &ana, &alive),
            &Recorder::off(),
        );
        for rec in recorders() {
            let out = run_analysis_surviving_traced(
                &crashed.per_node_bytes,
                &job,
                &ana,
                &alive,
                crashed.end,
                &rec,
            );
            observe(&mut log, &out, &rec);
        }
        let specs: Vec<NodeSpec> = (0..m)
            .map(|n| NodeSpec {
                cpu_bps: NodeSpec::marmot().cpu_bps / (1 + n as u64 % 2),
                ..NodeSpec::marmot()
            })
            .collect();
        observe(
            &mut log,
            &run_analysis_hetero(filtered, &job, &ana, &specs),
            &Recorder::off(),
        );
        let ranges = sc.shuffle.key_ranges;
        let matrix = range_matrix_truth(&dfs, target, ranges);
        let aware = ShufflePlanner::new(sc.shuffle.split_factor)
            .plan(&range_matrix_estimate(&dfs, &view, ranges));
        let hash = ShufflePlan::hash(ranges, (0..m as u32).map(NodeId).collect());
        for plan in [&aware, &hash] {
            observe(
                &mut log,
                &run_analysis_shuffled(&matrix, &job, &ana, plan),
                &Recorder::off(),
            );
            for rec in recorders() {
                let out = run_analysis_shuffled_traced(&matrix, &job, &ana, plan, base, &rec);
                observe(&mut log, &out, &rec);
            }
        }
        close("analysis", &mut log);

        // Both pipelines.
        let out = run_pipeline(&dfs, target, schedulers(2).as_mut(), &job, &sel, &ana);
        observe(&mut log, &out, &Recorder::off());
        for rec in recorders() {
            let out =
                run_pipeline_traced(&dfs, target, schedulers(2).as_mut(), &job, &sel, &ana, &rec);
            observe(&mut log, &out, &rec);
        }
        for fc in &fault_cfgs[1..] {
            let out =
                run_pipeline_faulty(&dfs, target, schedulers(2).as_mut(), &job, &sel, &ana, fc);
            observe(&mut log, &out, &Recorder::off());
            for rec in recorders() {
                let out = run_pipeline_faulty_traced(
                    &dfs,
                    target,
                    schedulers(2).as_mut(),
                    &job,
                    &sel,
                    &ana,
                    fc,
                    &rec,
                );
                observe(&mut log, &out, &rec);
            }
        }
        close("pipeline", &mut log);
        line
    }

    fn corpus_digests() -> Vec<String> {
        include_str!("corpus/seeds.txt")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| digests_of(l.parse().expect("corpus lines are u64 seeds")))
            .collect()
    }

    #[test]
    fn engine_forms_match_the_committed_digests() {
        let got = corpus_digests();
        let want: Vec<&str> = include_str!("fixtures/engine_digests.txt")
            .lines()
            .collect();
        assert_eq!(got.len(), want.len(), "one fixture line per corpus seed");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g, w, "engine digests changed (seed, then group=crc)");
        }
    }

    /// Regenerates the fixture: `cargo test -p datanet-integration --test
    /// determinism -- --ignored write_engine_digests`. Only ever at a
    /// commit whose engine is the reference.
    #[test]
    #[ignore = "rewrites tests/fixtures/engine_digests.txt"]
    fn write_engine_digests() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/engine_digests.txt"
        );
        std::fs::write(path, corpus_digests().join("\n") + "\n").expect("write fixture");
    }
}
