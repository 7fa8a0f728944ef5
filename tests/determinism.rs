//! Reproducibility: the whole stack — generators, DFS placement, scan,
//! scheduling, simulation — is exactly deterministic under fixed seeds.

use datanet::{ElasticMapArray, MetaStore, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_cluster::{FaultPlan, SimTime};
use datanet_integration::testkit::ReplicaDirs;
use datanet_mapreduce::{
    AnalysisConfig, DataNetScheduler, Exec, FaultConfig, LocalityScheduler, SelectionConfig,
};
use datanet_obs::{Recorder, TraceData};
use datanet_workloads::{github_dataset, movie_dataset, NODES};

#[test]
fn movie_pipeline_is_bitwise_reproducible() {
    let run = || {
        let (dfs, catalog) = movie_dataset(NODES);
        let hot = catalog.most_reviewed();
        let mut sched = LocalityScheduler::new(&dfs);
        Exec::default().pipeline(
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
        Exec::default().pipeline(
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

// ---------------------------------------------------------------------------
// Recorder on/off transparency: the recorder may watch, but never steer. Every
// run form returns bit-identical results from the all-defaults `Exec`, from an
// explicit `Recorder::off()` and from a live recorder — and a live recorder
// closes every span it opens. One check, one form per test.

fn assert_recorder_transparent<O: PartialEq + std::fmt::Debug>(
    run: impl Fn(Exec) -> O,
) -> TraceData {
    let plain = run(Exec::default());
    assert_eq!(plain, run(Exec::default().rec(&Recorder::off())));
    let rec = Recorder::new();
    assert_eq!(plain, run(Exec::default().rec(&rec)));
    let trace = rec.take();
    assert_eq!(trace.unclosed_spans(), 0);
    trace
}

#[test]
fn traced_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let truth = dfs.subdataset_distribution(catalog.most_reviewed());
    let trace = assert_recorder_transparent(|exec| {
        let mut sched = LocalityScheduler::new(&dfs);
        exec.selection(&dfs, &truth, &mut sched, &SelectionConfig::default())
    });
    assert!(trace.sim_end_us() > 0, "an active recorder saw the run");
}

#[test]
fn traced_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    assert_recorder_transparent(|exec| {
        let mut sched = DataNetScheduler::new(&dfs, &view);
        exec.pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    });
}

#[test]
fn traced_faulty_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let truth = dfs.subdataset_distribution(catalog.most_reviewed());
    let faults = FaultConfig::new(
        FaultPlan::none(NODES as usize)
            .crash(1, SimTime::from_micros(5_000))
            .slow(2, SimTime::ZERO, SimTime::from_micros(50_000), 3.0),
    );
    let run = |exec: Exec| {
        let mut sched = LocalityScheduler::new(&dfs);
        exec.faults(&faults)
            .selection(&dfs, &truth, &mut sched, &SelectionConfig::default())
    };
    assert_eq!(
        run(Exec::default()).faults.crashed_nodes,
        vec![1],
        "the scripted crash must actually fire"
    );
    assert_recorder_transparent(run);
}

#[test]
fn traced_faulty_pipeline_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let faults =
        FaultConfig::new(FaultPlan::none(NODES as usize).crash(2, SimTime::from_micros(8_000)));
    assert_recorder_transparent(|exec| {
        let mut sched = LocalityScheduler::new(&dfs);
        exec.faults(&faults).pipeline(
            &dfs,
            hot,
            &mut sched,
            &word_count_profile(),
            &SelectionConfig::default(),
            &AnalysisConfig::default(),
        )
    });
}

#[test]
fn traced_resilient_selection_twin_matches_untraced() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let dirs = ReplicaDirs::new("det-transparency", 2);
    MetaStore::save_replicated(&arr, &dirs.paths(), 8).expect("save");
    assert_recorder_transparent(|exec| {
        // Each run opens its own store: reads populate the shard cache, so
        // a shared handle would not be a fair comparison.
        let mut store = MetaStore::open_replicated(&dirs.paths(), 2).expect("open");
        let out = exec.selection_resilient(&dfs, hot, &mut store, &SelectionConfig::default());
        // The engine only borrowed the store: a later read on the same
        // handle stays out of the finished run's recorder.
        let recorded = exec.rec.snapshot();
        store.views(&[hot]).expect("views");
        assert_eq!(exec.rec.snapshot(), recorded);
        out
    });
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
    use super::ReplicaDirs;
    use datanet::planner::FordFulkersonPlanner;
    use datanet::store::crc32;
    use datanet::{plan_aggregation, AggregationPlan, ElasticMapArray, MetaStore, Separation};
    use datanet_analytics::profiles::word_count_profile;
    use datanet_check::Scenario;
    use datanet_cluster::{FaultPlan, NodeSpec, SimTime};
    use datanet_dfs::NodeId;
    use datanet_mapreduce::{
        range_matrix_estimate, range_matrix_truth, run_selection, AnalysisConfig, DataNetScheduler,
        DelayScheduler, Exec, FaultConfig, LocalityScheduler, MapScheduler, PlannedScheduler,
        SelectionConfig, ShufflePlan, ShufflePlanner,
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

    /// One form, three log entries: the all-defaults recorder, an explicit
    /// `Recorder::off()`, a live recorder.
    fn pin<O: Debug>(log: &mut String, exec: Exec, run: impl Fn(Exec) -> O) {
        observe(log, &run(exec), &Recorder::off());
        for rec in [Recorder::off(), Recorder::new()] {
            observe(log, &run(exec.rec(&rec)), &rec);
        }
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
        let mut line = format!("{seed}");
        let mut close = |group: &str, log: &mut String| {
            write!(line, " {group}={:08x}", crc32(log.as_bytes())).expect("write to a String");
            log.clear();
        };
        let mut log = String::new();
        let exec = Exec::default();

        // Selection under all four schedulers: healthy, then under an empty
        // plan, one mid-phase crash beside a slow window and a degraded NIC
        // (oracle and detector-driven), and the scenario's own faults.
        let select = |log: &mut String, exec: Exec| {
            for i in 0..4 {
                pin(log, exec, |e| {
                    e.selection(&dfs, &truth, schedulers(i).as_mut(), &sel)
                });
            }
        };
        select(&mut log, exec);
        close("healthy", &mut log);
        let healthy_end = run_selection(&dfs, &truth, schedulers(0).as_mut(), &sel).end;
        let dead = 1 + (seed % (m as u64 - 1)) as usize;
        let scripted = FaultPlan::none(m)
            .crash(dead, SimTime::from_micros(healthy_end.as_micros() / 2))
            .slow(0, SimTime::ZERO, healthy_end, 2.5)
            .degrade_nic(m - 1, 0.5);
        let mut fault_cfgs = vec![
            FaultConfig::new(FaultPlan::none(m)),
            FaultConfig::new(scripted.clone()),
            FaultConfig::with_detection(scripted),
        ];
        if sc.has_faults() {
            fault_cfgs.push(sc.fault_config());
        }
        for fc in &fault_cfgs {
            select(&mut log, exec.faults(fc));
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
        for fc in [None, Some(&fault_cfgs[1])] {
            pin(&mut log, exec.faults(fc), |e| {
                let mut store = MetaStore::open_replicated(&dirs.paths(), 4).expect("open");
                e.selection_resilient(&dfs, target, &mut store, &sel)
            });
        }
        close("resilient", &mut log);

        // Analysis over the partitions the DataNet selection left behind,
        // based at its end: default, aggregated, surviving, heterogeneous
        // (recorder off only), shuffled.
        let healthy = run_selection(&dfs, &truth, schedulers(2).as_mut(), &sel);
        let crashed =
            exec.faults(&fault_cfgs[1])
                .selection(&dfs, &truth, schedulers(2).as_mut(), &sel);
        let filtered = &healthy.per_node_bytes;
        let uniform = AggregationPlan::uniform(m);
        let map_out: Vec<u64> = filtered.iter().map(|&b| job.map_output_bytes(b)).collect();
        let agg = plan_aggregation(&map_out, (m / 2).max(1), 2.0);
        let survivors =
            AggregationPlan::uniform_over(&crashed.per_node_bytes, &crashed.faults.crashed_nodes);
        for (sel_out, reducers) in [
            (&healthy, &uniform),
            (&healthy, &agg),
            (&crashed, &survivors),
        ] {
            pin(&mut log, exec.base(sel_out.end), |e| {
                e.analysis(&sel_out.per_node_bytes, &job, &ana, reducers, None)
            });
        }
        let specs: Vec<NodeSpec> = (0..m)
            .map(|n| NodeSpec {
                cpu_bps: NodeSpec::marmot().cpu_bps / (1 + n as u64 % 2),
                ..NodeSpec::marmot()
            })
            .collect();
        let hetero = exec.analysis(filtered, &job, &ana, &uniform, Some(&specs));
        observe(&mut log, &hetero, &Recorder::off());
        let ranges = sc.shuffle.key_ranges;
        let matrix = range_matrix_truth(&dfs, target, ranges);
        let aware = ShufflePlanner::new(sc.shuffle.split_factor)
            .plan(&range_matrix_estimate(&dfs, &view, ranges));
        let hash = ShufflePlan::hash(ranges, (0..m as u32).map(NodeId).collect());
        for plan in [&aware, &hash] {
            pin(&mut log, exec.base(healthy.end), |e| {
                e.analysis_shuffled(&matrix, &job, &ana, plan)
            });
        }
        close("analysis", &mut log);

        // The pipeline: healthy, then under each plan that scripts a fault.
        for fc in std::iter::once(None).chain(fault_cfgs[1..].iter().map(Some)) {
            pin(&mut log, exec.faults(fc), |e| {
                e.pipeline(&dfs, target, schedulers(2).as_mut(), &job, &sel, &ana)
            });
        }
        close("pipeline", &mut log);
        line
    }

    #[test]
    fn engine_forms_match_the_committed_digests() {
        let got: Vec<String> = include_str!("corpus/seeds.txt")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| digests_of(l.parse().expect("corpus lines are u64 seeds")))
            .collect();
        let got = got.join("\n") + "\n";
        assert!(
            got == include_str!("fixtures/engine_digests.txt"),
            "engine digests changed (seed, then group=crc); the engine now produces:\n{got}"
        );
    }
}
