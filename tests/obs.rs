//! Observability-plane acceptance tests (ISSUE: simulation-clock tracing
//! and metrics): a seeded faulty run must produce a Chrome-loadable trace
//! with one span per executed task and a complete
//! crash → suspicion → re-plan chain per injected crash, the
//! straggler/idler classification must agree with the recorded busy times,
//! and a recorder-off run must serialize byte-identically to a traced one.

use datanet::{ElasticMapArray, Separation};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_dfs::SubDatasetId;
use datanet_mapreduce::{
    run_selection, AnalysisConfig, DataNetScheduler, Exec, FaultConfig, MapScheduler,
    SelectionConfig,
};
use datanet_obs::{NodeClass, Recorder};
use datanet_workloads::movie_dataset;

const NODES: u32 = 8;

fn scenario() -> (datanet_dfs::Dfs, SubDatasetId, Vec<u64>) {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let truth = dfs.subdataset_distribution(hot);
    (dfs, hot, truth)
}

/// A crash of `node` halfway through the healthy phase of `probe`.
fn mid_phase_crash(
    dfs: &datanet_dfs::Dfs,
    truth: &[u64],
    probe: &mut dyn MapScheduler,
    node: usize,
) -> FaultPlan {
    let healthy = run_selection(dfs, truth, probe, &SelectionConfig::default());
    let crash_at = SimTime::from_micros(healthy.end.as_micros() / 2);
    assert!(crash_at > SimTime::ZERO, "phase must have real duration");
    FaultPlan::none(NODES as usize).crash(node, crash_at)
}

#[test]
fn traced_faulty_run_covers_every_task_and_crash() {
    let (dfs, hot, truth) = scenario();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut probe = DataNetScheduler::new(&dfs, &view);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);

    let rec = Recorder::new();
    let mut sched = DataNetScheduler::new(&dfs, &view);
    let out = Exec::default()
        .rec(&rec)
        .faults(&FaultConfig::new(plan))
        .selection(&dfs, &truth, &mut sched, &SelectionConfig::default());
    assert_eq!(out.faults.crashed_nodes, vec![3]);
    let data = rec.take();

    // Lost in-flight spans are closed at the crash instant; nothing leaks.
    assert_eq!(data.unclosed_spans(), 0, "every span must be closed");

    // One `select` span per task grant: every completed task (originals and
    // re-executions alike — `total_tasks` credits at completion) plus every
    // in-flight grant the crash killed, which closes with a "lost" note.
    let selects: Vec<_> = data.spans.iter().filter(|s| s.name == "select").collect();
    let lost = selects
        .iter()
        .filter(|s| s.ctx.note.as_deref() == Some("lost"))
        .count();
    assert!(selects.len() >= out.total_tasks, "a span per executed task");
    assert_eq!(selects.len(), out.total_tasks + lost);
    assert!(lost <= out.faults.requeued_tasks);
    assert_eq!(data.counters["tasks_executed"], out.total_tasks as u64);
    assert_eq!(data.counters["crashes"], 1);

    // A complete oracle chain per injected crash: suspicion is instant,
    // the re-plan lands at or after it.
    let chains = data.crash_chains();
    assert_eq!(chains.len(), out.faults.crashed_nodes.len());
    for chain in &chains {
        assert!(out.faults.crashed_nodes.contains(&(chain.node as usize)));
        assert_eq!(chain.suspected_us, Some(chain.crash_us), "oracle model");
        let replanned = chain.replanned_us.expect("scheduler recorded a re-plan");
        assert!(replanned >= chain.crash_us);
    }

    // The trace exports to Chrome JSON with the phase span present.
    let chrome = data.to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("selection"));
}

#[test]
fn detector_chain_latencies_match_fault_stats() {
    let (dfs, hot, truth) = scenario();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut probe = DataNetScheduler::new(&dfs, &view);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 5);

    let rec = Recorder::new();
    let mut sched = DataNetScheduler::new(&dfs, &view);
    let faults = FaultConfig::with_detection(plan);
    let out = Exec::default().rec(&rec).faults(&faults).selection(
        &dfs,
        &truth,
        &mut sched,
        &SelectionConfig::default(),
    );
    assert_eq!(out.faults.crashed_nodes, vec![5]);
    let data = rec.take();
    assert_eq!(data.unclosed_spans(), 0);

    // The trace's crash → suspicion latency is the same number FaultStats
    // reports, crash by crash.
    let chains = data.crash_chains();
    assert_eq!(chains.len(), out.faults.detection_latency_secs.len());
    for (chain, &stat_secs) in chains.iter().zip(&out.faults.detection_latency_secs) {
        let suspected_us = chain.suspected_us.expect("detector suspected the node");
        let trace_secs = (suspected_us - chain.crash_us) as f64 / 1e6;
        assert!(
            (trace_secs - stat_secs).abs() < 1e-9,
            "trace says {trace_secs}s, FaultStats says {stat_secs}s"
        );
        assert!(trace_secs > 0.0, "EWMA detection is not instantaneous");
        assert!(chain.replanned_us.is_some(), "no re-plan: {chain:?}");
    }
}

#[test]
fn straggler_idler_classification_is_consistent_with_busy_times() {
    let (dfs, hot, truth) = scenario();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut probe = DataNetScheduler::new(&dfs, &view);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);

    let rec = Recorder::new();
    let mut sched = DataNetScheduler::new(&dfs, &view);
    let out = Exec::default()
        .rec(&rec)
        .faults(&FaultConfig::new(plan))
        .selection(&dfs, &truth, &mut sched, &SelectionConfig::default());
    let summary = rec.take().summary(None);

    assert!(!summary.node_util.is_empty());
    for util in &summary.node_util {
        // Re-derive each node's class from its recorded busy time.
        let b = util.busy_us as f64;
        let expected = summary.expected_busy_us;
        let class = if b > 2.0 * expected {
            NodeClass::Straggler
        } else if b < expected / 2.0 {
            NodeClass::Idler
        } else {
            NodeClass::Normal
        };
        assert_eq!(util.class, class, "node {}", util.node);
        assert!((0.0..=1.0 + 1e-9).contains(&util.utilisation));
        assert_eq!(
            summary.stragglers.contains(&util.node),
            class == NodeClass::Straggler
        );
        assert_eq!(
            summary.idlers.contains(&util.node),
            class == NodeClass::Idler
        );
    }
    // The crashed node lost half its phase: it cannot out-work the field.
    let crashed = summary.node_util.iter().find(|u| u.node == 3).unwrap();
    assert_ne!(
        crashed.class,
        NodeClass::Straggler,
        "a node dead for half the phase is no straggler"
    );
    assert!(summary.sim_end_us >= out.end.as_micros());
}

#[test]
fn recorder_off_report_is_byte_identical_to_a_traced_run() {
    let (dfs, hot, _) = scenario();
    let job = datanet_analytics::profiles::word_count_profile();
    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);

    let mut plain_sched = DataNetScheduler::new(&dfs, &view);
    let plain = Exec::default().pipeline(&dfs, hot, &mut plain_sched, &job, &sel, &ana);

    let rec = Recorder::new();
    let mut traced_sched = DataNetScheduler::new(&dfs, &view);
    let traced = Exec::default()
        .rec(&rec)
        .pipeline(&dfs, hot, &mut traced_sched, &job, &sel, &ana);
    assert!(!rec.take().spans.is_empty(), "the recorder really was on");

    // Tracing never perturbs the simulation, and an untraced report
    // serializes without any obs key at all.
    assert_eq!(plain, traced);
    let plain_json = serde_json::to_string(&plain).unwrap();
    let traced_json = serde_json::to_string(&traced).unwrap();
    assert_eq!(plain_json, traced_json, "byte-identical report output");
    assert!(!plain_json.contains("\"obs\""));
}
