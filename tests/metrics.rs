//! Integration tests for the always-on metrics plane (the observability
//! tentpole): snapshot determinism of the metered build, the
//! OpenMetrics exposition round-trip, per-query span totals reconciling
//! with the execution report, and the flight recording embedded in a
//! shrunk repro file.

use datanet::{ElasticMapArray, Separation};
use datanet_analytics::profiles::word_count_profile;
use datanet_check::{check_scenario_instrumented, shrink, CheckOptions, Repro, Scenario};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_integration::testkit::{parse_openmetrics, OmKind};
use datanet_mapreduce::{
    AnalysisConfig, DataNetScheduler, Exec, FaultConfig, LocalityScheduler, MapScheduler,
    SelectionConfig,
};
use datanet_obs::{detect_anomalies, to_openmetrics, MetricsSnapshot, QueryCtx, Recorder};
use datanet_workloads::movie_dataset;

const NODES: u32 = 8;

/// Canonical series key of a parsed sample: family name plus its labels
/// sorted by key — the exact format `MetricsSnapshot` keys use.
fn canonical_key(family: &str, labels: &[(String, String)]) -> String {
    let mut ls: Vec<&(String, String)> = labels.iter().filter(|(k, _)| k != "quantile").collect();
    ls.sort();
    if ls.is_empty() {
        family.to_string()
    } else {
        let body: Vec<String> = ls.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{family}{{{}}}", body.join(","))
    }
}

/// The metered build must produce an identical snapshot on every run:
/// wall-domain scan spans are count-only precisely so that wall time
/// cannot leak into the registry.
#[test]
fn metered_build_snapshot_is_deterministic() {
    let (dfs, _) = movie_dataset(NODES);
    let build_snapshot = || {
        let rec = Recorder::off().with_metrics();
        ElasticMapArray::build_traced(&dfs, &Separation::Alpha(0.3), &rec);
        to_openmetrics(&rec.metrics_snapshot().expect("metrics attached"))
    };
    let first = build_snapshot();
    assert!(first.contains("spans_total"), "build must meter scan spans");
    for _ in 0..3 {
        assert_eq!(
            build_snapshot(),
            first,
            "metered build snapshot must not depend on wall time"
        );
    }
}

/// A full traced pipeline's snapshot survives the OpenMetrics text
/// exposition round-trip: every counter and histogram series re-parses
/// to its exact key and value, and nothing extra appears.
#[test]
fn openmetrics_roundtrip_preserves_every_series() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let rec = Recorder::off()
        .with_metrics()
        .scoped(QueryCtx::new(42).tenant("acme"));
    let mut sched = DataNetScheduler::new(&dfs, &view);
    Exec::default().rec(&rec).pipeline(
        &dfs,
        hot,
        &mut sched,
        &word_count_profile(),
        &SelectionConfig::default(),
        &AnalysisConfig::default(),
    );
    let snap = rec.metrics_snapshot().expect("metrics attached");
    let families = parse_openmetrics(&to_openmetrics(&snap)).expect("exposition must parse");
    assert!(!families.is_empty());

    let mut counters_seen = 0usize;
    let mut hists_seen = 0usize;
    for family in &families {
        for sample in &family.samples {
            match family.kind {
                OmKind::Counter => {
                    let name = sample
                        .name
                        .strip_suffix("_total")
                        .expect("counter samples end in _total");
                    let key = canonical_key(name, &sample.labels);
                    let &expect = snap
                        .counters
                        .get(&key)
                        .unwrap_or_else(|| panic!("unknown counter series {key}"));
                    assert_eq!(sample.value as u64, expect, "value mismatch for {key}");
                    counters_seen += 1;
                }
                OmKind::Summary => {
                    if let Some(name) = sample.name.strip_suffix("_count") {
                        let key = canonical_key(name, &sample.labels);
                        let h = snap
                            .hists
                            .get(&key)
                            .unwrap_or_else(|| panic!("unknown histogram series {key}"));
                        assert_eq!(sample.value as u64, h.count, "count mismatch for {key}");
                        hists_seen += 1;
                    }
                }
                OmKind::Gauge => {}
            }
        }
    }
    assert_eq!(
        counters_seen,
        snap.counters.len(),
        "every counter round-trips"
    );
    assert_eq!(hists_seen, snap.hists.len(), "every histogram round-trips");
}

/// The causal thread end-to-end: every span series of a query-scoped run
/// carries the query id and tenant, and the per-query span totals agree
/// with the execution report's task accounting.
#[test]
fn per_query_span_totals_reconcile_with_execution_report() {
    let (dfs, catalog) = movie_dataset(NODES);
    let hot = catalog.most_reviewed();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let rec = Recorder::off()
        .with_metrics()
        .scoped(QueryCtx::new(7).tenant("acme"));
    let mut sched = DataNetScheduler::new(&dfs, &view);
    let report = Exec::default().rec(&rec).pipeline(
        &dfs,
        hot,
        &mut sched,
        &word_count_profile(),
        &SelectionConfig::default(),
        &AnalysisConfig::default(),
    );
    let snap = rec.metrics_snapshot().expect("metrics attached");
    let families = parse_openmetrics(&to_openmetrics(&snap)).expect("exposition must parse");

    let spans = families
        .iter()
        .find(|f| f.name == "spans")
        .expect("span counters exported");
    let mut select_tasks = 0u64;
    let mut map_tasks = 0u64;
    let mut reduce_tasks = 0u64;
    for s in &spans.samples {
        // Causality: every span series of this run is attributable.
        assert_eq!(
            s.label("query"),
            Some("7"),
            "span without query id: {}",
            s.name
        );
        assert_eq!(s.label("tenant"), Some("acme"));
        match s.label("name") {
            Some("select") => select_tasks += s.value as u64,
            Some("map") => map_tasks += s.value as u64,
            Some("reduce") => reduce_tasks += s.value as u64,
            _ => {}
        }
    }
    assert_eq!(
        select_tasks as usize, report.selection.total_tasks,
        "metrics plane and execution report must agree on task count"
    );
    assert_eq!(map_tasks as usize, report.job.map_secs.len());
    assert_eq!(reduce_tasks as usize, report.job.reduce_secs.len());
}

/// A planted oracle violation, shrunk to its minimal world, carries the
/// flight recording of that minimal failing run inside the repro file —
/// and the file alone still replays to the same failure.
#[test]
fn shrunk_repro_embeds_flight_recording() {
    let sc = Scenario::from_seed(3);
    let opts = CheckOptions {
        credit_skew: 1,
        ..CheckOptions::default()
    };
    let min = shrink(&sc, &opts).expect("planted credit skew must fail");

    // Instrumented re-run of the *shrunk* scenario, exactly as the CLI
    // does when writing a repro.
    let rec = Recorder::off().with_flight();
    let rerun = check_scenario_instrumented(&min.scenario, &opts, &rec);
    assert!(!rerun.passed(), "shrunk scenario must still fail");
    let dump = rec.flight_dump().expect("flight plane attached");
    assert!(
        dump.events
            .iter()
            .any(|e| format!("{:?}", e.kind).contains("OracleViolation")),
        "flight ring must end with the oracle verdict"
    );

    let repro = Repro {
        original_seed: 3,
        scenario: min.scenario.clone(),
        options: opts,
        violations: min.outcome.violations.clone(),
        flight: dump.to_value(),
    };
    let path =
        std::env::temp_dir().join(format!("datanet-metrics-repro-{}.json", std::process::id()));
    repro.save(&path).expect("save repro");
    let back = Repro::load(&path).expect("load repro");
    std::fs::remove_file(&path).ok();

    let embedded = back.flight_dump().expect("flight dump embedded in file");
    assert_eq!(embedded.events.len(), dump.events.len());
    let replayed = back.replay();
    assert!(!replayed.passed(), "repro file must replay to the failure");
    assert_eq!(
        replayed.oracle_names(),
        min.outcome.oracle_names(),
        "replay trips the same oracles"
    );
}

/// The node a sweep plants slow: it exists only in the sweep's clusters of
/// eight or more nodes, so its windows are lightly loaded.
const SLOW_NODE: usize = 7;

/// Seeds 5..25 metered the way `datanet check --seeds 20 --seed-start 5
/// --metrics` meters them: one recorder, every run started after the
/// previous one. The `planted` seed records two selections of its world
/// with node [`SLOW_NODE`] 50x slower instead of being checked.
fn metered_sweep(planted: Option<u64>) -> MetricsSnapshot {
    let rec = Recorder::off().with_metrics();
    for seed in 5..25 {
        let sc = Scenario::from_seed(seed);
        if planted != Some(seed) {
            check_scenario_instrumented(&sc, &CheckOptions::default(), &rec);
            continue;
        }
        let dfs = sc.build_dfs();
        let truth = dfs.subdataset_distribution(sc.target_id());
        let view = ElasticMapArray::build(&dfs, &Separation::Alpha(sc.alpha)).view(sc.target_id());
        let plan = FaultPlan::none(sc.nodes as usize).slow(
            SLOW_NODE,
            SimTime::ZERO,
            SimTime::from_secs(3600),
            50.0,
        );
        let slow = FaultConfig::new(plan);
        let mut schedulers: [Box<dyn MapScheduler>; 2] = [
            Box::new(LocalityScheduler::new(&dfs)),
            Box::new(DataNetScheduler::new(&dfs, &view)),
        ];
        for sched in &mut schedulers {
            rec.start_run();
            Exec::default().rec(&rec).faults(&slow).selection(
                &dfs,
                &truth,
                sched.as_mut(),
                &SelectionConfig::default(),
            );
        }
    }
    rec.metrics_snapshot().expect("metrics attached")
}

/// Runs that each restart the simulated clock at 0 are metered one after
/// another: no node is busy longer than the sweep's horizon (the end of
/// its latest window, what `datanet top` divides by), and a slow node
/// planted in one seed is flagged in the window its runs land in — the
/// first window where the planted sweep's busy time for that node departs
/// from the clean sweep's.
#[test]
fn a_slow_node_planted_in_one_seed_of_a_sweep_is_flagged_in_its_window() {
    let clean = metered_sweep(None);
    let planted = metered_sweep(Some(24));
    for snap in [&clean, &planted] {
        let horizon = (snap.windowed.values().flatten())
            .map(|&(start, _)| start + snap.window_us)
            .max()
            .expect("windowed series");
        for (key, &busy) in &snap.counters {
            if key.starts_with("node_busy_us{") {
                assert!(busy <= horizon, "{key}: busy {busy} us of {horizon} us");
            }
        }
    }
    let key = format!("node_busy_us{{node=\"{SLOW_NODE}\"}}");
    let flagged = |snap: &MetricsSnapshot| -> Vec<u64> {
        (detect_anomalies(snap).into_iter())
            .filter(|a| a.series == key)
            .map(|a| a.window_us)
            .collect()
    };
    assert_eq!(flagged(&clean), Vec::<u64>::new(), "clean sweep");
    let departs = (planted.windowed[&key].iter())
        .zip(&clean.windowed[&key])
        .find(|(p, c)| p != c)
        .map(|(p, _)| p.0)
        .expect("the planted runs change the node's windows");
    assert_eq!(flagged(&planted), vec![departs], "planted sweep");
}
