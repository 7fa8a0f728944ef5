//! Fault-injection acceptance tests (ISSUE: fault-tolerant execution
//! engine): killing 1 of 8 nodes mid-selection must lose no data, stay
//! deterministic for a fixed seed, and leave DataNet's surviving nodes
//! better balanced than the locality baseline's.

use datanet::{ElasticMapArray, Separation};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_dfs::SubDatasetId;
use datanet_mapreduce::{
    run_selection, AnalysisConfig, DataNetScheduler, Exec, FaultConfig, JobProfile,
    LocalityScheduler, MapScheduler, SelectionConfig, SelectionOutcome,
};
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

/// Max-over-mean imbalance across the *surviving* nodes only.
fn survivor_imbalance(out: &SelectionOutcome) -> f64 {
    let survivors: Vec<f64> = out
        .per_node_bytes
        .iter()
        .enumerate()
        .filter(|(n, _)| !out.faults.crashed_nodes.contains(n))
        .map(|(_, &b)| b as f64)
        .collect();
    let mean = survivors.iter().sum::<f64>() / survivors.len() as f64;
    survivors.iter().cloned().fold(0.0, f64::max) / mean
}

#[test]
fn killing_one_of_eight_loses_no_bytes() {
    let (dfs, hot, truth) = scenario();
    let total = dfs.subdataset_total(hot);

    // Locality baseline.
    let mut probe = LocalityScheduler::new(&dfs);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);
    let mut sched = LocalityScheduler::new(&dfs);
    let out = Exec::default().faults(&FaultConfig::new(plan)).selection(
        &dfs,
        &truth,
        &mut sched,
        &SelectionConfig::default(),
    );
    assert_eq!(out.faults.crashed_nodes, vec![3]);
    assert_eq!(out.per_node_bytes[3], 0, "dead node keeps nothing");
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        total,
        "locality: every sub-dataset byte credited exactly once"
    );
    assert!(out.faults.requeued_tasks > 0);
    assert!(
        out.faults.unrecoverable_blocks.is_empty(),
        "3-way replication"
    );
    assert!(out.faults.abandoned_blocks.is_empty());

    // DataNet.
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut probe = DataNetScheduler::new(&dfs, &view);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);
    let mut sched = DataNetScheduler::new(&dfs, &view);
    let out = Exec::default().faults(&FaultConfig::new(plan)).selection(
        &dfs,
        &truth,
        &mut sched,
        &SelectionConfig::default(),
    );
    assert_eq!(out.per_node_bytes[3], 0);
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        total,
        "datanet: every sub-dataset byte credited exactly once"
    );
}

#[test]
fn faulty_runs_are_deterministic_for_a_fixed_seed() {
    let (dfs, hot, truth) = scenario();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let run = || {
        let plan = FaultPlan::random(NODES as usize, 0xFA17, 0.25, SimTime::from_secs(3));
        let mut sched = DataNetScheduler::new(&dfs, &view);
        Exec::default().faults(&FaultConfig::new(plan)).selection(
            &dfs,
            &truth,
            &mut sched,
            &SelectionConfig::default(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same fault plan, same outcome");
    // And the plan itself is reproducible.
    assert_eq!(
        FaultPlan::random(8, 7, 0.5, SimTime::from_secs(1)),
        FaultPlan::random(8, 7, 0.5, SimTime::from_secs(1))
    );
}

#[test]
fn datanet_rebalances_survivors_better_than_locality() {
    let (dfs, hot, truth) = scenario();
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);

    let mut probe = LocalityScheduler::new(&dfs);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);
    let mut base = LocalityScheduler::new(&dfs);
    let without = Exec::default().faults(&FaultConfig::new(plan)).selection(
        &dfs,
        &truth,
        &mut base,
        &SelectionConfig::default(),
    );

    let mut probe = DataNetScheduler::new(&dfs, &view);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 3);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = Exec::default().faults(&FaultConfig::new(plan)).selection(
        &dfs,
        &truth,
        &mut dn,
        &SelectionConfig::default(),
    );

    let dn_imb = survivor_imbalance(&with);
    let loc_imb = survivor_imbalance(&without);
    assert!(
        dn_imb < loc_imb,
        "post-failure imbalance: datanet {dn_imb} !< locality {loc_imb}"
    );
}

#[test]
fn faulty_pipeline_runs_end_to_end_on_survivors() {
    let (dfs, hot, truth) = scenario();
    let mut probe = LocalityScheduler::new(&dfs);
    let plan = mid_phase_crash(&dfs, &truth, &mut probe, 6);
    let mut sched = LocalityScheduler::new(&dfs);
    let rep = Exec::default().faults(&FaultConfig::new(plan)).pipeline(
        &dfs,
        hot,
        &mut sched,
        &JobProfile::new("wordcount", 3.0, 0.4, 1.0),
        &SelectionConfig::default(),
        &AnalysisConfig::default(),
    );
    assert!(rep.faults().any());
    assert!(rep.faults().recovery_secs > 0.0);
    assert_eq!(
        rep.job.shuffle_secs.len(),
        NODES as usize - 1,
        "one reducer per survivor"
    );
    assert_eq!(
        rep.selection.per_node_bytes.iter().sum::<u64>(),
        dfs.subdataset_total(hot)
    );
    assert!(rep.total_secs() > 0.0);
}
