//! End-to-end sessionization over a click-stream — the paper's first
//! motivating application, run through the full DataNet pipeline.

use datanet::planner::Assignment;
use datanet::Algorithm1;
use datanet::{ElasticMapArray, Separation};
use datanet_analytics::session::session_stats;
use datanet_analytics::AggJob;
use datanet_dfs::{Dfs, DfsConfig, NodeId, Record, SubDatasetId, Topology};
use datanet_workloads::ClickstreamConfig;

fn clickstream_dfs() -> Dfs {
    let records = ClickstreamConfig {
        users: 1_000,
        sessions: 12_000,
        ..Default::default()
    }
    .generate();
    Dfs::write_random(
        DfsConfig {
            block_size: 64 * 1024,
            replication: 3,
            topology: Topology::single_rack(8),
            seed: 0xC11C,
        },
        records,
    )
}

/// Most active user.
fn hot_user(dfs: &Dfs) -> SubDatasetId {
    let mut totals = std::collections::HashMap::new();
    for b in dfs.blocks() {
        for &(s, bytes) in b.subdataset_sizes().iter() {
            *totals.entry(s).or_insert(0u64) += bytes;
        }
    }
    totals
        .into_iter()
        .max_by_key(|&(s, b)| (b, std::cmp::Reverse(s)))
        .map(|(s, _)| s)
        .expect("non-empty")
}

/// The user's records as the plan hands them out: node by node, each
/// node's blocks in assignment order.
fn planned_records(dfs: &Dfs, user: SubDatasetId, plan: &Assignment) -> Vec<Record> {
    (0..plan.node_count() as u32)
        .flat_map(|n| plan.tasks_of(NodeId(n)))
        .flat_map(|&b| dfs.block(b).filter(user).copied())
        .collect()
}

#[test]
fn sessionize_the_hot_user_through_the_pipeline() {
    let dfs = clickstream_dfs();
    let user = hot_user(&dfs);

    // DataNet view → balanced partitions → collect the user's records.
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(user);
    assert!(!view.is_empty(), "hot user invisible to the meta-data");
    let plan = Algorithm1::new(&dfs, &view).plan_balanced();
    let mut clicks = planned_records(&dfs, user, &plan);
    clicks.sort_by_key(|r| r.timestamp);
    assert_eq!(
        clicks.iter().map(|r| r.size as u64).sum::<u64>(),
        dfs.subdataset_total(user),
        "the plan must cover the user exactly"
    );

    // Sessionize with a 30-minute timeout: bursts must be detected.
    let stats = session_stats(&clicks, 1800);
    assert!(
        stats.count > 3,
        "expected multiple sessions, got {}",
        stats.count
    );
    assert!(
        stats.mean_events >= 1.0 && stats.mean_events < 50.0,
        "implausible session size {}",
        stats.mean_events
    );
}

#[test]
fn clickstream_supports_the_analysis_jobs_too() {
    // The generic MapReduce path works over the click-stream as well.
    let dfs = clickstream_dfs();
    let user = hot_user(&dfs);
    let view = ElasticMapArray::build(&dfs, &Separation::All).view(user);
    let plan = Algorithm1::new(&dfs, &view).plan_balanced();
    let means = AggJob::MovingAverage(86_400).run(&planned_records(&dfs, user, &plan));
    assert!(!means.is_empty());
    for kv in &means {
        assert!((0.0..10.0).contains(&kv.value));
    }
}

#[test]
fn user_data_spreads_across_many_blocks() {
    // The click-stream geometry: bursty in time, but a heavy user's
    // sessions land all over the horizon, so the sub-dataset touches many
    // blocks (thin-wide rather than thick-narrow).
    let dfs = clickstream_dfs();
    let user = hot_user(&dfs);
    let dist = dfs.subdataset_distribution(user);
    let nonzero = dist.iter().filter(|&&b| b > 0).count();
    assert!(
        nonzero as f64 > 0.5 * dist.len() as f64,
        "hot user in only {nonzero}/{} blocks",
        dist.len()
    );
}
