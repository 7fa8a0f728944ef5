//! Metadata-plane resilience acceptance tests (ISSUE: checksummed /
//! replicated ElasticMap shards, failure detection, degradation ladder).
//!
//! The two headline scenarios:
//! 1. 20% of shards corrupted with one replica intact → `scrub()` repairs
//!    everything and a subsequent selection reports zero rung-2/rung-3
//!    blocks.
//! 2. Every replica of one shard lost (full copy *and* summary) → the run
//!    still completes, the affected blocks are scheduled on rung 3, and
//!    `MetaHealth` accounts for every quarantined shard.

use std::fs;
use std::path::PathBuf;

use datanet::store::{MetaStore, StoreError};
use datanet::{ElasticMapArray, Separation};
use datanet_cluster::{FaultPlan, SimTime};
use datanet_dfs::SubDatasetId;
use datanet_mapreduce::{Exec, FaultConfig, SelectionConfig};
use datanet_workloads::movie_dataset;

const NODES: u32 = 8;
const SHARD_BLOCKS: usize = 4;

fn scenario() -> (datanet_dfs::Dfs, SubDatasetId) {
    let (dfs, catalog) = movie_dataset(NODES);
    (dfs, catalog.most_reviewed())
}

/// Fresh replica directories under the system temp dir.
fn replica_dirs(tag: &str, k: usize) -> Vec<PathBuf> {
    (0..k)
        .map(|i| {
            let dir = std::env::temp_dir().join(format!(
                "datanet-resilience-{tag}-{}-r{i}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            dir
        })
        .collect()
}

fn shard_file(i: usize) -> String {
    format!("shard-{i:04}.json")
}

fn summary_file(i: usize) -> String {
    format!("summary-{i:04}.json")
}

#[test]
fn scrub_heals_twenty_percent_corruption_back_to_rung_one() {
    let (dfs, hot) = scenario();
    let array = ElasticMapArray::build(&dfs, &Separation::All);
    let dirs = replica_dirs("heal", 2);
    MetaStore::save_replicated(&array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS).unwrap();

    let mut store = MetaStore::open_replicated(&[&dirs[0], &dirs[1]], 4).unwrap();
    let shards = store.manifest().shard_count();
    assert!(shards >= 5, "need enough shards for a 20% corruption rate");

    // Corrupt every 5th shard in the primary replica only.
    let corrupted: Vec<usize> = (0..shards).step_by(5).collect();
    for &i in &corrupted {
        fs::write(dirs[0].join(shard_file(i)), b"not json at all").unwrap();
    }

    let report = store.scrub();
    assert_eq!(report.scrubbed, shards);
    assert_eq!(
        report.repaired,
        corrupted.len(),
        "every corrupted primary copy is rewritten from the healthy replica"
    );
    assert!(report.quarantined.is_empty());
    assert!(report.summaries_lost.is_empty());

    // Repaired bytes must verify: re-open the primary *alone* and select.
    let mut primary = MetaStore::open(&dirs[0], 4).unwrap();
    let out =
        Exec::default().selection_resilient(&dfs, hot, &mut primary, &SelectionConfig::default());
    assert_eq!(out.meta.rungs.bloom, 0, "no rung-2 blocks after repair");
    assert_eq!(out.meta.rungs.fallback, 0, "no rung-3 blocks after repair");
    assert!(out.meta.rungs.exact > 0);
    assert_eq!(out.meta.est_error, 0.0, "Separation::All is exact");
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        dfs.subdataset_total(hot),
        "every sub-dataset byte credited exactly once"
    );
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn losing_every_replica_of_a_shard_degrades_to_rung_three() {
    let (dfs, hot) = scenario();
    let array = ElasticMapArray::build(&dfs, &Separation::All);
    let dirs = replica_dirs("lost", 2);
    MetaStore::save_replicated(&array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS).unwrap();

    let mut store = MetaStore::open_replicated(&[&dirs[0], &dirs[1]], 4).unwrap();
    let shards = store.manifest().shard_count();
    let doomed = 1;
    assert!(doomed < shards.saturating_sub(1), "pick a full-width shard");

    // Destroy shard `doomed` everywhere: full copies and summaries alike.
    for dir in &dirs {
        fs::remove_file(dir.join(shard_file(doomed))).unwrap();
        fs::remove_file(dir.join(summary_file(doomed))).unwrap();
    }

    let out =
        Exec::default().selection_resilient(&dfs, hot, &mut store, &SelectionConfig::default());
    assert_eq!(
        out.meta.rungs.fallback, SHARD_BLOCKS,
        "the lost shard's whole block span runs on rung 3"
    );
    assert_eq!(
        out.meta.rungs.bloom, 0,
        "no summary survived to offer rung 2"
    );
    assert_eq!(out.meta.shards_quarantined, 1);
    // The one quarantined shard is `doomed`: its reads fail fast.
    assert!(matches!(
        store.shard(doomed),
        Err(StoreError::Quarantined { shard }) if shard == doomed
    ));
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        dfs.subdataset_total(hot),
        "rung-3 scanning still credits every byte"
    );

    // A scrub confirms the shard is irreparable and accounts for it.
    let report = store.scrub();
    assert_eq!(report.quarantined, vec![doomed]);
    assert_eq!(report.summaries_lost, vec![doomed]);
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn summary_survival_offers_rung_two_instead() {
    let (dfs, hot) = scenario();
    // A bloom tail exists under Alpha, so summaries carry real information.
    let array = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let dirs = replica_dirs("rung2", 2);
    MetaStore::save_replicated(&array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS).unwrap();

    let mut store = MetaStore::open_replicated(&[&dirs[0], &dirs[1]], 4).unwrap();
    let doomed = 0;
    // Full copies gone everywhere; summaries left intact.
    for dir in &dirs {
        fs::remove_file(dir.join(shard_file(doomed))).unwrap();
    }

    let out =
        Exec::default().selection_resilient(&dfs, hot, &mut store, &SelectionConfig::default());
    assert_eq!(out.meta.rungs.fallback, 0, "summaries keep us off rung 3");
    assert!(
        out.meta.rungs.bloom > 0,
        "the doomed shard's blocks answer from the bloom sidecar"
    );
    assert_eq!(out.meta.shards_quarantined, 1);
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        dfs.subdataset_total(hot)
    );
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn degraded_metadata_and_node_crash_compose() {
    let (dfs, hot) = scenario();
    let array = ElasticMapArray::build(&dfs, &Separation::All);
    let dirs = replica_dirs("compose", 2);
    MetaStore::save_replicated(&array, &[&dirs[0], &dirs[1]], SHARD_BLOCKS).unwrap();

    let mut store = MetaStore::open_replicated(&[&dirs[0], &dirs[1]], 4).unwrap();
    for dir in &dirs {
        fs::remove_file(dir.join(shard_file(1))).unwrap();
        fs::remove_file(dir.join(summary_file(1))).unwrap();
    }

    // Healthy-engine probe to place the crash mid-phase.
    let probe =
        Exec::default().selection_resilient(&dfs, hot, &mut store, &SelectionConfig::default());
    let crash_at = SimTime::from_micros(probe.end.as_micros() / 2);
    assert!(crash_at > SimTime::ZERO);

    let plan = FaultPlan::none(NODES as usize).crash(3, crash_at);
    let faults = FaultConfig::with_detection(plan);
    let out = Exec::default().faults(&faults).selection_resilient(
        &dfs,
        hot,
        &mut store,
        &SelectionConfig::default(),
    );
    assert_eq!(out.faults.crashed_nodes, vec![3]);
    assert_eq!(out.per_node_bytes[3], 0, "dead node keeps nothing");
    assert_eq!(
        out.faults.detection_latency_secs.len(),
        1,
        "the detector, not an oracle, reported the crash"
    );
    assert!(out.faults.detection_latency_secs[0] > 0.0);
    assert_eq!(out.meta.rungs.fallback, SHARD_BLOCKS);
    assert_eq!(
        out.per_node_bytes.iter().sum::<u64>(),
        dfs.subdataset_total(hot),
        "metadata loss plus a node crash still loses no data"
    );
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}
