//! Third workload regime: World-Cup-style web access logs, where *all*
//! sub-datasets co-cluster on match days. The interesting contrast: block
//! composition is bursty in volume but the per-object *mix* within a burst
//! is stable, so a popular object is spread across every busy region —
//! between the movie regime (per-sub-dataset clustering) and GitHub
//! (stationary mix).

use datanet::{ElasticMapArray, Separation};
use datanet_dfs::{Dfs, DfsConfig, SubDatasetId, Topology};
use datanet_mapreduce::{run_selection, DataNetScheduler, LocalityScheduler, SelectionConfig};
use datanet_workloads::WorldCupConfig;

fn worldcup_dfs() -> Dfs {
    let records = WorldCupConfig {
        records: 120_000,
        ..Default::default()
    }
    .generate();
    Dfs::write_random(
        DfsConfig {
            block_size: 128 * 1024,
            replication: 3,
            topology: Topology::single_rack(16),
            seed: 0x5763,
        },
        records,
    )
}

/// The most requested object.
fn hot_object(dfs: &Dfs) -> SubDatasetId {
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
        .expect("non-empty dataset")
}

#[test]
fn size_chunked_blocks_neutralise_time_bursts() {
    // An instructive negative result: match days compress many requests
    // into a short *time* window, but blocks are sealed by *size*, so the
    // per-block object mix stays stationary — the hot object spreads nearly
    // proportionally over blocks. Volume burstiness alone does not create
    // the paper's content clustering; a skewed per-block *mix* does.
    let dfs = worldcup_dfs();
    let hot = hot_object(&dfs);
    let dist = dfs.subdataset_distribution(hot);
    let total: u64 = dist.iter().sum();
    assert!(total > 0);
    let mut sorted = dist.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top_quarter: u64 = sorted.iter().take(dist.len() / 4).sum();
    let share = top_quarter as f64 / total as f64;
    assert!(
        (0.25..0.45).contains(&share),
        "expected a near-proportional spread, top quarter holds {share:.2}"
    );
}

#[test]
fn datanet_balances_the_access_log_too() {
    let dfs = worldcup_dfs();
    let hot = hot_object(&dfs);
    let truth = dfs.subdataset_distribution(hot);
    let sel = SelectionConfig::default();

    let mut base = LocalityScheduler::new(&dfs);
    let without = run_selection(&dfs, &truth, &mut base, &sel);
    let view = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3)).view(hot);
    let mut dn = DataNetScheduler::new(&dfs, &view);
    let with = run_selection(&dfs, &truth, &mut dn, &sel);

    // In this regime the hot object is spread near-proportionally (see the
    // negative-result test above), so locality scheduling is already close
    // to balanced and DataNet has no skew to exploit. The claim worth
    // testing is that DataNet *also* balances — it must stay within a hair
    // of the locality baseline and well clear of actual imbalance, not
    // strictly beat a baseline that is already near-optimal.
    assert!(
        with.imbalance() < 1.2,
        "datanet failed to balance: {}",
        with.imbalance()
    );
    assert!(
        with.imbalance() < without.imbalance() * 1.05,
        "datanet {} not within 5% of locality {}",
        with.imbalance(),
        without.imbalance()
    );
    assert_eq!(
        with.per_node_bytes.iter().sum::<u64>(),
        without.per_node_bytes.iter().sum::<u64>()
    );
}

#[test]
fn elasticmap_estimates_the_hot_object_well() {
    let dfs = worldcup_dfs();
    let hot = hot_object(&dfs);
    let arr = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let acc = arr.view(hot).accuracy(&dfs).expect("object exists");
    assert!(acc > 0.85, "hot-object estimate accuracy {acc}");
}
