//! Movie-log analysis end to end: reproduce the paper's main experiment in
//! miniature, including a *real* (Rayon) Word Count over the filtered
//! sub-dataset.
//!
//! Run with: `cargo run --release --example movie_analysis`

use datanet::prelude::*;
use datanet_analytics::jobs::{RecordJob, WordCount};
use datanet_analytics::profiles::word_count_profile;
use datanet_analytics::{partitions_from_assignment, LocalExecutor};
use datanet_dfs::{Dfs, DfsConfig, Topology};
use datanet_mapreduce::{
    AnalysisConfig, DataNetScheduler, Exec, LocalityScheduler, SelectionConfig,
};
use datanet_workloads::MoviesConfig;

fn main() {
    let nodes = 16u32;
    let (records, catalog) = MoviesConfig {
        movies: 500,
        records: 40_000,
        ..Default::default()
    }
    .generate();
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 128 * 1024,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 2,
        },
        records,
    );
    let hot = catalog.most_reviewed();
    println!(
        "dataset: {} blocks; analysing movie {hot} ({} bytes of reviews)\n",
        dfs.block_count(),
        dfs.subdataset_total(hot)
    );

    // --- Simulated cluster comparison (the paper's Figure 5 pipeline).
    let job = word_count_profile();
    let sel = SelectionConfig::default();
    let ana = AnalysisConfig::default();
    let mut base = LocalityScheduler::new(&dfs);
    let without = Exec::default().pipeline(&dfs, hot, &mut base, &job, &sel, &ana);
    let maps = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    let mut dn = DataNetScheduler::new(&dfs, &maps.view(hot));
    let with = Exec::default().pipeline(&dfs, hot, &mut dn, &job, &sel, &ana);
    println!(
        "simulated WordCount: without DataNet {:.3}s, with DataNet {:.3}s ({:.1}% faster)",
        without.total_secs(),
        with.total_secs(),
        100.0 * (1.0 - with.total_secs() / without.total_secs())
    );
    println!(
        "filtered-workload imbalance: without {:.2}, with {:.2}\n",
        without.selection.imbalance(),
        with.selection.imbalance()
    );

    // --- Real Rayon execution over the two partitionings.
    let wc = WordCount;
    let balanced = Algorithm1::new(&dfs, &maps.view(hot)).plan_balanced();
    let parts = partitions_from_assignment(&dfs, hot, &balanced);
    let run = LocalExecutor.execute(&wc, &parts);
    let top = {
        let mut v: Vec<(&u64, &f64)> = run.reduced.iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap().then(a.0.cmp(b.0)));
        v.into_iter()
            .take(5)
            .map(|(k, c)| format!("w{k}×{c:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "real WordCount over {} partitions: {} distinct words, top: {top}",
        parts.len(),
        run.reduced.len()
    );
    let max_recs = run.partition_records.iter().max().copied().unwrap_or(0);
    let min_recs = run.partition_records.iter().min().copied().unwrap_or(0);
    println!(
        "partition sizes: {min_recs}..{max_recs} records — balanced partitions \
         keep real workers busy evenly (wall-time skew {:.2}; at this tiny \
         scale wall times are dominated by thread-pool noise)",
        run.skew()
    );
    assert_eq!(wc.name(), "WordCount");
}
