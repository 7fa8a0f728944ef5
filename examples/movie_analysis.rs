//! Movie-log analysis end to end: reproduce the paper's main experiment in
//! miniature, including a *real* Word Count over the filtered
//! sub-dataset.
//!
//! Run with: `cargo run --release --example movie_analysis`

use datanet::prelude::*;
use datanet_analytics::profiles::word_count_profile;
use datanet_analytics::AggJob;
use datanet_dfs::{Dfs, DfsConfig, NodeId, Record, Topology};
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

    // --- Real execution over the balanced plan's records.
    let balanced = Algorithm1::new(&dfs, &maps.view(hot)).plan_balanced();
    let per_node: Vec<Vec<Record>> = (0..nodes)
        .map(|n| balanced.tasks_of(NodeId(n)).iter())
        .map(|blocks| blocks.flat_map(|&b| dfs.block(b).filter(hot).copied()))
        .map(Iterator::collect)
        .collect();
    let records = per_node.concat();
    let mut counts = AggJob::WordCount.run(&records);
    counts.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.key.cmp(&b.key)));
    let top: Vec<String> = (counts.iter().take(5))
        .map(|kv| format!("w{}×{:.0}", kv.key, kv.value))
        .collect();
    println!(
        "real WordCount over {} records: {} distinct words, top: {}",
        records.len(),
        counts.len(),
        top.join(", ")
    );
    println!(
        "records per node under the balanced plan: {}..{}",
        per_node.iter().map(Vec::len).min().unwrap_or(0),
        per_node.iter().map(Vec::len).max().unwrap_or(0)
    );
}
