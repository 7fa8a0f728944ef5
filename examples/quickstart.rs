//! Quickstart: the whole DataNet pipeline in ~60 lines.
//!
//! 1. Generate a clustered log and store it on the simulated DFS.
//! 2. Build the ElasticMap meta-data in one scan.
//! 3. Query one sub-dataset's distribution.
//! 4. Plan a balanced execution and compare it with blind scheduling.
//!
//! Run with: `cargo run --release --example quickstart`

use datanet::prelude::*;
use datanet_dfs::{Dfs, DfsConfig, SubDatasetId, Topology};
use datanet_workloads::MoviesConfig;

fn main() {
    // 1. A small chronological movie-review log → 4 MB DFS, 8 nodes.
    let (records, catalog) = MoviesConfig {
        movies: 200,
        records: 8_000,
        ..Default::default()
    }
    .generate();
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: 64 * 1024,
            replication: 3,
            topology: Topology::single_rack(8),
            seed: 1,
        },
        records,
    );
    println!(
        "stored {} records in {} blocks on {} nodes",
        8_000,
        dfs.block_count(),
        dfs.config().topology.len()
    );

    // 2. One scan, in block order, builds the per-block ElasticMaps (α = 0.3).
    let maps = ElasticMapArray::build(&dfs, &Separation::Alpha(0.3));
    println!(
        "meta-data: {} maps, {} bytes total ({}x smaller than the raw data)",
        maps.len(),
        maps.memory_bytes(),
        (dfs.total_bytes() as usize / maps.memory_bytes().max(1))
    );

    // 3. Distribution of the most-reviewed movie.
    let hot: SubDatasetId = catalog.most_reviewed();
    let view = maps.view(hot);
    println!(
        "movie {hot}: seen in {} blocks ({} exact + {} bloom), estimated {} bytes \
         (actual {} bytes)",
        view.block_count(),
        view.exact().len(),
        view.bloom().len(),
        view.estimated_total(),
        dfs.subdataset_total(hot)
    );

    // 4. Balanced plan vs naive round-robin.
    let plan = Algorithm1::new(&dfs, &view).plan_balanced();
    println!(
        "Algorithm 1 plan: {} tasks, imbalance {:.2} (1.0 = perfect), locality {:.0}%",
        plan.assigned_blocks(),
        plan.imbalance(),
        plan.locality_fraction() * 100.0
    );
    let optimal = FordFulkersonPlanner::new(&dfs, &view).plan();
    println!(
        "Ford-Fulkerson plan: imbalance {:.2}, all-local by construction",
        optimal.imbalance()
    );
}
