//! Fixed benchmark datasets.
//!
//! The datasets do not depend on `--seed`: the seed draws the op list, the
//! data under it stays put. That keeps the deterministic end-to-end metrics
//! (plan quality, estimate accuracy, metadata footprint) comparable across
//! seeds, so their regression bound can be as good as zero-width.

use crate::metrics::Values;
use crate::trace::{Layer, Tracer};
use datanet::{ElasticMapArray, Separation};
use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
use datanet_workloads::MoviesConfig;

/// Scaled block size used throughout the repo: 256 kB (paper: 64 MB).
pub const BLOCK_SIZE: u64 = 256 * 1024;

/// The paper's separation policy, α = 0.3.
pub fn policy() -> Separation {
    Separation::Alpha(0.3)
}

/// The movie-review log of Section V-A (the generator settings of
/// `datanet-bench`'s canonical dataset), sized to fill about `blocks`
/// blocks of [`BLOCK_SIZE`]: its records, and its sub-dataset ids by
/// popularity rank (rank 0 = most review bytes).
pub fn generate(blocks: u64, tr: &mut Tracer, v: &mut Values) -> (Vec<Record>, Vec<SubDatasetId>) {
    let cfg = MoviesConfig {
        movies: 8_000,
        records: (blocks * BLOCK_SIZE / 600) as usize,
        horizon_days: 365,
        popularity_exponent: 1.1,
        burst_shape: 1.2,
        burst_scale_days: 25.0,
        daily_volatility: 0.7,
        background_fraction: 0.1,
        hot_release_day: Some(10),
        mean_review_bytes: 600,
        seed: 0x4D4F_5649,
    };
    let (records, catalog) = tr.call(Layer::Workloads, "workloads.generate", 1, || cfg.generate());
    v.set("workloads.records", records.len() as f64);
    let ranked = catalog
        .by_size_desc()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    (records, ranked)
}

fn dfs_config(nodes: u32) -> DfsConfig {
    DfsConfig {
        block_size: BLOCK_SIZE,
        replication: 3,
        topology: Topology::single_rack(nodes),
        seed: 0xDA7A_0001,
    }
}

/// `Dfs::write_random` consumes its records; every set-up gets its own copy.
pub fn write_dfs(nodes: u32, records: &[Record], tr: &mut Tracer) -> Dfs {
    tr.call(Layer::Dfs, "dfs.write", 1, || {
        Dfs::write_random(dfs_config(nodes), records.iter().copied())
    })
}

/// The set-up four workloads share: write the log into the DFS and scan it
/// into an ElasticMap array.
pub fn write_and_build(nodes: u32, records: &[Record], tr: &mut Tracer) -> (Dfs, ElasticMapArray) {
    let dfs = write_dfs(nodes, records, tr);
    let array = tr.call(Layer::Scan, "scan.build", dfs.block_count() as u64, || {
        ElasticMapArray::build(&dfs, &policy())
    });
    (dfs, array)
}
