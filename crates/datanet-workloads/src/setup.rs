//! The datasets of the paper's experimental setup (Section V-A), scaled:
//! what `datanet repro` reproduces every figure from and what the
//! integration tests check the paper's claims against.
//!
//! ## Scaling
//!
//! The paper stores 256 × 64 MB blocks on 32–128 Marmot nodes. These
//! datasets keep the *block count*, *node count*, *replication* and all
//! distributional parameters, and scale the block size down to 256 kB so a
//! full figure regenerates in seconds on a laptop. The simulator's outputs
//! are ratios of byte quantities over hardware rates, so every comparative
//! claim (who wins, by what factor, where the crossover sits) is preserved;
//! absolute seconds are not comparable to the paper's testbed and are not
//! meant to be.

use crate::{GithubConfig, MovieCatalog, MoviesConfig};
use datanet_dfs::{Dfs, DfsConfig, Topology};

/// Cluster size used by the paper's main experiments.
pub const NODES: u32 = 32;

/// Target block count of the movie dataset ("The total number of block
/// files is 256").
const MOVIE_BLOCKS: usize = 256;

/// Scaled block size: 256 kB (paper: 64 MB; scale factor 256).
const BLOCK_SIZE: u64 = 256 * 1024;

/// The movie-review dataset of Section V-A: chronological, Zipf popularity,
/// release-burst clustering; sized to fill ~256 blocks.
pub fn movie_dataset(nodes: u32) -> (Dfs, MovieCatalog) {
    let cfg = MoviesConfig {
        movies: 8_000,
        // 256 blocks × 256 kB ≈ 64 MB; mean review 600 B → ~112k records.
        records: (MOVIE_BLOCKS as u64 * BLOCK_SIZE / 600) as usize,
        horizon_days: 365,
        popularity_exponent: 1.1,
        // Long-tailed release burst: the hot movie spreads over ~90 blocks
        // with its peak-day block ≈ 2-3x the view mean — the Figure 1(a)
        // regime, where per-node targets span ~3-4 view blocks.
        burst_shape: 1.2,
        burst_scale_days: 25.0,
        daily_volatility: 0.7,
        background_fraction: 0.1,
        // The paper's target movie is released near the dataset start, so
        // its burst fills the first blocks (Figure 1(a)).
        hot_release_day: Some(10),
        mean_review_bytes: 600,
        seed: 0x4D4F_5649,
    };
    let (records, catalog) = cfg.generate();
    let dfs = Dfs::write_random(
        DfsConfig {
            block_size: BLOCK_SIZE,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 0xDA7A_0001,
        },
        records,
    );
    (dfs, catalog)
}

/// The GitHub event-log dataset of Section V-A-4 (34 GB in the paper; same
/// scale factor as the movie dataset here).
pub fn github_dataset(nodes: u32) -> Dfs {
    let cfg = GithubConfig {
        // ~256 blocks at the mean event size (~1.2 kB with the push-heavy
        // mix).
        records: (MOVIE_BLOCKS as u64 * BLOCK_SIZE / 1_200) as usize,
        horizon_days: 30,
        daily_cycle: 0.5,
        mix_jitter: 0.8,
        seed: 0x6174_4875,
    };
    let records = cfg.generate();
    Dfs::write_random(
        DfsConfig {
            block_size: BLOCK_SIZE,
            replication: 3,
            topology: Topology::single_rack(nodes),
            seed: 0xDA7A_0002,
        },
        records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movie_dataset_has_paper_scale_shape() {
        let (dfs, catalog) = movie_dataset(NODES);
        assert!(
            (200..320).contains(&dfs.block_count()),
            "got {} blocks",
            dfs.block_count()
        );
        assert_eq!(dfs.config().replication, 3);
        // The hot movie is clustered: most of its bytes in a minority of
        // blocks.
        let hot = catalog.most_reviewed();
        let dist = dfs.subdataset_distribution(hot);
        let total: u64 = dist.iter().sum();
        let mut sorted = dist.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // ~59% of the movie sits in its top-30 blocks (release burst) while
        // a background tail keeps it present nearly everywhere — the Figure
        // 1(a) shape.
        let top30: u64 = sorted.iter().take(30).sum();
        assert!(
            top30 as f64 > 0.5 * total as f64,
            "top-30 blocks hold {top30}/{total}"
        );
        let nonzero = dist.iter().filter(|&&b| b > 0).count();
        assert!(
            nonzero as f64 > 0.85 * dist.len() as f64,
            "tail missing: {nonzero}/{} blocks nonzero",
            dist.len()
        );
    }

    #[test]
    fn github_dataset_spreads_issue_events() {
        let dfs = github_dataset(NODES);
        assert!(dfs.block_count() > 100, "got {} blocks", dfs.block_count());
        let issue = crate::EventType::Issue.id();
        let dist = dfs.subdataset_distribution(issue);
        let nonzero = dist.iter().filter(|&&b| b > 0).count();
        assert!(
            nonzero as f64 > 0.9 * dist.len() as f64,
            "IssueEvent present in only {nonzero}/{} blocks",
            dist.len()
        );
    }
}
