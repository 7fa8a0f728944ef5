//! Shared scaffolding for the reproduction harness: canonical experiment
//! datasets (scaled versions of the paper's setups) and the fixtures,
//! table printer and flag parser of its three binaries — `repro` (every
//! paper table/figure and extension study, one section each), `gate` (the
//! recorder-overhead gate) and `faults` (the fault-injection sweeps).
//!
//! ## Scaling
//!
//! The paper stores 256 × 64 MB blocks on 32–128 Marmot nodes. This harness
//! keeps the *block count*, *node count*, *replication* and all
//! distributional parameters, and scales the block size down to 256 kB so a
//! full figure regenerates in seconds on a laptop. The simulator's outputs
//! are ratios of byte quantities over hardware rates, so every comparative
//! claim (who wins, by what factor, where the crossover sits) is preserved;
//! absolute seconds are not comparable to the paper's testbed and are not
//! meant to be.

pub mod flags;
pub mod obs;
pub mod setup;
pub mod table;

pub use flags::{usage_error, Flags};
pub use obs::{run_obs_bench, ObsBenchReport};
pub use setup::{github_dataset, movie_dataset, Fixtures, MOVIE_BLOCKS, NODES};
pub use table::Table;
