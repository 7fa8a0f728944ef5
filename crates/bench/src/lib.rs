//! The reproduction harness behind `datanet repro` and `datanet gate`:
//! the paper record ([`SECTIONS`], every paper table/figure and extension
//! study, the fault sweeps last, one section each), the recorder-overhead
//! [`gate`], and the canonical experiment datasets (scaled versions of the
//! paper's setups), fixtures and table printer they share. Both write to
//! the writer the caller hands them.
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

pub mod obs;
pub mod repro;
pub mod setup;
pub mod table;

pub use obs::gate;
pub use repro::{repro, SECTIONS};
pub use setup::{github_dataset, movie_dataset, Fixtures, NODES};
pub use table::Table;
