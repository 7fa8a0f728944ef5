//! A MapReduce execution engine over the simulated cluster — the framework
//! substrate the paper's experiments run on.
//!
//! The paper's experimental pipeline (Section V-A) is reproduced end to end:
//!
//! 1. **Selection** ([`engine::run_selection`]): map tasks scan every
//!    in-scope block, filter the target sub-dataset and store it locally.
//!    Which node scans which block is decided by a pluggable
//!    [`scheduler::MapScheduler`]:
//!    [`scheduler::LocalityScheduler`] (Hadoop's block-locality default,
//!    the paper's "without DataNet"),
//!    [`scheduler::DataNetScheduler`] (Algorithm 1, "with DataNet"),
//!    [`scheduler::PlannedScheduler`] (any precomputed assignment, e.g.
//!    Ford–Fulkerson).
//! 2. **Analysis** ([`engine::run_analysis`]): a MapReduce job
//!    ([`job::JobProfile`]) runs over the filtered per-node partitions —
//!    map (disk + job-specific CPU), shuffle (all-to-all transfers over the
//!    simulated NICs), reduce. The report records per-node map times,
//!    per-reducer shuffle times and the makespan — Figures 5, 6 and 7.
//!
//!    Both phases take their optional inputs — a recorder, a fault plan, a
//!    clock base — through one [`engine::Exec`] value; the free functions
//!    above are its all-defaults form, and [`engine::Exec::pipeline`] runs
//!    the two phases back to back on one clock.
//! 3. **SkewTune-like baseline** (`skewtune`): the runtime-migration
//!    alternative the paper discusses (Section V-A-4) — rebalance the
//!    filtered partitions after selection and account the network cost.

pub mod engine;
pub mod job;
pub mod report;
pub mod scheduler;
pub mod shuffle;
mod skewtune;
pub mod speculation;

pub use engine::{
    capability_of, planned_makespan, run_analysis, run_analysis_shuffled, run_selection,
    AnalysisConfig, Exec, FaultConfig, SelectionConfig,
};
pub use job::JobProfile;
pub use report::{
    total_secs, ExecutionReport, FaultStats, JobReport, SelectionOutcome, ShuffleOutcome,
};
pub use scheduler::{
    DataNetScheduler, DelayScheduler, LocalityScheduler, MapScheduler, PlannedScheduler,
    ResilientScheduler,
};
pub use shuffle::{
    key_range_of, planned_load_bound, range_matrix_estimate, range_matrix_truth, Fragment,
    ShufflePlan, ShufflePlanner,
};
pub use skewtune::{apportion, rebalance, split_threshold, MigrationOutcome};
pub use speculation::{speculative_map_phase, SpeculativeMapOutcome};
