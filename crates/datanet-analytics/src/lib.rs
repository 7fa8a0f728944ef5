//! The sub-dataset analysis applications of Section V, plus extensions.
//!
//! Each of the paper's four MapReduce jobs exists in two forms:
//!
//! * a **cost profile** ([`profiles`]) consumed by the simulated engine in
//!   `datanet-mapreduce` (used for the Figure 5–7 reproductions), and
//! * a **real implementation** ([`jobs`]) that maps and reduces actual
//!   records; [`pipeline`] chains them into checkpointed stages.
//!
//! [`session`] (user sessionization) implements a motivating analysis from
//! the paper's introduction as an additional sub-dataset application.

pub mod jobs;
pub mod pipeline;
pub mod profiles;
pub mod session;

pub use jobs::{AggregateHistogram, MovingAverage, RecordJob, TopKSearch, WordCount};
pub use pipeline::{
    histogram_pipeline, join_word_count_pipeline, moving_average_pipeline, top_k_pipeline,
    word_count_pipeline, AggJob, CrashPoint, InterruptedRun, KeyValue, MetaPlane, Pipeline,
    PipelineEnv, PipelineOutput, PipelineReport, PipelineSpec, ShuffleFragment, ShuffleParams,
    StageOp, StageReport, WorkingState,
};
pub use profiles::{histogram_profile, moving_average_profile, top_k_profile, word_count_profile};
