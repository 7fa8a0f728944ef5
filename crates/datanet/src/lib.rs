//! **DataNet** — the paper's primary contribution: sub-dataset
//! distribution-aware meta-data and scheduling for distributed file systems.
//!
//! Reproduces *DataNet: A Data Distribution-aware Method for Sub-dataset
//! Analysis on Distributed File Systems* (IPDPS 2016). The pipeline:
//!
//! 1. **Scan** ([`scan`]): one linear pass over every DFS block builds, per
//!    block, the exact per-sub-dataset sizes, block after block.
//! 2. **Separate** (`buckets`): Fibonacci-width size buckets split the few
//!    *dominant* sub-datasets from the long tail in O(m) per block — the
//!    paper's bucket/count-sort trick that avoids an O(m log m) sort.
//! 3. **Store** (`elasticmap`): an [`ElasticMap`] keeps dominant sizes
//!    exactly in sorted arrays and the tail's mere existence in a
//!    cache-line-blocked Bloom filter; the memory trade-off follows
//!    Equation 5 ([`memory`]).
//! 4. **Query** ([`distribution`]): a [`SubDatasetView`] collects, for one
//!    sub-dataset, the exact-size blocks (τ₁), the bloom-only blocks (τ₂)
//!    and the Equation 6 size estimate `Z = Σ|s∩b| + δ·|τ₂|`.
//! 5. **Plan** (`bipartite`, [`planner`]): the bipartite node×block graph
//!    plus Algorithm 1 (greedy workload balancing) or the Ford–Fulkerson
//!    optimal planner turn the view into a balanced task assignment.
//!
//! ```
//! use datanet::prelude::*;
//! use datanet_dfs::{Dfs, DfsConfig, Record, SubDatasetId, Topology};
//!
//! // Ten records of two sub-datasets into 300-byte blocks on 4 nodes.
//! let recs = (0..10).map(|i| Record::new(SubDatasetId(i % 2), i, 100, i));
//! let cfg = DfsConfig { block_size: 300, replication: 2,
//!                       topology: Topology::single_rack(4), seed: 7 };
//! let dfs = Dfs::write_random(cfg, recs);
//!
//! // Build the ElasticMap array in one scan, query a sub-dataset,
//! // and plan a balanced execution.
//! let maps = ElasticMapArray::build(&dfs, &Separation::All);
//! let view = maps.view(SubDatasetId(0));
//! assert_eq!(view.estimated_total(), dfs.subdataset_total(SubDatasetId(0)));
//! let assignment = Algorithm1::new(&dfs, &view).plan_balanced();
//! assert_eq!(assignment.assigned_blocks(), view.block_count());
//! ```

mod bipartite;
mod bloom;
mod buckets;
pub mod checkpoint;
pub mod degrade;
pub mod distribution;
mod elasticmap;
pub mod ingest;
pub mod memory;
pub mod planner;
pub mod retry;
pub mod scan;
pub mod store;
pub mod symbol;
mod wire;

pub use checkpoint::{CheckpointManifest, CheckpointPlan};
pub use degrade::{DegradedView, MetaHealth, RungCounts, ShardSource};
pub use distribution::SubDatasetView;
pub use elasticmap::{ElasticMap, Separation, SizeInfo};
pub use ingest::{CommitPlan, IngestConfig, IngestStats, Ingestor};
pub use memory::MemoryModel;
pub use planner::plan_balanced_batch;
pub use planner::{
    plan_aggregation, AggregationPlan, Algorithm1, Assignment, BalancePolicy, FordFulkersonPlanner,
};
pub use retry::RetryBudget;
pub use scan::ElasticMapArray;
pub use store::{BlockSummary, Manifest, MetaStore, ScrubReport, StoreError, WritePlan};
pub use symbol::{FastMap, FxHasher64, Sym, SymbolTable};

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::distribution::SubDatasetView;
    pub use crate::elasticmap::{ElasticMap, Separation, SizeInfo};
    pub use crate::ingest::{CommitPlan, IngestConfig, IngestStats, Ingestor};
    pub use crate::memory::MemoryModel;
    pub use crate::planner::plan_balanced_batch;
    pub use crate::planner::{
        plan_aggregation, AggregationPlan, Algorithm1, Assignment, BalancePolicy,
        FordFulkersonPlanner,
    };
    pub use crate::scan::ElasticMapArray;
    pub use crate::symbol::{FastMap, Sym, SymbolTable};
}
