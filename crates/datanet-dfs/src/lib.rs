//! A simulated HDFS-like distributed file system — the storage substrate the
//! paper runs on.
//!
//! Reproduces the properties DataNet exploits and suffers from:
//!
//! * datasets are split into fixed-size **blocks** ([`block`]) in arrival
//!   order, so temporal content clustering maps directly onto block
//!   clustering;
//! * each block is **replicated** (3-way by default) and **placed** on
//!   random data nodes, blind to its content;
//! * the **NameNode** ([`namenode`]) records only `block → nodes` metadata —
//!   it knows nothing about which sub-datasets live inside a block, which is
//!   exactly the information gap ElasticMap fills.
//!
//! Records ([`record`]) carry a sub-dataset id, timestamp and byte size, plus
//! a deterministic seed from which textual payloads (words, ratings,
//! similarity sequences) are lazily generated — so analysis jobs can do real
//! computation without the store materialising gigabytes of text.

pub mod block;
pub mod dfs;
pub mod ids;
pub mod namenode;
mod placement;
pub mod record;
pub mod topology;

pub use block::Block;
pub use dfs::{Dfs, DfsConfig, RangeProfile};
pub use ids::{BlockId, NodeId, SubDatasetId};
pub use namenode::NameNode;
pub use record::{key_range_of, Payload, Record};
pub use topology::Topology;
