//! A deterministic discrete-event cluster simulator — the testbed substrate
//! standing in for the paper's 128-node PRObE/Marmot cluster.
//!
//! The MapReduce engine (`datanet-mapreduce`) drives these primitives:
//!
//! * [`time::SimTime`] — integer microseconds; no floating-point
//!   drift, total order, exact determinism.
//! * [`event::EventQueue`] — a time-ordered queue with a
//!   deterministic FIFO tie-break.
//! * [`Timeline`] — a serially-reusable resource (disk
//!   head, NIC, core set): reserving work returns exact start/end times.
//! * [`node::SimNode`] / [`cluster::SimCluster`] — a
//!   node bundles disk/CPU/NIC timelines; the cluster adds a
//!   shared-switch network transfer model calibrated to Marmot's hardware
//!   (SATA disk ≈ 80 MB/s, GigE ≈ 117 MB/s).
//!
//! The simulator models *where time goes* (I/O, compute, transfer,
//! synchronisation waits) rather than absolute hardware detail — the paper's
//! effects are scheduling effects, which survive this abstraction.

pub mod cluster;
pub mod detector;
pub mod event;
pub mod fault;
pub mod node;
mod resource;
pub mod time;

pub use cluster::SimCluster;
pub use detector::suspicion_schedule;
pub use event::EventQueue;
pub use fault::FaultPlan;
pub use node::{NodeSpec, SimNode};
pub use resource::Timeline;
pub use time::SimTime;
