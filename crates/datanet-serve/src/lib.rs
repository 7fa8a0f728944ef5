//! Multi-tenant serving plane for sub-dataset analysis.
//!
//! The paper positions DataNet as infrastructure for *interactive*
//! sub-dataset analysis under heavy multi-user traffic; this crate is the
//! long-lived frontend that multiplexes a stream of tenant queries over
//! one shared ElasticMap array and planner:
//!
//! * [`generate_stream`] expands a seed into a deterministic multi-tenant
//!   query stream ([`TenantMix`] controls who floods whom);
//! * [`World`] holds the DFS/metadata/liveness state and evolves only
//!   through scripted [`ServeEvent`]s, each bumping a mutation counter
//!   snapshotted by an [`EpochKey`];
//! * [`serve`] runs admission control (bounded queue + typed rejections +
//!   load shedding), deficit-round-robin fair-share quotas over
//!   Equation-6 byte estimates, a plan cache (one table entry per
//!   sub-dataset and data epoch holding its view, estimate, plan, digest
//!   and price), and a seeded worker pool — and returns a [`ServeReport`]
//!   split into a canonical [`ServeAnswers`] section (independent of
//!   worker count and interleaving, by construction) and a
//!   worker-dependent [`ServeTiming`] section.
//!
//! The crate ships with its test rig: `datanet-check` draws a `ServePlan`
//! axis per seed and runs serve oracles (conservation, fairness,
//! cache-coherence, price, interleaving determinism) over these entry
//! points, with a planted cache-staleness bug behind a `#[doc(hidden)]`
//! hook.

mod server;
mod stream;
mod world;

pub use server::{
    serve, Disposition, QueryOutcome, RejectReason, ServeAnswers, ServeConfig, ServeReport,
    ServeTiming, TenantStats,
};
pub use stream::{generate_stream, QuerySpec, StreamConfig, TenantMix};
pub use world::{plan_digest, EpochKey, ScriptedEvent, ServeEvent, World};

#[doc(hidden)]
pub use server::serve_with_planted_staleness;
