//! Simulation-clock tracing and metrics plane.
//!
//! The engine's end-of-run aggregates (`FaultStats`, `MetaHealth`,
//! `makespan_secs`) say *that* a run was imbalanced; this crate records
//! *where the time went* so stragglers, idlers and recovery latency become
//! visible per task, per node, per microsecond.
//!
//! # Clock semantics
//!
//! Every event carries a [`Domain`]:
//!
//! * [`Domain::Sim`] — microseconds on the **simulated** clock
//!   (`datanet_cluster::SimTime::as_micros`). Task execution, detection
//!   windows and re-plans live here; they are exactly reproducible across
//!   runs with the same seed.
//! * [`Domain::Wall`] — microseconds of real time since the [`Recorder`]
//!   was created. Shard loads, scrubs and ElasticMap builds are real work
//!   the host performs, so they are timed on the wall clock.
//!
//! This crate deliberately depends on nothing but the vendored serde stack:
//! it represents time as raw `u64` microseconds so that `datanet-cluster`
//! (which owns `SimTime`) can itself depend on the recorder.
//!
//! # Usage
//!
//! ```
//! use datanet_obs::{Category, Domain, Recorder, SpanCtx};
//!
//! let rec = Recorder::new();
//! let span = rec.begin(
//!     Category::Task,
//!     "map",
//!     Domain::Sim,
//!     0,
//!     SpanCtx::default().node(3).block(17),
//! );
//! rec.end(span, 1_500);
//! rec.add("tasks_executed", 1);
//! let trace = rec.take();
//! assert_eq!(trace.unclosed_spans(), 0);
//! let chrome = trace.to_chrome_json();
//! assert!(chrome.contains("traceEvents"));
//! ```
//!
//! A disabled recorder ([`Recorder::off`]) turns every call into an early
//! return on a `None` — no allocation, no locking — so instrumented code
//! paths cost nothing when tracing is off.

mod context;
mod export;
mod flight;
mod hist;
mod metrics;
mod recorder;
mod summary;
mod trace;

pub use context::QueryCtx;
pub use export::to_openmetrics;
pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRing};
pub use hist::FibHistogram;
pub use metrics::{detect_anomalies, series, split_series, Alert, HistSummary, MetricsSnapshot};
pub use recorder::{Category, Domain, Recorder, SpanCtx, SpanId};
pub use summary::{CrashChain, NodeClass, NodeUtil, ObsSummary};
pub use trace::{GaugeSample, InstantEvent, Span, TraceData};
