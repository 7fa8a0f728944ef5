//! The recording handle threaded through engine, schedulers, store and
//! scan paths.
//!
//! One [`Recorder`] value carries up to three independent planes:
//!
//! * **Tracing** ([`Recorder::new`]) — the unbounded per-run event log
//!   behind `--trace`, exactly as in PR 3.
//! * **Metrics** ([`Recorder::with_metrics`]) — the always-on windowed
//!   registry. Span ends, instants, counters and gauges are metered into
//!   aggregates automatically; works with tracing on *or* off.
//! * **Flight** ([`Recorder::with_flight`]) — the bounded ring of recent
//!   significant events, dumped on failure.
//!
//! [`Recorder::scoped`] attaches a [`QueryCtx`] so every event recorded
//! through the scoped handle carries the originating query id and tenant.
//! All planes no-op when absent: [`Recorder::off`] still costs nothing.

use crate::context::QueryCtx;
use crate::flight::{FlightDump, FlightEvent, FlightKind, FlightRing};
use crate::metrics::{MetricsData, MetricsSnapshot};
use crate::trace::{GaugeSample, InstantEvent, Span, TraceData};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Width of one metrics window, simulated microseconds.
const METRICS_WINDOW_US: u64 = 1_000_000;

/// Events a flight ring keeps.
const FLIGHT_CAPACITY: usize = 256;

/// Which clock an event's timestamps belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// The simulated clock (`SimTime::as_micros`) — deterministic,
    /// seed-reproducible.
    Sim,
    /// Real microseconds since the recorder was created — host work like
    /// shard IO and ElasticMap builds.
    Wall,
}

impl Domain {
    /// Short name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Sim => "sim",
            Domain::Wall => "wall",
        }
    }
}

/// Event taxonomy — one variant per instrumented subsystem activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Map/reduce task execution on a node (sim clock).
    Task,
    /// Block scan during ElasticMap construction (wall clock).
    Scan,
    /// Metadata shard load, including replica failover (wall clock).
    ShardLoad,
    /// Scheduler re-plan after a node loss (sim clock).
    Replan,
    /// Metadata scrub pass (wall clock).
    Scrub,
    /// Failure-detection window: crash → suspicion (sim clock).
    Detection,
    /// ElasticMap array build over all blocks (wall clock).
    Build,
    /// Engine phase envelope: selection, map, shuffle, reduce (sim clock).
    Phase,
    /// Streaming-ingest block append: summary + delta-map build (sim clock).
    Ingest,
    /// Ingest compaction: folding pending deltas into the base array
    /// (wall clock).
    Compaction,
    /// Pipeline stage checkpoint commit: payload + manifests replicated
    /// under the crash-safe write order (wall clock).
    Checkpoint,
    /// Serving plane: query admission, planning and execution in the
    /// multi-tenant frontend (sim clock).
    Serve,
}

impl Category {
    /// Lower-case name used as the Chrome-trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Task => "task",
            Category::Scan => "scan",
            Category::ShardLoad => "shard_load",
            Category::Replan => "replan",
            Category::Scrub => "scrub",
            Category::Detection => "detection",
            Category::Build => "build",
            Category::Phase => "phase",
            Category::Ingest => "ingest",
            Category::Compaction => "compaction",
            Category::Checkpoint => "checkpoint",
            Category::Serve => "serve",
        }
    }
}

/// Handle to an open span, returned by [`Recorder::begin`].
///
/// The id is an index into the recorder's span list (or, with the high
/// bit set, into the metrics registry's open-span table when tracing is
/// off but metering is on); a disabled recorder hands out a sentinel that
/// every later call ignores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// Sentinel handed out by a disabled recorder.
    pub(crate) const DISABLED: SpanId = SpanId(u64::MAX);
    /// High bit marking a metrics-only span id.
    pub(crate) const METRICS_BIT: u64 = 1 << 63;
}

/// Optional attributes attached to a span or instant: which node, block
/// and sub-dataset the event concerns, the originating query, plus a
/// free-form note.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanCtx {
    /// Node the event ran on.
    pub node: Option<u64>,
    /// Block the event concerns.
    pub block: Option<u64>,
    /// Sub-dataset the event concerns.
    pub sub: Option<u64>,
    /// Originating query id (stamped automatically by a scoped recorder).
    pub query: Option<u64>,
    /// Originating tenant (stamped automatically by a scoped recorder).
    pub tenant: Option<String>,
    /// Free-form annotation ("lost", "retry 2", replica index, …).
    pub note: Option<String>,
}

impl SpanCtx {
    /// Set the node attribute.
    pub fn node(mut self, node: usize) -> Self {
        self.node = Some(node as u64);
        self
    }

    /// Set the block attribute.
    pub fn block(mut self, block: u64) -> Self {
        self.block = Some(block);
        self
    }

    /// Set the sub-dataset attribute. (A builder setter for the `sub`
    /// field, not arithmetic subtraction.)
    #[allow(clippy::should_implement_trait)]
    pub fn sub(mut self, sub: u64) -> Self {
        self.sub = Some(sub);
        self
    }

    /// Set the originating query id explicitly (a scoped recorder does
    /// this automatically).
    pub fn query(mut self, query: u64) -> Self {
        self.query = Some(query);
        self
    }

    /// Set the originating tenant explicitly.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Set the note attribute.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

/// Cloneable, thread-safe recording handle.
///
/// [`Recorder::new`] records into a shared buffer behind a mutex;
/// [`Recorder::off`] is a no-op handle whose every method early-returns —
/// instrumented code pays nothing when every plane is disabled. Clones
/// share the same buffers, so the engine, schedulers, scan and serving
/// plane can all hold one.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Option<Arc<Mutex<TraceData>>>,
    metrics: Option<Arc<Mutex<MetricsData>>>,
    flight: Option<Arc<Mutex<FlightRing>>>,
    query: Option<Arc<QueryCtx>>,
    epoch: Instant,
}

/// Lock the metrics registry, through a poisoned mutex too: the registry's
/// only panics are the span-shape asserts, which fire before anything is
/// written, so the data a panicking holder leaves behind is whole and one
/// bad span cannot wedge every other handle.
fn registry(metrics: &Mutex<MetricsData>) -> MutexGuard<'_, MetricsData> {
    metrics.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    /// An enabled recorder with an empty trace buffer. The wall-clock
    /// epoch is the moment of this call.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(TraceData::default()))),
            metrics: None,
            flight: None,
            query: None,
            epoch: Instant::now(),
        }
    }

    /// A disabled recorder: every method is a no-op.
    pub fn off() -> Self {
        Self {
            inner: None,
            metrics: None,
            flight: None,
            query: None,
            epoch: Instant::now(),
        }
    }

    /// Attach a fresh windowed metrics registry with one-second windows
    /// of simulated time. Works on an enabled *or* disabled recorder —
    /// metrics without traces is the cheap always-on mode.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(Arc::new(Mutex::new(MetricsData::new(METRICS_WINDOW_US))));
        self
    }

    /// Attach a fresh flight ring holding the newest 256 events.
    pub fn with_flight(mut self) -> Self {
        self.flight = Some(Arc::new(Mutex::new(FlightRing::new(FLIGHT_CAPACITY))));
        self
    }

    /// Start a new run on the metrics plane's simulated clock: the
    /// windowed series place every later simulated timestamp after the
    /// latest one recorded so far. A caller that records several runs,
    /// each restarting its clock at 0, calls this before each, so windows,
    /// horizons and anomaly bands see the runs in sequence instead of
    /// stacked in the first windows. Trace and flight timestamps stay
    /// run-relative.
    pub fn start_run(&self) {
        if let Some(metrics) = &self.metrics {
            registry(metrics).start_run();
        }
    }

    /// A handle sharing every buffer of `self` but stamping `query`'s id
    /// and tenant on each event it records. Scopes nest: the innermost
    /// scope wins for events recorded through its handle.
    pub fn scoped(&self, query: QueryCtx) -> Self {
        let mut c = self.clone();
        c.query = Some(Arc::new(query));
        c
    }

    /// A handle sharing the metrics, flight and query planes of `self`
    /// but recording traces (if tracing is on) into a **fresh** buffer —
    /// how a pipeline stage gets a stage-local trace while its aggregates
    /// keep flowing into the run-wide registry.
    pub fn fork_trace(&self) -> Self {
        let mut c = self.clone();
        c.inner = self
            .inner
            .as_ref()
            .map(|_| Arc::new(Mutex::new(TraceData::default())));
        c
    }

    /// Whether trace events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a metrics registry is attached.
    pub fn is_metering(&self) -> bool {
        self.metrics.is_some()
    }

    /// Whether a flight ring is attached.
    pub fn has_flight(&self) -> bool {
        self.flight.is_some()
    }

    /// Wall-clock microseconds since this recorder was created — the
    /// timestamp to pass for [`Domain::Wall`] events.
    pub fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Stamp the scope's query id and tenant onto a ctx that doesn't
    /// already carry one.
    fn stamp(&self, ctx: &mut SpanCtx) {
        if let Some(q) = &self.query {
            if ctx.query.is_none() {
                ctx.query = Some(q.query_id);
            }
            if ctx.tenant.is_none() {
                ctx.tenant.clone_from(&q.tenant);
            }
        }
    }

    /// The scope's query id and tenant as cheap borrows — the metering
    /// paths use these instead of [`Recorder::stamp`] so a scoped handle
    /// never clones the tenant string per event.
    fn scope_parts(&self) -> (Option<u64>, Option<&str>) {
        match &self.query {
            None => (None, None),
            Some(q) => (Some(q.query_id), q.tenant.as_deref()),
        }
    }

    /// Open a span starting at `start_us` (microseconds in `domain`).
    pub fn begin(
        &self,
        cat: Category,
        name: &str,
        domain: Domain,
        start_us: u64,
        mut ctx: SpanCtx,
    ) -> SpanId {
        if let Some(inner) = &self.inner {
            self.stamp(&mut ctx);
            let mut data = inner.lock().unwrap();
            let id = data.spans.len() as u64;
            data.spans.push(Span {
                cat,
                name: name.to_string(),
                domain,
                start_us,
                end_us: None,
                ctx,
            });
            return SpanId(id);
        }
        if let Some(metrics) = &self.metrics {
            // Metrics-only mode: every label is known here (explicit ctx
            // attributes win over the opening handle's scope), so the
            // span's series resolve now and closing is a slab read.
            let (sq, st) = self.scope_parts();
            let query = ctx.query.or(sq);
            let tenant = ctx.tenant.as_deref().or(st);
            let mut m = registry(metrics);
            let id = m.open_span(cat, name, domain, start_us, ctx.node, query, tenant);
            if let Some(n) = ctx.note {
                m.set_open_note(id, n);
            }
            return SpanId(id | SpanId::METRICS_BIT);
        }
        SpanId::DISABLED
    }

    /// Close a span at `end_us` (same clock domain as its start).
    ///
    /// # Panics
    /// Panics if `end_us < start_us` — a span ending before it starts is
    /// always an engine logic error, and catching it here is what makes
    /// the "spans never run backwards" property structural.
    pub fn end(&self, span: SpanId, end_us: u64) {
        self.end_annotated(span, end_us, None);
    }

    /// Close a span and replace its note ("lost", "abandoned", …).
    pub fn end_with_note(&self, span: SpanId, end_us: u64, note: &str) {
        self.end_annotated(span, end_us, Some(note));
    }

    fn end_annotated(&self, span: SpanId, end_us: u64, note: Option<&str>) {
        if span == SpanId::DISABLED {
            return;
        }
        if span.0 & SpanId::METRICS_BIT != 0 {
            let Some(metrics) = &self.metrics else { return };
            // Checkpoint commits are flight-worthy; the registry hands
            // the resolved strings back (rare, off the warm path).
            let fl = registry(metrics).close_span(
                span.0 & !SpanId::METRICS_BIT,
                end_us,
                note,
                self.flight.is_some(),
            );
            if let Some(f) = fl {
                let ctx = SpanCtx {
                    node: f.node,
                    query: f.query,
                    tenant: f.tenant,
                    ..SpanCtx::default()
                };
                self.flight_stamped(
                    FlightKind::CheckpointCommit,
                    f.domain,
                    end_us,
                    &ctx,
                    f.detail,
                );
            }
            return;
        }
        let Some(inner) = &self.inner else {
            return;
        };
        let (cat, name, domain, start_us, ctx) = {
            let mut data = inner.lock().unwrap();
            let s = &mut data.spans[span.0 as usize];
            assert!(
                end_us >= s.start_us,
                "span \"{}\" ends at {}us before it starts at {}us",
                s.name,
                end_us,
                s.start_us
            );
            assert!(s.end_us.is_none(), "span \"{}\" closed twice", s.name);
            s.end_us = Some(end_us);
            if let Some(n) = note {
                s.ctx.note = Some(n.to_string());
            }
            // A trace-only close is done: no registry meters the span and
            // no flight ring reads this close, so nothing needs a copy.
            if self.metrics.is_none() && (self.flight.is_none() || s.cat != Category::Checkpoint) {
                return;
            }
            (s.cat, s.name.clone(), s.domain, s.start_us, s.ctx.clone())
        };
        if let Some(metrics) = &self.metrics {
            registry(metrics).meter_span(cat, &name, domain, start_us, end_us, &ctx);
        }
        self.flight_from_span(cat, &name, domain, end_us, &ctx);
    }

    /// Auto-forward significant span closes into the flight ring:
    /// checkpoint commits are exactly the events the ring exists for.
    fn flight_from_span(
        &self,
        cat: Category,
        name: &str,
        domain: Domain,
        end_us: u64,
        ctx: &SpanCtx,
    ) {
        if cat != Category::Checkpoint {
            return;
        }
        let detail = match &ctx.note {
            Some(n) => format!("{name}: {n}"),
            None => name.to_string(),
        };
        self.flight_stamped(FlightKind::CheckpointCommit, domain, end_us, ctx, detail);
    }

    /// Record a point event at `at_us`.
    pub fn instant(&self, cat: Category, name: &str, domain: Domain, at_us: u64, mut ctx: SpanCtx) {
        // Failure-lifecycle instants are flight-worthy by definition.
        let kind = match (cat, name) {
            (Category::Detection, "crash") => Some(FlightKind::Crash),
            (Category::Detection, _) => Some(FlightKind::Suspicion),
            (Category::Replan, _) => Some(FlightKind::Replan),
            _ => None,
        };
        // Only the trace and flight planes need the scope materialised in
        // the ctx; the metrics plane takes it by reference below.
        if self.inner.is_some() || (kind.is_some() && self.flight.is_some()) {
            self.stamp(&mut ctx);
        }
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().instants.push(InstantEvent {
                cat,
                name: name.to_string(),
                domain,
                at_us,
                ctx: ctx.clone(),
            });
        }
        if let Some(metrics) = &self.metrics {
            let (sq, st) = self.scope_parts();
            let query = ctx.query.or(sq);
            let tenant = ctx.tenant.as_deref().or(st);
            registry(metrics).meter_instant(cat, name, domain, at_us, query, tenant);
        }
        if let Some(kind) = kind {
            self.flight_stamped(kind, domain, at_us, &ctx, name.to_string());
        }
    }

    /// Record a significant event straight into the flight ring (plans,
    /// retries, rung changes, oracle violations — anything the last-N
    /// memory should keep). No-op without an attached ring.
    pub fn flight(
        &self,
        kind: FlightKind,
        domain: Domain,
        at_us: u64,
        node: Option<u64>,
        detail: impl Into<String>,
    ) {
        if self.flight.is_none() {
            return;
        }
        let mut ctx = SpanCtx {
            node,
            ..SpanCtx::default()
        };
        self.stamp(&mut ctx);
        self.flight_stamped(kind, domain, at_us, &ctx, detail.into());
    }

    fn flight_stamped(
        &self,
        kind: FlightKind,
        domain: Domain,
        at_us: u64,
        ctx: &SpanCtx,
        detail: String,
    ) {
        let Some(flight) = &self.flight else { return };
        flight.lock().unwrap().push(FlightEvent {
            seq: 0,
            kind,
            domain,
            at_us,
            node: ctx.node,
            query: ctx.query,
            tenant: ctx.tenant.clone(),
            detail,
        });
    }

    /// Add `delta` to the named monotonic counter (and, when metering, to
    /// the metrics series of the same name labelled with the query scope).
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut data = inner.lock().unwrap();
            // Look up by `&str` first: allocating the key only on first
            // sight keeps the warm path allocation-free.
            match data.counters.get_mut(counter) {
                Some(v) => *v += delta,
                None => {
                    data.counters.insert(counter.to_string(), delta);
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            let (q, t) = self.scope_parts();
            let mut m = registry(metrics);
            let id = m.fast_counter_id(counter, q, t);
            m.counter_add(id, delta);
        }
    }

    /// Record a gauge sample (last value wins in the summary; every sample
    /// is kept for the Chrome counter track).
    pub fn gauge(&self, name: &str, domain: Domain, at_us: u64, value: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().gauges.push(GaugeSample {
                name: name.to_string(),
                domain,
                at_us,
                value,
            });
        }
        if let Some(metrics) = &self.metrics {
            let (q, t) = self.scope_parts();
            let mut m = registry(metrics);
            let id = m.scoped_gauge_id(name, q, t);
            match domain {
                // Sim timestamps are deterministic → windowed history.
                Domain::Sim => m.gauge_write_at(id, at_us, value),
                // Wall timestamps are noise → keep only the last value.
                Domain::Wall => m.gauge_write(id, value),
            }
        }
    }

    /// Record a sample into the named Fibonacci histogram (µs base).
    pub fn observe(&self, hist: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut data = inner.lock().unwrap();
            match data.hists.get_mut(hist) {
                Some(h) => h.observe(value),
                None => {
                    let mut h = crate::hist::FibHistogram::micros();
                    h.observe(value);
                    data.hists.insert(hist.to_string(), h);
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            let (q, t) = self.scope_parts();
            let mut m = registry(metrics);
            let id = m.fast_hist_id(hist, q, t);
            m.hist_observe(id, value);
        }
    }

    /// [`Recorder::observe`] with a simulated-clock timestamp: the
    /// metrics plane additionally buckets the sample into `sim_us`'s
    /// window.
    pub fn observe_at(&self, hist: &str, sim_us: u64, value: u64) {
        if let Some(inner) = &self.inner {
            let mut data = inner.lock().unwrap();
            match data.hists.get_mut(hist) {
                Some(h) => h.observe(value),
                None => {
                    let mut h = crate::hist::FibHistogram::micros();
                    h.observe(value);
                    data.hists.insert(hist.to_string(), h);
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            let (q, t) = self.scope_parts();
            let mut m = registry(metrics);
            let id = m.fast_hist_id(hist, q, t);
            m.hist_observe_at(id, sim_us, value);
        }
    }

    /// Freeze the metrics registry into a snapshot; `None` when no
    /// registry is attached.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| registry(m).snapshot())
    }

    /// Dump the flight ring; `None` when no ring is attached.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.flight.as_ref().map(|f| f.lock().unwrap().dump())
    }

    /// Drain the recorded trace events, leaving the buffer empty. A
    /// recorder without a trace buffer yields an empty [`TraceData`].
    pub fn take(&self) -> TraceData {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.lock().unwrap()),
            None => TraceData::default(),
        }
    }

    /// Clone the recorded trace events without draining.
    pub fn snapshot(&self) -> TraceData {
        match &self.inner {
            Some(inner) => inner.lock().unwrap().clone(),
            None => TraceData::default(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::off();
        assert!(!rec.is_enabled());
        assert!(!rec.is_metering());
        assert!(!rec.has_flight());
        let span = rec.begin(Category::Task, "t", Domain::Sim, 10, SpanCtx::default());
        assert_eq!(span, SpanId::DISABLED);
        rec.end(span, 5); // end < start would panic if recorded
        rec.add("c", 1);
        rec.gauge("g", Domain::Sim, 0, 1.0);
        rec.observe("h", 42);
        rec.instant(Category::Replan, "r", Domain::Sim, 0, SpanCtx::default());
        rec.flight(FlightKind::Retry, Domain::Sim, 0, None, "x");
        let data = rec.take();
        assert_eq!(data.spans.len(), 0);
        assert_eq!(data.counters.len(), 0);
        assert!(rec.metrics_snapshot().is_none());
        assert!(rec.flight_dump().is_none());
    }

    #[test]
    fn spans_counters_gauges_roundtrip() {
        let rec = Recorder::new();
        let s = rec.begin(
            Category::Task,
            "map",
            Domain::Sim,
            100,
            SpanCtx::default().node(2).block(7),
        );
        rec.end(s, 400);
        rec.add("tasks", 1);
        rec.add("tasks", 2);
        rec.gauge("fpr", Domain::Wall, 5, 0.01);
        rec.observe("lat", 300);
        let data = rec.take();
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].end_us, Some(400));
        assert_eq!(data.spans[0].ctx.node, Some(2));
        assert_eq!(data.counters["tasks"], 3);
        assert_eq!(data.gauges.len(), 1);
        assert_eq!(data.hists["lat"].total(), 1);
        // take() drained.
        assert_eq!(rec.take().spans.len(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.add("x", 1);
        rec.add("x", 1);
        assert_eq!(rec.snapshot().counters["x"], 2);
    }

    /// Property (satellite): spans can never end before they start on the
    /// recording clock.
    #[test]
    #[should_panic(expected = "before it starts")]
    fn span_cannot_end_before_start() {
        let rec = Recorder::new();
        let s = rec.begin(Category::Task, "t", Domain::Sim, 100, SpanCtx::default());
        rec.end(s, 99);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn span_cannot_close_twice() {
        let rec = Recorder::new();
        let s = rec.begin(Category::Task, "t", Domain::Sim, 0, SpanCtx::default());
        rec.end(s, 1);
        rec.end(s, 2);
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }

    #[test]
    fn wall_clock_is_monotone() {
        let rec = Recorder::new();
        let a = rec.wall_us();
        let b = rec.wall_us();
        assert!(b >= a);
    }

    #[test]
    fn metrics_only_spans_meter_without_a_trace_buffer() {
        let rec = Recorder::off().with_metrics();
        assert!(!rec.is_enabled());
        assert!(rec.is_metering());
        let s = rec.begin(
            Category::Task,
            "select",
            Domain::Sim,
            100,
            SpanCtx::default().node(1),
        );
        assert_ne!(s, SpanId::DISABLED);
        rec.end(s, 600);
        let snap = rec.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["node_busy_us{node=\"1\"}"], 500);
        assert_eq!(
            snap.hists["span_us{cat=\"task\",clock=\"sim\",name=\"select\"}"].count,
            1
        );
        // No trace was kept.
        assert_eq!(rec.take().spans.len(), 0);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn metrics_only_span_cannot_close_twice() {
        let rec = Recorder::off().with_metrics();
        let s = rec.begin(Category::Task, "t", Domain::Sim, 0, SpanCtx::default());
        rec.end(s, 1);
        rec.end(s, 2);
    }

    /// A span-shape assert firing inside the registry must not wedge the
    /// handles other threads hold.
    #[test]
    fn a_panic_inside_the_registry_leaves_other_handles_working() {
        let rec = Recorder::off().with_metrics();
        rec.add("before", 1);
        let clone = rec.clone();
        let died = std::thread::spawn(move || {
            let s = clone.begin(Category::Task, "t", Domain::Sim, 0, SpanCtx::default());
            clone.end(s, 1);
            clone.end(s, 2);
        })
        .join();
        assert!(died.is_err(), "the double close panics");
        let s = rec.begin(Category::Task, "t", Domain::Sim, 10, SpanCtx::default());
        rec.end(s, 30);
        rec.add("after", 1);
        let snap = rec.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["before"], 1);
        assert_eq!(snap.counters["after"], 1);
        let spans = &snap.hists["span_us{cat=\"task\",clock=\"sim\",name=\"t\"}"];
        assert_eq!((spans.count, spans.sum), (2, 21));
    }

    #[test]
    fn scoped_recorder_stamps_query_and_tenant() {
        let rec = Recorder::new().with_metrics().with_flight();
        let q = rec.scoped(QueryCtx::new(7).tenant("acme"));
        let s = q.begin(
            Category::Phase,
            "selection",
            Domain::Sim,
            0,
            SpanCtx::default(),
        );
        q.end(s, 2_000);
        q.instant(
            Category::Detection,
            "crash",
            Domain::Sim,
            500,
            SpanCtx::default().node(3),
        );
        let trace = rec.snapshot();
        assert_eq!(trace.spans[0].ctx.query, Some(7));
        assert_eq!(trace.spans[0].ctx.tenant.as_deref(), Some("acme"));
        assert_eq!(trace.instants[0].ctx.query, Some(7));
        let snap = rec.metrics_snapshot().unwrap();
        let key =
            "span_us{cat=\"phase\",clock=\"sim\",name=\"selection\",query=\"7\",tenant=\"acme\"}";
        assert_eq!(snap.hists[key].count, 1);
        // The crash instant reached the flight ring with its query id.
        let dump = rec.flight_dump().unwrap();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].kind, FlightKind::Crash);
        assert_eq!(dump.events[0].query, Some(7));
        assert_eq!(dump.events[0].node, Some(3));
    }

    #[test]
    fn checkpoint_span_ends_reach_the_flight_ring() {
        let rec = Recorder::new().with_flight();
        let s = rec.begin(
            Category::Checkpoint,
            "commit",
            Domain::Wall,
            0,
            SpanCtx::default(),
        );
        rec.end_with_note(s, 10, "stage 2");
        let dump = rec.flight_dump().unwrap();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].kind, FlightKind::CheckpointCommit);
        assert!(dump.events[0].detail.contains("stage 2"));
    }

    #[test]
    fn fork_trace_shares_metrics_but_not_spans() {
        let rec = Recorder::new().with_metrics();
        let stage = rec.fork_trace();
        let s = stage.begin(
            Category::Task,
            "t",
            Domain::Sim,
            0,
            SpanCtx::default().node(0),
        );
        stage.end(s, 100);
        // The stage trace has the span; the parent trace does not.
        assert_eq!(stage.snapshot().spans.len(), 1);
        assert_eq!(rec.snapshot().spans.len(), 0);
        // But the parent's metrics registry saw it.
        let snap = rec.metrics_snapshot().unwrap();
        assert_eq!(snap.counters["node_busy_us{node=\"0\"}"], 100);
    }

    #[test]
    fn observe_at_windows_by_sim_time() {
        let rec = Recorder::off().with_metrics();
        rec.observe_at("lat", 1_500_000, 77);
        let snap = rec.metrics_snapshot().unwrap();
        assert_eq!(snap.win_hists["lat"][0].0, 1_000_000);
    }
}
