//! Spans recorded by the harness around each call into a product layer.
//!
//! The product is measured from outside: a span opens before the harness
//! calls a layer's public function and closes when it returns. Spans live in
//! a pre-sized `Vec` and are written as JSONL when the run ends. A layer's
//! self time is its span minus the spans nested directly inside it; the self
//! time of an op span is benchmark glue and is reported as unattributed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The product's layers, named after its crates and modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Workloads,
    Dfs,
    Scan,
    Ingest,
    Store,
    Planner,
    Engine,
    Shuffle,
    Analytics,
    Checkpoint,
    Serve,
    /// The benchmark's own op and set-up spans.
    Harness,
}

impl Layer {
    /// Every product layer (everything but [`Layer::Harness`]).
    pub const PRODUCT: [Layer; 11] = [
        Layer::Workloads,
        Layer::Dfs,
        Layer::Scan,
        Layer::Ingest,
        Layer::Store,
        Layer::Planner,
        Layer::Engine,
        Layer::Shuffle,
        Layer::Analytics,
        Layer::Checkpoint,
        Layer::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads",
            Layer::Dfs => "dfs",
            Layer::Scan => "scan",
            Layer::Ingest => "ingest",
            Layer::Store => "store",
            Layer::Planner => "planner",
            Layer::Engine => "engine",
            Layer::Shuffle => "shuffle",
            Layer::Analytics => "analytics",
            Layer::Checkpoint => "checkpoint",
            Layer::Serve => "serve",
            Layer::Harness => "harness",
        }
    }
}

/// Which part of the run a span belongs to. Only `Op` spans enter
/// `self_frac.*`. `Probe` spans time calls that an op hides behind one
/// public function, standalone on the same inputs, after the ops; `Untimed`
/// spans sit inside an op but outside its latency (see
/// [`Tracer::untimed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Op,
    Untimed,
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Op => "op",
            Phase::Untimed => "untimed",
            Phase::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Op index within the op list; `None` outside the measured phase.
    pub request: Option<u32>,
    pub replay: u32,
    pub phase: Phase,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the call covered (ids, blocks, records…), for per-unit
    /// metrics; 1 when the call is the unit.
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub ns: u64,
    pub calls: u64,
    pub units: u64,
}

impl Agg {
    pub fn ms_per_call(&self) -> f64 {
        self.ns as f64 / 1e6 / self.calls.max(1) as f64
    }
    pub fn us_per_call(&self) -> f64 {
        self.ns as f64 / 1e3 / self.calls.max(1) as f64
    }
    pub fn us_per_unit(&self) -> f64 {
        self.ns as f64 / 1e3 / self.units.max(1) as f64
    }
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    /// Set-up clock: while set, every `call` is timed and summed even with
    /// tracing off, so `setup_s` covers product calls only.
    clocking: bool,
    clocked_ns: u64,
    untimed_ns: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: Option<u32>,
    replay: u32,
    phase: Phase,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            on,
            clocking: false,
            clocked_ns: 0,
            untimed_ns: 0,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            request: None,
            replay: 0,
            phase: Phase::Setup,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_context(&mut self, phase: Phase, replay: u32, request: Option<u32>) {
        self.phase = phase;
        self.replay = replay;
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span by hand (op and set-up spans, which nest layer calls).
    pub fn open(&mut self, layer: Layer, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            replay: self.replay,
            phase: self.phase,
            layer,
            name,
            start_ns: now,
            end_ns: now,
            units: 1,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Time one call into `layer`. With tracing and the set-up clock both
    /// off this is exactly `f()`.
    #[inline]
    pub fn call<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        units: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on && !self.clocking {
            return f();
        }
        let id = self.open(layer, name);
        let t = Instant::now();
        let out = f();
        if self.clocking {
            self.clocked_ns += t.elapsed().as_nanos() as u64;
        }
        self.close(id);
        if let Some(id) = id {
            self.spans[id as usize].units = units;
        }
        out
    }

    /// Run a step that belongs to an op's state but not to its latency: a
    /// private copy of shared state the harness owes the op, or file writes
    /// whose cost the host's filesystem sets (see the README's flush
    /// policy). The harness subtracts the time from the op; the span is
    /// kept, marked `untimed`, and stays out of `self_frac.*`.
    pub fn untimed<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let phase = std::mem::replace(&mut self.phase, Phase::Untimed);
        let id = self.open(layer, name);
        let t = Instant::now();
        let out = f();
        self.untimed_ns += t.elapsed().as_nanos() as u64;
        self.close(id);
        self.phase = phase;
        out
    }

    /// Nanoseconds spent in `untimed` steps since the last call.
    pub fn take_untimed_ns(&mut self) -> u64 {
        std::mem::take(&mut self.untimed_ns)
    }

    pub fn start_clock(&mut self) {
        self.clocking = true;
        self.clocked_ns = 0;
    }

    /// Seconds spent inside `call`s since `start_clock`.
    pub fn stop_clock(&mut self) -> f64 {
        self.clocking = false;
        self.clocked_ns as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let mut m: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let a = m.entry(s.name).or_default();
            a.ns += s.dur_ns();
            a.calls += 1;
            a.units += s.units;
        }
        m
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        for s in &self.spans {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"replay\":{},\"phase\":\"{}\",\
                 \"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.replay,
                s.phase.name(),
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.units
            );
        }
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Where the measured phase's time went: each product layer's share of the
/// op spans' total duration, and the share left on the op spans themselves.
/// The shares sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub layer_frac: BTreeMap<Layer, f64>,
    pub unattributed_frac: f64,
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let own = self_times(spans);
    let mut per_layer: BTreeMap<Layer, u64> = BTreeMap::new();
    let mut total = 0u64;
    for (s, &ns) in spans.iter().zip(&own) {
        if s.phase == Phase::Op {
            *per_layer.entry(s.layer).or_default() += ns;
            total += ns;
        }
    }
    let total = total.max(1) as f64;
    let glue = per_layer.remove(&Layer::Harness).unwrap_or(0);
    Attribution {
        layer_frac: Layer::PRODUCT
            .iter()
            .map(|&l| (l, per_layer.get(&l).copied().unwrap_or(0) as f64 / total))
            .collect(),
        unattributed_frac: glue as f64 / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: Some(0),
            replay: 0,
            phase: Phase::Op,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ store [10,60) ⊃ scan [20,30); op ⊃ planner [60,90)
        let spans = vec![
            span(0, None, Layer::Harness, 0, 100),
            span(1, Some(0), Layer::Store, 10, 60),
            span(2, Some(1), Layer::Scan, 20, 30),
            span(3, Some(0), Layer::Planner, 60, 90),
        ];
        // The grandchild is subtracted from its parent, not from the op.
        assert_eq!(self_times(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn sibling_spans_each_keep_their_own_time() {
        let spans = vec![
            span(0, None, Layer::Harness, 0, 50),
            span(1, Some(0), Layer::Scan, 0, 20),
            span(2, Some(0), Layer::Scan, 20, 45),
        ];
        assert_eq!(self_times(&spans), vec![5, 20, 25]);
    }

    #[test]
    fn attribution_sums_to_one_and_isolates_glue() {
        let mut spans = vec![
            span(0, None, Layer::Harness, 0, 100),
            span(1, Some(0), Layer::Store, 10, 60),
            span(2, Some(1), Layer::Scan, 20, 30),
            span(3, Some(0), Layer::Planner, 60, 90),
        ];
        // Set-up and probe spans never enter the shares.
        let mut setup = span(4, None, Layer::Dfs, 200, 900);
        setup.phase = Phase::Setup;
        let mut probe = span(5, None, Layer::Serve, 900, 950);
        probe.phase = Phase::Probe;
        spans.extend([setup, probe]);
        let a = attribute(&spans);
        assert!((a.unattributed_frac - 0.20).abs() < 1e-12);
        assert!((a.layer_frac[&Layer::Store] - 0.40).abs() < 1e-12);
        assert!((a.layer_frac[&Layer::Scan] - 0.10).abs() < 1e-12);
        assert!((a.layer_frac[&Layer::Planner] - 0.30).abs() < 1e-12);
        assert_eq!(a.layer_frac[&Layer::Dfs], 0.0);
        assert_eq!(a.layer_frac[&Layer::Serve], 0.0);
        let sum: f64 = a.layer_frac.values().sum::<f64>() + a.unattributed_frac;
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_calls_under_open_spans_and_is_free_when_off() {
        let mut tr = Tracer::new(true, 16);
        tr.set_context(Phase::Op, 2, Some(7));
        let op = tr.open(Layer::Harness, "op");
        let v = tr.call(Layer::Scan, "scan.views", 8, || 41 + 1);
        tr.close(op);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].request, s[1].replay, s[1].units), (Some(7), 2, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let line = tr.to_jsonl().lines().nth(1).unwrap().to_string();
        assert!(line.starts_with("{\"id\":1,\"parent\":0,\"request\":7,\"replay\":2,"));
        assert!(line.contains("\"layer\":\"scan\",\"name\":\"scan.views\""));

        // An untimed step is a child of the op (so it leaves the op's self
        // time) but not an `Op` span (so it enters no share).
        tr.set_context(Phase::Op, 0, Some(0));
        let op = tr.open(Layer::Harness, "op");
        tr.untimed(Layer::Ingest, "ingest.commit_apply", || {
            std::hint::black_box(0)
        });
        tr.close(op);
        let last = tr.spans().last().unwrap();
        assert_eq!((last.phase, last.parent), (Phase::Untimed, Some(2)));
        let _ = tr.take_untimed_ns();
        assert_eq!(tr.take_untimed_ns(), 0);

        let mut off = Tracer::new(false, 16);
        assert_eq!(off.call(Layer::Scan, "scan.views", 8, || 1), 1);
        assert!(off.spans().is_empty());
        // The set-up clock times calls even with tracing off.
        off.start_clock();
        off.call(Layer::Dfs, "dfs.write", 1, || std::hint::black_box(0));
        assert!(off.stop_clock() >= 0.0);
        assert!(off.spans().is_empty());
    }
}
