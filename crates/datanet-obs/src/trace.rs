//! Recorded event storage and the Chrome-trace exporter.

use crate::hist::FibHistogram;
use crate::recorder::{Category, Domain, SpanCtx};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// A closed or still-open interval event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Event taxonomy bucket.
    pub cat: Category,
    /// Human-readable name ("map", "shard", …).
    pub name: String,
    /// Which clock the timestamps belong to.
    pub domain: Domain,
    /// Start, microseconds in `domain`.
    pub start_us: u64,
    /// End, microseconds in `domain`; `None` while the span is open.
    pub end_us: Option<u64>,
    /// Node/block/sub-dataset attribution.
    pub ctx: SpanCtx,
}

impl Span {
    /// Span duration in microseconds (0 while open).
    pub fn duration_us(&self) -> u64 {
        self.end_us.map_or(0, |e| e - self.start_us)
    }
}

/// A point event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantEvent {
    /// Event taxonomy bucket.
    pub cat: Category,
    /// Event name ("crash", "suspect", "replan", …).
    pub name: String,
    /// Which clock `at_us` belongs to.
    pub domain: Domain,
    /// Timestamp, microseconds in `domain`.
    pub at_us: u64,
    /// Node/block/sub-dataset attribution.
    pub ctx: SpanCtx,
}

/// One sample of a named gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Gauge name.
    pub name: String,
    /// Which clock `at_us` belongs to.
    pub domain: Domain,
    /// Sample time, microseconds in `domain`.
    pub at_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// Everything one recorder collected: the in-memory event log the
/// exporters and derived views read.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceData {
    /// Interval events, in begin order.
    pub spans: Vec<Span>,
    /// Point events, in record order.
    pub instants: Vec<InstantEvent>,
    /// Monotonic counters (final totals).
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples, in record order.
    pub gauges: Vec<GaugeSample>,
    /// Named Fibonacci histograms.
    pub hists: BTreeMap<String, FibHistogram>,
}

/// Chrome-trace pid for each clock domain: the two clocks become two
/// "processes" so Perfetto lays them out as separate tracks.
fn pid(domain: Domain) -> u64 {
    match domain {
        Domain::Sim => 0,
        Domain::Wall => 1,
    }
}

/// Chrome-trace tid: nodes are threads (tid = node + 1); events with no
/// node attribution share tid 0.
fn tid(ctx: &SpanCtx) -> u64 {
    ctx.node.map_or(0, |n| n + 1)
}

fn args_value(ctx: &SpanCtx) -> Value {
    let mut entries = Vec::new();
    if let Some(n) = ctx.node {
        entries.push(("node".to_string(), Value::U64(n)));
    }
    if let Some(b) = ctx.block {
        entries.push(("block".to_string(), Value::U64(b)));
    }
    if let Some(s) = ctx.sub {
        entries.push(("sub".to_string(), Value::U64(s)));
    }
    if let Some(q) = ctx.query {
        entries.push(("query".to_string(), Value::U64(q)));
    }
    if let Some(t) = &ctx.tenant {
        entries.push(("tenant".to_string(), Value::Str(t.clone())));
    }
    if let Some(note) = &ctx.note {
        entries.push(("note".to_string(), Value::Str(note.clone())));
    }
    Value::Object(entries)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl TraceData {
    /// Number of spans never closed — always 0 after a healthy run.
    pub fn unclosed_spans(&self) -> usize {
        self.spans.iter().filter(|s| s.end_us.is_none()).count()
    }

    /// Latest simulated-clock microsecond any event touches (the traced
    /// makespan).
    pub fn sim_end_us(&self) -> u64 {
        let span_end = self
            .spans
            .iter()
            .filter(|s| s.domain == Domain::Sim)
            .map(|s| s.end_us.unwrap_or(s.start_us))
            .max()
            .unwrap_or(0);
        let instant_end = self
            .instants
            .iter()
            .filter(|i| i.domain == Domain::Sim)
            .map(|i| i.at_us)
            .max()
            .unwrap_or(0);
        span_end.max(instant_end)
    }

    /// Per-node `(busy_us, task_count)` summed over closed sim-clock
    /// [`Category::Task`] spans — the utilisation timeline's integral.
    pub fn node_busy_us(&self) -> BTreeMap<u64, (u64, u64)> {
        let mut busy = BTreeMap::new();
        for s in &self.spans {
            if s.cat != Category::Task || s.domain != Domain::Sim {
                continue;
            }
            let Some(node) = s.ctx.node else { continue };
            let entry = busy.entry(node).or_insert((0u64, 0u64));
            entry.0 += s.duration_us();
            entry.1 += 1;
        }
        busy
    }

    /// Last recorded value of every gauge.
    pub(crate) fn gauge_finals(&self) -> BTreeMap<String, f64> {
        let mut finals = BTreeMap::new();
        for g in &self.gauges {
            finals.insert(g.name.clone(), g.value);
        }
        finals
    }

    /// Serialize to Chrome `trace_event` JSON (object form), loadable in
    /// `chrome://tracing` and Perfetto.
    ///
    /// Layout: the simulated clock is pid 0 and the wall clock pid 1;
    /// each node is a thread (tid = node + 1, tid 0 for unattributed
    /// events). Spans are `ph:"X"` complete events, instants `ph:"i"`,
    /// gauge samples `ph:"C"` counter tracks. Counters and histograms,
    /// which have totals but no timestamps, ride in `otherData` along
    /// with the unclosed-span count CI gates on.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::new();
        // Process/thread naming metadata.
        for (p, label) in [(0u64, "simulated clock"), (1u64, "wall clock")] {
            events.push(obj(vec![
                ("name", Value::Str("process_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(p)),
                ("tid", Value::U64(0)),
                ("args", obj(vec![("name", Value::Str(label.to_string()))])),
            ]));
        }
        let mut threads: Vec<(u64, u64)> = self
            .spans
            .iter()
            .map(|s| (pid(s.domain), tid(&s.ctx)))
            .chain(self.instants.iter().map(|i| (pid(i.domain), tid(&i.ctx))))
            .collect();
        threads.sort_unstable();
        threads.dedup();
        for &(p, t) in &threads {
            let label = if t == 0 {
                "global".to_string()
            } else {
                format!("node {}", t - 1)
            };
            events.push(obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(p)),
                ("tid", Value::U64(t)),
                ("args", obj(vec![("name", Value::Str(label))])),
            ]));
        }
        for s in &self.spans {
            events.push(obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str(s.cat.as_str().into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(pid(s.domain))),
                ("tid", Value::U64(tid(&s.ctx))),
                ("ts", Value::U64(s.start_us)),
                ("dur", Value::U64(s.duration_us())),
                ("args", args_value(&s.ctx)),
            ]));
        }
        for i in &self.instants {
            events.push(obj(vec![
                ("name", Value::Str(i.name.clone())),
                ("cat", Value::Str(i.cat.as_str().into())),
                ("ph", Value::Str("i".into())),
                ("s", Value::Str("t".into())),
                ("pid", Value::U64(pid(i.domain))),
                ("tid", Value::U64(tid(&i.ctx))),
                ("ts", Value::U64(i.at_us)),
                ("args", args_value(&i.ctx)),
            ]));
        }
        for g in &self.gauges {
            events.push(obj(vec![
                ("name", Value::Str(g.name.clone())),
                ("ph", Value::Str("C".into())),
                ("pid", Value::U64(pid(g.domain))),
                ("tid", Value::U64(0)),
                ("ts", Value::U64(g.at_us)),
                ("args", obj(vec![("value", Value::F64(g.value))])),
            ]));
        }
        let hists = Value::Object(
            self.hists
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("total", Value::U64(h.total())),
                            ("mean", Value::F64(h.mean())),
                            (
                                "sparse",
                                Value::Array(
                                    h.sparse()
                                        .into_iter()
                                        .map(|(b, c)| {
                                            Value::Array(vec![Value::U64(b), Value::U64(c)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                obj(vec![
                    ("unclosed_spans", Value::U64(self.unclosed_spans() as u64)),
                    ("counters", self.counters.to_value()),
                    ("histograms", hists),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("chrome trace serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, SpanCtx};

    fn sample_trace() -> TraceData {
        let rec = Recorder::new();
        let a = rec.begin(
            Category::Task,
            "map",
            Domain::Sim,
            0,
            SpanCtx::default().node(0).block(1),
        );
        rec.end(a, 100);
        let b = rec.begin(
            Category::Task,
            "map",
            Domain::Sim,
            50,
            SpanCtx::default().node(1).block(2),
        );
        rec.end(b, 350);
        rec.instant(
            Category::Detection,
            "crash",
            Domain::Sim,
            40,
            SpanCtx::default().node(2),
        );
        rec.gauge("fpr", Domain::Wall, 10, 0.004);
        rec.add("tasks_executed", 2);
        rec.observe("task_us", 100);
        rec.observe("task_us", 300);
        rec.take()
    }

    #[test]
    fn node_busy_sums_task_spans() {
        let t = sample_trace();
        let busy = t.node_busy_us();
        assert_eq!(busy[&0], (100, 1));
        assert_eq!(busy[&1], (300, 1));
        assert_eq!(t.sim_end_us(), 350);
        assert_eq!(t.unclosed_spans(), 0);
    }

    #[test]
    fn chrome_export_parses_and_has_every_event() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        let v = serde_json::parse_value(json.as_bytes()).unwrap();
        let events = match v.get("traceEvents").unwrap() {
            Value::Array(items) => items,
            other => panic!("traceEvents must be an array, got {}", other.kind()),
        };
        let xs = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "X"))
            .count();
        let is = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "i"))
            .count();
        let cs = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "C"))
            .count();
        assert_eq!((xs, is, cs), (2, 1, 1));
        let other = v.get("otherData").unwrap();
        assert_eq!(other.get("unclosed_spans"), Some(&Value::U64(0)));
        assert_eq!(
            other.get("counters").unwrap().get("tasks_executed"),
            Some(&Value::U64(2))
        );
        assert!(other.get("histograms").unwrap().get("task_us").is_some());
    }

    #[test]
    fn unclosed_spans_are_counted_in_export() {
        let rec = Recorder::new();
        rec.begin(Category::Task, "map", Domain::Sim, 0, SpanCtx::default());
        let t = rec.take();
        assert_eq!(t.unclosed_spans(), 1);
        let v = serde_json::parse_value(t.to_chrome_json().as_bytes()).unwrap();
        assert_eq!(
            v.get("otherData").unwrap().get("unclosed_spans"),
            Some(&Value::U64(1))
        );
    }

    #[test]
    fn trace_data_roundtrips_through_serde() {
        let t = sample_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: TraceData = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
