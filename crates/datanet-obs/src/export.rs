//! Metrics-snapshot exporter: OpenMetrics/Prometheus text exposition.
//!
//! The exposition format follows the OpenMetrics conventions: counter
//! samples carry the `_total` suffix, histogram series are exported as
//! summaries (`quantile` label + `_sum` + `_count` — the percentiles are
//! pre-derived from the Fibonacci buckets, so summaries lose nothing),
//! and the document ends with `# EOF`. Windowed series have no cumulative
//! reading, so they ride only in the JSON snapshot itself.
//! The integration tests read it back through a strict parser of the
//! text format.

use crate::metrics::{split_series, MetricsSnapshot};

/// Metric family kind in the text format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OmKind {
    /// Monotonic counter (`_total` samples).
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Quantile summary (`quantile` label, `_sum`, `_count`).
    Summary,
}

impl OmKind {
    fn as_str(self) -> &'static str {
        match self {
            OmKind::Counter => "counter",
            OmKind::Gauge => "gauge",
            OmKind::Summary => "summary",
        }
    }
}

/// Render a snapshot in OpenMetrics text exposition format.
pub fn to_openmetrics(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let mut declare = |out: &mut String, family: &str, kind: OmKind| {
        if family != last_family {
            out.push_str(&format!("# TYPE {family} {}\n", kind.as_str()));
            last_family = family.to_string();
        }
    };
    // BTreeMap iteration keeps series of one family adjacent and sorted.
    for (key, &v) in &snap.counters {
        let (name, labels) = split_series(key);
        declare(&mut out, name, OmKind::Counter);
        out.push_str(&format!("{name}_total{labels} {v}\n"));
    }
    for (key, &v) in &snap.gauges {
        let (name, labels) = split_series(key);
        declare(&mut out, name, OmKind::Gauge);
        out.push_str(&format!("{name}{labels} {}\n", fmt_f64(v)));
    }
    for (key, h) in &snap.hists {
        let (name, labels) = split_series(key);
        declare(&mut out, name, OmKind::Summary);
        for (q, bound) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            let with_q = inject_label(labels, "quantile", q);
            out.push_str(&format!("{name}{with_q} {bound}\n"));
        }
        out.push_str(&format!("{name}_sum{labels} {}\n", h.sum));
        out.push_str(&format!("{name}_count{labels} {}\n", h.count));
    }
    out.push_str("# EOF\n");
    out
}

/// Format a float the way the exposition format expects (no exponent for
/// the magnitudes we emit, integral values without a trailing `.0` are
/// still valid samples).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Insert a label into a `{...}` label-set string (which may be empty).
fn inject_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // "{a=\"b\"}" → "{a=\"b\",key=\"value\"}"
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}
