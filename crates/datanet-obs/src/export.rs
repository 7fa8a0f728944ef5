//! Metrics-snapshot exporter: OpenMetrics/Prometheus text exposition, plus
//! a strict parser for the text format.
//!
//! The exposition format follows the OpenMetrics conventions: counter
//! samples carry the `_total` suffix, histogram series are exported as
//! summaries (`quantile` label + `_sum` + `_count` — the percentiles are
//! pre-derived from the Fibonacci buckets, so summaries lose nothing),
//! and the document ends with `# EOF`. Windowed series have no cumulative
//! reading, so they ride only in the JSON snapshot itself.
//!
//! The parser is deliberately strict — unknown line shape, sample before
//! its `# TYPE`, bad label syntax or a missing `# EOF` are hard errors —
//! because it doubles as the CI validator for the export path.

use crate::metrics::{split_series, MetricsSnapshot};

/// Metric family kind in the text format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmKind {
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

    fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(OmKind::Counter),
            "gauge" => Some(OmKind::Gauge),
            "summary" => Some(OmKind::Summary),
            _ => None,
        }
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct OmSample {
    /// Full sample name (family name plus any `_total`/`_sum`/`_count`).
    pub name: String,
    /// Label pairs in document order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl OmSample {
    /// Value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed metric family: its `# TYPE` declaration and samples.
#[derive(Debug, Clone, PartialEq)]
pub struct OmFamily {
    /// Family name as declared.
    pub name: String,
    /// Declared kind.
    pub kind: OmKind,
    /// Samples belonging to this family, in document order.
    pub samples: Vec<OmSample>,
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

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A parsed label set: `(key, value)` pairs in appearance order.
type Labels = Vec<(String, String)>;

/// Parse one `{k="v",…}` label block. Returns the labels and the rest of
/// the line after the closing brace.
fn parse_labels(s: &str, lineno: usize) -> Result<(Labels, &str), String> {
    debug_assert!(s.starts_with('{'));
    let mut labels = Vec::new();
    let mut rest = &s[1..];
    loop {
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((labels, r));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without `=`"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("line {lineno}: bad label name `{name}`"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {lineno}: label value must be quoted"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let end = loop {
            let Some((i, c)) = chars.next() else {
                return Err(format!("line {lineno}: unterminated label value"));
            };
            match c {
                '"' => break i,
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => {
                        return Err(format!(
                            "line {lineno}: bad escape `\\{}`",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ))
                    }
                },
                c => value.push(c),
            }
        };
        labels.push((name.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.starts_with('}') {
            return Err(format!("line {lineno}: expected `,` or `}}` after label"));
        }
    }
}

/// Whether `sample` is a legal sample name for family `family` of `kind`.
fn sample_belongs(family: &str, kind: OmKind, sample: &str) -> bool {
    match kind {
        OmKind::Counter => sample == format!("{family}_total"),
        OmKind::Gauge => sample == family,
        OmKind::Summary => {
            sample == family
                || sample == format!("{family}_sum")
                || sample == format!("{family}_count")
        }
    }
}

/// Strict OpenMetrics text parser. Returns the families in document
/// order; any deviation from the grammar is an error.
pub fn parse_openmetrics(text: &str) -> Result<Vec<OmFamily>, String> {
    let mut families: Vec<OmFamily> = Vec::new();
    let mut saw_eof = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if saw_eof {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if rest == "EOF" {
                saw_eof = true;
                continue;
            }
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split(' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if parts.next().is_some() || !valid_metric_name(name) {
                    return Err(format!("line {lineno}: malformed TYPE line"));
                }
                let kind = OmKind::parse(kind)
                    .ok_or_else(|| format!("line {lineno}: unknown metric type `{kind}`"))?;
                if families.iter().any(|f| f.name == name) {
                    return Err(format!("line {lineno}: family `{name}` declared twice"));
                }
                families.push(OmFamily {
                    name: name.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                continue;
            }
            if rest.starts_with("HELP ") || rest.starts_with("UNIT ") {
                continue;
            }
            return Err(format!("line {lineno}: unknown comment directive"));
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample without value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad metric name `{name}`"));
        }
        let (labels, rest) = if line[name_end..].starts_with('{') {
            parse_labels(&line[name_end..], lineno)?
        } else {
            (Vec::new(), &line[name_end..])
        };
        let value_str = rest
            .strip_prefix(' ')
            .ok_or_else(|| format!("line {lineno}: expected space before value"))?;
        if value_str.contains(' ') {
            return Err(format!("line {lineno}: trailing content after value"));
        }
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value `{value_str}`"))?;
        let family = families
            .last_mut()
            .ok_or_else(|| format!("line {lineno}: sample before any # TYPE"))?;
        if !sample_belongs(&family.name, family.kind, name) {
            return Err(format!(
                "line {lineno}: sample `{name}` does not belong to family `{}`",
                family.name
            ));
        }
        if family.kind == OmKind::Summary && name == family.name {
            let q = OmSample {
                name: name.to_string(),
                labels: labels.clone(),
                value,
            };
            if q.label("quantile").is_none() {
                return Err(format!(
                    "line {lineno}: summary sample without quantile label"
                ));
            }
        }
        family.samples.push(OmSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsData;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut m = MetricsData::new(1_000);
        m.add_at("tasks{node=\"0\"}", 100, 3);
        m.add_at("tasks{node=\"1\"}", 1_200, 2);
        m.add("wall_spans", 7);
        m.observe_at("span_us{cat=\"task\"}", 500, 120);
        m.observe_at("span_us{cat=\"task\"}", 600, 480);
        m.gauge_set("meta_bytes", 1024.0);
        m.gauge_at("est_error", 900, 0.25);
        m.snapshot()
    }

    /// Satellite property: the OpenMetrics export round-trips through the
    /// strict parser with every series and value intact.
    #[test]
    fn openmetrics_roundtrips_through_strict_parser() {
        let snap = sample_snapshot();
        let text = to_openmetrics(&snap);
        let families = parse_openmetrics(&text).expect("export must parse");
        let by_name = |n: &str| families.iter().find(|f| f.name == n).unwrap();
        let tasks = by_name("tasks");
        assert_eq!(tasks.kind, OmKind::Counter);
        assert_eq!(tasks.samples.len(), 2);
        assert_eq!(tasks.samples[0].name, "tasks_total");
        assert_eq!(tasks.samples[0].label("node"), Some("0"));
        assert_eq!(tasks.samples[0].value, 3.0);
        let span = by_name("span_us");
        assert_eq!(span.kind, OmKind::Summary);
        // 3 quantiles + _sum + _count.
        assert_eq!(span.samples.len(), 5);
        let count = span
            .samples
            .iter()
            .find(|s| s.name == "span_us_count")
            .unwrap();
        assert_eq!(count.value, 2.0);
        let sum = span
            .samples
            .iter()
            .find(|s| s.name == "span_us_sum")
            .unwrap();
        assert_eq!(sum.value, 600.0);
        let gauges = by_name("meta_bytes");
        assert_eq!(gauges.kind, OmKind::Gauge);
        assert_eq!(gauges.samples[0].value, 1024.0);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        // No EOF.
        assert!(parse_openmetrics("# TYPE a counter\na_total 1\n").is_err());
        // Sample before TYPE.
        assert!(parse_openmetrics("a_total 1\n# EOF\n").is_err());
        // Sample not in family.
        assert!(parse_openmetrics("# TYPE a counter\nb_total 1\n# EOF\n").is_err());
        // Counter sample without _total.
        assert!(parse_openmetrics("# TYPE a counter\na 1\n# EOF\n").is_err());
        // Bad label syntax.
        assert!(parse_openmetrics("# TYPE a counter\na_total{x=1} 1\n# EOF\n").is_err());
        // Unterminated label value.
        assert!(parse_openmetrics("# TYPE a counter\na_total{x=\"1} 1\n# EOF\n").is_err());
        // Bad value.
        assert!(parse_openmetrics("# TYPE a counter\na_total zero\n# EOF\n").is_err());
        // Duplicate family.
        assert!(parse_openmetrics("# TYPE a counter\n# TYPE a counter\n# EOF\n").is_err());
        // Content after EOF.
        assert!(parse_openmetrics("# EOF\n# TYPE a counter\n").is_err());
        // Summary quantile sample without the quantile label.
        assert!(parse_openmetrics("# TYPE s summary\ns 1\n# EOF\n").is_err());
        // The empty-but-terminated document is fine.
        assert!(parse_openmetrics("# EOF\n").unwrap().is_empty());
    }

    #[test]
    fn label_escapes_roundtrip() {
        let mut m = MetricsData::new(1_000);
        let key = crate::metrics::series("notes", &[("note", "say \"hi\"\\now")]);
        m.add(&key, 1);
        let text = to_openmetrics(&m.snapshot());
        let families = parse_openmetrics(&text).expect("escaped labels must parse");
        assert_eq!(
            families[0].samples[0].label("note"),
            Some("say \"hi\"\\now")
        );
    }
}
