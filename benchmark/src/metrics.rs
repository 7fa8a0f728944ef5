//! The metric vocabulary: every name `BENCHMARK.json` declares, with its
//! unit and direction, and how the timed per-layer metrics are derived from
//! spans. `BENCHMARK.json` is checked against these tables by a unit test.

use crate::trace::Agg;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Regression bound as a share of the parent's median; end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Bound of the metrics that are a pure function of the code and the fixed
/// dataset: they repeat exactly, so any worsening is a regression. The
/// width only absorbs float formatting.
pub const EXACT: f64 = 0.001;

/// What a user of the system sees, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_ops_s", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p90_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.1),
    e2e("ok_ops_frac", "fraction", true, EXACT),
    e2e("sim_makespan_gain", "fraction", true, EXACT),
    e2e("est_accuracy", "fraction", true, EXACT),
    e2e("meta_bytes_per_block", "B", false, EXACT),
    e2e("disk_bytes_per_raw_kb", "B/kB", false, EXACT),
    e2e("sim_shuffle_net_gain", "fraction", true, EXACT),
];

/// One layer each, from the traced run. No bounds: they explain a move in
/// an end-to-end metric, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.generate_ms", "ms", false),
    layer("workloads.records", "count", true),
    layer("dfs.write_ms", "ms", false),
    layer("dfs.blocks", "count", true),
    layer("dfs.append_block_us", "us", false),
    layer("scan.build_ms", "ms", false),
    layer("scan.build_us_per_block", "us", false),
    layer("scan.views_us_per_id", "us", false),
    layer("scan.view_us", "us", false),
    layer("scan.exact_frac", "fraction", true),
    layer("scan.bloom_fpr_measured", "fraction", false),
    layer("scan.memory_bytes_per_block", "B", false),
    layer("ingest.append_us_per_block", "us", false),
    layer("ingest.compact_ms", "ms", false),
    layer("ingest.commit_plan_ms", "ms", false),
    layer("ingest.commit_apply_ms", "ms", false),
    layer("ingest.live_view_us", "us", false),
    layer("ingest.snapshot_ms", "ms", false),
    layer("ingest.demotions", "count", false),
    layer("ingest.files_per_commit", "count", false),
    layer("ingest.bytes_per_commit", "B", false),
    layer("store.save_ms", "ms", false),
    layer("store.open_ms", "ms", false),
    layer("store.views_ms", "ms", false),
    layer("store.views_degraded_ms", "ms", false),
    layer("store.scrub_ms", "ms", false),
    layer("store.shard_loads_per_op", "count", false),
    layer("store.checksum_failures_per_op", "count", false),
    layer("store.retries_per_op", "count", false),
    layer("store.failovers_per_op", "count", false),
    layer("store.disk_bytes", "B", false),
    layer("planner.greedy_us_per_plan", "us", false),
    layer("planner.batch_us_per_id", "us", false),
    layer("planner.maxflow_ms_per_plan", "ms", false),
    layer("planner.blocks_per_plan", "count", true),
    layer("planner.imbalance_mean", "ratio", false),
    layer("planner.locality_frac_mean", "fraction", true),
    layer("planner.greedy_over_optimum", "ratio", false),
    layer("engine.selection_us", "us", false),
    layer("engine.analysis_us", "us", false),
    layer("engine.tasks_per_op", "count", true),
    layer("engine.sim_selection_s_mean", "s", false),
    layer("engine.sim_baseline_s_mean", "s", false),
    layer("shuffle.matrix_estimate_us", "us", false),
    layer("shuffle.plan_us", "us", false),
    layer("shuffle.split_ranges", "count", true),
    layer("shuffle.reduce_imbalance_aware", "ratio", false),
    layer("shuffle.reduce_imbalance_hash", "ratio", false),
    layer("analytics.pipeline_run_ms", "ms", false),
    layer("analytics.agg_run_ms", "ms", false),
    layer("analytics.map_fragments_ms", "ms", false),
    layer("analytics.merge_fragments_ms", "ms", false),
    layer("analytics.records_per_op", "count", true),
    layer("checkpoint.commit_ms", "ms", false),
    layer("checkpoint.bytes_per_op", "B", false),
    layer("checkpoint.resume_ms", "ms", false),
    layer("serve.call_ms", "ms", false),
    layer("serve.queries_per_call", "count", true),
    layer("serve.world_apply_commit_ms", "ms", false),
    layer("serve.plan_batch_ms", "ms", false),
    layer("serve.cache_hit_frac", "fraction", true),
    layer("serve.completed_frac", "fraction", true),
    layer("serve.shed_frac", "fraction", false),
    layer("serve.rejected_frac", "fraction", false),
    layer("serve.sim_p50_latency_ms", "ms", false),
    layer("serve.sim_p99_latency_ms", "ms", false),
    layer("self_frac.workloads", "fraction", false),
    layer("self_frac.dfs", "fraction", false),
    layer("self_frac.scan", "fraction", false),
    layer("self_frac.ingest", "fraction", false),
    layer("self_frac.store", "fraction", false),
    layer("self_frac.planner", "fraction", false),
    layer("self_frac.engine", "fraction", false),
    layer("self_frac.shuffle", "fraction", false),
    layer("self_frac.analytics", "fraction", false),
    layer("self_frac.checkpoint", "fraction", false),
    layer("self_frac.serve", "fraction", false),
    layer("unattributed_frac", "fraction", false),
    layer("harness.trace_overhead_frac", "fraction", false),
    layer("harness.spans_recorded", "count", true),
    layer("harness.rep_spread_frac", "fraction", false),
    layer("harness.tail_ratio", "ratio", false),
    layer("harness.cpu_ms_per_op", "ms", false),
    layer("harness.calib_ms", "ms", false),
];

/// How a timed per-layer metric reads its span aggregate.
#[derive(Clone, Copy)]
pub enum Per {
    MsPerCall,
    UsPerCall,
    UsPerUnit,
}

/// Timed per-layer metric ← span name. The value is the mean over every
/// span of that name in the traced run (set-up, traced replays and probes).
pub const FROM_SPANS: &[(&str, &str, Per)] = &[
    (
        "workloads.generate_ms",
        "workloads.generate",
        Per::MsPerCall,
    ),
    ("dfs.write_ms", "dfs.write", Per::MsPerCall),
    ("dfs.append_block_us", "dfs.append_block", Per::UsPerCall),
    ("scan.build_ms", "scan.build", Per::MsPerCall),
    ("scan.build_us_per_block", "scan.build", Per::UsPerUnit),
    ("scan.views_us_per_id", "scan.views", Per::UsPerUnit),
    ("scan.view_us", "scan.view", Per::UsPerCall),
    (
        "ingest.append_us_per_block",
        "ingest.append",
        Per::UsPerCall,
    ),
    ("ingest.compact_ms", "ingest.compact", Per::MsPerCall),
    (
        "ingest.commit_plan_ms",
        "ingest.commit_plan",
        Per::MsPerCall,
    ),
    (
        "ingest.commit_apply_ms",
        "ingest.commit_apply",
        Per::MsPerCall,
    ),
    ("ingest.live_view_us", "ingest.live_view", Per::UsPerCall),
    ("ingest.snapshot_ms", "ingest.snapshot", Per::MsPerCall),
    ("store.save_ms", "store.save", Per::MsPerCall),
    ("store.open_ms", "store.open", Per::MsPerCall),
    ("store.views_ms", "store.views", Per::MsPerCall),
    (
        "store.views_degraded_ms",
        "store.views_degraded",
        Per::MsPerCall,
    ),
    ("store.scrub_ms", "store.scrub", Per::MsPerCall),
    (
        "planner.greedy_us_per_plan",
        "planner.greedy",
        Per::UsPerCall,
    ),
    ("planner.batch_us_per_id", "planner.batch", Per::UsPerUnit),
    (
        "planner.maxflow_ms_per_plan",
        "planner.maxflow",
        Per::MsPerCall,
    ),
    ("engine.selection_us", "engine.selection", Per::UsPerCall),
    ("engine.analysis_us", "engine.analysis", Per::UsPerCall),
    (
        "shuffle.matrix_estimate_us",
        "shuffle.matrix_estimate",
        Per::UsPerCall,
    ),
    ("shuffle.plan_us", "shuffle.plan", Per::UsPerCall),
    (
        "analytics.pipeline_run_ms",
        "analytics.pipeline_run",
        Per::MsPerCall,
    ),
    ("analytics.agg_run_ms", "analytics.agg_run", Per::MsPerCall),
    (
        "analytics.map_fragments_ms",
        "analytics.map_fragments",
        Per::MsPerCall,
    ),
    (
        "analytics.merge_fragments_ms",
        "analytics.merge_fragments",
        Per::MsPerCall,
    ),
    ("checkpoint.commit_ms", "checkpoint.commit", Per::MsPerCall),
    ("checkpoint.resume_ms", "checkpoint.resume", Per::MsPerCall),
    ("serve.call_ms", "serve.call", Per::MsPerCall),
    (
        "serve.world_apply_commit_ms",
        "serve.world_apply_commit",
        Per::MsPerCall,
    ),
    ("serve.plan_batch_ms", "serve.plan_batch", Per::MsPerCall),
];

/// Metric values collected over a run, keyed by declared name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// # Panics
    /// Panics on a name neither table declares: a typo would otherwise
    /// silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not declared"
        );
        self.0.insert(name, value);
    }

    /// A layer the workload never reaches reports 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set_from_spans(&mut self, spans: &BTreeMap<&'static str, Agg>) {
        for &(metric, span, per) in FROM_SPANS {
            if let Some(a) = spans.get(span) {
                self.set(
                    metric,
                    match per {
                        Per::MsPerCall => a.ms_per_call(),
                        Per::UsPerCall => a.us_per_call(),
                        Per::UsPerUnit => a.us_per_unit(),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        // Set-up gets the widest bound: it is the shortest timed quantity.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (metric, _, _) in FROM_SPANS {
            assert!(PER_LAYER.iter().any(|m| m.name == *metric), "{metric}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher { "higher" } else { "lower" },
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                if m.higher { "higher" } else { "lower" }
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
