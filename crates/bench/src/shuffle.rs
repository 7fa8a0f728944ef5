//! The `shuffle` benchmark behind `BENCH_shuffle.json` and the CI
//! `shuffle-gate` job.
//!
//! ## Methodology (DESIGN.md §17)
//!
//! The question the gate answers: how many bytes does the
//! distribution-aware reduce-side partitioner keep off the network
//! relative to classic `hash(key) % reducers` partitioning, and does that
//! win ever cost reduce makespan when there is no skew to exploit?
//!
//! The workload is the synthetic clustered matrix the paper's Section V
//! setup implies: [`KEY_RANGES`] key ranges over [`NODES`] nodes, range
//! `g`'s bytes concentrated [`HOME_FRACTION`] on its home node `g % NODES`
//! (the write-locality a real DFS produces) with the rest spread evenly,
//! and per-range totals drawn from a Zipf law at exponent `s`. The sweep
//! runs `s ∈ {0.0, 0.8, 1.2}`: uniform, moderate and heavy skew. For each
//! point both plans replay the identical matrix through
//! [`run_analysis_shuffled`] — the same simulation the pipeline executor
//! uses — so every number is a deterministic function of the workload, not
//! of wall-clock noise.
//!
//! The gate (acceptance criteria of the shuffle tentpole):
//!
//! * at `s =` [`SHUFFLE_SKEW_S`] the network-byte reduction
//!   `hash / aware` must be at least [`SHUFFLE_BYTES_FLOOR`] and within
//!   ±[`SHUFFLE_GATE_TOLERANCE`] of the committed baseline ratio;
//! * at `s =` [`SHUFFLE_UNIFORM_S`] the aware plan's makespan must be no
//!   worse than hash partitioning's — locality is only a win if it never
//!   trades away the balanced case.

use crate::table::Table;
use datanet_analytics::profiles::word_count_profile;
use datanet_dfs::NodeId;
use datanet_mapreduce::{run_analysis_shuffled, AnalysisConfig, ShufflePlan, ShufflePlanner};
use serde::{Deserialize, Serialize};

/// Reducer/mapper nodes in the synthetic cluster.
pub const NODES: usize = 8;

/// Key ranges the intermediate key space is hashed into.
pub const KEY_RANGES: usize = 64;

/// Heavy-key split threshold, in fair shares (the pipeline default).
pub const SPLIT_FACTOR: f64 = 1.25;

/// Fraction of a range's bytes sitting on its home node.
pub const HOME_FRACTION: f64 = 0.8;

/// Zipf exponent of the gated skewed point.
pub const SHUFFLE_SKEW_S: f64 = 1.2;

/// Zipf exponent of the gated uniform point.
pub const SHUFFLE_UNIFORM_S: f64 = 0.0;

/// Ratio tolerance of the shuffle gate, both directions: the measured
/// reduction must stay within ±20% of the committed baseline. The sweep is
/// deterministic, so a drift means the workload or the planner changed —
/// either way the baseline must be re-committed deliberately.
pub const SHUFFLE_GATE_TOLERANCE: f64 = 0.20;

/// Absolute floor for the network-byte reduction at the skewed point
/// (acceptance criterion): the aware plan must at least halve what
/// crosses the network.
pub const SHUFFLE_BYTES_FLOOR: f64 = 2.0;

/// One Zipf point of the sweep: both plans over the same matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShuffleBenchRow {
    /// Zipf exponent of the per-range byte distribution.
    pub zipf_s: f64,
    /// Bytes hash partitioning pushed over the network.
    pub hash_network_bytes: u64,
    /// Bytes the aware plan pushed over the network.
    pub aware_network_bytes: u64,
    /// `hash_network_bytes / aware_network_bytes` — the gated ratio.
    pub bytes_reduction: f64,
    /// Hash-plan job makespan, simulated seconds.
    pub hash_makespan_secs: f64,
    /// Aware-plan job makespan, simulated seconds.
    pub aware_makespan_secs: f64,
    /// Hash-plan reduce inflow imbalance (max / mean).
    pub hash_reduce_imbalance: f64,
    /// Aware-plan reduce inflow imbalance (max / mean).
    pub aware_reduce_imbalance: f64,
    /// Fraction of map output the aware plan kept node-local.
    pub aware_locality: f64,
    /// Key ranges the aware plan split across several reducers.
    pub split_ranges: usize,
}

/// One `BENCH_shuffle.json` measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShuffleBenchReport {
    /// Whether the run was invoked with `--quick` (the sweep is
    /// deterministic and already runs in milliseconds, so quick mode only
    /// shrinks the matrix byte totals; every ratio keeps its meaning).
    pub quick: bool,
    /// Nodes (= mappers = reducer slots).
    pub nodes: usize,
    /// Key ranges in the intermediate key space.
    pub key_ranges: usize,
    /// Split threshold, in fair shares.
    pub split_factor: f64,
    /// The Zipf sweep, ascending in `zipf_s`.
    pub rows: Vec<ShuffleBenchRow>,
}

/// Unnormalised Zipf weights `1/rank^s` for ranks `1..=k`.
fn zipf_weights(k: usize, s: f64) -> Vec<f64> {
    (1..=k).map(|i| (i as f64).powf(-s)).collect()
}

/// The synthetic clustered per-(node, key-range) matrix: Zipf range
/// totals, [`HOME_FRACTION`] of each range on node `g % nodes`, the rest
/// spread evenly (remainder bytes to the home node, keeping the matrix an
/// exact partition of `total`).
fn clustered_matrix(nodes: usize, ranges: usize, s: f64, total: u64) -> Vec<Vec<u64>> {
    let w = zipf_weights(ranges, s);
    let sum: f64 = w.iter().sum();
    let mut matrix = vec![vec![0u64; ranges]; nodes];
    for g in 0..ranges {
        let bytes = (total as f64 * w[g] / sum).round() as u64;
        let home = g % nodes;
        let foreign = ((1.0 - HOME_FRACTION) * bytes as f64) as u64;
        let each = foreign / (nodes - 1) as u64;
        for (n, row) in matrix.iter_mut().enumerate() {
            if n != home {
                row[g] = each;
            }
        }
        matrix[home][g] = bytes - each * (nodes - 1) as u64;
    }
    matrix
}

/// Run the shuffle benchmark sweep. Deterministic: identical inputs give
/// byte-identical reports, so the gate never flakes.
pub fn run_shuffle_bench(quick: bool) -> ShuffleBenchReport {
    // 256 MB of intermediate bytes (32 MB in quick mode) — enough that
    // largest-remainder rounding is invisible in every ratio.
    let total: u64 = if quick { 32 << 20 } else { 256 << 20 };
    let job = word_count_profile();
    let cfg = AnalysisConfig::default();
    let mut rows = Vec::new();
    for s in [SHUFFLE_UNIFORM_S, 0.8, SHUFFLE_SKEW_S] {
        let matrix = clustered_matrix(NODES, KEY_RANGES, s, total);
        let aware_plan = ShufflePlanner::new(SPLIT_FACTOR).plan(&matrix);
        let hash_plan = ShufflePlan::hash(KEY_RANGES, (0..NODES as u32).map(NodeId).collect());
        let aware = run_analysis_shuffled(&matrix, &job, &cfg, &aware_plan);
        let hash = run_analysis_shuffled(&matrix, &job, &cfg, &hash_plan);
        rows.push(ShuffleBenchRow {
            zipf_s: s,
            hash_network_bytes: hash.network_bytes,
            aware_network_bytes: aware.network_bytes,
            bytes_reduction: hash.network_bytes as f64 / aware.network_bytes.max(1) as f64,
            hash_makespan_secs: hash.report.makespan_secs,
            aware_makespan_secs: aware.report.makespan_secs,
            hash_reduce_imbalance: hash.reduce_imbalance(),
            aware_reduce_imbalance: aware.reduce_imbalance(),
            aware_locality: aware.locality_fraction(),
            split_ranges: aware_plan
                .assignments
                .iter()
                .filter(|frags| frags.len() > 1)
                .count(),
        });
    }
    ShuffleBenchReport {
        quick,
        nodes: NODES,
        key_ranges: KEY_RANGES,
        split_factor: SPLIT_FACTOR,
        rows,
    }
}

impl ShuffleBenchReport {
    /// The row at a given Zipf exponent (the sweep is tiny; exact float
    /// match is fine because both sides construct `s` from the same
    /// constants).
    fn row_at(&self, s: f64) -> Option<&ShuffleBenchRow> {
        self.rows.iter().find(|r| r.zipf_s == s)
    }

    /// The human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== distribution-aware shuffle bench: {} nodes, {} key ranges, \
             split factor {:.2}{} ==\n",
            self.nodes,
            self.key_ranges,
            self.split_factor,
            if self.quick { " (quick)" } else { "" }
        );
        let mut t = Table::new([
            "zipf s",
            "hash net MB",
            "aware net MB",
            "reduction",
            "hash mkspan",
            "aware mkspan",
            "locality",
            "splits",
        ]);
        for r in &self.rows {
            t.row([
                format!("{:.1}", r.zipf_s),
                format!("{:.1}", r.hash_network_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", r.aware_network_bytes as f64 / (1 << 20) as f64),
                format!("{:.2}x", r.bytes_reduction),
                format!("{:.3}s", r.hash_makespan_secs),
                format!("{:.3}s", r.aware_makespan_secs),
                format!("{:.0}%", 100.0 * r.aware_locality),
                r.split_ranges.to_string(),
            ]);
        }
        s.push_str(&t.render());
        s
    }

    /// The shuffle gate. Returns every violated check, empty = pass.
    pub fn gate_against(&self, baseline: &ShuffleBenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        match (self.row_at(SHUFFLE_SKEW_S), baseline.row_at(SHUFFLE_SKEW_S)) {
            (Some(cur), Some(base)) => {
                if cur.bytes_reduction < SHUFFLE_BYTES_FLOOR {
                    violations.push(format!(
                        "shuffle-byte reduction below absolute floor at s={SHUFFLE_SKEW_S}: \
                         {:.2}x < {SHUFFLE_BYTES_FLOOR:.1}x",
                        cur.bytes_reduction
                    ));
                }
                let lo = base.bytes_reduction * (1.0 - SHUFFLE_GATE_TOLERANCE);
                let hi = base.bytes_reduction * (1.0 + SHUFFLE_GATE_TOLERANCE);
                if cur.bytes_reduction < lo || cur.bytes_reduction > hi {
                    violations.push(format!(
                        "shuffle-byte reduction drifted at s={SHUFFLE_SKEW_S}: {:.2}x vs \
                         baseline {:.2}x (band {lo:.2}x..{hi:.2}x) — re-commit the baseline \
                         if the workload or planner changed deliberately",
                        cur.bytes_reduction, base.bytes_reduction
                    ));
                }
            }
            _ => violations.push(format!(
                "no s={SHUFFLE_SKEW_S} row in the measurement or the baseline"
            )),
        }
        match self.row_at(SHUFFLE_UNIFORM_S) {
            Some(cur) => {
                if cur.aware_makespan_secs > cur.hash_makespan_secs {
                    violations.push(format!(
                        "aware makespan worse than hash on the uniform workload \
                         (s={SHUFFLE_UNIFORM_S}): {:.4}s > {:.4}s",
                        cur.aware_makespan_secs, cur.hash_makespan_secs
                    ));
                }
            }
            None => violations.push(format!("no s={SHUFFLE_UNIFORM_S} row in the measurement")),
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_partitions_the_total_exactly() {
        for s in [0.0, 0.8, 1.2] {
            let m = clustered_matrix(NODES, KEY_RANGES, s, 1 << 20);
            for g in 0..KEY_RANGES {
                let col: u64 = m.iter().map(|row| row[g]).sum();
                let home = m[g % NODES][g];
                assert!(
                    home as f64 >= HOME_FRACTION * col as f64,
                    "s={s} range {g}: home holds {home} of {col}"
                );
            }
        }
    }

    #[test]
    fn sweep_is_deterministic_and_passes_its_own_gate() {
        let a = run_shuffle_bench(true);
        let b = run_shuffle_bench(true);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "two identical sweeps diverged"
        );
        assert!(a.gate_against(&b).is_empty(), "{:?}", a.gate_against(&b));
    }

    #[test]
    fn skewed_point_clears_the_floor_and_splits_heavy_ranges() {
        let r = run_shuffle_bench(true);
        let skew = r.row_at(SHUFFLE_SKEW_S).unwrap();
        assert!(
            skew.bytes_reduction >= SHUFFLE_BYTES_FLOOR,
            "reduction {:.2}x under the floor",
            skew.bytes_reduction
        );
        assert!(skew.split_ranges > 0, "no heavy range split at s=1.2");
        let uniform = r.row_at(SHUFFLE_UNIFORM_S).unwrap();
        assert!(uniform.aware_makespan_secs <= uniform.hash_makespan_secs);
        assert!(
            uniform.aware_reduce_imbalance <= uniform.hash_reduce_imbalance + 1e-9,
            "aware {:.3} vs hash {:.3}",
            uniform.aware_reduce_imbalance,
            uniform.hash_reduce_imbalance
        );
    }

    #[test]
    fn gate_flags_floor_misses_drift_and_makespan_regressions() {
        let base = run_shuffle_bench(true);
        let mut bad = base.clone();
        {
            let skew = bad
                .rows
                .iter_mut()
                .find(|r| r.zipf_s == SHUFFLE_SKEW_S)
                .unwrap();
            skew.bytes_reduction = 1.5; // under the floor AND out of band
        }
        let v = bad.gate_against(&base);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("absolute floor")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("drifted")), "{v:?}");

        let mut slow = base.clone();
        {
            let uniform = slow
                .rows
                .iter_mut()
                .find(|r| r.zipf_s == SHUFFLE_UNIFORM_S)
                .unwrap();
            uniform.aware_makespan_secs = uniform.hash_makespan_secs * 2.0;
        }
        let v = slow.gate_against(&base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("makespan worse"), "{v:?}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = run_shuffle_bench(true);
        let json = serde_json::to_string(&r).unwrap();
        let back: ShuffleBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert!(back.gate_against(&r).is_empty());
    }
}
