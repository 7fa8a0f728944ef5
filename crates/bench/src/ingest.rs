//! The `ingest` streaming benchmark behind `BENCH_ingest.json` and the CI
//! `ingest-gate` job.
//!
//! ## Methodology (DESIGN.md §14)
//!
//! The question the gate answers: does *incremental* ElasticMap
//! maintenance beat the naive alternative — rebuilding the whole array
//! from scratch every time the stream reaches a commit point? Both sides
//! replay the identical arrival sequence (the paper's 256-block movie
//! dataset appended block by block) with a queryable snapshot demanded
//! every [`COMMIT_EVERY`] arrivals, and both pay the same DFS write for
//! every arrival inside the timed loop: `Dfs::append_block` copies the
//! records and makes the one pass over them that produces the block's
//! size table. On top of that write,
//!
//! * **rebuild** runs [`ElasticMapArray::build`] over everything received
//!   so far at every commit point. A build no longer reads records — it
//!   starts from each block's table — so this is O(n²) *table* passes
//!   across the stream (bucket counts, threshold, split, Bloom inserts,
//!   interning), about half of what the O(n²) record scans used to cost;
//! * **incremental** does one [`Ingestor::append`] per arrival (a shared
//!   handle on the block's table) plus a compaction per commit point —
//!   every block is sealed exactly once.
//!
//! So the ratio is (write + n² seals) / (write + n seals): the shared
//! write is most of the incremental side and dilutes the ratio, which
//! reads ≈ 2.7× where it read ≈ 5–6× while the rebuild side re-scanned
//! records. It still answers the question, and it still moves if either
//! side grows a per-commit cost it should not have.
//!
//! Absolute times are machine-dependent, so the gate is built on the
//! **within-run speedup ratio** (both sides run in the same process on
//! the same workload, each timed as the minimum over repetitions) against
//! a committed baseline ± [`INGEST_GATE_TOLERANCE`], plus the absolute
//! floor [`INGEST_SPEEDUP_FLOOR`]. Ingest throughput and the
//! durable-commit (epoch persistence) time are reported for the
//! trajectory record but not gated — disk speed has no within-run
//! baseline.

use crate::setup::{movie_dataset, NODES};
use crate::table::Table;
use datanet::{ElasticMapArray, IngestConfig, Ingestor, Separation};
use datanet_dfs::Dfs;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Separation policy used by every measurement (the paper's α = 0.3).
const ALPHA: f64 = 0.3;

/// Arrivals between commit points (both sides must produce a queryable
/// snapshot here). 16 points over the 256-block stream.
pub const COMMIT_EVERY: usize = 16;

/// Ratio tolerance of the ingest gate: current ≥ baseline × (1 − 0.20).
/// This wide because the rebuild side's quadratic pass is long enough for
/// allocator and page-cache noise to move the ratio.
pub const INGEST_GATE_TOLERANCE: f64 = 0.20;

/// Absolute floor for the ingest speedup (acceptance criterion): streaming
/// maintenance must beat rebuild-per-commit at least this much. Measured,
/// not guessed: on the host that wrote `BENCH_ingest_baseline.json`
/// fifteen `--quick` runs read 2.45–3.04× and ten full runs 2.30–2.91×;
/// the floor sits under the lowest of the twenty-five.
pub const INGEST_SPEEDUP_FLOOR: f64 = 2.0;

/// One `BENCH_ingest.json` measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBenchReport {
    /// Whether the run used the shrunken `--quick` sweep.
    pub quick: bool,
    /// Blocks in the arrival sequence (paper: 256).
    pub blocks: usize,
    /// Arrivals between commit points.
    pub commit_every: usize,
    /// Raw dataset megabytes across the whole stream.
    pub raw_mb: f64,
    /// Rebuild-at-every-commit stream replay, milliseconds (min over reps).
    pub rebuild_ms: f64,
    /// Incremental ingest stream replay, milliseconds (min over reps).
    pub ingest_ms: f64,
    /// `rebuild_ms / ingest_ms` — the gated ratio.
    pub ingest_speedup: f64,
    /// Incremental-side ingest throughput over the whole stream.
    pub ingest_mb_per_s: f64,
    /// One full streaming session with durable epoch commits to disk,
    /// milliseconds (reported, not gated).
    pub commit_disk_ms: f64,
    /// Durable epochs the disk session committed.
    pub epochs: u64,
}

/// Minimum wall-seconds of `f` over `reps` repetitions.
fn min_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// Run the streaming-ingest benchmark. `quick` shrinks repetitions for CI
/// smoke jobs; the measured ratio keeps the same meaning.
pub fn run_ingest_bench(quick: bool) -> IngestBenchReport {
    let (dfs, catalog) = movie_dataset(NODES);
    let policy = Separation::Alpha(ALPHA);
    let reps = if quick { 2 } else { 5 };
    // Probe the hottest movie at every commit point so neither side can
    // dead-code its snapshot.
    let probe = catalog.by_size_desc()[0].0;

    // Rebuild side: from-scratch array build (from the blocks' tables) at
    // every commit point.
    let rebuild = min_secs(reps, || {
        let mut live = Dfs::empty(dfs.config().clone());
        let mut touched = 0usize;
        for (k, b) in dfs.blocks().iter().enumerate() {
            live.append_block(b.records().to_vec());
            if (k + 1) % COMMIT_EVERY == 0 {
                let arr = ElasticMapArray::build(&live, &policy);
                touched += arr.view(probe).block_count();
            }
        }
        touched
    });

    // Incremental side: identical arrivals and commit points, but each
    // block is sealed exactly once.
    let cfg = IngestConfig {
        policy: policy.clone(),
        compact_every: COMMIT_EVERY,
        shard_blocks: 64,
    };
    let ingest = min_secs(reps, || {
        let mut live = Dfs::empty(dfs.config().clone());
        let mut ing = Ingestor::new(cfg.clone());
        let mut touched = 0usize;
        for (k, b) in dfs.blocks().iter().enumerate() {
            let id = live.append_block(b.records().to_vec());
            ing.append(live.block(id), k as u64);
            if (k + 1) % COMMIT_EVERY == 0 {
                ing.compact();
                touched += ing.view(probe).block_count();
            }
        }
        touched
    });

    // Disk session: one full stream with a durable epoch per commit point
    // (reported, not gated — dominated by filesystem speed).
    let disk_dir =
        std::env::temp_dir().join(format!("datanet-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let mut epochs = 0u64;
    let commit_disk = min_secs(1, || {
        let refs: Vec<&Path> = vec![disk_dir.as_path()];
        let mut ing = Ingestor::new(cfg.clone());
        for (k, b) in dfs.blocks().iter().enumerate() {
            ing.append(b, k as u64);
            if (k + 1) % COMMIT_EVERY == 0 {
                ing.commit(&refs).expect("bench commit");
            }
        }
        ing.commit(&refs).expect("bench commit");
        epochs = ing.stats().epochs_committed;
    });
    let _ = std::fs::remove_dir_all(&disk_dir);

    let raw_mb = dfs.total_bytes() as f64 / (1024.0 * 1024.0);
    IngestBenchReport {
        quick,
        blocks: dfs.block_count(),
        commit_every: COMMIT_EVERY,
        raw_mb,
        rebuild_ms: rebuild * 1e3,
        ingest_ms: ingest * 1e3,
        ingest_speedup: rebuild / ingest,
        ingest_mb_per_s: raw_mb / ingest,
        commit_disk_ms: commit_disk * 1e3,
        epochs,
    }
}

impl IngestBenchReport {
    /// The human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== streaming ingest bench: {} blocks, {:.1} MB raw, commit every {}{} ==\n",
            self.blocks,
            self.raw_mb,
            self.commit_every,
            if self.quick { " (quick)" } else { "" }
        );
        let mut t = Table::new(["strategy", "stream (ms)", "speedup"]);
        t.row([
            "rebuild per commit".to_string(),
            format!("{:.2}", self.rebuild_ms),
            "1.00x".to_string(),
        ]);
        t.row([
            "incremental ingest".to_string(),
            format!("{:.2}", self.ingest_ms),
            format!("{:.2}x", self.ingest_speedup),
        ]);
        s.push_str(&t.render());
        s.push_str(&format!(
            "ingest throughput {:.0} MB/s; {} durable epochs in {:.2} ms\n",
            self.ingest_mb_per_s, self.epochs, self.commit_disk_ms
        ));
        s
    }

    /// The ingest gate: the speedup ratio must stay within
    /// [`INGEST_GATE_TOLERANCE`] of the committed baseline *and* above the
    /// absolute floor. Returns every violated check, empty = pass.
    pub fn gate_against(&self, baseline: &IngestBenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        let min_ratio = baseline.ingest_speedup * (1.0 - INGEST_GATE_TOLERANCE);
        if self.ingest_speedup < min_ratio {
            violations.push(format!(
                "ingest speedup regressed: {:.2}x vs baseline {:.2}x \
                 (tolerance floor {min_ratio:.2}x)",
                self.ingest_speedup, baseline.ingest_speedup
            ));
        }
        if self.ingest_speedup < INGEST_SPEEDUP_FLOOR {
            violations.push(format!(
                "ingest speedup below absolute floor: {:.2}x < {INGEST_SPEEDUP_FLOOR:.1}x",
                self.ingest_speedup
            ));
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(speedup: f64) -> IngestBenchReport {
        IngestBenchReport {
            quick: true,
            blocks: 256,
            commit_every: COMMIT_EVERY,
            raw_mb: 64.0,
            rebuild_ms: 100.0 * speedup,
            ingest_ms: 100.0,
            ingest_speedup: speedup,
            ingest_mb_per_s: 500.0,
            commit_disk_ms: 50.0,
            epochs: 16,
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report(8.0);
        let json = serde_json::to_string(&r).unwrap();
        let back: IngestBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.blocks, 256);
        assert!((back.ingest_speedup - 8.0).abs() < 1e-12);
        assert!(back.gate_against(&r).is_empty(), "identical run must pass");
    }

    #[test]
    fn gate_flags_regressions_and_floor_misses() {
        let base = report(2.7);
        // 22% below baseline: regression, but above the absolute floor.
        let v = report(2.1).gate_against(&base);
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("regressed"), "{v:?}");
        // Below both the tolerance band and the absolute floor.
        let v = report(1.5).gate_against(&base);
        assert_eq!(v.len(), 2, "violations: {v:?}");
        assert!(v.iter().any(|m| m.contains("below absolute floor")));
        // Within tolerance passes.
        assert!(report(2.3).gate_against(&base).is_empty());
        // The floor holds whatever a baseline says.
        let v = report(1.9).gate_against(&report(2.0));
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("below absolute floor"), "{v:?}");
    }
}
