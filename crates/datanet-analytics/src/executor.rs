//! The real execution path: run a [`RecordJob`] over per-node partitions,
//! one map task per virtual node, through `par_iter` — which the vendored
//! `rayon` stand-in runs one after another, so nothing here is parallel.
//!
//! This is the counterpart of the simulated engine for *actual* computation:
//! partition wall-times measured here exhibit the same imbalance the
//! simulator predicts (a node with 4× the records takes ≈4× as long),
//! which is what the Criterion benchmarks report.

use crate::jobs::RecordJob;
use datanet::planner::Assignment;
use datanet_dfs::{Dfs, NodeId, Record, SubDatasetId};
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Report of one parallel run.
#[derive(Debug, Clone)]
pub struct LocalRunReport {
    /// Wall-clock seconds each partition's map took.
    pub partition_secs: Vec<f64>,
    /// Records mapped per partition.
    pub partition_records: Vec<usize>,
    /// End-to-end wall-clock seconds (map + merge + reduce).
    pub total_secs: f64,
    /// Intermediate values that entered the merge (the "shuffle volume";
    /// map-side combining shrinks this).
    pub merged_values: usize,
    /// Final reduced output.
    pub reduced: HashMap<u64, f64>,
}

impl LocalRunReport {
    /// max/min partition time — the straggler ratio.
    pub fn skew(&self) -> f64 {
        let max = self.partition_secs.iter().cloned().fold(0.0f64, f64::max);
        let min = self
            .partition_secs
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        if min <= 0.0 || !min.is_finite() {
            return 1.0;
        }
        max / min
    }
}

/// Executor over per-node partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalExecutor;

impl LocalExecutor {
    /// Execute `job` over `partitions` (one map task per partition), then
    /// merge and reduce. If the job provides a
    /// combiner, each partition's values are compacted map-side before the
    /// merge — the Hadoop combiner optimisation.
    pub fn execute(&self, job: &dyn RecordJob, partitions: &[Vec<Record>]) -> LocalRunReport {
        let started = Instant::now();
        // Map each partition independently, collecting per-key value lists
        // and per-partition wall time.
        let mapped: Vec<(f64, HashMap<u64, Vec<f64>>)> = partitions
            .par_iter()
            .map(|part| {
                let t0 = Instant::now();
                let mut acc: HashMap<u64, Vec<f64>> = HashMap::new();
                for r in part {
                    job.map(r, &mut |k, v| acc.entry(k).or_default().push(v));
                }
                // Map-side combine.
                for (&k, vs) in acc.iter_mut() {
                    if let Some(compact) = job.combine(k, vs) {
                        *vs = compact;
                    }
                }
                (t0.elapsed().as_secs_f64(), acc)
            })
            .collect();

        let partition_secs: Vec<f64> = mapped.iter().map(|(t, _)| *t).collect();
        let partition_records: Vec<usize> = partitions.iter().map(|p| p.len()).collect();

        // Shuffle/merge: group all values by key.
        let mut grouped: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut merged_values = 0usize;
        for (_, acc) in mapped {
            for (k, mut vs) in acc {
                merged_values += vs.len();
                grouped.entry(k).or_default().append(&mut vs);
            }
        }

        // Reduce in parallel over keys.
        let reduced: HashMap<u64, f64> = grouped
            .into_par_iter()
            .map(|(k, vs)| (k, job.reduce(k, &vs)))
            .collect();

        LocalRunReport {
            partition_secs,
            partition_records,
            total_secs: started.elapsed().as_secs_f64(),
            merged_values,
            reduced,
        }
    }
}

/// Materialise per-node partitions of sub-dataset `s` according to an
/// [`Assignment`]: node `n`'s partition holds the matching records of every
/// block assigned to it.
pub fn partitions_from_assignment(
    dfs: &Dfs,
    s: SubDatasetId,
    assignment: &Assignment,
) -> Vec<Vec<Record>> {
    (0..assignment.node_count())
        .map(|n| {
            let mut part = Vec::new();
            for &b in assignment.tasks_of(NodeId(n as u32)) {
                part.extend(dfs.block(b).filter(s).copied());
            }
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{MovingAverage, WordCount};
    use datanet::{Algorithm1, ElasticMapArray, Separation};
    use datanet_dfs::{DfsConfig, Record, Topology};

    fn dfs() -> Dfs {
        let recs = (0..2000u64).map(|i| {
            let s = if i % 4 == 0 { 0 } else { 1 + i % 7 };
            Record::new(SubDatasetId(s), i, 120, i)
        });
        Dfs::write_random(
            DfsConfig {
                block_size: 6_000,
                replication: 2,
                topology: Topology::single_rack(4),
                seed: 8,
            },
            recs,
        )
    }

    #[test]
    fn partitions_cover_the_subdataset_exactly() {
        let d = dfs();
        let s = SubDatasetId(0);
        let view = ElasticMapArray::build(&d, &Separation::All).view(s);
        let plan = Algorithm1::new(&d, &view).plan_balanced();
        let parts = partitions_from_assignment(&d, s, &plan);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 500, "every 4th of 2000 records");
        assert!(parts.iter().flatten().all(|r| r.subdataset == s));
    }

    #[test]
    fn word_count_totals_are_partition_invariant() {
        let d = dfs();
        let s = SubDatasetId(0);
        let view = ElasticMapArray::build(&d, &Separation::All).view(s);
        let plan = Algorithm1::new(&d, &view).plan_balanced();
        let parts = partitions_from_assignment(&d, s, &plan);

        let run = LocalExecutor.execute(&WordCount, &parts);
        // Single-partition reference run.
        let all: Vec<Record> = parts.iter().flatten().copied().collect();
        let reference = LocalExecutor.execute(&WordCount, &[all]);
        assert_eq!(
            run.reduced, reference.reduced,
            "partitioning must not change results"
        );
        let total: f64 = run.reduced.values().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn moving_average_outputs_window_means() {
        let d = dfs();
        let s = SubDatasetId(0);
        let view = ElasticMapArray::build(&d, &Separation::All).view(s);
        let plan = Algorithm1::new(&d, &view).plan_balanced();
        let parts = partitions_from_assignment(&d, s, &plan);
        let run = LocalExecutor.execute(&MovingAverage { window_secs: 500 }, &parts);
        for (&_, &mean) in &run.reduced {
            assert!((0.0..10.0).contains(&mean));
        }
        assert!(!run.reduced.is_empty());
    }

    #[test]
    fn report_accounting() {
        let d = dfs();
        let s = SubDatasetId(0);
        let view = ElasticMapArray::build(&d, &Separation::All).view(s);
        let plan = Algorithm1::new(&d, &view).plan_balanced();
        let parts = partitions_from_assignment(&d, s, &plan);
        let run = LocalExecutor.execute(&WordCount, &parts);
        assert_eq!(run.partition_secs.len(), parts.len());
        assert_eq!(
            run.partition_records,
            parts.iter().map(|p| p.len()).collect::<Vec<_>>()
        );
        assert!(run.total_secs >= 0.0);
        assert!(run.skew() >= 1.0);
    }

    #[test]
    fn combiner_shrinks_shuffle_volume_without_changing_results() {
        let d = dfs();
        let s = SubDatasetId(0);
        let view = ElasticMapArray::build(&d, &Separation::All).view(s);
        let plan = Algorithm1::new(&d, &view).plan_balanced();
        let parts = partitions_from_assignment(&d, s, &plan);
        // WordCount has a combiner; wrap it in a combiner-less shim for the
        // baseline.
        struct NoCombine(WordCount);
        impl crate::jobs::RecordJob for NoCombine {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn profile(&self) -> datanet_mapreduce::JobProfile {
                self.0.profile()
            }
            fn map(&self, r: &Record, emit: &mut dyn FnMut(u64, f64)) {
                self.0.map(r, emit)
            }
            fn reduce(&self, k: u64, vs: &[f64]) -> f64 {
                self.0.reduce(k, vs)
            }
        }
        let with = LocalExecutor.execute(&WordCount, &parts);
        let without = LocalExecutor.execute(&NoCombine(WordCount), &parts);
        assert_eq!(
            with.reduced, without.reduced,
            "combiner must not change results"
        );
        assert!(
            with.merged_values < without.merged_values,
            "combined {} !< raw {}",
            with.merged_values,
            without.merged_values
        );
        // The effect is dramatic for a small key space: AggregateHistogram
        // collapses everything to (#partitions × #classes) values.
        let hist = LocalExecutor.execute(&crate::jobs::AggregateHistogram, &parts);
        assert!(
            hist.merged_values <= parts.len() * 14,
            "histogram combiner left {} values",
            hist.merged_values
        );
    }

    #[test]
    fn moving_average_has_no_combiner() {
        // A mean is not associative over raw values; the job must decline.
        let job = MovingAverage::default();
        assert!(crate::jobs::RecordJob::combine(&job, 0, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn empty_partitions_are_fine() {
        let run = LocalExecutor.execute(&WordCount, &[Vec::new(), Vec::new()]);
        assert!(run.reduced.is_empty());
        assert_eq!(run.partition_records, vec![0, 0]);
    }
}
