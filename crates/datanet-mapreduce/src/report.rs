//! Execution reports: everything the paper's figures read off a run.
//!
//! Every duration in these structs is **simulated** time — seconds (or
//! [`SimTime`] instants) on the discrete-event clock, never wall time.

use datanet::MetaHealth;
use datanet_cluster::SimTime;
use datanet_dfs::BlockId;
use datanet_obs::ObsSummary;
use datanet_stats::Summary;
use serde::{Deserialize, Serialize, Value};

/// End-to-end pipeline duration in simulated seconds: the selection phase
/// runs first, then the analysis job starts from its end. The single place
/// this sum is defined — report consumers and bench bins route through it
/// instead of re-deriving the arithmetic.
pub fn total_secs(selection_end: SimTime, job_makespan_secs: f64) -> f64 {
    selection_end.as_secs_f64() + job_makespan_secs
}

/// What fault injection did to a run and what recovery cost. All zeros /
/// empty for a fault-free execution ([`FaultStats::default`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Nodes that crashed during the phase, in crash order.
    pub crashed_nodes: Vec<usize>,
    /// Tasks re-enqueued because their node died (in-flight and
    /// completed-but-unconsumed alike).
    pub requeued_tasks: usize,
    /// Re-executions actually performed on survivors (≥ requeued minus
    /// abandoned/unrecoverable; a block can be requeued more than once).
    pub reexecuted_tasks: usize,
    /// Bytes read again from disk/network for re-executions — work the
    /// crash wasted.
    pub wasted_bytes_read: u64,
    /// Blocks whose every replica died: no survivor can serve them. The
    /// engine reports rather than silently drops them.
    pub unrecoverable_blocks: Vec<BlockId>,
    /// Blocks given up on after exhausting the retry limit.
    pub abandoned_blocks: Vec<BlockId>,
    /// Simulated seconds from the first crash to phase completion (0
    /// without faults).
    pub recovery_secs: f64,
    /// Simulated seconds between each crash and the moment the failure
    /// detector suspected the node, in crash order. Empty under the oracle
    /// model (PR 1 semantics: crashes are known instantly).
    pub detection_latency_secs: Vec<f64>,
}

impl FaultStats {
    /// Whether any fault fired during the run.
    pub fn any(&self) -> bool {
        !self.crashed_nodes.is_empty()
    }
}

/// Result of the selection (filter) phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionOutcome {
    /// Scheduler that drove the phase.
    pub scheduler: String,
    /// Ground-truth bytes of the target sub-dataset filtered onto each node
    /// — the Figure 1(b)/5(c) series.
    pub per_node_bytes: Vec<u64>,
    /// Map-task count per node.
    pub tasks_per_node: Vec<usize>,
    /// When each node finished its selection tasks (simulated instant).
    pub per_node_end: Vec<SimTime>,
    /// Phase completion (max of per-node ends; simulated instant).
    pub end: SimTime,
    /// Data-local task assignments.
    pub local_tasks: usize,
    /// Total tasks issued.
    pub total_tasks: usize,
    /// Total bytes read from disk (DataNet's block skipping shows up here).
    pub bytes_read: u64,
    /// Fault-injection accounting (all-default when the run was fault-free).
    pub faults: FaultStats,
    /// Metadata-plane health: shards repaired/quarantined, blocks per
    /// degradation-ladder rung, estimator error (all-default when the
    /// metadata was fully healthy).
    pub meta: MetaHealth,
}

impl SelectionOutcome {
    /// Fraction of tasks that read a local replica.
    pub fn locality_fraction(&self) -> f64 {
        if self.total_tasks == 0 {
            return 1.0;
        }
        self.local_tasks as f64 / self.total_tasks as f64
    }

    /// Summary of per-node filtered workload.
    pub fn workload_summary(&self) -> Summary {
        Summary::of(
            &self
                .per_node_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Max-over-mean workload imbalance.
    pub fn imbalance(&self) -> f64 {
        let s = self.workload_summary();
        if s.mean() == 0.0 {
            return 1.0;
        }
        s.max() / s.mean()
    }

    /// Gini coefficient of the per-node workload (0 = perfectly equal).
    pub fn gini(&self) -> f64 {
        datanet_stats::gini(
            &self
                .per_node_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// Result of running one analysis job over the filtered partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job name.
    pub job: String,
    /// Per-node map-task durations, simulated seconds — Figure 6(a).
    pub map_secs: Vec<f64>,
    /// Per-reducer shuffle durations, simulated seconds (first-map-finish →
    /// last byte received) — Figure 7.
    pub shuffle_secs: Vec<f64>,
    /// Per-reducer reduce durations, simulated seconds.
    pub reduce_secs: Vec<f64>,
    /// End-to-end job time, simulated seconds — the Figure 5(a) bar.
    pub makespan_secs: f64,
    /// Intermediate bytes that crossed the network during the shuffle.
    pub shuffle_bytes: u64,
    /// Per-node CPU utilisation over the job (busy time / makespan) — the
    /// paper's "nodes with less workload will be idle for a long time"
    /// made visible.
    pub cpu_util: Vec<f64>,
}

impl JobReport {
    /// min/avg/max of map times — Figure 6(b)(c).
    pub fn map_summary(&self) -> Summary {
        Summary::of(&self.map_secs)
    }

    /// min/avg/max of shuffle times — Figure 7.
    pub fn shuffle_summary(&self) -> Summary {
        Summary::of(&self.shuffle_secs)
    }

    /// min/avg/max of per-node CPU utilisation.
    pub fn util_summary(&self) -> Summary {
        Summary::of(&self.cpu_util)
    }
}

/// A shuffle-planned analysis run: the [`JobReport`] plus the byte-level
/// routing accounting the shuffle oracles and tests read. Kept separate
/// from [`JobReport`] so existing serialized reports stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShuffleOutcome {
    /// The standard job report (its `shuffle_bytes` equals
    /// [`ShuffleOutcome::network_bytes`]).
    pub report: JobReport,
    /// Map-output bytes each reducer slot received, local and remote —
    /// sums exactly to the total map output (conservation oracle).
    pub received: Vec<u64>,
    /// Bytes that crossed the simulated network.
    pub network_bytes: u64,
    /// Bytes that stayed on their mapper's node — the locality win.
    pub local_bytes: u64,
}

impl ShuffleOutcome {
    /// Fraction of the map output that never left its node.
    pub fn locality_fraction(&self) -> f64 {
        let total = self.network_bytes + self.local_bytes;
        if total == 0 {
            0.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }

    /// Largest reducer inflow over the mean — the reduce-skew metric.
    pub fn reduce_imbalance(&self) -> f64 {
        let total: u64 = self.received.iter().sum();
        let max = self.received.iter().copied().max().unwrap_or(0);
        if total == 0 {
            1.0
        } else {
            max as f64 * self.received.len() as f64 / total as f64
        }
    }
}

/// A full pipeline run: selection followed by one analysis job.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ExecutionReport {
    /// The selection phase.
    pub selection: SelectionOutcome,
    /// The analysis job.
    pub job: JobReport,
    /// Observability summary when the run was traced (`None` otherwise —
    /// and then entirely absent from the serialized report, so untraced
    /// output is byte-identical to pre-observability reports).
    pub obs: Option<ObsSummary>,
}

// Hand-written so `obs: None` is *omitted* rather than emitted as `null`:
// the vendored serde derive has no `#[serde(skip_serializing_if)]`, and
// recorder-off runs must serialize exactly as they did before the
// observability plane existed. The derived `Deserialize` above already
// treats a missing key as `None`.
impl Serialize for ExecutionReport {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("selection".to_string(), self.selection.to_value()),
            ("job".to_string(), self.job.to_value()),
        ];
        if let Some(obs) = &self.obs {
            entries.push(("obs".to_string(), obs.to_value()));
        }
        Value::Object(entries)
    }
}

impl ExecutionReport {
    /// Total pipeline duration in simulated seconds (selection + analysis),
    /// via the shared [`total_secs`] helper.
    pub fn total_secs(&self) -> f64 {
        total_secs(self.selection.end, self.job.makespan_secs)
    }

    /// Fault accounting for the pipeline (faults are injected during
    /// selection; the analysis phase runs on the survivors).
    pub fn faults(&self) -> &FaultStats {
        &self.selection.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> SelectionOutcome {
        SelectionOutcome {
            scheduler: "test".into(),
            per_node_bytes: vec![100, 300],
            tasks_per_node: vec![2, 2],
            per_node_end: vec![SimTime::from_secs(1), SimTime::from_secs(2)],
            end: SimTime::from_secs(2),
            local_tasks: 3,
            total_tasks: 4,
            bytes_read: 1000,
            faults: FaultStats::default(),
            meta: MetaHealth::default(),
        }
    }

    #[test]
    fn selection_metrics() {
        let o = outcome();
        assert!((o.locality_fraction() - 0.75).abs() < 1e-12);
        assert!((o.imbalance() - 1.5).abs() < 1e-12);
        // [100, 300]: G = 0.25.
        assert!((o.gini() - 0.25).abs() < 1e-12);
        let s = o.workload_summary();
        assert_eq!(s.min(), 100.0);
        assert_eq!(s.max(), 300.0);
    }

    #[test]
    fn job_summaries() {
        let j = JobReport {
            job: "wc".into(),
            map_secs: vec![1.0, 3.0],
            shuffle_secs: vec![0.5, 1.5],
            reduce_secs: vec![0.2, 0.2],
            makespan_secs: 5.0,
            shuffle_bytes: 123,
            cpu_util: vec![0.5, 0.9],
        };
        assert_eq!(j.map_summary().max(), 3.0);
        assert_eq!(j.shuffle_summary().mean(), 1.0);
        assert!((j.util_summary().mean() - 0.7).abs() < 1e-12);
        let r = ExecutionReport {
            selection: outcome(),
            job: j,
            obs: None,
        };
        assert!((r.total_secs() - 7.0).abs() < 1e-12);
        assert_eq!(
            r.total_secs(),
            total_secs(r.selection.end, r.job.makespan_secs)
        );
    }

    #[test]
    fn untraced_report_serializes_without_obs_key() {
        let r = ExecutionReport {
            selection: outcome(),
            job: JobReport {
                job: "wc".into(),
                map_secs: vec![1.0],
                shuffle_secs: vec![0.5],
                reduce_secs: vec![0.2],
                makespan_secs: 5.0,
                shuffle_bytes: 123,
                cpu_util: vec![0.5],
            },
            obs: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("obs"),
            "recorder-off reports must not mention obs: {json}"
        );
        let back: ExecutionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);

        let traced = ExecutionReport {
            obs: Some(ObsSummary::default()),
            ..r.clone()
        };
        let json = serde_json::to_string(&traced).unwrap();
        assert!(json.contains("\"obs\""));
        let back: ExecutionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, traced);
    }

    #[test]
    fn empty_selection_is_balanced() {
        let o = SelectionOutcome {
            scheduler: "x".into(),
            per_node_bytes: vec![0, 0],
            tasks_per_node: vec![0, 0],
            per_node_end: vec![SimTime::ZERO, SimTime::ZERO],
            end: SimTime::ZERO,
            local_tasks: 0,
            total_tasks: 0,
            bytes_read: 0,
            faults: FaultStats::default(),
            meta: MetaHealth::default(),
        };
        assert_eq!(o.locality_fraction(), 1.0);
        assert_eq!(o.imbalance(), 1.0);
    }

    #[test]
    fn fault_stats_default_is_fault_free() {
        let f = FaultStats::default();
        assert!(!f.any());
        assert_eq!(f.recovery_secs, 0.0);
        let with = FaultStats {
            crashed_nodes: vec![3],
            unrecoverable_blocks: vec![BlockId(7)],
            abandoned_blocks: vec![BlockId(9), BlockId(11)],
            ..FaultStats::default()
        };
        assert!(with.any());
    }
}
