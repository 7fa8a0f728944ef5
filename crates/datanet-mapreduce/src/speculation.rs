//! Speculative execution — Hadoop's built-in straggler mitigation, modelled
//! as a map-phase baseline.
//!
//! When most maps have finished, Hadoop launches *backup* copies of the
//! stragglers on idle nodes and takes whichever copy finishes first. Like
//! SkewTune-style migration (Section V-A-4) this reacts to imbalance after
//! the fact: the backup must re-read the straggler's partition over the
//! network, the duplicated work burns slots, and — crucially for the
//! paper's argument — it caps the tail at roughly *half* the straggler's
//! remaining time instead of preventing the skew altogether.

use crate::job::JobProfile;
use datanet_cluster::{NodeSpec, SimTime};

/// Speculation policy parameters (Hadoop-like defaults).
#[derive(Debug, Clone, Copy)]
pub struct SpeculationConfig {
    /// Fraction of maps that must be done before backups launch.
    pub trigger_fraction: f64,
    /// A task is a straggler if its projected duration exceeds this multiple
    /// of the median task duration.
    pub slowdown_threshold: f64,
    /// Fixed per-task overhead (matches the engine's).
    pub task_overhead: SimTime,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            trigger_fraction: 0.75,
            slowdown_threshold: 1.5,
            task_overhead: SimTime::from_millis(6),
        }
    }
}

/// Outcome of a speculative map phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculativeMapOutcome {
    /// Effective per-node map completion seconds (min of original/backup).
    pub map_end_secs: Vec<f64>,
    /// Map-phase makespan with speculation.
    pub makespan_secs: f64,
    /// Map-phase makespan without speculation (for comparison).
    pub baseline_makespan_secs: f64,
    /// Number of backup tasks launched.
    pub backups: usize,
    /// Bytes re-read remotely by backup tasks (the duplicated work).
    pub duplicated_bytes: u64,
}

impl SpeculativeMapOutcome {
    /// Relative makespan improvement speculation bought.
    pub fn improvement(&self) -> f64 {
        if self.baseline_makespan_secs == 0.0 {
            return 0.0;
        }
        1.0 - self.makespan_secs / self.baseline_makespan_secs
    }
}

/// Original map duration of a partition on its own node.
fn map_duration(bytes: u64, profile: &JobProfile, spec: &NodeSpec, overhead: SimTime) -> SimTime {
    overhead
        + SimTime::for_bytes(bytes, spec.disk_bps)
        + SimTime::for_bytes(
            (bytes as f64 * profile.map_compute_factor).ceil() as u64,
            spec.cpu_bps,
        )
}

/// Simulate the map phase with speculative backups on homogeneous, healthy
/// nodes (stragglers are purely data-skew stragglers).
///
/// # Panics
/// Panics on empty input or invalid configuration.
pub fn speculative_map_phase(
    filtered: &[u64],
    profile: &JobProfile,
    spec: &NodeSpec,
    cfg: &SpeculationConfig,
) -> SpeculativeMapOutcome {
    speculative_map_phase_with_slowdowns(filtered, profile, spec, cfg, &vec![1.0; filtered.len()])
}

/// Simulate the map phase with speculative backups and per-node slowdown
/// factors (`1.0` = healthy; `3.0` = a node running 3× slow — failing disk,
/// noisy neighbour).
///
/// Every node runs one map over its partition from t = 0, stretched by its
/// slowdown. At the moment `trigger_fraction` of the maps have finished,
/// each still-running map whose duration exceeds `slowdown_threshold ×` the
/// median gets a backup on the idle node that finished earliest; the backup
/// reads the partition remotely (NIC instead of disk), runs at full speed,
/// and the task's effective end is the earlier of the two copies.
///
/// The instructive outcome (tested): speculation rescues *slow-node*
/// stragglers but cannot rescue *data-skew* stragglers — a backup of the
/// same oversized partition, started later and fed over the network, never
/// beats the original. Reactive mitigation is the wrong tool for the
/// paper's problem; distribution-aware placement prevents it instead.
///
/// # Panics
/// Panics on empty input or invalid configuration.
pub fn speculative_map_phase_with_slowdowns(
    filtered: &[u64],
    profile: &JobProfile,
    spec: &NodeSpec,
    cfg: &SpeculationConfig,
    slowdowns: &[f64],
) -> SpeculativeMapOutcome {
    assert!(!filtered.is_empty(), "need at least one partition");
    assert_eq!(filtered.len(), slowdowns.len(), "one slowdown per node");
    assert!(
        slowdowns.iter().all(|&s| s.is_finite() && s >= 1.0),
        "slowdowns must be >= 1"
    );
    assert!(
        (0.0..1.0).contains(&cfg.trigger_fraction),
        "trigger fraction must be in [0,1)"
    );
    assert!(
        cfg.slowdown_threshold >= 1.0,
        "slowdown threshold must be >= 1"
    );
    profile.validate();
    spec.validate();
    let m = filtered.len();

    let durations: Vec<SimTime> = filtered
        .iter()
        .zip(slowdowns)
        .map(|(&b, &slow)| {
            let d = map_duration(b, profile, spec, cfg.task_overhead);
            SimTime::from_secs_f64(d.as_secs_f64() * slow)
        })
        .collect();
    let baseline_makespan = durations.iter().copied().max().expect("non-empty");

    // Trigger time: the ⌈f·m⌉-th completion.
    let mut ends: Vec<SimTime> = durations.clone();
    ends.sort_unstable();
    let trigger_rank = ((cfg.trigger_fraction * m as f64).ceil() as usize).clamp(1, m) - 1;
    let trigger_time = ends[trigger_rank];
    let median = ends[m / 2];

    // Idle nodes (finished before the trigger), earliest first.
    let mut idle: Vec<(SimTime, usize)> = durations
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d <= trigger_time)
        .map(|(i, &d)| (d, i))
        .collect();
    idle.sort_unstable();

    let threshold = SimTime::from_secs_f64(median.as_secs_f64() * cfg.slowdown_threshold);
    let mut effective: Vec<SimTime> = durations.clone();
    let mut backups = 0usize;
    let mut duplicated = 0u64;
    let mut idle_iter = idle.into_iter();
    // Stragglers, worst first, so the scarce idle nodes go where they help.
    let mut stragglers: Vec<usize> = (0..m)
        .filter(|&i| durations[i] > trigger_time && durations[i] > threshold)
        .collect();
    stragglers.sort_by(|&a, &b| durations[b].cmp(&durations[a]).then(a.cmp(&b)));
    for i in stragglers {
        let Some((free_at, _backup_node)) = idle_iter.next() else {
            break;
        };
        // Backup reads the partition over the network, then recomputes.
        let backup_dur = cfg.task_overhead
            + SimTime::for_bytes(filtered[i], spec.nic_bps)
            + SimTime::for_bytes(
                (filtered[i] as f64 * profile.map_compute_factor).ceil() as u64,
                spec.cpu_bps,
            );
        let backup_end = free_at.max(trigger_time) + backup_dur;
        backups += 1;
        duplicated += filtered[i];
        effective[i] = effective[i].min(backup_end);
    }

    let makespan = effective.iter().copied().max().expect("non-empty");
    SpeculativeMapOutcome {
        map_end_secs: effective.iter().map(|t| t.as_secs_f64()).collect(),
        makespan_secs: makespan.as_secs_f64(),
        baseline_makespan_secs: baseline_makespan.as_secs_f64(),
        backups,
        duplicated_bytes: duplicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobProfile {
        JobProfile::new("test", 4.0, 0.2, 1.0)
    }

    #[test]
    fn balanced_maps_need_no_backups() {
        let out = speculative_map_phase(
            &[1_000_000; 8],
            &job(),
            &NodeSpec::marmot(),
            &SpeculationConfig::default(),
        );
        assert_eq!(out.backups, 0);
        assert_eq!(out.duplicated_bytes, 0);
        assert_eq!(out.makespan_secs, out.baseline_makespan_secs);
        assert_eq!(out.improvement(), 0.0);
    }

    #[test]
    fn speculation_cannot_fix_data_skew() {
        // The paper's core argument, quantified: a backup of the same
        // oversized partition starts later and reads over the network, so
        // it never beats the original — speculation buys ~nothing against
        // content-clustering skew.
        let mut parts = vec![500_000u64; 8];
        parts[3] = 5_000_000;
        let out = speculative_map_phase(
            &parts,
            &job(),
            &NodeSpec::marmot(),
            &SpeculationConfig::default(),
        );
        assert_eq!(out.backups, 1, "a backup is launched");
        assert_eq!(out.duplicated_bytes, 5_000_000, "...and wasted");
        assert!(
            out.improvement() < 0.05,
            "data-skew straggler should not be rescued, got {:.3}",
            out.improvement()
        );
    }

    #[test]
    fn speculation_rescues_a_slow_node() {
        // Balanced data, one node 4x slow: the backup (full speed, remote
        // read) wins easily.
        let parts = vec![1_000_000u64; 8];
        let mut slowdowns = vec![1.0; 8];
        slowdowns[5] = 4.0;
        let out = speculative_map_phase_with_slowdowns(
            &parts,
            &job(),
            &NodeSpec::marmot(),
            &SpeculationConfig::default(),
            &slowdowns,
        );
        assert_eq!(out.backups, 1);
        assert!(
            out.improvement() > 0.3,
            "slow-node straggler should be rescued, got {:.3}",
            out.improvement()
        );
    }

    #[test]
    fn backups_limited_by_idle_nodes() {
        // 2 idle nodes, 6 stragglers: at most 2 backups.
        let parts = vec![
            100_000u64, 100_000, 4_000_000, 4_000_000, 4_000_000, 4_000_000, 4_000_000, 4_000_000,
        ];
        let cfg = SpeculationConfig {
            trigger_fraction: 0.2,
            ..Default::default()
        };
        let out = speculative_map_phase(&parts, &job(), &NodeSpec::marmot(), &cfg);
        assert!(out.backups <= 2, "got {} backups", out.backups);
    }

    #[test]
    fn worst_straggler_is_backed_up_first() {
        let mut parts = vec![400_000u64; 8];
        parts[1] = 3_000_000;
        parts[2] = 6_000_000;
        let cfg = SpeculationConfig {
            trigger_fraction: 0.6,
            ..Default::default()
        };
        let out = speculative_map_phase(&parts, &job(), &NodeSpec::marmot(), &cfg);
        assert!(out.backups >= 1);
        // The 6 MB straggler's effective end must beat its solo duration.
        let solo = map_duration(6_000_000, &job(), &NodeSpec::marmot(), cfg.task_overhead);
        assert!(out.map_end_secs[2] < solo.as_secs_f64());
    }

    #[test]
    #[should_panic]
    fn rejects_empty_partitions() {
        speculative_map_phase(
            &[],
            &job(),
            &NodeSpec::marmot(),
            &SpeculationConfig::default(),
        );
    }
}
