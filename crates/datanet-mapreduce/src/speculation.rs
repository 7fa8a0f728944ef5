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

use crate::engine::DEFAULT_TASK_OVERHEAD;
use crate::job::JobProfile;
use datanet_cluster::{NodeSpec, SimTime};

/// Backups launch once this many quarters of the maps have finished
/// (Hadoop-like). It must be at least two: then no more maps are running
/// at the trigger than have finished, so every straggler finds an idle node.
const TRIGGER_QUARTERS: usize = 3;

/// A map is a straggler if its duration exceeds this multiple of the median
/// map duration (Hadoop-like).
const SLOWDOWN_THRESHOLD: f64 = 1.5;

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
fn map_duration(bytes: u64, profile: &JobProfile, spec: &NodeSpec) -> SimTime {
    DEFAULT_TASK_OVERHEAD
        + SimTime::for_bytes(bytes, spec.disk_bps)
        + SimTime::for_bytes(
            (bytes as f64 * profile.map_compute_factor).ceil() as u64,
            spec.cpu_bps,
        )
}

/// Simulate the map phase with speculative backups and per-node slowdown
/// factors (`1.0` = healthy; `3.0` = a node running 3× slow — failing disk,
/// noisy neighbour). Pass all ones for data-skew stragglers alone.
///
/// Every node runs one map over its partition from t = 0, stretched by its
/// slowdown. At the moment 3/4 of the maps have finished, each
/// still-running map whose duration exceeds 1.5× the median gets a backup
/// on an idle node, the worst straggler on the earliest-free node; the
/// backup reads the partition remotely (NIC instead of disk), runs at full
/// speed, and the task's effective end is the earlier of the two copies.
///
/// The instructive outcome (tested): speculation rescues *slow-node*
/// stragglers but cannot rescue *data-skew* stragglers — a backup of the
/// same oversized partition, started later and fed over the network, never
/// beats the original. Reactive mitigation is the wrong tool for the
/// paper's problem; distribution-aware placement prevents it instead.
///
/// # Panics
/// Panics on empty input, a slowdown count that differs from the
/// partition count or a slowdown below 1.
pub fn speculative_map_phase(
    filtered: &[u64],
    profile: &JobProfile,
    spec: &NodeSpec,
    slowdowns: &[f64],
) -> SpeculativeMapOutcome {
    assert!(!filtered.is_empty(), "need at least one partition");
    assert_eq!(filtered.len(), slowdowns.len(), "one slowdown per node");
    assert!(
        slowdowns.iter().all(|&s| s.is_finite() && s >= 1.0),
        "slowdowns must be >= 1"
    );
    profile.validate();
    spec.validate();
    let m = filtered.len();

    let durations: Vec<SimTime> = filtered
        .iter()
        .zip(slowdowns)
        .map(|(&b, &slow)| {
            let d = map_duration(b, profile, spec);
            SimTime::from_secs_f64(d.as_secs_f64() * slow)
        })
        .collect();
    let baseline_makespan = durations.iter().copied().max().expect("non-empty");

    // Trigger time: the ⌈3m/4⌉-th completion.
    let mut ends: Vec<SimTime> = durations.clone();
    ends.sort_unstable();
    let trigger_time = ends[(TRIGGER_QUARTERS * m).div_ceil(4) - 1];
    let median = ends[m / 2];

    // Idle nodes (finished by the trigger), earliest first.
    let mut idle: Vec<(SimTime, usize)> = durations
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d <= trigger_time)
        .map(|(i, &d)| (d, i))
        .collect();
    idle.sort_unstable();

    let threshold = SimTime::from_secs_f64(median.as_secs_f64() * SLOWDOWN_THRESHOLD);
    let mut effective: Vec<SimTime> = durations.clone();
    let mut backups = 0usize;
    let mut duplicated = 0u64;
    // Stragglers, worst first, paired with the earliest-free idle nodes.
    let mut stragglers: Vec<usize> = (0..m)
        .filter(|&i| durations[i] > trigger_time && durations[i] > threshold)
        .collect();
    stragglers.sort_by(|&a, &b| durations[b].cmp(&durations[a]).then(a.cmp(&b)));
    for (i, (free_at, _backup_node)) in stragglers.into_iter().zip(idle) {
        // Backup reads the partition over the network, then recomputes.
        let backup_dur = DEFAULT_TASK_OVERHEAD
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn job() -> JobProfile {
        JobProfile::new("test", 4.0, 0.2, 1.0)
    }

    fn healthy(parts: &[u64]) -> SpeculativeMapOutcome {
        speculative_map_phase(parts, &job(), &NodeSpec::marmot(), &vec![1.0; parts.len()])
    }

    #[test]
    fn balanced_maps_need_no_backups() {
        let out = healthy(&[1_000_000; 8]);
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
        let out = healthy(&parts);
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
        let out = speculative_map_phase(&parts, &job(), &NodeSpec::marmot(), &slowdowns);
        assert_eq!(out.backups, 1);
        assert!(
            out.improvement() > 0.3,
            "slow-node straggler should be rescued, got {:.3}",
            out.improvement()
        );
    }

    /// A seeded sweep over random partitions (1 to 64 maps) and slowdowns
    /// (1 to 4): every straggler — a map still running at the 3/4 trigger
    /// and slower than 1.5× the median — gets exactly one backup, and no
    /// map ends later than it would without speculation.
    #[test]
    fn every_straggler_gets_one_backup_and_no_map_ends_later() {
        let spec = NodeSpec::marmot();
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1..=64usize);
            let parts: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=8_000_000u64)).collect();
            let slowdowns: Vec<f64> = (0..m)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        1.0
                    } else {
                        rng.gen_range(1.0..4.0)
                    }
                })
                .collect();
            let out = speculative_map_phase(&parts, &job(), &spec, &slowdowns);

            let solo: Vec<f64> = (parts.iter().zip(&slowdowns))
                .map(|(&b, &slow)| {
                    let d = map_duration(b, &job(), &spec).as_secs_f64() * slow;
                    SimTime::from_secs_f64(d).as_secs_f64()
                })
                .collect();
            let mut ends = solo.clone();
            ends.sort_by(f64::total_cmp);
            let trigger = ends[(3 * m).div_ceil(4) - 1];
            let threshold = SimTime::from_secs_f64(ends[m / 2] * 1.5).as_secs_f64();
            let stragglers: Vec<usize> = (0..m)
                .filter(|&i| solo[i] > trigger && solo[i] > threshold)
                .collect();
            assert_eq!(out.backups, stragglers.len(), "seed {seed}");
            let bytes: u64 = stragglers.iter().map(|&i| parts[i]).sum();
            assert_eq!(out.duplicated_bytes, bytes, "seed {seed}");
            for (i, (&end, &alone)) in out.map_end_secs.iter().zip(&solo).enumerate() {
                assert!(end <= alone, "seed {seed}: map {i} ends {end} > {alone}");
            }
            assert!(
                out.makespan_secs <= out.baseline_makespan_secs,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn worst_straggler_is_backed_up_first() {
        let mut parts = vec![400_000u64; 8];
        parts[1] = 3_000_000;
        parts[2] = 6_000_000;
        let out = healthy(&parts);
        assert!(out.backups >= 1);
        // The 6 MB straggler's effective end must beat its solo duration.
        let solo = map_duration(6_000_000, &job(), &NodeSpec::marmot());
        assert!(out.map_end_secs[2] < solo.as_secs_f64());
    }

    #[test]
    #[should_panic]
    fn rejects_empty_partitions() {
        healthy(&[]);
    }
}
