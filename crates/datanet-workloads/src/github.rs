//! GitHub-Archive-style event-log generator (Section V-A-4).
//!
//! "The datasets provide more than 20 event types ranging from new commits
//! and fork events to opening new tickets, commenting, and adding members to
//! a project." Event sub-datasets here are keyed by *event type*, not by
//! time-of-interest, so the distribution over blocks is **imbalanced but not
//! content-clustered** (Figure 8(a)) — event mix and payload sizes drift
//! slowly with a daily activity cycle, but there is no release-burst
//! mechanism.

use datanet_dfs::{Record, SubDatasetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The GitHub Archive event taxonomy (22 types, matching "more than 20").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// Commit pushes — by far the most frequent event.
    Push,
    /// New issues — the sub-dataset the paper analyses.
    Issue,
    /// Issue comments.
    IssueComment,
    /// Pull requests.
    PullRequest,
    /// PR review comments.
    PullRequestReviewComment,
    /// Stars ("watch" in the archive).
    Watch,
    /// Forks.
    Fork,
    /// New branches/tags.
    Create,
    /// Deleted branches/tags.
    Delete,
    /// Wiki edits.
    Gollum,
    /// Collaborator added.
    Member,
    /// Repo made public.
    Public,
    /// Releases.
    Release,
    /// Commit comments.
    CommitComment,
    /// Gists.
    Gist,
    /// Follows (legacy).
    Follow,
    /// Downloads (legacy).
    Download,
    /// Team additions (legacy).
    TeamAdd,
    /// Deployments.
    Deployment,
    /// Deployment statuses.
    DeploymentStatus,
    /// Status checks.
    Status,
    /// Forks applied (legacy).
    ForkApply,
}

impl EventType {
    /// All event types, in sub-dataset-id order.
    pub const ALL: [EventType; 22] = [
        EventType::Push,
        EventType::Issue,
        EventType::IssueComment,
        EventType::PullRequest,
        EventType::PullRequestReviewComment,
        EventType::Watch,
        EventType::Fork,
        EventType::Create,
        EventType::Delete,
        EventType::Gollum,
        EventType::Member,
        EventType::Public,
        EventType::Release,
        EventType::CommitComment,
        EventType::Gist,
        EventType::Follow,
        EventType::Download,
        EventType::TeamAdd,
        EventType::Deployment,
        EventType::DeploymentStatus,
        EventType::Status,
        EventType::ForkApply,
    ];

    /// The sub-dataset id of this event type.
    pub fn id(self) -> SubDatasetId {
        SubDatasetId(Self::ALL.iter().position(|&e| e == self).expect("in ALL") as u64)
    }

    /// Relative frequency weight (calibrated to published GitHub Archive
    /// statistics: pushes ≈ half of all events, a long tail of rare types).
    pub(crate) fn frequency_weight(self) -> f64 {
        match self {
            EventType::Push => 50.0,
            EventType::Create => 10.0,
            EventType::Watch => 8.0,
            EventType::IssueComment => 7.0,
            EventType::Issue => 5.0,
            EventType::PullRequest => 4.5,
            EventType::Fork => 3.5,
            EventType::Status => 3.0,
            EventType::Delete => 2.5,
            EventType::PullRequestReviewComment => 1.5,
            EventType::Gollum => 1.0,
            EventType::CommitComment => 0.8,
            EventType::Release => 0.7,
            EventType::Member => 0.5,
            EventType::Gist => 0.4,
            EventType::Deployment => 0.3,
            EventType::DeploymentStatus => 0.3,
            EventType::Public => 0.2,
            EventType::TeamAdd => 0.2,
            EventType::Follow => 0.15,
            EventType::Download => 0.1,
            EventType::ForkApply => 0.05,
        }
    }

    /// Mean payload bytes per event (push events carry commit lists and are
    /// much bigger than watch events).
    pub(crate) fn mean_bytes(self) -> u32 {
        match self {
            EventType::Push => 2048,
            EventType::PullRequest => 1536,
            EventType::Issue => 1024,
            EventType::IssueComment => 896,
            EventType::PullRequestReviewComment => 896,
            EventType::Release => 768,
            EventType::CommitComment => 640,
            EventType::Gollum => 512,
            EventType::Create => 384,
            EventType::Deployment | EventType::DeploymentStatus => 384,
            EventType::Status => 320,
            EventType::Fork => 256,
            EventType::Gist => 256,
            EventType::Delete => 192,
            EventType::Member | EventType::TeamAdd => 192,
            EventType::Public => 128,
            EventType::Watch | EventType::Follow => 128,
            EventType::Download => 128,
            EventType::ForkApply => 128,
        }
    }
}

/// Configuration of the event-log generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GithubConfig {
    /// Number of events.
    pub records: usize,
    /// Horizon in days.
    pub horizon_days: u32,
    /// Amplitude of the daily activity cycle in `[0, 1)`; makes the event
    /// *rate* (and thus block composition) drift without clustering any
    /// single type.
    pub daily_cycle: f64,
    /// Log-normal σ of the per-day, per-type mix jitter: real repositories
    /// see triage sprints and CI storms that swing one type's share for a
    /// day. This produces Figure 8(a)'s *imbalanced yet unclustered*
    /// per-block distribution. 0 disables jitter.
    pub mix_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GithubConfig {
    fn default() -> Self {
        Self {
            records: 200_000,
            horizon_days: 30,
            daily_cycle: 0.5,
            mix_jitter: 0.8,
            seed: 0x6174_4875,
        }
    }
}

impl GithubConfig {
    /// Validate parameters.
    ///
    /// # Panics
    /// Panics on degenerate configuration.
    pub fn validate(&self) {
        assert!(self.records > 0, "need at least one event");
        assert!(self.horizon_days > 0, "horizon must be positive");
        assert!(
            (0.0..1.0).contains(&self.daily_cycle),
            "daily cycle amplitude must be in [0,1)"
        );
        assert!(
            self.mix_jitter.is_finite() && self.mix_jitter >= 0.0,
            "mix jitter must be non-negative"
        );
    }

    /// Generate the chronologically-ordered event stream.
    pub fn generate(&self) -> Vec<Record> {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let base_weights: Vec<f64> = EventType::ALL
            .iter()
            .map(|e| e.frequency_weight())
            .collect();
        // Per-day cumulative frequency tables with log-normal mix jitter.
        let day_cdfs: Vec<Vec<f64>> = (0..self.horizon_days)
            .map(|_| {
                let jittered: Vec<f64> = base_weights
                    .iter()
                    .map(|w| {
                        let z = gaussian(&mut rng);
                        w * (self.mix_jitter * z).exp()
                    })
                    .collect();
                let total: f64 = jittered.iter().sum();
                let mut cdf = Vec::with_capacity(jittered.len());
                let mut acc = 0.0;
                for w in &jittered {
                    acc += w / total;
                    cdf.push(acc);
                }
                *cdf.last_mut().expect("non-empty") = 1.0;
                cdf
            })
            .collect();

        let horizon_secs = self.horizon_days as u64 * 86_400;
        let mut records = Vec::with_capacity(self.records);
        for i in 0..self.records {
            // Timestamp: uniform base with a sinusoidal daily cycle applied
            // via rejection (keeps the inverse simple and exact).
            let ts = loop {
                let t = rng.gen_range(0..horizon_secs);
                let phase = (t % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
                let density = 1.0 + self.daily_cycle * phase.sin();
                if rng.gen::<f64>() * (1.0 + self.daily_cycle) <= density {
                    break t;
                }
            };
            let cdf = &day_cdfs[(ts / 86_400) as usize];
            let u: f64 = rng.gen();
            let ev = EventType::ALL[cdf.partition_point(|&c| c < u).min(cdf.len() - 1)];
            let mean = ev.mean_bytes();
            let size = rng.gen_range((mean / 2).max(8)..mean + mean / 2);
            records.push(Record::new(
                ev.id(),
                ts,
                size,
                self.seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            ));
        }
        records.sort_by_key(|r| r.timestamp);
        records
    }
}

/// One standard-normal deviate (Box–Muller; local to avoid a rand_distr
/// dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> GithubConfig {
        GithubConfig {
            records: 50_000,
            ..Default::default()
        }
    }

    /// Jitter-free variant for exact-mix assertions.
    fn small_stationary() -> GithubConfig {
        GithubConfig {
            mix_jitter: 0.0,
            ..small()
        }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        for (i, e) in EventType::ALL.iter().enumerate() {
            assert_eq!(e.id(), SubDatasetId(i as u64));
        }
    }

    #[test]
    fn generates_sorted_events() {
        let recs = small().generate();
        assert_eq!(recs.len(), 50_000);
        assert!(recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn event_mix_matches_weights() {
        let recs = small_stationary().generate();
        let mut counts: HashMap<SubDatasetId, usize> = HashMap::new();
        for r in &recs {
            *counts.entry(r.subdataset).or_default() += 1;
        }
        let push = counts[&EventType::Push.id()] as f64 / recs.len() as f64;
        assert!(
            (0.45..0.55).contains(&push),
            "push fraction {push}, expected ≈ 0.5"
        );
        let issue = counts[&EventType::Issue.id()] as f64 / recs.len() as f64;
        assert!((0.03..0.08).contains(&issue), "issue fraction {issue}");
        // Rare types still occur.
        assert!(counts.contains_key(&EventType::Member.id()));
    }

    #[test]
    fn no_content_clustering_for_issue_events() {
        // The defining contrast with the movie dataset: IssueEvents spread
        // across the whole horizon. Split time into 10 slices; every slice
        // should hold some IssueEvent data and no slice should dominate.
        let cfg = small_stationary();
        let recs = cfg.generate();
        let horizon = cfg.horizon_days as u64 * 86_400;
        let mut slices = [0usize; 10];
        for r in recs
            .iter()
            .filter(|r| r.subdataset == EventType::Issue.id())
        {
            slices[(r.timestamp * 10 / horizon).min(9) as usize] += 1;
        }
        let max = *slices.iter().max().unwrap();
        let min = *slices.iter().min().unwrap();
        assert!(min > 0, "IssueEvents missing from a whole time slice");
        assert!(max < 3 * min, "IssueEvents clustered: slices {slices:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(small().generate(), small().generate());
    }

    #[test]
    fn mix_jitter_imbalances_without_clustering() {
        // The Figure 8(a) regime: with jitter on, IssueEvent density varies
        // visibly across time slices (imbalance) yet never vanishes from a
        // slice (no content clustering).
        let cfg = small();
        let recs = cfg.generate();
        let horizon = cfg.horizon_days as u64 * 86_400;
        let mut slices = [0u64; 10];
        for r in recs
            .iter()
            .filter(|r| r.subdataset == EventType::Issue.id())
        {
            slices[(r.timestamp * 10 / horizon).min(9) as usize] += r.size as u64;
        }
        let max = *slices.iter().max().unwrap();
        let min = *slices.iter().min().unwrap();
        assert!(min > 0, "IssueEvents missing from a slice: {slices:?}");
        assert!(
            max as f64 > 1.5 * min as f64,
            "jitter produced no imbalance: {slices:?}"
        );
    }

    #[test]
    fn payload_sizes_follow_type_means() {
        let recs = small().generate();
        let avg = |id: SubDatasetId| {
            let (mut n, mut s) = (0u64, 0u64);
            for r in recs.iter().filter(|r| r.subdataset == id) {
                n += 1;
                s += r.size as u64;
            }
            s as f64 / n.max(1) as f64
        };
        assert!(avg(EventType::Push.id()) > 3.0 * avg(EventType::Watch.id()));
    }

    #[test]
    #[should_panic]
    fn full_cycle_amplitude_rejected() {
        GithubConfig {
            daily_cycle: 1.0,
            ..Default::default()
        }
        .generate();
    }
}
