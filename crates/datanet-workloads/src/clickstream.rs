//! Web click-stream generator — the paper's first motivating application
//! ("in recommendation systems and personalized web services, the analysis
//! on the webpage click streams needs to perform user sessionization
//! analysis").
//!
//! Sub-dataset = one user's clicks. Users click in *sessions*: bursts of
//! activity separated by long idle gaps, which is exactly the structure
//! `datanet-analytics::session` reconstructs. Heavy users (Zipf activity)
//! have many sessions spread over the horizon, so a user's data is
//! *bursty in time yet spread across many blocks* — a different
//! sub-dataset geometry from both the movie and the GitHub datasets.

use datanet_dfs::{Record, SubDatasetId};
use datanet_stats::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the click-stream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickstreamConfig {
    /// Number of users (sub-datasets).
    pub users: usize,
    /// Total number of sessions to generate (spread over users by Zipf
    /// activity).
    pub sessions: usize,
    /// Horizon in days.
    pub horizon_days: u32,
    /// Mean clicks per session (geometric, at least 1).
    pub mean_clicks_per_session: f64,
    /// Mean seconds between clicks within a session.
    pub mean_think_secs: u64,
    /// Zipf exponent of user activity.
    pub activity_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClickstreamConfig {
    fn default() -> Self {
        Self {
            users: 5_000,
            sessions: 30_000,
            horizon_days: 30,
            mean_clicks_per_session: 8.0,
            mean_think_secs: 45,
            activity_exponent: 1.0,
            seed: 0xC11C_5723,
        }
    }
}

impl ClickstreamConfig {
    /// Validate parameters.
    ///
    /// # Panics
    /// Panics on degenerate configuration.
    pub fn validate(&self) {
        assert!(self.users > 0, "need at least one user");
        assert!(self.sessions > 0, "need at least one session");
        assert!(self.horizon_days > 0, "horizon must be positive");
        assert!(
            self.mean_clicks_per_session >= 1.0,
            "sessions need at least one click on average"
        );
        assert!(self.mean_think_secs > 0, "think time must be positive");
    }

    /// Generate the chronologically-ordered click stream.
    pub fn generate(&self) -> Vec<Record> {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let activity = Zipf::new(self.users, self.activity_exponent);
        let horizon_secs = self.horizon_days as u64 * 86_400;

        let mut records = Vec::new();
        let mut seq = 0u64;
        for _ in 0..self.sessions {
            let user = activity.sample(&mut rng) - 1;
            let start = rng.gen_range(0..horizon_secs);
            // Geometric click count with the requested mean.
            let p = 1.0 / self.mean_clicks_per_session;
            let mut clicks = 1usize;
            while rng.gen::<f64>() > p && clicks < 200 {
                clicks += 1;
            }
            let mut ts = start;
            for _ in 0..clicks {
                let size = rng.gen_range(80..400);
                records.push(Record::new(
                    SubDatasetId(user as u64),
                    ts.min(horizon_secs - 1),
                    size,
                    self.seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D),
                ));
                seq += 1;
                // Exponential-ish think time (mean `mean_think_secs`).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                ts += (-u.ln() * self.mean_think_secs as f64).ceil() as u64;
            }
        }
        records.sort_by_key(|r| r.timestamp);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClickstreamConfig {
        ClickstreamConfig {
            users: 200,
            sessions: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn generates_sorted_clicks() {
        let recs = small().generate();
        assert!(recs.len() >= 2_000, "at least one click per session");
        assert!(recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn deterministic() {
        assert_eq!(small().generate(), small().generate());
    }

    #[test]
    fn activity_is_skewed() {
        let recs = small().generate();
        let mut counts = std::collections::HashMap::new();
        for r in &recs {
            *counts.entry(r.subdataset).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let mean = recs.len() / counts.len();
        assert!(max > 3 * mean, "top user {max} vs mean {mean}");
    }

    #[test]
    fn one_users_clicks_form_detectable_sessions() {
        let cfg = small();
        let recs = cfg.generate();
        // Most active user.
        let mut counts = std::collections::HashMap::new();
        for r in &recs {
            *counts.entry(r.subdataset).or_insert(0usize) += 1;
        }
        let (&hot, _) = counts.iter().max_by_key(|&(s, c)| (*c, s.0)).unwrap();
        let user_clicks: Vec<Record> = recs
            .iter()
            .filter(|r| r.subdataset == hot)
            .copied()
            .collect();
        // A 30-minute gap splits sessions; within-session think time ~45 s,
        // so reconstructed sessions should outnumber 1 and each should hold
        // a handful of clicks.
        let gaps = user_clicks.windows(2);
        let sessions = 1 + gaps
            .filter(|w| w[1].timestamp - w[0].timestamp > 1800)
            .count();
        assert!(sessions > 3, "got {sessions} sessions");
        let clicks_per_session = user_clicks.len() as f64 / sessions as f64;
        assert!(
            (1.0..40.0).contains(&clicks_per_session),
            "{clicks_per_session} clicks/session"
        );
    }

    #[test]
    #[should_panic]
    fn zero_users_rejected() {
        ClickstreamConfig {
            users: 0,
            ..Default::default()
        }
        .generate();
    }
}
