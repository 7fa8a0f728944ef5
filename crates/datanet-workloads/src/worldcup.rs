//! World-Cup-'98-style web access log generator (the paper's reference \[3\]).
//!
//! Access logs keyed by requested object: traffic is bursty around match
//! days and object popularity is Zipfian — a third regime between the
//! movie dataset (strong per-sub-dataset clustering) and GitHub events
//! (stationary mix): here *all* sub-datasets cluster together on match
//! days.

use datanet_dfs::{Record, SubDatasetId};
use datanet_stats::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the access-log generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldCupConfig {
    /// Number of distinct objects (pages/images) — the sub-datasets.
    pub objects: usize,
    /// Total requests.
    pub records: usize,
    /// Horizon in days.
    pub horizon_days: u32,
    /// Days on which matches occur (bursty traffic); empty means uniform.
    pub match_days: Vec<u32>,
    /// How many times denser traffic is on a match day.
    pub match_day_boost: f64,
    /// Zipf exponent of object popularity.
    pub popularity_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorldCupConfig {
    fn default() -> Self {
        Self {
            objects: 1000,
            records: 100_000,
            horizon_days: 60,
            match_days: vec![10, 14, 18, 25, 32, 40, 45, 52],
            match_day_boost: 6.0,
            popularity_exponent: 1.0,
            seed: 0x5763_1998,
        }
    }
}

impl WorldCupConfig {
    /// Validate parameters.
    ///
    /// # Panics
    /// Panics on degenerate configuration.
    pub fn validate(&self) {
        assert!(self.objects > 0, "need at least one object");
        assert!(self.records > 0, "need at least one request");
        assert!(self.horizon_days > 0, "horizon must be positive");
        assert!(self.match_day_boost >= 1.0, "boost must be >= 1");
        assert!(
            self.match_days.iter().all(|&d| d < self.horizon_days),
            "match days must fall within the horizon"
        );
    }

    /// Generate the chronologically-ordered request stream.
    pub fn generate(&self) -> Vec<Record> {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let popularity = Zipf::new(self.objects, self.popularity_exponent);

        // Per-day weights: 1.0 normally, boost on match days.
        let weights: Vec<f64> = (0..self.horizon_days)
            .map(|d| {
                if self.match_days.contains(&d) {
                    self.match_day_boost
                } else {
                    1.0
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut day_cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            day_cdf.push(acc);
        }
        *day_cdf.last_mut().expect("non-empty") = 1.0;

        let mut records = Vec::with_capacity(self.records);
        for i in 0..self.records {
            let u: f64 = rng.gen();
            let day = day_cdf.partition_point(|&c| c < u).min(weights.len() - 1) as u64;
            let ts = day * 86_400 + rng.gen_range(0..86_400);
            let object = popularity.sample(&mut rng) - 1;
            // Small GET-log lines: 64–512 bytes.
            let size = rng.gen_range(64..512);
            records.push(Record::new(
                SubDatasetId(object as u64),
                ts,
                size,
                self.seed ^ (i as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
            ));
        }
        records.sort_by_key(|r| r.timestamp);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorldCupConfig {
        WorldCupConfig {
            records: 50_000,
            ..Default::default()
        }
    }

    #[test]
    fn generates_sorted_requests() {
        let recs = small().generate();
        assert_eq!(recs.len(), 50_000);
        assert!(recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn match_days_are_bursty() {
        let cfg = small();
        let recs = cfg.generate();
        let mut per_day = vec![0usize; cfg.horizon_days as usize];
        for r in &recs {
            per_day[(r.timestamp / 86_400) as usize] += 1;
        }
        let match_avg: f64 = cfg
            .match_days
            .iter()
            .map(|&d| per_day[d as usize] as f64)
            .sum::<f64>()
            / cfg.match_days.len() as f64;
        let quiet: Vec<usize> = (0..cfg.horizon_days)
            .filter(|d| !cfg.match_days.contains(d))
            .map(|d| per_day[d as usize])
            .collect();
        let quiet_avg = quiet.iter().sum::<usize>() as f64 / quiet.len() as f64;
        assert!(
            match_avg > 4.0 * quiet_avg,
            "match {match_avg} vs quiet {quiet_avg}"
        );
    }

    #[test]
    fn popularity_skewed() {
        let recs = small().generate();
        let mut counts = std::collections::HashMap::new();
        for r in &recs {
            *counts.entry(r.subdataset).or_insert(0usize) += 1;
        }
        let top = *counts.values().max().unwrap();
        assert!(top > recs.len() / 50, "no popular object: top {top}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(small().generate(), small().generate());
    }

    #[test]
    #[should_panic]
    fn match_day_outside_horizon_rejected() {
        WorldCupConfig {
            match_days: vec![100],
            horizon_days: 60,
            ..Default::default()
        }
        .generate();
    }
}
