//! Chronological movie-review log generator (the paper's main dataset).
//!
//! Structure mirrors what makes MovieLens-style logs hard for HDFS:
//!
//! * movie popularity is Zipfian — a few blockbusters own most reviews;
//! * each movie's reviews arrive Gamma-distributed *after its release*
//!   ("the majority of logs for a popular movie would be concentrated
//!   around the time of its release") — the content-clustering mechanism;
//! * records are emitted in global timestamp order, so when the DFS chunks
//!   the stream into blocks, a movie's reviews land in a contiguous run of
//!   blocks (Figure 1(a)).

use datanet_dfs::{Record, SubDatasetId};
use datanet_stats::{GammaDist, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the movie-log generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MoviesConfig {
    /// Number of distinct movies (sub-datasets).
    pub movies: usize,
    /// Total number of review records to generate.
    pub records: usize,
    /// Time horizon in days; releases are spread uniformly over it.
    pub horizon_days: u32,
    /// Zipf exponent of movie popularity.
    pub popularity_exponent: f64,
    /// Gamma shape of the post-release review-time distribution. Shape ≈ 2
    /// gives the rise-then-decay burst the paper describes.
    pub burst_shape: f64,
    /// Gamma scale (days): how long the post-release buzz lasts.
    pub burst_scale_days: f64,
    /// Log-normal σ of per-(movie, day) review-rate volatility: real logs
    /// spike on weekends and viral moments, which is what gives Figure
    /// 1(a) its 10× block-to-block swings. 0 disables volatility.
    pub daily_volatility: f64,
    /// Fraction of a movie's reviews that arrive as a flat background rate
    /// over its whole post-release life (rather than in the release burst):
    /// popular movies keep receiving occasional reviews for years, which is
    /// why the paper's Figure 1(a) movie is present in *every* block while
    /// the first ~30 dominate.
    pub background_fraction: f64,
    /// Force the release day of the most popular movie (rank 1). The
    /// paper's target movie is released near the start of the dataset, so
    /// its burst occupies the first blocks (Figure 1(a)).
    pub hot_release_day: Option<u32>,
    /// Mean review size in bytes (sizes vary ±50% around it).
    pub mean_review_bytes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MoviesConfig {
    fn default() -> Self {
        Self {
            movies: 2000,
            records: 200_000,
            horizon_days: 365,
            popularity_exponent: 1.1,
            burst_shape: 2.0,
            burst_scale_days: 6.0,
            daily_volatility: 0.8,
            background_fraction: 0.15,
            hot_release_day: None,
            mean_review_bytes: 600,
            seed: 0x4D4F_5649,
        }
    }
}

/// One standard-normal deviate (Box–Muller; local to avoid a rand_distr
/// dependency).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Per-movie ground-truth metadata produced alongside the records.
#[derive(Debug, Clone, PartialEq)]
pub struct MovieCatalog {
    /// `release_day[m]` = release day of movie `m`.
    pub release_day: Vec<u32>,
    /// `review_count[m]` = number of generated reviews of movie `m`.
    pub review_count: Vec<u64>,
    /// `review_bytes[m]` = total bytes of movie `m`'s reviews.
    pub review_bytes: Vec<u64>,
}

impl MovieCatalog {
    /// The movie with the most review bytes — the natural Figure 1(a)/5(b)
    /// target sub-dataset.
    pub fn most_reviewed(&self) -> SubDatasetId {
        let idx = self
            .review_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(i, b)| (*b, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        SubDatasetId(idx as u64)
    }

    /// Movies ordered by total bytes, descending (for Figure 9's per-size
    /// accuracy sweep).
    pub fn by_size_desc(&self) -> Vec<(SubDatasetId, u64)> {
        let mut v: Vec<(SubDatasetId, u64)> = self
            .review_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (SubDatasetId(i as u64), b))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl MoviesConfig {
    /// Validate parameters.
    ///
    /// # Panics
    /// Panics on degenerate configuration.
    pub fn validate(&self) {
        assert!(self.movies > 0, "need at least one movie");
        assert!(self.records > 0, "need at least one record");
        assert!(self.horizon_days > 0, "horizon must be positive");
        assert!(
            self.mean_review_bytes >= 8,
            "reviews must be at least 8 bytes"
        );
        assert!(
            self.burst_shape > 0.0 && self.burst_scale_days > 0.0,
            "burst parameters must be positive"
        );
        assert!(
            self.daily_volatility.is_finite() && self.daily_volatility >= 0.0,
            "daily volatility must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.background_fraction),
            "background fraction must be in [0,1]"
        );
        if let Some(d) = self.hot_release_day {
            assert!(d < self.horizon_days, "hot release day outside horizon");
        }
    }

    /// Generate the chronologically-ordered record stream and the catalog.
    pub fn generate(&self) -> (Vec<Record>, MovieCatalog) {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let popularity = Zipf::new(self.movies, self.popularity_exponent);
        let burst = GammaDist::new(self.burst_shape, self.burst_scale_days);

        // Release days, uniform over the horizon; rank 1 may be pinned.
        let mut release_day: Vec<u32> = (0..self.movies)
            .map(|_| rng.gen_range(0..self.horizon_days))
            .collect();
        if let Some(d) = self.hot_release_day {
            release_day[0] = d;
        }

        // Draw each record's movie by popularity, its day from the movie's
        // post-release day distribution (Gamma burst envelope × log-normal
        // daily volatility), and its size. Day distributions are built
        // lazily per movie and deterministically from (seed, movie), so
        // draw order does not affect them.
        let mut day_cdfs: std::collections::HashMap<usize, Vec<f64>> =
            std::collections::HashMap::new();
        let mut records = Vec::with_capacity(self.records);
        let mut review_count = vec![0u64; self.movies];
        let mut review_bytes = vec![0u64; self.movies];
        let horizon_secs = self.horizon_days as u64 * 86_400;
        for i in 0..self.records {
            let movie = popularity.sample(&mut rng) - 1; // 0-based
            let cdf = day_cdfs
                .entry(movie)
                .or_insert_with(|| self.day_cdf(movie, release_day[movie], &burst));
            let u: f64 = rng.gen();
            let day = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
            let ts = (day * 86_400 + rng.gen_range(0..86_400)).min(horizon_secs - 1);
            let size = self.sample_size(&mut rng);
            review_count[movie] += 1;
            review_bytes[movie] += size as u64;
            records.push(Record::new(
                SubDatasetId(movie as u64),
                ts,
                size,
                self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
        // The log is written (and therefore chunked into blocks) in time
        // order. Stable sort keeps same-timestamp records in draw order for
        // determinism.
        records.sort_by_key(|r| r.timestamp);

        (
            records,
            MovieCatalog {
                release_day,
                review_count,
                review_bytes,
            },
        )
    }

    /// The movie's discrete review-day distribution (CDF over
    /// `0..horizon_days`): the Gamma burst envelope after the release day,
    /// modulated by log-normal daily volatility drawn from a per-movie RNG.
    fn day_cdf(&self, movie: usize, release: u32, burst: &GammaDist) -> Vec<f64> {
        let mut day_rng =
            StdRng::seed_from_u64(self.seed ^ (movie as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let days = self.horizon_days as usize;
        let mut weights = vec![0.0f64; days];
        for (d, w) in weights.iter_mut().enumerate() {
            // One gaussian per day regardless of release keeps the stream
            // aligned (and the CDF independent of the release position).
            let z = gaussian(&mut day_rng);
            if d as u32 >= release {
                let offset = (d as u32 - release) as f64 + 0.5;
                let life = (self.horizon_days - release) as f64;
                let envelope = (1.0 - self.background_fraction) * burst.pdf(offset)
                    + self.background_fraction / life;
                *w = envelope * (self.daily_volatility * z).exp();
            }
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "movie {movie} got an empty day distribution");
        let mut cdf = Vec::with_capacity(days);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        cdf
    }

    /// Review sizes vary uniformly in [mean/2, 3·mean/2).
    fn sample_size(&self, rng: &mut StdRng) -> u32 {
        let lo = (self.mean_review_bytes / 2).max(8);
        let hi = self.mean_review_bytes + self.mean_review_bytes / 2;
        rng.gen_range(lo..hi.max(lo + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MoviesConfig {
        MoviesConfig {
            movies: 100,
            records: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_volume() {
        let (recs, cat) = small().generate();
        assert_eq!(recs.len(), 20_000);
        assert_eq!(cat.review_count.iter().sum::<u64>(), 20_000);
        assert_eq!(
            cat.review_bytes.iter().sum::<u64>(),
            recs.iter().map(|r| r.size as u64).sum::<u64>()
        );
    }

    #[test]
    fn chronological_order() {
        let (recs, _) = small().generate();
        assert!(recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn deterministic_under_seed() {
        let (a, _) = small().generate();
        let (b, _) = small().generate();
        assert_eq!(a, b);
        let mut cfg = small();
        cfg.seed += 1;
        let (c, _) = cfg.generate();
        assert_ne!(a, c);
    }

    #[test]
    fn popularity_is_zipfian() {
        let (_, cat) = small().generate();
        let ranked = cat.by_size_desc();
        // Top movie holds far more than the median movie.
        let top = ranked[0].1;
        let median = ranked[ranked.len() / 2].1;
        assert!(
            top > 10 * median.max(1),
            "top {top} vs median {median} — popularity not skewed"
        );
        assert_eq!(cat.most_reviewed(), ranked[0].0);
    }

    #[test]
    fn reviews_cluster_around_release() {
        let cfg = small();
        let (recs, cat) = cfg.generate();
        let hot = cat.most_reviewed();
        let release = cat.release_day[hot.raw() as usize] as u64 * 86_400;
        // Most of the hot movie's reviews land within 4 burst scales of its
        // release. In expectation that fraction is (1 - background) · P(Γ(2, 6d)
        // < 24d) ≈ 0.85 · 0.91 ≈ 0.77 plus whatever slice of the flat
        // background rate falls in the window, with daily volatility on top —
        // so 0.7 is the clustering signal with noise margin, while a uniform
        // spread would put only ~24d/365d ≈ 0.07 in the window.
        let horizon_cap = 4.0 * cfg.burst_scale_days * 86_400.0;
        let hits = recs
            .iter()
            .filter(|r| r.subdataset == hot)
            .filter(|r| (r.timestamp as f64) < release as f64 + horizon_cap)
            .count();
        let total = recs.iter().filter(|r| r.subdataset == hot).count();
        assert!(
            hits as f64 > 0.7 * total as f64,
            "{hits}/{total} within the burst window"
        );
    }

    #[test]
    fn sizes_bounded_around_mean() {
        let cfg = small();
        let (recs, _) = cfg.generate();
        let mean = cfg.mean_review_bytes;
        assert!(recs
            .iter()
            .all(|r| r.size >= mean / 2 && r.size < mean + mean / 2 + 1));
    }

    #[test]
    fn timestamps_within_horizon() {
        let cfg = small();
        let (recs, _) = cfg.generate();
        let cap = cfg.horizon_days as u64 * 86_400;
        assert!(recs.iter().all(|r| r.timestamp < cap));
    }

    #[test]
    #[should_panic]
    fn zero_movies_rejected() {
        MoviesConfig {
            movies: 0,
            ..Default::default()
        }
        .generate();
    }
}
