//! Log records and their lazily-generated payloads.
//!
//! A [`Record`] is the unit the paper's datasets are made of: "lists of
//! records, each consisting of several fields such as source/user id, log
//! time, destination, etc." We store the fields the algorithms need
//! (sub-dataset id, timestamp, on-disk size) plus a deterministic `seed`
//! from which [`Payload`] regenerates record content on demand — words for
//! WordCount/Histogram, a rating for Moving Average, a token sequence for
//! Top-K similarity search. This keeps a 256-block dataset in memory while
//! still letting jobs do real per-record computation.

use crate::ids::SubDatasetId;
use serde::{Deserialize, Serialize};

/// One log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Which sub-dataset this record belongs to.
    pub subdataset: SubDatasetId,
    /// Event time (seconds since dataset epoch). Records are written to the
    /// DFS in timestamp order, which is what creates content clustering.
    pub timestamp: u64,
    /// Bytes this record occupies in its block file.
    pub size: u32,
    /// Seed for deterministic payload generation.
    pub seed: u64,
}

impl Record {
    /// Create a record.
    ///
    /// # Panics
    /// Panics if `size == 0`: zero-byte records would make size accounting
    /// (and Equation 6's `δ`) degenerate.
    pub fn new(subdataset: SubDatasetId, timestamp: u64, size: u32, seed: u64) -> Self {
        assert!(size > 0, "records must occupy at least one byte");
        Self {
            subdataset,
            timestamp,
            size,
            seed,
        }
    }

    /// The record's regenerable content.
    pub fn payload(&self) -> Payload {
        Payload { seed: self.seed }
    }
}

/// The key range an intermediate key falls into. Both planes use this:
/// the write path buckets each record's timestamp through it for the
/// per-block range profile ([`crate::Dfs::range_profile`]), the shuffle
/// planner prices ranges from that profile, and the data plane routes each
/// emitted `(key, value)` pair through the same function — so statistic,
/// plan and execution always agree on range boundaries.
///
/// # Panics
/// Panics if `ranges == 0`.
pub fn key_range_of(key: u64, ranges: usize) -> usize {
    assert!(ranges > 0, "need at least one key range");
    (Payload::mix(key) % ranges as u64) as usize
}

/// Deterministic content generator for one record.
///
/// All derivations use SplitMix64 steps from the record seed, so the same
/// record always yields the same words/rating/sequence on every node and
/// every run — a requirement for reproducible experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload {
    seed: u64,
}

/// Size of the synthetic vocabulary that [`Payload::words`] draws from.
pub const VOCABULARY: usize = 8192;

impl Payload {
    /// SplitMix64 step — the standard 64-bit finalizer; good enough for
    /// payload synthesis and extremely fast.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The `i`-th derived 64-bit value.
    #[inline]
    fn derive(&self, i: u64) -> u64 {
        Self::mix(self.seed ^ Self::mix(i))
    }

    /// Word indices of a review text of `n` words. Indices follow an
    /// approximate power law over the vocabulary (natural text is Zipfian),
    /// which gives Word Count / Histogram realistic key skew.
    pub fn word_indices(&self, n: usize) -> impl Iterator<Item = u32> + '_ {
        (0..n as u64).map(move |i| {
            let r = self.derive(i);
            // Map a uniform u in (0,1] to a power-law rank: floor(V * u^3)
            // concentrates mass on low indices (top word ~ u^3 < 1/V).
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            let rank = ((VOCABULARY as f64) * u * u * u) as u32;
            rank.min(VOCABULARY as u32 - 1)
        })
    }

    /// Words as strings (`w0`, `w1`, …). Allocates; prefer
    /// [`Payload::word_indices`] on hot paths.
    pub fn words(&self, n: usize) -> Vec<String> {
        self.word_indices(n).map(|i| format!("w{i}")).collect()
    }

    /// A rating in `[0.0, 10.0)` — the Moving Average input.
    pub fn rating(&self) -> f64 {
        (self.derive(u64::MAX) >> 11) as f64 / (1u64 << 53) as f64 * 10.0
    }

    /// A token sequence of length `n` over alphabet `0..alphabet` — the
    /// Top-K similarity-search input.
    pub fn sequence(&self, n: usize, alphabet: u32) -> Vec<u32> {
        assert!(alphabet > 0, "alphabet must be non-empty");
        (0..n as u64)
            .map(|i| (self.derive(i ^ 0xACE1_u64) % alphabet as u64) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64) -> Record {
        Record::new(SubDatasetId(1), 0, 100, seed)
    }

    #[test]
    fn payload_is_deterministic() {
        let a = rec(42).payload();
        let b = rec(42).payload();
        assert_eq!(a.words(10), b.words(10));
        assert_eq!(a.rating(), b.rating());
        assert_eq!(a.sequence(16, 4), b.sequence(16, 4));
    }

    #[test]
    fn different_seeds_differ() {
        let a = rec(1).payload();
        let b = rec(2).payload();
        assert_ne!(a.words(20), b.words(20));
        assert_ne!(a.sequence(20, 4), b.sequence(20, 4));
    }

    #[test]
    fn word_indices_in_vocabulary() {
        let p = rec(7).payload();
        for w in p.word_indices(1000) {
            assert!((w as usize) < VOCABULARY);
        }
    }

    #[test]
    fn word_distribution_is_skewed() {
        // Power-law mapping: the low quarter of the vocabulary should carry
        // well over half of the mass.
        let p = rec(123).payload();
        let n = 50_000;
        let low = p
            .word_indices(n)
            .filter(|&w| (w as usize) < VOCABULARY / 4)
            .count();
        assert!(
            low > n / 2,
            "expected >50% of words in the low quarter, got {low}/{n}"
        );
    }

    #[test]
    fn rating_in_range() {
        for s in 0..100 {
            let r = rec(s).payload().rating();
            assert!((0.0..10.0).contains(&r));
        }
    }

    #[test]
    fn sequence_respects_alphabet() {
        let p = rec(9).payload();
        for t in p.sequence(256, 5) {
            assert!(t < 5);
        }
    }

    #[test]
    #[should_panic]
    fn zero_size_record_rejected() {
        Record::new(SubDatasetId(0), 0, 0, 0);
    }

    #[test]
    #[should_panic]
    fn empty_alphabet_rejected() {
        rec(0).payload().sequence(4, 0);
    }
}
