//! Shared retry/backoff machinery for every bounded-retry loop in the stack.
//!
//! Three call sites use it:
//!
//! 1. **MetaStore replica failover** ([`crate::MetaStore`]): a read tries
//!    every replica once and fails over on any error; only when all of them
//!    failed does it sleep the exponential (jittered) back-off and go round
//!    again, so each replica is still tried [`ATTEMPTS_PER_REPLICA`] times
//!    at most and nothing sleeps while a healthy copy exists.
//! 2. **Engine re-execution budget** (`datanet-mapreduce`): a [`RetryBudget`]
//!    counts executions per block; a block whose re-execution count exceeds
//!    `max_retries` after a crash is abandoned (Hadoop's
//!    `mapreduce.map.maxattempts`).
//! 3. **Pipeline checkpoint writes** (`datanet-analytics`): each per-stage
//!    checkpoint commit is retried under the same bound and back-off.
//!
//! Jitter is *deterministic*: it is derived from a caller-supplied seed, so
//! simulated runs (and the `datanet-check` harness) replay identically while
//! concurrent real-world clients still decorrelate their retry storms.

use std::time::Duration;

/// How many times the same operation is tried (sleeping between attempts)
/// before the caller escalates — to a quarantined shard for store reads
/// (whose one attempt is a pass over every replica), to a violation for
/// checkpoint writes.
pub const ATTEMPTS_PER_REPLICA: u32 = 2;

/// Sleep before the first same-target retry, microseconds.
const BACKOFF_BASE_MICROS: u64 = 50;

/// Backoff growth per retry (exponential).
const BACKOFF_MULTIPLIER: u64 = 2;

/// Backoff before retry number `retry` (1-based): `base · mult^(retry−1)`.
fn backoff(retry: u32) -> Duration {
    let factor = BACKOFF_MULTIPLIER.saturating_pow(retry.saturating_sub(1));
    Duration::from_micros(BACKOFF_BASE_MICROS.saturating_mul(factor))
}

/// Jittered backoff in `[b/2, 3b/2)` around the exponential back-off `b`
/// of retry number `retry`. The jitter is a pure function of `(retry,
/// seed)` — same seed, same sleep — so retries stay reproducible under the
/// simulation harness while distinct seeds (shard, replica, stage…)
/// decorrelate.
pub fn backoff_jittered(retry: u32, seed: u64) -> Duration {
    let base = u64::try_from(backoff(retry).as_micros()).unwrap_or(u64::MAX);
    let h = mix(seed ^ (u64::from(retry).rotate_left(32)));
    Duration::from_micros((base / 2).saturating_add(h % base))
}

/// SplitMix64 finalizer: cheap, well-mixed, dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-item execution budget: one attempt counter per item plus the shared
/// `max_retries` ceiling. An item is *exhausted* once its re-execution count
/// (executions beyond the first) exceeds the budget — the engine then
/// abandons the block instead of requeueing it forever.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    attempts: Vec<u32>,
    max_retries: u32,
}

impl RetryBudget {
    /// A fresh budget covering `items` items.
    pub fn new(items: usize, max_retries: u32) -> Self {
        Self {
            attempts: vec![0; items],
            max_retries,
        }
    }

    /// Executions started for item `i` (first run + retries).
    pub fn attempts(&self, i: usize) -> u32 {
        self.attempts[i]
    }

    /// Has item `i` been executed at least once?
    pub fn tried(&self, i: usize) -> bool {
        self.attempts[i] > 0
    }

    /// Record one execution start for item `i`; returns the new count.
    pub fn record(&mut self, i: usize) -> u32 {
        self.attempts[i] += 1;
        self.attempts[i]
    }

    /// True once re-executing `i` again would exceed the retry ceiling:
    /// `attempts > max_retries` (the first run is free, retries are not).
    pub fn exhausted(&self, i: usize) -> bool {
        self.attempts[i] > self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff(1), Duration::from_micros(50));
        assert_eq!(backoff(2), Duration::from_micros(100));
        assert_eq!(backoff(3), Duration::from_micros(200));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for retry in 1..6 {
            let base = backoff(retry).as_micros() as u64;
            for seed in 0..50u64 {
                let j = backoff_jittered(retry, seed).as_micros() as u64;
                assert_eq!(j, backoff_jittered(retry, seed).as_micros() as u64);
                assert!(j >= base / 2 && j < base / 2 + base, "jitter out of band");
            }
        }
    }

    #[test]
    fn jitter_seeds_decorrelate() {
        // Retry 16 backs off ~1.6 s, wide enough that 32 seeds collide
        // only by a bad mix.
        let distinct: std::collections::BTreeSet<u128> = (0..32)
            .map(|seed| backoff_jittered(16, seed).as_micros())
            .collect();
        assert!(distinct.len() > 16, "seeded jitter barely varies");
    }

    #[test]
    fn budget_counts_and_exhausts() {
        let mut b = RetryBudget::new(3, 2);
        assert!(!b.tried(0) && !b.exhausted(0));
        assert_eq!(b.record(0), 1);
        assert!(b.tried(0) && !b.exhausted(0));
        b.record(0);
        assert!(!b.exhausted(0), "2 attempts with max_retries=2: in budget");
        b.record(0);
        assert!(b.exhausted(0), "3 attempts exceed max_retries=2");
        assert_eq!(b.attempts(1), 0);
        assert!(!b.exhausted(1));
    }

    #[test]
    fn zero_retry_budget_exhausts_after_first_run() {
        let mut b = RetryBudget::new(1, 0);
        assert!(!b.exhausted(0));
        b.record(0);
        assert!(b.exhausted(0));
    }
}
