//! Real record-level implementations of the four analysis jobs.
//!
//! The common [`RecordJob`] interface is a deliberately small MapReduce:
//! map emits `(u64 key, f64 value)` pairs per record, reduce folds the
//! values of one key. This is enough to express all four applications while
//! staying object-safe ([`crate::pipeline::AggJob`] boxes one per stage).

mod histogram;
mod moving_average;
mod top_k;
mod word_count;

pub use histogram::AggregateHistogram;
pub use moving_average::MovingAverage;
pub use top_k::TopKSearch;
pub use word_count::WordCount;

use datanet_dfs::Record;
use datanet_mapreduce::JobProfile;

/// A MapReduce application over records.
pub trait RecordJob {
    /// Job name (matches the profile name).
    fn name(&self) -> &str;

    /// The cost profile used by the simulated engine.
    fn profile(&self) -> JobProfile;

    /// Map one record, emitting intermediate pairs.
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u64, f64));

    /// Reduce the values of one key.
    fn reduce(&self, key: u64, values: &[f64]) -> f64;
}

/// Number of payload words a record of a given size carries (≈ 6 bytes per
/// word of English review text). Shared by the text-based jobs.
pub(crate) fn word_count_of(record: &Record) -> usize {
    (record.size as usize / 6).max(1)
}

#[cfg(test)]
pub(crate) mod testutil {
    use datanet_dfs::{Record, SubDatasetId};

    /// A small deterministic record batch for job tests.
    pub fn records(n: usize) -> Vec<Record> {
        (0..n as u64)
            .map(|i| Record::new(SubDatasetId(1), i * 60, 300 + (i % 7) as u32 * 50, i))
            .collect()
    }
}
