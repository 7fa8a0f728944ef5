//! Aggregate Word Histogram — "computing the histogram of the words in the
//! input sub-dataset. This is a fundamental plug-in operation in the
//! MapReduce framework."

use crate::jobs::{word_count_of, RecordJob};
use datanet_dfs::Record;

/// Histogram of word frequencies aggregated into logarithmic rank classes
/// (Hadoop's `AggregateWordHistogram` plug-in aggregates per-word counts
/// into a fixed histogram).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AggregateHistogram;

impl AggregateHistogram {
    /// Histogram class of a word index: ⌊log₂(index + 1)⌋, 14 classes for
    /// the 8192-word vocabulary.
    pub(crate) fn class_of(word: u32) -> u64 {
        (64 - (word as u64 + 1).leading_zeros() - 1) as u64
    }
}

impl RecordJob for AggregateHistogram {
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u64, f64)) {
        let n = word_count_of(record);
        for w in record.payload().word_indices(n) {
            emit(Self::class_of(w), 1.0);
        }
    }

    fn reduce(&self, _key: u64, sum: f64, _count: u64) -> f64 {
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::testutil::records;
    use std::collections::HashMap;

    #[test]
    fn classes_are_logarithmic() {
        assert_eq!(AggregateHistogram::class_of(0), 0);
        assert_eq!(AggregateHistogram::class_of(1), 1);
        assert_eq!(AggregateHistogram::class_of(2), 1);
        assert_eq!(AggregateHistogram::class_of(3), 2);
        assert_eq!(AggregateHistogram::class_of(7), 3);
        assert_eq!(AggregateHistogram::class_of(8191), 13);
    }

    #[test]
    fn key_space_is_small() {
        // The whole point vs WordCount: few distinct keys → little shuffle.
        let recs = records(100);
        let mut keys: HashMap<u64, f64> = HashMap::new();
        for r in &recs {
            AggregateHistogram.map(r, &mut |k, v| *keys.entry(k).or_default() += v);
        }
        assert!(keys.len() <= 13, "got {} classes", keys.len());
        let total: f64 = keys.values().sum();
        let expected: usize = recs.iter().map(word_count_of).sum();
        assert_eq!(total as usize, expected);
    }

    #[test]
    fn skewed_words_fill_low_classes() {
        let recs = records(200);
        let mut keys: HashMap<u64, f64> = HashMap::new();
        for r in &recs {
            AggregateHistogram.map(r, &mut |k, v| *keys.entry(k).or_default() += v);
        }
        // Low word indices are most frequent (u³ power map): indices below
        // 2048 (classes 0..=11) carry P(u³ < 1/4) = 0.63 of the mass.
        let low: f64 = (0..=11).filter_map(|c| keys.get(&c)).sum();
        let total: f64 = keys.values().sum();
        assert!(low / total > 0.55, "low classes hold {low}/{total}");
    }
}
