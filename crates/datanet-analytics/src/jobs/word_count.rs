//! Word Count — "reading the sub-dataset and counting how often words
//! occur. Word Count is one of the representative MapReduce benchmark
//! applications."

use crate::jobs::{word_count_of, RecordJob};
use datanet_dfs::Record;

/// Counts occurrences of each vocabulary word across the sub-dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl RecordJob for WordCount {
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u64, f64)) {
        let n = word_count_of(record);
        for w in record.payload().word_indices(n) {
            emit(w as u64, 1.0);
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
    fn counts_every_word_once() {
        let recs = records(50);
        let job = WordCount;
        let mut counts: HashMap<u64, f64> = HashMap::new();
        let mut emitted = 0usize;
        for r in &recs {
            job.map(r, &mut |k, v| {
                *counts.entry(k).or_default() += v;
                emitted += 1;
            });
        }
        let expected: usize = recs.iter().map(word_count_of).sum();
        assert_eq!(emitted, expected);
        let total: f64 = counts.values().sum();
        assert_eq!(total as usize, expected);
    }

    #[test]
    fn reduce_sums() {
        assert_eq!(WordCount.reduce(0, 6.0, 3), 6.0);
        assert_eq!(WordCount.reduce(0, -0.0, 0), 0.0);
    }

    #[test]
    fn deterministic_per_record() {
        let recs = records(5);
        let collect = |r: &Record| {
            let mut v = Vec::new();
            WordCount.map(r, &mut |k, _| v.push(k));
            v
        };
        for r in &recs {
            assert_eq!(collect(r), collect(r));
        }
    }

    #[test]
    fn keys_within_vocabulary() {
        for r in &records(20) {
            WordCount.map(r, &mut |k, _| {
                assert!((k as usize) < datanet_dfs::record::VOCABULARY);
            });
        }
    }
}
