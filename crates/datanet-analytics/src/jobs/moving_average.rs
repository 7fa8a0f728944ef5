//! Moving Average — "analyzing data points by creating a series of averages
//! over intervals of the full dataset … can smooth out short-term
//! fluctuations to highlight longer-term cycles."

use crate::jobs::RecordJob;
use datanet_dfs::Record;

/// Windowed average of review ratings over time.
#[derive(Debug, Clone, Copy)]
pub struct MovingAverage {
    /// Window width in seconds (default: one day).
    pub window_secs: u64,
}

impl Default for MovingAverage {
    fn default() -> Self {
        Self {
            window_secs: 86_400,
        }
    }
}

impl RecordJob for MovingAverage {
    fn map(&self, record: &Record, emit: &mut dyn FnMut(u64, f64)) {
        let window = record.timestamp / self.window_secs.max(1);
        emit(window, record.payload().rating());
    }

    /// Mean rating of the window.
    fn reduce(&self, _key: u64, sum: f64, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::testutil::records;

    #[test]
    fn one_pair_per_record() {
        let recs = records(30);
        let mut n = 0;
        for r in &recs {
            MovingAverage::default().map(r, &mut |_, v| {
                assert!((0.0..10.0).contains(&v));
                n += 1;
            });
        }
        assert_eq!(n, 30);
    }

    #[test]
    fn windows_bucket_by_time() {
        let job = MovingAverage { window_secs: 100 };
        let r = datanet_dfs::Record::new(datanet_dfs::SubDatasetId(0), 250, 100, 1);
        let mut key = None;
        job.map(&r, &mut |k, _| key = Some(k));
        assert_eq!(key, Some(2));
    }

    #[test]
    fn reduce_is_mean() {
        let job = MovingAverage::default();
        assert_eq!(job.reduce(0, 12.0, 3), 4.0);
        assert_eq!(job.reduce(0, -0.0, 0), 0.0);
    }
}
