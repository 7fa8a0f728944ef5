//! User sessionization — the paper's first motivating analysis
//! ("in recommendation systems and personalized web services, the analysis
//! on the webpage click streams needs to perform user sessionization
//! analysis so as to provide better service for each user").
//!
//! A *session* is a maximal run of one user's records with no gap larger
//! than the timeout. Sub-dataset = one user's click stream.

use datanet_dfs::Record;

/// One reconstructed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// First event timestamp.
    pub start: u64,
    /// Last event timestamp.
    pub end: u64,
    /// Number of events in the session.
    pub events: usize,
    /// Total bytes of the session's records.
    pub bytes: u64,
}

impl Session {
    /// Session duration in seconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Split one user's records into sessions with the given inactivity
/// `timeout_secs`.
///
/// Records must belong to a single sub-dataset and be sorted by timestamp
/// (both are upheld by the filter pipeline).
///
/// # Panics
/// Panics if records are unsorted or mix sub-datasets (debug builds).
pub(crate) fn sessionize(records: &[Record], timeout_secs: u64) -> Vec<Session> {
    assert!(timeout_secs > 0, "session timeout must be positive");
    if records.is_empty() {
        return Vec::new();
    }
    debug_assert!(
        records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
        "records must be sorted by timestamp"
    );
    debug_assert!(
        records
            .windows(2)
            .all(|w| w[0].subdataset == w[1].subdataset),
        "sessionize expects a single sub-dataset"
    );
    let mut sessions = Vec::new();
    let mut start = records[0].timestamp;
    let mut last = records[0].timestamp;
    let mut events = 1usize;
    let mut bytes = records[0].size as u64;
    for r in &records[1..] {
        if r.timestamp - last > timeout_secs {
            sessions.push(Session {
                start,
                end: last,
                events,
                bytes,
            });
            start = r.timestamp;
            events = 0;
            bytes = 0;
        }
        last = r.timestamp;
        events += 1;
        bytes += r.size as u64;
    }
    sessions.push(Session {
        start,
        end: last,
        events,
        bytes,
    });
    sessions
}

/// Summary statistics over a user's sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStats {
    /// Number of sessions.
    pub count: usize,
    /// Mean events per session.
    pub mean_events: f64,
    /// Mean session duration (seconds).
    pub mean_duration: f64,
    /// Longest session duration.
    pub max_duration: u64,
}

/// Compute session statistics for one user's sorted records.
pub fn session_stats(records: &[Record], timeout_secs: u64) -> SessionStats {
    let sessions = sessionize(records, timeout_secs);
    let count = sessions.len();
    if count == 0 {
        return SessionStats {
            count: 0,
            mean_events: 0.0,
            mean_duration: 0.0,
            max_duration: 0,
        };
    }
    SessionStats {
        count,
        mean_events: sessions.iter().map(|s| s.events).sum::<usize>() as f64 / count as f64,
        mean_duration: sessions.iter().map(|s| s.duration()).sum::<u64>() as f64 / count as f64,
        max_duration: sessions.iter().map(|s| s.duration()).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datanet_dfs::SubDatasetId;

    fn rec(ts: u64) -> Record {
        Record::new(SubDatasetId(1), ts, 100, ts)
    }

    #[test]
    fn single_burst_is_one_session() {
        let recs: Vec<Record> = (0..10).map(|i| rec(i * 10)).collect();
        let s = sessionize(&recs, 30);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].events, 10);
        assert_eq!(s[0].start, 0);
        assert_eq!(s[0].end, 90);
        assert_eq!(s[0].bytes, 1000);
    }

    #[test]
    fn gap_splits_sessions() {
        let recs = vec![rec(0), rec(10), rec(1000), rec(1010), rec(5000)];
        let s = sessionize(&recs, 60);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].events, 2);
        assert_eq!(s[1].events, 2);
        assert_eq!(s[2].events, 1);
        assert_eq!(s[2].duration(), 0);
    }

    #[test]
    fn boundary_gap_exactly_timeout_stays_joined() {
        let recs = vec![rec(0), rec(60)];
        assert_eq!(sessionize(&recs, 60).len(), 1);
        let recs = vec![rec(0), rec(61)];
        assert_eq!(sessionize(&recs, 60).len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(sessionize(&[], 60).is_empty());
        let st = session_stats(&[], 60);
        assert_eq!(st.count, 0);
    }

    #[test]
    fn stats_aggregate_sessions() {
        let recs = vec![rec(0), rec(10), rec(500), rec(520), rec(540)];
        let st = session_stats(&recs, 60);
        assert_eq!(st.count, 2);
        assert!((st.mean_events - 2.5).abs() < 1e-12);
        assert!((st.mean_duration - 25.0).abs() < 1e-12);
        assert_eq!(st.max_duration, 40);
    }

    #[test]
    #[should_panic]
    fn zero_timeout_rejected() {
        sessionize(&[rec(0)], 0);
    }
}
