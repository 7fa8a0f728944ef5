//! Bounded ring-buffer flight recorder.
//!
//! Always-on, capacity-bounded memory of the last N *significant* events:
//! plans, retries, suspicions, checkpoint commits, degradation-rung
//! changes. Unlike the trace buffer (opt-in, unbounded, everything), the
//! flight ring costs O(N) memory forever and is meant to be dumped when
//! something goes wrong — a panic, an oracle violation, or an explicit
//! `--flight OUT.json` — so the last moments before the failure are never
//! lost. Shrunk `datanet-check` repro files embed the dump of the
//! violating run for the same reason.

use crate::recorder::Domain;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// What kind of significant event a flight entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightKind {
    /// A scheduler produced (or re-produced) a task plan.
    Plan,
    /// A scheduler re-planned after a node loss.
    Replan,
    /// A retry of a failed operation (task re-execution, commit retry).
    Retry,
    /// The failure detector suspected a node.
    Suspicion,
    /// A node crash was injected or observed.
    Crash,
    /// A pipeline stage or ingest epoch committed durably.
    CheckpointCommit,
    /// A sub-dataset view was served from a degraded rung.
    RungChange,
    /// The anomaly flagger raised an alert.
    Alert,
    /// An invariant oracle was violated (datanet-check).
    OracleViolation,
    /// Anything else worth keeping.
    Other,
}

impl FlightKind {
    /// Lower-case name used in dumps and dashboards.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Plan => "plan",
            FlightKind::Replan => "replan",
            FlightKind::Retry => "retry",
            FlightKind::Suspicion => "suspicion",
            FlightKind::Crash => "crash",
            FlightKind::CheckpointCommit => "checkpoint_commit",
            FlightKind::RungChange => "rung_change",
            FlightKind::Alert => "alert",
            FlightKind::OracleViolation => "oracle_violation",
            FlightKind::Other => "other",
        }
    }
}

/// One entry in the flight ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused; gaps mean evicted events).
    pub seq: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Which clock `at_us` belongs to.
    pub domain: Domain,
    /// Timestamp, microseconds in `domain`.
    pub at_us: u64,
    /// Node the event concerns, if any.
    pub node: Option<u64>,
    /// Originating query id, if the recording handle was scoped.
    pub query: Option<u64>,
    /// Originating tenant, if the recording handle was scoped.
    pub tenant: Option<String>,
    /// Free-form detail ("stage 2 commit crc 0x…", "rung 2: 17 blocks").
    pub detail: String,
}

/// The ring itself: at most `capacity` newest events, in seq order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRing {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

impl FlightRing {
    /// An empty ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics on zero capacity — a ring that can hold nothing is always a
    /// configuration bug.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring capacity must be positive");
        Self {
            capacity,
            next_seq: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// Append an event, evicting the oldest when full. Returns the seq
    /// number assigned.
    pub fn push(&mut self, mut ev: FlightEvent) -> u64 {
        let seq = self.next_seq;
        ev.seq = seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev);
        seq
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Snapshot the ring into a serialisable dump.
    pub fn dump(&self) -> FlightDump {
        FlightDump {
            capacity: self.capacity as u64,
            recorded: self.next_seq,
            dropped: self.next_seq - self.events.len() as u64,
            events: self.events.iter().cloned().collect(),
        }
    }
}

/// Serialisable snapshot of a [`FlightRing`] — what `--flight OUT.json`
/// writes and what a shrunk `Repro` embeds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Ring capacity at dump time.
    pub capacity: u64,
    /// Total events ever recorded.
    pub recorded: u64,
    /// Events evicted before the dump (recorded − kept).
    pub dropped: u64,
    /// The kept events, oldest first, seq strictly increasing.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// The dump as a JSON [`Value`] tree (for embedding in other
    /// documents, e.g. repro files).
    pub fn to_value(&self) -> Value {
        serde::Serialize::to_value(self)
    }

    /// Rebuild from an embedded [`Value`]; `Null` means "no dump".
    pub fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Null => None,
            other => serde::Deserialize::from_value(other).ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(detail: &str) -> FlightEvent {
        FlightEvent {
            seq: 0,
            kind: FlightKind::Retry,
            domain: Domain::Sim,
            at_us: 10,
            node: Some(1),
            query: Some(7),
            tenant: Some("acme".into()),
            detail: detail.to_string(),
        }
    }

    /// Satellite property: wraparound keeps exactly the newest N events,
    /// in order.
    #[test]
    fn wraparound_keeps_newest_n_in_order() {
        let mut ring = FlightRing::new(4);
        for i in 0..10 {
            ring.push(ev(&format!("e{i}")));
        }
        assert_eq!(ring.len(), 4);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let details: Vec<&str> = ring.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["e6", "e7", "e8", "e9"]);
        let dump = ring.dump();
        assert_eq!(dump.recorded, 10);
        assert_eq!(dump.dropped, 6);
        assert_eq!(dump.events.len(), 4);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut ring = FlightRing::new(8);
        for i in 0..3 {
            ring.push(ev(&format!("e{i}")));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dump().dropped, 0);
    }

    #[test]
    fn dump_roundtrips_through_serde_and_value() {
        let mut ring = FlightRing::new(2);
        ring.push(ev("a"));
        ring.push(ev("b"));
        ring.push(ev("c"));
        let dump = ring.dump();
        let json = serde_json::to_string(&dump).unwrap();
        let back: FlightDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump);
        let v = dump.to_value();
        assert_eq!(FlightDump::from_value(&v), Some(dump));
        assert_eq!(FlightDump::from_value(&Value::Null), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FlightRing::new(0);
    }
}
