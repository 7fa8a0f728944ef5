//! Serially-reusable resources as busy-until timelines.
//!
//! A disk head, a NIC direction, or a dedicated core set serves one piece of
//! work at a time. [`Timeline::reserve`] implements the standard
//! resource-timeline DES pattern: work that becomes ready at `ready` starts
//! at `max(ready, busy_until)` and occupies the resource for its duration.

use crate::time::SimTime;

/// One serial resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    busy_until: SimTime,
    /// Total time the resource has actually worked (for utilisation stats).
    busy_time: SimTime,
}

impl Timeline {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `duration`, no earlier than `ready`.
    /// Returns `(start, end)`.
    pub(crate) fn reserve(&mut self, ready: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_time += duration;
        (start, end)
    }

    /// When the resource next becomes free.
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Utilisation in `[0, 1]` up to `horizon`.
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_time.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Reset to idle (fresh experiment on the same node objects).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reservations_queue_up() {
        let mut t = Timeline::new();
        let (s1, e1) = t.reserve(SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_secs(2)));
        // Ready at 1 but the resource is busy until 2.
        let (s2, e2) = t.reserve(SimTime::from_secs(1), SimTime::from_secs(3));
        assert_eq!((s2, e2), (SimTime::from_secs(2), SimTime::from_secs(5)));
        assert_eq!(t.busy_until(), SimTime::from_secs(5));
    }

    #[test]
    fn idle_gap_respected() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, SimTime::from_secs(1));
        // Ready at 10, resource free since 1 → starts at 10.
        let (s, e) = t.reserve(SimTime::from_secs(10), SimTime::from_secs(1));
        assert_eq!((s, e), (SimTime::from_secs(10), SimTime::from_secs(11)));
        assert_eq!(t.busy_time, SimTime::from_secs(2));
    }

    #[test]
    fn utilisation_accounts_only_busy_time() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, SimTime::from_secs(2));
        t.reserve(SimTime::from_secs(8), SimTime::from_secs(2));
        assert!((t.utilisation(SimTime::from_secs(10)) - 0.4).abs() < 1e-12);
        assert_eq!(t.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, SimTime::from_secs(5));
        t.reset();
        assert_eq!(t.busy_until(), SimTime::ZERO);
        assert_eq!(t.busy_time, SimTime::ZERO);
    }

    #[test]
    fn zero_duration_work_is_instant() {
        let mut t = Timeline::new();
        let (s, e) = t.reserve(SimTime::from_secs(3), SimTime::ZERO);
        assert_eq!(s, e);
        assert_eq!(t.busy_until(), SimTime::from_secs(3));
    }
}
