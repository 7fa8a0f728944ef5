//! Simulated time as integer microseconds.
//!
//! Integer time makes the simulation exactly deterministic and totally
//! ordered — no accumulation of floating-point error across millions of
//! events — while one microsecond of resolution is far below any modelled
//! latency.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// From fractional seconds (rounded to the nearest microsecond).
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        Self((s * 1e6).round() as u64)
    }

    /// Duration needed to move `bytes` at `bytes_per_sec` (rounded up to a
    /// whole microsecond so work never takes zero time), saturating at
    /// `u64::MAX` µs.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec == 0`.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "rate must be positive");
        let us = (u128::from(bytes) * 1_000_000).div_ceil(u128::from(bytes_per_sec));
        Self(u64::try_from(us).unwrap_or(u64::MAX))
    }

    /// As microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction (durations never go negative).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics on underflow — subtracting a later time from an earlier one
    /// is always a logic error in the engine.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: rhs is later than lhs"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn bytes_at_rate() {
        // 100 MB at 100 MB/s = 1 s.
        let t = SimTime::for_bytes(100_000_000, 100_000_000);
        assert_eq!(t, SimTime::from_secs(1));
        // Rounds up: 1 byte at 1 GB/s is 1 µs, not 0.
        assert_eq!(SimTime::for_bytes(1, 1_000_000_000).as_micros(), 1);
        assert_eq!(SimTime::for_bytes(0, 100), SimTime::ZERO);
    }

    /// Exact on both sides of `bytes·10⁶ = 2⁶⁴`, and a duration past
    /// `u64::MAX` µs saturates instead of wrapping.
    #[test]
    fn bytes_at_rate_saturates_past_u64() {
        let edge = u64::MAX / 1_000_000;
        assert_eq!(SimTime::for_bytes(edge, 1).as_micros(), edge * 1_000_000);
        assert_eq!(
            SimTime::for_bytes(edge + 1, 1_000_000).as_micros(),
            edge + 1
        );
        assert_eq!(
            SimTime::for_bytes(edge + 1, 3_000_000).as_micros(),
            edge / 3 + 1
        );
        assert_eq!(
            SimTime::for_bytes(u64::MAX, 1_000_000).as_micros(),
            u64::MAX
        );
        assert_eq!(
            SimTime::for_bytes(u64::MAX, 2_000_000).as_micros(),
            u64::MAX / 2 + 1
        );
        assert_eq!(
            SimTime::for_bytes(u64::MAX, u64::MAX).as_micros(),
            1_000_000
        );
        // 1 B/s: `bytes·10⁶` µs, which no `u64` holds past `edge`.
        assert_eq!(SimTime::for_bytes(edge + 1, 1).as_micros(), u64::MAX);
        assert_eq!(SimTime::for_bytes(u64::MAX, 1).as_micros(), u64::MAX);
        assert_eq!(SimTime::for_bytes(u64::MAX, 999_999).as_micros(), u64::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_millis(500);
        assert_eq!((a + b).as_micros(), 1_500_000);
        assert_eq!((a - b).as_micros(), 500_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 1_500_000);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1234).to_string(), "1.234s");
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        SimTime::for_bytes(10, 0);
    }
}
