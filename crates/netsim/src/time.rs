//! The virtual clock.
//!
//! Simulated time is a monotone `f64` millisecond counter starting at 0.
//! `f64` keeps hop arithmetic exact with respect to the analytic model
//! (which also works in `f64` milliseconds), so a jitter-free simulation
//! reproduces the model's delivery times bit-for-bit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point at `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "sim time must be finite and non-negative");
        SimTime(ms)
    }

    /// Milliseconds since simulation start.
    pub fn as_ms(self) -> f64 {
        self.0
    }

    /// Total order for use in the event queue (no NaNs by construction).
    pub(crate) fn total_cmp(self, other: SimTime) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances the time point by `rhs` milliseconds.
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_ms(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;

    /// Elapsed milliseconds between two time points.
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0) + 5.5;
        assert_eq!(t.as_ms(), 15.5);
        assert_eq!(t - SimTime::from_ms(10.0), 5.5);
        let mut u = SimTime::ZERO;
        u += 3.0;
        assert_eq!(u.as_ms(), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_ms(-1.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ms(1.0) < SimTime::from_ms(2.0));
        assert_eq!(
            SimTime::from_ms(1.0).total_cmp(SimTime::from_ms(1.0)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
    }
}
