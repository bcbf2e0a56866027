//! Per-topic delivery-time constraints `<ratio_T, max_T>`.

use crate::error::Error;
use std::fmt;

/// A per-topic delivery constraint (paper §II-A).
///
/// `DeliveryConstraint::new(95.0, 200.0)` requires 95 % of all publication
/// deliveries on the topic to complete within 200 ms.
///
/// ```
/// use multipub_core::constraint::DeliveryConstraint;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let c = DeliveryConstraint::new(75.0, 150.0)?;
/// assert!(c.is_met_by(150.0));
/// assert!(!c.is_met_by(150.1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryConstraint {
    ratio_percent: f64,
    max_ms: f64,
}

impl DeliveryConstraint {
    /// Creates a constraint requiring `ratio_percent` % of messages to be
    /// delivered within `max_ms` milliseconds.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidRatio`] unless `0 < ratio_percent <= 100`.
    /// * [`Error::InvalidBound`] unless `max_ms` is positive and finite.
    pub fn new(ratio_percent: f64, max_ms: f64) -> Result<Self, Error> {
        if !(ratio_percent > 0.0 && ratio_percent <= 100.0) {
            return Err(Error::InvalidRatio { value: ratio_percent });
        }
        if !(max_ms > 0.0 && max_ms.is_finite()) {
            return Err(Error::InvalidBound { value: max_ms });
        }
        Ok(DeliveryConstraint { ratio_percent, max_ms })
    }

    /// The required percentile (`ratio_T`), in percent.
    pub fn ratio_percent(self) -> f64 {
        self.ratio_percent
    }

    /// The delivery-time bound (`max_T`), in milliseconds.
    pub fn max_ms(self) -> f64 {
        self.max_ms
    }

    /// Whether a delivery-time percentile satisfies the bound (Eq. 6:
    /// `D̃_C <= max_T`).
    pub fn is_met_by(self, percentile_ms: f64) -> bool {
        percentile_ms <= self.max_ms
    }

    /// The 1-based rank `n^T = ceil(ratio × total / 100)` of the percentile
    /// entry within a sorted list of `total` delivery times (Eq. 5) — the
    /// same [`multipub_obs::quantile::ceiling_rank`] the simulator's reports
    /// and the live histograms use.
    ///
    /// Returns 0 when `total` is 0 (no messages → trivially feasible).
    pub(crate) fn rank(self, total: u64) -> u64 {
        multipub_obs::quantile::ceiling_rank(self.ratio_percent, total)
    }
}

impl fmt::Display for DeliveryConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}%, {} ms>", self.ratio_percent, self.max_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_ratio() {
        assert!(DeliveryConstraint::new(0.0, 100.0).is_err());
        assert!(DeliveryConstraint::new(-5.0, 100.0).is_err());
        assert!(DeliveryConstraint::new(100.5, 100.0).is_err());
        assert!(DeliveryConstraint::new(f64::NAN, 100.0).is_err());
        assert!(DeliveryConstraint::new(100.0, 100.0).is_ok());
    }

    #[test]
    fn validates_bound() {
        assert!(DeliveryConstraint::new(95.0, 0.0).is_err());
        assert!(DeliveryConstraint::new(95.0, -1.0).is_err());
        assert!(DeliveryConstraint::new(95.0, f64::INFINITY).is_err());
    }

    #[test]
    fn rank_uses_ceiling() {
        let c = DeliveryConstraint::new(75.0, 100.0).unwrap();
        // ceil(0.75 × 10) = 8 → the 8th smallest value.
        assert_eq!(c.rank(10), 8);
        // ceil(0.75 × 4) = 3.
        assert_eq!(c.rank(4), 3);
        assert_eq!(c.rank(0), 0);
        let full = DeliveryConstraint::new(100.0, 100.0).unwrap();
        assert_eq!(full.rank(7), 7);
        // Regression: `ratio / 100 × total` ranked these one too high.
        assert_eq!(DeliveryConstraint::new(7.0, 100.0).unwrap().rank(100), 7);
        assert_eq!(DeliveryConstraint::new(55.0, 100.0).unwrap().rank(100), 55);
    }

    #[test]
    fn rank_is_monotone_in_total() {
        let c = DeliveryConstraint::new(95.0, 100.0).unwrap();
        let mut prev = 0;
        for total in 0..1000 {
            let r = c.rank(total);
            assert!(r >= prev);
            assert!(r <= total);
            prev = r;
        }
    }

    #[test]
    fn display_format() {
        let c = DeliveryConstraint::new(95.0, 200.0).unwrap();
        assert_eq!(c.to_string(), "<95%, 200 ms>");
    }
}
