//! Cost horizon scaling.
//!
//! The optimizer works on one observation interval; the paper reports
//! costs "as if the test workload had run for a full day on the real
//! cloud". [`CostHorizon`] performs that extrapolation.

/// Scales interval costs to one day.
///
/// ```
/// use multipub_sim::horizon::CostHorizon;
/// let horizon = CostHorizon::per_day(60.0); // 60 s observation interval
/// assert_eq!(horizon.scale(0.01), 14.4);    // $0.01/min → $14.40/day
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostHorizon {
    interval_secs: f64,
}

impl CostHorizon {
    /// A horizon scaling `interval_secs` observations to one day.
    ///
    /// # Panics
    ///
    /// Panics if `interval_secs` is not positive and finite.
    pub fn per_day(interval_secs: f64) -> Self {
        assert!(interval_secs > 0.0 && interval_secs.is_finite());
        CostHorizon { interval_secs }
    }

    /// Scales a per-interval cost to the horizon.
    pub fn scale(&self, interval_cost_dollars: f64) -> f64 {
        interval_cost_dollars * 86_400.0 / self.interval_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_scaling() {
        let h = CostHorizon::per_day(86_400.0);
        assert_eq!(h.scale(5.0), 5.0);
        let m = CostHorizon::per_day(3_600.0);
        assert_eq!(m.scale(1.0), 24.0);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        let _ = CostHorizon::per_day(0.0);
    }
}
