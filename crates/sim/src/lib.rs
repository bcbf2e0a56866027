//! # multipub-sim
//!
//! The MultiPub experiment harness — the Rust counterpart of the paper's
//! Python simulation package (§V.B). It can express any scenario the paper
//! runs: any number of topics, per-topic publisher/subscriber populations
//! placed near chosen EC2 regions, per-publisher rates and sizes, and a
//! per-topic delivery constraint `<ratio_T, max_T>`.
//!
//! * [`population`] — generates client populations (latency rows via the
//!   King-style model of `multipub-data`) and turns them into analytic
//!   workloads or discrete-event scenarios.
//! * [`cost_per_day`] — scales interval costs to the paper's "$/day" figures.
//! * [`table`] — plain-text result tables (markdown / CSV).
//! * [`experiments`] — the paper's four experiments:
//!   [`experiments::exp1`] (Fig. 3), [`experiments::exp2`] (Fig. 4),
//!   [`experiments::exp3`] (Fig. 5), [`experiments::exp4`] (Fig. 6).
//!
//! Every experiment is deterministic, and each returns typed rows that
//! render as tables; `examples/paper_experiments` prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;
pub mod population;
pub mod spec;
pub mod table;

/// Extrapolates the cost of one `interval_secs` observation interval to a
/// day: the paper reports costs "as if the test workload had run for a
/// full day on the real cloud".
///
/// # Panics
///
/// Panics if `interval_secs` is not positive and finite.
pub fn cost_per_day(interval_cost_dollars: f64, interval_secs: f64) -> f64 {
    assert!(interval_secs > 0.0 && interval_secs.is_finite());
    interval_cost_dollars * 86_400.0 / interval_secs
}

#[cfg(test)]
mod tests {
    use super::cost_per_day;

    #[test]
    fn day_scaling() {
        assert_eq!(cost_per_day(5.0, 86_400.0), 5.0);
        assert_eq!(cost_per_day(1.0, 3_600.0), 24.0);
        assert_eq!(cost_per_day(0.01, 60.0), 14.4);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        let _ = cost_per_day(1.0, 0.0);
    }
}
