//! Experiment 2 (paper §V.D, Figure 4): direct vs routed delivery.
//!
//! One topic with 100 publishers in Asia, 25 subscribers in Asia and 25 in
//! the USA, ratio 75 %. Three solver variants run over the `max_T` sweep
//! from 80 ms to 200 ms: standard MultiPub, MultiPub-D (direct only) and
//! MultiPub-R (routed only). Routed delivery reaches a lower minimum
//! delivery time thanks to the optimized inter-cloud links; MultiPub
//! switches between modes to stay on the cheap side of the envelope.

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

use super::{homed, sweep, workload, Point};
use crate::table::{dollars, millis, Table};
use multipub_core::assignment::ModePolicy;
use multipub_core::optimizer::SweepSolver;
use multipub_data::ec2;
use multipub_data::ec2::regions::{AP_NORTHEAST_1, US_EAST_1};

/// Delivery guarantee ratio, percent (paper: 75).
const RATIO_PERCENT: f64 = 75.0;
/// Lowest `max_T` of the sweep, ms.
const MAX_T_START_MS: f64 = 80.0;
/// Highest `max_T` of the sweep, ms.
const MAX_T_END_MS: f64 = 200.0;

/// Parameters of experiment 2; `Default` reproduces the paper's setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp2Params {
    /// Number of publishers, homed in Asia (paper: 100).
    pub publishers: usize,
    /// Subscribers homed in Asia (paper: 25).
    pub asia_subscribers: usize,
    /// Subscribers homed in the USA (paper: 25).
    pub usa_subscribers: usize,
    /// Sweep step, ms.
    pub step_ms: f64,
}

impl Default for Exp2Params {
    fn default() -> Self {
        Exp2Params { publishers: 100, asia_subscribers: 25, usa_subscribers: 25, step_ms: 4.0 }
    }
}

/// Full result of experiment 2: each variant's pick at every sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp2Result {
    /// Standard MultiPub (modes free).
    pub multipub: Vec<Point>,
    /// MultiPub-D: direct delivery only.
    pub direct_only: Vec<Point>,
    /// MultiPub-R: routed delivery only.
    pub routed_only: Vec<Point>,
}

impl Exp2Result {
    /// Renders the Figure 4 data as one table.
    pub fn table(&self) -> Table {
        let mut table = Table::new([
            "max_T (ms)",
            "MultiPub delivery (ms)",
            "MultiPub-D delivery (ms)",
            "MultiPub-R delivery (ms)",
            "MultiPub $/day",
            "MultiPub-D $/day",
            "MultiPub-R $/day",
            "MultiPub mode",
        ]);
        let variants = self.multipub.iter().zip(&self.direct_only).zip(&self.routed_only);
        for ((multipub, direct), routed) in variants {
            table.push_row([
                millis(multipub.max_t_ms),
                millis(multipub.delivery_ms),
                millis(direct.delivery_ms),
                millis(routed.delivery_ms),
                dollars(multipub.cost_per_day),
                dollars(direct.cost_per_day),
                dollars(routed.cost_per_day),
                multipub.configuration.mode().to_string(),
            ]);
        }
        table
    }

    /// Minimum achievable delivery time of a variant over the sweep
    /// (the paper reports 110 ms for MultiPub-D and 94 ms for MultiPub-R).
    pub fn min_delivery_ms(&self, select: impl Fn(&Self) -> &[Point]) -> f64 {
        select(self).iter().map(|p| p.delivery_ms).fold(f64::INFINITY, f64::min)
    }
}

/// Runs experiment 2.
pub fn run(params: &Exp2Params) -> Exp2Result {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let workload = workload(
        &inter,
        homed(regions.len(), &[(AP_NORTHEAST_1, params.publishers)]),
        homed(
            regions.len(),
            &[(AP_NORTHEAST_1, params.asia_subscribers), (US_EAST_1, params.usa_subscribers)],
        ),
    );

    // One evaluation pass per solver variant covers the whole sweep.
    let variant = |policy: ModePolicy| -> Vec<Point> {
        let solver = SweepSolver::with_options(&regions, &inter, &workload, RATIO_PERCENT, policy)
            .expect("experiment-2 workload is non-empty");
        sweep(&solver, MAX_T_START_MS, MAX_T_END_MS, params.step_ms)
    };
    Exp2Result {
        multipub: variant(ModePolicy::Any),
        direct_only: variant(ModePolicy::DirectOnly),
        routed_only: variant(ModePolicy::RoutedOnly),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Exp2Params {
        Exp2Params { publishers: 10, asia_subscribers: 5, usa_subscribers: 5, step_ms: 20.0 }
    }

    #[test]
    fn multipub_envelope_dominates_both_variants() {
        let result = run(&quick_params());
        let variants = result.multipub.iter().zip(&result.direct_only).zip(&result.routed_only);
        for ((multipub, direct), routed) in variants {
            // The unrestricted solver can always copy either variant.
            assert!(multipub.cost_per_day <= direct.cost_per_day + 1e-9);
            assert!(multipub.cost_per_day <= routed.cost_per_day + 1e-9);
        }
    }

    #[test]
    fn routed_reaches_lower_min_delivery_than_direct() {
        let result = run(&quick_params());
        let min_routed = result.min_delivery_ms(|r| &r.routed_only);
        let min_direct = result.min_delivery_ms(|r| &r.direct_only);
        // Optimized inter-cloud links make routed faster end-to-end for
        // the cross-Pacific pairs (the paper's 94 ms vs 110 ms effect).
        assert!(
            min_routed <= min_direct,
            "routed min {min_routed} should not exceed direct min {min_direct}"
        );
    }

    #[test]
    fn all_rows_cover_the_sweep() {
        let result = run(&quick_params());
        let bounds = [80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0];
        for variant in [&result.multipub, &result.direct_only, &result.routed_only] {
            assert!(variant.iter().map(|p| p.max_t_ms).eq(bounds));
        }
        assert_eq!(result.table().len(), bounds.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&quick_params()), run(&quick_params()));
    }
}
