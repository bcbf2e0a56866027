//! Experiment 1 (paper §V.C, Figure 3): MultiPub vs the *All Regions
//! (Routed)* and *One Region* baselines.
//!
//! One topic with `10 + 10` clients near each of the 10 EC2 regions,
//! delivery ratio 75 %. The delivery bound `max_T` sweeps from 100 ms to
//! 200 ms; for each bound the optimizer picks a configuration, and we
//! record its achieved delivery-time percentile (Fig. 3a), its cost
//! extrapolated to a full day (Fig. 3b), and the number of regions plus
//! delivery mode (Fig. 3c).

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

use super::{sweep, workload, Point};
use crate::table::{dollars, millis, Table};
use multipub_core::assignment::DeliveryMode;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::optimizer::{Optimizer, SweepSolver};
use multipub_data::ec2;

/// Delivery guarantee ratio, percent (paper: 75).
const RATIO_PERCENT: f64 = 75.0;
/// Lowest `max_T` of the sweep, ms (paper: 100).
const MAX_T_START_MS: f64 = 100.0;

/// Parameters of experiment 1; `Default` reproduces the paper's setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp1Params {
    /// Publishers homed near each region (paper: 10).
    pub pubs_per_region: usize,
    /// Subscribers homed near each region (paper: 10).
    pub subs_per_region: usize,
    /// Highest `max_T` of the sweep, ms (paper: 200; our default extends
    /// to 240 because the synthetic client population's last-mile
    /// latencies push the One-Region convergence point past 200 ms).
    pub max_t_end_ms: f64,
    /// Sweep step, ms.
    pub step_ms: f64,
}

impl Default for Exp1Params {
    fn default() -> Self {
        Exp1Params { pubs_per_region: 10, subs_per_region: 10, max_t_end_ms: 240.0, step_ms: 4.0 }
    }
}

/// Full result of experiment 1: the MultiPub sweep plus the two constant
/// baselines, evaluated at the sweep's last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp1Result {
    /// MultiPub's pick at each sweep point.
    pub rows: Vec<Point>,
    /// *All Regions (Routed)*.
    pub all_regions: Point,
    /// *One Region*.
    pub one_region: Point,
}

impl Exp1Result {
    /// Renders the Figure 3 data as one table (columns a–c side by side).
    pub fn table(&self) -> Table {
        let mut table = Table::new([
            "max_T (ms)",
            "MultiPub delivery (ms)",
            "AllRegions delivery (ms)",
            "OneRegion delivery (ms)",
            "MultiPub $/day",
            "AllRegions $/day",
            "OneRegion $/day",
            "#regions",
            "mode",
        ]);
        for row in &self.rows {
            table.push_row([
                millis(row.max_t_ms),
                millis(row.delivery_ms),
                millis(self.all_regions.delivery_ms),
                millis(self.one_region.delivery_ms),
                dollars(row.cost_per_day),
                dollars(self.all_regions.cost_per_day),
                dollars(self.one_region.cost_per_day),
                row.configuration.region_count().to_string(),
                row.configuration.mode().to_string(),
            ]);
        }
        table
    }

    /// Peak cost saving of MultiPub vs *All Regions* across feasible sweep
    /// points, as a fraction (the paper reports 28 %).
    pub fn peak_saving_vs_all_regions(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.feasible)
            .map(|r| 1.0 - r.cost_per_day / self.all_regions.cost_per_day)
            .fold(0.0, f64::max)
    }
}

/// Runs experiment 1.
pub fn run(params: &Exp1Params) -> Exp1Result {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let workload = workload(
        &inter,
        vec![params.pubs_per_region; regions.len()],
        vec![params.subs_per_region; regions.len()],
    );
    let optimizer =
        Optimizer::new(&regions, &inter, &workload).expect("experiment-1 workload is non-empty");

    // The baselines do not depend on max_T; evaluate them once.
    let reference = DeliveryConstraint::new(RATIO_PERCENT, params.max_t_end_ms).expect("valid");
    let all_regions = optimizer.solve_all_regions(DeliveryMode::Routed, &reference);
    let one_region = optimizer.solve_one_region(&reference);

    // Every configuration's percentile depends only on the ratio, so the
    // whole sweep reuses one evaluation pass (see `SweepSolver`).
    let sweep_solver =
        SweepSolver::new(&regions, &inter, &workload, RATIO_PERCENT).expect("validated inputs");
    Exp1Result {
        rows: sweep(&sweep_solver, MAX_T_START_MS, params.max_t_end_ms, params.step_ms),
        all_regions: Point::solved(&all_regions, params.max_t_end_ms),
        one_region: Point::solved(&one_region, params.max_t_end_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Exp1Params {
        Exp1Params {
            pubs_per_region: 2,
            subs_per_region: 2,
            step_ms: 20.0,
            ..Exp1Params::default()
        }
    }

    #[test]
    fn baselines_bracket_multipub() {
        let result = run(&quick_params());
        // All-Regions is the fast extreme, One-Region the cheap extreme.
        assert!(result.all_regions.delivery_ms <= result.one_region.delivery_ms);
        assert!(result.all_regions.cost_per_day >= result.one_region.cost_per_day);
        for row in &result.rows {
            assert!(row.cost_per_day <= result.all_regions.cost_per_day + 1e-9);
            assert!(row.cost_per_day >= result.one_region.cost_per_day - 1e-9);
        }
    }

    #[test]
    fn cost_is_monotone_non_increasing_in_max_t() {
        let result = run(&quick_params());
        for pair in result.rows.windows(2) {
            assert!(
                pair[1].cost_per_day <= pair[0].cost_per_day + 1e-9,
                "cost rose from {} to {} at max_T {}",
                pair[0].cost_per_day,
                pair[1].cost_per_day,
                pair[1].max_t_ms
            );
        }
    }

    #[test]
    fn feasible_rows_respect_their_bound() {
        let result = run(&quick_params());
        for row in &result.rows {
            if row.feasible {
                assert!(row.delivery_ms <= row.max_t_ms);
            }
        }
    }

    #[test]
    fn loose_bound_converges_to_one_region() {
        let params = Exp1Params { max_t_end_ms: 400.0, ..quick_params() };
        let result = run(&params);
        let last = result.rows.last().unwrap();
        assert_eq!(last.configuration.region_count(), 1);
        assert!((last.cost_per_day - result.one_region.cost_per_day).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(&quick_params()), run(&quick_params()));
    }

    #[test]
    fn table_has_a_row_per_sweep_point() {
        let result = run(&quick_params());
        assert_eq!(result.table().len(), result.rows.len());
    }
}
