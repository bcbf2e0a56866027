//! Experiment 1 (paper §V.C, Figure 3): MultiPub vs the *All Regions
//! (Routed)* and *One Region* baselines.
//!
//! One topic with `10 + 10` clients near each of the 10 EC2 regions, every
//! publisher emitting 1 KiB once per second, delivery ratio 75 %. The
//! delivery bound `max_T` sweeps from 100 ms to 200 ms; for each bound the
//! optimizer picks a configuration, and we record its achieved
//! delivery-time percentile (Fig. 3a), its cost extrapolated to a full day
//! (Fig. 3b), and the number of regions plus delivery mode (Fig. 3c).

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

use crate::horizon::CostHorizon;
use crate::population::{Population, PopulationSpec};
use crate::table::{dollars, millis, Table};
use multipub_core::assignment::DeliveryMode;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::optimizer::{Optimizer, SweepSolver};
use multipub_data::ec2;

/// Parameters of experiment 1; `Default` reproduces the paper's setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp1Params {
    /// Publishers homed near each region (paper: 10).
    pub pubs_per_region: usize,
    /// Subscribers homed near each region (paper: 10).
    pub subs_per_region: usize,
    /// Per-publisher rate in messages/second (paper: 1).
    pub rate_per_sec: f64,
    /// Publication size in bytes (paper: 1 KiB).
    pub size_bytes: u64,
    /// Delivery guarantee ratio in percent (paper: 75).
    pub ratio_percent: f64,
    /// Lowest `max_T` of the sweep, ms (paper: 100).
    pub max_t_start_ms: f64,
    /// Highest `max_T` of the sweep, ms (paper: 200; our default extends
    /// to 240 because the synthetic client population's last-mile
    /// latencies push the One-Region convergence point past 200 ms).
    pub max_t_end_ms: f64,
    /// Sweep step, ms.
    pub step_ms: f64,
    /// Observation-interval length in seconds.
    pub interval_secs: f64,
    /// RNG seed for the client population.
    pub seed: u64,
}

impl Default for Exp1Params {
    fn default() -> Self {
        Exp1Params {
            pubs_per_region: 10,
            subs_per_region: 10,
            rate_per_sec: 1.0,
            size_bytes: 1024,
            ratio_percent: 75.0,
            max_t_start_ms: 100.0,
            max_t_end_ms: 240.0,
            step_ms: 4.0,
            interval_secs: 60.0,
            seed: 2017,
        }
    }
}

/// One sweep point of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp1Row {
    /// The delivery bound `max_T` for this point, ms.
    pub max_t_ms: f64,
    /// MultiPub's achieved 75th-percentile delivery time, ms (Fig. 3a).
    pub delivery_ms: f64,
    /// MultiPub's cost extrapolated to one day, dollars (Fig. 3b).
    pub cost_per_day: f64,
    /// Number of regions MultiPub selected (Fig. 3c).
    pub regions_used: u32,
    /// Delivery mode MultiPub selected (Fig. 3c).
    pub mode: DeliveryMode,
    /// Whether the bound was met.
    pub feasible: bool,
}

/// Full result of experiment 1: the MultiPub sweep plus the two constant
/// baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp1Result {
    /// One row per sweep point.
    pub rows: Vec<Exp1Row>,
    /// *All Regions (Routed)* achieved delivery time, ms.
    pub all_regions_delivery_ms: f64,
    /// *All Regions (Routed)* cost per day, dollars.
    pub all_regions_cost_per_day: f64,
    /// *One Region* achieved delivery time, ms.
    pub one_region_delivery_ms: f64,
    /// *One Region* cost per day, dollars.
    pub one_region_cost_per_day: f64,
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
                millis(self.all_regions_delivery_ms),
                millis(self.one_region_delivery_ms),
                dollars(row.cost_per_day),
                dollars(self.all_regions_cost_per_day),
                dollars(self.one_region_cost_per_day),
                row.regions_used.to_string(),
                row.mode.to_string(),
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
            .map(|r| 1.0 - r.cost_per_day / self.all_regions_cost_per_day)
            .fold(0.0, f64::max)
    }
}

/// Runs experiment 1.
pub fn run(params: &Exp1Params) -> Exp1Result {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let spec = PopulationSpec::uniform(
        regions.len(),
        params.pubs_per_region,
        params.subs_per_region,
        params.rate_per_sec,
        params.size_bytes,
    );
    let population = Population::generate(&spec, &inter, params.seed);
    let workload = population.workload(params.interval_secs);
    let horizon = CostHorizon::per_day(params.interval_secs);
    let optimizer =
        Optimizer::new(&regions, &inter, &workload).expect("experiment-1 workload is non-empty");

    // The baselines do not depend on max_T; evaluate them once.
    let reference =
        DeliveryConstraint::new(params.ratio_percent, params.max_t_end_ms).expect("valid");
    let all_regions = optimizer.solve_all_regions(DeliveryMode::Routed, &reference);
    let one_region = optimizer.solve_one_region(&reference);

    // Every configuration's percentile depends only on the ratio, so the
    // whole sweep reuses one evaluation pass (see `SweepSolver`).
    let sweep_solver = SweepSolver::new(&regions, &inter, &workload, params.ratio_percent)
        .expect("validated inputs");
    let rows = super::sweep(params.max_t_start_ms, params.max_t_end_ms, params.step_ms)
        .into_iter()
        .map(|max_t| {
            let solution = sweep_solver.solve_at(max_t).expect("valid sweep point");
            Exp1Row {
                max_t_ms: max_t,
                delivery_ms: solution.evaluation().percentile_ms(),
                cost_per_day: horizon.scale(solution.evaluation().cost_dollars()),
                regions_used: solution.configuration().region_count(),
                mode: solution.configuration().mode(),
                feasible: solution.is_feasible(),
            }
        })
        .collect();

    Exp1Result {
        rows,
        all_regions_delivery_ms: all_regions.evaluation().percentile_ms(),
        all_regions_cost_per_day: horizon.scale(all_regions.evaluation().cost_dollars()),
        one_region_delivery_ms: one_region.evaluation().percentile_ms(),
        one_region_cost_per_day: horizon.scale(one_region.evaluation().cost_dollars()),
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
        assert!(result.all_regions_delivery_ms <= result.one_region_delivery_ms);
        assert!(result.all_regions_cost_per_day >= result.one_region_cost_per_day);
        for row in &result.rows {
            assert!(row.cost_per_day <= result.all_regions_cost_per_day + 1e-9);
            assert!(row.cost_per_day >= result.one_region_cost_per_day - 1e-9);
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
        assert_eq!(last.regions_used, 1);
        assert!((last.cost_per_day - result.one_region_cost_per_day).abs() < 1e-9);
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
