//! Experiment 4 (paper §V.F, Figure 6): runtime analysis of the solver.
//!
//! The search is exponential in the number of regions and linear in the
//! number of publisher×subscriber pairs. Figure 6a scales publishers and
//! subscribers together (10→100) over the full 10-region deployment;
//! Figure 6b fixes 100+100 clients and scales the region count (2→10).
//! The paper also reports linear scaling when only one side grows
//! (10×1000 and 1000×10), covered by [`run_asymmetric`].

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

use super::workload;
use crate::table::Table;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::optimizer::{Optimizer, Solution};
use multipub_data::ec2;
use std::time::Instant;

/// Delivery guarantee ratio handed to the solver, percent.
const RATIO_PERCENT: f64 = 75.0;
/// Delivery bound handed to the solver, ms (runtime does not depend on it).
const MAX_T_MS: f64 = 150.0;

/// One timing measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp4Row {
    /// Number of regions in the deployment.
    pub n_regions: usize,
    /// Total number of publishers.
    pub publishers: usize,
    /// Total number of subscribers.
    pub subscribers: usize,
    /// Wall-clock seconds to find the optimal configuration.
    pub solve_seconds: f64,
    /// Number of configurations enumerated.
    pub configurations: u64,
}

/// A set of timing measurements with a table renderer.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp4Result {
    /// One row per measured setting.
    pub rows: Vec<Exp4Row>,
}

impl Exp4Result {
    /// Renders the timing data as one table.
    pub fn table(&self) -> Table {
        let mut table =
            Table::new(["#regions", "#pubs", "#subs", "solve time (s)", "#configurations"]);
        for row in &self.rows {
            table.push_row([
                row.n_regions.to_string(),
                row.publishers.to_string(),
                row.subscribers.to_string(),
                format!("{:.4}", row.solve_seconds),
                row.configurations.to_string(),
            ]);
        }
        table
    }
}

fn time_solve(n_regions: usize, pubs_total: usize, subs_total: usize) -> Exp4Row {
    let (solution, solve_seconds) = timed_solve(n_regions, pubs_total, subs_total);
    Exp4Row {
        n_regions,
        publishers: pubs_total,
        subscribers: subs_total,
        solve_seconds,
        configurations: solution.configurations_considered(),
    }
}

/// The solve of one setting, and the wall-clock seconds it took.
fn timed_solve(n_regions: usize, pubs_total: usize, subs_total: usize) -> (Solution, f64) {
    let (regions, inter) = ec2::restricted_deployment(n_regions);
    // Spread clients as evenly as possible over the available regions.
    let spread = |total: usize| -> Vec<usize> {
        (0..n_regions).map(|i| total / n_regions + usize::from(i < total % n_regions)).collect()
    };
    let workload = workload(&inter, spread(pubs_total), spread(subs_total));
    let constraint = DeliveryConstraint::new(RATIO_PERCENT, MAX_T_MS).expect("valid");
    let optimizer =
        Optimizer::new(&regions, &inter, &workload).expect("experiment-4 workload is non-empty");
    let start = Instant::now();
    let solution = optimizer.solve(&constraint);
    (solution, start.elapsed().as_secs_f64())
}

/// Figure 6a: publishers = subscribers from `start` to `end` in steps of
/// `step`, over the full 10-region deployment.
pub fn run_scaling_clients(start: usize, end: usize, step: usize) -> Exp4Result {
    assert!(step > 0 && end >= start);
    let rows = (start..=end).step_by(step).map(|n| time_solve(10, n, n)).collect();
    Exp4Result { rows }
}

/// Figure 6b: fixed `clients × clients` population, region count from
/// `start_regions` to `end_regions`.
pub fn run_scaling_regions(clients: usize, start_regions: usize, end_regions: usize) -> Exp4Result {
    assert!((1..=10).contains(&start_regions) && (start_regions..=10).contains(&end_regions));
    let rows = (start_regions..=end_regions).map(|n| time_solve(n, clients, clients)).collect();
    Exp4Result { rows }
}

/// The paper's asymmetric scale checks: `pubs × subs` pairs such as
/// `(10, 1000)` and `(1000, 10)`.
pub fn run_asymmetric(settings: &[(usize, usize)]) -> Exp4Result {
    let rows = settings.iter().map(|&(pubs, subs)| time_solve(10, pubs, subs)).collect();
    Exp4Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_core::optimizer::Effort;

    #[test]
    fn configuration_counts_follow_the_formula() {
        let result = run_scaling_regions(4, 2, 5);
        for row in &result.rows {
            // 2·(2^n − 1) − n: every subset direct, every multi-region one routed.
            let n = row.n_regions as u64;
            assert_eq!(row.configurations, 2 * ((1 << n) - 1) - n);
        }
    }

    /// The work of the Figure 6 solve at ten regions and 100 × 100 clients,
    /// pinned: how a count is taken may change, which candidates need one
    /// may not.
    #[test]
    fn a_ten_region_solve_examines_what_it_always_did() {
        let (solution, _) = timed_solve(10, 100, 100);
        assert_eq!(solution.effort(), Effort { considered: 2036, examined: 1059 });
    }

    #[test]
    fn runtime_grows_with_region_count() {
        let result = run_scaling_regions(30, 3, 9);
        // Exponential growth: the 9-region solve must dwarf the 3-region
        // one (2036/22 configurations ≈ 46×; allow a generous margin).
        let first = result.rows.first().unwrap().solve_seconds;
        let last = result.rows.last().unwrap().solve_seconds;
        assert!(last > first, "expected growth, got {first}s → {last}s");
    }

    #[test]
    fn client_scaling_produces_requested_rows() {
        let result = run_scaling_clients(10, 30, 10);
        let sizes: Vec<usize> = result.rows.iter().map(|r| r.publishers).collect();
        assert_eq!(sizes, vec![10, 20, 30]);
        assert!(result.rows.iter().all(|r| r.n_regions == 10));
        assert_eq!(result.table().len(), 3);
    }

    #[test]
    fn asymmetric_settings_run() {
        let result = run_asymmetric(&[(5, 50), (50, 5)]);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].subscribers, 50);
        assert_eq!(result.rows[1].publishers, 50);
    }
}
