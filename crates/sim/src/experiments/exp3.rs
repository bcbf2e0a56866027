//! Experiment 3 (paper §V.E, Figure 5): localized pub/sub delivery.
//!
//! All 100 publishers and 100 subscribers are closest to a single
//! expensive region (Tokyo in Fig. 5a, São Paulo in Fig. 5b), ratio 95 %.
//! Serving them locally is fastest but expensive; as `max_T` relaxes,
//! MultiPub discovers configurations that serve the region's clients from
//! cheaper remote regions, cutting cost by 36 % (Tokyo) / 65 %
//! (São Paulo) in the paper.

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

use super::{homed, sweep, workload, Point};
use crate::table::{dollars, millis, Table};
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::RegionId;
use multipub_core::optimizer::{Optimizer, SweepSolver};
use multipub_data::ec2;

/// Delivery guarantee ratio, percent (paper: 95).
const RATIO_PERCENT: f64 = 95.0;

/// Parameters of experiment 3; [`Exp3Params::asia`] and
/// [`Exp3Params::south_america`] reproduce the paper's two setups.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp3Params {
    /// The region all clients are closest to (paper: `ap-northeast-1` or
    /// `sa-east-1`).
    pub home: RegionId,
    /// Number of publishers (paper: 100).
    pub publishers: usize,
    /// Number of subscribers (paper: 100).
    pub subscribers: usize,
    /// Lowest `max_T` of the sweep, ms.
    pub max_t_start_ms: f64,
    /// Highest `max_T` of the sweep, ms.
    pub max_t_end_ms: f64,
    /// Sweep step, ms.
    pub step_ms: f64,
}

impl Exp3Params {
    /// The Figure 5a setup: clients local to Tokyo.
    pub fn asia() -> Self {
        Self::for_home(ec2::regions::AP_NORTHEAST_1, 30.0, 200.0)
    }

    /// The Figure 5b setup: clients local to São Paulo.
    pub fn south_america() -> Self {
        Self::for_home(ec2::regions::SA_EAST_1, 50.0, 250.0)
    }

    fn for_home(home: RegionId, start: f64, end: f64) -> Self {
        Exp3Params {
            home,
            publishers: 100,
            subscribers: 100,
            max_t_start_ms: start,
            max_t_end_ms: end,
            step_ms: 5.0,
        }
    }
}

/// Full result of experiment 3 for one home region.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp3Result {
    /// MultiPub's pick at each sweep point.
    pub rows: Vec<Point>,
    /// The straightforward approach: serve the clients from their local
    /// (expensive) region only, evaluated at the sweep's last bound.
    pub local_only: Point,
    home: RegionId,
}

impl Exp3Result {
    /// Renders the Figure 5 data as one table.
    pub fn table(&self) -> Table {
        let mut table = Table::new([
            "max_T (ms)",
            "delivery (ms)",
            "MultiPub $/day",
            "local-only $/day",
            "#regions",
            "uses home",
        ]);
        for row in &self.rows {
            table.push_row([
                millis(row.max_t_ms),
                millis(row.delivery_ms),
                dollars(row.cost_per_day),
                dollars(self.local_only.cost_per_day),
                row.configuration.region_count().to_string(),
                row.configuration.assignment().contains(self.home).to_string(),
            ]);
        }
        table
    }

    /// Peak cost saving vs the local-only approach across feasible sweep
    /// points, as a fraction (paper: 0.36 for Tokyo, 0.65 for São Paulo).
    pub fn peak_saving(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.feasible)
            .map(|r| 1.0 - r.cost_per_day / self.local_only.cost_per_day)
            .fold(0.0, f64::max)
    }
}

/// Runs experiment 3 for the configured home region.
pub fn run(params: &Exp3Params) -> Exp3Result {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let workload = workload(
        &inter,
        homed(regions.len(), &[(params.home, params.publishers)]),
        homed(regions.len(), &[(params.home, params.subscribers)]),
    );
    let optimizer =
        Optimizer::new(&regions, &inter, &workload).expect("experiment-3 workload is non-empty");

    // The straightforward approach: deploy the topic in the local region.
    let reference = DeliveryConstraint::new(RATIO_PERCENT, params.max_t_end_ms).expect("valid");
    let local_only = optimizer.evaluator().evaluate(
        Configuration::new(
            AssignmentVector::single(params.home, regions.len()).expect("home is in bounds"),
            DeliveryMode::Direct,
        ),
        &reference,
    );

    let sweep_solver =
        SweepSolver::new(&regions, &inter, &workload, RATIO_PERCENT).expect("validated inputs");
    Exp3Result {
        rows: sweep(&sweep_solver, params.max_t_start_ms, params.max_t_end_ms, params.step_ms),
        local_only: Point::new(
            params.max_t_end_ms,
            &local_only,
            local_only.is_feasible(&reference),
        ),
        home: params.home,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(home: RegionId) -> Exp3Params {
        Exp3Params {
            publishers: 10,
            subscribers: 10,
            step_ms: 25.0,
            ..Exp3Params::for_home(home, 30.0, 280.0)
        }
    }

    #[test]
    fn tight_bounds_use_the_home_region() {
        let home = ec2::regions::AP_NORTHEAST_1;
        let result = run(&quick(home));
        let first_feasible = result.rows.iter().find(|r| r.feasible).unwrap();
        assert!(first_feasible.configuration.assignment().contains(home));
    }

    #[test]
    fn loose_bounds_escape_to_cheaper_regions() {
        let home = ec2::regions::SA_EAST_1;
        let result = run(&quick(home));
        let last = result.rows.last().unwrap();
        assert!(last.feasible);
        assert!(
            !last.configuration.assignment().contains(home),
            "São Paulo should be abandoned for a cheap region"
        );
        assert!(last.cost_per_day < result.local_only.cost_per_day);
    }

    #[test]
    fn peak_saving_is_substantial_for_sao_paulo() {
        let result = run(&quick(ec2::regions::SA_EAST_1));
        assert!(
            result.peak_saving() > 0.4,
            "expected >40% savings, got {:.0}%",
            result.peak_saving() * 100.0
        );
    }

    #[test]
    fn cost_never_exceeds_local_only_when_feasible_locally() {
        let result = run(&quick(ec2::regions::AP_NORTHEAST_1));
        for row in result.rows.iter().filter(|r| r.feasible) {
            if row.max_t_ms >= result.local_only.delivery_ms {
                // Once local-only is feasible, MultiPub can only be cheaper.
                assert!(row.cost_per_day <= result.local_only.cost_per_day + 1e-9);
            }
        }
    }

    #[test]
    fn deterministic() {
        let p = quick(ec2::regions::AP_NORTHEAST_1);
        assert_eq!(run(&p), run(&p));
    }
}
