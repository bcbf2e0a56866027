//! The paper's four experiments (§V.C–V.F), each a deterministic,
//! parameterized runner.
//!
//! | Module | Paper figure | What it shows |
//! |--------|--------------|---------------|
//! | [`exp1`] | Fig. 3a–c | MultiPub vs *All Regions* vs *One Region* |
//! | [`exp2`] | Fig. 4a–b | Direct vs routed delivery |
//! | [`exp3`] | Fig. 5a–b | Localized pub/sub cost arbitrage |
//! | [`exp4`] | Fig. 6a–b | Solver runtime scaling |
//!
//! All four share the paper's setup (§V): every publisher sends one
//! 1024-byte message per second, the optimizer observes 60 s of that
//! traffic, costs are scaled from those 60 s to one day, and client
//! populations are drawn with seed 2017. These are constants; a runner's
//! parameters set only its population and its sweep. Figures 3–5 fix a
//! delivery ratio (75 %, 75 % and 95 %) and sweep the bound `max_T`: every
//! bound, and every baseline, is one [`Point`]. Figure 6 times single
//! solves at `<75 %, 150 ms>`.

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

pub mod exp1;
pub mod exp2;
pub mod exp3;
pub mod exp4;

use crate::cost_per_day;
use crate::population::{Population, PopulationSpec};
use multipub_core::assignment::Configuration;
use multipub_core::evaluate::ConfigEvaluation;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::optimizer::{Solution, SweepSolver};
use multipub_core::workload::TopicWorkload;

/// Messages each publisher sends per second.
const RATE_PER_SEC: f64 = 1.0;
/// Size of every message, bytes.
const SIZE_BYTES: u64 = 1024;
/// Length of the observation interval, seconds.
const INTERVAL_SECS: f64 = 60.0;
/// Seed of every client population.
const SEED: u64 = 2017;

/// What the optimizer picked under one delivery bound: one x-position of
/// Figures 3–5, or a baseline evaluated at its sweep's last bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The delivery bound `max_T`, ms.
    pub max_t_ms: f64,
    /// The selected regions and delivery mode (Fig. 3c).
    pub configuration: Configuration,
    /// The configuration's achieved delivery-time percentile, ms.
    pub delivery_ms: f64,
    /// The configuration's cost extrapolated to one day, dollars.
    pub cost_per_day: f64,
    /// Whether the bound was met.
    pub feasible: bool,
}

impl Point {
    fn new(max_t_ms: f64, evaluation: &ConfigEvaluation, feasible: bool) -> Self {
        Point {
            max_t_ms,
            configuration: evaluation.configuration(),
            delivery_ms: evaluation.percentile_ms(),
            cost_per_day: cost_per_day(evaluation.cost_dollars(), INTERVAL_SECS),
            feasible,
        }
    }

    fn solved(solution: &Solution, max_t_ms: f64) -> Self {
        Point::new(max_t_ms, solution.evaluation(), solution.is_feasible())
    }
}

/// The observed workload of one topic with `pubs_per_region[i]`
/// publishers and `subs_per_region[i]` subscribers homed at region `i`.
fn workload(
    inter: &InterRegionMatrix,
    pubs_per_region: Vec<usize>,
    subs_per_region: Vec<usize>,
) -> TopicWorkload {
    let spec = PopulationSpec {
        pubs_per_region,
        subs_per_region,
        rate_per_sec: RATE_PER_SEC,
        size_bytes: SIZE_BYTES,
    };
    Population::generate(&spec, inter, SEED).workload(INTERVAL_SECS)
}

/// Per-region client counts over `n_regions` regions: each listed
/// region's count, and none elsewhere.
fn homed(n_regions: usize, clients: &[(RegionId, usize)]) -> Vec<usize> {
    (0..n_regions)
        .map(|i| clients.iter().filter(|(home, _)| home.index() == i).map(|&(_, n)| n).sum())
        .collect()
}

/// The solver's pick at every bound from `start` to `end` inclusive, in
/// `step` increments (all milliseconds).
fn sweep(solver: &SweepSolver, start: f64, end: f64, step: f64) -> Vec<Point> {
    assert!(step > 0.0, "sweep step must be positive");
    assert!(end >= start, "sweep end must not precede start");
    (0u32..)
        .map(|k| start + f64::from(k) * step)
        .take_while(|&max_t| max_t <= end + 1e-9)
        .map(|max_t| Point::solved(&solver.solve_at(max_t).expect("valid sweep point"), max_t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_data::ec2;

    fn bounds(start: f64, end: f64, step: f64) -> Vec<f64> {
        let (regions, inter) = ec2::restricted_deployment(2);
        let workload = workload(&inter, vec![1, 1], vec![1, 1]);
        let solver = SweepSolver::new(&regions, &inter, &workload, 75.0).unwrap();
        sweep(&solver, start, end, step).iter().map(|point| point.max_t_ms).collect()
    }

    #[test]
    fn sweep_includes_both_ends() {
        assert_eq!(bounds(100.0, 200.0, 20.0), vec![100.0, 120.0, 140.0, 160.0, 180.0, 200.0]);
    }

    #[test]
    fn sweep_single_point() {
        assert_eq!(bounds(5.0, 5.0, 1.0), vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn sweep_rejects_zero_step() {
        let _ = bounds(0.0, 1.0, 0.0);
    }
}
