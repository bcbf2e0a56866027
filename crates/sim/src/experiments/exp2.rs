//! Experiment 2 (paper §V.D, Figure 4): direct vs routed delivery.
//!
//! One topic with 100 publishers in Asia, 25 subscribers in Asia and 25 in
//! the USA, ratio 75 %. Three solver variants run over the `max_T` sweep:
//! standard MultiPub, MultiPub-D (direct only) and MultiPub-R (routed
//! only). Routed delivery reaches a lower minimum delivery time thanks to
//! the optimized inter-cloud links; MultiPub switches between modes to
//! stay on the cheap side of the envelope.

// lint:allow-file(panic) experiment driver over fixed paper-given parameters: constructor failures are programming errors, and every experiment's output is pinned by tier-1 tests that would fail first

// lint:allow-file(indexing) the per-region vectors are sized to the full Table I deployment whose region constants index them

use crate::horizon::CostHorizon;
use crate::population::{Population, PopulationSpec};
use crate::table::{dollars, millis, Table};
use multipub_core::assignment::{DeliveryMode, ModePolicy};

use multipub_core::optimizer::SweepSolver;
use multipub_data::ec2;

/// Parameters of experiment 2; `Default` reproduces the paper's setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp2Params {
    /// Number of publishers, homed in Asia (paper: 100).
    pub publishers: usize,
    /// Subscribers homed in Asia (paper: 25).
    pub asia_subscribers: usize,
    /// Subscribers homed in the USA (paper: 25).
    pub usa_subscribers: usize,
    /// Per-publisher rate in messages/second.
    pub rate_per_sec: f64,
    /// Publication size in bytes.
    pub size_bytes: u64,
    /// Delivery guarantee ratio in percent (paper: 75).
    pub ratio_percent: f64,
    /// Lowest `max_T` of the sweep, ms.
    pub max_t_start_ms: f64,
    /// Highest `max_T` of the sweep, ms.
    pub max_t_end_ms: f64,
    /// Sweep step, ms.
    pub step_ms: f64,
    /// Observation-interval length in seconds.
    pub interval_secs: f64,
    /// RNG seed for the client population.
    pub seed: u64,
}

impl Default for Exp2Params {
    fn default() -> Self {
        Exp2Params {
            publishers: 100,
            asia_subscribers: 25,
            usa_subscribers: 25,
            rate_per_sec: 1.0,
            size_bytes: 1024,
            ratio_percent: 75.0,
            max_t_start_ms: 80.0,
            max_t_end_ms: 200.0,
            step_ms: 4.0,
            interval_secs: 60.0,
            seed: 2017,
        }
    }
}

/// One variant's outcome at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantPoint {
    /// Achieved delivery-time percentile, ms.
    pub delivery_ms: f64,
    /// Cost extrapolated to one day, dollars.
    pub cost_per_day: f64,
    /// Whether the bound was met.
    pub feasible: bool,
    /// Selected delivery mode.
    pub mode: DeliveryMode,
}

/// One sweep point of Figure 4: the three variants side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp2Row {
    /// The delivery bound `max_T` for this point, ms.
    pub max_t_ms: f64,
    /// Standard MultiPub (modes free).
    pub multipub: VariantPoint,
    /// MultiPub-D: direct delivery only.
    pub direct_only: VariantPoint,
    /// MultiPub-R: routed delivery only.
    pub routed_only: VariantPoint,
}

/// Full result of experiment 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Exp2Result {
    /// One row per sweep point.
    pub rows: Vec<Exp2Row>,
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
        for row in &self.rows {
            table.push_row([
                millis(row.max_t_ms),
                millis(row.multipub.delivery_ms),
                millis(row.direct_only.delivery_ms),
                millis(row.routed_only.delivery_ms),
                dollars(row.multipub.cost_per_day),
                dollars(row.direct_only.cost_per_day),
                dollars(row.routed_only.cost_per_day),
                row.multipub.mode.to_string(),
            ]);
        }
        table
    }

    /// Minimum achievable delivery time of a variant over the sweep
    /// (the paper reports 110 ms for MultiPub-D and 94 ms for MultiPub-R).
    pub fn min_delivery_ms(&self, select: impl Fn(&Exp2Row) -> VariantPoint) -> f64 {
        self.rows.iter().map(|r| select(r).delivery_ms).fold(f64::INFINITY, f64::min)
    }
}

/// Runs experiment 2.
pub fn run(params: &Exp2Params) -> Exp2Result {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();
    let mut pubs_per_region = vec![0usize; regions.len()];
    let mut subs_per_region = vec![0usize; regions.len()];
    pubs_per_region[ec2::regions::AP_NORTHEAST_1.index()] = params.publishers;
    subs_per_region[ec2::regions::AP_NORTHEAST_1.index()] = params.asia_subscribers;
    subs_per_region[ec2::regions::US_EAST_1.index()] = params.usa_subscribers;
    let spec = PopulationSpec {
        pubs_per_region,
        subs_per_region,
        rate_per_sec: params.rate_per_sec,
        size_bytes: params.size_bytes,
    };
    let population = Population::generate(&spec, &inter, params.seed);
    let workload = population.workload(params.interval_secs);
    let horizon = CostHorizon::per_day(params.interval_secs);

    // One evaluation pass per solver variant covers the whole sweep.
    let sweeper = |policy: ModePolicy| -> SweepSolver {
        SweepSolver::with_options(&regions, &inter, &workload, params.ratio_percent, policy)
            .expect("experiment-2 workload is non-empty")
    };
    let any = sweeper(ModePolicy::Any);
    let direct = sweeper(ModePolicy::DirectOnly);
    let routed = sweeper(ModePolicy::RoutedOnly);
    let point = |sweep: &SweepSolver, max_t: f64| -> VariantPoint {
        let solution = sweep.solve_at(max_t).expect("valid sweep point");
        VariantPoint {
            delivery_ms: solution.evaluation().percentile_ms(),
            cost_per_day: horizon.scale(solution.evaluation().cost_dollars()),
            feasible: solution.is_feasible(),
            mode: solution.configuration().mode(),
        }
    };

    let rows = super::sweep(params.max_t_start_ms, params.max_t_end_ms, params.step_ms)
        .into_iter()
        .map(|max_t| Exp2Row {
            max_t_ms: max_t,
            multipub: point(&any, max_t),
            direct_only: point(&direct, max_t),
            routed_only: point(&routed, max_t),
        })
        .collect();

    Exp2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Exp2Params {
        Exp2Params {
            publishers: 10,
            asia_subscribers: 5,
            usa_subscribers: 5,
            step_ms: 20.0,
            ..Exp2Params::default()
        }
    }

    #[test]
    fn multipub_envelope_dominates_both_variants() {
        let result = run(&quick_params());
        for row in &result.rows {
            // The unrestricted solver can always copy either variant.
            assert!(row.multipub.cost_per_day <= row.direct_only.cost_per_day + 1e-9);
            assert!(row.multipub.cost_per_day <= row.routed_only.cost_per_day + 1e-9);
        }
    }

    #[test]
    fn routed_reaches_lower_min_delivery_than_direct() {
        let result = run(&quick_params());
        let min_routed = result.min_delivery_ms(|r| r.routed_only);
        let min_direct = result.min_delivery_ms(|r| r.direct_only);
        // Optimized inter-cloud links make routed faster end-to-end for
        // the cross-Pacific pairs (the paper's 94 ms vs 110 ms effect).
        assert!(
            min_routed <= min_direct,
            "routed min {min_routed} should not exceed direct min {min_direct}"
        );
    }

    #[test]
    fn all_rows_cover_the_sweep() {
        let params = quick_params();
        let result = run(&params);
        assert_eq!(result.rows.len(), super::super::sweep(80.0, 200.0, 20.0).len());
        assert_eq!(result.table().len(), result.rows.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&quick_params()), run(&quick_params()));
    }
}
