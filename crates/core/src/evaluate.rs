//! Evaluation of one configuration against a topic workload: the
//! delivery-time percentile `D̃_C` and the bandwidth cost `Z_C`.
//!
//! [`TopicEvaluator`] checks the region dimensions once per solve and then
//! evaluates configurations with no per-configuration allocation: each
//! client's serving region is [`crate::delivery::closest_region`], each
//! pair's delivery time is Eq. 1 or Eq. 2 from [`crate::delivery`], and the
//! samples are reduced by [`weighted_percentile`].

// lint:allow-file(indexing) hot-path kernel evaluated thousands of times per solve: every slice access is bounded by the region-count equality checks in `TopicEvaluator::new`

use crate::assignment::{Configuration, DeliveryMode};
use crate::constraint::DeliveryConstraint;
use crate::delivery::{
    closest_region, direct_delivery_ms, routed_delivery_ms, weighted_percentile, WeightedSample,
};
use crate::error::Error;
use crate::ids::RegionId;
use crate::latency::InterRegionMatrix;
use crate::region::RegionSet;
use crate::workload::TopicWorkload;
use serde::{Deserialize, Serialize};

/// The outcome of evaluating one configuration: its delivery-time
/// percentile and its bandwidth cost for the observation interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigEvaluation {
    configuration: Configuration,
    percentile_ms: f64,
    cost_dollars: f64,
}

impl ConfigEvaluation {
    /// The evaluated configuration.
    pub fn configuration(&self) -> Configuration {
        self.configuration
    }

    /// The delivery-time percentile `D̃_C` in milliseconds (Eq. 6).
    pub fn percentile_ms(&self) -> f64 {
        self.percentile_ms
    }

    /// The bandwidth cost `Z_C` in dollars for the interval (Eq. 3–4).
    pub fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    /// Number of serving regions.
    pub fn region_count(&self) -> u32 {
        self.configuration.region_count()
    }

    /// Whether this evaluation satisfies `constraint`.
    pub fn is_feasible(&self, constraint: &DeliveryConstraint) -> bool {
        constraint.is_met_by(self.percentile_ms)
    }
}

/// Reusable scratch buffers for [`TopicEvaluator::evaluate_into`], letting
/// the optimizer evaluate thousands of configurations without
/// re-allocating.
#[derive(Debug, Default)]
pub struct EvalScratch {
    samples: Vec<WeightedSample>,
    sub_regions: Vec<RegionId>,
    sub_counts: Vec<u64>,
}

/// Evaluates configurations for one topic against one workload snapshot.
///
/// ```
/// use multipub_core::prelude::*;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let regions = RegionSet::new(vec![
///     Region::new("a", "A", 0.02, 0.09),
///     Region::new("b", "B", 0.09, 0.14),
/// ])?;
/// let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]])?;
/// let mut w = TopicWorkload::new(2);
/// w.add_publisher(Publisher::new(
///     ClientId(0), vec![5.0, 60.0], MessageBatch::uniform(10, 1024))?)?;
/// w.add_subscriber(Subscriber::new(ClientId(1), vec![60.0, 5.0])?)?;
/// let eval = TopicEvaluator::new(&regions, &inter, &w)?;
/// let constraint = DeliveryConstraint::new(100.0, 200.0)?;
/// let both = Configuration::new(AssignmentVector::all(2)?, DeliveryMode::Routed);
/// let result = eval.evaluate(both, &constraint);
/// // 5 (pub→R0) + 40 (R0→R1) + 5 (R1→sub) = 50 ms.
/// assert_eq!(result.percentile_ms(), 50.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TopicEvaluator<'a> {
    regions: &'a RegionSet,
    inter: &'a InterRegionMatrix,
    workload: &'a TopicWorkload,
    total_deliveries: u64,
}

impl<'a> TopicEvaluator<'a> {
    /// Builds an evaluator over one workload snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LatencyDimension`] when the region set, the
    /// inter-region matrix and the workload disagree on the number of
    /// regions.
    pub fn new(
        regions: &'a RegionSet,
        inter: &'a InterRegionMatrix,
        workload: &'a TopicWorkload,
    ) -> Result<Self, Error> {
        let n = regions.len();
        if inter.len() != n {
            return Err(Error::LatencyDimension { expected: n, got: inter.len() });
        }
        if workload.n_regions() != n {
            return Err(Error::LatencyDimension { expected: n, got: workload.n_regions() });
        }
        Ok(TopicEvaluator {
            regions,
            inter,
            workload,
            total_deliveries: workload.total_deliveries(),
        })
    }

    /// The region set this evaluator works over.
    pub fn regions(&self) -> &RegionSet {
        self.regions
    }

    /// The inter-region latency matrix.
    pub fn inter(&self) -> &InterRegionMatrix {
        self.inter
    }

    /// The workload snapshot being evaluated.
    pub fn workload(&self) -> &TopicWorkload {
        self.workload
    }

    /// Total deliveries `|𝔻_C|` in the interval.
    pub fn total_deliveries(&self) -> u64 {
        self.total_deliveries
    }

    /// Evaluates one configuration, allocating fresh scratch space.
    pub fn evaluate(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
    ) -> ConfigEvaluation {
        let mut scratch = EvalScratch::default();
        self.evaluate_into(configuration, constraint, &mut scratch)
    }

    /// Evaluates one configuration reusing caller-provided scratch buffers.
    pub fn evaluate_into(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
        scratch: &mut EvalScratch,
    ) -> ConfigEvaluation {
        let assignment = configuration.assignment();
        let subs = self.workload.subscribers();
        let pubs = self.workload.publishers();

        // Closest serving region and per-region weights for subscribers.
        scratch.sub_regions.clear();
        scratch.sub_counts.clear();
        scratch.sub_counts.resize(self.regions.len(), 0);
        for sub in subs {
            let region = closest_region(sub.latencies(), assignment);
            scratch.sub_regions.push(region);
            scratch.sub_counts[region.index()] += sub.weight();
        }

        // Delivery-time samples, one per (publisher, subscriber) pair,
        // weighted by message count × subscriber weight.
        scratch.samples.clear();
        let mut total_bytes = 0u64;
        let mut forwarding_cost = 0.0f64;
        let extra_hops = assignment.count().saturating_sub(1) as f64;
        for publisher in pubs {
            let batch = publisher.batch();
            total_bytes += batch.total_bytes();
            let pub_lat = publisher.latencies();
            let pub_home = match configuration.mode() {
                DeliveryMode::Routed => Some(closest_region(pub_lat, assignment)),
                DeliveryMode::Direct => None,
            };
            if let Some(home) = pub_home {
                forwarding_cost +=
                    batch.total_bytes() as f64 * extra_hops * self.regions.alpha_per_byte(home);
            }
            if batch.count() == 0 {
                continue;
            }
            for (sub, &sub_region) in subs.iter().zip(scratch.sub_regions.iter()) {
                let time_ms = match pub_home {
                    None => direct_delivery_ms(pub_lat, sub.latencies(), sub_region),
                    Some(home) => {
                        routed_delivery_ms(pub_lat, sub.latencies(), home, sub_region, self.inter)
                    }
                };
                scratch
                    .samples
                    .push(WeightedSample { time_ms, weight: batch.count() * sub.weight() });
            }
        }

        let rank = constraint.rank(self.total_deliveries);
        let percentile_ms = weighted_percentile(&mut scratch.samples, rank);

        let fanout_rate = crate::cost::fanout_rate_per_byte(self.regions, &scratch.sub_counts);
        let cost_dollars = total_bytes as f64 * fanout_rate + forwarding_cost;

        ConfigEvaluation { configuration, percentile_ms, cost_dollars }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentVector;
    use crate::ids::ClientId;
    use crate::region::Region;
    use crate::workload::{MessageBatch, Publisher, Subscriber};

    fn regions3() -> RegionSet {
        RegionSet::new(vec![
            Region::new("r0", "A", 0.02, 0.09),
            Region::new("r1", "B", 0.09, 0.14),
            Region::new("r2", "C", 0.16, 0.25),
        ])
        .unwrap()
    }

    fn inter3() -> InterRegionMatrix {
        InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 120.0],
            vec![90.0, 120.0, 0.0],
        ])
        .unwrap()
    }

    fn workload3() -> TopicWorkload {
        let mut w = TopicWorkload::new(3);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![10.0, 60.0, 100.0], MessageBatch::uniform(5, 1000))
                .unwrap(),
        )
        .unwrap();
        w.add_publisher(
            Publisher::new(ClientId(1), vec![95.0, 55.0, 12.0], MessageBatch::uniform(3, 2000))
                .unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(2), vec![8.0, 66.0, 99.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(3), vec![70.0, 9.0, 80.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::with_weight(ClientId(4), vec![88.0, 77.0, 6.0], 2).unwrap())
            .unwrap();
        w
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = regions3();
        let inter2 = InterRegionMatrix::zeros(2).unwrap();
        let w = workload3();
        assert!(TopicEvaluator::new(&r, &inter2, &w).is_err());
        let w2 = TopicWorkload::new(2);
        let inter = inter3();
        assert!(TopicEvaluator::new(&r, &inter, &w2).is_err());
    }

    #[test]
    fn direct_percentile_hand_checked() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Direct);
        let c100 = DeliveryConstraint::new(100.0, 1000.0).unwrap();
        // All-regions direct: every subscriber is served by its closest region.
        // Pair times: P0→S2: 10+8=18 (w 5), P0→S3: 60+9=69 (w 5),
        // P0→S4: 100+6=106 (w 10), P1→S2: 95+8=103 (w 3),
        // P1→S3: 55+9=64 (w 3), P1→S4: 12+6=18 (w 6).
        // Total deliveries = (5+3)×4 = 32. Max = 106.
        let out = eval.evaluate(config, &c100);
        assert_eq!(out.percentile_ms(), 106.0);
        // Median-ish rank: ceil(0.5×32)=16 → sorted cumulative:
        // 18(w11) → 11, 64(w3) → 14, 69(w5) → 19 ≥ 16 → 69.
        let c50 = DeliveryConstraint::new(50.0, 1000.0).unwrap();
        assert_eq!(eval.evaluate(config, &c50).percentile_ms(), 69.0);
    }

    #[test]
    fn routed_percentile_hand_checked() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Routed);
        let c100 = DeliveryConstraint::new(100.0, 1000.0).unwrap();
        // P0 home = R0 (10), P1 home = R2 (12).
        // P0→S2 (R0): 10+0+8=18; P0→S3 (R1): 10+40+9=59; P0→S4 (R2): 10+90+6=106.
        // P1→S2 (R0): 12+90+8=110; P1→S3 (R1): 12+120+9=141; P1→S4 (R2): 12+0+6=18.
        let out = eval.evaluate(config, &c100);
        assert_eq!(out.percentile_ms(), 141.0);
    }

    #[test]
    fn cost_matches_cost_module() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        for mask in 1u32..8 {
            for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                let config =
                    Configuration::new(AssignmentVector::from_mask(mask, 3).unwrap(), mode);
                let out = eval.evaluate(config, &constraint);
                let reference = crate::cost::topic_cost_dollars(&r, &w, config);
                assert!(
                    (out.cost_dollars() - reference).abs() < 1e-15,
                    "mask {mask} mode {mode}: {} vs {reference}",
                    out.cost_dollars()
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_gives_identical_results() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        let mut scratch = EvalScratch::default();
        for mask in 1u32..8 {
            let config = Configuration::new(
                AssignmentVector::from_mask(mask, 3).unwrap(),
                DeliveryMode::Routed,
            );
            let a = eval.evaluate(config, &constraint);
            let b = eval.evaluate_into(config, &constraint, &mut scratch);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_traffic_yields_zero_percentile_and_cost() {
        let r = regions3();
        let inter = inter3();
        let mut w = TopicWorkload::new(3);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![1.0, 2.0, 3.0], MessageBatch::empty()).unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(1), vec![1.0, 2.0, 3.0]).unwrap()).unwrap();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(95.0, 10.0).unwrap();
        let config = Configuration::new(AssignmentVector::all(3).unwrap(), DeliveryMode::Direct);
        let out = eval.evaluate(config, &constraint);
        assert_eq!(out.percentile_ms(), 0.0);
        assert_eq!(out.cost_dollars(), 0.0);
        assert!(out.is_feasible(&constraint));
    }
}
