//! Evaluation of one configuration against a topic workload: the
//! delivery-time percentile `D̃_C` and the bandwidth cost `Z_C`.
//!
//! [`TopicEvaluator`] checks the region dimensions once per solve and then
//! evaluates configurations with no per-configuration allocation, in the
//! stages §IV.B's selection rule consumes them:
//!
//! 1. **attribute** — each client's serving region
//!    ([`crate::delivery::closest_region`]), the per-region subscriber
//!    weights and from them the Eq. 3–4 cost ([`crate::cost`]):
//!    `O((N_P + N_S) × N_R)`, no delivery time computed;
//! 2. (a) **count test** — "is `D̃_C ≤ t`?", answered by streaming Eq. 1–2
//!    over the attributed pairs and adding up the weight of those within
//!    `t`, stopping as soon as the rank `n^T` is reached or out of reach: no
//!    buffer, no order; (b) **exact percentile** — the same pair times
//!    materialised and reduced by [`weighted_percentile`].
//!
//! [`TopicEvaluator::evaluate_into`] is stage 1 followed by stage 2b. The
//! optimizer instead asks stage by stage, through the crate's `Candidate`
//! trait: cost and region count decide most comparisons before any delivery
//! time is looked at. Both halves of stage 2 read a pair's time from the one
//! `for_each_pair`, so `D̃_C ≤ t` and the count test can never disagree by a
//! rounding.

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
use crate::workload::{Publisher, TopicWorkload};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell, RefMut};

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

/// What §IV.B's selection rule may ask of a configuration, cheapest answer
/// first: cost and region count are known up front, the delivery times are
/// looked at only when a comparison still depends on them.
///
/// A cached [`ConfigEvaluation`] answers everything from its fields; a
/// [`StagedCandidate`] runs stage 2 of the evaluation on demand.
pub(crate) trait Candidate {
    /// The configuration in question.
    fn configuration(&self) -> Configuration;

    /// Its bandwidth cost `Z_C` (Eq. 3–4).
    fn cost_dollars(&self) -> f64;

    /// Whether `D̃_C ≤ bound_ms` — the Eq. 6 test when `bound_ms` is `max_T`.
    fn delivers_within(&self, bound_ms: f64) -> bool;

    /// The exact delivery-time percentile `D̃_C`.
    fn percentile_ms(&self) -> f64;

    /// Whether answering so far took a look at the delivery times.
    fn examined(&self) -> bool;

    /// Number of serving regions.
    fn region_count(&self) -> u32 {
        self.configuration().region_count()
    }

    /// Everything known about the configuration, exact percentile included.
    fn evaluation(&self) -> ConfigEvaluation {
        ConfigEvaluation {
            configuration: self.configuration(),
            percentile_ms: self.percentile_ms(),
            cost_dollars: self.cost_dollars(),
        }
    }
}

impl Candidate for ConfigEvaluation {
    fn configuration(&self) -> Configuration {
        self.configuration
    }

    fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    fn delivers_within(&self, bound_ms: f64) -> bool {
        self.percentile_ms <= bound_ms
    }

    fn percentile_ms(&self) -> f64 {
        self.percentile_ms
    }

    fn examined(&self) -> bool {
        true
    }
}

/// Reusable scratch buffers for [`TopicEvaluator::evaluate_into`], letting
/// the optimizer evaluate thousands of configurations without
/// re-allocating.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Stage 1: the configuration the three vectors below describe.
    attributed: Option<Configuration>,
    /// Stage 1: each subscriber's serving region `R^S`.
    sub_regions: Vec<RegionId>,
    /// Stage 1: subscriber weight per serving region, `N_S^{R_i}`.
    sub_counts: Vec<u64>,
    /// Stage 1: each publisher's home region `R^P` (routed), `None` (direct).
    pub_homes: Vec<Option<RegionId>>,
    /// Stage 2b: the weighted pair samples.
    samples: Vec<WeightedSample>,
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
    subscriber_weight: u64,
    total_deliveries: u64,
    total_bytes: u64,
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
        let subscriber_weight = workload.subscriber_weight();
        Ok(TopicEvaluator {
            regions,
            inter,
            workload,
            subscriber_weight,
            total_deliveries: subscriber_weight * workload.total_messages(),
            total_bytes: crate::cost::total_bytes(workload),
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

    /// Evaluates one configuration reusing caller-provided scratch buffers:
    /// stage 1, then the exact percentile.
    pub fn evaluate_into(
        &self,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
        scratch: &mut EvalScratch,
    ) -> ConfigEvaluation {
        let cost_dollars = self.attribute(configuration, scratch);
        let percentile_ms = self.percentile_ms(constraint.rank(self.total_deliveries), scratch);
        ConfigEvaluation { configuration, percentile_ms, cost_dollars }
    }

    /// Stage 1 of `configuration`, as a [`Candidate`] that runs stage 2 on
    /// `scratch` if and when the selection rule asks about delivery times.
    /// `rank` is `n^T` of Eq. 5.
    pub(crate) fn stage<'s>(
        &'s self,
        configuration: Configuration,
        rank: u64,
        scratch: &'s RefCell<EvalScratch>,
    ) -> StagedCandidate<'s, 'a> {
        let cost_dollars = self.attribute(configuration, &mut scratch.borrow_mut());
        StagedCandidate {
            evaluator: self,
            scratch,
            configuration,
            cost_dollars,
            rank,
            percentile_ms: Cell::new(None),
            examined: Cell::new(false),
        }
    }

    /// Stage 1: attributes every client to its closest serving region under
    /// `configuration`, leaves the attribution in `scratch` and returns the
    /// configuration's cost (Eq. 3–4).
    fn attribute(&self, configuration: Configuration, scratch: &mut EvalScratch) -> f64 {
        let assignment = configuration.assignment();
        let publishers = self.workload.publishers();
        let subscribers = self.workload.subscribers();
        scratch.attributed = Some(configuration);
        scratch.sub_regions.clear();
        scratch.sub_regions.reserve(subscribers.len());
        scratch.sub_counts.clear();
        scratch.sub_counts.resize(self.regions.len(), 0);
        for sub in subscribers {
            let region = closest_region(sub.latencies(), assignment);
            scratch.sub_regions.push(region);
            scratch.sub_counts[region.index()] += sub.weight();
        }
        scratch.pub_homes.clear();
        scratch.pub_homes.extend(publishers.iter().map(|publisher| match configuration.mode() {
            DeliveryMode::Routed => Some(closest_region(publisher.latencies(), assignment)),
            DeliveryMode::Direct => None,
        }));
        let homes = publishers.iter().zip(&scratch.pub_homes);
        let forwarding = crate::cost::forwarding_dollars(
            self.regions,
            assignment,
            homes
                .filter_map(|(publisher, home)| home.map(|r| (publisher.batch().total_bytes(), r))),
        );
        crate::cost::cost_dollars(self.regions, self.total_bytes, &scratch.sub_counts, forwarding)
    }

    /// The publishers that sent anything in the interval, each with its
    /// attributed home region.
    fn senders<'s>(
        &self,
        pub_homes: &'s [Option<RegionId>],
    ) -> impl Iterator<Item = (&'a Publisher, Option<RegionId>)> + 's
    where
        'a: 's,
    {
        let homes = pub_homes.iter().copied();
        self.workload.publishers().iter().zip(homes).filter(|(p, _)| p.batch().count() > 0)
    }

    /// Calls `visit(time_ms, weight)` for each subscriber of one publisher:
    /// the pair's delivery time (Eq. 1 without a home region, Eq. 2 with one)
    /// and how many deliveries share it, message count × subscriber weight.
    ///
    /// The only place stage 2 computes a delivery time.
    #[inline]
    fn for_each_pair(
        &self,
        publisher: &Publisher,
        home: Option<RegionId>,
        sub_regions: &[RegionId],
        mut visit: impl FnMut(f64, u64),
    ) {
        let from = publisher.latencies();
        let messages = publisher.batch().count();
        let pairs = self.workload.subscribers().iter().zip(sub_regions);
        match home {
            None => pairs.for_each(|(sub, &region)| {
                visit(direct_delivery_ms(from, sub.latencies(), region), messages * sub.weight())
            }),
            Some(home) => pairs.for_each(|(sub, &region)| {
                let time_ms = routed_delivery_ms(from, sub.latencies(), home, region, self.inter);
                visit(time_ms, messages * sub.weight())
            }),
        }
    }

    /// Stage 2a: whether the `rank`-th smallest delivery time under the
    /// attribution in `scratch` is at most `bound_ms` — i.e. whether the
    /// deliveries within `bound_ms` number at least `rank`. Decides as soon
    /// as they do, or as soon as those beyond it leave too few.
    fn delivers_within(&self, bound_ms: f64, rank: u64, scratch: &EvalScratch) -> bool {
        if rank == 0 {
            return 0.0 <= bound_ms; // no deliveries: `D̃_C` is 0.0 by convention
        }
        let may_miss = self.total_deliveries - rank;
        let (mut seen, mut within) = (0u64, 0u64);
        for (publisher, home) in self.senders(&scratch.pub_homes) {
            self.for_each_pair(publisher, home, &scratch.sub_regions, |time_ms, weight| {
                within += if time_ms <= bound_ms { weight } else { 0 };
            });
            seen += publisher.batch().count() * self.subscriber_weight;
            if within >= rank {
                return true;
            }
            if seen - within > may_miss {
                return false;
            }
        }
        within >= rank
    }

    /// Stage 2b: the `rank`-th smallest delivery time under the attribution
    /// in `scratch`.
    fn percentile_ms(&self, rank: u64, scratch: &mut EvalScratch) -> f64 {
        let EvalScratch { samples, sub_regions, pub_homes, .. } = scratch;
        samples.clear();
        samples.reserve(self.workload.publisher_count() * self.workload.subscriber_count());
        for (publisher, home) in self.senders(pub_homes) {
            self.for_each_pair(publisher, home, sub_regions, |time_ms, weight| {
                samples.push(WeightedSample { time_ms, weight });
            });
        }
        weighted_percentile(samples, rank)
    }
}

/// A configuration evaluated as far as stage 1, answering the selection
/// rule's questions about delivery times by running stage 2 when asked.
///
/// Candidates staged on one scratch share its attribution buffers; one that
/// is asked after a later one was staged re-attributes itself first.
#[derive(Debug)]
pub(crate) struct StagedCandidate<'s, 'a> {
    evaluator: &'s TopicEvaluator<'a>,
    scratch: &'s RefCell<EvalScratch>,
    configuration: Configuration,
    cost_dollars: f64,
    rank: u64,
    percentile_ms: Cell<Option<f64>>,
    examined: Cell<bool>,
}

impl StagedCandidate<'_, '_> {
    /// The scratch, holding this candidate's attribution. Only stage 2 asks
    /// for it, so asking marks the candidate examined.
    fn attribution(&self) -> RefMut<'_, EvalScratch> {
        self.examined.set(true);
        let mut scratch = self.scratch.borrow_mut();
        if scratch.attributed != Some(self.configuration) {
            self.evaluator.attribute(self.configuration, &mut scratch);
        }
        scratch
    }
}

impl Candidate for StagedCandidate<'_, '_> {
    fn configuration(&self) -> Configuration {
        self.configuration
    }

    fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    fn delivers_within(&self, bound_ms: f64) -> bool {
        match self.percentile_ms.get() {
            Some(percentile_ms) => percentile_ms <= bound_ms,
            None => self.evaluator.delivers_within(bound_ms, self.rank, &self.attribution()),
        }
    }

    fn percentile_ms(&self) -> f64 {
        self.percentile_ms.get().unwrap_or_else(|| {
            let percentile_ms = self.evaluator.percentile_ms(self.rank, &mut self.attribution());
            self.percentile_ms.set(Some(percentile_ms));
            percentile_ms
        })
    }

    fn examined(&self) -> bool {
        self.examined.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentVector;
    use crate::ids::ClientId;
    use crate::region::Region;
    use crate::testing::{random_instance, Shape, SplitMix64};
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
                // One Eq. 3–4 kernel behind both: equal to the bit.
                assert_eq!(
                    out.cost_dollars().to_bits(),
                    reference.to_bits(),
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
        // The count test agrees that nothing was late.
        let scratch = RefCell::new(EvalScratch::default());
        assert!(eval.stage(config, 0, &scratch).delivers_within(constraint.max_ms()));
    }

    /// The neighbouring floats of a non-negative `t`.
    fn neighbours(t: f64) -> [f64; 2] {
        let down = if t == 0.0 { -f64::from_bits(1) } else { f64::from_bits(t.to_bits() - 1) };
        [down, f64::from_bits(t.to_bits() + 1)]
    }

    /// Stage 2a is `D̃_C ≤ t` — at every delivery time that occurs, one ulp
    /// to either side of it, and at the ends of the range.
    #[test]
    fn count_test_agrees_with_the_percentile_at_every_threshold() {
        let mut rng = SplitMix64(0xC0_0471_7E57);
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let (instances, clients) = if cfg!(miri) { (4, 6) } else { (48, 20) };
        for instance in 0..instances {
            let shape = Shape {
                regions: (2, 8),
                publishers: clients,
                subscribers: clients,
                fractional: instance % 2 == 1,
            };
            let (regions, inter, workload) = random_instance(&mut rng, &shape);
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let ratio = [50.0, 75.0, 95.0, 100.0][instance % 4];
            let constraint = DeliveryConstraint::new(ratio, 1.0).unwrap();
            let rank = constraint.rank(evaluator.total_deliveries());
            let mut scratch = EvalScratch::default();
            for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                let mask = rng.range(1, (1 << regions.len()) - 1) as u32;
                let assignment = AssignmentVector::from_mask(mask, regions.len()).unwrap();
                let config = Configuration::new(assignment, mode);
                let percentile = evaluator.evaluate(config, &constraint).percentile_ms();
                // Leaves every pair's time in `scratch.samples`.
                evaluator.evaluate_into(config, &constraint, &mut scratch);
                let mut thresholds: Vec<f64> = scratch.samples.iter().map(|s| s.time_ms).collect();
                thresholds.sort_unstable_by(f64::total_cmp);
                thresholds.dedup();
                assert!(thresholds.contains(&percentile));
                let around: Vec<f64> = thresholds.iter().flat_map(|&t| neighbours(t)).collect();
                for t in thresholds.into_iter().chain(around).chain([0.0, f64::MAX]) {
                    assert_eq!(
                        evaluator.delivers_within(t, rank, &scratch),
                        percentile <= t,
                        "instance {instance}, {config}, {ratio} %: D̃ = {percentile}, t = {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn staged_candidate_answers_like_the_full_evaluation() {
        let r = regions3();
        let inter = inter3();
        let w = workload3();
        let eval = TopicEvaluator::new(&r, &inter, &w).unwrap();
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        let rank = constraint.rank(eval.total_deliveries());
        let scratch = RefCell::new(EvalScratch::default());
        let config =
            |mask, mode| Configuration::new(AssignmentVector::from_mask(mask, 3).unwrap(), mode);
        let first = eval.stage(config(0b011, DeliveryMode::Routed), rank, &scratch);
        let second = eval.stage(config(0b100, DeliveryMode::Direct), rank, &scratch);
        // Cost and region count come with stage 1; no delivery time yet.
        for staged in [&first, &second] {
            let full = eval.evaluate(staged.configuration(), &constraint);
            assert_eq!(staged.cost_dollars().to_bits(), full.cost_dollars().to_bits());
            assert_eq!(Candidate::region_count(staged), full.region_count());
            assert!(!staged.examined());
        }
        // `first` is asked after `second` took over the scratch: it finds its
        // own attribution again, and remembers its percentile once computed.
        let full = eval.evaluate(first.configuration(), &constraint);
        assert!(first.delivers_within(full.percentile_ms()));
        assert!(first.examined() && !second.examined());
        assert_eq!(second.evaluation(), eval.evaluate(second.configuration(), &constraint));
        assert_eq!(first.evaluation(), full);
        assert!(!first.delivers_within(full.percentile_ms() - 1.0));
    }
}
