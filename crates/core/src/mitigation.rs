//! Handling clients experiencing high latencies (paper §IV.D).
//!
//! The delivery constraint protects a *percentile* of deliveries, so a
//! client whose connection degrades can end up with **all** of its
//! deliveries above `max_T` without making the chosen configuration
//! infeasible. The controller periodically scans for such *stragglers* and
//! checks whether force-adding a region to the topic's assignment would
//! meet — or significantly improve — their delivery times. Forced regions
//! are tracked and retracted once no straggler needs them anymore.
//!
//! A straggler's delivery times are the model's own: serving regions from
//! [`closest_region`] and Eq. 1–2 from [`crate::delivery`], exactly what the
//! evaluator feeds the percentile.
//!
//! A subscriber's *best* delivery is a minimum over the sending publishers,
//! and which publisher attains it hardly depends on the subscriber: Eq. 1–2
//! add the subscriber's own term last, and IEEE addition of finite
//! non-negative terms is monotone (`x ≤ x'` gives `fl(x + y) ≤ fl(x' + y)`),
//! so the minimum is attained by the sender closest to the subscriber's
//! serving region (direct), or by one of the senders closest to their own
//! home regions (routed, one per home). The scan therefore finds those
//! senders once per configuration (`Fastest`, compared by single
//! latencies, never by sums) and evaluates Eq. 1–2 on at most `|A|` pairs per
//! subscriber instead of on every publisher — the same minimum to the bit.

// lint:allow-file(indexing) mitigation scan shares the evaluator's invariants: subscriber indices are enumerated from the workload itself and region ids are bounded by the dimension checks at `TopicEvaluator::new`

use crate::assignment::{Configuration, DeliveryMode};
use crate::constraint::DeliveryConstraint;
use crate::delivery::{closest_region, direct_delivery_ms, routed_delivery_ms};
use crate::evaluate::TopicEvaluator;
use crate::ids::RegionId;
use crate::workload::Publisher;
use serde::{Deserialize, Serialize};

/// Tuning knobs for the straggler scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MitigationPolicy {
    /// Minimum relative improvement of a straggler's best delivery time for
    /// a forced region to be worth adding even when the bound still cannot
    /// be met (e.g. `0.2` = 20 % faster). The paper asks for the needs to
    /// be "met (if possible), or improved significantly".
    pub min_improvement: f64,
}

impl Default for MitigationPolicy {
    fn default() -> Self {
        MitigationPolicy { min_improvement: 0.2 }
    }
}

/// A straggler found by [`find_stragglers`]: a subscriber whose *every*
/// delivery in the interval exceeded the bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Index of the subscriber within the workload's subscriber list.
    pub subscriber_index: usize,
    /// The straggler's best (fastest) delivery time under the current
    /// configuration, in milliseconds.
    pub best_delivery_ms: f64,
}

/// The outcome of one mitigation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationOutcome {
    /// Regions force-added this round (possibly empty).
    pub added: Vec<RegionId>,
    /// Stragglers that remain unhelped even after additions.
    pub unresolved: Vec<Straggler>,
    /// The configuration after applying the additions.
    pub configuration: Configuration,
}

/// Under one configuration, the senders a subscriber's fastest delivery can
/// come from.
struct Fastest<'e> {
    evaluator: &'e TopicEvaluator<'e>,
    configuration: Configuration,
    /// Per region: the sender closest to it (direct), the closest of the
    /// senders it is home to (routed); ties to the first. `None` for a
    /// region without such a sender, and for every unassigned region.
    closest: Vec<Option<&'e Publisher>>,
}

impl<'e> Fastest<'e> {
    fn new(evaluator: &'e TopicEvaluator<'e>, configuration: Configuration) -> Self {
        let assignment = configuration.assignment();
        let mut closest: Vec<Option<&Publisher>> = vec![None; evaluator.regions().len()];
        let senders = evaluator.workload().publishers().iter().filter(|p| p.batch().count() > 0);
        for publisher in senders {
            let from = publisher.latencies();
            let mut offer = |region: RegionId| {
                let best = &mut closest[region.index()];
                if best.is_none_or(|b| from[region.index()] < b.latencies()[region.index()]) {
                    *best = Some(publisher);
                }
            };
            match configuration.mode() {
                DeliveryMode::Direct => assignment.iter().for_each(&mut offer),
                DeliveryMode::Routed => offer(closest_region(from, assignment)),
            }
        }
        Fastest { evaluator, configuration, closest }
    }

    /// Fastest delivery the subscriber can observe, across all publishers
    /// with traffic. `None` when no publisher sent anything.
    fn best_delivery_ms(&self, subscriber_index: usize) -> Option<f64> {
        let to = self.evaluator.workload().subscribers()[subscriber_index].latencies();
        let region = closest_region(to, self.configuration.assignment());
        match self.configuration.mode() {
            DeliveryMode::Direct => self.closest[region.index()]
                .map(|publisher| direct_delivery_ms(publisher.latencies(), to, region)),
            DeliveryMode::Routed => self
                .configuration
                .assignment()
                .iter()
                .filter_map(|home| {
                    let from = self.closest[home.index()]?.latencies();
                    Some(routed_delivery_ms(from, to, home, region, self.evaluator.inter()))
                })
                .reduce(f64::min),
        }
    }

    /// The subscribers whose best delivery exceeds the bound.
    fn stragglers(&self, constraint: &DeliveryConstraint) -> Vec<Straggler> {
        (0..self.evaluator.workload().subscriber_count())
            .filter_map(|subscriber_index| {
                let best_delivery_ms = self.best_delivery_ms(subscriber_index)?;
                (best_delivery_ms > constraint.max_ms())
                    .then_some(Straggler { subscriber_index, best_delivery_ms })
            })
            .collect()
    }
}

/// Scans for subscribers whose **best** delivery time under
/// `configuration` already exceeds the bound — every message they receive
/// is late, yet the percentile constraint cannot see them.
pub fn find_stragglers(
    evaluator: &TopicEvaluator<'_>,
    configuration: Configuration,
    constraint: &DeliveryConstraint,
) -> Vec<Straggler> {
    Fastest::new(evaluator, configuration).stragglers(constraint)
}

/// One mitigation round (§IV.D): for every straggler, tries force-adding
/// each unused region and keeps the addition that best serves the
/// straggler, provided it meets the bound or improves the straggler's best
/// delivery by at least [`MitigationPolicy::min_improvement`].
///
/// Returns the (possibly unchanged) configuration, the regions added, and
/// any stragglers that could not be helped.
pub fn mitigate(
    evaluator: &TopicEvaluator<'_>,
    configuration: Configuration,
    constraint: &DeliveryConstraint,
    policy: &MitigationPolicy,
) -> MitigationOutcome {
    let n_regions = evaluator.regions().len();
    let mut current = Fastest::new(evaluator, configuration);
    // Per unused region, the configuration as amended so far plus that
    // region: looked at on demand, forgotten when an amendment replaces them.
    let mut trials: Vec<Option<Fastest<'_>>> = (0..n_regions).map(|_| None).collect();
    let mut added = Vec::new();
    let mut unresolved = Vec::new();

    for straggler in current.stragglers(constraint) {
        // Re-check under the configuration as amended so far.
        let Some(best_now) = current.best_delivery_ms(straggler.subscriber_index) else {
            continue;
        };
        if best_now <= constraint.max_ms() {
            continue; // an earlier addition already fixed this one
        }
        let amended = current.configuration;
        let amended_with =
            |region| Configuration::new(amended.assignment().with(region), amended.mode());
        let mut best_candidate: Option<(f64, RegionId)> = None;
        for (idx, trial) in trials.iter_mut().enumerate() {
            let region = RegionId(idx as u8);
            if amended.assignment().contains(region) {
                continue;
            }
            let trial = trial.get_or_insert_with(|| Fastest::new(evaluator, amended_with(region)));
            let Some(best_with) = trial.best_delivery_ms(straggler.subscriber_index) else {
                continue;
            };
            let meets = best_with <= constraint.max_ms();
            let improves = best_with <= best_now * (1.0 - policy.min_improvement);
            if (meets || improves) && best_candidate.is_none_or(|(b, _)| best_with < b) {
                best_candidate = Some((best_with, region));
            }
        }
        match best_candidate {
            Some((_, region)) => {
                current = Fastest::new(evaluator, amended_with(region));
                trials.fill_with(|| None);
                added.push(region);
            }
            None => unresolved.push(straggler),
        }
    }

    MitigationOutcome { added, unresolved, configuration: current.configuration }
}

/// Retraction pass: removes forced regions that no longer help any
/// straggler — i.e. dropping the region leaves every subscriber that was
/// within the bound still within the bound. Returns the regions retained.
pub fn retract_unneeded(
    evaluator: &TopicEvaluator<'_>,
    base: Configuration,
    forced: &[RegionId],
    constraint: &DeliveryConstraint,
) -> Vec<RegionId> {
    let mut retained: Vec<RegionId> = forced.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..retained.len() {
            let candidate = retained[i];
            // Configuration with every retained forced region except `candidate`.
            let mut assignment = base.assignment();
            for &r in &retained {
                if r != candidate {
                    assignment = assignment.with(r);
                }
            }
            let without = Fastest::new(evaluator, Configuration::new(assignment, base.mode()));
            let with = Fastest::new(
                evaluator,
                Configuration::new(assignment.with(candidate), base.mode()),
            );
            let within = |fastest: &Fastest<'_>, idx| {
                fastest.best_delivery_ms(idx).is_some_and(|b| b <= constraint.max_ms())
            };
            let needed = (0..evaluator.workload().subscriber_count())
                .any(|idx| within(&with, idx) && !within(&without, idx));
            if !needed {
                retained.remove(i);
                changed = true;
                break;
            }
        }
    }
    retained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentVector;
    use crate::ids::ClientId;
    use crate::latency::InterRegionMatrix;
    use crate::region::{Region, RegionSet};
    use crate::testing::{random_instance, Shape, SplitMix64};
    use crate::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};

    fn regions2() -> (RegionSet, InterRegionMatrix) {
        (
            RegionSet::new(vec![
                Region::new("r0", "A", 0.02, 0.09),
                Region::new("r1", "B", 0.09, 0.14),
            ])
            .unwrap(),
            InterRegionMatrix::from_rows(vec![vec![0.0, 30.0], vec![30.0, 0.0]]).unwrap(),
        )
    }

    /// One publisher near R0; one healthy subscriber near R0; one straggler
    /// near R1 (far from R0).
    fn straggler_workload() -> TopicWorkload {
        let mut w = TopicWorkload::new(2);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![5.0, 60.0], MessageBatch::uniform(10, 100)).unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(1), vec![5.0, 60.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(2), vec![90.0, 4.0]).unwrap()).unwrap();
        w
    }

    #[test]
    fn detects_straggler_under_single_region() {
        let (regions, inter) = regions2();
        let w = straggler_workload();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let config = Configuration::new(
            AssignmentVector::single(RegionId(0), 2).unwrap(),
            DeliveryMode::Direct,
        );
        let constraint = DeliveryConstraint::new(75.0, 50.0).unwrap();
        let stragglers = find_stragglers(&eval, config, &constraint);
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].subscriber_index, 1);
        // 5 (pub→R0) + 90 (R0→sub) = 95 ms.
        assert_eq!(stragglers[0].best_delivery_ms, 95.0);
    }

    #[test]
    fn mitigation_adds_the_helpful_region() {
        let (regions, inter) = regions2();
        let w = straggler_workload();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let config = Configuration::new(
            AssignmentVector::single(RegionId(0), 2).unwrap(),
            DeliveryMode::Direct,
        );
        let constraint = DeliveryConstraint::new(75.0, 70.0).unwrap();
        let outcome = mitigate(&eval, config, &constraint, &MitigationPolicy::default());
        assert_eq!(outcome.added, vec![RegionId(1)]);
        assert!(outcome.unresolved.is_empty());
        // Straggler now served by R1: 60 (pub→R1) + 4 = 64 ≤ 70.
        assert!(outcome.configuration.assignment().contains(RegionId(1)));
    }

    #[test]
    fn mitigation_reports_unhelpable_stragglers() {
        let (regions, inter) = regions2();
        let mut w = straggler_workload();
        // Replace the straggler with one that is far from everything.
        let far = Subscriber::new(ClientId(9), vec![500.0, 500.0]).unwrap();
        w.add_subscriber(far).unwrap();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct);
        let constraint = DeliveryConstraint::new(75.0, 70.0).unwrap();
        let outcome = mitigate(&eval, config, &constraint, &MitigationPolicy::default());
        // All regions already assigned: nothing to add. The original
        // "straggler" is now served locally (64 ms ≤ 70), so only the far
        // subscriber remains unresolved.
        assert!(outcome.added.is_empty());
        assert_eq!(outcome.unresolved.len(), 1);
        assert_eq!(outcome.unresolved[0].best_delivery_ms, 505.0);
    }

    #[test]
    fn no_stragglers_no_change() {
        let (regions, inter) = regions2();
        let w = straggler_workload();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let config = Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct);
        let constraint = DeliveryConstraint::new(75.0, 200.0).unwrap();
        let outcome = mitigate(&eval, config, &constraint, &MitigationPolicy::default());
        assert!(outcome.added.is_empty());
        assert!(outcome.unresolved.is_empty());
        assert_eq!(outcome.configuration, config);
    }

    #[test]
    fn retraction_drops_region_once_unneeded() {
        let (regions, inter) = regions2();
        // Straggler recovered: now close to R0 as well.
        let mut w = TopicWorkload::new(2);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![5.0, 60.0], MessageBatch::uniform(10, 100)).unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::new(ClientId(1), vec![5.0, 60.0]).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(2), vec![8.0, 4.0]).unwrap()).unwrap();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let base = Configuration::new(
            AssignmentVector::single(RegionId(0), 2).unwrap(),
            DeliveryMode::Direct,
        );
        let constraint = DeliveryConstraint::new(75.0, 70.0).unwrap();
        let retained = retract_unneeded(&eval, base, &[RegionId(1)], &constraint);
        assert!(retained.is_empty());
    }

    #[test]
    fn retraction_keeps_needed_region() {
        let (regions, inter) = regions2();
        let w = straggler_workload();
        let eval = TopicEvaluator::new(&regions, &inter, &w).unwrap();
        let base = Configuration::new(
            AssignmentVector::single(RegionId(0), 2).unwrap(),
            DeliveryMode::Direct,
        );
        let constraint = DeliveryConstraint::new(75.0, 70.0).unwrap();
        let retained = retract_unneeded(&eval, base, &[RegionId(1)], &constraint);
        assert_eq!(retained, vec![RegionId(1)]);
    }

    /// The scan [`Fastest`] replaces: Eq. 1–2 on every sending publisher, for
    /// one subscriber. The reference the differential test below holds it to.
    fn best_delivery_by_scan(
        evaluator: &TopicEvaluator<'_>,
        subscriber_index: usize,
        configuration: Configuration,
    ) -> Option<f64> {
        let workload = evaluator.workload();
        let sub_lat = workload.subscribers()[subscriber_index].latencies();
        let assignment = configuration.assignment();
        let sub_region = closest_region(sub_lat, assignment);
        let mut best: Option<f64> = None;
        for publisher in workload.publishers() {
            if publisher.batch().count() == 0 {
                continue;
            }
            let pub_lat = publisher.latencies();
            let time = match configuration.mode() {
                DeliveryMode::Direct => direct_delivery_ms(pub_lat, sub_lat, sub_region),
                DeliveryMode::Routed => {
                    let home = closest_region(pub_lat, assignment);
                    routed_delivery_ms(pub_lat, sub_lat, home, sub_region, evaluator.inter())
                }
            };
            best = Some(best.map_or(time, |b: f64| b.min(time)));
        }
        best
    }

    /// [`mitigate`] as it was written over the scan.
    fn mitigate_by_scan(
        evaluator: &TopicEvaluator<'_>,
        configuration: Configuration,
        constraint: &DeliveryConstraint,
        policy: &MitigationPolicy,
    ) -> MitigationOutcome {
        let mut current = configuration;
        let (mut added, mut unresolved) = (Vec::new(), Vec::new());
        let best = |index, configuration| best_delivery_by_scan(evaluator, index, configuration);
        for index in 0..evaluator.workload().subscriber_count() {
            let Some(best_delivery_ms) = best(index, configuration) else { continue };
            let Some(best_now) = best(index, current) else { continue };
            if best_delivery_ms <= constraint.max_ms() || best_now <= constraint.max_ms() {
                continue;
            }
            let mut best_candidate: Option<(f64, RegionId)> = None;
            for region in evaluator.regions().ids() {
                if current.assignment().contains(region) {
                    continue;
                }
                let trial = Configuration::new(current.assignment().with(region), current.mode());
                let Some(best_with) = best(index, trial) else { continue };
                let meets = best_with <= constraint.max_ms();
                let improves = best_with <= best_now * (1.0 - policy.min_improvement);
                if (meets || improves) && best_candidate.is_none_or(|(b, _)| best_with < b) {
                    best_candidate = Some((best_with, region));
                }
            }
            match best_candidate {
                Some((_, region)) => {
                    current = Configuration::new(current.assignment().with(region), current.mode());
                    added.push(region);
                }
                None => unresolved.push(Straggler { subscriber_index: index, best_delivery_ms }),
            }
        }
        MitigationOutcome { added, unresolved, configuration: current }
    }

    /// [`retract_unneeded`] as it was written over the scan.
    fn retract_by_scan(
        evaluator: &TopicEvaluator<'_>,
        base: Configuration,
        forced: &[RegionId],
        constraint: &DeliveryConstraint,
    ) -> Vec<RegionId> {
        let mut retained = forced.to_vec();
        'again: loop {
            for (i, &candidate) in retained.iter().enumerate() {
                let others = retained.iter().filter(|&&r| r != candidate);
                let assignment = others.fold(base.assignment(), |a, &r| a.with(r));
                let within = |index, assignment| {
                    best_delivery_by_scan(
                        evaluator,
                        index,
                        Configuration::new(assignment, base.mode()),
                    )
                    .is_some_and(|b| b <= constraint.max_ms())
                };
                let needed = (0..evaluator.workload().subscriber_count()).any(|index| {
                    within(index, assignment.with(candidate)) && !within(index, assignment)
                });
                if !needed {
                    retained.remove(i);
                    continue 'again;
                }
            }
            return retained;
        }
    }

    /// `workload` with every latency rounded down to a multiple of 50 ms, so
    /// that publishers tie on their distance to a region all the time.
    fn coarsened(workload: &TopicWorkload) -> TopicWorkload {
        let coarse = |row: &[f64]| row.iter().map(|l| (l / 50.0).floor() * 50.0).collect();
        let mut out = TopicWorkload::new(workload.n_regions());
        for p in workload.publishers() {
            out.add_publisher(Publisher::new(p.id(), coarse(p.latencies()), p.batch()).unwrap())
                .unwrap();
        }
        for s in workload.subscribers() {
            let coarse = Subscriber::with_weight(s.id(), coarse(s.latencies()), s.weight());
            out.add_subscriber(coarse.unwrap()).unwrap();
        }
        out
    }

    /// One table per configuration answers what the scan over every publisher
    /// answers, to the bit — and so do the three functions built on it.
    #[test]
    fn one_scan_per_configuration_finds_what_one_per_subscriber_found() {
        let mut rng = SplitMix64(0x57_2A66_1E25);
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let (instances, clients) = if cfg!(miri) { (6, 5) } else { (120, 16) };
        let (mut stragglers, mut amended_twice, mut retracted, mut kept) = (0, 0, 0, 0);
        for instance in 0..instances {
            let shape = Shape {
                regions: (2, 6),
                publishers: (1, clients),
                subscribers: (1, clients),
                fractional: instance % 2 == 1,
            };
            let (regions, inter, workload) = random_instance(&mut rng, &shape);
            // Every third instance is all ties; one in three already has a
            // publisher that sent nothing.
            let workload = if instance % 3 == 2 { coarsened(&workload) } else { workload };
            let evaluator = TopicEvaluator::new(&regions, &inter, &workload).unwrap();
            let n = regions.len();
            for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
                let mask = rng.range(1, (1 << n) - 1) as u32;
                let config =
                    Configuration::new(AssignmentVector::from_mask(mask, n).unwrap(), mode);
                let context = format!("instance {instance}, {config}");
                let fastest = Fastest::new(&evaluator, config);
                let mut bests = Vec::new();
                for index in 0..workload.subscriber_count() {
                    let scanned = best_delivery_by_scan(&evaluator, index, config);
                    let found = fastest.best_delivery_ms(index);
                    assert_eq!(found.map(f64::to_bits), scanned.map(f64::to_bits), "{context}");
                    bests.extend(scanned);
                }
                // A bound a good half of the subscribers miss.
                bests.sort_unstable_by(f64::total_cmp);
                let bound = DeliveryConstraint::new(75.0, bests[bests.len() / 3].max(1.0)).unwrap();
                let policy = MitigationPolicy::default();
                let found = find_stragglers(&evaluator, config, &bound);
                stragglers += found.len();
                let outcome = mitigate(&evaluator, config, &bound, &policy);
                assert_eq!(
                    outcome,
                    mitigate_by_scan(&evaluator, config, &bound, &policy),
                    "{context}"
                );
                assert!(outcome.unresolved.len() + outcome.added.len() <= found.len(), "{context}");
                amended_twice += usize::from(outcome.added.len() >= 2);
                let retained = retract_unneeded(&evaluator, config, &outcome.added, &bound);
                assert_eq!(retained, retract_by_scan(&evaluator, config, &outcome.added, &bound));
                kept += retained.len();
                // Forcing every other region: most of those help nobody.
                let spare: Vec<RegionId> =
                    regions.ids().filter(|&r| !config.assignment().contains(r)).collect();
                let retained = retract_unneeded(&evaluator, config, &spare, &bound);
                assert_eq!(
                    retained,
                    retract_by_scan(&evaluator, config, &spare, &bound),
                    "{context}"
                );
                retracted += spare.len() - retained.len();
            }
        }
        assert!(stragglers > instances && amended_twice > 0 && retracted > 0 && kept > 0);

        // Nobody sent anything: no best delivery, no straggler.
        let (regions, inter) = regions2();
        let mut silent = straggler_workload();
        silent.publishers_mut()[0].set_batch(MessageBatch::empty());
        let evaluator = TopicEvaluator::new(&regions, &inter, &silent).unwrap();
        let config = Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Routed);
        assert_eq!(Fastest::new(&evaluator, config).best_delivery_ms(1), None);
        assert_eq!(best_delivery_by_scan(&evaluator, 1, config), None);
        let bound = DeliveryConstraint::new(75.0, 1.0).unwrap();
        assert!(find_stragglers(&evaluator, config, &bound).is_empty());
    }
}
