//! The bandwidth cost model (paper Eq. 3–4).
//!
//! Inbound cloud traffic is free. Costs arise from:
//!
//! * every serving region `R_i` sending each publication to its
//!   `N_S^{R_i}` local subscribers at the Internet rate `β(R_i)` —
//!   Eq. 3, identical for both modes;
//! * with routed delivery, the publisher's region `R^P` forwarding each
//!   publication to the other `N_R − 1` serving regions at the
//!   inter-region rate `α(R^P)` — the extra term of Eq. 4.
//!
//! With direct delivery the publisher's *own* uplink carries the fan-out to
//! all regions, which costs the cloud operator nothing (inbound is free) —
//! that asymmetry is exactly what MultiPub exploits.

use crate::assignment::{AssignmentVector, Configuration, DeliveryMode};
use crate::delivery::closest_region;
use crate::ids::RegionId;
use crate::region::RegionSet;
use crate::workload::TopicWorkload;

/// Per-region subscriber weights `N_S^{R_i}` for a given assignment:
/// entry `i` is the number of (real) subscribers whose closest serving
/// region is region `i`. Entries for non-serving regions are 0.
fn subscriber_counts(workload: &TopicWorkload, assignment: AssignmentVector) -> Vec<u64> {
    let mut counts = vec![0u64; workload.n_regions()];
    for sub in workload.subscribers() {
        let region = closest_region(sub.latencies(), assignment);
        // lint:allow(indexing) counts is sized to the region count closest_region draws from
        counts[region.index()] += sub.weight();
    }
    counts
}

/// The cost in dollars of delivering **one byte** published on the topic to
/// all subscribers: `Σ_i N_S^{R_i} × β(R_i)`.
///
/// Multiplying by the total published bytes yields `Z_Direct` (Eq. 3).
fn fanout_rate_per_byte(regions: &RegionSet, subscriber_counts: &[u64]) -> f64 {
    // lint:allow(indexing) callers size subscriber_counts to regions.len(), the same set ids() enumerates
    regions.ids().map(|r| subscriber_counts[r.index()] as f64 * regions.beta_per_byte(r)).sum()
}

/// Eq. 3–4, written once: the published bytes times the fan-out rate, plus
/// the routed forwarding term (0.0 under direct delivery).
///
/// [`topic_cost_dollars`] and the evaluator's stage 1 — the optimizer's
/// pruning key — both end here, so the two cannot drift by a rounding.
pub(crate) fn cost_dollars(
    regions: &RegionSet,
    total_bytes: u64,
    subscriber_counts: &[u64],
    forwarding_dollars: f64,
) -> f64 {
    total_bytes as f64 * fanout_rate_per_byte(regions, subscriber_counts) + forwarding_dollars
}

/// The forwarding term of Eq. 4 from each publisher's `(Ω, R^P)` — its
/// published bytes and home region: `Σ_P (N_R − 1) × Ω(P) × α(R^P)`.
pub(crate) fn forwarding_dollars(
    regions: &RegionSet,
    assignment: AssignmentVector,
    publishers: impl Iterator<Item = (u64, RegionId)>,
) -> f64 {
    let extra_hops = assignment.count().saturating_sub(1) as f64;
    publishers.fold(0.0, |sum, (bytes, home)| {
        sum + bytes as f64 * extra_hops * regions.alpha_per_byte(home)
    })
}

/// `Ω`: the bytes published on the topic in the interval.
pub(crate) fn total_bytes(workload: &TopicWorkload) -> u64 {
    workload.publishers().iter().map(|p| p.batch().total_bytes()).sum()
}

/// The extra forwarding term of Eq. 4:
/// `Σ_P Σ_j (N_R − 1) × Ω(M_j^P) × α(R^P)`.
///
/// Zero when a single region serves the topic.
fn routed_forwarding_cost_dollars(
    regions: &RegionSet,
    workload: &TopicWorkload,
    assignment: AssignmentVector,
) -> f64 {
    let homes = workload
        .publishers()
        .iter()
        .map(|p| (p.batch().total_bytes(), closest_region(p.latencies(), assignment)));
    forwarding_dollars(regions, assignment, homes)
}

/// Total bandwidth cost `Z_C` in dollars of serving the topic's interval
/// traffic under `configuration` (Eq. 3 for direct, Eq. 4 for routed).
///
/// ```
/// use multipub_core::prelude::*;
/// use multipub_core::cost::topic_cost_dollars;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let regions = RegionSet::new(vec![
///     Region::new("a", "A", 0.02, 0.09),
///     Region::new("b", "B", 0.09, 0.14),
/// ])?;
/// let w = TopicWorkload::new(
///     2,
///     vec![Publisher::new(ClientId(0), vec![5.0, 50.0], MessageBatch::uniform(1, 1_000_000_000))],
///     vec![
///         Subscriber::new(ClientId(1), vec![5.0, 50.0]),
///         Subscriber::new(ClientId(2), vec![50.0, 5.0]),
///     ],
/// )?;
/// let both = AssignmentVector::all(2)?;
/// // 1 GB × (0.09 + 0.14) to the two local subscribers...
/// let direct = topic_cost_dollars(
///     &regions, &w, Configuration::new(both, DeliveryMode::Direct));
/// assert!((direct - 0.23).abs() < 1e-9);
/// // ...plus 1 GB × 0.02 forwarded from the publisher's region.
/// let routed = topic_cost_dollars(
///     &regions, &w, Configuration::new(both, DeliveryMode::Routed));
/// assert!((routed - 0.25).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn topic_cost_dollars(
    regions: &RegionSet,
    workload: &TopicWorkload,
    configuration: Configuration,
) -> f64 {
    let assignment = configuration.assignment();
    let forwarding = match configuration.mode() {
        DeliveryMode::Direct => 0.0,
        DeliveryMode::Routed => routed_forwarding_cost_dollars(regions, workload, assignment),
    };
    cost_dollars(
        regions,
        total_bytes(workload),
        &subscriber_counts(workload, assignment),
        forwarding,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::region::Region;
    use crate::testing::{random_instance, Shape, SplitMix64};
    use crate::workload::{MessageBatch, Publisher, Subscriber};

    fn regions() -> RegionSet {
        RegionSet::new(vec![
            Region::new("cheap", "A", 0.02, 0.09),
            Region::new("pricey", "B", 0.16, 0.25),
        ])
        .unwrap()
    }

    fn workload() -> TopicWorkload {
        TopicWorkload::new(
            2,
            // Publisher near region 0, 10 messages × 1 KB.
            vec![Publisher::new(ClientId(0), vec![5.0, 80.0], MessageBatch::uniform(10, 1000))],
            // Two subscribers near region 0, one (weight 3) near region 1.
            vec![
                Subscriber::new(ClientId(1), vec![4.0, 70.0]),
                Subscriber::new(ClientId(2), vec![6.0, 75.0]),
                Subscriber::with_weight(ClientId(3), vec![90.0, 3.0], 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_respect_assignment_and_weights() {
        let w = workload();
        let both = AssignmentVector::all(2).unwrap();
        assert_eq!(subscriber_counts(&w, both), vec![2, 3]);
        let only0 = AssignmentVector::single(crate::ids::RegionId(0), 2).unwrap();
        assert_eq!(subscriber_counts(&w, only0), vec![5, 0]);
    }

    #[test]
    fn direct_cost_matches_hand_computation() {
        let r = regions();
        let w = workload();
        let both = AssignmentVector::all(2).unwrap();
        // bytes = 10 000; rate = 2×0.09/GB + 3×0.25/GB.
        let expected = 10_000.0 * (2.0 * 0.09 + 3.0 * 0.25) / 1e9;
        let got = topic_cost_dollars(&r, &w, Configuration::new(both, DeliveryMode::Direct));
        assert!((got - expected).abs() < 1e-15, "{got} vs {expected}");
    }

    #[test]
    fn routed_adds_forwarding_from_home_region() {
        let r = regions();
        let w = workload();
        let both = AssignmentVector::all(2).unwrap();
        // Publisher home = region 0 (5 ms). One extra hop × α(0)=0.02/GB.
        let expected = 10_000.0 * 1.0 * 0.02 / 1e9;
        let got = routed_forwarding_cost_dollars(&r, &w, both);
        assert!((got - expected).abs() < 1e-15);
    }

    #[test]
    fn single_region_routed_equals_direct() {
        let r = regions();
        let w = workload();
        let one = AssignmentVector::single(crate::ids::RegionId(1), 2).unwrap();
        assert_eq!(routed_forwarding_cost_dollars(&r, &w, one), 0.0);
        let direct = topic_cost_dollars(&r, &w, Configuration::new(one, DeliveryMode::Direct));
        let routed = topic_cost_dollars(&r, &w, Configuration::new(one, DeliveryMode::Routed));
        assert_eq!(direct, routed);
    }

    #[test]
    fn routed_cost_never_below_direct_for_same_assignment() {
        let r = regions();
        let w = workload();
        for mask in 1u32..4 {
            let a = AssignmentVector::from_mask(mask, 2).unwrap();
            let d = topic_cost_dollars(&r, &w, Configuration::new(a, DeliveryMode::Direct));
            let rt = topic_cost_dollars(&r, &w, Configuration::new(a, DeliveryMode::Routed));
            assert!(rt >= d);
        }
        // And on seeded random instances, over every assignment.
        let mut rng = SplitMix64(0xC057_D12E);
        let shape =
            Shape { regions: (2, 5), publishers: (1, 4), subscribers: (1, 6), fractional: true };
        for instance in 0..64 {
            let (r, _, w) = random_instance(&mut rng, &shape);
            for mask in 1..1u32 << r.len() {
                let a = AssignmentVector::from_mask(mask, r.len()).unwrap();
                let d = topic_cost_dollars(&r, &w, Configuration::new(a, DeliveryMode::Direct));
                let rt = topic_cost_dollars(&r, &w, Configuration::new(a, DeliveryMode::Routed));
                assert!(rt >= d, "instance {instance}, {a}: routed ${rt} below direct ${d}");
            }
        }
    }

    #[test]
    fn no_messages_no_cost() {
        let r = regions();
        let w = TopicWorkload::new(
            2,
            vec![Publisher::new(ClientId(0), vec![1.0, 2.0], MessageBatch::default())],
            vec![Subscriber::new(ClientId(1), vec![1.0, 2.0])],
        )
        .unwrap();
        let both = AssignmentVector::all(2).unwrap();
        assert_eq!(topic_cost_dollars(&r, &w, Configuration::new(both, DeliveryMode::Routed)), 0.0);
    }
}
