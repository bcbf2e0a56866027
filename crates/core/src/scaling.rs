//! Heuristics for extra-large settings (paper §V.F): region pruning and
//! proportional client bundling.
//!
//! The solver is exponential in the number of regions and linear in the
//! number of publisher×subscriber pairs (feasibility is a count over them,
//! the percentile a selection — no sort). The paper suggests two
//! mitigations, both implemented here:
//!
//! * **Pruning** removes expensive regions that are home to few or no
//!   clients from the search space, shrinking the exponent.
//! * **Proportional bundling** merges clients with near-identical latency
//!   vectors into weighted *virtual clients*, shrinking the pair count
//!   while preserving the percentile (each virtual subscriber carries the
//!   weight of the subscribers it replaced).
//!
//! Both trade optimality for speed; the `pruning_ablation` bench
//! quantifies the trade-off.

use crate::assignment::AssignmentVector;
use crate::delivery::closest_region;
use crate::error::Error;
use crate::ids::RegionId;
use crate::region::RegionSet;
use crate::workload::{Subscriber, TopicWorkload};
use serde::{Deserialize, Serialize};

/// Options for [`prune_regions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneOptions {
    /// A region is kept if at least this many clients (publishers +
    /// subscriber weight) are *closest* to it.
    pub min_home_clients: u64,
    /// Always keep the globally cheapest-egress region, so a cheap
    /// fallback configuration always exists.
    pub keep_cheapest: bool,
}

impl Default for PruneOptions {
    fn default() -> Self {
        PruneOptions { min_home_clients: 1, keep_cheapest: true }
    }
}

/// Selects the subset of regions worth searching: regions that are home to
/// at least [`PruneOptions::min_home_clients`] clients, plus (optionally)
/// the cheapest region. "Home" is the client's closest region among all
/// regions.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the workload has no clients at all
/// (there would be no basis for pruning).
pub fn prune_regions(
    regions: &RegionSet,
    workload: &TopicWorkload,
    options: &PruneOptions,
) -> Result<AssignmentVector, Error> {
    if workload.publisher_count() == 0 && workload.subscriber_count() == 0 {
        return Err(Error::EmptyWorkload);
    }
    let all = AssignmentVector::all(regions.len())?;
    let mut home_clients = vec![0u64; regions.len()];
    for publisher in workload.publishers() {
        // lint:allow(indexing) home_clients is sized to regions.len(); closest_region returns an id below that count
        home_clients[closest_region(publisher.latencies(), all).index()] += 1;
    }
    for subscriber in workload.subscribers() {
        // lint:allow(indexing) home_clients is sized to regions.len(); closest_region returns an id below that count
        home_clients[closest_region(subscriber.latencies(), all).index()] += subscriber.weight();
    }
    let mut keep: Vec<RegionId> =
        // lint:allow(indexing) home_clients is sized to regions.len() and RegionId indices come from the same RegionSet
        regions.ids().filter(|r| home_clients[r.index()] >= options.min_home_clients).collect();
    if options.keep_cheapest {
        let cheapest = regions.cheapest_internet_region();
        if !keep.contains(&cheapest) {
            keep.push(cheapest);
        }
    }
    if keep.is_empty() {
        // Degenerate: threshold too high and cheapest not kept. Fall back
        // to the single most popular region.
        let most_popular =
            // lint:allow(indexing) ids stay below regions.len() lint:allow(panic) RegionSet rejects empty sets, so max_by_key sees at least one id
            regions.ids().max_by_key(|r| home_clients[r.index()]).expect("region set is non-empty");
        keep.push(most_popular);
    }
    multipub_obs::counter!(multipub_obs::metrics::CORE_REGIONS_PRUNED_TOTAL)
        .add((regions.len() - keep.len()) as u64);
    AssignmentVector::from_regions(keep, regions.len())
}

/// Options for [`bundle_clients`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BundleOptions {
    /// Two clients are bundled when every entry of their latency rows
    /// differs by at most this many milliseconds (L∞ distance).
    pub epsilon_ms: f64,
}

impl Default for BundleOptions {
    fn default() -> Self {
        BundleOptions { epsilon_ms: 5.0 }
    }
}

fn within_epsilon(a: &[f64], b: &[f64], epsilon: f64) -> bool {
    a.iter().zip(b).all(|(x, y)| (x - y).abs() <= epsilon)
}

/// Proportional bundling (§V.F): greedily clusters subscribers (and
/// publishers) whose latency rows are within
/// [`BundleOptions::epsilon_ms`] of a cluster representative, replacing
/// each cluster by one *virtual client*:
///
/// * virtual subscribers carry the summed **weight** of their members, so
///   `N_S^R` counts and percentile weights are preserved up to ε;
/// * virtual publishers carry the **merged message batch** of their
///   members, preserving total message count and bytes exactly.
///
/// The representative keeps the first member's id and latency row.
pub fn bundle_clients(workload: &TopicWorkload, options: &BundleOptions) -> TopicWorkload {
    let mut bundled = TopicWorkload::new(workload.n_regions());

    // Subscribers: sum weights within a cluster.
    let mut sub_reps: Vec<Subscriber> = Vec::new();
    for sub in workload.subscribers() {
        match sub_reps
            .iter_mut()
            .find(|rep| within_epsilon(rep.latencies(), sub.latencies(), options.epsilon_ms))
        {
            Some(rep) => {
                *rep = Subscriber::with_weight(
                    rep.id(),
                    rep.latencies().to_vec(),
                    rep.weight() + sub.weight(),
                )
                // lint:allow(panic) both merged weights came from valid subscribers, so the sum is positive
                .expect("non-zero weight");
            }
            None => sub_reps.push(sub.clone()),
        }
    }
    for rep in sub_reps {
        // lint:allow(panic) representatives are clones/merges of entries the source workload already accepted
        bundled.add_subscriber(rep).expect("validated by source workload");
    }

    // Publishers: merge batches within a cluster.
    let mut pub_reps: Vec<crate::workload::Publisher> = Vec::new();
    for publisher in workload.publishers() {
        match pub_reps
            .iter_mut()
            .find(|rep| within_epsilon(rep.latencies(), publisher.latencies(), options.epsilon_ms))
        {
            Some(rep) => {
                let mut merged = rep.batch();
                merged.merge(publisher.batch());
                rep.set_batch(merged);
            }
            None => pub_reps.push(publisher.clone()),
        }
    }
    for rep in pub_reps {
        // lint:allow(panic) representatives are clones/merges of entries the source workload already accepted
        bundled.add_publisher(rep).expect("validated by source workload");
    }

    bundled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::region::Region;
    use crate::workload::{MessageBatch, Publisher};

    fn regions3() -> RegionSet {
        RegionSet::new(vec![
            Region::new("cheap", "A", 0.02, 0.09),
            Region::new("mid", "B", 0.09, 0.14),
            Region::new("pricey", "C", 0.16, 0.25),
        ])
        .unwrap()
    }

    fn clustered_workload() -> TopicWorkload {
        let mut w = TopicWorkload::new(3);
        // Two publishers near region 0 with near-identical rows.
        w.add_publisher(
            Publisher::new(ClientId(0), vec![5.0, 50.0, 90.0], MessageBatch::uniform(10, 100))
                .unwrap(),
        )
        .unwrap();
        w.add_publisher(
            Publisher::new(ClientId(1), vec![6.0, 51.0, 91.0], MessageBatch::uniform(20, 100))
                .unwrap(),
        )
        .unwrap();
        // Three subscribers near region 0, one near region 1.
        for (i, base) in [(2u64, 4.0), (3, 5.5), (4, 6.5)] {
            w.add_subscriber(
                Subscriber::new(ClientId(i), vec![base, 48.0 + base, 88.0 + base]).unwrap(),
            )
            .unwrap();
        }
        w.add_subscriber(Subscriber::new(ClientId(5), vec![55.0, 4.0, 70.0]).unwrap()).unwrap();
        w
    }

    #[test]
    fn prune_keeps_home_regions_and_cheapest() {
        let regions = regions3();
        let w = clustered_workload();
        let allowed = prune_regions(&regions, &w, &PruneOptions::default()).unwrap();
        // Region 2 is nobody's home; regions 0 and 1 are.
        assert!(allowed.contains(RegionId(0)));
        assert!(allowed.contains(RegionId(1)));
        assert!(!allowed.contains(RegionId(2)));
    }

    #[test]
    fn prune_threshold_filters_small_regions() {
        let regions = regions3();
        let w = clustered_workload();
        let options = PruneOptions { min_home_clients: 2, keep_cheapest: false };
        let allowed = prune_regions(&regions, &w, &options).unwrap();
        // Region 1 is home to only one subscriber.
        assert!(allowed.contains(RegionId(0)));
        assert!(!allowed.contains(RegionId(1)));
    }

    #[test]
    fn prune_always_yields_non_empty() {
        let regions = regions3();
        let w = clustered_workload();
        let options = PruneOptions { min_home_clients: 1_000_000, keep_cheapest: false };
        let allowed = prune_regions(&regions, &w, &options).unwrap();
        assert!(allowed.count() >= 1);
    }

    #[test]
    fn prune_rejects_empty_workload() {
        let regions = regions3();
        let w = TopicWorkload::new(3);
        assert!(prune_regions(&regions, &w, &PruneOptions::default()).is_err());
    }

    #[test]
    fn bundling_preserves_totals() {
        let w = clustered_workload();
        let bundled = bundle_clients(&w, &BundleOptions { epsilon_ms: 5.0 });
        assert!(bundled.subscriber_count() < w.subscriber_count());
        assert_eq!(bundled.subscriber_weight(), w.subscriber_weight());
        assert_eq!(bundled.total_messages(), w.total_messages());
        assert_eq!(bundled.total_deliveries(), w.total_deliveries());
        let bytes = |wl: &TopicWorkload| -> u64 {
            wl.publishers().iter().map(|p| p.batch().total_bytes()).sum()
        };
        assert_eq!(bytes(&bundled), bytes(&w));
    }

    #[test]
    fn bundling_with_zero_epsilon_is_identity_for_distinct_rows() {
        let w = clustered_workload();
        let bundled = bundle_clients(&w, &BundleOptions { epsilon_ms: 0.0 });
        assert_eq!(bundled.subscriber_count(), w.subscriber_count());
        assert_eq!(bundled.publisher_count(), w.publisher_count());
    }

    #[test]
    fn bundled_solution_close_to_exact() {
        use crate::constraint::DeliveryConstraint;
        use crate::latency::InterRegionMatrix;
        use crate::optimizer::Optimizer;
        let regions = regions3();
        let inter = InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 120.0],
            vec![90.0, 120.0, 0.0],
        ])
        .unwrap();
        let w = clustered_workload();
        let bundled = bundle_clients(&w, &BundleOptions { epsilon_ms: 5.0 });
        let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
        let exact = Optimizer::new(&regions, &inter, &w).unwrap().solve(&constraint);
        let approx = Optimizer::new(&regions, &inter, &bundled).unwrap().solve(&constraint);
        // Same assignment decision on this clearly separated workload.
        assert_eq!(exact.configuration(), approx.configuration());
        // Percentile may differ by at most 2×ε (publisher + subscriber side).
        assert!(
            (exact.evaluation().percentile_ms() - approx.evaluation().percentile_ms()).abs()
                <= 10.0
        );
    }
}
