//! A topic's routing table: its subscribers grouped by the serving region
//! that delivers to them, and each publisher's closest serving region.
//!
//! The engine builds one per topic when the run starts and one per
//! reconfiguration that changes a topic's configuration, and never drops
//! or rewrites one during the run: an arrival in the delivery log names
//! the table it was served under, and the report derives the arrival's
//! deliveries from that table's group when they are read.

// lint:allow-file(indexing) a table is laid out by `TopicRouting::new` for its own topic's client counts and region count: the offsets come first and bound every group, and the engine only asks for regions of the deployment and publishers of the topic the table was built for

use crate::scenario::TopicScenario;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::delivery::closest_region;
use multipub_core::ids::RegionId;

/// Per-topic routing tables precomputed from a configuration, in one
/// allocation. The serving regions are the assignment's.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TopicRouting {
    configuration: Configuration,
    n_regions: usize,
    /// `n_regions + 1` offsets, then the subscriber indices grouped by
    /// closest serving region (region `r`'s group runs from offset `r` to
    /// offset `r + 1`), then each publisher's closest serving region
    /// (routed mode's `R^P`).
    table: Vec<u32>,
}

impl TopicRouting {
    /// The tables of `topic` under `configuration`. The caller checked that
    /// the subscriber indices fit a `u32`.
    pub(crate) fn new(
        topic: &TopicScenario,
        configuration: Configuration,
        n_regions: usize,
    ) -> Self {
        let assignment = configuration.assignment();
        let home = |latencies: &[f64]| closest_region(latencies, assignment).index();
        let (subscribers, publishers) = (topic.subscribers(), topic.publishers());
        let groups = n_regions + 1;
        let mut table = vec![0; groups + subscribers.len() + publishers.len()];
        // A counting sort in place: count each region's subscribers, sum the
        // counts so that offset `r` is where region `r`'s group ends, then
        // place the subscribers last to first, moving each offset back to
        // where its group begins.
        for subscriber in subscribers.iter() {
            table[home(subscriber.latencies())] += 1;
        }
        for region in 1..n_regions {
            table[region] += table[region - 1];
        }
        table[n_regions] = subscribers.len() as u32;
        for (index, subscriber) in subscribers.iter().enumerate().rev() {
            let region = home(subscriber.latencies());
            table[region] -= 1;
            let slot = groups + table[region] as usize;
            table[slot] = index as u32;
        }
        let homes = groups + subscribers.len();
        for (slot, publisher) in table[homes..].iter_mut().zip(publishers.iter()) {
            *slot = home(publisher.latencies()) as u32;
        }
        TopicRouting { configuration, n_regions, table }
    }

    /// The configuration the tables were built for.
    pub(crate) fn configuration(&self) -> Configuration {
        self.configuration
    }

    /// The serving regions.
    pub(crate) fn assignment(&self) -> AssignmentVector {
        self.configuration.assignment()
    }

    /// Direct or routed delivery.
    pub(crate) fn mode(&self) -> DeliveryMode {
        self.configuration.mode()
    }

    /// The indices of the subscribers homed at `region`, in index order.
    pub(crate) fn local_subscribers(&self, region: RegionId) -> &[u32] {
        let (offsets, groups) = self.table.split_at(self.n_regions + 1);
        let r = region.index();
        &groups[offsets[r] as usize..offsets[r + 1] as usize]
    }

    /// The serving region closest to publisher `publisher`.
    pub(crate) fn publisher_home(&self, publisher: usize) -> RegionId {
        let homes = self.n_regions + 1 + self.table[self.n_regions] as usize;
        // Region indices are below the deployment's at most 32 regions.
        RegionId(self.table[homes + publisher] as u8)
    }
}
