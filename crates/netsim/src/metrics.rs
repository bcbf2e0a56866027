//! Measurement collection: the delivery log, the per-region traffic ledger
//! and the final simulation report.
//!
//! The log keeps each delivery as a 16-byte `Sent` entry beside one
//! `Publication` per publication; the report builds a full
//! [`DeliveryRecord`] only when one is read.

// lint:allow-file(indexing) the ledger's per-region vectors are sized to the scenario's region count at construction, and every RegionId handed in was minted against that same count; every log entry's publication, topic, publisher and subscriber index was taken by the engine from the tables the report holds

use crate::scenario::TopicScenario;
use crate::time::SimTime;
use multipub_core::ids::{ClientId, RegionId};
use multipub_core::region::RegionSet;

/// One completed delivery of a publication to a subscriber.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// Index of the topic within the scenario.
    pub topic_index: usize,
    /// The publishing client.
    pub publisher: ClientId,
    /// The receiving client.
    pub subscriber: ClientId,
    /// When the publication was emitted.
    pub published_at: SimTime,
    /// When the subscriber received it.
    pub delivered_at: SimTime,
}

impl DeliveryRecord {
    /// End-to-end delivery time in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.delivered_at - self.published_at
    }
}

/// One publication: the topic, the publisher's index in it, and when it
/// was emitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Publication {
    pub(crate) topic: u32,
    pub(crate) publisher: u32,
    pub(crate) published_at: SimTime,
}

/// One delivery as the log keeps it: the publication's index in the
/// publication table, the subscriber's index in its topic, and when the
/// copy lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sent {
    pub(crate) publication: u32,
    pub(crate) subscriber: u32,
    pub(crate) delivered_at: SimTime,
}

/// Billable egress bytes per region, split by destination class exactly
/// like the cost model's `α` (inter-region) and `β` (Internet) rates.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficLedger {
    internet_bytes: Vec<u64>,
    inter_region_bytes: Vec<u64>,
}

impl TrafficLedger {
    /// An empty ledger over `n_regions` regions.
    pub(crate) fn new(n_regions: usize) -> Self {
        TrafficLedger { internet_bytes: vec![0; n_regions], inter_region_bytes: vec![0; n_regions] }
    }

    /// Records `bytes` sent from `region` to an Internet client.
    pub(crate) fn record_internet(&mut self, region: RegionId, bytes: u64) {
        self.internet_bytes[region.index()] += bytes;
    }

    /// Records `bytes` forwarded from `region` to another cloud region.
    pub(crate) fn record_inter_region(&mut self, region: RegionId, bytes: u64) {
        self.inter_region_bytes[region.index()] += bytes;
    }

    /// Internet egress bytes of one region.
    pub fn internet_bytes(&self, region: RegionId) -> u64 {
        self.internet_bytes[region.index()]
    }

    /// Inter-region egress bytes of one region.
    pub fn inter_region_bytes(&self, region: RegionId) -> u64 {
        self.inter_region_bytes[region.index()]
    }

    /// Total billable cost of the recorded traffic under a region set's
    /// prices — the *measured* counterpart of the analytic `Z_C`.
    pub fn cost_dollars(&self, regions: &RegionSet) -> f64 {
        regions
            .ids()
            .map(|r| {
                self.internet_bytes[r.index()] as f64 * regions.beta_per_byte(r)
                    + self.inter_region_bytes[r.index()] as f64 * regions.alpha_per_byte(r)
            })
            .sum()
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The scenario's topics, whose client lists turn the log's indices
    /// back into client ids.
    topics: Vec<TopicScenario>,
    /// Every publication emitted, in the order it was emitted.
    publications: Vec<Publication>,
    /// Every delivery, in the order the brokers sent it.
    log: Vec<Sent>,
    ledger: TrafficLedger,
    lost_count: u64,
    duration_ms: f64,
}

impl SimReport {
    pub(crate) fn new(
        topics: Vec<TopicScenario>,
        publications: Vec<Publication>,
        log: Vec<Sent>,
        ledger: TrafficLedger,
        lost_count: u64,
        duration_ms: f64,
    ) -> Self {
        SimReport { topics, publications, log, ledger, lost_count, duration_ms }
    }

    /// All delivery records, in the order the brokers sent them, each built
    /// when it is read. A stable sort by `delivered_at` puts them in
    /// delivery-time order, deliveries landing at the same instant still in
    /// send order.
    pub fn deliveries(&self) -> impl ExactSizeIterator<Item = DeliveryRecord> + '_ {
        self.log.iter().map(|sent| {
            let publication = self.publications[sent.publication as usize];
            let topic = &self.topics[publication.topic as usize];
            DeliveryRecord {
                topic_index: publication.topic as usize,
                publisher: topic.publishers()[publication.publisher as usize].client(),
                subscriber: topic.subscribers()[sent.subscriber as usize].client(),
                published_at: publication.published_at,
                delivered_at: sent.delivered_at,
            }
        })
    }

    /// Every delivery's end-to-end time in milliseconds, in send order.
    pub(crate) fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.log.iter().map(|sent| self.latency_ms(sent))
    }

    fn latency_ms(&self, sent: &Sent) -> f64 {
        sent.delivered_at - self.publications[sent.publication as usize].published_at
    }

    /// Number of deliveries completed.
    pub fn delivery_count(&self) -> u64 {
        self.log.len() as u64
    }

    /// Number of publications emitted.
    pub fn published_count(&self) -> u64 {
        self.publications.len() as u64
    }

    /// Number of in-flight message copies destroyed by injected faults
    /// (packet loss or arrival at a region inside an outage window). Zero
    /// for fault-free runs.
    pub fn lost_count(&self) -> u64 {
        self.lost_count
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// The measured `ratio`-th percentile of delivery times across all
    /// topics, in milliseconds (0.0 when nothing was delivered).
    ///
    /// Uses the same ceiling-rank definition as the analytic model
    /// (Eq. 5), so jitter-free runs agree with it exactly.
    pub fn percentile_ms(&self, ratio_percent: f64) -> f64 {
        percentile_of(self.latencies_ms(), ratio_percent)
    }

    /// The measured percentile for a single topic (0.0 when the topic had
    /// no deliveries).
    ///
    /// # Panics
    ///
    /// Panics if `topic_index` is not the index of one of the scenario's
    /// topics.
    pub fn topic_percentile_ms(&self, topic_index: usize, ratio_percent: f64) -> f64 {
        let topics = self.topics.len();
        assert!(
            topic_index < topics,
            "topic index {topic_index} out of range for a report of {topics} topics"
        );
        // The engine checked that every topic index fits a `u32`.
        let topic = topic_index as u32;
        percentile_of(
            self.log
                .iter()
                .filter(|sent| self.publications[sent.publication as usize].topic == topic)
                .map(|sent| self.latency_ms(sent)),
            ratio_percent,
        )
    }

    /// The measured billable cost in dollars under `regions` prices.
    pub fn cost_dollars(&self, regions: &RegionSet) -> f64 {
        self.ledger.cost_dollars(regions)
    }

    /// Extrapolates the measured cost to a different wall-clock horizon,
    /// e.g. the paper's "$/day" figures from a shorter run.
    pub fn cost_dollars_per(&self, regions: &RegionSet, horizon_ms: f64) -> f64 {
        if self.duration_ms == 0.0 {
            return 0.0;
        }
        self.cost_dollars(regions) * horizon_ms / self.duration_ms
    }
}

fn percentile_of(latencies: impl Iterator<Item = f64>, ratio_percent: f64) -> f64 {
    let mut values: Vec<f64> = latencies.collect();
    multipub_obs::quantile::percentile_exact(&mut values, ratio_percent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SimPublisher, SimSubscriber};
    use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
    use multipub_core::ids::TopicId;
    use multipub_core::region::Region;

    /// A report over `topics` topics of one publisher (C0) and one
    /// subscriber (C1) each. Every `(topic, latency)` delivery is its own
    /// publication on that topic, emitted at 0 and landing `latency` ms
    /// later.
    fn report(topics: usize, deliveries: &[(u32, f64)]) -> SimReport {
        let topic = |t: usize| {
            TopicScenario::new(
                TopicId::new(format!("t{t}")),
                Configuration::new(AssignmentVector::all(1).unwrap(), DeliveryMode::Direct),
                vec![SimPublisher::new(ClientId(0), vec![0.0], 1.0, 1)],
                vec![SimSubscriber::new(ClientId(1), vec![0.0])],
            )
        };
        let publications = deliveries
            .iter()
            .map(|&(topic, _)| Publication { topic, publisher: 0, published_at: SimTime::ZERO })
            .collect();
        let log = (0..)
            .zip(deliveries)
            .map(|(publication, &(_, latency))| Sent {
                publication,
                subscriber: 0,
                delivered_at: SimTime::from_ms(latency),
            })
            .collect();
        let topics = (0..topics).map(topic).collect();
        SimReport::new(topics, publications, log, TrafficLedger::new(1), 0, 1000.0)
    }

    #[test]
    fn a_log_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Sent>(), 16);
        assert_eq!(std::mem::size_of::<Publication>(), 16);
    }

    #[test]
    fn ledger_accumulates_and_prices() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.16, 0.25),
        ])
        .unwrap();
        let mut ledger = TrafficLedger::new(2);
        ledger.record_internet(RegionId(0), 1_000_000_000);
        ledger.record_inter_region(RegionId(1), 2_000_000_000);
        assert_eq!(ledger.internet_bytes(RegionId(0)), 1_000_000_000);
        assert_eq!(ledger.inter_region_bytes(RegionId(1)), 2_000_000_000);
        let cost = ledger.cost_dollars(&regions);
        assert!((cost - (0.09 + 2.0 * 0.16)).abs() < 1e-9);
    }

    #[test]
    fn percentile_matches_ceiling_rank() {
        let report = report(1, &[(0, 10.0), (0, 20.0), (0, 30.0), (0, 40.0)]);
        // ceil(0.75 × 4) = 3 → 30.
        assert_eq!(report.percentile_ms(75.0), 30.0);
        assert_eq!(report.percentile_ms(100.0), 40.0);
        assert_eq!(report.percentile_ms(1.0), 10.0);
    }

    #[test]
    fn per_topic_percentiles() {
        let report = report(3, &[(0, 10.0), (1, 100.0), (1, 200.0)]);
        assert_eq!(report.topic_percentile_ms(0, 95.0), 10.0);
        assert_eq!(report.topic_percentile_ms(1, 95.0), 200.0);
        // A topic with no deliveries has no latency to report.
        assert_eq!(report.topic_percentile_ms(2, 95.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "topic index 9 out of range for a report of 3 topics")]
    fn topic_percentile_of_an_unknown_topic_panics() {
        let _ = report(3, &[(0, 10.0)]).topic_percentile_ms(9, 95.0);
    }

    #[test]
    fn cost_extrapolation() {
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        let mut ledger = TrafficLedger::new(1);
        ledger.record_internet(RegionId(0), 1_000_000_000);
        let report = SimReport::new(vec![], vec![], vec![], ledger, 0, 60_000.0);
        let per_day = report.cost_dollars_per(&regions, 86_400_000.0);
        assert!((per_day - 0.09 * 1440.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let report = SimReport::new(vec![], vec![], vec![], TrafficLedger::new(1), 0, 0.0);
        assert_eq!(report.percentile_ms(95.0), 0.0);
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        assert_eq!(report.cost_dollars_per(&regions, 1000.0), 0.0);
    }
}
