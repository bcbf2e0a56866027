//! Measurement collection: the delivery log, the per-region traffic ledger
//! and the final simulation report.
//!
//! The log keeps one `Publication` per publication and, in send order, two
//! kinds of line. A copy sent on its own — one that could be lost,
//! jittered, reordered, duplicated or stalled — is a 16-byte `Sent` entry.
//! A quiet arrival, whose copies all land exactly their subscriber's
//! latency after it, is one 24-byte `Arrival`: the publication, the routing
//! table it was served under, the region and when it arrived, and its
//! position among the `Sent` entries. The report builds a full
//! [`DeliveryRecord`] only when one is read, expanding an arrival into one
//! record per subscriber of its table's group for that region, and merges
//! the two kinds of line back into send order by position.
//!
//! Topics run apart, so there is one log per worker, holding a contiguous
//! range of topics topic by topic, and each log marks where each of its
//! topics' lines end. The report reads the logs in topic order; a topic's
//! percentile reads that topic's stretch alone. What is counted as it
//! goes — the ledger, the lost and delivered counts, the latency tally —
//! is one `Totals` per worker, summed after the join.

// lint:allow-file(indexing) the ledger's per-region vectors are sized to the scenario's region count at construction, and every RegionId handed in was minted against that same count; every log entry's publication, topic, publisher and subscriber index, every arrival's table index and region, and every group's subscriber index was taken by the engine from the tables the report holds, and an arrival's position is the length the `Sent` entries had when it was written

use crate::routing::TopicRouting;
use crate::scenario::{SimSubscriber, TopicScenario};
use crate::time::SimTime;
use multipub_core::ids::{ClientId, RegionId};
use multipub_core::region::RegionSet;
use multipub_obs::histogram::Tally;
use multipub_obs::quantile::percentile_exact;

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

/// One delivery sent on its own, as the log keeps it: the publication's
/// index in the publication table, the subscriber's index in its topic,
/// and when the copy lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sent {
    pub(crate) publication: u32,
    pub(crate) subscriber: u32,
    pub(crate) delivered_at: SimTime,
}

/// A quiet arrival as the log keeps it: publication `publication` reached
/// `region` at `arrived_at`, and the broker sent one copy to each
/// subscriber in routing table `table`'s group for that region, each
/// landing exactly its latency to the region later. The copies come after
/// the first `position` `Sent` entries in send order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    pub(crate) publication: u32,
    pub(crate) table: u32,
    pub(crate) position: u32,
    pub(crate) region: RegionId,
    pub(crate) arrived_at: SimTime,
}

impl Arrival {
    /// When this arrival's copy to `subscriber` lands. The engine tallies
    /// and the report reads the same sum, so both see the same bits.
    pub(crate) fn landing(&self, subscriber: &SimSubscriber) -> SimTime {
        self.arrived_at + subscriber.latencies()[self.region.index()]
    }
}

/// Everything one worker writes down about the deliveries of its topics,
/// a contiguous range of the scenario's, topic by topic: the first topic's
/// publications, tables and lines, then the second's, and so on.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeliveryLog {
    /// The first of the log's topics.
    pub(crate) first_topic: usize,
    /// Every publication its topics emitted, in the order they were.
    pub(crate) publications: Vec<Publication>,
    /// Every routing table its topics' runs built, in the order they were.
    pub(crate) tables: Vec<TopicRouting>,
    /// The deliveries sent on their own, in the order the brokers sent them.
    pub(crate) sent: Vec<Sent>,
    /// The quiet arrivals, in the order the brokers received them.
    pub(crate) arrivals: Vec<Arrival>,
    /// Where each topic's lines end, in topic order; they begin where the
    /// previous topic's end.
    pub(crate) stretches: Vec<Stretch>,
}

/// Where one topic's lines end in its log: its `Sent` entries end before
/// index `sent`, its quiet arrivals before index `arrivals`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stretch {
    pub(crate) sent: usize,
    pub(crate) arrivals: usize,
}

impl DeliveryLog {
    /// An empty log whose first topic is `first_topic`.
    pub(crate) fn starting_at(first_topic: usize) -> Self {
        DeliveryLog { first_topic, ..DeliveryLog::default() }
    }

    /// Closes the stretch of the topic whose lines were written last.
    pub(crate) fn end_topic(&mut self) {
        self.stretches.push(Stretch { sent: self.sent.len(), arrivals: self.arrivals.len() });
    }

    /// The stretch of topic `topic`, if this log holds it: where its `Sent`
    /// entries and its quiet arrivals begin and end.
    fn stretch(&self, topic: usize) -> Option<(Stretch, Stretch)> {
        let index = topic.checked_sub(self.first_topic)?;
        let end = *self.stretches.get(index)?;
        let start =
            index.checked_sub(1).map_or(Stretch::default(), |before| self.stretches[before]);
        Some((start, end))
    }

    /// Appends the end-to-end time of every delivery written between
    /// `start` and `end` to `latencies`: the `Sent` entries', then each
    /// quiet arrival's group's.
    fn latencies_ms(
        &self,
        topics: &[TopicScenario],
        (start, end): (Stretch, Stretch),
        latencies: &mut Vec<f64>,
    ) {
        for sent in &self.sent[start.sent..end.sent] {
            let publication = &self.publications[sent.publication as usize];
            latencies.push(sent.delivered_at - publication.published_at);
        }
        for arrival in &self.arrivals[start.arrivals..end.arrivals] {
            let publication = &self.publications[arrival.publication as usize];
            let subscribers = topics[publication.topic as usize].subscribers();
            let group = self.tables[arrival.table as usize].local_subscribers(arrival.region);
            latencies.extend(group.iter().map(|&subscriber| {
                arrival.landing(&subscribers[subscriber as usize]) - publication.published_at
            }));
        }
    }

    /// The stretch of every line of the log.
    fn whole(&self) -> (Stretch, Stretch) {
        (Stretch::default(), Stretch { sent: self.sent.len(), arrivals: self.arrivals.len() })
    }
}

/// What a run counts as it goes. Each worker keeps one for all its topics,
/// and they are summed after the join: every field is an integer sum (or a
/// maximum), so the total is the same however the topics were split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Totals {
    pub(crate) ledger: TrafficLedger,
    /// Message copies destroyed by injected faults.
    pub(crate) lost: u64,
    /// Deliveries written to the log.
    pub(crate) delivered: u64,
    /// Every delivery's end-to-end time, tallied as it was sent.
    pub(crate) latencies: Tally,
}

impl Totals {
    /// Nothing counted yet, over `n_regions` regions.
    pub(crate) fn new(n_regions: usize) -> Self {
        Totals {
            ledger: TrafficLedger::new(n_regions),
            lost: 0,
            delivered: 0,
            latencies: Tally::new(),
        }
    }

    /// Adds what `other` counted.
    pub(crate) fn add(&mut self, other: &Totals) {
        self.ledger.add(&other.ledger);
        self.lost += other.lost;
        self.delivered += other.delivered;
        self.latencies.merge(&other.latencies);
    }
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

    /// Adds every byte `other` recorded.
    fn add(&mut self, other: &TrafficLedger) {
        let pairs = self.internet_bytes.iter_mut().zip(&other.internet_bytes);
        let inter_region = self.inter_region_bytes.iter_mut().zip(&other.inter_region_bytes);
        for (bytes, &more) in pairs.chain(inter_region) {
            *bytes += more;
        }
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
///
/// Two reports are equal when they hold the same topics, the same
/// deliveries in the same order, the same counts and the same duration,
/// however many workers wrote their logs.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The scenario's topics, whose client lists turn the log's indices
    /// back into client ids.
    topics: Vec<TopicScenario>,
    /// One log per worker, in topic order.
    pub(crate) logs: Vec<DeliveryLog>,
    totals: Totals,
    duration_ms: f64,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &SimReport) -> bool {
        self.topics == other.topics
            && self.totals == other.totals
            && self.duration_ms == other.duration_ms
            && self.deliveries().eq(other.deliveries())
    }
}

impl SimReport {
    pub(crate) fn new(
        topics: Vec<TopicScenario>,
        logs: Vec<DeliveryLog>,
        totals: Totals,
        duration_ms: f64,
    ) -> Self {
        SimReport { topics, logs, totals, duration_ms }
    }

    /// All delivery records, topic by topic in topic order, each topic's in
    /// the order its brokers sent them, each built when it is read. A stable
    /// sort by `delivered_at` and then `topic_index` puts them in
    /// delivery-time order, one topic's deliveries landing at the same
    /// instant still in send order.
    pub fn deliveries(&self) -> impl ExactSizeIterator<Item = DeliveryRecord> + '_ {
        Deliveries {
            report: self,
            logs: self.logs.iter(),
            log: None,
            next_sent: 0,
            arrivals: &[],
            arrival: None,
            group: [].iter(),
            // A `u64` count of values held in memory fits a `usize`.
            remaining: self.totals.delivered as usize,
        }
    }

    /// The record of a copy of `log`'s publication `publication` to
    /// subscriber `subscriber` of its topic, landing when `landing` says.
    fn record(
        &self,
        log: &DeliveryLog,
        publication: u32,
        subscriber: u32,
        landing: impl FnOnce(&SimSubscriber) -> SimTime,
    ) -> DeliveryRecord {
        let publication = log.publications[publication as usize];
        let topic = &self.topics[publication.topic as usize];
        let subscriber = &topic.subscribers()[subscriber as usize];
        DeliveryRecord {
            topic_index: publication.topic as usize,
            publisher: topic.publishers()[publication.publisher as usize].client(),
            subscriber: subscriber.client(),
            published_at: publication.published_at,
            delivered_at: landing(subscriber),
        }
    }

    /// Every delivery's end-to-end time, tallied as the brokers sent it —
    /// what [`crate::engine::Engine::run`] adds to the
    /// `multipub_netsim_delivery_ms` histogram.
    pub fn latency_tally(&self) -> &Tally {
        &self.totals.latencies
    }

    /// Number of deliveries completed.
    pub fn delivery_count(&self) -> u64 {
        self.totals.delivered
    }

    /// Number of publications emitted.
    pub fn published_count(&self) -> u64 {
        self.logs.iter().map(|log| log.publications.len() as u64).sum()
    }

    /// Number of in-flight message copies destroyed by injected faults
    /// (packet loss or arrival at a region inside an outage window). Zero
    /// for fault-free runs.
    pub fn lost_count(&self) -> u64 {
        self.totals.lost
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.totals.ledger
    }

    /// The measured `ratio`-th percentile of delivery times across all
    /// topics, in milliseconds (0.0 when nothing was delivered).
    ///
    /// Uses the same ceiling-rank definition as the analytic model
    /// (Eq. 5), so jitter-free runs agree with it exactly.
    pub fn percentile_ms(&self, ratio_percent: f64) -> f64 {
        let mut latencies = Vec::with_capacity(self.deliveries().len());
        for log in &self.logs {
            log.latencies_ms(&self.topics, log.whole(), &mut latencies);
        }
        percentile_exact(&mut latencies, ratio_percent)
    }

    /// The measured percentile for a single topic (0.0 when the topic had
    /// no deliveries). Reads only the topic's own stretch of its log.
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
        let mut latencies = Vec::new();
        for log in &self.logs {
            if let Some(stretch) = log.stretch(topic_index) {
                log.latencies_ms(&self.topics, stretch, &mut latencies);
            }
        }
        percentile_exact(&mut latencies, ratio_percent)
    }

    /// The measured billable cost in dollars under `regions` prices.
    pub fn cost_dollars(&self, regions: &RegionSet) -> f64 {
        self.totals.ledger.cost_dollars(regions)
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

/// A report's deliveries in send order, log by log: in each log, the `Sent`
/// entries up to each quiet arrival's position, then that arrival's group,
/// then the entries after the last arrival.
struct Deliveries<'a> {
    report: &'a SimReport,
    /// The logs not yet started.
    logs: std::slice::Iter<'a, DeliveryLog>,
    /// The log being read.
    log: Option<&'a DeliveryLog>,
    /// The next `Sent` entry of `log` to read.
    next_sent: usize,
    /// The arrivals of `log` not yet expanded.
    arrivals: &'a [Arrival],
    /// The arrival being expanded, and what is left of its group.
    arrival: Option<&'a Arrival>,
    group: std::slice::Iter<'a, u32>,
    remaining: usize,
}

impl Iterator for Deliveries<'_> {
    type Item = DeliveryRecord;

    fn next(&mut self) -> Option<DeliveryRecord> {
        let report = self.report;
        loop {
            let Some(log) = self.log else {
                let log = self.logs.next()?;
                (self.log, self.next_sent, self.arrivals) = (Some(log), 0, &log.arrivals);
                continue;
            };
            if let Some(arrival) = self.arrival {
                if let Some(&subscriber) = self.group.next() {
                    self.remaining -= 1;
                    return Some(report.record(
                        log,
                        arrival.publication,
                        subscriber,
                        |subscriber| arrival.landing(subscriber),
                    ));
                }
            }
            let until = self.arrivals.first().map_or(log.sent.len(), |next| next.position as usize);
            if self.next_sent < until {
                let sent = log.sent[self.next_sent];
                self.next_sent += 1;
                self.remaining -= 1;
                return Some(
                    report.record(log, sent.publication, sent.subscriber, |_| sent.delivered_at),
                );
            }
            match self.arrivals.split_first() {
                Some((arrival, later)) => {
                    self.arrivals = later;
                    self.arrival = Some(arrival);
                    self.group =
                        log.tables[arrival.table as usize].local_subscribers(arrival.region).iter();
                }
                None => (self.log, self.arrival) = (None, None),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Deliveries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SimPublisher, SimSubscriber};
    use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
    use multipub_core::ids::TopicId;
    use multipub_core::region::Region;

    /// Totals of `delivered` deliveries over `n_regions` regions.
    fn delivered(delivered: u64, n_regions: usize) -> Totals {
        Totals { delivered, ..Totals::new(n_regions) }
    }

    /// A report over `topics` topics of one publisher (C0) and one
    /// subscriber (C1) each, in one log. Every `(topic, latency)` delivery
    /// is its own publication on that topic, emitted at 0 and landing
    /// `latency` ms later; the deliveries come topic by topic.
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
        let sent = (0..)
            .zip(deliveries)
            .map(|(publication, &(_, latency))| Sent {
                publication,
                subscriber: 0,
                delivered_at: SimTime::from_ms(latency),
            })
            .collect();
        assert!(deliveries.is_sorted_by_key(|&(topic, _)| topic));
        let stretches = (0..topics as u32)
            .map(|t| {
                let sent = deliveries.iter().filter(|&&(topic, _)| topic <= t).count();
                Stretch { sent, arrivals: 0 }
            })
            .collect();
        let log = DeliveryLog { publications, sent, stretches, ..DeliveryLog::default() };
        let totals = delivered(deliveries.len() as u64, 1);
        SimReport::new((0..topics).map(topic).collect(), vec![log], totals, 1000.0)
    }

    #[test]
    fn a_log_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Sent>(), 16);
        assert_eq!(std::mem::size_of::<Publication>(), 16);
    }

    #[test]
    fn an_arrival_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Arrival>(), 24);
    }

    #[test]
    fn arrivals_merge_with_sent_entries_by_position() {
        // One topic of three subscribers, two homed at region 0 (latencies
        // 3 and 4) and one at region 1 (latency 5); publications 0 and 1
        // emitted at 0 and 10.
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
            vec![SimPublisher::new(ClientId(0), vec![0.0, 0.0], 1.0, 1)],
            vec![
                SimSubscriber::new(ClientId(1), vec![3.0, 9.0]),
                SimSubscriber::new(ClientId(2), vec![9.0, 5.0]),
                SimSubscriber::new(ClientId(3), vec![4.0, 9.0]),
            ],
        );
        let table = TopicRouting::new(&topic, topic.configuration(), 2);
        let at = SimTime::from_ms;
        let publication = |published_at| Publication { topic: 0, publisher: 0, published_at };
        let sent = |publication, subscriber, delivered_at| Sent {
            publication,
            subscriber,
            delivered_at: at(delivered_at),
        };
        let arrival = |publication, position, region, arrived_at| Arrival {
            publication,
            table: 0,
            position,
            region: RegionId(region),
            arrived_at: at(arrived_at),
        };
        let log = DeliveryLog {
            publications: vec![publication(at(0.0)), publication(at(10.0))],
            tables: vec![table],
            // Sent first, an arrival at region 0, two more sent entries, an
            // arrival at region 1, then one last sent entry.
            sent: vec![sent(0, 1, 50.0), sent(1, 0, 60.0), sent(1, 2, 61.0), sent(0, 0, 70.0)],
            arrivals: vec![arrival(0, 1, 0, 1.0), arrival(1, 3, 1, 11.0)],
            stretches: vec![Stretch { sent: 4, arrivals: 2 }],
            ..DeliveryLog::default()
        };
        let report = SimReport::new(vec![topic], vec![log], delivered(7, 2), 1000.0);
        let deliveries = report.deliveries();
        assert_eq!(deliveries.len(), 7);
        let rows: Vec<(ClientId, f64, f64)> = deliveries
            .map(|d| (d.subscriber, d.published_at.as_ms(), d.delivered_at.as_ms()))
            .collect();
        let (one, two, three) = (ClientId(1), ClientId(2), ClientId(3));
        assert_eq!(
            rows,
            [
                (two, 0.0, 50.0),
                (one, 0.0, 4.0), // region 0's group: subscribers 0 and 2
                (three, 0.0, 5.0),
                (one, 10.0, 60.0),
                (three, 10.0, 61.0),
                (two, 10.0, 16.0), // region 1's group: subscriber 1
                (one, 0.0, 70.0),
            ]
        );
        // Percentiles read the arrivals' groups too: sorted latencies are
        // 4 5 6 50 50 51 70.
        assert_eq!(report.percentile_ms(50.0), 50.0);
        assert_eq!(report.percentile_ms(30.0), 6.0);
        assert_eq!(report.topic_percentile_ms(0, 100.0), 70.0);
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
        let totals = Totals { ledger, ..Totals::new(1) };
        let report = SimReport::new(vec![], vec![], totals, 60_000.0);
        let per_day = report.cost_dollars_per(&regions, 86_400_000.0);
        assert!((per_day - 0.09 * 1440.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let report = SimReport::new(vec![], vec![], Totals::new(1), 0.0);
        assert_eq!(report.percentile_ms(95.0), 0.0);
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        assert_eq!(report.cost_dollars_per(&regions, 1000.0), 0.0);
    }
}
