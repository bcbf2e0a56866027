//! Measurement collection: the delivery log, the per-region traffic ledger
//! and the final simulation report.
//!
//! The log keeps one `Publication` per publication and, in the order the
//! brokers received them, one 16-byte `Arrival` per broker arrival that
//! sent copies: the publication, when it arrived, and the routing table and
//! region it was served under, whose group names its subscribers. The
//! report builds a [`DeliveryRecord`] only when one is read, asking the
//! engine's one copy function which of an arrival's copies landed and when.
//! It asks with what the engine asked with — the arrival line, the group,
//! the run's fault plan and jitter model, and the arrival's draw key — and
//! every draw is a pure function of the copy it decides, so every copy
//! comes back as it was sent, bit for bit; none is sampled.
//!
//! Topics run apart, so there is one log per worker, holding a contiguous
//! range of topics topic by topic, and each log marks where each of its
//! topics' publications and arrivals end: a topic's percentile reads its
//! stretch alone, and its draw keys count publications from the stretch's
//! start. What is counted as it goes — the ledger and the lost and
//! delivered counts — is one `Totals` per worker, summed after the join.
//! Delivery times are not kept apart from the log: every measurement of
//! them reads the log's lines, so counts stay exact and no time is sampled.

// lint:allow-file(indexing) the ledger's per-region vectors are sized to the scenario's region count at construction, and every RegionId handed in was minted against that same count; every publication's topic and publisher index, every arrival's publication, table and region, every group's subscriber index and every stretch's bounds were taken by the engine from the tables and lines the report holds

use crate::engine::{landed_copies, Draws};
use crate::faults::FaultPlan;
use crate::jitter::Jitter;
use crate::routing::TopicRouting;
use crate::scenario::TopicScenario;
use crate::time::SimTime;
use multipub_core::ids::{ClientId, RegionId};
use multipub_core::region::RegionSet;
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

/// An arrival as the log keeps it: publication `publication` reached a
/// region at `arrived_at`, and the broker sent copies to that region's group
/// of one routing table. The table's index sits above the region's 8 bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    pub(crate) arrived_at: SimTime,
    pub(crate) publication: u32,
    table_region: u32,
}

/// How many routing tables one log numbers: an arrival's table index has
/// 24 bits.
const TABLES: usize = 1 << 24;

impl Arrival {
    /// Publication `publication` at `region` at `arrived_at`, served under
    /// table `table`, an index [`DeliveryLog::push_table`] returned.
    pub(crate) fn new(publication: u32, table: u32, region: RegionId, arrived_at: SimTime) -> Self {
        Arrival { arrived_at, publication, table_region: table << 8 | u32::from(region.0) }
    }

    /// The index of the routing table the arrival was served under.
    pub(crate) fn table(self) -> usize {
        (self.table_region >> 8) as usize
    }

    /// The region the publication reached.
    pub(crate) fn region(self) -> RegionId {
        RegionId(self.table_region as u8)
    }
}

/// Everything one worker writes down about the deliveries of its topics,
/// a contiguous range of the scenario's, topic by topic: the first topic's
/// publications, tables and arrivals, then the second's, and so on.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeliveryLog {
    /// The first of the log's topics.
    pub(crate) first_topic: usize,
    /// Every publication its topics emitted, in the order they were.
    pub(crate) publications: Vec<Publication>,
    /// Every routing table its topics' runs built, in the order they were.
    pub(crate) tables: Vec<TopicRouting>,
    /// Every arrival that sent copies, in the order it was received.
    pub(crate) arrivals: Vec<Arrival>,
    /// Where each topic's lines end, in topic order; they begin where the
    /// previous topic's end.
    pub(crate) stretches: Vec<Stretch>,
}

/// Where one topic's lines end in its log: its publications before index
/// `publications`, its arrivals before index `arrivals`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stretch {
    pub(crate) publications: usize,
    pub(crate) arrivals: usize,
}

impl DeliveryLog {
    /// An empty log whose first topic is `first_topic`.
    pub(crate) fn starting_at(first_topic: usize) -> Self {
        DeliveryLog { first_topic, ..DeliveryLog::default() }
    }

    /// Keeps `table` for the report and returns its index, which an
    /// arrival keeps in 24 bits: panics past 2^24 tables.
    pub(crate) fn push_table(&mut self, table: TopicRouting) -> u32 {
        let index = self.tables.len();
        assert!(index < TABLES, "{index} routing tables fill an arrival's 24-bit table index");
        self.tables.push(table);
        index as u32
    }

    /// Closes the stretch of the topic whose lines were written last.
    pub(crate) fn end_topic(&mut self) {
        let (publications, arrivals) = (self.publications.len(), self.arrivals.len());
        self.stretches.push(Stretch { publications, arrivals });
    }

    /// Where topic `topic` is among the log's topics, if the log holds it.
    fn index_of(&self, topic: usize) -> Option<usize> {
        topic.checked_sub(self.first_topic).filter(|&index| index < self.stretches.len())
    }

    /// Where the lines of the log's `index`-th topic begin and end.
    fn stretch(&self, index: usize) -> (Stretch, Stretch) {
        let start =
            index.checked_sub(1).map_or(Stretch::default(), |before| self.stretches[before]);
        (start, self.stretches[index])
    }
}

/// What a run counts as it goes. Each worker keeps one for all its topics,
/// and they are summed after the join: every field is an integer sum, so
/// the total is the same however the topics were split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Totals {
    pub(crate) ledger: TrafficLedger,
    /// Message copies destroyed by injected faults.
    pub(crate) lost: u64,
    /// Deliveries written to the log.
    pub(crate) delivered: u64,
}

impl Totals {
    /// Nothing counted yet, over `n_regions` regions.
    pub(crate) fn new(n_regions: usize) -> Self {
        Totals { ledger: TrafficLedger::new(n_regions), lost: 0, delivered: 0 }
    }

    /// Adds what `other` counted.
    pub(crate) fn add(&mut self, other: &Totals) {
        self.ledger.add(&other.ledger);
        self.lost += other.lost;
        self.delivered += other.delivered;
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
    /// What decided every copy, and decides it again when a line is read.
    plan: FaultPlan,
    jitter: Jitter,
    seed: u64,
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
        plan: FaultPlan,
        jitter: Jitter,
        seed: u64,
    ) -> Self {
        SimReport { topics, logs, totals, duration_ms, plan, jitter, seed }
    }

    /// All delivery records, topic by topic in topic order, each topic's in
    /// the order its brokers sent them, each built when it is read. A stable
    /// sort by `delivered_at` and then `topic_index` puts them in
    /// delivery-time order, one topic's deliveries landing at the same
    /// instant still in send order.
    pub fn deliveries(&self) -> impl ExactSizeIterator<Item = DeliveryRecord> + '_ {
        let records = self.landed().map(|(publication, subscriber, delivered_at)| {
            let topic = &self.topics[publication.topic as usize];
            DeliveryRecord {
                topic_index: publication.topic as usize,
                publisher: topic.publishers()[publication.publisher as usize].client(),
                subscriber: topic.subscribers()[subscriber as usize].client(),
                published_at: publication.published_at,
                delivered_at,
            }
        });
        // A `u64` count of values held in memory fits a `usize`.
        Deliveries { records, remaining: self.totals.delivered as usize }
    }

    /// Every copy that landed, topic by topic, each with its publication
    /// and its subscriber's index in the topic.
    fn landed(&self) -> impl Iterator<Item = (Publication, u32, SimTime)> + '_ {
        self.logs.iter().flat_map(move |log| {
            (0..log.stretches.len()).flat_map(move |index| self.topic_landed(log, index))
        })
    }

    /// Every copy of `log`'s `index`-th topic that landed, in send order,
    /// as the engine's copy function derives each arrival line's again.
    fn topic_landed<'a>(
        &'a self,
        log: &'a DeliveryLog,
        index: usize,
    ) -> impl Iterator<Item = (Publication, u32, SimTime)> + 'a {
        let (start, end) = log.stretch(index);
        let topic = log.first_topic + index;
        // The engine numbered the log's publications with `u32` indices.
        let draws = Draws::new(self.seed, topic, start.publications as u32);
        let subscribers = self.topics[topic].subscribers();
        log.arrivals[start.arrivals..end.arrivals].iter().flat_map(move |&arrival| {
            let publication = log.publications[arrival.publication as usize];
            let group = log.tables[arrival.table()].local_subscribers(arrival.region());
            let delivery = self.plan.deliveries_at(arrival.arrived_at);
            let key = draws.at(arrival.publication, arrival.region());
            landed_copies(arrival, group, subscribers, delivery, &self.plan, self.jitter, key)
                .map(move |(subscriber, delivered_at)| (publication, subscriber, delivered_at))
        })
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
        self.landed().for_each(|(publication, _, delivered_at)| {
            latencies.push(delivered_at - publication.published_at);
        });
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
        let holder = self.logs.iter().find_map(|log| Some((log, log.index_of(topic_index)?)));
        if let Some((log, index)) = holder {
            self.topic_landed(log, index).for_each(|(publication, _, delivered_at)| {
                latencies.push(delivered_at - publication.published_at);
            });
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

/// A report's deliveries, their count known before they are read.
struct Deliveries<I> {
    records: I,
    remaining: usize,
}

impl<I: Iterator<Item = DeliveryRecord>> Iterator for Deliveries<I> {
    type Item = DeliveryRecord;

    fn next(&mut self) -> Option<DeliveryRecord> {
        self.records.next().inspect(|_| self.remaining -= 1)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<I: Iterator<Item = DeliveryRecord>> ExactSizeIterator for Deliveries<I> {}

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
    /// subscriber (C1) each, in one log of one routing table a topic, under
    /// the quiet plan. Every `(topic, latency)` delivery is its own
    /// publication on that topic, emitted at 0, whose one arrival comes
    /// `latency` ms later at the subscriber's region, 0 ms from it; the
    /// deliveries come topic by topic.
    fn report(topics: usize, deliveries: &[(u32, f64)]) -> SimReport {
        assert!(deliveries.is_sorted_by_key(|&(topic, _)| topic));
        let topic = |t: usize| {
            TopicScenario::new(
                TopicId::new(format!("t{t}")),
                Configuration::new(AssignmentVector::all(1).unwrap(), DeliveryMode::Direct),
                vec![SimPublisher::new(ClientId(0), vec![0.0], 1.0, 1)],
                vec![SimSubscriber::new(ClientId(1), vec![0.0])],
            )
        };
        let topics: Vec<TopicScenario> = (0..topics).map(topic).collect();
        let mut log = DeliveryLog::starting_at(0);
        for (t, scenario) in (0..).zip(&topics) {
            let table = log.push_table(TopicRouting::new(scenario, scenario.configuration(), 1));
            for &(_, latency) in deliveries.iter().filter(|&&(topic, _)| topic == t) {
                let publication = log.publications.len() as u32;
                log.publications.push(Publication {
                    topic: t,
                    publisher: 0,
                    published_at: SimTime::ZERO,
                });
                let at = SimTime::from_ms(latency);
                log.arrivals.push(Arrival::new(publication, table, RegionId(0), at));
            }
            log.end_topic();
        }
        let totals = delivered(deliveries.len() as u64, 1);
        SimReport::new(topics, vec![log], totals, 1000.0, FaultPlan::none(), Jitter::Disabled, 0)
    }

    #[test]
    fn a_log_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Publication>(), 16);
    }

    #[test]
    fn an_arrival_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Arrival>(), 16);
        let arrival = Arrival::new(7, (TABLES - 1) as u32, RegionId(u8::MAX), SimTime::ZERO);
        assert_eq!((arrival.table(), arrival.region()), (TABLES - 1, RegionId(u8::MAX)));
    }

    #[test]
    fn arrival_lines_expand_into_the_copies_that_landed() {
        // One topic of three subscribers, two homed at region 0 (latencies
        // 3 and 4) and one at region 1 (latency 5); publications 0 and 1
        // emitted at 0 and 10. A quarter of the copies are lost, and a
        // duplicate window doubles what is sent over [12, 13).
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
        let plan = FaultPlan::none()
            .with_loss_rate(0.25)
            .with_duplicate(crate::faults::DuplicateDelivery::new(2, 12.0, 13.0));
        let at = SimTime::from_ms;
        let mut log = DeliveryLog::starting_at(0);
        let table = log.push_table(TopicRouting::new(&topic, topic.configuration(), 2));
        log.publications = [0.0, 10.0]
            .map(|ms| Publication { topic: 0, publisher: 0, published_at: at(ms) })
            .to_vec();
        // Region 0 has publication 0 at 1, region 1 publication 1 at 11,
        // and region 0 publication 1 at 12, inside the duplicate window.
        log.arrivals = vec![
            Arrival::new(0, table, RegionId(0), at(1.0)),
            Arrival::new(1, table, RegionId(1), at(11.0)),
            Arrival::new(1, table, RegionId(0), at(12.0)),
        ];
        log.end_topic();
        // Under seed SEED the first two arrivals lose nothing and the
        // third loses one of its four copies, one of ClientId(3)'s two.
        const SEED: u64 = 10;
        let report = SimReport::new(
            vec![topic],
            vec![log],
            delivered(6, 2),
            1000.0,
            plan,
            Jitter::Disabled,
            SEED,
        );
        let deliveries = report.deliveries();
        assert_eq!(deliveries.len(), 6);
        let rows: Vec<(ClientId, f64, f64)> = deliveries
            .map(|d| (d.subscriber, d.published_at.as_ms(), d.delivered_at.as_ms()))
            .collect();
        let (one, two, three) = (ClientId(1), ClientId(2), ClientId(3));
        assert_eq!(
            rows,
            [
                (one, 0.0, 4.0), // region 0's group: subscribers 0 and 2
                (three, 0.0, 5.0),
                (two, 10.0, 16.0), // region 1's group: subscriber 1
                (one, 10.0, 15.0), // two copies each, one lost
                (one, 10.0, 15.0),
                (three, 10.0, 16.0),
            ]
        );
        // Percentiles read every arrival's copies: sorted latencies are
        // 4 5 5 5 6 6.
        assert_eq!(report.percentile_ms(50.0), 5.0);
        assert_eq!(report.percentile_ms(20.0), 5.0);
        assert_eq!(report.percentile_ms(10.0), 4.0);
        assert_eq!(report.topic_percentile_ms(0, 100.0), 6.0);
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
        let report = SimReport::new(
            vec![],
            vec![],
            totals,
            60_000.0,
            FaultPlan::none(),
            Jitter::Disabled,
            0,
        );
        let per_day = report.cost_dollars_per(&regions, 86_400_000.0);
        assert!((per_day - 0.09 * 1440.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let report = SimReport::new(
            vec![],
            vec![],
            Totals::new(1),
            0.0,
            FaultPlan::none(),
            Jitter::Disabled,
            0,
        );
        assert_eq!(report.percentile_ms(95.0), 0.0);
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        assert_eq!(report.cost_dollars_per(&regions, 1000.0), 0.0);
    }
}
