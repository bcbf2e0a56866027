//! Scenario description: which topics exist, how they are configured, and
//! who publishes/subscribes at what rate.
//!
//! A topic's client lists and every client's latency row are shared by
//! `Arc`: cloning a scenario for the next run, and taking the analytic
//! [`TopicWorkload`] of a topic, bump reference counts and copy no row.
//!
//! Clients are checked as they are built: a latency value by the client
//! constructors, under the row rule of `multipub_core`'s
//! [`validate_latency_row`], and ids by [`TopicScenario::new`]. A topic's
//! workload is then one [`TopicWorkload::new`], which checks them all
//! again together with the row width.

use crate::faults::FaultPlan;
use multipub_core::assignment::Configuration;
use multipub_core::error::Error;
use multipub_core::ids::{ClientId, TopicId};
use multipub_core::latency::{validate_latency_row, InterRegionMatrix};
use multipub_core::region::RegionSet;
use multipub_core::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};
use std::sync::Arc;

/// A simulated publisher: identity, latency row, publication rate and
/// (constant) publication size.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPublisher {
    client: ClientId,
    latencies: Arc<[f64]>,
    rate_per_sec: f64,
    size_bytes: u64,
    phase_ms: f64,
}

impl SimPublisher {
    /// Creates a publisher emitting `rate_per_sec` messages per second of
    /// `size_bytes` each, starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite, or a latency is
    /// negative, NaN or infinite.
    pub fn new(
        client: ClientId,
        latencies: impl Into<Arc<[f64]>>,
        rate_per_sec: f64,
        size_bytes: u64,
    ) -> Self {
        Self::with_phase(client, latencies, rate_per_sec, size_bytes, 0.0)
    }

    /// Creates a publisher whose first message is delayed by `phase_ms`,
    /// useful to desynchronize otherwise identical publishers.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive/finite, the phase is negative, or
    /// a latency is negative, NaN or infinite.
    pub fn with_phase(
        client: ClientId,
        latencies: impl Into<Arc<[f64]>>,
        rate_per_sec: f64,
        size_bytes: u64,
        phase_ms: f64,
    ) -> Self {
        assert!(rate_per_sec > 0.0 && rate_per_sec.is_finite(), "rate must be positive");
        assert!(phase_ms >= 0.0 && phase_ms.is_finite(), "phase must be non-negative");
        let latencies = latencies.into();
        assert_latencies("publisher", client, &latencies);
        SimPublisher { client, latencies, rate_per_sec, size_bytes, phase_ms }
    }

    /// The publisher's client id.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// One-way latency row towards every region, in milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Publication rate, messages per second.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// Size of each publication, in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Delay of the first publication, in milliseconds.
    pub fn phase_ms(&self) -> f64 {
        self.phase_ms
    }

    /// The publication timestamps within a run of `duration_ms`
    /// milliseconds: `phase + k / rate` for every `k` with a timestamp
    /// strictly below the duration.
    pub(crate) fn publish_times_ms(&self, duration_ms: f64) -> impl Iterator<Item = f64> {
        let (phase, period) = (self.phase_ms, 1000.0 / self.rate_per_sec);
        (0u64..).map(move |k| phase + k as f64 * period).take_while(move |&t| t < duration_ms)
    }
}

/// Panics unless every entry of `client`'s latency row is finite and
/// non-negative: the values the model's [`TopicWorkload::new`] accepts.
fn assert_latencies(role: &str, client: ClientId, latencies: &[f64]) {
    if let Err(Error::InvalidLatency { value }) = validate_latency_row(latencies, latencies.len()) {
        // lint:allow(panic) the documented panic of the client constructors
        panic!("{role} {client} latency {value} must be finite and non-negative");
    }
}

/// Panics if a client id appears twice among `clients`, one role of `topic`.
fn assert_unique(role: &str, topic: &TopicId, clients: impl Iterator<Item = ClientId>) {
    let mut clients: Vec<ClientId> = clients.collect();
    clients.sort_unstable();
    for (a, b) in clients.iter().zip(clients.iter().skip(1)) {
        assert_ne!(a, b, "{role} {a} appears twice in topic {topic}");
    }
}

/// A simulated subscriber: identity and latency row.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSubscriber {
    client: ClientId,
    latencies: Arc<[f64]>,
}

impl SimSubscriber {
    /// Creates a subscriber.
    ///
    /// # Panics
    ///
    /// Panics if a latency is negative, NaN or infinite.
    pub fn new(client: ClientId, latencies: impl Into<Arc<[f64]>>) -> Self {
        let latencies = latencies.into();
        assert_latencies("subscriber", client, &latencies);
        SimSubscriber { client, latencies }
    }

    /// The subscriber's client id.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// One-way latency row towards every region, in milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }
}

/// One topic in a scenario: its configuration and its clients.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicScenario {
    id: TopicId,
    configuration: Configuration,
    publishers: Arc<[SimPublisher]>,
    subscribers: Arc<[SimSubscriber]>,
}

impl TopicScenario {
    /// Creates a topic scenario.
    ///
    /// # Panics
    ///
    /// Panics if two publishers, or two subscribers, share a client id.
    pub fn new(
        id: TopicId,
        configuration: Configuration,
        publishers: Vec<SimPublisher>,
        subscribers: Vec<SimSubscriber>,
    ) -> Self {
        assert_unique("publisher", &id, publishers.iter().map(SimPublisher::client));
        assert_unique("subscriber", &id, subscribers.iter().map(SimSubscriber::client));
        TopicScenario {
            id,
            configuration,
            publishers: publishers.into(),
            subscribers: subscribers.into(),
        }
    }

    /// The topic id.
    pub fn id(&self) -> &TopicId {
        &self.id
    }

    /// The configuration the brokers use for this topic.
    pub fn configuration(&self) -> Configuration {
        self.configuration
    }

    /// Replaces the configuration (used when replaying controller
    /// decisions).
    pub fn set_configuration(&mut self, configuration: Configuration) {
        self.configuration = configuration;
    }

    /// The topic's publishers.
    pub fn publishers(&self) -> &[SimPublisher] {
        &self.publishers
    }

    /// The topic's subscribers.
    pub fn subscribers(&self) -> &[SimSubscriber] {
        &self.subscribers
    }

    /// The analytic [`TopicWorkload`] corresponding to a run of
    /// `duration_ms`: identical clients, with message batches equal to
    /// what the engine will actually emit. This is the bridge between the
    /// simulator and the `multipub-core` evaluator.
    ///
    /// # Panics
    ///
    /// Panics if a latency row's width differs from `n_regions`, which
    /// `Scenario::new` rules out for its own region count: the one check of
    /// [`TopicWorkload::new`] that the client constructors and
    /// [`TopicScenario::new`] do not make first.
    ///
    /// The workload's clients share this topic's latency rows.
    pub fn workload(&self, n_regions: usize, duration_ms: f64) -> TopicWorkload {
        let publishers = self.publishers.iter().map(|publisher| {
            let count = publisher.publish_times_ms(duration_ms).count() as u64;
            let batch = MessageBatch::uniform(count, publisher.size_bytes());
            Publisher::new(publisher.client(), Arc::clone(&publisher.latencies), batch)
        });
        let subscribers = self.subscribers.iter().map(|subscriber| {
            Subscriber::new(subscriber.client(), Arc::clone(&subscriber.latencies))
        });
        TopicWorkload::new(n_regions, publishers.collect(), subscribers.collect())
            // lint:allow(panic) values and ids were checked when the clients and topic were built; a wrong width is the documented panic
            .expect("row width must be n_regions")
    }

    /// Panics, naming the topic and the client, unless every latency row has
    /// exactly `n_regions` entries.
    pub(crate) fn assert_rows_fit(&self, n_regions: usize) {
        let publishers = self.publishers.iter().map(|p| ("publisher", p.client, &p.latencies));
        let subscribers = self.subscribers.iter().map(|s| ("subscriber", s.client, &s.latencies));
        for (role, client, row) in publishers.chain(subscribers) {
            assert!(
                row.len() == n_regions,
                "topic {}: {role} {client} latency row width {} differs from the \
                 {n_regions}-region deployment",
                self.id,
                row.len()
            );
        }
    }
}

/// A complete simulation scenario: the deployment (regions + inter-region
/// latencies) and the topics to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    regions: RegionSet,
    inter: InterRegionMatrix,
    topics: Vec<TopicScenario>,
    faults: FaultPlan,
}

impl Scenario {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the inter-region matrix width differs from the region
    /// count or any client latency row has the wrong width — scenario
    /// construction bugs, not runtime conditions. Latency values and client
    /// ids are checked where clients and topics are built (and checked
    /// again, with the widths, by each [`TopicWorkload::new`] of
    /// [`TopicScenario::workload`]), so they hold for topics swapped in
    /// through [`Scenario::topics_mut`] too. `Engine::new`
    /// checks every row width again, for those topics, and every
    /// configuration against the region count.
    pub fn new(regions: RegionSet, inter: InterRegionMatrix, topics: Vec<TopicScenario>) -> Self {
        assert_eq!(regions.len(), inter.len(), "inter-region matrix must cover every region");
        for topic in &topics {
            topic.assert_rows_fit(regions.len());
        }
        Scenario { regions, inter, topics, faults: FaultPlan::none() }
    }

    /// Attaches a fault schedule to the scenario (builder style). The
    /// default plan is quiet, so fault-free scenarios behave exactly as
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if an outage or degradation references a region outside the
    /// deployment.
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        let n = self.regions.len();
        for outage in faults.outages() {
            assert!(outage.region().index() < n, "outage region {} out of range", outage.region());
        }
        for degradation in faults.degradations() {
            assert!(
                degradation.from().index() < n && degradation.to().index() < n,
                "degraded link {} -> {} out of range",
                degradation.from(),
                degradation.to()
            );
        }
        self.faults = faults;
        self
    }

    /// The scenario's fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The deployment's regions.
    pub fn regions(&self) -> &RegionSet {
        &self.regions
    }

    /// The deployment's inter-region latencies.
    pub fn inter(&self) -> &InterRegionMatrix {
        &self.inter
    }

    /// The scenario's topics.
    pub fn topics(&self) -> &[TopicScenario] {
        &self.topics
    }

    /// Mutable access to topics (e.g. to apply a new configuration
    /// between runs).
    pub fn topics_mut(&mut self) -> &mut [TopicScenario] {
        &mut self.topics
    }

    /// Takes the scenario apart for the engine, which owns each piece once.
    pub(crate) fn into_parts(
        self,
    ) -> (RegionSet, InterRegionMatrix, Vec<TopicScenario>, FaultPlan) {
        (self.regions, self.inter, self.topics, self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_core::assignment::{AssignmentVector, DeliveryMode};
    use multipub_core::region::Region;

    fn regions2() -> RegionSet {
        RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09), Region::new("b", "B", 0.09, 0.14)])
            .unwrap()
    }

    fn zeros(n: usize) -> InterRegionMatrix {
        InterRegionMatrix::from_rows(vec![vec![0.0; n]; n]).unwrap()
    }

    #[test]
    fn publish_times_respect_rate_and_duration() {
        let p = SimPublisher::new(ClientId(0), vec![1.0, 2.0], 10.0, 100);
        let times: Vec<f64> = p.publish_times_ms(1000.0).collect();
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], 0.0);
        assert_eq!(times[1], 100.0);
        assert_eq!(p.publish_times_ms(1000.0).count(), 10);
    }

    #[test]
    fn phase_shifts_first_message() {
        let p = SimPublisher::with_phase(ClientId(0), vec![1.0, 2.0], 1.0, 100, 250.0);
        let times: Vec<f64> = p.publish_times_ms(2000.0).collect();
        assert_eq!(times, vec![250.0, 1250.0]);
    }

    #[test]
    fn phase_beyond_duration_means_no_messages() {
        let p = SimPublisher::with_phase(ClientId(0), vec![1.0, 2.0], 1.0, 100, 5000.0);
        assert_eq!(p.publish_times_ms(1000.0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = SimPublisher::new(ClientId(0), vec![], 0.0, 100);
    }

    #[test]
    #[should_panic(expected = "publisher C3 latency NaN must be finite and non-negative")]
    fn nan_latency_rejected() {
        let _ = SimPublisher::new(ClientId(3), vec![f64::NAN, 1.0], 10.0, 100);
    }

    #[test]
    #[should_panic(expected = "subscriber C4 latency -100 must be finite and non-negative")]
    fn negative_latency_rejected() {
        let _ = SimSubscriber::new(ClientId(4), vec![-100.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "subscriber C1 appears twice in topic t")]
    fn duplicate_client_rejected() {
        let _ = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Routed),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 100)],
            vec![
                SimSubscriber::new(ClientId(1), vec![60.0, 5.0]),
                SimSubscriber::new(ClientId(1), vec![5.0, 60.0]),
            ],
        );
    }

    #[test]
    fn workload_mirrors_scenario() {
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 2.0, 256)],
            vec![SimSubscriber::new(ClientId(1), vec![60.0, 5.0])],
        );
        let w = topic.workload(2, 3000.0);
        assert_eq!(w.publisher_count(), 1);
        assert_eq!(w.total_messages(), 6);
        assert_eq!(w.publishers()[0].batch().total_bytes(), 6 * 256);
        assert_eq!(w.subscriber_count(), 1);
    }

    #[test]
    fn clones_and_workloads_share_the_rows() {
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 2.0, 256)],
            vec![SimSubscriber::new(ClientId(1), vec![60.0, 5.0])],
        );
        let scenario = Scenario::new(regions2(), zeros(2), vec![topic]);
        let clone = scenario.clone();
        let (topic, copy) = (&scenario.topics()[0], &clone.topics()[0]);
        assert!(std::ptr::eq(topic.publishers(), copy.publishers()));
        assert!(std::ptr::eq(topic.subscribers(), copy.subscribers()));
        let workload = copy.workload(2, 1000.0);
        let publisher = topic.publishers()[0].latencies();
        assert!(std::ptr::eq(publisher, workload.publishers()[0].latencies()));
        let subscriber = topic.subscribers()[0].latencies();
        assert!(std::ptr::eq(subscriber, workload.subscribers()[0].latencies()));
    }

    #[test]
    #[should_panic(
        expected = "topic t: publisher C0 latency row width 1 differs from the 2-region"
    )]
    fn scenario_rejects_wrong_row_width() {
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
            vec![SimPublisher::new(ClientId(0), vec![5.0], 2.0, 256)],
            vec![],
        );
        let _ = Scenario::new(regions2(), zeros(2), vec![topic]);
    }

    #[test]
    #[should_panic(expected = "inter-region matrix")]
    fn scenario_rejects_matrix_mismatch() {
        let _ = Scenario::new(regions2(), zeros(3), vec![]);
    }

    #[test]
    fn fault_plan_defaults_to_quiet_and_attaches() {
        use crate::faults::{FaultPlan, RegionOutage};
        use multipub_core::ids::RegionId;
        let scenario = Scenario::new(regions2(), zeros(2), vec![]);
        assert!(scenario.fault_plan().is_quiet());
        let scenario = scenario.with_fault_plan(FaultPlan::none().with_outage(RegionOutage::new(
            RegionId(1),
            10.0,
            20.0,
        )));
        assert_eq!(scenario.fault_plan().outages().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_plan_rejects_unknown_region() {
        use crate::faults::{FaultPlan, RegionOutage};
        use multipub_core::ids::RegionId;
        let _ = Scenario::new(regions2(), zeros(2), vec![]).with_fault_plan(
            FaultPlan::none().with_outage(RegionOutage::new(RegionId(7), 10.0, 20.0)),
        );
    }
}
