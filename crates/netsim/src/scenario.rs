//! Scenario description: which topics exist, how they are configured, and
//! who publishes/subscribes at what rate.

use crate::faults::FaultPlan;
use multipub_core::assignment::Configuration;
use multipub_core::ids::{ClientId, TopicId};
use multipub_core::latency::InterRegionMatrix;
use multipub_core::region::RegionSet;
use multipub_core::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};

/// A simulated publisher: identity, latency row, publication rate and
/// (constant) publication size.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPublisher {
    client: ClientId,
    latencies: Vec<f64>,
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
    /// Panics if the rate is not positive and finite.
    pub fn new(client: ClientId, latencies: Vec<f64>, rate_per_sec: f64, size_bytes: u64) -> Self {
        Self::with_phase(client, latencies, rate_per_sec, size_bytes, 0.0)
    }

    /// Creates a publisher whose first message is delayed by `phase_ms`,
    /// useful to desynchronize otherwise identical publishers.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive/finite or the phase is negative.
    pub fn with_phase(
        client: ClientId,
        latencies: Vec<f64>,
        rate_per_sec: f64,
        size_bytes: u64,
        phase_ms: f64,
    ) -> Self {
        assert!(rate_per_sec > 0.0 && rate_per_sec.is_finite(), "rate must be positive");
        assert!(phase_ms >= 0.0 && phase_ms.is_finite(), "phase must be non-negative");
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
    pub fn publish_times_ms(&self, duration_ms: f64) -> PublishTimes {
        PublishTimes {
            phase_ms: self.phase_ms,
            period_ms: 1000.0 / self.rate_per_sec,
            duration_ms,
            k: 0,
        }
    }

    /// Number of messages this publisher emits within `duration_ms`.
    pub fn message_count(&self, duration_ms: f64) -> u64 {
        self.publish_times_ms(duration_ms).count() as u64
    }
}

/// Iterator over a publisher's publication timestamps.
#[derive(Debug, Clone)]
pub struct PublishTimes {
    phase_ms: f64,
    period_ms: f64,
    duration_ms: f64,
    k: u64,
}

impl Iterator for PublishTimes {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let t = self.phase_ms + self.k as f64 * self.period_ms;
        if t < self.duration_ms {
            self.k += 1;
            Some(t)
        } else {
            None
        }
    }
}

/// A simulated subscriber: identity and latency row.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSubscriber {
    client: ClientId,
    latencies: Vec<f64>,
}

impl SimSubscriber {
    /// Creates a subscriber.
    pub fn new(client: ClientId, latencies: Vec<f64>) -> Self {
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
    publishers: Vec<SimPublisher>,
    subscribers: Vec<SimSubscriber>,
}

impl TopicScenario {
    /// Creates a topic scenario.
    pub fn new(
        id: TopicId,
        configuration: Configuration,
        publishers: Vec<SimPublisher>,
        subscribers: Vec<SimSubscriber>,
    ) -> Self {
        TopicScenario { id, configuration, publishers, subscribers }
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
    /// Panics if the scenario contains duplicate client ids within a role
    /// or inconsistent latency rows, which `Scenario::new` rules out.
    pub fn workload(&self, n_regions: usize, duration_ms: f64) -> TopicWorkload {
        let mut workload = TopicWorkload::new(n_regions);
        for publisher in &self.publishers {
            let batch =
                MessageBatch::uniform(publisher.message_count(duration_ms), publisher.size_bytes());
            workload
                .add_publisher(
                    Publisher::new(publisher.client(), publisher.latencies().to_vec(), batch)
                        // lint:allow(panic) rebuilt from fields of a Scenario that already passed the same constructor's validation
                        .expect("validated by Scenario::new"),
                )
                // lint:allow(panic) rebuilt from fields of a Scenario that already passed the same constructor's validation
                .expect("validated by Scenario::new");
        }
        for subscriber in &self.subscribers {
            workload
                .add_subscriber(
                    Subscriber::new(subscriber.client(), subscriber.latencies().to_vec())
                        // lint:allow(panic) rebuilt from fields of a Scenario that already passed the same constructor's validation
                        .expect("validated by Scenario::new"),
                )
                // lint:allow(panic) rebuilt from fields of a Scenario that already passed the same constructor's validation
                .expect("validated by Scenario::new");
        }
        workload
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
    /// construction bugs, not runtime conditions. Only widths are checked:
    /// latency values are taken as given, and so is each topic's
    /// configuration and anything later swapped in through
    /// [`Scenario::topics_mut`]; `Engine::new` checks every configuration
    /// against the region count.
    pub fn new(regions: RegionSet, inter: InterRegionMatrix, topics: Vec<TopicScenario>) -> Self {
        assert_eq!(regions.len(), inter.len(), "inter-region matrix must cover every region");
        for topic in &topics {
            for publisher in topic.publishers() {
                assert_eq!(
                    publisher.latencies().len(),
                    regions.len(),
                    "publisher {} latency row width",
                    publisher.client()
                );
            }
            for subscriber in topic.subscribers() {
                assert_eq!(
                    subscriber.latencies().len(),
                    regions.len(),
                    "subscriber {} latency row width",
                    subscriber.client()
                );
            }
        }
        Scenario { regions, inter, topics, faults: FaultPlan::none() }
    }

    /// Attaches a fault schedule to the scenario (builder style). The
    /// default plan is quiet, so fault-free scenarios behave exactly as
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if an outage, degradation, or reconnect storm references a
    /// region outside the deployment.
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.set_fault_plan(faults);
        self
    }

    /// Replaces the fault schedule in place. Reconnect storms are carried
    /// for callers that read the schedule back (see
    /// [`crate::faults::ReconnectStorm`]); the engine does not act on them.
    ///
    /// # Panics
    ///
    /// Panics if an outage, degradation, or reconnect storm references a
    /// region outside the deployment.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
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
        for storm in faults.storms() {
            assert!(storm.region().index() < n, "storm region {} out of range", storm.region());
        }
        self.faults = faults;
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

    #[test]
    fn publish_times_respect_rate_and_duration() {
        let p = SimPublisher::new(ClientId(0), vec![1.0, 2.0], 10.0, 100);
        let times: Vec<f64> = p.publish_times_ms(1000.0).collect();
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], 0.0);
        assert_eq!(times[1], 100.0);
        assert_eq!(p.message_count(1000.0), 10);
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
        assert_eq!(p.message_count(1000.0), 0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = SimPublisher::new(ClientId(0), vec![], 0.0, 100);
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
    #[should_panic(expected = "latency row width")]
    fn scenario_rejects_wrong_row_width() {
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
            vec![SimPublisher::new(ClientId(0), vec![5.0], 2.0, 256)],
            vec![],
        );
        let _ = Scenario::new(regions2(), InterRegionMatrix::zeros(2).unwrap(), vec![topic]);
    }

    #[test]
    #[should_panic(expected = "inter-region matrix")]
    fn scenario_rejects_matrix_mismatch() {
        let _ = Scenario::new(regions2(), InterRegionMatrix::zeros(3).unwrap(), vec![]);
    }

    #[test]
    fn fault_plan_defaults_to_quiet_and_attaches() {
        use crate::faults::{FaultPlan, RegionOutage};
        use multipub_core::ids::RegionId;
        let scenario = Scenario::new(regions2(), InterRegionMatrix::zeros(2).unwrap(), vec![]);
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
        let _ = Scenario::new(regions2(), InterRegionMatrix::zeros(2).unwrap(), vec![])
            .with_fault_plan(FaultPlan::none().with_outage(RegionOutage::new(
                RegionId(7),
                10.0,
                20.0,
            )));
    }
}
