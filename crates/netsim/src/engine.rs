//! The discrete-event loop.
//!
//! The engine pre-schedules every publication, then processes events in
//! time order:
//!
//! 1. **Publish** — the publisher's message leaves for the serving
//!    region(s): all of them under direct delivery, only the closest under
//!    routed delivery.
//! 2. **RegionReceive** — a broker receives the message. Under routed
//!    delivery a first-hop broker forwards it to the other serving regions
//!    (billing inter-region egress); every receiving broker then delivers
//!    to its local subscribers (billing Internet egress).
//! 3. **Deliver** — a subscriber receives the message; the delivery record
//!    is logged.
//!
//! Each hop takes its base latency from the matrices plus an optional
//! jitter sample, so a jitter-free run reproduces the analytic model
//! exactly.
//!
//! When the scenario carries a [`crate::faults::FaultPlan`], every hop is
//! additionally subject to seeded packet loss, arrival at a region inside
//! an outage window kills the message copy (the broker is "down"), and
//! active link degradations stretch inter-region forwards. Publications
//! emitted inside a publish-burst window are multiplied, and deliveries
//! arriving at a stalled subscriber queue until the stall ends.
//! Duplicate-delivery windows fan each delivery into several independent
//! copies, and reorder windows stretch deliveries by a seeded uniform
//! draw that shuffles arrival order. All fault draws come from their own
//! RNG streams, so a quiet plan reproduces fault-free runs bit for bit.
//!
//! **What allocates.** The event handlers read the routing tables, the
//! latency rows and the fault plan in place, so handling a `Publish`,
//! `RegionReceive` or `Deliver` event allocates nothing of its own: a
//! run's allocations are the growth of the event queue and of the delivery
//! log (one record per delivery, kept for the report), plus one routing
//! table rebuilt per `Reconfigure` event. Events, lost copies and
//! deliveries are counted in the engine only; [`Engine::run`] adds them to
//! the global `multipub_netsim_*` metrics once, after the last event.

// lint:allow-file(indexing) discrete-event hot loop: every topic/publisher/subscriber/region index is minted from the validated `Scenario` at pre-schedule time and only round-trips through the event queue, and every configuration is checked against the region count before its routing table is built, so all slice accesses are in bounds by construction

use crate::faults::FaultInjector;
use crate::jitter::{Jitter, JitterSource};
use crate::metrics::{DeliveryRecord, SimReport, TrafficLedger};
use crate::queue::EventQueue;
use crate::scenario::{Scenario, TopicScenario};
use crate::time::SimTime;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::delivery::closest_region;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_obs::metrics::{NETSIM_DELIVERY_MS, NETSIM_EVENTS_TOTAL, NETSIM_LOST_TOTAL};

/// One publication on its way: which topic, from whom, emitted when.
#[derive(Debug, Clone, Copy)]
struct Message {
    topic: usize,
    publisher: usize,
    published_at: SimTime,
}

#[derive(Debug)]
enum Event {
    /// Installs a new configuration for a topic — the simulated
    /// counterpart of a controller `ConfigUpdate` reaching every broker
    /// and client at once.
    Reconfigure {
        topic: usize,
        configuration: Configuration,
    },
    Publish {
        topic: usize,
        publisher: usize,
    },
    RegionReceive {
        message: Message,
        region: RegionId,
        /// `true` when this copy arrived via inter-region forwarding (or
        /// direct fan-out) and must not be forwarded again.
        deliver_only: bool,
    },
    Deliver {
        message: Message,
        subscriber: usize,
    },
}

/// Per-topic routing tables precomputed from a configuration.
#[derive(Debug)]
struct TopicRouting {
    serving: Vec<RegionId>,
    /// Subscriber indices grouped by closest serving region (indexed by
    /// region id).
    local_subscribers: Vec<Vec<usize>>,
    /// Closest serving region per publisher index (routed mode's `R^P`).
    publisher_home: Vec<RegionId>,
    mode: DeliveryMode,
}

impl TopicRouting {
    fn new(topic: &TopicScenario, configuration: Configuration, n_regions: usize) -> Self {
        let assignment = configuration.assignment();
        let mut local_subscribers = vec![Vec::new(); n_regions];
        for (index, subscriber) in topic.subscribers().iter().enumerate() {
            let region = closest_region(subscriber.latencies(), assignment);
            local_subscribers[region.index()].push(index);
        }
        let publisher_home =
            topic.publishers().iter().map(|p| closest_region(p.latencies(), assignment)).collect();
        TopicRouting {
            serving: assignment.iter().collect(),
            local_subscribers,
            publisher_home,
            mode: configuration.mode(),
        }
    }
}

/// Panics unless every region `configuration` assigns exists in a
/// deployment of `n_regions`. An [`AssignmentVector`] is only validated
/// against the region count it was built with, and a wider one would index
/// past the latency rows deep inside the event loop.
fn assert_fits(topic_index: usize, configuration: Configuration, n_regions: usize) {
    let mask = configuration.assignment().mask();
    assert!(
        AssignmentVector::from_mask(mask, n_regions).is_ok(),
        "topic {topic_index}: configuration mask {mask:#b} assigns a region outside the \
         {n_regions}-region deployment"
    );
}

/// The simulation engine. Construct with a scenario, run once, read the
/// report. See the crate-level example.
#[derive(Debug)]
pub struct Engine {
    n_regions: usize,
    topics: Vec<TopicScenario>,
    inter: InterRegionMatrix,
    routing: Vec<TopicRouting>,
    queue: EventQueue<Event>,
    jitter: JitterSource,
    faults: FaultInjector,
    deliveries: Vec<DeliveryRecord>,
    ledger: TrafficLedger,
    published_count: u64,
    lost_count: u64,
}

impl Engine {
    /// Creates an engine for `scenario` with the given jitter model and
    /// RNG seed (the seed only matters when jitter or a sampling fault is
    /// enabled).
    ///
    /// # Panics
    ///
    /// Panics if a topic's configuration assigns a region outside the
    /// scenario's deployment.
    pub fn new(scenario: Scenario, jitter: Jitter, seed: u64) -> Self {
        let (regions, inter, topics, plan) = scenario.into_parts();
        let n_regions = regions.len();
        let mut routing = Vec::with_capacity(topics.len());
        for (index, topic) in topics.iter().enumerate() {
            assert_fits(index, topic.configuration(), n_regions);
            routing.push(TopicRouting::new(topic, topic.configuration(), n_regions));
        }
        Engine {
            n_regions,
            topics,
            inter,
            routing,
            queue: EventQueue::new(),
            jitter: JitterSource::new(jitter, seed),
            faults: FaultInjector::new(plan, seed),
            deliveries: Vec::new(),
            ledger: TrafficLedger::new(n_regions),
            published_count: 0,
            lost_count: 0,
        }
    }

    /// Schedules a configuration change for a topic at a point in
    /// simulated time — modelling a controller reconfiguration round
    /// reaching the whole deployment (paper §III.A5). Publications emitted
    /// after the change follow the new configuration; messages already in
    /// flight complete under the routing tables current at each hop.
    ///
    /// # Panics
    ///
    /// Panics if `topic_index` is out of bounds, `at_ms` is negative, or
    /// `configuration` assigns a region outside the deployment.
    pub fn schedule_reconfiguration(
        &mut self,
        at_ms: f64,
        topic_index: usize,
        configuration: Configuration,
    ) {
        assert!(topic_index < self.topics.len(), "topic index out of bounds");
        assert_fits(topic_index, configuration, self.n_regions);
        self.queue.schedule(
            SimTime::from_ms(at_ms),
            Event::Reconfigure { topic: topic_index, configuration },
        );
    }

    /// Runs the scenario for `duration_ms` of simulated time. Publications
    /// are emitted strictly before the deadline; messages already in
    /// flight at the deadline still complete, exactly like a real drain.
    pub fn run(mut self, duration_ms: f64) -> SimReport {
        assert!(duration_ms >= 0.0 && duration_ms.is_finite(), "duration must be non-negative");
        for (topic_index, topic) in self.topics.iter().enumerate() {
            for (publisher_index, publisher) in topic.publishers().iter().enumerate() {
                for t in publisher.publish_times_ms(duration_ms) {
                    let at = SimTime::from_ms(t);
                    // A publish-burst window multiplies the in-window load.
                    for _ in 0..self.faults.plan().burst_multiplier(at) {
                        self.queue.schedule(
                            at,
                            Event::Publish { topic: topic_index, publisher: publisher_index },
                        );
                    }
                }
            }
        }
        let mut events = 0u64;
        while let Some((now, event)) = self.queue.pop() {
            events += 1;
            self.handle(now, event);
        }
        // The global metrics see the finished run once; the loop above
        // touches no shared atomic.
        multipub_obs::counter!(NETSIM_EVENTS_TOTAL).add(events);
        multipub_obs::counter!(NETSIM_LOST_TOTAL).add(self.lost_count);
        let delivery_ms = multipub_obs::histogram!(NETSIM_DELIVERY_MS);
        for record in &self.deliveries {
            delivery_ms.record(record.latency_ms());
        }
        let Engine { deliveries, ledger, published_count, lost_count, .. } = self;
        SimReport::new(deliveries, ledger, published_count, lost_count, duration_ms)
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Reconfigure { topic, configuration } => {
                self.routing[topic] =
                    TopicRouting::new(&self.topics[topic], configuration, self.n_regions);
            }
            Event::Publish { topic, publisher } => self.on_publish(now, topic, publisher),
            Event::RegionReceive { message, region, deliver_only } => {
                self.on_region_receive(now, message, region, deliver_only)
            }
            Event::Deliver { message, subscriber } => {
                let clients = &self.topics[message.topic];
                self.deliveries.push(DeliveryRecord {
                    topic_index: message.topic,
                    publisher: clients.publishers()[message.publisher].client(),
                    subscriber: clients.subscribers()[subscriber].client(),
                    published_at: message.published_at,
                    delivered_at: now,
                });
            }
        }
    }

    fn on_publish(&mut self, now: SimTime, topic: usize, publisher: usize) {
        let Engine { topics, routing, queue, jitter, faults, published_count, lost_count, .. } =
            self;
        *published_count += 1;
        let routing = &routing[topic];
        let latencies = topics[topic].publishers()[publisher].latencies();
        let message = Message { topic, publisher, published_at: now };
        // Direct: the publisher uploads to every serving region itself.
        // Routed: only to its closest one, which forwards. Inbound traffic
        // is free either way, so nothing is billed here.
        let (targets, deliver_only) = match routing.mode {
            DeliveryMode::Direct => (routing.serving.as_slice(), true),
            DeliveryMode::Routed => {
                (std::slice::from_ref(&routing.publisher_home[publisher]), false)
            }
        };
        for &region in targets {
            if faults.drop_packet() {
                *lost_count += 1;
                continue;
            }
            let hop = latencies[region.index()] + jitter.sample();
            queue.schedule(now + hop, Event::RegionReceive { message, region, deliver_only });
        }
    }

    fn on_region_receive(
        &mut self,
        now: SimTime,
        message: Message,
        region: RegionId,
        deliver_only: bool,
    ) {
        let Engine { topics, inter, routing, queue, jitter, faults, ledger, lost_count, .. } = self;
        // A region inside an outage window has no broker: the arriving
        // copy (and everything it would have produced downstream) dies.
        if faults.plan().region_down(region, now) {
            *lost_count += 1;
            return;
        }
        let routing = &routing[message.topic];
        let clients = &topics[message.topic];
        let size = clients.publishers()[message.publisher].size_bytes();

        // Routed first hop: forward to the other serving regions, billing
        // inter-region egress at this region's α rate. Egress is billed at
        // send time, so copies lost in flight still cost money.
        if !deliver_only {
            for &peer in routing.serving.iter().filter(|&&peer| peer != region) {
                ledger.record_inter_region(region, size);
                if faults.drop_packet() {
                    *lost_count += 1;
                    continue;
                }
                let hop = inter.latency(region, peer)
                    + faults.plan().extra_link_ms(region, peer, now)
                    + jitter.sample();
                let forwarded = Event::RegionReceive { message, region: peer, deliver_only: true };
                queue.schedule(now + hop, forwarded);
            }
        }

        // Deliver to the subscribers homed at this region, billing
        // Internet egress at this region's β rate. A duplicate-delivery
        // window fans each delivery into several copies — an
        // at-least-once redelivery storm — and each copy is billed,
        // lost and delayed independently.
        let copies = faults.plan().duplicate_copies(now);
        for &subscriber in &routing.local_subscribers[region.index()] {
            let client = &clients.subscribers()[subscriber];
            for _ in 0..copies {
                ledger.record_internet(region, size);
                if faults.drop_packet() {
                    *lost_count += 1;
                    continue;
                }
                let latency = client.latencies()[region.index()]
                    + jitter.sample()
                    // An active reorder window stretches this copy by a
                    // seeded uniform draw, shuffling arrival order.
                    + faults.reorder_extra_ms(now);
                // A stalled subscriber queues the delivery until its stall
                // window ends — the simulated slow consumer.
                let lands_at = faults.plan().stall_release(client.client(), now + latency);
                queue.schedule(lands_at, Event::Deliver { message, subscriber });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SimPublisher, SimSubscriber, TopicScenario};
    use multipub_core::assignment::{AssignmentVector, Configuration};
    use multipub_core::ids::{ClientId, TopicId};
    use multipub_core::latency::InterRegionMatrix;
    use multipub_core::region::{Region, RegionSet};

    fn two_region_scenario(mode: DeliveryMode) -> Scenario {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), mode),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![
                SimSubscriber::new(ClientId(1), vec![4.0, 70.0]),
                SimSubscriber::new(ClientId(2), vec![70.0, 6.0]),
            ],
        );
        Scenario::new(regions, inter, vec![topic])
    }

    #[test]
    fn direct_delivery_times_match_equation_1() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // 10 messages × 2 subscribers.
        assert_eq!(report.delivery_count(), 20);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,  // via region 0
                ClientId(2) => 60.0 + 6.0, // via region 1
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn routed_delivery_times_match_equation_2() {
        let scenario = two_region_scenario(DeliveryMode::Routed);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,        // local region
                ClientId(2) => 5.0 + 40.0 + 6.0, // forwarded hop
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_bills_only_internet_egress() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let regions = scenario.regions().clone();
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 10_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 10_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 0);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        let expected = 10_000.0 * (0.09 + 0.14) / 1e9;
        assert!((report.cost_dollars(&regions) - expected).abs() < 1e-12);
    }

    #[test]
    fn routed_bills_forwarding_at_home_region() {
        let scenario = two_region_scenario(DeliveryMode::Routed);
        let regions = scenario.regions().clone();
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // Publisher home is region 0; 10 messages forwarded to region 1.
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 10_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        let expected = 10_000.0 * (0.09 + 0.14) / 1e9 + 10_000.0 * 0.02 / 1e9;
        assert!((report.cost_dollars(&regions) - expected).abs() < 1e-12);
    }

    #[test]
    fn jitter_only_adds_latency() {
        let base = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::disabled(), 7)
            .run(1000.0);
        let noisy = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 7)
            .run(1000.0);
        assert_eq!(base.delivery_count(), noisy.delivery_count());
        // Jitter is non-negative, so every percentile can only grow.
        for ratio in [10.0, 50.0, 95.0] {
            assert!(noisy.percentile_ms(ratio) >= base.percentile_ms(ratio));
        }
        // And bounded: at most 3 hops × 5 ms extra.
        assert!(noisy.percentile_ms(100.0) <= base.percentile_ms(100.0) + 15.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 3)
            .run(1000.0);
        let b = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 3)
            .run(1000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_duration_produces_nothing() {
        let report =
            Engine::new(two_region_scenario(DeliveryMode::Direct), Jitter::disabled(), 0).run(0.0);
        assert_eq!(report.published_count(), 0);
        assert_eq!(report.delivery_count(), 0);
    }

    #[test]
    fn single_region_routed_behaves_like_direct() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Routed,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions.clone(), inter, vec![topic]);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        // All deliveries via region 0: 5 + 70.
        assert_eq!(report.percentile_ms(100.0), 75.0);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 0);
    }

    #[test]
    fn mid_run_reconfiguration_changes_routing() {
        // Start with region 0 only; at t = 500 ms switch to region 1 only.
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            // Subscriber near region 1: slow via region 0 (70 ms leg),
            // fast via region 1 (6 ms leg).
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions, inter, vec![topic]);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            500.0,
            0,
            Configuration::new(
                AssignmentVector::single(RegionId(1), 2).unwrap(),
                DeliveryMode::Direct,
            ),
        );
        let report = engine.run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        for d in report.deliveries() {
            let expected = if d.published_at.as_ms() < 500.0 {
                5.0 + 70.0 // via region 0
            } else {
                60.0 + 6.0 // via region 1
            };
            assert!(
                (d.latency_ms() - expected).abs() < 1e-9,
                "published at {}: {} vs {expected}",
                d.published_at,
                d.latency_ms()
            );
        }
    }

    #[test]
    #[should_panic(expected = "topic index out of bounds")]
    fn reconfiguration_validates_topic_index() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            1.0,
            9,
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
        );
    }

    /// Valid for a six-region deployment, too wide for the two-region one.
    fn region_5_only() -> Configuration {
        Configuration::new(AssignmentVector::single(RegionId(5), 6).unwrap(), DeliveryMode::Direct)
    }

    #[test]
    #[should_panic(
        expected = "topic 0: configuration mask 0b100000 assigns a region outside the 2-region deployment"
    )]
    fn engine_rejects_a_configuration_wider_than_the_deployment() {
        let mut scenario = two_region_scenario(DeliveryMode::Direct);
        scenario.topics_mut()[0].set_configuration(region_5_only());
        let _ = Engine::new(scenario, Jitter::disabled(), 0);
    }

    #[test]
    #[should_panic(
        expected = "topic 0: configuration mask 0b100000 assigns a region outside the 2-region deployment"
    )]
    fn reconfiguration_rejects_a_configuration_wider_than_the_deployment() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        // Rejected when scheduled, not when the event fires mid-run.
        engine.schedule_reconfiguration(500.0, 0, region_5_only());
    }

    #[test]
    fn full_packet_loss_drops_every_delivery() {
        let scenario = two_region_scenario(DeliveryMode::Direct)
            .with_fault_plan(crate::faults::FaultPlan::none().with_loss_rate(1.0));
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 0);
        // 10 publications × 2 serving regions, every uplink copy dropped.
        assert_eq!(report.lost_count(), 20);
        assert_eq!(report.published_count(), 10);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let scenario = two_region_scenario(DeliveryMode::Routed)
                .with_fault_plan(crate::faults::FaultPlan::none().with_loss_rate(0.4));
            Engine::new(scenario, Jitter::uniform(5.0), seed).run(1000.0)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b);
        assert!(a.lost_count() > 0, "rate 0.4 should lose something");
        assert!(a.delivery_count() > 0, "rate 0.4 should deliver something");
    }

    fn one_region_topic(region: u8) -> TopicScenario {
        TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(region), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![4.0, 70.0])],
        )
    }

    #[test]
    fn outage_window_kills_in_window_arrivals() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let scenario = Scenario::new(regions, inter, vec![one_region_topic(0)]).with_fault_plan(
            crate::faults::FaultPlan::none().with_outage(crate::faults::RegionOutage::new(
                RegionId(0),
                300.0,
                700.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // Publications at 0, 100, …, 900 arrive at the broker 5 ms later;
        // the four arrivals at 305, 405, 505, 605 die with the broker.
        assert_eq!(report.lost_count(), 4);
        assert_eq!(report.delivery_count(), 6);
        for d in report.deliveries() {
            let arrival = d.published_at.as_ms() + 5.0;
            assert!(!(300.0..700.0).contains(&arrival), "in-window arrival survived: {arrival}");
            assert!((d.latency_ms() - 9.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reconfiguration_reconverges_after_outage() {
        // Region 0 dies over [300, 700); the controller's round at t = 500
        // moves the topic to region 1. Deliveries must stop during the
        // outage and resume — deterministically — after the switch.
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions, inter, vec![topic]).with_fault_plan(
            crate::faults::FaultPlan::none().with_outage(crate::faults::RegionOutage::new(
                RegionId(0),
                300.0,
                700.0,
            )),
        );
        let run = || {
            let mut engine = Engine::new(scenario.clone(), Jitter::disabled(), 42);
            engine.schedule_reconfiguration(
                500.0,
                0,
                Configuration::new(
                    AssignmentVector::single(RegionId(1), 2).unwrap(),
                    DeliveryMode::Direct,
                ),
            );
            engine.run(1000.0)
        };
        let report = run();
        assert_eq!(report, run(), "fault scenario must be deterministic");
        // Publications at 300 and 400 arrive at the dead region 0.
        assert_eq!(report.lost_count(), 2);
        assert_eq!(report.delivery_count(), 8);
        for d in report.deliveries() {
            let expected = if d.published_at.as_ms() < 500.0 {
                5.0 + 70.0 // via region 0, before the outage
            } else {
                60.0 + 6.0 // via region 1, after re-optimization
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
        // Reconvergence: the first post-outage delivery is the t = 500
        // publication, landing 266 ms after the outage began.
        let first_after = report
            .deliveries()
            .iter()
            .filter(|d| d.published_at.as_ms() >= 300.0)
            .map(|d| d.delivered_at.as_ms())
            .fold(f64::INFINITY, f64::min);
        assert!((first_after - 566.0).abs() < 1e-9);
    }

    #[test]
    fn link_degradation_stretches_routed_forwards() {
        let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(
            crate::faults::FaultPlan::none().with_degradation(crate::faults::LinkDegradation::new(
                RegionId(0),
                RegionId(1),
                0.0,
                2000.0,
                50.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,               // local, unaffected
                ClientId(2) => 5.0 + 40.0 + 50.0 + 6.0, // degraded forward
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn publish_burst_multiplies_in_window_load() {
        // Publications at 0, 100, …, 900; the burst covers the first five.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none()
                .with_burst(crate::faults::PublishBurst::new(3, 0.0, 500.0)),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // 5 in-window publications × 3 + 5 outside = 20 publications,
        // each reaching both subscribers.
        assert_eq!(report.published_count(), 20);
        assert_eq!(report.delivery_count(), 40);
        assert_eq!(report.lost_count(), 0);
        // The burst bills proportionally: 20 messages × 1000 bytes of
        // Internet egress at each serving region.
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 20_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 20_000);
        // Burst copies share their original's timestamp, so latency is
        // untouched — load grows, per-message timing does not.
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn subscriber_stall_queues_deliveries_until_release() {
        // Subscriber 1 (9 ms path via region 0) stalls over [0, 400):
        // arrivals inside the window land exactly at 400 ms; later ones
        // are untouched. Subscriber 2 never stalls.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none().with_stall(crate::faults::SubscriberStall::new(
                ClientId(1),
                0.0,
                400.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // A stall defers, it does not lose: every delivery still arrives.
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            match d.subscriber {
                ClientId(1) => {
                    let arrival = d.published_at.as_ms() + 9.0;
                    let expected = if arrival < 400.0 { 400.0 } else { arrival };
                    assert!(
                        (d.delivered_at.as_ms() - expected).abs() < 1e-9,
                        "published at {}: delivered {} vs {expected}",
                        d.published_at,
                        d.delivered_at
                    );
                }
                ClientId(2) => assert!((d.latency_ms() - 66.0).abs() < 1e-9),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn duplicate_window_fans_out_and_bills_every_copy() {
        // All 10 publications × 2 subscribers, tripled by the window.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none()
                .with_duplicate(crate::faults::DuplicateDelivery::new(3, 0.0, 2000.0)),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 60);
        assert_eq!(report.lost_count(), 0);
        // Duplicates are not free: each copy bills Internet egress.
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 30_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 30_000);
        // Copies share their original's timing, so latency is untouched.
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn reorder_window_delays_within_span_and_loses_nothing() {
        let run = || {
            let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
                crate::faults::FaultPlan::none()
                    .with_reorder(crate::faults::ReorderWindow::new(20.0, 0.0, 2000.0)),
            );
            Engine::new(scenario, Jitter::disabled(), 5).run(1000.0)
        };
        let report = run();
        assert_eq!(report, run(), "reorder scenario must be deterministic");
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            let base = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            let extra = d.latency_ms() - base;
            assert!((0.0..20.0).contains(&extra), "extra delay {extra} outside the span");
        }
    }

    #[test]
    fn duplicates_and_reorder_leave_loss_pattern_unchanged() {
        // The loss stream must be independent of the new fault shapes:
        // with full duplication the per-copy loss draws change which
        // *copies* die, but a loss-only run and a loss+reorder run make
        // identical draws.
        let run = |plan: crate::faults::FaultPlan| {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
            Engine::new(scenario, Jitter::disabled(), 11).run(1000.0)
        };
        let loss_only = crate::faults::FaultPlan::none().with_loss_rate(0.4);
        let with_reorder =
            loss_only.clone().with_reorder(crate::faults::ReorderWindow::new(15.0, 0.0, 2000.0));
        let a = run(loss_only);
        let b = run(with_reorder);
        assert_eq!(a.lost_count(), b.lost_count());
        assert_eq!(a.delivery_count(), b.delivery_count());
    }

    #[test]
    fn stall_plus_burst_runs_are_deterministic() {
        let run = || {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(
                crate::faults::FaultPlan::none()
                    .with_burst(crate::faults::PublishBurst::new(10, 200.0, 600.0))
                    .with_stall(crate::faults::SubscriberStall::new(ClientId(2), 100.0, 800.0))
                    .with_loss_rate(0.1),
            );
            Engine::new(scenario, Jitter::uniform(3.0), 21).run(1000.0)
        };
        let a = run();
        assert_eq!(a, run(), "overload scenario must be reproducible");
        assert!(a.published_count() > 10, "burst must add load");
        assert!(a.delivery_count() > 0);
    }

    #[test]
    fn draw_free_fault_shapes_interact_exactly() {
        // Every fault shape that makes no RNG draw, at once, on the routed
        // two-region scenario (publisher homed at region 0, ClientId(1) at
        // region 0, ClientId(2) at region 1), plus a switch to direct
        // delivery at t = 620. Publications leave at 0, 100, …, 900.
        use crate::faults::{
            DuplicateDelivery, FaultPlan, LinkDegradation, PublishBurst, RegionOutage,
            SubscriberStall,
        };
        let plan = FaultPlan::none()
            .with_outage(RegionOutage::new(RegionId(1), 340.0, 450.0))
            .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 250.0, 50.0))
            .with_stall(SubscriberStall::new(ClientId(2), 300.0, 360.0))
            .with_burst(PublishBurst::new(3, 100.0, 300.0))
            .with_duplicate(DuplicateDelivery::new(2, 500.0, 720.0));
        let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            620.0,
            0,
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
        );
        let report = engine.run(1000.0);

        // (subscriber, published at, delivered at, copies), in delivery order.
        // Routed until 620: region 0 at t + 5 serves ClientId(1) 4 ms later
        // and forwards over the 40 ms link, degraded by 50 ms for departures
        // before 250; region 1 serves ClientId(2) 6 ms after it receives.
        let expected: [(u64, f64, f64, usize); 18] = [
            (1, 0.0, 9.0, 1),
            (2, 0.0, 101.0, 1),   // 5 + 90 + 6
            (1, 100.0, 109.0, 3), // burst ×3
            (2, 100.0, 201.0, 3),
            (1, 200.0, 209.0, 3),
            (1, 300.0, 309.0, 1), // its forward reaches region 1 at 345: down
            (2, 200.0, 360.0, 3), // arrives 301, queued behind the stall
            (1, 400.0, 409.0, 1), // forward reaches region 1 at 445: down
            (1, 500.0, 509.0, 2), // duplicate window ×2 at region 0 …
            (2, 500.0, 551.0, 2), // … and at region 1 (5 + 40 + 6)
            (1, 600.0, 609.0, 2),
            (2, 600.0, 651.0, 2), // in flight across the reconfiguration
            (1, 700.0, 709.0, 2), // direct: region 0 at 705, still duplicated
            (2, 700.0, 766.0, 1), // direct: region 1 at 760 (60 + 6)
            (1, 800.0, 809.0, 1),
            (2, 800.0, 866.0, 1),
            (1, 900.0, 909.0, 1),
            (2, 900.0, 966.0, 1),
        ];
        let expected: Vec<(ClientId, f64, f64)> = expected
            .iter()
            .flat_map(|&(s, p, d, copies)| std::iter::repeat_n((ClientId(s), p, d), copies))
            .collect();
        let measured: Vec<(ClientId, f64, f64)> = report
            .deliveries()
            .iter()
            .map(|d| (d.subscriber, d.published_at.as_ms(), d.delivered_at.as_ms()))
            .collect();
        assert_eq!(measured, expected);
        assert_eq!(report.published_count(), 14); // 10 + 2 × 2 burst copies
        assert_eq!(report.delivery_count(), 31);
        assert_eq!(report.lost_count(), 2);
        // 11 routed publications forwarded once each; 17 + 14 delivery copies.
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 11_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 17_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 14_000);
    }

    #[test]
    fn reconnect_storm_is_a_schedule_the_engine_ignores() {
        let run = |plan: crate::faults::FaultPlan| {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
            Engine::new(scenario, Jitter::uniform(3.0), 9).run(1000.0)
        };
        let storm = crate::faults::ReconnectStorm::new(RegionId(0), 0.0, 2000.0);
        let lossy = crate::faults::FaultPlan::none().with_loss_rate(0.2);
        assert_eq!(run(lossy.clone().with_reconnect_storm(storm)), run(lossy));
    }

    #[test]
    fn multiple_topics_are_isolated() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let make_topic = |name: &str, region: u8| {
            TopicScenario::new(
                TopicId::new(name),
                Configuration::new(
                    AssignmentVector::single(RegionId(region), 2).unwrap(),
                    DeliveryMode::Direct,
                ),
                vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 5.0, 100)],
                vec![SimSubscriber::new(ClientId(1), vec![4.0, 70.0])],
            )
        };
        let scenario =
            Scenario::new(regions, inter, vec![make_topic("t0", 0), make_topic("t1", 1)]);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        assert_eq!(report.topic_percentile_ms(0, 100.0), 9.0);
        assert_eq!(report.topic_percentile_ms(1, 100.0), 130.0);
    }
}
