//! The ten fixed scenarios of `report_digests`, shared with the engine's
//! own tests, which run them on different worker counts.
//!
//! The scenarios are King populations from `multipub-data` over the first
//! six EC2 regions; between them they cover both delivery modes, every
//! fault shape alone, all of them at once under jitter with a mid-run
//! reconfiguration, and a many-small-topics population with whole-
//! millisecond latencies whose deliveries tie heavily. No scenario stalls
//! one subscriber twice.
//!
//! The includer names the simulator's modules `engine`, `faults`,
//! `jitter` and `scenario` at its root: the crate's own, or the ones
//! `multipub_netsim` exports.

use super::engine::Engine;
use super::faults::{
    DuplicateDelivery, FaultPlan, LinkDegradation, PublishBurst, RegionOutage, ReorderWindow,
    SubscriberStall,
};
use super::jitter::Jitter;
use super::scenario::{Scenario, SimPublisher, SimSubscriber, TopicScenario};
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::ids::{ClientId, RegionId, TopicId};
use multipub_data::ec2;
use multipub_data::king::ClientLatencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const N_REGIONS: usize = 6;
pub const DURATION_MS: f64 = 2_000.0;

/// The shape of a scenario's population; the latency rows are drawn from
/// `seed`.
pub struct Population {
    seed: u64,
    topics: usize,
    publishers: usize,
    subscribers: usize,
    rate_per_sec: f64,
    /// Whole-millisecond latencies and unphased publishers, so deliveries tie.
    integral: bool,
}

/// 12 × 3 × 25 clients at 20 msg/s: 36 000 deliveries over two seconds.
pub const FEEDS: Population = Population {
    seed: 2017,
    topics: 12,
    publishers: 3,
    subscribers: 25,
    rate_per_sec: 20.0,
    integral: false,
};

/// 400 × 2 × 6 clients at 10 msg/s: 96 000 deliveries, most sharing their
/// delivery time with others.
pub const SMALL_TOPICS: Population = Population {
    seed: 5,
    topics: 400,
    publishers: 2,
    subscribers: 6,
    rate_per_sec: 10.0,
    integral: true,
};

/// Subscriber ids start here; publisher ids count up from zero.
pub const FIRST_SUBSCRIBER: u64 = 1_000_000;

pub fn configuration(mask: u32, mode: DeliveryMode) -> Configuration {
    let assignment = AssignmentVector::from_mask(mask, N_REGIONS).expect("mask fits six regions");
    Configuration::new(assignment, mode)
}

pub fn direct(_topic: usize) -> Configuration {
    configuration(0b11_1111, DeliveryMode::Direct)
}

pub fn routed(_topic: usize) -> Configuration {
    configuration(0b11_1111, DeliveryMode::Routed)
}

/// Topic `t` of a mixed population: every other topic direct, the serving
/// set cycling through all six regions, three of them and one.
pub fn mixed(t: usize) -> Configuration {
    let mask = [0b11_1111, 0b01_0101, 0b00_1000][t % 3];
    configuration(
        mask,
        if t.is_multiple_of(2) { DeliveryMode::Direct } else { DeliveryMode::Routed },
    )
}

pub fn scenario(population: &Population, configure: fn(usize) -> Configuration) -> Scenario {
    let (regions, inter) = ec2::restricted_deployment(N_REGIONS);
    let model = ClientLatencyModel::new(&inter);
    let mut rng = StdRng::seed_from_u64(population.seed);
    let mut row = |home: usize| {
        let row = model.sample(RegionId(home as u8), &mut rng);
        if population.integral {
            row.iter().map(|latency| latency.round()).collect()
        } else {
            row
        }
    };
    let (mut next_publisher, mut next_subscriber) = (0, FIRST_SUBSCRIBER);
    let topics = (0..population.topics)
        .map(|t| {
            let period_ms = 1000.0 / population.rate_per_sec;
            let publishers = (0..population.publishers)
                .map(|i| {
                    next_publisher += 1;
                    let phase_ms = if population.integral {
                        0.0
                    } else {
                        (i as f64 * 0.37).fract() * period_ms
                    };
                    SimPublisher::with_phase(
                        ClientId(next_publisher),
                        row((t + i) % N_REGIONS),
                        population.rate_per_sec,
                        512,
                        phase_ms,
                    )
                })
                .collect();
            let subscribers = (0..population.subscribers)
                .map(|i| {
                    next_subscriber += 1;
                    SimSubscriber::new(ClientId(next_subscriber), row((t + 2 * i) % N_REGIONS))
                })
                .collect();
            TopicScenario::new(
                TopicId::new(format!("t{t:03}")),
                configure(t),
                publishers,
                subscribers,
            )
        })
        .collect();
    Scenario::new(regions, inter, topics)
}

/// One fixed scenario: its name, and how to build the engine that runs it.
pub struct Case {
    pub name: &'static str,
    pub scenario: Scenario,
    pub jitter: Jitter,
    pub seed: u64,
    /// Every topic moves to its [`mixed`] configuration at 1 s.
    pub reconfigured: bool,
}

impl Case {
    fn new(name: &'static str, scenario: Scenario, jitter: Jitter, seed: u64) -> Self {
        Case { name, scenario, jitter, seed, reconfigured: false }
    }

    /// A fresh engine over the case's scenario.
    pub fn engine(&self) -> Engine {
        let mut engine = Engine::new(self.scenario.clone(), self.jitter, self.seed);
        if self.reconfigured {
            for t in 0..self.scenario.topics().len() {
                engine.schedule_reconfiguration(1_000.0, t, mixed(t));
            }
        }
        engine
    }
}

/// The ten scenarios, in the order of `report_digests.txt`.
pub fn cases() -> Vec<Case> {
    let quiet = Jitter::disabled();
    let subscriber = |n: u64| ClientId(FIRST_SUBSCRIBER + n);
    let plan = FaultPlan::none;
    let faulted = |configure: fn(usize) -> Configuration, faults: FaultPlan| {
        scenario(&FEEDS, configure).with_fault_plan(faults)
    };
    let reorder = plan().with_reorder(ReorderWindow::new(20.0, 500.0, 1_200.0));
    let duplicate = plan().with_duplicate(DuplicateDelivery::new(3, 800.0, 1_100.0));
    let outage = plan()
        .with_outage(RegionOutage::new(RegionId(2), 600.0, 900.0))
        .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 1_000.0, 30.0));
    // One subscriber per stall; the long one carries deliveries for 1.2 s.
    let stall = plan()
        .with_stall(SubscriberStall::new(subscriber(1), 300.0, 1_500.0))
        .with_stall(SubscriberStall::new(subscriber(40), 1_900.0, 2_600.0))
        .with_burst(PublishBurst::new(4, 1_000.0, 1_200.0));
    let everything = plan()
        .with_loss_rate(0.01)
        .with_reorder(ReorderWindow::new(20.0, 300.0, 700.0))
        .with_duplicate(DuplicateDelivery::new(2, 1_400.0, 1_600.0))
        .with_outage(RegionOutage::new(RegionId(2), 800.0, 1_000.0))
        .with_degradation(LinkDegradation::new(RegionId(0), RegionId(3), 0.0, 2_000.0, 25.0))
        .with_stall(SubscriberStall::new(subscriber(7), 200.0, 1_700.0))
        .with_burst(PublishBurst::new(3, 1_100.0, 1_300.0));
    vec![
        Case::new("direct", scenario(&FEEDS, direct), quiet, 1),
        Case::new("routed", scenario(&FEEDS, routed), quiet, 1),
        Case::new("jitter", scenario(&FEEDS, mixed), Jitter::uniform(5.0), 2),
        Case::new("loss", faulted(mixed, plan().with_loss_rate(LOSS_RATE)), quiet, 3),
        Case::new("reorder", faulted(mixed, reorder), quiet, 4),
        Case::new("duplicate", faulted(mixed, duplicate), quiet, 5),
        Case::new("outage_degradation", faulted(routed, outage), quiet, 6),
        Case::new("stall_burst", faulted(mixed, stall), quiet, 7),
        Case {
            reconfigured: true,
            ..Case::new(
                "everything_reconfigured",
                faulted(routed, everything),
                Jitter::uniform(5.0),
                8,
            )
        },
        Case::new("small_topics_ties", scenario(&SMALL_TOPICS, mixed), quiet, 9),
    ]
}

/// The `loss` case's per-hop loss probability.
pub const LOSS_RATE: f64 = 0.02;
