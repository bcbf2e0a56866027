//! Prints one line per fixed scenario with everything a `SimReport` holds,
//! the ordered delivery log folded into an FNV-1a digest — the check that a
//! change to the engine leaves reports bit for bit what they were.
//!
//! `scripts/report-digests.sh` builds this against `benchkit`'s rlibs and
//! diffs the output against `scripts/report-digests.txt`, which is blessed on
//! a parent commit. The scenarios are King populations from `multipub-data`
//! over the first six EC2 regions; between them they cover both delivery
//! modes, every fault shape alone, all of them at once under jitter with a
//! mid-run reconfiguration, and a many-small-topics population with whole-
//! millisecond latencies whose deliveries tie heavily. No scenario stalls one
//! subscriber twice.

use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::ids::{ClientId, RegionId, TopicId};
use multipub_data::ec2;
use multipub_data::king::ClientLatencyModel;
use multipub_netsim::engine::Engine;
use multipub_netsim::faults::{
    DuplicateDelivery, FaultPlan, LinkDegradation, PublishBurst, RegionOutage, ReorderWindow,
    SubscriberStall,
};
use multipub_netsim::jitter::Jitter;
use multipub_netsim::metrics::SimReport;
use multipub_netsim::scenario::{Scenario, SimPublisher, SimSubscriber, TopicScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_REGIONS: usize = 6;
const DURATION_MS: f64 = 2_000.0;

/// The shape of a scenario's population; the latency rows are drawn from
/// `seed`.
struct Population {
    seed: u64,
    topics: usize,
    publishers: usize,
    subscribers: usize,
    rate_per_sec: f64,
    /// Whole-millisecond latencies and unphased publishers, so deliveries tie.
    integral: bool,
}

/// 12 × 3 × 25 clients at 20 msg/s: 36 000 deliveries over two seconds.
const FEEDS: Population = Population {
    seed: 2017,
    topics: 12,
    publishers: 3,
    subscribers: 25,
    rate_per_sec: 20.0,
    integral: false,
};

/// 400 × 2 × 6 clients at 10 msg/s: 96 000 deliveries, most sharing their
/// delivery time with others.
const SMALL_TOPICS: Population = Population {
    seed: 5,
    topics: 400,
    publishers: 2,
    subscribers: 6,
    rate_per_sec: 10.0,
    integral: true,
};

/// Subscriber ids start here; publisher ids count up from zero.
const FIRST_SUBSCRIBER: u64 = 1_000_000;

fn configuration(mask: u32, mode: DeliveryMode) -> Configuration {
    let assignment = AssignmentVector::from_mask(mask, N_REGIONS).expect("mask fits six regions");
    Configuration::new(assignment, mode)
}

fn direct(_topic: usize) -> Configuration {
    configuration(0b11_1111, DeliveryMode::Direct)
}

fn routed(_topic: usize) -> Configuration {
    configuration(0b11_1111, DeliveryMode::Routed)
}

/// Topic `t` of a mixed population: every other topic direct, the serving
/// set cycling through all six regions, three of them and one.
fn mixed(t: usize) -> Configuration {
    let mask = [0b11_1111, 0b01_0101, 0b00_1000][t % 3];
    configuration(mask, if t % 2 == 0 { DeliveryMode::Direct } else { DeliveryMode::Routed })
}

fn scenario(population: &Population, configure: fn(usize) -> Configuration) -> Scenario {
    let (regions, inter) = ec2::restricted_deployment(N_REGIONS);
    let model = ClientLatencyModel::new(&inter);
    let mut rng = StdRng::seed_from_u64(population.seed);
    let mut row = |home: usize| {
        let mut row = model.sample(RegionId(home as u8), &mut rng);
        if population.integral {
            row.iter_mut().for_each(|latency| *latency = latency.round());
        }
        row
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

/// FNV-1a over the ordered log: every field of every record, in order.
fn log_digest(report: &SimReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut write = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in report.deliveries() {
        write(d.topic_index as u64);
        write(d.publisher.0);
        write(d.subscriber.0);
        write(d.published_at.as_ms().to_bits());
        write(d.delivered_at.as_ms().to_bits());
    }
    hash
}

fn print(name: &str, report: &SimReport) {
    let regions = || (0..N_REGIONS as u8).map(RegionId);
    let internet: Vec<u64> = regions().map(|r| report.ledger().internet_bytes(r)).collect();
    let inter_region: Vec<u64> = regions().map(|r| report.ledger().inter_region_bytes(r)).collect();
    println!(
        "{name} log={:016x} deliveries={} published={} lost={} internet={internet:?} \
         inter_region={inter_region:?}",
        log_digest(report),
        report.delivery_count(),
        report.published_count(),
        report.lost_count(),
    );
}

fn run(name: &str, scenario: Scenario, jitter: Jitter, seed: u64) {
    print(name, &Engine::new(scenario, jitter, seed).run(DURATION_MS));
}

fn main() {
    let quiet = Jitter::disabled();
    let subscriber = |n: u64| ClientId(FIRST_SUBSCRIBER + n);

    run("direct", scenario(&FEEDS, direct), quiet, 1);
    run("routed", scenario(&FEEDS, routed), quiet, 1);
    run("jitter", scenario(&FEEDS, mixed), Jitter::uniform(5.0), 2);

    let plan = FaultPlan::none;
    let faulted = |configure: fn(usize) -> Configuration, faults: FaultPlan| {
        scenario(&FEEDS, configure).with_fault_plan(faults)
    };
    run("loss", faulted(mixed, plan().with_loss_rate(0.02)), quiet, 3);
    let reorder = plan().with_reorder(ReorderWindow::new(20.0, 500.0, 1_200.0));
    run("reorder", faulted(mixed, reorder), quiet, 4);
    let duplicate = plan().with_duplicate(DuplicateDelivery::new(3, 800.0, 1_100.0));
    run("duplicate", faulted(mixed, duplicate), quiet, 5);
    let outage = plan()
        .with_outage(RegionOutage::new(RegionId(2), 600.0, 900.0))
        .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 1_000.0, 30.0));
    run("outage_degradation", faulted(routed, outage), quiet, 6);
    // One subscriber per stall; the long one carries deliveries for 1.2 s.
    let stall = plan()
        .with_stall(SubscriberStall::new(subscriber(1), 300.0, 1_500.0))
        .with_stall(SubscriberStall::new(subscriber(40), 1_900.0, 2_600.0))
        .with_burst(PublishBurst::new(4, 1_000.0, 1_200.0));
    run("stall_burst", faulted(mixed, stall), quiet, 7);

    let everything = plan()
        .with_loss_rate(0.01)
        .with_reorder(ReorderWindow::new(20.0, 300.0, 700.0))
        .with_duplicate(DuplicateDelivery::new(2, 1_400.0, 1_600.0))
        .with_outage(RegionOutage::new(RegionId(2), 800.0, 1_000.0))
        .with_degradation(LinkDegradation::new(RegionId(0), RegionId(3), 0.0, 2_000.0, 25.0))
        .with_stall(SubscriberStall::new(subscriber(7), 200.0, 1_700.0))
        .with_burst(PublishBurst::new(3, 1_100.0, 1_300.0));
    let mut engine = Engine::new(faulted(routed, everything), Jitter::uniform(5.0), 8);
    for t in 0..FEEDS.topics {
        engine.schedule_reconfiguration(1_000.0, t, mixed(t));
    }
    print("everything_reconfigured", &engine.run(DURATION_MS));

    run("small_topics_ties", scenario(&SMALL_TOPICS, mixed), quiet, 9);
}
