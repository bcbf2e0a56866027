//! One line per fixed scenario with everything a `SimReport` holds, the
//! delivery log folded into an FNV-1a digest in delivery-time order (one
//! stable sort of the send order by delivery time, then topic index),
//! diffed against `report_digests.txt` — the check that a change to the
//! engine leaves reports bit for bit what they were. A changed `log=`
//! digest with equal counts means the time-sorted sequence changed:
//! deliveries moved in time, or one topic's deliveries landing together
//! were sent in a different order. Which topic's deliveries come first
//! among those landing together is the topic index's business, not the
//! engine's: topics run apart.
//!
//! The scenarios are in `common/mod.rs`, shared with the engine's own
//! tests.
//!
//! A second test reruns each quiet scenario with a stall on a client it
//! does not hold, which every copy's `stall_release` must pass through
//! untouched, and checks that both runs report the same deliveries in the
//! same order. The others check what running topics apart and keying every draw by
//! its copy promise: a topic's percentile reads its own deliveries, a
//! topic's draws and a copy's draws are their own, and loss hits every
//! hop, and each copy of a duplicated delivery apart, at its rate.

mod common;

use common::{cases, direct, mixed, routed, scenario, DURATION_MS, FEEDS, N_REGIONS, SMALL_TOPICS};
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::ids::{ClientId, RegionId};
use multipub_netsim::engine::Engine;
use multipub_netsim::faults::{DuplicateDelivery, FaultPlan, ReorderWindow, SubscriberStall};
use multipub_netsim::jitter::Jitter;
use multipub_netsim::metrics::{DeliveryRecord, SimReport};
use multipub_netsim::scenario::{SimPublisher, SimSubscriber, TopicScenario};
use multipub_netsim::{engine, faults, jitter, scenario};
use multipub_obs::quantile::percentile_exact;

/// FNV-1a over the log in delivery-time order: every field of every
/// record, deliveries landing together in send order.
fn log_digest(report: &SimReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut write = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut by_time: Vec<_> = report.deliveries().collect();
    by_time.sort_by(|a, b| {
        let at = a.delivered_at.as_ms().total_cmp(&b.delivered_at.as_ms());
        at.then(a.topic_index.cmp(&b.topic_index))
    });
    for d in by_time {
        write(d.topic_index as u64);
        write(d.publisher.0);
        write(d.subscriber.0);
        write(d.published_at.as_ms().to_bits());
        write(d.delivered_at.as_ms().to_bits());
    }
    hash
}

fn line(name: &str, report: &SimReport) -> String {
    let regions = || (0..N_REGIONS as u8).map(RegionId);
    let internet: Vec<u64> = regions().map(|r| report.ledger().internet_bytes(r)).collect();
    let inter_region: Vec<u64> = regions().map(|r| report.ledger().inter_region_bytes(r)).collect();
    format!(
        "{name} log={:016x} deliveries={} published={} lost={} internet={internet:?} \
         inter_region={inter_region:?}\n",
        log_digest(report),
        report.delivery_count(),
        report.published_count(),
        report.lost_count(),
    )
}

#[test]
fn reports_match_the_committed_digests() {
    let table: String =
        cases().iter().map(|case| line(case.name, &case.engine().run(DURATION_MS))).collect();
    assert!(
        table == include_str!("report_digests.txt"),
        "reports differ from crates/netsim/tests/report_digests.txt; a change that moves \
         reports on purpose replaces that file with this table:\n{table}"
    );
}

/// A draw-free stall on an absent client moves nothing: it stalls no client
/// of any scenario and draws nothing. Every copy, with or without a stall in
/// the plan, takes the copy function's one expression, and each copy's
/// `stall_release` of the absent client's window must hand back the time it
/// was given, so the two runs agree bit for bit.
#[test]
fn quiet_arrivals_read_back_like_copies_sent_one_by_one() {
    let absent = ClientId(u64::MAX);
    let per_copy = FaultPlan::none().with_stall(SubscriberStall::new(absent, 0.0, DURATION_MS));
    for (name, scenario, seed) in [
        ("direct", scenario(&FEEDS, direct), 1),
        ("routed", scenario(&FEEDS, routed), 1),
        ("small_topics_ties", scenario(&SMALL_TOPICS, mixed), 9),
    ] {
        assert!(scenario.topics().iter().all(|topic| {
            let clients = topic.publishers().iter().map(SimPublisher::client);
            clients
                .chain(topic.subscribers().iter().map(SimSubscriber::client))
                .all(|c| c != absent)
        }));
        let quiet = Engine::new(scenario.clone(), Jitter::disabled(), seed).run(DURATION_MS);
        let one_by_one =
            Engine::new(scenario.with_fault_plan(per_copy.clone()), Jitter::disabled(), seed)
                .run(DURATION_MS);
        assert_eq!(quiet.deliveries().len(), one_by_one.deliveries().len(), "{name}");
        assert!(
            quiet.deliveries().eq(one_by_one.deliveries()),
            "{name}: delivery sequences differ"
        );
        assert_eq!(quiet.ledger(), one_by_one.ledger(), "{name}");
        assert_eq!(quiet.published_count(), one_by_one.published_count(), "{name}");
        assert_eq!(quiet.lost_count(), one_by_one.lost_count(), "{name}");
        assert_eq!(quiet.delivery_count(), one_by_one.delivery_count(), "{name}");
        for ratio in [50.0, 95.0, 100.0] {
            assert_eq!(quiet.percentile_ms(ratio), one_by_one.percentile_ms(ratio), "{name}");
            assert_eq!(
                quiet.topic_percentile_ms(1, ratio),
                one_by_one.topic_percentile_ms(1, ratio),
                "{name}"
            );
        }
    }
}

#[test]
fn a_topic_percentile_is_the_percentile_of_its_own_deliveries() {
    for case in cases() {
        if !matches!(case.name, "small_topics_ties" | "everything_reconfigured") {
            continue;
        }
        let report = case.engine().run(DURATION_MS);
        let mut by_topic = vec![Vec::new(); case.scenario.topics().len()];
        for d in report.deliveries() {
            by_topic[d.topic_index].push(d.latency_ms());
        }
        for (topic, latencies) in by_topic.iter_mut().enumerate() {
            for ratio in [50.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    report.topic_percentile_ms(topic, ratio).to_bits(),
                    percentile_exact(latencies, ratio).to_bits(),
                    "{} topic {topic} at {ratio} %",
                    case.name
                );
            }
        }
    }
}

#[test]
fn a_topic_draws_alone() {
    // Jitter, loss and reordering all draw; topic 0 then changes its
    // configuration, or loses a publisher, and no other topic may notice.
    let plan =
        FaultPlan::none().with_loss_rate(0.05).with_reorder(ReorderWindow::new(20.0, 0.0, 1_500.0));
    let base = scenario(&FEEDS, mixed).with_fault_plan(plan);
    let run = |scenario| Engine::new(scenario, Jitter::uniform(5.0), 11).run(DURATION_MS);
    let others = |report: &SimReport| -> Vec<DeliveryRecord> {
        report.deliveries().filter(|d| d.topic_index != 0).collect()
    };
    let untouched = run(base.clone());
    assert!(untouched.lost_count() > 0);

    let mut reconfigured = base.clone();
    let single = AssignmentVector::single(RegionId(4), N_REGIONS).expect("region 4 exists");
    reconfigured.topics_mut()[0]
        .set_configuration(Configuration::new(single, DeliveryMode::Direct));
    let mut quieter = base.clone();
    let topic = &quieter.topics()[0];
    let one_publisher = TopicScenario::new(
        topic.id().clone(),
        topic.configuration(),
        topic.publishers()[..1].to_vec(),
        topic.subscribers().to_vec(),
    );
    quieter.topics_mut()[0] = one_publisher;

    for (name, changed) in [("reconfigured", reconfigured), ("quieter", quieter)] {
        let changed = run(changed);
        let topic_0 =
            |report: &SimReport| report.deliveries().filter(|d| d.topic_index == 0).count();
        assert_ne!(topic_0(&changed), topic_0(&untouched), "{name}: topic 0 did not change");
        // Times are compared by their bits, which `f64`'s `==` is not.
        let (before, after) = (others(&untouched), others(&changed));
        assert_eq!(before.len(), after.len(), "{name}");
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(
                (b.topic_index, b.publisher, b.subscriber),
                (a.topic_index, a.publisher, a.subscriber),
                "{name}"
            );
            assert_eq!(b.published_at.as_ms().to_bits(), a.published_at.as_ms().to_bits());
            assert_eq!(b.delivered_at.as_ms().to_bits(), a.delivered_at.as_ms().to_bits());
        }
    }
}

#[test]
fn a_copy_draws_alone() {
    // Jitter, loss and reordering all draw; one more subscriber of topic 0
    // draws its own copies, and every other delivery, topic 0's included,
    // stays what it was.
    let plan =
        FaultPlan::none().with_loss_rate(0.05).with_reorder(ReorderWindow::new(20.0, 0.0, 1_500.0));
    let base = scenario(&FEEDS, mixed).with_fault_plan(plan);
    let run = |scenario| Engine::new(scenario, Jitter::uniform(5.0), 11).run(DURATION_MS);
    let newcomer = ClientId(u64::MAX);
    let mut grown = base.clone();
    let topic = &grown.topics()[0];
    let mut subscribers = topic.subscribers().to_vec();
    subscribers.push(SimSubscriber::new(newcomer, subscribers[0].latencies().to_vec()));
    let one_more = TopicScenario::new(
        topic.id().clone(),
        topic.configuration(),
        topic.publishers().to_vec(),
        subscribers,
    );
    grown.topics_mut()[0] = one_more;

    let (before, after) = (run(base), run(grown));
    assert!(before.lost_count() > 0);
    assert!(after.deliveries().any(|d| d.subscriber == newcomer), "the newcomer got nothing");
    let after: Vec<DeliveryRecord> =
        after.deliveries().filter(|d| d.subscriber != newcomer).collect();
    assert_eq!(before.deliveries().len(), after.len());
    // Times are compared by their bits, which `f64`'s `==` is not.
    for (b, a) in before.deliveries().zip(&after) {
        assert_eq!(
            (b.topic_index, b.publisher, b.subscriber),
            (a.topic_index, a.publisher, a.subscriber)
        );
        assert_eq!(b.published_at.as_ms().to_bits(), a.published_at.as_ms().to_bits());
        assert_eq!(b.delivered_at.as_ms().to_bits(), a.delivered_at.as_ms().to_bits());
    }
}

#[test]
fn the_loss_scenario_loses_at_its_rate() {
    // The `loss` scenario with every delivery doubled by a duplicate
    // window, over 1 000 seeds of a short run. Every hop draws once: an
    // uplink to each serving region (direct) or to the closest one
    // (routed), each billed forward and each billed delivery copy. The
    // share lost must fall within four binomial standard deviations of the
    // rate p. So must the share of delivered (publication, subscriber)
    // pairs that both copies reach, (1 − p)² / (1 − p²) = (1 − p) / (1 + p)
    // if the two copies are lost apart.
    const SEEDS: u64 = 1_000;
    const SHORT_MS: f64 = 20.0;
    let case = cases().into_iter().find(|case| case.name == "loss").expect("a loss case");
    let rate = common::LOSS_RATE;
    // The window is open until long after the last copy is sent.
    let everything_twice = DuplicateDelivery::new(2, 0.0, 60_000.0);
    let doubled = FaultPlan::none().with_loss_rate(rate).with_duplicate(everything_twice);
    let scenario = case.scenario.clone().with_fault_plan(doubled);
    let size = 512;
    let uplinks_per_publication: Vec<u64> = scenario
        .topics()
        .iter()
        .map(|topic| match topic.configuration().mode() {
            DeliveryMode::Direct => u64::from(topic.configuration().region_count()),
            DeliveryMode::Routed => 1,
        })
        .collect();
    let (mut lost, mut hops) = (0u64, 0u64);
    let (mut both, mut pairs) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let report = Engine::new(scenario.clone(), case.jitter, seed).run(SHORT_MS);
        let billed: u64 = (0..N_REGIONS as u8)
            .map(RegionId)
            .map(|r| report.ledger().internet_bytes(r) + report.ledger().inter_region_bytes(r))
            .sum();
        assert_eq!(billed % size, 0);
        // Every topic publishes the same count.
        let topics = uplinks_per_publication.len() as u64;
        assert_eq!(report.published_count() % topics, 0);
        let per_topic = report.published_count() / topics;
        hops += billed / size + per_topic * uplinks_per_publication.iter().sum::<u64>();
        lost += report.lost_count();
        // A delivery's copies are sent one after the other, so the copies
        // of one pair that arrive are neighbours in send order.
        let mut previous = None;
        for d in report.deliveries() {
            let pair = Some((d.topic_index, d.publisher, d.subscriber, d.published_at));
            if pair == previous {
                both += 1;
                previous = None;
            } else {
                pairs += 1;
                previous = pair;
            }
        }
    }
    let within = |what: &str, hits: u64, n: u64, p: f64| {
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        let share = hits as f64 / n as f64;
        assert!(
            (share - p).abs() <= 4.0 * sigma,
            "{what}: {hits} of {n}, share {share}, expected {p} ± 4 × {sigma}"
        );
    };
    within("lost hops", lost, hops, rate);
    within("pairs both copies reach", both, pairs, (1.0 - rate) / (1.0 + rate));
}
