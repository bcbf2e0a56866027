//! End-to-end tests of the MultiPub middleware: multi-region deployments
//! on loopback, with real sockets, real forwarding and real
//! reconfiguration.

use multipub_broker::broker::Broker;
use multipub_broker::client::{ClientConfig, PublisherClient, SubscriberClient};
use multipub_broker::controller::Controller;
use multipub_broker::delay::DelayTable;
use multipub_broker::frame::WireMode;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::region::{Region, RegionSet};
use std::net::SocketAddr;
use std::time::Duration;
use tokio::time::timeout;

const TICK: Duration = Duration::from_secs(5);

async fn recv(sub: &mut SubscriberClient) -> multipub_broker::client::Delivery {
    timeout(TICK, sub.next_delivery()).await.expect("delivery within deadline").unwrap()
}

/// Spawns `n` brokers fully meshed as peers, returning them plus their
/// addresses indexed by region.
async fn mesh(n: usize) -> (Vec<Broker>, Vec<SocketAddr>) {
    let mut brokers = Vec::with_capacity(n);
    for region in 0..n {
        brokers.push(Broker::builder(RegionId(region as u8)).spawn().await.unwrap());
    }
    let addrs: Vec<SocketAddr> = brokers.iter().map(Broker::local_addr).collect();
    for (i, broker) in brokers.iter().enumerate() {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                broker.add_peer(RegionId(j as u8), *addr);
            }
        }
    }
    (brokers, addrs)
}

#[tokio::test]
async fn single_region_pub_sub() {
    let (brokers, addrs) = mesh(1).await;
    let mut subscriber = SubscriberClient::new(ClientConfig::new(1, addrs.clone())).unwrap();
    subscriber.subscribe("news").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig::new(2, addrs)).unwrap();
    publisher.publish("news", &b"breaking"[..]).await.unwrap();

    let delivery = recv(&mut subscriber).await;
    assert_eq!(&delivery.payload[..], b"breaking");
    assert_eq!(delivery.publisher, 2);
    assert_eq!(delivery.topic, "news");
    drop(brokers);
}

#[tokio::test]
async fn routed_delivery_crosses_regions() {
    let (brokers, addrs) = mesh(3).await;
    // Subscriber is closest to region 2; publisher closest to region 0.
    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 10,
        region_addrs: addrs.clone(),
        latencies_ms: vec![80.0, 60.0, 5.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("chat").await.unwrap();
    assert_eq!(subscriber.subscribed_region("chat"), Some(RegionId(2)));
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 11,
        region_addrs: addrs,
        latencies_ms: vec![5.0, 60.0, 80.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    // Default topic config: all regions, routed → one send, forwarded.
    let sent = publisher.publish("chat", &b"hi"[..]).await.unwrap();
    assert_eq!(sent, 1, "routed delivery publishes to one region");

    let delivery = recv(&mut subscriber).await;
    assert_eq!(&delivery.payload[..], b"hi");
    drop(brokers);
}

#[tokio::test]
async fn direct_delivery_fans_out_from_the_publisher() {
    let (brokers, addrs) = mesh(2).await;
    for broker in &brokers {
        broker.install_config_at("scores", 0b11, WireMode::Direct, 1);
    }
    let mut sub_far = SubscriberClient::new(ClientConfig {
        client_id: 20,
        region_addrs: addrs.clone(),
        latencies_ms: vec![70.0, 5.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    sub_far.subscribe("scores").await.unwrap();
    let mut sub_near = SubscriberClient::new(ClientConfig {
        client_id: 21,
        region_addrs: addrs.clone(),
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    sub_near.subscribe("scores").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 22,
        region_addrs: addrs,
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    // The publisher has not heard the config yet (fresh connection), so it
    // bootstraps with routed; after the first publish the broker's
    // ConfigUpdate reaches it and subsequent publishes go direct.
    publisher.publish("scores", &b"0:0"[..]).await.unwrap();
    assert_eq!(&recv(&mut sub_near).await.payload[..], b"0:0");
    assert_eq!(&recv(&mut sub_far).await.payload[..], b"0:0");

    tokio::time::sleep(Duration::from_millis(50)).await;
    let sent = publisher.publish("scores", &b"1:0"[..]).await.unwrap();
    assert_eq!(sent, 2, "direct delivery publishes to every serving region");
    assert_eq!(&recv(&mut sub_near).await.payload[..], b"1:0");
    assert_eq!(&recv(&mut sub_far).await.payload[..], b"1:0");

    // No inter-broker forwarding happened for the direct publish: each
    // subscriber got each message exactly once.
    let extra = timeout(Duration::from_millis(200), sub_near.next_delivery()).await;
    assert!(extra.is_err(), "no duplicate deliveries");
    drop(brokers);
}

#[tokio::test]
async fn region_manager_reports_interval_statistics() {
    let (brokers, addrs) = mesh(2).await;
    brokers[0].install_config_at("metrics", 0b01, WireMode::Direct, 1);
    brokers[1].install_config_at("metrics", 0b01, WireMode::Direct, 1);

    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 30,
        region_addrs: addrs.clone(),
        latencies_ms: vec![1.0, 50.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("metrics").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 31,
        region_addrs: addrs,
        latencies_ms: vec![1.0, 50.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    for _ in 0..5 {
        publisher.publish("metrics", vec![0u8; 100]).await.unwrap();
    }
    for _ in 0..5 {
        recv(&mut subscriber).await;
    }

    let report = brokers[0].take_report();
    assert_eq!(report.region, 0);
    let topic = &report.topics["metrics"];
    assert_eq!(topic.publishers[&31].messages, 5);
    assert_eq!(topic.publishers[&31].bytes, 500);
    assert_eq!(topic.subscribers, vec![30]);

    // Taking the report clears message counters (interval semantics) but
    // keeps the live subscriber registry.
    let again = brokers[0].take_report();
    assert!(again.topics["metrics"].publishers.is_empty());
    assert_eq!(again.topics["metrics"].subscribers, vec![30]);
    drop(brokers);
}

#[tokio::test]
async fn wan_delay_injection_shapes_latency() {
    let (brokers, addrs) = {
        // Region 0 with 40 ms one-way delay towards client 40.
        let mut delays = DelayTable::none();
        delays.set_client_delay_ms(40, 40.0);
        let broker = Broker::builder(RegionId(0)).delays(delays).spawn().await.unwrap();
        let addrs = vec![broker.local_addr()];
        (vec![broker], addrs)
    };
    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 40,
        region_addrs: addrs.clone(),
        latencies_ms: vec![40.0],
        emulate_wan: false, // subscriber side delay injected by the broker
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("slow").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 41,
        region_addrs: addrs,
        latencies_ms: vec![25.0],
        emulate_wan: true, // publisher delays its own uplink
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    publisher.publish("slow", &b"x"[..]).await.unwrap();
    let delivery = recv(&mut subscriber).await;
    // 25 ms uplink + 40 ms downlink ≈ 65 ms end to end.
    assert!(
        delivery.latency_ms() >= 60.0,
        "expected >= 60 ms, measured {:.1} ms",
        delivery.latency_ms()
    );
    assert!(
        delivery.latency_ms() <= 150.0,
        "expected well under 150 ms, measured {:.1} ms",
        delivery.latency_ms()
    );
    drop(brokers);
}

fn two_regions() -> (RegionSet, InterRegionMatrix) {
    (
        RegionSet::new(vec![
            Region::new("cheap", "A", 0.02, 0.09),
            Region::new("pricey", "B", 0.16, 0.25),
        ])
        .unwrap(),
        InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap(),
    )
}

#[tokio::test]
async fn controller_optimizes_and_reconfigures_live_clients() {
    let (brokers, addrs) = mesh(2).await;
    let (regions, inter) = two_regions();
    let constraint = DeliveryConstraint::new(95.0, 500.0).unwrap();
    let mut controller = Controller::connect(regions, inter, &addrs, constraint).await.unwrap();

    // Everyone is near region 1 (the expensive one); with a loose 500 ms
    // bound the optimizer should pull the topic to cheap region 0.
    let pub_latencies = vec![70.0, 5.0];
    let sub_latencies = vec![75.0, 6.0];
    controller.register_client(50, pub_latencies.clone());
    controller.register_client(51, sub_latencies.clone());

    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 51,
        region_addrs: addrs.clone(),
        latencies_ms: sub_latencies,
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("game").await.unwrap();
    assert_eq!(subscriber.subscribed_region("game"), Some(RegionId(1)));
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 50,
        region_addrs: addrs,
        latencies_ms: pub_latencies,
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    for _ in 0..10 {
        publisher.publish("game", vec![0u8; 256]).await.unwrap();
        recv(&mut subscriber).await;
    }

    // One control round: collect stats, optimize, deploy.
    let decisions = controller.optimize_once().await;
    assert_eq!(decisions.len(), 1);
    let decision = &decisions[0];
    assert_eq!(decision.topic, "game");
    assert!(decision.feasible);
    assert!(decision.deployed);
    assert_eq!(decision.unknown_clients, 0);
    // Cheapest feasible: the single cheap region 0.
    assert_eq!(decision.configuration.region_count(), 1);
    assert!(decision.configuration.assignment().contains(RegionId(0)));

    // The subscriber learns the new configuration and resubscribes; the
    // publisher re-steers. Traffic keeps flowing through region 0.
    for attempt in 0..50 {
        publisher.publish("game", format!("m{attempt}").into_bytes()).await.unwrap();
        let delivery = recv(&mut subscriber).await;
        if subscriber.subscribed_region("game") == Some(RegionId(0)) {
            let _ = delivery;
            break;
        }
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    assert_eq!(subscriber.subscribed_region("game"), Some(RegionId(0)));

    // A second optimization round with fresh traffic is a no-op deploy.
    for _ in 0..5 {
        publisher.publish("game", vec![0u8; 256]).await.unwrap();
        recv(&mut subscriber).await;
    }
    let second = controller.optimize_once().await;
    assert_eq!(second.len(), 1);
    assert!(!second[0].deployed, "configuration is already installed");
    assert_eq!(controller.installed("game"), Some(decision.configuration));
    drop(brokers);
}

#[tokio::test]
async fn controller_mitigation_force_adds_a_region_for_stragglers() {
    let (brokers, addrs) = mesh(2).await;
    let (regions, inter) = two_regions();
    let constraint = DeliveryConstraint::new(75.0, 100.0).unwrap();
    let mut controller = Controller::connect(regions, inter, &addrs, constraint).await.unwrap();
    controller.enable_mitigation(multipub_core::mitigation::MitigationPolicy::default());

    // Publisher + two healthy subscribers near cheap region 0; one
    // straggler near region 1, hopeless via region 0 (its best delivery
    // 5 + 150 already blows the 100 ms bound) but fine via region 1.
    controller.register_client(70, vec![5.0, 60.0]); // publisher
    controller.register_client(71, vec![6.0, 70.0]); // healthy sub
    controller.register_client(72, vec![7.0, 75.0]); // healthy sub
    controller.register_client(74, vec![8.0, 72.0]); // healthy sub
    controller.register_client(73, vec![150.0, 8.0]); // straggler

    let mut subs = Vec::new();
    for (id, lat) in [
        (71u64, vec![6.0, 70.0]),
        (72, vec![7.0, 75.0]),
        (74, vec![8.0, 72.0]),
        (73, vec![150.0, 8.0]),
    ] {
        let mut sub = SubscriberClient::new(ClientConfig {
            client_id: id,
            region_addrs: addrs.clone(),
            latencies_ms: lat,
            emulate_wan: false,
            ..ClientConfig::new(0, Vec::new())
        })
        .unwrap();
        sub.subscribe("alerts").await.unwrap();
        subs.push(sub);
    }
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 70,
        region_addrs: addrs,
        latencies_ms: vec![5.0, 60.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    for _ in 0..5 {
        publisher.publish("alerts", vec![0u8; 64]).await.unwrap();
        for sub in &mut subs {
            recv(sub).await;
        }
    }

    let decisions = controller.optimize_once().await;
    assert_eq!(decisions.len(), 1);
    let decision = &decisions[0];
    // The percentile optimum is region 0 alone (the straggler's 5 of 20
    // deliveries sit above the 75th percentile, so the constraint cannot
    // see it); mitigation must force-add region 1.
    assert_eq!(decision.forced_regions, vec![RegionId(1)]);
    assert!(decision.configuration.assignment().contains(RegionId(0)));
    assert!(decision.configuration.assignment().contains(RegionId(1)));
    drop(brokers);
}

#[tokio::test]
async fn content_filters_restrict_deliveries() {
    use multipub_filter::Headers;
    let (brokers, addrs) = mesh(2).await;

    // One plain subscriber and one filtered subscriber on the same topic,
    // at different regions (the filter must survive routed forwarding).
    let mut plain = SubscriberClient::new(ClientConfig {
        client_id: 80,
        region_addrs: addrs.clone(),
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    plain.subscribe("ticks").await.unwrap();
    let mut filtered = SubscriberClient::new(ClientConfig {
        client_id: 81,
        region_addrs: addrs.clone(),
        latencies_ms: vec![70.0, 5.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    filtered.subscribe_filtered("ticks", r#"symbol =^ "A" && price < 100"#).await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 82,
        region_addrs: addrs,
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();

    let quotes =
        [("AAPL", 95.0, true), ("AAPL", 130.0, false), ("MSFT", 50.0, false), ("AMZN", 99.0, true)];
    for (symbol, price, _) in quotes {
        let mut headers = Headers::new();
        headers.set("symbol", symbol).set("price", price);
        publisher
            .publish_with_headers("ticks", &headers, format!("{symbol}@{price}").into_bytes())
            .await
            .unwrap();
    }

    // The plain subscriber receives all four.
    for _ in 0..4 {
        recv(&mut plain).await;
    }
    // The filtered subscriber receives exactly the matching two, in order,
    // with their headers intact.
    let first = recv(&mut filtered).await;
    assert_eq!(&first.payload[..], b"AAPL@95");
    assert_eq!(first.headers.get("symbol"), Some(&multipub_filter::Value::Str("AAPL".into())));
    let second = recv(&mut filtered).await;
    assert_eq!(&second.payload[..], b"AMZN@99");
    let extra = timeout(Duration::from_millis(200), filtered.next_delivery()).await;
    assert!(extra.is_err(), "non-matching quotes must not be delivered");
    drop(brokers);
}

#[tokio::test]
async fn invalid_filter_is_rejected_client_side() {
    let (brokers, addrs) = mesh(1).await;
    let mut subscriber = SubscriberClient::new(ClientConfig::new(90, addrs)).unwrap();
    let err = subscriber.subscribe_filtered("t", "price <").await.unwrap_err();
    assert!(matches!(err, multipub_broker::BrokerError::BadFilter { .. }));
    drop(brokers);
}

#[tokio::test]
async fn reconfiguration_loses_no_messages_during_switch() {
    let (brokers, addrs) = mesh(2).await;
    // Start all-regions-routed (the default), then flip the topic to a
    // single region while messages are in flight.
    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 60,
        region_addrs: addrs.clone(),
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("stream").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 61,
        region_addrs: addrs,
        latencies_ms: vec![70.0, 5.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();

    let mut received = 0usize;
    for i in 0..30 {
        if i == 10 {
            // Flip the topic to region-0-only mid-stream.
            for broker in &brokers {
                broker.install_config_at("stream", 0b01, WireMode::Direct, 1);
            }
        }
        publisher.publish("stream", format!("{i}").into_bytes()).await.unwrap();
        recv(&mut subscriber).await;
        received += 1;
    }
    assert_eq!(received, 30);
    drop(brokers);
}

#[tokio::test]
async fn stats_snapshot_reports_publish_and_delivery_metrics() {
    let (brokers, addrs) = mesh(2).await;
    let (regions, inter) = two_regions();
    let constraint = DeliveryConstraint::new(95.0, 500.0).unwrap();
    let mut controller = Controller::connect(regions, inter, &addrs, constraint).await.unwrap();

    let mut subscriber = SubscriberClient::new(ClientConfig {
        client_id: 100,
        region_addrs: addrs.clone(),
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    subscriber.subscribe("observed").await.unwrap();
    tokio::time::sleep(Duration::from_millis(50)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 101,
        region_addrs: addrs,
        latencies_ms: vec![5.0, 70.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })
    .unwrap();
    for i in 0..3 {
        publisher.publish("observed", format!("{i}").into_bytes()).await.unwrap();
        recv(&mut subscriber).await;
    }

    // In-band metrics pull: StatsSnapshotRequest → StatsSnapshot per broker.
    let snapshots = controller.collect_metrics().await;
    assert_eq!(snapshots.len(), 2);
    // The registry is process-global (these brokers share it, as do the
    // other tests in this binary), so assertions are lower bounds.
    for json in &snapshots {
        let value: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        let publishes = value["counters"]["multipub_broker_publishes_total"]
            .as_u64()
            .expect("publish counter present");
        assert!(publishes >= 3, "expected >= 3 publishes, got {publishes}");
        let delivery = &value["histograms"]["multipub_broker_delivery_ms"];
        let count = delivery["count"].as_u64().expect("delivery histogram present");
        assert!(count >= 3, "expected >= 3 recorded deliveries, got {count}");
        assert!(delivery["p50"].as_f64().expect("p50 present") >= 0.0);
    }
    drop(brokers);
}
