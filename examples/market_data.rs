//! Content-filtered market data over MultiPub — exercising the paper's
//! future-work extension (§VII: content-based pub/sub) on the real
//! middleware.
//!
//! A quote feed publishes ticks with typed headers; subscribers attach
//! predicates (`symbol =^ "A" && price < 100`) so brokers deliver only
//! matching ticks, while the controller still optimizes the topic's
//! region placement underneath.
//!
//! The feed also demonstrates the at-least-once extensions (DESIGN.md
//! §13): the end-of-session snapshot is published at QoS 1 **retained**,
//! so the broker acks it and replays it to any trader who connects
//! after the fact — the market-data snapshot pattern.
//!
//! Run with `cargo run --release --example market_data`.

use multipub_broker::broker::Broker;
use multipub_broker::client::{ClientConfig, PublisherClient, SubscriberClient};
use multipub_broker::controller::Controller;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::region::{Region, RegionSet};
use multipub_filter::Headers;
use std::net::SocketAddr;
use std::time::Duration;

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two regions: New York (cheap) and São Paulo (expensive).
    let regions = RegionSet::new(vec![
        Region::new("us-east-1", "N. Virginia", 0.02, 0.09),
        Region::new("sa-east-1", "Sao Paulo", 0.16, 0.25),
    ])?;
    let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 60.0], vec![60.0, 0.0]])?;

    // Retention on: the brokers keep each topic's last retained value
    // for late subscribers.
    let broker_ny = Broker::builder(RegionId(0)).retain(true).spawn().await?;
    let broker_sp = Broker::builder(RegionId(1)).retain(true).spawn().await?;
    broker_ny.add_peer(RegionId(1), broker_sp.local_addr());
    broker_sp.add_peer(RegionId(0), broker_ny.local_addr());
    let addrs: Vec<SocketAddr> = vec![broker_ny.local_addr(), broker_sp.local_addr()];

    // A São Paulo trader wants cheap Brazilian large-caps only; a New York
    // analyst takes the whole feed.
    let mut trader = SubscriberClient::new(ClientConfig {
        client_id: 2,
        region_addrs: addrs.clone(),
        latencies_ms: vec![75.0, 8.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })?;
    trader
        .subscribe_filtered("ticks/latam", r#"exchange == "B3" && price < 50 && !halted == true"#)
        .await?;
    let mut analyst = SubscriberClient::new(ClientConfig {
        client_id: 3,
        region_addrs: addrs.clone(),
        latencies_ms: vec![6.0, 80.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })?;
    analyst.subscribe("ticks/latam").await?;
    tokio::time::sleep(Duration::from_millis(100)).await;

    // The session-close snapshot topic runs at QoS 1: the feed keeps
    // retransmitting until a broker acks, so the snapshot cannot be
    // lost to a flaky socket.
    let mut feed = PublisherClient::new(ClientConfig {
        client_id: 1,
        region_addrs: addrs.clone(),
        latencies_ms: vec![5.0, 78.0],
        emulate_wan: false,
        qos1_topics: vec!["ticks/latam/close".to_string()],
        ..ClientConfig::new(0, Vec::new())
    })?;

    let ticks = [
        ("PETR4", "B3", 38.2, false),
        ("VALE3", "B3", 61.9, false),
        ("ITUB4", "B3", 27.4, false),
        ("AAPL", "NASDAQ", 189.3, false),
        ("BBAS3", "B3", 26.1, true), // halted
    ];
    println!("Publishing {} ticks:", ticks.len());
    for (symbol, exchange, price, halted) in ticks {
        let mut headers = Headers::new();
        headers
            .set("symbol", symbol)
            .set("exchange", exchange)
            .set("price", price)
            .set("halted", halted);
        feed.publish_with_headers("ticks/latam", &headers, symbol.as_bytes().to_vec()).await?;
        println!("  {symbol:<6} {exchange:<7} {price:>7.2} halted={halted}");
    }

    println!("\nAnalyst (unfiltered) receives:");
    for _ in 0..ticks.len() {
        let d = tokio::time::timeout(Duration::from_secs(5), analyst.next_delivery()).await??;
        println!("  {}", String::from_utf8_lossy(&d.payload));
    }
    println!("Trader (B3, price < 50, not halted) receives:");
    for _ in 0..2 {
        let d = tokio::time::timeout(Duration::from_secs(5), trader.next_delivery()).await??;
        println!(
            "  {} @ {}",
            String::from_utf8_lossy(&d.payload),
            d.headers.get("price").expect("price header")
        );
    }

    // Session close: publish the closing prices as a retained QoS 1
    // snapshot. The broker acks it (at-least-once) and stores it as the
    // topic's last value.
    let mut close = Headers::new();
    close.set("session", "2016-06-14").set("exchange", "B3");
    feed.publish_retained("ticks/latam/close", &close, &b"PETR4=38.20 VALE3=61.90"[..]).await?;
    if feed.await_acked(Duration::from_secs(5)).await {
        println!("\nClosing snapshot published, retained and acked by the broker.");
    }

    // A latecomer connecting *after* the close still gets the snapshot:
    // the broker replays the retained value on subscribe.
    let mut latecomer = SubscriberClient::new(ClientConfig {
        client_id: 4,
        region_addrs: addrs.clone(),
        latencies_ms: vec![70.0, 9.0],
        emulate_wan: false,
        ..ClientConfig::new(0, Vec::new())
    })?;
    latecomer.subscribe("ticks/latam/close").await?;
    let replay = tokio::time::timeout(Duration::from_secs(5), latecomer.next_delivery()).await??;
    println!(
        "Latecomer receives the snapshot (retained replay = {}): {}",
        replay.retained,
        String::from_utf8_lossy(&replay.payload)
    );

    // The controller optimizes the topic placement underneath the filters.
    let mut controller =
        Controller::connect(regions, inter, &addrs, DeliveryConstraint::new(95.0, 250.0)?).await?;
    controller.register_client(1, vec![5.0, 78.0])?;
    controller.register_client(2, vec![75.0, 8.0])?;
    controller.register_client(3, vec![6.0, 80.0])?;
    let decisions = controller.optimize_once().await;
    println!("\nController decision:");
    for d in &decisions {
        println!(
            "  {} -> {} ({:.1} ms predicted, feasible {})",
            d.topic, d.configuration, d.percentile_ms, d.feasible
        );
    }
    Ok(())
}
