//! A live three-region MultiPub deployment on loopback.
//!
//! Spawns real brokers (Virginia, Frankfurt, Tokyo) with WAN latencies
//! injected from the EC2 matrix, real publisher/subscriber clients, and
//! the controller. Traffic flows, the region managers report, the
//! controller optimizes, the clients re-steer — and the measured
//! end-to-end latencies before and after reconfiguration are printed.
//!
//! Run with `cargo run --release --example live_broker`.

use multipub_broker::broker::Broker;
use multipub_broker::client::{ClientConfig, PublisherClient, SubscriberClient};
use multipub_broker::controller::Controller;
use multipub_broker::delay::DelayTable;
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_data::ec2;
use std::net::SocketAddr;
use std::time::Duration;

/// The three regions of this demo, as indices into the EC2 tables.
const DEMO_REGIONS: [RegionId; 3] =
    [ec2::regions::US_EAST_1, ec2::regions::EU_CENTRAL_1, ec2::regions::AP_NORTHEAST_1];

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Restrict the EC2 dataset to the three demo regions (renumbered 0-2).
    let full_regions = ec2::region_set();
    let regions = multipub_core::region::RegionSet::new(
        DEMO_REGIONS.iter().map(|&r| full_regions.region(r).clone()).collect(),
    )?;
    let inter = ec2::inter_region_latencies().restrict(&DEMO_REGIONS)?;

    // Client placement: publisher + subscriber in Virginia, subscriber in
    // Frankfurt. Tokyo serves nobody — the controller should drop it.
    let pub_virginia = client_row(&inter, 0, 8.0);
    let sub_virginia = client_row(&inter, 0, 10.0);
    let sub_frankfurt = client_row(&inter, 1, 12.0);

    // Spawn one broker per region with the inter-region delays installed,
    // plus per-client downlink delays.
    let mut brokers = Vec::new();
    for region in 0..3u8 {
        let mut delays = DelayTable::with_region_delays_ms(inter.row(RegionId(region)));
        delays.set_client_delay_ms(100, pub_virginia[region as usize]);
        delays.set_client_delay_ms(200, sub_virginia[region as usize]);
        delays.set_client_delay_ms(201, sub_frankfurt[region as usize]);
        brokers.push(Broker::builder(RegionId(region)).delays(delays).spawn().await?);
    }
    let addrs: Vec<SocketAddr> = brokers.iter().map(Broker::local_addr).collect();
    for (i, broker) in brokers.iter().enumerate() {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                broker.add_peer(RegionId(j as u8), *addr);
            }
        }
    }
    println!("Brokers listening:");
    for (i, addr) in addrs.iter().enumerate() {
        println!("  {} -> {addr}", regions.region(RegionId(i as u8)).name());
    }

    // Clients with WAN-emulated uplinks.
    let mut sub_near = SubscriberClient::new(ClientConfig {
        client_id: 200,
        region_addrs: addrs.clone(),
        latencies_ms: sub_virginia.clone(),
        emulate_wan: true,
        ..ClientConfig::new(0, Vec::new())
    })?;
    sub_near.subscribe("match/scores").await?;
    let mut sub_eu = SubscriberClient::new(ClientConfig {
        client_id: 201,
        region_addrs: addrs.clone(),
        latencies_ms: sub_frankfurt.clone(),
        emulate_wan: true,
        ..ClientConfig::new(0, Vec::new())
    })?;
    sub_eu.subscribe("match/scores").await?;
    tokio::time::sleep(Duration::from_millis(100)).await;

    let mut publisher = PublisherClient::new(ClientConfig {
        client_id: 100,
        region_addrs: addrs.clone(),
        latencies_ms: pub_virginia.clone(),
        emulate_wan: true,
        ..ClientConfig::new(0, Vec::new())
    })?;

    // Phase 1: bootstrap configuration (all regions, routed).
    println!("\nPhase 1 — bootstrap config (all regions, routed):");
    let (a, b) = round_trip(&mut publisher, &mut sub_near, &mut sub_eu, 10, b"goal!").await?;
    println!("  Virginia subscriber:  {a:.1} ms measured");
    println!("  Frankfurt subscriber: {b:.1} ms measured");

    // Controller: require 95% within 160 ms and optimize.
    let constraint = DeliveryConstraint::new(95.0, 160.0)?;
    let mut controller =
        Controller::connect(regions.clone(), inter.clone(), &addrs, constraint).await?;
    controller.register_client(100, pub_virginia)?;
    controller.register_client(200, sub_virginia)?;
    controller.register_client(201, sub_frankfurt)?;

    let decisions = controller.optimize_once().await;
    println!("\nController decisions:");
    for decision in &decisions {
        println!(
            "  {} -> {} (feasible: {}, predicted {:.1} ms)",
            decision.topic, decision.configuration, decision.feasible, decision.percentile_ms
        );
    }

    // Let the reconfiguration propagate, then measure again.
    tokio::time::sleep(Duration::from_millis(200)).await;
    println!("\nPhase 2 — optimized configuration:");
    let (a, b) = round_trip(&mut publisher, &mut sub_near, &mut sub_eu, 10, b"goal!").await?;
    println!("  Virginia subscriber:  {a:.1} ms measured");
    println!("  Frankfurt subscriber: {b:.1} ms measured");
    println!(
        "  subscriber regions: Virginia -> {:?}, Frankfurt -> {:?}",
        sub_near.subscribed_region("match/scores"),
        sub_eu.subscribed_region("match/scores"),
    );
    Ok(())
}

/// A client latency row: `last_mile` to its home region, inflated
/// backbone distance elsewhere.
fn client_row(inter: &InterRegionMatrix, home: u8, last_mile: f64) -> Vec<f64> {
    (0..inter.len())
        .map(|r| last_mile + 1.3 * inter.latency(RegionId(home), RegionId(r as u8)))
        .collect()
}

/// Publishes `count` messages and returns the mean measured delivery time
/// per subscriber (ms).
async fn round_trip(
    publisher: &mut PublisherClient,
    sub_a: &mut SubscriberClient,
    sub_b: &mut SubscriberClient,
    count: usize,
    payload: &[u8],
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let mut total_a = 0.0;
    let mut total_b = 0.0;
    for _ in 0..count {
        publisher.publish("match/scores", payload.to_vec()).await?;
        let da = tokio::time::timeout(Duration::from_secs(5), sub_a.next_delivery()).await??;
        let db = tokio::time::timeout(Duration::from_secs(5), sub_b.next_delivery()).await??;
        total_a += da.latency_ms();
        total_b += db.latency_ms();
    }
    Ok((total_a / count as f64, total_b / count as f64))
}
