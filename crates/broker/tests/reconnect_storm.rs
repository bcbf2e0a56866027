//! Reconnect-storm reconvergence (ROADMAP item 12, the session's
//! backoff): when one region's whole client population mass-reconnects
//! after an outage window, the session layer's decorrelated-jitter backoff
//! must spread the herd enough to meet a reconvergence-time SLO.
//!
//! The deterministic test drives a fixed storm window against the
//! **real** [`ReconnectPolicy`] jitter stream; the chaos test runs the
//! storm over live sockets and clocks actual reconvergence (CI chaos
//! job, `--include-ignored`).

use multipub_broker::broker::Broker;
use multipub_broker::client::{ClientConfig, SubscriberClient};
use multipub_broker::session::ReconnectPolicy;
use multipub_core::ids::RegionId;
use std::net::SocketAddr;
use std::time::Duration;

/// The storm population for the deterministic schedule test.
const POPULATION: u64 = 256;

/// When the storm disconnects the population, in milliseconds.
const STORM_START_MS: f64 = 500.0;

/// When the region is reachable again and the population mass-reconnects.
const STORM_END_MS: f64 = 1500.0;

/// Reconvergence SLO for the deterministic schedule: once the broker is
/// reachable again, every client's next re-dial lands within one
/// backoff cap — a client's in-window attempt can at worst schedule its
/// next try `cap` later.
const SCHEDULE_SLO_MS: f64 = 300.0;

/// A reconnect policy matching the e2e test defaults: 20 ms base,
/// 300 ms cap.
fn storm_policy() -> ReconnectPolicy {
    ReconnectPolicy::new(Duration::from_millis(20), Duration::from_millis(300))
}

/// The reconnection instant of every stormed client: each client is
/// disconnected at the window start and re-dials on its own seeded
/// decorrelated-jitter schedule; attempts inside the window fail
/// instantly (the region is down), and the first attempt at or after
/// the window end succeeds.
fn reconnect_instants_ms(population: u64) -> Vec<f64> {
    (0..population)
        .map(|client| {
            let mut backoff = storm_policy().backoff(client);
            let mut at = STORM_START_MS;
            loop {
                let delay = backoff.next_delay().expect("policy retries forever");
                at += delay.as_secs_f64() * 1000.0;
                if at >= STORM_END_MS {
                    return at;
                }
            }
        })
        .collect()
}

/// The storm schedule meets the reconvergence SLO: every client is back
/// within one backoff cap of the mass-reconnect instant, and the jitter
/// spreads the herd instead of re-synchronizing it.
#[test]
fn storm_reconnects_spread_within_the_slo_window() {
    let instants = reconnect_instants_ms(POPULATION);

    // SLO: full reconvergence within one cap of the window end.
    let last = instants.iter().copied().fold(f64::MIN, f64::max);
    let first = instants.iter().copied().fold(f64::MAX, f64::min);
    assert!(first >= STORM_END_MS, "nobody reconnects while the region is still down");
    assert!(
        last <= STORM_END_MS + SCHEDULE_SLO_MS,
        "reconvergence SLO violated: last re-dial at {last:.1} ms, \
         SLO window ends at {:.1} ms",
        STORM_END_MS + SCHEDULE_SLO_MS
    );

    // Thundering-herd check: after a full second of jittered in-window
    // retries the per-client schedules have decorrelated, so the herd
    // must not collapse into one instant — no 5 ms bucket may hold more
    // than half the population.
    let mut buckets = std::collections::HashMap::new();
    for &at in &instants {
        *buckets.entry(((at - STORM_END_MS) / 5.0) as u64).or_insert(0u64) += 1;
    }
    let peak = buckets.values().copied().max().unwrap();
    assert!(
        peak <= POPULATION / 2,
        "jitter must spread the herd: {peak} of {POPULATION} clients in one 5 ms bucket"
    );
    // And the schedule is deterministic per seed: same storm, same draws.
    assert_eq!(instants, reconnect_instants_ms(POPULATION));
}

/// Live reconvergence SLO: a broker restart disconnects its whole
/// client population at once; every subscriber must be back (connected
/// *and* resubscribed) within the SLO. Slow by construction (real
/// backoff schedules); runs in the CI chaos job via
/// `--include-ignored`.
#[tokio::test]
#[ignore = "chaos test (real mass-reconnect backoff); run with --include-ignored"]
async fn live_population_reconverges_after_mass_disconnect() {
    const CLIENTS: usize = 24;
    const RECONVERGENCE_SLO: Duration = Duration::from_secs(5);

    let broker = Broker::builder(RegionId(0)).spawn().await.unwrap();
    let addr: SocketAddr = broker.local_addr();

    let mut subscribers = Vec::with_capacity(CLIENTS);
    for id in 0..CLIENTS as u64 {
        let mut subscriber = SubscriberClient::new(ClientConfig {
            reconnect: storm_policy(),
            keepalive: Some(Duration::from_millis(100)),
            ..ClientConfig::new(id, vec![addr])
        })
        .unwrap();
        subscriber.subscribe("storm").await.unwrap();
        subscribers.push(subscriber);
    }
    let connected = |broker: &Broker| broker.client_count();
    let mut settled = false;
    for _ in 0..100 {
        if connected(&broker) >= CLIENTS {
            settled = true;
            break;
        }
        tokio::time::sleep(Duration::from_millis(50)).await;
    }
    assert!(settled, "population never fully connected before the storm");

    // Kill and immediately restart the broker on the same address: the
    // entire population mass-reconnects on its backoff schedule.
    broker.shutdown();
    tokio::time::sleep(Duration::from_millis(100)).await;
    let mut restarted = None;
    for _ in 0..100 {
        match Broker::builder(RegionId(0)).bind(addr).spawn().await {
            Ok(broker) => {
                restarted = Some(broker);
                break;
            }
            Err(_) => tokio::time::sleep(Duration::from_millis(50)).await,
        }
    }
    let broker = restarted.expect("broker rebinds its address");

    let started = std::time::Instant::now();
    let mut reconverged = None;
    while started.elapsed() < RECONVERGENCE_SLO {
        if connected(&broker) >= CLIENTS {
            reconverged = Some(started.elapsed());
            break;
        }
        tokio::time::sleep(Duration::from_millis(25)).await;
    }
    let took = reconverged.unwrap_or_else(|| {
        panic!(
            "reconvergence SLO violated: {} of {CLIENTS} clients back after {:?}",
            connected(&broker),
            RECONVERGENCE_SLO
        )
    });
    assert!(took <= RECONVERGENCE_SLO, "reconverged in {took:?}, SLO {RECONVERGENCE_SLO:?}");
    drop(subscribers);
    drop(broker);
}
