//! `multipub-controller` — run the MultiPub controller against a broker
//! fleet.
//!
//! ```text
//! multipub-controller \
//!     --broker 10.0.0.5:9000 --broker 10.0.1.5:9000 \   # one per region, in region order
//!     --regions-csv regions.csv --inter-csv inter.csv \  # or omit both for the built-in EC2 snapshot
//!     --default-constraint 75:200 \
//!     --constraint game/scores=95:150 \
//!     --client 42=10,80,120 \                            # client latency rows (ms per region)
//!     --interval 30 --rounds 0 --mitigate true \
//!     --connect-timeout 2000 \                           # per-broker dial timeout (ms)
//!     --reconnect-backoff 100:10000 \                    # redial backoff base:cap (ms)
//!     --handover-grace 500 --handover-timeout 2000 \     # reconfiguration drain / phase bound (ms)
//!     --metrics-addr 0.0.0.0:9465
//! ```
//!
//! Each round the controller pulls region-manager reports, re-optimizes
//! every topic and deploys improved configurations. `--rounds 0` runs
//! until Ctrl-C. With `--metrics-addr` the controller serves its metrics
//! registry (round timings, feasibility counts) in Prometheus text
//! format.
//!
//! Unreachable brokers no longer abort startup: they are reported,
//! excluded from optimization, and re-dialed in the background (with the
//! `--reconnect-backoff` schedule) until they answer.
//!
//! Re-deployments run the epoch-based make-before-break handover:
//! `--handover-grace` sets how long retiring regions keep bridging
//! already-routed traffic after commit, and `--handover-timeout` bounds
//! each prepare/commit phase before the controller rolls back to the
//! last committed epoch.

use multipub_broker::controller::Controller;
use multipub_cli::{parse_f64_list, parse_pair, Args};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::mitigation::MitigationPolicy;
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "usage: multipub-controller --broker <addr>... \
                     [--regions-csv <path> --inter-csv <path>] \
                     [--default-constraint <ratio>:<max_ms>] \
                     [--constraint <topic>=<ratio>:<max_ms>]... \
                     [--client <id>=<ms,ms,...>]... \
                     [--interval <secs>] [--rounds <n>] [--mitigate true] \
                     [--connect-timeout <ms>] [--reconnect-backoff <base_ms>:<cap_ms>] \
                     [--handover-grace <ms>] [--handover-timeout <ms>] \
                     [--metrics-addr <addr>]";

fn parse_constraint(text: &str) -> Result<DeliveryConstraint, String> {
    let (ratio, max_ms) =
        text.split_once(':').ok_or_else(|| format!("expected ratio:max_ms, got {text:?}"))?;
    let ratio: f64 = ratio.parse().map_err(|_| format!("bad ratio in {text:?}"))?;
    let max_ms: f64 = max_ms.parse().map_err(|_| format!("bad bound in {text:?}"))?;
    DeliveryConstraint::new(ratio, max_ms).map_err(|e| e.to_string())
}

async fn run() -> Result<(), String> {
    let args = Args::from_env()?;

    let brokers: Vec<SocketAddr> = args
        .get_all("broker")
        .iter()
        .map(|a| a.parse().map_err(|_| format!("bad broker address {a:?}")))
        .collect::<Result<_, _>>()?;
    if brokers.is_empty() {
        return Err("at least one --broker is required".into());
    }

    let (regions, inter) = match (args.get("regions-csv"), args.get("inter-csv")) {
        (Some(regions_path), Some(inter_path)) => {
            let regions_text =
                tokio::fs::read_to_string(regions_path).await.map_err(|e| e.to_string())?;
            let inter_text =
                tokio::fs::read_to_string(inter_path).await.map_err(|e| e.to_string())?;
            (
                multipub_data::csv::parse_region_set(&regions_text).map_err(|e| e.to_string())?,
                multipub_data::csv::parse_inter_region_matrix(&inter_text)
                    .map_err(|e| e.to_string())?,
            )
        }
        (None, None) if brokers.len() == 10 => {
            (multipub_data::ec2::region_set(), multipub_data::ec2::inter_region_latencies())
        }
        (None, None) => {
            let (regions, inter) = multipub_data::ec2::restricted_deployment(brokers.len());
            (regions, inter)
        }
        _ => return Err("--regions-csv and --inter-csv must be given together".into()),
    };

    let default_constraint = parse_constraint(args.get("default-constraint").unwrap_or("95:200"))?;
    let mut controller = Controller::connect(regions, inter, &brokers, default_constraint)
        .await
        .map_err(|e| e.to_string())?;
    let unreachable = controller.unreachable_regions();
    if !unreachable.is_empty() {
        println!(
            "multipub-controller: {} of {} brokers unreachable at startup \
             (regions {:?}); optimizing over the rest and re-dialing in \
             the background",
            unreachable.len(),
            brokers.len(),
            unreachable,
        );
    }
    if let Some(ms) = args.get("connect-timeout") {
        let ms: u64 = ms.parse().map_err(|_| "bad --connect-timeout (ms)".to_string())?;
        controller.set_connect_timeout(Duration::from_millis(ms));
    }
    if let Some(spec) = args.get("reconnect-backoff") {
        let (base, cap) =
            spec.split_once(':').ok_or_else(|| format!("expected base_ms:cap_ms, got {spec:?}"))?;
        let base: u64 = base.parse().map_err(|_| format!("bad base in {spec:?}"))?;
        let cap: u64 = cap.parse().map_err(|_| format!("bad cap in {spec:?}"))?;
        controller.set_redial_policy(multipub_broker::session::ReconnectPolicy::new(
            Duration::from_millis(base),
            Duration::from_millis(cap),
        ));
    }
    if let Some(ms) = args.get("handover-grace") {
        let ms: u64 = ms.parse().map_err(|_| "bad --handover-grace (ms)".to_string())?;
        controller.set_handover_grace(Duration::from_millis(ms));
    }
    if let Some(ms) = args.get("handover-timeout") {
        let ms: u64 = ms.parse().map_err(|_| "bad --handover-timeout (ms)".to_string())?;
        controller.set_handover_timeout(Duration::from_millis(ms));
    }

    for spec in args.get_all("constraint") {
        let (topic, constraint) = spec
            .split_once('=')
            .ok_or_else(|| format!("expected topic=ratio:max_ms, got {spec:?}"))?;
        controller.set_constraint(topic, parse_constraint(constraint)?);
    }
    for spec in args.get_all("client") {
        let (client, row) = parse_pair::<u64>(spec)?;
        controller
            .register_client(client, parse_f64_list(row)?)
            .map_err(|e| format!("--client {spec:?}: {e}"))?;
    }
    if args.get_parsed_or("mitigate", false)? {
        controller.enable_mitigation(MitigationPolicy::default());
    }

    if let Some(metrics) = args.get("metrics-addr") {
        let addr: SocketAddr =
            metrics.parse().map_err(|_| "bad --metrics-addr address".to_string())?;
        let bound = multipub_cli::metrics::serve_metrics(addr)
            .await
            .map_err(|e| format!("--metrics-addr {metrics}: {e}"))?;
        println!("multipub-controller: metrics on http://{bound}/metrics");
    }

    let interval_secs: f64 = args.get_parsed_or("interval", 30.0)?;
    let rounds: u64 = args.get_parsed_or("rounds", 0u64)?;
    println!(
        "multipub-controller: {} brokers, optimizing every {interval_secs}s \
         ({} rounds)",
        brokers.len(),
        if rounds == 0 { "unbounded".to_string() } else { rounds.to_string() }
    );

    let mut completed = 0u64;
    loop {
        tokio::select! {
            _ = tokio::time::sleep(Duration::from_secs_f64(interval_secs)) => {}
            _ = tokio::signal::ctrl_c() => {
                println!("multipub-controller: shutting down");
                return Ok(());
            }
        }
        let decisions = controller.optimize_once().await;
        completed += 1;
        println!("round {completed}: {} topic(s)", decisions.len());
        for decision in &decisions {
            println!(
                "  {} -> {} | {:.1} ms | ${:.6}/interval | feasible {} | deployed {}{}{}",
                decision.topic,
                decision.configuration,
                decision.percentile_ms,
                decision.cost_dollars,
                decision.feasible,
                decision.deployed,
                if decision.forced_regions.is_empty() {
                    String::new()
                } else {
                    format!(" | forced {:?}", decision.forced_regions)
                },
                if decision.excluded_regions.is_empty() {
                    String::new()
                } else {
                    format!(" | excluded {:?}", decision.excluded_regions)
                },
            );
        }
        if rounds != 0 && completed >= rounds {
            return Ok(());
        }
    }
}

#[tokio::main]
async fn main() {
    if let Err(message) = run().await {
        eprintln!("error: {message}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}
