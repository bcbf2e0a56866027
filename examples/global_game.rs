//! A global multiplayer game built on MultiPub.
//!
//! Games are the paper's motivating workload: sub-150 ms bounds for
//! action channels, looser bounds for chat. This example models a game
//! with three topics — a fast game-state channel, a regional-match
//! channel and a global chat — optimizes them independently (paper
//! §IV.C), then *measures* the chosen configurations end-to-end with the
//! discrete-event simulator, including a straggler client that triggers
//! the §IV.D mitigation path.
//!
//! Run with `cargo run --example global_game`.

use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::{ClientId, TopicId};
use multipub_core::mitigation::{find_stragglers, mitigate, MitigationPolicy};
use multipub_core::optimizer::{solve_topics, Optimizer, TopicProblem};
use multipub_core::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};
use multipub_data::ec2;
use multipub_data::king::ClientLatencyModel;
use multipub_netsim::engine::Engine;
use multipub_netsim::jitter::Jitter;
use multipub_netsim::scenario::Scenario;
use multipub_sim::cost_per_day;
use multipub_sim::population::{Population, PopulationSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const INTERVAL_SECS: f64 = 60.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();

    // Three topics with different populations and bounds.
    let game_state = PopulationSpec::uniform(regions.len(), 2, 8, 20.0, 256);
    let regional_match =
        PopulationSpec::localized(regions.len(), ec2::regions::AP_NORTHEAST_1, 10, 10, 10.0, 512);
    let global_chat = PopulationSpec::uniform(regions.len(), 1, 20, 0.5, 2048);

    let populations = [
        ("game-state", Population::generate(&game_state, &inter, 1), 95.0, 150.0),
        ("match/asia", Population::generate(&regional_match, &inter, 2), 95.0, 60.0),
        ("chat/global", Population::generate(&global_chat, &inter, 3), 75.0, 400.0),
    ];

    let problems: Vec<TopicProblem> = populations
        .iter()
        .map(|(_, population, ratio, max_t)| TopicProblem {
            workload: population.workload(INTERVAL_SECS),
            constraint: DeliveryConstraint::new(*ratio, *max_t).expect("valid constraint"),
        })
        .collect();

    // Topics are independent: solve them all in parallel.
    let solutions = solve_topics(&regions, &inter, &problems)?;

    println!("Per-topic optimization:");
    for ((name, _, ratio, max_t), solution) in populations.iter().zip(&solutions) {
        println!(
            "  {name:<12} <{ratio}%, {max_t} ms> -> {} | {:.1} ms | ${:.2}/day | feasible: {}",
            solution.configuration(),
            solution.evaluation().percentile_ms(),
            cost_per_day(solution.evaluation().cost_dollars(), INTERVAL_SECS),
            solution.is_feasible()
        );
    }

    // Validate the decisions end-to-end in the discrete-event simulator.
    let topics: Vec<_> = populations
        .iter()
        .zip(&solutions)
        .enumerate()
        .map(|(i, ((name, population, _, _), solution))| {
            population.scenario_topic(TopicId::new(*name), solution.configuration(), 100 + i as u64)
        })
        .collect();
    let scenario = Scenario::new(regions.clone(), inter.clone(), topics);
    let report = Engine::new(scenario, Jitter::uniform(3.0), 7).run(INTERVAL_SECS * 1000.0);
    println!(
        "\nDiscrete-event validation ({} deliveries, ±3 ms jitter per hop):",
        report.delivery_count()
    );
    for (i, (name, _, ratio, _)) in populations.iter().enumerate() {
        println!(
            "  {name:<12} measured {ratio}th percentile: {:.1} ms",
            report.topic_percentile_ms(i, *ratio)
        );
    }
    println!("  measured cost: ${:.2}/day", report.cost_dollars_per(&regions, 86_400_000.0));

    // A player on a degraded connection joins the Asia match topic: the
    // mitigation scan detects the straggler and force-adds a region.
    let model = ClientLatencyModel::new(&inter);
    let mut rng = StdRng::seed_from_u64(9);
    let match_asia = &problems[1].workload;
    let publishers = match_asia.publishers().iter().map(|publisher| {
        let batch = MessageBatch::uniform(publisher.batch().count(), 512);
        Publisher::new(publisher.id(), publisher.latencies(), batch)
    });
    // The straggler: 8x the usual last-mile latency, homed at Seoul.
    let straggler_row = model.sample_straggler(ec2::regions::AP_NORTHEAST_2, 8.0, &mut rng);
    let mut subscribers = match_asia.subscribers().to_vec();
    subscribers.push(Subscriber::new(ClientId(900_000), straggler_row));
    let degraded = TopicWorkload::new(regions.len(), publishers.collect(), subscribers)?;

    let optimizer = Optimizer::new(&regions, &inter, &degraded)?;
    let constraint = problems[1].constraint;
    let base = optimizer.solve(&constraint);
    let evaluator = optimizer.evaluator();
    let stragglers = find_stragglers(evaluator, base.configuration(), &constraint);
    println!("\nStraggler scan on match/asia: {} straggler(s) detected", stragglers.len());
    let outcome =
        mitigate(evaluator, base.configuration(), &constraint, &MitigationPolicy::default());
    if outcome.added.is_empty() {
        println!("  no region addition could help (bound {constraint})");
    } else {
        for region in &outcome.added {
            println!(
                "  force-added {} ({}) for the straggler",
                regions.region(*region).name(),
                regions.region(*region).location()
            );
        }
    }
    println!("  configuration after mitigation: {}", outcome.configuration);
    Ok(())
}
