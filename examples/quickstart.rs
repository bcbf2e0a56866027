//! Quickstart: optimize a single topic over the 10 EC2 regions.
//!
//! Run with `cargo run --example quickstart`.

use multipub_core::prelude::*;
use multipub_data::ec2;
use multipub_sim::cost_per_day;
use multipub_sim::population::{Population, PopulationSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The deployment: Amazon EC2's 10 regions (paper Table I) and their
    // measured one-way inter-region latencies.
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();

    println!("Deployment: {} regions", regions.len());
    for (id, region) in regions.iter() {
        println!(
            "  {id}  {:<16} {:<14} ${:.2}/GB inter, ${:.3}/GB internet",
            region.name(),
            region.location(),
            region.inter_region_cost_per_gb(),
            region.internet_cost_per_gb()
        );
    }

    // A topic with 5 publishers and 5 subscribers near every region,
    // each publisher sending 1 KiB once per second.
    let spec = PopulationSpec::uniform(regions.len(), 5, 5, 1.0, 1024);
    let population = Population::generate(&spec, &inter, 42);
    let interval_secs = 60.0;
    let workload = population.workload(interval_secs);

    println!(
        "\nTopic: {} publishers, {} subscribers, {} messages per {interval_secs}s interval",
        workload.publisher_count(),
        workload.subscriber_count(),
        workload.total_messages()
    );

    // Require 75 % of deliveries within 150 ms and let MultiPub pick the
    // cheapest configuration that satisfies it.
    let constraint = DeliveryConstraint::new(75.0, 150.0)?;
    let optimizer = Optimizer::new(&regions, &inter, &workload)?;
    let solution = optimizer.solve(&constraint);

    println!("\nConstraint: {constraint}");
    println!("MultiPub chose: {}", solution.configuration());
    println!("  regions:");
    for region in solution.configuration().assignment().iter() {
        println!("    {} ({})", regions.region(region).name(), regions.region(region).location());
    }
    println!("  achieved 75th percentile: {:.1} ms", solution.evaluation().percentile_ms());
    println!(
        "  cost: ${:.2}/day",
        cost_per_day(solution.evaluation().cost_dollars(), interval_secs)
    );
    println!("  feasible: {}", solution.is_feasible());
    println!("  configurations considered: {}", solution.configurations_considered());

    // Compare against the two static deployments from the paper.
    let all = optimizer.solve_all_regions(DeliveryMode::Routed, &constraint);
    let one = optimizer.solve_one_region(&constraint);
    println!("\nBaselines:");
    println!(
        "  All Regions (routed): {:.1} ms, ${:.2}/day",
        all.evaluation().percentile_ms(),
        cost_per_day(all.evaluation().cost_dollars(), interval_secs)
    );
    println!(
        "  One Region:           {:.1} ms, ${:.2}/day",
        one.evaluation().percentile_ms(),
        cost_per_day(one.evaluation().cost_dollars(), interval_secs)
    );
    let saving = 1.0
        - solution.evaluation().cost_dollars()
            / all.evaluation().cost_dollars().max(f64::MIN_POSITIVE);
    println!("\nMultiPub saves {:.0}% vs All Regions while meeting {constraint}", saving * 100.0);
    Ok(())
}
