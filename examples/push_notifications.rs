//! A push-notification service on MultiPub.
//!
//! Push notifications are fan-out-heavy: few publishers (the backend),
//! enormous subscriber populations, modest latency bounds. This example
//! shows how proportional client bundling (paper §V.F) keeps the solve
//! tractable at 20 000 subscribers, and how the optimizer's choice moves
//! as the notification deadline relaxes.
//!
//! Run with `cargo run --release --example push_notifications`.

use multipub_core::constraint::DeliveryConstraint;
use multipub_core::optimizer::Optimizer;
use multipub_core::scaling::{bundle_clients, prune_regions, BundleOptions, PruneOptions};
use multipub_data::ec2;
use multipub_sim::cost_per_day;
use multipub_sim::population::{Population, PopulationSpec};
use multipub_sim::table::{dollars, millis, Table};
use std::time::Instant;

const INTERVAL_SECS: f64 = 60.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let regions = ec2::region_set();
    let inter = ec2::inter_region_latencies();

    // 3 backend publishers (us-east-1), 2 000 subscribers near each of the
    // 10 regions, one 4 KiB notification per publisher per second.
    let mut spec = PopulationSpec::uniform(regions.len(), 0, 2000, 1.0, 4096);
    spec.pubs_per_region[ec2::regions::US_EAST_1.index()] = 3;
    let population = Population::generate(&spec, &inter, 11);
    let workload = population.workload(INTERVAL_SECS);
    println!(
        "Workload: {} publishers, {} subscribers, {} notifications per interval",
        workload.publisher_count(),
        workload.subscriber_count(),
        workload.total_messages()
    );

    // Bundle near-identical subscribers into weighted virtual clients.
    let bundled = bundle_clients(&workload, &BundleOptions { epsilon_ms: 8.0 });
    println!(
        "After bundling (ε = 8 ms): {} virtual subscribers for {} real ones",
        bundled.subscriber_count(),
        bundled.subscriber_weight()
    );

    // Prune regions that are home to almost nobody.
    let allowed = prune_regions(&regions, &bundled, &PruneOptions::default())?;
    println!("Pruned search space: {} of {} regions\n", allowed.count(), regions.len());

    let optimizer = Optimizer::new(&regions, &inter, &bundled)?.with_allowed_regions(allowed);

    let mut table =
        Table::new(["deadline (ms)", "achieved (ms)", "$/day", "#regions", "mode", "solve (ms)"]);
    for deadline in [120.0, 160.0, 200.0, 300.0, 500.0] {
        let constraint = DeliveryConstraint::new(95.0, deadline)?;
        let start = Instant::now();
        let solution = optimizer.solve(&constraint);
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        table.push_row([
            millis(deadline),
            millis(solution.evaluation().percentile_ms()),
            dollars(cost_per_day(solution.evaluation().cost_dollars(), INTERVAL_SECS)),
            solution.configuration().region_count().to_string(),
            solution.configuration().mode().to_string(),
            format!("{elapsed:.1}"),
        ]);
    }
    println!("95% of notifications within the deadline:");
    println!("{}", table.to_markdown());

    // The money slide: bundling + pruning vs the exact solve.
    let constraint = DeliveryConstraint::new(95.0, 200.0)?;
    let start = Instant::now();
    let exact = Optimizer::new(&regions, &inter, &workload)?.solve(&constraint);
    let exact_ms = start.elapsed().as_secs_f64() * 1000.0;
    let start = Instant::now();
    let approx = optimizer.solve(&constraint);
    let approx_ms = start.elapsed().as_secs_f64() * 1000.0;
    println!(
        "Exact solve:   {:.1} ms, ${:.2}/day",
        exact_ms,
        cost_per_day(exact.evaluation().cost_dollars(), INTERVAL_SECS)
    );
    println!(
        "Heuristic:     {:.1} ms, ${:.2}/day",
        approx_ms,
        cost_per_day(approx.evaluation().cost_dollars(), INTERVAL_SECS)
    );
    println!(
        "Speedup {:.1}x with {:.2}% cost gap",
        exact_ms / approx_ms.max(1e-6),
        100.0
            * (cost_per_day(approx.evaluation().cost_dollars(), INTERVAL_SECS)
                / cost_per_day(exact.evaluation().cost_dollars(), INTERVAL_SECS)
                    .max(f64::MIN_POSITIVE)
                - 1.0)
    );
    Ok(())
}
