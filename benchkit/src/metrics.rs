//! The metrics this benchmark declares in `BENCHMARK.json`, and the result
//! line the driver reads. `tests/contract.rs` checks both against the file.

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("interval_ms", "ms"),
    ("decide_ms", "ms"),
    ("deliveries_per_s", "1/s"),
    ("cpu_ms_per_interval", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("loop.simulate_ms", "ms"),
    ("loop.snapshot_ms", "ms"),
    ("loop.solve_ms", "ms"),
    ("loop.mitigate_ms", "ms"),
    ("loop.plan_ms", "ms"),
    ("loop.apply_ms", "ms"),
    ("loop.interval_p50_ms", "ms"),
    ("loop.intervals", "count"),
    ("optimizer.solve_ms", "ms"),
    ("optimizer.configs_per_solve", "count"),
    ("optimizer.new_us", "us"),
    ("optimizer.solve_topics_speedup", "x"),
    ("optimizer.sweep_build_ms", "ms"),
    ("optimizer.sweep_point_us", "us"),
    ("optimizer.one_region_us", "us"),
    ("evaluate.direct_us", "us"),
    ("evaluate.routed_us", "us"),
    ("evaluate.build_us", "us"),
    ("evaluate.allocs_per_config", "count"),
    ("delivery.percentile_10k_us", "us"),
    ("delivery.percentile_500k_ms", "ms"),
    ("delivery.materialized_10k_us", "us"),
    ("cost.topic_cost_us", "us"),
    ("mitigation.round_us", "us"),
    ("mitigation.stragglers_per_interval", "count"),
    ("mitigation.regions_added", "count"),
    ("topics.plan_us", "us"),
    ("topics.notified_per_interval", "count"),
    ("topics.changed_share", "share"),
    ("scaling.prune_us", "us"),
    ("scaling.bundle_ms", "ms"),
    ("scaling.bundled_solve_ms", "ms"),
    ("heuristic.solve_ms", "ms"),
    ("heuristic.cost_gap_share", "share"),
    ("engine.run_ms", "ms"),
    ("engine.events_per_s", "1/s"),
    ("engine.events_per_delivery", "count"),
    ("engine.clone_scenario_ms", "ms"),
    ("engine.allocs_per_publish", "count"),
    ("queue.schedule_pop_1k_ns", "ns"),
    ("queue.schedule_pop_1m_ns", "ns"),
    ("report.percentile_ms", "ms"),
    ("report.topic_percentile_ms", "ms"),
    ("report.bytes_per_delivery", "B"),
    ("faults.lost_share", "share"),
    ("faults.duplicated_share", "share"),
    ("jitter.sample_ns", "ns"),
    ("king.sample_us", "us"),
    ("king.population_ms", "ms"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.timer_ns", "ns"),
    ("obs.snapshot_us", "us"),
    ("obs.ops_per_interval", "count"),
    ("sync.mutex_lock_ns", "ns"),
    ("trace.overhead_share", "share"),
    ("trace.unexplained_share", "share"),
    ("trace.spans", "count"),
];

/// Renders the one-line result object: exactly `declared`'s metrics, each
/// looked up in `values`.
///
/// # Errors
///
/// Names the first declared metric that is missing or not finite — a bug
/// in the harness, reported instead of printing a wrong line.
pub fn result_line(
    declared: &[(&str, &str)],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}
