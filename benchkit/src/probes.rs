//! Per-layer probes: the harness times calls into each module's public
//! functions from outside, on the run's own inputs (the *largest* topic of
//! the latest snapshot unless stated). They run after the loop of a traced
//! run, inside the run's time cap, with fixed repetition counts so every
//! run does the same probe work.
//!
//! Layer = module. Which end-to-end metric each number should move, and on
//! which workload, is tabulated in `README.md`.

use crate::control::ControlLoop;
use crate::stats::median;
use crate::sys::count_allocations;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::cost::topic_cost_dollars;
use multipub_core::delivery::{materialized_percentile, weighted_percentile, WeightedSample};
use multipub_core::evaluate::{EvalScratch, TopicEvaluator};
use multipub_core::heuristic::{solve_heuristic, HeuristicOptions};
use multipub_core::ids::RegionId;
use multipub_core::mitigation::{mitigate, MitigationPolicy};
use multipub_core::optimizer::{solve_topics, Optimizer, SweepSolver};
use multipub_core::scaling::{bundle_clients, prune_regions, BundleOptions, PruneOptions};
use multipub_core::topics::ReconfigurationPlan;
use multipub_data::king::{generate_population, ClientLatencyModel};
use multipub_netsim::engine::Engine;
use multipub_netsim::jitter::{Jitter, JitterSource};
use multipub_netsim::queue::EventQueue;
use multipub_netsim::time::SimTime;
use multipub_obs::metrics as names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Metric name → value, in probe order.
pub type Values = Vec<(&'static str, f64)>;

/// Median seconds per call: at least 3 calls, and as many as fit in 40 ms
/// (up to 2 000), so a half-second solve runs 3 times and a microsecond
/// call a few thousand.
fn seconds_per_call<T>(mut work: impl FnMut() -> T) -> f64 {
    let budget = Duration::from_millis(40);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 2000) {
        let t = Instant::now();
        black_box(work());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Nanoseconds per iteration of a loop of `n` calls — for calls too short
/// to time one by one.
fn ns_per_iteration(n: u64, mut work: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        work(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `obs` operations (counter bumps, histogram records) the loop's layers
/// have made so far: one counter per simulator event and per lost copy, one
/// histogram record per delivery, two counters and one timer per solve.
pub fn obs_operations() -> u64 {
    let registry = multipub_obs::registry();
    registry.counter(names::NETSIM_EVENTS_TOTAL).get()
        + registry.counter(names::NETSIM_LOST_TOTAL).get()
        + registry.histogram(names::NETSIM_DELIVERY_MS).count()
        + 2 * registry.counter(names::CORE_SOLVES_TOTAL).get()
        + registry.histogram(names::CORE_SOLVE_MS).count()
}

/// Runs every probe against the latest interval of `control`.
///
/// # Errors
///
/// Returns the first construction error of a probed function; the
/// generated workloads never cause one.
pub fn run(control: &ControlLoop, seed: u64) -> Result<Values, multipub_core::Error> {
    let mut out = Values::new();
    core_probes(control, &mut out)?;
    netsim_probes(control, seed, &mut out);
    data_probes(control, seed, &mut out);
    obs_probes(&mut out);
    Ok(out)
}

fn core_probes(control: &ControlLoop, out: &mut Values) -> Result<(), multipub_core::Error> {
    let regions = control.inputs.scenario.regions();
    let inter = control.inputs.scenario.inter();
    let problems = &control.problems;
    let size = |t: usize| {
        let w = &problems[t].workload;
        w.publisher_count() * w.subscriber_count()
    };
    let largest = (0..problems.len()).max_by_key(|&t| size(t)).expect("workloads have topics");
    let workload = &problems[largest].workload;
    let constraint = problems[largest].constraint;
    let all = AssignmentVector::all(regions.len())?;

    // optimizer
    out.push((
        "optimizer.new_us",
        1e6 * seconds_per_call(|| Optimizer::new(regions, inter, workload)),
    ));
    let optimizer = Optimizer::new(regions, inter, workload)?;
    let (exact, allocations) = count_allocations(|| optimizer.solve(&constraint));
    let configs = exact.configurations_considered() as f64;
    out.push(("optimizer.solve_ms", 1e3 * seconds_per_call(|| optimizer.solve(&constraint))));
    out.push(("optimizer.configs_per_solve", configs));
    out.push(("evaluate.allocs_per_config", allocations.allocations as f64 / configs));
    out.push((
        "optimizer.one_region_us",
        1e6 * seconds_per_call(|| optimizer.solve_one_region(&constraint)),
    ));
    let subset = &problems[..problems.len().min(256)];
    let one_by_one = Instant::now();
    for problem in subset {
        black_box(Optimizer::new(regions, inter, &problem.workload)?.solve(&problem.constraint));
    }
    let one_by_one = one_by_one.elapsed().as_secs_f64();
    let together = Instant::now();
    black_box(solve_topics(regions, inter, subset)?);
    out.push(("optimizer.solve_topics_speedup", one_by_one / together.elapsed().as_secs_f64()));
    let ratio = constraint.ratio_percent();
    out.push((
        "optimizer.sweep_build_ms",
        1e3 * seconds_per_call(|| SweepSolver::new(regions, inter, workload, ratio)),
    ));
    let sweep = SweepSolver::new(regions, inter, workload, ratio)?;
    let bounds = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0];
    out.push((
        "optimizer.sweep_point_us",
        1e6 * seconds_per_call(|| bounds.map(|b| sweep.solve_at(b))) / bounds.len() as f64,
    ));

    // evaluate
    out.push((
        "evaluate.build_us",
        1e6 * seconds_per_call(|| TopicEvaluator::new(regions, inter, workload)),
    ));
    let evaluator = TopicEvaluator::new(regions, inter, workload)?;
    let mut scratch = EvalScratch::default();
    for (name, mode) in
        [("evaluate.direct_us", DeliveryMode::Direct), ("evaluate.routed_us", DeliveryMode::Routed)]
    {
        let configuration = Configuration::new(all, mode);
        let per_call =
            seconds_per_call(|| evaluator.evaluate_into(configuration, &constraint, &mut scratch));
        out.push((name, 1e6 * per_call));
    }

    // delivery: seeded-by-index samples, copied afresh because the
    // percentile sorts in place.
    let samples = |n: usize| -> Vec<WeightedSample> {
        (0..n as u64)
            .map(|i| WeightedSample {
                time_ms: (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / 64.0,
                weight: 10,
            })
            .collect()
    };
    let (small, large) = (samples(10_000), samples(500_000));
    let mut buffer = Vec::new();
    let mut percentile_of = |source: &[WeightedSample]| {
        let rank = source.len() as u64 * 10 * 3 / 4;
        seconds_per_call(|| {
            buffer.clear();
            buffer.extend_from_slice(source);
            weighted_percentile(&mut buffer, rank)
        })
    };
    out.push(("delivery.percentile_10k_us", 1e6 * percentile_of(&small)));
    out.push(("delivery.percentile_500k_ms", 1e3 * percentile_of(&large)));
    out.push((
        "delivery.materialized_10k_us",
        1e6 * seconds_per_call(|| materialized_percentile(&small, 75_000)),
    ));

    // cost, topics
    let installed = control.decisions[largest].install;
    out.push((
        "cost.topic_cost_us",
        1e6 * seconds_per_call(|| topic_cost_dollars(regions, workload, installed)),
    ));
    let bootstrap = Configuration::new(all, DeliveryMode::Routed);
    out.push((
        "topics.plan_us",
        1e6 * seconds_per_call(|| ReconfigurationPlan::compute(workload, bootstrap, installed)),
    ));

    // mitigation: the largest topic the loop mitigates, else the largest.
    let mitigated = (0..problems.len())
        .filter(|&t| !control.decisions[t].solution.is_feasible())
        .max_by_key(|&t| size(t))
        .unwrap_or(largest);
    let evaluator = TopicEvaluator::new(regions, inter, &problems[mitigated].workload)?;
    let start = control.decisions[mitigated].solution.configuration();
    let policy = MitigationPolicy::default();
    out.push((
        "mitigation.round_us",
        1e6 * seconds_per_call(|| {
            mitigate(&evaluator, start, &problems[mitigated].constraint, &policy)
        }),
    ));

    // scaling, heuristic: off the loop's path today.
    let prune = PruneOptions::default();
    out.push((
        "scaling.prune_us",
        1e6 * seconds_per_call(|| prune_regions(regions, workload, &prune)),
    ));
    let bundle = BundleOptions::default();
    out.push(("scaling.bundle_ms", 1e3 * seconds_per_call(|| bundle_clients(workload, &bundle))));
    let bundled = bundle_clients(workload, &bundle);
    let kept = prune_regions(regions, workload, &prune)?;
    let scaled = Optimizer::new(regions, inter, &bundled)?.with_allowed_regions(kept);
    out.push(("scaling.bundled_solve_ms", 1e3 * seconds_per_call(|| scaled.solve(&constraint))));
    let beam = HeuristicOptions::default();
    let heuristic = solve_heuristic(regions, inter, workload, &constraint, &beam)?;
    out.push((
        "heuristic.solve_ms",
        1e3 * seconds_per_call(|| solve_heuristic(regions, inter, workload, &constraint, &beam)),
    ));
    let gap = match (exact.is_feasible(), heuristic.is_feasible()) {
        (true, true) => {
            let exact_cost = exact.evaluation().cost_dollars();
            (heuristic.evaluation().cost_dollars() - exact_cost) / exact_cost
        }
        // A feasible answer exists and beam search missed it.
        (true, false) => 1.0,
        (false, _) => 0.0,
    };
    out.push(("heuristic.cost_gap_share", gap));
    Ok(())
}

fn netsim_probes(control: &ControlLoop, seed: u64, out: &mut Values) {
    let inputs = &control.inputs;
    out.push(("engine.clone_scenario_ms", 1e3 * seconds_per_call(|| inputs.scenario.clone())));

    let scenario = inputs.scenario.clone();
    let events = multipub_obs::registry().counter(names::NETSIM_EVENTS_TOTAL);
    let events_before = events.get();
    let started = Instant::now();
    let (report, allocations) =
        count_allocations(|| Engine::new(scenario, inputs.jitter, seed).run(inputs.duration_ms));
    let run_s = started.elapsed().as_secs_f64();
    let events = (events.get() - events_before) as f64;
    let deliveries = report.delivery_count().max(1) as f64;
    out.push(("engine.run_ms", 1e3 * run_s));
    out.push(("engine.events_per_s", events / run_s));
    out.push(("engine.events_per_delivery", events / deliveries));
    out.push((
        "engine.allocs_per_publish",
        allocations.allocations as f64 / report.published_count().max(1) as f64,
    ));
    out.push(("report.bytes_per_delivery", allocations.retained_bytes as f64 / deliveries));
    out.push(("report.percentile_ms", 1e3 * seconds_per_call(|| report.percentile_ms(95.0))));
    out.push((
        "report.topic_percentile_ms",
        1e3 * seconds_per_call(|| report.topic_percentile_ms(0, 95.0)),
    ));
    drop(report);

    // queue: one pop and one schedule against a heap held at `pending`.
    let mut rng = StdRng::seed_from_u64(seed);
    for (name, pending) in
        [("queue.schedule_pop_1k_ns", 1_000u64), ("queue.schedule_pop_1m_ns", 1_000_000)]
    {
        let mut queue = EventQueue::new();
        for event in 0..pending {
            queue.schedule(SimTime::from_ms(rng.random_range(0.0..1000.0)), event);
        }
        let per_pair = ns_per_iteration(200_000, |event| {
            let (at, _) = queue.pop().expect("the heap is held at `pending`");
            queue.schedule(at + rng.random_range(0.0..1000.0), event);
        });
        black_box(queue.len());
        out.push((name, per_pair));
    }

    let mut jitter = JitterSource::new(Jitter::uniform(5.0), seed);
    let mut sum = 0.0;
    out.push(("jitter.sample_ns", ns_per_iteration(2_000_000, |_| sum += jitter.sample())));
    black_box(sum);
}

fn data_probes(control: &ControlLoop, seed: u64, out: &mut Values) {
    let inter = control.inputs.scenario.inter();
    let model = ClientLatencyModel::new(inter);
    let mut rng = StdRng::seed_from_u64(seed);
    out.push(("king.sample_us", 1e6 * seconds_per_call(|| model.sample(RegionId(0), &mut rng))));
    let per_region = vec![100; inter.len()];
    out.push((
        "king.population_ms",
        1e3 * seconds_per_call(|| generate_population(&model, &per_region, &mut rng)),
    ));
}

fn obs_probes(out: &mut Values) {
    const COUNTER: &str = "multipub_benchkit_probe_total";
    const HISTOGRAM: &str = "multipub_benchkit_probe_ms";
    out.push((
        "obs.counter_inc_ns",
        ns_per_iteration(5_000_000, |_| multipub_obs::counter!(COUNTER).inc()),
    ));
    out.push((
        "obs.histogram_record_ns",
        ns_per_iteration(5_000_000, |i| {
            multipub_obs::histogram!(HISTOGRAM).record((i % 512) as f64 * 0.25)
        }),
    ));
    out.push((
        "obs.timer_ns",
        ns_per_iteration(1_000_000, |_| drop(black_box(multipub_obs::timer!(HISTOGRAM)))),
    ));
    out.push(("obs.snapshot_us", 1e6 * seconds_per_call(|| multipub_obs::registry().snapshot())));
    // An uncontended rank-carrying lock, as `obs`'s registry takes on lookup.
    let mutex = multipub_sync::Mutex::new(900, "benchkit.probe", 0u64);
    out.push(("sync.mutex_lock_ns", ns_per_iteration(5_000_000, |i| *mutex.lock() += i)));
    black_box(*mutex.lock());
}
