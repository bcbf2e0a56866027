//! One benchmark run: set-up (timed) → warm-up → measured loop → audit →
//! (traced run only) per-layer probes and the span file.

use crate::audit::{audit, sampled_topics, Audit};
use crate::control::{Budget, ControlLoop, IntervalSample, LoopOutcome, STAGES};
use crate::probes::{self, Values};
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::workloads::{build, Inputs, Workload};
use multipub_netsim::engine::Engine;
use std::path::PathBuf;
use std::time::Instant;

/// The per-layer metric of each loop stage, indexed like [`STAGES`].
const STAGE_METRICS: [&str; STAGES.len()] = [
    "loop.simulate_ms",
    "loop.snapshot_ms",
    "loop.solve_ms",
    "loop.mitigate_ms",
    "loop.plan_ms",
    "loop.apply_ms",
];

/// Share of a traced run's seconds the loop gets; the probes use the rest.
const TRACED_LOOP_SHARE: f64 = 0.6;

/// The command line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Every metric of the run's trace mode, by declared name.
    pub values: Values,
    /// Intervals run plus audit checks made.
    pub attempted: u64,
    /// Intervals that errored plus audit checks that failed.
    pub failed: u64,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// Generates the inputs and builds the first engine over them, as a
/// deployment would before its first interval.
fn set_up(workload: Workload, seed: u64) -> (Inputs, f64) {
    let started = Instant::now();
    let inputs = build(workload, seed);
    let engine = Engine::new(inputs.scenario.clone(), inputs.jitter, inputs.engine_seed);
    let seconds = started.elapsed().as_secs_f64();
    drop(engine);
    (inputs, seconds)
}

fn series(samples: &[IntervalSample], of: impl Fn(&IntervalSample) -> f64) -> Vec<f64> {
    samples.iter().map(of).collect()
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns a message when the host cannot be measured (`/proc` unreadable)
/// or the span file cannot be written.
pub fn run(options: &Options) -> Result<RunOutput, String> {
    let Options { workload, seed, seconds, trace, .. } = *options;
    let (inputs, first) = set_up(workload, seed);
    let mut setups = vec![first];
    let fingerprint = inputs.fingerprint();
    let n_topics = inputs.scenario.topics().len();

    let mut control = ControlLoop::new(inputs);
    let budget = Budget::Seconds(if trace { seconds * TRACED_LOOP_SHARE } else { seconds });
    let obs_before = probes::obs_operations();
    // `setup_s` is the median of one set-up before the loop and one more
    // after every measured interval: like the interval timings it then spans
    // the whole run, and one of this host's slow phases cannot cover it all.
    // The peak is read before the first of those repetitions (and before the
    // audit and the probes), so it is the loop's memory, not the harness's.
    let mut peak_rss_mb = None;
    let LoopOutcome { samples, tracer, attempted, failed } = control.run(budget, trace, || {
        peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
        setups.push(set_up(workload, seed).1);
    });
    let obs_operations = probes::obs_operations() - obs_before;
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(sys::peak_rss_mb)?;

    let Audit { attempted: checks, failed: failed_checks, failures, lost_share, duplicated_share } =
        if failed == 0 {
            audit(&control, &sampled_topics(n_topics, seed))
        } else {
            Audit::default()
        };

    // The per-interval series behind the end-to-end timings, printed with
    // their quartiles whatever the trace mode.
    let timings = [
        ("interval_ms", series(&samples, IntervalSample::interval_ms)),
        ("decide_ms", series(&samples, IntervalSample::decide_ms)),
        ("deliveries_per_s", series(&samples, IntervalSample::deliveries_per_s)),
        ("cpu_ms_per_interval", series(&samples, |s| s.cpu_ns as f64 / 1e6)),
    ];
    let interval_ms = &timings[0].1;
    let per_interval = |of: fn(&IntervalSample) -> usize| mean(&series(&samples, |s| of(s) as f64));
    let mut values: Values = if trace {
        let median_of_side = |traced: bool| {
            let side: Vec<f64> =
                samples.iter().filter(|s| s.traced == traced).map(|s| s.interval_ms()).collect();
            median(&side)
        };
        let mut values: Values = STAGE_METRICS
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, median(&series(&samples, |s| s.stage_ms(i)))))
            .collect();
        values.extend([
            ("loop.interval_p50_ms", median(interval_ms)),
            ("loop.intervals", samples.len() as f64),
            ("mitigation.stragglers_per_interval", per_interval(|s| s.stragglers)),
            ("mitigation.regions_added", per_interval(|s| s.regions_added)),
            ("topics.notified_per_interval", per_interval(|s| s.notified)),
            ("topics.changed_share", per_interval(|s| s.changed_topics) / n_topics as f64),
            ("obs.ops_per_interval", obs_operations as f64 / attempted as f64),
            ("faults.lost_share", lost_share),
            ("faults.duplicated_share", duplicated_share),
            ("trace.overhead_share", median_of_side(true) / median_of_side(false) - 1.0),
            ("trace.unexplained_share", tracer.unexplained_share()),
            ("trace.spans", tracer.spans().len() as f64),
        ]);
        values
    } else {
        let mut values: Values =
            timings.iter().map(|(name, samples)| (*name, median(samples))).collect();
        values.extend([("peak_rss_mb", peak_rss_mb), ("setup_s", median(&setups))]);
        values
    };

    let mut notes = vec![format!(
        "# benchkit workload={} seed={seed} trace={} intervals={} (after {} warm-up) estimator=median nproc={} \
         transport=in-process, nothing crosses a socket",
        workload.name(),
        trace as u8,
        samples.len(),
        crate::control::WARMUP_INTERVALS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )];
    notes.push(format!(
        "# inputs={fingerprint:016x} decisions={:016x} set-ups={} peak_rss_mb={peak_rss_mb:.1}",
        control.decision_digest(),
        setups.len(),
    ));
    for (name, samples) in &timings {
        let [p25, p50, p75] = [0.25, 0.5, 0.75].map(|q| quantile(samples, q));
        notes.push(format!("# {name} n={} p25={p25:.4} p50={p50:.4} p75={p75:.4}", samples.len()));
    }
    notes.push(format!(
        "# audit: {checks} checks, {failed_checks} failed; loop: {attempted} intervals, {failed} failed"
    ));
    notes.extend(failures.iter().map(|f| format!("# AUDIT FAILURE: {f}")));

    if trace && failed == 0 {
        values.extend(probes::run(&control, seed).map_err(|e| format!("probe failed: {e}"))?);
        let path = options.out_dir.join(format!("spans-{}-{seed}.json", workload.name()));
        tracer.write_chrome_json(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("# spans: {}", path.display()));
    }
    Ok(RunOutput { values, attempted: attempted + checks, failed: failed + failed_checks, notes })
}
