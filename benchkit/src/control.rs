//! The paper's control loop (§III.A5), driven through the public functions
//! of `multipub-netsim` and `multipub-core` only. One iteration is one
//! observation interval:
//!
//! **simulate** (`Engine::run` under the installed configurations) →
//! **snapshot** (`TopicScenario::workload`) → **solve** (`solve_topics`) →
//! **mitigate** (`mitigation::mitigate`, infeasible topics only) → **plan**
//! (`ReconfigurationPlan::compute`) → **apply** (`set_configuration`).
//!
//! Closed loop, one caller, no think time: the main thread runs intervals
//! back to back, and the only other threads are the scoped ones
//! `solve_topics` spawns itself. Nothing crosses a socket.

use crate::stats::Fnv;
use crate::sys::process_cpu_ns;
use crate::trace::{Tracer, INTERVAL};
use crate::workloads::Inputs;
use multipub_core::assignment::{Configuration, DeliveryMode};
use multipub_core::evaluate::TopicEvaluator;
use multipub_core::mitigation::{mitigate, MitigationPolicy};
use multipub_core::optimizer::{solve_topics, Solution, TopicProblem};
use multipub_core::topics::ReconfigurationPlan;
use multipub_netsim::engine::Engine;
use multipub_netsim::metrics::SimReport;
use std::time::Instant;

/// Stage names, in execution order; also the span names of a traced run.
pub const STAGES: [&str; 6] = ["simulate", "snapshot", "solve", "mitigate", "plan", "apply"];
const SIMULATE: usize = 0;
const SNAPSHOT: usize = 1;
const SOLVE: usize = 2;
const MITIGATE: usize = 3;
const PLAN: usize = 4;
const APPLY: usize = 5;

/// Intervals run and thrown away before measuring: `obs` handles register
/// on first use and the allocator's free lists settle.
pub const WARMUP_INTERVALS: usize = 2;

/// Every run measures at least this many intervals, whatever its time
/// budget, so the decision digest always covers the same
/// `WARMUP_INTERVALS + MIN_MEASURED_INTERVALS` iterations.
pub const MIN_MEASURED_INTERVALS: usize = 6;

/// What the controller decided for one topic in one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The optimizer's answer.
    pub solution: Solution,
    /// The configuration to install: the optimizer's, plus any regions the
    /// mitigation round force-added (infeasible topics only).
    pub install: Configuration,
    /// Regions the mitigation round added.
    pub regions_added: usize,
    /// Stragglers the mitigation round acted on or gave up on.
    pub stragglers: usize,
}

/// Timings and counts of one loop iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// Wall time per stage, indexed like [`STAGES`].
    pub stage_ns: [u64; 6],
    /// Wall time of the whole iteration.
    pub interval_ns: u64,
    /// Process CPU time (all threads) spent in the iteration.
    pub cpu_ns: u64,
    /// Deliveries the simulator completed.
    pub deliveries: u64,
    /// Whether spans were recorded for this iteration.
    pub traced: bool,
    /// Regions added by mitigation, summed over topics.
    pub regions_added: usize,
    /// Stragglers handled by mitigation, summed over topics.
    pub stragglers: usize,
    /// Clients the plans would notify, summed over topics.
    pub notified: usize,
    /// Topics whose plan was not a no-op.
    pub changed_topics: usize,
}

impl IntervalSample {
    /// Milliseconds spent in stage `index` of [`STAGES`].
    pub fn stage_ms(&self, index: usize) -> f64 {
        self.stage_ns[index] as f64 / 1e6
    }

    /// Snapshot handed over → every topic decided and planned:
    /// solve + mitigate + plan.
    pub fn decide_ms(&self) -> f64 {
        (SOLVE..=PLAN).map(|i| self.stage_ms(i)).sum()
    }

    /// The whole iteration, in milliseconds.
    pub fn interval_ms(&self) -> f64 {
        self.interval_ns as f64 / 1e6
    }

    /// Simulated deliveries per wall second of the simulate stage.
    pub fn deliveries_per_s(&self) -> f64 {
        self.deliveries as f64 / (self.stage_ns[SIMULATE] as f64 / 1e9)
    }
}

/// How long [`ControlLoop::run`] measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many wall seconds of measured intervals have passed.
    Seconds(f64),
    /// Exactly this many measured intervals.
    Intervals(usize),
}

/// The loop's state: the inputs, whose scenario carries the installed
/// configurations, and what the latest interval produced (kept for the
/// audit; each is dropped inside the stage that rebuilds it, so freeing
/// last interval's data is charged to the layer that allocated it).
#[derive(Debug)]
pub struct ControlLoop {
    /// The generated inputs; `inputs.scenario` holds what is installed.
    pub inputs: Inputs,
    /// The latest interval's simulation report.
    pub report: Option<SimReport>,
    /// The latest interval's per-topic snapshots and constraints.
    pub problems: Vec<TopicProblem>,
    /// The configurations the latest interval's simulation *ended* under,
    /// which are the ones its plans start from.
    pub before: Vec<Configuration>,
    /// The latest interval's decisions.
    pub decisions: Vec<Decision>,
    /// The latest interval's reconfiguration plans.
    pub plans: Vec<ReconfigurationPlan>,
    /// Decisions waiting to be deployed mid-interval (`reconfigure_at_ms`).
    pending: Option<Vec<Configuration>>,
    policy: MitigationPolicy,
    intervals_run: u64,
    digest: Fnv,
}

/// What [`ControlLoop::run`] measured.
#[derive(Debug)]
pub struct LoopOutcome {
    /// One sample per measured interval, in order.
    pub samples: Vec<IntervalSample>,
    /// Spans of the traced intervals (empty for an untraced run).
    pub tracer: Tracer,
    /// Intervals attempted, warm-up included.
    pub attempted: u64,
    /// Intervals that returned an error (the loop stops at the first).
    pub failed: u64,
}

impl ControlLoop {
    /// A loop over freshly generated inputs; nothing has run yet.
    pub fn new(inputs: Inputs) -> Self {
        ControlLoop {
            inputs,
            report: None,
            problems: Vec::new(),
            before: Vec::new(),
            decisions: Vec::new(),
            plans: Vec::new(),
            pending: None,
            policy: MitigationPolicy::default(),
            intervals_run: 0,
            digest: Fnv::default(),
        }
    }

    /// Digest of every decision of the first `WARMUP_INTERVALS +
    /// MIN_MEASURED_INTERVALS` intervals: equal seeds give equal digests.
    pub fn decision_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Warms up, then measures for `budget`. With `trace`, every other
    /// measured interval records spans; the untraced ones in between are
    /// the baseline `trace.overhead_share` compares against. `between` runs
    /// after each measured interval, outside every timing.
    pub fn run(&mut self, budget: Budget, trace: bool, mut between: impl FnMut()) -> LoopOutcome {
        let mut outcome =
            LoopOutcome { samples: Vec::new(), tracer: Tracer::default(), attempted: 0, failed: 0 };
        for _ in 0..WARMUP_INTERVALS {
            outcome.attempted += 1;
            if self.run_interval(None).is_err() {
                outcome.failed += 1;
                return outcome;
            }
        }
        let started = Instant::now();
        loop {
            let done = outcome.samples.len();
            let spent = match budget {
                Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                Budget::Intervals(n) => done >= n,
            };
            if spent && done >= MIN_MEASURED_INTERVALS {
                return outcome;
            }
            let tracer = (trace && done % 2 == 1).then_some(&mut outcome.tracer);
            outcome.attempted += 1;
            match self.run_interval(tracer) {
                Ok(sample) => outcome.samples.push(sample),
                Err(_) => {
                    outcome.failed += 1;
                    return outcome;
                }
            }
            between();
        }
    }

    /// Runs one observation interval.
    ///
    /// # Errors
    ///
    /// Returns the optimizer's construction error; the generated workloads
    /// never cause one.
    pub fn run_interval(
        &mut self,
        tracer: Option<&mut Tracer>,
    ) -> Result<IntervalSample, multipub_core::Error> {
        let interval = self.intervals_run;
        // The environment moves between intervals, outside the timed loop.
        if interval > 0 {
            if let Some(churn) = &mut self.inputs.churn {
                churn.step(&mut self.inputs.scenario);
            }
        }
        let n_regions = self.inputs.n_regions();
        let duration_ms = self.inputs.duration_ms;
        let cpu_start = process_cpu_ns();
        let interval_start = Instant::now();
        // Each stage takes its own start and end, so harness work that
        // creeps in between stages shows as `trace.unexplained_share`.
        let mut stages = [(interval_start, interval_start); 6];

        let started = Instant::now();
        self.report = None;
        let mut engine = Engine::new(
            self.inputs.scenario.clone(),
            self.inputs.jitter,
            self.inputs.engine_seed.wrapping_add(interval),
        );
        let deployed = self.pending.take();
        if let (Some(at_ms), Some(deployed)) = (self.inputs.reconfigure_at_ms, &deployed) {
            for (topic, &configuration) in deployed.iter().enumerate() {
                engine.schedule_reconfiguration(at_ms, topic, configuration);
            }
        }
        let report = engine.run(duration_ms);
        if let Some(deployed) = deployed {
            for (topic, configuration) in self.inputs.scenario.topics_mut().iter_mut().zip(deployed)
            {
                topic.set_configuration(configuration);
            }
        }
        let deliveries = report.delivery_count();
        self.report = Some(report);
        stages[SIMULATE] = (started, Instant::now());

        let started = Instant::now();
        self.problems.clear();
        self.problems.extend(
            self.inputs.scenario.topics().iter().zip(&self.inputs.constraints).map(
                |(topic, &constraint)| TopicProblem {
                    workload: topic.workload(n_regions, duration_ms),
                    constraint,
                },
            ),
        );
        stages[SNAPSHOT] = (started, Instant::now());

        let started = Instant::now();
        let regions = self.inputs.scenario.regions();
        let inter = self.inputs.scenario.inter();
        let solutions = solve_topics(regions, inter, &self.problems)?;
        stages[SOLVE] = (started, Instant::now());

        let started = Instant::now();
        self.decisions.clear();
        for (solution, problem) in solutions.into_iter().zip(&self.problems) {
            let mut decision = Decision {
                solution,
                install: solution.configuration(),
                regions_added: 0,
                stragglers: 0,
            };
            if !solution.is_feasible() {
                let evaluator = TopicEvaluator::new(regions, inter, &problem.workload)?;
                let outcome =
                    mitigate(&evaluator, decision.install, &problem.constraint, &self.policy);
                decision.install = outcome.configuration;
                decision.regions_added = outcome.added.len();
                decision.stragglers = outcome.added.len() + outcome.unresolved.len();
            }
            self.decisions.push(decision);
        }
        stages[MITIGATE] = (started, Instant::now());

        let started = Instant::now();
        self.before.clear();
        self.before.extend(self.inputs.scenario.topics().iter().map(|t| t.configuration()));
        self.plans.clear();
        self.plans.extend(self.problems.iter().zip(&self.before).zip(&self.decisions).map(
            |((problem, &old), decision)| {
                ReconfigurationPlan::compute(&problem.workload, old, decision.install)
            },
        ));
        stages[PLAN] = (started, Instant::now());

        let started = Instant::now();
        if self.inputs.reconfigure_at_ms.is_some() {
            self.pending = Some(self.decisions.iter().map(|d| d.install).collect());
        } else {
            let topics = self.inputs.scenario.topics_mut().iter_mut();
            for ((topic, plan), decision) in topics.zip(&self.plans).zip(&self.decisions) {
                if !plan.is_noop() {
                    topic.set_configuration(decision.install);
                }
            }
        }
        let interval_end = Instant::now();
        stages[APPLY] = (started, interval_end);
        let cpu_ns = process_cpu_ns() - cpu_start;

        let traced = tracer.is_some();
        if let Some(tracer) = tracer {
            tracer.record(INTERVAL, interval, None, interval_start, interval_end);
            for (name, (start, end)) in STAGES.into_iter().zip(stages) {
                tracer.record(name, interval, Some(INTERVAL), start, end);
            }
        }
        if interval < (WARMUP_INTERVALS + MIN_MEASURED_INTERVALS) as u64 {
            self.fold_decisions(interval);
        }
        self.intervals_run += 1;

        Ok(IntervalSample {
            stage_ns: stages.map(|(start, end)| (end - start).as_nanos() as u64),
            interval_ns: (interval_end - interval_start).as_nanos() as u64,
            cpu_ns,
            deliveries,
            traced,
            regions_added: self.decisions.iter().map(|d| d.regions_added).sum(),
            stragglers: self.decisions.iter().map(|d| d.stragglers).sum(),
            notified: self.plans.iter().map(ReconfigurationPlan::notified_clients).sum(),
            changed_topics: self.plans.iter().filter(|p| !p.is_noop()).count(),
        })
    }

    fn fold_decisions(&mut self, interval: u64) {
        self.digest.write_u64(interval);
        for decision in &self.decisions {
            for configuration in [decision.solution.configuration(), decision.install] {
                self.digest.write_u64(configuration.assignment().mask() as u64);
                self.digest.write_u64((configuration.mode() == DeliveryMode::Routed) as u64);
            }
            self.digest.write_u64(decision.solution.is_feasible() as u64);
        }
    }
}
