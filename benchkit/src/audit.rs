//! Checks that a run's outputs are correct. Everything here runs outside
//! the timed sections, on what the *latest* measured interval produced.
//!
//! * **Decisions** (sampled topics): the chosen configuration equals what
//!   `SweepSolver::solve_at` — the other solver path — picks, and a fresh
//!   enumeration finds no configuration that is feasible and cheaper (or,
//!   for an infeasible topic, none feasible and none faster). What is
//!   installed extends the optimizer's regions and keeps its mode.
//! * **Simulator vs model** (fault-free workloads): the simulated bill
//!   equals the analytic cost of the configurations the interval ran under,
//!   every message reached every subscriber, and sampled topics' simulated
//!   percentile equals the analytic one.
//! * **Fault accounting** (`sim_heavy`): every published message reached
//!   each subscriber between zero and *duplicate-window* times, and the
//!   missing deliveries are bounded by the copies the simulator reports lost.

use crate::control::{ControlLoop, Decision};
use multipub_core::assignment::{enumerate_configurations, AssignmentVector, ModePolicy};
use multipub_core::cost::topic_cost_dollars;
use multipub_core::evaluate::{EvalScratch, TopicEvaluator};
use multipub_core::optimizer::{SweepSolver, TopicProblem};
use multipub_core::region::RegionSet;
use multipub_netsim::metrics::SimReport;
use std::collections::HashMap;

/// Relative tolerance for costs: equal-cost sums differ by a few ulps with
/// summation order (the optimizer's own `TIE_EPSILON` band).
const COST_TOLERANCE: f64 = 1e-9;
/// Absolute tolerance for simulated vs analytic percentiles, in ms: the
/// simulator adds hops to a running clock, the model adds them to zero.
const PERCENTILE_TOLERANCE_MS: f64 = 1e-6;
/// Topics whose decision and percentile are re-derived per run.
const SAMPLED_TOPICS: usize = 24;

/// Checks made and checks failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Audit {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed, for the log (capped).
    pub failures: Vec<String>,
    /// `sim_heavy`: share of expected deliveries that never arrived.
    pub lost_share: f64,
    /// `sim_heavy`: share of arrived deliveries that were duplicates.
    pub duplicated_share: f64,
}

impl Audit {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

fn close(a: f64, b: f64, relative: f64) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * relative
}

/// Which topics a run re-derives: all of them when there are few, else an
/// even stride offset by the seed.
pub fn sampled_topics(n_topics: usize, seed: u64) -> Vec<usize> {
    if n_topics <= SAMPLED_TOPICS {
        // The two-topic workloads cost a full solve per audited topic.
        return if n_topics == 2 { vec![(seed % 2) as usize] } else { (0..n_topics).collect() };
    }
    let stride = n_topics / SAMPLED_TOPICS;
    (0..SAMPLED_TOPICS).map(|i| i * stride + (seed as usize % stride)).collect()
}

/// Audits the latest interval of `control`, re-deriving `sample` topics.
pub fn audit(control: &ControlLoop, sample: &[usize]) -> Audit {
    let mut audit = Audit::default();
    let regions = control.inputs.scenario.regions();
    for &topic in sample {
        audit_decision(&mut audit, control, topic);
    }
    let Some(report) = &control.report else {
        audit.check(false, || "no simulation report to audit".into());
        return audit;
    };
    if control.inputs.workload.is_fault_free() {
        audit_against_model(&mut audit, control, report, regions, sample);
    } else {
        audit_fault_accounting(&mut audit, control, report);
    }
    audit
}

/// Re-derives one topic's decision two independent ways.
pub fn audit_decision(audit: &mut Audit, control: &ControlLoop, topic: usize) {
    let regions = control.inputs.scenario.regions();
    let inter = control.inputs.scenario.inter();
    let TopicProblem { workload, constraint } = &control.problems[topic];
    let Decision { solution, install, .. } = &control.decisions[topic];
    let chosen = solution.evaluation();

    let swept = SweepSolver::new(regions, inter, workload, constraint.ratio_percent())
        .and_then(|sweep| sweep.solve_at(constraint.max_ms()));
    audit.check(
        swept.as_ref().is_ok_and(|s| {
            s.configuration() == solution.configuration()
                && s.is_feasible() == solution.is_feasible()
        }),
        || format!("topic {topic}: solve_topics chose {solution:?}, SweepSolver {swept:?}"),
    );

    let evaluator = match TopicEvaluator::new(regions, inter, workload) {
        Ok(evaluator) => evaluator,
        Err(e) => return audit.check(false, || format!("topic {topic}: evaluator: {e}")),
    };
    let all = AssignmentVector::all(regions.len()).expect("region sets are non-empty");
    let mut scratch = EvalScratch::default();
    let mut better = None;
    for configuration in enumerate_configurations(all, ModePolicy::Any) {
        let eval = evaluator.evaluate_into(configuration, constraint, &mut scratch);
        let beats = if solution.is_feasible() {
            eval.is_feasible(constraint)
                && eval.cost_dollars() < chosen.cost_dollars() * (1.0 - COST_TOLERANCE)
        } else {
            eval.is_feasible(constraint)
                || eval.percentile_ms() < chosen.percentile_ms() * (1.0 - COST_TOLERANCE)
        };
        if beats {
            better = Some(eval);
            break;
        }
    }
    audit.check(
        better.is_none() && chosen.is_feasible(constraint) == solution.is_feasible(),
        || format!("topic {topic}: chose {chosen:?} but {better:?} is better under {constraint}"),
    );

    let extends = solution.configuration().assignment().is_subset_of(install.assignment())
        && install.mode() == solution.configuration().mode()
        && (!solution.is_feasible() || *install == solution.configuration());
    audit.check(extends, || {
        format!(
            "topic {topic}: installs {install} over the optimizer's {}",
            solution.configuration()
        )
    });
}

fn audit_against_model(
    audit: &mut Audit,
    control: &ControlLoop,
    report: &SimReport,
    regions: &RegionSet,
    sample: &[usize],
) {
    let inter = control.inputs.scenario.inter();
    let problems = &control.problems;
    let messages: u64 = problems.iter().map(|p| p.workload.total_messages()).sum();
    let deliveries: u64 = problems.iter().map(|p| p.workload.total_deliveries()).sum();
    audit.check(
        report.published_count() == messages
            && report.delivery_count() == deliveries
            && report.lost_count() == 0,
        || {
            format!(
                "simulated {} publications, {} deliveries, {} lost; the snapshot says {messages}, {deliveries}, 0",
                report.published_count(),
                report.delivery_count(),
                report.lost_count()
            )
        },
    );
    let modelled: f64 = problems
        .iter()
        .zip(&control.before)
        .map(|(p, &configuration)| topic_cost_dollars(regions, &p.workload, configuration))
        .sum();
    let billed = report.cost_dollars(regions);
    audit.check(close(billed, modelled, COST_TOLERANCE), || {
        format!("simulated bill ${billed:.12} but the model says ${modelled:.12}")
    });
    for &topic in sample {
        let TopicProblem { workload, constraint } = &problems[topic];
        let simulated = report.topic_percentile_ms(topic, constraint.ratio_percent());
        let modelled = TopicEvaluator::new(regions, inter, workload)
            .map(|e| e.evaluate(control.before[topic], constraint).percentile_ms());
        audit.check(
            modelled.as_ref().is_ok_and(|m| (m - simulated).abs() <= PERCENTILE_TOLERANCE_MS),
            || format!("topic {topic}: simulated percentile {simulated} ms, model {modelled:?}"),
        );
    }
}

fn audit_fault_accounting(audit: &mut Audit, control: &ControlLoop, report: &SimReport) {
    let problems = &control.problems;
    let plan = control.inputs.scenario.fault_plan();
    let messages: u64 = problems.iter().map(|p| p.workload.total_messages()).sum();
    audit.check(report.published_count() == messages, || {
        format!("simulated {} publications, the snapshot says {messages}", report.published_count())
    });

    // Copies received per (topic, publisher, publication time, subscriber).
    let mut copies: HashMap<(usize, u64, u64, u64), u32> = HashMap::new();
    for d in report.deliveries() {
        let key = (d.topic_index, d.publisher.0, d.published_at.as_ms().to_bits(), d.subscriber.0);
        *copies.entry(key).or_insert(0) += 1;
    }
    let max_copies = plan.duplicates().iter().map(|w| w.copies()).product::<u64>().max(1);
    let most = copies.values().copied().max().unwrap_or(0) as u64;
    audit.check(most <= max_copies, || {
        format!("a delivery arrived {most} times; the duplicate windows allow {max_copies}")
    });

    let expected: u64 = problems.iter().map(|p| p.workload.total_deliveries()).sum();
    let distinct = copies.len() as u64;
    let delivered = report.delivery_count();
    let widest_fan_out =
        problems.iter().map(|p| p.workload.subscriber_weight()).max().unwrap_or(0) * max_copies;
    // delivered = distinct + duplicates and distinct + missing = published ×
    // fan-out; a lost copy takes at most one topic's whole fan-out with it.
    audit.check(
        distinct <= expected && expected - distinct <= report.lost_count() * widest_fan_out,
        || {
            format!(
                "{distinct} distinct of {expected} expected deliveries with {} copies lost",
                report.lost_count()
            )
        },
    );
    let faults_seen = report.lost_count() > 0 && delivered > distinct;
    audit.check(faults_seen || plan.is_quiet(), || {
        format!("the fault plan left no trace: {} lost, {delivered} delivered", report.lost_count())
    });
    audit.lost_share = (expected - distinct.min(expected)) as f64 / expected.max(1) as f64;
    audit.duplicated_share = (delivered - distinct) as f64 / delivered.max(1) as f64;
}
