//! The audit passes on what the loop really decided and trips on planted
//! errors (negative controls).

use benchkit::audit::{audit, sampled_topics};
use benchkit::control::{Budget, ControlLoop};
use benchkit::workloads::{build, Workload};
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::ids::RegionId;
use multipub_core::optimizer::Optimizer;

fn settled(workload: Workload, seed: u64) -> ControlLoop {
    let mut control = ControlLoop::new(build(workload, seed));
    let outcome = control.run(Budget::Intervals(1), false, || {});
    assert_eq!(outcome.failed, 0);
    control
}

#[test]
fn honest_runs_pass_on_every_workload() {
    for workload in Workload::ALL {
        let control = settled(workload, 5);
        let n_topics = control.problems.len();
        let result = audit(&control, &sampled_topics(n_topics, 5));
        assert!(result.attempted >= 4, "{}: {result:?}", workload.name());
        assert_eq!(result.failed, 0, "{}: {:?}", workload.name(), result.failures);
    }
}

#[test]
fn a_planted_wrong_decision_fails_the_audit() {
    let mut control = settled(Workload::ManyTopics, 5);
    let sample = sampled_topics(control.problems.len(), 5);
    // A feasible topic, so "cheaper and feasible exists" is the check that trips.
    let topic = *sample
        .iter()
        .find(|&&t| control.decisions[t].solution.is_feasible())
        .expect("three quarters of the topics are feasible");
    let scenario = &control.inputs.scenario;
    let problem = &control.problems[topic];
    // The All-Regions baseline: valid, usually feasible, never the cheapest.
    let wrong = Optimizer::new(scenario.regions(), scenario.inter(), &problem.workload)
        .unwrap()
        .solve_all_regions(DeliveryMode::Routed, &problem.constraint);
    assert_ne!(wrong.configuration(), control.decisions[topic].solution.configuration());
    control.decisions[topic].solution = wrong;
    control.decisions[topic].install = wrong.configuration();

    let result = audit(&control, &sample);
    assert!(result.failed >= 2, "SweepSolver and the enumeration must both object: {result:?}");
    assert!(result.failures.iter().all(|f| f.contains(&format!("topic {topic}:"))), "{result:?}");
}

#[test]
fn a_simulation_under_another_configuration_fails_the_audit() {
    let mut control = settled(Workload::DenseClients, 5);
    let sample = sampled_topics(control.problems.len(), 5);
    let topic = sample[0];
    // Claim the interval ran with one region serving everybody directly.
    let one_region = AssignmentVector::single(RegionId(0), control.inputs.n_regions()).unwrap();
    let claimed = Configuration::new(one_region, DeliveryMode::Direct);
    assert_ne!(control.before[topic], claimed);
    control.before[topic] = claimed;
    let result = audit(&control, &sample);
    assert!(result.failed >= 1, "{result:?}");
    assert!(result.failures.iter().any(|f| f.contains("model")), "{result:?}");
}

#[test]
fn unaccounted_deliveries_fail_the_fault_audit() {
    let mut control = settled(Workload::SimHeavy, 5);
    // Forget a topic: its deliveries are now more than the snapshot explains.
    control.problems.pop();
    control.decisions.pop();
    let result = audit(&control, &[0]);
    assert!(result.failed >= 1, "{result:?}");
}
