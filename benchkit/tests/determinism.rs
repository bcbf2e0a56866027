//! Same seed ⇒ identical inputs and identical decisions; another seed ⇒
//! other inputs of the same shape.

use benchkit::control::{Budget, ControlLoop, MIN_MEASURED_INTERVALS};
use benchkit::workloads::{build, Workload};

fn digests(workload: Workload, seed: u64, measured: usize) -> (u64, u64) {
    let inputs = build(workload, seed);
    let fingerprint = inputs.fingerprint();
    let mut control = ControlLoop::new(inputs);
    let outcome = control.run(Budget::Intervals(measured), false, || {});
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.samples.len(), measured.max(MIN_MEASURED_INTERVALS));
    (fingerprint, control.decision_digest())
}

#[test]
fn same_seed_gives_identical_inputs_and_decision_digest() {
    for workload in Workload::ALL {
        let first = digests(workload, 11, MIN_MEASURED_INTERVALS);
        // The digest must not depend on how long the run went on.
        let second = digests(workload, 11, MIN_MEASURED_INTERVALS + 2);
        assert_eq!(first, second, "{}", workload.name());
    }
}

#[test]
fn another_seed_gives_other_inputs_of_the_same_shape() {
    for workload in Workload::ALL {
        let (a, b) = (build(workload, 1), build(workload, 2));
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}", workload.name());
        let shape = |inputs: &benchkit::workloads::Inputs| -> (usize, usize, usize) {
            let topics = inputs.scenario.topics();
            (
                topics.len(),
                topics.iter().map(|t| t.publishers().len()).sum(),
                topics.iter().map(|t| t.subscribers().len()).sum(),
            )
        };
        assert_eq!(shape(&a), shape(&b), "{}", workload.name());
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.duration_ms, b.duration_ms);
    }
}
