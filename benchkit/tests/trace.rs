//! Spans of a traced run: one interval span plus one span per stage, the
//! stages inside their interval, in order, and their times summing to it.

use benchkit::control::{Budget, ControlLoop, STAGES};
use benchkit::trace::INTERVAL;
use benchkit::workloads::{build, Workload};

#[test]
fn stage_spans_tile_their_interval() {
    let mut control = ControlLoop::new(build(Workload::SimHeavy, 9));
    let outcome = control.run(Budget::Intervals(6), true, || {});
    assert_eq!(outcome.failed, 0);
    let spans = outcome.tracer.spans();
    let traced: Vec<_> = outcome.samples.iter().filter(|s| s.traced).collect();
    assert_eq!(traced.len(), 3, "every other measured interval is traced");
    assert_eq!(spans.len(), traced.len() * (1 + STAGES.len()));

    for group in spans.chunks(1 + STAGES.len()) {
        let (interval, stages) = group.split_first().unwrap();
        assert_eq!((interval.name, interval.parent), (INTERVAL, None));
        let mut cursor = interval.start_ns;
        let mut covered = 0;
        for (stage, name) in stages.iter().zip(STAGES) {
            assert_eq!(
                (stage.name, stage.parent, stage.interval),
                (name, Some(INTERVAL), interval.interval)
            );
            assert!(stage.start_ns >= cursor && stage.end_ns >= stage.start_ns, "{stage:?}");
            cursor = stage.end_ns;
            covered += stage.duration_ns();
        }
        assert!(cursor <= interval.end_ns);
        // Self time of the interval span = what no stage covers.
        let unexplained = interval.duration_ns() - covered;
        assert!(
            unexplained as f64 <= 0.05 * interval.duration_ns() as f64,
            "{unexplained} ns of {} unexplained",
            interval.duration_ns()
        );
    }
    assert!(outcome.tracer.unexplained_share() <= 0.05);

    for sample in &outcome.samples {
        let stages: u64 = sample.stage_ns.iter().sum();
        assert!(stages <= sample.interval_ns);
        assert!(stages as f64 >= 0.95 * sample.interval_ns as f64);
        let decide = sample.stage_ms(2) + sample.stage_ms(3) + sample.stage_ms(4);
        assert!((sample.decide_ms() - decide).abs() < 1e-9);
    }
}
