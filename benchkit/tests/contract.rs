//! The benchmark's contract with the driver: what `BENCHMARK.json`
//! declares is what the program prints, in each trace mode, on every
//! workload.

mod support;

use benchkit::metrics::{END_TO_END, PER_LAYER};
use benchkit::workloads::Workload;
use std::path::Path;
use std::process::Command;
use support::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
}

fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .items()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_measures() {
    let bench = benchmark_json();
    assert_eq!(declared(&bench, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&bench, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> =
        bench.get("workloads").items().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    assert_eq!(
        bench.keys(),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    assert!(bench.get("end_to_end").items().iter().any(|m| {
        m.get("name").str() == "setup_s"
            && m.get("unit").str() == "s"
            && m.get("better").str() == "lower"
    }));
    for metric in bench.get("end_to_end").items() {
        let bound = metric.get("bound").number();
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
}

/// Runs the built binary as the driver does and returns its last line.
fn result_of(workload: Workload, trace: bool) -> Json {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    let output = Command::new(env!("CARGO_BIN_EXE_benchkit"))
        .args(["--workload", workload.name(), "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("the benchkit binary runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    Json::parse(stdout.trim_end().lines().last().expect("a result line"))
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_in_each_trace_mode() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = result_of(workload, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{}", workload.name());
            assert_eq!(result.get("failed").number(), 0.0);
            assert!(result.get("attempted").number() >= 1.0);
            let metrics = result.get("metrics");
            let printed: Vec<(String, String)> = metrics
                .keys()
                .into_iter()
                .map(|name| (name.to_string(), metrics.get(name).get("unit").str().to_string()))
                .collect();
            assert_eq!(printed, declared(&bench, section), "{} trace={trace}", workload.name());
            if !trace {
                for name in metrics.keys() {
                    let value = metrics.get(name).get("value").number();
                    assert!(value > 0.0, "{name} is {value} on {}", workload.name());
                }
            }
        }
    }
}

#[test]
fn a_traced_run_writes_one_event_per_span() {
    let result = result_of(Workload::SimHeavy, true);
    let spans = result.get("metrics").get("trace.spans").get("value").number();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans/spans-sim_heavy-7.json");
    let events = Json::parse(&std::fs::read_to_string(path).unwrap());
    assert_eq!(events.items().len() as f64, spans);
    assert!(events.items().iter().any(|e| e.get("name").str() == "simulate"));
}

#[test]
fn bad_flags_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchkit"))
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
