//! The metrics registry: named counters, gauges and histograms, plus
//! Prometheus-text and JSON exposition.
//!
//! Metrics register on first use and live forever. Lookups take a
//! `RwLock` read; hot paths avoid even that by caching the returned
//! `Arc` handle (see the [`crate::counter!`] family of macros). The
//! recording operations themselves are lock-free relaxed atomics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use multipub_sync::{Arc, AtomicI64, AtomicU64, Ordering, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Default for Counter {
    fn default() -> Self {
        Counter { value: AtomicU64::new(0) }
    }
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous value that can move both ways.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn kind_name(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// A set of named metrics. Most code uses the process-wide instance
/// via [`registry`]; tests can build private ones.
#[derive(Debug)]
pub struct Registry {
    /// One rank shared by every `Registry` instance (the global one
    /// and test-private ones): no code path locks two registries at
    /// once. lock:rank(obs.registry, 95)
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry { metrics: RwLock::new(95, "obs.registry", BTreeMap::new()) }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_register(name, "counter", Metric::Counter, |metric| match metric {
            Metric::Counter(counter) => Some(counter),
            _ => None,
        })
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_register(name, "gauge", Metric::Gauge, |metric| match metric {
            Metric::Gauge(gauge) => Some(gauge),
            _ => None,
        })
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_register(name, "histogram", Metric::Histogram, |metric| match metric {
            Metric::Histogram(histogram) => Some(histogram),
            _ => None,
        })
    }

    /// The `kind` metric named `name` as `get` finds it: under the read
    /// lock if it exists, else registered as `wrap` of a new one under the
    /// write lock (another thread may have registered it in between).
    fn get_or_register<T: Default>(
        &self,
        name: &str,
        kind: &str,
        wrap: fn(Arc<T>) -> Metric,
        get: fn(&Metric) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        if let Some(found) = self.metrics.read().get(name).and_then(get) {
            return Arc::clone(found);
        }
        let mut metrics = self.metrics.write();
        let metric =
            metrics.entry(name.to_string()).or_insert_with(|| wrap(Arc::new(T::default())));
        match get(metric) {
            Some(found) => Arc::clone(found),
            // lint:allow(panic) one name, one kind: the macros reject a mismatch at compile time, this guards the by-name API
            None => panic!(
                "metric `{name}` is already registered as a {}, not a {kind}",
                kind_name(metric)
            ),
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.read();
        let mut snapshot = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(counter) => {
                    snapshot.counters.insert(name.clone(), counter.get());
                }
                Metric::Gauge(gauge) => {
                    snapshot.gauges.insert(name.clone(), gauge.get());
                }
                Metric::Histogram(histogram) => {
                    snapshot.histograms.insert(name.clone(), histogram.snapshot());
                }
            }
        }
        snapshot
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Renders every metric as a JSON document.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// The process-wide registry every workspace crate records into.
///
/// Not available under loom: loom primitives must be created inside a
/// `loom::model` run, so the models build private registries instead.
#[cfg(not(loom))]
pub fn registry() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The quantiles exported for every histogram: ratio, Prometheus
/// `quantile` label, JSON key.
const EXPORT_QUANTILES: [(f64, &str, &str); 4] =
    [(50.0, "0.5", "p50"), (90.0, "0.9", "p90"), (99.0, "0.99", "p99"), (99.9, "0.999", "p999")];

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` series for every
    /// non-empty bucket plus `+Inf`, `_sum`/`_count`, and
    /// p50/p90/p99/p999 `{quantile="..."}` lines.
    fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (le, count) in histogram.finite_buckets() {
                cumulative = cumulative.saturating_add(count);
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
            let _ = writeln!(out, "{name}_sum {}", histogram.sum_ms());
            let _ = writeln!(out, "{name}_count {}", histogram.count());
            for (ratio, label, _) in EXPORT_QUANTILES {
                let _ =
                    writeln!(out, "{name}{{quantile=\"{label}\"}} {}", histogram.quantile(ratio));
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document:
    ///
    /// ```json
    /// {"counters": {"name": 1},
    ///  "gauges": {"name": -2},
    ///  "histograms": {"name": {"count": 3, "sum_ms": 4.5, "max_ms": 2.0,
    ///                           "p50": 1.0, "p90": 2.0, "p99": 2.0, "p999": 2.0,
    ///                           "buckets": [[1.024, 3]], "overflow": 0}}}
    /// ```
    ///
    /// `buckets` lists `[upper_bound_ms, count]` for every non-empty
    /// finite bucket; `overflow` counts observations above the largest
    /// finite bound.
    fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, histogram) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum_ms\":{},\"max_ms\":{}",
                json_string(name),
                histogram.count(),
                histogram.sum_ms(),
                histogram.max_ms()
            );
            for (ratio, _, key) in EXPORT_QUANTILES {
                let _ = write!(out, ",\"{key}\":{}", histogram.quantile(ratio));
            }
            out.push_str(",\"buckets\":[");
            for (position, (le, count)) in histogram.finite_buckets().enumerate() {
                if position > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{count}]");
            }
            let overflow = histogram.buckets().last().copied().unwrap_or(0);
            let _ = write!(out, "],\"overflow\":{overflow}}}");
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string as a JSON string literal, quotes included.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_register_once_and_accumulate() {
        let registry = Registry::new();
        registry.counter("multipub_test_total").add(2);
        registry.counter("multipub_test_total").inc();
        assert_eq!(registry.counter("multipub_test_total").get(), 3);
    }

    #[test]
    fn gauges_move_both_ways() {
        let registry = Registry::new();
        let gauge = registry.gauge("multipub_test_active");
        gauge.add(5);
        gauge.sub(2);
        assert_eq!(gauge.get(), 3);
        gauge.set(-7);
        assert_eq!(registry.gauge("multipub_test_active").get(), -7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("multipub_test_conflict");
        registry.gauge("multipub_test_conflict");
    }

    #[test]
    fn every_kind_mismatch_panics_naming_both_kinds() {
        let register = |registry: &Registry, kind: &str| match kind {
            "counter" => drop(registry.counter("multipub_test_conflict")),
            "gauge" => drop(registry.gauge("multipub_test_conflict")),
            _ => drop(registry.histogram("multipub_test_conflict")),
        };
        let kinds = ["counter", "gauge", "histogram"];
        for first in kinds {
            for second in kinds.into_iter().filter(|&kind| kind != first) {
                let registry = Registry::new();
                register(&registry, first);
                let panic = std::panic::catch_unwind(|| register(&registry, second)).unwrap_err();
                let message = panic.downcast_ref::<String>().unwrap();
                let expected = format!(
                    "metric `multipub_test_conflict` is already registered as a {first}, not a {second}"
                );
                assert_eq!(*message, expected);
            }
        }
    }

    #[test]
    fn prometheus_rendering_includes_all_kinds() {
        let registry = Registry::new();
        registry.counter("multipub_test_frames_total").add(4);
        registry.gauge("multipub_test_conns").set(2);
        registry.histogram("multipub_test_latency_ms").record(1.5);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE multipub_test_frames_total counter"));
        assert!(text.contains("multipub_test_frames_total 4"));
        assert!(text.contains("multipub_test_conns 2"));
        assert!(text.contains("# TYPE multipub_test_latency_ms histogram"));
        assert!(text.contains("multipub_test_latency_ms_count 1"));
        assert!(text.contains("multipub_test_latency_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("multipub_test_latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("multipub_test_latency_ms{quantile=\"0.99\"}"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let registry = Registry::new();
        registry.counter("multipub_test_pubs_total").inc();
        registry.histogram("multipub_test_ms").record(2.0);
        let json = registry.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"multipub_test_pubs_total\":1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"overflow\":0"));
        // Balanced braces and brackets (no string values contain any).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn both_renderings_describe_the_same_distribution() {
        use crate::histogram::bucket_upper_bound as le;
        let registry = Registry::new();
        let histogram = registry.histogram("multipub_test_pin_ms");
        // Bucket 0, three mid-range buckets (one hit twice), overflow.
        for value in [0.001, 1.0, 1.0, 5.0, 250.0, 1e9] {
            histogram.record(value);
        }
        // Bounds are 0.001 ms · 2^(k/4): 1 ms → k = 40, 5 ms → 50, 250 ms → 72.
        let (b40, b50, b72) = (le(40), le(50), le(72));
        assert!((b40 - 1.024).abs() < 1e-9 && (b72 - 262.144).abs() < 1e-6);
        let prometheus = format!(
            "# TYPE multipub_test_pin_ms histogram\n\
             multipub_test_pin_ms_bucket{{le=\"0.001\"}} 1\n\
             multipub_test_pin_ms_bucket{{le=\"{b40}\"}} 3\n\
             multipub_test_pin_ms_bucket{{le=\"{b50}\"}} 4\n\
             multipub_test_pin_ms_bucket{{le=\"{b72}\"}} 5\n\
             multipub_test_pin_ms_bucket{{le=\"+Inf\"}} 6\n\
             multipub_test_pin_ms_sum 1000000257.001\n\
             multipub_test_pin_ms_count 6\n\
             multipub_test_pin_ms{{quantile=\"0.5\"}} {b40}\n\
             multipub_test_pin_ms{{quantile=\"0.9\"}} 1000000000\n\
             multipub_test_pin_ms{{quantile=\"0.99\"}} 1000000000\n\
             multipub_test_pin_ms{{quantile=\"0.999\"}} 1000000000\n"
        );
        assert_eq!(registry.render_prometheus(), prometheus);
        // Same buckets per-bucket instead of cumulative: 1 + 2 + 1 + 1 finite
        // and 1 overflow add up to the count both renderings report.
        let json = format!(
            "{{\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{\"multipub_test_pin_ms\":{{\
             \"count\":6,\"sum_ms\":1000000257.001,\"max_ms\":1000000000,\
             \"p50\":{b40},\"p90\":1000000000,\"p99\":1000000000,\"p999\":1000000000,\
             \"buckets\":[[0.001,1],[{b40},2],[{b50},1],[{b72},1]],\"overflow\":1}}}}}}"
        );
        assert_eq!(registry.render_json(), json);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn concurrent_increments_from_many_threads() {
        // Satellite: N threads × M increments == N·M.
        const THREADS: usize = 8;
        const INCREMENTS: u64 = 10_000;
        let registry = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let registry = Arc::clone(&registry);
            handles.push(thread::spawn(move || {
                let counter = registry.counter("multipub_test_smoke_total");
                let histogram = registry.histogram("multipub_test_smoke_ms");
                for i in 0..INCREMENTS {
                    counter.inc();
                    histogram.record(i as f64 / 100.0);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let expected = THREADS as u64 * INCREMENTS;
        assert_eq!(registry.counter("multipub_test_smoke_total").get(), expected);
        assert_eq!(registry.histogram("multipub_test_smoke_ms").count(), expected);
    }

    #[test]
    fn global_registry_is_shared() {
        registry().counter("multipub_obs_selftest_total").inc();
        assert!(registry().snapshot().counters["multipub_obs_selftest_total"] >= 1);
    }
}
