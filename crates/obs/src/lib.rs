//! Observability layer for the MultiPub workspace: metrics, latency
//! histograms and structured logging, with **zero external
//! dependencies** (std and the workspace's own `multipub_sync`).
//!
//! MultiPub's controller re-optimizes topics continuously from live
//! measurements (§III.A4–A5 of the paper); the percentile constraint
//! `<ratio_T, max_T>` makes tail latency a first-class signal. This
//! crate is the measurement substrate for that: every crate in the
//! workspace records into one global, lock-free registry, and the
//! binaries expose it as Prometheus text or a JSON snapshot.
//!
//! # Metrics
//!
//! Metrics are named `multipub_<crate>_<name>` and are registered on
//! first use. A name's suffix declares its kind
//! ([`metrics::kind_of`]). The hot path is a single relaxed atomic
//! operation; the [`counter!`], [`gauge!`] and [`histogram!`] macros
//! check the kind at compile time and cache the registry lookup in a
//! per-call-site static:
//!
//! ```
//! multipub_obs::counter!("multipub_example_requests_total").inc();
//! multipub_obs::histogram!("multipub_example_latency_ms").record(1.25);
//! let _timer = multipub_obs::timer!("multipub_example_solve_ms");
//! // ... timed section; the elapsed milliseconds are recorded on drop.
//! ```
//!
//! # Logging
//!
//! [`event!`] emits leveled, structured key=value lines to stderr,
//! filtered by the `MULTIPUB_LOG` environment variable (e.g.
//! `MULTIPUB_LOG=info`, `MULTIPUB_LOG=broker=debug,warn`):
//!
//! ```
//! multipub_obs::event!(Info, "example", msg = "client connected", client_id = 7);
//! ```
//!
//! # Exposition
//!
//! [`Registry::render_prometheus`] produces the Prometheus text format
//! (histograms include cumulative `_bucket` series plus
//! p50/p90/p99/p999 quantile lines); [`Registry::render_json`]
//! produces a JSON snapshot suitable for in-band transport (the
//! broker's `StatsSnapshot` frame).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod log;
pub mod metrics;
pub mod quantile;
pub mod registry;
pub mod trace;

/// A seeded xorshift64 stream for the crate's own randomized tests (`obs`
/// depends on no generator).
#[cfg(test)]
pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

pub use histogram::{Histogram, HistogramSnapshot, HistogramTimer};
pub use log::{Level, LogFilter};
#[cfg(not(loom))]
pub use registry::registry;
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};

/// The one body behind [`counter!`], [`gauge!`] and [`histogram!`]:
/// asserts at compile time that the name's suffix declares the kind
/// being asked for ([`metrics::kind_of`]), then caches the registry
/// lookup in a per-call-site static.
#[doc(hidden)]
#[macro_export]
macro_rules! __metric_handle {
    ($name:expr, $kind:ident, $method:ident) => {{
        const _: () = assert!(
            matches!($crate::metrics::kind_of($name), $crate::metrics::MetricKind::$kind),
            concat!(
                "metric name does not end like a ",
                stringify!($method),
                " (see multipub_obs::metrics::kind_of)"
            )
        );
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::$kind>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().$method($name))
    }};
}

/// Returns a `&'static` handle to a named counter on the global
/// registry, caching the lookup in a per-call-site static.
///
/// ```
/// multipub_obs::counter!("multipub_example_frames_total").add(3);
/// ```
///
/// The name must be a counter's by [`metrics::kind_of`]; this does not
/// compile:
///
/// ```compile_fail
/// multipub_obs::counter!("multipub_example_latency_ms").add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::__metric_handle!($name, Counter, counter)
    };
}

/// Returns a `&'static` handle to a named gauge on the global
/// registry, caching the lookup in a per-call-site static.
///
/// ```
/// multipub_obs::gauge!("multipub_example_connections").add(1);
/// multipub_obs::gauge!("multipub_example_connections").sub(1);
/// ```
///
/// The name must be a gauge's by [`metrics::kind_of`]; this does not
/// compile:
///
/// ```compile_fail
/// multipub_obs::gauge!("multipub_example_connections_total").add(1);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::__metric_handle!($name, Gauge, gauge)
    };
}

/// Returns a `&'static` handle to a named histogram on the global
/// registry, caching the lookup in a per-call-site static.
///
/// ```
/// multipub_obs::histogram!("multipub_example_delivery_ms").record(42.0);
/// ```
///
/// The name must be a histogram's by [`metrics::kind_of`]; this does
/// not compile:
///
/// ```compile_fail
/// multipub_obs::histogram!("multipub_example_deliveries_total").record(42.0);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::__metric_handle!($name, Histogram, histogram)
    };
}

/// Starts an RAII scoped timer against a named histogram on the global
/// registry; the elapsed wall-time in milliseconds is recorded when the
/// returned guard drops.
///
/// ```
/// {
///     let _timer = multipub_obs::timer!("multipub_example_round_ms");
///     // ... timed work ...
/// } // recorded here
/// ```
///
/// The name is checked like [`histogram!`]'s:
///
/// ```compile_fail
/// let _timer = multipub_obs::timer!("multipub_example_rounds_total");
/// ```
#[macro_export]
macro_rules! timer {
    ($name:expr) => {
        $crate::HistogramTimer::new(::std::sync::Arc::clone($crate::histogram!($name)))
    };
}

/// Emits a leveled, structured log event to stderr if `MULTIPUB_LOG`
/// enables `$level` for `$target`.
///
/// The first argument is a [`Level`] variant name (`Error`, `Warn`,
/// `Info`, `Debug`, `Trace`), the second the target string (by
/// convention the crate or subsystem name), followed by `key = value`
/// fields rendered with [`std::fmt::Display`]:
///
/// ```
/// multipub_obs::event!(Warn, "broker", msg = "peer unreachable", region = 3);
/// ```
#[macro_export]
macro_rules! event {
    ($level:ident, $target:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $crate::Level::$level;
        if $crate::log::log_enabled(level, $target) {
            $crate::log::log_emit(level, $target, &[
                $( (stringify!($key), ::std::string::ToString::to_string(&$value)) ),*
            ]);
        }
    }};
}
