//! Exhaustive loom models of the obs crate's lock-free paths.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; a normal `cargo test`
//! sees an empty test binary. The CI loom job appends the loom
//! dependency to this crate's manifest transiently (it is not declared
//! in `Cargo.toml` so the workspace builds on a bare toolchain) and
//! runs:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p multipub-obs --test loom_models --release
//! ```
//!
//! Each `loom::model` closure is executed once per possible thread
//! interleaving of the `multipub_sync` primitives, exhaustively. The
//! interesting interleavings are:
//!
//! * registry registration: the read-then-upgrade-to-write dance in
//!   `Registry::counter` must hand every racing thread a handle to the
//!   *same* underlying counter (no lost registrations),
//! * counter/gauge/histogram recording racing a snapshot: totals must
//!   be exact once all writers join, and a concurrent snapshot sees
//!   only values that some prefix of the writes could have produced
//!   (`Histogram::snapshot` documents itself as approximately
//!   consistent under concurrent recording — the models pin down what
//!   "approximately" is allowed to mean),
//! * timer RAII: drops racing on one histogram all land.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;
use multipub_obs::{Histogram, HistogramTimer, Registry};

/// Two threads race to register and bump the same counter name: the
/// read-miss → write-lock upgrade in `Registry::counter` must not
/// create two counters (a lost update would drop one thread's
/// increments).
#[test]
fn registry_registration_race_yields_one_counter() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let writer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                registry.counter("multipub_loom_race_total").inc();
            })
        };
        registry.counter("multipub_loom_race_total").inc();
        writer.join().expect("writer thread");
        assert_eq!(registry.counter("multipub_loom_race_total").get(), 2);
    });
}

/// Registering two *different* metrics concurrently must keep both.
#[test]
fn concurrent_distinct_registrations_both_survive() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let writer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                registry.counter("multipub_loom_a_total").inc();
            })
        };
        registry.gauge("multipub_loom_b_active").set(7);
        writer.join().expect("writer thread");
        assert_eq!(registry.counter("multipub_loom_a_total").get(), 1);
        assert_eq!(registry.gauge("multipub_loom_b_active").get(), 7);
    });
}

/// A snapshot taken while a writer is mid-flight sees a prefix of the
/// writer's increments (0 or 1 here), and the final state is exact.
#[test]
fn snapshot_races_with_counter_increments() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("multipub_loom_snap_total");
        let writer = {
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                counter.inc();
            })
        };
        let observed = registry.snapshot();
        let mid = observed.counters.get("multipub_loom_snap_total").copied().unwrap_or(0);
        assert!(mid <= 1, "snapshot saw {mid} increments of 1");
        writer.join().expect("writer thread");
        assert_eq!(counter.get(), 1);
    });
}

/// Gauge add/sub from two threads cancel exactly.
#[test]
fn gauge_add_sub_race_cancels() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let gauge = registry.gauge("multipub_loom_conns_active");
        let adder = {
            let gauge = Arc::clone(&gauge);
            thread::spawn(move || {
                gauge.add(1);
            })
        };
        gauge.sub(1);
        adder.join().expect("adder thread");
        assert_eq!(gauge.get(), 0);
    });
}

/// Two racing `record` calls on one histogram: a mid-flight snapshot
/// sees at most one observation in each field (never a torn value like
/// a double-counted bucket), and once the writer joins, count, bucket
/// total and max all converge exactly.
#[test]
fn histogram_concurrent_record_and_snapshot() {
    loom::model(|| {
        let histogram = Arc::new(Histogram::new());
        let writer = {
            let histogram = Arc::clone(&histogram);
            thread::spawn(move || {
                histogram.record(1.0);
            })
        };
        let snapshot = histogram.snapshot();
        assert!(snapshot.count() <= 1, "mid-flight count beyond the single write");
        assert!(
            snapshot.buckets().iter().sum::<u64>() <= 1,
            "mid-flight bucket total beyond the single write"
        );
        writer.join().expect("writer thread");
        histogram.record(2_000_000_000.0); // overflow bucket
        let done = histogram.snapshot();
        assert_eq!(done.count(), 2);
        assert_eq!(done.buckets().iter().sum::<u64>(), 2);
        assert!(done.max_ms() >= 2_000_000_000.0 - 1.0);
    });
}

/// Timer RAII: two timers dropped by racing threads both record.
#[test]
fn timer_drops_race_and_both_record() {
    loom::model(|| {
        let histogram = Arc::new(Histogram::new());
        let dropper = {
            let histogram = Arc::clone(&histogram);
            thread::spawn(move || {
                drop(HistogramTimer::new(Arc::clone(&histogram)));
            })
        };
        drop(HistogramTimer::new(Arc::clone(&histogram)));
        dropper.join().expect("dropper thread");
        assert_eq!(histogram.count(), 2);
    });
}
