//! Log-bucketed latency histogram with atomic recording and
//! ceiling-rank quantile export.
//!
//! Values (milliseconds, `f64`) land in geometric buckets whose upper
//! bounds grow by `2^(1/4)` per bucket — four sub-buckets per octave,
//! bounding the relative quantile error at ≈19 % per octave / 4 ≈ 4.4 %.
//! The finite bounds span 1 µs to ≈4.7 h; larger values fall into an
//! overflow bucket whose representative is the observed maximum.
//! Recording is a handful of relaxed atomic adds plus a binary search
//! over 136 bounds, so histograms are safe on broker hot paths; a caller
//! holding many values at once flushes them through
//! [`Histogram::record_all`], which pays the atomics once per batch.
//!
//! The atomics come from `multipub_sync` so loom can model them; two
//! things stay on `std` under loom too: the `OnceLock` around the
//! bucket bounds (pure deterministic data, not an interleaving of
//! interest) and [`HistogramTimer`]'s `Instant` (loom does not model
//! time).

use std::sync::OnceLock;
use std::time::Instant;

use multipub_sync::{Arc, AtomicU64, Ordering};

use crate::quantile::ceiling_rank;

/// Number of finite geometric buckets.
const FINITE_BUCKETS: usize = 136;

/// Total bucket count, including the overflow (`+Inf`) bucket.
pub const BUCKET_COUNT: usize = FINITE_BUCKETS + 1;

/// Upper bound of the first bucket, in milliseconds (1 µs).
const FIRST_BOUND_MS: f64 = 0.001;

/// Finite bucket upper bounds, strictly increasing.
fn bounds() -> &'static [f64; FINITE_BUCKETS] {
    static BOUNDS: OnceLock<[f64; FINITE_BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let ratio = 2f64.powf(0.25);
        let mut bounds = [0.0; FINITE_BUCKETS];
        let mut bound = FIRST_BOUND_MS;
        for slot in bounds.iter_mut() {
            *slot = bound;
            bound *= ratio;
        }
        bounds
    })
}

/// The bucket a value falls into. Bucket `i` covers the half-open
/// interval `(bucket_lower_bound(i), bucket_upper_bound(i)]`; bucket 0
/// also absorbs zero and negative values, and the last bucket absorbs
/// everything above the largest finite bound.
pub fn bucket_index(value_ms: f64) -> usize {
    let bounds = bounds();
    let first = bounds.first().copied().unwrap_or(FIRST_BOUND_MS);
    let last = bounds.last().copied().unwrap_or(FIRST_BOUND_MS);
    if value_ms <= first {
        return 0;
    }
    if value_ms > last {
        return FINITE_BUCKETS;
    }
    bounds.partition_point(|bound| *bound < value_ms)
}

/// The inclusive upper bound of a bucket in milliseconds
/// (`f64::INFINITY` for the overflow bucket).
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
pub fn bucket_upper_bound(index: usize) -> f64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    bounds().get(index).copied().unwrap_or(f64::INFINITY)
}

/// The exclusive lower bound of a bucket in milliseconds
/// (`f64::NEG_INFINITY` for bucket 0, which absorbs non-positive
/// values).
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
pub fn bucket_lower_bound(index: usize) -> f64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    match index.checked_sub(1) {
        None => f64::NEG_INFINITY,
        Some(below) => bounds().get(below).copied().unwrap_or(f64::INFINITY),
    }
}

/// The largest value one observation contributes to a histogram's sum
/// and maximum: 2^53 µs ≈ 285 years, far above the last finite bucket
/// bound (≈ 2^34 µs) and small enough that no single observation can
/// wrap the `u64` sum — that takes 2 048 of them.
const MAX_OBSERVATION_MICROS: u64 = 1 << 53;

fn to_micros(value_ms: f64) -> u64 {
    if value_ms <= 0.0 {
        0
    } else {
        // `as` saturates at u64::MAX for huge values.
        ((value_ms * 1000.0).round() as u64).min(MAX_OBSERVATION_MICROS)
    }
}

/// A concurrent log-bucketed histogram of millisecond values.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation in milliseconds. NaN and ±∞ are
    /// ignored; a finite value above 2^53 µs lands in the overflow
    /// bucket and adds 2^53 µs to the sum.
    pub fn record(&self, value_ms: f64) {
        if !value_ms.is_finite() {
            return;
        }
        let index = bucket_index(value_ms);
        if let Some(bucket) = self.buckets.get(index) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        let micros = to_micros(value_ms);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records every observation of `values_ms` as [`Histogram::record`]
    /// would one by one — same buckets, same micro rounding, NaN and ±∞
    /// ignored, the same 2^53 µs clamp — but accumulates in locals and
    /// publishes once: one atomic add per touched bucket and one each for
    /// count, sum and maximum. For a finished run's worth of latencies,
    /// where four atomics per value would be most of the cost.
    pub fn record_all(&self, values_ms: impl IntoIterator<Item = f64>) {
        let mut buckets = [0u64; BUCKET_COUNT];
        let (mut count, mut sum_micros, mut max_micros) = (0u64, 0u64, 0u64);
        for value_ms in values_ms.into_iter().filter(|value_ms| value_ms.is_finite()) {
            if let Some(bucket) = buckets.get_mut(bucket_index(value_ms)) {
                *bucket += 1;
            }
            count += 1;
            let micros = to_micros(value_ms);
            // The shared sum wraps (`fetch_add`), so the local one does too.
            sum_micros = sum_micros.wrapping_add(micros);
            max_micros = max_micros.max(micros);
        }
        for (shared, local) in self.buckets.iter().zip(buckets) {
            if local > 0 {
                shared.fetch_add(local, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_micros.fetch_add(sum_micros, Ordering::Relaxed);
        self.max_micros.fetch_max(max_micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// Concurrent recording makes the copy only approximately
    /// consistent (a racing `record` may be half-applied), which is
    /// fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKET_COUNT], count: 0, sum_micros: 0, max_micros: 0 }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in milliseconds (microsecond
    /// resolution).
    pub fn sum_ms(&self) -> f64 {
        self.sum_micros as f64 / 1000.0
    }

    /// The largest recorded observation in milliseconds (microsecond
    /// resolution; 0.0 when empty).
    pub fn max_ms(&self) -> f64 {
        self.max_micros as f64 / 1000.0
    }

    /// Per-bucket observation counts, indexed like
    /// [`bucket_upper_bound`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(inclusive upper bound in ms, count)` of every non-empty finite
    /// bucket, in increasing bound order. The overflow bucket — the last
    /// of [`Self::buckets`] — has no finite bound and is not yielded.
    pub fn finite_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        bounds()
            .iter()
            .zip(&self.buckets)
            .filter(|(_, count)| **count > 0)
            .map(|(le, count)| (*le, *count))
    }

    /// The ceiling-rank `ratio_percent` quantile, reported as the
    /// upper bound of the bucket holding the ranked observation (the
    /// observed maximum for the overflow bucket). 0.0 when empty.
    ///
    /// Monotone in `ratio_percent`, and never underestimates by more
    /// than one bucket width (≈4.4 % relative).
    pub fn quantile(&self, ratio_percent: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ceiling_rank(ratio_percent, self.count);
        let mut cumulative = 0u64;
        for (index, bucket_count) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*bucket_count);
            if cumulative >= rank {
                return if index == BUCKET_COUNT - 1 {
                    // Keep quantiles monotone even when micro-rounding
                    // pulls the observed max below the last finite bound.
                    self.max_ms().max(bucket_upper_bound(FINITE_BUCKETS - 1))
                } else {
                    bucket_upper_bound(index)
                };
            }
        }
        self.max_ms()
    }

    /// Merges two snapshots: bucket counts and sums add, the maximum
    /// is the larger of the two.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            count: self.count.saturating_add(other.count),
            sum_micros: self.sum_micros.saturating_add(other.sum_micros),
            max_micros: self.max_micros.max(other.max_micros),
        }
    }
}

/// RAII timer: records the elapsed wall-time in milliseconds into a
/// histogram when dropped. See the [`crate::timer!`] macro.
#[derive(Debug)]
pub struct HistogramTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl HistogramTimer {
    /// Starts timing against `histogram`.
    pub fn new(histogram: Arc<Histogram>) -> Self {
        HistogramTimer { histogram, start: Instant::now() }
    }

    /// Milliseconds elapsed so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing() {
        let bounds = bounds();
        for pair in bounds.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(bounds[0], FIRST_BOUND_MS);
        // Four sub-buckets per octave: bounds 4 apart double.
        assert!((bounds[4] / bounds[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn values_fall_inside_their_bucket() {
        for value in [0.0, -1.0, 0.0005, 0.001, 0.0011, 1.0, 37.5, 250.0, 1e6, 1e9] {
            let index = bucket_index(value);
            assert!(value > bucket_lower_bound(index), "value {value} index {index}");
            assert!(value <= bucket_upper_bound(index), "value {value} index {index}");
        }
    }

    #[test]
    fn record_and_count() {
        let histogram = Histogram::new();
        histogram.record(1.0);
        histogram.record(2.0);
        histogram.record(f64::NAN); // ignored
        assert_eq!(histogram.count(), 2);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 2);
        assert!((snapshot.sum_ms() - 3.0).abs() < 1e-9);
        assert!((snapshot.max_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_values_are_ignored_and_huge_ones_cannot_wrap_the_sum() {
        let histogram = Histogram::new();
        histogram.record(2.0);
        histogram.record(f64::INFINITY);
        histogram.record(f64::NEG_INFINITY);
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 1);
        assert_eq!(snapshot.sum_ms(), 2.0);
        assert_eq!(snapshot.max_ms(), 2.0);
        // A finite value beyond the ceiling is counted, clamped.
        histogram.record(1e300);
        let clamped = histogram.snapshot();
        assert_eq!(clamped.count(), 2);
        assert_eq!(clamped.max_ms(), MAX_OBSERVATION_MICROS as f64 / 1000.0);
        assert!(clamped.sum_ms() > clamped.max_ms());
    }

    #[test]
    fn record_all_snapshots_like_a_record_loop() {
        let mut next = crate::xorshift(0x2545_F491_4F6C_DD1D);
        let last_finite = bucket_upper_bound(FINITE_BUCKETS - 1);
        let edge_cases = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            0.0004,         // sub-µs: rounds to 0 µs
            0.0005,         // rounds to 1 µs
            FIRST_BOUND_MS, // on the first bound
            last_finite,
            last_finite * 1.5, // overflow bucket
            9.1e12,            // past 2^53 µs: clamped
            1e300,
        ];
        for len in [0usize, 1, 7, 1000] {
            let values: Vec<f64> = (0..len)
                .map(|_| match next() % 4 {
                    0 => edge_cases[(next() % edge_cases.len() as u64) as usize],
                    // Log-uniform over every finite bucket and a little beyond.
                    _ => 1e-4 * 2f64.powf((next() % 4000) as f64 / 100.0),
                })
                .collect();
            let (one_by_one, batched) = (Histogram::new(), Histogram::new());
            // Something recorded beforehand: the batch adds, it does not overwrite.
            one_by_one.record(12.0);
            batched.record(12.0);
            values.iter().for_each(|&value| one_by_one.record(value));
            batched.record_all(values.iter().copied());
            assert_eq!(batched.snapshot(), one_by_one.snapshot(), "{len} values");
        }
        // Enough clamped observations to wrap the sum: both wrap alike.
        let (one_by_one, batched) = (Histogram::new(), Histogram::new());
        (0..2049).for_each(|_| one_by_one.record(1e300));
        batched.record_all(std::iter::repeat_n(1e300, 2049));
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn quantiles_bracket_the_sample() {
        let histogram = Histogram::new();
        for _ in 0..100 {
            histogram.record(10.0);
        }
        let snapshot = histogram.snapshot();
        for q in [50.0, 90.0, 99.0, 99.9] {
            let estimate = snapshot.quantile(q);
            // Within one bucket (2^(1/4) ≈ 1.19×) above the true value.
            assert!(estimate >= 10.0, "q{q} = {estimate}");
            assert!(estimate <= 10.0 * 1.19, "q{q} = {estimate}");
        }
    }

    #[test]
    fn quantile_orders_two_modes() {
        let histogram = Histogram::new();
        for _ in 0..90 {
            histogram.record(1.0);
        }
        for _ in 0..10 {
            histogram.record(100.0);
        }
        let snapshot = histogram.snapshot();
        assert!(snapshot.quantile(50.0) < 2.0);
        assert!(snapshot.quantile(99.0) >= 100.0);
        assert!(snapshot.quantile(99.0) <= 119.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let histogram = Histogram::new();
        histogram.record(1e9); // far above the largest finite bound
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.buckets()[BUCKET_COUNT - 1], 1);
        assert!((snapshot.quantile(99.0) - 1e9).abs() / 1e9 < 1e-6);
    }

    #[test]
    fn empty_snapshot_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::empty().quantile(95.0), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1.0);
        a.record(2.0);
        b.record(500.0);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert!((merged.sum_ms() - 503.0).abs() < 1e-9);
        assert!((merged.max_ms() - 500.0).abs() < 1e-9);
        assert_eq!(merged.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn timer_records_on_drop() {
        let histogram = Arc::new(Histogram::new());
        {
            let _timer = HistogramTimer::new(Arc::clone(&histogram));
        }
        assert_eq!(histogram.count(), 1);
    }
}
