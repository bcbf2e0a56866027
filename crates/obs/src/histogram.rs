//! Log-bucketed latency histogram with atomic recording and
//! ceiling-rank quantile export.
//!
//! Values (milliseconds, `f64`) land in geometric buckets whose upper
//! bounds grow by `2^(1/4)` per bucket — four sub-buckets per octave,
//! bounding the relative quantile error at ≈19 % per octave / 4 ≈ 4.4 %.
//! The finite bounds span 1 µs to ≈4.7 h; larger values fall into an
//! overflow bucket whose representative is the observed maximum.
//! Recording is a handful of relaxed atomic adds plus one table lookup and
//! one comparison to find the bucket, so histograms are safe on broker hot
//! paths. A caller with many values to record fills a [`Tally`], which is
//! the same bookkeeping without atomics, and adds it with
//! [`Histogram::add`], paying the atomics once per batch.
//!
//! The atomics come from `multipub_sync` so loom can model them; two
//! things stay on `std` under loom too: the `OnceLock` around the
//! bucket tables (pure deterministic data, not an interleaving of
//! interest) and [`HistogramTimer`]'s `Instant` (loom does not model
//! time).

use std::sync::OnceLock;
use std::time::Instant;

use multipub_sync::{Arc, AtomicU64, Ordering};

use crate::quantile::ceiling_rank;

/// Number of finite geometric buckets.
const FINITE_BUCKETS: usize = 136;

/// Total bucket count, including the overflow (`+Inf`) bucket.
const BUCKET_COUNT: usize = FINITE_BUCKETS + 1;

/// Upper bound of the first bucket, in milliseconds (1 µs).
const FIRST_BOUND_MS: f64 = 0.001;

/// Mantissa bits that, with the exponent, name a value's slot. A slot
/// spans a ratio of at most `1 + 2^-3`, less than the `2^(1/4)` between
/// neighbouring bounds, so no slot holds two bounds.
const SLOT_MANTISSA_BITS: u32 = 3;

/// How many low bits of an `f64` lie below its slot bits.
const SLOT_SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SLOT_MANTISSA_BITS;

/// A positive value's slot: its exponent and top mantissa bits. The bits
/// of a positive `f64` grow with its value, and so do its slots.
fn slot_of(value_ms: f64) -> u64 {
    value_ms.to_bits() >> SLOT_SHIFT
}

struct Tables {
    /// Finite bucket upper bounds, strictly increasing.
    bounds: [f64; FINITE_BUCKETS],
    /// Per slot from the first bound's to the last bound's: the first
    /// bucket whose bound is at least the slot's smallest value.
    candidates: Vec<u8>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let ratio = 2f64.powf(0.25);
        let mut bounds = [0.0; FINITE_BUCKETS];
        let mut bound = FIRST_BOUND_MS;
        for slot in bounds.iter_mut() {
            *slot = bound;
            bound *= ratio;
        }
        let first_slot = slot_of(FIRST_BOUND_MS);
        let last_slot = slot_of(bounds.last().copied().unwrap_or(FIRST_BOUND_MS));
        let candidates = (first_slot..=last_slot)
            .map(|slot| {
                let smallest = f64::from_bits(slot << SLOT_SHIFT);
                // At most FINITE_BUCKETS = 136, so it fits.
                bounds.partition_point(|bound| *bound < smallest) as u8
            })
            .collect();
        Tables { bounds, candidates }
    })
}

/// Finite bucket upper bounds, strictly increasing.
fn bounds() -> &'static [f64; FINITE_BUCKETS] {
    &tables().bounds
}

/// The bucket a value falls into. Bucket `i` covers the half-open
/// interval `(bucket_lower_bound(i), bucket_upper_bound(i)]`; bucket 0
/// also absorbs zero and negative values, and the last bucket absorbs
/// everything above the largest finite bound.
///
/// The value's slot names a candidate: the first bucket whose bound is at
/// least the slot's smallest value. The slot holds at most one bound, so
/// the bucket is the candidate or, past that bound, the next one.
fn bucket_index(value_ms: f64) -> usize {
    let Tables { bounds, candidates } = tables();
    if value_ms <= FIRST_BOUND_MS {
        return 0;
    }
    if value_ms > bounds.last().copied().unwrap_or(FIRST_BOUND_MS) {
        return FINITE_BUCKETS;
    }
    // Only NaN gets this far without a slot; it lands in bucket 0, as in a
    // binary search over the bounds.
    let slot = slot_of(value_ms).wrapping_sub(slot_of(FIRST_BOUND_MS));
    let candidate = candidates.get(slot as usize).map_or(0, |&bucket| usize::from(bucket));
    candidate + usize::from(bounds.get(candidate).is_some_and(|bound| *bound < value_ms))
}

/// The inclusive upper bound of a bucket in milliseconds
/// (`f64::INFINITY` for the overflow bucket).
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
pub(crate) fn bucket_upper_bound(index: usize) -> f64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    bounds().get(index).copied().unwrap_or(f64::INFINITY)
}

/// The largest value one observation contributes to a histogram's sum
/// and maximum: 2^53 µs ≈ 285 years, far above the last finite bucket
/// bound (≈ 2^34 µs) and small enough that no single observation can
/// wrap the `u64` sum — that takes 2 048 of them.
const MAX_OBSERVATION_MICROS: u64 = 1 << 53;

/// A positive value in whole microseconds, halves rounded up, at most
/// [`MAX_OBSERVATION_MICROS`]: `(value_ms * 1000.0).round()`, clamped, but
/// without `f64::round`, which is a libm call on baseline x86-64.
fn to_micros(value_ms: f64) -> u64 {
    if value_ms <= 0.0 {
        return 0;
    }
    // Below the clamp, `micros - whole` is the exact fractional part of
    // `micros` and `whole` is exactly representable.
    let micros = (value_ms * 1000.0).min(MAX_OBSERVATION_MICROS as f64);
    let whole = micros as u64;
    whole + u64::from(micros - whole as f64 >= 0.5)
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

    /// Adds every observation of `tally`: one atomic add per touched bucket
    /// and one each for count, sum and maximum. The snapshot is then what
    /// [`Histogram::record`] would have made of the tally's values one by one.
    pub fn add(&self, tally: &Tally) {
        for (shared, &local) in self.buckets.iter().zip(&tally.buckets) {
            if local > 0 {
                shared.fetch_add(local, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(tally.count, Ordering::Relaxed);
        self.sum_micros.fetch_add(tally.sum_micros, Ordering::Relaxed);
        self.max_micros.fetch_max(tally.max_micros, Ordering::Relaxed);
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

/// Observations counted without atomics, for one owner to fill and then
/// add to a shared [`Histogram`] at once ([`Histogram::add`]). A value
/// lands as [`Histogram::record`] would land it: the same bucket, the same
/// micro rounding, NaN and ±∞ ignored, the same 2^53 µs clamp, and a sum
/// that wraps like the shared one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally { buckets: [0; BUCKET_COUNT], count: 0, sum_micros: 0, max_micros: 0 }
    }

    /// Counts one observation in milliseconds.
    pub fn record(&mut self, value_ms: f64) {
        if !value_ms.is_finite() {
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(bucket_index(value_ms)) {
            *bucket += 1;
        }
        self.count += 1;
        let micros = to_micros(value_ms);
        // The shared sum wraps (`fetch_add`), so this one does too.
        self.sum_micros = self.sum_micros.wrapping_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of counted observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Counts every observation of `other` too: the tally is then what one
    /// tally of both value sequences would be, in either order.
    pub fn merge(&mut self, other: &Tally) {
        for (bucket, &more) in self.buckets.iter_mut().zip(&other.buckets) {
            *bucket += more;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.wrapping_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

impl Default for Tally {
    fn default() -> Self {
        Tally::new()
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

    /// Per-bucket observation counts in increasing bound order; the last
    /// is the overflow bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(inclusive upper bound in ms, count)` of every non-empty finite
    /// bucket, in increasing bound order. The overflow bucket — the last
    /// of [`Self::buckets`] — has no finite bound and is not yielded.
    pub(crate) fn finite_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
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
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed().as_secs_f64() * 1000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exclusive lower bound of a bucket in milliseconds
    /// (`f64::NEG_INFINITY` for bucket 0, which absorbs non-positive values).
    fn bucket_lower_bound(index: usize) -> f64 {
        match index.checked_sub(1) {
            None => f64::NEG_INFINITY,
            Some(below) => bucket_upper_bound(below),
        }
    }

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
    fn bucket_index_is_the_binary_search_over_the_bounds() {
        let binary_search = |value: f64| bounds().partition_point(|bound| *bound < value);
        let check = |value: f64| {
            assert_eq!(
                bucket_index(value),
                binary_search(value),
                "{value:e} ({:#x})",
                value.to_bits()
            )
        };
        // Every bound and the 4 ulps on each side of it.
        for bound in bounds() {
            for ulps in -4i64..=4 {
                check(f64::from_bits(bound.to_bits().wrapping_add_signed(ulps)));
            }
        }
        let first = FIRST_BOUND_MS;
        let last = bucket_upper_bound(FINITE_BUCKETS - 1);
        for value in [
            0.0,
            -0.0,
            -1.0,
            -first,
            -last,
            f64::MIN,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            first,
            last,
            last * 1.5,
            1e300,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(value);
        }
        // Half of the draws uniform over all bits — every exponent, sign and
        // NaN payload — and half with an exponent between an octave below
        // the first bound and an octave above the last.
        let mut next = crate::xorshift(0x9E37_79B9_7F4A_7C15);
        let (low, high) = ((first / 2.0).to_bits() >> 52, (last * 2.0).to_bits() >> 52);
        let draws = if cfg!(miri) { 1_000 } else { 1_000_000 };
        for draw in 0..draws {
            let bits = next();
            let value = if draw % 2 == 0 {
                f64::from_bits(bits)
            } else {
                let exponent = low + next() % (high - low + 1);
                f64::from_bits(exponent << 52 | bits >> 12)
            };
            check(value);
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
    fn to_micros_rounds_like_f64_round() {
        let reference = |value_ms: f64| {
            if value_ms <= 0.0 {
                0
            } else {
                ((value_ms * 1000.0).round() as u64).min(MAX_OBSERVATION_MICROS)
            }
        };
        let check = |value_ms: f64| {
            assert_eq!(
                to_micros(value_ms),
                reference(value_ms),
                "{value_ms:e} ms ({:#x})",
                value_ms.to_bits()
            )
        };
        let two_52 = 2f64.powi(52) / 1000.0;
        let two_53 = MAX_OBSERVATION_MICROS as f64 / 1000.0;
        let mut edges = vec![
            0.0,
            -0.0,
            -1.0,
            0.49999999999999994,
            0.49999999999999994 / 1000.0,
            0.5 / 1000.0,
            1.5 / 1000.0,
            2.5 / 1000.0,
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            two_52,
            two_53,
            two_53 * 2.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        // k + 0.5 µs, exact in binary, for small k and just below 2^52.
        let halves = (0..64u64).chain((1u64 << 52) - 64..1 << 52);
        edges.extend(halves.map(|k| (k as f64 + 0.5) / 1000.0));
        // The 4 ulps on each side of 2^52 µs and of the 2^53 µs clamp.
        for around in [two_52, two_53] {
            edges.extend(
                (-4i64..=4).map(|ulps| f64::from_bits(around.to_bits().wrapping_add_signed(ulps))),
            );
        }
        edges.into_iter().for_each(check);
        // Seeded draws: log-uniform from 1e-6 ms to past the clamp, and
        // uniform over all bits of a positive finite value.
        let mut next = crate::xorshift(0x3C6E_F372_FE94_F82B);
        for draw in 0..100_000 {
            let value_ms = if draw % 2 == 0 {
                1e-6 * 10f64.powf((next() % 2_000_000) as f64 / 100_000.0)
            } else {
                f64::from_bits(next() % f64::MAX.to_bits())
            };
            check(value_ms);
        }
    }

    /// Fills one tally with `values` and adds it (and an empty one) to a
    /// histogram that already holds a value: the tally adds, it does not
    /// overwrite, and the snapshot is that of a record loop.
    fn check_added_tally(values: &[f64], context: &str) -> Tally {
        let (one_by_one, added) = (Histogram::new(), Histogram::new());
        one_by_one.record(12.0);
        added.record(12.0);
        let mut tally = Tally::new();
        values.iter().for_each(|&value| {
            one_by_one.record(value);
            tally.record(value);
        });
        added.add(&tally);
        added.add(&Tally::new());
        assert_eq!(added.snapshot(), one_by_one.snapshot(), "{context}");
        tally
    }

    #[test]
    fn an_added_tally_snapshots_like_a_record_loop() {
        let fixed = [f64::NAN, -2.0, 0.0004, 0.0005, 1.0, 37.5, 9.1e12, f64::INFINITY];
        assert_eq!(check_added_tally(&fixed, "fixed values").count(), 6);
    }

    /// A whole run's worth of values recorded at once, through one tally.
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
            check_added_tally(&values, &format!("{len} seeded values"));
        }
        // Enough clamped observations to wrap the sum: both wrap alike.
        check_added_tally(&[1e300; 2049], "2 049 clamped values");
    }

    #[test]
    fn merged_tallies_equal_one_tally_of_both() {
        let (first, second) = ([0.0004, 1.0, 37.5, f64::NAN], [9.1e12, 0.0005, 37.5]);
        let (mut whole, mut left, mut right) = (Tally::new(), Tally::new(), Tally::new());
        first.iter().chain(&second).for_each(|&value| whole.record(value));
        first.iter().for_each(|&value| left.record(value));
        second.iter().for_each(|&value| right.record(value));
        let mut merged = right.clone();
        merged.merge(&left);
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(merged, whole);
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
        assert_eq!(Histogram::new().snapshot().quantile(95.0), 0.0);
    }

    fn snapshot_of(values: &[f64]) -> HistogramSnapshot {
        let histogram = Histogram::new();
        values.iter().for_each(|&value| histogram.record(value));
        histogram.snapshot()
    }

    /// Between `min_len` and `max_len` values drawn uniformly from `[lo, hi)`.
    fn sample(
        next: &mut impl FnMut() -> u64,
        min_len: u64,
        max_len: u64,
        lo: f64,
        hi: f64,
    ) -> Vec<f64> {
        let len = min_len + next() % (max_len - min_len + 1);
        (0..len).map(|_| crate::uniform(next, lo, hi)).collect()
    }

    #[test]
    fn any_value_falls_in_a_bucket_whose_bounds_contain_it() {
        crate::for_each_seed(|seed| {
            let mut next = crate::xorshift(seed);
            for value in sample(&mut next, 16, 16, -1.0e3, 1.0e9) {
                let index = bucket_index(value);
                assert!(value > bucket_lower_bound(index), "{value} in bucket {index}");
                assert!(value <= bucket_upper_bound(index), "{value} in bucket {index}");
            }
        });
    }

    #[test]
    fn quantiles_are_monotone_in_the_ratio() {
        crate::for_each_seed(|seed| {
            let mut next = crate::xorshift(seed);
            let snapshot = snapshot_of(&sample(&mut next, 1, 199, 0.0, 1.0e7));
            let mut ratios = sample(&mut next, 2, 9, 0.0, 100.0);
            ratios.extend([0.0, 100.0]);
            ratios.sort_unstable_by(f64::total_cmp);
            let estimates: Vec<f64> = ratios.iter().map(|q| snapshot.quantile(*q)).collect();
            assert!(estimates.windows(2).all(|pair| pair[0] <= pair[1]), "{estimates:?}");
        });
    }

    #[test]
    fn quantile_brackets_the_exact_percentile_within_one_bucket() {
        crate::for_each_seed(|seed| {
            let mut next = crate::xorshift(seed);
            let values = sample(&mut next, 1, 99, 0.001, 1.0e6);
            let q = crate::uniform(&mut next, 0.1, 100.0);
            let exact = crate::quantile::percentile_exact(&mut values.clone(), q);
            let estimate = snapshot_of(&values).quantile(q);
            assert!(estimate >= exact, "q{q}: estimate {estimate} < exact {exact}");
            assert!(estimate <= exact * 1.19, "q{q}: estimate {estimate} > exact {exact} × 2^¼");
        });
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
