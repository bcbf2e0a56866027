//! Property tests for the histogram invariants: bucket containment,
//! quantile monotonicity, merge additivity, and agreement between the
//! bucketed quantile and the exact ceiling-rank percentile.

use multipub_obs::histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot,
};
use multipub_obs::quantile::{ceiling_rank, percentile_exact};
use proptest::prelude::*;

fn snapshot_of(values: &[f64]) -> HistogramSnapshot {
    let histogram = Histogram::new();
    for &value in values {
        histogram.record(value);
    }
    histogram.snapshot()
}

proptest! {
    /// A recorded value always falls in a bucket whose bounds contain it.
    #[test]
    fn recorded_value_falls_in_containing_bucket(value in -1.0e3f64..1.0e9) {
        let index = bucket_index(value);
        prop_assert!(value > bucket_lower_bound(index), "index {index}");
        prop_assert!(value <= bucket_upper_bound(index), "index {index}");
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_are_monotone_in_q(
        values in proptest::collection::vec(0.0f64..1.0e7, 1..200),
        mut qs in proptest::collection::vec(0.0f64..=100.0, 2..10),
    ) {
        let snapshot = snapshot_of(&values);
        qs.sort_unstable_by(f64::total_cmp);
        let estimates: Vec<f64> = qs.iter().map(|q| snapshot.quantile(*q)).collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "{estimates:?}");
        }
    }

    /// merge(a, b) has count(a) + count(b) observations, bucket by bucket.
    #[test]
    fn merge_count_is_sum_of_counts(
        a in proptest::collection::vec(0.0f64..1.0e7, 0..100),
        b in proptest::collection::vec(0.0f64..1.0e7, 0..100),
    ) {
        let snapshot_a = snapshot_of(&a);
        let snapshot_b = snapshot_of(&b);
        let merged = snapshot_a.merge(&snapshot_b);
        prop_assert_eq!(merged.count(), snapshot_a.count() + snapshot_b.count());
        prop_assert_eq!(merged.buckets().iter().sum::<u64>(), (a.len() + b.len()) as u64);
        prop_assert!((merged.sum_ms() - (snapshot_a.sum_ms() + snapshot_b.sum_ms())).abs() < 1e-6);
    }

    /// The bucketed quantile brackets the exact ceiling-rank percentile
    /// from above, within one bucket factor (2^(1/4)).
    #[test]
    fn histogram_quantile_brackets_exact_percentile(
        values in proptest::collection::vec(0.001f64..1.0e6, 1..100),
        q in 0.1f64..100.0,
    ) {
        let snapshot = snapshot_of(&values);
        let exact = percentile_exact(&mut values.clone(), q);
        let estimate = snapshot.quantile(q);
        prop_assert!(estimate >= exact, "estimate {estimate} < exact {exact}");
        prop_assert!(estimate <= exact * 1.19, "estimate {estimate} > exact {exact} × 2^¼");
    }

    /// The ceiling rank is monotone in the ratio and always in [1, n].
    #[test]
    fn ceiling_rank_is_monotone_and_bounded(
        count in 1u64..10_000,
        lo in 0.0f64..=100.0,
        hi in 0.0f64..=100.0,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let rank_lo = ceiling_rank(lo, count);
        let rank_hi = ceiling_rank(hi, count);
        prop_assert!(rank_lo <= rank_hi);
        prop_assert!((1..=count).contains(&rank_lo));
        prop_assert!((1..=count).contains(&rank_hi));
    }
}
