//! Ceiling-rank percentile math, shared between the simulator's exact
//! reports and the histogram's bucketed quantiles.
//!
//! The paper's Eq. 5 defines the delivery percentile as the value at
//! the **ceiling rank**: for a population of `n` samples and a ratio
//! `r` percent, the rank is `ceil(r × n / 100)`, clamped to `[1, n]`.
//! [`percentile_exact`] (over raw samples),
//! [`crate::HistogramSnapshot::quantile`] (over bucket counts) and the
//! optimizer's `DeliveryConstraint::rank` all use the same
//! [`ceiling_rank`], so the model, the sim and the live paths agree on
//! which sample the percentile is.

/// The 1-based ceiling rank of the `ratio_percent`-th percentile in a
/// population of `count` samples (Eq. 5). Returns 0 when `count` is 0.
///
/// Out-of-range or non-finite ratios are clamped: anything at or below
/// zero ranks first, anything at or above 100 ranks last.
pub fn ceiling_rank(ratio_percent: f64, count: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Multiply first: `r × n` is exact for integer-valued ratios, whereas
    // `r / 100` is not (7 % of 100 would rank 8th, 55 % of 100 56th).
    let rank = (ratio_percent * count as f64 / 100.0).ceil();
    // `as u64` saturates: negatives and NaN become 0, huge values u64::MAX.
    (rank as u64).clamp(1, count)
}

/// Exact ceiling-rank percentile over raw samples: the sample a full
/// sort would leave at the rank (total order, so NaN samples rank last),
/// found by selection. Reorders `values` — the ranked sample ends at
/// index `rank - 1` with nothing greater before it — but does not sort
/// them. Returns 0.0 for an empty slice.
pub fn percentile_exact(values: &mut [f64], ratio_percent: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ceiling_rank(ratio_percent, values.len() as u64) as usize;
    // `ceiling_rank` returns 1..=len for the non-empty slice checked above.
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_rank_matches_eq5() {
        // ceil(0.75 × 4) = 3.
        assert_eq!(ceiling_rank(75.0, 4), 3);
        assert_eq!(ceiling_rank(100.0, 4), 4);
        assert_eq!(ceiling_rank(1.0, 4), 1);
        // Clamping.
        assert_eq!(ceiling_rank(0.0, 4), 1);
        assert_eq!(ceiling_rank(-5.0, 4), 1);
        assert_eq!(ceiling_rank(250.0, 4), 4);
        assert_eq!(ceiling_rank(f64::NAN, 4), 1);
        assert_eq!(ceiling_rank(95.0, 0), 0);
    }

    #[test]
    fn ceiling_rank_is_exact_for_integer_ratios() {
        // Regression: dividing the ratio by 100 before multiplying gave
        // 290 off-by-one ranks in this range (7 % × 100 → 8).
        for ratio in 1u64..=100 {
            for count in 1u64..=2000 {
                let expected = (ratio * count).div_ceil(100);
                assert_eq!(ceiling_rank(ratio as f64, count), expected, "{ratio} % of {count}");
            }
        }
    }

    #[test]
    fn ceiling_rank_is_monotone_in_the_ratio_and_within_one_to_n() {
        crate::for_each_seed(|seed| {
            let mut next = crate::xorshift(seed);
            let count = 1 + next() % 9_999;
            let a = crate::uniform(&mut next, 0.0, 100.0);
            let b = crate::uniform(&mut next, 0.0, 100.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let (rank_lo, rank_hi) = (ceiling_rank(lo, count), ceiling_rank(hi, count));
            assert!(rank_lo <= rank_hi, "{lo} % → {rank_lo}, {hi} % → {rank_hi} of {count}");
            assert!((1..=count).contains(&rank_lo) && (1..=count).contains(&rank_hi));
        });
    }

    #[test]
    fn percentile_exact_matches_sim_report_pins() {
        // The same cases `SimReport::percentile_ms` pins in netsim.
        let mut values = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_exact(&mut values, 75.0), 30.0);
        assert_eq!(percentile_exact(&mut values, 100.0), 40.0);
        assert_eq!(percentile_exact(&mut values, 1.0), 10.0);
    }

    #[test]
    fn percentile_exact_selects_from_unsorted_input() {
        let mut values = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile_exact(&mut values, 50.0), 20.0);
        // Partitioned around the rank, not necessarily sorted.
        assert_eq!(values[1], 20.0);
        assert_eq!(values[0], 10.0);
    }

    #[test]
    fn percentile_exact_is_the_sorted_rank_under_the_total_order() {
        // Seeded samples with duplicates, signed zeros, infinities and NaNs:
        // at every rank the selection returns what a full sort leaves there.
        let mut next = crate::xorshift(0x9E37_79B9_7F4A_7C15);
        for len in [1usize, 2, 3, 10, 257] {
            let samples: Vec<f64> = (0..len)
                .map(|_| match next() % 16 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    _ => (next() % 50) as f64 / 4.0 - 3.0,
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            for ratio in [0.0, 1.0, 33.3, 50.0, 75.0, 99.0, 100.0] {
                let rank = ceiling_rank(ratio, len as u64) as usize;
                let picked = percentile_exact(&mut samples.clone(), ratio);
                assert_eq!(picked.to_bits(), sorted[rank - 1].to_bits(), "{ratio} % of {len}");
            }
        }
    }

    #[test]
    fn percentile_exact_empty_is_zero() {
        assert_eq!(percentile_exact(&mut [], 95.0), 0.0);
    }
}
