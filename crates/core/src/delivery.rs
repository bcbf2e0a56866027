//! Closest serving region `R^S`/`R^P` (§III.C), the delivery-time
//! equations (paper Eq. 1–2) and the delivery-time percentile `D̃_C`
//! (Eq. 5–6). Each is defined here once: the evaluator, the mitigation
//! scan, the cost model and the simulator's routing tables all call
//! [`closest_region`], and every model delivery time is computed by
//! [`direct_delivery_ms`] or [`routed_delivery_ms`].
//!
//! For a publication from publisher `P` to subscriber `S`:
//!
//! * **Direct** (Eq. 1): `D = L[P][R^S] + L[R^S][S]` — the publisher sends
//!   straight to the subscriber's region.
//! * **Routed** (Eq. 2): `D = L[P][R^P] + L^R[R^P][R^S] + L[R^S][S]` — the
//!   publisher sends to its own closest region, which forwards across the
//!   inter-cloud link.
//!
//! The constraint check needs the `n^T`-th smallest delivery time out of
//! all `N_S × Σ N_M` deliveries of the interval. Instead of materializing
//! that list (the paper's approach), we compute the same value from the
//! `N_P × N_S` pair latencies, each weighted by
//! `N_M^P × weight(S)` — design decision **D1** in DESIGN.md — and find it
//! by weighted *selection* ([`weighted_percentile`], expected linear time),
//! not by sorting: the rank-th value of a multiset does not depend on how it
//! was found. The feasibility question `D̃_C ≤ max_T` needs even less — a
//! count of weight under a threshold, which [`crate::evaluate`] takes without
//! building the samples at all: streaming over the pairs of a small topic,
//! and on a large one without even visiting most of them. Both equations are
//! a publisher term plus a subscriber term once the regions are fixed, and
//! floating-point addition is monotone, so over per-region sorted latency
//! columns the pairs within a threshold form a staircase that two pointers
//! trace in `P + S` steps — each step evaluating the functions below on the
//! pair at hand. There the percentile, too, is found by counting: a bisection
//! on the value narrows to a window of few pairs, and only those are
//! materialised for [`weighted_percentile`]. A materializing reference
//! implementation is kept for differential testing.

// lint:allow-file(indexing) Eq. 1-2 hot-path kernel: region indices come from AssignmentVector/closest_region, both bounded by the same region count as every latency vector (checked at TopicEvaluator construction)

use crate::assignment::AssignmentVector;
use crate::ids::RegionId;
use crate::latency::InterRegionMatrix;

/// The closest (latency-wise) region to a client among the regions of an
/// assignment; ties broken by lowest region id.
///
/// This is `R^S` / `R^P` of the paper (§III.C).
///
/// # Panics
///
/// Panics if `latencies` is narrower than the highest region in the
/// assignment.
///
/// ```
/// use multipub_core::delivery::closest_region;
/// use multipub_core::assignment::AssignmentVector;
/// use multipub_core::ids::RegionId;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let assignment = AssignmentVector::from_mask(0b110, 3)?;
/// // Region 0 is closest overall but not assigned.
/// assert_eq!(closest_region(&[1.0, 9.0, 4.0], assignment), RegionId(2));
/// # Ok(())
/// # }
/// ```
pub fn closest_region(latencies: &[f64], assignment: AssignmentVector) -> RegionId {
    let mut best: Option<(f64, RegionId)> = None;
    for region in assignment.iter() {
        let lat = latencies[region.index()];
        match best {
            Some((b, _)) if b <= lat => {}
            _ => best = Some((lat, region)),
        }
    }
    // lint:allow(panic) AssignmentVector rejects empty masks at construction, so the loop above always sets `best`
    best.expect("assignment vectors are non-empty by construction").1
}

/// Direct delivery time (Eq. 1): publisher → subscriber's region →
/// subscriber.
#[inline]
pub fn direct_delivery_ms(
    publisher_latencies: &[f64],
    subscriber_latencies: &[f64],
    subscriber_region: RegionId,
) -> f64 {
    publisher_latencies[subscriber_region.index()] + subscriber_latencies[subscriber_region.index()]
}

/// Routed delivery time (Eq. 2): publisher → its own region → subscriber's
/// region → subscriber. When `publisher_region == subscriber_region` the
/// inter-region hop is zero and this reduces to Eq. 1.
#[inline]
pub fn routed_delivery_ms(
    publisher_latencies: &[f64],
    subscriber_latencies: &[f64],
    publisher_region: RegionId,
    subscriber_region: RegionId,
    inter: &InterRegionMatrix,
) -> f64 {
    publisher_latencies[publisher_region.index()]
        + inter.latency(publisher_region, subscriber_region)
        + subscriber_latencies[subscriber_region.index()]
}

/// One delivery-time sample with a multiplicity: `weight` deliveries all
/// experienced `time_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedSample {
    /// Delivery time in milliseconds.
    pub time_ms: f64,
    /// How many (message, subscriber) deliveries share this time.
    pub weight: u64,
}

/// At or below this many samples a sort and a scan beat another partition.
const SELECTION_CUTOFF: usize = 32;

/// The `rank`-th smallest delivery time (1-based) of a weighted sample
/// multiset — the delivery-time percentile `D̃_C` of Eq. 6.
///
/// Found by selection: partition around the median sample, sum the weight
/// below it, and continue in the one side that holds the rank — expected
/// `O(n)` against the `O(n log n)` of sorting everything to read one entry.
///
/// `samples` is reordered in place. Returns 0.0 when `rank` is 0 (an empty
/// interval is trivially feasible) and the overall maximum when `rank`
/// exceeds the total weight.
pub fn weighted_percentile(samples: &mut [WeightedSample], rank: u64) -> f64 {
    if rank == 0 || samples.is_empty() {
        return 0.0;
    }
    let by_time = |a: &WeightedSample, b: &WeightedSample| a.time_ms.total_cmp(&b.time_ms);
    // The answer is the `rank`-th smallest of `window`; every sample outside
    // it is already known to sort before (its weight taken off `rank`) or after.
    let mut window = samples;
    let mut rank = rank;
    while window.len() > SELECTION_CUTOFF {
        let whole = window;
        let (below, median, above) = whole.select_nth_unstable_by(whole.len() / 2, by_time);
        let below_weight: u64 = below.iter().map(|sample| sample.weight).sum();
        if rank <= below_weight {
            window = below;
        } else if rank <= below_weight + median.weight {
            return median.time_ms;
        } else {
            // `above` holds at least 16 samples here, so a rank beyond the
            // total weight ends in the scan below, on the overall maximum.
            rank -= below_weight + median.weight;
            window = above;
        }
    }
    window.sort_unstable_by(by_time);
    let mut cumulative = 0u64;
    for sample in window.iter() {
        cumulative += sample.weight;
        if cumulative >= rank {
            return sample.time_ms;
        }
    }
    // lint:allow(panic) `window` is never empty: `samples` is not, and a partition only narrows to a side that has samples
    window.last().expect("window non-empty").time_ms
}

/// Reference implementation of the percentile that materializes every
/// delivery time, exactly as the paper describes building `𝔻_C`
/// (§IV.A). Quadratic in memory; used only for differential testing and as
/// an ablation bench baseline.
pub fn materialized_percentile(samples: &[WeightedSample], rank: u64) -> f64 {
    if rank == 0 {
        return 0.0;
    }
    let mut all: Vec<f64> = Vec::new();
    for sample in samples {
        for _ in 0..sample.weight {
            all.push(sample.time_ms);
        }
    }
    if all.is_empty() {
        return 0.0;
    }
    all.sort_unstable_by(f64::total_cmp);
    let idx = (rank as usize).min(all.len()) - 1;
    all[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentVector;
    use crate::testing::SplitMix64;

    fn sample_inter() -> InterRegionMatrix {
        InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 120.0],
            vec![90.0, 120.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn closest_region_ignores_unassigned() {
        let a = AssignmentVector::from_mask(0b100, 3).unwrap();
        assert_eq!(closest_region(&[0.0, 1.0, 50.0], a), RegionId(2));
    }

    #[test]
    fn closest_region_breaks_ties_by_id() {
        let a = AssignmentVector::from_mask(0b111, 3).unwrap();
        assert_eq!(closest_region(&[5.0, 5.0, 5.0], a), RegionId(0));
    }

    #[test]
    fn direct_matches_equation_1() {
        // L[P][R^S] = 30, L[R^S][S] = 12.
        let d = direct_delivery_ms(&[10.0, 30.0], &[40.0, 12.0], RegionId(1));
        assert_eq!(d, 42.0);
    }

    #[test]
    fn routed_matches_equation_2() {
        let inter = sample_inter();
        // L[P][R^P]=10 + L^R[0][2]=90 + L[R^S][S]=7.
        let d = routed_delivery_ms(
            &[10.0, 50.0, 80.0],
            &[99.0, 99.0, 7.0],
            RegionId(0),
            RegionId(2),
            &inter,
        );
        assert_eq!(d, 107.0);
    }

    #[test]
    fn routed_same_region_reduces_to_direct() {
        let inter = sample_inter();
        let pubs = [10.0, 50.0, 80.0];
        let subs = [9.0, 99.0, 7.0];
        let routed = routed_delivery_ms(&pubs, &subs, RegionId(0), RegionId(0), &inter);
        let direct = direct_delivery_ms(&pubs, &subs, RegionId(0));
        assert_eq!(routed, direct);
    }

    #[test]
    fn weighted_percentile_basic() {
        let mut s = vec![
            WeightedSample { time_ms: 10.0, weight: 3 },
            WeightedSample { time_ms: 20.0, weight: 2 },
            WeightedSample { time_ms: 30.0, weight: 1 },
        ];
        // Sorted multiset: 10,10,10,20,20,30. Rank 4 → 20.
        assert_eq!(weighted_percentile(&mut s, 4), 20.0);
        assert_eq!(weighted_percentile(&mut s, 1), 10.0);
        assert_eq!(weighted_percentile(&mut s, 6), 30.0);
    }

    #[test]
    fn weighted_percentile_rank_overflow_returns_max() {
        let mut s = vec![WeightedSample { time_ms: 5.0, weight: 2 }];
        assert_eq!(weighted_percentile(&mut s, 100), 5.0);
    }

    #[test]
    fn weighted_percentile_rank_zero() {
        let mut s = vec![WeightedSample { time_ms: 5.0, weight: 2 }];
        assert_eq!(weighted_percentile(&mut s, 0), 0.0);
        let mut empty: Vec<WeightedSample> = vec![];
        assert_eq!(weighted_percentile(&mut empty, 3), 0.0);
    }

    #[test]
    fn weighted_matches_materialized() {
        let samples = vec![
            WeightedSample { time_ms: 42.0, weight: 5 },
            WeightedSample { time_ms: 13.0, weight: 1 },
            WeightedSample { time_ms: 99.0, weight: 4 },
            WeightedSample { time_ms: 42.0, weight: 2 },
        ];
        let total: u64 = samples.iter().map(|s| s.weight).sum();
        for rank in 1..=total {
            let mut w = samples.clone();
            assert_eq!(
                weighted_percentile(&mut w, rank),
                materialized_percentile(&samples, rank),
                "rank {rank}"
            );
        }
    }

    /// The percentile as it was computed before selection: sort everything,
    /// scan to the rank. Kept as a second oracle next to the materializing one.
    fn sorted_percentile(samples: &mut [WeightedSample], rank: u64) -> f64 {
        if rank == 0 || samples.is_empty() {
            return 0.0;
        }
        samples.sort_unstable_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
        let mut cumulative = 0u64;
        for sample in samples.iter() {
            cumulative += sample.weight;
            if cumulative >= rank {
                return sample.time_ms;
            }
        }
        samples.last().unwrap().time_ms
    }

    #[test]
    fn selection_matches_materialization_and_sorting() {
        let mut rng = SplitMix64(0x5E1E_C710_4E57_0001);
        // CI also interprets this crate's tests under Miri, ~100× slower.
        let (multisets, longest) = if cfg!(miri) { (6, 150) } else { (90, 2000) };
        let by_time_then_weight = |a: &WeightedSample, b: &WeightedSample| {
            a.time_ms.total_cmp(&b.time_ms).then(a.weight.cmp(&b.weight))
        };
        for multiset in 0..multisets {
            // A third straddle the selection cut-off, a third are a few
            // partitions long, a third long; every other one has few distinct
            // times, so that partitions are full of equal keys.
            let len = match multiset % 3 {
                0 => rng.range(1, 80),
                1 => rng.range(81, 300),
                _ => rng.range(301, longest.max(301)),
            };
            let distinct = if multiset % 2 == 0 { rng.range(1, 40) } else { 4 * len };
            let samples: Vec<WeightedSample> = (0..len)
                .map(|_| WeightedSample {
                    time_ms: rng.range(0, distinct) as f64 * 0.25,
                    weight: rng.range(1, 50),
                })
                .collect();
            let total: u64 = samples.iter().map(|s| s.weight).sum();
            let mut original = samples.clone();
            original.sort_unstable_by(by_time_then_weight);

            let check = |rank: u64, materialize: bool| {
                let mut selected = samples.clone();
                let got = weighted_percentile(&mut selected, rank);
                let context = format!("multiset {multiset}, {len} samples, rank {rank}/{total}");
                assert_eq!(got, sorted_percentile(&mut samples.clone(), rank), "{context}");
                if materialize {
                    assert_eq!(got, materialized_percentile(&samples, rank), "{context}");
                }
                // Reordered in place, nothing lost or altered.
                selected.sort_unstable_by(by_time_then_weight);
                assert_eq!(selected, original, "{context}");
            };
            let quartiles = (1..=3).flat_map(|q| [q * total / 4, q * total / 4 + 1]);
            [0, 1, total, total + 1]
                .into_iter()
                .chain(quartiles)
                .for_each(|rank| check(rank, true));
            // Where a partition puts a rank that falls exactly between two
            // samples is the selection's one delicate spot: try them all.
            if len <= 300 {
                let mut cumulative = 0;
                for sample in &original {
                    cumulative += sample.weight;
                    check(cumulative, false);
                    check(cumulative + 1, false);
                }
            }
        }
    }
}
