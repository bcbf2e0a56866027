//! The 10 Amazon EC2 regions of the paper (Table I) and their one-way
//! inter-region latencies (`L^R`, paper §V.A1).
//!
//! Prices are the paper's Table I values verbatim ($/GB, 2016 price book).
//! The latency matrix is a curated reconstruction: the paper measured 100
//! pings between `t2.micro` instances in every region pair and halved the
//! average RTT; we use one-way values consistent with published
//! cloudping-style measurements of the same epoch (e.g. Virginia↔Ireland
//! ≈ 40 ms one-way, Virginia↔Sydney ≈ 100 ms). See DESIGN.md §3.

// lint:allow-file(panic) this module embeds the paper's curated Table I constants; construction is exercised by this crate's unit tests, so the expects can only fire on a bad edit caught in CI
// lint:allow-file(indexing) the (i, j) pairs in INTER_REGION_MS are hand-written literals below 10, the fixed matrix dimension

use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::region::{Region, RegionSet};

/// Row data of the paper's Table I:
/// `(name, location, $EC2 per GB, $Inet per GB)`.
const TABLE_I: [(&str, &str, f64, f64); 10] = [
    ("us-east-1", "N. Virginia", 0.02, 0.09),
    ("us-west-1", "N. California", 0.02, 0.09),
    ("us-west-2", "Oregon", 0.02, 0.09),
    ("eu-west-1", "Ireland", 0.02, 0.09),
    ("eu-central-1", "Frankfurt", 0.02, 0.09),
    ("ap-northeast-1", "Tokyo", 0.09, 0.14),
    ("ap-northeast-2", "Seoul", 0.08, 0.126),
    ("ap-southeast-1", "Singapore", 0.09, 0.12),
    ("ap-southeast-2", "Sydney", 0.14, 0.14),
    ("sa-east-1", "Sao Paulo", 0.16, 0.25),
];

/// Index constants matching the paper's `R1..R10` numbering (zero-based).
pub mod regions {
    use multipub_core::ids::RegionId;
    /// `R1` — us-east-1 (N. Virginia).
    pub const US_EAST_1: RegionId = RegionId(0);
    /// `R2` — us-west-1 (N. California).
    pub const US_WEST_1: RegionId = RegionId(1);
    /// `R3` — us-west-2 (Oregon).
    pub const US_WEST_2: RegionId = RegionId(2);
    /// `R4` — eu-west-1 (Ireland).
    pub const EU_WEST_1: RegionId = RegionId(3);
    /// `R5` — eu-central-1 (Frankfurt).
    pub const EU_CENTRAL_1: RegionId = RegionId(4);
    /// `R6` — ap-northeast-1 (Tokyo).
    pub const AP_NORTHEAST_1: RegionId = RegionId(5);
    /// `R7` — ap-northeast-2 (Seoul).
    pub const AP_NORTHEAST_2: RegionId = RegionId(6);
    /// `R8` — ap-southeast-1 (Singapore).
    pub const AP_SOUTHEAST_1: RegionId = RegionId(7);
    /// `R9` — ap-southeast-2 (Sydney).
    pub const AP_SOUTHEAST_2: RegionId = RegionId(8);
    /// `R10` — sa-east-1 (São Paulo).
    pub const SA_EAST_1: RegionId = RegionId(9);
}

/// One-way inter-region latencies in milliseconds, upper triangle listed
/// as `(i, j, ms)` with `i < j`; the matrix is symmetric and zero on the
/// diagonal.
const INTER_REGION_MS: [(usize, usize, f64); 45] = [
    (0, 1, 35.0),
    (0, 2, 35.0),
    (0, 3, 40.0),
    (0, 4, 45.0),
    (0, 5, 75.0),
    (0, 6, 90.0),
    (0, 7, 110.0),
    (0, 8, 100.0),
    (0, 9, 60.0),
    (1, 2, 10.0),
    (1, 3, 70.0),
    (1, 4, 75.0),
    (1, 5, 55.0),
    (1, 6, 65.0),
    (1, 7, 85.0),
    (1, 8, 75.0),
    (1, 9, 95.0),
    (2, 3, 65.0),
    (2, 4, 70.0),
    (2, 5, 50.0),
    (2, 6, 60.0),
    (2, 7, 80.0),
    (2, 8, 70.0),
    (2, 9, 90.0),
    (3, 4, 12.0),
    (3, 5, 110.0),
    (3, 6, 125.0),
    (3, 7, 90.0),
    (3, 8, 140.0),
    (3, 9, 95.0),
    (4, 5, 115.0),
    (4, 6, 130.0),
    (4, 7, 85.0),
    (4, 8, 145.0),
    (4, 9, 100.0),
    (5, 6, 17.0),
    (5, 7, 35.0),
    (5, 8, 55.0),
    (5, 9, 130.0),
    (6, 7, 40.0),
    (6, 8, 70.0),
    (6, 9, 145.0),
    (7, 8, 45.0),
    (7, 9, 165.0),
    (8, 9, 155.0),
];

/// The region set of the paper's Table I.
///
/// ```
/// let regions = multipub_data::ec2::region_set();
/// assert_eq!(regions.len(), 10);
/// assert_eq!(regions.region(multipub_core::ids::RegionId(9)).name(), "sa-east-1");
/// ```
pub fn region_set() -> RegionSet {
    let regions = TABLE_I
        .iter()
        .map(|&(name, location, ec2, inet)| Region::new(name, location, ec2, inet))
        .collect();
    RegionSet::new(regions).expect("Table I is a valid region set")
}

/// The one-way inter-region latency matrix `L^R` for the 10 EC2 regions.
pub fn inter_region_latencies() -> InterRegionMatrix {
    let mut rows = vec![vec![0.0f64; 10]; 10];
    for &(i, j, ms) in &INTER_REGION_MS {
        rows[i][j] = ms;
        rows[j][i] = ms;
    }
    InterRegionMatrix::from_rows(rows).expect("curated matrix is valid")
}

/// A smaller deployment restricted to the first `n` regions (`R1..Rn`),
/// as used by the paper's runtime analysis (Fig. 6b). Returns the region
/// set and the matching inter-region matrix.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 10.
pub fn restricted_deployment(n: usize) -> (RegionSet, InterRegionMatrix) {
    assert!((1..=10).contains(&n), "EC2 deployment has 1..=10 regions, asked for {n}");
    let regions = TABLE_I[..n]
        .iter()
        .map(|&(name, location, ec2, inet)| Region::new(name, location, ec2, inet))
        .collect();
    let keep: Vec<RegionId> = (0..n as u8).map(RegionId).collect();
    (
        RegionSet::new(regions).expect("prefix of Table I is valid"),
        inter_region_latencies().restrict(&keep).expect("prefix restriction is valid"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_prices() {
        let set = region_set();
        let tokyo = set.region(regions::AP_NORTHEAST_1);
        assert_eq!(tokyo.inter_region_cost_per_gb(), 0.09);
        assert_eq!(tokyo.internet_cost_per_gb(), 0.14);
        let sao = set.region(regions::SA_EAST_1);
        assert_eq!(sao.internet_cost_per_gb(), 0.25);
        // US/EU regions share the cheap price point.
        for id in [regions::US_EAST_1, regions::US_WEST_2, regions::EU_CENTRAL_1] {
            assert_eq!(set.region(id).inter_region_cost_per_gb(), 0.02);
            assert_eq!(set.region(id).internet_cost_per_gb(), 0.09);
        }
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = inter_region_latencies();
        for i in 0..10u8 {
            assert_eq!(m.latency(RegionId(i), RegionId(i)), 0.0);
            for j in 0..10u8 {
                assert_eq!(
                    m.latency(RegionId(i), RegionId(j)),
                    m.latency(RegionId(j), RegionId(i))
                );
            }
        }
    }

    #[test]
    fn every_pair_has_a_latency() {
        let m = inter_region_latencies();
        for i in 0..10u8 {
            for j in 0..10u8 {
                if i != j {
                    let l = m.latency(RegionId(i), RegionId(j));
                    assert!((10.0..=170.0).contains(&l), "L^R[{i}][{j}] = {l}");
                }
            }
        }
    }

    #[test]
    fn intra_continent_faster_than_inter_continent() {
        let m = inter_region_latencies();
        let us = m.latency(regions::US_EAST_1, regions::US_WEST_2);
        let eu = m.latency(regions::EU_WEST_1, regions::EU_CENTRAL_1);
        let asia = m.latency(regions::AP_NORTHEAST_1, regions::AP_NORTHEAST_2);
        let transpacific = m.latency(regions::US_EAST_1, regions::AP_SOUTHEAST_1);
        assert!(us < transpacific);
        assert!(eu < transpacific);
        assert!(asia < transpacific);
    }

    #[test]
    fn cheapest_region_is_a_cheap_one() {
        let set = region_set();
        let cheapest =
            set.iter().map(|(_, r)| r.internet_cost_per_gb()).fold(f64::INFINITY, f64::min);
        assert_eq!(cheapest, 0.09);
    }

    #[test]
    fn restricted_deployment_prefix() {
        let (set, inter) = restricted_deployment(5);
        assert_eq!(set.len(), 5);
        assert_eq!(inter.len(), 5);
        assert_eq!(
            inter.latency(regions::US_EAST_1, regions::EU_WEST_1),
            inter_region_latencies().latency(regions::US_EAST_1, regions::EU_WEST_1)
        );
    }

    #[test]
    #[should_panic(expected = "1..=10")]
    fn restricted_deployment_rejects_zero() {
        let _ = restricted_deployment(0);
    }
}
