//! Synthetic client↔region latencies standing in for the King dataset
//! (paper §V.A2).
//!
//! The paper pinged ~700 geo-distributed DNS servers of the King dataset
//! from every EC2 region to build the client latency matrix `L`. We do not
//! have those hosts, so we synthesize clients with the properties the
//! model needs (DESIGN.md §3):
//!
//! * each client has a **home region** it is close to;
//! * its latency to other regions grows with the inter-region distance
//!   from its home, **inflated** by a factor > 1: clients reach remote
//!   regions over the public Internet, which is less optimized than the
//!   dedicated inter-cloud links (this is exactly why the paper's routed
//!   delivery can beat direct delivery — §II-B2, Fig. 4);
//! * the **last mile** is heavy-tailed (log-normal, median a few tens of
//!   milliseconds, like King's DNS-server measurements), producing the
//!   occasional straggler that §IV.D mitigation targets.
//!
//! All sampling is deterministic given the caller's seeded RNG. A row is
//! allocated once, as the `Arc<[f64]>` the model's and the simulator's
//! clients share.

use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use std::sync::Arc;

/// Last-mile median (ms), in line with King's residential DNS-server
/// latencies.
const LAST_MILE_MEDIAN_MS: f64 = 15.0;
/// Log-normal shape parameter of the last mile.
const LAST_MILE_SIGMA: f64 = 0.45;
/// Per-region jitter amplitude (ms).
const JITTER_MS: f64 = 5.0;
/// Inflation of the backbone distance when a client reaches a *remote*
/// region over the public Internet instead of the optimized inter-cloud
/// links (paper §II-B2: "inter-cloud links are often more optimized").
const REMOTE_PATH_INFLATION: f64 = 1.3;

/// Generates client latency rows relative to a home region.
///
/// ```
/// use multipub_data::{ec2, king::ClientLatencyModel};
/// use rand::{rngs::StdRng, SeedableRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inter = ec2::inter_region_latencies();
/// let model = ClientLatencyModel::new(&inter);
/// let mut rng = StdRng::seed_from_u64(7);
/// let row = model.sample(ec2::regions::EU_WEST_1, &mut rng);
/// assert_eq!(row.len(), 10);
/// // The home region is (close to) the nearest one.
/// let home = row[ec2::regions::EU_WEST_1.index()];
/// assert!(row.iter().all(|&l| l + 1e-9 >= home - 5.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClientLatencyModel<'a> {
    inter: &'a InterRegionMatrix,
    last_mile: LogNormal<f64>,
}

impl<'a> ClientLatencyModel<'a> {
    /// Creates the model: a log-normal last mile (median 15 ms, σ = 0.45),
    /// ±5 ms per-region jitter and 1.3× remote-path inflation.
    pub fn new(inter: &'a InterRegionMatrix) -> Self {
        let last_mile = LogNormal::new(LAST_MILE_MEDIAN_MS.ln(), LAST_MILE_SIGMA)
            // lint:allow(panic) the sigma constant is non-negative, all the distribution checks
            .expect("sigma is non-negative");
        ClientLatencyModel { inter, last_mile }
    }

    /// Samples the latency row of one client whose home is `home`:
    /// `L[C][r] = last_mile + inflation × L^R[home][r] + jitter_r`.
    pub fn sample<R: Rng + ?Sized>(&self, home: RegionId, rng: &mut R) -> Arc<[f64]> {
        let last_mile = self.last_mile.sample(rng);
        self.row_with_last_mile(home, last_mile, rng)
    }

    /// Samples a *straggler*: a client whose last mile is `factor`× the
    /// usual sample — modelling the temporarily degraded connections of
    /// paper §IV.D.
    pub fn sample_straggler<R: Rng + ?Sized>(
        &self,
        home: RegionId,
        factor: f64,
        rng: &mut R,
    ) -> Arc<[f64]> {
        let last_mile = self.last_mile.sample(rng) * factor;
        self.row_with_last_mile(home, last_mile, rng)
    }

    fn row_with_last_mile<R: Rng + ?Sized>(
        &self,
        home: RegionId,
        last_mile: f64,
        rng: &mut R,
    ) -> Arc<[f64]> {
        let n = self.inter.len();
        assert!(home.index() < n, "home region out of bounds");
        (0..n)
            .map(|r| {
                let backbone = REMOTE_PATH_INFLATION * self.inter.latency(home, RegionId(r as u8));
                last_mile + backbone + rng.random_range(0.0..JITTER_MS)
            })
            .collect()
    }
}

/// A generated client: its home region and its latency row.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticClient {
    /// The region the client is closest to.
    pub home: RegionId,
    /// One-way latency towards each region, in milliseconds.
    pub latencies: Arc<[f64]>,
}

/// Generates `per_region[i]` clients homed at region `i`.
///
/// Clients come out grouped by home region, in region order — callers that
/// need interleaving can shuffle with their own RNG.
pub fn generate_population<R: Rng + ?Sized>(
    model: &ClientLatencyModel<'_>,
    per_region: &[usize],
    rng: &mut R,
) -> Vec<SyntheticClient> {
    let mut clients = Vec::with_capacity(per_region.iter().sum());
    for (region_index, &count) in per_region.iter().enumerate() {
        let home = RegionId(region_index as u8);
        for _ in 0..count {
            clients.push(SyntheticClient { home, latencies: model.sample(home, rng) });
        }
    }
    clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec2;
    use multipub_core::delivery::closest_region;
    use multipub_core::prelude::AssignmentVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_have_region_width() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let mut rng = StdRng::seed_from_u64(1);
        let row = model.sample(ec2::regions::US_EAST_1, &mut rng);
        assert_eq!(row.len(), 10);
        assert!(row.iter().all(|l| l.is_finite() && *l >= 0.0));
    }

    #[test]
    fn home_region_is_usually_closest() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let mut rng = StdRng::seed_from_u64(42);
        let all = AssignmentVector::all(10).unwrap();
        let mut matches = 0;
        for _ in 0..200 {
            let row = model.sample(ec2::regions::AP_NORTHEAST_1, &mut rng);
            if closest_region(&row, all) == ec2::regions::AP_NORTHEAST_1 {
                matches += 1;
            }
        }
        // Jitter (±5 ms) can only flip ties with Seoul (17 ms away), so
        // the home region should win essentially always.
        assert!(matches >= 190, "home matched only {matches}/200 times");
    }

    #[test]
    fn deterministic_given_seed() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let a = model.sample(ec2::regions::EU_WEST_1, &mut StdRng::seed_from_u64(9));
        let b = model.sample(ec2::regions::EU_WEST_1, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn straggler_is_slower() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let normal = model.sample(ec2::regions::US_WEST_2, &mut StdRng::seed_from_u64(3));
        let slow =
            model.sample_straggler(ec2::regions::US_WEST_2, 10.0, &mut StdRng::seed_from_u64(3));
        assert!(slow[0] > normal[0]);
    }

    #[test]
    fn population_counts_and_homes() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let mut rng = StdRng::seed_from_u64(5);
        let clients = generate_population(&model, &[2, 0, 3, 0, 0, 0, 0, 0, 0, 1], &mut rng);
        assert_eq!(clients.len(), 6);
        assert_eq!(clients.iter().filter(|c| c.home == RegionId(2)).count(), 3);
        assert_eq!(clients.last().unwrap().home, ec2::regions::SA_EAST_1);
    }

    #[test]
    fn remote_paths_are_slower_than_the_backbone() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let mut rng = StdRng::seed_from_u64(0);
        let (home, remote) = (ec2::regions::AP_NORTHEAST_1, ec2::regions::US_EAST_1);
        let row = model.sample(home, &mut rng);
        // Both entries share the last mile and differ by the inflated
        // backbone plus two jitters: the client's own cross-ocean path is
        // 1.3× slower than the inter-cloud link — the reason routed
        // delivery can win (paper Fig. 4).
        let inflated = row[remote.index()] - row[home.index()];
        assert!((inflated - 1.3 * inter.latency(home, remote)).abs() < JITTER_MS);
    }

    /// FNV-1a over every latency of two population shapes under two seeds,
    /// each followed by one straggler: moves if any draw or any parameter of
    /// the model does.
    #[test]
    fn populations_are_pinned() {
        let inter = ec2::inter_region_latencies();
        let model = ClientLatencyModel::new(&inter);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for seed in [1, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            for per_region in [&[1; 10][..], &[3, 0, 2, 0, 0, 4, 0, 0, 0, 1]] {
                let clients = generate_population(&model, per_region, &mut rng);
                let straggler = model.sample_straggler(ec2::regions::SA_EAST_1, 8.0, &mut rng);
                for row in clients.iter().map(|c| &c.latencies).chain([&straggler]) {
                    for byte in row.iter().flat_map(|l| l.to_bits().to_le_bytes()) {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(digest, 0x1ab6_d96f_107f_60ba);
    }
}
