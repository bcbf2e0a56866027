//! Cloud regions and their outgoing-bandwidth cost rates.
//!
//! The MultiPub cost model (paper §III.E) only considers bandwidth: inbound
//! traffic is free, while outgoing traffic is billed per byte at two
//! different rates — `α(R)` towards another cloud region and `β(R)` towards
//! any Internet client. Rates differ widely between regions (Table I of the
//! paper), which is what makes region selection a cost optimization.

use crate::error::Error;
use crate::ids::RegionId;

/// Number of bytes in a gigabyte as billed by cloud providers (10^9).
const BYTES_PER_GB: f64 = 1_000_000_000.0;

/// Maximum number of regions supported by the `u32` bitmask representation
/// of assignment vectors.
pub(crate) const MAX_REGIONS: usize = 32;

/// A single cloud region with its outgoing-bandwidth prices.
///
/// ```
/// use multipub_core::region::Region;
/// let tokyo = Region::new("ap-northeast-1", "Tokyo", 0.09, 0.14);
/// assert_eq!(tokyo.name(), "ap-northeast-1");
/// assert!(tokyo.internet_cost_per_gb() > tokyo.inter_region_cost_per_gb());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    name: String,
    location: String,
    inter_region_cost_per_gb: f64,
    internet_cost_per_gb: f64,
}

impl Region {
    /// Creates a region.
    ///
    /// `inter_region_cost_per_gb` is the `$EC2` column of the paper's
    /// Table I (cost of 1 GB sent to another cloud region, the `α` rate);
    /// `internet_cost_per_gb` is the `$Inet` column (cost of 1 GB sent to
    /// any Internet node, the `β` rate).
    pub fn new(
        name: impl Into<String>,
        location: impl Into<String>,
        inter_region_cost_per_gb: f64,
        internet_cost_per_gb: f64,
    ) -> Self {
        Region {
            name: name.into(),
            location: location.into(),
            inter_region_cost_per_gb,
            internet_cost_per_gb,
        }
    }

    /// Provider name of the region (e.g. `us-east-1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable location (e.g. `N. Virginia`).
    pub fn location(&self) -> &str {
        &self.location
    }

    /// Price in dollars of sending 1 GB to another cloud region (`α`-rate).
    pub fn inter_region_cost_per_gb(&self) -> f64 {
        self.inter_region_cost_per_gb
    }

    /// Price in dollars of sending 1 GB to an Internet client (`β`-rate).
    pub fn internet_cost_per_gb(&self) -> f64 {
        self.internet_cost_per_gb
    }

    fn validate(&self) -> Result<(), Error> {
        for rate in [self.inter_region_cost_per_gb, self.internet_cost_per_gb] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(Error::InvalidCostRate { value: rate });
            }
        }
        Ok(())
    }
}

/// An ordered, validated set of cloud regions.
///
/// The position of a region in the set is its [`RegionId`]; the same index
/// addresses the region's row/column in the latency matrices and its bit in
/// assignment vectors.
///
/// ```
/// use multipub_core::region::{Region, RegionSet};
/// # fn main() -> Result<(), multipub_core::Error> {
/// let set = RegionSet::new(vec![
///     Region::new("us-east-1", "N. Virginia", 0.02, 0.09),
///     Region::new("sa-east-1", "Sao Paulo", 0.16, 0.25),
/// ])?;
/// assert_eq!(set.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSet {
    regions: Vec<Region>,
}

impl RegionSet {
    /// Creates a region set from 1–32 regions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionCount`] when the vector is empty or holds more
    /// than 32 regions, and [`Error::InvalidCostRate`] when any region
    /// has a negative or non-finite price.
    pub fn new(regions: Vec<Region>) -> Result<Self, Error> {
        if regions.is_empty() || regions.len() > MAX_REGIONS {
            return Err(Error::RegionCount { got: regions.len() });
        }
        for region in &regions {
            region.validate()?;
        }
        Ok(RegionSet { regions })
    }

    /// Number of regions in the set (`N_R^total` in the paper).
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if the set holds no regions. Always `false` for a
    /// successfully constructed set; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region at the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn region(&self, id: RegionId) -> &Region {
        // lint:allow(indexing) documented panic contract: callers index with ids minted by this RegionSet
        &self.regions[id.index()]
    }

    /// Iterates over `(RegionId, &Region)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions.iter().enumerate().map(|(i, r)| (RegionId(i as u8), r))
    }

    /// All region ids in order.
    pub fn ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len()).map(|i| RegionId(i as u8))
    }

    /// Cost in dollars of one outgoing byte from `region` to another cloud
    /// region — the `α(R)` rate of the paper.
    pub fn alpha_per_byte(&self, region: RegionId) -> f64 {
        self.region(region).inter_region_cost_per_gb() / BYTES_PER_GB
    }

    /// Cost in dollars of one outgoing byte from `region` to an Internet
    /// client — the `β(R)` rate of the paper.
    pub fn beta_per_byte(&self, region: RegionId) -> f64 {
        self.region(region).internet_cost_per_gb() / BYTES_PER_GB
    }

    /// The region with the lowest Internet egress price (ties broken by
    /// lowest id). This is the natural anchor for the *One Region*
    /// baseline and for pruning heuristics.
    pub(crate) fn cheapest_internet_region(&self) -> RegionId {
        let mut best = RegionId(0);
        for (id, region) in self.iter() {
            if region.internet_cost_per_gb() < self.region(best).internet_cost_per_gb() {
                best = id;
            }
        }
        best
    }
}

impl AsRef<[Region]> for RegionSet {
    fn as_ref(&self) -> &[Region] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_regions() -> RegionSet {
        RegionSet::new(vec![
            Region::new("us-east-1", "N. Virginia", 0.02, 0.09),
            Region::new("sa-east-1", "Sao Paulo", 0.16, 0.25),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_set() {
        assert_eq!(RegionSet::new(vec![]), Err(Error::RegionCount { got: 0 }));
    }

    #[test]
    fn rejects_more_than_32_regions() {
        let regions: Vec<Region> =
            (0..33).map(|i| Region::new(format!("r{i}"), "x", 0.01, 0.02)).collect();
        assert_eq!(RegionSet::new(regions), Err(Error::RegionCount { got: 33 }));
    }

    #[test]
    fn rejects_negative_cost() {
        let err = RegionSet::new(vec![Region::new("r", "x", -0.5, 0.1)]);
        assert_eq!(err, Err(Error::InvalidCostRate { value: -0.5 }));
    }

    #[test]
    fn rejects_nan_cost() {
        let err = RegionSet::new(vec![Region::new("r", "x", 0.1, f64::NAN)]);
        assert!(matches!(err, Err(Error::InvalidCostRate { .. })));
    }

    #[test]
    fn per_byte_rates_match_per_gb_prices() {
        let set = two_regions();
        assert!((set.alpha_per_byte(RegionId(0)) * BYTES_PER_GB - 0.02).abs() < 1e-12);
        assert!((set.beta_per_byte(RegionId(1)) * BYTES_PER_GB - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cheapest_region_prefers_lowest_internet_rate() {
        let set = two_regions();
        assert_eq!(set.cheapest_internet_region(), RegionId(0));
    }

    #[test]
    fn cheapest_region_breaks_ties_by_id() {
        let set = RegionSet::new(vec![
            Region::new("a", "x", 0.05, 0.09),
            Region::new("b", "y", 0.01, 0.09),
        ])
        .unwrap();
        assert_eq!(set.cheapest_internet_region(), RegionId(0));
    }

    #[test]
    fn iteration_yields_dense_ids() {
        let set = two_regions();
        let ids: Vec<_> = set.ids().collect();
        assert_eq!(ids, vec![RegionId(0), RegionId(1)]);
        assert_eq!(set.iter().count(), 2);
    }
}
