//! Measurement collection: delivery records, the per-region traffic
//! ledger and the final simulation report.

// lint:allow-file(indexing) the ledger's per-region vectors are sized to the scenario's region count at construction, and every RegionId handed in was minted against that same count

use crate::time::SimTime;
use multipub_core::ids::{ClientId, RegionId};
use multipub_core::region::RegionSet;

/// One completed delivery of a publication to a subscriber.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// Index of the topic within the scenario.
    pub topic_index: usize,
    /// The publishing client.
    pub publisher: ClientId,
    /// The receiving client.
    pub subscriber: ClientId,
    /// When the publication was emitted.
    pub published_at: SimTime,
    /// When the subscriber received it.
    pub delivered_at: SimTime,
}

impl DeliveryRecord {
    /// End-to-end delivery time in milliseconds.
    pub(crate) fn latency_ms(&self) -> f64 {
        self.delivered_at - self.published_at
    }
}

/// Billable egress bytes per region, split by destination class exactly
/// like the cost model's `α` (inter-region) and `β` (Internet) rates.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficLedger {
    internet_bytes: Vec<u64>,
    inter_region_bytes: Vec<u64>,
}

impl TrafficLedger {
    /// An empty ledger over `n_regions` regions.
    pub(crate) fn new(n_regions: usize) -> Self {
        TrafficLedger { internet_bytes: vec![0; n_regions], inter_region_bytes: vec![0; n_regions] }
    }

    /// Records `bytes` sent from `region` to an Internet client.
    pub(crate) fn record_internet(&mut self, region: RegionId, bytes: u64) {
        self.internet_bytes[region.index()] += bytes;
    }

    /// Records `bytes` forwarded from `region` to another cloud region.
    pub(crate) fn record_inter_region(&mut self, region: RegionId, bytes: u64) {
        self.inter_region_bytes[region.index()] += bytes;
    }

    /// Internet egress bytes of one region.
    pub fn internet_bytes(&self, region: RegionId) -> u64 {
        self.internet_bytes[region.index()]
    }

    /// Inter-region egress bytes of one region.
    pub fn inter_region_bytes(&self, region: RegionId) -> u64 {
        self.inter_region_bytes[region.index()]
    }

    /// Total billable cost of the recorded traffic under a region set's
    /// prices — the *measured* counterpart of the analytic `Z_C`.
    pub fn cost_dollars(&self, regions: &RegionSet) -> f64 {
        regions
            .ids()
            .map(|r| {
                self.internet_bytes[r.index()] as f64 * regions.beta_per_byte(r)
                    + self.inter_region_bytes[r.index()] as f64 * regions.alpha_per_byte(r)
            })
            .sum()
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    deliveries: Vec<DeliveryRecord>,
    ledger: TrafficLedger,
    published_count: u64,
    lost_count: u64,
    duration_ms: f64,
}

impl SimReport {
    pub(crate) fn new(
        deliveries: Vec<DeliveryRecord>,
        ledger: TrafficLedger,
        published_count: u64,
        lost_count: u64,
        duration_ms: f64,
    ) -> Self {
        SimReport { deliveries, ledger, published_count, lost_count, duration_ms }
    }

    /// All delivery records, in the order the brokers sent them. A stable
    /// sort by `delivered_at` puts them in delivery-time order, deliveries
    /// landing at the same instant still in send order.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// Number of deliveries completed.
    pub fn delivery_count(&self) -> u64 {
        self.deliveries.len() as u64
    }

    /// Number of publications emitted.
    pub fn published_count(&self) -> u64 {
        self.published_count
    }

    /// Number of in-flight message copies destroyed by injected faults
    /// (packet loss or arrival at a region inside an outage window). Zero
    /// for fault-free runs.
    pub fn lost_count(&self) -> u64 {
        self.lost_count
    }

    /// The traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// The measured `ratio`-th percentile of delivery times across all
    /// topics, in milliseconds (0.0 when nothing was delivered).
    ///
    /// Uses the same ceiling-rank definition as the analytic model
    /// (Eq. 5), so jitter-free runs agree with it exactly.
    pub fn percentile_ms(&self, ratio_percent: f64) -> f64 {
        percentile_of(self.deliveries.iter().map(DeliveryRecord::latency_ms), ratio_percent)
    }

    /// The measured percentile for a single topic.
    pub fn topic_percentile_ms(&self, topic_index: usize, ratio_percent: f64) -> f64 {
        percentile_of(
            self.deliveries
                .iter()
                .filter(|d| d.topic_index == topic_index)
                .map(DeliveryRecord::latency_ms),
            ratio_percent,
        )
    }

    /// The measured billable cost in dollars under `regions` prices.
    pub fn cost_dollars(&self, regions: &RegionSet) -> f64 {
        self.ledger.cost_dollars(regions)
    }

    /// Extrapolates the measured cost to a different wall-clock horizon,
    /// e.g. the paper's "$/day" figures from a shorter run.
    pub fn cost_dollars_per(&self, regions: &RegionSet, horizon_ms: f64) -> f64 {
        if self.duration_ms == 0.0 {
            return 0.0;
        }
        self.cost_dollars(regions) * horizon_ms / self.duration_ms
    }
}

fn percentile_of(latencies: impl Iterator<Item = f64>, ratio_percent: f64) -> f64 {
    let mut values: Vec<f64> = latencies.collect();
    multipub_obs::quantile::percentile_exact(&mut values, ratio_percent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_core::region::Region;

    fn record(topic: usize, latency: f64) -> DeliveryRecord {
        DeliveryRecord {
            topic_index: topic,
            publisher: ClientId(0),
            subscriber: ClientId(1),
            published_at: SimTime::ZERO,
            delivered_at: SimTime::from_ms(latency),
        }
    }

    #[test]
    fn ledger_accumulates_and_prices() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.16, 0.25),
        ])
        .unwrap();
        let mut ledger = TrafficLedger::new(2);
        ledger.record_internet(RegionId(0), 1_000_000_000);
        ledger.record_inter_region(RegionId(1), 2_000_000_000);
        assert_eq!(ledger.internet_bytes(RegionId(0)), 1_000_000_000);
        assert_eq!(ledger.inter_region_bytes(RegionId(1)), 2_000_000_000);
        let cost = ledger.cost_dollars(&regions);
        assert!((cost - (0.09 + 2.0 * 0.16)).abs() < 1e-9);
    }

    #[test]
    fn percentile_matches_ceiling_rank() {
        let deliveries = vec![record(0, 10.0), record(0, 20.0), record(0, 30.0), record(0, 40.0)];
        let report = SimReport::new(deliveries, TrafficLedger::new(1), 4, 0, 1000.0);
        // ceil(0.75 × 4) = 3 → 30.
        assert_eq!(report.percentile_ms(75.0), 30.0);
        assert_eq!(report.percentile_ms(100.0), 40.0);
        assert_eq!(report.percentile_ms(1.0), 10.0);
    }

    #[test]
    fn per_topic_percentiles() {
        let deliveries = vec![record(0, 10.0), record(1, 100.0), record(1, 200.0)];
        let report = SimReport::new(deliveries, TrafficLedger::new(1), 3, 0, 1000.0);
        assert_eq!(report.topic_percentile_ms(0, 95.0), 10.0);
        assert_eq!(report.topic_percentile_ms(1, 95.0), 200.0);
        assert_eq!(report.topic_percentile_ms(9, 95.0), 0.0);
    }

    #[test]
    fn cost_extrapolation() {
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        let mut ledger = TrafficLedger::new(1);
        ledger.record_internet(RegionId(0), 1_000_000_000);
        let report = SimReport::new(vec![], ledger, 0, 0, 60_000.0);
        let per_day = report.cost_dollars_per(&regions, 86_400_000.0);
        assert!((per_day - 0.09 * 1440.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let report = SimReport::new(vec![], TrafficLedger::new(1), 0, 0, 0.0);
        assert_eq!(report.percentile_ms(95.0), 0.0);
        let regions = RegionSet::new(vec![Region::new("a", "A", 0.02, 0.09)]).unwrap();
        assert_eq!(report.cost_dollars_per(&regions, 1000.0), 0.0);
    }
}
