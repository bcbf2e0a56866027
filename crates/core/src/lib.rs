//! # multipub-core
//!
//! Core model and optimizer of **MultiPub**, a latency- and cost-aware
//! global-scale cloud publish/subscribe middleware (Gascon-Samson, Kienzle,
//! Kemme — ICDCS 2017).
//!
//! Topic-based pub/sub decouples publishers from subscribers: publishers tag
//! each publication with a topic, and the middleware disseminates it to every
//! subscriber of that topic. When clients are spread across the world, the
//! middleware can serve a topic from one or several cloud *regions*. Region
//! choice trades **delivery latency** against **outgoing-bandwidth cost**,
//! which varies widely between regions (see the EC2 table in
//! `multipub-data`).
//!
//! For every topic `T`, MultiPub picks the cheapest *configuration* — a set
//! of regions plus a delivery mode ([`assignment::DeliveryMode::Direct`] or
//! [`assignment::DeliveryMode::Routed`]) — whose delivery-time percentile satisfies the
//! per-topic constraint `<ratio_T, max_T>` ("`ratio_T` percent of messages
//! delivered within `max_T` milliseconds"). If no configuration is feasible,
//! it picks the most latency-minimizing one.
//!
//! ## Crate map
//!
//! * [`region`] — cloud regions and their bandwidth cost rates (α, β).
//! * [`latency`] — the client↔region matrix `L` and inter-region matrix `L^R`.
//! * [`workload`] — publishers, subscribers and their observed message logs.
//! * [`assignment`] — region bitmasks and configuration enumeration.
//! * [`delivery`] — delivery-time equations (paper Eq. 1–2) and the
//!   delivery-time percentile (Eq. 5–6).
//! * [`cost`] — the bandwidth cost model (Eq. 3–4).
//! * [`evaluate`] — evaluation of a single configuration against a workload.
//! * [`optimizer`] — brute-force optimal search with the paper's
//!   tie-breaking rules, plus the *One Region* and *All Regions* baselines.
//! * [`mitigation`] — high-latency client handling (paper §IV.D).
//! * [`scaling`] — region pruning and proportional client bundling
//!   heuristics for extra-large settings (paper §V.F).
//! * [`topics`] — the topics × regions assignment matrix and
//!   reconfiguration planning (paper §III.A2, §III.A5).
//! * [`heuristic`] — beam-search solving for extra-large region counts
//!   (the paper's §VII future work).
//!
//! ## Quickstart
//!
//! ```
//! use multipub_core::prelude::*;
//!
//! # fn main() -> Result<(), multipub_core::Error> {
//! // Two regions: a cheap one and an expensive one.
//! let regions = RegionSet::new(vec![
//!     Region::new("us-east-1", "N. Virginia", 0.02, 0.09),
//!     Region::new("ap-northeast-1", "Tokyo", 0.09, 0.14),
//! ])?;
//! // One-way inter-region latency (ms).
//! let inter = InterRegionMatrix::from_rows(vec![
//!     vec![0.0, 80.0],
//!     vec![80.0, 0.0],
//! ])?;
//!
//! // A publisher near us-east-1 that sent 60 messages of 1 KiB,
//! // and one subscriber near each region.
//! let mut topic = TopicWorkload::new(2);
//! topic.add_publisher(Publisher::new(
//!     ClientId(0), vec![10.0, 90.0], MessageBatch::uniform(60, 1024),
//! )?)?;
//! topic.add_subscriber(Subscriber::new(ClientId(1), vec![12.0, 95.0])?)?;
//! topic.add_subscriber(Subscriber::new(ClientId(2), vec![92.0, 9.0])?)?;
//!
//! // 95 % of messages within 120 ms.
//! let constraint = DeliveryConstraint::new(95.0, 120.0)?;
//! let solution = Optimizer::new(&regions, &inter, &topic)?.solve(&constraint);
//!
//! assert!(solution.is_feasible());
//! println!(
//!     "chosen regions: {:?}, mode {:?}, cost ${:.4}",
//!     solution.configuration().assignment(),
//!     solution.configuration().mode(),
//!     solution.evaluation().cost_dollars(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod assignment;
pub mod constraint;
pub mod cost;
pub mod delivery;
pub mod error;
pub mod evaluate;
pub mod heuristic;
pub mod ids;
pub mod latency;
pub mod mitigation;
pub mod optimizer;
pub mod region;
pub mod scaling;
pub mod topics;
pub mod workload;

pub use error::Error;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::assignment::{AssignmentVector, Configuration, DeliveryMode, ModePolicy};
    pub use crate::constraint::DeliveryConstraint;
    pub use crate::error::Error;
    pub use crate::evaluate::{ConfigEvaluation, TopicEvaluator};
    pub use crate::ids::{ClientId, RegionId, TopicId};
    pub use crate::latency::InterRegionMatrix;
    pub use crate::optimizer::{Optimizer, Solution};
    pub use crate::region::{Region, RegionSet};
    pub use crate::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};
}

/// Seeded generators for the crate's differential tests. Inline, so the
/// tests need no `rand` and run wherever this crate alone builds.
#[cfg(test)]
pub(crate) mod testing {
    use crate::ids::ClientId;
    use crate::latency::InterRegionMatrix;
    use crate::region::{Region, RegionSet};
    use crate::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};

    /// SplitMix64.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform integer in `lo..=hi`.
        pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }

    /// How large and how awkward [`random_instance`] may make an instance.
    pub(crate) struct Shape {
        /// Region count, `lo..=hi`.
        pub(crate) regions: (u64, u64),
        /// Publishers that sent something, `lo..=hi` with `lo ≥ 1`.
        pub(crate) publishers: (u64, u64),
        /// Subscriber entries, `lo..=hi` with `lo ≥ 1`.
        pub(crate) subscribers: (u64, u64),
        /// Latencies with a fractional part, so that Eq. 1–2 sums round; whole
        /// milliseconds otherwise, so that sums and percentile ties are exact.
        pub(crate) fractional: bool,
    }

    /// A random instance within `shape`. Prices come from three Table I rate
    /// pairs, so equal-price regions — and with them equal-cost configurations
    /// that differ by float summation order — are common; subscribers weigh 1–3;
    /// one instance in three has an extra publisher that sent nothing.
    pub(crate) fn random_instance(
        rng: &mut SplitMix64,
        shape: &Shape,
    ) -> (RegionSet, InterRegionMatrix, TopicWorkload) {
        const PRICES: [(f64, f64); 3] = [(0.02, 0.09), (0.09, 0.14), (0.16, 0.25)];
        let latency = |rng: &mut SplitMix64, lo: u64, hi: u64| {
            let whole = rng.range(lo, hi) as f64;
            if shape.fractional {
                whole + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            } else {
                whole
            }
        };
        let n = rng.range(shape.regions.0, shape.regions.1) as usize;
        let regions = RegionSet::new(
            (0..n)
                .map(|i| {
                    let (alpha, beta) = PRICES[rng.range(0, 2) as usize];
                    Region::new(format!("r{i}"), "X", alpha, beta)
                })
                .collect(),
        )
        .unwrap();
        let mut rows = vec![vec![0.0; n]; n];
        for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
            let between = latency(rng, 10, 200);
            rows[i][j] = between;
            rows[j][i] = between;
        }
        let inter = InterRegionMatrix::from_rows(rows).unwrap();
        let mut workload = TopicWorkload::new(n);
        let mut next_id = 0u64;
        let mut client_row = |rng: &mut SplitMix64| -> (ClientId, Vec<f64>) {
            next_id += 1;
            (ClientId(next_id), (0..n).map(|_| latency(rng, 1, 150)).collect())
        };
        for _ in 0..rng.range(shape.publishers.0, shape.publishers.1) {
            let (id, row) = client_row(rng);
            let batch = MessageBatch::uniform(rng.range(1, 5), rng.range(100, 2000));
            workload.add_publisher(Publisher::new(id, row, batch).unwrap()).unwrap();
        }
        if rng.range(0, 2) == 0 {
            let (id, row) = client_row(rng);
            workload
                .add_publisher(Publisher::new(id, row, MessageBatch::empty()).unwrap())
                .unwrap();
        }
        for _ in 0..rng.range(shape.subscribers.0, shape.subscribers.1) {
            let (id, row) = client_row(rng);
            let weight = rng.range(1, 3);
            workload.add_subscriber(Subscriber::with_weight(id, row, weight).unwrap()).unwrap();
        }
        (regions, inter, workload)
    }
}
