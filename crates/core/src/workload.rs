//! Topic workloads: publishers, subscribers and observed message traffic.
//!
//! A [`TopicWorkload`] captures what the region managers observed during one
//! collection interval (paper §III.A3): who published and subscribed, how
//! many messages each publisher sent and how many bytes they amounted to,
//! plus each client's latency row towards every region.
//!
//! A latency row is an `Arc<[f64]>`: it stays the same from one interval to
//! the next, so a snapshot shares the rows its source holds instead of
//! copying them.

use crate::error::Error;
use crate::ids::ClientId;
use crate::latency::validate_latency_row;
use std::sync::Arc;

/// Aggregated statistics about the messages a publisher sent during one
/// observation interval.
///
/// The model equations only need the message *count* (`N_M^P`, which weighs
/// delivery times) and the *total bytes* (`Σ Ω(M_j^P)`, which drives cost),
/// so that is all we store.
///
/// ```
/// use multipub_core::workload::MessageBatch;
/// let batch = MessageBatch::uniform(3, 1024);
/// assert_eq!(batch.count(), 3);
/// assert_eq!(batch.total_bytes(), 3072);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageBatch {
    count: u64,
    total_bytes: u64,
}

impl MessageBatch {
    /// A batch of `count` messages of identical `size_bytes`.
    pub fn uniform(count: u64, size_bytes: u64) -> Self {
        MessageBatch { count, total_bytes: count * size_bytes }
    }

    /// Number of messages (`N_M^P`).
    pub fn count(self) -> u64 {
        self.count
    }

    /// Total payload bytes (`Σ_j Ω(M_j^P)`).
    pub fn total_bytes(self) -> u64 {
        self.total_bytes
    }

    /// Merges another batch into this one (used by client bundling).
    pub(crate) fn merge(&mut self, other: MessageBatch) {
        self.count += other.count;
        self.total_bytes += other.total_bytes;
    }
}

/// A publisher of the topic: its identity, its latency row towards every
/// region, and the messages it sent in the observation interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Publisher {
    id: ClientId,
    /// One-way latency in ms towards each region (`L[P][·]`).
    latencies: Arc<[f64]>,
    batch: MessageBatch,
}

impl Publisher {
    /// Creates a publisher.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLatency`] for negative/NaN/infinite entries.
    /// The row length is validated against the workload's region count when
    /// the publisher is added via [`TopicWorkload::add_publisher`].
    pub fn new(
        id: ClientId,
        latencies: impl Into<Arc<[f64]>>,
        batch: MessageBatch,
    ) -> Result<Self, Error> {
        let latencies = latencies.into();
        validate_latency_row(&latencies, latencies.len())?;
        Ok(Publisher { id, latencies, batch })
    }

    /// The publisher's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// One-way latency row towards every region, in milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Message statistics for the observation interval.
    pub fn batch(&self) -> MessageBatch {
        self.batch
    }

    /// Replaces the message statistics (used between collection intervals).
    pub(crate) fn set_batch(&mut self, batch: MessageBatch) {
        self.batch = batch;
    }
}

/// A subscriber of the topic.
///
/// `weight` counts how many real subscribers this entry stands for; it is 1
/// for ordinary subscribers and larger for the *virtual clients* produced by
/// proportional bundling (paper §V.F, implemented in [`crate::scaling`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Subscriber {
    id: ClientId,
    latencies: Arc<[f64]>,
    weight: u64,
}

impl Subscriber {
    /// Creates a subscriber with weight 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidLatency`] for negative/NaN/infinite entries.
    pub fn new(id: ClientId, latencies: impl Into<Arc<[f64]>>) -> Result<Self, Error> {
        Self::with_weight(id, latencies, 1)
    }

    /// Creates a (possibly virtual) subscriber standing for `weight` real
    /// subscribers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroWeight`] when `weight == 0` and
    /// [`Error::InvalidLatency`] for invalid latency entries.
    pub(crate) fn with_weight(
        id: ClientId,
        latencies: impl Into<Arc<[f64]>>,
        weight: u64,
    ) -> Result<Self, Error> {
        if weight == 0 {
            return Err(Error::ZeroWeight);
        }
        let latencies = latencies.into();
        validate_latency_row(&latencies, latencies.len())?;
        Ok(Subscriber { id, latencies, weight })
    }

    /// The subscriber's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// One-way latency row towards every region, in milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Number of real subscribers this entry represents.
    pub(crate) fn weight(&self) -> u64 {
        self.weight
    }
}

/// Everything the controller knows about one topic for one observation
/// interval: its publishers (with traffic) and subscribers (with weights).
///
/// ```
/// use multipub_core::workload::{TopicWorkload, Publisher, Subscriber, MessageBatch};
/// use multipub_core::ids::ClientId;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let mut w = TopicWorkload::new(3);
/// w.add_publisher(Publisher::new(
///     ClientId(0), vec![5.0, 50.0, 90.0], MessageBatch::uniform(10, 512),
/// )?)?;
/// w.add_subscriber(Subscriber::new(ClientId(1), vec![80.0, 8.0, 60.0])?)?;
/// assert_eq!(w.total_messages(), 10);
/// assert_eq!(w.subscriber_weight(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopicWorkload {
    n_regions: usize,
    publishers: Vec<Publisher>,
    subscribers: Vec<Subscriber>,
}

impl TopicWorkload {
    /// Creates an empty workload over `n_regions` regions. Latency rows of
    /// all added clients must have exactly this many entries.
    pub fn new(n_regions: usize) -> Self {
        TopicWorkload { n_regions, publishers: Vec::new(), subscribers: Vec::new() }
    }

    /// Number of regions all latency rows are indexed by.
    pub(crate) fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Adds a publisher.
    ///
    /// # Errors
    ///
    /// * [`Error::LatencyDimension`] if the latency row width differs from
    ///   the workload's region count.
    /// * [`Error::DuplicateClient`] if the id is already a publisher.
    pub fn add_publisher(&mut self, publisher: Publisher) -> Result<(), Error> {
        validate_latency_row(publisher.latencies(), self.n_regions)?;
        if self.publishers.iter().any(|p| p.id() == publisher.id()) {
            return Err(Error::DuplicateClient { id: publisher.id().0 });
        }
        self.publishers.push(publisher);
        Ok(())
    }

    /// Adds a subscriber.
    ///
    /// # Errors
    ///
    /// * [`Error::LatencyDimension`] if the latency row width differs from
    ///   the workload's region count.
    /// * [`Error::DuplicateClient`] if the id is already a subscriber.
    pub fn add_subscriber(&mut self, subscriber: Subscriber) -> Result<(), Error> {
        validate_latency_row(subscriber.latencies(), self.n_regions)?;
        if self.subscribers.iter().any(|s| s.id() == subscriber.id()) {
            return Err(Error::DuplicateClient { id: subscriber.id().0 });
        }
        self.subscribers.push(subscriber);
        Ok(())
    }

    /// The topic's publishers (`ℙ`).
    pub fn publishers(&self) -> &[Publisher] {
        &self.publishers
    }

    /// The topic's subscribers (`𝕊`).
    pub fn subscribers(&self) -> &[Subscriber] {
        &self.subscribers
    }

    /// Number of publisher entries (`N_P`).
    pub fn publisher_count(&self) -> usize {
        self.publishers.len()
    }

    /// Number of subscriber entries (bundled entries count once).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Total number of real subscribers (`N_S`), i.e. the sum of weights.
    pub fn subscriber_weight(&self) -> u64 {
        self.subscribers.iter().map(|s| s.weight()).sum()
    }

    /// Total messages sent by all publishers (`Σ_k N_M^{P_k}`).
    pub fn total_messages(&self) -> u64 {
        self.publishers.iter().map(|p| p.batch().count()).sum()
    }

    /// Total deliveries in the interval (`|𝔻_C| = N_S × Σ_k N_M^{P_k}`).
    pub fn total_deliveries(&self) -> u64 {
        self.subscriber_weight() * self.total_messages()
    }

    /// Validates that the workload can be optimized (at least one
    /// publisher and one subscriber).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyWorkload`] otherwise.
    pub(crate) fn ensure_non_empty(&self) -> Result<(), Error> {
        if self.publishers.is_empty() || self.subscribers.is_empty() {
            return Err(Error::EmptyWorkload);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates() {
        let mut b = MessageBatch::uniform(3, 200);
        assert_eq!(b.count(), 3);
        assert_eq!(b.total_bytes(), 600);
        b.merge(MessageBatch::uniform(2, 50));
        assert_eq!(b.count(), 5);
        assert_eq!(b.total_bytes(), 700);
    }

    #[test]
    fn uniform_batch() {
        let b = MessageBatch::uniform(60, 1024);
        assert_eq!(b.count(), 60);
        assert_eq!(b.total_bytes(), 61_440);
    }

    #[test]
    fn publisher_rejects_bad_latency() {
        let err = Publisher::new(ClientId(0), vec![1.0, f64::NAN], MessageBatch::default());
        assert!(matches!(err, Err(Error::InvalidLatency { .. })));
    }

    #[test]
    fn subscriber_rejects_zero_weight() {
        assert_eq!(Subscriber::with_weight(ClientId(0), vec![1.0], 0), Err(Error::ZeroWeight));
    }

    #[test]
    fn workload_rejects_wrong_width() {
        let mut w = TopicWorkload::new(3);
        let p = Publisher::new(ClientId(0), vec![1.0, 2.0], MessageBatch::default()).unwrap();
        assert_eq!(w.add_publisher(p), Err(Error::LatencyDimension { expected: 3, got: 2 }));
    }

    #[test]
    fn workload_rejects_duplicate_ids_per_role() {
        let mut w = TopicWorkload::new(1);
        w.add_subscriber(Subscriber::new(ClientId(5), vec![1.0]).unwrap()).unwrap();
        let dup = Subscriber::new(ClientId(5), vec![2.0]).unwrap();
        assert_eq!(w.add_subscriber(dup), Err(Error::DuplicateClient { id: 5 }));
        // The same id may be both publisher and subscriber, though.
        let p = Publisher::new(ClientId(5), vec![1.0], MessageBatch::default()).unwrap();
        assert!(w.add_publisher(p).is_ok());
    }

    #[test]
    fn totals_account_for_weights() {
        let mut w = TopicWorkload::new(2);
        w.add_publisher(
            Publisher::new(ClientId(0), vec![1.0, 2.0], MessageBatch::uniform(4, 100)).unwrap(),
        )
        .unwrap();
        w.add_publisher(
            Publisher::new(ClientId(1), vec![1.0, 2.0], MessageBatch::uniform(6, 100)).unwrap(),
        )
        .unwrap();
        w.add_subscriber(Subscriber::with_weight(ClientId(2), vec![1.0, 2.0], 3).unwrap()).unwrap();
        w.add_subscriber(Subscriber::new(ClientId(3), vec![1.0, 2.0]).unwrap()).unwrap();
        assert_eq!(w.total_messages(), 10);
        assert_eq!(w.subscriber_weight(), 4);
        assert_eq!(w.total_deliveries(), 40);
        assert_eq!(w.subscriber_count(), 2);
    }

    #[test]
    fn empty_workload_detected() {
        let w = TopicWorkload::new(2);
        assert_eq!(w.ensure_non_empty(), Err(Error::EmptyWorkload));
    }
}
