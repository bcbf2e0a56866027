//! Topic workloads: publishers, subscribers and observed message traffic.
//!
//! A [`TopicWorkload`] captures what the region managers observed during one
//! collection interval (paper §III.A3): who published and subscribed, how
//! many messages each publisher sent and how many bytes they amounted to,
//! plus each client's latency row towards every region.
//!
//! A workload is built whole: [`TopicWorkload::new`] takes both client
//! lists and checks every row, weight and id once. The client constructors
//! check nothing, so a workload is the only place a client is vetted.
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
    /// Creates a publisher. Its row is checked when the workload is built,
    /// by [`TopicWorkload::new`].
    pub fn new(id: ClientId, latencies: impl Into<Arc<[f64]>>, batch: MessageBatch) -> Self {
        Publisher { id, latencies: latencies.into(), batch }
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
    /// Creates a subscriber with weight 1. Its row is checked when the
    /// workload is built, by [`TopicWorkload::new`].
    pub fn new(id: ClientId, latencies: impl Into<Arc<[f64]>>) -> Self {
        Self::with_weight(id, latencies, 1)
    }

    /// Creates a (possibly virtual) subscriber standing for `weight` real
    /// subscribers. [`TopicWorkload::new`] rejects a zero weight.
    pub(crate) fn with_weight(id: ClientId, latencies: impl Into<Arc<[f64]>>, weight: u64) -> Self {
        Subscriber { id, latencies: latencies.into(), weight }
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

    /// Replaces the weight (used when bundling merges subscribers).
    pub(crate) fn set_weight(&mut self, weight: u64) {
        self.weight = weight;
    }
}

/// Everything the controller knows about one topic for one observation
/// interval: its publishers (with traffic) and subscribers (with weights).
///
/// ```
/// use multipub_core::workload::{TopicWorkload, Publisher, Subscriber, MessageBatch};
/// use multipub_core::ids::ClientId;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let w = TopicWorkload::new(
///     3,
///     vec![Publisher::new(ClientId(0), vec![5.0, 50.0, 90.0], MessageBatch::uniform(10, 512))],
///     vec![Subscriber::new(ClientId(1), vec![80.0, 8.0, 60.0])],
/// )?;
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
    /// Builds the workload of a topic over `n_regions` regions from its
    /// publishers and subscribers. The same client may appear in both
    /// lists.
    ///
    /// # Errors
    ///
    /// * [`Error::LatencyDimension`] if a latency row does not have exactly
    ///   `n_regions` entries.
    /// * [`Error::InvalidLatency`] for a negative, NaN or infinite entry.
    /// * [`Error::ZeroWeight`] for a subscriber of weight 0.
    /// * [`Error::DuplicateClient`] if an id appears twice among the
    ///   publishers, or twice among the subscribers.
    pub fn new(
        n_regions: usize,
        publishers: Vec<Publisher>,
        subscribers: Vec<Subscriber>,
    ) -> Result<Self, Error> {
        let rows = publishers.iter().map(Publisher::latencies);
        for row in rows.chain(subscribers.iter().map(Subscriber::latencies)) {
            validate_latency_row(row, n_regions)?;
        }
        if subscribers.iter().any(|s| s.weight == 0) {
            return Err(Error::ZeroWeight);
        }
        ensure_unique(publishers.iter().map(Publisher::id))?;
        ensure_unique(subscribers.iter().map(Subscriber::id))?;
        Ok(TopicWorkload { n_regions, publishers, subscribers })
    }

    /// Number of regions all latency rows are indexed by.
    pub(crate) fn n_regions(&self) -> usize {
        self.n_regions
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

/// Fails with [`Error::DuplicateClient`] if an id appears twice among
/// `ids`, found by one sort.
fn ensure_unique(ids: impl Iterator<Item = ClientId>) -> Result<(), Error> {
    let mut ids: Vec<ClientId> = ids.collect();
    ids.sort_unstable();
    match ids.iter().zip(ids.iter().skip(1)).find(|(a, b)| a == b) {
        Some((id, _)) => Err(Error::DuplicateClient { id: id.0 }),
        None => Ok(()),
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

    /// A named case for [`check_new`]: the lists `TopicWorkload::new` is
    /// given and the error it must return (`None`: accepted).
    type Case = (&'static str, Vec<Publisher>, Vec<Subscriber>, Option<Error>);

    fn publisher(id: u64, row: &[f64]) -> Publisher {
        Publisher::new(ClientId(id), row, MessageBatch::default())
    }

    fn subscriber(id: u64, row: &[f64]) -> Subscriber {
        Subscriber::new(ClientId(id), row)
    }

    /// Builds each case over 2 regions and checks its outcome.
    fn check_new(cases: Vec<Case>) {
        for (name, publishers, subscribers, expected) in cases {
            let built = TopicWorkload::new(2, publishers.clone(), subscribers.clone());
            match expected {
                // `Error` compares NaN values unequal, so compare the text.
                Some(error) => {
                    assert_eq!(built.map_err(|e| e.to_string()), Err(error.to_string()), "{name}")
                }
                None => {
                    let built = built.unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(built.publishers(), publishers, "{name}");
                    assert_eq!(built.subscribers(), subscribers, "{name}");
                }
            }
        }
    }

    /// Rows with a NaN, infinite or negative entry; a subscriber's row is
    /// checked alike.
    #[test]
    fn publisher_rejects_bad_latency() {
        check_new(vec![
            (
                "NaN entry",
                vec![publisher(0, &[1.0, f64::NAN])],
                vec![],
                Some(Error::InvalidLatency { value: f64::NAN }),
            ),
            (
                "infinite entry",
                vec![],
                vec![subscriber(0, &[f64::INFINITY, 1.0])],
                Some(Error::InvalidLatency { value: f64::INFINITY }),
            ),
            (
                "negative entry",
                vec![publisher(0, &[-1.0, 1.0])],
                vec![],
                Some(Error::InvalidLatency { value: -1.0 }),
            ),
        ]);
    }

    #[test]
    fn subscriber_rejects_zero_weight() {
        check_new(vec![(
            "zero weight",
            vec![],
            vec![Subscriber::with_weight(ClientId(0), &[1.0, 2.0][..], 0)],
            Some(Error::ZeroWeight),
        )]);
    }

    #[test]
    fn workload_rejects_wrong_width() {
        check_new(vec![
            (
                "short publisher row",
                vec![publisher(0, &[1.0])],
                vec![],
                Some(Error::LatencyDimension { expected: 2, got: 1 }),
            ),
            (
                "long publisher row",
                vec![publisher(0, &[1.0, 2.0, 3.0])],
                vec![],
                Some(Error::LatencyDimension { expected: 2, got: 3 }),
            ),
            (
                "short subscriber row",
                vec![],
                vec![subscriber(0, &[1.0])],
                Some(Error::LatencyDimension { expected: 2, got: 1 }),
            ),
            (
                "long subscriber row",
                vec![],
                vec![subscriber(0, &[1.0, 2.0, 3.0])],
                Some(Error::LatencyDimension { expected: 2, got: 3 }),
            ),
            ("empty lists", vec![], vec![], None),
        ]);
    }

    #[test]
    fn workload_rejects_duplicate_ids_per_role() {
        let ok = [1.0, 2.0];
        check_new(vec![
            (
                "duplicate publisher",
                vec![publisher(5, &ok), publisher(5, &[3.0, 4.0])],
                vec![],
                Some(Error::DuplicateClient { id: 5 }),
            ),
            (
                "duplicate subscriber, placed apart",
                vec![],
                vec![
                    subscriber(7, &ok),
                    subscriber(2, &ok),
                    subscriber(9, &ok),
                    subscriber(7, &ok),
                ],
                Some(Error::DuplicateClient { id: 7 }),
            ),
            // The same id may be both publisher and subscriber, though.
            ("publisher and subscriber", vec![publisher(5, &ok)], vec![subscriber(5, &ok)], None),
        ]);
    }

    #[test]
    fn totals_account_for_weights() {
        let row = [1.0, 2.0];
        let w = TopicWorkload::new(
            2,
            vec![
                Publisher::new(ClientId(0), row, MessageBatch::uniform(4, 100)),
                Publisher::new(ClientId(1), row, MessageBatch::uniform(6, 100)),
            ],
            vec![Subscriber::with_weight(ClientId(2), row, 3), Subscriber::new(ClientId(3), row)],
        )
        .unwrap();
        assert_eq!(w.total_messages(), 10);
        assert_eq!(w.subscriber_weight(), 4);
        assert_eq!(w.total_deliveries(), 40);
        assert_eq!(w.subscriber_count(), 2);
    }

    #[test]
    fn empty_workload_detected() {
        let w = TopicWorkload::new(2, vec![], vec![]).unwrap();
        assert_eq!(w.ensure_non_empty(), Err(Error::EmptyWorkload));
    }
}
