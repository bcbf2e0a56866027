//! The discrete-event loop.
//!
//! The engine pre-schedules every publication, then processes events in
//! time order. There are two kinds, plus reconfiguration:
//!
//! 1. **Publish** — the publisher's message leaves for the serving
//!    region(s): all of them under direct delivery, only the closest under
//!    routed delivery.
//! 2. **RegionReceive** — a broker receives the message. Under routed
//!    delivery a first-hop broker forwards it to the other serving regions
//!    (billing inter-region egress); every receiving broker then delivers
//!    to its local subscribers (billing Internet egress).
//!
//! A **Reconfigure** event swaps one topic's routing tables.
//!
//! **A delivery is written when it is sent.** It is not an event: when the
//! broker sends a copy to a subscriber it already knows when the copy lands,
//! and landing reads no table, bills nothing, draws no random number and
//! schedules nothing. So the broker writes the finished [`DeliveryRecord`]
//! straight into the delivery log, and the log puts itself in delivery-time
//! order (see "Why the log is in order" below).
//!
//! Each hop takes its base latency from the matrices plus an optional
//! jitter sample, so a jitter-free run reproduces the analytic model
//! exactly.
//!
//! When the scenario carries a [`crate::faults::FaultPlan`], every hop is
//! additionally subject to seeded packet loss, arrival at a region inside
//! an outage window kills the message copy (the broker is "down"), and
//! active link degradations stretch inter-region forwards. Publications
//! emitted inside a publish-burst window are multiplied, and deliveries
//! arriving at a stalled subscriber queue until the stall ends.
//! Duplicate-delivery windows fan each delivery into several independent
//! copies, and reorder windows stretch deliveries by a seeded uniform
//! draw that shuffles arrival order. All fault draws come from their own
//! RNG streams, so a quiet plan reproduces fault-free runs bit for bit.
//!
//! **Why the log is in order.** The report lists deliveries by ascending
//! delivery time, ties in the order the brokers sent them — the order in
//! which a queue of `Deliver` events keyed `(time, sequence)` would pop
//! them, which is how the log used to be produced. It still is that order,
//! bit for bit, because:
//!
//! 1. *Same emission sequence.* Such an event would read and write nothing
//!    but the log and draw from no RNG, so its absence changes no handler's
//!    inputs; the remaining events keep their relative `(time, sequence)`
//!    order, because sequence numbers grow in scheduling order and the
//!    scheduling order of the remaining events is decided only by each
//!    other (induction over pops). Every loss, jitter and reorder draw and
//!    every ledger line therefore happens in the same order with the same
//!    values, and the brokers write the same records in the same order.
//! 2. *Same order.* Sequence numbers among deliveries are emission order,
//!    so `(time, sequence)` order is a stable sort of the emission
//!    sequence by delivery time.
//! 3. *Settling early is settling right.* Every hop delay is non-negative,
//!    so a record written while handling an event at `now` lands at or
//!    after `now` (asserted where it is written), and event times never
//!    decrease. When the log settles at `now`, then, every record still to
//!    come lands at or after `now`: the records already there that land
//!    strictly before `now` are final, in their sorted order, ahead of
//!    everything else. A record landing exactly at `now` stays behind,
//!    with any equal one that follows it, and repeated stable sorts keep
//!    them in emission order.
//!
//! **What allocates.** The event handlers read the routing tables, the
//! latency rows and the fault plan in place, so handling a `Publish` or
//! `RegionReceive` event allocates nothing of its own: a run's allocations
//! are the growth of the event queue (publications and broker arrivals
//! only) and of the delivery log (one record per delivery, kept for the
//! report), the log's sorting scratch — sized to its unsettled tail, not to
//! the run, and reused from settle to settle — plus one routing table
//! rebuilt per `Reconfigure` event. Events, lost copies and deliveries are
//! counted in the engine only; [`Engine::run`] adds them to the global
//! `multipub_netsim_*` metrics once, after the last event.

// lint:allow-file(indexing) discrete-event hot loop: every topic/publisher/subscriber/region index is minted from the validated `Scenario` at pre-schedule time and only round-trips through the event queue, and every configuration is checked against the region count before its routing table is built, so all slice accesses are in bounds by construction; the delivery log's slices are cut at its own `settled` mark and the tail sort's bucket numbers are clamped to the bucket count where they are computed

use crate::faults::FaultInjector;
use crate::jitter::{Jitter, JitterSource};
use crate::metrics::{DeliveryRecord, SimReport, TrafficLedger};
use crate::queue::EventQueue;
use crate::scenario::{Scenario, TopicScenario};
use crate::time::SimTime;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::delivery::closest_region;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_obs::metrics::{NETSIM_DELIVERY_MS, NETSIM_EVENTS_TOTAL, NETSIM_LOST_TOTAL};

/// One publication on its way: which topic, from whom, emitted when.
#[derive(Debug, Clone, Copy)]
struct Message {
    topic: usize,
    publisher: usize,
    published_at: SimTime,
}

#[derive(Debug)]
enum Event {
    /// Installs a new configuration for a topic — the simulated
    /// counterpart of a controller `ConfigUpdate` reaching every broker
    /// and client at once.
    Reconfigure {
        topic: usize,
        configuration: Configuration,
    },
    Publish {
        topic: usize,
        publisher: usize,
    },
    RegionReceive {
        message: Message,
        region: RegionId,
        /// `true` when this copy arrived via inter-region forwarding (or
        /// direct fan-out) and must not be forwarded again.
        deliver_only: bool,
    },
}

/// Per-topic routing tables precomputed from a configuration.
#[derive(Debug)]
struct TopicRouting {
    serving: Vec<RegionId>,
    /// Subscriber indices grouped by closest serving region (indexed by
    /// region id).
    local_subscribers: Vec<Vec<usize>>,
    /// Closest serving region per publisher index (routed mode's `R^P`).
    publisher_home: Vec<RegionId>,
    mode: DeliveryMode,
}

impl TopicRouting {
    fn new(topic: &TopicScenario, configuration: Configuration, n_regions: usize) -> Self {
        let assignment = configuration.assignment();
        let mut local_subscribers = vec![Vec::new(); n_regions];
        for (index, subscriber) in topic.subscribers().iter().enumerate() {
            let region = closest_region(subscriber.latencies(), assignment);
            local_subscribers[region.index()].push(index);
        }
        let publisher_home =
            topic.publishers().iter().map(|p| closest_region(p.latencies(), assignment)).collect();
        TopicRouting {
            serving: assignment.iter().collect(),
            local_subscribers,
            publisher_home,
            mode: configuration.mode(),
        }
    }
}

/// Panics unless every region `configuration` assigns exists in a
/// deployment of `n_regions`. An [`AssignmentVector`] is only validated
/// against the region count it was built with, and a wider one would index
/// past the latency rows deep inside the event loop.
fn assert_fits(topic_index: usize, configuration: Configuration, n_regions: usize) {
    let mask = configuration.assignment().mask();
    assert!(
        AssignmentVector::from_mask(mask, n_regions).is_ok(),
        "topic {topic_index}: configuration mask {mask:#b} assigns a region outside the \
         {n_regions}-region deployment"
    );
}

/// The tail is never settled before it holds this many records. A settle
/// costs three passes and a scratch copy of the tail, so it should move
/// thousands of records, and left to the doubling rule alone it would: a
/// tail is about twice the deliveries in flight, 16 000–27 000 records on
/// the runs that keep thousands in flight. The floor matters on quiet runs,
/// where it *is* the log's memory overhead — tail plus scratch at 40 B a
/// record, 2 × 160 KB here. A 200 000-delivery run with ~2 000 in flight
/// peaks at 11.2 MB RSS with no log at all, 11.4–11.5 MB at 4 096 and
/// 11.8–12.0 MB (+6 %) at 16 384, no faster.
const SETTLE_FLOOR: usize = 4096;

/// Records per time bucket of the tail sort. A bucket this short is sorted
/// by `sort_by`'s insertion sort (it merges nothing under 20 elements), and
/// the offsets table — one word per bucket — is 1/40 of the tail's bytes.
/// 4 and 16 run within noise of 8 on a 1.5 M-delivery run.
const RECORDS_PER_BUCKET: usize = 8;

/// Stable sort by delivery time — exactly `records.sort_by(delivered_at)` —
/// done as a counting sort into `⌈n / 8⌉` equal-width time buckets between
/// the earliest and the latest delivery (stable scatter through `scratch`),
/// then `sort_by` inside each bucket. Deliveries in flight spread evenly
/// enough over their time span that most buckets hold a handful. When they
/// do not — all times equal, one far-future straggler that leaves everything
/// else in the first bucket, fewer than two buckets' worth — this is the
/// plain `sort_by` plus the linear passes, never worse.
fn sort_by_delivery_time(
    records: &mut [DeliveryRecord],
    scratch: &mut Vec<DeliveryRecord>,
    offsets: &mut Vec<usize>,
) {
    let by_time = |a: &DeliveryRecord, b: &DeliveryRecord| a.delivered_at.total_cmp(b.delivered_at);
    let buckets = records.len().div_ceil(RECORDS_PER_BUCKET);
    let (min, max) = records
        .iter()
        .map(|record| record.delivered_at.as_ms())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), at| (min.min(at), max.max(at)));
    if buckets < 2 || min >= max {
        records.sort_by(by_time);
        return;
    }
    // Monotone in the delivery time: a rounded subtraction, a rounded
    // multiplication by a positive factor and a saturating cast each are. So
    // an earlier record never lands in a later bucket, and equal times share
    // one. (A span so small that `scale` overflows sends `min` to bucket 0,
    // via NaN, and everything else to the last.)
    let scale = buckets as f64 / (max - min);
    let bucket_of = |record: &DeliveryRecord| {
        (((record.delivered_at.as_ms() - min) * scale) as usize).min(buckets - 1)
    };
    // Count into `offsets[bucket + 1]`, then sum: `offsets[bucket]` is where
    // the bucket starts.
    offsets.clear();
    offsets.resize(buckets + 1, 0);
    for record in records.iter() {
        offsets[bucket_of(record) + 1] += 1;
    }
    for bucket in 1..=buckets {
        offsets[bucket] += offsets[bucket - 1];
    }
    // Scatter front to back, so records of one bucket keep their order; each
    // bucket's offset walks from its start to its end.
    scratch.clear();
    scratch.extend_from_slice(records);
    for record in scratch.iter() {
        let slot = &mut offsets[bucket_of(record)];
        records[*slot] = *record;
        *slot += 1;
    }
    let mut start = 0;
    for &end in &offsets[..buckets] {
        records[start..end].sort_by(by_time);
        start = end;
    }
}

/// Every delivery the brokers have written, kept in the report's order:
/// ascending delivery time, ties in the order they were sent.
///
/// `records[..settled]` is final. The rest is the unsettled tail — what the
/// last settle left behind, sorted, followed by the records written since,
/// in the order they were sent. Why settling part of the log before the run
/// ends cannot misplace a record is step 3 of the module's argument.
#[derive(Debug)]
struct DeliveryLog {
    records: Vec<DeliveryRecord>,
    settled: usize,
    /// The tail length at which the next settle is due: twice what the last
    /// one left behind, so a tail that cannot shrink yet (a long stall) is
    /// re-sorted at doubling lengths, not every few thousand records.
    settle_at: usize,
    scratch: Vec<DeliveryRecord>,
    offsets: Vec<usize>,
}

impl DeliveryLog {
    fn new() -> Self {
        DeliveryLog {
            records: Vec::new(),
            settled: 0,
            settle_at: SETTLE_FLOOR,
            scratch: Vec::new(),
            offsets: Vec::new(),
        }
    }

    fn write(&mut self, record: DeliveryRecord) {
        self.records.push(record);
    }

    /// Called after the event at `now`: every record still to be written
    /// lands at or after `now`.
    fn settle_if_due(&mut self, now: SimTime) {
        if self.records.len() - self.settled >= self.settle_at {
            self.settle(now);
        }
    }

    /// Sorts the tail and makes final the records landing strictly before
    /// `now` — one landing exactly at `now` can still be followed by an
    /// equal one, and stays with it.
    fn settle(&mut self, now: SimTime) {
        let tail = self.sort_tail();
        let landed = tail.partition_point(|record| record.delivered_at < now);
        self.settle_at = (2 * (tail.len() - landed)).max(SETTLE_FLOOR);
        self.settled += landed;
    }

    /// The finished log: nothing more will be written, so the sorted tail
    /// is final too.
    fn into_ordered(mut self) -> Vec<DeliveryRecord> {
        self.sort_tail();
        self.records
    }

    fn sort_tail(&mut self) -> &[DeliveryRecord] {
        let tail = &mut self.records[self.settled..];
        sort_by_delivery_time(tail, &mut self.scratch, &mut self.offsets);
        tail
    }
}

/// The simulation engine. Construct with a scenario, run once, read the
/// report. See the crate-level example.
#[derive(Debug)]
pub struct Engine {
    n_regions: usize,
    topics: Vec<TopicScenario>,
    inter: InterRegionMatrix,
    routing: Vec<TopicRouting>,
    queue: EventQueue<Event>,
    jitter: JitterSource,
    faults: FaultInjector,
    log: DeliveryLog,
    ledger: TrafficLedger,
    published_count: u64,
    lost_count: u64,
}

impl Engine {
    /// Creates an engine for `scenario` with the given jitter model and
    /// RNG seed (the seed only matters when jitter or a sampling fault is
    /// enabled).
    ///
    /// # Panics
    ///
    /// Panics if a topic's configuration assigns a region outside the
    /// scenario's deployment.
    pub fn new(scenario: Scenario, jitter: Jitter, seed: u64) -> Self {
        let (regions, inter, topics, plan) = scenario.into_parts();
        let n_regions = regions.len();
        let mut routing = Vec::with_capacity(topics.len());
        for (index, topic) in topics.iter().enumerate() {
            assert_fits(index, topic.configuration(), n_regions);
            routing.push(TopicRouting::new(topic, topic.configuration(), n_regions));
        }
        Engine {
            n_regions,
            topics,
            inter,
            routing,
            queue: EventQueue::new(),
            jitter: JitterSource::new(jitter, seed),
            faults: FaultInjector::new(plan, seed),
            log: DeliveryLog::new(),
            ledger: TrafficLedger::new(n_regions),
            published_count: 0,
            lost_count: 0,
        }
    }

    /// Schedules a configuration change for a topic at a point in
    /// simulated time — modelling a controller reconfiguration round
    /// reaching the whole deployment (paper §III.A5). Publications emitted
    /// after the change follow the new configuration; messages already in
    /// flight complete under the routing tables current at each hop.
    ///
    /// # Panics
    ///
    /// Panics if `topic_index` is out of bounds, `at_ms` is negative, or
    /// `configuration` assigns a region outside the deployment.
    pub fn schedule_reconfiguration(
        &mut self,
        at_ms: f64,
        topic_index: usize,
        configuration: Configuration,
    ) {
        assert!(topic_index < self.topics.len(), "topic index out of bounds");
        assert_fits(topic_index, configuration, self.n_regions);
        self.queue.schedule(
            SimTime::from_ms(at_ms),
            Event::Reconfigure { topic: topic_index, configuration },
        );
    }

    /// Runs the scenario for `duration_ms` of simulated time. Publications
    /// are emitted strictly before the deadline; messages already in
    /// flight at the deadline still complete, exactly like a real drain.
    ///
    /// The finished run is added to the global `multipub_netsim_*` metrics:
    /// one event per publication, per broker arrival and per delivery, one
    /// histogram sample per delivery (the crate-level example counts them).
    pub fn run(mut self, duration_ms: f64) -> SimReport {
        self.schedule_publications(duration_ms);
        let mut events = 0u64;
        while let Some((now, event)) = self.queue.pop() {
            events += 1;
            self.handle(now, event);
            self.log.settle_if_due(now);
        }
        let Engine { log, ledger, published_count, lost_count, .. } = self;
        let deliveries = log.into_ordered();
        // The global metrics see the finished run once; the loop above
        // touches no shared atomic. A delivery counts as an event: it was
        // one until it became a line of the log.
        multipub_obs::counter!(NETSIM_EVENTS_TOTAL).add(events + deliveries.len() as u64);
        multipub_obs::counter!(NETSIM_LOST_TOTAL).add(lost_count);
        multipub_obs::histogram!(NETSIM_DELIVERY_MS)
            .record_all(deliveries.iter().map(DeliveryRecord::latency_ms));
        SimReport::new(deliveries, ledger, published_count, lost_count, duration_ms)
    }

    fn schedule_publications(&mut self, duration_ms: f64) {
        assert!(duration_ms >= 0.0 && duration_ms.is_finite(), "duration must be non-negative");
        for (topic_index, topic) in self.topics.iter().enumerate() {
            for (publisher_index, publisher) in topic.publishers().iter().enumerate() {
                for t in publisher.publish_times_ms(duration_ms) {
                    let at = SimTime::from_ms(t);
                    // A publish-burst window multiplies the in-window load.
                    for _ in 0..self.faults.plan().burst_multiplier(at) {
                        self.queue.schedule(
                            at,
                            Event::Publish { topic: topic_index, publisher: publisher_index },
                        );
                    }
                }
            }
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Reconfigure { topic, configuration } => {
                self.routing[topic] =
                    TopicRouting::new(&self.topics[topic], configuration, self.n_regions);
            }
            Event::Publish { topic, publisher } => self.on_publish(now, topic, publisher),
            Event::RegionReceive { message, region, deliver_only } => {
                self.on_region_receive(now, message, region, deliver_only)
            }
        }
    }

    fn on_publish(&mut self, now: SimTime, topic: usize, publisher: usize) {
        let Engine { topics, routing, queue, jitter, faults, published_count, lost_count, .. } =
            self;
        *published_count += 1;
        let routing = &routing[topic];
        let latencies = topics[topic].publishers()[publisher].latencies();
        let message = Message { topic, publisher, published_at: now };
        // Direct: the publisher uploads to every serving region itself.
        // Routed: only to its closest one, which forwards. Inbound traffic
        // is free either way, so nothing is billed here.
        let (targets, deliver_only) = match routing.mode {
            DeliveryMode::Direct => (routing.serving.as_slice(), true),
            DeliveryMode::Routed => {
                (std::slice::from_ref(&routing.publisher_home[publisher]), false)
            }
        };
        for &region in targets {
            if faults.drop_packet() {
                *lost_count += 1;
                continue;
            }
            let hop = latencies[region.index()] + jitter.sample();
            queue.schedule(now + hop, Event::RegionReceive { message, region, deliver_only });
        }
    }

    fn on_region_receive(
        &mut self,
        now: SimTime,
        message: Message,
        region: RegionId,
        deliver_only: bool,
    ) {
        let Engine {
            topics, inter, routing, queue, jitter, faults, log, ledger, lost_count, ..
        } = self;
        // A region inside an outage window has no broker: the arriving
        // copy (and everything it would have produced downstream) dies.
        if faults.plan().region_down(region, now) {
            *lost_count += 1;
            return;
        }
        let routing = &routing[message.topic];
        let clients = &topics[message.topic];
        let publisher = &clients.publishers()[message.publisher];
        let size = publisher.size_bytes();

        // Routed first hop: forward to the other serving regions, billing
        // inter-region egress at this region's α rate. Egress is billed at
        // send time, so copies lost in flight still cost money.
        if !deliver_only {
            for &peer in routing.serving.iter().filter(|&&peer| peer != region) {
                ledger.record_inter_region(region, size);
                if faults.drop_packet() {
                    *lost_count += 1;
                    continue;
                }
                let hop = inter.latency(region, peer)
                    + faults.plan().extra_link_ms(region, peer, now)
                    + jitter.sample();
                let forwarded = Event::RegionReceive { message, region: peer, deliver_only: true };
                queue.schedule(now + hop, forwarded);
            }
        }

        // Deliver to the subscribers homed at this region, billing
        // Internet egress at this region's β rate. A duplicate-delivery
        // window fans each delivery into several copies — an
        // at-least-once redelivery storm — and each copy is billed,
        // lost and delayed independently. A copy that is not lost is a
        // line of the log from here on: nothing happens when it lands.
        let copies = faults.plan().duplicate_copies(now);
        for &subscriber in &routing.local_subscribers[region.index()] {
            let client = &clients.subscribers()[subscriber];
            for _ in 0..copies {
                ledger.record_internet(region, size);
                if faults.drop_packet() {
                    *lost_count += 1;
                    continue;
                }
                let latency = client.latencies()[region.index()]
                    + jitter.sample()
                    // An active reorder window stretches this copy by a
                    // seeded uniform draw, shuffling arrival order.
                    + faults.reorder_extra_ms(now);
                // A stalled subscriber queues the delivery until its stall
                // window ends — the simulated slow consumer.
                let delivered_at = faults.plan().stall_release(client.client(), now + latency);
                debug_assert!(delivered_at >= now, "a delivery cannot land before it is sent");
                log.write(DeliveryRecord {
                    topic_index: message.topic,
                    publisher: publisher.client(),
                    subscriber: client.client(),
                    published_at: message.published_at,
                    delivered_at,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SimPublisher, SimSubscriber, TopicScenario};
    use multipub_core::assignment::{AssignmentVector, Configuration};
    use multipub_core::ids::{ClientId, TopicId};
    use multipub_core::latency::InterRegionMatrix;
    use multipub_core::region::{Region, RegionSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_region_scenario(mode: DeliveryMode) -> Scenario {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(AssignmentVector::all(2).unwrap(), mode),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![
                SimSubscriber::new(ClientId(1), vec![4.0, 70.0]),
                SimSubscriber::new(ClientId(2), vec![70.0, 6.0]),
            ],
        );
        Scenario::new(regions, inter, vec![topic])
    }

    /// Record `sent` of an emission sequence: the subscriber id is its
    /// place in send order, so equal times stay distinguishable.
    fn record_landing_at(sent: usize, delivered_at_ms: f64) -> DeliveryRecord {
        DeliveryRecord {
            topic_index: 0,
            publisher: ClientId(0),
            subscriber: ClientId(sent as u64),
            published_at: SimTime::ZERO,
            delivered_at: SimTime::from_ms(delivered_at_ms),
        }
    }

    fn emission(times_ms: impl IntoIterator<Item = f64>) -> Vec<DeliveryRecord> {
        times_ms.into_iter().enumerate().map(|(sent, at)| record_landing_at(sent, at)).collect()
    }

    /// The order the log must end in: one stable sort of everything sent.
    fn stable_sorted(mut sent: Vec<DeliveryRecord>) -> Vec<DeliveryRecord> {
        sent.sort_by(|a, b| a.delivered_at.total_cmp(b.delivered_at));
        sent
    }

    /// Miri interprets; the shapes matter there, not the sizes.
    fn scaled(len: usize) -> usize {
        if cfg!(miri) {
            len / 16
        } else {
            len
        }
    }

    #[test]
    fn tail_sort_is_the_stable_sort_by_delivery_time() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = scaled(5000);
        let mut cases: Vec<(&str, Vec<f64>)> = vec![
            // A dozen whole-millisecond times: each tie group is hundreds long
            // and sits in one bucket, so an unstable sort inside it shows.
            ("heavy ties", (0..n).map(|_| rng.random_range(0..12) as f64).collect()),
            // Burst and duplicate copies: runs of equal times, sent together.
            ("copies", (0..n).map(|i| ((i / 7) * 31 % 400) as f64 * 0.25).collect()),
            ("all equal", vec![77.5; n]),
            (
                "two clusters 1e9 ms apart",
                (0..n).map(|i| (i % 2) as f64 * 1e9 + rng.random_range(0..50) as f64).collect(),
            ),
            (
                "one far-future straggler",
                (0..n)
                    .map(|i| if i == n / 3 { 4e12 } else { rng.random_range(0.0..90.0) })
                    .collect(),
            ),
            ("already sorted", (0..n).map(|i| (i / 3) as f64).collect()),
            ("reversed", (0..n).map(|i| ((n - i) / 3) as f64).collect()),
            ("a span too small to scale", (0..64).map(|i| (i % 2) as f64 * 5e-324).collect()),
        ];
        // Lengths 0, 1, around one bucket's worth (where the sort is the
        // plain `sort_by`) and around the next bucket boundaries.
        for len in (0..=2).chain(RECORDS_PER_BUCKET - 1..=2 * RECORDS_PER_BUCKET + 1).chain(63..=65)
        {
            cases.push(("short", (0..len).map(|_| rng.random_range(0..4) as f64 * 0.5).collect()));
            cases.push(("short", (0..len).map(|_| rng.random_range(0.0..10.0)).collect()));
        }
        let (mut scratch, mut offsets) = (Vec::new(), Vec::new());
        for (case, times_ms) in cases {
            let len = times_ms.len();
            let mut records = emission(times_ms);
            let expected = stable_sorted(records.clone());
            // The buffers are reused from case to case, as in the log.
            sort_by_delivery_time(&mut records, &mut scratch, &mut offsets);
            assert_eq!(records, expected, "{case}, {len} records");
        }
    }

    #[test]
    fn delivery_log_ends_as_one_stable_sort_of_what_was_sent() {
        for seed in 0..scaled(48) as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Whole-millisecond clocks and delays on even seeds: ties
            // everywhere, and many records landing exactly at `now`.
            let whole = seed % 2 == 0;
            // Settles forced at every tail length around the floor, and a few
            // well below and above it.
            let forced_at = SETTLE_FLOOR - 24 + seed as usize;
            let mut log = DeliveryLog::new();
            let mut sent = Vec::new();
            let mut now_ms = 0.0;
            while sent.len() < scaled(6 * SETTLE_FLOOR) {
                // The clock never runs backwards; it often stands still.
                if rng.random_range(0..3) > 0 {
                    let step = rng.random_range(0.0..4.0);
                    now_ms += if whole { step.floor() } else { step };
                }
                let now = SimTime::from_ms(now_ms);
                for _ in 0..rng.random_range(0..40) {
                    let delay = match rng.random_range(0..10) {
                        0 | 1 => 0.0,                                // lands exactly at `now`
                        2 => 5_000.0 + rng.random_range(0.0..100.0), // a long stall carries it
                        _ => rng.random_range(0.0..60.0),
                    };
                    let lands = now_ms + if whole { delay.floor() } else { delay };
                    let record = record_landing_at(sent.len(), lands);
                    log.write(record);
                    sent.push(record);
                    if log.records.len() - log.settled == forced_at {
                        log.settle(now);
                    }
                }
                if rng.random_range(0..200) == 0 {
                    log.settle(now);
                } else {
                    log.settle_if_due(now);
                }
                // What is settled landed strictly before `now`, in order.
                let (settled, tail) = log.records.split_at(log.settled);
                assert!(settled.iter().all(|record| record.delivered_at < now), "seed {seed}");
                assert!(settled
                    .windows(2)
                    .all(|pair| pair[0].delivered_at <= pair[1].delivered_at));
                assert!(tail.len() < log.settle_at, "seed {seed}: a settle is overdue");
            }
            assert!(log.settled > 0 || cfg!(miri), "seed {seed}: never settled");
            assert_eq!(log.into_ordered(), stable_sorted(sent), "seed {seed}");
        }
    }

    #[test]
    fn direct_delivery_times_match_equation_1() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // 10 messages × 2 subscribers.
        assert_eq!(report.delivery_count(), 20);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,  // via region 0
                ClientId(2) => 60.0 + 6.0, // via region 1
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn routed_delivery_times_match_equation_2() {
        let scenario = two_region_scenario(DeliveryMode::Routed);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,        // local region
                ClientId(2) => 5.0 + 40.0 + 6.0, // forwarded hop
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_bills_only_internet_egress() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let regions = scenario.regions().clone();
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 10_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 10_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 0);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        let expected = 10_000.0 * (0.09 + 0.14) / 1e9;
        assert!((report.cost_dollars(&regions) - expected).abs() < 1e-12);
    }

    #[test]
    fn routed_bills_forwarding_at_home_region() {
        let scenario = two_region_scenario(DeliveryMode::Routed);
        let regions = scenario.regions().clone();
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // Publisher home is region 0; 10 messages forwarded to region 1.
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 10_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        let expected = 10_000.0 * (0.09 + 0.14) / 1e9 + 10_000.0 * 0.02 / 1e9;
        assert!((report.cost_dollars(&regions) - expected).abs() < 1e-12);
    }

    #[test]
    fn jitter_only_adds_latency() {
        let base = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::disabled(), 7)
            .run(1000.0);
        let noisy = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 7)
            .run(1000.0);
        assert_eq!(base.delivery_count(), noisy.delivery_count());
        // Jitter is non-negative, so every percentile can only grow.
        for ratio in [10.0, 50.0, 95.0] {
            assert!(noisy.percentile_ms(ratio) >= base.percentile_ms(ratio));
        }
        // And bounded: at most 3 hops × 5 ms extra.
        assert!(noisy.percentile_ms(100.0) <= base.percentile_ms(100.0) + 15.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 3)
            .run(1000.0);
        let b = Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::uniform(5.0), 3)
            .run(1000.0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_duration_produces_nothing() {
        let report =
            Engine::new(two_region_scenario(DeliveryMode::Direct), Jitter::disabled(), 0).run(0.0);
        assert_eq!(report.published_count(), 0);
        assert_eq!(report.delivery_count(), 0);
    }

    #[test]
    fn single_region_routed_behaves_like_direct() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Routed,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions.clone(), inter, vec![topic]);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        // All deliveries via region 0: 5 + 70.
        assert_eq!(report.percentile_ms(100.0), 75.0);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 0);
    }

    #[test]
    fn mid_run_reconfiguration_changes_routing() {
        // Start with region 0 only; at t = 500 ms switch to region 1 only.
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            // Subscriber near region 1: slow via region 0 (70 ms leg),
            // fast via region 1 (6 ms leg).
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions, inter, vec![topic]);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            500.0,
            0,
            Configuration::new(
                AssignmentVector::single(RegionId(1), 2).unwrap(),
                DeliveryMode::Direct,
            ),
        );
        let report = engine.run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        for d in report.deliveries() {
            let expected = if d.published_at.as_ms() < 500.0 {
                5.0 + 70.0 // via region 0
            } else {
                60.0 + 6.0 // via region 1
            };
            assert!(
                (d.latency_ms() - expected).abs() < 1e-9,
                "published at {}: {} vs {expected}",
                d.published_at,
                d.latency_ms()
            );
        }
    }

    #[test]
    #[should_panic(expected = "topic index out of bounds")]
    fn reconfiguration_validates_topic_index() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            1.0,
            9,
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
        );
    }

    /// Valid for a six-region deployment, too wide for the two-region one.
    fn region_5_only() -> Configuration {
        Configuration::new(AssignmentVector::single(RegionId(5), 6).unwrap(), DeliveryMode::Direct)
    }

    #[test]
    #[should_panic(
        expected = "topic 0: configuration mask 0b100000 assigns a region outside the 2-region deployment"
    )]
    fn engine_rejects_a_configuration_wider_than_the_deployment() {
        let mut scenario = two_region_scenario(DeliveryMode::Direct);
        scenario.topics_mut()[0].set_configuration(region_5_only());
        let _ = Engine::new(scenario, Jitter::disabled(), 0);
    }

    #[test]
    #[should_panic(
        expected = "topic 0: configuration mask 0b100000 assigns a region outside the 2-region deployment"
    )]
    fn reconfiguration_rejects_a_configuration_wider_than_the_deployment() {
        let scenario = two_region_scenario(DeliveryMode::Direct);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        // Rejected when scheduled, not when the event fires mid-run.
        engine.schedule_reconfiguration(500.0, 0, region_5_only());
    }

    #[test]
    fn full_packet_loss_drops_every_delivery() {
        let scenario = two_region_scenario(DeliveryMode::Direct)
            .with_fault_plan(crate::faults::FaultPlan::none().with_loss_rate(1.0));
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 0);
        // 10 publications × 2 serving regions, every uplink copy dropped.
        assert_eq!(report.lost_count(), 20);
        assert_eq!(report.published_count(), 10);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let scenario = two_region_scenario(DeliveryMode::Routed)
                .with_fault_plan(crate::faults::FaultPlan::none().with_loss_rate(0.4));
            Engine::new(scenario, Jitter::uniform(5.0), seed).run(1000.0)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b);
        assert!(a.lost_count() > 0, "rate 0.4 should lose something");
        assert!(a.delivery_count() > 0, "rate 0.4 should deliver something");
    }

    fn one_region_topic(region: u8) -> TopicScenario {
        TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(region), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![4.0, 70.0])],
        )
    }

    #[test]
    fn outage_window_kills_in_window_arrivals() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let scenario = Scenario::new(regions, inter, vec![one_region_topic(0)]).with_fault_plan(
            crate::faults::FaultPlan::none().with_outage(crate::faults::RegionOutage::new(
                RegionId(0),
                300.0,
                700.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // Publications at 0, 100, …, 900 arrive at the broker 5 ms later;
        // the four arrivals at 305, 405, 505, 605 die with the broker.
        assert_eq!(report.lost_count(), 4);
        assert_eq!(report.delivery_count(), 6);
        for d in report.deliveries() {
            let arrival = d.published_at.as_ms() + 5.0;
            assert!(!(300.0..700.0).contains(&arrival), "in-window arrival survived: {arrival}");
            assert!((d.latency_ms() - 9.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reconfiguration_reconverges_after_outage() {
        // Region 0 dies over [300, 700); the controller's round at t = 500
        // moves the topic to region 1. Deliveries must stop during the
        // outage and resume — deterministically — after the switch.
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::single(RegionId(0), 2).unwrap(),
                DeliveryMode::Direct,
            ),
            vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 1000)],
            vec![SimSubscriber::new(ClientId(1), vec![70.0, 6.0])],
        );
        let scenario = Scenario::new(regions, inter, vec![topic]).with_fault_plan(
            crate::faults::FaultPlan::none().with_outage(crate::faults::RegionOutage::new(
                RegionId(0),
                300.0,
                700.0,
            )),
        );
        let run = || {
            let mut engine = Engine::new(scenario.clone(), Jitter::disabled(), 42);
            engine.schedule_reconfiguration(
                500.0,
                0,
                Configuration::new(
                    AssignmentVector::single(RegionId(1), 2).unwrap(),
                    DeliveryMode::Direct,
                ),
            );
            engine.run(1000.0)
        };
        let report = run();
        assert_eq!(report, run(), "fault scenario must be deterministic");
        // Publications at 300 and 400 arrive at the dead region 0.
        assert_eq!(report.lost_count(), 2);
        assert_eq!(report.delivery_count(), 8);
        for d in report.deliveries() {
            let expected = if d.published_at.as_ms() < 500.0 {
                5.0 + 70.0 // via region 0, before the outage
            } else {
                60.0 + 6.0 // via region 1, after re-optimization
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
        // Reconvergence: the first post-outage delivery is the t = 500
        // publication, landing 266 ms after the outage began.
        let first_after = report
            .deliveries()
            .iter()
            .filter(|d| d.published_at.as_ms() >= 300.0)
            .map(|d| d.delivered_at.as_ms())
            .fold(f64::INFINITY, f64::min);
        assert!((first_after - 566.0).abs() < 1e-9);
    }

    #[test]
    fn link_degradation_stretches_routed_forwards() {
        let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(
            crate::faults::FaultPlan::none().with_degradation(crate::faults::LinkDegradation::new(
                RegionId(0),
                RegionId(1),
                0.0,
                2000.0,
                50.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,               // local, unaffected
                ClientId(2) => 5.0 + 40.0 + 50.0 + 6.0, // degraded forward
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn publish_burst_multiplies_in_window_load() {
        // Publications at 0, 100, …, 900; the burst covers the first five.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none()
                .with_burst(crate::faults::PublishBurst::new(3, 0.0, 500.0)),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // 5 in-window publications × 3 + 5 outside = 20 publications,
        // each reaching both subscribers.
        assert_eq!(report.published_count(), 20);
        assert_eq!(report.delivery_count(), 40);
        assert_eq!(report.lost_count(), 0);
        // The burst bills proportionally: 20 messages × 1000 bytes of
        // Internet egress at each serving region.
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 20_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 20_000);
        // Burst copies share their original's timestamp, so latency is
        // untouched — load grows, per-message timing does not.
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn subscriber_stall_queues_deliveries_until_release() {
        // Subscriber 1 (9 ms path via region 0) stalls over [0, 400):
        // arrivals inside the window land exactly at 400 ms; later ones
        // are untouched. Subscriber 2 never stalls.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none().with_stall(crate::faults::SubscriberStall::new(
                ClientId(1),
                0.0,
                400.0,
            )),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        // A stall defers, it does not lose: every delivery still arrives.
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            match d.subscriber {
                ClientId(1) => {
                    let arrival = d.published_at.as_ms() + 9.0;
                    let expected = if arrival < 400.0 { 400.0 } else { arrival };
                    assert!(
                        (d.delivered_at.as_ms() - expected).abs() < 1e-9,
                        "published at {}: delivered {} vs {expected}",
                        d.published_at,
                        d.delivered_at
                    );
                }
                ClientId(2) => assert!((d.latency_ms() - 66.0).abs() < 1e-9),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn duplicate_window_fans_out_and_bills_every_copy() {
        // All 10 publications × 2 subscribers, tripled by the window.
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
            crate::faults::FaultPlan::none()
                .with_duplicate(crate::faults::DuplicateDelivery::new(3, 0.0, 2000.0)),
        );
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 60);
        assert_eq!(report.lost_count(), 0);
        // Duplicates are not free: each copy bills Internet egress.
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 30_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 30_000);
        // Copies share their original's timing, so latency is untouched.
        for d in report.deliveries() {
            let expected = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            assert!((d.latency_ms() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn reorder_window_delays_within_span_and_loses_nothing() {
        let run = || {
            let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(
                crate::faults::FaultPlan::none()
                    .with_reorder(crate::faults::ReorderWindow::new(20.0, 0.0, 2000.0)),
            );
            Engine::new(scenario, Jitter::disabled(), 5).run(1000.0)
        };
        let report = run();
        assert_eq!(report, run(), "reorder scenario must be deterministic");
        assert_eq!(report.delivery_count(), 20);
        assert_eq!(report.lost_count(), 0);
        for d in report.deliveries() {
            let base = match d.subscriber {
                ClientId(1) => 5.0 + 4.0,
                ClientId(2) => 60.0 + 6.0,
                _ => unreachable!(),
            };
            let extra = d.latency_ms() - base;
            assert!((0.0..20.0).contains(&extra), "extra delay {extra} outside the span");
        }
    }

    #[test]
    fn duplicates_and_reorder_leave_loss_pattern_unchanged() {
        // The loss stream must be independent of the new fault shapes:
        // with full duplication the per-copy loss draws change which
        // *copies* die, but a loss-only run and a loss+reorder run make
        // identical draws.
        let run = |plan: crate::faults::FaultPlan| {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
            Engine::new(scenario, Jitter::disabled(), 11).run(1000.0)
        };
        let loss_only = crate::faults::FaultPlan::none().with_loss_rate(0.4);
        let with_reorder =
            loss_only.clone().with_reorder(crate::faults::ReorderWindow::new(15.0, 0.0, 2000.0));
        let a = run(loss_only);
        let b = run(with_reorder);
        assert_eq!(a.lost_count(), b.lost_count());
        assert_eq!(a.delivery_count(), b.delivery_count());
    }

    #[test]
    fn stall_plus_burst_runs_are_deterministic() {
        let run = || {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(
                crate::faults::FaultPlan::none()
                    .with_burst(crate::faults::PublishBurst::new(10, 200.0, 600.0))
                    .with_stall(crate::faults::SubscriberStall::new(ClientId(2), 100.0, 800.0))
                    .with_loss_rate(0.1),
            );
            Engine::new(scenario, Jitter::uniform(3.0), 21).run(1000.0)
        };
        let a = run();
        assert_eq!(a, run(), "overload scenario must be reproducible");
        assert!(a.published_count() > 10, "burst must add load");
        assert!(a.delivery_count() > 0);
    }

    #[test]
    fn draw_free_fault_shapes_interact_exactly() {
        // Every fault shape that makes no RNG draw, at once, on the routed
        // two-region scenario (publisher homed at region 0, ClientId(1) at
        // region 0, ClientId(2) at region 1), plus a switch to direct
        // delivery at t = 620. Publications leave at 0, 100, …, 900.
        use crate::faults::{
            DuplicateDelivery, FaultPlan, LinkDegradation, PublishBurst, RegionOutage,
            SubscriberStall,
        };
        let plan = FaultPlan::none()
            .with_outage(RegionOutage::new(RegionId(1), 340.0, 450.0))
            .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 250.0, 50.0))
            .with_stall(SubscriberStall::new(ClientId(2), 300.0, 360.0))
            .with_burst(PublishBurst::new(3, 100.0, 300.0))
            .with_duplicate(DuplicateDelivery::new(2, 500.0, 720.0));
        let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
        let mut engine = Engine::new(scenario, Jitter::disabled(), 0);
        engine.schedule_reconfiguration(
            620.0,
            0,
            Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct),
        );
        let report = engine.run(1000.0);

        // (subscriber, published at, delivered at, copies), in delivery order.
        // Routed until 620: region 0 at t + 5 serves ClientId(1) 4 ms later
        // and forwards over the 40 ms link, degraded by 50 ms for departures
        // before 250; region 1 serves ClientId(2) 6 ms after it receives.
        let expected: [(u64, f64, f64, usize); 18] = [
            (1, 0.0, 9.0, 1),
            (2, 0.0, 101.0, 1),   // 5 + 90 + 6
            (1, 100.0, 109.0, 3), // burst ×3
            (2, 100.0, 201.0, 3),
            (1, 200.0, 209.0, 3),
            (1, 300.0, 309.0, 1), // its forward reaches region 1 at 345: down
            (2, 200.0, 360.0, 3), // arrives 301, queued behind the stall
            (1, 400.0, 409.0, 1), // forward reaches region 1 at 445: down
            (1, 500.0, 509.0, 2), // duplicate window ×2 at region 0 …
            (2, 500.0, 551.0, 2), // … and at region 1 (5 + 40 + 6)
            (1, 600.0, 609.0, 2),
            (2, 600.0, 651.0, 2), // in flight across the reconfiguration
            (1, 700.0, 709.0, 2), // direct: region 0 at 705, still duplicated
            (2, 700.0, 766.0, 1), // direct: region 1 at 760 (60 + 6)
            (1, 800.0, 809.0, 1),
            (2, 800.0, 866.0, 1),
            (1, 900.0, 909.0, 1),
            (2, 900.0, 966.0, 1),
        ];
        let expected: Vec<(ClientId, f64, f64)> = expected
            .iter()
            .flat_map(|&(s, p, d, copies)| std::iter::repeat_n((ClientId(s), p, d), copies))
            .collect();
        let measured: Vec<(ClientId, f64, f64)> = report
            .deliveries()
            .iter()
            .map(|d| (d.subscriber, d.published_at.as_ms(), d.delivered_at.as_ms()))
            .collect();
        assert_eq!(measured, expected);
        assert_eq!(report.published_count(), 14); // 10 + 2 × 2 burst copies
        assert_eq!(report.delivery_count(), 31);
        assert_eq!(report.lost_count(), 2);
        // 11 routed publications forwarded once each; 17 + 14 delivery copies.
        assert_eq!(report.ledger().inter_region_bytes(RegionId(0)), 11_000);
        assert_eq!(report.ledger().inter_region_bytes(RegionId(1)), 0);
        assert_eq!(report.ledger().internet_bytes(RegionId(0)), 17_000);
        assert_eq!(report.ledger().internet_bytes(RegionId(1)), 14_000);
    }

    /// The log as a queue of delivery events keyed `(time, sequence)` would
    /// have produced it: the run without a single settle, so the log is the
    /// emission sequence, pushed through the heap in that order and drained.
    fn heap_ordered_log(mut engine: Engine, duration_ms: f64) -> Vec<DeliveryRecord> {
        engine.schedule_publications(duration_ms);
        while let Some((now, event)) = engine.queue.pop() {
            engine.handle(now, event);
        }
        let mut heap = EventQueue::new();
        engine
            .log
            .records
            .into_iter()
            .for_each(|record| heap.schedule(record.delivered_at, record));
        std::iter::from_fn(|| heap.pop().map(|(_, record)| record)).collect()
    }

    /// Three regions, six topics of 3 × 10 clients at 100 msg/s with seeded
    /// latency rows — whole milliseconds when `whole`, so deliveries tie —
    /// and one subscriber per topic with no last mile at all, whose
    /// deliveries land at the very `now` the broker sends them.
    fn seeded_scenario(rng: &mut StdRng, mode: DeliveryMode, whole: bool) -> Scenario {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
            Region::new("c", "C", 0.05, 0.11),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 75.0],
            vec![40.0, 0.0, 55.0],
            vec![75.0, 55.0, 0.0],
        ])
        .unwrap();
        let mut row = |scale: f64| -> Vec<f64> {
            let row = (0..3).map(|_| rng.random_range(0.0..90.0) * scale);
            if whole {
                row.map(f64::round).collect()
            } else {
                row.collect()
            }
        };
        let topics = (0..6u64)
            .map(|t| {
                let assignment =
                    AssignmentVector::from_mask([0b111, 0b101, 0b010][t as usize % 3], 3);
                let publishers = (0..3)
                    .map(|p| {
                        let client = ClientId(100 * t + p);
                        SimPublisher::with_phase(client, row(1.0), 100.0, 100, 1.7 * p as f64)
                    })
                    .collect();
                let subscribers = (0..scaled(10).max(2) as u64)
                    .map(|s| SimSubscriber::new(ClientId(100 * t + 10 + s), row(s.min(1) as f64)))
                    .collect();
                let configuration = Configuration::new(assignment.unwrap(), mode);
                TopicScenario::new(
                    TopicId::new(format!("t{t}")),
                    configuration,
                    publishers,
                    subscribers,
                )
            })
            .collect();
        Scenario::new(regions, inter, topics)
    }

    #[test]
    fn the_log_is_what_a_heap_of_delivery_events_would_pop() {
        use crate::faults::{
            DuplicateDelivery, FaultPlan, LinkDegradation, PublishBurst, RegionOutage,
            ReorderWindow, SubscriberStall,
        };
        let quiet = FaultPlan::none;
        let everything = quiet()
            .with_loss_rate(0.03)
            .with_outage(RegionOutage::new(RegionId(1), 300.0, 420.0))
            .with_degradation(LinkDegradation::new(RegionId(0), RegionId(2), 100.0, 700.0, 35.0))
            .with_stall(SubscriberStall::new(ClientId(211), 50.0, 900.0))
            .with_stall(SubscriberStall::new(ClientId(312), 950.0, 1_400.0))
            .with_burst(PublishBurst::new(3, 600.0, 650.0))
            .with_duplicate(DuplicateDelivery::new(2, 500.0, 640.0))
            .with_reorder(ReorderWindow::new(25.0, 200.0, 450.0));
        let plans = [
            ("quiet", quiet()),
            ("loss", quiet().with_loss_rate(0.05)),
            ("outage", quiet().with_outage(RegionOutage::new(RegionId(0), 200.0, 500.0))),
            (
                "degradation",
                quiet().with_degradation(LinkDegradation::new(
                    RegionId(1),
                    RegionId(0),
                    0.0,
                    600.0,
                    80.0,
                )),
            ),
            // Carries a tenth of one topic's deliveries across most of the run.
            ("stall", quiet().with_stall(SubscriberStall::new(ClientId(13), 20.0, 950.0))),
            ("burst", quiet().with_burst(PublishBurst::new(4, 400.0, 500.0))),
            ("duplicate", quiet().with_duplicate(DuplicateDelivery::new(3, 100.0, 300.0))),
            ("reorder", quiet().with_reorder(ReorderWindow::new(30.0, 0.0, 2_000.0))),
            ("everything", everything),
        ];
        let mut settled_somewhere = false;
        for (seed, (name, plan)) in plans.into_iter().enumerate() {
            for (mode, jitter, whole) in [
                (DeliveryMode::Direct, Jitter::disabled(), true),
                (DeliveryMode::Routed, Jitter::disabled(), false),
                (DeliveryMode::Routed, Jitter::uniform(4.0), true),
                (DeliveryMode::Direct, Jitter::uniform(4.0), false),
            ] {
                let seed = seed as u64;
                let build = || {
                    let scenario = seeded_scenario(&mut StdRng::seed_from_u64(seed), mode, whole)
                        .with_fault_plan(plan.clone());
                    let mut engine = Engine::new(scenario, jitter, seed);
                    // Mid-run, topic 0 changes mode and serving set.
                    let other = match mode {
                        DeliveryMode::Direct => DeliveryMode::Routed,
                        DeliveryMode::Routed => DeliveryMode::Direct,
                    };
                    let moved = AssignmentVector::from_mask(0b110, 3).unwrap();
                    engine.schedule_reconfiguration(480.0, 0, Configuration::new(moved, other));
                    engine
                };
                let report = build().run(1_000.0);
                settled_somewhere |= report.delivery_count() > 2 * SETTLE_FLOOR as u64;
                let expected = heap_ordered_log(build(), 1_000.0);
                assert!(
                    report.deliveries() == expected.as_slice(),
                    "{name}, {mode:?}, jitter {jitter:?}, whole {whole}: the log differs"
                );
            }
        }
        assert!(settled_somewhere || cfg!(miri), "every run was too short to settle early");
    }

    #[test]
    fn chained_stalls_hold_deliveries_until_the_last_window_ends() {
        // Subscriber 1 (9 ms path) stalls over [0, 400) and again over
        // [300, 800): what the first stall releases at 400 is queued by the
        // second, so everything arriving before 800 lands at 800.
        let stalls = crate::faults::FaultPlan::none()
            .with_stall(crate::faults::SubscriberStall::new(ClientId(1), 0.0, 400.0))
            .with_stall(crate::faults::SubscriberStall::new(ClientId(1), 300.0, 800.0));
        let scenario = two_region_scenario(DeliveryMode::Direct).with_fault_plan(stalls);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 20);
        let landed: Vec<f64> = report
            .deliveries()
            .iter()
            .filter(|d| d.subscriber == ClientId(1))
            .map(|d| d.delivered_at.as_ms())
            .collect();
        assert_eq!(landed, [800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 809.0, 909.0]);
        // Queued deliveries keep the order they were sent in.
        let queued: Vec<f64> = report
            .deliveries()
            .iter()
            .filter(|d| d.delivered_at.as_ms() == 800.0)
            .map(|d| d.published_at.as_ms())
            .collect();
        assert_eq!(queued, [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]);
    }

    #[test]
    fn reconnect_storm_is_a_schedule_the_engine_ignores() {
        let run = |plan: crate::faults::FaultPlan| {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
            Engine::new(scenario, Jitter::uniform(3.0), 9).run(1000.0)
        };
        let storm = crate::faults::ReconnectStorm::new(RegionId(0), 0.0, 2000.0);
        let lossy = crate::faults::FaultPlan::none().with_loss_rate(0.2);
        assert_eq!(run(lossy.clone().with_reconnect_storm(storm)), run(lossy));
    }

    #[test]
    fn multiple_topics_are_isolated() {
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let make_topic = |name: &str, region: u8| {
            TopicScenario::new(
                TopicId::new(name),
                Configuration::new(
                    AssignmentVector::single(RegionId(region), 2).unwrap(),
                    DeliveryMode::Direct,
                ),
                vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 5.0, 100)],
                vec![SimSubscriber::new(ClientId(1), vec![4.0, 70.0])],
            )
        };
        let scenario =
            Scenario::new(regions, inter, vec![make_topic("t0", 0), make_topic("t1", 1)]);
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
        assert_eq!(report.delivery_count(), 10);
        assert_eq!(report.topic_percentile_ms(0, 100.0), 9.0);
        assert_eq!(report.topic_percentile_ms(1, 100.0), 130.0);
    }
}
