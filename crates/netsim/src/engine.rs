//! The discrete-event loop, run topic by topic.
//!
//! **Topics run apart.** Topics share nothing in the model — not a broker
//! queue, not a link, not a random draw — so [`Engine::run`] runs each
//! topic on its own: its own event queue contents and its own stretch of
//! the delivery log. The topics are split into contiguous chunks, one per
//! core, exactly as the optimizer splits them
//! ([`multipub_core::parallel::map_chunks`]); each worker runs its topics
//! one after another, and the calling thread runs the last chunk. The
//! report is the same bit for bit however many workers ran: it lists topic
//! 0's deliveries in send order, then topic 1's, and so on, and its counts
//! are integer sums.
//!
//! A topic's run schedules its publications up front, as one sorted batch
//! beside the event heap (`EventQueue::schedule_all`), then processes
//! events in time order; the heap holds only the topic's broker arrivals
//! and reconfigurations. There are two kinds of event, plus
//! reconfiguration:
//!
//! 1. **Publish** — the publisher's message leaves for the serving
//!    region(s): all of them under direct delivery, only the closest under
//!    routed delivery.
//! 2. **RegionReceive** — a broker receives the message. Under routed
//!    delivery a first-hop broker forwards it to the other serving regions
//!    (billing inter-region egress); every receiving broker then delivers
//!    to its local subscribers (billing Internet egress).
//!
//! A **Reconfigure** event installs the topic's new routing table; one to
//! the configuration the topic already runs builds none.
//!
//! **An arrival is one line of the delivery log.** A delivery is not an
//! event: a broker sending a copy already knows when it lands, and landing
//! reads no table, bills nothing, draws nothing and schedules nothing. An
//! arrival that sends copies writes one 16-byte line (publication, arrival
//! time, routing table and region, whose group names the subscribers), and
//! tallies and counts its copies as it sends them. One function,
//! `landed_copies`, decides which copies land and when; the report calls it
//! again for each line it reads, so it lists the same deliveries in the
//! order the brokers sent them. Most arrivals are **quiet** — no loss, no
//! stall, no jitter, no reorder or duplicate window — and their copies land
//! exactly their latency to the region after the arrival. Every
//! measurement the report makes is order-free; a caller that wants
//! delivery-time order sorts by `delivered_at` and then `topic_index` with
//! a stable sort, which keeps one topic's deliveries landing together in
//! send order.
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
//! draw that shuffles arrival order. A broker arrival reads the plan's
//! delivery windows once, however many copies it sends.
//!
//! **A draw is keyed by the copy it decides** ([`multipub_core::draw`]):
//! the engine seed, what it decides (its stream), the topic, the
//! publication's position in its topic, the region, the subscriber or peer
//! and the copy. No draw depends on event order, on another draw or on how
//! the topics were split, so a reorder window never changes which copies
//! are lost, one more subscriber moves no other delivery, and a quiet plan
//! draws nothing. A run folds the seed and the topic once, an arrival that
//! draws or sends copies its publication and region once, so each draw is
//! one finalizer, and the report, reading a line, folds the same key.
//!
//! **What allocates.** The event handlers read the routing tables, the
//! latency rows and the fault plan in place, so handling a `Publish` or
//! `RegionReceive` event allocates nothing of its own. Each worker owns
//! one event queue, reused from topic to topic (the publication batch and
//! the heap grow to the largest topic's and stay), one delivery log for its
//! topics (the publication table, 16 bytes an arrival however many copies
//! it sends, and 16 bytes a topic marking where its stretch ends), and one
//! set of totals — the traffic ledger, the lost and delivered counts and
//! the latency [`multipub_obs::Tally`] — summed after the join. Each topic
//! adds one routing table when its run starts and one per `Reconfigure`
//! event that changes its configuration, each a single `Vec<u32>` kept for
//! the report. A topic's draw key is two words on the worker's stack. The
//! scenario the engine takes shares its client lists and latency rows by
//! `Arc`, so cloning one for the next run copies no row, and the finished
//! run hands its topics, its fault plan, its jitter model and its seed to
//! the report, which turns the logs' lines back into deliveries. Events,
//! lost copies and deliveries are counted in the workers only;
//! [`Engine::run`] adds them to the global `multipub_netsim_*` metrics
//! once, after the join.

// lint:allow-file(indexing) discrete-event hot loop: every topic/publisher/subscriber/region index is minted from the validated `Scenario` at pre-schedule time and only round-trips through the event queue (a publication as its index in the worker's publication table, pushed before the message is sent), a topic's current table index is the index of a table already pushed to the same log, each routing table is laid out for its own topic's client counts and region count, every topic range comes from `map_chunks` over the topic count, and `Engine::new` checks every latency row's width and every configuration against the region count before a routing table is built, so all slice accesses are in bounds by construction

use crate::faults::{DeliveryFaults, FaultPlan};
use crate::jitter::Jitter;
use crate::metrics::{Arrival, DeliveryLog, Publication, SimReport, Totals};
use crate::queue::EventQueue;
use crate::routing::TopicRouting;
use crate::scenario::{Scenario, SimSubscriber, TopicScenario};
use crate::time::SimTime;
use multipub_core::assignment::{AssignmentVector, Configuration, DeliveryMode};
use multipub_core::draw::Key;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::parallel;
use multipub_obs::metrics::{NETSIM_DELIVERY_MS, NETSIM_EVENTS_TOTAL, NETSIM_LOST_TOTAL};
use std::cell::LazyCell;
use std::ops::Range;

/// One publication on its way: its index in the worker's publication table.
#[derive(Debug, Clone, Copy)]
struct Message {
    publication: u32,
}

/// An event of one topic's run.
#[derive(Debug)]
enum Event {
    /// Installs a new configuration for the topic — the simulated
    /// counterpart of a controller `ConfigUpdate` reaching every broker
    /// and client at once.
    Reconfigure {
        configuration: Configuration,
    },
    Publish {
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

/// A reconfiguration scheduled before the run.
#[derive(Debug, Clone, Copy)]
struct Reconfiguration {
    at: SimTime,
    topic: usize,
    configuration: Configuration,
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

/// Panics, naming what was counted, unless `count` of them can be numbered
/// by the delivery log's `u32` indices.
fn assert_indexable(count: usize, what: impl std::fmt::Display) {
    assert!(u32::try_from(count).is_ok(), "{count} {what} exceed the delivery log's u32 indices");
}

// What a draw decides, its stream: no two decisions about one copy share
// a draw.
const UPLINK_LOSS: u8 = 0;
const UPLINK_JITTER: u8 = 1;
const FORWARD_LOSS: u8 = 2;
const FORWARD_JITTER: u8 = 3;
const DELIVERY_LOSS: u8 = 4;
const DELIVERY_JITTER: u8 = 5;
const REORDER: u8 = 6;

/// A topic's draws: the engine seed and the topic folded, and the index of
/// the topic's first publication in the worker's table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draws {
    topic: Key,
    first_publication: u32,
}

impl Draws {
    /// The draws of topic `topic` under engine seed `seed`, whose first
    /// publication is the worker's `first_publication`-th.
    pub(crate) fn new(seed: u64, topic: usize, first_publication: u32) -> Self {
        Draws { topic: Key::new(seed).fold(topic as u64), first_publication }
    }

    /// The key of the draws about publication `publication` (its index in
    /// the worker's table) at `region`: its position in its topic, which no
    /// split of the topics over workers changes, and the region, side by
    /// side in one word.
    pub(crate) fn at(self, publication: u32, region: RegionId) -> Key {
        let publication = u64::from(publication - self.first_publication);
        self.topic.fold(publication << 8 | u64::from(region.0))
    }
}

/// The copies that `arrival` sends to `group` (indices into `subscribers`,
/// the topic's) and that land, as (subscriber index, when it lands), in
/// send order: each subscriber's copies one after the other. The one place
/// a copy's fate is decided: the engine tallies what it yields as the
/// broker sends, the report calls it again for every line it reads.
///
/// `delivery` is the plan's `deliveries_at(arrival.arrived_at)`, `key` gives
/// the arrival's draw key ([`Draws::at`]). A copy is lost when its loss
/// draw says so; one that survives takes its latency to the region, plus its
/// jitter draw, plus its reorder draw, then waits out any stall.
///
/// A quiet arrival (no loss, no stall, jitter off, no reorder or duplicate
/// window) takes no key and lands each copy at `arrived_at + latency` in a
/// loop that tests nothing per copy. The general expression gives the same
/// bits: `arrived_at + (latency + 0.0 + 0.0)` is `arrived_at + latency`,
/// since `+ 0.0` changes no value but `−0.0`, into `+0.0`, which adds to a
/// time as `−0.0` does, and a plan without stalls releases a copy at once.
pub(crate) fn landed_copies<'a>(
    arrival: Arrival,
    group: &'a [u32],
    subscribers: &'a [SimSubscriber],
    delivery: DeliveryFaults,
    plan: &'a FaultPlan,
    jitter: Jitter,
    key: impl FnOnce() -> Key,
) -> impl Iterator<Item = (u32, SimTime)> + 'a {
    let (now, region) = (arrival.arrived_at, arrival.region().index());
    if jitter == Jitter::Disabled && delivery.leaves_deliveries_alone {
        let lands = move |&subscriber: &u32| {
            (subscriber, now + subscribers[subscriber as usize].latencies()[region])
        };
        return Either::Quiet(group.iter().map(lands));
    }
    let key = key();
    // `deliveries_at` checked that the copies are numbered by 29 bits.
    let copies = delivery.copies as u32;
    Either::Drawn(group.iter().flat_map(move |&subscriber| {
        let client = &subscribers[subscriber as usize];
        (0..copies).filter_map(move |copy| {
            if plan.drops(|| key.draw(DELIVERY_LOSS, subscriber, copy)) {
                return None;
            }
            let latency = client.latencies()[region]
                + jitter.delay_ms(|| key.draw(DELIVERY_JITTER, subscriber, copy))
                // An active reorder window stretches this copy by its
                // uniform draw, shuffling arrival order.
                + delivery.reorder_extra_ms(|| key.draw(REORDER, subscriber, copy));
            // A stalled subscriber queues the delivery until its stall
            // window ends — the simulated slow consumer.
            let delivered_at = plan.stall_release(client.client(), now + latency);
            debug_assert!(delivered_at >= now, "a delivery cannot land before it is sent");
            Some((subscriber, delivered_at))
        })
    }))
}

/// A quiet arrival's copies, or those of one that may draw.
enum Either<Q, D> {
    Quiet(Q),
    Drawn(D),
}

impl<Q: Iterator, D: Iterator<Item = Q::Item>> Iterator for Either<Q, D> {
    type Item = Q::Item;

    fn next(&mut self) -> Option<Q::Item> {
        match self {
            Either::Quiet(copies) => copies.next(),
            Either::Drawn(copies) => copies.next(),
        }
    }

    fn fold<B, F: FnMut(B, Q::Item) -> B>(self, init: B, f: F) -> B {
        match self {
            Either::Quiet(copies) => copies.fold(init, f),
            Either::Drawn(copies) => copies.fold(init, f),
        }
    }
}

/// The simulation engine. Construct with a scenario, run once, read the
/// report. See the crate-level example.
#[derive(Debug)]
pub struct Engine {
    n_regions: usize,
    topics: Vec<TopicScenario>,
    inter: InterRegionMatrix,
    plan: FaultPlan,
    jitter: Jitter,
    seed: u64,
    /// The reconfigurations scheduled so far, in the order they were.
    reconfigurations: Vec<Reconfiguration>,
}

/// What one worker hands back: the log of its topics, what it counted and
/// how many events it handled.
#[derive(Debug)]
struct WorkerRun {
    log: DeliveryLog,
    totals: Totals,
    events: u64,
}

impl Engine {
    /// Creates an engine for `scenario` with the given jitter model and
    /// RNG seed (the seed only matters when jitter or a sampling fault is
    /// enabled).
    ///
    /// # Panics
    ///
    /// Panics if a topic's configuration assigns a region outside the
    /// scenario's deployment, or a latency row's width differs from the
    /// region count (possible for a topic swapped in through
    /// [`Scenario::topics_mut`]). Panics, too, if the topics, or one
    /// topic's publishers or subscribers, number more than `u32::MAX`: the
    /// delivery log numbers them with `u32` indices.
    pub fn new(scenario: Scenario, jitter: Jitter, seed: u64) -> Self {
        let (regions, inter, topics, plan) = scenario.into_parts();
        let n_regions = regions.len();
        assert_indexable(topics.len(), "topics");
        for (index, topic) in topics.iter().enumerate() {
            topic.assert_rows_fit(n_regions);
            assert_fits(index, topic.configuration(), n_regions);
            let id = topic.id();
            assert_indexable(topic.publishers().len(), format_args!("publishers of topic {id}"));
            assert_indexable(topic.subscribers().len(), format_args!("subscribers of topic {id}"));
        }
        Engine { n_regions, topics, inter, plan, jitter, seed, reconfigurations: Vec::new() }
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
        let at = SimTime::from_ms(at_ms);
        self.reconfigurations.push(Reconfiguration { at, topic: topic_index, configuration });
    }

    /// Runs the scenario for `duration_ms` of simulated time. Publications
    /// are emitted strictly before the deadline; messages already in
    /// flight at the deadline still complete, exactly like a real drain.
    /// The topics run apart, fanned out over the available cores.
    ///
    /// The finished run is added to the global `multipub_netsim_*` metrics:
    /// one event per publication, per broker arrival and per delivery, one
    /// histogram sample per delivery (the crate-level example counts them).
    ///
    /// # Panics
    ///
    /// Panics if `duration_ms` is negative or not finite, or the topics one
    /// worker runs emit more than `u32::MAX` publications: its delivery log
    /// numbers them with `u32` indices.
    pub fn run(self, duration_ms: f64) -> SimReport {
        self.run_on(duration_ms, parallel::available_workers())
    }

    /// [`Engine::run`] over `workers` workers.
    pub(crate) fn run_on(mut self, duration_ms: f64, workers: usize) -> SimReport {
        assert!(duration_ms >= 0.0 && duration_ms.is_finite(), "duration must be non-negative");
        // Each topic's reconfigurations side by side, still in the order
        // they were scheduled.
        self.reconfigurations.sort_by_key(|reconfiguration| reconfiguration.topic);
        let runs = parallel::map_chunks(self.topics.len(), workers, |topics| {
            self.run_topics(topics, duration_ms)
        });
        let mut totals = Totals::new(self.n_regions);
        let mut events = 0;
        let mut logs = Vec::with_capacity(runs.len());
        for run in runs {
            totals.add(&run.totals);
            events += run.events;
            logs.push(run.log);
        }
        // The global metrics see the finished run once; the workers touch
        // no shared atomic. A delivery counts as an event: it was one until
        // it became a line of the log.
        multipub_obs::counter!(NETSIM_EVENTS_TOTAL).add(events + totals.delivered);
        multipub_obs::counter!(NETSIM_LOST_TOTAL).add(totals.lost);
        multipub_obs::histogram!(NETSIM_DELIVERY_MS).add(&totals.latencies);
        SimReport::new(self.topics, logs, totals, duration_ms, self.plan, self.jitter, self.seed)
    }

    /// Runs topics `topics` one after another on one queue, into one log.
    fn run_topics(&self, topics: Range<usize>, duration_ms: f64) -> WorkerRun {
        let mut queue = EventQueue::new();
        let mut log = DeliveryLog::starting_at(topics.start);
        let mut totals = Totals::new(self.n_regions);
        let mut events = 0;
        let first = self.reconfigurations.partition_point(|r| r.topic < topics.start);
        let mut reconfigurations = self.reconfigurations[first..].iter().peekable();
        for topic in topics {
            let scenario = &self.topics[topic];
            let table = TopicRouting::new(scenario, scenario.configuration(), self.n_regions);
            let mut run = TopicRun {
                topic: topic as u32,
                scenario,
                n_regions: self.n_regions,
                inter: &self.inter,
                current: log.push_table(table),
                // Every publication index written so far fits a `u32`.
                draws: Draws::new(self.seed, topic, log.publications.len() as u32),
                jitter: self.jitter,
                plan: &self.plan,
                queue: &mut queue,
                log: &mut log,
                totals: &mut totals,
            };
            // Reconfigurations go in first, so that one at the same instant
            // as a publication installs its table before the publication.
            while let Some(r) = reconfigurations.next_if(|r| r.topic == topic) {
                run.queue.schedule(r.at, Event::Reconfigure { configuration: r.configuration });
            }
            events += run.run(duration_ms);
            log.end_topic();
        }
        WorkerRun { log, totals, events }
    }
}

/// One topic's run: the worker's queue and log, and the topic's own table
/// index and draw key.
struct TopicRun<'a> {
    topic: u32,
    scenario: &'a TopicScenario,
    n_regions: usize,
    inter: &'a InterRegionMatrix,
    /// The topic's current routing table: its index in `log.tables`.
    current: u32,
    draws: Draws,
    jitter: Jitter,
    plan: &'a FaultPlan,
    queue: &'a mut EventQueue<Event>,
    log: &'a mut DeliveryLog,
    totals: &'a mut Totals,
}

impl TopicRun<'_> {
    /// Schedules the topic's publications and handles its events until
    /// none is left; returns how many there were.
    fn run(&mut self, duration_ms: f64) -> u64 {
        self.schedule_publications(duration_ms);
        let mut events = 0u64;
        while let Some((now, event)) = self.queue.pop() {
            events += 1;
            self.handle(now, event);
        }
        events
    }

    /// Schedules every publication of the topic as one batch, in the order
    /// publisher, time: the queue numbers them in that order, so
    /// publications at equal times pop in it. The publication table grows
    /// to hold the batch.
    fn schedule_publications(&mut self, duration_ms: f64) {
        let TopicRun { scenario, queue, log, .. } = self;
        let plan = self.plan;
        let scheduled = queue.len();
        queue.schedule_all(scenario.publishers().iter().enumerate().flat_map(
            |(publisher, client)| {
                client.publish_times_ms(duration_ms).flat_map(move |t| {
                    let at = SimTime::from_ms(t);
                    // A publish-burst window multiplies the in-window load.
                    let copies = 0..plan.burst_multiplier(at);
                    copies.map(move |_| (at, Event::Publish { publisher }))
                })
            },
        ));
        let count = queue.len() - scheduled;
        assert_indexable(log.publications.len() + count, "publications");
        log.publications.reserve(count);
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Reconfigure { configuration } => {
                // Tables are kept for the report, which expands arrivals
                // from them: a new configuration gets a new table,
                // and the one the topic already runs needs none.
                let TopicRun { scenario, log, current, n_regions, .. } = self;
                if log.tables[*current as usize].configuration() != configuration {
                    *current =
                        log.push_table(TopicRouting::new(scenario, configuration, *n_regions));
                }
            }
            Event::Publish { publisher } => self.on_publish(now, publisher),
            Event::RegionReceive { message, region, deliver_only } => {
                self.on_region_receive(now, message, region, deliver_only)
            }
        }
    }

    fn on_publish(&mut self, now: SimTime, publisher: usize) {
        let TopicRun { topic, scenario, current, queue, log, totals, .. } = self;
        let (jitter, plan, draws) = (self.jitter, self.plan, self.draws);
        // `Engine::new` and `schedule_publications` checked that these
        // indices fit a `u32`.
        let message = Message { publication: log.publications.len() as u32 };
        log.publications.push(Publication {
            topic: *topic,
            publisher: publisher as u32,
            published_at: now,
        });
        let routing = &log.tables[*current as usize];
        let latencies = scenario.publishers()[publisher].latencies();
        // Direct: the publisher uploads to every serving region itself.
        // Routed: only to its closest one, which forwards. Inbound traffic
        // is free either way, so nothing is billed here.
        let deliver_only = routing.mode() == DeliveryMode::Direct;
        let home = routing.publisher_home(publisher);
        for region in routing.assignment().iter().filter(|&region| deliver_only || region == home) {
            // The key of this upload's draws, folded once if anything draws.
            let keyed = LazyCell::new(|| draws.at(message.publication, region));
            if plan.drops(|| keyed.draw(UPLINK_LOSS, 0, 0)) {
                totals.lost += 1;
                continue;
            }
            let hop =
                latencies[region.index()] + jitter.delay_ms(|| keyed.draw(UPLINK_JITTER, 0, 0));
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
        let TopicRun { scenario, inter, current, queue, log, totals, .. } = self;
        let (jitter, plan, draws) = (self.jitter, self.plan, self.draws);
        // A region inside an outage window has no broker: the arriving
        // copy (and everything it would have produced downstream) dies.
        if plan.region_down(region, now) {
            totals.lost += 1;
            return;
        }
        let Publication { publisher, published_at, .. } =
            log.publications[message.publication as usize];
        let routing = &log.tables[*current as usize];
        let size = scenario.publishers()[publisher as usize].size_bytes();
        // The key of this arrival's draws, folded once if anything draws.
        let keyed = LazyCell::new(|| draws.at(message.publication, region));

        // Routed first hop: forward to the other serving regions, billing
        // inter-region egress at this region's α rate. Egress is billed at
        // send time, so copies lost in flight still cost money.
        if !deliver_only {
            for peer in routing.assignment().iter().filter(|&peer| peer != region) {
                totals.ledger.record_inter_region(region, size);
                if plan.drops(|| keyed.draw(FORWARD_LOSS, peer.0.into(), 0)) {
                    totals.lost += 1;
                    continue;
                }
                let hop = inter.latency(region, peer)
                    + plan.extra_link_ms(region, peer, now)
                    + jitter.delay_ms(|| keyed.draw(FORWARD_JITTER, peer.0.into(), 0));
                let forwarded = Event::RegionReceive { message, region: peer, deliver_only: true };
                queue.schedule(now + hop, forwarded);
            }
        }

        // Deliver to the subscribers homed at this region, billing
        // Internet egress at this region's β rate. A duplicate-delivery
        // window fans each delivery into several copies — an
        // at-least-once redelivery storm — and each copy is billed,
        // lost and delayed independently. Every copy is billed whether or
        // not it arrives, so the bill is one sum. Only the tally and the
        // counts see each copy; the log keeps the arrival.
        let group = routing.local_subscribers(region);
        if group.is_empty() {
            return;
        }
        let delivery = plan.deliveries_at(now);
        let sent = delivery.copies * group.len() as u64;
        totals.ledger.record_internet(region, size * sent);
        let arrival = Arrival::new(message.publication, *current, region, now);
        let subscribers = scenario.subscribers();
        let copies = landed_copies(arrival, group, subscribers, delivery, plan, jitter, || *keyed);
        let landed = copies.fold(0, |landed, (_, delivered_at)| {
            totals.latencies.record(delivered_at - published_at);
            landed + 1
        });
        totals.delivered += landed;
        totals.lost += sent - landed;
        log.arrivals.push(arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DeliveryRecord;
    use crate::scenario::{SimPublisher, SimSubscriber, TopicScenario};
    use multipub_core::assignment::{AssignmentVector, Configuration};
    use multipub_core::ids::{ClientId, TopicId};
    use multipub_core::latency::InterRegionMatrix;
    use multipub_core::region::{Region, RegionSet};

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

    /// The only log of a one-topic run.
    fn only_log(report: &SimReport) -> &DeliveryLog {
        assert_eq!(report.logs.len(), 1, "one topic, one worker");
        &report.logs[0]
    }

    /// The report's deliveries in delivery-time order: one stable sort of
    /// the send order, so deliveries landing together stay in send order.
    fn by_delivery_time(report: &SimReport) -> Vec<DeliveryRecord> {
        let mut deliveries: Vec<DeliveryRecord> = report.deliveries().collect();
        deliveries.sort_by(|a, b| a.delivered_at.total_cmp(b.delivered_at));
        deliveries
    }

    #[test]
    fn routing_table_groups_subscribers_by_closest_serving_region() {
        // Regions 0 and 2 of three serve; region 1 is closest to everyone
        // but serves no one.
        let topic = TopicScenario::new(
            TopicId::new("t"),
            Configuration::new(
                AssignmentVector::from_mask(0b101, 3).unwrap(),
                DeliveryMode::Routed,
            ),
            vec![
                SimPublisher::new(ClientId(0), vec![9.0, 1.0, 3.0], 1.0, 1),
                SimPublisher::new(ClientId(1), vec![3.0, 1.0, 9.0], 1.0, 1),
            ],
            vec![
                SimSubscriber::new(ClientId(10), vec![9.0, 1.0, 3.0]),
                SimSubscriber::new(ClientId(11), vec![3.0, 1.0, 9.0]),
                SimSubscriber::new(ClientId(12), vec![8.0, 1.0, 2.0]),
                SimSubscriber::new(ClientId(13), vec![2.0, 1.0, 8.0]),
                SimSubscriber::new(ClientId(14), vec![7.0, 1.0, 4.0]),
            ],
        );
        let routing = TopicRouting::new(&topic, topic.configuration(), 3);
        assert_eq!(routing.local_subscribers(RegionId(0)), [1, 3]);
        assert_eq!(routing.local_subscribers(RegionId(1)), [] as [u32; 0]);
        assert_eq!(routing.local_subscribers(RegionId(2)), [0, 2, 4]);
        assert_eq!(routing.publisher_home(0), RegionId(2));
        assert_eq!(routing.publisher_home(1), RegionId(0));
    }

    #[test]
    fn deliveries_are_listed_in_send_order() {
        // Publications at 0 and 100. Region 0 has each 5 ms later and sends
        // it to ClientId(1), stalled until 109; region 1 has each 60 ms
        // later and sends it to ClientId(2), who has it 6 ms after that.
        let stall = crate::faults::SubscriberStall::new(ClientId(1), 0.0, 109.0);
        let scenario = two_region_scenario(DeliveryMode::Direct)
            .with_fault_plan(crate::faults::FaultPlan::none().with_stall(stall));
        let report = Engine::new(scenario, Jitter::disabled(), 0).run(150.0);
        let rows = |deliveries: Vec<DeliveryRecord>| -> Vec<(ClientId, f64, f64)> {
            deliveries
                .iter()
                .map(|d| (d.subscriber, d.published_at.as_ms(), d.delivered_at.as_ms()))
                .collect()
        };
        // Sent at 5, 60, 105 and 160: the copy sent second lands first.
        let (one, two) = (ClientId(1), ClientId(2));
        assert_eq!(
            rows(report.deliveries().collect()),
            [(one, 0.0, 109.0), (two, 0.0, 66.0), (one, 100.0, 109.0), (two, 100.0, 166.0)]
        );
        // The two copies landing at 109 keep their send order.
        assert_eq!(
            rows(by_delivery_time(&report)),
            [(two, 0.0, 66.0), (one, 0.0, 109.0), (one, 100.0, 109.0), (two, 100.0, 166.0)]
        );
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
    fn an_equal_reconfiguration_builds_no_table() {
        let run = |reconfigure: Option<Configuration>| {
            let mut engine =
                Engine::new(two_region_scenario(DeliveryMode::Routed), Jitter::disabled(), 0);
            if let Some(configuration) = reconfigure {
                engine.schedule_reconfiguration(500.0, 0, configuration);
            }
            engine.run(1000.0)
        };
        let running = Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Routed);
        let untouched = run(None);
        let equal = run(Some(running));
        assert_eq!(only_log(&equal).tables.len(), 1);
        assert_eq!(equal, untouched);
        // A different configuration gets a table of its own, and the
        // arrivals after it name that table.
        let direct = Configuration::new(AssignmentVector::all(2).unwrap(), DeliveryMode::Direct);
        let changed = run(Some(direct));
        assert_eq!(only_log(&changed).tables.len(), 2);
        assert!(only_log(&changed).arrivals.iter().any(|arrival| arrival.table() == 1));
    }

    #[test]
    fn the_latency_tally_is_the_read_back_deliveries() {
        // The engine tallies each copy as the broker sends it; the report
        // derives each copy again from its arrival line. Both call the one
        // copy function, so on every scenario, whatever draws, the two agree
        // bit for bit, however many workers ran.
        use crate::digest_cases::{cases, DURATION_MS};
        for case in cases() {
            for workers in [1, 7] {
                let report = case.engine().run_on(DURATION_MS, workers);
                let mut read_back = multipub_obs::Tally::new();
                report.deliveries().for_each(|d| read_back.record(d.latency_ms()));
                let name = case.name;
                assert_eq!(report.latency_tally(), &read_back, "{name} on {workers} workers");
                assert_eq!(report.deliveries().count() as u64, report.delivery_count(), "{name}");
                assert_eq!(report.deliveries().len() as u64, report.delivery_count(), "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "copies of one delivery")]
    fn a_duplicate_window_past_the_copy_limit_panics_before_billing() {
        // 2^60 copies of each delivery: more than a draw key numbers, and
        // far more than a bill of 1 000-byte copies can count.
        let regions = RegionSet::new(vec![
            Region::new("a", "A", 0.02, 0.09),
            Region::new("b", "B", 0.09, 0.14),
        ])
        .unwrap();
        let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]]).unwrap();
        let duplicate = crate::faults::DuplicateDelivery::new(1 << 60, 0.0, 2000.0);
        let scenario = Scenario::new(regions, inter, vec![one_region_topic(0)])
            .with_fault_plan(crate::faults::FaultPlan::none().with_duplicate(duplicate));
        let _ = Engine::new(scenario, Jitter::disabled(), 0).run(1000.0);
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
        expected = "topic t: subscriber C2 latency row width 1 differs from the 2-region deployment"
    )]
    fn engine_rejects_a_swapped_in_row_narrower_than_the_deployment() {
        let mut scenario = two_region_scenario(DeliveryMode::Direct);
        let topic = &scenario.topics()[0];
        let narrow = TopicScenario::new(
            topic.id().clone(),
            topic.configuration(),
            topic.publishers().to_vec(),
            vec![
                SimSubscriber::new(ClientId(1), vec![4.0, 70.0]),
                SimSubscriber::new(ClientId(2), vec![6.0]),
            ],
        );
        scenario.topics_mut()[0] = narrow;
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
        // A copy's loss draw is keyed by the copy: a reorder window leaves
        // every loss decision as it was, and a duplicate window adds copies
        // whose first is decided exactly as the lone copy was.
        let run = |plan: crate::faults::FaultPlan| {
            let scenario = two_region_scenario(DeliveryMode::Routed).with_fault_plan(plan);
            Engine::new(scenario, Jitter::disabled(), 11).run(1000.0)
        };
        // The (publication, subscriber) pair of every delivery, in send order.
        let pairs = |report: &SimReport| -> Vec<(u64, u64, ClientId)> {
            let pair =
                |d: DeliveryRecord| (d.published_at.as_ms().to_bits(), d.publisher.0, d.subscriber);
            report.deliveries().map(pair).collect()
        };
        let loss_only = crate::faults::FaultPlan::none().with_loss_rate(0.4);
        let with_reorder =
            loss_only.clone().with_reorder(crate::faults::ReorderWindow::new(15.0, 0.0, 2000.0));
        let with_duplicate =
            loss_only.clone().with_duplicate(crate::faults::DuplicateDelivery::new(2, 0.0, 2000.0));
        let (a, b, c) = (run(loss_only), run(with_reorder), run(with_duplicate));
        assert!(a.lost_count() > 0 && a.delivery_count() > 0);
        assert_eq!(a.lost_count(), b.lost_count());
        assert_eq!(pairs(&a), pairs(&b), "a reorder window changed which copies survive");
        // Every pair the lone copy reached, a first or second copy reaches;
        // a pair both copies reach, the lone copy reached.
        let (lone, doubled) = (pairs(&a), pairs(&c));
        let count = |pair| doubled.iter().filter(|&&p| p == pair).count();
        assert!(lone.iter().all(|&pair| count(pair) >= 1));
        assert!(doubled.iter().all(|&pair| count(pair) == 1 || lone.contains(&pair)));
        assert!(doubled.iter().any(|&pair| count(pair) == 1), "some second copy is lost");
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
        let measured: Vec<(ClientId, f64, f64)> = by_delivery_time(&report)
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
            .filter(|d| d.subscriber == ClientId(1))
            .map(|d| d.delivered_at.as_ms())
            .collect();
        assert_eq!(landed, [800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 800.0, 809.0, 909.0]);
        // Queued deliveries keep the order they were sent in.
        let queued: Vec<f64> = report
            .deliveries()
            .filter(|d| d.delivered_at.as_ms() == 800.0)
            .map(|d| d.published_at.as_ms())
            .collect();
        assert_eq!(queued, [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]);
    }

    #[test]
    fn any_worker_count_writes_the_same_report() {
        use crate::digest_cases::{cases, DURATION_MS};
        for case in cases() {
            let name = case.name;
            let topics = case.scenario.topics().len();
            let one = case.engine().run_on(DURATION_MS, 1);
            assert_eq!(one.logs.len(), 1);
            for workers in [2, 3, 7] {
                let many = case.engine().run_on(DURATION_MS, workers);
                assert_eq!(many.logs.len(), topics.div_ceil(topics.div_ceil(workers)), "{name}");
                assert_eq!(one.deliveries().len(), many.deliveries().len(), "{name}");
                assert!(one.deliveries().eq(many.deliveries()), "{name} on {workers} workers");
                assert_eq!(one.ledger(), many.ledger(), "{name}");
                assert_eq!(one.published_count(), many.published_count(), "{name}");
                assert_eq!(one.lost_count(), many.lost_count(), "{name}");
                assert_eq!(one.delivery_count(), many.delivery_count(), "{name}");
                assert_eq!(one.latency_tally(), many.latency_tally(), "{name}");
                for ratio in [50.0, 95.0, 100.0] {
                    assert_eq!(one.percentile_ms(ratio), many.percentile_ms(ratio), "{name}");
                }
                for topic in 0..topics {
                    let (a, b) = (
                        one.topic_percentile_ms(topic, 95.0),
                        many.topic_percentile_ms(topic, 95.0),
                    );
                    assert_eq!(a, b, "{name} topic {topic}");
                }
                assert_eq!(one, many, "{name}");
            }
        }
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
