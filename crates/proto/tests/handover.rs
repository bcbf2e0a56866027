//! The seeded handover checker: brokers and clients that follow one topic
//! through [`TopicView`], a scripted coordinator that re-deploys it the
//! way the live controller's `handover()` and `deploy()` do, and an event
//! queue that delays, duplicates and replays their control frames, all on
//! a virtual millisecond clock. Each seed is one schedule; after every
//! event the checker holds the invariants of DESIGN.md §15:
//!
//! * every node's committed epoch only grows;
//! * no gap: each publication reaches a region every subscriber is
//!   subscribed at, at that instant;
//! * duplicates stay within one copy per (region the publisher reached,
//!   region the subscriber is on) — forwards are never re-forwarded;
//! * an abort leaves every committed view unchanged, and a late abort
//!   never cancels a drain;
//! * after the last drain deadline a broker forwards to the committed
//!   serving set minus its own region, and nothing more;
//! * one seed gives one trace.
//!
//! A failure prints its seed; `check(Script::random(seed))` replays it
//! alone, since every delay is drawn from the seed.
//!
//! The model's timing: control frames travel FIFO per link within
//! [`CONTROL_DELAY_MS`], a broker's `ConfigUpdate` reaches a client within
//! [`CLIENT_DELAY_MS`] (well inside the [`GRACE_MS`] drain), and a
//! subscriber drops its old region within [`OVERLAP_MS`] of subscribing
//! at the new one. Handovers run back to back, the next one often starting
//! inside the previous one's grace window, while clients may still follow
//! the configuration before. Acks are matched to their handover attempt,
//! and a broker's data path stays up when its control link is dead. Every
//! schedule starts with the topic placed everywhere; a first placement by
//! handover and a dead retiring region are not modelled (ROADMAP item 8).
//! The client bound matters: at 60 ms, seed 1641 of 20 000 finds a
//! publisher two configurations behind that steers to a broker the second
//! handover left out, which the coordinator's old ∪ new participant set
//! cannot cover (ROADMAP item 8 too).

mod common;

use common::{for_each_seed, SplitMix64};
use multipub_core::assignment::{AssignmentVector, DeliveryMode};
use multipub_core::delivery::closest_region;
use multipub_core::ids::RegionId;
use multipub_proto::{InstalledConfig, TopicView};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Seeded schedules the checker runs.
const SEEDS: u64 = 1000;
/// The drain window every commit carries.
const GRACE_MS: u64 = 100;
/// Upper bound of a controller ↔ broker hop.
const CONTROL_DELAY_MS: u64 = 15;
/// Upper bound of a broker → client `ConfigUpdate`.
const CLIENT_DELAY_MS: u64 = 30;
/// Upper bound of a subscriber's make-before-break overlap.
const OVERLAP_MS: u64 = 5;
/// The coordinator's per-phase ack deadline.
const ACK_TIMEOUT_MS: u64 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    mask: u32,
    mode: DeliveryMode,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A fire-and-forget `ConfigUpdate` to every live broker.
    Deploy(Placement),
    /// The three-phase handover; `dead` names a region whose control
    /// link is down for it, `lost_ack` one whose prepare ack is lost.
    Handover { to: Placement, dead: Option<usize>, lost_ack: Option<usize> },
}

/// One schedule: the deployment, the coordinator's operations (each after
/// a pause) and the broker-side stale replays, plus the seed of every
/// delay the run draws.
#[derive(Debug, Clone)]
struct Script {
    regions: usize,
    /// One-way latency to every region, per subscriber and per publisher.
    subscribers: Vec<Vec<f64>>,
    publishers: Vec<Vec<f64>>,
    publish_every_ms: u64,
    initial: Placement,
    ops: Vec<(u64, Op)>,
    /// `(at_ms, broker)`: a late replay of an already superseded frame.
    stale_replays: Vec<(u64, usize)>,
    timing_seed: u64,
}

impl Script {
    fn random(seed: u64) -> Script {
        let mut rng = SplitMix64(seed);
        let regions = 2 + rng.below(5);
        let latencies = |rng: &mut SplitMix64, most: usize| -> Vec<Vec<f64>> {
            let count = 1 + rng.below(most);
            (0..count)
                .map(|_| (0..regions).map(|_| (1 + rng.below(200)) as f64).collect())
                .collect()
        };
        let subscribers = latencies(&mut rng, 4);
        let publishers = latencies(&mut rng, 3);
        let placement = |rng: &mut SplitMix64| Placement {
            mask: 1 + rng.below((1 << regions) - 1) as u32,
            mode: if rng.coin() { DeliveryMode::Direct } else { DeliveryMode::Routed },
        };
        let initial = placement(&mut rng);
        let mut committed = initial;
        let mut ops = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let mut to = placement(&mut rng);
            while to == committed {
                to = placement(&mut rng);
            }
            let fresh: Vec<usize> =
                (0..regions).filter(|r| to.mask & !committed.mask & 1 << r != 0).collect();
            let dead =
                (!fresh.is_empty() && rng.below(6) == 0).then(|| fresh[rng.below(fresh.len())]);
            let participants: Vec<usize> =
                (0..regions).filter(|r| (to.mask | committed.mask) & 1 << r != 0).collect();
            let lost_ack = (rng.below(6) == 0).then(|| participants[rng.below(participants.len())]);
            if dead.is_none() && lost_ack.is_none() {
                committed = to;
            }
            // Pauses skew short: most handovers start inside the grace
            // window of the one before.
            let longest = rng.below(GRACE_MS as usize) + 1;
            ops.push((rng.below(longest) as u64, Op::Handover { to, dead, lost_ack }));
        }
        let horizon = 300 * ops.len() as u64;
        let stale_replays = (0..rng.below(6))
            .map(|_| (rng.below(horizon as usize) as u64, rng.below(regions)))
            .collect();
        Script {
            regions,
            subscribers,
            publishers,
            publish_every_ms: 1 + rng.below(4) as u64,
            initial,
            ops,
            stale_replays,
            timing_seed: rng.next_u64(),
        }
    }

    fn all(&self) -> u32 {
        (1 << self.regions) - 1
    }
}

#[derive(Debug, Clone, Copy)]
enum Control {
    Update(InstalledConfig),
    Prepare(InstalledConfig),
    Commit { epoch: u64, grace_ms: u64 },
    Abort(u64),
}

#[derive(Debug, Clone, Copy)]
enum Event {
    NextOp,
    Control { broker: usize, attempt: u64, frame: Control },
    Ack { broker: usize, attempt: u64, phase: u8 },
    Timeout { attempt: u64, phase: u8 },
    ToClient { client: usize, config: InstalledConfig },
    Unsubscribe { client: usize, region: usize },
    Publish { client: usize },
    StaleReplay { broker: usize },
}

struct BrokerNode {
    view: TopicView,
    clients: BTreeSet<usize>,
    floor: u64,
}

enum Role {
    Publisher,
    Subscriber { home: usize, leaving: BTreeSet<usize> },
}

struct ClientNode {
    latencies: Vec<f64>,
    view: TopicView,
    connected: BTreeSet<usize>,
    role: Role,
    floor: u64,
}

enum Phase {
    Idle,
    Prepare { config: InstalledConfig, awaiting: u32, acked: u32, lost_ack: Option<usize> },
    Commit { awaiting: u32, acked: u32 },
}

struct Coordinator {
    installed: Option<InstalledConfig>,
    history: Vec<InstalledConfig>,
    next_op: usize,
    attempt: u64,
    phase: Phase,
    /// Every broker's committed view when the running handover started.
    snapshot: Vec<Option<InstalledConfig>>,
}

/// What a run leaves behind for the named scenarios to inspect.
#[derive(Debug, Default)]
struct Stats {
    publishes: u64,
    max_copies: u32,
    commits: u64,
    aborts: u64,
}

struct World {
    script: Script,
    rng: SplitMix64,
    base: Instant,
    now: u64,
    queue: BTreeMap<(u64, u64), Event>,
    seq: u64,
    link_clock: Vec<u64>,
    brokers: Vec<BrokerNode>,
    clients: Vec<ClientNode>,
    coordinator: Coordinator,
    traffic_until: Option<u64>,
    last_deadline: u64,
    stats: Stats,
    trace: String,
}

fn bits(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |r| mask & 1 << r != 0)
}

fn closest(latencies: &[f64], mask: u32) -> usize {
    let assignment = AssignmentVector::from_mask(mask, latencies.len()).expect("a valid mask");
    closest_region(latencies, assignment).index()
}

impl World {
    /// The deployment with `script.initial` placed everywhere: every
    /// broker and client has installed it, and every subscriber is
    /// subscribed at its closest serving region.
    fn new(script: Script) -> World {
        let initial =
            InstalledConfig { mask: script.initial.mask, mode: script.initial.mode, epoch: 1 };
        let placed = || {
            let mut view = TopicView::default();
            view.install(initial).expect("a first install");
            view
        };
        let brokers = (0..script.regions)
            .map(|_| BrokerNode { view: placed(), clients: BTreeSet::new(), floor: 1 })
            .collect();
        let publishers = script.publishers.iter().map(|latencies| (latencies, None));
        let subscribers = script
            .subscribers
            .iter()
            .map(|latencies| (latencies, Some(closest(latencies, initial.mask))));
        let clients = publishers
            .chain(subscribers)
            .map(|(latencies, home)| ClientNode {
                latencies: latencies.clone(),
                view: placed(),
                connected: home.into_iter().collect(),
                role: match home {
                    Some(home) => Role::Subscriber { home, leaving: BTreeSet::new() },
                    None => Role::Publisher,
                },
                floor: 1,
            })
            .collect();
        let mut world = World {
            rng: SplitMix64(script.timing_seed),
            base: Instant::now(),
            now: 0,
            queue: BTreeMap::new(),
            seq: 0,
            link_clock: vec![0; script.regions],
            brokers,
            clients,
            coordinator: Coordinator {
                installed: Some(initial),
                history: vec![initial],
                next_op: 0,
                attempt: 0,
                phase: Phase::Idle,
                snapshot: Vec::new(),
            },
            traffic_until: None,
            last_deadline: 0,
            stats: Stats::default(),
            trace: String::new(),
            script,
        };
        for client in 0..world.clients.len() {
            if let Role::Subscriber { home, .. } = world.clients[client].role {
                world.brokers[home].clients.insert(client);
            } else {
                world.schedule(0, Event::Publish { client });
            }
        }
        let first_pause = world.script.ops.first().map_or(0, |(pause, _)| *pause);
        world.schedule(first_pause, Event::NextOp);
        for (at, broker) in world.script.stale_replays.clone() {
            world.schedule(at, Event::StaleReplay { broker });
        }
        world
    }

    fn schedule(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.queue.insert((at, self.seq), event);
    }

    fn delay(&mut self, max: u64) -> u64 {
        self.now + self.rng.below(max as usize + 1) as u64
    }

    fn instant(&self, at: u64) -> Instant {
        self.base + Duration::from_millis(at)
    }

    /// Runs the schedule to its end, then checks the settled state.
    fn run(mut self) -> World {
        while let Some(((at, _), event)) = self.queue.pop_first() {
            self.now = at;
            let _ = writeln!(self.trace, "{at} {event:?}");
            self.handle(event);
        }
        self.check_settled();
        self
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::NextOp => self.next_op(),
            Event::Control { broker, attempt, frame } => self.control(broker, attempt, frame),
            Event::Ack { broker, attempt, phase } => self.ack(broker, attempt, phase),
            Event::Timeout { attempt, phase } => self.timeout(attempt, phase),
            Event::ToClient { client, config } => self.client_update(client, config),
            Event::Unsubscribe { client, region } => {
                if let Role::Subscriber { home, leaving } = &mut self.clients[client].role {
                    if *home != region {
                        leaving.remove(&region);
                    }
                }
            }
            Event::Publish { client } => self.publish(client),
            Event::StaleReplay { broker } => self.stale_replay(broker),
        }
    }

    // ---- the coordinator ------------------------------------------------

    /// Sends a control frame down the broker's FIFO link, sometimes twice.
    fn send(&mut self, broker: usize, attempt: u64, frame: Control) {
        for _ in 0..1 + usize::from(self.rng.below(8) == 0) {
            let at = self.delay(CONTROL_DELAY_MS).max(self.link_clock[broker]);
            self.link_clock[broker] = at;
            self.schedule(at, Event::Control { broker, attempt, frame });
        }
    }

    fn next_op(&mut self) {
        let Some(&(_, op)) = self.script.ops.get(self.coordinator.next_op) else {
            self.traffic_until = Some(self.now + 2 * GRACE_MS);
            return;
        };
        self.coordinator.next_op += 1;
        self.coordinator.attempt += 1;
        let attempt = self.coordinator.attempt;
        let installed = self.coordinator.installed;
        let epoch = installed.map_or(1, |config| config.epoch + 1);
        match op {
            Op::Deploy(to) => {
                let config = InstalledConfig { mask: to.mask, mode: to.mode, epoch };
                for broker in 0..self.script.regions {
                    self.send(broker, attempt, Control::Update(config));
                }
                self.install_at_coordinator(config);
                self.finish();
            }
            Op::Handover { to, dead, lost_ack } => {
                self.coordinator.snapshot =
                    self.brokers.iter().map(|broker| broker.view.committed()).collect();
                let config = InstalledConfig { mask: to.mask, mode: to.mode, epoch };
                let participants = to.mask | installed.map_or(0, |config| config.mask);
                let mut awaiting = 0;
                let mut dead_new_region = false;
                for region in bits(participants) {
                    if Some(region) == dead {
                        // A dead retiring region is skipped; a dead new
                        // one aborts the handover.
                        dead_new_region |= to.mask & 1 << region != 0;
                    } else {
                        self.send(region, attempt, Control::Prepare(config));
                        awaiting |= 1 << region;
                    }
                }
                if dead_new_region {
                    self.abort(epoch, dead);
                    return;
                }
                self.coordinator.phase = Phase::Prepare { config, awaiting, acked: 0, lost_ack };
                self.schedule(self.now + ACK_TIMEOUT_MS, Event::Timeout { attempt, phase: 0 });
            }
        }
    }

    fn install_at_coordinator(&mut self, config: InstalledConfig) {
        self.coordinator.installed = Some(config);
        self.coordinator.history.push(config);
    }

    fn ack(&mut self, broker: usize, attempt: u64, phase: u8) {
        if attempt != self.coordinator.attempt {
            return;
        }
        match &mut self.coordinator.phase {
            Phase::Prepare { awaiting, acked, lost_ack, .. } if phase == 0 => {
                if *lost_ack == Some(broker) {
                    return;
                }
                *acked |= 1 << broker;
                if acked == awaiting {
                    self.commit();
                }
            }
            Phase::Commit { awaiting, acked } if phase == 1 => {
                *acked |= 1 << broker;
                if acked == awaiting {
                    self.finish();
                }
            }
            _ => {}
        }
    }

    fn timeout(&mut self, attempt: u64, phase: u8) {
        if attempt != self.coordinator.attempt {
            return;
        }
        match self.coordinator.phase {
            Phase::Prepare { config, awaiting, acked, .. } if phase == 0 && acked != awaiting => {
                self.abort(config.epoch, None);
            }
            // Missing commit acks are diagnostic only.
            Phase::Commit { .. } if phase == 1 => self.finish(),
            _ => {}
        }
    }

    fn commit(&mut self) {
        let Phase::Prepare { config, awaiting, .. } = self.coordinator.phase else { return };
        self.install_at_coordinator(config);
        let attempt = self.coordinator.attempt;
        for region in bits(awaiting) {
            self.send(region, attempt, Control::Commit { epoch: config.epoch, grace_ms: GRACE_MS });
        }
        self.coordinator.phase = Phase::Commit { awaiting, acked: 0 };
        self.schedule(self.now + ACK_TIMEOUT_MS, Event::Timeout { attempt, phase: 1 });
        self.stats.commits += 1;
    }

    /// Rolls the running handover back: as its aborts land, every
    /// broker's committed view must be what it was when it started.
    fn abort(&mut self, epoch: u64, dead: Option<usize>) {
        let attempt = self.coordinator.attempt;
        for broker in (0..self.script.regions).filter(|&broker| Some(broker) != dead) {
            self.send(broker, attempt, Control::Abort(epoch));
        }
        self.stats.aborts += 1;
        self.finish();
    }

    fn finish(&mut self) {
        self.coordinator.phase = Phase::Idle;
        let pause = self.script.ops.get(self.coordinator.next_op).map_or(0, |(pause, _)| *pause);
        self.schedule(self.now + pause, Event::NextOp);
    }

    // ---- the brokers ----------------------------------------------------

    fn control(&mut self, broker: usize, attempt: u64, frame: Control) {
        let mut ack = None;
        match frame {
            Control::Update(config) => self.update(broker, config),
            Control::Prepare(config) => {
                self.brokers[broker].view.prepare(config, self.script.all());
                ack = Some(0);
            }
            Control::Commit { epoch, grace_ms } => {
                let deadline = self.now + grace_ms;
                let until = self.instant(deadline);
                let committed = self.brokers[broker].view.commit(epoch, until);
                if let Some(config) = committed {
                    self.last_deadline = self.last_deadline.max(deadline);
                    self.fan_out(broker, config);
                }
                ack = Some(1);
            }
            Control::Abort(epoch) => {
                let view = &mut self.brokers[broker].view;
                let before = view.clone();
                if !view.abort(epoch) {
                    assert_eq!(*view, before, "an abort that discards nothing changes nothing");
                }
                assert_eq!(
                    view.committed(),
                    before.committed(),
                    "an abort changed a committed view"
                );
                if matches!(self.coordinator.phase, Phase::Idle)
                    && attempt == self.coordinator.attempt
                {
                    let snapshot = &self.coordinator.snapshot;
                    let views: Vec<_> = self.brokers.iter().map(|b| b.view.committed()).collect();
                    assert_eq!(&views, snapshot, "a rolled-back handover moved a committed view");
                }
            }
        }
        self.check_floor_broker(broker);
        if let Some(phase) = ack {
            let at = self.delay(CONTROL_DELAY_MS);
            self.schedule(at, Event::Ack { broker, attempt, phase });
        }
    }

    fn update(&mut self, broker: usize, config: InstalledConfig) {
        let view = &mut self.brokers[broker].view;
        let before = view.clone();
        match view.install(config) {
            Ok(()) => self.fan_out(broker, config),
            Err(installed) => {
                assert!(config.epoch < installed, "only an older epoch is rejected");
                assert_eq!(*view, before, "a rejected install changed the view");
            }
        }
    }

    fn fan_out(&mut self, broker: usize, config: InstalledConfig) {
        for client in self.brokers[broker].clients.clone() {
            let at = self.delay(CLIENT_DELAY_MS);
            self.schedule(at, Event::ToClient { client, config });
        }
    }

    /// A late replay of a frame the broker has already moved past: a
    /// `ConfigUpdate` of an epoch at or below its committed one, or an
    /// abort or a prepare of such an epoch. None of them may roll the
    /// view back or cut a drain short.
    fn stale_replay(&mut self, broker: usize) {
        let Some(committed) = self.brokers[broker].view.committed() else { return };
        let past: Vec<InstalledConfig> = self
            .coordinator
            .history
            .iter()
            .copied()
            .filter(|c| c.epoch <= committed.epoch)
            .collect();
        let config = past[self.rng.below(past.len())];
        let kind = self.rng.below(3);
        let _ =
            writeln!(self.trace, "  replay {kind} of epoch {} at broker {broker}", config.epoch);
        let before = self.brokers[broker].view.clone();
        match kind {
            0 => {
                self.update(broker, config);
                assert_eq!(self.brokers[broker].view.committed(), before.committed());
            }
            1 => {
                let view = &mut self.brokers[broker].view;
                assert!(!view.abort(config.epoch), "a late abort discarded something");
                assert_eq!(*view, before, "a late abort changed the view");
            }
            _ => {
                let view = &mut self.brokers[broker].view;
                assert!(!view.prepare(config, self.script.all()), "a stale prepare was recorded");
                assert_eq!(*view, before, "a stale prepare changed the view");
            }
        }
        self.check_floor_broker(broker);
    }

    // ---- the clients ----------------------------------------------------

    fn config_of(&self, client: usize) -> InstalledConfig {
        let committed = self.clients[client].view.committed();
        committed.unwrap_or(InstalledConfig::unplaced(self.script.all()))
    }

    /// Opens a client's connection to a region's broker, which replays
    /// its committed configuration to the newcomer.
    fn connect(&mut self, client: usize, region: usize) {
        if self.clients[client].connected.insert(region) {
            self.brokers[region].clients.insert(client);
            if let Some(config) = self.brokers[region].view.committed() {
                let at = self.delay(CLIENT_DELAY_MS);
                self.schedule(at, Event::ToClient { client, config });
            }
        }
    }

    fn client_update(&mut self, client: usize, config: InstalledConfig) {
        let before = self.clients[client].view.committed();
        if self.clients[client].view.install(config).is_err() {
            assert_eq!(self.clients[client].view.committed(), before);
        }
        let node = &mut self.clients[client];
        let epoch = node.view.committed().map_or(0, |c| c.epoch);
        assert!(
            epoch >= node.floor,
            "client {client} went back from epoch {} to {epoch}",
            node.floor
        );
        node.floor = epoch;
        // A subscriber re-steers make-before-break: subscribe at the new
        // closest serving region first, drop the old one a little later.
        let target = closest(&self.clients[client].latencies, self.config_of(client).mask);
        let Role::Subscriber { home, .. } = self.clients[client].role else { return };
        if target == home {
            return;
        }
        self.connect(client, target);
        if let Role::Subscriber { home, leaving } = &mut self.clients[client].role {
            leaving.insert(*home);
            leaving.remove(&target);
            *home = target;
        }
        let at = self.delay(OVERLAP_MS);
        self.schedule(at, Event::Unsubscribe { client, region: home });
    }

    /// One publication, steered by the publisher's own view: direct to
    /// every serving region, routed to the closest one. Each broker it
    /// lands on forwards by its own view; every subscriber must be on a
    /// region it reached.
    fn publish(&mut self, client: usize) {
        let config = self.config_of(client);
        let (sent, single_target) = match config.mode {
            DeliveryMode::Direct => (config.mask, false),
            DeliveryMode::Routed => {
                (1 << closest(&self.clients[client].latencies, config.mask), true)
            }
        };
        let mut arrivals = [0u32; 32];
        let now = self.instant(self.now);
        for region in bits(sent) {
            self.connect(client, region);
            arrivals[region] += 1;
            let view = &mut self.brokers[region].view;
            let route = view.route(
                RegionId(region as u8),
                single_target,
                config.epoch,
                self.script.all(),
                now,
            );
            assert_eq!(route.targets & 1 << region, 0, "a broker forwarded to itself");
            for target in bits(route.targets) {
                arrivals[target] += 1;
            }
        }
        self.stats.publishes += 1;
        let _ = write!(self.trace, "  epoch {} sent {sent:#b} copies", config.epoch);
        for (subscriber, node) in self.clients.iter().enumerate() {
            let Role::Subscriber { home, leaving } = &node.role else { continue };
            let on: Vec<usize> = leaving.iter().copied().chain([*home]).collect();
            let copies: u32 = on.iter().map(|&region| arrivals[region]).sum();
            assert!(
                copies > 0,
                "gap at {} ms: client {client} published by {config:?}, reaching {arrivals:?}, \
                 while subscriber {subscriber} was on regions {on:?} by {:?}",
                self.now,
                node.view.committed(),
            );
            let bound = on.len() as u32 * sent.count_ones();
            assert!(copies <= bound, "{copies} copies exceed the bound {bound}");
            self.stats.max_copies = self.stats.max_copies.max(copies);
            let _ = write!(self.trace, " {copies}");
        }
        let _ = writeln!(self.trace);
        if self.traffic_until.is_none_or(|until| self.now < until) {
            self.schedule(self.now + self.script.publish_every_ms, Event::Publish { client });
        }
    }

    // ---- invariants -----------------------------------------------------

    fn check_floor_broker(&mut self, broker: usize) {
        let node = &mut self.brokers[broker];
        let epoch = node.view.committed().map_or(0, |c| c.epoch);
        assert!(
            epoch >= node.floor,
            "broker {broker} went back from epoch {} to {epoch}",
            node.floor
        );
        node.floor = epoch;
    }

    /// Past the last drain deadline every broker forwards a single-target
    /// publish to exactly its committed serving set minus itself, and
    /// every client follows the coordinator's installed configuration.
    fn check_settled(&mut self) {
        let after = self.instant(self.last_deadline.max(self.now) + 1);
        let all = self.script.all();
        for (region, broker) in self.brokers.iter_mut().enumerate() {
            let Some(committed) = broker.view.committed() else { continue };
            let route =
                broker.view.route(RegionId(region as u8), true, committed.epoch, all, after);
            assert_eq!(
                route.targets,
                committed.mask & !(1 << region),
                "broker {region} still bridges"
            );
            assert_eq!(route.bridged, 0);
        }
        let installed = self.coordinator.installed;
        for region in bits(installed.map_or(0, |config| config.mask)) {
            assert_eq!(self.brokers[region].view.committed(), installed, "serving broker {region}");
        }
        for (client, node) in self.clients.iter().enumerate() {
            assert_eq!(node.view.committed(), installed, "client {client} did not converge");
        }
    }
}

fn check(script: Script) -> World {
    let world = World::new(script.clone()).run();
    let again = World::new(script).run();
    assert_eq!(world.trace, again.trace, "one seed must give one trace");
    world
}

/// The checker over [`SEEDS`] random schedules.
#[test]
fn seeded_handover_schedules_keep_every_invariant() {
    for_each_seed(SEEDS, |seed| {
        check(Script::random(seed));
    });
}

// ---- named seeds: the live reconfiguration tests as schedules -------------

fn placement(mask: u32, mode: DeliveryMode) -> Placement {
    Placement { mask, mode }
}

fn handover(mask: u32, mode: DeliveryMode) -> Op {
    Op::Handover { to: placement(mask, mode), dead: None, lost_ack: None }
}

fn two_regions(initial: Placement, ops: Vec<(u64, Op)>, clients: bool) -> Script {
    let latencies = if clients { vec![vec![5.0, 70.0]] } else { Vec::new() };
    Script {
        regions: 2,
        subscribers: latencies.clone(),
        publishers: latencies,
        publish_every_ms: 2,
        initial,
        ops,
        stale_replays: Vec::new(),
        timing_seed: 1,
    }
}

fn config(mask: u32, mode: DeliveryMode, epoch: u64) -> Option<InstalledConfig> {
    Some(InstalledConfig { mask, mode, epoch })
}

/// Every deploy mints the next epoch, brokers install it, and a stale
/// `ConfigUpdate` (older epoch) is rejected rather than un-steering the
/// topic.
#[test]
fn deploys_mint_monotonic_epochs_and_stale_updates_are_rejected() {
    let deploy = Op::Deploy(placement(0b10, DeliveryMode::Routed));
    let mut world =
        check(two_regions(placement(0b01, DeliveryMode::Direct), vec![(0, deploy)], false));
    assert_eq!(world.coordinator.installed, config(0b10, DeliveryMode::Routed, 2));
    assert_eq!(world.brokers[0].view.committed(), config(0b10, DeliveryMode::Routed, 2));
    let stale = InstalledConfig { mask: 0b01, mode: DeliveryMode::Direct, epoch: 1 };
    world.update(0, stale);
    assert_eq!(world.brokers[0].view.committed(), config(0b10, DeliveryMode::Routed, 2));
}

/// The handover commits when every participant acks: the installed epoch
/// advances and both the retiring and the new serving broker hold it.
#[test]
fn handover_commits_and_installs_on_both_sides() {
    let ops = vec![(0, handover(0b10, DeliveryMode::Routed))];
    let world = check(two_regions(placement(0b01, DeliveryMode::Direct), ops, false));
    assert_eq!((world.stats.commits, world.stats.aborts), (1, 0));
    for broker in &world.brokers {
        assert_eq!(broker.view.committed(), config(0b10, DeliveryMode::Routed, 2));
    }
}

/// Continuous publishing through two back-to-back handovers (direct {0}
/// → routed {1} → direct {0, 1}) loses nothing, and no message arrives
/// more than four times.
#[test]
fn live_qos0_handover_loses_nothing() {
    let ops = vec![
        (200, handover(0b10, DeliveryMode::Routed)),
        (200, handover(0b11, DeliveryMode::Direct)),
    ];
    let world = check(two_regions(placement(0b01, DeliveryMode::Direct), ops, true));
    assert_eq!(world.stats.commits, 2);
    assert!(world.stats.publishes >= 100, "publishing spanned the handovers");
    assert!(world.stats.max_copies <= 4, "{} copies", world.stats.max_copies);
    for broker in &world.brokers {
        assert_eq!(broker.view.committed(), config(0b11, DeliveryMode::Direct, 3));
    }
}

/// A dead new serving region aborts the handover: the committed epoch
/// stays in force everywhere and delivery on it continues.
#[test]
fn broker_killed_mid_prepare_rolls_back() {
    let to = placement(0b10, DeliveryMode::Routed);
    let ops = vec![(100, Op::Handover { to, dead: Some(1), lost_ack: None })];
    let world = check(two_regions(placement(0b01, DeliveryMode::Direct), ops, true));
    assert_eq!((world.stats.commits, world.stats.aborts), (0, 1));
    assert_eq!(world.coordinator.installed, config(0b01, DeliveryMode::Direct, 1));
    assert_eq!(world.brokers[0].view.committed(), config(0b01, DeliveryMode::Direct, 1));
    assert!(world.stats.publishes >= 100, "delivery continued after the rollback");
}
