//! The seeded handover checker: brokers and clients that follow one topic
//! through [`TopicView`], the real [`Coordinator`] driven by a thin adapter
//! that turns its actions into events, and an event queue that delays,
//! duplicates and replays their control frames, all on a virtual
//! millisecond clock. Each seed is one schedule; after every event the
//! checker holds the invariants of DESIGN.md §15:
//!
//! * every node's committed epoch only grows;
//! * no gap: each publication that reached a live broker reaches a region
//!   every subscriber homed on a live region is subscribed at, at that
//!   instant;
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
//! [`CLIENT_DELAY_MS`], and a subscriber drops its old region within
//! [`OVERLAP_MS`] of subscribing at the new one. Handovers run back to
//! back, the next one often starting inside the previous one's grace
//! window, while clients may still follow the configuration before or the
//! one before that. A schedule may start with the topic unplaced, so that
//! its first placement is a handover. A handover may find a new serving
//! region's control link down (its data path stays up) until some time
//! after it ends, when the link comes back and the committed configuration
//! is replayed. A retiring broker may crash just before a handover, which
//! then leaves it out, or mid-drain: its link and data path go down for
//! good, what it already sent still arrives, and every client notices
//! within [`FAILOVER_MS`], a subscriber homed there re-homing to the
//! closest live region its view serves from.

mod common;

use common::{for_each_seed, SplitMix64};
use multipub_core::assignment::{AssignmentVector, DeliveryMode};
use multipub_core::delivery::closest_region;
use multipub_core::ids::RegionId;
use multipub_proto::{Action, Control, Coordinator, InstalledConfig, Phase, TopicView};
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
const CLIENT_DELAY_MS: u64 = 60;
/// Upper bound of a subscriber's make-before-break overlap.
const OVERLAP_MS: u64 = 5;
/// The coordinator's per-phase ack deadline.
const ACK_TIMEOUT_MS: u64 = 50;
/// Upper bound of a client noticing a crashed broker.
const FAILOVER_MS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    mask: u32,
    mode: DeliveryMode,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A fire-and-forget `ConfigUpdate` to every live broker.
    Deploy(Placement),
    /// The three-phase handover; `dead` names a new serving region whose
    /// control link is down for it, or a retiring one whose broker crashes
    /// just before it; `late_ack` a region whose prepare ack comes back
    /// only after the ack timeout.
    Handover { to: Placement, dead: Option<usize>, late_ack: Option<usize> },
}

/// One schedule: the deployment, the coordinator's operations (each after
/// a pause), the broker-side stale replays and the handover whose commit
/// crashes one of its retiring brokers, plus the seed of every delay the
/// run draws.
#[derive(Debug, Clone)]
struct Script {
    regions: usize,
    /// One-way latency to every region, per subscriber and per publisher.
    subscribers: Vec<Vec<f64>>,
    publishers: Vec<Vec<f64>>,
    publish_every_ms: u64,
    /// `None`: the topic starts unplaced.
    initial: Option<Placement>,
    ops: Vec<(u64, Op)>,
    /// `(at_ms, broker)`: a late replay of an already superseded frame.
    stale_replays: Vec<(u64, usize)>,
    crash: Option<usize>,
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
        let mut retiring = Vec::new();
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
            let late_ack = (rng.below(6) == 0).then(|| participants[rng.below(participants.len())]);
            retiring.push(committed.mask & !to.mask);
            if dead.is_none() && late_ack.is_none() {
                committed = to;
            }
            // Pauses skew short: most handovers start inside the grace
            // window of the one before.
            let longest = rng.below(GRACE_MS as usize) + 1;
            ops.push((rng.below(longest) as u64, Op::Handover { to, dead, late_ack }));
        }
        let horizon = 300 * ops.len() as u64;
        let stale_replays = (0..rng.below(6))
            .map(|_| (rng.below(horizon as usize) as u64, rng.below(regions)))
            .collect();
        let publish_every_ms = 1 + rng.below(4) as u64;
        let timing_seed = rng.next_u64();
        // Drawn last, so that every schedule without them stays as it was.
        let initial = (rng.below(4) != 0).then_some(initial);
        for ((_, op), retiring) in ops.iter_mut().zip(retiring) {
            if let Op::Handover { dead: dead @ None, .. } = op {
                if retiring != 0 && rng.below(8) == 0 {
                    *dead = bits(retiring).nth(rng.below(retiring.count_ones() as usize));
                }
            }
        }
        let crash = (rng.below(4) == 0).then(|| rng.below(ops.len()));
        Script {
            regions,
            subscribers,
            publishers,
            publish_every_ms,
            initial,
            ops,
            stale_replays,
            crash,
            timing_seed,
        }
    }

    fn all(&self) -> u32 {
        (1 << self.regions) - 1
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    NextOp,
    Control { broker: usize, frame: Control },
    Ack { broker: usize, epoch: u64, phase: u8 },
    Timeout { epoch: u64, phase: Phase },
    LinkUp { broker: usize },
    Crash { broker: usize },
    Failover { client: usize },
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
    /// The client has noticed the crashed broker and steers around it.
    noticed: bool,
}

/// The coordinator with what the adapter remembers around it.
struct Coordination {
    core: Coordinator,
    /// Every configuration the coordinator committed, in order.
    history: Vec<InstalledConfig>,
    next_op: usize,
    /// Regions whose control link is down.
    down: u32,
    late_ack: Option<usize>,
    /// The region whose link the running handover took down.
    relink: Option<usize>,
    /// Every broker's committed view when the running handover started,
    /// and the epoch it aborted at, until the next operation starts.
    snapshot: Vec<Option<InstalledConfig>>,
    aborted: Option<u64>,
    /// Brokers of which the first to commit the running handover crashes.
    crash_candidates: u32,
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
    coordination: Coordination,
    crashed: Option<usize>,
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
    /// The deployment: `script.initial`, if any, placed everywhere as the
    /// coordinator's first deploy, every broker and client having
    /// installed it, and every subscriber subscribed at its closest
    /// serving region.
    fn new(script: Script) -> World {
        let all = script.all();
        let mut core = Coordinator::new(all);
        let mut view = TopicView::default();
        if let Some(Placement { mask, mode }) = script.initial {
            core.handle(multipub_proto::Event::Deploy { mask, mode });
            view.install(core.committed().expect("a deploy commits")).expect("a first install");
        }
        let home_mask = view.committed().map_or(all, |config| config.mask);
        let floor = view.committed().map_or(0, |config| config.epoch);
        let brokers = (0..script.regions)
            .map(|_| BrokerNode { view: view.clone(), clients: BTreeSet::new(), floor })
            .collect();
        let publishers = script.publishers.iter().map(|latencies| (latencies, None));
        let subscribers = script
            .subscribers
            .iter()
            .map(|latencies| (latencies, Some(closest(latencies, home_mask))));
        let clients = publishers
            .chain(subscribers)
            .map(|(latencies, home)| ClientNode {
                latencies: latencies.clone(),
                view: view.clone(),
                connected: home.into_iter().collect(),
                role: match home {
                    Some(home) => Role::Subscriber { home, leaving: BTreeSet::new() },
                    None => Role::Publisher,
                },
                floor,
                noticed: false,
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
            coordination: Coordination {
                history: core.committed().into_iter().collect(),
                core,
                next_op: 0,
                down: 0,
                late_ack: None,
                relink: None,
                snapshot: Vec::new(),
                aborted: None,
                crash_candidates: 0,
            },
            crashed: None,
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
            Event::Control { broker, frame } => self.control(broker, frame),
            Event::Ack { broker, epoch, phase } => {
                let down = self.coordination.down;
                if down & 1 << broker == 0 {
                    let (region, live) = (RegionId(broker as u8), self.script.all() & !down);
                    self.drive(multipub_proto::Event::Ack { region, epoch, phase, live });
                }
            }
            Event::Timeout { epoch, phase } => {
                self.drive(multipub_proto::Event::Timeout { epoch, phase });
            }
            Event::LinkUp { broker } => self.link_up(broker),
            Event::Crash { broker } => {
                // Unless a handover since made it serve, or another crashed.
                let committed = self.coordination.core.committed();
                if self.crashed.is_none() && committed.is_none_or(|c| c.mask & 1 << broker == 0) {
                    self.crash(broker);
                }
            }
            Event::Failover { client } => self.failover(client),
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

    // ---- the adapter around the coordinator ------------------------------

    /// Hands the coordinator one event and turns its actions into events.
    fn drive(&mut self, event: multipub_proto::Event) {
        for action in self.coordination.core.handle(event) {
            match action {
                Action::Send { control, regions } => {
                    for broker in bits(regions & !self.coordination.down) {
                        self.send(broker, control);
                    }
                }
                Action::ArmTimer { epoch, phase } => {
                    let after = if phase == Phase::Drain { GRACE_MS } else { ACK_TIMEOUT_MS };
                    self.schedule(self.now + after, Event::Timeout { epoch, phase });
                }
                Action::Committed { .. } => {
                    self.stats.commits += 1;
                    self.finish();
                }
                Action::Aborted(epoch) => {
                    self.stats.aborts += 1;
                    self.coordination.aborted = Some(epoch);
                    self.finish();
                }
            }
        }
        let committed = self.coordination.core.committed();
        if committed.is_some() && self.coordination.history.last().copied() != committed {
            self.coordination.history.extend(committed);
        }
    }

    /// Sends a control frame down the broker's FIFO link, sometimes twice.
    fn send(&mut self, broker: usize, frame: Control) {
        for _ in 0..1 + usize::from(self.rng.below(8) == 0) {
            let at = self.delay(CONTROL_DELAY_MS).max(self.link_clock[broker]);
            self.link_clock[broker] = at;
            self.schedule(at, Event::Control { broker, frame });
        }
    }

    fn next_op(&mut self) {
        let coordination = &mut self.coordination;
        let Some(&(_, op)) = self.script.ops.get(coordination.next_op) else {
            self.traffic_until = Some(self.now + 2 * GRACE_MS);
            return;
        };
        let crashes = self.script.crash == Some(coordination.next_op) && self.crashed.is_none();
        coordination.next_op += 1;
        coordination.aborted = None;
        match op {
            Op::Deploy(Placement { mask, mode }) => {
                self.drive(multipub_proto::Event::Deploy { mask, mode });
                self.finish();
            }
            Op::Handover { to, dead, late_ack } => {
                coordination.snapshot =
                    self.brokers.iter().map(|broker| broker.view.committed()).collect();
                coordination.late_ack = late_ack;
                let old = coordination.core.committed().map_or(self.script.all(), |c| c.mask);
                coordination.crash_candidates = if crashes { old & !to.mask } else { 0 };
                let bit = dead.map_or(0, |dead| 1 << dead);
                if bit & to.mask & !coordination.down != 0 {
                    coordination.down |= bit;
                    coordination.relink = dead;
                } else if bit & old & !to.mask != 0 && old != bit && self.crashed.is_none() {
                    self.crash(bit.trailing_zeros() as usize);
                }
                let (grace_ms, live) =
                    (GRACE_MS as u32, self.script.all() & !self.coordination.down);
                self.drive(multipub_proto::Event::Handover {
                    mask: to.mask,
                    mode: to.mode,
                    grace_ms,
                    live,
                });
            }
        }
    }

    /// The operation ended: a link it took down comes back a while later,
    /// and the next operation follows its pause, once that link is back.
    /// A broker that serves while its link is down is outside the
    /// coordinator's failure model, so no handover may start meanwhile.
    fn finish(&mut self) {
        let mut start = self.now;
        if let Some(broker) = self.coordination.relink.take() {
            start = self.delay(2 * GRACE_MS);
            self.schedule(start, Event::LinkUp { broker });
        }
        let next = self.coordination.next_op;
        let pause = self.script.ops.get(next).map_or(0, |(pause, _)| *pause);
        self.schedule(start + pause, Event::NextOp);
    }

    /// A link back up gets the committed configuration replayed.
    fn link_up(&mut self, broker: usize) {
        if self.crashed == Some(broker) {
            return;
        }
        self.coordination.down &= !(1 << broker);
        if let Some(config) = self.coordination.core.committed() {
            self.send(broker, Control::Update(config));
        }
    }

    /// A retiring broker crashes for good.
    fn crash(&mut self, broker: usize) {
        self.crashed = Some(broker);
        self.coordination.down |= 1 << broker;
        for client in 0..self.clients.len() {
            let at = self.delay(FAILOVER_MS);
            self.schedule(at, Event::Failover { client });
        }
    }

    // ---- the brokers ----------------------------------------------------

    fn control(&mut self, broker: usize, frame: Control) {
        if self.crashed == Some(broker) {
            return;
        }
        let mut ack = None;
        match frame {
            Control::Update(config) => {
                // A replay to a link back up moves the view, not a handover.
                self.update(broker, config);
                let committed = self.brokers[broker].view.committed();
                if let Some(before) = self.coordination.snapshot.get_mut(broker) {
                    *before = committed;
                }
            }
            Control::Prepare(config) => {
                self.brokers[broker].view.prepare(config, self.script.all());
                ack = Some((config.epoch, 0));
            }
            Control::Commit { epoch, grace_ms } => {
                let deadline = self.now + u64::from(grace_ms);
                let until = self.instant(deadline);
                let committed = self.brokers[broker].view.commit(epoch, until);
                if let Some(config) = committed {
                    self.last_deadline = self.last_deadline.max(deadline);
                    self.fan_out(broker, config);
                    if self.coordination.crash_candidates & 1 << broker != 0 {
                        self.coordination.crash_candidates = 0;
                        let at = self.delay(GRACE_MS - 1) + 1;
                        self.schedule(at, Event::Crash { broker });
                    }
                }
                ack = Some((epoch, 1));
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
                if self.coordination.aborted == Some(epoch) {
                    let snapshot = &self.coordination.snapshot;
                    let views: Vec<_> = self.brokers.iter().map(|b| b.view.committed()).collect();
                    assert_eq!(&views, snapshot, "a rolled-back handover moved a committed view");
                }
            }
        }
        self.check_floor_broker(broker);
        if let Some((epoch, phase)) = ack {
            let late = phase == 0 && self.coordination.late_ack == Some(broker);
            let at = if late {
                ACK_TIMEOUT_MS + self.delay(ACK_TIMEOUT_MS)
            } else {
                self.delay(CONTROL_DELAY_MS)
            };
            self.schedule(at, Event::Ack { broker, epoch, phase });
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
            .coordination
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

    /// The serving set a client steers by: its view's, less the crashed
    /// broker once it noticed.
    fn usable(&self, client: usize) -> u32 {
        let node = &self.clients[client];
        let mask = node.view.committed().map_or(self.script.all(), |config| config.mask);
        match self.crashed {
            Some(crashed) if node.noticed => mask & !(1 << crashed),
            _ => mask,
        }
    }

    /// Opens a client's connection to a region's broker, which replays
    /// its committed configuration to the newcomer. A crashed broker
    /// takes no connection.
    fn connect(&mut self, client: usize, region: usize) {
        if self.crashed != Some(region) && self.clients[client].connected.insert(region) {
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
        self.resteer(client, OVERLAP_MS);
    }

    /// A subscriber re-steers make-before-break: subscribe at the closest
    /// region it can steer to first, drop the old one within `overlap`.
    fn resteer(&mut self, client: usize, overlap: u64) {
        let usable = self.usable(client);
        let Role::Subscriber { home, .. } = self.clients[client].role else { return };
        if usable == 0 {
            return;
        }
        let target = closest(&self.clients[client].latencies, usable);
        if target == home {
            return;
        }
        self.connect(client, target);
        if let Role::Subscriber { home, leaving } = &mut self.clients[client].role {
            leaving.insert(*home);
            leaving.remove(&target);
            *home = target;
        }
        let at = self.delay(overlap);
        self.schedule(at, Event::Unsubscribe { client, region: home });
    }

    /// The client notices the crashed broker: it drops the connection,
    /// and a subscriber homed there re-homes at once.
    fn failover(&mut self, client: usize) {
        let Some(crashed) = self.crashed else { return };
        self.clients[client].noticed = true;
        self.clients[client].connected.remove(&crashed);
        self.brokers[crashed].clients.remove(&client);
        self.resteer(client, 0);
    }

    /// One publication, steered by the publisher's own view: direct to
    /// every serving region, routed to the closest one. Each live broker
    /// it lands on forwards by its own view; every subscriber homed on a
    /// live region must be on a region it reached. A publication only the
    /// crashed broker took is lost, as QoS 0 allows.
    fn publish(&mut self, client: usize) {
        let config = self.clients[client].view.committed();
        let epoch = config.map_or(0, |config| config.epoch);
        let usable = self.usable(client);
        let (sent, single_target) = match config.map_or(DeliveryMode::Routed, |c| c.mode) {
            _ if usable == 0 => (0, true),
            DeliveryMode::Direct => (usable, false),
            DeliveryMode::Routed => (1 << closest(&self.clients[client].latencies, usable), true),
        };
        let live = !self.crashed.map_or(0, |crashed| 1 << crashed);
        let mut arrivals = [0u32; 32];
        let now = self.instant(self.now);
        for region in bits(sent & live) {
            self.connect(client, region);
            arrivals[region] += 1;
            let view = &mut self.brokers[region].view;
            let route =
                view.route(RegionId(region as u8), single_target, epoch, self.script.all(), now);
            assert_eq!(route.targets & 1 << region, 0, "a broker forwarded to itself");
            for target in bits(route.targets & live) {
                arrivals[target] += 1;
            }
        }
        self.stats.publishes += 1;
        let _ = write!(self.trace, "  epoch {epoch} sent {sent:#b} copies");
        for (subscriber, node) in self.clients.iter().enumerate() {
            let Role::Subscriber { home, leaving } = &node.role else { continue };
            if sent & live == 0 || live & 1 << home == 0 {
                continue;
            }
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
            if self.crashed == Some(region) {
                continue;
            }
            let route =
                broker.view.route(RegionId(region as u8), true, committed.epoch, all, after);
            assert_eq!(
                route.targets,
                committed.mask & !(1 << region),
                "broker {region} still bridges"
            );
            assert_eq!(route.bridged, 0);
        }
        let installed = self.coordination.core.committed();
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

/// The checker over 50 000 schedules, in the release chaos job.
#[test]
#[ignore = "50 000 schedules; run in release with --include-ignored"]
fn fifty_thousand_seeded_handover_schedules() {
    for_each_seed(50_000, |seed| {
        check(Script::random(seed));
    });
}

/// A publisher two configurations behind steers to a broker that only the
/// first of two back-to-back handovers involved; the second one prepares
/// it too, so it bridges to the subscribers' new home.
#[test]
fn seed_1641_two_configurations_behind() {
    check(Script::random(1641));
}

/// A prepare ack that comes back after its attempt timed out names an
/// epoch no retry reuses, so it cannot commit the retry before that
/// broker has prepared it.
#[test]
fn seed_19351_late_ack_of_an_aborted_attempt() {
    check(Script::random(19351));
}

// ---- named seeds: the live reconfiguration tests as schedules -------------

fn placement(mask: u32, mode: DeliveryMode) -> Placement {
    Placement { mask, mode }
}

fn handover(mask: u32, mode: DeliveryMode) -> Op {
    Op::Handover { to: placement(mask, mode), dead: None, late_ack: None }
}

fn two_regions(initial: Placement, ops: Vec<(u64, Op)>, clients: bool) -> Script {
    let latencies = if clients { vec![vec![5.0, 70.0]] } else { Vec::new() };
    Script {
        regions: 2,
        subscribers: latencies.clone(),
        publishers: latencies,
        publish_every_ms: 2,
        initial: Some(initial),
        ops,
        stale_replays: Vec::new(),
        crash: None,
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
    assert_eq!(world.coordination.core.committed(), config(0b10, DeliveryMode::Routed, 2));
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
    let ops = vec![(100, Op::Handover { to, dead: Some(1), late_ack: None })];
    let world = check(two_regions(placement(0b01, DeliveryMode::Direct), ops, true));
    assert_eq!((world.stats.commits, world.stats.aborts), (0, 1));
    assert_eq!(world.coordination.core.committed(), config(0b01, DeliveryMode::Direct, 1));
    assert_eq!(world.brokers[0].view.committed(), config(0b01, DeliveryMode::Direct, 1));
    assert!(world.stats.publishes >= 100, "delivery continued after the rollback");
}
