//! The coordinating side of the make-before-break handover (DESIGN.md §15)
//! as one per-topic, clock-free state machine: [`Coordinator::handle`]
//! turns an [`Event`] into [`Action`]s. The caller owns the links and the
//! clock: it sends what [`Action::Send`] asks for, fires
//! [`Event::Timeout`] when an [`Action::ArmTimer`] falls due, feeds back
//! the brokers' acks, and says which control links are up. The
//! participant side is [`TopicView`](crate::TopicView).
//!
//! Three decisions live here and nowhere else:
//!
//! * **Epochs.** Every deploy and every handover attempt mints a fresh
//!   epoch, one past the last one minted, and a retry never reuses an
//!   aborted attempt's epoch. An ack therefore names its attempt exactly by
//!   (epoch, phase), so a late ack of an aborted attempt never counts for
//!   its retry. After an abort the next attempt's epoch is two or more past
//!   the committed one; `TopicView::prepare`'s `epoch + 1` rule sees the
//!   gap and bridges the whole unplaced mask for that one attempt. That is
//!   safe: the bridge only gets wider.
//! * **Participants.** A handover prepares the old serving set, the new
//!   one, and every region a still-draining handover involved, so a client
//!   two configurations behind steers to a broker that bridges. A first
//!   placement's old serving set is the unplaced default, every region.
//!   Only regions whose control link is up when the handover starts take
//!   part.
//! * **The outcome.** A new serving region whose link is down before the
//!   commit point, or a missing prepare ack, aborts the handover. A missing
//!   commit ack is diagnostic only: past the commit point there is no
//!   rollback.
//!
//! The failure model: a control link delivers in order, may delay or
//! duplicate a frame, and loses everything while it is down. The caller
//! tells each handover which links are up. A broker whose link is down
//! then is treated as crashed: it takes no part, so a topic can still be
//! placed, or moved off its region, and the caller replays
//! [`Coordinator::committed`] to it when the link returns. A participant
//! lost mid-handover is treated the same way: before its prepare ack the
//! missing ack aborts, after it the commit goes ahead without it unless it
//! was about to serve. A broker cut off from the controller that still
//! serves clients is outside this model: its clients keep the
//! configuration it last installed until the link is back, and may miss
//! publications meanwhile.

use crate::frame::Frame;
use crate::handover::InstalledConfig;
use multipub_core::assignment::DeliveryMode;
use multipub_core::ids::RegionId;

/// A control frame the coordinator sends, without the topic it is for:
/// `ConfigUpdate`, `HandoverPrepare`, `HandoverCommit` (with the drain
/// window in milliseconds) or `HandoverAbort`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Update(InstalledConfig),
    Prepare(InstalledConfig),
    Commit { epoch: u64, grace_ms: u32 },
    Abort(u64),
}

impl Control {
    /// The wire frame that carries this control frame for `topic`.
    pub fn frame<P>(self, topic: &str) -> Frame<P> {
        let topic = topic.to_string();
        match self {
            Control::Update(InstalledConfig { mask, mode, epoch }) => {
                Frame::ConfigUpdate { topic, mask, mode, epoch }
            }
            Control::Prepare(InstalledConfig { mask, mode, epoch }) => {
                Frame::HandoverPrepare { topic, mask, mode, epoch }
            }
            Control::Commit { epoch, grace_ms } => Frame::HandoverCommit { topic, epoch, grace_ms },
            Control::Abort(epoch) => Frame::HandoverAbort { topic, epoch },
        }
    }
}

/// What a timer guards: the prepare or the commit acks (fire after the
/// ack timeout), or the drain (fire after the drain window, by when every
/// broker that acked the commit has stopped bridging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Prepare,
    Commit,
    Drain,
}

/// What the coordinator is told: install a configuration at once
/// (`Deploy`) or make-before-break (`Handover`, whose commit carries
/// `grace_ms`); a broker's `HandoverAck` (phase `0` = prepare, `1` =
/// commit); a timer armed by [`Action::ArmTimer`] fell due. `live` is the
/// mask of regions whose control link is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Deploy { mask: u32, mode: DeliveryMode },
    Handover { mask: u32, mode: DeliveryMode, grace_ms: u32, live: u32 },
    Ack { region: RegionId, epoch: u64, phase: u8, live: u32 },
    Timeout { epoch: u64, phase: Phase },
}

/// What the coordinator asks of its caller: send a frame to the broker of
/// every region in a mask whose link is up; fire `Event::Timeout { epoch, phase }` after
/// the phase's duration; or report a handover's outcome. `Committed`
/// comes once the commit acks are in or timed out, naming the
/// participants whose ack never came (diagnostic only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Send { control: Control, regions: u32 },
    ArmTimer { epoch: u64, phase: Phase },
    Committed { config: InstalledConfig, unacked: u32 },
    Aborted(u64),
}

/// The running handover attempt.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    config: InstalledConfig,
    grace_ms: u32,
    participants: u32,
    acked: u32,
    /// Past the commit point: the acks awaited are commit acks.
    committed: bool,
}

/// One topic's coordinator. See the module docs.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// The unplaced default: every region.
    all: u32,
    committed: Option<InstalledConfig>,
    /// The last epoch minted.
    minted: u64,
    running: Option<Attempt>,
    /// Every region the committed handovers still draining involved, and
    /// the epoch of the last of them.
    draining: u32,
    drain_epoch: u64,
}

impl Coordinator {
    /// A coordinator for a topic no one has placed, over the regions of
    /// `all`.
    pub fn new(all: u32) -> Coordinator {
        let (committed, running) = (None, None);
        Coordinator { all, committed, minted: 0, running, draining: 0, drain_epoch: 0 }
    }

    /// The committed configuration: what a redialed broker is replayed.
    /// An aborted attempt never shows here.
    pub fn committed(&self) -> Option<InstalledConfig> {
        self.committed
    }

    /// Handles one event. A deploy or a handover that arrives while
    /// another handover runs ends that one first: a prepared one aborts, a
    /// committed one stops waiting for commit acks.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            Event::Deploy { mask, mode } => {
                self.finish(&mut actions);
                let config = self.mint(mask, mode);
                self.committed = Some(config);
                actions.push(Action::Send { control: Control::Update(config), regions: self.all });
            }
            Event::Handover { mask, mode, grace_ms, live } => {
                self.finish(&mut actions);
                let config = self.mint(mask, mode);
                let old = self.committed.map_or(self.all, |committed| committed.mask);
                let participants = (mask | old | self.draining) & live;
                if mask & !live != 0 {
                    // No broker was prepared: there is nothing to abort.
                    actions.push(Action::Aborted(config.epoch));
                    return actions;
                }
                let attempt =
                    Attempt { config, grace_ms, participants, acked: 0, committed: false };
                self.running = Some(attempt);
                let prepare = Control::Prepare(config);
                actions.push(Action::Send { control: prepare, regions: participants });
                actions.push(Action::ArmTimer { epoch: config.epoch, phase: Phase::Prepare });
            }
            Event::Ack { region, epoch, phase, live } => {
                let Some(attempt) = &mut self.running else { return actions };
                if (epoch, phase) != (attempt.config.epoch, u8::from(attempt.committed)) {
                    return actions;
                }
                attempt.acked |= 1 << region.0;
                if attempt.participants & !attempt.acked != 0 {
                    return actions;
                }
                // A new serving region lost since its prepare ack aborts.
                if attempt.committed || attempt.config.mask & !live != 0 {
                    self.finish(&mut actions);
                } else {
                    let Attempt { config, grace_ms, participants, .. } = *attempt;
                    // The commit point: from here on a redial replays `config`.
                    self.committed = Some(config);
                    self.draining |= participants;
                    self.drain_epoch = config.epoch;
                    let commit = Control::Commit { epoch: config.epoch, grace_ms };
                    actions.push(Action::Send { control: commit, regions: participants });
                    actions.push(Action::ArmTimer { epoch, phase: Phase::Commit });
                    *attempt = Attempt { acked: 0, committed: true, ..*attempt };
                }
            }
            Event::Timeout { epoch, phase: Phase::Drain } => {
                if epoch == self.drain_epoch {
                    self.draining = 0;
                }
            }
            Event::Timeout { epoch, phase } => {
                let committed = phase == Phase::Commit;
                if self.running.is_some_and(|a| (a.config.epoch, a.committed) == (epoch, committed))
                {
                    self.finish(&mut actions);
                }
            }
        }
        actions
    }

    fn mint(&mut self, mask: u32, mode: DeliveryMode) -> InstalledConfig {
        self.minted += 1;
        InstalledConfig { mask, mode, epoch: self.minted }
    }

    /// Ends the running attempt: a prepared one aborts, a committed one
    /// reports its outcome and starts its drain timer.
    fn finish(&mut self, actions: &mut Vec<Action>) {
        let Some(Attempt { config, participants, acked, committed, .. }) = self.running.take()
        else {
            return;
        };
        let epoch = config.epoch;
        if committed {
            actions.push(Action::Committed { config, unacked: participants & !acked });
            actions.push(Action::ArmTimer { epoch, phase: Phase::Drain });
        } else {
            actions.push(Action::Send { control: Control::Abort(epoch), regions: participants });
            actions.push(Action::Aborted(epoch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u32 = 0b111;
    const ROUTED: DeliveryMode = DeliveryMode::Routed;

    fn config(mask: u32, epoch: u64) -> InstalledConfig {
        InstalledConfig { mask, mode: ROUTED, epoch }
    }

    fn deploy(mask: u32) -> Event {
        Event::Deploy { mask, mode: ROUTED }
    }

    fn handover(mask: u32, live: u32) -> Event {
        Event::Handover { mask, mode: ROUTED, grace_ms: 100, live }
    }

    fn ack(region: u8, epoch: u64, phase: u8) -> Event {
        Event::Ack { region: RegionId(region), epoch, phase, live: ALL }
    }

    fn prepare(mask: u32, epoch: u64, regions: u32) -> [Action; 2] {
        [
            Action::Send { control: Control::Prepare(config(mask, epoch)), regions },
            Action::ArmTimer { epoch, phase: Phase::Prepare },
        ]
    }

    /// Runs a handover to `mask` among the regions of `live` through both
    /// phases, every participant acking, and returns its participants.
    fn commit(coordinator: &mut Coordinator, mask: u32, live: u32) -> u32 {
        let actions = coordinator.handle(handover(mask, live));
        let Some(&Action::Send { control: Control::Prepare(prepared), regions }) = actions.first()
        else {
            panic!("no prepare in {actions:?}")
        };
        for phase in [0, 1] {
            for region in (0..3).filter(|region| regions & 1 << region != 0) {
                coordinator.handle(ack(region, prepared.epoch, phase));
            }
        }
        assert_eq!(coordinator.committed(), Some(config(mask, prepared.epoch)));
        regions
    }

    #[test]
    fn deploys_mint_one_epoch_after_another_and_end_a_running_handover() {
        let mut coordinator = Coordinator::new(ALL);
        assert_eq!(coordinator.committed(), None);
        let update = |mask, epoch| Action::Send {
            control: Control::Update(config(mask, epoch)),
            regions: ALL,
        };
        assert_eq!(coordinator.handle(deploy(0b001)), [update(0b001, 1)]);
        coordinator.handle(handover(0b011, ALL));
        let actions = coordinator.handle(deploy(0b010));
        assert_eq!(actions[1..], [Action::Aborted(2), update(0b010, 3)]);
        assert_eq!(coordinator.committed(), Some(config(0b010, 3)));
        let frame: Frame<()> = Control::Abort(2).frame("t");
        assert_eq!(frame, Frame::HandoverAbort { topic: "t".into(), epoch: 2 });
    }

    #[test]
    fn a_first_placement_prepares_every_region_and_commits_on_the_last_ack() {
        let mut coordinator = Coordinator::new(ALL);
        assert_eq!(coordinator.handle(handover(0b010, ALL)), prepare(0b010, 1, ALL));
        assert!(coordinator.handle(ack(0, 1, 0)).is_empty());
        assert!(coordinator.handle(ack(1, 1, 0)).is_empty());
        assert_eq!(
            coordinator.handle(ack(2, 1, 0)),
            [
                Action::Send { control: Control::Commit { epoch: 1, grace_ms: 100 }, regions: ALL },
                Action::ArmTimer { epoch: 1, phase: Phase::Commit },
            ]
        );
        assert_eq!(coordinator.committed(), Some(config(0b010, 1)));
        // A missing commit ack is diagnostic only.
        assert_eq!(
            coordinator.handle(Event::Timeout { epoch: 1, phase: Phase::Commit }),
            [
                Action::Committed { config: config(0b010, 1), unacked: ALL },
                Action::ArmTimer { epoch: 1, phase: Phase::Drain },
            ]
        );
    }

    #[test]
    fn a_retry_never_reuses_an_aborted_epoch_nor_counts_its_late_acks() {
        let mut coordinator = Coordinator::new(ALL);
        coordinator.handle(deploy(0b001));
        coordinator.handle(handover(0b010, ALL));
        let abort = coordinator.handle(Event::Timeout { epoch: 2, phase: Phase::Prepare });
        assert_eq!(abort[1], Action::Aborted(2));
        assert_eq!(coordinator.committed(), Some(config(0b001, 1)));
        assert_eq!(coordinator.handle(handover(0b010, ALL)), prepare(0b010, 3, 0b011));
        assert!(coordinator.handle(ack(0, 2, 0)).is_empty());
        assert!(coordinator.handle(ack(1, 2, 0)).is_empty(), "acks of epoch 2 count for nothing");
        coordinator.handle(ack(0, 3, 0));
        assert_eq!(coordinator.handle(ack(1, 3, 0)).len(), 2, "epoch 3 commits");
    }

    #[test]
    fn a_dead_region_is_left_out_unless_it_is_about_to_serve() {
        // Region 2 is dead: a first placement, and a move off region 2,
        // prepare and commit among the live regions.
        let live = 0b011;
        let mut coordinator = Coordinator::new(ALL);
        assert_eq!(commit(&mut coordinator, 0b001, live), live);
        coordinator.handle(Event::Timeout { epoch: 1, phase: Phase::Drain });
        coordinator.handle(deploy(0b100));
        assert_eq!(commit(&mut coordinator, 0b010, live), 0b010);
        // Moving onto it aborts before any broker prepares, and so does
        // losing a new serving region after its prepare ack.
        assert_eq!(coordinator.handle(handover(0b101, live)), [Action::Aborted(4)]);
        assert_eq!(coordinator.handle(handover(0b001, live)), prepare(0b001, 5, 0b011));
        coordinator.handle(ack(0, 5, 0));
        let lost = Event::Ack { region: RegionId(1), epoch: 5, phase: 0, live: 0b010 };
        assert_eq!(coordinator.handle(lost)[1], Action::Aborted(5));
        assert_eq!(coordinator.committed(), Some(config(0b010, 3)));
    }

    #[test]
    fn participants_keep_every_region_a_still_draining_handover_involved() {
        let mut coordinator = Coordinator::new(ALL);
        coordinator.handle(deploy(0b001));
        commit(&mut coordinator, 0b010, ALL);
        // {0} → {1} drains; {1} → {2} still prepares region 0.
        assert_eq!(coordinator.handle(handover(0b100, ALL)), prepare(0b100, 3, ALL));
        coordinator.handle(Event::Timeout { epoch: 3, phase: Phase::Prepare });
        // A drain timer of an older handover than the last committed one
        // ends nothing; the last one's ends the drain.
        commit(&mut coordinator, 0b010, ALL);
        coordinator.handle(Event::Timeout { epoch: 2, phase: Phase::Drain });
        assert_eq!(coordinator.handle(handover(0b100, ALL)), prepare(0b100, 5, ALL));
        coordinator.handle(Event::Timeout { epoch: 5, phase: Phase::Prepare });
        coordinator.handle(Event::Timeout { epoch: 4, phase: Phase::Drain });
        assert_eq!(coordinator.handle(handover(0b100, ALL)), prepare(0b100, 6, 0b110));
    }
}
