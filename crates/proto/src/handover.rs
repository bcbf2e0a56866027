//! Which configuration a node follows for one topic, and when a newer one
//! replaces it: the epoch gate and the make-before-break handover of
//! DESIGN.md §15 as one sans-IO state machine.
//!
//! Brokers and clients hold one [`TopicView`] per topic. Every transition
//! takes `&mut self` and is handed the time instead of reading a clock, so
//! the same rule runs in the tokio broker, in the client library and in
//! the seeded handover checker (`tests/handover.rs`).

use multipub_core::assignment::DeliveryMode;
use multipub_core::ids::RegionId;
use std::time::Instant;

/// A topic's configuration as a node installs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstalledConfig {
    /// Assignment bitmask, bit `i` ↔ region `i`.
    pub mask: u32,
    /// Delivery mode.
    pub mode: DeliveryMode,
    /// The committed configuration epoch (`0` for the bootstrap
    /// default). Updates carrying an older epoch are rejected so a
    /// delayed or replayed `ConfigUpdate` can never roll the topic's
    /// view backwards.
    pub epoch: u64,
}

impl InstalledConfig {
    /// What a topic no controller has placed follows: every region of
    /// `mask`, routed, at epoch `0`.
    pub fn unplaced(mask: u32) -> InstalledConfig {
        InstalledConfig { mask, mode: DeliveryMode::Routed, epoch: 0 }
    }
}

/// One topic's committed configuration plus its in-flight handover.
///
/// A topic no controller has placed has no committed configuration; it
/// follows the caller's *unplaced* default (a broker's live all-peers
/// mask), which [`TopicView::prepare`] and [`TopicView::route`] take as an
/// argument so the default is read when it is used, never stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopicView {
    committed: Option<InstalledConfig>,
    /// The prepared, not yet committed handover: the pending
    /// configuration and the mask in force when it was prepared.
    prepared: Option<(InstalledConfig, u32)>,
    /// The regions committed handovers still bridge to (their prior
    /// masks) and the drain deadline, past which the bridge collapses.
    draining: Option<(u32, Instant)>,
}

/// Where a broker forwards one publication it took from a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Regions to forward to, never the broker's own.
    pub targets: u32,
    /// The part of `targets` outside the committed serving set: regions
    /// reached only because a handover is bridging.
    pub bridged: u32,
    /// The publisher steered by an epoch older than the committed one.
    pub stale: bool,
}

impl TopicView {
    /// The committed configuration, `None` while no controller has
    /// placed the topic (a prepare or an abort alone places nothing).
    pub fn committed(&self) -> Option<InstalledConfig> {
        self.committed
    }

    fn committed_epoch(&self) -> u64 {
        self.committed.map_or(0, |config| config.epoch)
    }

    /// The epoch gate. An older epoch is rejected and changes nothing
    /// (`Err` carries the committed epoch); an equal one re-applies, so
    /// replays stay idempotent; a newer one installs and retires a
    /// prepared handover of an older epoch. A drain always runs to its
    /// deadline.
    ///
    /// # Errors
    ///
    /// Returns the committed epoch when `config` is older than it.
    pub fn install(&mut self, config: InstalledConfig) -> Result<(), u64> {
        let installed = self.committed_epoch();
        if config.epoch < installed {
            return Err(installed);
        }
        self.committed = Some(config);
        self.prepared.take_if(|(pending, _)| pending.epoch < config.epoch);
        Ok(())
    }

    /// Phase one: records `pending` so [`TopicView::route`] bridges to the
    /// union of the serving set in force and the pending one. The serving
    /// set in force is `unplaced_mask` for an unplaced topic, and for a
    /// node that missed the configuration just before `pending`. A
    /// prepare not ahead of the committed epoch, or behind an already
    /// prepared one, is ignored (`false`).
    pub fn prepare(&mut self, pending: InstalledConfig, unplaced_mask: u32) -> bool {
        if pending.epoch <= self.committed_epoch()
            || self.prepared.is_some_and(|(prepared, _)| pending.epoch < prepared.epoch)
        {
            return false;
        }
        // Only the configuration just before `pending` tells which serving
        // set the clients follow; a node that missed it bridges every region.
        let prior_mask = match self.committed {
            Some(config) if config.epoch + 1 == pending.epoch => config.mask,
            _ => unplaced_mask,
        };
        self.prepared = Some((pending, prior_mask));
        true
    }

    /// Phase two: installs the handover prepared at `epoch` and keeps
    /// bridging to its prior mask, together with whatever an earlier
    /// handover still drains, until `drain_until`. Returns the installed
    /// configuration, or `None` when nothing is prepared at `epoch`.
    pub fn commit(&mut self, epoch: u64, drain_until: Instant) -> Option<InstalledConfig> {
        let (pending, prior_mask) = self.prepared.take_if(|(pending, _)| pending.epoch == epoch)?;
        self.install(pending).ok()?;
        let (earlier, until) = self.draining.unwrap_or((0, drain_until));
        self.draining = Some((prior_mask | earlier, until.max(drain_until)));
        Some(pending)
    }

    /// Rollback: discards the handover prepared at `epoch`. A committed
    /// handover is past the point of no return, so its drain stays.
    /// Returns whether anything was discarded.
    pub fn abort(&mut self, epoch: u64) -> bool {
        self.prepared.take_if(|(pending, _)| pending.epoch == epoch).is_some()
    }

    /// Where the broker of `own_region` forwards a publication a client
    /// sent it, steering by `publish_epoch` — to it alone
    /// (`single_target`) or as part of a direct fan-out.
    ///
    /// The committed serving set decides, not the publisher's view: a
    /// single-target publish, or a direct fan-out that steered by another
    /// epoch or landed on a region no longer serving, is forwarded to the
    /// whole serving set; a direct fan-out by the committed configuration
    /// already reached it. While a handover is prepared or draining, the
    /// prior and pending serving sets are bridged as well, so whichever
    /// view the publisher and the subscribers steer by, the publication
    /// reaches them. A drain past its deadline is dropped here.
    pub fn route(
        &mut self,
        own_region: RegionId,
        single_target: bool,
        publish_epoch: u64,
        unplaced_mask: u32,
        now: Instant,
    ) -> Route {
        self.draining.take_if(|(_, until)| now >= *until);
        let committed = self.committed.map_or(unplaced_mask, |config| config.mask);
        let own = 1u32 << own_region.0;
        let bridge = (self.draining.map_or(0, |(mask, _)| mask)
            | self.prepared.map_or(0, |(pending, prior_mask)| pending.mask | prior_mask))
            & !committed;
        // A direct fan-out reached the committed serving set only if it
        // steered by it: this region serves, and the epochs agree.
        let epoch = self.committed_epoch();
        let trusted = !single_target && committed & own != 0 && publish_epoch == epoch;
        let reach = if trusted { bridge } else { committed | bridge };
        Route { targets: reach & !own, bridged: bridge & !own, stale: publish_epoch < epoch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const DIRECT: DeliveryMode = DeliveryMode::Direct;
    const ROUTED: DeliveryMode = DeliveryMode::Routed;
    const ALL: u32 = 0b111;

    fn config(mask: u32, mode: DeliveryMode, epoch: u64) -> InstalledConfig {
        InstalledConfig { mask, mode, epoch }
    }

    fn placed(mask: u32, epoch: u64) -> TopicView {
        let mut view = TopicView::default();
        view.install(config(mask, DIRECT, epoch)).unwrap();
        view
    }

    /// Where a publish steered by the committed configuration goes.
    fn targets(view: &mut TopicView, own: u8, single_target: bool, now: Instant) -> u32 {
        let epoch = view.committed().map_or(0, |config| config.epoch);
        view.route(RegionId(own), single_target, epoch, ALL, now).targets
    }

    #[test]
    fn a_stale_install_is_rejected_and_changes_nothing() {
        let mut view = placed(0b010, 4);
        assert!(view.prepare(config(0b100, ROUTED, 5), ALL));
        let before = view.clone();
        assert_eq!(view.install(config(0b001, ROUTED, 3)), Err(4));
        assert_eq!(view, before);
    }

    #[test]
    fn an_equal_install_reapplies_and_keeps_the_prepared_handover() {
        let mut view = placed(0b010, 4);
        assert!(view.prepare(config(0b100, ROUTED, 5), ALL));
        assert_eq!(view.install(config(0b011, ROUTED, 4)), Ok(()));
        assert_eq!(view.committed(), Some(config(0b011, ROUTED, 4)));
        assert_eq!(view.commit(5, Instant::now()), Some(config(0b100, ROUTED, 5)));
    }

    #[test]
    fn a_newer_install_retires_an_older_prepared_handover() {
        let mut view = placed(0b001, 1);
        assert!(view.prepare(config(0b010, ROUTED, 2), ALL));
        view.install(config(0b100, DIRECT, 3)).unwrap();
        assert_eq!(view.commit(2, Instant::now()), None, "the prepared epoch is gone");
        assert_eq!(targets(&mut view, 2, true, Instant::now()), 0, "nothing is bridged");
    }

    #[test]
    fn an_unplaced_topic_follows_the_live_default_and_a_prepare_places_nothing() {
        let now = Instant::now();
        let mut view = TopicView::default();
        assert_eq!(view.route(RegionId(0), true, 0, 0b011, now).targets, 0b010);
        assert_eq!(view.route(RegionId(0), true, 0, 0b111, now).targets, 0b110);
        assert!(view.prepare(config(0b100, ROUTED, 1), 0b011));
        assert!(view.abort(1));
        assert_eq!(view.committed(), None);
    }

    #[test]
    fn prepare_bridges_the_union_and_stale_prepares_are_ignored() {
        let now = Instant::now();
        let mut view = placed(0b001, 2);
        assert!(!view.prepare(config(0b010, ROUTED, 2), ALL), "not ahead of the committed");
        assert!(view.prepare(config(0b100, ROUTED, 3), ALL));
        // Region 0 serves and took a direct fan-out: it bridges to the
        // pending region only; a single-target publish reaches both.
        assert_eq!(targets(&mut view, 0, false, now), 0b100);
        let route = view.route(RegionId(2), true, 1, ALL, now);
        assert_eq!(route, Route { targets: 0b001, bridged: 0, stale: true });
        assert_eq!(view.route(RegionId(1), true, 2, ALL, now).bridged, 0b100);
        // Past a missed configuration the prior serving set is unknown.
        assert!(view.prepare(config(0b100, ROUTED, 5), ALL));
        assert!(!view.prepare(config(0b010, ROUTED, 4), ALL), "behind the prepared");
        assert_eq!(targets(&mut view, 0, false, now), 0b110);
    }

    #[test]
    fn a_direct_fan_out_by_another_epoch_is_passed_on_to_the_serving_set() {
        // The topic grew from {0} to {0, 1}: a direct publisher still on
        // {0}, or already on a newer set, may have missed region 1.
        let now = Instant::now();
        let mut view = placed(0b011, 2);
        assert_eq!(view.route(RegionId(0), false, 2, ALL, now).targets, 0);
        assert_eq!(view.route(RegionId(0), false, 1, ALL, now).targets, 0b010);
        assert_eq!(view.route(RegionId(0), false, 3, ALL, now).targets, 0b010);
    }

    #[test]
    fn commit_drains_the_prior_mask_until_the_deadline() {
        let now = Instant::now();
        let deadline = now + Duration::from_millis(100);
        let mut view = placed(0b001, 1);
        assert!(view.prepare(config(0b010, ROUTED, 2), ALL));
        assert_eq!(view.commit(2, deadline), Some(config(0b010, ROUTED, 2)));
        assert_eq!(view.commit(2, deadline), None, "a duplicate commit is a no-op");
        assert_eq!(targets(&mut view, 1, false, now), 0b001, "the retiring region is bridged");
        assert_eq!(targets(&mut view, 1, false, deadline), 0);
        assert_eq!(targets(&mut view, 0, false, now), 0b010, "expired drains stay expired");
    }

    #[test]
    fn an_abort_discards_only_the_prepared_epoch() {
        let now = Instant::now();
        let mut view = placed(0b001, 1);
        assert!(view.prepare(config(0b010, ROUTED, 2), ALL));
        assert!(!view.abort(3));
        assert!(view.abort(2));
        assert_eq!(view, placed(0b001, 1));
        assert!(view.prepare(config(0b010, ROUTED, 2), ALL));
        view.commit(2, now + Duration::from_secs(1)).unwrap();
        let draining = view.clone();
        assert!(!view.abort(2), "a late abort never cancels a drain");
        assert_eq!(view, draining);
    }

    #[test]
    fn a_second_handover_keeps_the_first_ones_drain() {
        // Handover A moves {0} to {1}; handover B ({1} to {2}) prepares
        // and even aborts at broker 1 inside A's grace window. A
        // subscriber still on region 0 keeps being bridged.
        let now = Instant::now();
        let mut view = placed(0b001, 1);
        assert!(view.prepare(config(0b010, DIRECT, 2), ALL));
        view.commit(2, now + Duration::from_millis(100)).unwrap();
        assert!(view.prepare(config(0b100, DIRECT, 3), ALL));
        assert_eq!(targets(&mut view, 1, false, now), 0b101);
        assert!(view.abort(3));
        assert_eq!(targets(&mut view, 1, false, now), 0b001);
        assert!(view.prepare(config(0b100, DIRECT, 3), ALL));
        view.commit(3, now + Duration::from_millis(150)).unwrap();
        assert_eq!(targets(&mut view, 2, false, now), 0b011);
    }
}
