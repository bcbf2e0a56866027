//! Reconfiguration planning.
//!
//! The mapping of topics to regions is a bit matrix (paper §III.A2): rows
//! are topics, columns are regions, and each row is one topic's
//! [`Configuration`]. [`ReconfigurationPlan`] computes, for a row change,
//! exactly which clients must act (paper §III.A5): subscribers whose closest
//! serving region changes must resubscribe, and publishers must re-steer
//! whenever the serving set or mode changes.

use crate::assignment::{Configuration, DeliveryMode};
use crate::delivery::closest_region;
use crate::ids::{ClientId, RegionId};
use crate::workload::TopicWorkload;

/// The client notifications required by one row change (paper §III.A5).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationPlan {
    /// Subscribers that must resubscribe, with their moves.
    pub subscriber_moves: Vec<(ClientId, RegionId, RegionId)>,
    /// Publishers whose publish target set changes.
    pub publisher_changes: Vec<ClientId>,
    /// Regions added to the serving set.
    pub added_regions: Vec<RegionId>,
    /// Regions removed from the serving set.
    pub removed_regions: Vec<RegionId>,
    /// Whether the delivery mode changed.
    pub mode_changed: bool,
}

impl ReconfigurationPlan {
    /// Computes the plan for moving `workload`'s clients from `old` to
    /// `new`.
    pub fn compute(workload: &TopicWorkload, old: Configuration, new: Configuration) -> Self {
        let mut subscriber_moves = Vec::new();
        for subscriber in workload.subscribers() {
            let from = closest_region(subscriber.latencies(), old.assignment());
            let to = closest_region(subscriber.latencies(), new.assignment());
            if from != to {
                subscriber_moves.push((subscriber.id(), from, to));
            }
        }

        let mut publisher_changes = Vec::new();
        for publisher in workload.publishers() {
            let old_targets = publish_targets(publisher.latencies(), old);
            let new_targets = publish_targets(publisher.latencies(), new);
            if old_targets != new_targets {
                publisher_changes.push(publisher.id());
            }
        }

        let added_regions =
            new.assignment().iter().filter(|r| !old.assignment().contains(*r)).collect();
        let removed_regions =
            old.assignment().iter().filter(|r| !new.assignment().contains(*r)).collect();

        ReconfigurationPlan {
            subscriber_moves,
            publisher_changes,
            added_regions,
            removed_regions,
            mode_changed: old.mode() != new.mode(),
        }
    }

    /// Total number of clients that must be notified.
    pub fn notified_clients(&self) -> usize {
        self.subscriber_moves.len() + self.publisher_changes.len()
    }

    /// Whether the change is a no-op for every client.
    pub fn is_noop(&self) -> bool {
        self.notified_clients() == 0
            && self.added_regions.is_empty()
            && self.removed_regions.is_empty()
            && !self.mode_changed
    }
}

/// The set of regions a publisher sends to under a configuration, as a
/// bitmask: every serving region under direct delivery, only the closest
/// one under routed delivery.
fn publish_targets(latencies: &[f64], configuration: Configuration) -> u32 {
    match configuration.mode() {
        DeliveryMode::Direct => configuration.assignment().mask(),
        DeliveryMode::Routed => 1u32 << closest_region(latencies, configuration.assignment()).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentVector;
    use crate::workload::{MessageBatch, Publisher, Subscriber};

    fn config(mask: u32, mode: DeliveryMode) -> Configuration {
        Configuration::new(AssignmentVector::from_mask(mask, 3).unwrap(), mode)
    }

    fn workload() -> TopicWorkload {
        TopicWorkload::new(
            3,
            vec![Publisher::new(ClientId(0), vec![5.0, 50.0, 90.0], MessageBatch::uniform(1, 1))],
            vec![
                Subscriber::new(ClientId(1), vec![4.0, 60.0, 99.0]),
                Subscriber::new(ClientId(2), vec![80.0, 6.0, 70.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plan_moves_subscribers_whose_region_changes() {
        let w = workload();
        // Region 1 removed: subscriber 2 (home R1) must move to R0.
        let plan = ReconfigurationPlan::compute(
            &w,
            config(0b011, DeliveryMode::Direct),
            config(0b001, DeliveryMode::Direct),
        );
        assert_eq!(plan.subscriber_moves, vec![(ClientId(2), RegionId(1), RegionId(0))]);
        assert_eq!(plan.removed_regions, vec![RegionId(1)]);
        assert!(plan.added_regions.is_empty());
        assert!(!plan.mode_changed);
    }

    #[test]
    fn plan_flags_publishers_on_direct_mask_growth() {
        let w = workload();
        let plan = ReconfigurationPlan::compute(
            &w,
            config(0b001, DeliveryMode::Direct),
            config(0b011, DeliveryMode::Direct),
        );
        // Direct: the publisher must now also send to region 1.
        assert_eq!(plan.publisher_changes, vec![ClientId(0)]);
        assert_eq!(plan.added_regions, vec![RegionId(1)]);
    }

    #[test]
    fn plan_routed_publisher_unchanged_when_home_stays() {
        let w = workload();
        // Routed: the publisher's closest region (R0) is in both sets, so
        // it keeps publishing to R0 only.
        let plan = ReconfigurationPlan::compute(
            &w,
            config(0b001, DeliveryMode::Routed),
            config(0b011, DeliveryMode::Routed),
        );
        assert!(plan.publisher_changes.is_empty());
        // But the subscriber near R1 moves.
        assert_eq!(plan.subscriber_moves.len(), 1);
    }

    #[test]
    fn plan_mode_change_resteers_publishers() {
        let w = workload();
        let plan = ReconfigurationPlan::compute(
            &w,
            config(0b011, DeliveryMode::Routed),
            config(0b011, DeliveryMode::Direct),
        );
        assert!(plan.mode_changed);
        assert_eq!(plan.publisher_changes, vec![ClientId(0)]);
        // Same regions → no subscriber moves.
        assert!(plan.subscriber_moves.is_empty());
        assert!(!plan.is_noop());
    }

    #[test]
    fn identical_configs_are_a_noop() {
        let w = workload();
        let c = config(0b011, DeliveryMode::Routed);
        let plan = ReconfigurationPlan::compute(&w, c, c);
        assert!(plan.is_noop());
        assert_eq!(plan.notified_clients(), 0);
    }
}
