//! Assignment vectors, delivery modes and configuration enumeration.
//!
//! The mapping of a topic to regions is a bit vector (paper §III.A2): bit
//! `i` is set iff region `i` serves the topic. Together with a delivery
//! mode this forms a *configuration*. With `N` regions there are
//! `2·(2^N − 1) − N` distinct configurations: every non-empty subset can use
//! direct or routed delivery, except single-region subsets where the two
//! modes coincide (paper §IV).

use crate::error::Error;
use crate::ids::RegionId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How publications reach the regions serving a topic (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Each publisher sends every publication to **all** serving regions
    /// itself (paper Fig. 1b). Two hops: publisher → region → subscriber.
    Direct,
    /// Each publisher sends to its **closest** serving region, which
    /// forwards to the other serving regions over (often faster)
    /// inter-cloud links (paper Fig. 1c). Up to three hops, plus
    /// inter-region egress cost `α`.
    Routed,
}

impl fmt::Display for DeliveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryMode::Direct => f.write_str("direct"),
            DeliveryMode::Routed => f.write_str("routed"),
        }
    }
}

/// Which delivery modes the optimizer may consider.
///
/// `DirectOnly` and `RoutedOnly` implement the paper's *MultiPub-D* and
/// *MultiPub-R* variants (experiment 2). Single-region assignments are
/// mode-less (no forwarding happens) and are admitted under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModePolicy {
    /// Consider both direct and routed delivery (standard MultiPub).
    Any,
    /// Only direct delivery (MultiPub-D).
    DirectOnly,
    /// Only routed delivery for multi-region assignments (MultiPub-R).
    RoutedOnly,
}

impl ModePolicy {
    /// Whether a configuration with the given mode and region count is
    /// admitted under this policy.
    pub fn admits(self, mode: DeliveryMode, n_regions: u32) -> bool {
        if n_regions <= 1 {
            // Single-region configurations have no forwarding step; they are
            // canonically represented as Direct and allowed everywhere.
            return mode == DeliveryMode::Direct;
        }
        match self {
            ModePolicy::Any => true,
            ModePolicy::DirectOnly => mode == DeliveryMode::Direct,
            ModePolicy::RoutedOnly => mode == DeliveryMode::Routed,
        }
    }
}

/// A non-empty set of regions serving a topic, as a bitmask over at most
/// 32 regions.
///
/// ```
/// use multipub_core::assignment::AssignmentVector;
/// use multipub_core::ids::RegionId;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let v = AssignmentVector::from_regions([RegionId(0), RegionId(4)], 10)?;
/// assert!(v.contains(RegionId(4)));
/// assert!(!v.contains(RegionId(1)));
/// assert_eq!(v.count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AssignmentVector(u32);

/// `region`'s bit, or `None` for an id no `u32` mask can hold. A bare
/// `1u32 << region.0` wraps the shift amount in release builds, which
/// would make `RegionId(32)` an alias of `RegionId(0)`.
pub(crate) fn bit(region: RegionId) -> Option<u32> {
    1u32.checked_shl(u32::from(region.0))
}

impl AssignmentVector {
    /// Builds an assignment from a raw bitmask.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAssignment`] if the mask is zero (a topic
    /// must be served by at least one region) or sets bits at or above
    /// `n_regions`.
    pub fn from_mask(mask: u32, n_regions: usize) -> Result<Self, Error> {
        let valid = if n_regions >= 32 { u32::MAX } else { (1u32 << n_regions) - 1 };
        if mask == 0 || mask & !valid != 0 {
            return Err(Error::InvalidAssignment { mask, n_regions });
        }
        Ok(AssignmentVector(mask))
    }

    /// Builds an assignment containing exactly the given regions.
    ///
    /// # Errors
    ///
    /// Same as [`AssignmentVector::from_mask`]; a region id of 32 or above
    /// is outside every region set.
    pub fn from_regions(
        regions: impl IntoIterator<Item = RegionId>,
        n_regions: usize,
    ) -> Result<Self, Error> {
        let mut mask = 0u32;
        for r in regions {
            mask |= bit(r).ok_or(Error::InvalidAssignment { mask, n_regions })?;
        }
        Self::from_mask(mask, n_regions)
    }

    /// The assignment using a single region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAssignment`] if the region is out of bounds.
    pub fn single(region: RegionId, n_regions: usize) -> Result<Self, Error> {
        Self::from_mask(bit(region).unwrap_or(0), n_regions)
    }

    /// The assignment using **all** `n_regions` regions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAssignment`] when `n_regions` is 0 and
    /// [`Error::RegionCount`] when it exceeds 32.
    pub fn all(n_regions: usize) -> Result<Self, Error> {
        if n_regions > crate::region::MAX_REGIONS {
            return Err(Error::RegionCount { got: n_regions });
        }
        if n_regions == 0 {
            return Err(Error::InvalidAssignment { mask: 0, n_regions });
        }
        let mask = if n_regions == 32 { u32::MAX } else { (1u32 << n_regions) - 1 };
        Ok(AssignmentVector(mask))
    }

    /// Raw bitmask, bit `i` ↔ region `i`.
    pub fn mask(self) -> u32 {
        self.0
    }

    /// Whether the given region serves the topic.
    pub fn contains(self, region: RegionId) -> bool {
        bit(region).is_some_and(|bit| self.0 & bit != 0)
    }

    /// Number of serving regions (`N_R` in the paper).
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns a copy with `region`'s bit set.
    ///
    /// # Panics
    ///
    /// Panics if `region` is `RegionId(32)` or above: no assignment can
    /// hold it, and returning one that lacks it (or aliases another
    /// region) would misplace the topic silently.
    pub fn with(self, region: RegionId) -> AssignmentVector {
        let Some(bit) = bit(region) else {
            // lint:allow(panic) callers pass ids of the model's own region set (at most 32); see `# Panics`
            panic!("region {region} does not fit a 32-region assignment");
        };
        AssignmentVector(self.0 | bit)
    }

    /// Returns a copy with `region`'s bit cleared, or `None` if that would
    /// leave the assignment empty.
    pub fn without(self, region: RegionId) -> Option<AssignmentVector> {
        let mask = self.0 & !bit(region).unwrap_or(0);
        if mask == 0 {
            None
        } else {
            Some(AssignmentVector(mask))
        }
    }

    /// Whether every region of `self` is also in `other`.
    pub fn is_subset_of(self, other: AssignmentVector) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the serving regions in increasing id order.
    pub fn iter(self) -> Regions {
        Regions { remaining: self.0 }
    }
}

impl fmt::Display for AssignmentVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the regions of an [`AssignmentVector`], in id order.
#[derive(Debug, Clone)]
pub struct Regions {
    remaining: u32,
}

impl Iterator for Regions {
    type Item = RegionId;

    fn next(&mut self) -> Option<RegionId> {
        if self.remaining == 0 {
            return None;
        }
        let bit = self.remaining.trailing_zeros();
        self.remaining &= self.remaining - 1;
        Some(RegionId(bit as u8))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Regions {}

/// A full configuration for a topic: serving regions plus delivery mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    assignment: AssignmentVector,
    mode: DeliveryMode,
}

impl Configuration {
    /// Creates a configuration. Single-region assignments are canonicalized
    /// to [`DeliveryMode::Direct`] since no forwarding takes place.
    pub fn new(assignment: AssignmentVector, mode: DeliveryMode) -> Self {
        let mode = if assignment.count() <= 1 { DeliveryMode::Direct } else { mode };
        Configuration { assignment, mode }
    }

    /// The serving regions.
    pub fn assignment(&self) -> AssignmentVector {
        self.assignment
    }

    /// The delivery mode.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Number of serving regions.
    pub fn region_count(&self) -> u32 {
        self.assignment.count()
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.assignment, self.mode)
    }
}

/// A monotonically-increasing per-topic configuration version.
///
/// Every committed reconfiguration of a topic advances its epoch by one;
/// brokers and clients reject configuration updates carrying an epoch
/// older than the one they hold, so a delayed or replayed update can
/// never roll a topic back to a retired placement. Epoch 0 is reserved
/// for the implicit bootstrap configuration (all regions, routed) that
/// exists before the controller ever places the topic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Epoch(u64);

impl Epoch {
    /// The pre-placement bootstrap epoch.
    pub const INITIAL: Epoch = Epoch(0);

    /// Wraps a raw epoch counter (e.g. one read off the wire).
    pub fn new(value: u64) -> Self {
        Epoch(value)
    }

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The epoch after this one.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// Whether an update carrying `incoming` supersedes state held at
    /// this epoch (strictly newer; equal epochs are idempotent replays).
    pub fn superseded_by(self, incoming: Epoch) -> bool {
        incoming > self
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A [`Configuration`] paired with the [`Epoch`] at which it was
/// committed.
///
/// [`Configuration`] itself stays epoch-free on purpose: the optimizer
/// compares candidate configurations by value (assignment + mode), and an
/// embedded version counter would make every freshly-enumerated candidate
/// unequal to the installed one. The controller tracks the pair instead
/// and only mints a new epoch when the configuration actually changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VersionedConfiguration {
    configuration: Configuration,
    epoch: Epoch,
}

impl VersionedConfiguration {
    /// Pairs a configuration with its commit epoch.
    pub fn new(configuration: Configuration, epoch: Epoch) -> Self {
        VersionedConfiguration { configuration, epoch }
    }

    /// The configuration.
    pub fn configuration(&self) -> Configuration {
        self.configuration
    }

    /// The epoch the configuration was committed at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The versioned successor: `configuration` committed at the next
    /// epoch after this one.
    pub fn succeeded_by(&self, configuration: Configuration) -> VersionedConfiguration {
        VersionedConfiguration { configuration, epoch: self.epoch.next() }
    }
}

impl fmt::Display for VersionedConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.configuration, self.epoch)
    }
}

/// Enumerates every configuration over a set of allowed regions under a
/// [`ModePolicy`].
///
/// The iteration order is: for each non-empty submask of `allowed` (in
/// increasing numeric order), the direct configuration (if admitted)
/// followed by the routed one (if admitted and multi-region).
///
/// ```
/// use multipub_core::assignment::{enumerate_configurations, ModePolicy, AssignmentVector};
/// # fn main() -> Result<(), multipub_core::Error> {
/// let all = AssignmentVector::all(3)?;
/// let configs: Vec<_> = enumerate_configurations(all, ModePolicy::Any).collect();
/// // 2·(2^3 − 1) − 3 = 11 configurations.
/// assert_eq!(configs.len(), 11);
/// # Ok(())
/// # }
/// ```
pub fn enumerate_configurations(
    allowed: AssignmentVector,
    policy: ModePolicy,
) -> ConfigurationIter {
    ConfigurationIter {
        allowed: allowed.mask(),
        current: 0,
        emit_routed_for: None,
        policy,
        done: false,
    }
}

/// Iterator produced by [`enumerate_configurations`].
#[derive(Debug, Clone)]
pub struct ConfigurationIter {
    allowed: u32,
    /// The submask most recently emitted (0 before the first).
    current: u32,
    /// Pending routed configuration for the given mask.
    emit_routed_for: Option<u32>,
    policy: ModePolicy,
    done: bool,
}

impl ConfigurationIter {
    /// Advances `current` to the next non-empty submask of `allowed` in
    /// increasing numeric order, returning it, or `None` when exhausted.
    fn next_submask(&mut self) -> Option<u32> {
        // Enumerate submasks in increasing order: ((current - allowed) & allowed)
        // yields the numerically next submask of `allowed` above `current`.
        if self.done {
            return None;
        }
        let next = self.current.wrapping_sub(self.allowed) & self.allowed;
        if next == 0 {
            // Wrapped around (only happens after emitting `allowed` itself).
            self.done = true;
            return None;
        }
        self.current = next;
        Some(next)
    }
}

impl Iterator for ConfigurationIter {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        loop {
            if let Some(mask) = self.emit_routed_for.take() {
                let assignment = AssignmentVector(mask);
                if self.policy.admits(DeliveryMode::Routed, assignment.count()) {
                    return Some(Configuration::new(assignment, DeliveryMode::Routed));
                }
                // Routed not admitted; fall through to the next submask.
            }
            let mask = self.next_submask()?;
            let assignment = AssignmentVector(mask);
            let n = assignment.count();
            if n >= 2 {
                self.emit_routed_for = Some(mask);
            }
            if self.policy.admits(DeliveryMode::Direct, n) {
                return Some(Configuration::new(assignment, DeliveryMode::Direct));
            }
            // Direct not admitted (RoutedOnly multi-region); loop to emit routed.
        }
    }
}

/// Number of configurations the optimizer must consider for `n` allowed
/// regions under [`ModePolicy::Any`]: `2·(2^n − 1) − n`.
pub fn configuration_count(n_regions: u32) -> u64 {
    2 * ((1u64 << n_regions) - 1) - n_regions as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_mask_validates() {
        assert!(AssignmentVector::from_mask(0, 4).is_err());
        assert!(AssignmentVector::from_mask(0b10000, 4).is_err());
        assert!(AssignmentVector::from_mask(0b1010, 4).is_ok());
    }

    #[test]
    fn all_and_single() {
        let all = AssignmentVector::all(10).unwrap();
        assert_eq!(all.count(), 10);
        let one = AssignmentVector::single(RegionId(9), 10).unwrap();
        assert_eq!(one.count(), 1);
        assert!(one.is_subset_of(all));
        assert!(AssignmentVector::single(RegionId(10), 10).is_err());
    }

    #[test]
    fn all_32_regions() {
        let all = AssignmentVector::all(32).unwrap();
        assert_eq!(all.count(), 32);
        assert_eq!(all.mask(), u32::MAX);
    }

    #[test]
    fn with_and_without() {
        let v = AssignmentVector::single(RegionId(1), 4).unwrap();
        let v2 = v.with(RegionId(3));
        assert_eq!(v2.count(), 2);
        assert_eq!(v2.without(RegionId(3)), Some(v));
        assert_eq!(v.without(RegionId(1)), None);
    }

    #[test]
    fn regions_no_mask_can_hold_never_alias_a_real_one() {
        // A bare `1u32 << 32` wraps the shift amount in release builds (R32 ≡ R0).
        for id in [32, 33, 255] {
            let region = RegionId(id);
            assert!(AssignmentVector::single(region, 10).is_err(), "single({region})");
            assert!(AssignmentVector::single(region, 32).is_err(), "single({region}) of 32");
            assert!(AssignmentVector::from_regions([region], 10).is_err());
            assert!(AssignmentVector::from_regions([RegionId(1), region], 10).is_err());
            let all = AssignmentVector::all(32).unwrap();
            assert!(!all.contains(region), "contains({region})");
            assert_eq!(all.without(region), Some(all));
        }
    }

    #[test]
    #[should_panic(expected = "R32")]
    fn with_names_the_region_it_cannot_hold() {
        let _ = AssignmentVector::all(10).unwrap().with(RegionId(32));
    }

    #[test]
    fn iter_in_order() {
        let v = AssignmentVector::from_mask(0b1011, 4).unwrap();
        let ids: Vec<_> = v.iter().collect();
        assert_eq!(ids, vec![RegionId(0), RegionId(1), RegionId(3)]);
        assert_eq!(v.iter().len(), 3);
    }

    #[test]
    fn display_formats() {
        let v = AssignmentVector::from_mask(0b101, 3).unwrap();
        assert_eq!(v.to_string(), "{R0,R2}");
        let c = Configuration::new(v, DeliveryMode::Routed);
        assert_eq!(c.to_string(), "{R0,R2} routed");
    }

    #[test]
    fn single_region_config_is_canonically_direct() {
        let v = AssignmentVector::single(RegionId(0), 2).unwrap();
        let c = Configuration::new(v, DeliveryMode::Routed);
        assert_eq!(c.mode(), DeliveryMode::Direct);
    }

    #[test]
    fn enumeration_count_matches_formula() {
        for n in 1..=10u32 {
            let allowed = AssignmentVector::all(n as usize).unwrap();
            let count = enumerate_configurations(allowed, ModePolicy::Any).count() as u64;
            assert_eq!(count, configuration_count(n), "n = {n}");
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        use std::collections::HashSet;
        let allowed = AssignmentVector::all(6).unwrap();
        let configs: Vec<_> = enumerate_configurations(allowed, ModePolicy::Any).collect();
        let set: HashSet<_> = configs.iter().collect();
        assert_eq!(set.len(), configs.len());
    }

    #[test]
    fn enumeration_respects_allowed_mask() {
        let allowed = AssignmentVector::from_mask(0b101, 3).unwrap();
        for c in enumerate_configurations(allowed, ModePolicy::Any) {
            assert!(c.assignment().is_subset_of(allowed));
        }
        let count = enumerate_configurations(allowed, ModePolicy::Any).count();
        // Submasks of {R0,R2}: {R0}, {R2}, {R0,R2}×2 modes = 4.
        assert_eq!(count, 4);
    }

    #[test]
    fn direct_only_policy() {
        let allowed = AssignmentVector::all(3).unwrap();
        let configs: Vec<_> = enumerate_configurations(allowed, ModePolicy::DirectOnly).collect();
        assert!(configs.iter().all(|c| c.mode() == DeliveryMode::Direct));
        // Every non-empty subset once: 2^3 − 1 = 7.
        assert_eq!(configs.len(), 7);
    }

    #[test]
    fn routed_only_policy() {
        let allowed = AssignmentVector::all(3).unwrap();
        let configs: Vec<_> = enumerate_configurations(allowed, ModePolicy::RoutedOnly).collect();
        // Multi-region subsets routed (4) + single regions (3) = 7.
        assert_eq!(configs.len(), 7);
        for c in &configs {
            if c.region_count() >= 2 {
                assert_eq!(c.mode(), DeliveryMode::Routed);
            } else {
                assert_eq!(c.mode(), DeliveryMode::Direct);
            }
        }
    }

    #[test]
    fn single_allowed_region() {
        let allowed = AssignmentVector::single(RegionId(2), 5).unwrap();
        let configs: Vec<_> = enumerate_configurations(allowed, ModePolicy::Any).collect();
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].region_count(), 1);
    }

    #[test]
    fn count_formula_examples() {
        assert_eq!(configuration_count(1), 1);
        assert_eq!(configuration_count(2), 4);
        assert_eq!(configuration_count(10), 2036);
    }

    #[test]
    fn epoch_ordering_and_succession() {
        let e0 = Epoch::INITIAL;
        let e1 = e0.next();
        assert_eq!(e0.get(), 0);
        assert_eq!(e1.get(), 1);
        assert!(e0 < e1);
        assert!(e0.superseded_by(e1));
        assert!(!e1.superseded_by(e1), "equal epochs are idempotent replays, not supersessions");
        assert!(!e1.superseded_by(e0), "a stale epoch never supersedes");
        assert_eq!(Epoch::new(7).to_string(), "e7");
    }

    #[test]
    fn versioned_configuration_mints_monotonic_epochs() {
        let a = Configuration::new(
            AssignmentVector::single(RegionId(0), 2).unwrap(),
            DeliveryMode::Direct,
        );
        let b =
            Configuration::new(AssignmentVector::from_mask(0b11, 2).unwrap(), DeliveryMode::Routed);
        let v1 = VersionedConfiguration::new(a, Epoch::INITIAL.next());
        let v2 = v1.succeeded_by(b);
        assert_eq!(v1.epoch().get(), 1);
        assert_eq!(v2.epoch().get(), 2);
        assert_eq!(v2.configuration(), b);
        // The configuration itself stays epoch-free: candidates compare
        // equal to the installed value regardless of version history.
        assert_eq!(v2.configuration(), Configuration::new(b.assignment(), b.mode()));
        assert_eq!(v2.to_string(), "{R0,R1} routed@e2");
    }
}
