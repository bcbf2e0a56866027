//! Deterministic fault injection for the discrete-event simulator.
//!
//! A [`FaultPlan`] describes *what* goes wrong during a run. Every shape
//! but the loss rate is active over a half-open window `[start_ms, end_ms)`
//! of simulated time, so "is this fault active at `t`" has one definition:
//!
//! * a uniform per-hop **packet-loss rate**, decided by each hop's own
//!   keyed draw, so loss patterns are reproducible and independent of
//!   every other draw;
//! * **region-outage windows** ([`RegionOutage`]) — while a region is
//!   down, every message copy arriving at its broker is dropped, exactly
//!   as if the process had been killed;
//! * **link-degradation events** ([`LinkDegradation`]) — extra one-way
//!   latency on a directed inter-region link, modelling WAN brownouts;
//! * **subscriber stalls** ([`SubscriberStall`]) — a subscriber stops
//!   reading and its deliveries queue behind the stall, landing at the
//!   window's end: the simulated counterpart of the broker's bounded
//!   outbound queue holding frames for a slow consumer;
//! * **publish bursts** ([`PublishBurst`]) — every publication emitted
//!   inside the window is multiplied, modelling a load spike (e.g. a 10×
//!   flash crowd) against the broker's admission-control layer;
//! * **duplicate-delivery windows** ([`DuplicateDelivery`]) — every
//!   delivery scheduled inside the window is fanned out in multiple
//!   copies, modelling an at-least-once redelivery storm against
//!   subscriber-side dedup;
//! * **reorder windows** ([`ReorderWindow`]) — deliveries scheduled
//!   inside the window pick up an extra uniform delay from their own keyed
//!   draw, shuffling arrival order without losing anything.
//!
//! The two shapes that sample, loss and reorder, take the draw as a
//! closure and call it only when they are active, so the default quiet
//! plan draws nothing and a fault-free run is bit for bit what it is
//! without fault injection. Each draw is keyed by the copy it decides
//! ([`multipub_core::draw`]), in a stream of its own, so adding a reorder
//! window never changes *which* copies are lost, and a topic's draws depend
//! on its own copies alone. A broker arrival reads the delivery windows
//! once ([`FaultPlan`]'s `deliveries_at`), whatever number of copies it
//! sends.

use crate::time::SimTime;
use multipub_core::draw::{unit, COPIES};
use multipub_core::ids::{ClientId, RegionId};

/// A half-open window `[start_ms, end_ms)` of simulated time: when a
/// fault is active. Every windowed fault shape embeds one, so the bounds
/// check and the activity test each exist once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    start_ms: f64,
    end_ms: f64,
}

impl Window {
    /// Creates the window `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, negative, or out of order.
    fn new(start_ms: f64, end_ms: f64) -> Self {
        assert!(
            start_ms.is_finite() && end_ms.is_finite() && 0.0 <= start_ms && start_ms < end_ms,
            "fault window must satisfy 0 <= start < end"
        );
        Window { start_ms, end_ms }
    }

    /// Whether simulated time `at` falls inside the window.
    fn contains(&self, at: SimTime) -> bool {
        self.start_ms <= at.as_ms() && at.as_ms() < self.end_ms
    }
}

/// A scheduled full outage of one region's broker.
///
/// Message copies *arriving* at the region inside the window are dropped;
/// copies already past the region are unaffected (they left before the
/// crash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionOutage {
    region: RegionId,
    window: Window,
}

impl RegionOutage {
    /// Creates an outage of `region` over `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the window bounds are not finite, negative, or out of
    /// order.
    pub fn new(region: RegionId, start_ms: f64, end_ms: f64) -> Self {
        RegionOutage { region, window: Window::new(start_ms, end_ms) }
    }

    /// The affected region.
    pub(crate) fn region(&self) -> RegionId {
        self.region
    }
}

/// Extra one-way latency on the directed inter-region link `from -> to`
/// — a WAN brownout rather than a hard failure. The degradation is
/// applied to forwards whose *departure* time falls inside the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    from: RegionId,
    to: RegionId,
    window: Window,
    extra_ms: f64,
}

impl LinkDegradation {
    /// Creates a degradation of `extra_ms` on the link `from -> to` over
    /// `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the window bounds are not finite, negative, or out of
    /// order, or if `extra_ms` is not finite and non-negative.
    pub fn new(from: RegionId, to: RegionId, start_ms: f64, end_ms: f64, extra_ms: f64) -> Self {
        assert!(extra_ms.is_finite() && extra_ms >= 0.0, "extra latency must be non-negative");
        LinkDegradation { from, to, window: Window::new(start_ms, end_ms), extra_ms }
    }

    /// Source region of the degraded link.
    pub(crate) fn from(&self) -> RegionId {
        self.from
    }

    /// Destination region of the degraded link.
    pub(crate) fn to(&self) -> RegionId {
        self.to
    }
}

/// A subscriber that stops reading during the window — the simulated
/// slow consumer. Deliveries whose arrival time falls inside the window
/// are not lost; they queue behind the stall and land at its end, exactly
/// like frames waiting in a bounded outbound queue until the consumer
/// resumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriberStall {
    client: ClientId,
    window: Window,
}

impl SubscriberStall {
    /// Creates a stall of `client` over `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the window bounds are not finite, negative, or out of
    /// order.
    pub fn new(client: ClientId, start_ms: f64, end_ms: f64) -> Self {
        SubscriberStall { client, window: Window::new(start_ms, end_ms) }
    }
}

/// A publish-rate spike: every publication emitted inside the window is
/// multiplied by `multiplier` — a 10× burst schedules ten copies of each
/// in-window publication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishBurst {
    multiplier: u64,
    window: Window,
}

impl PublishBurst {
    /// Creates a burst of `multiplier`× over `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is zero or the window bounds are invalid
    /// (not finite, negative, or out of order).
    pub fn new(multiplier: u64, start_ms: f64, end_ms: f64) -> Self {
        assert!(multiplier >= 1, "burst multiplier must be at least 1");
        PublishBurst { multiplier, window: Window::new(start_ms, end_ms) }
    }
}

/// A duplicate-delivery window: every delivery scheduled inside it is
/// fanned out as `copies` independent copies — the simulated analogue of
/// an at-least-once redelivery storm (broker retransmits, mesh
/// double-paths) that subscriber-side dedup must absorb. Each copy is
/// billed, lost and delayed independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateDelivery {
    copies: u64,
    window: Window,
}

impl DuplicateDelivery {
    /// Creates a window fanning each delivery into `copies` copies over
    /// `[start_ms, end_ms)` (`copies == 1` is a no-op).
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero or the window bounds are invalid (not
    /// finite, negative, or out of order).
    pub fn new(copies: u64, start_ms: f64, end_ms: f64) -> Self {
        assert!(copies >= 1, "duplicate copies must be at least 1");
        DuplicateDelivery { copies, window: Window::new(start_ms, end_ms) }
    }

    /// Copies per delivery while active.
    pub fn copies(&self) -> u64 {
        self.copies
    }
}

/// A reorder window: deliveries scheduled inside it pick up an extra
/// uniform delay in `[0, span_ms)`, each copy from its own keyed draw.
/// Arrival *order* is shuffled; nothing is lost — the simulated
/// counterpart of retransmit-induced reordering that sequence-number
/// discipline must tolerate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderWindow {
    span_ms: f64,
    window: Window,
}

impl ReorderWindow {
    /// Creates a reorder window of up to `span_ms` extra delay over
    /// `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if `span_ms` is not finite and positive, or the window
    /// bounds are invalid (not finite, negative, or out of order).
    pub fn new(span_ms: f64, start_ms: f64, end_ms: f64) -> Self {
        assert!(span_ms.is_finite() && span_ms > 0.0, "reorder span must be positive");
        ReorderWindow { span_ms, window: Window::new(start_ms, end_ms) }
    }
}

/// A complete fault schedule for one simulation run.
///
/// The default plan is quiet: no loss, no outages, no degradations, no
/// stalls, no bursts, no duplicates, no reordering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The loss rate times 2^53, rounded up: a hop is lost exactly when its
    /// draw's top 53 bits are below it, that is when `unit(draw) < rate`.
    loss_below: u64,
    outages: Vec<RegionOutage>,
    degradations: Vec<LinkDegradation>,
    stalls: Vec<SubscriberStall>,
    bursts: Vec<PublishBurst>,
    duplicates: Vec<DuplicateDelivery>,
    reorders: Vec<ReorderWindow>,
}

impl FaultPlan {
    /// The quiet plan: nothing fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets a uniform per-hop packet-loss probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be within [0, 1]");
        self.loss_below = (rate * (1u64 << 53) as f64).ceil() as u64;
        self
    }

    /// Adds a region-outage window.
    pub fn with_outage(mut self, outage: RegionOutage) -> Self {
        self.outages.push(outage);
        self
    }

    /// Adds a link-degradation event.
    pub fn with_degradation(mut self, degradation: LinkDegradation) -> Self {
        self.degradations.push(degradation);
        self
    }

    /// Adds a subscriber-stall window.
    pub fn with_stall(mut self, stall: SubscriberStall) -> Self {
        self.stalls.push(stall);
        self
    }

    /// Adds a publish-burst window.
    pub fn with_burst(mut self, burst: PublishBurst) -> Self {
        self.bursts.push(burst);
        self
    }

    /// Adds a duplicate-delivery window.
    pub fn with_duplicate(mut self, duplicate: DuplicateDelivery) -> Self {
        self.duplicates.push(duplicate);
        self
    }

    /// Adds a reorder window.
    pub fn with_reorder(mut self, reorder: ReorderWindow) -> Self {
        self.reorders.push(reorder);
        self
    }

    /// The scheduled outages.
    pub(crate) fn outages(&self) -> &[RegionOutage] {
        &self.outages
    }

    /// The scheduled degradations.
    pub(crate) fn degradations(&self) -> &[LinkDegradation] {
        &self.degradations
    }

    /// The scheduled duplicate-delivery windows.
    pub fn duplicates(&self) -> &[DuplicateDelivery] {
        &self.duplicates
    }

    /// `true` when the plan schedules nothing at all.
    pub fn is_quiet(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Whether a hop whose loss draw `draw` returns drops its packet.
    /// Calls `draw` only when the loss rate is positive.
    pub(crate) fn drops(&self, draw: impl FnOnce() -> u64) -> bool {
        self.loss_below > 0 && draw() >> 11 < self.loss_below
    }

    /// Whether `region` is inside any outage window at time `at`.
    pub(crate) fn region_down(&self, region: RegionId, at: SimTime) -> bool {
        self.outages.iter().any(|o| o.region == region && o.window.contains(at))
    }

    /// Total extra latency active on the directed link `from -> to` at
    /// time `at` (overlapping degradations add up).
    pub(crate) fn extra_link_ms(&self, from: RegionId, to: RegionId, at: SimTime) -> f64 {
        self.degradations
            .iter()
            .filter(|d| d.from == from && d.to == to && d.window.contains(at))
            .map(|d| d.extra_ms)
            .sum()
    }

    /// When a delivery arriving at `client` at time `at` actually lands:
    /// inside a stall window it queues until the window's end (the latest
    /// end among overlapping stalls), otherwise it lands immediately. A
    /// release that falls inside a later stall of the same client queues
    /// again, so the landing time is outside every one of its windows.
    pub(crate) fn stall_release(&self, client: ClientId, at: SimTime) -> SimTime {
        let mut lands = at;
        // Each round moves to a strictly later window end (`contains` is
        // half-open), and there are finitely many windows.
        loop {
            let release = self
                .stalls
                .iter()
                .filter(|s| s.client == client && s.window.contains(lands))
                .map(|s| s.window.end_ms)
                .fold(lands.as_ms(), f64::max);
            if release == lands.as_ms() {
                return lands;
            }
            lands = SimTime::from_ms(release);
        }
    }

    /// How many copies of a publication emitted at `at` are scheduled:
    /// the product of all active burst multipliers, at least 1.
    pub(crate) fn burst_multiplier(&self, at: SimTime) -> u64 {
        self.bursts
            .iter()
            .filter(|b| b.window.contains(at))
            .map(|b| b.multiplier)
            .fold(1u64, u64::saturating_mul)
    }

    /// How many copies of a delivery scheduled at `at` are fanned out:
    /// the product of all active duplicate windows, at least 1.
    pub(crate) fn duplicate_copies(&self, at: SimTime) -> u64 {
        self.duplicates
            .iter()
            .filter(|d| d.window.contains(at))
            .map(|d| d.copies)
            .fold(1u64, u64::saturating_mul)
    }

    /// What the plan does to the deliveries a broker sends at `at`, read
    /// once per arrival: each window list is scanned once, however many
    /// copies the arrival sends. Panics, before any copy is billed, if the
    /// duplicate windows fan a delivery into more than [`COPIES`] copies,
    /// the most an arrival's draw key tells apart.
    pub(crate) fn deliveries_at(&self, at: SimTime) -> DeliveryFaults {
        let (copies, reorder_span_ms) = (self.duplicate_copies(at), self.reorder_span_ms(at));
        assert!(copies <= COPIES, "{copies} copies of one delivery");
        DeliveryFaults { copies, reorder_span_ms }
    }

    /// The maximum extra reorder delay for a delivery scheduled at `at`:
    /// the sum of all active reorder-window spans, 0 outside every
    /// window.
    fn reorder_span_ms(&self, at: SimTime) -> f64 {
        self.reorders.iter().filter(|r| r.window.contains(at)).map(|r| r.span_ms).sum()
    }
}

/// What a [`FaultPlan`] does to the deliveries sent at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeliveryFaults {
    /// How many copies of each delivery are sent.
    pub(crate) copies: u64,
    /// The active reorder-window total, 0 outside every window.
    pub(crate) reorder_span_ms: f64,
}

impl DeliveryFaults {
    /// Extra delay for a copy whose reorder draw `draw` returns: a uniform
    /// value in `[0, reorder_span_ms)`. Calls `draw` only when a reorder
    /// window is active.
    pub(crate) fn reorder_extra_ms(&self, draw: impl FnOnce() -> u64) -> f64 {
        if self.reorder_span_ms <= 0.0 {
            return 0.0;
        }
        unit(draw()) * self.reorder_span_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipub_core::draw::Key;

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_quiet());
        assert!(!plan.region_down(RegionId(0), SimTime::from_ms(100.0)));
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), SimTime::from_ms(100.0)), 0.0);
        assert!(!plan.drops(|| unreachable!("a quiet plan draws nothing")));
        let delivery = plan.deliveries_at(SimTime::from_ms(100.0));
        assert_eq!(delivery.reorder_extra_ms(|| unreachable!("nor delays anything")), 0.0);
    }

    #[test]
    fn window_is_half_open_at_both_ends() {
        let window = Window::new(300.0, 700.0);
        assert!(!window.contains(SimTime::from_ms(299.9)));
        assert!(window.contains(SimTime::from_ms(300.0)));
        assert!(window.contains(SimTime::from_ms(699.9)));
        assert!(!window.contains(SimTime::from_ms(700.0)));
        assert!(Window::new(0.0, 1.0).contains(SimTime::ZERO), "a window may open at time zero");
    }

    #[test]
    fn window_rejects_inverted_negative_and_non_finite_bounds() {
        for (start_ms, end_ms) in [
            (700.0, 300.0),
            (5.0, 5.0),
            (-1.0, 10.0),
            (0.0, f64::INFINITY),
            (f64::NAN, 10.0),
            (0.0, f64::NAN),
        ] {
            let outcome = std::panic::catch_unwind(|| Window::new(start_ms, end_ms));
            assert!(outcome.is_err(), "[{start_ms}, {end_ms}) accepted");
        }
    }

    #[test]
    fn every_shape_takes_its_bounds_through_window() {
        // Inverted bounds: each constructor must hit `Window::new`'s assert
        // (the shape's own argument is valid).
        let shapes: [fn() -> Window; 6] = [
            || RegionOutage::new(RegionId(0), 700.0, 300.0).window,
            || LinkDegradation::new(RegionId(0), RegionId(1), 700.0, 300.0, 1.0).window,
            || SubscriberStall::new(ClientId(0), 700.0, 300.0).window,
            || PublishBurst::new(2, 700.0, 300.0).window,
            || DuplicateDelivery::new(2, 700.0, 300.0).window,
            || ReorderWindow::new(1.0, 700.0, 300.0).window,
        ];
        for (shape, build) in shapes.into_iter().enumerate() {
            let panic = std::panic::catch_unwind(build).expect_err("inverted bounds accepted");
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "fault window must satisfy 0 <= start < end", "shape {shape}");
        }
    }

    #[test]
    fn outages_hit_only_their_own_region() {
        let plan = FaultPlan::none().with_outage(RegionOutage::new(RegionId(1), 300.0, 700.0));
        assert!(!plan.is_quiet());
        let at = SimTime::from_ms;
        assert!(plan.region_down(RegionId(1), at(500.0)));
        assert!(!plan.region_down(RegionId(0), at(500.0)));
        assert!(!plan.region_down(RegionId(1), at(250.0)));
        assert!(plan.region_down(RegionId(1), at(300.0)), "a window includes its start");
        assert!(!plan.region_down(RegionId(1), at(700.0)), "and excludes its end");
    }

    #[test]
    fn degradations_are_directed_and_additive() {
        let plan = FaultPlan::none()
            .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 500.0, 30.0))
            .with_degradation(LinkDegradation::new(RegionId(0), RegionId(1), 400.0, 600.0, 20.0));
        let at = |ms| SimTime::from_ms(ms);
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), at(100.0)), 30.0);
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), at(450.0)), 50.0);
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), at(550.0)), 20.0);
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), at(600.0)), 0.0);
        // The reverse direction is untouched.
        assert_eq!(plan.extra_link_ms(RegionId(1), RegionId(0), at(100.0)), 0.0);
    }

    #[test]
    fn loss_sampling_is_deterministic_per_seed() {
        let plan = FaultPlan::none().with_loss_rate(0.5);
        let draws = |seed: u64| {
            let key = Key::new(seed);
            (0..64).map(|i| plan.drops(|| key.at(i))).collect::<Vec<bool>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        assert!(draws(3).iter().any(|&d| d), "rate 0.5 should drop something in 64 draws");
        assert!(!draws(3).iter().all(|&d| d), "rate 0.5 should pass something in 64 draws");
    }

    #[test]
    fn full_loss_drops_everything() {
        let plan = FaultPlan::none().with_loss_rate(1.0);
        let key = Key::new(0);
        assert!(plan.drops(|| u64::MAX), "the largest draw is still below 1");
        for i in 0..32 {
            assert!(plan.drops(|| key.at(i)));
        }
    }

    #[test]
    #[should_panic(expected = "loss rate must be within [0, 1]")]
    fn loss_rate_out_of_range_rejected() {
        let _ = FaultPlan::none().with_loss_rate(1.5);
    }

    #[test]
    #[should_panic(expected = "extra latency must be non-negative")]
    fn negative_degradation_rejected() {
        let _ = LinkDegradation::new(RegionId(0), RegionId(1), 0.0, 100.0, -1.0);
    }

    #[test]
    fn stall_defers_in_window_arrivals_only() {
        let plan = FaultPlan::none().with_stall(SubscriberStall::new(ClientId(7), 100.0, 400.0));
        assert!(!plan.is_quiet());
        let release = |ms| plan.stall_release(ClientId(7), SimTime::from_ms(ms)).as_ms();
        assert_eq!(release(99.9), 99.9); // before the stall
        assert_eq!(release(100.0), 400.0); // queued at stall start
        assert_eq!(release(399.9), 400.0); // queued just before release
        assert_eq!(release(400.0), 400.0); // window end is exclusive

        // Other subscribers are unaffected.
        assert_eq!(plan.stall_release(ClientId(8), SimTime::from_ms(200.0)).as_ms(), 200.0);
    }

    #[test]
    fn overlapping_stalls_release_at_the_latest_end() {
        let plan = FaultPlan::none()
            .with_stall(SubscriberStall::new(ClientId(7), 100.0, 400.0))
            .with_stall(SubscriberStall::new(ClientId(7), 200.0, 600.0));
        assert_eq!(plan.stall_release(ClientId(7), SimTime::from_ms(250.0)).as_ms(), 600.0);
        // Released from the first window at 400, inside the second: queues on.
        assert_eq!(plan.stall_release(ClientId(7), SimTime::from_ms(150.0)).as_ms(), 600.0);
        assert_eq!(plan.stall_release(ClientId(7), SimTime::from_ms(600.0)).as_ms(), 600.0);
    }

    #[test]
    fn chained_stalls_release_after_the_last_window() {
        // Regression: only the windows containing the arrival were looked
        // at, so an arrival at 100 was released at 400 — inside [300, 800).
        let plan = FaultPlan::none()
            .with_stall(SubscriberStall::new(ClientId(7), 0.0, 400.0))
            .with_stall(SubscriberStall::new(ClientId(7), 300.0, 800.0))
            .with_stall(SubscriberStall::new(ClientId(7), 800.0, 900.0))
            .with_stall(SubscriberStall::new(ClientId(7), 950.0, 1000.0))
            .with_stall(SubscriberStall::new(ClientId(8), 900.0, 2000.0));
        let release = |ms| plan.stall_release(ClientId(7), SimTime::from_ms(ms)).as_ms();
        // [0, 400) → [300, 800) → [800, 900): back to back counts as chained.
        assert_eq!(release(100.0), 900.0);
        assert_eq!(release(350.0), 900.0);
        assert_eq!(release(900.0), 900.0);
        assert_eq!(release(920.0), 920.0); // the gap before [950, 1000)
        assert_eq!(release(960.0), 1000.0);
    }

    #[test]
    fn burst_multiplier_is_windowed_and_multiplicative() {
        let plan = FaultPlan::none()
            .with_burst(PublishBurst::new(10, 100.0, 400.0))
            .with_burst(PublishBurst::new(2, 300.0, 500.0));
        assert!(!plan.is_quiet());
        let at = |ms| plan.burst_multiplier(SimTime::from_ms(ms));
        assert_eq!(at(50.0), 1);
        assert_eq!(at(100.0), 10);
        assert_eq!(at(350.0), 20); // overlap multiplies
        assert_eq!(at(450.0), 2);
        assert_eq!(at(500.0), 1);
    }

    #[test]
    #[should_panic(expected = "burst multiplier must be at least 1")]
    fn zero_burst_multiplier_rejected() {
        let _ = PublishBurst::new(0, 0.0, 100.0);
    }

    #[test]
    fn duplicate_copies_are_windowed_and_multiplicative() {
        let plan = FaultPlan::none()
            .with_duplicate(DuplicateDelivery::new(3, 100.0, 400.0))
            .with_duplicate(DuplicateDelivery::new(2, 300.0, 500.0));
        assert!(!plan.is_quiet());
        let at = |ms| plan.duplicate_copies(SimTime::from_ms(ms));
        assert_eq!(at(50.0), 1);
        assert_eq!(at(100.0), 3);
        assert_eq!(at(350.0), 6); // overlap multiplies
        assert_eq!(at(450.0), 2);
        assert_eq!(at(500.0), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate copies must be at least 1")]
    fn zero_duplicate_copies_rejected() {
        let _ = DuplicateDelivery::new(0, 0.0, 100.0);
    }

    #[test]
    fn reorder_span_is_windowed_and_additive() {
        let plan = FaultPlan::none()
            .with_reorder(ReorderWindow::new(20.0, 100.0, 400.0))
            .with_reorder(ReorderWindow::new(5.0, 300.0, 500.0));
        assert!(!plan.is_quiet());
        let at = |ms| plan.reorder_span_ms(SimTime::from_ms(ms));
        assert_eq!(at(50.0), 0.0);
        assert_eq!(at(100.0), 20.0);
        assert_eq!(at(350.0), 25.0); // overlap adds
        assert_eq!(at(450.0), 5.0);
        assert_eq!(at(500.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "reorder span must be positive")]
    fn nonpositive_reorder_span_rejected() {
        let _ = ReorderWindow::new(0.0, 0.0, 100.0);
    }

    #[test]
    fn reorder_draws_are_seeded_bounded_and_quiet_outside_windows() {
        let plan = FaultPlan::none().with_reorder(ReorderWindow::new(20.0, 100.0, 400.0));
        let draws = |seed: u64| {
            let key = Key::new(seed);
            let at = |ms| plan.deliveries_at(SimTime::from_ms(ms));
            // Outside a window: no draw at all, zero delay.
            assert_eq!(at(50.0).reorder_extra_ms(|| unreachable!("no window, no draw")), 0.0);
            (0..32).map(|i| at(200.0).reorder_extra_ms(|| key.at(i))).collect::<Vec<_>>()
        };
        let a = draws(9);
        assert_eq!(a, draws(9), "reorder draws must be reproducible per seed");
        assert_ne!(a, draws(10));
        assert!(a.iter().all(|&d| (0.0..20.0).contains(&d)), "delays must stay within the span");
    }

    #[test]
    fn reorder_stream_does_not_disturb_loss_stream() {
        // Same draws, same loss rate; the reorder window must leave every
        // loss decision as it was, whatever reorder draws come between.
        let loss_only = FaultPlan::none().with_loss_rate(0.5);
        let with_reorder = loss_only.clone().with_reorder(ReorderWindow::new(10.0, 0.0, 1000.0));
        let key = Key::new(3);
        let reorder = with_reorder.deliveries_at(SimTime::from_ms(500.0));
        for i in 0..64 {
            // Interleave reorder draws on one side only.
            if i % 2 == 0 {
                assert!((0.0..10.0).contains(&reorder.reorder_extra_ms(|| key.at(i))));
            }
            let (a, b) = (loss_only.drops(|| key.at(i)), with_reorder.drops(|| key.at(i)));
            assert_eq!(a, b, "loss draw {i} diverged");
        }
    }
}
