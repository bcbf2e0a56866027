//! Deterministic fault injection for the discrete-event simulator.
//!
//! A [`FaultPlan`] describes *what* goes wrong during a run. Every shape
//! but the loss rate is active over a half-open [`Window`] of simulated
//! time, so "is this fault active at `t`" has one definition:
//!
//! * a uniform per-hop **packet-loss rate**, sampled from a dedicated
//!   seeded RNG so loss patterns are reproducible and independent of the
//!   jitter stream;
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
//!   inside the window pick up an extra seeded uniform delay, shuffling
//!   arrival order without losing anything;
//! * **reconnect storms** ([`ReconnectStorm`]) — a *schedule only*: the
//!   window over which one region's client population is disconnected,
//!   before it mass-reconnects at the window's end. The engine does not
//!   act on it; `crates/broker/tests/reconnect_storm.rs` drives the
//!   session layer's jittered backoff against it.
//!
//! The engine asks the plan about the draw-free shapes directly and goes
//! through a [`FaultInjector`] (plan + two `StdRng` streams) for the two
//! that sample: loss and reorder. With the default quiet plan no RNG
//! draws happen at all, so a fault-free run is bit for bit what it is
//! without fault injection. Loss and reorder delays each have their own
//! stream, both decorrelated from the jitter stream, so adding a reorder
//! window never changes *which* messages the loss stream drops.

use crate::time::SimTime;
use multipub_core::ids::{ClientId, RegionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A half-open window `[start_ms, end_ms)` of simulated time: when a
/// fault is active. Every windowed fault shape embeds one, so the bounds
/// check and the activity test each exist once.
///
/// ```
/// use multipub_netsim::faults::Window;
/// use multipub_netsim::time::SimTime;
///
/// let window = Window::new(300.0, 700.0);
/// assert!(!window.contains(SimTime::from_ms(299.9)));
/// assert!(window.contains(SimTime::from_ms(300.0)));
/// assert!(window.contains(SimTime::from_ms(699.9)));
/// assert!(!window.contains(SimTime::from_ms(700.0)));
/// assert_eq!((window.start_ms(), window.end_ms()), (300.0, 700.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    start_ms: f64,
    end_ms: f64,
}

impl Window {
    /// Creates the window `[start_ms, end_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, negative, or out of order.
    pub fn new(start_ms: f64, end_ms: f64) -> Self {
        assert!(
            start_ms.is_finite() && end_ms.is_finite() && 0.0 <= start_ms && start_ms < end_ms,
            "fault window must satisfy 0 <= start < end"
        );
        Window { start_ms, end_ms }
    }

    /// Window start (inclusive), in milliseconds.
    pub fn start_ms(&self) -> f64 {
        self.start_ms
    }

    /// Window end (exclusive), in milliseconds.
    pub fn end_ms(&self) -> f64 {
        self.end_ms
    }

    /// Whether simulated time `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
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
    /// Panics if the window bounds are invalid (see [`Window::new`]).
    pub fn new(region: RegionId, start_ms: f64, end_ms: f64) -> Self {
        RegionOutage { region, window: Window::new(start_ms, end_ms) }
    }

    /// The affected region.
    pub fn region(&self) -> RegionId {
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
    /// Panics if the window bounds are invalid (see [`Window::new`]) or
    /// `extra_ms` is not finite and non-negative.
    pub fn new(from: RegionId, to: RegionId, start_ms: f64, end_ms: f64, extra_ms: f64) -> Self {
        assert!(extra_ms.is_finite() && extra_ms >= 0.0, "extra latency must be non-negative");
        LinkDegradation { from, to, window: Window::new(start_ms, end_ms), extra_ms }
    }

    /// Source region of the degraded link.
    pub fn from(&self) -> RegionId {
        self.from
    }

    /// Destination region of the degraded link.
    pub fn to(&self) -> RegionId {
        self.to
    }

    /// Extra one-way latency while active, in milliseconds.
    pub fn extra_ms(&self) -> f64 {
        self.extra_ms
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
    /// Panics if the window bounds are invalid (see [`Window::new`]).
    pub fn new(client: ClientId, start_ms: f64, end_ms: f64) -> Self {
        SubscriberStall { client, window: Window::new(start_ms, end_ms) }
    }

    /// The stalled subscriber.
    pub fn client(&self) -> ClientId {
        self.client
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
    /// (see [`Window::new`]).
    pub fn new(multiplier: u64, start_ms: f64, end_ms: f64) -> Self {
        assert!(multiplier >= 1, "burst multiplier must be at least 1");
        PublishBurst { multiplier, window: Window::new(start_ms, end_ms) }
    }

    /// The load multiplier while active.
    pub fn multiplier(&self) -> u64 {
        self.multiplier
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
    /// Panics if `copies` is zero or the window bounds are invalid (see
    /// [`Window::new`]).
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
/// uniform delay in `[0, span_ms)`, drawn from a dedicated seeded RNG
/// stream. Arrival *order* is shuffled; nothing is lost — the simulated
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
    /// bounds are invalid (see [`Window::new`]).
    pub fn new(span_ms: f64, start_ms: f64, end_ms: f64) -> Self {
        assert!(span_ms.is_finite() && span_ms > 0.0, "reorder span must be positive");
        ReorderWindow { span_ms, window: Window::new(start_ms, end_ms) }
    }

    /// Maximum extra delay while active, in milliseconds.
    pub fn span_ms(&self) -> f64 {
        self.span_ms
    }
}

/// A reconnect storm: the entire client population of one region is
/// disconnected over the window and *mass-reconnects* at its end — the
/// thundering-herd counterpart of a broker restart or LB failover, which
/// the session layer's decorrelated-jitter backoff must spread out to
/// meet the reconvergence SLO.
///
/// This is a **schedule, not simulated behaviour**: the engine never
/// consults it, so a storm changes no delivery, loss or byte count of a
/// run. Its consumer is `crates/broker/tests/reconnect_storm.rs`, which
/// reads the window, the region and [`FaultPlan::clients_stormed`] to
/// time real reconnect backoff against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectStorm {
    region: RegionId,
    window: Window,
}

impl ReconnectStorm {
    /// Creates a storm disconnecting `region`'s clients over
    /// `[start_ms, end_ms)`, with the mass reconnect at `end_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the window bounds are invalid (see [`Window::new`]).
    pub fn new(region: RegionId, start_ms: f64, end_ms: f64) -> Self {
        ReconnectStorm { region, window: Window::new(start_ms, end_ms) }
    }

    /// The region whose client population storms.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// When the clients are off the wire: they drop at its start and
    /// mass-reconnect at its end. Public on this shape alone because
    /// reading the schedule back is a storm's only use; the other shapes
    /// are asked about through [`FaultPlan`]'s query methods.
    pub fn window(&self) -> Window {
        self.window
    }
}

/// A complete fault schedule for one simulation run.
///
/// The default plan is quiet: no loss, no outages, no degradations, no
/// stalls, no bursts, no duplicates, no reordering, no reconnect storms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    loss_rate: f64,
    outages: Vec<RegionOutage>,
    degradations: Vec<LinkDegradation>,
    stalls: Vec<SubscriberStall>,
    bursts: Vec<PublishBurst>,
    duplicates: Vec<DuplicateDelivery>,
    reorders: Vec<ReorderWindow>,
    storms: Vec<ReconnectStorm>,
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
        self.loss_rate = rate;
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

    /// Adds a reconnect-storm window (a schedule for callers; see
    /// [`ReconnectStorm`]).
    pub fn with_reconnect_storm(mut self, storm: ReconnectStorm) -> Self {
        self.storms.push(storm);
        self
    }

    /// The per-hop loss probability.
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// The scheduled outages.
    pub fn outages(&self) -> &[RegionOutage] {
        &self.outages
    }

    /// The scheduled degradations.
    pub fn degradations(&self) -> &[LinkDegradation] {
        &self.degradations
    }

    /// The scheduled subscriber stalls.
    pub fn stalls(&self) -> &[SubscriberStall] {
        &self.stalls
    }

    /// The scheduled publish bursts.
    pub fn bursts(&self) -> &[PublishBurst] {
        &self.bursts
    }

    /// The scheduled duplicate-delivery windows.
    pub fn duplicates(&self) -> &[DuplicateDelivery] {
        &self.duplicates
    }

    /// The scheduled reorder windows.
    pub fn reorders(&self) -> &[ReorderWindow] {
        &self.reorders
    }

    /// The scheduled reconnect storms.
    pub fn storms(&self) -> &[ReconnectStorm] {
        &self.storms
    }

    /// `true` when the plan schedules nothing at all.
    pub fn is_quiet(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Whether `region`'s client population is storm-disconnected at
    /// time `at`.
    pub fn clients_stormed(&self, region: RegionId, at: SimTime) -> bool {
        self.storms.iter().any(|s| s.region == region && s.window.contains(at))
    }

    /// Whether `region` is inside any outage window at time `at`.
    pub fn region_down(&self, region: RegionId, at: SimTime) -> bool {
        self.outages.iter().any(|o| o.region == region && o.window.contains(at))
    }

    /// Total extra latency active on the directed link `from -> to` at
    /// time `at` (overlapping degradations add up).
    pub fn extra_link_ms(&self, from: RegionId, to: RegionId, at: SimTime) -> f64 {
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
    pub fn stall_release(&self, client: ClientId, at: SimTime) -> SimTime {
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
    pub fn burst_multiplier(&self, at: SimTime) -> u64 {
        self.bursts
            .iter()
            .filter(|b| b.window.contains(at))
            .map(|b| b.multiplier)
            .fold(1u64, u64::saturating_mul)
    }

    /// How many copies of a delivery scheduled at `at` are fanned out:
    /// the product of all active duplicate windows, at least 1.
    pub fn duplicate_copies(&self, at: SimTime) -> u64 {
        self.duplicates
            .iter()
            .filter(|d| d.window.contains(at))
            .map(|d| d.copies)
            .fold(1u64, u64::saturating_mul)
    }

    /// The maximum extra reorder delay for a delivery scheduled at `at`:
    /// the sum of all active reorder-window spans, 0 outside every
    /// window.
    pub fn reorder_span_ms(&self, at: SimTime) -> f64 {
        self.reorders.iter().filter(|r| r.window.contains(at)).map(|r| r.span_ms).sum()
    }
}

/// A [`FaultPlan`] paired with the two seeded RNG streams its sampling
/// shapes need: one for loss, one for reorder delays.
///
/// Both are independent of the jitter RNG and of each other, so enabling
/// jitter or adding a reorder window does not change *which* messages
/// are lost. The draw-free shapes are asked of [`FaultInjector::plan`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    loss_rng: StdRng,
    reorder_rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector for `plan`, deriving both streams from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        // Decorrelate from the jitter stream, which is seeded with the raw
        // engine seed.
        let loss_rng = StdRng::seed_from_u64(seed ^ 0xFA17_7013_u64);
        let reorder_rng = StdRng::seed_from_u64(seed ^ 0x2E02_DE21_u64);
        FaultInjector { plan, loss_rng, reorder_rng }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Samples whether the next hop drops its packet. Draws from the loss
    /// RNG only when the loss rate is positive, so quiet plans stay
    /// deterministic regardless of seed.
    pub fn drop_packet(&mut self) -> bool {
        self.plan.loss_rate > 0.0 && self.loss_rng.random::<f64>() < self.plan.loss_rate
    }

    /// Extra delay for a delivery scheduled at `at`: a uniform draw in
    /// `[0, span)` where `span` is the active reorder-window total.
    /// Draws from the reorder RNG only when a window is active, so quiet
    /// plans make no draws at all.
    pub fn reorder_extra_ms(&mut self, at: SimTime) -> f64 {
        let span = self.plan.reorder_span_ms(at);
        if span <= 0.0 {
            return 0.0;
        }
        self.reorder_rng.random::<f64>() * span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_quiet());
        assert!(!plan.region_down(RegionId(0), SimTime::from_ms(100.0)));
        assert_eq!(plan.extra_link_ms(RegionId(0), RegionId(1), SimTime::from_ms(100.0)), 0.0);
        let mut injector = FaultInjector::new(plan, 7);
        for _ in 0..100 {
            assert!(!injector.drop_packet());
        }
    }

    #[test]
    fn window_is_half_open_at_both_ends() {
        let window = Window::new(300.0, 700.0);
        assert!(!window.contains(SimTime::from_ms(299.9)));
        assert!(window.contains(SimTime::from_ms(300.0)));
        assert!(window.contains(SimTime::from_ms(699.9)));
        assert!(!window.contains(SimTime::from_ms(700.0)));
        assert_eq!(Window::new(0.0, 1.0).start_ms(), 0.0, "a window may open at time zero");
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
        let shapes: [fn() -> Window; 7] = [
            || RegionOutage::new(RegionId(0), 700.0, 300.0).window,
            || LinkDegradation::new(RegionId(0), RegionId(1), 700.0, 300.0, 1.0).window,
            || SubscriberStall::new(ClientId(0), 700.0, 300.0).window,
            || PublishBurst::new(2, 700.0, 300.0).window,
            || DuplicateDelivery::new(2, 700.0, 300.0).window,
            || ReorderWindow::new(1.0, 700.0, 300.0).window,
            || ReconnectStorm::new(RegionId(0), 700.0, 300.0).window,
        ];
        for (shape, build) in shapes.into_iter().enumerate() {
            let panic = std::panic::catch_unwind(build).expect_err("inverted bounds accepted");
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "fault window must satisfy 0 <= start < end", "shape {shape}");
        }
        let storm = ReconnectStorm::new(RegionId(1), 300.0, 700.0);
        assert_eq!(storm.window(), Window::new(300.0, 700.0));
    }

    #[test]
    fn outages_and_storms_hit_only_their_own_region() {
        let storm = ReconnectStorm::new(RegionId(1), 200.0, 600.0);
        let plan = FaultPlan::none()
            .with_outage(RegionOutage::new(RegionId(1), 300.0, 700.0))
            .with_reconnect_storm(storm);
        assert!(!plan.is_quiet());
        assert_eq!(plan.storms(), &[storm]);
        let at = SimTime::from_ms;
        assert!(plan.region_down(RegionId(1), at(500.0)));
        assert!(!plan.region_down(RegionId(0), at(500.0)));
        assert!(!plan.region_down(RegionId(1), at(250.0)), "storm window is not an outage");
        assert!(plan.clients_stormed(RegionId(1), at(250.0)));
        assert!(!plan.clients_stormed(RegionId(0), at(250.0)));
        // The mass reconnect happens at the window's end: clients are back.
        assert!(!plan.clients_stormed(RegionId(1), at(600.0)));
        assert!(!plan.clients_stormed(RegionId(1), at(650.0)), "outage window is not a storm");
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
        let draws = |seed: u64| {
            let mut injector = FaultInjector::new(FaultPlan::none().with_loss_rate(0.5), seed);
            (0..64).map(|_| injector.drop_packet()).collect::<Vec<bool>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
        assert!(draws(3).iter().any(|&d| d), "rate 0.5 should drop something in 64 draws");
        assert!(!draws(3).iter().all(|&d| d), "rate 0.5 should pass something in 64 draws");
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut injector = FaultInjector::new(FaultPlan::none().with_loss_rate(1.0), 0);
        for _ in 0..32 {
            assert!(injector.drop_packet());
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
            let mut injector = FaultInjector::new(plan.clone(), seed);
            // Outside a window: no draw at all, zero delay.
            assert_eq!(injector.reorder_extra_ms(SimTime::from_ms(50.0)), 0.0);
            (0..32).map(|_| injector.reorder_extra_ms(SimTime::from_ms(200.0))).collect::<Vec<_>>()
        };
        let a = draws(9);
        assert_eq!(a, draws(9), "reorder draws must be reproducible per seed");
        assert_ne!(a, draws(10));
        assert!(a.iter().all(|&d| (0.0..20.0).contains(&d)), "delays must stay within the span");
    }

    #[test]
    fn reorder_stream_does_not_disturb_loss_stream() {
        // Same seed, same loss rate; the reorder window must leave the
        // loss draw sequence byte-identical.
        let loss_only = FaultPlan::none().with_loss_rate(0.5);
        let with_reorder = loss_only.clone().with_reorder(ReorderWindow::new(10.0, 0.0, 1000.0));
        let mut a = FaultInjector::new(loss_only, 3);
        let mut b = FaultInjector::new(with_reorder, 3);
        for i in 0..64 {
            // Interleave reorder draws on one side only.
            if i % 2 == 0 {
                b.reorder_extra_ms(SimTime::from_ms(500.0));
            }
            assert_eq!(a.drop_packet(), b.drop_packet(), "loss draw {i} diverged");
        }
    }
}
