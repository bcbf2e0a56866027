//! # multipub-netsim
//!
//! A deterministic discrete-event simulator that executes MultiPub
//! scenarios end-to-end: publishers emit timestamped publications, region
//! brokers receive, (optionally) forward and deliver them, and every
//! delivery plus every egress byte is accounted for.
//!
//! The analytic model in `multipub-core` *predicts* delivery-time
//! percentiles and bandwidth costs; this crate *measures* them by actually
//! moving messages through a simulated network. With jitter disabled the
//! two agree exactly, which is verified by the workspace integration
//! tests. With jitter enabled the simulator doubles as a stress test for
//! the controller's reconfiguration logic.
//!
//! ## Structure
//!
//! * [`time`] — the virtual clock ([`time::SimTime`], milliseconds).
//! * [`queue`] — the event queue with deterministic FIFO tie-breaking.
//! * [`jitter`] — optional per-hop latency noise.
//! * [`faults`] — deterministic fault injection over half-open
//!   [`faults::Window`]s: seeded packet loss, region outages, link
//!   degradations, subscriber stalls, publish bursts, duplicate-delivery
//!   and reorder windows, plus reconnect-storm schedules the engine
//!   carries but does not act on.
//! * [`scenario`] — scenario description: topics, configurations,
//!   publishers with rates/sizes, subscribers.
//! * [`engine`] — the event loop over publications and broker arrivals,
//!   and the delivery log the brokers write into, which settles itself in
//!   delivery-time order as the clock passes.
//! * [`metrics`] — delivery records, the per-region traffic ledger and the
//!   final [`metrics::SimReport`] with its ordered log.
//!
//! ## Example
//!
//! ```
//! use multipub_core::prelude::*;
//! use multipub_netsim::scenario::{Scenario, SimPublisher, SimSubscriber, TopicScenario};
//! use multipub_netsim::engine::Engine;
//! use multipub_netsim::jitter::Jitter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let regions = RegionSet::new(vec![
//!     Region::new("a", "A", 0.02, 0.09),
//!     Region::new("b", "B", 0.09, 0.14),
//! ])?;
//! let inter = InterRegionMatrix::from_rows(vec![vec![0.0, 40.0], vec![40.0, 0.0]])?;
//! let topic = TopicScenario::new(
//!     TopicId::new("chat"),
//!     Configuration::new(AssignmentVector::all(2)?, DeliveryMode::Routed),
//!     vec![SimPublisher::new(ClientId(0), vec![5.0, 60.0], 10.0, 512)],
//!     vec![SimSubscriber::new(ClientId(1), vec![60.0, 5.0])],
//! );
//! let scenario = Scenario::new(regions, inter, vec![topic]);
//! let report = Engine::new(scenario, Jitter::disabled(), 42).run(1_000.0);
//! assert_eq!(report.delivery_count(), 10);
//! // 5 + 40 + 5 = 50 ms on every delivery.
//! assert_eq!(report.percentile_ms(99.0), 50.0);
//! // The finished run is added to the global metrics once: an event per
//! // publication, per broker arrival (home, then forwarded) and per delivery.
//! let events = multipub_obs::registry().counter(multipub_obs::metrics::NETSIM_EVENTS_TOTAL);
//! assert_eq!(events.get(), 10 + 20 + 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod engine;
pub mod faults;
pub mod jitter;
pub mod metrics;
pub mod queue;
pub mod scenario;
pub mod time;
