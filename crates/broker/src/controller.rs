//! The MultiPub controller (paper §III.A4–A5).
//!
//! The controller connects to every region broker, periodically pulls the
//! region managers' interval reports, reassembles per-topic workloads
//! (using its client↔region latency knowledge), re-runs the optimizer for
//! each topic, and moves every topic whose configuration changed through
//! the make-before-break handover (DESIGN.md §15), all of them at once.
//! Each topic's handover is decided by its [`Coordinator`]; this module
//! only carries the coordinators' frames, timers and acks.
//!
//! Client latencies are registered explicitly here ([`
//! Controller::register_client`]); in a production deployment the same
//! table would be fed by continuous out-of-band latency probes (the paper
//! measures pings from every region).
//!
//! ## Degraded mode
//!
//! The controller survives broker failures instead of requiring every
//! region up front: [`Controller::connect`] records unreachable brokers
//! and succeeds as long as *any* broker answers, dead links are re-dialed
//! at the start of every round, and regions whose broker is down (or has
//! missed consecutive report deadlines) are **excluded from the
//! optimizer's search space** via its allowed-regions facility — so new
//! configurations only ever place topics on regions that can actually
//! serve them. A handover leaves excluded regions out as well, so a topic
//! can still be placed, or moved off a dead region; the redial replay
//! brings their brokers to the committed configuration. Excluded regions
//! rejoin automatically once their broker answers again.

use crate::broker::{RegionReport, TopicReport};
use crate::conn::{read_frame, BrokerError};
use crate::delay::Outbound;
use crate::frame::{Frame, Role};
use bytes::BytesMut;
use multipub_core::assignment::{AssignmentVector, Configuration};
use multipub_core::constraint::DeliveryConstraint;
use multipub_core::ids::RegionId;
use multipub_core::latency::InterRegionMatrix;
use multipub_core::mitigation::{mitigate, retract_unneeded, MitigationPolicy};
use multipub_core::optimizer::Optimizer;
use multipub_core::region::RegionSet;
use multipub_core::workload::{MessageBatch, Publisher, Subscriber, TopicWorkload};
use multipub_proto::{Action, Control, Coordinator, Event as HandoverEvent, Phase};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Duration;
use tokio::net::TcpStream;
use tokio::sync::mpsc;

/// One per-topic decision taken by [`Controller::optimize_once`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopicDecision {
    /// The topic.
    pub topic: String,
    /// The configuration selected (and deployed, unless unchanged).
    pub configuration: Configuration,
    /// Whether the topic's constraint is met by the selection.
    pub feasible: bool,
    /// Expected delivery-time percentile of the selection, ms.
    pub percentile_ms: f64,
    /// Expected interval cost of the selection, dollars.
    pub cost_dollars: f64,
    /// Whether the handover to `configuration` committed (false when it
    /// was already installed, or when the handover aborted).
    pub deployed: bool,
    /// Clients seen in the reports but unknown to the latency table; they
    /// were ignored during optimization.
    pub unknown_clients: usize,
    /// Regions force-added by the §IV.D straggler mitigation this round
    /// (already part of `configuration`).
    pub forced_regions: Vec<RegionId>,
    /// Regions excluded from the optimizer's search space this round
    /// because their broker was unreachable (degraded mode).
    pub excluded_regions: Vec<RegionId>,
}

/// Capacity of each broker link's inbound report/snapshot channels. The
/// controller consumes one report per broker per round, so even a small
/// bound is generous; overflow (a wedged controller) drops the newest and
/// counts `multipub_controller_reports_dropped_total`.
const LINK_CHANNEL_CAPACITY: usize = 256;

/// A handover ack as `(region, topic, epoch, phase)`.
type Ack = (usize, String, u64, u8);

struct BrokerLink {
    outbound: Outbound,
    reports_rx: mpsc::Receiver<RegionReport>,
    snapshots_rx: mpsc::Receiver<String>,
}

impl std::fmt::Debug for BrokerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerLink").finish_non_exhaustive()
    }
}

/// One region's slot in the controller: the broker address is always
/// known; the link itself may be down.
struct RegionLink {
    addr: SocketAddr,
    /// `None` while the broker is unreachable.
    state: Option<BrokerLink>,
    /// Consecutive report deadlines this broker has missed while its
    /// connection looked alive. At [`MISS_THRESHOLD`] the region is
    /// treated as unreachable for optimization purposes.
    consecutive_misses: u32,
    /// Backoff episode across failed redials (`None` while connected).
    backoff: Option<crate::session::Backoff>,
    /// Earliest instant at which the next redial may be attempted.
    next_redial: Option<std::time::Instant>,
}

impl std::fmt::Debug for RegionLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionLink")
            .field("addr", &self.addr)
            .field("connected", &self.state.is_some())
            .field("consecutive_misses", &self.consecutive_misses)
            .finish()
    }
}

impl RegionLink {
    fn is_alive(&self) -> bool {
        match &self.state {
            Some(link) => link.outbound.is_open() && self.consecutive_misses < MISS_THRESHOLD,
            None => false,
        }
    }
}

/// Consecutive missed report deadlines before a connected-looking broker
/// is excluded from optimization anyway (half-open TCP, overloaded peer).
const MISS_THRESHOLD: u32 = 2;

/// The MultiPub controller. See the module docs.
#[derive(Debug)]
pub struct Controller {
    regions: RegionSet,
    inter: InterRegionMatrix,
    links: Vec<RegionLink>,
    client_latencies: HashMap<u64, Vec<f64>>,
    constraints: HashMap<String, DeliveryConstraint>,
    default_constraint: DeliveryConstraint,
    /// One coordinator per topic ever handed over or deployed: the only
    /// owner of its epochs.
    coordinators: HashMap<String, Coordinator>,
    /// Every link's acks, unbounded: they answer frames the controller
    /// itself sent.
    acks_tx: mpsc::UnboundedSender<Ack>,
    acks_rx: mpsc::UnboundedReceiver<Ack>,
    /// Timers the coordinators armed: when, for which topic, and what.
    timers: Vec<(tokio::time::Instant, String, u64, Phase)>,
    /// When each running handover's current phase began.
    phase_started: HashMap<String, std::time::Instant>,
    report_timeout: Duration,
    connect_timeout: Duration,
    /// Post-commit drain window: how long retiring regions keep
    /// bridge-forwarding stragglers before dropping the topic.
    handover_grace: Duration,
    /// Per-phase ack deadline; a phase that misses it aborts the
    /// handover and rolls back to the last committed epoch.
    handover_timeout: Duration,
    /// Backoff schedule between redial attempts on a dead broker link.
    redial_policy: crate::session::ReconnectPolicy,
    mitigation: Option<MitigationPolicy>,
    /// Regions force-added per topic by the straggler scan, retracted when
    /// no longer needed.
    forced: HashMap<String, Vec<RegionId>>,
}

/// Dials one broker and spawns its reader task, demultiplexing inbound
/// stats frames onto the link's channels and handover acks onto `acks_tx`.
async fn dial(
    addr: SocketAddr,
    connect_timeout: Duration,
    region: usize,
    acks_tx: mpsc::UnboundedSender<Ack>,
) -> Result<BrokerLink, BrokerError> {
    let stream = match tokio::time::timeout(connect_timeout, TcpStream::connect(addr)).await {
        Ok(result) => result?,
        Err(_) => return Err(BrokerError::Timeout { what: "broker connect" }),
    };
    stream.set_nodelay(true).ok();
    let (mut read_half, write_half) = stream.into_split();
    let outbound = Outbound::spawn(write_half, Duration::ZERO);
    outbound.send(&Frame::Connect { client_id: 0, role: Role::Controller, policy: None });
    let (reports_tx, reports_rx) = mpsc::channel(LINK_CHANNEL_CAPACITY);
    let (snapshots_tx, snapshots_rx) = mpsc::channel(LINK_CHANNEL_CAPACITY);
    tokio::spawn(async move {
        let mut buf = BytesMut::new();
        loop {
            match read_frame(&mut read_half, &mut buf).await {
                Ok(Some(Frame::StatsReport { json })) => {
                    if let Ok(report) = serde_json::from_str::<RegionReport>(&json) {
                        match reports_tx.try_send(report) {
                            Ok(()) => {}
                            Err(mpsc::error::TrySendError::Full(_)) => {
                                // Stale reports are worthless — shed rather
                                // than stall the reader behind a wedged
                                // controller.
                                multipub_obs::counter!(
                                    multipub_obs::metrics::CONTROLLER_REPORTS_DROPPED_TOTAL
                                )
                                .inc();
                            }
                            Err(mpsc::error::TrySendError::Closed(_)) => break,
                        }
                    }
                }
                Ok(Some(Frame::StatsSnapshot { json })) => match snapshots_tx.try_send(json) {
                    Ok(()) => {}
                    Err(mpsc::error::TrySendError::Full(_)) => {
                        multipub_obs::counter!(
                            multipub_obs::metrics::CONTROLLER_REPORTS_DROPPED_TOTAL
                        )
                        .inc();
                    }
                    Err(mpsc::error::TrySendError::Closed(_)) => break,
                },
                Ok(Some(Frame::HandoverAck { topic, epoch, phase })) => {
                    if acks_tx.send((region, topic, epoch, phase)).is_err() {
                        break;
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    });
    Ok(BrokerLink { outbound, reports_rx, snapshots_rx })
}

impl Controller {
    /// Connects to every region broker (one address per region, in region
    /// order). `default_constraint` applies to topics without an explicit
    /// one.
    ///
    /// Unreachable brokers do **not** fail the call: their regions are
    /// recorded (see [`Controller::unreachable_regions`]), excluded from
    /// optimization, and re-dialed in the background at the start of every
    /// round until they answer.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownRegion`] if the address count does
    /// not match the region set, and the last connection error if *every*
    /// broker is unreachable — a controller with zero live region managers
    /// cannot do anything useful.
    pub async fn connect(
        regions: RegionSet,
        inter: InterRegionMatrix,
        broker_addrs: &[SocketAddr],
        default_constraint: DeliveryConstraint,
    ) -> Result<Self, BrokerError> {
        if broker_addrs.len() != regions.len() {
            return Err(BrokerError::UnknownRegion { region: broker_addrs.len() as u16 });
        }
        let connect_timeout = Duration::from_secs(2);
        let mut links = Vec::with_capacity(broker_addrs.len());
        let mut last_err = None;
        // lint:allow(channel) acks answer frames this controller sent, and each round starts by emptying it; a bounded channel would drop an ack and abort its handover
        let (acks_tx, acks_rx) = mpsc::unbounded_channel();
        for (region, &addr) in broker_addrs.iter().enumerate() {
            let state = match dial(addr, connect_timeout, region, acks_tx.clone()).await {
                Ok(link) => Some(link),
                Err(e) => {
                    multipub_obs::event!(
                        Warn,
                        "controller",
                        msg = "broker unreachable at startup",
                        region = region,
                        error = e,
                    );
                    last_err = Some(e);
                    None
                }
            };
            links.push(RegionLink {
                addr,
                state,
                consecutive_misses: 0,
                backoff: None,
                next_redial: None,
            });
        }
        if links.iter().all(|l| l.state.is_none()) {
            return Err(last_err.unwrap_or(BrokerError::ConnectionClosed));
        }
        Ok(Controller {
            regions,
            inter,
            links,
            client_latencies: HashMap::new(),
            constraints: HashMap::new(),
            default_constraint,
            coordinators: HashMap::new(),
            acks_tx,
            acks_rx,
            timers: Vec::new(),
            phase_started: HashMap::new(),
            report_timeout: Duration::from_secs(5),
            connect_timeout,
            handover_grace: Duration::from_millis(500),
            handover_timeout: Duration::from_secs(2),
            redial_policy: crate::session::ReconnectPolicy::default(),
            mitigation: None,
            forced: HashMap::new(),
        })
    }

    /// Regions whose broker link is currently down or degraded (missed
    /// [`MISS_THRESHOLD`] consecutive report deadlines). These regions are
    /// excluded from optimization until their broker answers again.
    pub fn unreachable_regions(&self) -> Vec<RegionId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, link)| !link.is_alive())
            .map(|(region, _)| RegionId(region as u8))
            .collect()
    }

    /// Re-dials every dead broker link whose backoff delay has elapsed.
    /// Called automatically at the start of each
    /// [`Controller::optimize_once`] round; public so embedders driving
    /// [`Controller::collect_reports`] directly can recover links too.
    ///
    /// Attempts are spaced by the redial policy (see
    /// [`Controller::set_redial_policy`]); once a policy's attempt limit
    /// is exhausted the link keeps being retried at the cap cadence — a
    /// controller never permanently writes a region off.
    pub async fn ensure_links(&mut self) {
        for (region, link) in self.links.iter_mut().enumerate() {
            if let Some(state) = &link.state {
                if state.outbound.is_open() {
                    continue;
                }
                // The broker went away since last round; drop the stale
                // link so the reports channel cannot yield old data.
                link.state = None;
            }
            if let Some(at) = link.next_redial {
                if std::time::Instant::now() < at {
                    continue;
                }
            }
            multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_LINK_REDIALS_TOTAL).inc();
            match dial(link.addr, self.connect_timeout, region, self.acks_tx.clone()).await {
                Ok(state) => {
                    // Replay every topic's **committed** configuration —
                    // never a half-applied one: an aborted handover never
                    // shows in `Coordinator::committed` (DESIGN.md §15).
                    for (topic, coordinator) in &self.coordinators {
                        if let Some(config) = coordinator.committed() {
                            state.outbound.send(&Control::Update(config).frame(topic));
                        }
                    }
                    link.state = Some(state);
                    link.consecutive_misses = 0;
                    link.backoff = None;
                    link.next_redial = None;
                    multipub_obs::event!(
                        Info,
                        "controller",
                        msg = "broker link re-established",
                        region = region,
                    );
                }
                Err(_) => {
                    let backoff = link
                        .backoff
                        .get_or_insert_with(|| self.redial_policy.backoff(region as u64));
                    let delay = backoff.next_delay().unwrap_or(self.redial_policy.cap);
                    link.next_redial = Some(std::time::Instant::now() + delay);
                }
            }
        }
    }

    /// Sets the backoff policy between redial attempts on dead broker
    /// links (default: 100 ms base, 10 s cap, no attempt limit).
    pub fn set_redial_policy(&mut self, policy: crate::session::ReconnectPolicy) {
        self.redial_policy = policy;
    }

    /// Enables the §IV.D straggler scan: after each optimization round the
    /// controller checks for clients whose *every* delivery exceeds the
    /// bound and force-adds regions that help them, retracting those
    /// regions once they stop being needed.
    pub fn enable_mitigation(&mut self, policy: MitigationPolicy) {
        self.mitigation = Some(policy);
    }

    /// Registers (or refreshes) a client's one-way latency row towards
    /// every region — the controller's copy of matrix `L` (paper §III.C).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the region count.
    pub fn register_client(&mut self, client_id: u64, latencies_ms: Vec<f64>) {
        assert_eq!(latencies_ms.len(), self.regions.len(), "latency row must cover every region");
        self.client_latencies.insert(client_id, latencies_ms);
    }

    /// Sets a topic's delivery constraint `<ratio_T, max_T>`.
    pub fn set_constraint(&mut self, topic: impl Into<String>, constraint: DeliveryConstraint) {
        self.constraints.insert(topic.into(), constraint);
    }

    /// Adjusts how long [`Controller::collect_reports`] waits per broker.
    pub fn set_report_timeout(&mut self, timeout: Duration) {
        self.report_timeout = timeout;
    }

    /// Adjusts how long each (re-)dial of a broker may take (default 2 s).
    pub fn set_connect_timeout(&mut self, timeout: Duration) {
        self.connect_timeout = timeout;
    }

    /// Adjusts the post-commit drain window during which retiring
    /// regions keep bridge-forwarding stragglers (default 500 ms).
    pub fn set_handover_grace(&mut self, grace: Duration) {
        self.handover_grace = grace;
    }

    /// Adjusts the per-phase ack deadline; a handover phase that misses
    /// it aborts and rolls back to the last committed epoch (default
    /// 2 s).
    pub fn set_handover_timeout(&mut self, timeout: Duration) {
        self.handover_timeout = timeout;
    }

    /// The configuration currently installed for a topic, if any.
    pub fn installed(&self, topic: &str) -> Option<Configuration> {
        let config = self.coordinators.get(topic)?.committed()?;
        let assignment = AssignmentVector::from_mask(config.mask, self.regions.len()).ok()?;
        Some(Configuration::new(assignment, config.mode))
    }

    /// The committed epoch of a topic's installed configuration, if any.
    /// Epochs minted by aborted handovers never appear here: the
    /// coordinator's committed configuration only moves at a commit point.
    pub fn installed_epoch(&self, topic: &str) -> Option<u64> {
        Some(self.coordinators.get(topic)?.committed()?.epoch)
    }

    /// Requests and gathers one interval report from every live region
    /// manager. Brokers that fail to answer within the report timeout are
    /// skipped (their interval data simply misses this round) and accrue a
    /// miss; a broker whose connection turns out closed is marked dead and
    /// re-dialed next round.
    pub async fn collect_reports(&mut self) -> Vec<RegionReport> {
        for link in &self.links {
            if let Some(state) = &link.state {
                state.outbound.send(&Frame::StatsRequest);
            }
        }
        let timeout = self.report_timeout;
        let mut reports = Vec::with_capacity(self.links.len());
        for link in &mut self.links {
            let Some(state) = &mut link.state else { continue };
            match tokio::time::timeout(timeout, state.reports_rx.recv()).await {
                Ok(Some(report)) => {
                    link.consecutive_misses = 0;
                    reports.push(report);
                }
                Ok(None) => {
                    // Reader task exited: the broker hung up.
                    link.state = None;
                }
                Err(_) => {
                    link.consecutive_misses += 1;
                    if !state.outbound.is_open() {
                        link.state = None;
                    }
                }
            }
        }
        reports
    }

    /// Pulls every live broker's `multipub-obs` metrics snapshot in-band
    /// ([`Frame::StatsSnapshotRequest`]), returning one JSON document per
    /// answering broker, in region order. Brokers that fail to answer
    /// within the report timeout are skipped; dead connections are marked
    /// for re-dial.
    pub async fn collect_metrics(&mut self) -> Vec<String> {
        for link in &self.links {
            if let Some(state) = &link.state {
                state.outbound.send(&Frame::StatsSnapshotRequest);
            }
        }
        let timeout = self.report_timeout;
        let mut snapshots = Vec::with_capacity(self.links.len());
        for link in &mut self.links {
            let Some(state) = &mut link.state else { continue };
            match tokio::time::timeout(timeout, state.snapshots_rx.recv()).await {
                Ok(Some(json)) => snapshots.push(json),
                Ok(None) => link.state = None,
                Err(_) => {
                    if !state.outbound.is_open() {
                        link.state = None;
                    }
                }
            }
        }
        snapshots
    }

    /// One full control round: recover dead broker links, collect
    /// reports, rebuild per-topic workloads, optimize every topic over
    /// the **reachable** regions, and deploy improved configurations.
    ///
    /// With every broker down the round is skipped entirely (no decisions,
    /// no deployments) — better a stale configuration than one derived
    /// from nothing.
    pub async fn optimize_once(&mut self) -> Vec<TopicDecision> {
        let _round_timer = multipub_obs::timer!(multipub_obs::metrics::CONTROLLER_ROUND_MS);
        multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_ROUNDS_TOTAL).inc();
        self.ensure_links().await;
        let reports = self.collect_reports().await;

        // Degraded mode: optimize only over regions whose broker answers.
        let alive_mask = self.live();
        let excluded = self.unreachable_regions();
        let Ok(allowed) = AssignmentVector::from_mask(alive_mask, self.regions.len()) else {
            multipub_obs::event!(
                Warn,
                "controller",
                msg = "every broker unreachable; skipping optimization round",
            );
            return Vec::new();
        };
        if !excluded.is_empty() {
            multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_DEGRADED_ROUNDS_TOTAL).inc();
            multipub_obs::event!(
                Warn,
                "controller",
                msg = "optimizing in degraded mode",
                excluded = excluded.len(),
                alive_mask = format!("{alive_mask:#b}"),
            );
        }

        let merged = merge_reports(&reports);
        let mut decisions = Vec::new();
        let mut changes = Vec::new();
        for (topic, report) in merged {
            let constraint =
                self.constraints.get(&topic).copied().unwrap_or(self.default_constraint);
            let (workload, unknown_clients) = self.build_workload(&report);
            if workload.publisher_count() == 0 || workload.subscriber_count() == 0 {
                continue; // nothing to optimize this interval
            }
            let optimizer = Optimizer::new(&self.regions, &self.inter, &workload)
                // lint:allow(panic) the surrounding branch only runs for workloads the report loop already checked non-empty and dimension-matched
                .expect("workload validated non-empty")
                .with_allowed_regions(allowed);
            let solution = optimizer.solve(&constraint);
            let mut configuration = solution.configuration();

            // §IV.D: help stragglers the percentile constraint cannot see.
            let mut forced_regions = Vec::new();
            if let Some(policy) = self.mitigation {
                let evaluator = optimizer.evaluator();
                // Retract previously forced regions that no longer help —
                // or whose broker has since become unreachable.
                let previous = self.forced.remove(&topic).unwrap_or_default();
                let retained: Vec<RegionId> =
                    retract_unneeded(evaluator, configuration, &previous, &constraint)
                        .into_iter()
                        .filter(|&region| allowed.contains(region))
                        .collect();
                let mut assignment = configuration.assignment();
                for &region in &retained {
                    assignment = assignment.with(region);
                }
                configuration = Configuration::new(assignment, configuration.mode());
                // Scan for (new) stragglers and force-add helpful regions.
                // The scan considers every region; strip any force-added
                // region that cannot actually serve right now.
                let outcome = mitigate(evaluator, configuration, &constraint, &policy);
                let mut assignment = outcome.configuration.assignment();
                let mut added = Vec::new();
                for region in outcome.added {
                    if allowed.contains(region) {
                        added.push(region);
                    } else if let Some(stripped) = assignment.without(region) {
                        assignment = stripped;
                    }
                }
                configuration = Configuration::new(assignment, outcome.configuration.mode());
                forced_regions = retained;
                forced_regions.extend(added);
                if !forced_regions.is_empty() {
                    self.forced.insert(topic.clone(), forced_regions.clone());
                }
            }

            multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_TOPICS_EVALUATED_TOTAL).inc();
            if solution.is_feasible() {
                multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_FEASIBLE_TOTAL).inc();
            } else {
                multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_INFEASIBLE_TOTAL).inc();
            }
            if !forced_regions.is_empty() {
                multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_MITIGATIONS_TOTAL).inc();
            }
            if self.installed(&topic) != Some(configuration) {
                changes.push((topic.clone(), configuration));
            }
            decisions.push(TopicDecision {
                topic,
                configuration,
                feasible: solution.is_feasible(),
                percentile_ms: solution.evaluation().percentile_ms(),
                cost_dollars: solution.evaluation().cost_dollars(),
                deployed: false,
                unknown_clients,
                forced_regions,
                excluded_regions: excluded.clone(),
            });
        }
        // Live traffic may be steering by the old configurations: every
        // changed topic goes through its make-before-break handover, all
        // at once. A rolled-back handover leaves its committed
        // configuration in force.
        let committed = self.run_handovers(changes).await;
        for decision in &mut decisions {
            decision.deployed = committed.get(&decision.topic).copied().unwrap_or(false);
            if decision.deployed {
                multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_RECONFIGURATIONS_TOTAL)
                    .inc();
            }
            multipub_obs::event!(
                Debug,
                "controller",
                msg = "topic decided",
                topic = decision.topic,
                configuration = decision.configuration,
                feasible = decision.feasible,
                deployed = decision.deployed,
                percentile_ms = decision.percentile_ms,
                unknown_clients = decision.unknown_clients,
            );
        }
        multipub_obs::event!(
            Info,
            "controller",
            msg = "round complete",
            reports = reports.len(),
            topics = decisions.len(),
        );
        decisions
    }

    /// Pushes a configuration to every *live* broker (which fan it out to
    /// their clients) and records it as installed, at a freshly minted
    /// epoch. Brokers whose link is down at deploy time are **deferred**:
    /// counted in `multipub_controller_config_deferred_total` and logged,
    /// and they pick the configuration up via the redial replay — until
    /// then their clients keep steering by the previous one, which is
    /// safe (at-least-once across config changes).
    ///
    /// This is the single-shot path, kept for embedders that manage
    /// their own traffic windows; [`Controller::optimize_once`] uses the
    /// make-before-break [`Controller::handover`] instead.
    pub fn deploy(&mut self, topic: &str, configuration: Configuration) {
        let mut outcomes = HashMap::new();
        self.fire_due_timers(&mut outcomes);
        let (mask, mode) = (configuration.assignment().mask(), configuration.mode());
        self.dispatch(topic, HandoverEvent::Deploy { mask, mode }, &mut outcomes);
    }

    /// Runs the three-phase make-before-break handover for one topic
    /// (DESIGN.md §15). Returns `true` when the new configuration
    /// committed, `false` when it was aborted (the previously committed
    /// configuration stays in force).
    pub async fn handover(&mut self, topic: &str, configuration: Configuration) -> bool {
        let committed = self.run_handovers(vec![(topic.to_string(), configuration)]).await;
        committed.get(topic).copied().unwrap_or(false)
    }

    /// Starts one handover per change, among the regions whose link is up,
    /// and carries every coordinator's frames, acks and timers until each
    /// has an outcome: whether it committed.
    async fn run_handovers(
        &mut self,
        changes: Vec<(String, Configuration)>,
    ) -> HashMap<String, bool> {
        let grace_ms = self.handover_grace.as_millis().min(u128::from(u32::MAX)) as u32;
        let mut outcomes = HashMap::new();
        // Acks left from earlier rounds answer attempts that have ended.
        while self.acks_rx.try_recv().is_ok() {}
        // A drain that already ended must not widen the new participants.
        self.fire_due_timers(&mut outcomes);
        for (topic, configuration) in &changes {
            multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_HANDOVERS_TOTAL).inc();
            self.phase_started.insert(topic.clone(), std::time::Instant::now());
            let (mask, mode, live) =
                (configuration.assignment().mask(), configuration.mode(), self.live());
            let handover = HandoverEvent::Handover { mask, mode, grace_ms, live };
            self.dispatch(topic, handover, &mut outcomes);
        }
        while changes.iter().any(|(topic, _)| !outcomes.contains_key(topic)) {
            let Some(next) = self.timers.iter().map(|(at, ..)| *at).min() else { break };
            if let Ok(Some((region, topic, epoch, phase))) =
                tokio::time::timeout_at(next, self.acks_rx.recv()).await
            {
                let (region, live) = (RegionId(region as u8), self.live());
                let ack = HandoverEvent::Ack { region, epoch, phase, live };
                self.dispatch(&topic, ack, &mut outcomes);
            }
            self.fire_due_timers(&mut outcomes);
        }
        outcomes
    }

    /// The regions whose broker is reachable: the rest are left out of
    /// optimization and of handovers alike.
    fn live(&self) -> u32 {
        let mut live = 0;
        for (region, link) in self.links.iter().enumerate() {
            if link.is_alive() {
                live |= 1 << region;
            }
        }
        live
    }

    /// Hands every timer that has fallen due to its coordinator.
    fn fire_due_timers(&mut self, outcomes: &mut HashMap<String, bool>) {
        let now = tokio::time::Instant::now();
        let (due, pending): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.timers).into_iter().partition(|(at, ..)| *at <= now);
        self.timers = pending;
        for (_, topic, epoch, phase) in due {
            self.dispatch(&topic, HandoverEvent::Timeout { epoch, phase }, outcomes);
        }
    }

    /// Tells the topic's coordinator (created on first use) of `event` and
    /// carries out what it asks: frames onto the links, timers into
    /// `timers`, outcomes into `outcomes`.
    fn dispatch(
        &mut self,
        topic: &str,
        event: HandoverEvent,
        outcomes: &mut HashMap<String, bool>,
    ) {
        let all = AssignmentVector::all(self.links.len()).map_or(0, AssignmentVector::mask);
        let coordinator =
            self.coordinators.entry(topic.to_string()).or_insert_with(|| Coordinator::new(all));
        for action in coordinator.handle(event) {
            self.apply(topic, action, outcomes);
        }
    }

    /// Carries out one coordinator action for `topic`.
    fn apply(&mut self, topic: &str, action: Action, outcomes: &mut HashMap<String, bool>) {
        match action {
            Action::Send { control, regions } => {
                let frame = control.frame(topic);
                for (region, link) in self.links.iter().enumerate() {
                    let sent = regions & 1 << region != 0
                        && link.state.as_ref().is_some_and(|s| s.outbound.send(&frame));
                    if let (false, Control::Update(config)) = (sent, control) {
                        multipub_obs::counter!(
                            multipub_obs::metrics::CONTROLLER_CONFIG_DEFERRED_TOTAL
                        )
                        .inc();
                        multipub_obs::event!(
                            Warn,
                            "controller",
                            msg = "config install deferred: broker link down",
                            region = region,
                            topic = topic,
                            epoch = config.epoch,
                        );
                    }
                }
                if let Control::Commit { .. } = control {
                    if let Some(ms) = self.phase_ms(topic) {
                        multipub_obs::histogram!(
                            multipub_obs::metrics::CONTROLLER_HANDOVER_PREPARE_MS
                        )
                        .record(ms);
                    }
                    self.phase_started.insert(topic.to_string(), std::time::Instant::now());
                }
            }
            Action::ArmTimer { epoch, phase } => {
                let after = match phase {
                    Phase::Drain => self.handover_grace,
                    Phase::Prepare | Phase::Commit => self.handover_timeout,
                };
                self.timers.push((
                    tokio::time::Instant::now() + after,
                    topic.to_string(),
                    epoch,
                    phase,
                ));
            }
            Action::Committed { config, unacked } => {
                if let Some(ms) = self.phase_ms(topic) {
                    multipub_obs::histogram!(multipub_obs::metrics::CONTROLLER_HANDOVER_COMMIT_MS)
                        .record(ms);
                }
                // Missing commit acks (`unacked`) are diagnostic only: the
                // stragglers recover via the redial replay.
                multipub_obs::event!(
                    Info,
                    "controller",
                    msg = "handover committed",
                    topic = topic,
                    epoch = config.epoch,
                    mask = format!("{:#b}", config.mask),
                    unacked = format!("{unacked:#b}"),
                );
                outcomes.insert(topic.to_string(), true);
            }
            Action::Aborted(epoch) => {
                if let Some(ms) = self.phase_ms(topic) {
                    multipub_obs::histogram!(multipub_obs::metrics::CONTROLLER_HANDOVER_PREPARE_MS)
                        .record(ms);
                }
                multipub_obs::counter!(multipub_obs::metrics::CONTROLLER_HANDOVER_ROLLBACKS_TOTAL)
                    .inc();
                multipub_obs::event!(
                    Warn,
                    "controller",
                    msg = "handover aborted; committed epoch stays in force",
                    topic = topic,
                    epoch = epoch,
                );
                outcomes.insert(topic.to_string(), false);
            }
        }
    }

    /// Ends the topic's current handover phase: how long it took, in ms.
    fn phase_ms(&mut self, topic: &str) -> Option<f64> {
        Some(self.phase_started.remove(topic)?.elapsed().as_secs_f64() * 1000.0)
    }

    /// Builds the analytic workload for one topic from the merged report,
    /// returning it plus the number of clients skipped for lack of latency
    /// data.
    fn build_workload(&self, report: &TopicReport) -> (TopicWorkload, usize) {
        let mut unknown = 0usize;
        let mut publishers = Vec::with_capacity(report.publishers.len());
        for (&publisher_id, stats) in &report.publishers {
            match self.client_latencies.get(&publisher_id) {
                Some(latencies) => publishers.push(Publisher::new(
                    multipub_core::ids::ClientId(publisher_id),
                    latencies.clone(),
                    MessageBatch::uniform(stats.messages, average_size(stats)),
                )),
                None => unknown += 1,
            }
        }
        let mut subscribers = Vec::with_capacity(report.subscribers.len());
        for &subscriber_id in &report.subscribers {
            match self.client_latencies.get(&subscriber_id) {
                Some(latencies) => subscribers.push(Subscriber::new(
                    multipub_core::ids::ClientId(subscriber_id),
                    latencies.clone(),
                )),
                None => unknown += 1,
            }
        }
        let workload = TopicWorkload::new(self.regions.len(), publishers, subscribers)
            // lint:allow(panic) `register_client` checks each row's width and trusts its values; the merged report keys publishers by id and deduplicates subscribers
            .expect("registered rows are valid and report ids are unique");
        (workload, unknown)
    }
}

fn average_size(stats: &crate::broker::PublisherStats) -> u64 {
    if stats.messages == 0 {
        0
    } else {
        stats.bytes / stats.messages
    }
}

/// Merges the per-region reports into one per-topic view.
///
/// Publisher statistics are **deduplicated by maximum**: under direct
/// delivery every serving region observes the same publications, and under
/// routed delivery only the first-hop region does — taking the per-region
/// maximum recovers the true per-publisher counts in both cases.
/// Subscriber lists are unioned (a subscriber is attached to exactly one
/// region at a time; unions also tolerate the reconfiguration window).
pub fn merge_reports(reports: &[RegionReport]) -> BTreeMap<String, TopicReport> {
    let mut merged: BTreeMap<String, TopicReport> = BTreeMap::new();
    for report in reports {
        for (topic, topic_report) in &report.topics {
            let entry = merged.entry(topic.clone()).or_default();
            for (&publisher, stats) in &topic_report.publishers {
                let slot = entry.publishers.entry(publisher).or_default();
                if stats.messages > slot.messages {
                    *slot = *stats;
                }
            }
            entry.subscribers.extend(topic_report.subscribers.iter().copied());
        }
    }
    for report in merged.values_mut() {
        report.subscribers.sort_unstable();
        report.subscribers.dedup();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::PublisherStats;

    fn report(region: u16, topic: &str, pubs: &[(u64, u64, u64)], subs: &[u64]) -> RegionReport {
        let mut topics = BTreeMap::new();
        topics.insert(
            topic.to_string(),
            TopicReport {
                publishers: pubs
                    .iter()
                    .map(|&(id, messages, bytes)| (id, PublisherStats { messages, bytes }))
                    .collect(),
                subscribers: subs.to_vec(),
            },
        );
        RegionReport { region, topics }
    }

    #[test]
    fn merge_dedups_direct_mode_double_counting() {
        // Direct delivery: both regions saw the same 10 messages of P1.
        let reports = vec![
            report(0, "t", &[(1, 10, 10_000)], &[5]),
            report(1, "t", &[(1, 10, 10_000)], &[6]),
        ];
        let merged = merge_reports(&reports);
        let t = &merged["t"];
        assert_eq!(t.publishers[&1].messages, 10);
        assert_eq!(t.subscribers, vec![5, 6]);
    }

    #[test]
    fn merge_keeps_max_when_regions_disagree() {
        // Reconfiguration window: one region missed some messages.
        let reports =
            vec![report(0, "t", &[(1, 7, 7_000)], &[]), report(1, "t", &[(1, 10, 10_000)], &[])];
        let merged = merge_reports(&reports);
        assert_eq!(merged["t"].publishers[&1].messages, 10);
        assert_eq!(merged["t"].publishers[&1].bytes, 10_000);
    }

    #[test]
    fn merge_unions_topics_across_regions() {
        let reports =
            vec![report(0, "a", &[(1, 1, 100)], &[2]), report(1, "b", &[(3, 2, 200)], &[4])];
        let merged = merge_reports(&reports);
        assert_eq!(merged.len(), 2);
        assert!(merged.contains_key("a") && merged.contains_key("b"));
    }

    #[test]
    fn merge_dedups_subscribers_seen_twice() {
        // A subscriber mid-resubscription appears in two regions.
        let reports = vec![report(0, "t", &[], &[9, 5]), report(1, "t", &[], &[5])];
        let merged = merge_reports(&reports);
        assert_eq!(merged["t"].subscribers, vec![5, 9]);
    }

    #[test]
    fn average_size_handles_empty() {
        assert_eq!(average_size(&PublisherStats { messages: 0, bytes: 0 }), 0);
        assert_eq!(average_size(&PublisherStats { messages: 4, bytes: 1000 }), 250);
    }
}
